//! The four workloads: their inputs, made from the seed, one pass of
//! each, and the check of every pass against the references.
//!
//! The paper workloads run at the shipped defaults
//! (`CampaignConfig::new`, `McConfig::default`, no `SimOptions` knob
//! set here), so a change of those defaults registers on them without
//! an edit to the benchmark.

use std::fs;
use std::path::{Path, PathBuf};

use clocksense_core::{ClockPair, SensingCircuit, SensorBuilder, Technology};
use clocksense_faults::checkpoint::{
    campaign_fingerprint, encode_fault_record, sim_options_fingerprint, TAG_FAULT, TAG_MC,
};
use clocksense_faults::{
    inject, run_campaign, sensor_fault_universe, CampaignConfig, Fault, FaultRecord, Journal, Rails,
};
use clocksense_montecarlo::{perturb_circuit_global, run_scatter, McConfig, McSample};
use clocksense_netlist::{canonical_form, f64_bits, fnv1a, Circuit, Device, FNV_OFFSET};
use clocksense_scenarios::{MeshSpec, ScenarioDeck};
use clocksense_spice::{transient_batch, SimOptions, SolverKind, SymbolicCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::reference::{check_coverage, tau_ps, FaultRef, References, SampleRef, Starve, Tally};
use crate::spans::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sec3Campaign,
    McScatter,
    MeshArray,
    MemoResume,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Sec3Campaign,
        Workload::McScatter,
        Workload::MeshArray,
        Workload::MemoResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sec3Campaign => "sec3_campaign",
            Workload::McScatter => "mc_scatter",
            Workload::MeshArray => "mesh_array",
            Workload::MemoResume => "memo_resume",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`FULL`] is the benchmark; [`TINY`] exists for the
/// benchmark's own tests. Neither reads `CLOCKSENSE_FAST`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub faults: usize,
    pub mc_samples: usize,
    pub mesh_side: usize,
    pub mesh_sensors: usize,
    pub mesh_variants: usize,
}

/// Sec. 3 universe, Fig. 5 sample count (48 per skew), a 32×32 mesh
/// with six sensors and one full lane block of variants.
pub const FULL: Sizes = Sizes {
    faults: 81,
    mc_samples: 432,
    mesh_side: 32,
    mesh_sensors: 6,
    mesh_variants: 8,
};

pub const TINY: Sizes = Sizes {
    faults: 4,
    mc_samples: 18,
    mesh_side: 8,
    mesh_sensors: 2,
    mesh_variants: 3,
};

/// The paper's sensor: 160 fF loads in the reference technology.
pub const LOAD_FARADS: f64 = 160e-15;
/// Bridging-fault resistance of the Sec. 3 universe.
pub const BRIDGE_OHMS: f64 = 100.0;
/// Input slew of the fault-free clocks.
pub const CLOCK_SLEW: f64 = 0.2e-9;
/// Master seeds with committed Monte-Carlo references: the workload
/// seed selects one of `McConfig::default().seed + 0..MC_SEED_POOL`.
pub const MC_SEED_POOL: u64 = 8;
/// Grid-link starvation levels of the mesh variants: level `k` scales
/// the links at one sensor's φ1 tap by `1 + 400 k`.
pub const STARVE_LEVELS: usize = 7;
/// Timestep of the mesh deck transient, as in the repository's
/// `mesh_array` bench.
pub const MESH_TSTEP: f64 = 4e-12;

/// What every workload needs besides its own state.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub threads: usize,
    pub sizes: Sizes,
    pub refs: References,
    /// Scratch directory for journals and trace dumps.
    pub work_dir: PathBuf,
}

pub fn sensor_builder() -> SensorBuilder {
    SensorBuilder::new(Technology::cmos12()).load_capacitance(LOAD_FARADS)
}

pub fn paper_clocks() -> ClockPair {
    ClockPair::single_shot(Technology::cmos12().vdd, CLOCK_SLEW)
}

/// The Fig. 5 skews: 0, 30, …, 240 ps.
pub fn mc_taus() -> Vec<f64> {
    (0..=8).map(|i| i as f64 * 0.03e-9).collect()
}

pub fn mc_seed(pool: u64) -> u64 {
    McConfig::default().seed + pool
}

/// An independent stream per workload and seed.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `sec3_campaign`: the 81-fault universe in a seed-chosen order.
#[derive(Debug)]
pub struct Sec3 {
    pub sensor: SensingCircuit,
    pub faults: Vec<Fault>,
    pub cfg: CampaignConfig,
}

impl Sec3 {
    pub fn new(ctx: &Ctx) -> Result<Sec3, String> {
        let sensor = sensor_builder().build().map_err(err)?;
        let mut faults = sensor_fault_universe(&sensor, BRIDGE_OHMS);
        shuffle(&mut faults, &mut rng(ctx.seed, 1));
        faults.truncate(ctx.sizes.faults);
        let mut cfg = CampaignConfig::new(paper_clocks());
        cfg.threads = ctx.threads;
        Ok(Sec3 {
            sensor,
            faults,
            cfg,
        })
    }

    /// One campaign; every record is checked.
    pub fn pass(&self, refs: &References, tally: &mut Tally) -> Vec<FaultRecord> {
        match run_campaign(&self.sensor, &self.faults, &self.cfg) {
            Ok(result) => {
                self.check(result.records(), refs, tally);
                result.records().to_vec()
            }
            Err(e) => {
                tally.attempted += self.faults.len() as u64;
                tally.failed += self.faults.len() as u64;
                tally.notes.push(format!("campaign failed: {e}"));
                Vec::new()
            }
        }
    }

    /// Checks a campaign's records: one per input fault, each agreeing
    /// with its reference.
    pub fn check(&self, records: &[FaultRecord], refs: &References, tally: &mut Tally) {
        for r in records {
            refs.check_fault(r, tally);
        }
        check_coverage(
            "fault",
            self.faults.iter().map(Fault::id),
            records.iter().map(|r| r.fault.id()),
            tally,
        );
    }

    /// The detection transient's stop time and scan start, as the
    /// campaign derives them from its clocks: two cycles, scanning the
    /// second.
    pub fn stop_and_scan(&self) -> (f64, f64) {
        let c = &self.cfg.clocks;
        (c.delay + 2.0 * c.period, c.delay + c.period)
    }
}

/// `mc_scatter`: the Fig. 5 scatter at one seed of the pool.
#[derive(Debug)]
pub struct Mc {
    pub builder: SensorBuilder,
    pub clocks: ClockPair,
    pub taus: Vec<f64>,
    pub cfg: McConfig,
    pub pool: u64,
}

/// One Monte-Carlo sample's bench and drawn parameters, built the way
/// `run_scatter` builds them.
#[derive(Debug)]
pub struct Prepared {
    pub sensor: SensingCircuit,
    pub clocks: ClockPair,
    pub bench: Circuit,
    pub tau: f64,
    pub slew1: f64,
    pub slew2: f64,
}

impl Mc {
    pub fn new(ctx: &Ctx, checkpoint: Option<PathBuf>) -> Mc {
        let pool = ctx.seed % MC_SEED_POOL;
        Mc {
            builder: sensor_builder(),
            clocks: paper_clocks(),
            taus: mc_taus(),
            cfg: McConfig {
                samples: ctx.sizes.mc_samples,
                seed: mc_seed(pool),
                threads: ctx.threads,
                checkpoint,
                ..McConfig::default()
            },
            pool,
        }
    }

    /// One scatter; every sample is checked.
    pub fn pass(&self, refs: &References, tally: &mut Tally) -> Vec<McSample> {
        match run_scatter(&self.builder, &self.clocks, &self.taus, &self.cfg) {
            Ok(samples) => {
                self.check(&samples, refs, tally);
                samples
            }
            Err(e) => {
                tally.attempted += self.cfg.samples as u64;
                tally.failed += self.cfg.samples as u64;
                tally.notes.push(format!("scatter failed: {e}"));
                Vec::new()
            }
        }
    }

    /// Checks a scatter's samples: one per requested sample, each
    /// agreeing with its reference.
    pub fn check(&self, samples: &[McSample], refs: &References, tally: &mut Tally) {
        for (i, s) in samples.iter().enumerate() {
            refs.check_sample(self.pool, i, s, tally);
        }
        check_coverage("sample", 0..self.cfg.samples, 0..samples.len(), tally);
    }

    /// Draws sample `index` through the public calls `run_scatter` makes:
    /// a per-sample stream from the master seed, a global perturbation,
    /// two slews, and the skew-compensated test bench.
    pub fn prepare(&self, index: usize, t: &mut Tracer) -> Result<Prepared, String> {
        let tau = self.taus[index % self.taus.len()];
        let mut rng =
            StdRng::seed_from_u64(self.cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index as u64);
        let mut sensor = self.builder.build().map_err(err)?;
        t.span("montecarlo.perturb", |_| {
            perturb_circuit_global(
                sensor.circuit_mut(),
                self.cfg.spread,
                &["cl1", "cl2"],
                &mut rng,
            )
        });
        let (lo, hi) = self.cfg.slew_range;
        let slew1 = rng.gen_range(lo..=hi);
        let slew2 = rng.gen_range(lo..=hi);
        let clocks = self.clocks.with_skew(tau + 0.5 * (slew1 - slew2));
        let bench = t
            .span("core.testbench", |_| {
                sensor.testbench_with_slews(&clocks, slew1, slew2)
            })
            .map_err(err)?;
        Ok(Prepared {
            sensor,
            clocks,
            bench,
            tau,
            slew1,
            slew2,
        })
    }

    /// The checkpoint key `run_scatter` files a sample under.
    pub fn journal_hash(&self, p: &Prepared) -> u64 {
        let h = fnv1a(FNV_OFFSET, canonical_form(&p.bench).as_bytes());
        let extra = format!(
            "{}|mc;seed={};spread={};tau={};slew1={};slew2={};t_stop={};v_th={}",
            sim_options_fingerprint(&self.cfg.sim),
            self.cfg.seed,
            f64_bits(self.cfg.spread),
            f64_bits(p.tau),
            f64_bits(p.slew1),
            f64_bits(p.slew2),
            f64_bits(p.clocks.sim_stop_time()),
            f64_bits(p.sensor.technology().logic_threshold()),
        );
        fnv1a(h, extra.as_bytes())
    }
}

/// The journal fields of a finished sample.
pub fn mc_fields(s: &McSample) -> Vec<String> {
    vec![
        f64_bits(s.tau),
        f64_bits(s.vmin),
        if s.detected { "1" } else { "0" }.to_string(),
        f64_bits(s.slew1),
        f64_bits(s.slew2),
    ]
}

/// The checkpoint key `run_campaign` files an injected bench under.
pub fn fault_hash(sec3: &Sec3, injected: &Circuit) -> u64 {
    let v_th = sec3.sensor.technology().logic_threshold();
    let h = fnv1a(FNV_OFFSET, canonical_form(injected).as_bytes());
    fnv1a(h, campaign_fingerprint(&sec3.cfg, v_th).as_bytes())
}

/// `mesh_array`: value variants of one generated mesh deck, one lane
/// block wide.
#[derive(Debug)]
pub struct Mesh {
    pub deck: ScenarioDeck,
    pub label: String,
    pub starves: Vec<Starve>,
    pub circuits: Vec<Circuit>,
    pub opts: SimOptions,
}

pub fn mesh_spec(sizes: &Sizes) -> MeshSpec {
    MeshSpec {
        sensors: sizes.mesh_sensors,
        ..MeshSpec::new(sizes.mesh_side, sizes.mesh_side)
    }
}

pub fn mesh_label(sizes: &Sizes) -> String {
    format!(
        "mesh{}x{}s{}",
        sizes.mesh_side, sizes.mesh_side, sizes.mesh_sensors
    )
}

pub fn mesh_opts(width: usize) -> SimOptions {
    SimOptions {
        solver: SolverKind::Sparse,
        tstep: MESH_TSTEP,
        batch: width,
        ..SimOptions::default()
    }
}

/// The deck with every grid link at sensor `s`'s φ1 tap scaled by
/// `1 + 400 k` — the footprint of a resistive-open defect right under
/// the monitored wire — for `Some((s, k))`; the healthy deck for `None`.
pub fn starved_variant(deck: &ScenarioDeck, starve: Starve) -> Result<Circuit, String> {
    let mut ckt = deck.circuit.clone();
    let Some((sensor, level)) = starve else {
        return Ok(ckt);
    };
    let factor = 1.0 + 400.0 * level as f64;
    let tap = deck.taps.get(sensor).ok_or("no such sensor")?;
    let target = ckt.find_node(&tap.phi1).ok_or("tap node missing")?;
    let links: Vec<_> = ckt
        .devices()
        .filter_map(|(id, entry)| match &entry.device {
            Device::Resistor(r)
                if entry.name.starts_with('r')
                    && !entry.name.starts_with("rdrv")
                    && (r.a == target || r.b == target) =>
            {
                Some(id)
            }
            _ => None,
        })
        .collect();
    if links.is_empty() {
        return Err(format!("tap {} has no grid links", tap.phi1));
    }
    for id in links {
        if let Some(entry) = ckt.device_mut(id) {
            if let Device::Resistor(r) = &mut entry.device {
                r.ohms *= factor;
            }
        }
    }
    Ok(ckt)
}

/// Every single-tap starvation of a deck with `sensors` sensors.
pub fn starvations(sensors: usize) -> Vec<Starve> {
    (0..sensors)
        .flat_map(|s| (1..=STARVE_LEVELS).map(move |l| Some((s, l))))
        .collect()
}

/// Runs value variants of `deck` through the batch kernel and returns
/// each variant's sensor verdicts by name, or its error.
pub fn mesh_verdicts(
    deck: &ScenarioDeck,
    circuits: &[Circuit],
    opts: &SimOptions,
) -> Vec<Result<Vec<String>, String>> {
    transient_batch(circuits, deck.sim_stop_time(), opts, &SymbolicCache::new())
        .into_iter()
        .map(|res| {
            let result = res.map_err(err)?;
            let verdicts = deck.verdicts(&result).map_err(err)?;
            Ok(verdicts.iter().map(|v| format!("{v:?}")).collect())
        })
        .collect()
}

impl Mesh {
    pub fn new(ctx: &Ctx) -> Result<Mesh, String> {
        let deck = mesh_spec(&ctx.sizes).build().map_err(err)?;
        let mut rng = rng(ctx.seed, 3);
        let mut starves = starvations(deck.taps.len());
        shuffle(&mut starves, &mut rng);
        starves.truncate(ctx.sizes.mesh_variants - 1);
        starves.push(None);
        shuffle(&mut starves, &mut rng);
        let circuits = starves
            .iter()
            .map(|&s| starved_variant(&deck, s))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Mesh {
            deck,
            label: mesh_label(&ctx.sizes),
            opts: mesh_opts(starves.len()),
            starves,
            circuits,
        })
    }

    /// One batched transient of every variant; every sensor verdict is
    /// checked.
    pub fn pass(&self, refs: &References, tally: &mut Tally) -> Vec<Result<Vec<String>, String>> {
        let out = mesh_verdicts(&self.deck, &self.circuits, &self.opts);
        self.check(&out, refs, tally);
        out
    }

    /// Checks the verdicts of a batch: one result per variant, each
    /// with one verdict per sensor agreeing with its reference.
    pub fn check(&self, out: &[Result<Vec<String>, String>], refs: &References, tally: &mut Tally) {
        let sensors = self.deck.taps.len() as u64;
        for (starve, res) in self.starves.iter().zip(out) {
            match res {
                Ok(verdicts) => refs.check_mesh(&self.label, *starve, verdicts, tally),
                Err(e) => {
                    tally.attempted += sensors;
                    tally.failed += sensors;
                    tally.notes.push(format!("variant {starve:?}: {e}"));
                }
            }
        }
        check_coverage("mesh variant", 0..self.starves.len(), 0..out.len(), tally);
    }
}

/// One record to re-journal.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    pub hash: u64,
    pub tag: &'static str,
    pub fields: Vec<String>,
}

/// `memo_resume`: journals filled by one campaign and one scatter, then
/// served back as memo hits.
#[derive(Debug)]
pub struct Memo {
    pub sec3: Sec3,
    pub mc: Mc,
    pub fault_journal: PathBuf,
    pub mc_journal: PathBuf,
    pub fresh_journal: PathBuf,
    /// What the filling run produced; replays must match bit for bit.
    pub fault_golden: Vec<FaultRecord>,
    pub mc_golden: Vec<McSample>,
    pub records: Vec<JournalRecord>,
}

pub fn fresh_file(path: &Path) -> Result<(), String> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

pub fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

impl Memo {
    /// Fills both journals (the fill is checked like a pass) and derives
    /// every record's key, which must find the filled record.
    pub fn new(ctx: &Ctx, tally: &mut Tally) -> Result<Memo, String> {
        fs::create_dir_all(&ctx.work_dir).map_err(err)?;
        let pid = std::process::id();
        let path = |name: &str| ctx.work_dir.join(format!("memo_{pid}_{name}.journal"));
        let (fault_journal, mc_journal, fresh_journal) =
            (path("faults"), path("mc"), path("fresh"));
        for p in [&fault_journal, &mc_journal, &fresh_journal] {
            fresh_file(p)?;
        }
        let mut sec3 = Sec3::new(ctx)?;
        sec3.cfg.checkpoint = Some(fault_journal.clone());
        let mc = Mc::new(ctx, Some(mc_journal.clone()));
        let fault_golden = sec3.pass(&ctx.refs, tally);
        let mc_golden = mc.pass(&ctx.refs, tally);
        if fault_golden.len() != sec3.faults.len() || mc_golden.len() != mc.cfg.samples {
            return Err("filling the journals failed".into());
        }

        let bench = sec3.sensor.testbench(&sec3.cfg.clocks).map_err(err)?;
        let mut records = Vec::with_capacity(fault_golden.len() + mc_golden.len());
        for (fault, record) in sec3.faults.iter().zip(&fault_golden) {
            let injected = inject(&bench, fault, &Rails::vdd_gnd("vdd")).map_err(err)?;
            records.push(JournalRecord {
                hash: fault_hash(&sec3, &injected),
                tag: TAG_FAULT,
                fields: encode_fault_record(record),
            });
        }
        for (i, s) in mc_golden.iter().enumerate() {
            let p = mc.prepare(i, &mut Tracer::new(std::time::Instant::now(), i))?;
            records.push(JournalRecord {
                hash: mc.journal_hash(&p),
                tag: TAG_MC,
                fields: mc_fields(s),
            });
        }
        let faults_j = Journal::open(&fault_journal).map_err(err)?;
        let mc_j = Journal::open(&mc_journal).map_err(err)?;
        for r in &records {
            let journal = if r.tag == TAG_FAULT { &faults_j } else { &mc_j };
            if journal.lookup(r.hash, r.tag) != Some(&r.fields[..]) {
                return Err(format!(
                    "{} record {:016x} is not where the program journalled it",
                    r.tag, r.hash
                ));
            }
        }
        Ok(Memo {
            sec3,
            mc,
            fault_journal,
            mc_journal,
            fresh_journal,
            fault_golden,
            mc_golden,
            records,
        })
    }

    /// Serves every record from the filled journals. Returns the records
    /// served. The writes are timed by the set-up's fill and by the
    /// traced re-journalling, not here: a flush waits on the disk, whose
    /// latency on a shared host swings by more than the CPU work of a
    /// whole pass.
    pub fn pass(&self, refs: &References, tally: &mut Tally) -> u64 {
        let before = (file_len(&self.fault_journal), file_len(&self.mc_journal));
        match run_campaign(&self.sec3.sensor, &self.sec3.faults, &self.sec3.cfg) {
            Ok(result) => {
                let records = result.records();
                for (r, golden) in records.iter().zip(&self.fault_golden) {
                    if r == golden {
                        refs.check_fault(r, tally);
                    } else {
                        tally.attempted += 1;
                        tally.fail(format!("replayed {} differs from its fill", r.fault));
                    }
                }
                check_coverage(
                    "replayed fault",
                    self.fault_golden.iter().map(|r| r.fault.id()),
                    records.iter().map(|r| r.fault.id()),
                    tally,
                );
            }
            Err(e) => {
                tally.attempted += self.fault_golden.len() as u64;
                tally.failed += self.fault_golden.len() as u64;
                tally.notes.push(format!("campaign replay failed: {e}"));
            }
        }
        match run_scatter(
            &self.mc.builder,
            &self.mc.clocks,
            &self.mc.taus,
            &self.mc.cfg,
        ) {
            Ok(samples) => {
                for (i, (s, golden)) in samples.iter().zip(&self.mc_golden).enumerate() {
                    if mc_fields(s) == mc_fields(golden) {
                        refs.check_sample(self.mc.pool, i, s, tally);
                    } else {
                        tally.attempted += 1;
                        tally.fail(format!("replayed sample {i} differs from its fill"));
                    }
                }
                check_coverage(
                    "replayed sample",
                    0..self.mc_golden.len(),
                    0..samples.len(),
                    tally,
                );
            }
            Err(e) => {
                tally.attempted += self.mc_golden.len() as u64;
                tally.failed += self.mc_golden.len() as u64;
                tally.notes.push(format!("scatter replay failed: {e}"));
            }
        }
        // A memo miss would have re-simulated and journalled the item.
        if (file_len(&self.fault_journal), file_len(&self.mc_journal)) != before {
            tally.fail("a replay wrote to its journal: not every item was a memo hit".into());
        }
        self.records.len() as u64
    }
}

/// A set-up workload.
#[derive(Debug)]
pub enum State {
    Sec3(Sec3),
    Mc(Mc),
    Mesh(Mesh),
    Memo(Box<Memo>),
}

impl State {
    /// Builds the workload's inputs (for `memo_resume` this fills the
    /// journals; that fill is checked into `tally`).
    pub fn setup(w: Workload, ctx: &Ctx, tally: &mut Tally) -> Result<State, String> {
        Ok(match w {
            Workload::Sec3Campaign => State::Sec3(Sec3::new(ctx)?),
            Workload::McScatter => State::Mc(Mc::new(ctx, None)),
            Workload::MeshArray => State::Mesh(Mesh::new(ctx)?),
            Workload::MemoResume => State::Memo(Box::new(Memo::new(ctx, tally)?)),
        })
    }

    /// One pass; returns the items delivered.
    pub fn pass(&self, refs: &References, tally: &mut Tally) -> u64 {
        match self {
            State::Sec3(s) => {
                s.pass(refs, tally);
                s.faults.len() as u64
            }
            State::Mc(m) => {
                m.pass(refs, tally);
                m.cfg.samples as u64
            }
            State::Mesh(m) => {
                m.pass(refs, tally);
                (m.deck.taps.len() * m.starves.len()) as u64
            }
            State::Memo(m) => m.pass(refs, tally),
        }
    }
}

impl Drop for Memo {
    fn drop(&mut self) {
        for p in [&self.fault_journal, &self.mc_journal, &self.fresh_journal] {
            let _ = fs::remove_file(p);
        }
    }
}

/// Computes every reference at the shipped defaults: the campaign once,
/// the scatter at each seed of the pool, and every mesh variant of the
/// full and tiny decks. A failing or inconclusive fault, or a healthy
/// deck reading an error, refuses to become a reference.
pub fn generate_references(threads: usize) -> Result<References, String> {
    let ctx = |seed, sizes| Ctx {
        seed,
        threads,
        sizes,
        refs: References::default(),
        work_dir: PathBuf::new(),
    };
    let mut refs = References::default();
    let sec3 = Sec3::new(&ctx(0, FULL))?;
    let result = run_campaign(&sec3.sensor, &sec3.faults, &sec3.cfg).map_err(err)?;
    for r in result.records() {
        if r.outcome == clocksense_faults::DetectionOutcome::Inconclusive || r.is_quarantined() {
            return Err(format!("{} is inconclusive", r.fault));
        }
        let entry = FaultRef {
            outcome: format!("{:?}", r.outcome),
            masks_skew: r.masks_skew,
        };
        if refs.faults.insert(r.fault.id(), entry).is_some() {
            return Err(format!("fault id {} is not unique", r.fault));
        }
    }
    for pool in 0..MC_SEED_POOL {
        let mc = Mc::new(&ctx(pool, FULL), None);
        let samples = run_scatter(&mc.builder, &mc.clocks, &mc.taus, &mc.cfg).map_err(err)?;
        let samples = samples
            .iter()
            .map(|s| SampleRef {
                tau_ps: tau_ps(s.tau),
                vmin: s.vmin,
                detected: s.detected,
            })
            .collect();
        refs.mc.insert(pool, samples);
    }
    for sizes in [FULL, TINY] {
        let deck = mesh_spec(&sizes).build().map_err(err)?;
        let mut starves = vec![None];
        starves.extend(starvations(deck.taps.len()));
        for chunk in starves.chunks(sizes.mesh_variants) {
            let circuits = chunk
                .iter()
                .map(|&s| starved_variant(&deck, s))
                .collect::<Result<Vec<_>, _>>()?;
            let opts = mesh_opts(sizes.mesh_variants);
            for (&starve, res) in chunk.iter().zip(mesh_verdicts(&deck, &circuits, &opts)) {
                let verdicts = res?;
                if starve.is_none() && verdicts.iter().any(|v| v != "NoError") {
                    return Err(format!("healthy deck reads {verdicts:?}"));
                }
                refs.mesh.insert((mesh_label(&sizes), starve), verdicts);
            }
        }
    }
    Ok(refs)
}
