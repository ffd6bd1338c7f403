//! Committed reference outputs and the correctness gate that every pass
//! is checked against.
//!
//! The files under `reference/` were generated once at the shipped
//! defaults (`perfbench --write-reference`). They are tab-separated
//! text, one record a line, `#` lines being comments:
//!
//! * `sec3_campaign.tsv` — `fault  outcome  masks_skew` for the 81
//!   faults of the Sec. 3 universe;
//! * `mc_scatter.tsv` — `pool  index  tau_ps  vmin_bits  detected` for
//!   the samples of every Monte-Carlo seed of the pool, V_min as the
//!   exact bit pattern of the `f64`;
//! * `mesh_array.tsv` — `deck  sensor  level  verdicts` for the healthy
//!   deck (sensor and level `-`) and every single-tap starvation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use clocksense_faults::{DetectionOutcome, FaultRecord};
use clocksense_montecarlo::McSample;

/// A V_min further than this from its reference fails the sample. It is
/// the drift the repository already accepts between timestep grids
/// (`tests/adaptive_timestep.rs`); `vmin_err_mv` reports the drift
/// itself.
pub const VMIN_TOL_MV: f64 = 100.0;

/// Reference verdict of one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRef {
    pub outcome: String,
    pub masks_skew: Option<bool>,
}

/// Reference observation of one Monte-Carlo sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRef {
    pub tau_ps: u32,
    pub vmin: f64,
    pub detected: bool,
}

/// One mesh variant: `None` is the healthy deck, `Some((sensor, level))`
/// starves the grid links at that sensor's φ1 tap by `1 + 400 level`.
pub type Starve = Option<(usize, usize)>;

/// Every committed reference.
#[derive(Debug, Clone, Default)]
pub struct References {
    /// By fault id.
    pub faults: BTreeMap<String, FaultRef>,
    /// By seed-pool index, in sample order.
    pub mc: BTreeMap<u64, Vec<SampleRef>>,
    /// Per-sensor verdict names by deck label and variant.
    pub mesh: BTreeMap<(String, Starve), Vec<String>>,
}

/// Pass results checked so far.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Largest |V_min − reference| over every checked sample, in mV.
    pub vmin_err_mv: f64,
    /// The first few mismatches, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 10 {
            self.notes.push(note);
        }
    }
}

fn fields(text: &str) -> impl Iterator<Item = (usize, Vec<&str>)> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .map(|(n, l)| (n + 1, l.split('\t').collect()))
}

fn opt_bool(field: &str) -> Result<Option<bool>, String> {
    match field {
        "yes" => Ok(Some(true)),
        "no" => Ok(Some(false)),
        "-" => Ok(None),
        other => Err(format!("expected yes/no/-, got {other:?}")),
    }
}

fn opt_bool_field(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "yes",
        Some(false) => "no",
        None => "-",
    }
}

fn starve_fields(starve: Starve) -> (String, String) {
    match starve {
        None => ("-".into(), "-".into()),
        Some((s, l)) => (s.to_string(), l.to_string()),
    }
}

impl References {
    /// Loads the three reference files from `dir`.
    pub fn load(dir: &Path) -> Result<References, String> {
        let read = |name: &str| {
            fs::read_to_string(dir.join(name))
                .map_err(|e| format!("{}: {e}", dir.join(name).display()))
        };
        References::parse(
            &read("sec3_campaign.tsv")?,
            &read("mc_scatter.tsv")?,
            &read("mesh_array.tsv")?,
        )
    }

    pub fn parse(sec3: &str, mc: &str, mesh: &str) -> Result<References, String> {
        let mut refs = References::default();
        for (n, f) in fields(sec3) {
            let bad = |e: String| format!("sec3_campaign.tsv:{n}: {e}");
            let [id, outcome, masks] = f[..] else {
                return Err(bad("expected 3 fields".into()));
            };
            let r = FaultRef {
                outcome: outcome.to_string(),
                masks_skew: opt_bool(masks).map_err(bad)?,
            };
            if refs.faults.insert(id.to_string(), r).is_some() {
                return Err(bad(format!("duplicate fault {id}")));
            }
        }
        for (n, f) in fields(mc) {
            let bad = |e: &str| format!("mc_scatter.tsv:{n}: {e}");
            let [pool, index, tau_ps, vmin, detected] = f[..] else {
                return Err(bad("expected 5 fields"));
            };
            let pool: u64 = pool.parse().map_err(|_| bad("bad pool index"))?;
            let index: usize = index.parse().map_err(|_| bad("bad sample index"))?;
            let samples = refs.mc.entry(pool).or_default();
            if index != samples.len() {
                return Err(bad("samples must be listed in order"));
            }
            samples.push(SampleRef {
                tau_ps: tau_ps.parse().map_err(|_| bad("bad tau"))?,
                vmin: u64::from_str_radix(vmin, 16)
                    .map(f64::from_bits)
                    .map_err(|_| bad("bad vmin bits"))?,
                detected: match detected {
                    "1" => true,
                    "0" => false,
                    _ => return Err(bad("detected must be 0 or 1")),
                },
            });
        }
        for (n, f) in fields(mesh) {
            let bad = |e: &str| format!("mesh_array.tsv:{n}: {e}");
            let [deck, sensor, level, verdicts] = f[..] else {
                return Err(bad("expected 4 fields"));
            };
            let starve = match (sensor, level) {
                ("-", "-") => None,
                (s, l) => Some((
                    s.parse().map_err(|_| bad("bad sensor"))?,
                    l.parse().map_err(|_| bad("bad level"))?,
                )),
            };
            let verdicts = verdicts.split(',').map(str::to_string).collect();
            refs.mesh.insert((deck.to_string(), starve), verdicts);
        }
        Ok(refs)
    }

    /// Writes the three reference files into `dir`.
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        let mut sec3 = String::from("# fault\toutcome\tmasks_skew\n");
        for (id, r) in &self.faults {
            let _ = writeln!(
                sec3,
                "{id}\t{}\t{}",
                r.outcome,
                opt_bool_field(r.masks_skew)
            );
        }
        let mut mc = String::from("# pool\tindex\ttau_ps\tvmin_bits\tdetected\n");
        for (pool, samples) in &self.mc {
            for (i, s) in samples.iter().enumerate() {
                let _ = writeln!(
                    mc,
                    "{pool}\t{i}\t{}\t{:016x}\t{}",
                    s.tau_ps,
                    s.vmin.to_bits(),
                    u8::from(s.detected)
                );
            }
        }
        let mut mesh = String::from("# deck\tsensor\tlevel\tverdicts\n");
        for ((deck, starve), verdicts) in &self.mesh {
            let (s, l) = starve_fields(*starve);
            let _ = writeln!(mesh, "{deck}\t{s}\t{l}\t{}", verdicts.join(","));
        }
        fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        for (name, text) in [
            ("sec3_campaign.tsv", sec3),
            ("mc_scatter.tsv", mc),
            ("mesh_array.tsv", mesh),
        ] {
            fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }

    /// Checks one campaign record. Errors, inconclusive and quarantined
    /// verdicts fail as well as disagreement with the reference.
    pub fn check_fault(&self, record: &FaultRecord, tally: &mut Tally) {
        tally.attempted += 1;
        let id = record.fault.id();
        let outcome = format!("{:?}", record.outcome);
        if record.outcome == DetectionOutcome::Inconclusive || record.is_quarantined() {
            return tally.fail(format!("{id}: {outcome} ({:?})", record.failure));
        }
        match self.faults.get(&id) {
            None => tally.fail(format!("{id}: no reference")),
            Some(r) if r.outcome != outcome || r.masks_skew != record.masks_skew => {
                tally.fail(format!(
                    "{id}: {outcome}/{:?}, reference {}/{:?}",
                    record.masks_skew, r.outcome, r.masks_skew
                ))
            }
            Some(_) => {}
        }
    }

    /// Checks Monte-Carlo sample `index` of pool entry `pool`.
    pub fn check_sample(&self, pool: u64, index: usize, s: &McSample, tally: &mut Tally) {
        tally.attempted += 1;
        let Some(r) = self.mc.get(&pool).and_then(|v| v.get(index)) else {
            return tally.fail(format!("mc pool {pool} sample {index}: no reference"));
        };
        let err_mv = (s.vmin - r.vmin).abs() * 1e3;
        tally.vmin_err_mv = tally.vmin_err_mv.max(err_mv);
        if tau_ps(s.tau) != r.tau_ps
            || s.detected != r.detected
            || err_mv > VMIN_TOL_MV
            || err_mv.is_nan()
        {
            tally.fail(format!(
                "mc pool {pool} sample {index}: tau {} ps vmin {} detected {}, reference {} ps {} {}",
                tau_ps(s.tau),
                s.vmin,
                s.detected,
                r.tau_ps,
                r.vmin,
                r.detected
            ));
        }
    }

    /// Checks the per-sensor verdicts of one mesh variant; every sensor
    /// verdict is one item.
    pub fn check_mesh(&self, deck: &str, starve: Starve, verdicts: &[String], tally: &mut Tally) {
        let Some(r) = self.mesh.get(&(deck.to_string(), starve)) else {
            tally.attempted += verdicts.len().max(1) as u64;
            tally.failed += verdicts.len().max(1) as u64;
            tally.notes.push(format!("{deck} {starve:?}: no reference"));
            return;
        };
        // A missing or an extra sensor verdict fails like a wrong one.
        for k in 0..verdicts.len().max(r.len()) {
            tally.attempted += 1;
            if r.get(k) != verdicts.get(k) {
                tally.fail(format!(
                    "{deck} {starve:?} sensor {k}: {:?}, reference {:?}",
                    verdicts.get(k),
                    r.get(k)
                ));
            }
        }
    }
}

/// Checks that the results name every input item exactly once: an item
/// without a result fails (and counts as attempted), and so does every
/// result beyond one per input item. `inputs` and `results` are the item
/// keys; results are checked for content elsewhere.
pub fn check_coverage<K: Ord + std::fmt::Debug>(
    what: &str,
    inputs: impl IntoIterator<Item = K>,
    results: impl IntoIterator<Item = K>,
    tally: &mut Tally,
) {
    let mut open: BTreeMap<K, i64> = BTreeMap::new();
    for k in inputs {
        *open.entry(k).or_default() += 1;
    }
    for k in results {
        *open.entry(k).or_default() -= 1;
    }
    for (k, n) in open {
        let kind = if n > 0 {
            "no result"
        } else {
            "an extra result"
        };
        tally.attempted += n.max(0) as u64;
        for _ in 0..n.unsigned_abs() {
            tally.fail(format!("{what} {k:?}: {kind}"));
        }
    }
}

/// A sample's skew in whole picoseconds (the grid is 30 ps).
pub fn tau_ps(tau: f64) -> u32 {
    (tau * 1e12).round() as u32
}
