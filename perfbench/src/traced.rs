//! The traced run: per-layer metrics of one workload.
//!
//! It works in two parts. First the workload's entry call (`run_campaign`,
//! `run_scatter`, `transient_batch`, or the memo replay) runs once with
//! the telemetry registry enabled, which records the program's own
//! counters and the executor's `*.item_wall` timers. Then the same
//! items are driven through the public per-item calls that entry makes,
//! with a span recorded around each call; a layer's time is the self
//! time of its spans. The decomposed items must reach the entry call's
//! results, or the split does not describe the program and the run is
//! marked incorrect.

use std::fs;
use std::time::Instant;

use clocksense_core::{interpret, ClockPair, SensingCircuit};
use clocksense_exec::Executor;
use clocksense_faults::checkpoint::{encode_fault_record, TAG_FAULT, TAG_MC};
use clocksense_faults::{
    complementary_window, inject, run_campaign, DetectionCriteria, DetectionOutcome, Fault,
    FaultRecord, Journal, Rails, SimTemplate,
};
use clocksense_montecarlo::{run_scatter, McSample};
use clocksense_netlist::SourceWave;
use clocksense_spice::{transient_batch, transient_cached, SymbolicCache};

use crate::reference::Tally;
use crate::spans::{quantile, tail, Trace, Tracer};
use crate::workloads::{
    err, fault_hash, file_len, fresh_file, mc_fields, mesh_spec, starved_variant, Ctx, Mc, Memo,
    Mesh, Sec3, State, Workload,
};
use crate::Metric;

/// Per-layer metrics: name and unit, in the order `BENCHMARK.json`
/// lists them.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("spice.tran_s", "s"),
    ("spice.dc_s", "s"),
    ("spice.steps_accepted", "count"),
    ("spice.steps_rejected", "count"),
    ("spice.newton_solves", "count"),
    ("spice.newton_iters_per_solve", "ratio"),
    ("spice.lu_factorizations", "count"),
    ("spice.us_per_step", "us"),
    ("spice.convergence_failures", "count"),
    ("spice.symbolic_reuse_hits", "count"),
    ("spice.symbolic_analyses", "count"),
    ("spice.fill_in", "count"),
    ("spice.numeric_refactors", "count"),
    ("batch.variants_batched", "count"),
    ("batch.variants_scalar_fallback", "count"),
    ("batch.lane_occupancy", "ratio"),
    ("batch.lane_slots_scheduled", "count"),
    ("batch.steps_accepted", "count"),
    ("batch.dropouts_nonconvergence", "count"),
    ("faults.inject_s", "s"),
    ("faults.detect_s", "s"),
    ("faults.item_ms_p50", "ms"),
    ("faults.item_ms_tail", "ms"),
    ("faults.template_cache_hits", "count"),
    ("faults.template_cache_misses", "count"),
    ("faults.retries", "count"),
    ("faults.quarantined", "count"),
    ("montecarlo.prep_s", "s"),
    ("montecarlo.sample_ms_p50", "ms"),
    ("montecarlo.sample_ms_tail", "ms"),
    ("exec.utilization", "ratio"),
    ("exec.panics", "count"),
    ("checkpoint.replay_s", "s"),
    ("checkpoint.open_s", "s"),
    ("checkpoint.append_ms_p50", "ms"),
    ("checkpoint.append_ms_tail", "ms"),
    ("checkpoint.bytes_flushed", "bytes"),
    ("checkpoint.memo_hits", "count"),
    ("checkpoint.memo_hit_ratio", "ratio"),
    ("netlist.canon_s", "s"),
    ("scenarios.deck_build_s", "s"),
    ("scenarios.verdicts_s", "s"),
    ("core.testbench_s", "s"),
    ("telemetry.overhead_frac", "ratio"),
    ("trace.items_matched", "count"),
];

/// The entry call's results, which the decomposition must reach.
enum Driven {
    Faults(Vec<FaultRecord>),
    Samples(Vec<McSample>),
    Verdicts(Vec<Result<Vec<String>, String>>),
    /// `memo_resume` items are checked against the filled journals.
    Records,
}

/// What the decomposition of one workload found.
#[derive(Debug, Default)]
struct Decomposed {
    trace: Trace,
    /// Items driven through the per-item calls.
    items: u64,
    /// Of those, the ones whose result equals the entry call's.
    matched: u64,
    bytes_flushed: u64,
}

/// Runs the traced measurement of `state`, already set up and warmed.
/// Returns the per-layer metrics and log lines.
pub fn run(
    w: Workload,
    state: &State,
    ctx: &Ctx,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let registry = clocksense_telemetry::global();
    let start = Instant::now();
    state.pass(&ctx.refs, tally);
    let untraced_s = start.elapsed().as_secs_f64();

    registry.reset();
    registry.enable();
    let start = Instant::now();
    let refs = &ctx.refs;
    let driven = match state {
        State::Sec3(s) => Driven::Faults(s.pass(refs, tally)),
        State::Mc(m) => Driven::Samples(m.pass(refs, tally)),
        State::Mesh(m) => Driven::Verdicts(m.pass(refs, tally)),
        State::Memo(m) => {
            m.pass(refs, tally);
            Driven::Records
        }
    };
    let traced_s = start.elapsed().as_secs_f64();
    registry.disable();
    let program = registry.snapshot();

    registry.reset();
    registry.enable();
    let d = match (state, &driven) {
        (State::Sec3(s), Driven::Faults(out)) => decompose_sec3(s, ctx, out),
        (State::Mc(m), Driven::Samples(out)) => decompose_mc(m, ctx, out),
        (State::Mesh(m), Driven::Verdicts(out)) => decompose_mesh(m, ctx, out),
        (State::Memo(m), _) => decompose_memo(m),
        _ => unreachable!("driven output matches its state"),
    };
    registry.disable();
    let d = d?;
    let decomposed = registry.snapshot();
    registry.reset();

    let dump = ctx
        .work_dir
        .join(format!("trace_{}_seed{}.tsv", w.name(), ctx.seed));
    fs::create_dir_all(&ctx.work_dir).map_err(err)?;
    fs::write(&dump, d.trace.to_tsv()).map_err(err)?;

    let totals = d.trace.totals();
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_time.as_secs_f64());
    let total_s = |name: &str| totals.get(name).map_or(0.0, |t| t.total.as_secs_f64());
    let c = |name: &str| program.counter(name).unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let item_wall_s = ["faults.item_wall", "montecarlo.item_wall"]
        .iter()
        .filter_map(|t| program.timer(t))
        .fold(0.0, |sum, t| sum + t.total_nanos as f64 * 1e-9);
    // Steps of the decomposition itself, whose spans time the solves.
    let steps = ["spice.steps_accepted", "batch.steps_accepted"]
        .iter()
        .map(|n| decomposed.counter(n).unwrap_or(0) as f64)
        .sum::<f64>();
    let faults_ms = d.trace.durations_ms("faults.item");
    let samples_ms = d.trace.durations_ms("montecarlo.sample");
    let append_ms = d.trace.durations_ms("checkpoint.append");
    let (faults_q, faults_tail) = tail(&faults_ms);
    let (samples_q, samples_tail) = tail(&samples_ms);
    let (append_q, append_tail) = tail(&append_ms);

    let values = [
        ("spice.tran_s", self_s("spice.tran")),
        ("spice.dc_s", self_s("spice.dc")),
        ("spice.steps_accepted", c("spice.steps_accepted")),
        ("spice.steps_rejected", c("spice.steps_rejected")),
        ("spice.newton_solves", c("spice.newton_solves")),
        (
            "spice.newton_iters_per_solve",
            ratio(c("spice.newton_iterations"), c("spice.newton_solves")),
        ),
        ("spice.lu_factorizations", c("spice.lu_factorizations")),
        (
            "spice.us_per_step",
            ratio(self_s("spice.tran") * 1e6, steps),
        ),
        (
            "spice.convergence_failures",
            c("spice.convergence_failures"),
        ),
        ("spice.symbolic_reuse_hits", c("spice.symbolic_reuse_hits")),
        ("spice.symbolic_analyses", c("spice.symbolic_analyses")),
        ("spice.fill_in", c("spice.fill_in")),
        ("spice.numeric_refactors", c("spice.numeric_refactors")),
        ("batch.variants_batched", c("batch.variants_batched")),
        (
            "batch.variants_scalar_fallback",
            c("batch.variants_scalar_fallback"),
        ),
        (
            "batch.lane_occupancy",
            ratio(
                c("batch.lane_slots_active"),
                c("batch.lane_slots_scheduled"),
            ),
        ),
        (
            "batch.lane_slots_scheduled",
            c("batch.lane_slots_scheduled"),
        ),
        ("batch.steps_accepted", c("batch.steps_accepted")),
        (
            "batch.dropouts_nonconvergence",
            c("batch.dropouts_nonconvergence"),
        ),
        ("faults.inject_s", self_s("faults.inject")),
        ("faults.detect_s", self_s("faults.detect")),
        ("faults.item_ms_p50", quantile(&faults_ms, 0.5)),
        ("faults.item_ms_tail", faults_tail),
        (
            "faults.template_cache_hits",
            c("faults.template_cache_hits"),
        ),
        (
            "faults.template_cache_misses",
            c("faults.template_cache_misses"),
        ),
        ("faults.retries", c("campaign.retry_scheduled")),
        ("faults.quarantined", c("campaign.quarantined")),
        ("montecarlo.prep_s", total_s("montecarlo.prep")),
        ("montecarlo.sample_ms_p50", quantile(&samples_ms, 0.5)),
        ("montecarlo.sample_ms_tail", samples_tail),
        (
            "exec.utilization",
            ratio(item_wall_s, traced_s * ctx.threads as f64),
        ),
        ("exec.panics", c("faults.panics") + c("montecarlo.panics")),
        ("checkpoint.replay_s", total_s("checkpoint.replay")),
        ("checkpoint.open_s", self_s("checkpoint.open")),
        ("checkpoint.append_ms_p50", quantile(&append_ms, 0.5)),
        ("checkpoint.append_ms_tail", append_tail),
        ("checkpoint.bytes_flushed", d.bytes_flushed as f64),
        ("checkpoint.memo_hits", c("checkpoint.memo_hits")),
        (
            "checkpoint.memo_hit_ratio",
            ratio(c("checkpoint.memo_hits"), c("checkpoint.items_total")),
        ),
        ("netlist.canon_s", self_s("netlist.canon")),
        ("scenarios.deck_build_s", self_s("scenarios.deck_build")),
        ("scenarios.verdicts_s", self_s("scenarios.verdicts")),
        ("core.testbench_s", self_s("core.testbench")),
        ("telemetry.overhead_frac", traced_s / untraced_s - 1.0),
        ("trace.items_matched", d.matched as f64),
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), (named, value))| {
            assert_eq!(name, named, "per-layer values follow PER_LAYER");
            Metric { name, value, unit }
        })
        .collect();

    let mut lines = vec![
        format!(
            "traced: untraced pass {untraced_s:.3} s, traced pass {traced_s:.3} s, spans in {}",
            dump.display()
        ),
        format!(
            "decomposed: {} items, {} reach the entry call's result",
            d.items, d.matched
        ),
        format!(
            "tails: faults.item p{:.0} of {}, montecarlo.sample p{:.0} of {}, checkpoint.append p{:.0} of {}",
            faults_q * 100.0,
            faults_ms.len(),
            samples_q * 100.0,
            samples_ms.len(),
            append_q * 100.0,
            append_ms.len()
        ),
    ];
    for (name, t) in &totals {
        lines.push(format!(
            "span {name}: {} calls, {:.4} s total, {:.4} s self",
            t.count,
            t.total.as_secs_f64(),
            t.self_time.as_secs_f64()
        ));
    }
    if d.matched != d.items {
        tally.fail(format!(
            "the decomposition reached the entry call's result on {} of {} items: the split does not describe the program",
            d.matched, d.items
        ));
    }
    Ok((metrics, lines))
}

/// Static `(y1, y2)` levels under each IDDQ pattern, as the campaign
/// computes them; `None` where the operating point failed.
fn static_levels(
    t: &mut Tracer,
    s: &Sec3,
    fault: Option<&Fault>,
    template: &SimTemplate,
    rails: &Rails,
) -> Result<Vec<Option<(f64, f64)>>, String> {
    let (y1, y2) = s.sensor.outputs();
    let mut out = Vec::new();
    for &(v1, v2) in &s.cfg.iddq_patterns {
        let bench = t
            .span("core.testbench", |_| {
                s.sensor
                    .testbench_with_waves(SourceWave::Dc(v1), SourceWave::Dc(v2))
            })
            .map_err(err)?;
        let bench = match fault {
            Some(f) => t
                .span("faults.inject", |_| inject(&bench, f, rails))
                .map_err(err)?,
            None => bench,
        };
        let op = t.span("spice.dc", |_| {
            template.dc_operating_point_opts(&bench, &s.cfg.sim)
        });
        out.push(op.ok().map(|op| (op.voltage(y1), op.voltage(y2))));
    }
    Ok(out)
}

/// One fault through the per-item calls of the campaign: static
/// operating points, the detection transient, IDDQ for logic escapes
/// and the skew-masking transients for undetected faults.
fn evaluate_fault(
    t: &mut Tracer,
    s: &Sec3,
    fault: &Fault,
    template: &SimTemplate,
    rails: &Rails,
    fault_free: &[Option<(f64, f64)>],
) -> Result<(DetectionOutcome, Option<bool>), String> {
    let v_th = s.sensor.technology().logic_threshold();
    let criteria = DetectionCriteria {
        v_th,
        ..s.cfg.criteria
    };
    let (y1, y2) = s.sensor.outputs();
    let (stop, scan) = s.stop_and_scan();
    let opts = &s.cfg.sim;
    let detected = |t: &mut Tracer, result: &clocksense_spice::TranResult| {
        t.span("faults.detect", |_| {
            complementary_window(&result.waveform(y1), &result.waveform(y2), v_th, scan)
                .is_some_and(|(a, b)| b - a >= criteria.t_hold)
        })
    };
    let transient = |t: &mut Tracer, clocks: ClockPair| -> Result<_, String> {
        let bench = t
            .span("core.testbench", |_| s.sensor.testbench(&clocks))
            .map_err(err)?;
        let injected = t
            .span("faults.inject", |_| inject(&bench, fault, rails))
            .map_err(err)?;
        Ok(t.span("spice.tran", |_| {
            template.transient_opts(&injected, stop, opts)
        }))
    };

    let faulted = static_levels(t, s, Some(fault), template, rails)?;
    let (flip, compared) = t.span("faults.detect", |_| {
        let high = |v: f64| v >= v_th;
        let pairs: Vec<_> = fault_free
            .iter()
            .zip(&faulted)
            .filter_map(|(a, b)| a.zip(*b))
            .collect();
        let flip = pairs
            .iter()
            .any(|(a, b)| high(a.0) != high(b.0) || high(a.1) != high(b.1));
        (flip, !pairs.is_empty())
    });
    let (divergent, tran_failed) = match transient(t, s.cfg.clocks)? {
        Ok(result) => (detected(t, &result), false),
        Err(_) => (false, true),
    };
    let logic = divergent || flip;
    let mut iddq_hit = false;
    if !logic {
        for &(v1, v2) in &s.cfg.iddq_patterns {
            let bench = t
                .span("core.testbench", |_| {
                    s.sensor
                        .testbench_with_waves(SourceWave::Dc(v1), SourceWave::Dc(v2))
                })
                .map_err(err)?;
            let injected = t
                .span("faults.inject", |_| inject(&bench, fault, rails))
                .map_err(err)?;
            let iddq = t.span("spice.dc", |_| {
                template.iddq_opts(&injected, SensingCircuit::SUPPLY, opts)
            });
            iddq_hit |= iddq.is_ok_and(|i| i.abs() > criteria.iddq_threshold);
        }
    }
    let outcome = if logic {
        DetectionOutcome::DetectedLogic
    } else if iddq_hit {
        DetectionOutcome::DetectedIddq
    } else if tran_failed || !compared {
        DetectionOutcome::Inconclusive
    } else {
        DetectionOutcome::Undetected
    };
    let mut masks_skew = None;
    if let (DetectionOutcome::Undetected, Some(skew)) = (outcome, s.cfg.skew_check) {
        let mut masks = false;
        let mut checked = false;
        for signed in [skew, -skew] {
            if let Ok(result) = transient(t, s.cfg.clocks.with_skew(signed))? {
                checked = true;
                masks |= !detected(t, &result);
            }
        }
        masks_skew = checked.then_some(masks);
    }
    Ok((outcome, masks_skew))
}

fn decompose_sec3(s: &Sec3, ctx: &Ctx, entry: &[FaultRecord]) -> Result<Decomposed, String> {
    let template = SimTemplate::new(s.cfg.sim.clone());
    let rails = Rails::vdd_gnd("vdd");
    let epoch = Instant::now();
    let mut setup = Tracer::new(epoch, s.faults.len());
    let fault_free = static_levels(&mut setup, s, None, &template, &rails)?;
    let outcomes = Executor::new(ctx.threads).run(s.faults.len(), |i| {
        let mut t = Tracer::new(epoch, i);
        let res = t.span("faults.item", |t| {
            evaluate_fault(t, s, &s.faults[i], &template, &rails, &fault_free)
        });
        (res, t)
    });
    let mut d = Decomposed::default();
    d.trace.tracers.push(setup);
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let (res, t) = outcome.map_err(|p| p.message)?;
        d.trace.tracers.push(t);
        d.items += 1;
        let same = entry
            .get(i)
            .zip(res.ok())
            .is_some_and(|(r, (o, m))| r.outcome == o && r.masks_skew == m);
        d.matched += u64::from(same);
    }
    Ok(d)
}

fn decompose_mc(m: &Mc, ctx: &Ctx, entry: &[McSample]) -> Result<Decomposed, String> {
    let cache = SymbolicCache::new();
    let epoch = Instant::now();
    let outcomes = Executor::new(ctx.threads).run(m.cfg.samples, |i| {
        let mut t = Tracer::new(epoch, i);
        let res = t.span("montecarlo.sample", |t| -> Result<McSample, String> {
            let p = t.span("montecarlo.prep", |t| m.prepare(i, t))?;
            let stop = p.clocks.sim_stop_time();
            let result = t
                .span("spice.tran", |_| {
                    transient_cached(&p.bench, stop, &m.cfg.sim, &cache)
                })
                .map_err(err)?;
            let (y1, y2) = p.sensor.outputs();
            let v_th = p.sensor.technology().logic_threshold();
            let response = t.span("core.interpret", |_| {
                interpret(
                    result.waveform(y1),
                    result.waveform(y2),
                    &p.clocks,
                    p.sensor.edge(),
                    v_th,
                )
            });
            let vmin = response.vmin_y1.max(response.vmin_y2);
            Ok(McSample {
                tau: p.tau,
                vmin,
                detected: vmin > v_th,
                slew1: p.slew1,
                slew2: p.slew2,
            })
        });
        (res, t)
    });
    let mut d = Decomposed::default();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let (res, t) = outcome.map_err(|p| p.message)?;
        d.trace.tracers.push(t);
        d.items += 1;
        let same = match (entry.get(i), res) {
            (Some(a), Ok(b)) => mc_fields(a) == mc_fields(&b),
            _ => false,
        };
        d.matched += u64::from(same);
    }
    Ok(d)
}

fn decompose_mesh(
    m: &Mesh,
    ctx: &Ctx,
    entry: &[Result<Vec<String>, String>],
) -> Result<Decomposed, String> {
    let mut t = Tracer::new(Instant::now(), 0);
    let deck = t
        .span("scenarios.deck_build", |_| mesh_spec(&ctx.sizes).build())
        .map_err(err)?;
    let circuits = t.span("scenarios.variants", |_| {
        m.starves
            .iter()
            .map(|&s| starved_variant(&deck, s))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let results = t.span("spice.tran", |_| {
        transient_batch(
            &circuits,
            deck.sim_stop_time(),
            &m.opts,
            &SymbolicCache::new(),
        )
    });
    let mut d = Decomposed::default();
    for (res, driven) in results.into_iter().zip(entry) {
        let verdicts = t.span("scenarios.verdicts", |_| {
            res.map_err(err)
                .and_then(|r| deck.verdicts(&r).map_err(err))
                .map(|v| v.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>())
        });
        d.items += deck.taps.len() as u64;
        if let (Ok(a), Ok(b)) = (verdicts, driven) {
            d.matched += a.iter().zip(b.iter()).filter(|(a, b)| a == b).count() as u64;
        }
    }
    d.trace.tracers.push(t);
    Ok(d)
}

fn decompose_memo(m: &Memo) -> Result<Decomposed, String> {
    let mut d = Decomposed::default();
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, m.records.len());
    t.span("checkpoint.replay", |_| {
        run_campaign(&m.sec3.sensor, &m.sec3.faults, &m.sec3.cfg)
    })
    .map_err(err)?;
    t.span("checkpoint.replay", |_| {
        run_scatter(&m.mc.builder, &m.mc.clocks, &m.mc.taus, &m.mc.cfg)
    })
    .map_err(err)?;

    // Reads: key every item and look it up in the filled journals.
    let faults_j = t
        .span("checkpoint.open", |_| Journal::open(&m.fault_journal))
        .map_err(err)?;
    let mc_j = t
        .span("checkpoint.open", |_| Journal::open(&m.mc_journal))
        .map_err(err)?;
    let bench = t
        .span("core.testbench", |_| {
            m.sec3.sensor.testbench(&m.sec3.cfg.clocks)
        })
        .map_err(err)?;
    let rails = Rails::vdd_gnd("vdd");
    d.trace.tracers.push(t);
    for (i, (fault, golden)) in m.sec3.faults.iter().zip(&m.fault_golden).enumerate() {
        let mut t = Tracer::new(epoch, i);
        let hit = t.span("checkpoint.item", |t| -> Result<bool, String> {
            let injected = t
                .span("faults.inject", |_| inject(&bench, fault, &rails))
                .map_err(err)?;
            let hash = t.span("netlist.canon", |_| fault_hash(&m.sec3, &injected));
            let fields = encode_fault_record(golden);
            Ok(t.span("checkpoint.lookup", |_| {
                faults_j.lookup(hash, TAG_FAULT) == Some(&fields[..])
            }))
        })?;
        d.items += 1;
        d.matched += u64::from(hit);
        d.trace.tracers.push(t);
    }
    let offset = m.fault_golden.len();
    for (i, golden) in m.mc_golden.iter().enumerate() {
        let mut t = Tracer::new(epoch, offset + i);
        let hit = t.span("checkpoint.item", |t| -> Result<bool, String> {
            let p = t.span("montecarlo.prep", |t| m.mc.prepare(i, t))?;
            let hash = t.span("netlist.canon", |_| m.mc.journal_hash(&p));
            let fields = mc_fields(golden);
            Ok(t.span("checkpoint.lookup", |_| {
                mc_j.lookup(hash, TAG_MC) == Some(&fields[..])
            }))
        })?;
        d.items += 1;
        d.matched += u64::from(hit);
        d.trace.tracers.push(t);
    }

    // Writes: every record into a fresh journal.
    let mut t = Tracer::new(epoch, m.records.len());
    fresh_file(&m.fresh_journal)?;
    let mut journal = t
        .span("checkpoint.open", |_| Journal::open(&m.fresh_journal))
        .map_err(err)?;
    for r in &m.records {
        t.span("checkpoint.append", |_| {
            journal.append(r.hash, r.tag, &r.fields)
        })
        .map_err(err)?;
        d.bytes_flushed += file_len(&m.fresh_journal);
    }
    if journal.len() != m.records.len() {
        return Err(format!(
            "fresh journal holds {} of {} records",
            journal.len(),
            m.records.len()
        ));
    }
    d.trace.tracers.push(t);
    Ok(d)
}
