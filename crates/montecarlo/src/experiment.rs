//! The Monte-Carlo scatter experiment (paper Fig. 5).

use std::ops::Range;
use std::path::PathBuf;

use clocksense_core::{observation_end, ClockPair, CoreError, SensingCircuit, SensorBuilder};
use clocksense_exec::Executor;
use clocksense_faults::checkpoint::{
    parse_f64_bits, run_items, sim_options_fingerprint, Memo, TAG_MC,
};
use clocksense_netlist::{canonical_form, f64_bits, fnv1a, Circuit, FNV_OFFSET};
use clocksense_spice::{
    transient_batch, transient_observed, SimOptions, SymbolicCache, TranResult,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::perturb::perturb_circuit_global;

/// Configuration of a Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Number of samples.
    pub samples: usize,
    /// Relative uniform spread of every circuit parameter (the paper's
    /// 0.15).
    pub spread: f64,
    /// Uniform range of the two independent input slews (the paper's
    /// 0.1–0.4 ns).
    pub slew_range: (f64, f64),
    /// Master seed; every sample derives its own deterministic stream.
    pub seed: u64,
    /// Simulator options. The default is the paper-pipeline setting
    /// [`SimOptions::pipeline`] (sparse LU, adaptive stepping from a 2 ps
    /// base step); journals written under other options are memo misses.
    pub sim: SimOptions,
    /// Worker threads (`0` = one per core).
    pub threads: usize,
    /// Path of the checkpoint journal, shared with the fault-campaign
    /// format ([`clocksense_faults::checkpoint`]). When set, finished
    /// samples are journalled under a canonical content hash (perturbed
    /// bench + options + drawn parameters) and replayed on the next run
    /// instead of re-simulated. `None` (the default) runs without any
    /// journal I/O.
    pub checkpoint: Option<PathBuf>,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            samples: 500,
            spread: 0.15,
            slew_range: (0.1e-9, 0.4e-9),
            seed: 0x1997_0317,
            sim: SimOptions::pipeline(),
            threads: 0,
            checkpoint: None,
        }
    }
}

/// One Monte-Carlo observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McSample {
    /// Injected skew (s).
    pub tau: f64,
    /// Minimum voltage of the late output in the observation window (V).
    pub vmin: f64,
    /// `true` if the response reads as an error indication
    /// (`vmin > V_th`).
    pub detected: bool,
    /// Drawn slew of φ1 (s).
    pub slew1: f64,
    /// Drawn slew of φ2 (s).
    pub slew2: f64,
}

/// Everything a drawn sample needs besides its simulated waveforms:
/// the perturbed sensor (for output nodes, threshold, edge), its
/// skew-compensated clocks, and the drawn parameters.
struct PreparedSample {
    sensor: SensingCircuit,
    clocks: ClockPair,
    tau: f64,
    slew1: f64,
    slew2: f64,
}

/// Draws sample `index`'s perturbation and slews and builds its bench.
/// Split from the simulation so the batched path can prepare a whole
/// chunk of benches before handing them to the batch kernel at once.
fn prepare_sample(
    builder: &SensorBuilder,
    clocks: &ClockPair,
    tau: f64,
    cfg: &McConfig,
    index: u64,
) -> Result<(Circuit, PreparedSample), CoreError> {
    // Independent, reproducible stream per sample.
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e3779b97f4a7c15) ^ index);
    let mut sensor = builder.build()?;
    perturb_circuit_global(sensor.circuit_mut(), cfg.spread, &["cl1", "cl2"], &mut rng);
    let (lo, hi) = cfg.slew_range;
    let slew1 = rng.gen_range(lo..=hi);
    let slew2 = rng.gen_range(lo..=hi);

    // The skew tau is defined between the mid-rail crossings of the two
    // edges — the instant the clocked elements actually see. With
    // independent slews the pulse-start offset must compensate for the
    // mid-ramp difference, otherwise slew mismatch aliases into skew.
    let start_offset = tau + 0.5 * (slew1 - slew2);
    let clocks = clocks.with_skew(start_offset);
    let bench = sensor.testbench_with_slews(&clocks, slew1, slew2)?;
    Ok((
        bench,
        PreparedSample {
            sensor,
            clocks,
            tau,
            slew1,
            slew2,
        },
    ))
}

fn classify_sample(p: &PreparedSample, result: &TranResult) -> McSample {
    let (y1, y2) = p.sensor.outputs();
    let v_th = p.sensor.technology().logic_threshold();
    let response = clocksense_core::interpret(
        result.waveform(y1),
        result.waveform(y2),
        &p.clocks,
        p.sensor.edge(),
        v_th,
    );
    // An indication on either output counts: under variation the residual
    // asymmetry can put the indication on the "wrong" side near tau = 0.
    let vmin = response.vmin_y1.max(response.vmin_y2);
    McSample {
        tau: p.tau,
        vmin,
        detected: vmin > v_th,
        slew1: p.slew1,
        slew2: p.slew2,
    }
}

/// Prepares, batch-simulates and classifies one contiguous chunk of
/// samples. Every perturbed bench is a value-only variant of one
/// topology, so the whole chunk packs into a single structure-of-arrays
/// solve; the chunk simulates to the latest stop time of its members
/// (`sim_stop_time` varies with the drawn skew and slews), which only
/// extends shorter samples past their observation windows. A sample
/// whose simulation fails carries its own error in its slot; it does not
/// sink its batch-mates. A bench that cannot be built fails every slot.
fn chunk_of_samples(
    builder: &SensorBuilder,
    clocks: &ClockPair,
    taus: &[f64],
    cfg: &McConfig,
    range: Range<usize>,
    cache: &SymbolicCache,
) -> Vec<Result<McSample, CoreError>> {
    let n = range.len();
    let prepared = range
        .map(|i| prepare_sample(builder, clocks, taus[i % taus.len()], cfg, i as u64))
        .collect::<Result<Vec<_>, CoreError>>();
    let (benches, prepared): (Vec<Circuit>, Vec<PreparedSample>) = match prepared {
        Ok(prepared) => prepared.into_iter().unzip(),
        Err(e) => return vec![Err(e); n],
    };
    let t_stop = prepared
        .iter()
        .map(|p| p.clocks.sim_stop_time())
        .fold(0.0f64, f64::max);
    let results = transient_batch(&benches, t_stop, &cfg.sim, cache);
    prepared
        .iter()
        .zip(results)
        .map(|(p, result)| Ok(classify_sample(p, &result?)))
        .collect()
}

/// Runs the Fig. 5 scatter: `cfg.samples` perturbed circuits, each
/// simulated at one skew from `taus` (cycled in order, so every skew value
/// receives an equal share of samples).
///
/// Each scalar sample (every sample unless the options have a
/// [`lane_chunk`](SimOptions::lane_chunk)) plans its transient to
/// `sim_stop_time` but stops it at the sensor's [`observation_end`], the
/// last instant the classification reads; its observation is
/// bit-identical to the full-length run's. With a checkpoint journal,
/// finished samples are journalled and replayed through the shared item
/// driver ([`run_items`]).
///
/// # Errors
///
/// Propagates construction/simulation errors from any sample (first in
/// sample order); rejects an empty `taus` list. A worker panic is
/// contained by the executor and surfaces as
/// [`CoreError::WorkerPanic`] for that sample instead of aborting the
/// process.
pub fn run_scatter(
    builder: &SensorBuilder,
    clocks: &ClockPair,
    taus: &[f64],
    cfg: &McConfig,
) -> Result<Vec<McSample>, CoreError> {
    if taus.is_empty() {
        return Err(CoreError::InvalidParameter(
            "tau list must not be empty".to_string(),
        ));
    }
    // Every perturbed sample is a value-only variant of one topology, so
    // with the sparse backend the whole scatter shares a single symbolic
    // analysis through this cache (the dense backend ignores it).
    let cache = SymbolicCache::new();
    // With a lane chunk, workers claim whole lane-aligned chunks and run
    // each through the spice crate's batched variant kernel — one
    // baseline stamp and one factorisation pattern per step serve the
    // entire chunk. Scalar per-sample scheduling otherwise.
    let chunk = cfg.sim.lane_chunk().max(1);
    // With a journal, hash every slot up front (preparing a bench is
    // cheap next to a transient solve) and keep its drawn parameters to
    // cross-check replayed records against.
    let (hashes, drawn): (Vec<u64>, Vec<(f64, f64, f64)>) = if cfg.checkpoint.is_some() {
        (0..cfg.samples)
            .map(|i| {
                let (bench, p) =
                    prepare_sample(builder, clocks, taus[i % taus.len()], cfg, i as u64)?;
                Ok((sample_hash(&bench, &p, cfg), (p.tau, p.slew1, p.slew2)))
            })
            .collect::<Result<Vec<_>, CoreError>>()?
            .into_iter()
            .unzip()
    } else {
        (Vec::new(), Vec::new())
    };
    let decode = |i: usize, fields: &[String]| decode_mc_sample(fields, *drawn.get(i)?);
    let encode = |s: &McSample| Some(encode_mc_sample(s));
    let memo = cfg
        .checkpoint
        .as_ref()
        .map(|path| {
            Memo::open(
                path,
                TAG_MC,
                hashes,
                &decode,
                &encode,
                CoreError::Checkpoint,
            )
        })
        .transpose()?;
    let tele = clocksense_telemetry::global().scope("montecarlo");
    let samples = run_items(
        cfg.samples,
        chunk,
        memo.as_ref(),
        &Executor::new(cfg.threads).with_telemetry(tele.clone()),
        &tele.counter("samples"),
        || {
            Ok(|range: Range<usize>| {
                if chunk > 1 {
                    chunk_of_samples(builder, clocks, taus, cfg, range, &cache)
                } else {
                    // Classification reads nothing past the observation
                    // window: stop the full-length run there (a
                    // bit-identical prefix of it).
                    range
                        .map(|i| {
                            let tau = taus[i % taus.len()];
                            let (bench, p) = prepare_sample(builder, clocks, tau, cfg, i as u64)?;
                            let t_observe = observation_end(&p.clocks, p.sensor.edge());
                            let t_stop = p.clocks.sim_stop_time();
                            let result =
                                transient_observed(&bench, t_stop, t_observe, &cfg.sim, &cache)?;
                            Ok(classify_sample(&p, &result))
                        })
                        .collect()
                }
            })
        },
        worker_panic,
    );
    if let Ok(samples) = &samples {
        let detected = samples.iter().filter(|s| s.detected).count();
        tele.counter("detected").add(detected as u64);
    }
    samples
}

/// The scatter's panic policy: a sample whose simulation panicked fails
/// the run as [`CoreError::WorkerPanic`] — a corrupted statistic must
/// not silently bias Tab. 1.
fn worker_panic(_: usize, message: String) -> Result<McSample, CoreError> {
    Err(CoreError::WorkerPanic(message))
}

/// Serialises one finished [`McSample`] into journal fields:
/// `[tau, vmin, detected, slew1, slew2]`, floats as exact bit patterns.
fn encode_mc_sample(s: &McSample) -> Vec<String> {
    vec![
        f64_bits(s.tau),
        f64_bits(s.vmin),
        if s.detected { "1" } else { "0" }.to_string(),
        f64_bits(s.slew1),
        f64_bits(s.slew2),
    ]
}

/// Reconstructs an [`McSample`] from journal fields, cross-checking the
/// stored drawn parameters against what this run drew for the slot — a
/// hash collision or aliased entry decodes to `None` and becomes a memo
/// miss, never a wrong observation.
fn decode_mc_sample(fields: &[String], drawn: (f64, f64, f64)) -> Option<McSample> {
    if fields.len() != 5 {
        return None;
    }
    let tau = parse_f64_bits(&fields[0])?;
    let vmin = parse_f64_bits(&fields[1])?;
    let detected = match fields[2].as_str() {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let slew1 = parse_f64_bits(&fields[3])?;
    let slew2 = parse_f64_bits(&fields[4])?;
    let same = tau.to_bits() == drawn.0.to_bits()
        && slew1.to_bits() == drawn.1.to_bits()
        && slew2.to_bits() == drawn.2.to_bits();
    same.then_some(McSample {
        tau,
        vmin,
        detected,
        slew1,
        slew2,
    })
}

/// Canonical content hash of one scatter sample: the perturbed test
/// bench's canonical form chained with everything else that decides the
/// observation — solver options, the master seed and spread (the drawn
/// parameters' provenance), the drawn skew/slews, the stop time and the
/// detection threshold. Thread count and scheduling are excluded;
/// results are thread-count invariant by design.
fn sample_hash(bench: &Circuit, p: &PreparedSample, cfg: &McConfig) -> u64 {
    let h = fnv1a(FNV_OFFSET, canonical_form(bench).as_bytes());
    let extra = format!(
        "{}|mc;seed={};spread={};tau={};slew1={};slew2={};t_stop={};v_th={}",
        sim_options_fingerprint(&cfg.sim),
        cfg.seed,
        f64_bits(cfg.spread),
        f64_bits(p.tau),
        f64_bits(p.slew1),
        f64_bits(p.slew2),
        f64_bits(p.clocks.sim_stop_time()),
        f64_bits(p.sensor.technology().logic_threshold()),
    );
    fnv1a(h, extra.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksense_core::Technology;
    use clocksense_spice::SolverKind;

    fn journal_len(path: &std::path::Path) -> usize {
        clocksense_faults::Journal::open(path).unwrap().len()
    }

    fn quick_cfg(samples: usize) -> McConfig {
        McConfig {
            samples,
            sim: SimOptions {
                tstep: 4e-12,
                ..SimOptions::default()
            },
            ..McConfig::default()
        }
    }

    #[test]
    fn scatter_is_deterministic_and_covers_taus() {
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech).load_capacitance(160e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        let taus = [0.0, 0.3e-9];
        let a = run_scatter(&builder, &clocks, &taus, &quick_cfg(4)).unwrap();
        let b = run_scatter(&builder, &clocks, &taus, &quick_cfg(4)).unwrap();
        assert_eq!(a, b, "same seed, same results");
        assert_eq!(a.len(), 4);
        assert_eq!(a.iter().filter(|s| s.tau == 0.0).count(), 2);
        // Large skews stay detected even under parameter variation. Zero
        // skew may produce marginal false indications (that is exactly the
        // p_false of Tab. 1), but its V_min stays well below a genuinely
        // blocked output.
        for s in &a {
            if s.tau == 0.0 {
                assert!(s.vmin < 3.5, "zero-skew vmin implausibly high: {s:?}");
            } else {
                assert!(s.detected, "0.3 ns skew lost: {s:?}");
            }
        }
    }

    #[test]
    fn horizon_scatter_matches_full_length_transients_bit_for_bit() {
        // The scalar scatter stops every transient at the observation
        // horizon; classifying the full-length run to `sim_stop_time`
        // must give the same bits on every sample.
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech).load_capacitance(160e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        let taus: Vec<f64> = (0..=8).map(|i| i as f64 * 0.03e-9).collect();
        let cfg = McConfig {
            samples: 18,
            ..McConfig::default()
        };
        let scatter = run_scatter(&builder, &clocks, &taus, &cfg).unwrap();
        let cache = SymbolicCache::new();
        for (i, got) in scatter.iter().enumerate() {
            let (bench, p) =
                prepare_sample(&builder, &clocks, taus[i % 9], &cfg, i as u64).unwrap();
            let full = clocksense_spice::transient_cached(
                &bench,
                p.clocks.sim_stop_time(),
                &cfg.sim,
                &cache,
            )
            .unwrap();
            let want = classify_sample(&p, &full);
            assert_eq!(got.vmin.to_bits(), want.vmin.to_bits(), "sample {i}");
            assert_eq!(*got, want, "sample {i}");
        }
    }

    #[test]
    fn batched_scatter_matches_scalar_samples() {
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech).load_capacitance(160e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        let taus = [0.3e-9];
        let mut scalar_cfg = quick_cfg(6);
        scalar_cfg.sim.solver = SolverKind::Sparse;
        let mut batched_cfg = scalar_cfg.clone();
        batched_cfg.sim.batch = 3;
        let scalar = run_scatter(&builder, &clocks, &taus, &scalar_cfg).unwrap();
        let batched = run_scatter(&builder, &clocks, &taus, &batched_cfg).unwrap();
        assert_eq!(scalar.len(), batched.len());
        for (s, b) in scalar.iter().zip(&batched) {
            // Same drawn parameters (the RNG stream is per-index, not
            // per-schedule) and the same verdict. vmin is only close,
            // not tight: each sample draws its own slews, so the batch's
            // lockstep grid (the union of every member's breakpoints)
            // differs from each sample's scalar grid, and the local
            // truncation error of the shared grid moves vmin by tens of
            // microvolts on a multi-volt signal.
            assert_eq!(s.tau, b.tau);
            assert_eq!(s.slew1, b.slew1);
            assert_eq!(s.slew2, b.slew2);
            assert_eq!(s.detected, b.detected);
            assert!(
                (s.vmin - b.vmin).abs() < 1e-3,
                "vmin diverged: scalar {} vs batched {}",
                s.vmin,
                b.vmin
            );
        }
    }

    #[test]
    fn slews_are_drawn_from_the_range() {
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech).load_capacitance(80e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        let samples = run_scatter(&builder, &clocks, &[0.05e-9], &quick_cfg(6)).unwrap();
        for s in &samples {
            assert!((0.1e-9..=0.4e-9).contains(&s.slew1));
            assert!((0.1e-9..=0.4e-9).contains(&s.slew2));
        }
        // Independent draws: not all equal.
        assert!(samples.iter().any(|s| (s.slew1 - s.slew2).abs() > 1e-12));
    }

    #[test]
    fn empty_taus_is_an_error() {
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        assert!(run_scatter(&builder, &clocks, &[], &quick_cfg(1)).is_err());
    }

    #[test]
    fn checkpointed_scatter_resumes_and_memoizes() {
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech).load_capacitance(160e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        let taus = [0.0, 0.3e-9];
        let path =
            std::env::temp_dir().join(format!("clocksense_mc_ckpt_{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = quick_cfg(4);
        let golden = run_scatter(&builder, &clocks, &taus, &cfg).unwrap();
        let ckpt_cfg = McConfig {
            checkpoint: Some(path.clone()),
            threads: 1,
            ..cfg
        };
        let full = run_scatter(&builder, &clocks, &taus, &ckpt_cfg).unwrap();
        assert_eq!(full, golden, "checkpointing must not change observations");
        assert_eq!(journal_len(&path), 4);
        // Kill at 50%: keep the header and the first two records.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(3).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();
        let resumed = run_scatter(&builder, &clocks, &taus, &ckpt_cfg).unwrap();
        assert_eq!(resumed, golden, "resume must be byte-identical");
        assert_eq!(journal_len(&path), 4);
        // Unchanged re-run: pure memo hits, no journal growth.
        let rerun = run_scatter(&builder, &clocks, &taus, &ckpt_cfg).unwrap();
        assert_eq!(rerun, golden);
        assert_eq!(journal_len(&path), 4);
        // A different seed moves every sample's hash: full re-simulation.
        let moved = McConfig {
            seed: ckpt_cfg.seed ^ 1,
            ..ckpt_cfg
        };
        run_scatter(&builder, &clocks, &taus, &moved).unwrap();
        assert_eq!(journal_len(&path), 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batched_checkpoint_replays_whole_chunks_only() {
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech).load_capacitance(160e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        let taus = [0.3e-9];
        let path = std::env::temp_dir().join(format!(
            "clocksense_mc_ckpt_batched_{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        // `batch: 3` lane-aligns to chunks of `LANE_WIDTH` (= 8), so ten
        // samples split into chunks 0..8 and 8..10.
        let mut cfg = quick_cfg(10);
        cfg.sim.solver = SolverKind::Sparse;
        cfg.sim.batch = 3;
        cfg.threads = 1;
        cfg.checkpoint = Some(path.clone());
        assert_eq!(cfg.sim.lane_chunk(), 8);
        let golden = run_scatter(&builder, &clocks, &taus, &cfg).unwrap();
        assert_eq!(journal_len(&path), 10);
        // Tear mid-second-chunk: chunk 0 complete, chunk 1 partial. The
        // partial chunk must re-run whole on its original grid — its one
        // journalled member demotes to a miss and is re-appended.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(10).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();
        let resumed = run_scatter(&builder, &clocks, &taus, &cfg).unwrap();
        assert_eq!(resumed, golden, "chunked resume must be byte-identical");
        assert_eq!(journal_len(&path), 9 + 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_panicking_sample_becomes_a_worker_panic_error() {
        let dummy = McSample {
            tau: 0.0,
            vmin: 0.0,
            detected: false,
            slew1: 0.2e-9,
            slew2: 0.2e-9,
        };
        let drive = |panic_at: Option<usize>| {
            run_items(
                5,
                1,
                None,
                &Executor::new(2),
                &clocksense_telemetry::Counter::noop(),
                || {
                    Ok(move |range: Range<usize>| {
                        range
                            .map(|i| {
                                if Some(i) == panic_at {
                                    panic!("injected sampler panic");
                                }
                                Ok(dummy)
                            })
                            .collect()
                    })
                },
                worker_panic,
            )
        };
        match drive(Some(3)).unwrap_err() {
            CoreError::WorkerPanic(msg) => {
                assert!(msg.contains("injected sampler panic"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // A run with no panics is unaffected.
        assert_eq!(drive(None).unwrap().len(), 5);
    }
}
