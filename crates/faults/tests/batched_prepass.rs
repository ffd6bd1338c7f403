//! The campaign's batched detection pre-pass must reach the scalar
//! verdicts, and must actually pack variants into the lane kernel: a
//! configuration the kernel declines (Dense, or an adaptive grid) would
//! silently turn the comparison into scalar against scalar. A resumed
//! batched campaign must replay at the original chunk boundaries.
//!
//! The tests read process-global telemetry, so they live in their own
//! test binary where no other simulation runs concurrently, and they
//! serialise on a local mutex.

use std::sync::{Mutex, MutexGuard, PoisonError};

use clocksense_core::{ClockPair, SensingCircuit, SensorBuilder, Technology};
use clocksense_faults::{run_campaign, CampaignConfig, Fault, StuckLevel};
use clocksense_spice::{SimOptions, SolverKind};
use clocksense_telemetry::Counter;

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn sensor() -> SensingCircuit {
    SensorBuilder::new(Technology::cmos12())
        .load_capacitance(160e-15)
        .build()
        .unwrap()
}

/// Three bridges on one pair are value-only variants of a single
/// structure — exactly what the batch kernel packs together — plus one
/// stuck-at whose different topology exercises the singleton-group
/// scalar fallback within the same pre-pass.
fn faults() -> Vec<Fault> {
    vec![
        Fault::Bridge {
            a: "y1".into(),
            b: "y2".into(),
            ohms: 100.0,
        },
        Fault::Bridge {
            a: "y1".into(),
            b: "y2".into(),
            ohms: 1_000.0,
        },
        Fault::Bridge {
            a: "y1".into(),
            b: "y2".into(),
            ohms: 10_000.0,
        },
        Fault::NodeStuckAt {
            node: "y1".into(),
            level: StuckLevel::Zero,
        },
    ]
}

/// The lane kernel marches only a fixed grid, so both runs use Sparse on
/// the pipeline's 2 ps base step instead of `SimOptions::pipeline()`.
fn config(batch: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(ClockPair::single_shot(Technology::cmos12().vdd, 0.2e-9));
    cfg.sim = SimOptions {
        solver: SolverKind::Sparse,
        tstep: 2e-12,
        batch,
        ..SimOptions::default()
    };
    cfg
}

fn variants_batched() -> Counter {
    let registry = clocksense_telemetry::global();
    registry.enable();
    registry.counter("batch.variants_batched")
}

#[test]
fn batched_campaign_matches_scalar_verdicts() {
    let _gate = gate();
    let (sensor, faults) = (sensor(), faults());
    let variants_batched = variants_batched();

    let before = variants_batched.get();
    let scalar = run_campaign(&sensor, &faults, &config(0)).unwrap();
    assert_eq!(variants_batched.get(), before, "batch 0 runs scalar");

    let batched = run_campaign(&sensor, &faults, &config(4)).unwrap();
    assert_eq!(
        variants_batched.get() - before,
        3,
        "the three bridges must run in the lane kernel"
    );

    for (a, b) in scalar.records().iter().zip(batched.records()) {
        assert_eq!(a.outcome, b.outcome, "verdict diverged for {}", a.fault);
        assert_eq!(
            a.masks_skew, b.masks_skew,
            "masking diverged for {}",
            a.fault
        );
    }
}

#[test]
fn batched_campaign_resumes_at_original_chunk_boundaries() {
    let _gate = gate();
    let (sensor, faults) = (sensor(), faults());
    let variants_batched = variants_batched();
    let path = std::env::temp_dir().join(format!(
        "clocksense_batched_resume_{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let cfg = config(4);
    let golden = run_campaign(&sensor, &faults, &cfg).unwrap();

    // A run killed after the first two faults left them journalled; all
    // four share one lane chunk.
    let ck = cfg.checkpoint(&path);
    run_campaign(&sensor, &faults[..2], &ck).unwrap();

    // The partial chunk re-runs whole, so the remaining bridge packs with
    // its two journalled batch-mates exactly as in the uninterrupted run.
    let before = variants_batched.get();
    let resumed = run_campaign(&sensor, &faults, &ck).unwrap();
    assert_eq!(variants_batched.get() - before, 3);
    assert_eq!(resumed.records(), golden.records());
    let _ = std::fs::remove_file(&path);
}
