//! The campaign's batched detection pre-pass must reach the scalar
//! verdicts, and must actually pack variants into the lane kernel: a
//! configuration the kernel declines (Dense, or an adaptive grid) would
//! silently turn the comparison into scalar against scalar.
//!
//! The test reads process-global telemetry, so it lives in its own test
//! binary where no other simulation runs concurrently.

use clocksense_core::{ClockPair, SensorBuilder, Technology};
use clocksense_faults::{run_campaign, CampaignConfig, Fault, StuckLevel};
use clocksense_spice::{SimOptions, SolverKind};

#[test]
fn batched_campaign_matches_scalar_verdicts() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .unwrap();
    // Three bridges on one pair are value-only variants of a single
    // structure — exactly what the batch kernel packs together — plus
    // one stuck-at whose different topology exercises the
    // singleton-group scalar fallback within the same pre-pass.
    let faults = vec![
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
    ];
    // The lane kernel marches only a fixed grid, so both runs use Sparse
    // on the pipeline's 2 ps base step instead of `SimOptions::pipeline()`.
    let mut scalar_cfg = CampaignConfig::new(ClockPair::single_shot(tech.vdd, 0.2e-9));
    scalar_cfg.sim = SimOptions {
        solver: SolverKind::Sparse,
        tstep: 2e-12,
        ..SimOptions::default()
    };
    let mut batched_cfg = scalar_cfg.clone();
    batched_cfg.sim.batch = 4;

    let registry = clocksense_telemetry::global();
    registry.enable();
    let variants_batched = registry.counter("batch.variants_batched");

    let before = variants_batched.get();
    let scalar = run_campaign(&sensor, &faults, &scalar_cfg).unwrap();
    assert_eq!(variants_batched.get(), before, "batch 0 runs scalar");

    let batched = run_campaign(&sensor, &faults, &batched_cfg).unwrap();
    assert_eq!(
        variants_batched.get() - before,
        3,
        "the three bridges must run in the lane kernel"
    );
    registry.disable();

    for (a, b) in scalar.records().iter().zip(batched.records()) {
        assert_eq!(a.outcome, b.outcome, "verdict diverged for {}", a.fault);
        assert_eq!(
            a.masks_skew, b.masks_skew,
            "masking diverged for {}",
            a.fault
        );
    }
}
