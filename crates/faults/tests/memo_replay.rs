//! A campaign served entirely from its checkpoint journal must not
//! simulate anything, not even the fault-free baseline: the re-run
//! returns the journalled records and the spice layer's Newton-solve
//! counter (every DC operating point runs at least one) does not move.
//!
//! The test reads process-global telemetry, so it lives in its own test
//! binary where no other simulation runs concurrently.

use clocksense_core::{ClockPair, SensorBuilder, Technology};
use clocksense_faults::{run_campaign, CampaignConfig, Fault, StuckLevel};

#[test]
fn fully_journalled_rerun_makes_no_dc_solve() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .unwrap();
    let faults = vec![
        Fault::NodeStuckAt {
            node: "y1".into(),
            level: StuckLevel::Zero,
        },
        Fault::StuckOn {
            device: "m_b".into(),
        },
        Fault::Bridge {
            a: "y1".into(),
            b: "y2".into(),
            ohms: 100.0,
        },
    ];
    let path = std::env::temp_dir().join(format!(
        "clocksense_memo_replay_{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let cfg = CampaignConfig::new(ClockPair::single_shot(tech.vdd, 0.2e-9)).checkpoint(&path);

    let registry = clocksense_telemetry::global();
    registry.enable();
    let newton_solves = registry.counter("spice.newton_solves");
    let memo_hits = registry.counter("checkpoint.memo_hits");

    let before = newton_solves.get();
    let filled = run_campaign(&sensor, &faults, &cfg).unwrap();
    assert!(newton_solves.get() > before, "the filling run simulates");

    let (solves, hits) = (newton_solves.get(), memo_hits.get());
    let replayed = run_campaign(&sensor, &faults, &cfg).unwrap();
    assert_eq!(replayed.records(), filled.records());
    assert_eq!(memo_hits.get() - hits, faults.len() as u64);
    assert_eq!(
        newton_solves.get() - solves,
        0,
        "a fully journalled re-run must not solve the fault-free baseline"
    );

    registry.disable();
    let _ = std::fs::remove_file(&path);
}
