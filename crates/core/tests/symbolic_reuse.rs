//! One sensitivity search analyses the sensor bench's sparse structure
//! once: every bisection point simulates the same topology, so all of
//! them share one symbolic analysis.
//!
//! The test reads process-global telemetry, so it lives in its own test
//! binary where no other simulation runs concurrently.

use clocksense_core::{find_tau_min, ClockPair, SensorBuilder, Technology};
use clocksense_spice::SimOptions;

#[test]
fn find_tau_min_runs_one_symbolic_analysis() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .unwrap();
    let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);

    let registry = clocksense_telemetry::global();
    registry.enable();
    let analyses = registry.counter("spice.symbolic_analyses");
    let solves = registry.counter("spice.newton_solves");
    let (before, solves_before) = (analyses.get(), solves.get());
    let tau_min = find_tau_min(&sensor, &clocks, 0.5e-9, 0.05e-9, &SimOptions::pipeline()).unwrap();
    registry.disable();

    assert!(tau_min.is_some(), "0.5 ns of skew must be detected");
    assert!(
        solves.get() > solves_before,
        "the search must simulate through the global registry"
    );
    assert_eq!(analyses.get() - before, 1);
}
