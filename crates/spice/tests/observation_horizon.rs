//! A transient stopped at an observation horizon is a bit-identical
//! prefix of the full run: same times, same node and branch samples,
//! ending at the full run's first time point at or past the horizon. Held
//! on the sensor bench for every solver × timestep mode, on a horizon
//! that lies exactly on a source breakpoint, on a horizon at or past
//! `t_stop`, and across an accepted sliver just before the horizon.

use std::sync::{Mutex, MutexGuard, PoisonError};

use clocksense_core::{observation_end, ClockEdge, ClockPair, SensorBuilder, Technology};
use clocksense_netlist::{Circuit, MosParams, MosPolarity, SourceWave, GROUND};
use clocksense_spice::{
    transient_cached, transient_observed, SimOptions, SolverKind, SymbolicCache, TimestepControl,
    TranResult,
};

/// Asserts that `cut` is the prefix of `full` that ends at the first
/// time point `>= t_observe` (all of `full` if there is none).
fn assert_prefix(full: &TranResult, cut: &TranResult, t_observe: f64, sources: &[&str]) {
    let n = full
        .times()
        .iter()
        .position(|&t| t >= t_observe)
        .map_or(full.times().len(), |k| k + 1);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(cut.times()),
        bits(&full.times()[..n]),
        "time grid is not the full run's prefix up to {t_observe}"
    );
    assert_eq!(cut.node_names(), full.node_names());
    for name in full.node_names() {
        let (f, c) = (
            full.waveform_named(name).unwrap(),
            cut.waveform_named(name).unwrap(),
        );
        assert_eq!(bits(c.values()), bits(&f.values()[..n]), "node {name}");
    }
    for name in sources {
        let (f, c) = (
            full.source_current(name).unwrap(),
            cut.source_current(name).unwrap(),
        );
        assert_eq!(bits(c.values()), bits(&f.values()[..n]), "branch {name}");
    }
}

fn modes() -> Vec<(String, SimOptions)> {
    let adaptive = SimOptions::pipeline().timestep;
    let mut out = Vec::new();
    for solver in [SolverKind::Dense, SolverKind::Sparse] {
        for (timestep, tstep) in [(TimestepControl::Fixed, 5e-12), (adaptive, 2e-12)] {
            let opts = SimOptions {
                solver,
                timestep,
                tstep,
                ..SimOptions::pipeline()
            };
            out.push((format!("{solver:?} + {timestep:?}"), opts));
        }
    }
    out
}

/// The tests read process-global telemetry counters, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn sensor_bench_horizon_runs_are_full_run_prefixes() {
    let _turn = serial();
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .unwrap();
    let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9).with_skew(0.08e-9);
    let bench = sensor.testbench(&clocks).unwrap();
    let sources = [clocksense_core::SensingCircuit::SUPPLY, "vphi1", "vphi2"];
    let t_stop = clocks.sim_stop_time();
    // φ2's rise end: a source breakpoint every grid lands on exactly.
    let on_breakpoint = clocks.waveforms().1.breakpoints(t_stop)[1];
    let horizon = observation_end(&clocks, ClockEdge::Rising);

    for (name, opts) in modes() {
        let cache = SymbolicCache::new();
        let full = transient_cached(&bench, t_stop, &opts, &cache).unwrap();
        assert!(
            full.times().contains(&on_breakpoint),
            "{name}: breakpoint {on_breakpoint} not on the grid"
        );
        for t_observe in [horizon, on_breakpoint, t_stop, 2.0 * t_stop] {
            let cut = transient_observed(&bench, t_stop, t_observe, &opts, &cache).unwrap();
            assert_prefix(&full, &cut, t_observe, &sources);
            if t_observe < t_stop {
                assert!(
                    cut.times().len() < full.times().len(),
                    "{name}: horizon {t_observe} did not cut"
                );
            }
        }
        let cut = transient_observed(&bench, t_stop, on_breakpoint, &opts, &cache).unwrap();
        assert_eq!(
            cut.times().last().copied(),
            Some(on_breakpoint),
            "{name}: a horizon on a breakpoint ends on it"
        );
    }
}

/// The capacitor-free inverter of the spice crate's
/// `final_sliver_below_tstep_min_is_accepted` unit test, with a supply
/// and input pulse that snaps up at 1 ps and back down at 2.21 ps. With
/// `max_newton_iters = 3` and `tstep_min = 0.9 tstep` the window
/// `1 → 2.21 ps` (a 0 → 5 V jump) can neither converge nor be halved and
/// is accepted as a sliver: the march advances to 2.21 ps without
/// recording a point. The next windows sit back at 0 V and record again.
fn sliver_inverter() -> (Circuit, SimOptions) {
    let pulse = SourceWave::Pulse {
        v1: 0.0,
        v2: 5.0,
        delay: 1.0e-12,
        rise: 0.01e-12,
        fall: 0.01e-12,
        width: 1.2e-12,
        period: f64::INFINITY,
    };
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("vdd", vdd, GROUND, pulse.clone()).unwrap();
    ckt.add_vsource("vin", inp, GROUND, pulse).unwrap();
    let nmos = MosParams {
        vth0: 0.7,
        kp: 60e-6,
        lambda: 0.02,
        w: 4e-6,
        l: 1.2e-6,
        cgs: 0.0,
        cgd: 0.0,
        cdb: 0.0,
    };
    let pmos = MosParams {
        vth0: -0.9,
        kp: 20e-6,
        w: 10e-6,
        ..nmos
    };
    ckt.add_mosfet("mp", MosPolarity::Pmos, out, inp, vdd, pmos)
        .unwrap();
    ckt.add_mosfet("mn", MosPolarity::Nmos, out, inp, GROUND, nmos)
        .unwrap();
    let opts = SimOptions {
        tstep: 1e-12,
        tstep_min: 0.9e-12,
        max_newton_iters: 3,
        ..SimOptions::default()
    };
    (ckt, opts)
}

#[test]
fn an_accepted_sliver_before_the_horizon_does_not_stop_the_run() {
    let _turn = serial();
    let (ckt, base) = sliver_inverter();
    let t_stop = 5e-12;
    // Between the sliver's end (2.21 ps, never recorded) and the next
    // recorded point: a horizon tested on the march time would stop at
    // 1 ps, one tested on the recorded time runs on to 3.21 ps.
    let t_observe = 2e-12;
    for solver in [SolverKind::Dense, SolverKind::Sparse] {
        let opts = SimOptions {
            solver,
            ..base.clone()
        };
        let cache = SymbolicCache::new();
        let full = transient_cached(&ckt, t_stop, &opts, &cache).expect("sliver is accepted");
        let t = full.times();
        assert_eq!(&t[..2], &[0.0, 1e-12], "{solver:?}");
        assert!(
            t[2] > 2.21e-12,
            "{solver:?}: the sliver window records no point"
        );
        let cut = transient_observed(&ckt, t_stop, t_observe, &opts, &cache).unwrap();
        assert_prefix(&full, &cut, t_observe, &["vdd", "vin"]);
        assert_eq!(
            cut.times().len(),
            3,
            "{solver:?}: ends at {:?}",
            cut.times()
        );
    }
}

#[test]
fn cuts_are_counted_and_full_runs_are_not() {
    let _turn = serial();
    let registry = clocksense_telemetry::global();
    registry.enable();
    let (ckt, opts) = sliver_inverter();
    let read = |name: &str| registry.snapshot().counter(name).unwrap_or(0);
    let (cuts, skipped) = (read("horizon.cuts"), read("horizon.skipped_ps"));
    transient_observed(&ckt, 5e-12, 5e-12, &opts, &SymbolicCache::new()).unwrap();
    transient_observed(&ckt, 5e-12, f64::INFINITY, &opts, &SymbolicCache::new()).unwrap();
    assert_eq!(read("horizon.cuts"), cuts, "a full-length run is no cut");
    let cut = transient_observed(&ckt, 5e-12, 2e-12, &opts, &SymbolicCache::new()).unwrap();
    let t_end = *cut.times().last().unwrap();
    assert_eq!(read("horizon.cuts"), cuts + 1);
    assert_eq!(
        read("horizon.skipped_ps"),
        skipped + ((5e-12 - t_end) * 1e12).round() as u64
    );
    assert!(transient_observed(&ckt, 5e-12, f64::NAN, &opts, &SymbolicCache::new()).is_err());
}
