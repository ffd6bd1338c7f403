//! Chaos lane poisoning against the batched SoA kernel: one lane's
//! device value is overwritten with NaN/Inf mid-pack, and the poisoned
//! variant must drop out with a structured error and re-run scalar
//! while its seven batchmates stay bit-for-bit uncontaminated.
//!
//! The kernel eliminates the rows no MOSFET touches once per step size
//! and re-eliminates only the MOSFET rows per Newton iteration; two
//! further tests poison a resistor in each of those blocks and check that
//! the lane drops out of its batch with `SingularMatrix` either way.
//!
//! These tests arm process-global chaos plans, so they live in their own
//! test binary and serialise on a local mutex.

use std::sync::{Mutex, MutexGuard, PoisonError};

use clocksense_chaos::{ChaosPlan, Injection};
use clocksense_netlist::{Circuit, MosParams, MosPolarity, SourceWave, GROUND};
use clocksense_spice::{
    transient_batch, transient_cached, BatchSim, SimOptions, SolverKind, SpiceError, SymbolicCache,
};

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn divider(ohms: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_vsource(
        "v",
        a,
        GROUND,
        SourceWave::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 10e-12,
            rise: 50e-12,
            fall: 50e-12,
            width: 400e-12,
            period: f64::INFINITY,
        },
    )
    .unwrap();
    ckt.add_resistor("r1", a, b, ohms).unwrap();
    ckt.add_resistor("r2", b, GROUND, 1_000.0).unwrap();
    ckt.add_capacitor("c", b, GROUND, 1e-13).unwrap();
    ckt
}

fn opts() -> SimOptions {
    SimOptions {
        solver: SolverKind::Sparse,
        batch: 8,
        ..SimOptions::default()
    }
}

fn final_voltages(circuits: &[Circuit], opts: &SimOptions) -> Vec<Vec<f64>> {
    let cache = SymbolicCache::new();
    transient_batch(circuits, 1e-9, opts, &cache)
        .into_iter()
        .map(|r| {
            let r = r.expect("variant must complete (scalar rescue included)");
            r.waveform_named("b").unwrap().values().to_vec()
        })
        .collect()
}

#[test]
fn poisoned_lane_drops_to_scalar_and_batchmates_stay_clean() {
    let _gate = gate();
    let circuits: Vec<Circuit> = (0..8).map(|i| divider(500.0 + 100.0 * i as f64)).collect();
    let opts = opts();
    let clean = final_voltages(&circuits, &opts);

    for (seed, infinity) in [(31u64, false), (32u64, true)] {
        let guard = ChaosPlan::new(seed)
            .with(Injection::LanePoison { lane: 3, infinity })
            .arm_scoped();
        let poisoned = final_voltages(&circuits, &opts);
        let summary = guard.disarm();
        assert_eq!(summary.fired, 1, "the poison must actually land");

        // Every variant — including the poisoned one, which must have
        // dropped out and been re-run scalar on its (healthy) circuit —
        // matches the clean run. Batchmates share no arithmetic with
        // the poisoned lane, so any drift here is cross-lane
        // contamination.
        for (v, (got, want)) in poisoned.iter().zip(&clean).enumerate() {
            assert_eq!(got.len(), want.len(), "variant {v} grid changed");
            for (a, b) in got.iter().zip(want) {
                assert!(
                    (a - b).abs() <= 1e-9,
                    "variant {v} drifted: {a} vs {b} (infinity={infinity})"
                );
            }
        }
    }
}

#[test]
fn lane_poison_fires_on_the_first_block_only() {
    let _gate = gate();
    // 16 variants = two lane blocks; the injection hits block 0 and the
    // second block must march clean.
    let circuits: Vec<Circuit> = (0..16).map(|i| divider(500.0 + 50.0 * i as f64)).collect();
    let opts = opts();
    let clean = final_voltages(&circuits, &opts);

    let guard = ChaosPlan::new(33)
        .with(Injection::LanePoison {
            lane: 0,
            infinity: false,
        })
        .arm_scoped();
    let poisoned = final_voltages(&circuits, &opts);
    assert_eq!(guard.disarm().fired, 1);
    for (v, (got, want)) in poisoned.iter().zip(&clean).enumerate() {
        for (a, b) in got.iter().zip(want) {
            assert!((a - b).abs() <= 1e-9, "variant {v} drifted");
        }
    }
}

/// Two inverters fed through an RC line: `r_line` joins two rows no
/// MOSFET touches (the source node and the line node), so it lies in the
/// leading block; `r_link` joins the first inverter's drain to the second
/// one's gate, both MOSFET rows, so it lies in the trailing block.
fn inverter_pair(r_line: f64, r_link: f64) -> Circuit {
    let nmos = MosParams {
        vth0: 0.4,
        kp: 80e-6,
        lambda: 0.04,
        w: 2e-6,
        l: 0.12e-6,
        cgs: 0.4e-15,
        cgd: 0.3e-15,
        cdb: 0.3e-15,
    };
    let pmos = MosParams {
        vth0: -0.45,
        kp: 35e-6,
        w: 4e-6,
        ..nmos
    };
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let src = ckt.node("src");
    let line = ckt.node("line");
    let in1 = ckt.node("in1");
    let out1 = ckt.node("out1");
    let in2 = ckt.node("in2");
    let out2 = ckt.node("out2");
    ckt.add_vsource("vdd", vdd, GROUND, SourceWave::Dc(1.2))
        .unwrap();
    ckt.add_vsource(
        "vin",
        src,
        GROUND,
        SourceWave::Pulse {
            v1: 0.0,
            v2: 1.2,
            delay: 50e-12,
            rise: 20e-12,
            fall: 20e-12,
            width: 150e-12,
            period: f64::INFINITY,
        },
    )
    .unwrap();
    ckt.add_resistor("r_line", src, line, r_line).unwrap();
    ckt.add_capacitor("c_line", line, GROUND, 5e-15).unwrap();
    ckt.add_resistor("r_gate", line, in1, 500.0).unwrap();
    for (name, inp, out) in [("1", in1, out1), ("2", in2, out2)] {
        ckt.add_mosfet(&format!("mp{name}"), MosPolarity::Pmos, out, inp, vdd, pmos)
            .unwrap();
        ckt.add_mosfet(
            &format!("mn{name}"),
            MosPolarity::Nmos,
            out,
            inp,
            GROUND,
            nmos,
        )
        .unwrap();
    }
    ckt.add_resistor("r_link", out1, in2, r_link).unwrap();
    ckt.add_capacitor("c_load", out2, GROUND, 6e-15).unwrap();
    ckt
}

/// Packs `circuits` into one lane block with `lane`'s first varying
/// resistor poisoned, and checks that exactly that lane drops out with
/// `SingularMatrix` while every block-mate matches the scalar path to
/// 1e-9 at every sample.
fn poisoned_lane_drops_out_alone(circuits: &[Circuit], lane: u8, infinity: bool) {
    let opts = SimOptions {
        solver: SolverKind::Sparse,
        batch: circuits.len(),
        tstep: 5e-12,
        ..SimOptions::default()
    };
    let t_stop = 0.4e-9;
    let cache = SymbolicCache::new();
    let guard = ChaosPlan::new(41)
        .with(Injection::LanePoison { lane, infinity })
        .arm_scoped();
    let sim = BatchSim::pack(circuits, &opts, &cache).expect("aligned variants");
    assert_eq!(guard.disarm().fired, 1, "the poison must actually land");
    let results = sim.run(t_stop);
    for (v, (ckt, got)) in circuits.iter().zip(&results).enumerate() {
        if v == usize::from(lane) {
            assert_eq!(got.as_ref().err(), Some(&SpiceError::SingularMatrix));
            continue;
        }
        let got = got
            .as_ref()
            .expect("clean block-mate completes in the batch");
        let want = transient_cached(ckt, t_stop, &opts, &cache).unwrap();
        assert_eq!(got.times(), want.times());
        for node in want.node_names() {
            let d = got
                .waveform_named(node)
                .unwrap()
                .max_abs_difference(&want.waveform_named(node).unwrap());
            assert!(d <= 1e-9, "variant {v} drifted by {d} at {node}");
        }
    }
}

#[test]
fn poisoned_leading_block_pivot_drops_only_its_lane() {
    let _gate = gate();
    let circuits: Vec<Circuit> = (0..8)
        .map(|i| inverter_pair(200.0 + 40.0 * i as f64, 800.0))
        .collect();
    poisoned_lane_drops_out_alone(&circuits, 2, false);
    poisoned_lane_drops_out_alone(&circuits, 6, true);
}

#[test]
fn poisoned_trailing_block_pivot_drops_only_its_lane() {
    let _gate = gate();
    let circuits: Vec<Circuit> = (0..8)
        .map(|i| inverter_pair(300.0, 600.0 + 50.0 * i as f64))
        .collect();
    poisoned_lane_drops_out_alone(&circuits, 5, false);
    poisoned_lane_drops_out_alone(&circuits, 1, true);
}
