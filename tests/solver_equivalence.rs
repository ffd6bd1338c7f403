//! Property tests cross-validating the workspace's independent solvers:
//! the O(n) tree transient solver against the dense MNA engine on
//! arbitrary RC trees, and the dense MNA backend against the sparse
//! CSR/symbolic backend on random linear systems and full transients —
//! they are independent implementations of the same physics/algebra, so
//! agreement validates both sides.

use clocksense::clocktree::{RcNodeId, RcTree};
use clocksense::core::{ClockPair, SensorBuilder, Technology};
use clocksense::netlist::{Circuit, SourceWave, GROUND};
use clocksense::spice::{
    transient, DenseMatrix, SimOptions, SolverKind, SparseMatrix, SpiceError, Symbolic,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A randomly shaped RC tree description: each node names its parent
/// (index into the already-created list), a resistance and a capacitance.
#[derive(Debug, Clone)]
struct TreeSpec {
    nodes: Vec<(usize, f64, f64)>,
    root_cap: f64,
    driver_r: f64,
}

fn tree_spec() -> impl Strategy<Value = TreeSpec> {
    let node = (0usize..8, 50.0f64..5_000.0, 5e-15f64..200e-15);
    (
        prop::collection::vec(node, 1..8),
        5e-15f64..100e-15,
        50.0f64..500.0,
    )
        .prop_map(|(raw, root_cap, driver_r)| {
            // Clamp parent indices to already-existing nodes.
            let nodes = raw
                .into_iter()
                .enumerate()
                .map(|(i, (p, r, c))| (p % (i + 1), r, c))
                .collect();
            TreeSpec {
                nodes,
                root_cap,
                driver_r,
            }
        })
}

fn build_both(spec: &TreeSpec) -> (RcTree, Circuit, Vec<RcNodeId>) {
    let mut tree = RcTree::new(spec.root_cap);
    let mut ids = vec![tree.root()];
    for &(parent, r, c) in &spec.nodes {
        let id = tree.add_node(ids[parent], r, c).expect("valid node");
        ids.push(id);
    }

    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    let root = ckt.node("n0");
    ckt.add_vsource(
        "vin",
        src,
        GROUND,
        SourceWave::step(0.0, 1.0, 0.1e-9, 1e-12),
    )
    .expect("valid source");
    ckt.add_resistor("rdrv", src, root, spec.driver_r)
        .expect("valid r");
    ckt.add_capacitor("c0", root, GROUND, spec.root_cap.max(1e-18))
        .expect("valid c");
    for (k, &(parent, r, c)) in spec.nodes.iter().enumerate() {
        let a = ckt.node(&format!("n{parent}"));
        let b = ckt.node(&format!("n{}", k + 1));
        ckt.add_resistor(&format!("r{}", k + 1), a, b, r)
            .expect("valid r");
        ckt.add_capacitor(&format!("c{}", k + 1), b, GROUND, c)
            .expect("valid c");
    }
    (tree, ckt, ids)
}

/// A random well-conditioned MNA-shaped linear system: symmetric
/// off-diagonal structure with diagonally dominant rows, the shape every
/// conductance stamp produces.
#[derive(Debug, Clone)]
struct SystemSpec {
    n: usize,
    /// `(row, col, value)` with `row < col`; stamped symmetrically.
    off_diag: Vec<(usize, usize, f64)>,
    rhs: Vec<f64>,
}

fn system_spec() -> impl Strategy<Value = SystemSpec> {
    const MAX_N: usize = 24;
    (
        2usize..MAX_N,
        prop::collection::vec((0usize..MAX_N * MAX_N, 0.05f64..2.0), 1..3 * MAX_N),
        prop::collection::vec(-5.0f64..5.0, MAX_N..MAX_N + 1),
    )
        .prop_map(|(n, raw, rhs)| {
            let off_diag = raw
                .into_iter()
                .filter_map(|(pos, v)| {
                    let (r, c) = ((pos / MAX_N) % n, pos % n);
                    (r != c).then(|| (r.min(c), r.max(c), v))
                })
                .collect();
            SystemSpec {
                n,
                off_diag,
                rhs: rhs[..n].to_vec(),
            }
        })
}

/// Stamps `spec` into both backends; returns `(dense, sparse)`.
fn stamp_both(spec: &SystemSpec) -> (DenseMatrix, SparseMatrix) {
    let mut pattern: Vec<(usize, usize)> = (0..spec.n).map(|i| (i, i)).collect();
    for &(r, c, _) in &spec.off_diag {
        pattern.push((r, c));
        pattern.push((c, r));
    }
    pattern.sort_unstable();
    pattern.dedup();
    let sym = Arc::new(Symbolic::analyze(spec.n, &pattern, 0, &[]));
    let mut dense = DenseMatrix::new(spec.n);
    let mut sparse = SparseMatrix::new(sym);
    // Conductance-style stamp: -g off-diagonal, +g on both diagonals,
    // which leaves every row diagonally dominant (plus a ground leak).
    for i in 0..spec.n {
        dense.add(i, i, 1.0);
        sparse.add(i, i, 1.0);
    }
    for &(r, c, g) in &spec.off_diag {
        for (i, j, v) in [(r, c, -g), (c, r, -g), (r, r, g), (c, c, g)] {
            dense.add(i, j, v);
            sparse.add(i, j, v);
        }
    }
    (dense, sparse)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn sparse_lu_matches_dense_lu_on_random_mna_systems(spec in system_spec()) {
        let (mut dense, mut sparse) = stamp_both(&spec);
        let xd = dense.solve(&spec.rhs).expect("well-conditioned");
        let xs = sparse.solve(&spec.rhs).expect("well-conditioned");
        for (i, (d, s)) in xd.iter().zip(&xs).enumerate() {
            prop_assert!(
                (d - s).abs() <= 1e-9,
                "x[{i}]: dense={d} sparse={s}"
            );
        }
    }

    #[test]
    fn sparse_transient_matches_dense_on_rc_trees(spec in tree_spec()) {
        let (_, ckt, ids) = build_both(&spec);
        let t_stop = 2e-9;
        let run = |solver: SolverKind| {
            transient(&ckt, t_stop, &SimOptions {
                tstep: 2e-12,
                solver,
                ..SimOptions::default()
            }).expect("mna solve")
        };
        let dense = run(SolverKind::Dense);
        let sparse = run(SolverKind::Sparse);
        prop_assert_eq!(dense.times(), sparse.times(),
            "step control must take the same path");
        for k in 0..ids.len() {
            let wd = dense.waveform_named(&format!("n{k}")).expect("node");
            let ws = sparse.waveform_named(&format!("n{k}")).expect("node");
            for t in [0.3e-9, 0.9e-9, 1.5e-9, 1.99e-9] {
                let (a, b) = (wd.value_at(t), ws.value_at(t));
                prop_assert!(
                    (a - b).abs() <= 1e-9,
                    "node n{}: dense={} sparse={} at {}", k, a, b, t
                );
            }
        }
    }

    #[test]
    fn tree_solver_matches_dense_mna(spec in tree_spec()) {
        let (tree, ckt, ids) = build_both(&spec);
        let t_stop = 4e-9;
        let dt = 1e-12;

        let drive = SourceWave::step(0.0, 1.0, 0.1e-9, 1e-12);
        let fast = tree
            .transient(&drive, spec.driver_r, t_stop, dt, &[])
            .expect("tree solve");
        let dense = transient(
            &ckt,
            t_stop,
            &SimOptions {
                tstep: dt,
                ..SimOptions::default()
            },
        )
        .expect("mna solve");

        for (k, &id) in ids.iter().enumerate() {
            let w_fast = fast.waveform(id);
            let w_dense = dense
                .waveform_named(&format!("n{k}"))
                .expect("node exists");
            for t in [0.5e-9, 1e-9, 2e-9, 3.9e-9] {
                let a = w_fast.value_at(t);
                let b = w_dense.value_at(t);
                prop_assert!(
                    (a - b).abs() < 0.02,
                    "node n{k} at {t}: tree={a} dense={b}"
                );
            }
        }
    }

    #[test]
    fn elmore_bounds_the_fifty_percent_crossing(spec in tree_spec()) {
        // For monotone RC step responses the 50% point is below the Elmore
        // delay (Elmore is the mean of the impulse response, and RC tree
        // responses are right-skewed).
        let (tree, _, ids) = build_both(&spec);
        let drive = SourceWave::step(0.0, 1.0, 0.1e-9, 1e-12);
        let delays = tree.elmore_delays(spec.driver_r);
        let total: f64 = delays.iter().cloned().fold(0.0, f64::max);
        let t_stop = (20.0 * total).max(1e-9);
        let result = tree
            .transient(&drive, spec.driver_r, t_stop, (t_stop / 8000.0).max(0.2e-12), &[])
            .expect("tree solve");
        for &id in &ids {
            if let Some(t50) = result.rising_arrival(id, 0.5) {
                let elmore = delays[id.index()] + 0.1e-9; // source offset
                prop_assert!(
                    t50 <= elmore + 0.05e-9,
                    "t50 {t50} must not exceed elmore {elmore}"
                );
            }
        }
    }
}

/// The paper's sensing circuit — nonlinear MOSFET dynamics, keepers,
/// parasitics — simulated across a full clock cycle on both backends.
/// The stamp plans write identical matrices, so the Newton paths track
/// each other to linear-solve roundoff.
#[test]
fn sensor_transient_agrees_between_dense_and_sparse() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .expect("valid sensor");
    let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
    let bench = sensor.testbench(&clocks).expect("testbench");
    let t_stop = clocks.sim_stop_time();
    let run = |solver: SolverKind| {
        transient(
            &bench,
            t_stop,
            &SimOptions {
                tstep: 2e-12,
                solver,
                ..SimOptions::default()
            },
        )
        .expect("sensor transient")
    };
    let dense = run(SolverKind::Dense);
    let sparse = run(SolverKind::Sparse);
    assert_eq!(
        dense.times(),
        sparse.times(),
        "step control must take the same path"
    );
    let (y1, y2) = sensor.outputs();
    for node in [y1, y2] {
        let wd = dense.waveform(node);
        let ws = sparse.waveform(node);
        for k in 0..=200 {
            let t = t_stop * k as f64 / 200.0;
            let (a, b) = (wd.value_at(t), ws.value_at(t));
            assert!(
                (a - b).abs() <= 1e-9,
                "output at t={t}: dense={a} sparse={b}"
            );
        }
    }
}

/// PR 2 regression, sparse edition: a rank-deficient system whose
/// entries sit at MNA conductance scale (~1e-6 S) eliminates to
/// roundoff pivots that an absolute threshold would happily divide by.
/// The sparse backend uses the same norm-relative pivot test as the
/// dense one and must report the singularity, not a garbage solution.
#[test]
fn sparse_rejects_scaled_down_rank_deficient_systems() {
    let pattern = [(0, 0), (0, 1), (1, 0), (1, 1)];
    let sym = Arc::new(Symbolic::analyze(2, &pattern, 0, &[]));
    let mut m = SparseMatrix::new(sym);
    m.set(0, 0, 1.1e-6);
    m.set(0, 1, 0.7e-6);
    m.set(1, 0, 1.1e-6 / 3.0);
    m.set(1, 1, 0.7e-6 / 3.0);
    assert_eq!(
        m.solve(&[1.0e-6, 2.0e-6]).unwrap_err(),
        SpiceError::SingularMatrix
    );
}

/// PR 2 regression, sparse edition: a transient whose final
/// sub-`tstep_min` window cannot converge must be accepted as reached —
/// with the sparse backend selected, exactly as with the dense one.
#[test]
fn sparse_transient_accepts_final_sliver_below_tstep_min() {
    use clocksense::netlist::{MosParams, MosPolarity};
    let step_to = |v2: f64| SourceWave::Pulse {
        v1: 0.0,
        v2,
        delay: 1.0e-12,
        rise: 0.01e-12,
        fall: 0.2e-12,
        width: 1e-9,
        period: f64::INFINITY,
    };
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("vdd", vdd, GROUND, step_to(5.0)).unwrap();
    ckt.add_vsource("vin", inp, GROUND, step_to(5.0)).unwrap();
    let no_parasitics = MosParams {
        vth0: 0.7,
        kp: 60e-6,
        lambda: 0.02,
        w: 4e-6,
        l: 1.2e-6,
        cgs: 0.0,
        cgd: 0.0,
        cdb: 0.0,
    };
    ckt.add_mosfet(
        "mp",
        MosPolarity::Pmos,
        out,
        inp,
        vdd,
        MosParams {
            vth0: -0.9,
            kp: 20e-6,
            w: 10e-6,
            ..no_parasitics
        },
    )
    .unwrap();
    ckt.add_mosfet("mn", MosPolarity::Nmos, out, inp, GROUND, no_parasitics)
        .unwrap();

    let opts = SimOptions {
        tstep: 1e-12,
        tstep_min: 0.9e-12,
        max_newton_iters: 3,
        solver: SolverKind::Sparse,
        ..SimOptions::default()
    };
    let res = transient(&ckt, 2.5e-12, &opts).expect("sliver must be accepted, not fail");
    assert_eq!(res.times(), &[0.0, 1.0e-12]);
}
