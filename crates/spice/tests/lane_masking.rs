//! Property tests for the lane-blocked batch kernel's masking: batch
//! widths that straddle the `LANE_WIDTH` (= 8) block boundary must
//! reproduce the cached scalar path at every sample, for every variant,
//! no matter how the per-lane Newton trajectories diverge.
//!
//! Widths 2 and 7 leave padding lanes inside a single block; 8 fills one
//! block exactly; 9 spills a lone variant into a second block with seven
//! padding lanes; 17 spans three blocks (8 + 8 + 1). The randomised
//! per-variant load/drive scales spread the Newton iteration counts
//! across lanes, so converged lanes park while their block-mates keep
//! iterating — the mixed-convergence masking the kernel must get right.
//!
//! The kernel eliminates the rows the MOSFETs never touch once per step
//! size and re-eliminates only the MOSFET rows per Newton iteration, so a
//! second property drives RC grids carrying inverters at random taps with
//! per-variant value deltas both in the linear block (grid segments) and
//! in the MOSFET rows (inverter loads and widths).

use clocksense_netlist::{Circuit, MosParams, MosPolarity, SourceWave, GROUND};
use clocksense_spice::{
    transient_batch, transient_cached, BatchSim, SimOptions, SolverKind, SymbolicCache, LANE_WIDTH,
};
use proptest::prelude::*;

fn nmos() -> MosParams {
    MosParams {
        vth0: 0.4,
        kp: 80e-6,
        lambda: 0.04,
        w: 2e-6,
        l: 0.12e-6,
        cgs: 0.4e-15,
        cgd: 0.3e-15,
        cdb: 0.3e-15,
    }
}

fn pmos() -> MosParams {
    MosParams {
        vth0: -0.45,
        kp: 35e-6,
        w: 4e-6,
        ..nmos()
    }
}

/// A CMOS inverter driving a two-stage RC line: nonlinear enough that
/// every time step takes a data-dependent number of Newton iterations,
/// small enough that a 17-variant scalar sweep stays cheap. `drive`
/// scales the inverter width (how hard the lane's Newton problem is),
/// `load` the line RC (how slowly the lane settles).
fn inverter_line(drive: f64, load: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    let mid = ckt.node("mid");
    let probe = ckt.node("probe");
    ckt.add_vsource("vdd", vdd, GROUND, SourceWave::Dc(1.2))
        .unwrap();
    ckt.add_vsource(
        "vin",
        inp,
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
    let mut p = pmos();
    let mut n = nmos();
    p.w *= drive;
    n.w *= drive;
    ckt.add_mosfet("mp", MosPolarity::Pmos, out, inp, vdd, p)
        .unwrap();
    ckt.add_mosfet("mn", MosPolarity::Nmos, out, inp, GROUND, n)
        .unwrap();
    ckt.add_resistor("r1", out, mid, 2e3 * load).unwrap();
    ckt.add_capacitor("c1", mid, GROUND, 5e-15 * load).unwrap();
    ckt.add_resistor("r2", mid, probe, 3e3 * load).unwrap();
    ckt.add_capacitor("c2", probe, GROUND, 8e-15 * load)
        .unwrap();
    ckt
}

/// A `side × side` RC grid driven at one corner, with a CMOS inverter
/// reading each tap in `taps` (grid indices, row-major) into an RC load.
/// `grid` scales every segment resistance (a delta in the linear rows
/// wherever the segment misses the taps), `load` the inverter loads and
/// `drive` their widths (deltas in the MOSFET rows).
fn tapped_grid(side: usize, taps: &[usize], grid: f64, load: f64, drive: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let src = ckt.node("src");
    ckt.add_vsource("vdd", vdd, GROUND, SourceWave::Dc(1.2))
        .unwrap();
    ckt.add_vsource(
        "vclk",
        src,
        GROUND,
        SourceWave::Pulse {
            v1: 0.0,
            v2: 1.2,
            delay: 40e-12,
            rise: 30e-12,
            fall: 30e-12,
            width: 150e-12,
            period: f64::INFINITY,
        },
    )
    .unwrap();
    let nodes: Vec<_> = (0..side * side)
        .map(|k| ckt.node(&format!("g{k}")))
        .collect();
    ckt.add_resistor("rdrv", src, nodes[0], 50.0).unwrap();
    for k in 0..side * side {
        ckt.add_capacitor(&format!("cg{k}"), nodes[k], GROUND, 4e-15)
            .unwrap();
        if k % side + 1 < side {
            ckt.add_resistor(&format!("rh{k}"), nodes[k], nodes[k + 1], 20.0 * grid)
                .unwrap();
        }
        if k + side < side * side {
            ckt.add_resistor(&format!("rv{k}"), nodes[k], nodes[k + side], 20.0 * grid)
                .unwrap();
        }
    }
    for (i, &tap) in taps.iter().enumerate() {
        let out = ckt.node(&format!("out{i}"));
        let probe = ckt.node(&format!("probe{i}"));
        let mut p = pmos();
        let mut n = nmos();
        p.w *= drive;
        n.w *= drive;
        ckt.add_mosfet(
            &format!("mp{i}"),
            MosPolarity::Pmos,
            out,
            nodes[tap],
            vdd,
            p,
        )
        .unwrap();
        ckt.add_mosfet(
            &format!("mn{i}"),
            MosPolarity::Nmos,
            out,
            nodes[tap],
            GROUND,
            n,
        )
        .unwrap();
        ckt.add_capacitor(&format!("cl{i}"), out, GROUND, 3e-15 * load)
            .unwrap();
        ckt.add_resistor(&format!("rl{i}"), out, probe, 1e3 * load)
            .unwrap();
        ckt.add_capacitor(&format!("cp{i}"), probe, GROUND, 4e-15)
            .unwrap();
    }
    ckt
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Every lane agrees with the cached scalar path to 1e-9 at every
    /// recorded sample of every node, whatever taps the inverters sit on
    /// and whichever rows the per-variant deltas land in.
    #[test]
    fn tapped_grids_match_scalar_with_deltas_in_and_out_of_mosfet_rows(
        side in 3usize..5,
        taps in proptest::collection::vec(0usize..16, 1..4),
        scales in proptest::collection::vec((0.5f64..2.0, 0.5f64..2.0, 0.6f64..1.8), 9..10),
        width_idx in 0usize..2,
    ) {
        let width = [3usize, 9][width_idx];
        let taps: Vec<usize> = taps.iter().map(|t| t % (side * side)).collect();
        let variants: Vec<Circuit> = scales[..width]
            .iter()
            .map(|&(grid, load, drive)| tapped_grid(side, &taps, grid, load, drive))
            .collect();
        let t_stop = 0.4e-9;
        let opts = SimOptions {
            solver: SolverKind::Sparse,
            tstep: 5e-12,
            ..SimOptions::default()
        };
        let cache = SymbolicCache::new();
        // Packed directly, so a lane that drops out fails the property
        // instead of being re-run on the scalar path.
        let laned = BatchSim::pack(&variants, &SimOptions { batch: width, ..opts.clone() }, &cache)
            .expect("aligned variants")
            .run(t_stop);
        for (k, (ckt, b)) in variants.iter().zip(&laned).enumerate() {
            let s = transient_cached(ckt, t_stop, &opts, &cache).expect("scalar run");
            let b = b.as_ref().expect("lane stays in its batch");
            prop_assert_eq!(s.times(), b.times(), "variant {} grid differs", k);
            for node in s.node_names() {
                let dv = s
                    .waveform_named(node)
                    .expect("scalar node")
                    .max_abs_difference(&b.waveform_named(node).expect("laned node"));
                prop_assert!(dv <= 1e-9, "variant {} deviates by {:.3e} at {}", k, dv, node);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Every lane of every block agrees with the cached scalar path to
    /// 1e-9 at every recorded sample, for batch widths on both sides of
    /// each lane-block boundary.
    #[test]
    fn laned_matches_scalar_across_block_boundaries(
        width_idx in 0usize..5,
        scales in proptest::collection::vec((0.5f64..2.5, 0.4f64..2.5), 17..18),
    ) {
        let width = [2usize, 7, 8, 9, 17][width_idx];
        prop_assume!(width <= scales.len());
        let variants: Vec<Circuit> = scales[..width]
            .iter()
            .map(|&(drive, load)| inverter_line(drive, load))
            .collect();
        let t_stop = 0.5e-9;
        let opts = SimOptions {
            solver: SolverKind::Sparse,
            tstep: 5e-12,
            ..SimOptions::default()
        };

        let scalar_cache = SymbolicCache::new();
        let scalar: Vec<_> = variants
            .iter()
            .map(|ckt| transient_cached(ckt, t_stop, &opts, &scalar_cache).expect("scalar run"))
            .collect();

        let lane_opts = SimOptions { batch: width, ..opts };
        let lane_cache = SymbolicCache::new();
        let laned = transient_batch(&variants, t_stop, &lane_opts, &lane_cache);

        // Widths above LANE_WIDTH must actually have spilled into a
        // second block for this test to mean anything.
        prop_assert!(width <= LANE_WIDTH || width.div_ceil(LANE_WIDTH) >= 2);
        for (k, (s, b)) in scalar.iter().zip(&laned).enumerate() {
            let b = b.as_ref().expect("laned run");
            prop_assert_eq!(s.times(), b.times(), "variant {} grid differs", k);
            for node in ["out", "mid", "probe"] {
                let sw = s.waveform_named(node).expect("scalar node");
                let bw = b.waveform_named(node).expect("laned node");
                let dv = sw.max_abs_difference(&bw);
                prop_assert!(
                    dv < 1e-9,
                    "variant {} of {} deviates by {:.3e} at node {}",
                    k, width, dv, node
                );
            }
        }
    }
}
