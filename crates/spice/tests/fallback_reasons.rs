//! Every circuit `transient_batch` hands to the scalar path is counted
//! under exactly one `batch.fallback_*` reason and in the total
//! `batch.variants_scalar_fallback`; a run with batching off counts
//! nothing.
//!
//! The test reads process-global telemetry and arms a chaos plan, so it
//! lives in its own test binary.

use clocksense_chaos::{ChaosPlan, Injection};
use clocksense_netlist::{Circuit, SourceWave, GROUND};
use clocksense_spice::{transient_batch, SimOptions, SolverKind, SymbolicCache, TimestepControl};

fn rc(ohms: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_vsource("v", a, GROUND, SourceWave::step(0.0, 1.0, 10e-12, 20e-12))
        .unwrap();
    ckt.add_resistor("r", a, b, ohms).unwrap();
    ckt.add_capacitor("c", b, GROUND, 1e-13).unwrap();
    ckt
}

fn divider() -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_vsource("v", a, GROUND, SourceWave::Dc(1.0))
        .unwrap();
    ckt.add_resistor("r1", a, b, 1e3).unwrap();
    ckt.add_resistor("r2", b, GROUND, 1e3).unwrap();
    ckt
}

const REASONS: [&str; 5] = ["unaligned", "dense", "adaptive", "dropout", "singleton"];

/// `(per-reason counts, total)` since `base`.
fn fallbacks_since(base: &[u64; 6]) -> ([u64; 5], u64) {
    let now = read();
    (std::array::from_fn(|k| now[k] - base[k]), now[5] - base[5])
}

fn read() -> [u64; 6] {
    let registry = clocksense_telemetry::global();
    let mut out = [0u64; 6];
    for (k, reason) in REASONS.iter().enumerate() {
        out[k] = registry.counter(&format!("batch.fallback_{reason}")).get();
    }
    out[5] = registry.counter("batch.variants_scalar_fallback").get();
    out
}

#[test]
fn each_fallback_counts_once_under_its_reason() {
    let registry = clocksense_telemetry::global();
    registry.enable();
    let cache = SymbolicCache::new();
    let sparse = SimOptions {
        solver: SolverKind::Sparse,
        batch: 2,
        ..SimOptions::default()
    };
    let cases: [(&str, Vec<Circuit>, SimOptions, [u64; 5]); 5] = [
        (
            "batching off",
            vec![rc(1e3), rc(2e3)],
            SimOptions {
                batch: 0,
                ..sparse.clone()
            },
            [0; 5],
        ),
        (
            "dense",
            vec![rc(1e3), rc(2e3)],
            SimOptions {
                solver: SolverKind::Dense,
                ..sparse.clone()
            },
            [0, 2, 0, 0, 0],
        ),
        (
            "adaptive",
            vec![rc(1e3), rc(2e3), rc(3e3)],
            SimOptions {
                timestep: TimestepControl::Adaptive {
                    tstep_max: 100e-12,
                    lte_tol: 0.1,
                },
                ..sparse.clone()
            },
            [0, 0, 3, 0, 0],
        ),
        (
            "unaligned",
            vec![rc(1e3), divider(), rc(2e3)],
            sparse.clone(),
            [1, 0, 0, 0, 0],
        ),
        (
            "singleton",
            vec![rc(1e3), rc(2e3), rc(3e3)],
            sparse.clone(),
            [0, 0, 0, 0, 1],
        ),
    ];
    for (name, circuits, opts, want) in cases {
        let base = read();
        let results = transient_batch(&circuits, 0.2e-9, &opts, &cache);
        assert!(
            results.iter().all(Result::is_ok),
            "{name}: every circuit completes"
        );
        let (reasons, total) = fallbacks_since(&base);
        assert_eq!(reasons, want, "{name}: reasons {REASONS:?}");
        assert_eq!(
            total,
            want.iter().sum::<u64>(),
            "{name}: reasons sum to the total"
        );
    }

    // A poisoned lane drops out of its batch and re-runs scalar.
    let base = read();
    let guard = ChaosPlan::new(7)
        .with(Injection::LanePoison {
            lane: 1,
            infinity: false,
        })
        .arm_scoped();
    let results = transient_batch(&[rc(1e3), rc(2e3)], 0.2e-9, &sparse, &cache);
    assert_eq!(guard.disarm().fired, 1);
    assert!(
        results.iter().all(Result::is_ok),
        "the dropout completes on the scalar path"
    );
    assert_eq!(fallbacks_since(&base), ([0, 0, 0, 1, 0], 1));
    registry.disable();
}
