//! The benchmark's own tests. Run them optimised:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::fs;
use std::time::Instant;

use clocksense_netlist::canonical_form;
use clocksense_perfbench::reference::{References, Tally};
use clocksense_perfbench::spans::Tracer;
use clocksense_perfbench::traced::PER_LAYER;
use clocksense_perfbench::workloads::{Ctx, Mc, Mesh, Sec3, Workload, TINY};
use clocksense_perfbench::{bench_dir, run, Args, END_TO_END};

fn refs_text() -> (String, String, String) {
    let dir = bench_dir().join("reference");
    let read = |n: &str| fs::read_to_string(dir.join(n)).expect("reference file");
    (
        read("sec3_campaign.tsv"),
        read("mc_scatter.tsv"),
        read("mesh_array.tsv"),
    )
}

fn ctx(seed: u64, refs: References) -> Ctx {
    Ctx {
        seed,
        threads: 2,
        sizes: TINY,
        refs,
        work_dir: bench_dir().join("work"),
    }
}

fn committed() -> References {
    References::load(&bench_dir().join("reference")).expect("committed references parse")
}

/// One test drives every workload in both modes: the traced mode uses
/// the process-wide telemetry registry, so no other test may run one.
#[test]
fn tiny_runs_print_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload: w,
                seed: 7,
                seconds: 0.01,
                trace,
                sizes: TINY,
            };
            let out = run(&args, Instant::now()).expect("tiny run");
            assert!(out.correct(), "{} trace={trace}: {:?}", w.name(), out.tally);
            let json = out.json();
            let registered: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(out.metrics.len(), registered.len());
            for (name, unit) in registered {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{} lacks {name}",
                    w.name()
                );
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
                assert!(
                    out.lines
                        .iter()
                        .any(|l| l.starts_with(&format!("{name} = ")) && l.ends_with(unit)),
                    "{} prints no line for {name}",
                    w.name()
                );
            }
            if !trace {
                for (name, unit) in [("items_failed_frac", "fraction"), ("vmin_err_mv", "mV")] {
                    assert!(out
                        .lines
                        .iter()
                        .any(|l| l.starts_with(&format!("{name} = 0 ")) && l.ends_with(unit)));
                }
            }
        }
    }
}

#[test]
fn gate_rejects_one_flipped_fault_verdict() {
    let state = Sec3::new(&ctx(3, References::default())).expect("set-up");
    let mut tally = Tally::default();
    state.pass(&committed(), &mut tally);
    assert_eq!((tally.attempted, tally.failed), (TINY.faults as u64, 0));

    let (sec3, mc, mesh) = refs_text();
    let victim = state.faults[0].id();
    let flipped: String = sec3
        .lines()
        .map(|l| match l.split_once('\t') {
            Some((id, rest)) if id == victim => {
                let outcome = if rest.starts_with("DetectedLogic") {
                    "Undetected"
                } else {
                    "DetectedLogic"
                };
                let (_, masks) = rest.split_once('\t').expect("three fields");
                format!("{id}\t{outcome}\t{masks}\n")
            }
            _ => format!("{l}\n"),
        })
        .collect();
    assert_ne!(flipped, sec3);
    let refs = References::parse(&flipped, &mc, &mesh).expect("flipped copy parses");
    let mut tally = Tally::default();
    state.pass(&refs, &mut tally);
    assert_eq!(tally.failed, 1, "{:?}", tally.notes);
}

#[test]
fn gate_rejects_one_flipped_mesh_verdict() {
    let (sec3, mc, mesh) = refs_text();
    let flipped = mesh.replacen(
        "mesh8x8s2\t-\t-\tNoError,NoError",
        "mesh8x8s2\t-\t-\tNoError,Phi2Late",
        1,
    );
    assert_ne!(flipped, mesh);
    let refs = References::parse(&sec3, &mc, &flipped).expect("flipped copy parses");
    let state = Mesh::new(&ctx(5, References::default())).expect("set-up");
    let mut tally = Tally::default();
    state.pass(&refs, &mut tally);
    assert_eq!(tally.failed, 1, "{:?}", tally.notes);
}

#[test]
fn gate_rejects_a_truncated_or_padded_result() {
    let refs = committed();
    let gate = |check: &dyn Fn(&mut Tally)| {
        let mut tally = Tally::default();
        check(&mut tally);
        (tally.attempted, tally.failed)
    };

    let sec3 = Sec3::new(&ctx(3, References::default())).expect("set-up");
    let records = sec3.pass(&refs, &mut Tally::default());
    let n = records.len() as u64;
    assert_eq!(gate(&|t| sec3.check(&records, &refs, t)), (n, 0));
    let truncated = &records[1..];
    assert_eq!(gate(&|t| sec3.check(truncated, &refs, t)), (n, 1));
    let padded = [&records[..], &records[..1]].concat();
    assert_eq!(gate(&|t| sec3.check(&padded, &refs, t)), (n + 1, 1));

    let mc = Mc::new(&ctx(3, References::default()), None);
    let samples = mc.pass(&refs, &mut Tally::default());
    let n = samples.len() as u64;
    assert_eq!(gate(&|t| mc.check(&samples, &refs, t)), (n, 0));
    let truncated = &samples[..samples.len() - 1];
    assert_eq!(gate(&|t| mc.check(truncated, &refs, t)), (n, 1));

    let mesh = Mesh::new(&ctx(5, References::default())).expect("set-up");
    let out = mesh.pass(&refs, &mut Tally::default());
    let sensors = mesh.deck.taps.len() as u64;
    let n = out.len() as u64 * sensors;
    assert_eq!(gate(&|t| mesh.check(&out, &refs, t)), (n, 0));
    let truncated = &out[..out.len() - 1];
    assert_eq!(
        gate(&|t| mesh.check(truncated, &refs, t)),
        (n - sensors + 1, 1)
    );
    let mut short = out.clone();
    if let Ok(v) = &mut short[0] {
        v.pop();
    }
    assert_eq!(gate(&|t| mesh.check(&short, &refs, t)), (n, 1));
}

#[test]
fn seed_fixes_the_monte_carlo_inputs_bit_for_bit() {
    let benches = |seed| {
        let mc = Mc::new(&ctx(seed, References::default()), None);
        let mut t = Tracer::new(Instant::now(), 0);
        (0..TINY.mc_samples)
            .map(|i| canonical_form(&mc.prepare(i, &mut t).expect("sample").bench))
            .collect::<Vec<_>>()
    };
    let a = benches(11);
    assert_eq!(a, benches(11));
    assert!(a.iter().zip(benches(12)).all(|(x, y)| *x != y));
}

#[test]
fn seed_fixes_fault_order_and_mesh_variants() {
    let order = |seed| {
        let ctx = Ctx {
            sizes: clocksense_perfbench::workloads::FULL,
            ..ctx(seed, References::default())
        };
        let s = Sec3::new(&ctx).expect("set-up");
        s.faults.iter().map(|f| f.id()).collect::<Vec<_>>()
    };
    assert_eq!(order(1), order(1));
    assert_ne!(order(1), order(2));
    let variants = |seed| {
        Mesh::new(&ctx(seed, References::default()))
            .expect("set-up")
            .starves
    };
    assert_eq!(variants(4), variants(4));
    assert!(
        variants(4).contains(&None),
        "the healthy deck is always run"
    );
}

#[test]
fn benchmark_json_registers_every_metric() {
    let json = fs::read_to_string(bench_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} [{unit}]"
        );
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
