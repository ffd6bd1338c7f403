//! End-to-end and per-layer benchmark of the clocksense paper pipeline.
//!
//! One process runs one workload (see `README.md` for why each exists):
//! it sets the workload up several times, reporting the median set-up
//! time, then runs timed passes for the requested seconds and checks
//! every pass against the committed references. With `--trace 1` it
//! reports the per-layer metrics of [`traced`] instead.

pub mod procfs;
pub mod reference;
pub mod spans;
pub mod traced;
pub mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use reference::{References, Tally};
use workloads::{Ctx, Sizes, State, Workload, FULL};

/// End-to-end metrics registered in `BENCHMARK.json`: name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("items_per_s", "items/s"),
    ("cpu_ms_per_item", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

pub const USAGE: &str =
    "usage: perfbench --workload <sec3_campaign|mc_scatter|mesh_array|memo_resume> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-reference";

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            sizes: FULL,
        })
    }
}

/// The benchmark's directory (its references and scratch space).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    /// Human-readable lines: the run record and every metric with unit.
    pub lines: Vec<String>,
    pub tally: Tally,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed.min(self.tally.attempted.max(1)),
        )
    }
}

/// Timed passes are grouped into windows of at least this many seconds;
/// the per-item figures are medians over windows. A window holds whole
/// passes, and its CPU time spans enough 10 ms clock ticks to read to
/// about 1 %.
pub const WINDOW_S: f64 = 1.0;

/// Whole passes timed together.
struct Window {
    start: Instant,
    cpu_start: f64,
    items: u64,
    wall: f64,
    cpu: f64,
}

impl Window {
    fn open() -> Result<Window, String> {
        Ok(Window {
            cpu_start: procfs::cpu_seconds().ok_or("cannot read /proc/self/stat")?,
            start: Instant::now(),
            items: 0,
            wall: 0.0,
            cpu: 0.0,
        })
    }

    fn close(&mut self) -> Result<(), String> {
        self.wall = self.start.elapsed().as_secs_f64();
        self.cpu = procfs::cpu_seconds().ok_or("cannot read /proc/self/stat")? - self.cpu_start;
        Ok(())
    }

    fn absorb(&mut self, other: &Window) {
        self.items += other.items;
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn metric_line(m: &Metric) -> String {
    format!("{} = {} {}", m.name, m.value, m.unit)
}

/// Runs one workload as `args` asks. `process_start` is when the
/// process began; the first set-up is timed from it.
pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let threads = procfs::nproc();
    let dir = bench_dir();
    let ctx = Ctx {
        seed: args.seed,
        threads,
        sizes: args.sizes,
        refs: References::load(&dir.join("reference"))?,
        work_dir: dir.join("work"),
    };
    let w = args.workload;
    let mut tally = Tally::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut state = None;
    for rep in 0..reps {
        // The previous state goes first: a memo state removes its
        // journals when dropped.
        drop(state.take());
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let s = State::setup(w, &ctx, &mut tally)?;
        s.pass(&ctx.refs, &mut tally);
        setups.push(start.elapsed().as_secs_f64());
        state = Some(s);
    }
    let state = state.ok_or("no set-up ran")?;

    let mut lines = Vec::new();
    let metrics = if args.trace {
        let (metrics, trace_lines) = traced::run(w, &state, &ctx, &mut tally)?;
        lines.extend(trace_lines);
        lines.extend(metrics.iter().map(metric_line));
        metrics
    } else {
        let start = Instant::now();
        let mut windows: Vec<Window> = Vec::new();
        let mut window = Window::open()?;
        let (attempted_before, failed_before) = (tally.attempted, tally.failed);
        loop {
            window.items += state.pass(&ctx.refs, &mut tally);
            let done = start.elapsed().as_secs_f64() >= args.seconds;
            if done || window.start.elapsed().as_secs_f64() >= WINDOW_S {
                window.close()?;
                match windows.last_mut() {
                    // A short last window joins the one before it.
                    Some(last) if window.wall < WINDOW_S => last.absorb(&window),
                    _ => windows.push(window),
                }
                window = Window::open()?;
            }
            if done {
                break;
            }
        }
        let items: u64 = windows.iter().map(|w| w.items).sum();
        let rates: Vec<f64> = windows.iter().map(|w| w.items as f64 / w.wall).collect();
        let cpu_per_item: Vec<f64> = windows
            .iter()
            .map(|w| w.cpu * 1e3 / w.items as f64)
            .collect();
        let timed_attempted = tally.attempted - attempted_before;
        let timed_failed = tally.failed - failed_before;
        let metrics = vec![
            Metric {
                name: "items_per_s",
                value: median(&rates),
                unit: "items/s",
            },
            Metric {
                name: "cpu_ms_per_item",
                value: median(&cpu_per_item),
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: median(&setups),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: procfs::peak_rss_mib().ok_or("cannot read /proc/self/status")?,
                unit: "MiB",
            },
        ];
        let rounded =
            |v: &[f64]| -> Vec<f64> { v.iter().map(|x| (x * 1000.0).round() / 1000.0).collect() };
        lines.push(format!(
            "timed: {} windows, {items} items in {:.3} s; items/s per window {:?}; CPU ms per item per window {:?}",
            windows.len(),
            start.elapsed().as_secs_f64(),
            rounded(&rates),
            rounded(&cpu_per_item),
        ));
        lines.push(format!("set-ups [s]: {setups:?}"));
        lines.extend(metrics.iter().map(metric_line));
        lines.push(metric_line(&Metric {
            name: "items_failed_frac",
            value: timed_failed as f64 / timed_attempted.max(1) as f64,
            unit: "fraction",
        }));
        lines.push(metric_line(&Metric {
            name: "vmin_err_mv",
            value: tally.vmin_err_mv,
            unit: "mV",
        }));
        metrics
    };
    lines.insert(
        0,
        format!(
            "perfbench: workload={} trace={} sizes={}",
            w.name(),
            u8::from(args.trace),
            if args.sizes.faults == FULL.faults {
                "full"
            } else {
                "tiny"
            }
        ),
    );
    lines.insert(
        1,
        procfs::run_record(dir.parent().unwrap_or(&dir), threads, args.seed),
    );
    Ok(Outcome {
        lines,
        tally,
        metrics,
    })
}
