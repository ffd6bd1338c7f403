//! Process and machine facts read from `/proc` and the environment, so
//! the benchmark needs no dependency beyond the standard library.

use std::fs;
use std::path::Path;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat`. Linux fixes this user-visible rate (`USER_HZ`) at
/// 100 on every architecture it exposes `/proc` on.
const USER_HZ: f64 = 100.0;

/// CPU time (user + system, all threads, live and exited) the process
/// has consumed, in seconds.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields after it are
    // space-separated, utime and stime being fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split(' ').skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Worker threads the benchmark may use: the machine's available
/// parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The run record printed with every result: `nproc`, worker threads,
/// git revision, the compiler that built the benchmark, CPU model, seed
/// and `CLOCKSENSE_FAST`. Workload sizes never read that variable; it is
/// recorded so that a stray export shows next to the figures.
pub fn run_record(repo_root: &Path, threads: usize, seed: u64) -> String {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let fast = match std::env::var_os("CLOCKSENSE_FAST") {
        None => "unset".into(),
        Some(v) => format!("{:?} (ignored)", v.to_string_lossy()),
    };
    format!(
        "run: nproc={} threads={threads} git={} rustc=\"{}\" cpu=\"{cpu_model}\" seed={seed} CLOCKSENSE_FAST={fast}",
        nproc(),
        git_revision(repo_root).unwrap_or_else(|| "unknown".into()),
        env!("PERFBENCH_RUSTC_VERSION"),
    )
}

/// The checked-out commit, read from `.git` directly so no `git`
/// process (and no file outside the checkout) is involved. `None` in an
/// exported tree without `.git`.
fn git_revision(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}
