use std::process::ExitCode;
use std::time::Instant;

use clocksense_perfbench::{bench_dir, procfs, run, workloads, Args, USAGE};

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--write-reference"] {
        let dir = bench_dir().join("reference");
        return match workloads::generate_references(procfs::nproc())
            .and_then(|refs| refs.write(&dir))
        {
            Ok(()) => {
                println!("references written to {}", dir.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, start) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            for note in &outcome.tally.notes {
                eprintln!("perfbench: mismatch: {note}");
            }
            println!("{}", outcome.json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
