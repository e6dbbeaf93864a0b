//! Per-PR benchmark regression gate (ROADMAP "wall-clock benchmark suite").
//!
//! Reads every `BENCH_PR*.json` at the repository root (or the directory
//! given as the first argument), prints the throughput trajectory across
//! PRs, and exits non-zero if the newest PR's reference stable-throughput
//! regressed more than 15% against the previous PR that recorded it.
//!
//! Scope: the `BENCH_PR*.json` files are historical records, written by
//! hand from runs of the `realtime_pipeline` modes their `command` fields
//! name; those modes no longer exist and nothing rewrites the files. This
//! gate therefore checks the *recorded* trajectory only — it cannot catch
//! numbers that were never re-measured (`python3 perfbench/run.py`
//! measures today's build). CI runs it as `cargo run --release -p
//! borealis-workloads --bin bench_report`.

use borealis_workloads::benchjson::{
    regression, render_trajectory, saturation_regression, trajectory,
};
use std::process::ExitCode;

const TOLERANCE: f64 = 0.15;

fn main() -> ExitCode {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let mut files: Vec<(String, String)> = Vec::new();
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench_report: cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_PR") && name.ends_with(".json") {
            match std::fs::read_to_string(entry.path()) {
                Ok(contents) => files.push((name, contents)),
                Err(e) => {
                    eprintln!("bench_report: cannot read {name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if files.is_empty() {
        eprintln!("bench_report: no BENCH_PR*.json files under {dir}");
        return ExitCode::FAILURE;
    }
    let points = match trajectory(&files) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench_report: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("benchmark trajectory (reference stable tuples/s per PR)\n");
    print!("{}", render_trajectory(&points));
    let mut failed = false;
    if let Some((prev, last)) = regression(&points, TOLERANCE) {
        eprintln!(
            "\nREGRESSION: PR {} records {:.0} stable tuples/s, more than {:.0}% below \
             PR {}'s {:.0}",
            last.pr,
            last.rate.unwrap_or(0.0),
            TOLERANCE * 100.0,
            prev.pr,
            prev.rate.unwrap_or(0.0),
        );
        failed = true;
    }
    if let Some((prev, last)) = saturation_regression(&points, TOLERANCE) {
        eprintln!(
            "\nREGRESSION: PR {} records a saturation capacity of {:.0} stable tuples/s, \
             more than {:.0}% below PR {}'s {:.0}",
            last.pr,
            last.saturation.unwrap_or(0.0),
            TOLERANCE * 100.0,
            prev.pr,
            prev.saturation.unwrap_or(0.0),
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("\nno regression beyond {:.0}% tolerance", TOLERANCE * 100.0);
        ExitCode::SUCCESS
    }
}
