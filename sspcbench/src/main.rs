//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path sspcbench/Cargo.toml -- \
//!     --workload <fig8_unsupervised|fig5_supervised|service_closed_loop> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Human-readable progress goes to stderr.
//! Standard output carries a run record (machine, compiler, source,
//! shapes, mix) and, as its last line, the result:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. The traced run
//! also writes its spans as JSON lines next to the build output. Any
//! failed operation or oracle mismatch makes the exit code non-zero.
//! See `sspcbench/README.md` for the workloads and metrics.

mod inputs;
mod service;
mod stats;
mod trace;
mod workloads;

use sspc_common::json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workloads::{RunOptions, FIG5_WORKLOAD, FIG8_WORKLOAD};

const WORKLOADS: [&str; 3] = [
    "fig8_unsupervised",
    "fig5_supervised",
    "service_closed_loop",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload `{value}` (known: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("a number of seconds in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where build output goes: `CARGO_TARGET_DIR` when set, else the
/// package's own `target`.
fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("sspcbench/target"), PathBuf::from)
}

/// `git rev-parse HEAD` when the benchmark runs inside a git work tree.
fn git_commit() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV digest of the sources the benchmark builds (every file under
/// `crates/`, `vendor/` and `sspcbench/src`, plus the workspace manifest
/// and lock file), so a run can be tied to its code where no git
/// metadata is present.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["crates", "vendor", "sspcbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h = stats::Fnv::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.bytes(f.to_string_lossy().as_bytes());
            h.bytes(&bytes);
        }
    }
    format!("{:016x}", h.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = output_dir();
    let scratch = out.join(format!("sspcbench-state-{}", std::process::id()));
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        scratch: scratch.clone(),
        nproc,
    };
    eprintln!(
        "sspcbench: {} seed {} for {}s ({})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let outcome = match args.workload.as_str() {
        "fig8_unsupervised" => workloads::core(&FIG8_WORKLOAD, &opts),
        "fig5_supervised" => workloads::core(&FIG5_WORKLOAD, &opts),
        _ => workloads::service(&opts),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let tally = outcome.tally;
    let record = outcome
        .record
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("nproc", nproc)
        .with("rustc", env!("SSPCBENCH_RUSTC_VERSION"))
        .with("git_commit", git_commit().map_or(Value::Null, Value::from))
        .with("source_digest", source_digest())
        .with("refused", tally.refused)
        .with("unfinished", tally.unfinished)
        .with("mismatched", tally.mismatched)
        .with("error_share", tally.error_share());
    if opts.tracer.on() {
        let path = out
            .join("sspcbench-traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match opts.tracer.write(&path, &record) {
            Ok(()) => eprintln!(
                "sspcbench: {} spans written to {}",
                opts.tracer.len(),
                path.display()
            ),
            Err(e) => eprintln!("sspcbench: could not write spans: {e}"),
        }
    }

    let mut metrics = Value::object();
    for &(name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<26} {value:>14.6} {unit}");
        metrics = metrics.with(
            name,
            Value::object().with("value", value).with("unit", unit),
        );
    }
    let correct = tally.failures() == 0;
    println!("{}", Value::object().with("record", record));
    println!(
        "{}",
        Value::object()
            .with("correct", correct)
            .with("attempted", tally.attempted)
            .with("failed", tally.failures())
            .with("metrics", metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "sspcbench: {} of {} operations failed or mismatched their oracle",
            tally.failures(),
            tally.attempted
        );
        ExitCode::FAILURE
    }
}
