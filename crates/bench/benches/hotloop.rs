//! The SSPC hot-loop A/B benchmark: the columnar, parallel fast path
//! (`Sspc::run`) against the pre-columnar serial reference
//! (`Sspc::run_naive`), on the issue's target workload — a 5000 × 1000
//! synthetic gene-expression-shaped matrix at k = 10 — plus a third leg
//! that reruns the fast path under an armed (far-future) deadline.
//!
//! Every leg produces a **bit-identical** `SspcResult` (asserted here on
//! every run); only memory layout, parallelism and allocation differ. The
//! measured comparison is appended to `BENCH_hotloop.json` in the
//! workspace root so the perf trajectory is tracked from PR 1 onward.
//!
//! Environment knobs:
//!
//! * `HOTLOOP_N` / `HOTLOOP_D` / `HOTLOOP_K` — workload shape (default
//!   5000 / 1000 / 10);
//! * `HOTLOOP_STALL` / `HOTLOOP_ITERS` — termination controls (default
//!   3 / 8; raise both to lengthen the run's stabilized tail);
//! * `HOTLOOP_OUTLIERS` — outlier fraction of the generated data (percent,
//!   default 0). Outliers keep boundary objects oscillating between the
//!   outlier list and their nearest cluster, so late iterations keep
//!   changing memberships instead of freezing;
//! * `HOTLOOP_ROUNDS` — timed rounds per path (default 3; min of the
//!   rounds is reported);
//! * `HOTLOOP_SMOKE=1` — 600 × 120 at k = 4, one round, for CI smoke jobs;
//! * `BENCH_HOTLOOP_OUT` — output path for the JSON record.
//!
//! The record carries the per-phase breakdown of both timed legs
//! (`assign_secs` / `refit_secs` / `other_secs`, plus `init_secs`, the
//! initialization sub-span of `other_secs`; `naive_`-prefixed for the
//! reference leg).

use sspc::{PhaseTimings, Sspc, SspcParams, SspcResult, Supervision, ThresholdScheme};
use std::time::Instant;

use sspc_datagen::{generate, GeneratorConfig};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let smoke = std::env::var("HOTLOOP_SMOKE").is_ok_and(|v| v == "1");
    let (n, d, k, rounds) = if smoke {
        (600, 120, 4, 1)
    } else {
        (
            env_usize("HOTLOOP_N", 5000),
            env_usize("HOTLOOP_D", 1000),
            env_usize("HOTLOOP_K", 10),
            env_usize("HOTLOOP_ROUNDS", 3),
        )
    };
    let max_stall = env_usize("HOTLOOP_STALL", 3);
    let max_iterations = env_usize("HOTLOOP_ITERS", 8);
    let outlier_fraction = env_usize("HOTLOOP_OUTLIERS", 0) as f64 / 100.0;

    eprintln!("hotloop: generating {n}x{d} dataset, k={k} ...");
    let config = GeneratorConfig {
        n,
        d,
        k,
        avg_cluster_dims: (d / 50).max(4),
        outlier_fraction,
        ..Default::default()
    };
    let data = generate(&config, 20_250_101).unwrap();

    // Three labeled objects per class: private seed groups for every
    // cluster, so initialization (not under test) stays cheap and the
    // measured time is dominated by the iteration phase this PR targets.
    let mut supervision = Supervision::none();
    for c in 0..k {
        let class = sspc_common::ClusterId(c);
        for &o in data.truth.members_of(class).iter().take(3) {
            supervision = supervision.label_object(o, class);
        }
    }

    let params = SspcParams::new(k)
        .with_threshold(ThresholdScheme::MFraction(0.5))
        .with_termination(max_stall, max_iterations);
    let sspc = Sspc::new(params).unwrap();
    let seed = 7u64;

    // Each timed leg reports its per-phase breakdown (assign / refit /
    // other) alongside the wall clock — the breakdown of the best (min
    // total) round is what lands in the record, so assignment-phase wins
    // are attributable instead of inferred from whole-run deltas. The
    // timing collector costs four `Instant` reads per outer iteration.
    let time_path = |label: &str,
                     f: &dyn Fn() -> (SspcResult, PhaseTimings)|
     -> (f64, SspcResult, PhaseTimings) {
        let mut best = f64::INFINITY;
        let mut best_phases = PhaseTimings::default();
        let mut result = None;
        for round in 0..rounds.max(1) {
            let start = Instant::now();
            let (r, phases) = f();
            let secs = start.elapsed().as_secs_f64();
            eprintln!(
                "hotloop: {label} round {round}: {secs:.3} s ({} iterations; \
                     assign {:.3} s, refit {:.3} s, other {:.3} s of which init {:.3} s)",
                r.iterations(),
                phases.assign_secs,
                phases.refit_secs,
                phases.other_secs,
                phases.init_secs,
            );
            if secs < best {
                best = secs;
                best_phases = phases;
            }
            result = Some(r);
        }
        (best, result.expect("at least one round"), best_phases)
    };

    let (naive_secs, naive_result, naive_phases) = time_path("naive  ", &|| {
        sspc.run_naive_with_timings(&data.dataset, &supervision, seed)
            .unwrap()
    });
    let (fast_secs, fast_result, fast_phases) = time_path("fast   ", &|| {
        sspc.run_with_timings(&data.dataset, &supervision, seed)
            .unwrap()
    });

    // Cancellation-overhead A/B: the cooperative deadline check sits in
    // the outer iteration loop. The `fast` timing above runs it unarmed
    // (a thread-local read); this run installs a far-future deadline so
    // every check also pays its `Instant::now()`. Both must be noise.
    let far_deadline = Instant::now() + std::time::Duration::from_secs(86_400);
    let (deadline_secs, deadline_result, _) = time_path("fast+dl", &|| {
        let _deadline = sspc_common::cancel::deadline_guard(far_deadline);
        sspc.run_with_timings(&data.dataset, &supervision, seed)
            .unwrap()
    });

    let bit_identical = naive_result == fast_result
        && naive_result == deadline_result
        && naive_result.objective().to_bits() == fast_result.objective().to_bits()
        && naive_result.objective().to_bits() == deadline_result.objective().to_bits();
    assert!(
        bit_identical,
        "hotloop: fast paths diverged from the reference path"
    );

    let speedup = naive_secs / fast_secs;
    let deadline_overhead = deadline_secs / fast_secs - 1.0;
    println!(
        "hotloop n={n} d={d} k={k}: naive {naive_secs:.3} s, fast {fast_secs:.3} s, \
         speedup {speedup:.2}x, armed-deadline overhead {:+.1}%, bit-identical results",
        deadline_overhead * 100.0
    );

    // Append one JSON record per run; the workspace root is two levels up
    // from this package's CARGO_MANIFEST_DIR. `threads` is the resolved
    // worker count the parallel phases actually use; `cores` is what the
    // machine offers — record both so multi-core re-baselines (the PR-1
    // numbers are from a 1-core box) stay interpretable.
    let out_path = std::env::var("BENCH_HOTLOOP_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_hotloop.json", env!("CARGO_MANIFEST_DIR")));
    let threads = sspc_common::parallel::num_threads();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let record = format!(
        concat!(
            "{{\"bench\":\"hotloop\",\"n\":{},\"d\":{},\"k\":{},\"rounds\":{},",
            "\"threads\":{},\"cores\":{},",
            "\"naive_secs\":{:.6},\"fast_secs\":{:.6},\"speedup\":{:.3},",
            "\"assign_secs\":{:.6},\"refit_secs\":{:.6},\"other_secs\":{:.6},",
            "\"init_secs\":{:.6},",
            "\"naive_assign_secs\":{:.6},\"naive_refit_secs\":{:.6},",
            "\"naive_other_secs\":{:.6},\"naive_init_secs\":{:.6},",
            "\"deadline_fast_secs\":{:.6},",
            "\"deadline_overhead\":{:.4},\"bit_identical\":{},\"iterations\":{}}}\n"
        ),
        n,
        d,
        k,
        rounds,
        threads,
        cores,
        naive_secs,
        fast_secs,
        speedup,
        fast_phases.assign_secs,
        fast_phases.refit_secs,
        fast_phases.other_secs,
        fast_phases.init_secs,
        naive_phases.assign_secs,
        naive_phases.refit_secs,
        naive_phases.other_secs,
        naive_phases.init_secs,
        deadline_secs,
        deadline_overhead,
        bit_identical,
        fast_result.iterations()
    );
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
    {
        Ok(mut f) => {
            use std::io::Write;
            let _ = f.write_all(record.as_bytes());
            eprintln!("hotloop: appended record to {out_path}");
        }
        Err(e) => eprintln!("hotloop: could not write {out_path}: {e}"),
    }
}
