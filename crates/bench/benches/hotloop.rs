//! The SSPC hot-loop A/B/C benchmark: the delta-driven incremental fast
//! path (`Sspc::run`, PR 2) against the batch-refit fast path of PR 1
//! (`incremental = false`) and the pre-columnar serial reference
//! (`Sspc::run_naive`), on the issue's target workload — a 5000 × 1000
//! synthetic gene-expression-shaped matrix at k = 10.
//!
//! All three paths produce **bit-identical** `SspcResult`s (asserted here
//! on every run); only memory layout, parallelism, allocation, and refit
//! strategy differ. The measured comparison is appended to
//! `BENCH_hotloop.json` in the workspace root so the perf trajectory is
//! tracked from PR 1 onward.
//!
//! Environment knobs:
//!
//! * `HOTLOOP_N` / `HOTLOOP_D` / `HOTLOOP_K` — workload shape (default
//!   5000 / 1000 / 10);
//! * `HOTLOOP_STALL` / `HOTLOOP_ITERS` — termination controls (default
//!   3 / 8; raise both to lengthen the stabilized, delta-dominated phase);
//! * `HOTLOOP_OUTLIERS` — outlier fraction of the generated data (percent,
//!   default 0). Outliers keep boundary objects oscillating between the
//!   outlier list and their nearest cluster, which is what makes late
//!   iterations delta-dominated instead of frozen;
//! * `HOTLOOP_ROUNDS` — timed rounds per path (default 3; min of the
//!   rounds is reported);
//! * `HOTLOOP_SMOKE=1` — 600 × 120 at k = 4, one round, for CI smoke jobs;
//! * `SSPC_ASSIGN_PATH` — force the assignment kernel layout (`row` /
//!   `transposed`; default `auto` routes by shape). Recorded in the JSON
//!   line as `assign_path`, alongside the per-phase breakdown
//!   (`assign_secs` / `refit_secs` / `other_secs` per timed leg, plus
//!   `init_secs`, the initialization sub-span of `other_secs`);
//! * `BENCH_HOTLOOP_OUT` — output path for the JSON record.

use sspc::objective::{ClusterModel, FitScratch, IncrementalModel};
use sspc::{PhaseTimings, Sspc, SspcParams, SspcResult, Supervision, ThresholdScheme, Thresholds};
use sspc_common::{Dataset, ObjectId};
use std::time::Instant;

use sspc_datagen::{generate, GeneratorConfig};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One batch refit as the main loop performs it: columnar fit, dimension
/// selection, scoring, medians extracted for the representative step.
fn batch_refit(
    dataset: &Dataset,
    members: &[ObjectId],
    t_row: &[f64],
    scratch: &mut FitScratch,
    medians: &mut Vec<f64>,
) -> f64 {
    let model = ClusterModel::fit_with_scratch(dataset, members, scratch).unwrap();
    let dims = model.select_dims_row(t_row);
    medians.clear();
    medians.extend(dataset.dim_ids().map(|j| model.summary(j).median));
    model.cluster_score_row(&dims, t_row)
}

/// The stabilized-phase A/B: once SSPC stabilizes, an iteration moves only
/// a handful of objects per cluster, so the refit phase is delta-dominated.
/// This simulates that regime directly on the benchmark dataset — each
/// "iteration" swaps `delta` members in and out of a truth cluster and
/// re-derives dims/score/medians — comparing the batch refit (what PR 1
/// did every iteration) against the incremental engine's
/// `apply_delta` + order-statistics path (what PR 2 does). A separate
/// untimed verification pass then replays the same stream on both paths
/// and checks, **per iteration**, identical selected dims, bit-identical
/// medians for every dimension, and scores within the engine's drift
/// budget (the real loop re-canonicalizes on any decision inside that
/// budget, and always before recording).
///
/// Returns `(batch_secs, incr_secs, equivalent)`.
fn stabilized_phase_ab(
    dataset: &Dataset,
    members: &[ObjectId],
    spares: &[ObjectId],
    thresholds: &Thresholds,
    delta: usize,
    iters: usize,
) -> (f64, f64, bool) {
    let t_row = thresholds.row(members.len());
    let mut scratch = FitScratch::new();
    let mut medians = Vec::new();

    // The rotating membership stream both paths replay: swap `delta`
    // members against the spare pool each iteration.
    let mut streams: Vec<Vec<ObjectId>> = Vec::with_capacity(iters);
    let mut current = members.to_vec();
    for it in 0..iters {
        for s in 0..delta {
            let slot = (it * delta + s) * 7 % current.len();
            let spare = spares[(it * delta + s) % spares.len()];
            current[slot] = spare;
        }
        // Keep the multiset consistent: drop duplicates introduced by the
        // rotation (a spare can displace itself); dedup via sort on ids.
        let mut ids: Vec<usize> = current.iter().map(|o| o.index()).collect();
        ids.sort_unstable();
        ids.dedup();
        current = ids.into_iter().map(ObjectId).collect();
        streams.push(current.clone());
    }

    // The per-iteration delta against the previous membership, as the
    // engine's assignment scan would produce it.
    let diff = |prev: &[ObjectId], next: &[ObjectId]| -> (Vec<ObjectId>, Vec<ObjectId>) {
        let prev_set: std::collections::HashSet<usize> = prev.iter().map(|o| o.index()).collect();
        let next_set: std::collections::HashSet<usize> = next.iter().map(|o| o.index()).collect();
        let removed = prev
            .iter()
            .copied()
            .filter(|o| !next_set.contains(&o.index()))
            .collect();
        let added = next
            .iter()
            .copied()
            .filter(|o| !prev_set.contains(&o.index()))
            .collect();
        (removed, added)
    };

    // Batch path: full refit per iteration.
    let start = Instant::now();
    for m in &streams {
        let score = batch_refit(dataset, m, &t_row, &mut scratch, &mut medians);
        std::hint::black_box(score);
    }
    let batch_secs = start.elapsed().as_secs_f64();

    // Incremental path: one rebuild, then delta updates (the rebuild is
    // included in the measured time — the engine pays it too).
    let start = Instant::now();
    let mut inc = IncrementalModel::new(dataset.n_dims());
    let mut prev: Vec<ObjectId> = members.to_vec();
    inc.rebuild_with_scratch(dataset, &prev, &mut scratch)
        .unwrap();
    let mut dims = Vec::new();
    for m in &streams {
        let (removed, added) = diff(&prev, m);
        inc.apply_delta(dataset, &removed, &added);
        let out = inc
            .select_and_score_row(&t_row, &mut dims, &mut medians)
            .expect("margins stay clear of thresholds on this data");
        std::hint::black_box(out.score);
        prev = m.clone();
    }
    let incr_secs = start.elapsed().as_secs_f64();

    // Untimed verification replay: per iteration, the selected dims must
    // be identical, every dimension's median bit-identical (the
    // order-statistics contract), and the scores within the drift budget.
    let mut equivalent = true;
    let mut inc = IncrementalModel::new(dataset.n_dims());
    let mut prev: Vec<ObjectId> = members.to_vec();
    inc.rebuild_with_scratch(dataset, &prev, &mut scratch)
        .unwrap();
    let mut batch_medians = Vec::new();
    for m in &streams {
        let (removed, added) = diff(&prev, m);
        inc.apply_delta(dataset, &removed, &added);
        let out = inc
            .select_and_score_row(&t_row, &mut dims, &mut medians)
            .expect("margins stay clear of thresholds on this data");
        let batch_model = ClusterModel::fit_with_scratch(dataset, m, &mut scratch).unwrap();
        let batch_dims = batch_model.select_dims_row(&t_row);
        let batch_score = batch_model.cluster_score_row(&batch_dims, &t_row);
        batch_medians.clear();
        batch_medians.extend(dataset.dim_ids().map(|j| batch_model.summary(j).median));
        equivalent &= dims == batch_dims
            && medians
                .iter()
                .zip(&batch_medians)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && (out.score - batch_score).abs() <= 1e-6 * (1.0 + batch_score.abs());
        prev = m.clone();
    }
    (batch_secs, incr_secs, equivalent)
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
    let incr = Sspc::new(params.clone()).unwrap();
    let batch = Sspc::new(params.with_incremental(false)).unwrap();
    let seed = 7u64;

    // Each timed leg reports its per-phase breakdown (assign / refit /
    // other) alongside the wall clock — the breakdown of the best (min
    // total) round is what lands in the record, so assignment-phase wins
    // are attributable instead of inferred from whole-run deltas. The
    // timing collector costs two `Instant` reads per outer iteration.
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
        batch
            .run_naive_with_timings(&data.dataset, &supervision, seed)
            .unwrap()
    });
    let (batch_secs, batch_result, batch_phases) = time_path("batch  ", &|| {
        batch
            .run_with_timings(&data.dataset, &supervision, seed)
            .unwrap()
    });
    let (incr_secs, incr_result, incr_phases) = time_path("incr   ", &|| {
        incr.run_with_timings(&data.dataset, &supervision, seed)
            .unwrap()
    });

    // Cancellation-overhead A/B: the cooperative deadline check sits in
    // the outer iteration loop. The `incr` timing above runs it unarmed
    // (a thread-local read); this run installs a far-future deadline so
    // every check also pays its `Instant::now()`. Both must be noise.
    let far_deadline = Instant::now() + std::time::Duration::from_secs(86_400);
    let (deadline_secs, deadline_result, _) = time_path("incr+dl", &|| {
        let _deadline = sspc_common::cancel::deadline_guard(far_deadline);
        incr.run_with_timings(&data.dataset, &supervision, seed)
            .unwrap()
    });

    let bit_identical = naive_result == batch_result
        && naive_result == incr_result
        && naive_result == deadline_result
        && naive_result.objective().to_bits() == batch_result.objective().to_bits()
        && naive_result.objective().to_bits() == incr_result.objective().to_bits()
        && naive_result.objective().to_bits() == deadline_result.objective().to_bits();
    assert!(
        bit_identical,
        "hotloop: fast paths diverged from the reference path"
    );

    let speedup = naive_secs / incr_secs;
    let speedup_incr = batch_secs / incr_secs;
    let deadline_overhead = deadline_secs / incr_secs - 1.0;
    println!(
        "hotloop n={n} d={d} k={k}: naive {naive_secs:.3} s, batch {batch_secs:.3} s, \
         incr {incr_secs:.3} s, speedup {speedup:.2}x (incr vs batch {speedup_incr:.2}x), \
         armed-deadline overhead {:+.1}%, bit-identical results",
        deadline_overhead * 100.0
    );

    // The stabilized-regime A/B on the same workload: delta-dominated
    // iterations over a truth cluster, batch refit vs incremental engine.
    // The default delta (members/128, ~4 for the target workload) matches
    // the per-cluster deltas actually observed in stabilized iterations of
    // the run above (mostly 1-3 objects).
    let thresholds = Thresholds::new(ThresholdScheme::MFraction(0.5), &data.dataset).unwrap();
    let members = data.truth.members_of(sspc_common::ClusterId(0));
    let spares = data.truth.members_of(sspc_common::ClusterId(1.min(k - 1)));
    let stab_delta = env_usize("HOTLOOP_STAB_DELTA", (members.len() / 128).max(1));
    let stab_iters = env_usize("HOTLOOP_STAB_ITERS", if smoke { 10 } else { 30 });
    let mut stab_batch = f64::INFINITY;
    let mut stab_incr = f64::INFINITY;
    let mut stab_identical = true;
    for _ in 0..rounds.max(1) {
        let (b, i, ok) = stabilized_phase_ab(
            &data.dataset,
            &members,
            &spares,
            &thresholds,
            stab_delta,
            stab_iters,
        );
        stab_batch = stab_batch.min(b);
        stab_incr = stab_incr.min(i);
        stab_identical &= ok;
    }
    assert!(
        stab_identical,
        "hotloop: stabilized-phase incremental refits diverged from batch"
    );
    let stab_speedup = stab_batch / stab_incr;
    println!(
        "hotloop stabilized phase (cluster of {}, delta {stab_delta}, {stab_iters} iters): \
         batch {stab_batch:.4} s, incr {stab_incr:.4} s, speedup {stab_speedup:.2}x",
        members.len()
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
    // The assignment-path routing in force (the SSPC_ASSIGN_PATH A/B
    // knob), normalized so the trajectory records parse uniformly.
    let assign_path = match std::env::var("SSPC_ASSIGN_PATH")
        .ok()
        .as_deref()
        .map(str::trim)
    {
        Some("row") => "row",
        Some("transposed") => "transposed",
        _ => "auto",
    };
    let record = format!(
        concat!(
            "{{\"bench\":\"hotloop\",\"n\":{},\"d\":{},\"k\":{},\"rounds\":{},",
            "\"threads\":{},\"cores\":{},\"assign_path\":\"{}\",",
            "\"naive_secs\":{:.6},\"batch_secs\":{:.6},",
            "\"incr_secs\":{:.6},\"fast_secs\":{:.6},\"speedup\":{:.3},",
            "\"speedup_incr_vs_batch\":{:.3},",
            "\"assign_secs\":{:.6},\"refit_secs\":{:.6},\"other_secs\":{:.6},",
            "\"init_secs\":{:.6},",
            "\"naive_assign_secs\":{:.6},\"naive_refit_secs\":{:.6},",
            "\"naive_other_secs\":{:.6},\"naive_init_secs\":{:.6},",
            "\"batch_assign_secs\":{:.6},",
            "\"batch_refit_secs\":{:.6},\"batch_other_secs\":{:.6},",
            "\"batch_init_secs\":{:.6},",
            "\"stabilized_batch_secs\":{:.6},",
            "\"stabilized_incr_secs\":{:.6},\"stabilized_speedup\":{:.3},",
            "\"stabilized_delta\":{},\"deadline_incr_secs\":{:.6},",
            "\"deadline_overhead\":{:.4},\"bit_identical\":{},\"iterations\":{}}}\n"
        ),
        n,
        d,
        k,
        rounds,
        threads,
        cores,
        assign_path,
        naive_secs,
        batch_secs,
        incr_secs,
        incr_secs,
        speedup,
        speedup_incr,
        incr_phases.assign_secs,
        incr_phases.refit_secs,
        incr_phases.other_secs,
        incr_phases.init_secs,
        naive_phases.assign_secs,
        naive_phases.refit_secs,
        naive_phases.other_secs,
        naive_phases.init_secs,
        batch_phases.assign_secs,
        batch_phases.refit_secs,
        batch_phases.other_secs,
        batch_phases.init_secs,
        stab_batch,
        stab_incr,
        stab_speedup,
        stab_delta,
        deadline_secs,
        deadline_overhead,
        bit_identical && stab_identical,
        incr_result.iterations()
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
