//! The three workloads. Each sets up its inputs several times (the
//! median is `setup_s`), warms up, measures for the requested seconds,
//! and only then checks every result against its oracle, so no check
//! sits inside a timed number.
//!
//! * `fig8_unsupervised` — Sec. 5.5 (Fig. 8) scalability points with no
//!   input. Seed-group initialization dominates the run.
//! * `fig5_supervised` — Sec. 5.3 (Fig. 5/6) protocol: labeled objects
//!   and dimensions, a fresh input set per repetition. Private seed
//!   groups make initialization cheap, so assignment and refit dominate.
//! * `service_closed_loop` — the batch service: router, two one-worker
//!   shards, disk stores and spool, two closed-loop clients, a 90/10 mix
//!   of small jobs and Fig. 5/6 gene jobs.

use crate::inputs::{Inputs, Layout, Shape};
use crate::service::{
    closed_loop, execute_in_process, store_ms, Executed, Fleet, LoopOutcome, Served,
};
use crate::stats::{beyond, median, percentile, sspc_digest, Tally};
use crate::trace::{Span, Tracer};
use sspc::{PhaseTimings, SspcParams};
use sspc_common::json::Value;
use sspc_common::rng::derive_seed;
use sspc_common::Result;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Everything a workload reports.
pub struct Outcome {
    /// Operation accounting, correctness checks included.
    pub tally: Tally,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Shapes, mix and sample counts for the run record.
    pub record: Value,
}

/// Options shared by every workload.
pub struct RunOptions {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub tracer: Tracer,
    /// Scratch directory for stores and spools.
    pub scratch: PathBuf,
    /// Logical CPUs.
    pub nproc: usize,
}

/// The Fig. 8 points: 8b at n = 1000, d = 1000 (l = 10 % of d) and 8a at
/// n = 4000, d = 100 (l = 10), k = 5, m = 0.5.
const FIG8: [Shape; 2] = [
    Shape {
        name: "fig8b_1000x1000",
        n: 1000,
        d: 1000,
        k: 5,
        l: 100,
        supervised: false,
    },
    Shape {
        name: "fig8a_4000x100",
        n: 4000,
        d: 100,
        k: 5,
        l: 10,
        supervised: false,
    },
];

/// The Fig. 5/6 gene-like 150 × 3000 (l = 30, 1 % of d) and a 1000 × 1000
/// point, both with labeled objects and dimensions.
const FIG5: [Shape; 2] = [
    Shape {
        name: "fig5_150x3000",
        n: 150,
        d: 3000,
        k: 5,
        l: 30,
        supervised: true,
    },
    Shape {
        name: "fig5_1000x1000",
        n: 1000,
        d: 1000,
        k: 5,
        l: 100,
        supervised: true,
    },
];

/// The service mix: two small shapes and the Fig. 5/6 gene shape with
/// supervision.
const SERVICE: [Shape; 3] = [
    Shape {
        name: "small_200x20",
        n: 200,
        d: 20,
        k: 3,
        l: 4,
        supervised: false,
    },
    Shape {
        name: "small_300x50",
        n: 300,
        d: 50,
        k: 4,
        l: 8,
        supervised: false,
    },
    FIG5[0],
];

/// Share of service jobs per [`SERVICE`] shape.
const SERVICE_MIX: [f64; 3] = [0.45, 0.45, 0.10];

/// Inputs per shape. Several datasets per shape average out how much a
/// single generated dataset happens to cost, so runs with different
/// workload seeds agree; each case is checked once against `run_naive`.
const FIG8_LAYOUT: Layout = Layout {
    datasets: 3,
    cases_per_dataset: 1,
};
/// Fig. 5/6: a fresh input set per case.
const FIG5_LAYOUT: Layout = Layout {
    datasets: 4,
    cases_per_dataset: 2,
};
const SERVICE_LAYOUT: Layout = Layout {
    datasets: 4,
    cases_per_dataset: 2,
};

/// A core workload: its shapes, its inputs, and its tail percentile.
pub struct CoreWorkload {
    shapes: &'static [Shape],
    layout: Layout,
    /// `op_tail_ms` percentile in permille: the highest of p95, p90, p75
    /// and p50 that keeps ten passes beyond it at the pass counts this
    /// workload reaches in a 30-second run, on fast and slow stretches of
    /// a shared 2-core box alike. Fixed, so that a change which makes
    /// passes faster does not also move the percentile being reported.
    tail_permille: u32,
}

/// `fig8_unsupervised`: 16–45 passes per run, so only the median keeps
/// ten passes beyond it.
pub const FIG8_WORKLOAD: CoreWorkload = CoreWorkload {
    shapes: &FIG8,
    layout: FIG8_LAYOUT,
    tail_permille: 500,
};

/// `fig5_supervised`: 45–100 passes per run.
pub const FIG5_WORKLOAD: CoreWorkload = CoreWorkload {
    shapes: &FIG5,
    layout: FIG5_LAYOUT,
    tail_permille: 750,
};

/// `service_closed_loop`: thousands of jobs per run.
const SERVICE_TAIL_PERMILLE: u32 = 950;

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Runs `SETUPS` set-ups and keeps the last; returns it with the median
/// set-up seconds and median datagen seconds.
fn repeated_setup<T>(
    mut once: impl FnMut(usize) -> Result<(T, f64)>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64, f64)> {
    let (mut setup, mut generate) = (Vec::new(), Vec::new());
    let mut kept = None;
    for i in 0..SETUPS {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let started = Instant::now();
        let (value, generate_secs) = once(i)?;
        setup.push(started.elapsed().as_secs_f64());
        generate.push(generate_secs);
        kept = Some(value);
    }
    Ok((
        kept.expect("at least one set-up"),
        median(&setup),
        median(&generate),
    ))
}

/// The end-to-end metrics every workload reports, from per-operation
/// latencies in seconds.
fn end_to_end(
    setup_s: f64,
    latencies: &[f64],
    tail: u32,
    wall: f64,
    aris: &[f64],
    record: &mut Value,
) -> Vec<(&'static str, f64, &'static str)> {
    *record = std::mem::replace(record, Value::Null)
        .with("samples", latencies.len())
        .with("tail_permille", u64::from(tail))
        .with("tail_beyond", beyond(latencies.len(), tail));
    vec![
        ("setup_s", setup_s, "s"),
        ("ops_per_s", latencies.len() as f64 / wall, "1/s"),
        ("op_p50_ms", percentile(latencies, 500) * 1e3, "ms"),
        ("op_tail_ms", percentile(latencies, tail) * 1e3, "ms"),
        ("ari_median", median(aris), "ari"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Weighted sum over shapes of the median of each shape's per-case
/// values: the expected cost per operation when an operation runs shape
/// `s` `weights[s]` times.
fn per_op(inputs: &Inputs, weights: &[f64], per_case: &[f64]) -> f64 {
    weights
        .iter()
        .enumerate()
        .map(|(s, w)| {
            let of_shape = &per_case[s * inputs.per_shape..(s + 1) * inputs.per_shape];
            w * median(of_shape)
        })
        .sum()
}

fn shapes_value(inputs: &Inputs, weights: &[f64]) -> Value {
    Value::Arr(
        inputs
            .shapes
            .iter()
            .zip(weights)
            .map(|(s, w)| s.to_value().with("weight", *w))
            .collect(),
    )
}

/// One oracle pass over every case: `run_naive`, checked against the
/// recorded digests of the timed runs.
struct Oracle {
    aris: Vec<f64>,
    mismatched: u64,
    /// Iterations summed over the cases; deterministic in the seed.
    iterations: usize,
    /// `run_naive` wall per case, seconds.
    naive: Vec<f64>,
}

fn check_cases(inputs: &Inputs, seen: &[Vec<u64>]) -> Result<Oracle> {
    let mut oracle = Oracle {
        aris: Vec::new(),
        mismatched: 0,
        iterations: 0,
        naive: Vec::new(),
    };
    for (c, case) in inputs.cases.iter().enumerate() {
        let started = Instant::now();
        let naive = inputs.run_with(case, &inputs.sspc(case), |a, d, s, seed| {
            a.run_naive(d, s, seed)
        })?;
        oracle.naive.push(started.elapsed().as_secs_f64());
        let expected = sspc_digest(&naive);
        oracle.mismatched += seen[c].iter().filter(|&&d| d != expected).count() as u64;
        oracle.aris.push(inputs.ari(case, &naive)?);
        oracle.iterations += naive.iterations();
    }
    Ok(oracle)
}

/// The SSPC clusterer stopped after its first iteration: the `other`
/// seconds of such a run are initialization plus one step 5/6.
fn first_iteration_only(inputs: &Inputs, case: &crate::inputs::Case) -> Result<sspc::Sspc> {
    sspc::Sspc::new(SspcParams::new(inputs.shapes[case.shape].k).with_termination(1, 1))
}

/// Per case: full-run wall and phases (`run_with_timings`) and the
/// initialization seconds of a one-iteration run.
fn probe_cases(inputs: &Inputs) -> Result<(Vec<f64>, Vec<PhaseTimings>, Vec<f64>)> {
    let (mut wall, mut timings, mut init) = (Vec::new(), Vec::new(), Vec::new());
    for case in &inputs.cases {
        let started = Instant::now();
        let (_, t) = inputs.run_with(case, &inputs.sspc(case), |a, d, s, seed| {
            a.run_with_timings(d, s, seed)
        })?;
        wall.push(started.elapsed().as_secs_f64());
        timings.push(t);
        let (_, first) = inputs.run_with(
            case,
            &first_iteration_only(inputs, case)?,
            |a, d, s, seed| a.run_with_timings(d, s, seed),
        )?;
        init.push(first.other_secs);
    }
    Ok((wall, timings, init))
}

/// The job and store layers on a workload's own bodies: each case
/// executed in-process (also the oracle for wire results) and written
/// through a scratch disk store.
struct ServiceLayers {
    executed: Vec<Executed>,
    store_insert_ms: f64,
    store_complete_ms: f64,
}

fn execute_cases(inputs: &Inputs) -> Result<Vec<Executed>> {
    inputs
        .cases
        .iter()
        .map(|c| execute_in_process(&c.body))
        .collect()
}

fn service_layers(inputs: &Inputs, scratch: &Path) -> Result<ServiceLayers> {
    let executed = execute_cases(inputs)?;
    let jobs: Vec<(&Value, &Value)> = inputs
        .cases
        .iter()
        .zip(&executed)
        .map(|(c, e)| (&c.body, &e.result))
        .collect();
    let (store_insert_ms, store_complete_ms) = store_ms(&scratch.join("store-probe"), &jobs)?;
    Ok(ServiceLayers {
        executed,
        store_insert_ms,
        store_complete_ms,
    })
}

/// Counts served jobs whose wire result differs from the in-process one.
fn wire_mismatches(outcome: &LoopOutcome, executed: &[Executed]) -> u64 {
    outcome
        .served
        .iter()
        .filter(|s| s.digest != executed[s.case].digest)
        .count() as u64
}

/// Layer metrics from the traced jobs of a closed loop, plus the tracing
/// overhead when the loop also ran plain jobs.
fn loop_layers(
    fleet: &Fleet,
    outcome: &LoopOutcome,
) -> Result<Vec<(&'static str, f64, &'static str)>> {
    let (served, plain): (Vec<&Served>, Vec<&Served>) =
        outcome.served.iter().partition(|s| s.traced);
    let col = |f: &dyn Fn(&Served) -> f64| served.iter().map(|s| f(s)).collect::<Vec<_>>();
    // The most recent jobs, which no shard has evicted yet.
    let ids: Vec<u64> = served.iter().rev().take(64).map(|s| s.id).collect();
    let (wait_p50, wait_p99) = fleet.queue_wait_ms()?;
    Ok(vec![
        ("router.hop_ms", fleet.hop_ms(&ids)?, "ms"),
        ("client.submit_ms", median(&col(&|s| s.submit * 1e3)), "ms"),
        (
            "client.polls_per_job",
            col(&|s| f64::from(s.polls)).iter().sum::<f64>() / served.len().max(1) as f64,
            "count",
        ),
        ("server.exec_ms", median(&col(&|s| s.exec * 1e3)), "ms"),
        ("server.queue_wait_ms_p50", wait_p50, "ms"),
        ("server.queue_wait_ms_p99", wait_p99, "ms"),
        (
            "service.non_exec_ms",
            median(&col(&|s| (s.latency - s.exec) * 1e3)),
            "ms",
        ),
    ]
    .into_iter()
    .chain((!plain.is_empty()).then(|| {
        let p50 = |jobs: &[&Served]| median(&jobs.iter().map(|s| s.latency).collect::<Vec<_>>());
        ("trace.overhead_ratio", p50(&served) / p50(&plain), "ratio")
    }))
    .collect())
}

fn job_layer_metrics(
    inputs: &Inputs,
    weights: &[f64],
    layers: &ServiceLayers,
) -> Vec<(&'static str, f64, &'static str)> {
    let total: f64 = weights.iter().sum();
    let per_job = |f: &dyn Fn(&Executed) -> f64| {
        let values: Vec<f64> = layers.executed.iter().map(f).collect();
        per_op(inputs, weights, &values) / total
    };
    vec![
        ("job.parse_us", per_job(&|e| e.parse_us), "us"),
        ("job.execute_ms", per_job(&|e| e.execute_ms), "ms"),
        ("job.render_us", per_job(&|e| e.render_us), "us"),
        ("store.insert_ms", layers.store_insert_ms, "ms"),
        ("store.complete_ms", layers.store_complete_ms, "ms"),
    ]
}

/// What a pass of a core workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// `Sspc::run`: what untraced runs measure.
    Plain,
    /// `Sspc::run_with_timings`: the assign/refit/other split.
    Timed,
    /// A one-iteration `run_with_timings`: initialization.
    Init,
    /// `Sspc::run_naive`: the oracle path.
    Naive,
}

const PASS_KINDS: [Pass; 4] = [Pass::Plain, Pass::Timed, Pass::Init, Pass::Naive];

impl Pass {
    fn span_name(self) -> &'static str {
        match self {
            Pass::Plain => "core.run",
            Pass::Timed => "core.run_with_timings",
            Pass::Init => "core.first_iteration",
            Pass::Naive => "core.run_naive",
        }
    }
}

/// A core workload. One operation is a pass: one seeded `Sspc::run` of
/// every case, the benchmark's version of the paper's "repeated runs".
/// Passes do identical work, so their times differ only by noise.
pub fn core(workload: &CoreWorkload, opts: &RunOptions) -> Result<Outcome> {
    let (shapes, layout) = (workload.shapes, workload.layout);
    std::env::set_var("SSPC_NUM_THREADS", opts.nproc.to_string());
    let threads = sspc_common::parallel::num_threads();
    let (inputs, setup_s, generate_s) = repeated_setup(
        |_| {
            let inputs = Inputs::build(shapes, layout, opts.seed)?;
            let generate_secs = inputs.generate_secs;
            Ok((inputs, generate_secs))
        },
        drop,
    )?;
    let tracer = &opts.tracer;

    // Warm-up: one untimed run of the first case of each shape.
    for s in 0..shapes.len() {
        let case = &inputs.cases[s * inputs.per_shape];
        inputs.run_with(case, &inputs.sspc(case), |a, d, s, seed| a.run(d, s, seed))?;
    }

    let mut tally = Tally::default();
    let mut seen: Vec<Vec<u64>> = vec![Vec::new(); inputs.cases.len()];
    let mut took: [Vec<f64>; 4] = Default::default();
    let mut phases: Vec<PhaseTimings> = Vec::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(opts.seconds);
    let mut pass = 0;
    while Instant::now() < deadline {
        // A traced run cycles through plain passes, traced passes (phase
        // timings), one-iteration passes (initialization) and `run_naive`
        // passes, so every per-layer figure is a median over passes taken
        // in the same stretch of time as the plain passes it is set
        // against.
        let kind = if tracer.on() {
            PASS_KINDS[pass % 4]
        } else {
            Pass::Plain
        };
        let root = tracer.id();
        let mut pass_secs = 0.0;
        let mut pass_phases = PhaseTimings::default();
        for (c, case) in inputs.cases.iter().enumerate() {
            let sspc = match kind {
                Pass::Init => first_iteration_only(&inputs, case)?,
                _ => inputs.sspc(case),
            };
            tally.attempted += 1;
            let t0 = Instant::now();
            let result = inputs.run_with(case, &sspc, |a, d, s, seed| match kind {
                Pass::Plain => a.run(d, s, seed).map(|r| (r, None)),
                Pass::Naive => a.run_naive(d, s, seed).map(|r| (r, None)),
                Pass::Timed | Pass::Init => {
                    a.run_with_timings(d, s, seed).map(|(r, t)| (r, Some(t)))
                }
            });
            let t1 = Instant::now();
            let Ok((result, timings)) = result else {
                tally.failed += 1;
                continue;
            };
            pass_secs += match (kind, timings) {
                (Pass::Init, Some(t)) => t.other_secs,
                _ => (t1 - t0).as_secs_f64(),
            };
            if kind != Pass::Init {
                seen[c].push(sspc_digest(&result));
            }
            if let Some(t) = timings {
                pass_phases.assign_secs += t.assign_secs;
                pass_phases.refit_secs += t.refit_secs;
                pass_phases.other_secs += t.other_secs;
            }
            if kind != Pass::Plain {
                let mut fields = vec![
                    ("case", c as f64),
                    ("iterations", result.iterations() as f64),
                ];
                if let Some(t) = timings {
                    fields.extend([
                        ("assign_s", t.assign_secs),
                        ("refit_s", t.refit_secs),
                        ("other_s", t.other_secs),
                    ]);
                }
                tracer.record(Span {
                    name: kind.span_name(),
                    trace: root,
                    id: tracer.id(),
                    parent: Some(root),
                    start: t0,
                    end: t1,
                    fields,
                });
            }
        }
        took[kind as usize].push(pass_secs);
        if kind == Pass::Timed {
            phases.push(pass_phases);
        }
        pass += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    let [plain, timed, init, naive] = took;

    let oracle = check_cases(&inputs, &seen)?;
    tally.mismatched += oracle.mismatched;
    let weights = vec![1.0; shapes.len()];
    let mut record = Value::object()
        .with("shapes", shapes_value(&inputs, &weights))
        .with("datasets_per_shape", layout.datasets)
        .with("cases_per_dataset", layout.cases_per_dataset)
        .with("op", "pass: one seeded Sspc::run of every case")
        .with("threads", threads);
    if !tracer.on() {
        let metrics = end_to_end(
            setup_s,
            &plain,
            workload.tail_permille,
            wall,
            &oracle.aris,
            &mut record,
        );
        return Ok(Outcome {
            tally,
            metrics,
            record,
        });
    }
    let phase = |f: fn(&PhaseTimings) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    let mut metrics = vec![
        ("datagen.generate_s", generate_s, "s"),
        ("core.wall_s", median(&timed), "s"),
        ("core.init_s", median(&init), "s"),
        ("core.assign_s", phase(|t| t.assign_secs), "s"),
        ("core.refit_s", phase(|t| t.refit_secs), "s"),
        ("core.other_s", phase(|t| t.other_secs), "s"),
        ("core.iterations", oracle.iterations as f64, "count"),
        (
            "core.fast_over_naive",
            median(&naive) / median(&plain),
            "ratio",
        ),
    ];
    // The job, store and service layers on this workload's own runs,
    // executed and served at one thread per job, as the service runs them.
    std::env::set_var("SSPC_NUM_THREADS", "1");
    let layers = service_layers(&inputs, &opts.scratch)?;
    metrics.extend(job_layer_metrics(&inputs, &weights, &layers));
    let fleet = Fleet::start(&opts.scratch.join("fleet"))?;
    let bodies: Vec<&Value> = inputs.cases.iter().map(|c| &c.body).collect();
    let n = bodies.len();
    let outcome = closed_loop(
        &fleet.addr(),
        &bodies,
        &|i| (i < n).then_some(i),
        None,
        opts.nproc,
        &|_| true,
        tracer,
    );
    tally.absorb(outcome.tally);
    tally.mismatched += wire_mismatches(&outcome, &layers.executed);
    let served = loop_layers(&fleet, &outcome);
    fleet.stop();
    metrics.extend(served?);
    metrics.push((
        "trace.overhead_ratio",
        median(&timed) / median(&plain),
        "ratio",
    ));
    record = record.with(
        "passes_per_kind",
        Value::Arr(
            [&plain, &timed, &init, &naive]
                .iter()
                .map(|v| Value::from(v.len()))
                .collect(),
        ),
    );
    Ok(Outcome {
        tally,
        metrics,
        record,
    })
}

/// Which case the `i`-th job of the service schedule runs: a shape drawn
/// by [`SERVICE_MIX`], then one of its cases, both from the workload seed.
fn service_schedule(seed: u64, i: usize) -> usize {
    let h = derive_seed(seed, i as u64);
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    let mut acc = 0.0;
    let mut shape = SERVICE_MIX.len() - 1;
    for (s, w) in SERVICE_MIX.iter().enumerate() {
        acc += w;
        if u < acc {
            shape = s;
            break;
        }
    }
    let per_shape = SERVICE_LAYOUT.per_shape();
    shape * per_shape + (h as usize & 0xff) % per_shape
}

/// The closed-loop service workload.
pub fn service(opts: &RunOptions) -> Result<Outcome> {
    std::env::set_var("SSPC_NUM_THREADS", "1");
    let fleet_dir = |i: usize| opts.scratch.join(format!("fleet-{i}"));
    let ((inputs, fleet), setup_s, generate_s) = repeated_setup(
        |i| {
            let inputs = Inputs::build(&SERVICE, SERVICE_LAYOUT, opts.seed)?;
            let fleet = Fleet::start(&fleet_dir(i))?;
            let generate_secs = inputs.generate_secs;
            Ok(((inputs, fleet), generate_secs))
        },
        |(_, fleet): (Inputs, Fleet)| fleet.stop(),
    )?;
    let tracer = &opts.tracer;
    let bodies: Vec<&Value> = inputs.cases.iter().map(|c| &c.body).collect();
    let addr = fleet.addr();

    // Warm-up: one job of each shape, untimed.
    let warm: Vec<usize> = (0..SERVICE.len()).map(|s| s * inputs.per_shape).collect();
    let warm_up = closed_loop(
        &addr,
        &bodies,
        &|i| warm.get(i).copied(),
        None,
        1,
        &|_| false,
        tracer,
    );

    // Traced runs alternate plain and traced jobs under the same load, so
    // the tracing overhead is the ratio of their median latencies.
    let seed = opts.seed;
    let outcome = closed_loop(
        &addr,
        &bodies,
        &|i| Some(service_schedule(seed, i)),
        Some(Instant::now() + Duration::from_secs_f64(opts.seconds)),
        opts.nproc,
        &|i| tracer.on() && i % 2 == 1,
        tracer,
    );
    let mut tally = warm_up.tally;
    let mut record = Value::object()
        .with("shapes", shapes_value(&inputs, &SERVICE_MIX))
        .with("datasets_per_shape", SERVICE_LAYOUT.datasets)
        .with("cases_per_dataset", SERVICE_LAYOUT.cases_per_dataset)
        .with(
            "op",
            "job: submit then Client::wait_for until done, closed loop",
        )
        .with("clients", opts.nproc)
        .with("shards", u64::from(crate::service::SHARDS))
        .with("workers_per_shard", 1u64)
        .with("max_jobs_per_shard", crate::service::MAX_JOBS)
        .with("threads", sspc_common::parallel::num_threads())
        .with(
            "poll_base_ms",
            crate::service::POLL_BASE.as_secs_f64() * 1e3,
        );
    tally.absorb(outcome.tally);
    let metrics = if tracer.on() {
        let layers = service_layers(&inputs, &opts.scratch)?;
        tally.mismatched += wire_mismatches(&outcome, &layers.executed);
        let served_layers = loop_layers(&fleet, &outcome);
        fleet.stop();
        // The core layers of the job mix, in-process at one thread: per
        // job, weighted by the mix.
        let oracle = check_cases(&inputs, &vec![Vec::new(); inputs.cases.len()])?;
        let (wall, timings, init) = probe_cases(&inputs)?;
        let w = &SERVICE_MIX;
        let phase = |f: fn(&PhaseTimings) -> f64| {
            per_op(&inputs, w, &timings.iter().map(f).collect::<Vec<_>>())
        };
        let mut metrics = vec![
            ("datagen.generate_s", generate_s, "s"),
            ("core.wall_s", per_op(&inputs, w, &wall), "s"),
            ("core.init_s", per_op(&inputs, w, &init), "s"),
            ("core.assign_s", phase(|t| t.assign_secs), "s"),
            ("core.refit_s", phase(|t| t.refit_secs), "s"),
            ("core.other_s", phase(|t| t.other_secs), "s"),
            ("core.iterations", oracle.iterations as f64, "count"),
            (
                "core.fast_over_naive",
                per_op(&inputs, w, &oracle.naive) / per_op(&inputs, w, &wall),
                "ratio",
            ),
        ];
        metrics.extend(job_layer_metrics(&inputs, w, &layers));
        metrics.extend(served_layers?);
        record = record.with(
            "traced_jobs",
            outcome.served.iter().filter(|s| s.traced).count(),
        );
        metrics
    } else {
        fleet.stop();
        let executed = execute_cases(&inputs)?;
        tally.mismatched += wire_mismatches(&outcome, &executed);
        let latencies: Vec<f64> = outcome.served.iter().map(|s| s.latency).collect();
        let aris: Vec<f64> = executed
            .iter()
            .filter_map(|e| e.result.get("evaluation")?.get("ari")?.as_f64())
            .collect();
        end_to_end(
            setup_s,
            &latencies,
            SERVICE_TAIL_PERMILLE,
            outcome.wall,
            &aris,
            &mut record,
        )
    };
    Ok(Outcome {
        tally,
        metrics,
        record,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sspc_server::{Server, ServerConfig};

    fn small_job(dataset: Value) -> Value {
        Value::object()
            .with("type", "cluster")
            .with("algorithm", "sspc")
            .with("k", 2u64)
            .with("dataset", dataset)
            .with("runs", 1u64)
    }

    #[test]
    fn refused_failed_and_mismatched_jobs_all_count() {
        let server = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        let ok = small_job(
            Value::object().with(
                "generate",
                Value::object()
                    .with("n", 60u64)
                    .with("d", 8u64)
                    .with("dims", 3u64)
                    .with("seed", 4u64),
            ),
        );
        // k = 0 fails validation: the server answers 400.
        let refused = ok.clone().with("k", 0u64);
        // Admitted, then fails on the worker.
        let failing = small_job(Value::object().with("path", "no-such-dir/data.tsv"));
        let bodies = [&ok, &refused, &failing, &ok];
        let outcome = closed_loop(
            &server.addr().to_string(),
            &bodies,
            &|i| (i < bodies.len()).then_some(i),
            None,
            1,
            &|i| i == 3,
            &Tracer::new(true),
        );
        server.shutdown();
        let t = outcome.tally;
        assert_eq!(
            (t.attempted, t.refused, t.failed, t.unfinished),
            (4, 1, 1, 0)
        );
        assert_eq!(outcome.served.len(), 2);
        assert!(outcome.served.iter().any(|s| s.traced && s.polls >= 1));

        let mut executed: Vec<Executed> = bodies
            .iter()
            .map(|b| execute_in_process(b).unwrap_or_else(|_| execute_in_process(&ok).unwrap()))
            .collect();
        assert_eq!(wire_mismatches(&outcome, &executed), 0);
        executed[0].digest ^= 1;
        assert_eq!(wire_mismatches(&outcome, &executed), 1);
    }

    #[test]
    fn service_schedule_follows_the_mix() {
        let per_shape = SERVICE_LAYOUT.per_shape();
        let mut counts = [0usize; 3];
        for i in 0..20_000 {
            let case = service_schedule(7, i);
            assert!(case < SERVICE.len() * per_shape);
            counts[case / per_shape] += 1;
        }
        for (count, share) in counts.iter().zip(SERVICE_MIX) {
            let seen = *count as f64 / 20_000.0;
            assert!((seen - share).abs() < 0.015, "{counts:?}");
        }
        assert_eq!(service_schedule(7, 11), service_schedule(7, 11));
    }
}
