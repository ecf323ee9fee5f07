//! Workload inputs, made from the workload seed alone: generated datasets,
//! supervision draws, SSPC seeds, and for each case the equivalent
//! `cluster` job body the service would run.

use sspc::{Sspc, SspcParams, SspcResult, Supervision};
use sspc_common::json::Value;
use sspc_common::rng::derive_seed;
use sspc_common::Result;
use sspc_datagen::supervision::{draw, InputKind};
use sspc_datagen::{generate, GeneratedData, GeneratorConfig};

/// One generated dataset shape: the paper's `n × d`, `k` classes with
/// `l` relevant dimensions each on average.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Name used in records and spans.
    pub name: &'static str,
    /// Objects.
    pub n: usize,
    /// Dimensions.
    pub d: usize,
    /// Classes (and requested clusters).
    pub k: usize,
    /// Average relevant dimensions per class.
    pub l: usize,
    /// Draw labeled objects and labeled dimensions (Sec. 5.3 protocol:
    /// input size 4, coverage 1) for each case.
    pub supervised: bool,
}

impl Shape {
    fn config(&self) -> GeneratorConfig {
        GeneratorConfig {
            n: self.n,
            d: self.d,
            k: self.k,
            avg_cluster_dims: self.l,
            ..Default::default()
        }
    }

    /// `{"name":…, "n":…, …}` for the run record.
    pub fn to_value(self) -> Value {
        Value::object()
            .with("name", self.name)
            .with("n", self.n)
            .with("d", self.d)
            .with("k", self.k)
            .with("l", self.l)
            .with("supervised", self.supervised)
    }
}

/// Seeds travel to the server as JSON numbers, which hold integers
/// exactly only up to 2^53.
fn wire_seed(parent: u64, stream: u64) -> u64 {
    derive_seed(parent, stream) & ((1 << 53) - 1)
}

/// Labels per kind per covered class, and the covered share of classes.
const INPUT_SIZE: usize = 4;
const COVERAGE: f64 = 1.0;

/// One SSPC run the workload may repeat: a dataset, its supervision and a
/// seed, plus the same run as a service job.
pub struct Case {
    /// Index into [`Inputs::shapes`].
    pub shape: usize,
    /// Index into [`Inputs::data`].
    pub data: usize,
    /// Labeled objects and dimensions (empty when unsupervised).
    pub supervision: Supervision,
    /// The job seed; the SSPC run seed is `derive_seed(seed, 0)`, which
    /// is the seed `best_of` gives the first (and only) restart of a job.
    pub seed: u64,
    /// The equivalent `cluster` job submission.
    pub body: Value,
}

/// How many inputs one set-up makes per shape.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Generated datasets per shape.
    pub datasets: usize,
    /// Cases (SSPC seed, and input set when supervised) per dataset.
    pub cases_per_dataset: usize,
}

impl Layout {
    /// Cases per shape.
    pub fn per_shape(&self) -> usize {
        self.datasets * self.cases_per_dataset
    }
}

/// Everything one set-up produces.
pub struct Inputs {
    /// The generated shapes, in workload order.
    pub shapes: Vec<Shape>,
    /// Generated datasets, grouped by shape.
    pub data: Vec<GeneratedData>,
    /// Cases, grouped by shape: `cases[s * per_shape + i]`.
    pub cases: Vec<Case>,
    /// Cases per shape.
    pub per_shape: usize,
    /// Seconds spent in `sspc_datagen::generate`.
    pub generate_secs: f64,
}

impl Inputs {
    /// Generates `layout.datasets` datasets per shape and
    /// `layout.cases_per_dataset` cases for each, all derived from `seed`.
    ///
    /// # Errors
    ///
    /// Generator or supervision-draw failures.
    pub fn build(shapes: &[Shape], layout: Layout, seed: u64) -> Result<Inputs> {
        let mut data = Vec::new();
        let mut cases = Vec::new();
        let mut generate_secs = 0.0;
        for (s, shape) in shapes.iter().enumerate() {
            for i in 0..layout.datasets {
                let stream = 1000 * (s as u64 + 1) + 100 * i as u64;
                let data_seed = wire_seed(seed, stream);
                let started = std::time::Instant::now();
                let generated = generate(&shape.config(), data_seed)?;
                generate_secs += started.elapsed().as_secs_f64();
                for j in 0..layout.cases_per_dataset {
                    let case_seed = wire_seed(seed, stream + 1 + j as u64);
                    let supervision = if shape.supervised {
                        let labels = draw(
                            &generated.truth,
                            InputKind::Both,
                            COVERAGE,
                            INPUT_SIZE,
                            derive_seed(case_seed, 1),
                        )?;
                        Supervision::new(labels.labeled_objects, labels.labeled_dims)
                    } else {
                        Supervision::none()
                    };
                    cases.push(Case {
                        shape: s,
                        data: data.len(),
                        body: job_body(shape, data_seed, &supervision, case_seed),
                        supervision,
                        seed: case_seed,
                    });
                }
                data.push(generated);
            }
        }
        Ok(Inputs {
            shapes: shapes.to_vec(),
            data,
            cases,
            per_shape: layout.per_shape(),
            generate_secs,
        })
    }

    /// The SSPC clusterer for a case, with the paper's defaults (m = 0.5)
    /// — the same parameters the registry gives a `sspc` job.
    pub fn sspc(&self, case: &Case) -> Sspc {
        Sspc::new(SspcParams::new(self.shapes[case.shape].k)).expect("paper defaults are valid")
    }

    /// Runs a case through `run`, `run_naive` or any other entry point
    /// with the case's dataset, supervision and seed.
    pub fn run_with<T>(
        &self,
        case: &Case,
        sspc: &Sspc,
        entry: impl FnOnce(&Sspc, &sspc_common::Dataset, &Supervision, u64) -> Result<T>,
    ) -> Result<T> {
        entry(
            sspc,
            &self.data[case.data].dataset,
            &case.supervision,
            derive_seed(case.seed, 0),
        )
    }

    /// ARI of a result against the planted truth, with the labeled
    /// objects removed first (the paper's Sec. 5.3 scoring).
    pub fn ari(&self, case: &Case, result: &SspcResult) -> Result<f64> {
        sspc_bench::runner::ari_excluding_labeled(
            &self.data[case.data].truth,
            result.assignment(),
            case.supervision.labeled_objects(),
        )
    }
}

/// The `cluster` job that runs one SSPC restart on the server-generated
/// twin of a case's dataset, with the case's supervision and seed.
fn job_body(shape: &Shape, data_seed: u64, supervision: &Supervision, seed: u64) -> Value {
    let pairs = |items: Vec<(usize, usize)>| -> Value {
        Value::Arr(
            items
                .into_iter()
                .map(|(a, b)| Value::Arr(vec![Value::from(a), Value::from(b)]))
                .collect(),
        )
    };
    let mut body = Value::object()
        .with("type", "cluster")
        .with("algorithm", "sspc")
        .with("k", shape.k)
        .with(
            "dataset",
            Value::object().with(
                "generate",
                Value::object()
                    .with("n", shape.n)
                    .with("d", shape.d)
                    .with("k", shape.k)
                    .with("dims", shape.l)
                    .with("seed", data_seed),
            ),
        )
        .with("runs", 1u64)
        .with("seed", seed)
        .with("truth", true);
    if !supervision.is_empty() {
        let objects = supervision
            .labeled_objects()
            .iter()
            .map(|(o, c)| (o.index(), c.index()))
            .collect();
        let dims = supervision
            .labeled_dims()
            .iter()
            .map(|(j, c)| (j.index(), c.index()))
            .collect();
        body = body.with(
            "supervision",
            Value::object()
                .with("objects", pairs(objects))
                .with("dims", pairs(dims)),
        );
    }
    body
}
