//! Cross-crate integration tests: datagen → algorithms → metrics, asserting
//! the relationships the paper's evaluation is built on.

use sspc::{Sspc, SspcParams, Supervision, ThresholdScheme};
use sspc_baselines::{clarans, harp, proclus};
use sspc_common::rng::derive_seed;
use sspc_common::{ClusterId, Result};
use sspc_datagen::{generate, GeneratedData, GeneratorConfig};
use sspc_metrics::{adjusted_rand_index, OutlierPolicy};

/// A moderately easy projected-clustering dataset: 20% relevant dims.
fn easy() -> GeneratedData {
    generate(
        &GeneratorConfig {
            n: 400,
            d: 50,
            k: 4,
            avg_cluster_dims: 10,
            ..Default::default()
        },
        31,
    )
    .unwrap()
}

/// A hard dataset: 6% relevant dims — full-space methods should fail here.
fn hard() -> GeneratedData {
    generate(
        &GeneratorConfig {
            n: 500,
            d: 100,
            k: 4,
            avg_cluster_dims: 6,
            ..Default::default()
        },
        37,
    )
    .unwrap()
}

fn ari(data: &GeneratedData, produced: &[Option<ClusterId>]) -> f64 {
    adjusted_rand_index(data.truth.assignment(), produced, OutlierPolicy::AsCluster).unwrap()
}

fn best_sspc(data: &GeneratedData, params: SspcParams, runs: usize, seed: u64) -> Result<f64> {
    let sspc = Sspc::new(params)?;
    let mut best: Option<sspc::SspcResult> = None;
    for r in 0..runs {
        let result = sspc.run(
            &data.dataset,
            &Supervision::none(),
            derive_seed(seed, r as u64),
        )?;
        if best
            .as_ref()
            .is_none_or(|b| result.objective() > b.objective())
        {
            best = Some(result);
        }
    }
    Ok(ari(data, best.unwrap().assignment()))
}

#[test]
fn sspc_recovers_easy_planted_clusters() {
    let data = easy();
    let params = SspcParams::new(4).with_threshold(ThresholdScheme::MFraction(0.5));
    let score = best_sspc(&data, params, 5, 1).unwrap();
    assert!(score > 0.9, "SSPC ARI {score} on an easy dataset");
}

#[test]
fn sspc_beats_clarans_on_low_dimensional_clusters() {
    // The paper's core claim: projected beats non-projected when relevant
    // dimensions are few.
    let data = hard();
    let sspc_score = best_sspc(
        &data,
        SspcParams::new(4).with_threshold(ThresholdScheme::MFraction(0.5)),
        5,
        2,
    )
    .unwrap();
    let clarans = clarans::run(&data.dataset, &clarans::ClaransParams::new(4), 2).unwrap();
    let clarans_score = ari(&data, clarans.assignment());
    assert!(
        sspc_score > clarans_score + 0.3,
        "SSPC {sspc_score} should clearly beat CLARANS {clarans_score} at 6% dims"
    );
}

#[test]
fn both_threshold_schemes_work_on_easy_data() {
    let data = easy();
    let m = best_sspc(
        &data,
        SspcParams::new(4).with_threshold(ThresholdScheme::MFraction(0.5)),
        3,
        3,
    )
    .unwrap();
    let p = best_sspc(
        &data,
        SspcParams::new(4).with_threshold(ThresholdScheme::PValue(0.05)),
        3,
        3,
    )
    .unwrap();
    assert!(m > 0.85, "m-scheme ARI {m}");
    assert!(p > 0.85, "p-scheme ARI {p}");
}

#[test]
fn proclus_works_with_correct_l_on_easy_data() {
    let data = easy();
    let result = proclus::run(&data.dataset, &proclus::ProclusParams::new(4, 10), 5).unwrap();
    let score = ari(&data, result.assignment());
    assert!(score > 0.7, "PROCLUS ARI {score} with correct l");
}

#[test]
fn harp_works_at_moderate_dimensionality() {
    let data = easy();
    let result = harp::run(&data.dataset, &harp::HarpParams::new(4)).unwrap();
    let score = ari(&data, result.assignment());
    assert!(score > 0.7, "HARP ARI {score} at 20% dims");
}

#[test]
fn selected_dims_overlap_planted_dims() {
    let data = easy();
    let params = SspcParams::new(4).with_threshold(ThresholdScheme::MFraction(0.5));
    let result = Sspc::new(params)
        .unwrap()
        .run(&data.dataset, &Supervision::none(), 5)
        .unwrap();
    let q = sspc_metrics::dims::dim_selection_quality(
        data.truth.assignment(),
        &(0..4)
            .map(|c| data.truth.relevant_dims(ClusterId(c)).to_vec())
            .collect::<Vec<_>>(),
        result.assignment(),
        result.all_selected_dims(),
    )
    .unwrap();
    assert!(
        q.recall > 0.6,
        "dimension recall {} too low (precision {})",
        q.recall,
        q.precision
    );
}

#[test]
fn all_algorithms_cover_every_object_or_mark_outliers() {
    let data = easy();
    let n = data.dataset.n_objects();

    let s = Sspc::new(SspcParams::new(4))
        .unwrap()
        .run(&data.dataset, &Supervision::none(), 1)
        .unwrap();
    assert_eq!(s.assignment().len(), n);

    let c = clarans::run(&data.dataset, &clarans::ClaransParams::new(4), 1).unwrap();
    assert_eq!(c.assignment().len(), n);
    assert!(c.outliers().is_empty());

    let h = harp::run(&data.dataset, &harp::HarpParams::new(4)).unwrap();
    assert_eq!(h.assignment().len(), n);
    assert!(h.outliers().is_empty());

    let p = proclus::run(&data.dataset, &proclus::ProclusParams::new(4, 10), 1).unwrap();
    assert_eq!(p.assignment().len(), n);
}

#[test]
fn outlier_contaminated_data_is_handled() {
    let data = generate(
        &GeneratorConfig {
            n: 400,
            d: 50,
            k: 4,
            avg_cluster_dims: 10,
            outlier_fraction: 0.15,
            ..Default::default()
        },
        41,
    )
    .unwrap();
    let params = SspcParams::new(4).with_threshold(ThresholdScheme::MFraction(0.5));
    let result = Sspc::new(params)
        .unwrap()
        .run(&data.dataset, &Supervision::none(), 3)
        .unwrap();
    let score = ari(&data, result.assignment());
    assert!(score > 0.6, "ARI {score} under 15% contamination");
    // Reported outliers should be within a factor of ~2 of the truth.
    let q = sspc_metrics::outliers::outlier_quality(data.truth.assignment(), result.assignment())
        .unwrap();
    assert!(
        q.reported_outliers >= q.true_outliers / 2
            && q.reported_outliers <= q.true_outliers * 2 + 20,
        "reported {} vs true {}",
        q.reported_outliers,
        q.true_outliers
    );
}

/// Constant columns carry no cluster structure, so appending them must not
/// change what SSPC finds. A zero-range dimension puts every object into
/// one bin; without special handling its anchor-bin density is the whole
/// available pool, the largest grid weight of all, and public seed groups
/// would be built mostly on dimensions that separate nothing.
#[test]
fn constant_columns_do_not_take_over_public_seed_groups() {
    const EXTRA: usize = 20;
    let sspc = Sspc::new(SspcParams::new(3)).unwrap();
    let best_ari = |data: &GeneratedData, dataset: &sspc_common::Dataset| {
        let best = (0..3u64)
            .map(|seed| sspc.run(dataset, &Supervision::none(), seed).unwrap())
            .max_by(|a, b| a.objective().total_cmp(&b.objective()))
            .unwrap();
        adjusted_rand_index(
            data.truth.assignment(),
            best.assignment(),
            OutlierPolicy::Exclude,
        )
        .unwrap()
    };
    for seed in 1..=5u64 {
        let data = generate(
            &GeneratorConfig {
                n: 300,
                d: 50,
                k: 3,
                avg_cluster_dims: 6,
                ..Default::default()
            },
            seed,
        )
        .unwrap();
        let (n, d) = (data.dataset.n_objects(), data.dataset.n_dims());
        let mut values = Vec::with_capacity(n * (d + EXTRA));
        for o in data.dataset.object_ids() {
            values.extend_from_slice(data.dataset.row(o));
            values.extend(std::iter::repeat_n(5.0, EXTRA));
        }
        let padded = sspc_common::Dataset::from_rows(n, d + EXTRA, values).unwrap();
        let plain = best_ari(&data, &data.dataset);
        let with_constants = best_ari(&data, &padded);
        assert!(
            with_constants >= plain - 0.01,
            "seed {seed}: ARI {with_constants} with {EXTRA} constant columns, {plain} without"
        );
    }
}
