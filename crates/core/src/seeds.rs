//! Seed-group construction (paper Sec. 4.2).
//!
//! A *seed group* packages a set of candidate medoids (the **seeds**) with
//! an estimated set of relevant dimensions. Whenever a cluster draws a
//! medoid from a group, the group's dimensions become the cluster's
//! selected dimensions.
//!
//! Groups come in two flavours:
//! * **private** — one per class with supervision, built from that class's
//!   labeled objects and/or labeled dimensions, used only by that class's
//!   cluster;
//! * **public** — a shared pool for the remaining clusters, built with the
//!   max-min mechanism (Sec. 4.2.4).
//!
//! Creation order follows the paper: classes with both kinds of input
//! first, then labeled-objects-only, then labeled-dimensions-only, then the
//! public groups; within each category, more input first. After each group
//! is created its seeds are removed from the available pool, so later
//! (harder) groups are not distracted by objects already accounted for.

use crate::grid::{BinColumn, Grid};
use crate::objective::ClusterModel;
use crate::{SspcParams, Supervision, Thresholds};
use rand::rngs::StdRng;
use rand::Rng;
use sspc_common::parallel;
use sspc_common::rng::{weighted_index, weighted_sample_distinct};
use sspc_common::stats::median_in_place;
use sspc_common::{ClusterId, Dataset, DimId, Error, ObjectId, Result};
use std::cell::RefCell;
use std::rc::Rc;

/// A set of candidate medoids plus their estimated relevant dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedGroup {
    /// Candidate medoids, expected to come from a single real cluster.
    pub seeds: Vec<ObjectId>,
    /// Estimated relevant dimensions, ascending.
    pub dims: Vec<DimId>,
    /// The class this group was built for (`None` for public groups).
    pub class: Option<ClusterId>,
}

/// The initializer's output: `private[c]` is the group for class `c` when
/// that class received supervision, and `public` is the shared pool.
#[derive(Debug, Clone)]
pub struct SeedGroups {
    /// Per-class private groups (`None` where the class got no input).
    pub private: Vec<Option<SeedGroup>>,
    /// Shared public groups for input-less clusters.
    pub public: Vec<SeedGroup>,
}

/// Which initialization case (Sec. 4.2.1–4.2.4) applies to a class.
///
/// `SingleObject` extends the paper: a class with exactly **one** labeled
/// object (which can arise after [`crate::validation`] rejects bad labels)
/// cannot form the temporary cluster the paper's recipe needs, but the
/// object still serves as a known anchor for the Sec. 4.2.4 mechanism —
/// strictly better knowledge than a max-min guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum InputCase {
    Both = 0,
    ObjectsOnly = 1,
    DimsOnly = 2,
    SingleObject = 3,
    NoInput = 4,
}

/// Builds all seed groups for one run.
pub(crate) struct Initializer<'a> {
    dataset: &'a Dataset,
    params: &'a SspcParams,
    thresholds: &'a Thresholds,
    supervision: &'a Supervision,
    /// Objects still considered when forming new groups.
    available: Vec<bool>,
    /// Per-dimension binnings indexed by dimension, computed once and
    /// shared by every grid built over that dimension
    /// ([`Grid::bin_column`]); grid candidates repeat heavily across the
    /// `g` grids of each group, and every public group's
    /// [`Initializer::anchored_weights`] touches all `d` entries.
    bin_cache: RefCell<Vec<Option<Rc<BinColumn>>>>,
    /// Reference path: every anchor search rescans all earlier groups
    /// ([`Initializer::max_min_anchor`]) instead of folding them into
    /// `min_dist` once.
    naive: bool,
    /// Fast path's max-min state: `min_dist[o]` is object `o`'s minimum
    /// normalized subspace distance to every seed of the first `folded`
    /// groups (groups without dimensions contribute nothing). Empty until
    /// the first public group needs an anchor, so runs without public
    /// groups do no distance work.
    min_dist: Vec<f64>,
    /// How many groups (in creation order) `min_dist` covers.
    folded: usize,
}

impl<'a> Initializer<'a> {
    pub(crate) fn new(
        dataset: &'a Dataset,
        params: &'a SspcParams,
        thresholds: &'a Thresholds,
        supervision: &'a Supervision,
        naive: bool,
    ) -> Self {
        Initializer {
            dataset,
            params,
            thresholds,
            supervision,
            available: vec![true; dataset.n_objects()],
            bin_cache: RefCell::new(vec![None; dataset.n_dims()]),
            naive,
            min_dist: Vec::new(),
            folded: 0,
        }
    }

    /// The cached binning of dimension `j`, computed on first use.
    fn cached_bins<'c>(
        &self,
        cache: &'c mut [Option<Rc<BinColumn>>],
        j: DimId,
    ) -> &'c Rc<BinColumn> {
        let bins = self.params.bins_per_dim;
        cache[j.index()].get_or_insert_with(|| Rc::new(Grid::bin_column(self.dataset, j, bins)))
    }

    /// Builds one grid over `picked`, combining cached per-dimension
    /// binnings (identical output to [`Grid::build`]; the cache's `u16`
    /// bin indices cover every resolution `SspcParams::validate` admits).
    fn build_grid(&self, picked: &[DimId]) -> Grid {
        let bins = self.params.bins_per_dim;
        let mut cache = self.bin_cache.borrow_mut();
        let cols: Vec<Rc<BinColumn>> = picked
            .iter()
            .map(|&j| Rc::clone(self.cached_bins(&mut cache, j)))
            .collect();
        Grid::build_from_bins(self.dataset, picked, bins, &cols, &self.available)
    }

    /// Runs the full Sec. 4.2 procedure.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSupervision`] when a class has exactly one
    /// labeled object (the paper requires `|Iᵒᵢ| ≥ 2` so the temporary
    /// cluster has a variance); other failures propagate from substrate
    /// calls.
    pub(crate) fn build(mut self, rng: &mut StdRng) -> Result<SeedGroups> {
        let k = self.params.k;

        // Classify and order the supervised classes.
        let mut order: Vec<(InputCase, usize, usize)> = Vec::new(); // (case, -inputs, class)
        for class_idx in 0..k {
            let class = ClusterId(class_idx);
            let n_obj = self.supervision.objects_of(class).len();
            let n_dim = self.supervision.dims_of(class).len();
            let case = match (n_obj, n_dim > 0) {
                (2.., true) => InputCase::Both,
                (2.., false) => InputCase::ObjectsOnly,
                (0, true) => InputCase::DimsOnly,
                (1, _) => InputCase::SingleObject,
                (0, false) => InputCase::NoInput,
            };
            if case != InputCase::NoInput {
                order.push((case, usize::MAX - (n_obj + n_dim), class_idx));
            }
        }
        order.sort();

        let mut private: Vec<Option<SeedGroup>> = vec![None; k];
        for &(case, _, class_idx) in &order {
            let class = ClusterId(class_idx);
            let group = match case {
                InputCase::Both => self.private_group_with_objects(class, true, rng)?,
                InputCase::ObjectsOnly => self.private_group_with_objects(class, false, rng)?,
                InputCase::DimsOnly => self.private_group_dims_only(class, rng)?,
                InputCase::SingleObject => self.private_group_single_object(class, rng)?,
                InputCase::NoInput => unreachable!("filtered above"),
            };
            self.retire_seeds(&group.seeds);
            private[class_idx] = Some(group);
        }

        // Public groups for the remaining clusters.
        let n_no_input = private.iter().filter(|g| g.is_none()).count();
        let mut public = Vec::new();
        if n_no_input > 0 {
            let n_public = self.params.effective_public_groups().max(n_no_input);
            for _ in 0..n_public {
                match self.public_group(&private, &public, rng)? {
                    Some(group) => {
                        self.retire_seeds(&group.seeds);
                        public.push(group);
                    }
                    None => break, // pool of available objects exhausted
                }
            }
            if public.len() < n_no_input {
                return Err(Error::InsufficientData(format!(
                    "could only build {} public seed groups for {} input-less clusters",
                    public.len(),
                    n_no_input
                )));
            }
        }
        Ok(SeedGroups { private, public })
    }

    fn retire_seeds(&mut self, seeds: &[ObjectId]) {
        for &o in seeds {
            self.available[o.index()] = false;
        }
    }

    /// Sec. 4.2.1 (`use_labeled_dims = true`) and Sec. 4.2.2 (`false`):
    /// classes with labeled objects.
    fn private_group_with_objects(
        &self,
        class: ClusterId,
        use_labeled_dims: bool,
        rng: &mut StdRng,
    ) -> Result<SeedGroup> {
        let labeled = self.supervision.objects_of(class);
        debug_assert!(
            labeled.len() >= 2,
            "single-object classes are routed to the anchor mechanism"
        );
        // Temporary cluster Cᵢ′ from the labeled objects.
        let temp = ClusterModel::fit(self.dataset, &labeled)?;
        let mut candidates = temp.select_dims(self.thresholds);
        let labeled_dims = if use_labeled_dims {
            self.supervision.dims_of(class)
        } else {
            Vec::new()
        };
        for &j in &labeled_dims {
            if !candidates.contains(&j) {
                candidates.push(j);
            }
        }
        if candidates.is_empty() {
            // Nothing passed SelectDim (tiny |Iᵒ|, unlucky draw): fall back
            // to the least-dispersed dimensions so grids can still form.
            candidates = self.least_dispersed_dims(&temp, self.params.grid_dims);
        }

        // Grid-building probability ∝ φᵢ′ⱼ, floored at a small positive
        // value; labeled dimensions are known relevant, so they get the
        // maximum candidate weight.
        let mut weights: Vec<f64> = candidates
            .iter()
            .map(|&j| temp.dim_score(j, self.thresholds).max(1e-9))
            .collect();
        let max_w = weights.iter().cloned().fold(1e-9, f64::max);
        for (idx, &j) in candidates.iter().enumerate() {
            if labeled_dims.contains(&j) {
                weights[idx] = max_w;
            }
        }

        // Start hill-climbing from the cell containing the median of Iᵒᵢ.
        let median_point = self.median_point(&labeled);
        let seeds = self.best_grid_seeds(&candidates, &weights, Some(&median_point), rng);
        self.finish_group(seeds, &labeled_dims, Some(class))
    }

    /// Sec. 4.2.3: classes with labeled dimensions only. Grids are built
    /// from the labeled dimensions with equal probability; without a
    /// starting point, the absolute peak of each grid is used.
    fn private_group_dims_only(&self, class: ClusterId, rng: &mut StdRng) -> Result<SeedGroup> {
        let labeled_dims = self.supervision.dims_of(class);
        debug_assert!(!labeled_dims.is_empty());
        let weights = vec![1.0; labeled_dims.len()];
        let seeds = self.best_grid_seeds(&labeled_dims, &weights, None, rng);
        self.finish_group(seeds, &labeled_dims, Some(class))
    }

    /// Extension for a class with exactly one labeled object: the object is
    /// a known anchor — run the Sec. 4.2.4 mechanism from it (1-D histogram
    /// dimension weights, hill-climb from the anchor's cell), forcing any
    /// labeled dimensions to the maximum candidate weight.
    fn private_group_single_object(&self, class: ClusterId, rng: &mut StdRng) -> Result<SeedGroup> {
        let anchor = self.supervision.objects_of(class)[0];
        let anchor_row = self.dataset.row(anchor).to_vec();
        let (dims, mut weights) = self.anchored_weights(&anchor_row);
        let labeled_dims = self.supervision.dims_of(class);
        if !labeled_dims.is_empty() {
            let max_w = weights.iter().cloned().fold(1e-9, f64::max);
            for (idx, j) in dims.iter().enumerate() {
                if labeled_dims.contains(j) {
                    weights[idx] = max_w;
                }
            }
        }
        let seeds = self.best_grid_seeds(&dims, &weights, Some(&anchor_row), rng);
        self.finish_group(seeds, &labeled_dims, Some(class))
    }

    /// Sec. 4.2.4: no input. Uses the max-min mechanism to find an anchor
    /// object remote from all existing seeds, weighs dimensions by the
    /// 1-D histogram density around the anchor, and hill-climbs from the
    /// anchor's cell. Returns `None` when no objects remain available.
    fn public_group(
        &mut self,
        private: &[Option<SeedGroup>],
        public: &[SeedGroup],
        rng: &mut StdRng,
    ) -> Result<Option<SeedGroup>> {
        let existing: Vec<&SeedGroup> = private.iter().flatten().chain(public.iter()).collect();
        let anchor = if self.naive {
            self.max_min_anchor(&existing, rng)
        } else {
            self.max_min_anchor_incremental(&existing, rng)
        };
        let Some(anchor) = anchor else {
            return Ok(None);
        };
        let anchor_row = self.dataset.row(anchor).to_vec();
        let (dims, weights) = self.anchored_weights(&anchor_row);
        let seeds = self.best_grid_seeds(&dims, &weights, Some(&anchor_row), rng);
        self.finish_group(seeds, &[], None).map(Some)
    }

    /// Per-dimension grid-building weights around an anchor point: the
    /// squared excess of the anchor-bin density over the uniform
    /// expectation. Squaring sharpens the contrast between a genuine
    /// cluster peak (excess ≈ cluster size) and Poisson noise
    /// (excess ≈ √expected), which matters when thousands of irrelevant
    /// dimensions each carry a little noise excess. Floored so every
    /// dimension keeps a tiny chance; constant (zero-range) dimensions get
    /// only the floor.
    ///
    /// Computes each 1-D anchor-bin density directly from the dataset's
    /// contiguous column — equivalent to (and replacing) building a
    /// throwaway [`Grid`] per dimension, which allocated `bins` cell
    /// vectors and strided the row-major buffer for each of the `d`
    /// dimensions.
    fn anchored_weights(&self, anchor_row: &[f64]) -> (Vec<DimId>, Vec<f64>) {
        let bins = self.params.bins_per_dim;
        let n_avail = self.available.iter().filter(|&&a| a).count() as f64;
        let expected = n_avail / bins as f64;
        let mut weights = Vec::with_capacity(self.dataset.n_dims());
        let mut dims = Vec::with_capacity(self.dataset.n_dims());
        let mut cache = self.bin_cache.borrow_mut();
        for j in self.dataset.dim_ids() {
            // Same binning as a 1-D `Grid` (equi-width over the global
            // range, degenerate dimensions collapse to bin 0, edges clamp
            // into the border bins), shared with the grids built later
            // from these candidates through the per-dimension bin cache.
            let bc = self.cached_bins(&mut cache, j);
            let anchor_bin = bc.bin_of(anchor_row[j.index()], bins) as u16;
            let density = bc
                .bins
                .iter()
                .zip(self.available.iter())
                .filter(|&(&b, &avail)| avail && b == anchor_bin)
                .count() as f64;
            // A zero-range dimension puts every object into bin 0, so its
            // density is the whole available pool — yet it separates
            // nothing. It keeps only the floor.
            let excess = if self.dataset.global_range(j) == 0.0 {
                0.0
            } else {
                (density - expected).max(0.0)
            };
            dims.push(j);
            weights.push((excess * excess).max(1e-9));
        }
        (dims, weights)
    }

    /// The object maximizing the minimum subspace distance to every seed of
    /// every existing group (paper: "identifies an object whose minimum
    /// distance to all the seeds already picked by other seed groups is
    /// maximum", distances "performed in the subspace defined by the
    /// relevant dimensions of the seed groups, normalized by the number of
    /// dimensions"). With no existing groups, a random available object.
    ///
    /// The reference scan, kept for [`crate::Sspc::run_naive`]: every call
    /// recomputes each available object's distance to every seed of every
    /// group, O(G·n·s·l) for the G-th public group.
    fn max_min_anchor(&self, existing: &[&SeedGroup], rng: &mut StdRng) -> Option<ObjectId> {
        let available: Vec<ObjectId> = self
            .dataset
            .object_ids()
            .filter(|o| self.available[o.index()])
            .collect();
        if available.is_empty() {
            return None;
        }
        if existing.is_empty() || existing.iter().all(|g| g.dims.is_empty()) {
            return Some(available[rng.gen_range(0..available.len())]);
        }
        available
            .iter()
            .copied()
            .map(|o| {
                let min_dist = existing
                    .iter()
                    .filter(|g| !g.dims.is_empty())
                    .flat_map(|g| {
                        g.seeds.iter().map(move |&s| {
                            self.dataset.sq_dist_between(o, s, &g.dims) / g.dims.len() as f64
                        })
                    })
                    .fold(f64::INFINITY, f64::min);
                (o, min_dist)
            })
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite distances"))
            .map(|(o, _)| o)
    }

    /// [`Initializer::max_min_anchor`] with the same result and RNG use,
    /// at O(n·s·l) per group: `existing` only ever grows at the end, so
    /// the groups after the first `folded` are folded into the running
    /// `min_dist` and the anchor is its argmax over available objects.
    ///
    /// Bit-identical to the rescan: each object's distance to a seed
    /// takes the same additions in the same dimension order as
    /// [`Dataset::sq_dist_between`], and `min` over the (finite, `≥ +0`)
    /// distances does not depend on the order groups arrive in.
    fn max_min_anchor_incremental(
        &mut self,
        existing: &[&SeedGroup],
        rng: &mut StdRng,
    ) -> Option<ObjectId> {
        if !self.available.contains(&true) || existing.iter().all(|g| g.dims.is_empty()) {
            // No pick, or a random one: the rescan measures no distance
            // here either, and delegating keeps its RNG use exactly.
            return self.max_min_anchor(existing, rng);
        }
        if self.min_dist.is_empty() {
            self.min_dist = vec![f64::INFINITY; self.dataset.n_objects()];
        }
        for group in &existing[self.folded..] {
            fold_group(self.dataset, group, &mut self.min_dist);
        }
        self.folded = existing.len();
        self.dataset
            .object_ids()
            .filter(|o| self.available[o.index()])
            .map(|o| (o, self.min_dist[o.index()]))
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite distances"))
            .map(|(o, _)| o)
    }

    /// Builds `g` grids from weighted candidate dimensions, finds each
    /// grid's peak (hill-climbing from `start` when given, absolute peak
    /// otherwise), and returns the seeds of the overall densest peak.
    fn best_grid_seeds(
        &self,
        candidates: &[DimId],
        weights: &[f64],
        start: Option<&[f64]>,
        rng: &mut StdRng,
    ) -> Vec<ObjectId> {
        let c = self.params.grid_dims.min(candidates.len());
        let mut best: Option<(usize, Grid, Vec<usize>)> = None;
        for _ in 0..self.params.grids_per_group {
            let picked: Vec<DimId> = if c == candidates.len() {
                candidates.to_vec()
            } else {
                weighted_sample_distinct(rng, weights, c)
                    .into_iter()
                    .map(|i| candidates[i])
                    .collect()
            };
            let picked = if picked.is_empty() {
                // All weights zero: fall back to a uniform draw.
                let i = rng.gen_range(0..candidates.len());
                vec![candidates[i]]
            } else {
                picked
            };
            let grid = self.build_grid(&picked);
            let (cell, density) = match start {
                Some(row) if self.params.hill_climbing => grid.hill_climb(&grid.coords_of_row(row)),
                Some(row) => {
                    let coords = grid.coords_of_row(row);
                    let density = grid.density(&coords);
                    (coords, density)
                }
                None => grid.peak_cell(),
            };
            if best.as_ref().is_none_or(|(bd, _, _)| density > *bd) {
                best = Some((density, grid, cell));
            }
        }
        let (_, grid, cell) = best.expect("grids_per_group >= 1");
        let mut seeds = grid.collect_at_least(&cell, self.params.min_seeds);
        // Cap so seed lists (and hence the max-min scans over them) do not
        // grow with n; the center-cell objects come first, so truncation
        // keeps the densest core.
        seeds.truncate(self.params.max_seeds);
        seeds
    }

    /// Finalizes a group: estimated dimensions are `SelectDim(Gᵢ)` plus the
    /// labeled dimensions. Falls back to the least-dispersed dimensions if
    /// both are empty, so a group is never dimension-less.
    fn finish_group(
        &self,
        seeds: Vec<ObjectId>,
        labeled_dims: &[DimId],
        class: Option<ClusterId>,
    ) -> Result<SeedGroup> {
        if seeds.is_empty() {
            return Err(Error::InsufficientData(
                "seed group ended up empty — dataset too small for the grid parameters".into(),
            ));
        }
        let model = ClusterModel::fit(self.dataset, &seeds)?;
        let mut dims = model.select_dims(self.thresholds);
        for &j in labeled_dims {
            if !dims.contains(&j) {
                dims.push(j);
            }
        }
        if dims.is_empty() {
            dims = self.least_dispersed_dims(&model, self.params.grid_dims);
        }
        dims.sort_unstable();
        Ok(SeedGroup { seeds, dims, class })
    }

    /// The `count` dimensions with the smallest dispersion-to-threshold
    /// ratio — a fallback when `SelectDim` returns nothing.
    fn least_dispersed_dims(&self, model: &ClusterModel, count: usize) -> Vec<DimId> {
        let t_row = self.thresholds.row(model.size());
        let mut scored: Vec<(f64, DimId)> = self
            .dataset
            .dim_ids()
            .filter_map(|j| {
                let t = t_row[j.index()];
                (t > 0.0).then(|| (model.summary(j).median_dispersion() / t, j))
            })
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite ratios"));
        scored
            .into_iter()
            .take(count.max(1))
            .map(|(_, j)| j)
            .collect()
    }

    /// The per-dimension median of a set of objects, as a full-length
    /// point. Gathers from column slices with one reused buffer.
    fn median_point(&self, objects: &[ObjectId]) -> Vec<f64> {
        debug_assert!(!objects.is_empty());
        let mut buf = vec![0.0f64; objects.len()];
        self.dataset
            .dim_ids()
            .map(|j| {
                let col = self.dataset.column_slice(j);
                for (slot, &o) in buf.iter_mut().zip(objects.iter()) {
                    *slot = col[o.index()];
                }
                median_in_place(&mut buf)
            })
            .collect()
    }
}

/// Folds one group into the running max-min distances: for each seed,
/// `min_dist[o] = min(min_dist[o], ‖x_o − x_s‖²_dims / |dims|)`. Each
/// seed's squared distances accumulate one contiguous column range at a
/// time, dimensions in ascending order, into a per-worker buffer; workers
/// own disjoint object ranges, so the chunking is not observable. Groups
/// without dimensions contribute nothing, as in the rescan.
fn fold_group(dataset: &Dataset, group: &SeedGroup, min_dist: &mut [f64]) {
    if group.dims.is_empty() {
        return;
    }
    let len = group.dims.len() as f64;
    parallel::for_each_chunk_mut_with(min_dist, Vec::new, |offset, chunk, acc: &mut Vec<f64>| {
        for &s in &group.seeds {
            let seed_row = dataset.row(s);
            acc.clear();
            acc.resize(chunk.len(), 0.0);
            for &j in &group.dims {
                let xs = seed_row[j.index()];
                let col = dataset.column_block(j, offset, chunk.len());
                for (a, &x) in acc.iter_mut().zip(col) {
                    let diff = x - xs;
                    *a += diff * diff;
                }
            }
            for (m, &a) in chunk.iter_mut().zip(acc.iter()) {
                *m = m.min(a / len);
            }
        }
    });
}

/// Draws a random seed from a group (uniform over the group's seeds).
pub(crate) fn draw_seed(group: &SeedGroup, rng: &mut StdRng) -> ObjectId {
    debug_assert!(!group.seeds.is_empty());
    // Weighted by nothing today; kept as a function so smarter draws (e.g.
    // density-weighted) slot in without touching call sites.
    let idx = weighted_index(rng, &vec![1.0; group.seeds.len()]).unwrap_or(0);
    group.seeds[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThresholdScheme;
    use sspc_common::rng::seeded_rng;

    /// Two planted clusters in 10-D: class 0 compact on dims 0–1 for
    /// objects 0–9, class 1 compact on dims 2–3 for objects 10–19, plus
    /// 10 noise objects. Values elsewhere spread over [0, 100].
    fn planted_dataset() -> Dataset {
        let n = 30;
        let d = 10;
        let mut rng = seeded_rng(1);
        let mut values = vec![0.0; n * d];
        for o in 0..n {
            for j in 0..d {
                values[o * d + j] = rng.gen_range(0.0..100.0);
            }
        }
        for o in 0..10 {
            values[o * d] = 20.0 + rng.gen_range(-1.0..1.0);
            values[o * d + 1] = 70.0 + rng.gen_range(-1.0..1.0);
        }
        for o in 10..20 {
            values[o * d + 2] = 40.0 + rng.gen_range(-1.0..1.0);
            values[o * d + 3] = 10.0 + rng.gen_range(-1.0..1.0);
        }
        Dataset::from_rows(n, d, values).unwrap()
    }

    fn setup(ds: &Dataset) -> (SspcParams, Thresholds) {
        let params = SspcParams::new(2)
            .with_threshold(ThresholdScheme::MFraction(0.5))
            .with_grid(2, 5);
        let th = Thresholds::new(params.threshold, ds).unwrap();
        (params, th)
    }

    #[test]
    fn labeled_objects_yield_accurate_private_group() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none()
            .label_object(ObjectId(0), ClusterId(0))
            .label_object(ObjectId(1), ClusterId(0))
            .label_object(ObjectId(2), ClusterId(0));
        let init = Initializer::new(&ds, &params, &th, &sup, false);
        let mut rng = seeded_rng(1);
        let groups = init.build(&mut rng).unwrap();
        let g = groups.private[0].as_ref().expect("class 0 got input");
        assert_eq!(g.class, Some(ClusterId(0)));
        // Seeds should be class-0 objects (ids 0–9).
        let hits = g.seeds.iter().filter(|o| o.index() < 10).count();
        assert!(
            hits * 2 >= g.seeds.len(),
            "majority of seeds should be class members, got {:?}",
            g.seeds
        );
        // Dims should include the planted 0 and 1.
        assert!(g.dims.contains(&DimId(0)) || g.dims.contains(&DimId(1)));
    }

    #[test]
    fn labeled_dims_yield_private_group_on_peak() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none()
            .label_dim(DimId(2), ClusterId(1))
            .label_dim(DimId(3), ClusterId(1));
        let init = Initializer::new(&ds, &params, &th, &sup, false);
        let mut rng = seeded_rng(2);
        let groups = init.build(&mut rng).unwrap();
        let g = groups.private[1].as_ref().expect("class 1 got input");
        let hits = g
            .seeds
            .iter()
            .filter(|o| (10..20).contains(&o.index()))
            .count();
        assert!(
            hits * 2 >= g.seeds.len(),
            "majority of seeds should be class-1 members, got {:?}",
            g.seeds
        );
        // Labeled dims are forced into the estimate.
        assert!(g.dims.contains(&DimId(2)));
        assert!(g.dims.contains(&DimId(3)));
    }

    #[test]
    fn single_labeled_object_uses_anchor_mechanism() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none().label_object(ObjectId(0), ClusterId(0));
        let init = Initializer::new(&ds, &params, &th, &sup, false);
        let mut rng = seeded_rng(3);
        let groups = init.build(&mut rng).unwrap();
        let g = groups.private[0].as_ref().expect("anchor builds a group");
        assert_eq!(g.class, Some(ClusterId(0)));
        assert!(!g.seeds.is_empty());
        // The anchor is a class-0 member (ids 0–9); the seeds should lean
        // that way too.
        let hits = g.seeds.iter().filter(|o| o.index() < 10).count();
        assert!(hits * 2 >= g.seeds.len(), "seeds {:?}", g.seeds);
    }

    #[test]
    fn unsupervised_build_produces_public_groups() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none();
        let init = Initializer::new(&ds, &params, &th, &sup, false);
        let mut rng = seeded_rng(4);
        let groups = init.build(&mut rng).unwrap();
        assert!(groups.private.iter().all(Option::is_none));
        assert!(groups.public.len() >= 2, "need groups for 2 clusters");
        for g in &groups.public {
            assert!(g.class.is_none());
            assert!(!g.seeds.is_empty());
            assert!(!g.dims.is_empty());
        }
    }

    #[test]
    fn seeds_are_retired_between_groups() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none();
        let init = Initializer::new(&ds, &params, &th, &sup, false);
        let mut rng = seeded_rng(5);
        let groups = init.build(&mut rng).unwrap();
        // No object may appear as a seed of two groups.
        let mut seen = std::collections::HashSet::new();
        for g in groups.private.iter().flatten().chain(groups.public.iter()) {
            for &s in &g.seeds {
                assert!(seen.insert(s), "object {s} seeded two groups");
            }
        }
    }

    #[test]
    fn mixed_supervision_coexists_with_public_groups() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none()
            .label_object(ObjectId(10), ClusterId(1))
            .label_object(ObjectId(11), ClusterId(1))
            .label_dim(DimId(2), ClusterId(1));
        let init = Initializer::new(&ds, &params, &th, &sup, false);
        let mut rng = seeded_rng(6);
        let groups = init.build(&mut rng).unwrap();
        assert!(groups.private[1].is_some());
        assert!(groups.private[0].is_none());
        assert!(!groups.public.is_empty(), "cluster 0 needs a public group");
    }

    /// Serializes `SSPC_NUM_THREADS` mutation across the tests here.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("SSPC_NUM_THREADS", n.to_string());
        let r = body();
        std::env::remove_var("SSPC_NUM_THREADS");
        r
    }

    /// A random group over available objects: 1–6 seeds, and a random
    /// ascending dimension subset that is empty about one time in four.
    fn random_group(rng: &mut StdRng, available: &[bool], d: usize) -> SeedGroup {
        let pool: Vec<ObjectId> = (0..available.len())
            .filter(|&o| available[o])
            .map(ObjectId)
            .collect();
        let n_seeds = rng.gen_range(1..=6usize).min(pool.len());
        let seeds = weighted_sample_distinct(rng, &vec![1.0; pool.len()], n_seeds)
            .into_iter()
            .map(|i| pool[i])
            .collect();
        let dims = if rng.gen_range(0u32..4) == 0 {
            Vec::new()
        } else {
            (0..d)
                .filter(|_| rng.gen_range(0.0..1.0) < 0.5)
                .map(DimId)
                .collect()
        };
        SeedGroup {
            seeds,
            dims,
            class: None,
        }
    }

    /// Replays one random group sequence, checking after every group that
    /// the incremental anchor (and its RNG use) equals the rescan's, and
    /// that every available object's running minimum has the exact bits
    /// of the rescan's minimum. Returns the final `min_dist`.
    fn replay_group_sequence(ds: &Dataset, case_seed: u64) -> Vec<f64> {
        let (params, th) = setup(ds);
        let sup = Supervision::none();
        let mut init = Initializer::new(ds, &params, &th, &sup, false);
        let mut gen = seeded_rng(case_seed);
        let mut groups: Vec<SeedGroup> = Vec::new();
        for _ in 0..gen.gen_range(1..6usize) {
            // Several groups may arrive between two searches, as the
            // private groups do before the first public one.
            for _ in 0..gen.gen_range(1..4usize) {
                let group = random_group(&mut gen, &init.available, ds.n_dims());
                init.retire_seeds(&group.seeds);
                groups.push(group);
            }
            // Retire a few objects that seeded nothing.
            for _ in 0..gen.gen_range(0..4usize) {
                init.available[gen.gen_range(0..ds.n_objects())] = false;
            }
            let existing: Vec<&SeedGroup> = groups.iter().collect();
            let draw = gen.gen_range(0..u64::MAX);
            let (mut rng_ref, mut rng_inc) = (seeded_rng(draw), seeded_rng(draw));
            let reference = init.max_min_anchor(&existing, &mut rng_ref);
            let incremental = init.max_min_anchor_incremental(&existing, &mut rng_inc);
            assert_eq!(
                reference,
                incremental,
                "anchor after {} groups",
                groups.len()
            );
            assert_eq!(
                rng_ref.gen::<u64>(),
                rng_inc.gen::<u64>(),
                "RNG use diverged"
            );
            if existing.iter().any(|g| !g.dims.is_empty()) {
                for o in ds.object_ids().filter(|o| init.available[o.index()]) {
                    let expected = existing
                        .iter()
                        .filter(|g| !g.dims.is_empty())
                        .flat_map(|g| {
                            g.seeds.iter().map(move |&s| {
                                ds.sq_dist_between(o, s, &g.dims) / g.dims.len() as f64
                            })
                        })
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(expected.to_bits(), init.min_dist[o.index()].to_bits());
                }
            }
        }
        init.min_dist
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// The incremental, columnar max-min search equals the reference
        /// rescan at 1, 2 and 8 threads, on datasets large enough
        /// (n ≥ 512 = 2 × `MIN_CHUNK`) that the fold really splits.
        #[test]
        fn prop_incremental_anchor_equals_rescan(
            n in 512usize..1200,
            d in 1usize..12,
            seed in 0u64..10_000,
        ) {
            let mut rng = seeded_rng(seed);
            let values: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-1e3..1e3)).collect();
            let ds = Dataset::from_rows(n, d, values).unwrap();
            let serial = with_threads(1, || replay_group_sequence(&ds, seed));
            for threads in [2, 8] {
                let parallel = with_threads(threads, || replay_group_sequence(&ds, seed));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&serial), bits(&parallel));
            }
        }
    }

    #[test]
    fn incremental_anchor_is_none_once_pool_is_exhausted() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none();
        let mut init = Initializer::new(&ds, &params, &th, &sup, false);
        let group = SeedGroup {
            seeds: vec![ObjectId(0)],
            dims: vec![DimId(0)],
            class: None,
        };
        init.available.iter_mut().for_each(|a| *a = false);
        let mut rng = seeded_rng(8);
        assert_eq!(init.max_min_anchor(&[&group], &mut rng), None);
        assert_eq!(init.max_min_anchor_incremental(&[&group], &mut rng), None);
        assert!(
            init.min_dist.is_empty(),
            "no fold without an anchor to find"
        );
    }

    #[test]
    fn draw_seed_returns_member() {
        let group = SeedGroup {
            seeds: vec![ObjectId(3), ObjectId(7), ObjectId(9)],
            dims: vec![DimId(0)],
            class: None,
        };
        let mut rng = seeded_rng(7);
        for _ in 0..20 {
            let s = draw_seed(&group, &mut rng);
            assert!(group.seeds.contains(&s));
        }
    }
}
