//! Small measurement helpers: order statistics with the ten-beyond tail
//! rule, operation accounting, and result digests for the correctness
//! checks.

use sspc::SspcResult;
use sspc_common::json::Value;

/// Median of `xs` (the mean of the two middle values for even lengths);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of `xs` at `permille` (950 = p95): the value
/// at 1-based rank `ceil(permille · n / 1000)`. `NaN` for an empty slice.
pub fn percentile(xs: &[f64], permille: u32) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), permille).max(1) - 1]
}

/// 1-based nearest rank of `permille` among `n` samples, in integer
/// arithmetic so that e.g. p95 of 200 samples is exactly rank 190.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000)
}

/// Samples strictly beyond the nearest-rank `permille` percentile.
pub fn beyond(n: usize, permille: u32) -> usize {
    n - rank(n, permille)
}

/// Operation accounting for one run. Every attempted operation either
/// succeeds or lands in exactly one failure bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error (a failed run or job).
    pub failed: u64,
    /// Submissions the service refused.
    pub refused: u64,
    /// Jobs that never reached a terminal state within the wait budget.
    pub unfinished: u64,
    /// Results that differ from their oracle.
    pub mismatched: u64,
}

impl Tally {
    /// All operations that did not produce a correct result.
    pub fn failures(&self) -> u64 {
        self.failed + self.refused + self.unfinished + self.mismatched
    }

    /// `failures / attempted`; 0 for a run that attempted nothing.
    pub fn error_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failures() as f64 / self.attempted as f64
        }
    }

    /// Adds another tally's counts into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.unfinished += other.unfinished;
        self.mismatched += other.mismatched;
    }
}

/// 64-bit FNV-1a, enough to tell results apart in a benchmark.
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in a byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Digest of an SSPC result: assignment (outliers distinct from every
/// cluster), selected dimensions and the objective's exact bits.
pub fn sspc_digest(result: &SspcResult) -> u64 {
    let mut h = Fnv::new();
    for label in result.assignment() {
        h.u64(label.map_or(0, |c| c.index() as u64 + 1));
    }
    for dims in result.all_selected_dims() {
        h.u64(dims.len() as u64);
        for j in dims {
            h.u64(j.index() as u64);
        }
    }
    h.u64(result.objective().to_bits());
    h.0
}

/// Digest of a job's wire `result` document without its `seconds` field,
/// the one wall-clock reading in an otherwise deterministic document.
/// Objects serialize with sorted keys and numbers in shortest round-trip
/// form, so equal digests mean bit-equal results.
pub fn wire_digest(result: &Value) -> u64 {
    let mut h = Fnv::new();
    h.bytes(strip_seconds(result).to_string().as_bytes());
    h.0
}

fn strip_seconds(v: &Value) -> Value {
    match v {
        Value::Obj(map) => Value::Obj(
            map.iter()
                .filter(|(k, _)| k.as_str() != "seconds")
                .map(|(k, x)| (k.clone(), strip_seconds(x)))
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.iter().map(strip_seconds).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_use_nearest_rank() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 950), 190.0);
        assert_eq!(percentile(&xs, 500), 100.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert!(percentile(&[], 500).is_nan());
    }

    #[test]
    fn beyond_counts_samples_past_the_nearest_rank() {
        assert_eq!(beyond(200, 950), 10);
        assert_eq!(beyond(199, 950), 9);
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(beyond(40, 750), 10);
        assert_eq!(beyond(20, 500), 10);
        assert_eq!(beyond(19, 500), 9);
        assert_eq!(beyond(1, 500), 0);
        for n in 1..1000 {
            for p in [500, 750, 900, 950] {
                let b = beyond(n, p);
                assert!(
                    percentile(&(1..=n).map(|x| x as f64).collect::<Vec<_>>(), p) == (n - b) as f64
                );
            }
        }
    }

    #[test]
    fn every_failure_kind_counts_against_attempted() {
        let mut t = Tally {
            attempted: 10,
            ..Default::default()
        };
        assert_eq!(t.error_share(), 0.0);
        t.failed = 1;
        t.refused = 1;
        t.unfinished = 1;
        t.mismatched = 1;
        assert_eq!(t.failures(), 4);
        assert_eq!(t.error_share(), 0.4);
        let mut sum = Tally::default();
        sum.absorb(t);
        sum.absorb(Tally {
            attempted: 10,
            mismatched: 1,
            ..Default::default()
        });
        assert_eq!((sum.attempted, sum.failures()), (20, 5));
        assert_eq!(sum.error_share(), 0.25);
        assert_eq!(Tally::default().error_share(), 0.0);
    }

    #[test]
    fn wire_digest_ignores_only_seconds() {
        let doc = |seconds: f64, objective: f64| {
            Value::object()
                .with("objective", objective)
                .with("seconds", seconds)
                .with(
                    "evaluation",
                    Value::object().with("ari", 1.0).with("seconds", seconds),
                )
        };
        assert_eq!(wire_digest(&doc(0.1, 2.5)), wire_digest(&doc(0.7, 2.5)));
        assert_ne!(
            wire_digest(&doc(0.1, 2.5)),
            wire_digest(&doc(0.1, 2.5000001))
        );
        let next_bits = f64::from_bits(2.5f64.to_bits() + 1);
        assert_ne!(
            wire_digest(&doc(0.1, 2.5)),
            wire_digest(&doc(0.1, next_bits))
        );
    }

    #[test]
    fn sspc_digest_tracks_assignment_and_objective_bits() {
        use sspc::{Sspc, SspcParams, Supervision};
        use sspc_datagen::{generate, GeneratorConfig};
        let config = GeneratorConfig {
            n: 120,
            d: 12,
            k: 3,
            avg_cluster_dims: 4,
            ..Default::default()
        };
        let data = generate(&config, 5).unwrap();
        let sspc = Sspc::new(SspcParams::new(3)).unwrap();
        let none = Supervision::none();
        let a = sspc.run(&data.dataset, &none, 1).unwrap();
        let naive = sspc.run_naive(&data.dataset, &none, 1).unwrap();
        assert_eq!(sspc_digest(&a), sspc_digest(&naive));
        let other = (2..20)
            .map(|seed| sspc.run(&data.dataset, &none, seed).unwrap())
            .find(|r| r != &a)
            .expect("some seed gives a different result");
        assert_ne!(sspc_digest(&a), sspc_digest(&other));
    }
}
