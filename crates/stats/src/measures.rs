//! The concurrency measures of § 4.1.
//!
//! From a distribution of "number of active processors" records:
//!
//! * eq. 4.1 — `c_j = Prob(Number of Active Processors = j)`;
//! * eq. 4.2 — `C_w = Σ_{j=2}^{P} c_j`, the Workload Concurrency: the
//!   probability that *any* level of concurrency (two or more processors
//!   in parallel) exists;
//! * eq. 4.3 — `c_{j|c} = Prob(N = j | N > 1)`, j-concurrency conditioned
//!   on the system being concurrent (undefined if `C_w = 0`);
//! * eq. 4.4 — `P_c = Σ_{j=2}^{P} j · c_{j|c}`, the Mean Concurrency
//!   Level: average processors in use during concurrent operation,
//!   ranging over `[2, P]`.

use serde::{Deserialize, Serialize};

/// The measures of equations 4.1–4.4 computed from one record distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConcurrencyMeasures {
    /// `c_j` for `j = 0..=P` (eq. 4.1). Sums to 1 when any records exist.
    pub c: Vec<f64>,
    /// Workload Concurrency `C_w` (eq. 4.2).
    pub workload_concurrency: f64,
    /// `c_{j|c}` for `j = 0..=P` (eq. 4.3); entries below `j = 2` are zero.
    /// Empty when undefined (`C_w = 0`).
    pub conditional: Vec<f64>,
    /// Mean Concurrency Level `P_c` (eq. 4.4); `None` when no concurrency
    /// was observed, exactly as the thesis leaves it undefined.
    pub mean_concurrency_level: Option<f64>,
    /// Total records behind the distribution.
    pub total_records: u64,
}

/// Workload Concurrency `C_w` (eq. 4.2) and Mean Concurrency Level `P_c`
/// (eq. 4.4) straight from `num[j]`, without building the `c_j` vectors.
/// The one formula behind [`ConcurrencyMeasures::from_counts`], so the two
/// agree bit for bit. `(0.0, None)` when there are no records.
pub fn cw_pc(num: &[u64]) -> (f64, Option<f64>) {
    let total: u64 = num.iter().sum();
    if total == 0 {
        return (0.0, None);
    }
    // An empty bin's share is exactly +0.0 in both sums, so skipping its
    // divisions (most bins of most samples) leaves every bit unchanged.
    let c = |k: u64| if k == 0 { 0.0 } else { k as f64 / total as f64 };
    let cw: f64 = num.iter().skip(2).map(|&k| c(k)).sum();
    let pc = (cw > 0.0).then(|| {
        num.iter()
            .enumerate()
            .map(|(j, &k)| j as f64 * if j >= 2 && k != 0 { c(k) / cw } else { 0.0 })
            .sum()
    });
    (cw, pc)
}

impl ConcurrencyMeasures {
    /// Compute the measures from `num[j]` = records with `j` processors
    /// active, `j = 0..=P`.
    pub fn from_counts(num: &[u64]) -> Self {
        assert!(
            num.len() >= 2,
            "need counts for at least 0 and 1 processors"
        );
        let total: u64 = num.iter().sum();
        let (cw, pc) = cw_pc(num);
        let c: Vec<f64> = if total == 0 {
            vec![0.0; num.len()]
        } else {
            num.iter().map(|&k| k as f64 / total as f64).collect()
        };
        let conditional = match pc {
            Some(_) => c
                .iter()
                .enumerate()
                .map(|(j, &cj)| if j >= 2 { cj / cw } else { 0.0 })
                .collect(),
            None => Vec::new(),
        };
        ConcurrencyMeasures {
            c,
            workload_concurrency: cw,
            conditional,
            mean_concurrency_level: pc,
            total_records: total,
        }
    }

    /// `c_j`, zero for out-of-range `j`.
    pub fn c_j(&self, j: usize) -> f64 {
        self.c.get(j).copied().unwrap_or(0.0)
    }

    /// `c_{j|c}`, zero for out-of-range `j` or when undefined.
    pub fn c_j_given_concurrent(&self, j: usize) -> f64 {
        self.conditional.get(j).copied().unwrap_or(0.0)
    }
}

/// Pool several count distributions into one (the "All Sessions" totals).
pub fn pool_counts(distributions: &[Vec<u64>]) -> Vec<u64> {
    let width = distributions.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = vec![0u64; width];
    for d in distributions {
        for (j, &k) in d.iter().enumerate() {
            out[j] += k;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_distribution_measures() {
        // 10 records at each of 0..=8 processors.
        let num = vec![10u64; 9];
        let m = ConcurrencyMeasures::from_counts(&num);
        assert_eq!(m.total_records, 90);
        assert!((m.c.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((m.workload_concurrency - 7.0 / 9.0).abs() < 1e-12);
        // P_c = mean of 2..=8 = 5.
        assert!((m.mean_concurrency_level.unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn table2_style_distribution() {
        // A tri-modal distribution like Figure 3: idle, serial, full.
        // 100k records: 45k idle, 20k serial, 2k spread over 2..=7, 33k full.
        let num = vec![45_000, 20_000, 300, 300, 300, 300, 400, 400, 33_000];
        let m = ConcurrencyMeasures::from_counts(&num);
        let cw = m.workload_concurrency;
        assert!((cw - 0.35).abs() < 0.01, "C_w = {cw}");
        let pc = m.mean_concurrency_level.unwrap();
        assert!(pc > 7.5 && pc < 8.0, "P_c = {pc}");
        // c_{8|c} dominates.
        assert!(m.c_j_given_concurrent(8) > 0.9);
    }

    #[test]
    fn no_concurrency_leaves_pc_undefined() {
        let m = ConcurrencyMeasures::from_counts(&[50, 50, 0, 0]);
        assert_eq!(m.workload_concurrency, 0.0);
        assert_eq!(m.mean_concurrency_level, None);
        assert!(m.conditional.is_empty());
    }

    #[test]
    fn all_concurrent_gives_cw_one() {
        let m = ConcurrencyMeasures::from_counts(&[0, 0, 0, 0, 100]);
        assert!((m.workload_concurrency - 1.0).abs() < 1e-12);
        assert!((m.mean_concurrency_level.unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pc_bounds_hold() {
        // P_c must lie in [2, P] whenever defined.
        let cases: Vec<Vec<u64>> = vec![
            vec![0, 0, 1, 0, 0, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 0, 0, 0, 0, 1],
            vec![9, 5, 3, 1, 4, 1, 5, 9, 2],
        ];
        for num in cases {
            let m = ConcurrencyMeasures::from_counts(&num);
            if let Some(pc) = m.mean_concurrency_level {
                assert!((2.0..=8.0).contains(&pc), "P_c = {pc} for {num:?}");
            }
        }
    }

    #[test]
    fn empty_counts_are_handled() {
        let m = ConcurrencyMeasures::from_counts(&[0, 0, 0]);
        assert_eq!(m.total_records, 0);
        assert_eq!(m.workload_concurrency, 0.0);
        assert_eq!(m.mean_concurrency_level, None);
    }

    #[test]
    fn conditional_sums_to_one_when_defined() {
        let m = ConcurrencyMeasures::from_counts(&[10, 20, 5, 5, 5, 5, 5, 5, 40]);
        let s: f64 = m.conditional.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pooling_adds_distributions_of_unequal_width() {
        let pooled = pool_counts(&[vec![1, 2, 3], vec![10, 10], vec![0, 0, 0, 5]]);
        assert_eq!(pooled, vec![11, 12, 3, 5]);
    }

    #[test]
    fn pooled_measures_match_weighted_combination() {
        let a = vec![50, 0, 0, 50];
        let b = vec![0, 100, 0, 0];
        let pooled = pool_counts(&[a.clone(), b.clone()]);
        let m = ConcurrencyMeasures::from_counts(&pooled);
        // 200 records total, 50 concurrent (3-active).
        assert!((m.workload_concurrency - 0.25).abs() < 1e-12);
        assert!((m.mean_concurrency_level.unwrap() - 3.0).abs() < 1e-12);
    }
}
