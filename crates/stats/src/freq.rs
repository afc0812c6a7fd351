//! Midpoint-binned frequency distributions.
//!
//! The thesis presents every distribution as a SAS `PROC CHART` listing:
//! values clustered to the nearest midpoint, with FREQ, CUM FREQ, PERCENT
//! and CUM PERCENT columns (e.g. Figures 4, 5, 10, 11, A.3–A.5, B.3–B.8).

use serde::{Deserialize, Serialize};

/// A binned frequency distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FreqDist {
    /// Bin midpoints, ascending.
    pub midpoints: Vec<f64>,
    /// Records per bin.
    pub freq: Vec<u64>,
}

impl FreqDist {
    /// Bin `values` to their nearest midpoints. `midpoints` must be
    /// non-empty and strictly ascending; values outside the range clamp to
    /// the end bins (SAS clusters everything to its nearest midpoint).
    pub fn from_values(values: &[f64], midpoints: &[f64]) -> Self {
        assert!(!midpoints.is_empty(), "need at least one midpoint");
        assert!(
            midpoints.windows(2).all(|w| w[0] < w[1]),
            "midpoints must be strictly ascending"
        );
        let mut freq = vec![0u64; midpoints.len()];
        for &v in values {
            debug_assert!(
                v.is_finite(),
                "non-finite value {v} would silently cluster into bin 0"
            );
            freq[nearest_bin(v, midpoints)] += 1;
        }
        FreqDist {
            midpoints: midpoints.to_vec(),
            freq,
        }
    }

    /// Build directly from per-bin counts (e.g. processor-activity counts).
    pub fn from_counts(midpoints: &[f64], freq: &[u64]) -> Self {
        assert_eq!(midpoints.len(), freq.len());
        FreqDist {
            midpoints: midpoints.to_vec(),
            freq: freq.to_vec(),
        }
    }

    /// Total records.
    pub fn total(&self) -> u64 {
        self.freq.iter().sum()
    }

    /// Cumulative frequencies.
    pub fn cum_freq(&self) -> Vec<u64> {
        self.freq
            .iter()
            .scan(0u64, |acc, &f| {
                *acc += f;
                Some(*acc)
            })
            .collect()
    }

    /// Percent per bin (0–100; zeros if the distribution is empty).
    pub fn percent(&self) -> Vec<f64> {
        let t = self.total();
        self.freq.iter().map(|&f| percent(f, t)).collect()
    }

    /// Cumulative percent per bin.
    pub fn cum_percent(&self) -> Vec<f64> {
        let t = self.total();
        self.cum_freq().iter().map(|&f| percent(f, t)).collect()
    }

    /// Median estimated from bin midpoints (the statistic the thesis
    /// annotates on its distribution listings).
    pub fn median_midpoint(&self) -> Option<f64> {
        let t = self.total();
        if t == 0 {
            return None;
        }
        let half = t.div_ceil(2);
        let mut acc = 0u64;
        for (i, &f) in self.freq.iter().enumerate() {
            acc += f;
            if acc >= half {
                return Some(self.midpoints[i]);
            }
        }
        None
    }

    /// Mean estimated from bin midpoints.
    pub fn mean_midpoint(&self) -> Option<f64> {
        let t = self.total();
        if t == 0 {
            return None;
        }
        let s: f64 = self
            .midpoints
            .iter()
            .zip(&self.freq)
            .map(|(&m, &f)| m * f as f64)
            .sum();
        Some(s / t as f64)
    }
}

/// `100·part/total`, the PERCENT column's formula; 0 for an empty total.
pub fn percent(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

/// Index of the nearest midpoint (ties round toward the higher bin,
/// matching SAS's half-up clustering).
///
/// `v` must be finite: a NaN makes every distance comparison below false,
/// so it would land in bin 0 — indistinguishable from a real low value and
/// exactly how a NaN rate once skewed a distribution undetected.
pub fn nearest_bin(v: f64, midpoints: &[f64]) -> usize {
    debug_assert!(v.is_finite(), "nearest_bin({v}) is not meaningful");
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, &m) in midpoints.iter().enumerate() {
        let d = (v - m).abs();
        // `<=` so an exact tie between two midpoints rounds half-up
        // (midpoints are ascending, the later bin wins).
        if d <= best_d {
            best = i;
            best_d = d;
        } else {
            // Past `v` the distance only grows (rounding is monotone), so
            // no later midpoint can be nearer.
            break;
        }
    }
    best
}

/// Equally spaced midpoints `start, start+step, ..` (n points).
pub fn midpoints(start: f64, step: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| start + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_cluster_to_nearest_midpoint() {
        let mids = midpoints(0.0, 0.125, 9); // the Figure 4 bins
        let d = FreqDist::from_values(&[0.0, 0.05, 0.07, 0.12, 0.99, 1.0], &mids);
        assert_eq!(d.freq[0], 2); // 0.0, 0.05 -> 0.0
        assert_eq!(d.freq[1], 2); // 0.07, 0.12 -> 0.125
        assert_eq!(d.freq[8], 2); // 0.99, 1.0 -> 1.0
        assert_eq!(d.total(), 6);
    }

    #[test]
    fn out_of_range_values_clamp_to_end_bins() {
        let mids = [0.0, 1.0];
        let d = FreqDist::from_values(&[-5.0, 7.0], &mids);
        assert_eq!(d.freq, vec![1, 1]);
    }

    #[test]
    fn tie_rounds_to_higher_bin() {
        let mids = [0.0, 1.0];
        assert_eq!(nearest_bin(0.5, &mids), 1);
        assert_eq!(nearest_bin(0.4999, &mids), 0);
    }

    #[test]
    fn early_exit_matches_a_full_scan() {
        let full = |v: f64, mids: &[f64]| {
            let mut best = 0;
            for (i, &m) in mids.iter().enumerate() {
                if (v - m).abs() <= (v - mids[best]).abs() {
                    best = i;
                }
            }
            best
        };
        for mids in [
            midpoints(0.0, 0.1, 11),
            midpoints(2.0, 1.0, 7),
            midpoints(0.0, 0.01, 11),
            midpoints(0.0, 2000.0, 13),
        ] {
            let step = mids[1] - mids[0];
            // Steps of 1/40 bin from a bin below the range to a bin above
            // it: every midpoint and halfway tie, up to rounding.
            for i in -40..=40 * mids.len() as i32 {
                let v = mids[0] + step * f64::from(i) / 40.0;
                assert_eq!(nearest_bin(v, &mids), full(v, &mids), "{v} in {mids:?}");
            }
        }
    }

    #[test]
    fn cumulative_columns() {
        let d = FreqDist::from_counts(&[0.0, 1.0, 2.0], &[2, 3, 5]);
        assert_eq!(d.cum_freq(), vec![2, 5, 10]);
        assert_eq!(d.percent(), vec![20.0, 30.0, 50.0]);
        assert_eq!(d.cum_percent(), vec![20.0, 50.0, 100.0]);
    }

    #[test]
    fn median_and_mean_from_bins() {
        let d = FreqDist::from_counts(&[0.0, 1.0, 2.0], &[1, 1, 2]);
        assert_eq!(d.median_midpoint(), Some(1.0));
        assert_eq!(d.mean_midpoint(), Some(1.25));
    }

    #[test]
    fn empty_distribution_degenerates_gracefully() {
        let d = FreqDist::from_values(&[], &[0.0, 1.0]);
        assert_eq!(d.total(), 0);
        assert_eq!(d.percent(), vec![0.0, 0.0]);
        assert_eq!(d.median_midpoint(), None);
        assert_eq!(d.mean_midpoint(), None);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_midpoints_rejected() {
        FreqDist::from_values(&[1.0], &[1.0, 0.0]);
    }

    // debug_assertions-gated: `cargo test --release` (as CI runs it)
    // compiles the guards out, so the panics only exist in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not meaningful")]
    fn nan_values_are_rejected_by_nearest_bin() {
        nearest_bin(f64::NAN, &[0.0, 1.0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "silently cluster")]
    fn nan_values_are_rejected_by_from_values() {
        FreqDist::from_values(&[0.5, f64::NAN], &[0.0, 1.0]);
    }

    #[test]
    fn midpoints_helper_spacing() {
        assert_eq!(
            midpoints(2.0, 1.0, 7),
            vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        );
    }
}
