//! Second-order linear regression and the paper's median-binning procedure.
//!
//! § 5.2: "A median point is calculated with respect to C_w by finding the
//! median of the system measure for the set of points clustered around
//! their closest Workload Concurrency midpoint (0.0, 0.1, ... 1.0). The
//! resulting set of coordinate pairs is then used to determine the model...
//! Second order linear models were determined to most accurately model the
//! data": `y = β₁·x + β₂·x² + C`, fit by least squares, with R² as the
//! goodness measure.

use crate::freq::nearest_bin;
use crate::summary::quantile_in;
use serde::{Deserialize, Serialize};

/// A fitted second-order model `y = b1·x + b2·x² + c`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuadModel {
    /// Linear coefficient β₁.
    pub b1: f64,
    /// Quadratic coefficient β₂.
    pub b2: f64,
    /// Intercept C.
    pub c: f64,
    /// Coefficient of determination over the fitted points.
    pub r2: f64,
    /// Number of points the model was fit to.
    pub n_points: usize,
}

impl QuadModel {
    /// Evaluate the model at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.b1 * x + self.b2 * x * x + self.c
    }

    /// The thesis's qualitative R² categories (Mendenhall & Sincich):
    /// 0 none, 0.25 moderately weak, 0.5 moderate, 0.75 moderately strong,
    /// 1.0 perfect.
    pub fn r2_category(&self) -> &'static str {
        match self.r2 {
            r if r < 0.125 => "no relationship",
            r if r < 0.375 => "moderately weak",
            r if r < 0.625 => "moderate",
            r if r < 0.875 => "moderately strong",
            _ => "near perfect",
        }
    }
}

/// Errors from a degenerate fit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitError {
    /// Fewer than three points: the quadratic is underdetermined.
    TooFewPoints,
    /// The normal equations are singular (e.g. all x identical).
    Singular,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewPoints => write!(f, "fewer than three points to fit"),
            FitError::Singular => write!(f, "singular normal equations (degenerate x values)"),
        }
    }
}

impl std::error::Error for FitError {}

/// Least-squares fit of `y = b1·x + b2·x² + c` to `(x, y)` points.
pub fn fit_quadratic(points: &[(f64, f64)]) -> Result<QuadModel, FitError> {
    let n = points.len();
    if n < 3 {
        return Err(FitError::TooFewPoints);
    }
    // Normal equations for the basis [x, x², 1]:
    //   [Σx²  Σx³  Σx ] [b1]   [Σxy ]
    //   [Σx³  Σx⁴  Σx²] [b2] = [Σx²y]
    //   [Σx   Σx²  n  ] [c ]   [Σy  ]
    let (mut sx, mut sx2, mut sx3, mut sx4) = (0.0, 0.0, 0.0, 0.0);
    let (mut sy, mut sxy, mut sx2y) = (0.0, 0.0, 0.0);
    for &(x, y) in points {
        let x2 = x * x;
        sx += x;
        sx2 += x2;
        sx3 += x2 * x;
        sx4 += x2 * x2;
        sy += y;
        sxy += x * y;
        sx2y += x2 * y;
    }
    let a = [[sx2, sx3, sx], [sx3, sx4, sx2], [sx, sx2, n as f64]];
    let b = [sxy, sx2y, sy];
    let sol = solve3(a, b).ok_or(FitError::Singular)?;
    let (b1, b2, c) = (sol[0], sol[1], sol[2]);

    // R² over the fitted points.
    let mean_y = sy / n as f64;
    let mut ss_tot = 0.0;
    let mut ss_res = 0.0;
    for &(x, y) in points {
        let f = b1 * x + b2 * x * x + c;
        ss_res += (y - f) * (y - f);
        ss_tot += (y - mean_y) * (y - mean_y);
    }
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Ok(QuadModel {
        b1,
        b2,
        c,
        r2,
        n_points: n,
    })
}

/// Solve a 3×3 linear system by Gaussian elimination with partial pivoting.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        // Pivot.
        let pivot = (col..3).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("finite")
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in (col + 1)..3 {
            let f = a[row][col] / a[col][col];
            // Indexing two rows of the same matrix: iterator forms would
            // need split borrows for no clarity gain.
            #[allow(clippy::needless_range_loop)]
            for k in col..3 {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = [0.0; 3];
    for row in (0..3).rev() {
        let mut s = b[row];
        for k in (row + 1)..3 {
            s -= a[row][k] * x[k];
        }
        x[row] = s / a[row][row];
    }
    Some(x)
}

/// § 5.2 median binning: cluster `(x, y)` samples around their nearest `x`
/// midpoint and take the median `y` per occupied bin. Returns
/// `(midpoint, median)` pairs for occupied bins only.
pub fn median_bin(samples: &[(f64, f64)], mids: &[f64]) -> Vec<(f64, f64)> {
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); mids.len()];
    for &(x, y) in samples {
        bins[nearest_bin(x, mids)].push(y);
    }
    let mut scratch = Vec::new();
    mids.iter()
        .zip(bins)
        .filter_map(|(&m, ys)| quantile_in(&ys, 0.5, &mut scratch).map(|md| (m, md)))
        .collect()
}

/// The full § 5.2 procedure: median-bin the samples, then fit the
/// second-order model to the `(midpoint, median)` pairs.
pub fn fit_median_model(samples: &[(f64, f64)], mids: &[f64]) -> Result<QuadModel, FitError> {
    fit_quadratic(&median_bin(samples, mids))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn exact_quadratic_recovered() {
        // y = 2x + 3x² + 1
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| i as f64 / 10.0)
            .map(|x| (x, 2.0 * x + 3.0 * x * x + 1.0))
            .collect();
        let m = fit_quadratic(&pts).unwrap();
        assert!(close(m.b1, 2.0, 1e-9), "b1 = {}", m.b1);
        assert!(close(m.b2, 3.0, 1e-9), "b2 = {}", m.b2);
        assert!(close(m.c, 1.0, 1e-9), "c = {}", m.c);
        assert!(close(m.r2, 1.0, 1e-12));
        assert_eq!(m.n_points, 10);
    }

    #[test]
    fn pure_linear_data_gets_zero_quadratic_term() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 5.0 * i as f64 - 2.0)).collect();
        let m = fit_quadratic(&pts).unwrap();
        assert!(close(m.b1, 5.0, 1e-8));
        assert!(close(m.b2, 0.0, 1e-9));
        assert!(close(m.c, -2.0, 1e-7));
    }

    #[test]
    fn noisy_fit_has_sensible_r2() {
        // Deterministic "noise" via a fixed pattern.
        let noise = [0.3, -0.2, 0.1, -0.4, 0.25, -0.1, 0.05, -0.3, 0.2, 0.15];
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                let x = i as f64;
                (x, x * x + noise[i])
            })
            .collect();
        let m = fit_quadratic(&pts).unwrap();
        assert!(m.r2 > 0.99, "r2 = {}", m.r2);
        assert!(m.r2 <= 1.0);
    }

    #[test]
    fn too_few_points_is_an_error() {
        assert_eq!(
            fit_quadratic(&[(0.0, 0.0), (1.0, 1.0)]),
            Err(FitError::TooFewPoints)
        );
    }

    #[test]
    fn identical_x_is_singular() {
        let pts = [(1.0, 0.0), (1.0, 1.0), (1.0, 2.0), (1.0, 3.0)];
        assert_eq!(fit_quadratic(&pts), Err(FitError::Singular));
    }

    #[test]
    fn prediction_matches_formula() {
        let m = QuadModel {
            b1: -3.30e-3,
            b2: 2.57e-2,
            c: 2.62e-3,
            r2: 0.74,
            n_points: 11,
        };
        // The paper's Table 3 miss-rate model: 0.007 at C_w = 0.5, 0.025 at 1.0.
        assert!(close(m.predict(0.5), 0.0074, 5e-4));
        assert!(close(m.predict(1.0), 0.0250, 5e-4));
    }

    #[test]
    fn r2_categories_match_the_cited_scale() {
        let mk = |r2| QuadModel {
            b1: 0.0,
            b2: 0.0,
            c: 0.0,
            r2,
            n_points: 3,
        };
        assert_eq!(mk(0.02).r2_category(), "no relationship");
        assert_eq!(mk(0.25).r2_category(), "moderately weak");
        assert_eq!(mk(0.5).r2_category(), "moderate");
        assert_eq!(mk(0.75).r2_category(), "moderately strong");
        assert_eq!(mk(0.95).r2_category(), "near perfect");
    }

    #[test]
    fn median_bin_clusters_and_takes_medians() {
        let mids = [0.0, 1.0, 2.0];
        let samples = [
            (0.1, 10.0),
            (-0.2, 20.0),
            (0.05, 30.0), // bin 0: median 20
            (1.1, 5.0),   // bin 1: median 5
                          // bin 2 empty
        ];
        let binned = median_bin(&samples, &mids);
        assert_eq!(binned, vec![(0.0, 20.0), (1.0, 5.0)]);
    }

    #[test]
    fn median_model_is_robust_to_outliers() {
        // y = x on medians, but every bin carries one huge outlier; the
        // median-binned model must ignore them.
        let mids: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let mut samples = Vec::new();
        for i in 0..=10 {
            let x = i as f64;
            samples.push((x, x));
            samples.push((x, x + 0.01));
            samples.push((x, x - 0.01));
            samples.push((x, 1_000.0)); // outlier
        }
        let m = fit_median_model(&samples, &mids).unwrap();
        assert!(
            close(m.predict(5.0), 5.0, 0.1),
            "predict(5) = {}",
            m.predict(5.0)
        );
    }

    #[test]
    fn residual_orthogonality_holds() {
        // Least squares residuals are orthogonal to the basis [x, x², 1].
        let pts: Vec<(f64, f64)> = (0..12)
            .map(|i| {
                let x = i as f64 * 0.5;
                (
                    x,
                    1.0 + 0.3 * x - 0.05 * x * x + if i % 2 == 0 { 0.2 } else { -0.2 },
                )
            })
            .collect();
        let m = fit_quadratic(&pts).unwrap();
        let (mut r1, mut rx, mut rx2) = (0.0, 0.0, 0.0);
        for &(x, y) in &pts {
            let r = y - m.predict(x);
            r1 += r;
            rx += r * x;
            rx2 += r * x * x;
        }
        assert!(r1.abs() < 1e-8, "Σr = {r1}");
        assert!(rx.abs() < 1e-8, "Σrx = {rx}");
        assert!(rx2.abs() < 1e-7, "Σrx² = {rx2}");
    }
}
