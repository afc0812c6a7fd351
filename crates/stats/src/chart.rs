//! SAS-style ASCII charts.
//!
//! The thesis's figures are SAS `PROC CHART` / `PROC PLOT` listings:
//! horizontal bar charts of asterisks with FREQ / CUM FREQ / PERCENT /
//! CUM PERCENT columns, and scatter plots where a letter encodes the
//! number of overplotted observations (`A` = 1 obs, `B` = 2, ... — the
//! "LEGEND: A = 1 OBS, B = 2 OBS, ETC." of Figures 8–9 and B.1–B.6).
//! Rendering the reproduced figures the same way makes them directly
//! comparable to the originals.

use crate::freq::FreqDist;
use crate::regression::QuadModel;
use std::fmt::Write as _;

/// Maximum bar length in characters.
const BAR_WIDTH: usize = 60;

/// Render a frequency distribution as a SAS-style horizontal bar chart.
/// `label_fmt` formats the midpoint column (e.g. `|m| format!("{m:.3}")`).
pub fn hbar(dist: &FreqDist, title: &str, label_fmt: impl Fn(f64) -> String) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let max = dist.freq.iter().copied().max().unwrap_or(0).max(1);
    let cum = dist.cum_freq();
    let pct = dist.percent();
    let cpct = dist.cum_percent();
    let labels: Vec<String> = dist.midpoints.iter().map(|&m| label_fmt(m)).collect();
    let lw = labels.iter().map(String::len).max().unwrap_or(0).max(8);
    let _ = writeln!(
        out,
        "{:lw$}  {:bw$}  {:>8} {:>8} {:>8} {:>8}",
        "MIDPOINT",
        "",
        "FREQ",
        "CUM.FREQ",
        "PERCENT",
        "CUM.PCT",
        lw = lw,
        bw = BAR_WIDTH
    );
    let stars = "*".repeat(BAR_WIDTH);
    for i in 0..dist.freq.len() {
        let bar_len = ((dist.freq[i] as f64 / max as f64) * BAR_WIDTH as f64).round() as usize;
        let _ = writeln!(
            out,
            "{:lw$} |{:bw$}| {:>8} {:>8} {:>8.2} {:>8.2}",
            labels[i],
            &stars[..bar_len],
            dist.freq[i],
            cum[i],
            pct[i],
            cpct[i],
            lw = lw,
            bw = BAR_WIDTH
        );
    }
    if let (Some(mean), Some(median)) = (dist.mean_midpoint(), dist.median_midpoint()) {
        let _ = writeln!(out, "MEAN: {mean:.4}   MEDIAN: {median:.4}");
    }
    out
}

/// Render a labeled bar chart (e.g. per-CE activity, Figure 7).
pub fn hbar_labeled(title: &str, labels: &[String], freq: &[u64]) -> String {
    assert_eq!(labels.len(), freq.len());
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let total: u64 = freq.iter().sum();
    let max = freq.iter().copied().max().unwrap_or(0).max(1);
    let lw = labels.iter().map(String::len).max().unwrap_or(0).max(8);
    let stars = "*".repeat(BAR_WIDTH);
    for (label, &f) in labels.iter().zip(freq) {
        let bar_len = ((f as f64 / max as f64) * BAR_WIDTH as f64).round() as usize;
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * f as f64 / total as f64
        };
        let _ = writeln!(
            out,
            "{:lw$} |{:bw$}| {:>10} {:>7.2}%",
            label,
            &stars[..bar_len],
            f,
            pct,
            lw = lw,
            bw = BAR_WIDTH
        );
    }
    out
}

/// Render a letter-coded scatter plot (`A` = 1 obs, `B` = 2, ...).
pub fn scatter(
    title: &str,
    points: &[(f64, f64)],
    x_label: &str,
    y_label: &str,
    width: usize,
    height: usize,
) -> String {
    assert!(width >= 2 && height >= 2);
    let mut out = String::new();
    out.push_str(title);
    out.push_str("\nLEGEND: A = 1 OBS, B = 2 OBS, ETC.\n");
    if points.is_empty() {
        out.push_str("(no observations)\n");
        return out;
    }
    let (x0, x1) = bounds(points.iter().map(|p| p.0));
    let (y0, y1) = bounds(points.iter().map(|p| p.1));
    let mut grid = vec![vec![0u32; width]; height];
    for &(x, y) in points {
        let col = scale(x, x0, x1, width);
        let row = scale(y, y0, y1, height);
        grid[height - 1 - row][col] += 1;
    }
    let _ = writeln!(out, "{y_label}");
    for (r, row) in grid.iter().enumerate() {
        let y_val = y1 - (y1 - y0) * r as f64 / (height - 1) as f64;
        let _ = write!(out, "{y_val:>10.4} |");
        for &n in row {
            out.push(letter(n));
        }
        out.push('\n');
    }
    let _ = writeln!(out, "{:>10} +{}", "", "-".repeat(width));
    let _ = writeln!(
        out,
        "{:>10}  {:<w$.4}{:>.4}   ({x_label})",
        "",
        x0,
        x1,
        w = width.saturating_sub(6)
    );
    out
}

/// Render a fitted model curve over `[x0, x1]` (Figures 12–14, B.9–B.10).
pub fn model_curve(
    title: &str,
    model: &QuadModel,
    x0: f64,
    x1: f64,
    width: usize,
    height: usize,
) -> String {
    assert!(x1 > x0 && width >= 2 && height >= 2);
    let points: Vec<(f64, f64)> = (0..width)
        .map(|i| {
            let x = x0 + (x1 - x0) * i as f64 / (width - 1) as f64;
            (x, model.predict(x))
        })
        .collect();
    let mut out = scatter(title, &points, "x", "fitted", width, height);
    let _ = writeln!(
        out,
        "MODEL: y = {:+.4e}*x {:+.4e}*x^2 {:+.4e}   R^2 = {:.2}",
        model.b1, model.b2, model.c, model.r2
    );
    out
}

fn bounds(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo == hi {
        // Degenerate: widen so everything lands mid-plot.
        (lo - 0.5, hi + 0.5)
    } else {
        (lo, hi)
    }
}

fn scale(v: f64, lo: f64, hi: f64, n: usize) -> usize {
    let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
    ((t * (n - 1) as f64).round() as usize).min(n - 1)
}

/// SAS overplot letter: blank for 0, `A` for 1 ... `Z` for >= 26.
fn letter(n: u32) -> char {
    match n {
        0 => ' ',
        1..=26 => (b'A' + (n - 1) as u8) as char,
        _ => 'Z',
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::midpoints;

    #[test]
    fn hbar_renders_all_rows_and_stats() {
        let d = FreqDist::from_counts(&midpoints(0.0, 0.125, 9), &[29, 2, 10, 7, 1, 2, 5, 2, 7]);
        let s = hbar(&d, "Distribution of Samples by Workload Concurrency", |m| {
            format!("{m:.3}")
        });
        assert!(s.contains("0.000"));
        assert!(s.contains("1.000"));
        assert!(s.lines().count() >= 11, "header + 9 rows + stats");
        assert!(s.contains("MEAN:"));
        assert!(s.contains("MEDIAN:"));
        // Largest bin renders the longest bar.
        let bar_of = |needle: &str| {
            s.lines()
                .find(|l| l.starts_with(needle))
                .unwrap()
                .matches('*')
                .count()
        };
        assert!(bar_of("0.000") > bar_of("0.125"));
    }

    #[test]
    fn hbar_labeled_scales_bars() {
        let s = hbar_labeled(
            "per-CE activity",
            &(0..4).map(|i| format!("CE {i}")).collect::<Vec<_>>(),
            &[100, 50, 0, 25],
        );
        let bar = |needle: &str| {
            s.lines()
                .find(|l| l.starts_with(needle))
                .unwrap()
                .matches('*')
                .count()
        };
        assert_eq!(bar("CE 0"), BAR_WIDTH);
        assert_eq!(bar("CE 2"), 0);
        assert!(bar("CE 1") > bar("CE 3"));
    }

    #[test]
    fn scatter_encodes_overplot_with_letters() {
        let pts = vec![(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)];
        let s = scatter("t", &pts, "x", "y", 11, 5);
        assert!(s.contains('B'), "two overplotted points must show B:\n{s}");
        assert!(s.contains('A'));
        assert!(s.contains("LEGEND"));
    }

    #[test]
    fn scatter_handles_empty_and_degenerate_inputs() {
        let s = scatter("t", &[], "x", "y", 10, 5);
        assert!(s.contains("no observations"));
        // All points identical: must not panic.
        let s2 = scatter("t", &[(1.0, 1.0), (1.0, 1.0)], "x", "y", 10, 5);
        assert!(s2.contains('B'));
    }

    #[test]
    fn model_curve_shows_equation() {
        let m = QuadModel {
            b1: 2.18e-1,
            b2: 1.01e-1,
            c: 2.47e-2,
            r2: 0.89,
            n_points: 11,
        };
        let s = model_curve("CE Bus Busy vs Cw", &m, 0.0, 1.0, 40, 10);
        assert!(s.contains("R^2 = 0.89"));
        assert!(s.contains("MODEL:"));
        // The curve marks at least `width`-ish cells.
        assert!(s.matches('A').count() >= 20);
    }

    #[test]
    fn letters_saturate_at_z() {
        assert_eq!(letter(0), ' ');
        assert_eq!(letter(1), 'A');
        assert_eq!(letter(2), 'B');
        assert_eq!(letter(26), 'Z');
        assert_eq!(letter(500), 'Z');
    }
}
