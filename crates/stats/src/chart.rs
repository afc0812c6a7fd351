//! SAS-style ASCII charts.
//!
//! The thesis's figures are SAS `PROC CHART` / `PROC PLOT` listings:
//! horizontal bar charts of asterisks with FREQ / CUM FREQ / PERCENT /
//! CUM PERCENT columns, and scatter plots where a letter encodes the
//! number of overplotted observations (`A` = 1 obs, `B` = 2, ... — the
//! "LEGEND: A = 1 OBS, B = 2 OBS, ETC." of Figures 8–9 and B.1–B.6).
//! Rendering the reproduced figures the same way makes them directly
//! comparable to the originals.

use crate::freq::{percent, FreqDist};
use crate::regression::QuadModel;
use crate::text::{pad_right, push_fixed, push_fixed_right, push_spaces, push_uint_right};
use std::fmt::Write as _;

/// Maximum bar length in characters.
const BAR_WIDTH: usize = 60;

/// The longest bar; every bar is a prefix of it.
const STARS: &str = "************************************************************";

/// Push `"|"`, a bar of `len` stars padded to [`BAR_WIDTH`], and `"|"`.
fn push_bar(out: &mut String, len: usize) {
    out.push('|');
    out.push_str(&STARS[..len]);
    push_spaces(out, BAR_WIDTH - len);
    out.push('|');
}

/// Bar length of `f` against the largest frequency `max`.
fn bar_len(f: u64, max: u64) -> usize {
    ((f as f64 / max as f64) * BAR_WIDTH as f64).round() as usize
}

/// Render a frequency distribution as a SAS-style horizontal bar chart,
/// with the midpoint column printed to `label_decimals` places.
pub fn hbar(dist: &FreqDist, title: &str, label_decimals: usize) -> String {
    let mut out = String::with_capacity(title.len() + 100 * (dist.freq.len() + 3));
    out.push_str(title);
    out.push('\n');
    let max = dist.freq.iter().copied().max().unwrap_or(0).max(1);
    let total = dist.total();
    // Every label once, end to end; `ends[i]` closes label `i`.
    let mut labels = String::new();
    let mut ends = Vec::with_capacity(dist.midpoints.len());
    let mut lw = 8;
    for &m in &dist.midpoints {
        let start = labels.len();
        push_fixed(&mut labels, m, label_decimals);
        lw = lw.max(labels.len() - start);
        ends.push(labels.len());
    }
    pad_right(&mut out, "MIDPOINT", lw);
    push_spaces(&mut out, 2 + BAR_WIDTH + 2);
    out.push_str("    FREQ CUM.FREQ  PERCENT  CUM.PCT\n");
    let (mut start, mut cum) = (0, 0);
    for (&f, &end) in dist.freq.iter().zip(&ends) {
        cum += f;
        pad_right(&mut out, &labels[start..end], lw);
        start = end;
        out.push(' ');
        push_bar(&mut out, bar_len(f, max));
        out.push(' ');
        push_uint_right(&mut out, f, 8);
        out.push(' ');
        push_uint_right(&mut out, cum, 8);
        out.push(' ');
        push_fixed_right(&mut out, percent(f, total), 2, 8);
        out.push(' ');
        push_fixed_right(&mut out, percent(cum, total), 2, 8);
        out.push('\n');
    }
    if let (Some(mean), Some(median)) = (dist.mean_midpoint(), dist.median_midpoint()) {
        out.push_str("MEAN: ");
        push_fixed(&mut out, mean, 4);
        out.push_str("   MEDIAN: ");
        push_fixed(&mut out, median, 4);
        out.push('\n');
    }
    out
}

/// Render a labeled bar chart (e.g. per-CE activity, Figure 7).
pub fn hbar_labeled(title: &str, labels: &[String], freq: &[u64]) -> String {
    assert_eq!(labels.len(), freq.len());
    let mut out = String::with_capacity(title.len() + 90 * (freq.len() + 1));
    out.push_str(title);
    out.push('\n');
    let total: u64 = freq.iter().sum();
    let max = freq.iter().copied().max().unwrap_or(0).max(1);
    let lw = labels.iter().map(String::len).max().unwrap_or(0).max(8);
    for (label, &f) in labels.iter().zip(freq) {
        pad_right(&mut out, label, lw);
        out.push(' ');
        push_bar(&mut out, bar_len(f, max));
        out.push(' ');
        push_uint_right(&mut out, f, 10);
        out.push(' ');
        push_fixed_right(&mut out, percent(f, total), 2, 7);
        out.push_str("%\n");
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
    let mut out = String::with_capacity(title.len() + (width + 14) * (height + 5));
    out.push_str(title);
    out.push_str("\nLEGEND: A = 1 OBS, B = 2 OBS, ETC.\n");
    if points.is_empty() {
        out.push_str("(no observations)\n");
        return out;
    }
    let (x0, x1) = bounds(points.iter().map(|p| p.0));
    let (y0, y1) = bounds(points.iter().map(|p| p.1));
    // Row-major, top row first.
    let mut grid = vec![0u32; width * height];
    for &(x, y) in points {
        let col = scale(x, x0, x1, width);
        let row = scale(y, y0, y1, height);
        grid[(height - 1 - row) * width + col] += 1;
    }
    out.push_str(y_label);
    out.push('\n');
    for (r, row) in grid.chunks_exact(width).enumerate() {
        let y_val = y1 - (y1 - y0) * r as f64 / (height - 1) as f64;
        push_fixed_right(&mut out, y_val, 4, 10);
        out.push_str(" |");
        out.extend(row.iter().map(|&n| letter(n)));
        out.push('\n');
    }
    push_spaces(&mut out, 10);
    out.push_str(" +");
    out.extend(std::iter::repeat_n('-', width));
    out.push('\n');
    push_spaces(&mut out, 12);
    let start = out.len();
    push_fixed(&mut out, x0, 4);
    let x0_len = out.len() - start;
    push_spaces(&mut out, width.saturating_sub(6).saturating_sub(x0_len));
    push_fixed(&mut out, x1, 4);
    out.push_str("   (");
    out.push_str(x_label);
    out.push_str(")\n");
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
    let _ = write!(
        out,
        "MODEL: y = {:+.4e}*x {:+.4e}*x^2 {:+.4e}   R^2 = ",
        model.b1, model.b2, model.c
    );
    push_fixed(&mut out, model.r2, 2);
    out.push('\n');
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
        let s = hbar(&d, "Distribution of Samples by Workload Concurrency", 3);
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
