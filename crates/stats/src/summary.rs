//! Means, medians and quantiles.

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Sample median (average of the two central order statistics for even n).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Quantile by the midpoint-interpolating definition SAS used for medians.
/// `q` in `[0, 1]`; `None` for an empty slice. Panics on a NaN among two
/// or more values.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    quantile_in(xs, q, &mut Vec::new())
}

/// [`quantile`] with `scratch` as its working copy of `xs`.
///
/// It selects the order statistics in O(n) instead of sorting: the `hi`th
/// by `select_nth_unstable_by`, and the `lo = hi - 1`th as the largest of
/// the partition left of it. These are the values a sort puts there,
/// except that a stable sort keeps `-0.0` and `+0.0` in input order while
/// selection may swap them, so a selected zero re-takes the sorted path.
pub(crate) fn quantile_in(xs: &[f64], q: f64, scratch: &mut Vec<f64>) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("no NaNs in data");
    let n = xs.len();
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    scratch.clear();
    scratch.extend_from_slice(xs);
    let (left, &mut mut v_hi, _) = scratch.select_nth_unstable_by(hi, cmp);
    let mut v_lo = if lo == hi {
        v_hi
    } else {
        *left.iter().max_by(|a, b| cmp(a, b)).expect("lo < hi")
    };
    if v_lo == 0.0 || v_hi == 0.0 {
        scratch.clear();
        scratch.extend_from_slice(xs);
        scratch.sort_by(cmp);
        (v_lo, v_hi) = (scratch[lo], scratch[hi]);
    }
    if lo == hi {
        Some(v_hi)
    } else {
        let frac = pos - lo as f64;
        Some(v_lo * (1.0 - frac) + v_hi * frac)
    }
}

/// Population variance; `None` for fewer than one element.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Standard deviation.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The quantile by a stable sort of a copy, as it was before selection.
    fn quantile_by_sort(xs: &[f64], q: f64) -> Option<f64> {
        if xs.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in data"));
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let frac = pos - lo as f64;
        Some(if lo == hi {
            v[lo]
        } else {
            v[lo] * (1.0 - frac) + v[hi] * frac
        })
    }

    /// Values with many repeats, both zeros and infinities among them.
    fn value() -> impl Strategy<Value = f64> {
        let pick = [
            -0.0,
            0.0,
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.25,
            3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        (0usize..20, -1e3f64..1e3).prop_map(move |(i, x)| pick.get(i).copied().unwrap_or(x))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn selection_matches_the_sorted_quantile_bit_for_bit(
            xs in prop::collection::vec(value(), 0..40),
            pick in 0usize..6,
            random_q in 0.0f64..1.0,
        ) {
            let q = [0.0, 0.25, 0.5, 0.9, 1.0, random_q][pick];
            prop_assert_eq!(
                quantile(&xs, q).map(f64::to_bits),
                quantile_by_sort(&xs, q).map(f64::to_bits),
                "q {} of {:?}", q, xs
            );
        }
    }

    #[test]
    fn a_nan_anywhere_panics() {
        for n in 2..=24usize {
            for at in 0..n {
                let mut xs: Vec<f64> = (0..n).map(|i| (i * 37 % n) as f64).collect();
                xs[at] = f64::NAN;
                for q in [0.0, 0.5, 0.9, 1.0] {
                    let r = std::panic::catch_unwind(|| quantile(&xs, q));
                    assert!(r.is_err(), "no panic on {xs:?} at q {q}");
                }
            }
        }
    }

    #[test]
    fn mean_of_simple_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(0.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.25), Some(1.0));
        assert_eq!(quantile(&xs, 0.375), Some(1.5));
    }

    #[test]
    fn quantile_rejects_out_of_range() {
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
    }

    #[test]
    fn variance_and_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(variance(&xs), Some(4.0));
        assert_eq!(stddev(&xs), Some(2.0));
    }

    #[test]
    fn single_element_statistics() {
        assert_eq!(mean(&[7.0]), Some(7.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(variance(&[7.0]), Some(0.0));
    }
}
