//! The report's text writer: fixed-width fields and fixed-precision
//! floats appended straight to a `String`.
//!
//! Every chart and table of the report is built from a handful of field
//! shapes — `{:>8}`, `{:<26}`, `{:.4}`, `{:>9.4}` — and `core::fmt` is
//! slow at two of them: it pads a field one fill character at a time, and
//! a `{:.4}` float usually takes its exact (bignum) path. The helpers here
//! write the same bytes in one pass: padding pushes slices of one static
//! run of spaces, and [`push_fixed`] rounds `|x|·10^d` in `f64`, handing
//! the rare case where that rounding could differ from the exact decimal
//! back to `core::fmt`.

use std::fmt::Write as _;

/// One run of spaces every pad is sliced from.
const SPACES: &str = "                                                                ";

/// `10^d` for the decimals the fast path of [`push_fixed`] takes; each is
/// exact in an `f64`.
const POW10: [f64; 7] = [1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6];

/// `2^52`: below it an `f64` keeps every half-integer, so the distance of
/// `|x|·10^d` from a rounding tie is a whole number of its ulps.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// Push `n` spaces.
pub fn push_spaces(out: &mut String, mut n: usize) {
    while n > 0 {
        let k = n.min(SPACES.len());
        out.push_str(&SPACES[..k]);
        n -= k;
    }
}

/// Push `s` right-aligned in `width` characters: `{s:>width$}`.
pub fn pad_left(out: &mut String, s: &str, width: usize) {
    push_spaces(out, width.saturating_sub(s.chars().count()));
    out.push_str(s);
}

/// Push `s` left-aligned in `width` characters: `{s:<width$}` (and `{s:width$}`).
pub fn pad_right(out: &mut String, s: &str, width: usize) {
    out.push_str(s);
    push_spaces(out, width.saturating_sub(s.chars().count()));
}

/// Push the decimal digits of `n`: `{n}`.
pub fn push_uint(out: &mut String, n: u64) {
    push_digits(out, n, 1);
}

/// Push the decimal digits of `n`, zero-filled to at least `min` digits.
fn push_digits(out: &mut String, mut n: u64, min: usize) {
    let mut buf = [b'0'; 20];
    let mut i = buf.len();
    while n > 0 || buf.len() - i < min {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Push `n` right-aligned in `width` characters: `{n:>width$}`.
pub fn push_uint_right(out: &mut String, n: u64, width: usize) {
    right_aligned(out, width, |out| push_uint(out, n));
}

/// Push `x` with `decimals` fraction digits: exactly `{x:.decimals$}`.
///
/// For `decimals <= 6` and finite `x` it rounds `s = |x|·10^decimals`, one
/// rounded `f64` product, to an integer and writes its digits. That is the
/// exact decimal rounding `core::fmt` does unless the product's rounding
/// moved `s` across a tie `n + 1/2`. Below `2^52` every tie is an `f64`,
/// so `s` lies on a tie or a whole number of its ulps away from one, while
/// the product is off by at most half an ulp: only an `s` on a tie is in
/// doubt. `core::fmt` takes every `s` within one ulp of a tie (a margin
/// that scales with `s`), non-finite `x`, `s >= 2^52`, and a negative `x`
/// that rounds to zero (printed `-0.00`).
pub fn push_fixed(out: &mut String, x: f64, decimals: usize) {
    if let Some(&scale) = POW10.get(decimals) {
        let s = x.abs() * scale;
        if s < TWO_POW_52 {
            let rounded = s.round();
            let near_tie = (s - s.floor() - 0.5).abs() <= s * f64::EPSILON;
            let negative_zero = rounded == 0.0 && x.is_sign_negative();
            if !(near_tie || negative_zero) {
                if x < 0.0 {
                    out.push('-');
                }
                let r = rounded as u64;
                let unit = scale as u64;
                push_uint(out, r / unit);
                if decimals > 0 {
                    out.push('.');
                    push_digits(out, r % unit, decimals);
                }
                return;
            }
        }
    }
    let _ = write!(out, "{x:.decimals$}");
}

/// Push `x` right-aligned in `width` characters: `{x:>width$.decimals$}`.
pub fn push_fixed_right(out: &mut String, x: f64, decimals: usize, width: usize) {
    right_aligned(out, width, |out| push_fixed(out, x, decimals));
}

/// Run `write`, then pad what it appended on the left to `width`
/// characters. The field is shifted once, by the pad's length.
fn right_aligned(out: &mut String, width: usize, write: impl FnOnce(&mut String)) {
    let start = out.len();
    write(out);
    let len = out[start..].chars().count();
    if len < width {
        let mut pad = width - len;
        while pad > 0 {
            let k = pad.min(SPACES.len());
            out.insert_str(start, &SPACES[..k]);
            pad -= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn fixed(x: f64, d: usize) -> String {
        let mut s = String::new();
        push_fixed(&mut s, x, d);
        s
    }

    fn assert_fixed(x: f64) {
        for d in 0..=6 {
            assert_eq!(
                fixed(x, d),
                format!("{x:.d$}"),
                "{x:e} ({:#x}) at {d}",
                x.to_bits()
            );
        }
    }

    /// `x` moved `k` ulps up (`k > 0`) or down, within the finite values.
    fn nudge(x: f64, k: i64) -> f64 {
        let bits = x.to_bits() as i64 + if x < 0.0 { -k } else { k };
        let y = f64::from_bits(bits as u64);
        if y.is_finite() {
            y
        } else {
            x
        }
    }

    /// Draws of every shape the fast path must get right or hand off.
    struct Float;

    impl Strategy for Float {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
            match rng.below(6) {
                // Raw bit patterns: NaN, infinities, subnormals, huge.
                0 => f64::from_bits(rng.next_u64()),
                1 => [0.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 5e-324]
                    [rng.below(5) as usize]
                    .copysign(sign),
                2 => sign * f64::from_bits(rng.below(1 << 52)),
                // Around and past 2^52 once scaled.
                3 => sign * (1e15 + rng.unit_f64() * 9e16),
                // Values a report prints: small, mostly below 10^4.
                4 => sign * rng.unit_f64() * 10f64.powi(rng.below(8) as i32 - 3),
                // Ties `(n + 1/2) / 10^d` nudged a few ulps, for `n` up to 10^13.
                _ => {
                    let d = rng.below(7) as i32;
                    let n = (rng.next_u64() >> rng.below(64)) % 10_000_000_000_000;
                    let tie = (n as f64 + 0.5) / 10f64.powi(d);
                    sign * nudge(tie, rng.below(9) as i64 - 4)
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn push_fixed_matches_core_fmt(x in Float) {
            assert_fixed(x);
        }

        #[test]
        fn pads_match_core_fmt(
            s in prop::collection::vec(prop::sample::select(vec!['a', ' ', '-', 'é', '€']), 0..12)
                .prop_map(|cs| cs.into_iter().collect::<String>()),
            width in 0usize..150,
            n in any::<u64>(),
            shift in 0u32..64,
        ) {
            let mut out = String::from("|");
            pad_left(&mut out, &s, width);
            pad_right(&mut out, &s, width);
            push_uint_right(&mut out, n >> shift, width);
            push_spaces(&mut out, width);
            let n = n >> shift;
            prop_assert_eq!(out, format!("|{s:>width$}{s:<width$}{n:>width$}{:width$}", ""));
        }
    }

    #[test]
    fn push_fixed_hands_every_hard_case_to_core_fmt() {
        for x in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            2.5,
            0.125,
            0.145,
            -0.001,
            -0.0049,
            0.0049,
            1e-7,
            -1e-7,
            9.9999995,
            99.995,
            12_345.678_9,
            4503599627370495.5,
            4503599627370496.0,
            1e300,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -5e-324,
        ] {
            assert_fixed(x);
        }
        // Past the fast path's six decimals, `core::fmt` writes them all.
        assert_eq!(fixed(0.1, 9), "0.100000000");
        assert_eq!(fixed(-2.0, 17), format!("{:.17}", -2.0));
    }

    #[test]
    fn push_fixed_matches_core_fmt_on_every_tie_below_ten() {
        // Every `n + 1/2` at each scale, nudged across it: the rounding of
        // the product is in doubt on exactly these.
        for d in 0..=6i32 {
            let scale = 10f64.powi(d);
            for n in 0..(10 * scale as u64).min(50_000) {
                let tie = (n as f64 + 0.5) / scale;
                for k in -2..=2 {
                    let x = nudge(tie, k);
                    for x in [x, -x] {
                        assert_eq!(fixed(x, d as usize), format!("{x:.*}", d as usize), "{x:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn right_alignment_pads_past_one_run_of_spaces() {
        let mut out = String::new();
        push_fixed_right(&mut out, -1.25, 2, 150);
        assert_eq!(out, format!("{:>150.2}", -1.25));
        let mut out = String::new();
        pad_right(&mut out, "x", 200);
        assert_eq!(out, format!("{:<200}", "x"));
    }
}
