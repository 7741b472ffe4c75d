//! Measurement noise.

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Gaussian measurement noise, per parameter, applied at every strobe.
///
/// Real ATE comparators and timing generators jitter; §1 lists inaccurate
/// readings among the pitfalls of slow searches. The defaults model a
/// well-maintained production tester.
///
/// # Examples
///
/// ```
/// use cichar_ate::NoiseModel;
///
/// let quiet = NoiseModel::noiseless();
/// assert_eq!(quiet.t_dq_sigma(), 0.0);
/// let real = NoiseModel::default();
/// assert!(real.t_dq_sigma() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    t_dq_sigma: f64,
    f_max_sigma: f64,
    vdd_min_sigma: f64,
}

impl NoiseModel {
    /// Creates a noise model with explicit sigmas (ns, MHz, V).
    ///
    /// # Panics
    ///
    /// Panics if any sigma is negative or non-finite.
    pub fn new(t_dq_sigma: f64, f_max_sigma: f64, vdd_min_sigma: f64) -> Self {
        for s in [t_dq_sigma, f_max_sigma, vdd_min_sigma] {
            assert!(s.is_finite() && s >= 0.0, "invalid sigma {s}");
        }
        Self {
            t_dq_sigma,
            f_max_sigma,
            vdd_min_sigma,
        }
    }

    /// A perfectly quiet tester (unit tests use this to assert physics).
    pub fn noiseless() -> Self {
        Self::new(0.0, 0.0, 0.0)
    }

    /// Whether every sigma is zero, making verdicts a pure function of the
    /// stimulus (the memoization cache is only sound in this regime).
    pub fn is_noiseless(&self) -> bool {
        self.t_dq_sigma == 0.0 && self.f_max_sigma == 0.0 && self.vdd_min_sigma == 0.0
    }

    /// Timing-strobe jitter sigma in nanoseconds.
    pub fn t_dq_sigma(&self) -> f64 {
        self.t_dq_sigma
    }

    /// Clock-generator sigma in megahertz.
    pub fn f_max_sigma(&self) -> f64 {
        self.f_max_sigma
    }

    /// Supply-forcing sigma in volts.
    pub fn vdd_min_sigma(&self) -> f64 {
        self.vdd_min_sigma
    }

    /// Draws one noise sample with the given sigma.
    pub(crate) fn sample<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 0.0;
        }
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * sigma
    }

    /// Advances `rng` exactly as [`NoiseModel::sample`] would — one
    /// `next_u64` per uniform, none at zero sigma — without the math.
    pub(crate) fn skip<R: RngCore + ?Sized>(rng: &mut R, sigma: f64) {
        if sigma != 0.0 {
            rng.next_u64();
            rng.next_u64();
        }
    }

    /// The noisy reading of `limit` for a strobe compared against
    /// `forced`: `limit + sample(rng, sigma)` when the draw could move the
    /// reading across `forced`, and otherwise `limit` itself with the draw
    /// [skipped](NoiseModel::skip). Either way the comparison against
    /// `forced` and the state of `rng` afterwards are bit-identical to
    /// adding the sample.
    pub(crate) fn read<R: RngCore + ?Sized>(
        rng: &mut R,
        limit: f64,
        forced: f64,
        sigma: f64,
    ) -> f64 {
        if Self::decides(limit, forced, sigma) {
            Self::skip(rng, sigma);
            limit
        } else {
            limit + Self::sample(rng, sigma)
        }
    }

    /// Whether no draw of [`NoiseModel::sample`] can change which side of
    /// `forced` the reading `limit + noise` falls on.
    ///
    /// Proof. `sample` draws `u1 >= ε` (`f64::EPSILON`), so every draw is
    /// `√(−2 ln u1)·cos(·)·σ` with `√(−2 ln ε) = 8.4904…`; rounding the
    /// few operations costs a relative ~1e-15 (far inside the 8.4904 → 8.5
    /// slack) plus at most 2⁻¹⁰⁷⁵ absolute if the product is subnormal.
    /// Hence `|n| < 8.5σ + 2⁻¹⁰⁷⁴` for the computed `n`.
    ///
    /// Write `a = limit`, `b = forced`, both finite. The tester compares
    /// `b` against `fl(a + n)` with `<=` or `>=`. Round-to-nearest is
    /// monotone and `b` is a double, so `fl(a + n)` lands strictly on
    /// `a`'s side of `b` once the real `a + n` clears `b` by more than the
    /// gap `u(b)` from `b` to its neighbour on that side, and
    /// `u(b) <= max(ε|b|, 2⁻¹⁰⁷⁴)` (an overflow to ±∞ stays on that side
    /// too). So `|a − b| > 8.5σ + ε|b| + 2⁻¹⁰⁷³` suffices. The computed
    /// `fl(a − b)` has the sign of `a − b` and exceeds it in magnitude by
    /// at most `(ε/2)(|a| + |b|)`, so the test below suffices. Its slack —
    /// `0.5σ + 0.5ε(|a| + |b|)` plus `MIN_POSITIVE − 2⁻¹⁰⁷³` — covers the
    /// bound's own rounding (relative 2ε, or 2⁻¹⁰⁷⁵ absolute per
    /// subnormal operation).
    ///
    /// A sigma-only test `|a − b| > 9σ` is not enough: with `σ` below an
    /// ulp of `a`, a draw near −8.4σ can round `b + ulp` down onto `b`.
    /// A NaN anywhere, an infinite `a` or `b`, or a bound that overflows
    /// makes the test false, so those strobes draw exactly as before.
    fn decides(limit: f64, forced: f64, sigma: f64) -> bool {
        (limit - forced).abs()
            > 9.0 * sigma
                + 2.0 * f64::EPSILON * (limit.abs() + forced.abs())
                + f64::MIN_POSITIVE
    }
}

impl Default for NoiseModel {
    /// 50 ps timing jitter, 0.1 MHz clock accuracy, 2 mV supply accuracy.
    fn default() -> Self {
        Self::new(0.05, 0.1, 0.002)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_samples_are_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(NoiseModel::sample(&mut rng, 0.0), 0.0);
        }
    }

    #[test]
    fn samples_have_requested_spread() {
        let mut rng = StdRng::seed_from_u64(2);
        let sigma = 0.05;
        let n = 5000;
        let samples: Vec<f64> = (0..n).map(|_| NoiseModel::sample(&mut rng, sigma)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.01, "std {}", var.sqrt());
    }

    #[test]
    fn skip_advances_the_stream_like_sample() {
        for sigma in [0.0, 1e-15, 0.05, 50.0] {
            let mut drawn = StdRng::seed_from_u64(3);
            let mut skipped = drawn.clone();
            let _ = NoiseModel::sample(&mut drawn, sigma);
            NoiseModel::skip(&mut skipped, sigma);
            assert_eq!(drawn, skipped, "sigma {sigma}");
        }
    }

    /// The largest draw the sampler can produce: `u1 = ε`, `cos = 1`.
    fn extreme_draw(sigma: f64) -> f64 {
        (-2.0 * f64::EPSILON.ln()).sqrt() * sigma
    }

    /// Both comparisons the tester makes between a reading and a forced
    /// value.
    fn sides(reading: f64, forced: f64) -> (bool, bool) {
        (forced <= reading, reading <= forced)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Soundness against adversarial draws: whenever the screen
        /// fires, every noise value the sampler can produce — both
        /// extremes and anything between — reads on the same side of the
        /// forced value as the noiseless limit. Margins straddle the bound
        /// from ulp-scale to far, at every sigma scale.
        #[test]
        fn screen_is_sound_for_every_possible_draw(
            sigma_exp in -18.0f64..2.0,
            forced in -60.0f64..60.0,
            margin in (-2.0f64..2.0, -8i32..=8),
            frac in -1.0f64..=1.0,
        ) {
            let sigma = 10f64.powf(sigma_exp);
            let (scale, ulps) = margin;
            let bound = 9.0 * sigma + 4.0 * f64::EPSILON * forced.abs();
            let mut limit = forced + scale * bound;
            for _ in 0..ulps.unsigned_abs() {
                limit = if ulps > 0 { limit.next_up() } else { limit.next_down() };
            }
            if NoiseModel::decides(limit, forced, sigma) {
                let extreme = extreme_draw(sigma);
                for n in [extreme, -extreme, frac * extreme] {
                    prop_assert_eq!(
                        sides(limit + n, forced),
                        sides(limit, forced),
                        "limit {:e} forced {:e} sigma {:e} n {:e}",
                        limit,
                        forced,
                        sigma,
                        n
                    );
                }
            }
        }
    }

    #[test]
    fn sigma_only_screen_would_be_unsound_at_ulp_scale() {
        let forced = 30.0_f64;
        let limit = forced.next_up();
        let sigma = (limit - forced) / 9.5;
        let draw = -8.4 * sigma;
        assert!(draw.abs() < extreme_draw(sigma), "a draw the sampler can make");
        assert!(limit - forced > 9.0 * sigma, "a sigma-only test would screen");
        assert_eq!(limit + draw, forced, "yet the reading lands on the forced value");
        assert!(!NoiseModel::decides(limit, forced, sigma));
    }

    #[test]
    fn non_finite_operands_are_never_screened() {
        for (limit, forced) in [
            (f64::NAN, 30.0),
            (30.0, f64::NAN),
            (f64::INFINITY, 30.0),
            (f64::NEG_INFINITY, 30.0),
            (30.0, f64::INFINITY),
            (f64::INFINITY, f64::INFINITY),
            (f64::MAX, -f64::MAX),
        ] {
            assert!(!NoiseModel::decides(limit, forced, 0.05), "{limit} vs {forced}");
        }
        assert!(!NoiseModel::decides(1.0, 0.0, f64::MAX), "overflowing bound");
        assert!(NoiseModel::decides(40.0, 30.0, 0.05), "far strobes are screened");
    }

    #[test]
    #[should_panic(expected = "invalid sigma")]
    fn rejects_negative_sigma() {
        let _ = NoiseModel::new(-0.1, 0.0, 0.0);
    }

    #[test]
    fn default_is_quieter_than_resolutions() {
        // Noise must not swamp the search resolutions or trip points
        // become unrepeatable.
        let n = NoiseModel::default();
        assert!(n.t_dq_sigma() <= 0.05 + 1e-12);
        assert!(n.f_max_sigma() <= 0.25);
        assert!(n.vdd_min_sigma() <= 0.005);
    }
}
