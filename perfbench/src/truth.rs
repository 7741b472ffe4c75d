//! Ground truth for accuracy: a noiseless, fault-free bisection to 1e-9 on
//! the same device, through the public tester and search API. Runs outside
//! every timed phase.

use cichar_ate::{Ate, MeasuredParam, PreparedTest};
use cichar_dut::Device;
use cichar_search::{FnOracle, SuccessiveApproximation};
use cichar_units::{ParamKind, ParamRange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bisection resolution of the reference trip points.
const RESOLUTION: f64 = 1e-9;

/// The noiseless trip point of `test` on `device` for `param`, searched
/// exactly as a characterization would (with §4 relaxation), or `None` if
/// the generous range holds no transition.
pub fn trip_point(device: &Device, test: &PreparedTest<'_>, param: MeasuredParam) -> Option<f64> {
    let mut ate = Ate::noiseless(device.clone());
    let mut oracle = ate.trip_oracle_prepared(test, param, Vec::new());
    SuccessiveApproximation::new(param.generous_range(), RESOLUTION)
        .run(param.region_order(), &mut oracle)
        .trip_point
}

/// The noiseless strobe trip point of `test` with the supply forced to
/// `vdd` — the truth behind one shmoo row.
pub fn strobe_trip_at_vdd(
    device: &Device,
    test: &PreparedTest<'_>,
    vdd: f64,
    range: ParamRange,
) -> Option<f64> {
    let mut ate = Ate::noiseless(device.clone());
    let oracle = FnOracle::new(|strobe| {
        ate.measure_features(
            test.features(),
            test.pattern_cycles(),
            test.test(),
            &[
                (ParamKind::StrobeDelay, strobe),
                (ParamKind::SupplyVoltage, vdd),
            ],
        )
        .is_pass()
    });
    SuccessiveApproximation::new(range, RESOLUTION)
        .run(MeasuredParam::DataValidTime.region_order(), oracle)
        .trip_point
}

/// A seed-chosen systematic sample of at most `k` indices out of `n`:
/// every `stride`-th index from a seeded offset.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let stride = n.div_ceil(k);
    let offset = StdRng::seed_from_u64(seed).gen_range(0..stride);
    (offset..n).step_by(stride).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_seeded_and_bounded() {
        let a = sample_indices(1000, 100, 3);
        assert_eq!(a, sample_indices(1000, 100, 3));
        assert!(a.len() <= 100 && a.len() >= 99);
        assert!(a.iter().all(|&i| i < 1000));
        assert_eq!(sample_indices(5, 100, 1), vec![0, 1, 2, 3, 4]);
    }
}
