//! Host-pace normalization of timed phases.
//!
//! The host is shared. Other tenants slow the benchmark's vCPU by up to
//! 2× for stretches of seconds to minutes, so two runs of the same code
//! can differ that much in host seconds. A reference kernel written here
//! (no program code) runs before every timed campaign and after the last
//! one. A campaign's pace is the mean of its two bracketing kernel times
//! over the kernel's nominal time, raised to [`SENSITIVITY`], and every
//! host time taken in that campaign is reported divided by it: host
//! seconds at the nominal pace. A program change moves the campaign's
//! time but never the kernel's, so it shows in full.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's host seconds at the unloaded pace of a 2-vCPU KVM guest
/// (Xeon, 2.1 GHz), so that normalized times read close to that host's
/// seconds.
pub const NOMINAL_S: f64 = 4.0e-3;

/// How much harder contention slows the workloads than the kernel: a
/// campaign's host time grows about as the kernel's to this power. The
/// kernel is small and cache-resident; the campaigns are not. Fitted
/// over 16 runs (4 seeds × 4 workloads) on the host of [`NOMINAL_S`]
/// while its kernel time ranged over 1.0–1.7× nominal.
pub const SENSITIVITY: f64 = 1.5;

/// Samples in the kernel's training set.
const SAMPLES: usize = 256;
/// Inputs per sample.
const INPUTS: usize = 24;
/// Hidden tanh units.
const HIDDEN: usize = 16;
/// Training epochs.
const EPOCHS: usize = 12;
/// Steps of the branchy integer loop.
const BRANCH_STEPS: u64 = 400_000;

/// One xorshift64 step.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs the reference kernel once and returns its host seconds. It
/// mixes the two kinds of work the program does: floating-point neural
/// training and DUT physics (SGD on a small tanh network), and branchy
/// search control (a data-dependent integer loop).
pub fn kernel_s() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut uniform = || (xorshift(&mut x) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    let data: Vec<[f64; INPUTS]> = (0..SAMPLES)
        .map(|_| std::array::from_fn(|_| uniform()))
        .collect();
    let targets: Vec<f64> = (0..SAMPLES).map(|_| uniform()).collect();
    let mut w1 = [[0.0_f64; INPUTS]; HIDDEN];
    w1.iter_mut().flatten().for_each(|w| *w = 0.3 * uniform());
    let mut w2 = [0.0_f64; HIDDEN];
    w2.iter_mut().for_each(|w| *w = 0.3 * uniform());

    let started = Instant::now();
    for _ in 0..EPOCHS {
        for (input, &target) in black_box(&data).iter().zip(&targets) {
            let mut hidden = [0.0_f64; HIDDEN];
            for (h, row) in hidden.iter_mut().zip(&w1) {
                *h = row
                    .iter()
                    .zip(input)
                    .map(|(w, v)| w * v)
                    .sum::<f64>()
                    .tanh();
            }
            let out: f64 = w2.iter().zip(&hidden).map(|(w, h)| w * h).sum();
            let err = out - target;
            for ((w_out, h), row) in w2.iter_mut().zip(&hidden).zip(w1.iter_mut()) {
                let grad = err * *w_out * (1.0 - h * h);
                *w_out -= 0.01 * err * h;
                for (w, v) in row.iter_mut().zip(input) {
                    *w -= 0.01 * grad * v;
                }
            }
        }
    }
    black_box(&w1);
    let mut acc = 0_u64;
    let mut y = black_box(99_u64);
    for i in 0..BRANCH_STEPS {
        let r = xorshift(&mut y);
        if r & 3 == 0 {
            acc += i;
        } else if r & 5 == 1 {
            acc ^= r;
        } else {
            acc = acc.wrapping_mul(3);
        }
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Each campaign's pace from the kernel times around it: `kernel[i]` ran
/// just before campaign `i` and `kernel[i + 1]` just after it.
pub fn paces(kernel: &[f64]) -> Vec<f64> {
    kernel
        .windows(2)
        .map(|w| ((w[0] + w[1]) / 2.0 / NOMINAL_S).powf(SENSITIVITY))
        .collect()
}

/// `samples` taken evenly over the campaigns of `paces` (the same number
/// in each, in campaign order), each divided by its campaign's pace.
pub fn normalize(samples: &[f64], paces: &[f64]) -> Vec<f64> {
    assert!(
        !paces.is_empty() && samples.len().is_multiple_of(paces.len()),
        "{} samples do not spread evenly over {} campaigns",
        samples.len(),
        paces.len()
    );
    let per = samples.len() / paces.len();
    samples
        .iter()
        .enumerate()
        .map(|(j, s)| s / paces[j / per])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paces_average_the_bracketing_kernel_times() {
        let p = paces(&[NOMINAL_S, 7.0 * NOMINAL_S, NOMINAL_S]);
        assert_eq!(p, vec![4f64.powf(SENSITIVITY); 2]);
    }

    #[test]
    fn normalize_divides_each_campaign_by_its_pace() {
        assert_eq!(
            normalize(&[2.0, 4.0, 3.0, 9.0], &[2.0, 3.0]),
            vec![1.0, 2.0, 1.0, 3.0]
        );
    }

    #[test]
    fn the_kernel_takes_a_measurable_time() {
        let s = kernel_s();
        assert!(s > 0.0 && s < 1.0, "{s}");
    }
}
