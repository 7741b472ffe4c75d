//! Pinned digest of pattern expansion, hashing and feature extraction.
//!
//! A seeded corpus — random programs looped more than once, GA gene
//! strings at the extremes of their per-locus bounds, and the March
//! suite — is expanded, hashed, identified and feature-extracted. One
//! FNV-1a digest covers every vector, every `content_hash`, every
//! `Test::identity` and every `PatternFeatures` field by bit pattern, so
//! any change to what these functions compute moves it. The pinned value
//! was recorded before expansion stopped copying the power-up image.

use cichar_patterns::{
    march, random, ConditionSpace, MemOp, Pattern, PatternFeatures, SegmentProgram, Test,
    TestSource,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The digest of [`corpus`] recorded on the reference implementation.
const PINNED_DIGEST: u64 = 0x236b_a1a8_adb2_7904;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Random programs with 2..=10 loops, gene strings whose every locus sits
/// at its lower or upper bound (or one step inside it), and March tests.
fn corpus() -> Vec<Test> {
    let mut rng = StdRng::seed_from_u64(0x5EED_D16E);
    let space = ConditionSpace::default();
    let mut tests = Vec::new();
    for i in 0..300u16 {
        let program = random::random_program(&mut rng).with_loops(2 + i % 9);
        tests.push(Test::from_program(
            format!("random_{i}"),
            TestSource::Random,
            program,
            space.sample(&mut rng),
        ));
    }
    let bounds = SegmentProgram::gene_bounds();
    for i in 0..300 {
        let genes: Vec<u32> = bounds
            .iter()
            .map(|&(lo, hi)| match rng.gen_range(0..4) {
                0 => lo,
                1 => hi,
                2 => lo.saturating_add(1).min(hi),
                _ => hi.saturating_sub(1).max(lo),
            })
            .collect();
        let program = SegmentProgram::from_genes(&genes).expect("bounded genes decode");
        tests.push(Test::from_program(
            format!("ga_{i}"),
            TestSource::NeuralGa,
            program,
            space.sample(&mut rng),
        ));
    }
    for (name, pattern) in march::standard_suite() {
        tests.push(Test::deterministic(name, pattern));
    }
    for n in [1u16, 33, 500] {
        tests.push(Test::deterministic("march_c-", march::march_c_minus(n)));
        tests.push(Test::deterministic("march_y", march::march_y(n)));
        tests.push(Test::deterministic("checkerboard", march::checkerboard(n)));
    }
    tests
}

fn digest_of(tests: &[Test]) -> u64 {
    let mut h = Fnv::new();
    for test in tests {
        let pattern: Pattern = test.pattern();
        h.u64(pattern.len() as u64);
        for v in pattern.iter() {
            let op = match v.op {
                MemOp::Write => 1,
                MemOp::Read => 2,
                MemOp::Nop => 3,
            };
            h.u64(op << 32 | u64::from(v.address) << 16 | u64::from(v.data));
        }
        h.u64(pattern.content_hash());
        h.u64(test.identity());
        for x in PatternFeatures::extract(&pattern).to_vec() {
            h.u64(x.to_bits());
        }
    }
    h.0
}

#[test]
fn corpus_covers_long_looped_and_truncated_programs() {
    let tests = corpus();
    let lens: Vec<usize> = tests.iter().map(|t| t.pattern().len()).collect();
    assert!(
        lens.contains(&cichar_patterns::MAX_PATTERN_LEN),
        "truncation reached"
    );
    assert!(
        lens.contains(&cichar_patterns::MIN_PATTERN_LEN),
        "padding reached"
    );
}

#[test]
fn expansion_hash_identity_and_features_are_pinned() {
    let digest = digest_of(&corpus());
    assert_eq!(
        digest, PINNED_DIGEST,
        "expansion/hash/identity/feature digest moved: {digest:#018x}"
    );
}
