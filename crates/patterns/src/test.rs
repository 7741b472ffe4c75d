//! The characterization test: stimulus plus conditions.

use crate::conditions::TestConditions;
use crate::pattern::Pattern;
use crate::program::SegmentProgram;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where a test came from — Table 1's *Technique* column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TestSource {
    /// Pre-defined deterministic pattern (March & friends).
    Deterministic,
    /// The refs-\[9\]\[10\] random test generator.
    Random,
    /// Proposed by the fuzzy-neural test generator (sub-optimal candidate).
    Neural,
    /// Produced by the genetic-algorithm optimization.
    NeuralGa,
}

impl fmt::Display for TestSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TestSource::Deterministic => "Deterministic",
            TestSource::Random => "Random",
            TestSource::Neural => "Neural",
            TestSource::NeuralGa => "Neural & Genetic",
        })
    }
}

/// The stimulus half of a test: either a compact program or raw vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stimulus {
    /// An ALPG segment program, expanded on demand.
    Program(SegmentProgram),
    /// An explicit vector list (used by the deterministic generators).
    Raw(Pattern),
}

impl Stimulus {
    /// Expands (or clones) into the concrete vector stream.
    pub fn pattern(&self) -> Pattern {
        match self {
            Stimulus::Program(p) => p.expand(),
            Stimulus::Raw(p) => p.clone(),
        }
    }
}

/// A complete characterization test: name, provenance, stimulus and
/// conditions.
///
/// This is the unit the whole pipeline moves around — what the ATE executes
/// (eq. 1's `T_n`), what the NN learns from, what the GA evolves, and what
/// the worst-case database stores.
///
/// # Examples
///
/// ```
/// use cichar_patterns::{march, Test, TestSource};
///
/// let test = Test::deterministic("march_c-", march::march_c_minus(64));
/// assert_eq!(test.source(), TestSource::Deterministic);
/// assert_eq!(test.pattern().len(), 640);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Test {
    name: String,
    source: TestSource,
    stimulus: Stimulus,
    conditions: TestConditions,
}

impl Test {
    /// Creates a test from an explicit pattern.
    pub fn new(
        name: impl Into<String>,
        source: TestSource,
        pattern: Pattern,
        conditions: TestConditions,
    ) -> Self {
        Self {
            name: name.into(),
            source,
            stimulus: Stimulus::Raw(pattern),
            conditions,
        }
    }

    /// Creates a test from a segment program.
    pub fn from_program(
        name: impl Into<String>,
        source: TestSource,
        program: SegmentProgram,
        conditions: TestConditions,
    ) -> Self {
        Self {
            name: name.into(),
            source,
            stimulus: Stimulus::Program(program),
            conditions,
        }
    }

    /// Convenience: a deterministic test at nominal conditions.
    pub fn deterministic(name: impl Into<String>, pattern: Pattern) -> Self {
        Self::new(
            name,
            TestSource::Deterministic,
            pattern,
            TestConditions::nominal(),
        )
    }

    /// The test's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Provenance of the test.
    pub fn source(&self) -> TestSource {
        self.source
    }

    /// The stimulus, unexpanded.
    pub fn stimulus(&self) -> &Stimulus {
        &self.stimulus
    }

    /// The concrete vector stream this test applies.
    pub fn pattern(&self) -> Pattern {
        self.stimulus.pattern()
    }

    /// The environmental conditions this test runs at.
    pub fn conditions(&self) -> &TestConditions {
        &self.conditions
    }

    /// Returns a copy with different conditions (used when shmooing the
    /// same stimulus across a voltage axis).
    pub fn with_conditions(&self, conditions: TestConditions) -> Self {
        Self {
            conditions,
            ..self.clone()
        }
    }

    /// Returns a copy re-labelled with a new name and source (used when the
    /// GA promotes a candidate into the worst-case database).
    pub fn relabel(&self, name: impl Into<String>, source: TestSource) -> Self {
        Self {
            name: name.into(),
            source,
            ..self.clone()
        }
    }

    /// Stable identity for deduplication: stimulus hash plus quantized
    /// conditions.
    pub fn identity(&self) -> u64 {
        self.identity_from_hash(self.pattern().content_hash())
    }

    /// [`Self::identity`] from a pattern hash the caller already holds:
    /// `pattern_hash` must be this test's `pattern().content_hash()`. A
    /// prepared test computes that hash once and passes it here instead of
    /// expanding the stimulus again.
    pub fn identity_from_hash(&self, pattern_hash: u64) -> u64 {
        let mix = |h: u64, v: u64| {
            (h ^ v)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(31)
        };
        let q = |x: f64| (x * 1000.0).round() as i64 as u64;
        let mut h = pattern_hash;
        h = mix(h, q(self.conditions.vdd.value()));
        h = mix(h, q(self.conditions.temperature.value()));
        h = mix(h, q(self.conditions.clock.value()));
        h
    }
}

impl fmt::Display for Test {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] @ {}",
            self.name, self.source, self.conditions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::march;
    use crate::program::{AddrMode, DataMode, OpMode, Segment, SegmentProgram};
    use cichar_units::Volts;

    fn program_test() -> Test {
        let seg = Segment::new(
            OpMode::ReadOnly,
            AddrMode::Hold,
            DataMode::Constant(0),
            100,
            0,
        )
        .expect("valid");
        Test::from_program(
            "prog",
            TestSource::Random,
            SegmentProgram::new(vec![seg]).expect("valid"),
            TestConditions::nominal(),
        )
    }

    #[test]
    fn deterministic_constructor_sets_nominal_conditions() {
        let t = Test::deterministic("m", march::march_x(96));
        assert_eq!(*t.conditions(), TestConditions::nominal());
        assert_eq!(t.source(), TestSource::Deterministic);
        assert_eq!(t.name(), "m");
    }

    #[test]
    fn program_stimulus_expands_lazily() {
        let t = program_test();
        assert_eq!(t.pattern().len(), 100);
        assert!(matches!(t.stimulus(), Stimulus::Program(_)));
    }

    #[test]
    fn with_conditions_changes_only_conditions() {
        let t = program_test();
        let moved = t.with_conditions(TestConditions::nominal().with_vdd(Volts::new(1.6)));
        assert_eq!(moved.pattern(), t.pattern());
        assert_eq!(moved.conditions().vdd.value(), 1.6);
    }

    #[test]
    fn relabel_changes_name_and_source() {
        let t = program_test().relabel("wc_001", TestSource::NeuralGa);
        assert_eq!(t.name(), "wc_001");
        assert_eq!(t.source(), TestSource::NeuralGa);
    }

    #[test]
    fn identity_distinguishes_conditions() {
        let t = program_test();
        let moved = t.with_conditions(TestConditions::nominal().with_vdd(Volts::new(1.6)));
        assert_ne!(t.identity(), moved.identity());
        assert_eq!(t.identity(), program_test().identity());
    }

    #[test]
    fn display_mentions_name_and_technique() {
        let s = program_test().to_string();
        assert!(s.contains("prog") && s.contains("Random"), "{s}");
    }

    #[test]
    fn source_display_matches_table1_vocabulary() {
        assert_eq!(TestSource::NeuralGa.to_string(), "Neural & Genetic");
        assert_eq!(TestSource::Deterministic.to_string(), "Deterministic");
    }

    #[test]
    fn test_serde_round_trip() {
        let t = program_test();
        let json = serde_json::to_string(&t).expect("serialize");
        let back: Test = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, t);
    }
}
