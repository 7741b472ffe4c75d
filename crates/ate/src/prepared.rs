//! Per-test hoisted measurement context.

use cichar_patterns::{PatternFeatures, Test};

/// Everything a trip-point search needs from a [`Test`], hoisted once:
/// the stimulus expanded to its vector stream, the pattern features
/// extracted, the cycle count and the content hash computed.
///
/// [`crate::TripOracle`] construction historically re-expanded the
/// pattern for every search — for program stimuli that is a full vector
/// expansion per search. A campaign that prepares its tests up front
/// ([`PreparedTest::new`] once per test) and hands the prepared context
/// to [`crate::Ate::trip_oracle_prepared`] performs no per-search
/// pattern work at all, mirroring how real ATE loads a pattern into
/// vector memory once and re-strobes it from there.
///
/// # Examples
///
/// ```
/// use cichar_ate::{Ate, MeasuredParam, PreparedTest};
/// use cichar_dut::MemoryDevice;
/// use cichar_patterns::{march, Test};
/// use cichar_search::{BinarySearch, RegionOrder};
///
/// let test = Test::deterministic("march_x", march::march_x(96));
/// let prepared = PreparedTest::new(&test);
/// let mut ate = Ate::noiseless(MemoryDevice::nominal());
/// let param = MeasuredParam::DataValidTime;
/// let search = BinarySearch::new(param.generous_range(), param.resolution());
/// let oracle = ate.trip_oracle_prepared(&prepared, param, Vec::new());
/// let outcome = search.run(param.region_order(), oracle);
/// assert!(outcome.converged);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PreparedTest<'t> {
    test: &'t Test,
    features: PatternFeatures,
    pattern_cycles: u64,
    pattern_hash: u64,
}

impl<'t> PreparedTest<'t> {
    /// Expands the test's stimulus once and captures the derived context.
    pub fn new(test: &'t Test) -> Self {
        let pattern = test.pattern();
        Self {
            test,
            features: PatternFeatures::extract(&pattern),
            pattern_cycles: pattern.len() as u64,
            pattern_hash: pattern.content_hash(),
        }
    }

    /// The prepared test.
    pub fn test(&self) -> &'t Test {
        self.test
    }

    /// The stimulus' extracted features.
    pub fn features(&self) -> &PatternFeatures {
        &self.features
    }

    /// Cycles one application of the pattern costs.
    pub fn pattern_cycles(&self) -> u64 {
        self.pattern_cycles
    }

    /// The pattern's stable content hash (memoization-key prefix).
    pub(crate) fn pattern_hash(&self) -> u64 {
        self.pattern_hash
    }

    /// The test's [`Test::identity`], from the hash computed at
    /// preparation instead of a fresh expansion.
    pub fn identity(&self) -> u64 {
        self.test.identity_from_hash(self.pattern_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_patterns::march;

    #[test]
    fn prepared_context_matches_fresh_expansion() {
        let test = Test::deterministic("march_c-", march::march_c_minus(64));
        let prepared = PreparedTest::new(&test);
        let pattern = test.pattern();
        assert_eq!(prepared.pattern_cycles(), pattern.len() as u64);
        assert_eq!(prepared.pattern_hash(), pattern.content_hash());
        assert_eq!(*prepared.features(), PatternFeatures::extract(&pattern));
        assert_eq!(prepared.identity(), test.identity());
        assert_eq!(prepared.test().name(), "march_c-");
    }
}
