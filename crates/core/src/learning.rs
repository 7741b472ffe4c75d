//! The fig. 4 learning scheme: intelligent device characterization
//! learning with the (simulated) industrial ATE.
//!
//! The loop of fig. 4, step by step:
//!
//! 1. the random test generator presents tests to the ATE and the neural
//!    modules continuously;
//! 2. each test's trip point is measured — the first through eq. (2), the
//!    rest through eqs. (3)/(4) (search-until-trip-point);
//! 3. the trip point is coded — fuzzy set data or simple numerical coding
//!    (§5 step 3) — and the committee learns under ATE supervision;
//! 4. learnability and generalization are checked; on failure the loop
//!    returns to step 1 and gathers more measured tests;
//! 5. the resulting weight file (here: the [`LearnedModel`]) feeds the
//!    optimization phase's test generator.

use crate::dsv::{MultiTripRunner, SearchStrategy};
use crate::encode::{TestEncoder, INPUT_WIDTH};
use crate::wcr::CharacterizationObjective;
use cichar_ate::{Ate, MeasuredParam};
use cichar_fuzzy::coding::{CodingScheme, TripPointCoder};
use cichar_neural::{Committee, Dataset, MinMaxScaler, TrainConfig};
use cichar_patterns::{random, ConditionSpace, Test};
use cichar_search::TripPrediction;
use cichar_trace::{TraceEvent, Tracer};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration of the learning scheme.
///
/// The paper's full run applied 50 000 patterns on the ATE; the default
/// here is laptop-sized (see `DESIGN.md` §6 — same code path, scaled
/// budget).
#[derive(Debug, Clone, PartialEq)]
pub struct LearningConfig {
    /// Random tests measured on the ATE per gathering round.
    pub tests_per_round: usize,
    /// Maximum gathering rounds before giving up on the checks.
    pub max_rounds: usize,
    /// Committee size (fig. 4's "multiple NNs").
    pub committee_size: usize,
    /// Hidden-layer widths of each member.
    pub hidden: Vec<usize>,
    /// Trip-point coding (§5 step 3).
    pub coding: CodingScheme,
    /// The characterized parameter.
    pub param: MeasuredParam,
    /// The drift objective defining WCR.
    pub objective: CharacterizationObjective,
    /// Condition space for test randomization and input normalization.
    pub space: ConditionSpace,
    /// Whether random tests also randomize conditions (fig. 8 needs it)
    /// or stay at nominal (Table 1's fixed Vdd = 1.8 V).
    pub vary_conditions: bool,
    /// Backprop hyper-parameters.
    pub train: TrainConfig,
}

impl Default for LearningConfig {
    fn default() -> Self {
        Self {
            tests_per_round: 150,
            max_rounds: 3,
            committee_size: 5,
            hidden: vec![16, 8],
            coding: CodingScheme::Numeric,
            param: MeasuredParam::DataValidTime,
            objective: CharacterizationObjective::drift_to_minimum(20.0),
            space: ConditionSpace::default(),
            vary_conditions: false,
            train: TrainConfig::default(),
        }
    }
}

/// The learning scheme's product: the trained committee plus everything
/// the optimization phase needs to use it (fig. 4's "NN weight file").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnedModel {
    /// The trained voting committee.
    pub committee: Committee,
    /// The trip-point coder (defines the target vectors and severity).
    pub coder: TripPointCoder,
    /// Target normalization for numeric coding: WCR values observed in
    /// training span only a sliver of the unit interval, so they are
    /// min-max stretched to give backpropagation a usable gradient.
    pub wcr_scaler: MinMaxScaler,
    /// The input encoder.
    pub encoder: TestEncoder,
    /// The WCR objective used for labelling.
    pub objective: CharacterizationObjective,
    /// The reference trip point established by the first full search.
    pub reference_trip_point: f64,
    /// ATE-measured training samples gathered.
    pub dataset_size: usize,
    /// Total ATE measurements spent on learning.
    pub measurements_used: u64,
    /// Gathering rounds run.
    pub rounds: usize,
    /// Whether the final committee passed both checks.
    pub accepted: bool,
}

impl LearnedModel {
    /// Writes the model as pretty JSON — fig. 4's "a NN weight file is
    /// generated. This file will be used in classification task of worst
    /// case test based on only software computation".
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization errors.
    pub fn save_weight_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, json)
    }

    /// Loads a weight file written by [`Self::save_weight_file`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization errors.
    pub fn load_weight_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Predicts a test's severity and the vote's confidence — pure
    /// software, no measurement, as fig. 4 step (5) requires.
    ///
    /// Severity is monotone in predicted WCR but scheme-relative: numeric
    /// codings report the scaler-normalized WCR, fuzzy codings the coder's
    /// band-weighted severity. Both rank candidates identically well;
    /// only rankings (not absolute severities) cross scheme boundaries.
    pub fn predict_severity(&self, test: &Test) -> (f64, f64) {
        let x = self.encoder.encode(test);
        let vote = self.committee.vote(&x);
        let severity = match self.coder.scheme() {
            CodingScheme::Numeric => vote.mean.first().copied().unwrap_or(0.0),
            CodingScheme::Fuzzy => self.coder.severity(&vote.mean),
        };
        (severity, vote.confidence())
    }

    /// Inverts the committee's vote back into a predicted trip point for
    /// one test — pure software, no measurement — so a warm-started STP
    /// walk can seed its window from the test's *own* predicted trip
    /// instead of the shared reference.
    ///
    /// The inversion chain for numeric coding: vote mean (scaler space) →
    /// [`MinMaxScaler::inverse`] → WCR →
    /// [`CharacterizationObjective::value_for_wcr`] → trip point. The
    /// committee's vote spread rides along the same chain (evaluated at
    /// mean ± one standard deviation) so the planner's trust band works in
    /// parameter units.
    ///
    /// Returns `None` when the committee failed its acceptance checks
    /// (fig. 4 sends such a model back for more data, not into
    /// production) or when the coding is fuzzy — band memberships rank
    /// severity but do not locate a point value.
    pub fn predict_trip(&self, test: &Test) -> Option<TripPrediction> {
        if !self.accepted || self.coder.scheme() != CodingScheme::Numeric {
            return None;
        }
        let x = self.encoder.encode(test);
        let vote = self.committee.vote(&x);
        let z = *vote.mean.first()?;
        let dz = vote.std_dev.first().copied().unwrap_or(0.0);
        let trip = self.objective.value_for_wcr(self.wcr_scaler.inverse(z));
        // The chain is monotone, so mean ± σ brackets the spread; the
        // half-width is the uncertainty in parameter units. A vote
        // straddling WCR = 0 under eq. 6 turns the spread infinite, which
        // the planner correctly distrusts.
        let lo = self.objective.value_for_wcr(self.wcr_scaler.inverse(z - dz));
        let hi = self.objective.value_for_wcr(self.wcr_scaler.inverse(z + dz));
        Some(TripPrediction {
            trip_point: trip,
            spread: 0.5 * (hi - lo).abs(),
        })
    }
}

impl fmt::Display for LearnedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "learned model: {} members, {} samples, {} measurements, accepted={}",
            self.committee.size(),
            self.dataset_size,
            self.measurements_used,
            self.accepted
        )
    }
}

/// Runs the fig. 4 scheme.
///
/// # Examples
///
/// See [`crate::compare`] for the end-to-end pipeline; unit-scale runs
/// live in this module's tests.
#[derive(Debug, Clone, PartialEq)]
pub struct LearningScheme {
    config: LearningConfig,
}

impl LearningScheme {
    /// Creates the scheme.
    ///
    /// # Panics
    ///
    /// Panics on a zero test budget or zero committee.
    pub fn new(config: LearningConfig) -> Self {
        assert!(config.tests_per_round >= 4, "needs tests to learn from");
        assert!(config.committee_size >= 1, "needs at least one network");
        assert!(config.max_rounds >= 1, "needs at least one round");
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &LearningConfig {
        &self.config
    }

    /// Runs learning against the tester.
    ///
    /// # Panics
    ///
    /// Panics if no trip point converges at all (a mis-ranged setup).
    pub fn run<R: Rng + ?Sized>(&self, ate: &mut Ate, rng: &mut R) -> LearnedModel {
        self.run_traced(ate, rng, &Tracer::disabled())
    }

    /// [`run`](Self::run) with per-test measurement spans and one
    /// [`TraceEvent::CommitteeEpochFinished`] campaign event per training
    /// round recorded into `tracer`.
    ///
    /// # Panics
    ///
    /// Panics if no trip point converges at all (a mis-ranged setup).
    pub fn run_traced<R: Rng + ?Sized>(
        &self,
        ate: &mut Ate,
        rng: &mut R,
        tracer: &Tracer,
    ) -> LearnedModel {
        let c = &self.config;
        let coder = TripPointCoder::new(c.coding);
        let encoder = TestEncoder::new(c.space.clone());
        let runner = MultiTripRunner::new(c.param);
        let start_ledger = *ate.ledger();

        let mut inputs: Vec<Vec<f64>> = Vec::new();
        let mut wcrs: Vec<f64> = Vec::new();
        let mut rtp: Option<f64> = None;
        let mut committee: Option<Committee> = None;
        let mut scaler = MinMaxScaler::with_bounds(0.0, 1.5);
        let mut rounds = 0;

        for _ in 0..c.max_rounds {
            rounds += 1;
            // Step 1: present random tests to ATE and network continuously.
            let tests: Vec<Test> = (0..c.tests_per_round)
                .map(|_| {
                    if c.vary_conditions {
                        random::random_test(rng, &c.space)
                    } else {
                        random::random_test_at(rng, cichar_patterns::TestConditions::nominal())
                    }
                })
                .collect();
            // Step 2: measure trip points (eq. 2 first, then eqs. 3/4).
            let report = runner.run_traced(ate, &tests, SearchStrategy::SearchUntilTrip, tracer);
            if rtp.is_none() {
                rtp = report.reference_trip_point;
            }
            // Step 3: code the trip points and grow the dataset.
            for (test, entry) in tests.iter().zip(&report.entries) {
                let Some(tp) = entry.trip_point else {
                    continue;
                };
                inputs.push(encoder.encode(test));
                wcrs.push(c.objective.wcr(tp));
            }
            if inputs.len() < 8 {
                continue;
            }
            // Numeric targets are min-max stretched over the observed WCR
            // band; fuzzy targets go through the band coder unchanged.
            scaler = MinMaxScaler::fit(wcrs.iter().copied());
            let targets: Vec<Vec<f64>> = wcrs
                .iter()
                .map(|&w| match c.coding {
                    CodingScheme::Numeric => vec![scaler.transform(w)],
                    CodingScheme::Fuzzy => coder.encode_wcr(w),
                })
                .collect();
            // Steps 1+4: train the voting committee; check learnability
            // and generalization; loop back for more data if rejected.
            let dataset =
                Dataset::new(inputs.clone(), targets).expect("aligned rows by construction");
            let mut topology = vec![INPUT_WIDTH];
            topology.extend_from_slice(&c.hidden);
            topology.push(coder.target_width());
            let trained = Committee::train(&topology, c.committee_size, &c.train, &dataset, rng)
                .expect("validated topology");
            let accepted = trained.accepted();
            tracer.emit_campaign(TraceEvent::CommitteeEpochFinished {
                epoch: rounds as u64 - 1,
                members: trained.size() as u64,
                train_error: trained.mean_validation_error(),
            });
            committee = Some(trained);
            if accepted {
                break;
            }
        }

        let committee = committee.expect("at least one round trains");
        let accepted = committee.accepted();
        LearnedModel {
            committee,
            coder,
            wcr_scaler: scaler,
            encoder,
            objective: c.objective,
            reference_trip_point: rtp.expect("at least one trip point must converge"),
            dataset_size: inputs.len(),
            measurements_used: ate.ledger().measurements_since(&start_ledger),
            rounds,
            accepted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_dut::MemoryDevice;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_config(coding: CodingScheme) -> LearningConfig {
        LearningConfig {
            tests_per_round: 60,
            max_rounds: 2,
            committee_size: 3,
            hidden: vec![12],
            coding,
            train: TrainConfig {
                epochs: 150,
                ..TrainConfig::default()
            },
            ..LearningConfig::default()
        }
    }

    fn learn(coding: CodingScheme, seed: u64) -> LearnedModel {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(seed);
        LearningScheme::new(tiny_config(coding)).run(&mut ate, &mut rng)
    }

    #[test]
    fn numeric_learning_is_accepted() {
        let model = learn(CodingScheme::Numeric, 1);
        assert!(model.accepted, "{model}");
        assert!(model.dataset_size >= 50);
        assert!(model.measurements_used > 0);
    }

    #[test]
    fn reference_trip_point_is_physical() {
        let model = learn(CodingScheme::Numeric, 2);
        assert!(
            (20.0..36.0).contains(&model.reference_trip_point),
            "rtp = {}",
            model.reference_trip_point
        );
    }

    #[test]
    fn severity_prediction_ranks_stress() {
        use cichar_patterns::{march, Test, TestVector};
        let model = learn(CodingScheme::Numeric, 3);
        let benign = Test::deterministic("march", march::march_c_minus(64));
        // An SSO storm: write then read alternating words in resonant bursts.
        let mut v = Vec::new();
        for i in 0..200u16 {
            let w = if i % 2 == 0 { 0x5555 } else { 0xAAAA };
            v.push(TestVector::write(i, w));
        }
        let mut i = 0u16;
        while v.len() < 990 {
            v.push(TestVector::write(200, 0));
            for _ in 0..12 {
                let w = if i.is_multiple_of(2) { 0x5555 } else { 0xAAAA };
                v.push(TestVector::read(i % 200, w));
                i = i.wrapping_add(1);
            }
        }
        let storm = Test::deterministic("storm", cichar_patterns::Pattern::new_clamped(v));
        let (benign_sev, _) = model.predict_severity(&benign);
        let (storm_sev, _) = model.predict_severity(&storm);
        assert!(
            storm_sev > benign_sev,
            "storm {storm_sev} must out-rank benign {benign_sev}"
        );
    }

    #[test]
    fn predicted_trip_lands_near_the_reference() {
        let model = learn(CodingScheme::Numeric, 1);
        let t = Test::deterministic("m", cichar_patterns::march::march_x(96));
        let p = model.predict_trip(&t).expect("accepted numeric model");
        assert!(p.trip_point.is_finite());
        assert!(p.spread.is_finite() && p.spread >= 0.0);
        // Deterministic nominal-condition tests trip within a few ns of
        // each other (fig. 2's band); the prediction must land in it.
        assert!(
            (p.trip_point - model.reference_trip_point).abs() < 8.0,
            "predicted {} vs rtp {}",
            p.trip_point,
            model.reference_trip_point
        );
    }

    #[test]
    fn predicted_trip_is_the_inverted_severity() {
        let model = learn(CodingScheme::Numeric, 2);
        let t = Test::deterministic("m", cichar_patterns::march::march_y(96));
        let p = model.predict_trip(&t).expect("accepted numeric model");
        let (severity, _) = model.predict_severity(&t);
        let wcr = model.wcr_scaler.inverse(severity);
        assert!(
            (model.objective.wcr(p.trip_point) - wcr).abs() < 1e-9,
            "trip {} must score the predicted WCR {wcr}",
            p.trip_point
        );
    }

    #[test]
    fn rejected_or_fuzzy_models_predict_no_trip() {
        let t = Test::deterministic("m", cichar_patterns::march::march_x(96));
        let mut model = learn(CodingScheme::Numeric, 1);
        model.accepted = false;
        assert_eq!(model.predict_trip(&t), None, "unaccepted committee");
        let fuzzy = learn(CodingScheme::Fuzzy, 4);
        assert_eq!(fuzzy.predict_trip(&t), None, "bands rank, not locate");
    }

    #[test]
    fn fuzzy_coding_learns_too() {
        let model = learn(CodingScheme::Fuzzy, 4);
        assert_eq!(model.coder.scheme(), CodingScheme::Fuzzy);
        assert!(model.dataset_size >= 50);
        // Fuzzy committees output one neuron per band.
        assert_eq!(
            model.committee.members()[0].output_width(),
            model.coder.target_width()
        );
    }

    #[test]
    fn prediction_needs_no_measurements() {
        let model = learn(CodingScheme::Numeric, 5);
        let before = model.measurements_used;
        let t = Test::deterministic("m", cichar_patterns::march::march_x(96));
        let _ = model.predict_severity(&t);
        // `predict_severity` has no tester access at all; the field is a
        // snapshot and cannot change.
        assert_eq!(model.measurements_used, before);
    }

    #[test]
    fn weight_file_round_trip_preserves_predictions() {
        let model = learn(CodingScheme::Numeric, 6);
        let dir = std::env::temp_dir().join("cichar_weight_file");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("weights.json");
        model.save_weight_file(&path).expect("save");
        let loaded = LearnedModel::load_weight_file(&path).expect("load");
        assert_eq!(loaded.committee, model.committee);
        let t = Test::deterministic("m", cichar_patterns::march::march_y(96));
        assert_eq!(loaded.predict_severity(&t), model.predict_severity(&t));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weight_file_load_rejects_garbage() {
        let dir = std::env::temp_dir().join("cichar_weight_file");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json at all").expect("write");
        assert!(LearnedModel::load_weight_file(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weight_file_load_rejects_malformed_networks() {
        let model = learn(CodingScheme::Numeric, 6);
        let dir = std::env::temp_dir().join("cichar_weight_file");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("malformed.json");
        model.save_weight_file(&path).expect("save");
        let json = std::fs::read_to_string(&path).expect("read");
        // One extra momentum entry on the first member's first layer.
        let key = "\"bias_velocity\": [";
        assert!(json.contains(key), "pretty weight file format changed");
        std::fs::write(&path, json.replacen(key, "\"bias_velocity\": [0.5, ", 1)).expect("write");
        let err = LearnedModel::load_weight_file(&path).expect_err("malformed member");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bias_velocity"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "needs tests to learn")]
    fn rejects_empty_budget() {
        let _ = LearningScheme::new(LearningConfig {
            tests_per_round: 0,
            ..LearningConfig::default()
        });
    }
}
