//! The NN voting machine: bagged networks voting in parallel.

use crate::dataset::{Dataset, NeuralError};
use crate::mlp::Mlp;
use crate::train::{TrainConfig, TrainReport, Trainer};
use rand::Rng;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// One committee prediction: the member votes, their mean and spread.
///
/// Fig. 4's step (1): "to measure how confident the neural net is in its
/// classification, we propose to use the NN voting machine algorithm, such
/// that multiple NNs are trained on different subsets of the training input
/// tests, then vote in parallel on unknown input tests."
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vote {
    /// Mean of the member outputs (element-wise).
    pub mean: Vec<f64>,
    /// Standard deviation of the member outputs (element-wise).
    pub std_dev: Vec<f64>,
    /// Every member's raw output.
    pub members: Vec<Vec<f64>>,
}

impl Vote {
    /// Consistency-check confidence in `[0, 1]`: 1 when all members agree
    /// exactly, falling as the vote spread grows.
    pub fn confidence(&self) -> f64 {
        let spread =
            self.std_dev.iter().sum::<f64>() / self.std_dev.len().max(1) as f64;
        1.0 / (1.0 + 10.0 * spread)
    }
}

impl fmt::Display for Vote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vote mean {:?} (confidence {:.2})",
            self.mean,
            self.confidence()
        )
    }
}

/// A bagged committee of identically-shaped networks.
///
/// Each member trains on an independent bootstrap resample of the training
/// tests; prediction averages the member outputs, and the vote spread is
/// the consistency check of fig. 4's step (4).
///
/// Deserializing applies [`Committee::from_members`]'s checks, and a
/// trained committee's file must carry one report per member.
///
/// # Examples
///
/// ```
/// use cichar_neural::{Committee, Dataset, TrainConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let inputs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 59.0]).collect();
/// let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![1.0 - x[0]]).collect();
/// let data = Dataset::new(inputs, targets)?;
/// let committee = Committee::train(&[1, 8, 1], 5, &TrainConfig::default(), &data, &mut rng)?;
/// let vote = committee.vote(&[0.25]);
/// assert!((vote.mean[0] - 0.75).abs() < 0.1);
/// assert!(vote.confidence() > 0.5);
/// # Ok::<(), cichar_neural::NeuralError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Committee {
    members: Vec<Mlp>,
    reports: Vec<TrainReport>,
}

impl Deserialize for Committee {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Fields {
            members: Vec<Mlp>,
            reports: Vec<TrainReport>,
        }
        let Fields { members, reports } = Fields::from_value(v)?;
        let mut committee =
            Self::from_members(members).map_err(|e| serde::Error::custom(e.to_string()))?;
        if !reports.is_empty() && reports.len() != committee.size() {
            return Err(serde::Error::custom(format!(
                "{} reports for {} members",
                reports.len(),
                committee.size()
            )));
        }
        committee.reports = reports;
        Ok(committee)
    }
}

impl Committee {
    /// Trains `size` members of the given topology on bootstrap resamples.
    ///
    /// # Errors
    ///
    /// Propagates topology errors; `size` of zero is a topology error too.
    pub fn train<R: Rng + ?Sized>(
        topology: &[usize],
        size: usize,
        config: &TrainConfig,
        data: &Dataset,
        rng: &mut R,
    ) -> Result<Self, NeuralError> {
        if size == 0 {
            return Err(NeuralError::BadTopology);
        }
        let trainer = Trainer::new(*config);
        let mut members = Vec::with_capacity(size);
        let mut reports = Vec::with_capacity(size);
        for _ in 0..size {
            let subset = data.bootstrap(rng);
            let mut mlp = Mlp::new(topology, rng)?;
            let report = trainer.train(&mut mlp, &subset, rng);
            members.push(mlp);
            reports.push(report);
        }
        Ok(Self { members, reports })
    }

    /// Builds a committee from pre-trained members (used when re-loading a
    /// persisted weight file).
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadTopology`] when empty or heterogeneous.
    pub fn from_members(members: Vec<Mlp>) -> Result<Self, NeuralError> {
        if members.is_empty() {
            return Err(NeuralError::BadTopology);
        }
        let topo = members[0].topology().to_vec();
        if members.iter().any(|m| m.topology() != topo) {
            return Err(NeuralError::BadTopology);
        }
        Ok(Self {
            reports: Vec::new(),
            members,
        })
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The members' training reports (empty for re-loaded committees).
    pub fn reports(&self) -> &[TrainReport] {
        &self.reports
    }

    /// The members themselves.
    pub fn members(&self) -> &[Mlp] {
        &self.members
    }

    /// Average of the members' final validation errors — fig. 4's "the
    /// confidence in the classification is determined by averaging the
    /// mean error for each network".
    pub fn mean_validation_error(&self) -> f64 {
        if self.reports.is_empty() {
            return f64::NAN;
        }
        self.reports.iter().map(|r| r.final_val_mse).sum::<f64>() / self.reports.len() as f64
    }

    /// Whether every member passed both the learnability and the
    /// generalization check.
    pub fn accepted(&self) -> bool {
        !self.reports.is_empty() && self.reports.iter().all(TrainReport::accepted)
    }

    /// All members vote in parallel on an unknown input.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong width.
    pub fn vote(&self, input: &[f64]) -> Vote {
        let members: Vec<Vec<f64>> = self.members.iter().map(|m| m.predict(input)).collect();
        let width = members[0].len();
        let n = members.len() as f64;
        let mean: Vec<f64> = (0..width)
            .map(|i| members.iter().map(|v| v[i]).sum::<f64>() / n)
            .collect();
        let std_dev: Vec<f64> = (0..width)
            .map(|i| {
                let var =
                    members.iter().map(|v| (v[i] - mean[i]).powi(2)).sum::<f64>() / n;
                var.sqrt()
            })
            .collect();
        Vote {
            mean,
            std_dev,
            members,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_dataset(n: usize) -> Dataset {
        let inputs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![0.1 + 0.8 * x[0]]).collect();
        Dataset::new(inputs, targets).expect("valid")
    }

    #[test]
    fn committee_trains_and_votes() {
        let mut rng = StdRng::seed_from_u64(8);
        let c = Committee::train(&[1, 8, 1], 5, &TrainConfig::default(), &line_dataset(60), &mut rng)
            .expect("trains");
        assert_eq!(c.size(), 5);
        let v = c.vote(&[0.5]);
        assert!((v.mean[0] - 0.5).abs() < 0.1, "vote {v}");
        assert_eq!(v.members.len(), 5);
    }

    #[test]
    fn confident_on_trained_region() {
        let mut rng = StdRng::seed_from_u64(9);
        let c = Committee::train(&[1, 8, 1], 5, &TrainConfig::default(), &line_dataset(60), &mut rng)
            .expect("trains");
        assert!(c.vote(&[0.4]).confidence() > 0.6);
        assert!(c.accepted(), "all members should pass checks");
        assert!(c.mean_validation_error() < 0.01);
    }

    /// FNV-1a over the serialized committee: every member weight,
    /// velocity and bias (floats print in shortest round-trip form, so the
    /// text is bit-exact) plus every `TrainReport` history.
    fn fingerprint(c: &Committee) -> u64 {
        let json = serde_json::to_string(c).expect("serializes");
        json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn seeded_committee_training_is_pinned() {
        // Pinned before the flat-buffer MLP replaced the nested-row one:
        // training must reproduce every bit of the committee.
        let inputs: Vec<Vec<f64>> = (0..48)
            .map(|i| {
                let x = i as f64 / 47.0;
                vec![x, 1.0 - x, (3.0 * x).sin(), 0.5]
            })
            .collect();
        let targets: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| vec![0.2 + 0.6 * x[0] * x[0], 0.5 * x[2].abs()])
            .collect();
        let data = Dataset::new(inputs, targets).expect("valid");
        let config = TrainConfig {
            epochs: 120,
            weight_decay: 1e-4,
            ..TrainConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(13);
        let c = Committee::train(&[4, 6, 2], 5, &config, &data, &mut rng).expect("trains");
        assert_eq!(fingerprint(&c), 17_704_343_480_936_330_137);
    }

    #[test]
    fn zero_size_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            Committee::train(&[1, 1], 0, &TrainConfig::default(), &line_dataset(10), &mut rng),
            Err(NeuralError::BadTopology)
        ));
    }

    #[test]
    fn from_members_validates_homogeneity() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Mlp::new(&[2, 3, 1], &mut rng).expect("valid");
        let b = Mlp::new(&[2, 4, 1], &mut rng).expect("valid");
        assert!(matches!(
            Committee::from_members(vec![a.clone(), b]),
            Err(NeuralError::BadTopology)
        ));
        assert!(Committee::from_members(vec![]).is_err());
        let c = Committee::from_members(vec![a.clone(), a]).expect("homogeneous");
        assert_eq!(c.size(), 2);
        assert!(c.mean_validation_error().is_nan(), "no reports when re-loaded");
    }

    #[test]
    fn deserializing_rejects_malformed_committees() {
        let mut rng = StdRng::seed_from_u64(5);
        let c = Committee::train(&[1, 3, 1], 2, &TrainConfig::default(), &line_dataset(20), &mut rng)
            .expect("trains");
        let json = serde_json::to_string(&c).expect("serializes");
        assert_eq!(serde_json::from_str::<Committee>(&json).expect("parses"), c);

        let empty = r#"{"members":[],"reports":[]}"#;
        assert!(serde_json::from_str::<Committee>(empty).is_err());

        let other = Mlp::new(&[1, 4, 1], &mut rng).expect("valid");
        let mixed = Committee {
            members: vec![c.members[0].clone(), other],
            reports: Vec::new(),
        };
        let mixed = serde_json::to_string(&mixed).expect("serializes");
        assert!(serde_json::from_str::<Committee>(&mixed).is_err());

        let short = Committee {
            members: c.members.clone(),
            reports: c.reports[..1].to_vec(),
        };
        let short = serde_json::to_string(&short).expect("serializes");
        let err = serde_json::from_str::<Committee>(&short).expect_err("one report short");
        assert!(err.to_string().contains("1 reports for 2 members"), "{err}");
    }

    #[test]
    fn identical_members_vote_with_full_confidence() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Mlp::new(&[1, 3, 1], &mut rng).expect("valid");
        let c = Committee::from_members(vec![m.clone(), m.clone(), m]).expect("homogeneous");
        let v = c.vote(&[0.3]);
        assert!(v.std_dev[0] < 1e-15);
        assert!((v.confidence() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vote_display_mentions_confidence() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = Mlp::new(&[1, 2, 1], &mut rng).expect("valid");
        let c = Committee::from_members(vec![m]).expect("single member");
        assert!(c.vote(&[0.5]).to_string().contains("confidence"));
    }
}
