//! The multilayer perceptron.
//!
//! Each layer keeps its weights and momentum buffers in one flat,
//! input-major buffer, and training runs in scratch buffers the network
//! owns, so a backpropagation step allocates nothing. Every floating-point
//! operation happens in the order of the nested-row layout that weight
//! files still use, so a seed trains to the same bits; the tests check this
//! against that layout's implementation, kept in `mlp/reference.rs`.

use crate::activation::Activation;
use crate::dataset::NeuralError;
use rand::Rng;
use serde::{Deserialize, Serialize, Value};

#[cfg(test)]
mod reference;

/// One fully-connected layer.
///
/// `weights[i * neurons + j]` is the weight from input `i` to neuron `j`:
/// input-major, so the forward pass streams one input's row across every
/// neuron and the backward pass reads the same row for its column sum.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    weights: Vec<f64>,
    biases: Vec<f64>,
    activation: Activation,
    /// Momentum buffers, laid out like `weights`/`biases`.
    weight_velocity: Vec<f64>,
    bias_velocity: Vec<f64>,
}

impl Layer {
    fn new<R: Rng + ?Sized>(
        inputs: usize,
        neurons: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        // Xavier/Glorot uniform initialization keeps activations in the
        // responsive region of tanh/sigmoid at the start of training.
        let limit = (6.0 / (inputs + neurons) as f64).sqrt();
        // Draw neuron by neuron, so a seed gives the same network as the
        // nested-row layout did.
        let mut weights = vec![0.0; inputs * neurons];
        for j in 0..neurons {
            for i in 0..inputs {
                weights[i * neurons + j] = rng.gen_range(-limit..limit);
            }
        }
        Self {
            weights,
            biases: vec![0.0; neurons],
            activation,
            weight_velocity: vec![0.0; inputs * neurons],
            bias_velocity: vec![0.0; neurons],
        }
    }

    fn neurons(&self) -> usize {
        self.biases.len()
    }

    fn inputs(&self) -> usize {
        self.weights.len() / self.neurons()
    }

    /// Writes the activated outputs for `input` into `out`.
    ///
    /// Each neuron's sum starts at `-0.0`, the seed of `Iterator::sum` for
    /// `f64`, adds `w * x` for the inputs in order and then the bias: the
    /// same operations, in the same order, as a per-neuron dot product.
    fn forward(&self, input: &[f64], out: &mut [f64]) {
        out.fill(-0.0);
        for (row, &x) in self.weights.chunks_exact(out.len()).zip(input) {
            for (z, &w) in out.iter_mut().zip(row) {
                *z += w * x;
            }
        }
        for (z, &b) in out.iter_mut().zip(&self.biases) {
            *z = self.activation.apply(*z + b);
        }
    }

    /// The weight file's nested-row form of this layer.
    fn to_rows(&self) -> LayerRows {
        let m = self.neurons();
        let rows = |flat: &[f64]| -> Vec<Vec<f64>> {
            (0..m)
                .map(|j| flat[j..].iter().step_by(m).copied().collect())
                .collect()
        };
        LayerRows {
            weights: rows(&self.weights),
            biases: self.biases.clone(),
            activation: self.activation,
            weight_velocity: rows(&self.weight_velocity),
            bias_velocity: self.bias_velocity.clone(),
        }
    }

    /// Flattens a weight file's layer, which must map `inputs` to
    /// `neurons`.
    fn from_rows(rows: LayerRows, inputs: usize, neurons: usize) -> Result<Self, String> {
        let flat = |name: &str, nested: &[Vec<f64>]| {
            if nested.len() != neurons || nested.iter().any(|row| row.len() != inputs) {
                return Err(format!("{name} must be {neurons} rows of {inputs}"));
            }
            let mut flat = vec![0.0; inputs * neurons];
            for (j, row) in nested.iter().enumerate() {
                for (i, &w) in row.iter().enumerate() {
                    flat[i * neurons + j] = w;
                }
            }
            Ok(flat)
        };
        let weights = flat("weights", &rows.weights)?;
        let weight_velocity = flat("weight_velocity", &rows.weight_velocity)?;
        if rows.biases.len() != neurons || rows.bias_velocity.len() != neurons {
            return Err(format!(
                "biases and bias_velocity must hold {neurons} values"
            ));
        }
        Ok(Self {
            weights,
            biases: rows.biases,
            activation: rows.activation,
            weight_velocity,
            bias_velocity: rows.bias_velocity,
        })
    }
}

/// A layer as weight files store it: `weights[j][i]` is the weight from
/// input `i` to neuron `j`.
#[derive(Serialize, Deserialize)]
struct LayerRows {
    weights: Vec<Vec<f64>>,
    biases: Vec<f64>,
    activation: Activation,
    weight_velocity: Vec<Vec<f64>>,
    bias_velocity: Vec<f64>,
}

/// A network as weight files store it.
#[derive(Serialize, Deserialize)]
struct MlpRows {
    layers: Vec<LayerRows>,
    topology: Vec<usize>,
}

/// Runs every layer on `input`, leaving the layers' outputs end to end in
/// `acts`.
///
/// # Panics
///
/// Panics if `input` has the wrong width.
fn forward(layers: &[Layer], input: &[f64], acts: &mut [f64]) {
    let width = layers[0].inputs();
    assert_eq!(
        input.len(),
        width,
        "input width {} != network width {width}",
        input.len()
    );
    let mut start = 0;
    for layer in layers {
        let (done, rest) = acts.split_at_mut(start);
        let x = if start == 0 {
            input
        } else {
            &done[start - layer.inputs()..]
        };
        layer.forward(x, &mut rest[..layer.neurons()]);
        start += layer.neurons();
    }
}

/// Mean of `(y − t)²` over one sample's outputs.
fn squared_error(output: &[f64], target: &[f64]) -> f64 {
    let mut sum = -0.0;
    for (y, t) in output.iter().zip(target) {
        sum += (y - t).powi(2);
    }
    sum / output.len() as f64
}

/// [`Mlp::mse`] with `acts` as the forward pass's scratch.
fn mse_in(layers: &[Layer], inputs: &[Vec<f64>], targets: &[Vec<f64>], acts: &mut [f64]) -> f64 {
    assert_eq!(inputs.len(), targets.len(), "aligned rows");
    if inputs.is_empty() {
        return 0.0;
    }
    let out_width = layers[layers.len() - 1].neurons();
    let mut total = -0.0;
    for (x, t) in inputs.iter().zip(targets) {
        forward(layers, x, acts);
        total += squared_error(&acts[acts.len() - out_width..], t);
    }
    total / inputs.len() as f64
}

/// A feedforward network trained with backpropagation and momentum.
///
/// Hidden layers use tanh; the output layer is sigmoid, matching the
/// normalized `[0, 1]` targets the characterization stack trains on
/// (trip-point values scaled by [`MinMaxScaler`](crate::MinMaxScaler), or
/// fuzzy membership grades which are `[0, 1]` by construction).
///
/// Deserializing checks the weight file's shape: every layer must be
/// rectangular and agree with `topology`, with biases and momentum buffers
/// sized to match.
///
/// # Examples
///
/// ```
/// use cichar_neural::Mlp;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mlp = Mlp::new(&[3, 5, 2], &mut rng)?;
/// let out = mlp.predict(&[0.1, 0.5, 0.9]);
/// assert_eq!(out.len(), 2);
/// assert!(out.iter().all(|y| (0.0..=1.0).contains(y)));
/// # Ok::<(), cichar_neural::NeuralError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    topology: Vec<usize>,
    /// Training scratch, not part of the network's value: every layer's
    /// outputs end to end, and the deltas of the layer being updated and
    /// of the one below it.
    acts: Vec<f64>,
    delta: Vec<f64>,
    back: Vec<f64>,
}

impl PartialEq for Mlp {
    fn eq(&self, other: &Self) -> bool {
        self.layers == other.layers && self.topology == other.topology
    }
}

impl Serialize for Mlp {
    fn to_value(&self) -> Value {
        MlpRows {
            layers: self.layers.iter().map(Layer::to_rows).collect(),
            topology: self.topology.clone(),
        }
        .to_value()
    }
}

impl Deserialize for Mlp {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let MlpRows { layers, topology } = MlpRows::from_value(v)?;
        if topology.len() < 2 || topology.contains(&0) {
            return Err(serde::Error::custom(NeuralError::BadTopology.to_string()));
        }
        if layers.len() != topology.len() - 1 {
            return Err(serde::Error::custom(format!(
                "topology {topology:?} needs {} layers, found {}",
                topology.len() - 1,
                layers.len()
            )));
        }
        let layers = layers
            .into_iter()
            .zip(topology.windows(2))
            .enumerate()
            .map(|(l, (rows, w))| {
                Layer::from_rows(rows, w[0], w[1]).map_err(|e| format!("layer {l}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(serde::Error::custom)?;
        Ok(Self::from_layers(layers, topology))
    }
}

impl Mlp {
    /// Creates a network with the given layer widths, e.g. `[17, 16, 8, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadTopology`] for fewer than two layers or a
    /// zero-width layer.
    pub fn new<R: Rng + ?Sized>(topology: &[usize], rng: &mut R) -> Result<Self, NeuralError> {
        if topology.len() < 2 || topology.contains(&0) {
            return Err(NeuralError::BadTopology);
        }
        let last = topology.len() - 2;
        let layers = topology
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i == last {
                    Activation::Sigmoid
                } else {
                    Activation::Tanh
                };
                Layer::new(w[0], w[1], act, rng)
            })
            .collect();
        Ok(Self::from_layers(layers, topology.to_vec()))
    }

    /// Wraps shape-checked layers, sizing the training scratch once.
    fn from_layers(layers: Vec<Layer>, topology: Vec<usize>) -> Self {
        let widest = topology[1..].iter().copied().max().unwrap_or(0);
        Self {
            acts: vec![0.0; topology[1..].iter().sum()],
            delta: vec![0.0; widest],
            back: vec![0.0; widest],
            layers,
            topology,
        }
    }

    /// The layer widths this network was built with.
    pub fn topology(&self) -> &[usize] {
        &self.topology
    }

    /// Expected input width.
    pub fn input_width(&self) -> usize {
        self.topology[0]
    }

    /// Output width.
    pub fn output_width(&self) -> usize {
        *self.topology.last().expect("topology has >= 2 entries")
    }

    /// Runs the network forward.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong width.
    pub fn predict(&self, input: &[f64]) -> Vec<f64> {
        let mut acts = vec![0.0; self.acts.len()];
        forward(&self.layers, input, &mut acts);
        acts.drain(..acts.len() - self.output_width());
        acts
    }

    /// Mean squared error over a set of `(input, target)` pairs.
    pub fn mse(&self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        let mut acts = vec![0.0; self.acts.len()];
        mse_in(&self.layers, inputs, targets, &mut acts)
    }

    /// [`Self::mse`] in the network's own scratch, for the training loop.
    pub(crate) fn mse_with_scratch(&mut self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        mse_in(&self.layers, inputs, targets, &mut self.acts)
    }

    /// One backpropagation step on a single sample, with momentum and L2
    /// weight decay: each weight also moves toward zero by
    /// `learning_rate * weight_decay * w`, the classic regularizer against
    /// over-fitting small noisy trip-point datasets (0 disables it).
    ///
    /// Returns the sample's squared error before the update.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `target` has the wrong width.
    pub fn train_sample_decay(
        &mut self,
        input: &[f64],
        target: &[f64],
        learning_rate: f64,
        momentum: f64,
        weight_decay: f64,
    ) -> f64 {
        assert_eq!(
            target.len(),
            self.output_width(),
            "target width {} != network width {}",
            target.len(),
            self.output_width()
        );
        let Self {
            layers,
            acts,
            delta,
            back,
            ..
        } = self;
        forward(layers, input, acts);
        let output = &acts[acts.len() - target.len()..];
        let sample_error = squared_error(output, target);

        // Backward pass: delta for the output layer is (y − t)·f'(y).
        let out_act = layers[layers.len() - 1].activation;
        for ((d, &y), &t) in delta.iter_mut().zip(output).zip(target) {
            *d = (y - t) * out_act.derivative_from_output(y);
        }

        let mut end = acts.len();
        for li in (0..layers.len()).rev() {
            let (below, this) = layers.split_at_mut(li);
            let layer = &mut this[0];
            let m = layer.neurons();
            let start = end - m;
            let x = if li == 0 {
                input
            } else {
                &acts[start - layer.inputs()..start]
            };
            let d = &delta[..m];
            let below_act = below.last().map(|l| l.activation);
            for (i, &xi) in x.iter().enumerate() {
                let row = i * m..(i + 1) * m;
                // The layer below's delta sums this input's row over the
                // neurons in order, from the weights before this update.
                if let Some(act) = below_act {
                    let mut sum = -0.0;
                    for (&w, &dj) in layer.weights[row.clone()].iter().zip(d) {
                        sum += w * dj;
                    }
                    back[i] = sum * act.derivative_from_output(xi);
                }
                let weights = layer.weights[row.clone()].iter_mut();
                let velocities = layer.weight_velocity[row].iter_mut();
                for ((w, v), &dj) in weights.zip(velocities).zip(d) {
                    *v = momentum * *v - learning_rate * (dj * xi + weight_decay * *w);
                    *w += *v;
                }
            }
            let biases = layer.biases.iter_mut().zip(&mut layer.bias_velocity);
            for ((b, v), &dj) in biases.zip(d) {
                *v = momentum * *v - learning_rate * dj;
                *b += *v;
            }
            std::mem::swap(delta, back);
            end = start;
        }
        sample_error
    }

    /// Sum of squared weights across all layers (biases excluded) — the
    /// quantity weight decay shrinks. Sums neuron by neuron, as the
    /// nested-row layout did.
    pub fn weight_norm(&self) -> f64 {
        let mut sum = -0.0;
        for layer in &self.layers {
            let m = layer.neurons();
            for j in 0..m {
                for w in layer.weights[j..].iter().step_by(m) {
                    sum += w * w;
                }
            }
        }
        sum
    }

    /// Checked prediction for callers holding runtime-sized inputs.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InputWidth`] instead of panicking.
    pub fn try_predict(&self, input: &[f64]) -> Result<Vec<f64>, NeuralError> {
        if input.len() != self.input_width() {
            return Err(NeuralError::InputWidth {
                expected: self.input_width(),
                got: input.len(),
            });
        }
        Ok(self.predict(input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn topology_validation() {
        let mut r = rng();
        assert!(matches!(Mlp::new(&[3], &mut r), Err(NeuralError::BadTopology)));
        assert!(matches!(
            Mlp::new(&[3, 0, 1], &mut r),
            Err(NeuralError::BadTopology)
        ));
        assert!(Mlp::new(&[3, 1], &mut r).is_ok());
    }

    #[test]
    fn output_is_sigmoid_bounded() {
        let mut r = rng();
        let mlp = Mlp::new(&[4, 6, 3], &mut r).expect("valid");
        let y = mlp.predict(&[10.0, -10.0, 3.0, 0.0]);
        assert!(y.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn predict_panics_on_wrong_width() {
        let mut r = rng();
        let mlp = Mlp::new(&[4, 2], &mut r).expect("valid");
        let _ = mlp.predict(&[1.0]);
    }

    #[test]
    fn try_predict_reports_width_error() {
        let mut r = rng();
        let mlp = Mlp::new(&[4, 2], &mut r).expect("valid");
        assert_eq!(
            mlp.try_predict(&[1.0]),
            Err(NeuralError::InputWidth { expected: 4, got: 1 })
        );
        assert!(mlp.try_predict(&[0.0; 4]).is_ok());
    }

    #[test]
    fn training_reduces_error_on_linear_map() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[1, 6, 1], &mut r).expect("valid");
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![0.2 + 0.6 * x[0]]).collect();
        let before = mlp.mse(&inputs, &targets);
        for _ in 0..500 {
            for (x, t) in inputs.iter().zip(&targets) {
                mlp.train_sample_decay(x, t, 0.3, 0.5, 0.0);
            }
        }
        let after = mlp.mse(&inputs, &targets);
        assert!(after < before / 10.0, "{before} -> {after}");
        assert!(after < 1e-3, "final mse {after}");
    }

    #[test]
    fn learns_xor_with_momentum() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[2, 8, 1], &mut r).expect("valid");
        let data = [
            ([0.0, 0.0], [0.0]),
            ([0.0, 1.0], [1.0]),
            ([1.0, 0.0], [1.0]),
            ([1.0, 1.0], [0.0]),
        ];
        for _ in 0..4000 {
            for (x, t) in &data {
                mlp.train_sample_decay(x, t, 0.6, 0.7, 0.0);
            }
        }
        for (x, t) in &data {
            let y = mlp.predict(x)[0];
            assert!(
                (y - t[0]).abs() < 0.25,
                "xor({x:?}) = {y}, want {}",
                t[0]
            );
        }
    }

    #[test]
    fn weight_decay_shrinks_the_weight_norm() {
        let make = || Mlp::new(&[2, 12, 1], &mut StdRng::seed_from_u64(21)).expect("valid");
        let data: Vec<([f64; 2], [f64; 1])> = (0..16)
            .map(|i| {
                let x = i as f64 / 15.0;
                ([x, 1.0 - x], [0.3 + 0.4 * x])
            })
            .collect();
        let mut plain = make();
        let mut decayed = make();
        for _ in 0..300 {
            for (x, t) in &data {
                plain.train_sample_decay(x, t, 0.2, 0.5, 0.0);
                decayed.train_sample_decay(x, t, 0.2, 0.5, 1e-3);
            }
        }
        assert!(
            decayed.weight_norm() < plain.weight_norm(),
            "{} vs {}",
            decayed.weight_norm(),
            plain.weight_norm()
        );
        // And it still fits the function.
        let inputs: Vec<Vec<f64>> = data.iter().map(|(x, _)| x.to_vec()).collect();
        let targets: Vec<Vec<f64>> = data.iter().map(|(_, t)| t.to_vec()).collect();
        assert!(decayed.mse(&inputs, &targets) < 5e-3);
    }

    #[test]
    fn mse_is_zero_for_perfect_prediction() {
        let mut r = rng();
        let mlp = Mlp::new(&[2, 1], &mut r).expect("valid");
        let x = vec![vec![0.3, 0.4]];
        let y = vec![mlp.predict(&x[0])];
        assert!(mlp.mse(&x, &y) < 1e-15);
    }

    #[test]
    fn networks_with_same_seed_are_identical() {
        let a = Mlp::new(&[3, 4, 1], &mut StdRng::seed_from_u64(11)).expect("valid");
        let b = Mlp::new(&[3, 4, 1], &mut StdRng::seed_from_u64(11)).expect("valid");
        assert_eq!(a, b);
        assert_eq!(a.predict(&[0.1, 0.2, 0.3]), b.predict(&[0.1, 0.2, 0.3]));
    }

    const PINNED_JSON: &str = r#"{"layers":[{"weights":[[-0.44632624847996233,0.262512091517248],[-0.8784253181818396,-0.9225698264584624],[0.05739305975499277,0.43974492970297574]],"biases":[-0.018859993804766,-0.06387586613705717,0.005827584437539073],"activation":"Tanh","weight_velocity":[[0.014990383544785076,0.006837273959671339],[0.015790864333371908,0.01685035810513818],[-0.0034637922991127617,-0.002129067374013091]],"bias_velocity":[0.004333085125825652,-0.009227646613948093,-0.0005603119086731588]},{"weights":[[-0.08733044849547264,-0.9076926392319351,0.8244923984336802],[0.772401715332456,0.8599128352565195,0.8607296618496119]],"biases":[0.025946346919352988,-0.018680566588364967],"activation":"Sigmoid","weight_velocity":[[0.009217487088976416,0.02926914821644928,-0.006925827815045079],[-0.007977626373371495,-0.023476228802400023,0.004684820864016025]],"bias_velocity":[-0.009947085725998419,0.008883789027704342]}],"topology":[2,3,2]}"#;

    #[test]
    fn serialized_form_is_pinned() {
        // Pinned before the flat-buffer layout: weight files keep the
        // nested-row shape, byte for byte.
        let mut mlp = Mlp::new(&[2, 3, 2], &mut StdRng::seed_from_u64(5)).expect("valid");
        mlp.train_sample_decay(&[0.25, -0.5], &[0.9, 0.1], 0.3, 0.6, 1e-3);
        mlp.train_sample_decay(&[1.0, 0.0], &[0.2, 0.7], 0.3, 0.6, 1e-3);
        let json = serde_json::to_string(&mlp).expect("serializes");
        assert_eq!(json, PINNED_JSON);
        let back: Mlp = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, mlp);
        assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
    }

    /// Parses `PINNED_JSON` with `from` replaced by `to`; the result must
    /// be an error that mentions `why`.
    fn assert_rejected(from: &str, to: &str, why: &str) {
        assert!(PINNED_JSON.contains(from), "fixture lacks {from}");
        let bad = PINNED_JSON.replacen(from, to, 1);
        match serde_json::from_str::<Mlp>(&bad) {
            Ok(_) => panic!("accepted a malformed network: {bad}"),
            Err(e) => assert!(e.to_string().contains(why), "{e}"),
        }
    }

    #[test]
    fn rejects_a_ragged_weight_row() {
        assert_rejected(
            "[[-0.44632624847996233,0.262512091517248],",
            "[[-0.44632624847996233],",
            "layer 0: weights must be 3 rows of 2",
        );
    }

    #[test]
    fn rejects_a_layer_that_disagrees_with_the_topology() {
        assert_rejected(
            r#""topology":[2,3,2]"#,
            r#""topology":[2,4,2]"#,
            "layer 0: weights must be 4 rows of 2",
        );
    }

    #[test]
    fn rejects_a_missing_layer() {
        assert_rejected(
            r#""topology":[2,3,2]"#,
            r#""topology":[2,3,2,1]"#,
            "needs 3 layers, found 2",
        );
    }

    #[test]
    fn rejects_a_bad_topology() {
        assert_rejected(r#""topology":[2,3,2]"#, r#""topology":[2,0,2]"#, "topology");
    }

    #[test]
    fn rejects_missized_biases() {
        assert_rejected(
            r#""biases":[0.025946346919352988,-0.018680566588364967]"#,
            r#""biases":[0.025946346919352988]"#,
            "layer 1: biases and bias_velocity must hold 2 values",
        );
    }

    #[test]
    fn rejects_a_missized_weight_velocity() {
        assert_rejected(
            r#""weight_velocity":[[0.009217487088976416,0.02926914821644928,-0.006925827815045079],"#,
            r#""weight_velocity":["#,
            "layer 1: weight_velocity must be 2 rows of 3",
        );
    }

    #[test]
    fn rejects_a_missized_bias_velocity() {
        assert_rejected(
            r#""bias_velocity":[0.004333085125825652,"#,
            r#""bias_velocity":[0.5,0.004333085125825652,"#,
            "layer 0: biases and bias_velocity must hold 3 values",
        );
    }

    fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
        values.into_iter().map(f64::to_bits).collect()
    }

    fn row_bits(rows: &[Vec<f64>]) -> Vec<u64> {
        bits(rows.iter().flatten().copied())
    }

    /// `[n, 1]`, `[n, h, k]` with a multi-output (fuzzy-coded) layer, and
    /// the Table 1 topology.
    const TOPOLOGIES: [&[usize]; 5] = [&[1, 1], &[6, 1], &[4, 5, 3], &[3, 7, 2], &[17, 16, 8, 1]];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn flat_network_matches_the_nested_reference(
            seed in 0u64..1 << 40,
            shape in 0usize..TOPOLOGIES.len(),
            steps in 1usize..60,
            decay in 0usize..3,
            learning_rate in 0.01f64..0.9,
            momentum in 0.0f64..0.9
        ) {
            let topology = TOPOLOGIES[shape];
            let weight_decay = [0.0, 1e-4, 3e-2][decay];
            let mut flat = Mlp::new(topology, &mut StdRng::seed_from_u64(seed)).expect("valid");
            let mut nested = reference::Mlp::new(topology, &mut StdRng::seed_from_u64(seed));

            // Exact zeros among the inputs exercise signed-zero sums.
            let mut data_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut draw = |width: usize, lo: f64| -> Vec<f64> {
                (0..width)
                    .map(|_| if data_rng.gen_bool(0.2) { 0.0 } else { data_rng.gen_range(lo..1.0) })
                    .collect()
            };
            let inputs: Vec<Vec<f64>> = (0..9).map(|_| draw(topology[0], -1.0)).collect();
            let width = topology[topology.len() - 1];
            let targets: Vec<Vec<f64>> = (0..9).map(|_| draw(width, 0.0)).collect();

            for step in 0..steps {
                let (x, t) = (&inputs[step % 9], &targets[step % 9]);
                let a = flat.train_sample_decay(x, t, learning_rate, momentum, weight_decay);
                let b = nested.train_sample_decay(x, t, learning_rate, momentum, weight_decay);
                prop_assert_eq!(a.to_bits(), b.to_bits(), "sample error at step {}", step);
            }
            for (l, (flat, nested)) in flat.layers.iter().map(Layer::to_rows).zip(&nested.layers).enumerate() {
                prop_assert_eq!(row_bits(&flat.weights), row_bits(&nested.weights), "layer {} weights", l);
                prop_assert_eq!(row_bits(&flat.weight_velocity), row_bits(&nested.weight_velocity), "layer {} velocities", l);
                prop_assert_eq!(bits(flat.biases), bits(nested.biases.clone()), "layer {} biases", l);
                prop_assert_eq!(bits(flat.bias_velocity), bits(nested.bias_velocity.clone()), "layer {} bias velocities", l);
            }
            let probe = draw(topology[0], -1.0);
            prop_assert_eq!(bits(flat.predict(&probe)), bits(nested.predict(&probe)));
            prop_assert_eq!(flat.mse(&inputs, &targets).to_bits(), nested.mse(&inputs, &targets).to_bits());
            prop_assert_eq!(flat.weight_norm().to_bits(), nested.weight_norm().to_bits());
        }
    }

    #[test]
    fn accessors_report_shape() {
        let mlp = Mlp::new(&[17, 16, 8, 1], &mut rng()).expect("valid");
        assert_eq!(mlp.input_width(), 17);
        assert_eq!(mlp.output_width(), 1);
        assert_eq!(mlp.topology(), &[17, 16, 8, 1]);
    }
}
