//! The nested-row MLP that [`super::Mlp`] replaced, kept as a test oracle.
//!
//! Its arithmetic is the original implementation's, unchanged: one
//! `Vec<f64>` per neuron, a fresh `Vec` per layer output, and `Iterator::sum`
//! for every dot product. The flat network must match it bit for bit.

use super::LayerRows as Layer;
use crate::activation::Activation;
use rand::Rng;

impl Layer {
    fn new<R: Rng + ?Sized>(
        inputs: usize,
        neurons: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let limit = (6.0 / (inputs + neurons) as f64).sqrt();
        let weights = (0..neurons)
            .map(|_| (0..inputs).map(|_| rng.gen_range(-limit..limit)).collect())
            .collect();
        Self {
            weights,
            biases: vec![0.0; neurons],
            activation,
            weight_velocity: vec![vec![0.0; inputs]; neurons],
            bias_velocity: vec![0.0; neurons],
        }
    }

    fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .zip(&self.biases)
            .map(|(row, &b)| {
                let z = row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>() + b;
                self.activation.apply(z)
            })
            .collect()
    }
}

/// The reference network: the same layers, in nested rows.
pub(super) struct Mlp {
    pub(super) layers: Vec<Layer>,
}

impl Mlp {
    pub(super) fn new<R: Rng + ?Sized>(topology: &[usize], rng: &mut R) -> Self {
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
        Self { layers }
    }

    pub(super) fn predict(&self, input: &[f64]) -> Vec<f64> {
        self.layers
            .iter()
            .fold(input.to_vec(), |x, layer| layer.forward(&x))
    }

    pub(super) fn mse(&self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        if inputs.is_empty() {
            return 0.0;
        }
        let total: f64 = inputs
            .iter()
            .zip(targets)
            .map(|(x, t)| {
                let y = self.predict(x);
                y.iter()
                    .zip(t)
                    .map(|(yi, ti)| (yi - ti).powi(2))
                    .sum::<f64>()
                    / y.len() as f64
            })
            .sum();
        total / inputs.len() as f64
    }

    pub(super) fn train_sample_decay(
        &mut self,
        input: &[f64],
        target: &[f64],
        learning_rate: f64,
        momentum: f64,
        weight_decay: f64,
    ) -> f64 {
        let mut activations: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len() + 1);
        activations.push(input.to_vec());
        for layer in &self.layers {
            let next = layer.forward(activations.last().expect("seeded with input"));
            activations.push(next);
        }
        let output = activations.last().expect("at least the input");
        let sample_error: f64 = output
            .iter()
            .zip(target)
            .map(|(y, t)| (y - t).powi(2))
            .sum::<f64>()
            / output.len() as f64;

        let mut delta: Vec<f64> = output
            .iter()
            .zip(target)
            .map(|(&y, &t)| {
                (y - t)
                    * self
                        .layers
                        .last()
                        .expect("non-empty")
                        .activation
                        .derivative_from_output(y)
            })
            .collect();

        for li in (0..self.layers.len()).rev() {
            let next_delta: Option<Vec<f64>> = if li > 0 {
                let layer = &self.layers[li];
                let prev_out = &activations[li];
                let prev_act = self.layers[li - 1].activation;
                Some(
                    (0..prev_out.len())
                        .map(|i| {
                            let back: f64 = layer
                                .weights
                                .iter()
                                .zip(&delta)
                                .map(|(row, d)| row[i] * d)
                                .sum();
                            back * prev_act.derivative_from_output(prev_out[i])
                        })
                        .collect(),
                )
            } else {
                None
            };

            let layer = &mut self.layers[li];
            let layer_input = &activations[li];
            for (j, d) in delta.iter().enumerate() {
                for (i, &x) in layer_input.iter().enumerate() {
                    let v = momentum * layer.weight_velocity[j][i]
                        - learning_rate * (d * x + weight_decay * layer.weights[j][i]);
                    layer.weight_velocity[j][i] = v;
                    layer.weights[j][i] += v;
                }
                let v = momentum * layer.bias_velocity[j] - learning_rate * d;
                layer.bias_velocity[j] = v;
                layer.biases[j] += v;
            }

            if let Some(nd) = next_delta {
                delta = nd;
            }
        }
        sample_error
    }

    pub(super) fn weight_norm(&self) -> f64 {
        self.layers
            .iter()
            .flat_map(|l| l.weights.iter())
            .flat_map(|row| row.iter())
            .map(|w| w * w)
            .sum()
    }
}
