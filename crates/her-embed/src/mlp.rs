//! A small feed-forward neural network with SGD backprop.
//!
//! Stands in for the paper's "3-layer neural network with width 1536, 256
//! and 1" metric head of `M_ρ` (§VII), and is reused by the DeepMatcher
//! baseline. Hidden layers use ReLU, the single output unit a sigmoid;
//! training minimises binary cross-entropy. Besides supervised pairs, the
//! network exposes [`Mlp::backward_from`] so ranking losses (triplet loss,
//! §IV "Interaction and refinement") can inject custom output gradients.
//!
//! **Layout and bit identity.** A `Layer` stores its weights
//! input-major, so the forward pass accumulates all outputs side by side
//! and the weight update is a contiguous outer product; both vectorise,
//! where a row-major dot product is one serial chain of adds per output.
//! Every float is still computed as the textbook row-major loop computes
//! it: output `o` sums `b[o] + w[o,0]·x[0] + w[o,1]·x[1] + …` in
//! ascending `i`, an input gradient sums over `o` in ascending order, and
//! each weight moves by `(lr·g)·x`. Rust never reassociates or contracts
//! floats, so initial weights, training and scores are bit-identical to
//! that loop, which the tests keep as their oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One dense layer: `out = act(W x + b)`.
///
/// `w` is input-major: `w[i * out_dim + o]` weighs input `i` into output
/// `o`. The initial weights are drawn in row-major order (`o` outer, `i`
/// inner), so a seed gives the same network as a row-major layer would,
/// and every sum keeps the row-major loop's order (module docs).
#[derive(Clone, Debug)]
struct Layer {
    w: Vec<f32>,
    b: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

/// Outputs the forward pass accumulates side by side in registers.
const BLOCK: usize = 16;

/// Per-unit gradients of one layer's outputs, reused across steps.
#[derive(Default)]
struct Units {
    /// Clipped gradient `g` of each output.
    g: Vec<f32>,
    /// The step `lr·g` of each output.
    step: Vec<f32>,
    /// Outputs whose clipped gradient is non-zero and finite, ascending.
    active: Vec<usize>,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / in_dim as f32).sqrt();
        let mut w = vec![0.0; in_dim * out_dim];
        for o in 0..out_dim {
            for i in 0..in_dim {
                w[i * out_dim + o] = (rng.gen::<f32>() * 2.0 - 1.0) * scale;
            }
        }
        Self {
            w,
            b: vec![0.0; out_dim],
            in_dim,
            out_dim,
        }
    }

    /// `out = W x + b`: each block of [`BLOCK`] outputs stays in registers
    /// across the whole input loop.
    fn forward(&self, x: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.b);
        for (n, acc) in out.chunks_mut(BLOCK).enumerate() {
            let lo = n * BLOCK;
            let rows = self.w.chunks_exact(self.out_dim).zip(x);
            if let Ok(acc) = <&mut [f32; BLOCK]>::try_from(&mut *acc) {
                let mut lanes = *acc;
                for (row, &xi) in rows {
                    let row: &[f32; BLOCK] = row[lo..lo + BLOCK].try_into().expect("full block");
                    for (a, &wi) in lanes.iter_mut().zip(row) {
                        *a += wi * xi;
                    }
                }
                *acc = lanes;
            } else {
                for (row, &xi) in rows {
                    for (a, &wi) in acc.iter_mut().zip(&row[lo..]) {
                        *a += wi * xi;
                    }
                }
            }
        }
    }

    /// One SGD step given the gradient `grad` at this layer's outputs.
    /// Each unit's gradient is clipped to ±4; a unit whose clipped
    /// gradient is 0 or not finite is skipped. With `grad_in`, first
    /// writes the gradient at the inputs (through the pre-update weights).
    fn backward(
        &mut self,
        input: &[f32],
        grad: &[f32],
        lr: f32,
        grad_in: Option<&mut Vec<f32>>,
        units: &mut Units,
    ) {
        let Units { g, step, active } = units;
        g.clear();
        step.clear();
        active.clear();
        for (o, &d) in grad.iter().enumerate() {
            let c = d.clamp(-4.0, 4.0);
            if c != 0.0 && c.is_finite() {
                active.push(o);
            }
            g.push(c);
            step.push(lr * c);
        }
        // With a unit skipped, only active units are touched: `w − 0·x`
        // would still turn a weight NaN on an infinite input.
        let dense = active.len() == self.out_dim;
        if let Some(grad_in) = grad_in {
            grad_in.clear();
            for row in self.w.chunks_exact(self.out_dim) {
                let gi = if dense {
                    row.iter().zip(g.iter()).fold(0.0, |s, (w, g)| s + w * g)
                } else {
                    active.iter().fold(0.0, |s, &o| s + row[o] * g[o])
                };
                grad_in.push(gi);
            }
        }
        for (row, &xi) in self.w.chunks_exact_mut(self.out_dim).zip(input) {
            if dense {
                for (w, s) in row.iter_mut().zip(step.iter()) {
                    *w -= s * xi;
                }
            } else {
                for &o in active.iter() {
                    row[o] -= step[o] * xi;
                }
            }
        }
        for &o in active.iter() {
            self.b[o] -= step[o];
        }
    }
}

/// Slope of the leaky-ReLU negative branch (keeps units trainable after
/// aggressive pre-training — plain ReLU units die and freeze the output).
const LEAK: f32 = 0.01;

/// Buffers of one SGD step, reused across the steps of [`Mlp::fit`].
#[derive(Default)]
struct Scratch {
    /// Post-activation output of each layer.
    acts: Vec<Vec<f32>>,
    /// Gradient at the current layer's outputs, then at its inputs.
    grad: Vec<f32>,
    grad_in: Vec<f32>,
    units: Units,
}

/// Multi-layer perceptron with leaky-ReLU hidden units and a sigmoid output.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `&[128, 32, 1]`.
    /// The final size must be 1 (a single score unit).
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert_eq!(sizes.last(), Some(&1), "output layer must have width 1");
        assert!(!sizes.contains(&0), "layer widths must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        Self { layers }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    fn check_input(&self, x: &[f32]) {
        assert_eq!(x.len(), self.input_dim(), "input width");
    }

    /// Forward pass; returns the sigmoid score in `(0, 1)`.
    pub fn predict(&self, x: &[f32]) -> f32 {
        self.check_input(x);
        self.forward(x, &mut Vec::new())
    }

    /// One SGD step on a labeled example with binary cross-entropy loss.
    /// Returns the pre-update loss.
    pub fn train_example(&mut self, x: &[f32], target: f32, lr: f32) -> f32 {
        self.check_input(x);
        self.train_step(x, target, lr, &mut Scratch::default())
    }

    fn train_step(&mut self, x: &[f32], target: f32, lr: f32, s: &mut Scratch) -> f32 {
        let score = self.forward(x, &mut s.acts);
        let loss = bce(score, target);
        // dL/dz for sigmoid+BCE collapses to (score - target).
        self.backprop(x, score - target, lr, s);
        loss
    }

    /// One SGD step given an externally computed gradient `d_loss/d_score`
    /// at the sigmoid output (used by triplet/ranking losses).
    pub fn backward_from(&mut self, x: &[f32], dscore: f32, lr: f32) {
        self.check_input(x);
        let mut s = Scratch::default();
        let score = self.forward(x, &mut s.acts);
        // Chain through the sigmoid: dL/dz = dL/ds * s(1-s).
        let dz = dscore * score * (1.0 - score);
        self.backprop(x, dz, lr, &mut s);
    }

    /// Trains for `epochs` passes over `(x, y)` examples in the given
    /// (deterministically shuffled) order. Returns the final-epoch mean loss.
    pub fn fit(&mut self, examples: &[(Vec<f32>, f32)], epochs: usize, lr: f32, seed: u64) -> f32 {
        for (x, _) in examples {
            self.check_input(x);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut scratch = Scratch::default();
        let mut last = 0.0;
        for _ in 0..epochs {
            // Fisher–Yates shuffle.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut acc = 0.0;
            for &i in &order {
                let (x, y) = &examples[i];
                acc += self.train_step(x, *y, lr, &mut scratch);
            }
            last = if examples.is_empty() {
                0.0
            } else {
                acc / examples.len() as f32
            };
        }
        last
    }

    /// Forward pass into `acts` (post-activation values per layer);
    /// returns the sigmoid score.
    fn forward(&self, x: &[f32], acts: &mut Vec<Vec<f32>>) -> f32 {
        let depth = self.layers.len();
        acts.resize_with(depth, Vec::new);
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(li);
            let out = &mut rest[0];
            layer.forward(done.last().map_or(x, Vec::as_slice), out);
            if li + 1 < depth {
                for v in out.iter_mut() {
                    if *v < 0.0 {
                        *v *= LEAK;
                    }
                }
            }
        }
        sigmoid(acts[depth - 1][0])
    }

    /// Backpropagates `dz` (gradient at the output pre-sigmoid logit)
    /// through the activations `s.acts` of the forward pass on `x`.
    /// Per-unit gradients are clipped to ±4 — runaway updates otherwise
    /// blow the weights to NaN on adversarial feature scales. The input
    /// gradient of layer 0 is never needed, so it is never computed.
    fn backprop(&mut self, x: &[f32], dz: f32, lr: f32, s: &mut Scratch) {
        if !dz.is_finite() {
            return;
        }
        let Scratch {
            acts,
            grad,
            grad_in,
            units,
        } = s;
        grad.clear();
        grad.push(dz);
        for li in (0..self.layers.len()).rev() {
            let layer = &mut self.layers[li];
            if li == 0 {
                layer.backward(x, grad, lr, None, units);
                break;
            }
            let input = &acts[li - 1];
            layer.backward(input, grad, lr, Some(grad_in), units);
            // Through the leaky ReLU of the previous layer.
            for (gi, ai) in grad_in.iter_mut().zip(input) {
                if *ai <= 0.0 {
                    *gi *= LEAK;
                }
            }
            std::mem::swap(grad, grad_in);
        }
    }
}

#[inline]
fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

fn bce(score: f32, target: f32) -> f32 {
    let s = score.clamp(1e-6, 1.0 - 1e-6);
    -(target * s.ln() + (1.0 - target) * (1.0 - s).ln())
}

/// The row-major network this module's kernel must reproduce bit for bit:
/// the layer and backprop loops as they stood before the input-major
/// layout, kept verbatim as the test oracle.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{bce, sigmoid, LEAK};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One dense layer: `out = act(W x + b)`.
    #[derive(Clone, Debug)]
    pub(crate) struct Layer {
        /// Row-major `out_dim × in_dim` weights.
        pub(crate) w: Vec<f32>,
        pub(crate) b: Vec<f32>,
        in_dim: usize,
        out_dim: usize,
    }

    impl Layer {
        fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
            let scale = (2.0 / in_dim as f32).sqrt();
            let w = (0..in_dim * out_dim)
                .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
                .collect();
            Self {
                w,
                b: vec![0.0; out_dim],
                in_dim,
                out_dim,
            }
        }

        fn forward(&self, x: &[f32], out: &mut Vec<f32>) {
            out.clear();
            out.reserve(self.out_dim);
            for o in 0..self.out_dim {
                let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
                let mut acc = self.b[o];
                for (wi, xi) in row.iter().zip(x) {
                    acc += wi * xi;
                }
                out.push(acc);
            }
        }
    }

    /// The row-major multi-layer perceptron.
    #[derive(Clone, Debug)]
    pub(crate) struct Mlp {
        pub(crate) layers: Vec<Layer>,
    }

    impl Mlp {
        pub(crate) fn new(sizes: &[usize], seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let layers = sizes
                .windows(2)
                .map(|w| Layer::new(w[0], w[1], &mut rng))
                .collect();
            Self { layers }
        }

        pub(crate) fn predict(&self, x: &[f32]) -> f32 {
            let mut cur = x.to_vec();
            let mut next = Vec::new();
            for (i, layer) in self.layers.iter().enumerate() {
                layer.forward(&cur, &mut next);
                if i + 1 < self.layers.len() {
                    for v in next.iter_mut() {
                        if *v < 0.0 {
                            *v *= LEAK;
                        }
                    }
                }
                std::mem::swap(&mut cur, &mut next);
            }
            sigmoid(cur[0])
        }

        pub(crate) fn train_example(&mut self, x: &[f32], target: f32, lr: f32) -> f32 {
            let (score, acts) = self.forward_with_activations(x);
            let loss = bce(score, target);
            self.backprop(x, &acts, score - target, lr);
            loss
        }

        pub(crate) fn backward_from(&mut self, x: &[f32], dscore: f32, lr: f32) {
            let (score, acts) = self.forward_with_activations(x);
            let dz = dscore * score * (1.0 - score);
            self.backprop(x, &acts, dz, lr);
        }

        pub(crate) fn fit(
            &mut self,
            examples: &[(Vec<f32>, f32)],
            epochs: usize,
            lr: f32,
            seed: u64,
        ) -> f32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..examples.len()).collect();
            let mut last = 0.0;
            for _ in 0..epochs {
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                let mut acc = 0.0;
                for &i in &order {
                    let (x, y) = &examples[i];
                    acc += self.train_example(x, *y, lr);
                }
                last = if examples.is_empty() {
                    0.0
                } else {
                    acc / examples.len() as f32
                };
            }
            last
        }

        fn forward_with_activations(&self, x: &[f32]) -> (f32, Vec<Vec<f32>>) {
            let mut acts: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len());
            let mut cur = x.to_vec();
            let mut next = Vec::new();
            for (i, layer) in self.layers.iter().enumerate() {
                layer.forward(&cur, &mut next);
                if i + 1 < self.layers.len() {
                    for v in next.iter_mut() {
                        if *v < 0.0 {
                            *v *= LEAK;
                        }
                    }
                }
                acts.push(next.clone());
                std::mem::swap(&mut cur, &mut next);
            }
            (sigmoid(cur[0]), acts)
        }

        #[allow(clippy::needless_range_loop)] // `o` also offsets the weight rows
        fn backprop(&mut self, x: &[f32], acts: &[Vec<f32>], dz: f32, lr: f32) {
            if !dz.is_finite() {
                return;
            }
            let mut grad = vec![dz];
            for li in (0..self.layers.len()).rev() {
                let input: &[f32] = if li == 0 { x } else { &acts[li - 1] };
                let layer = &mut self.layers[li];
                let mut grad_in = vec![0.0f32; layer.in_dim];
                for o in 0..layer.out_dim {
                    let g = grad[o].clamp(-4.0, 4.0);
                    if g == 0.0 || !g.is_finite() {
                        continue;
                    }
                    let row = &mut layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                    for (i, wi) in row.iter_mut().enumerate() {
                        grad_in[i] += *wi * g;
                        *wi -= lr * g * input[i];
                    }
                    layer.b[o] -= lr * g;
                }
                if li > 0 {
                    for (gi, ai) in grad_in.iter_mut().zip(&acts[li - 1]) {
                        if *ai <= 0.0 {
                            *gi *= LEAK;
                        }
                    }
                }
                grad = grad_in;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn output_is_probability() {
        let m = Mlp::new(&[4, 8, 1], 7);
        let s = m.predict(&[0.1, -0.5, 2.0, 0.0]);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn deterministic_initialisation() {
        let a = Mlp::new(&[3, 5, 1], 42);
        let b = Mlp::new(&[3, 5, 1], 42);
        assert_eq!(a.predict(&[1.0, 2.0, 3.0]), b.predict(&[1.0, 2.0, 3.0]));
        let c = Mlp::new(&[3, 5, 1], 43);
        assert_ne!(a.predict(&[1.0, 2.0, 3.0]), c.predict(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn learns_logical_and() {
        let mut m = Mlp::new(&[2, 8, 1], 1);
        let data: Vec<(Vec<f32>, f32)> = vec![
            (vec![0.0, 0.0], 0.0),
            (vec![0.0, 1.0], 0.0),
            (vec![1.0, 0.0], 0.0),
            (vec![1.0, 1.0], 1.0),
        ];
        m.fit(&data, 2000, 0.5, 2);
        assert!(m.predict(&[1.0, 1.0]) > 0.8);
        assert!(m.predict(&[0.0, 1.0]) < 0.2);
        assert!(m.predict(&[1.0, 0.0]) < 0.2);
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        let mut m = Mlp::new(&[2, 12, 1], 3);
        let data: Vec<(Vec<f32>, f32)> = vec![
            (vec![0.0, 0.0], 0.0),
            (vec![0.0, 1.0], 1.0),
            (vec![1.0, 0.0], 1.0),
            (vec![1.0, 1.0], 0.0),
        ];
        m.fit(&data, 4000, 0.5, 4);
        assert!(m.predict(&[0.0, 1.0]) > 0.7);
        assert!(m.predict(&[1.0, 1.0]) < 0.3);
    }

    #[test]
    fn loss_decreases_during_training() {
        let mut m = Mlp::new(&[2, 6, 1], 5);
        let data: Vec<(Vec<f32>, f32)> = vec![
            (vec![1.0, 0.0], 1.0),
            (vec![0.0, 1.0], 0.0),
        ];
        let first = m.fit(&data, 1, 0.3, 6);
        let later = m.fit(&data, 200, 0.3, 6);
        assert!(later < first, "{later} !< {first}");
    }

    #[test]
    fn backward_from_moves_score_in_requested_direction() {
        let mut m = Mlp::new(&[3, 6, 1], 9);
        let x = vec![0.4, -0.2, 0.9];
        let before = m.predict(&x);
        // Negative dL/ds means increasing the score decreases the loss.
        for _ in 0..50 {
            m.backward_from(&x, -1.0, 0.3);
        }
        assert!(m.predict(&x) > before);
    }

    #[test]
    #[should_panic(expected = "width 1")]
    fn non_scalar_output_rejected() {
        let _ = Mlp::new(&[3, 2], 0);
    }

    #[test]
    #[should_panic]
    fn wrong_input_dim_panics() {
        let m = Mlp::new(&[3, 4, 1], 0);
        let _ = m.predict(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn short_training_input_panics() {
        let mut m = Mlp::new(&[3, 4, 1], 0);
        m.train_example(&[1.0, 2.0], 1.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn long_gradient_input_panics() {
        let mut m = Mlp::new(&[3, 4, 1], 0);
        m.backward_from(&[1.0, 2.0, 3.0, 4.0], 1.0, 0.1);
    }

    /// A unit whose clipped gradient is 0 or not finite is skipped
    /// exactly: not even `w − 0·x` — NaN for an infinite input — touches
    /// its weights, and it adds nothing to the input gradient.
    #[test]
    fn skipped_units_keep_their_weights() {
        let mut layer = Layer::new(3, 4, &mut StdRng::seed_from_u64(0));
        let before = layer.clone();
        let mut grad_in = Vec::new();
        let grad = [0.5, 0.0, f32::NAN, -1.0];
        layer.backward(
            &[1.0, f32::INFINITY, 2.0],
            &grad,
            0.1,
            Some(&mut grad_in),
            &mut Units::default(),
        );
        for (i, gi) in grad_in.iter().enumerate() {
            for o in [1, 2] {
                assert_eq!(layer.w[i * 4 + o].to_bits(), before.w[i * 4 + o].to_bits());
            }
            let want = 0.0 + before.w[i * 4] * grad[0] + before.w[i * 4 + 3] * grad[3];
            assert_eq!(gi.to_bits(), want.to_bits());
        }
        assert_eq!(grad_in.len(), 3);
        assert_eq!(layer.b[1..3], before.b[1..3]);
        assert_ne!(layer.b[0], before.b[0]);
    }

    /// Asserts every weight, bias and the prediction on `probe` of `m`
    /// equal the oracle's, bit for bit.
    fn assert_same_bits(m: &Mlp, oracle: &oracle::Mlp, probe: &[f32]) {
        assert_eq!(m.layers.len(), oracle.layers.len());
        for (layer, want) in m.layers.iter().zip(&oracle.layers) {
            let row_major: Vec<u32> = (0..layer.out_dim)
                .flat_map(|o| {
                    (0..layer.in_dim).map(move |i| layer.w[i * layer.out_dim + o].to_bits())
                })
                .collect();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(row_major, bits(&want.w), "weights");
            assert_eq!(bits(&layer.b), bits(&want.b), "biases");
        }
        assert_eq!(
            m.predict(probe).to_bits(),
            oracle.predict(probe).to_bits(),
            "prediction"
        );
    }

    /// Cuts the outgoing weights of every third hidden unit in both
    /// networks, so those units get an exactly zero gradient on the next
    /// step and backprop must skip them, with and without an input
    /// gradient to write.
    fn cut_units(m: &mut Mlp, oracle: &mut oracle::Mlp) {
        for (layer, want) in m.layers.iter_mut().zip(&mut oracle.layers).skip(1) {
            for i in (0..layer.in_dim).step_by(3) {
                for o in 0..layer.out_dim {
                    layer.w[i * layer.out_dim + o] = 0.0;
                    want.w[o * layer.in_dim + i] = 0.0;
                }
            }
        }
    }

    /// Drives the kernel and the oracle through the same `fit`,
    /// `train_example` and `backward_from` calls — with zero and NaN
    /// output gradients injected — and checks them after each.
    fn check_against_oracle(sizes: &[usize], seed: u64, cut: bool, examples: &[(Vec<f32>, f32)]) {
        let mut m = Mlp::new(sizes, seed);
        let mut want = oracle::Mlp::new(sizes, seed);
        if cut {
            cut_units(&mut m, &mut want);
        }
        let probe = &examples[0].0;
        assert_same_bits(&m, &want, probe);
        let loss = m.fit(examples, 3, 0.3, seed ^ 1);
        assert_eq!(
            loss.to_bits(),
            want.fit(examples, 3, 0.3, seed ^ 1).to_bits(),
            "fit loss"
        );
        assert_same_bits(&m, &want, probe);
        for (j, (x, y)) in examples.iter().enumerate() {
            let loss = m.train_example(x, *y, 0.2);
            assert_eq!(
                loss.to_bits(),
                want.train_example(x, *y, 0.2).to_bits(),
                "loss"
            );
            let dscore = [-1.0, 0.0, f32::NAN, 0.7][j % 4];
            m.backward_from(x, dscore, 0.3);
            want.backward_from(x, dscore, 0.3);
            assert_same_bits(&m, &want, x);
        }
    }

    fn examples(width: usize, n: usize, salt: u64) -> Vec<(Vec<f32>, f32)> {
        let mut rng = StdRng::seed_from_u64(salt);
        (0..n)
            .map(|_| {
                let x = (0..width).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
                (x, if rng.gen::<bool>() { 1.0 } else { 0.0 })
            })
            .collect()
    }

    /// A small shape, cheap enough for Miri: widths off the block size,
    /// one full block plus a remainder, and skipped units.
    #[test]
    fn kernel_matches_row_major_oracle() {
        check_against_oracle(&[5, 3, 1], 1, false, &examples(5, 4, 2));
        check_against_oracle(&[7, 19, 6, 1], 3, true, &examples(7, 4, 4));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any shape, including widths that are not a multiple of the
        /// block: the input-major kernel trains exactly as the row-major
        /// oracle does.
        #[test]
        fn kernel_is_bit_identical_to_row_major(
            input in 1usize..=70,
            hidden in 1usize..=50,
            second in 1usize..=50,
            seed in 0u64..1000,
            cut in prop::bool::ANY,
        ) {
            check_against_oracle(&[input, hidden, second, 1], seed, cut, &examples(input, 6, seed));
            check_against_oracle(&[input, hidden, 1], seed, false, &examples(input, 6, seed ^ 9));
        }
    }
}
