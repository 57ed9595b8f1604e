//! A fully-connected network with tanh hidden activations and manual
//! backpropagation — the function approximator behind the PPO actor and
//! critic. The paper trains 2×512 networks on TensorFlow; the math here
//! is identical, only the framework is gone.

use crate::matrix::{Epilogue, Matrix};
use libra_types::DetRng;
use serde::{get_field, DeError, Deserialize, Serialize, Value};

/// Hidden-layer activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent (PPO's conventional choice for control tasks).
    Tanh,
    /// Rectified linear unit.
    Relu,
}

/// Deterministic polynomial `tanh` for the inference hot path.
///
/// libm's `tanh` costs ~20ns per call and is an opaque call per element,
/// which at 512+512 hidden units per decision would dominate eval
/// latency however fast the GEMM gets. This replacement is
/// `sign(x) · (1 − 2/(e^{2|x|}+1))` with `e^y = 2^k · e^r`
/// (`r = y − k·ln 2`, `|r| ≤ ln2/2`, degree-11 Taylor, exponent
/// assembled by bit manipulation): ~25 straight-line f64 ops, no table,
/// no branch on the hot path, so it inlines into the tile kernel's
/// epilogue and vectorises across lanes. Max observed error vs libm is
/// ~1e-15 relative; saturation (|x| ≥ 20 → ±1), `±0`, `±∞ → ±1` and
/// NaN propagation all match libm.
///
/// It is pure, platform-independent f64 arithmetic — each SIMD lane runs
/// the scalar operations exactly — so eval stays exactly reproducible:
/// the batched-vs-per-flow bit-identity contract compares two paths that
/// both run *this* function.
#[inline(always)]
fn tanh_eval(x: f64) -> f64 {
    const SAT: f64 = 20.0; // tanh(20) rounds to 1.0 in f64
                           // 2^52 + 2^51: adding it rounds to nearest integer and leaves that
                           // integer in the low mantissa bits (valid for |v| < 2^51).
    const MAGIC: f64 = 6_755_399_441_055_744.0;
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    // NaN.min(SAT) picks SAT, so y below is always in [0, 40].
    let y = 2.0 * x.abs().min(SAT);
    let magic = y * std::f64::consts::LOG2_E + MAGIC;
    let k = magic - MAGIC; // round(y / ln 2) as an exact-integer f64
    let r = (y - k * LN2_HI) - k * LN2_LO;
    // e^r − 1 by Horner over the Taylor series without its constant
    // term; |r| ≤ ln2/2 keeps the truncation error near the f64
    // epsilon, and the expm1 form below avoids the catastrophic
    // `1 − 2/(e+1)` cancellation for small |x| (where tanh(x) ≈ x).
    let mut p = 1.0 / 39_916_800.0;
    for inv in [
        3_628_800.0,
        362_880.0,
        40_320.0,
        5_040.0,
        720.0,
        120.0,
        24.0,
        6.0,
        2.0,
        1.0,
    ] {
        p = p * r + 1.0 / inv;
    }
    let q = p * r; // e^r − 1
                   // 2^k: k sits in magic's low mantissa bits offset by 2^51.
    let k_bits = (magic.to_bits() & 0x000F_FFFF_FFFF_FFFF).wrapping_sub(1 << 51);
    let scale = f64::from_bits(k_bits.wrapping_add(1023) << 52);
    // e^y − 1 = (2^k − 1) + 2^k·(e^r − 1); tanh = (e^y − 1)/(e^y + 1).
    let em1 = (scale - 1.0) + scale * q;
    let t = (em1 / (em1 + 2.0)).copysign(x);
    // Late NaN select keeps libm's NaN propagation without putting a
    // cold branch ahead of the arithmetic.
    if x.is_nan() {
        x
    } else {
        t
    }
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
        }
    }

    /// The inference-path activation: identical to [`Activation::apply`]
    /// for ReLU, and the fast deterministic [`tanh_eval`] for tanh.
    ///
    /// Training (`forward_cached` + backprop) keeps libm `tanh`, so
    /// trained weights remain a pure function of the training config and
    /// are untouched by inference-path optimizations; eval trades ≤2e-15
    /// relative activation error for a cheaper hidden layer. Both eval
    /// paths — per-flow [`Mlp::forward_into`] and batched
    /// [`Mlp::forward_batch_into`] — run this function as the tile
    /// kernel's epilogue, so the batched-vs-per-flow bit-identity
    /// contract is unaffected.
    #[inline(always)]
    pub fn apply_eval(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => tanh_eval(x),
            Activation::Relu => x.max(0.0),
        }
    }

    /// Derivative expressed in terms of the *activated* output `y`.
    ///
    /// ReLU subgradient convention: at the kink we define `f'(0) := 0`.
    /// Because the derivative is reconstructed from the activated output,
    /// `y == 0.0` covers both negative pre-activations *and* inputs that
    /// were exactly `0.0` — both get a zero gradient. This matches the
    /// `max(0, x)` forward pass (which maps `0 → 0`) and is the common
    /// deep-learning convention; it is pinned by
    /// `relu_subgradient_at_zero_is_zero` so a batched backprop added
    /// later cannot silently pick the other subgradient (`f'(0) := 1`)
    /// and diverge from the sequential path.
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// One dense layer: `y = act(W·x + b)` (the output layer is linear).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Layer {
    w: Matrix,
    b: Vec<f64>,
}

/// A multi-layer perceptron with linear output.
#[derive(Debug, Clone, Serialize)]
pub struct Mlp {
    layers: Vec<Layer>,
    activation: Activation,
    sizes: Vec<usize>,
}

// Manual serde: a network is checked against its own `sizes` on the way
// in — layer `i` a `sizes[i+1] × sizes[i]` matrix holding that many
// elements, and a bias of `sizes[i+1]` — so a truncated or edited file
// is a parse error, not a panic on the first forward.
impl Deserialize for Mlp {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let net = Mlp {
            layers: Deserialize::from_value(get_field(v, "layers")?)?,
            activation: Deserialize::from_value(get_field(v, "activation")?)?,
            sizes: Deserialize::from_value(get_field(v, "sizes")?)?,
        };
        let shaped = net.sizes.len() == net.layers.len() + 1
            && net.layers.iter().zip(net.sizes.windows(2)).all(|(l, io)| {
                let (n_in, n_out) = (io[0], io[1]);
                (l.w.rows(), l.w.cols(), l.b.len()) == (n_out, n_in, n_out)
                    && n_out.checked_mul(n_in) == Some(l.w.len())
            });
        shaped
            .then_some(net)
            .ok_or_else(|| DeError::new("mlp layers disagree with its sizes"))
    }
}

/// Gradients with the same shapes as the network's parameters.
#[derive(Debug, Clone)]
pub struct MlpGrad {
    w: Vec<Matrix>,
    b: Vec<Vec<f64>>,
}

impl MlpGrad {
    /// Zero the accumulated gradient.
    pub fn clear(&mut self) {
        for m in &mut self.w {
            m.clear();
        }
        for v in &mut self.b {
            v.iter_mut().for_each(|x| *x = 0.0);
        }
    }

    /// Global L2 norm of the gradient (for clipping).
    pub fn l2_norm(&self) -> f64 {
        let mut s = 0.0;
        for m in &self.w {
            s += m.as_slice().iter().map(|x| x * x).sum::<f64>();
        }
        for v in &self.b {
            s += v.iter().map(|x| x * x).sum::<f64>();
        }
        s.sqrt()
    }

    /// Scale every component (used by gradient clipping).
    pub fn scale(&mut self, factor: f64) {
        for m in &mut self.w {
            m.as_mut_slice().iter_mut().for_each(|x| *x *= factor);
        }
        for v in &mut self.b {
            v.iter_mut().for_each(|x| *x *= factor);
        }
    }
}

/// Cached forward-pass activations needed for backprop.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// `activations[0]` is the input; `activations[i]` the output of layer
    /// `i-1` (post-activation for hidden layers, linear for the last).
    activations: Vec<Vec<f64>>,
}

impl ForwardCache {
    /// The network output.
    pub fn output(&self) -> &[f64] {
        self.activations.last().expect("non-empty cache")
    }
}

/// Reused ping-pong matrices for [`Mlp::forward_batch_into`]. One pair
/// serves any batch size and network shape — the matrices reshape in
/// place, so a long-lived policy server allocates only while batches are
/// still growing toward their high-water mark.
#[derive(Debug, Clone)]
pub struct BatchScratch {
    a: Matrix,
    b: Matrix,
}

impl BatchScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        BatchScratch {
            a: Matrix::zeros(0, 0),
            b: Matrix::zeros(0, 0),
        }
    }
}

impl Default for BatchScratch {
    fn default() -> Self {
        BatchScratch::new()
    }
}

impl Mlp {
    /// Build a network with the given layer sizes, e.g. `[32, 64, 64, 2]`.
    /// Weights use Xavier/Glorot uniform initialization.
    pub fn new(sizes: &[usize], activation: Activation, rng: &mut DetRng) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for win in sizes.windows(2) {
            let (n_in, n_out) = (win[0], win[1]);
            let limit = (6.0 / (n_in + n_out) as f64).sqrt();
            let w = Matrix::from_fn(n_out, n_in, |_, _| rng.uniform_range(-limit, limit));
            layers.push(Layer {
                w,
                b: vec![0.0; n_out],
            });
        }
        Mlp {
            layers,
            activation,
            sizes: sizes.to_vec(),
        }
    }

    /// The configured layer sizes.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Total scalar parameter count (the memory-overhead proxy).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Forward pass returning only the output (cache-free).
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        self.forward_into(input, &mut out, &mut scratch);
        out
    }

    /// Cache-free forward pass into caller-owned buffers. This is the
    /// eval hot path: unlike [`Mlp::forward_cached`] it keeps no
    /// per-layer activations — just two ping-pong buffers the caller
    /// reuses across decisions, so steady state allocates nothing
    /// (`forward_cached` allocates `layers + 1` Vecs per call).
    ///
    /// The linear algebra (matvec, bias add) runs in exactly the order of
    /// `forward_cached`; hidden activations go through
    /// [`Activation::apply_eval`] (fast deterministic tanh, ≤2e-15
    /// relative error vs libm), so eval output tracks the training-time
    /// forward to ~1e-12 and is bit-identical to it for ReLU networks.
    pub fn forward_into(&self, input: &[f64], out: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        assert_eq!(input.len(), self.sizes[0], "input size mismatch");
        scratch.clear();
        scratch.extend_from_slice(input);
        // `src` holds the current activation, `dst` receives the next
        // layer's; the roles swap after every layer.
        let mut src: &mut Vec<f64> = scratch;
        let mut dst: &mut Vec<f64> = out;
        let n = self.layers.len();
        for (w, ep) in self.eval_layers() {
            w.matvec_then_into(src, ep, dst);
            std::mem::swap(&mut src, &mut dst);
        }
        // The final activation sits in `src`; with an even layer count
        // that is physically `scratch`, so move it into `out`.
        if n.is_multiple_of(2) {
            std::mem::swap(src, dst);
        }
    }

    /// Batched forward pass: one state vector per row of `input`, one
    /// output per row of the result (`rows × act_dim`). Each row is
    /// bit-identical to `forward` on that row — see
    /// [`crate::Matrix::matmat_t`] for the accumulation-order contract.
    pub fn forward_batch(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        let mut scratch = BatchScratch::new();
        self.forward_batch_into(input, &mut out, &mut scratch);
        out
    }

    /// Allocation-free batched forward pass (the policy server's kernel):
    /// one matrix-matrix product per layer instead of one matvec per
    /// flow, with `scratch` ping-ponging the intermediate activations.
    ///
    /// Internally activations live feature-major (`dim × lanes`) so
    /// [`Matrix::matmat_t`]'s tiles load contiguous batch lanes — the
    /// axis the compiler can vectorize. Transposing in and out is pure
    /// data movement; every output element still sums in matvec's index
    /// order, so each batch row stays bit-identical to a per-flow
    /// [`Mlp::forward`].
    pub fn forward_batch_into(&self, input: &Matrix, out: &mut Matrix, scratch: &mut BatchScratch) {
        assert_eq!(input.cols(), self.sizes[0], "input size mismatch");
        let last_dim = *self.sizes.last().expect("non-empty sizes");
        if input.rows() == 0 {
            out.reshape(0, last_dim);
            return;
        }
        let batch = input.rows();
        // Zero-padded to whole 4-lane tiles, so no batch runs the
        // kernel's 1-lane tail — except a batch of one, which stays one
        // lane: exactly `forward_into`'s computation. Padding lanes go
        // through the epilogue too (carrying `act(b)` onward), but lanes
        // are independent columns: no real lane ever reads one, and the
        // final transpose drops them.
        let lanes = if batch == 1 {
            1
        } else {
            batch.next_multiple_of(4)
        };
        let mut ping = &mut scratch.a;
        let mut pong = &mut scratch.b;
        input.transpose_resized_into(self.sizes[0], lanes, ping);
        for (w, ep) in self.eval_layers() {
            // Row `r` of the transposed activation is output feature `r`,
            // so the epilogue's bias broadcasts across the batch lanes.
            w.matmat_t_then(ping, ep, pong);
            std::mem::swap(&mut ping, &mut pong);
        }
        // After the final swap the last activation sits in `ping`,
        // feature-major; hand its real lanes back row-major
        // (`batch × act_dim`).
        ping.transpose_resized_into(batch, last_dim, out);
    }

    /// Each layer's weights with its eval epilogue: the bias, then the
    /// hidden activation (none on the linear output layer).
    fn eval_layers(&self) -> impl Iterator<Item = (&Matrix, Epilogue<'_>)> {
        let n = self.layers.len();
        self.layers.iter().enumerate().map(move |(i, l)| {
            let act = (i + 1 < n).then_some(self.activation);
            (&l.w, Epilogue::Bias(&l.b, act))
        })
    }

    /// Forward pass keeping intermediate activations for backprop.
    pub fn forward_cached(&self, input: &[f64]) -> ForwardCache {
        assert_eq!(input.len(), self.sizes[0], "input size mismatch");
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(input.to_vec());
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = layer.w.matvec(activations.last().expect("prev"));
            for (zz, b) in z.iter_mut().zip(&layer.b) {
                *zz += b;
            }
            if i + 1 < self.layers.len() {
                for v in z.iter_mut() {
                    *v = self.activation.apply(*v);
                }
            }
            activations.push(z);
        }
        ForwardCache { activations }
    }

    /// A zero gradient with this network's shapes.
    pub fn zero_grad(&self) -> MlpGrad {
        MlpGrad {
            w: self
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.w.rows(), l.w.cols()))
                .collect(),
            b: self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// Backpropagate `d(loss)/d(output)` through the cached forward pass,
    /// accumulating parameter gradients into `grad` and returning
    /// `d(loss)/d(input)`.
    pub fn backward(
        &self,
        cache: &ForwardCache,
        output_grad: &[f64],
        grad: &mut MlpGrad,
    ) -> Vec<f64> {
        assert_eq!(output_grad.len(), *self.sizes.last().expect("sizes"));
        let mut delta = output_grad.to_vec();
        for i in (0..self.layers.len()).rev() {
            let input_act = &cache.activations[i];
            // Hidden layers: fold the activation derivative into delta.
            if i + 1 < self.layers.len() {
                let out_act = &cache.activations[i + 1];
                for (d, &y) in delta.iter_mut().zip(out_act) {
                    *d *= self.activation.derivative_from_output(y);
                }
            }
            grad.w[i].add_outer(&delta, input_act, 1.0);
            for (g, d) in grad.b[i].iter_mut().zip(&delta) {
                *g += d;
            }
            delta = self.layers[i].w.t_matvec(&delta);
        }
        delta
    }

    /// Apply `params += -lr · grad` (plain SGD step; Adam lives in
    /// [`crate::adam`]).
    pub fn sgd_step(&mut self, grad: &MlpGrad, lr: f64) {
        for (layer, (gw, gb)) in self.layers.iter_mut().zip(grad.w.iter().zip(&grad.b)) {
            layer.w.add_scaled(gw, -lr);
            for (b, g) in layer.b.iter_mut().zip(gb) {
                *b -= lr * g;
            }
        }
    }

    /// True when every weight and bias is a finite number. A single
    /// NaN/inf parameter poisons every forward pass, so this is the
    /// cheapest possible corruption probe.
    pub fn params_finite(&self) -> bool {
        self.layers.iter().all(|l| {
            l.w.as_slice().iter().all(|x| x.is_finite()) && l.b.iter().all(|x| x.is_finite())
        })
    }

    /// Global L2 norm over all parameters (weight-explosion probe).
    pub fn param_l2_norm(&self) -> f64 {
        let mut s = 0.0;
        for l in &self.layers {
            s += l.w.as_slice().iter().map(|x| x * x).sum::<f64>();
            s += l.b.iter().map(|x| x * x).sum::<f64>();
        }
        s.sqrt()
    }

    /// Apply `f` to every parameter in place. Exists so fault-injection
    /// tests can corrupt a network deterministically.
    pub fn map_params(&mut self, mut f: impl FnMut(f64) -> f64) {
        for l in &mut self.layers {
            for x in l.w.as_mut_slice() {
                *x = f(*x);
            }
            for x in &mut l.b {
                *x = f(*x);
            }
        }
    }

    /// Flat views of all parameters, for the optimizer.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut [f64]> {
        let mut out = Vec::with_capacity(self.layers.len() * 2);
        for l in &mut self.layers {
            out.push(l.w.as_mut_slice());
            out.push(l.b.as_mut_slice());
        }
        out
    }

    /// Flat views of a gradient's components, in the same order as
    /// [`Mlp::params_mut`].
    pub(crate) fn grad_slices(grad: &MlpGrad) -> Vec<&[f64]> {
        let mut out = Vec::with_capacity(grad.w.len() * 2);
        for (w, b) in grad.w.iter().zip(&grad.b) {
            out.push(w.as_slice());
            out.push(b.as_slice());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(7)
    }

    #[test]
    fn shapes_and_param_count() {
        let net = Mlp::new(&[4, 8, 2], Activation::Tanh, &mut rng());
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(net.forward(&[0.0; 4]).len(), 2);
    }

    #[test]
    fn zero_input_zero_bias_gives_zero_output() {
        let net = Mlp::new(&[3, 5, 1], Activation::Tanh, &mut rng());
        let out = net.forward(&[0.0, 0.0, 0.0]);
        assert!(out[0].abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut r = rng();
        let mut net = Mlp::new(&[3, 6, 4, 2], Activation::Tanh, &mut r);
        let input = [0.3, -0.7, 1.1];
        // Loss = sum of outputs → d(loss)/d(out) = ones.
        let cache = net.forward_cached(&input);
        let mut grad = net.zero_grad();
        net.backward(&cache, &[1.0, 1.0], &mut grad);

        let analytic = {
            let gs = Mlp::grad_slices(&grad);
            gs.iter()
                .flat_map(|s| s.iter().copied())
                .collect::<Vec<_>>()
        };
        let eps = 1e-6;
        let mut numeric = Vec::new();
        let n_slices = net.params_mut().len();
        for si in 0..n_slices {
            let len = net.params_mut()[si].len();
            for pi in 0..len {
                let orig = net.params_mut()[si][pi];
                net.params_mut()[si][pi] = orig + eps;
                let up: f64 = net.forward(&input).iter().sum();
                net.params_mut()[si][pi] = orig - eps;
                let dn: f64 = net.forward(&input).iter().sum();
                net.params_mut()[si][pi] = orig;
                numeric.push((up - dn) / (2.0 * eps));
            }
        }
        assert_eq!(analytic.len(), numeric.len());
        for (i, (a, n)) in analytic.iter().zip(&numeric).enumerate() {
            assert!(
                (a - n).abs() < 1e-6,
                "param {i}: analytic {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut r = rng();
        let net = Mlp::new(&[2, 5, 1], Activation::Tanh, &mut r);
        let input = [0.4, -0.2];
        let cache = net.forward_cached(&input);
        let mut grad = net.zero_grad();
        let din = net.backward(&cache, &[1.0], &mut grad);
        let eps = 1e-6;
        for i in 0..2 {
            let mut up_in = input;
            up_in[i] += eps;
            let mut dn_in = input;
            dn_in[i] -= eps;
            let num = (net.forward(&up_in)[0] - net.forward(&dn_in)[0]) / (2.0 * eps);
            assert!((din[i] - num).abs() < 1e-6, "input {i}");
        }
    }

    #[test]
    fn sgd_reduces_quadratic_loss() {
        let mut r = rng();
        let mut net = Mlp::new(&[1, 8, 1], Activation::Tanh, &mut r);
        // Fit f(x) = 2x on a few points.
        let data = [(-1.0, -2.0), (-0.5, -1.0), (0.5, 1.0), (1.0, 2.0)];
        let loss = |net: &Mlp| -> f64 {
            data.iter()
                .map(|&(x, y)| (net.forward(&[x])[0] - y).powi(2))
                .sum::<f64>()
        };
        let before = loss(&net);
        for _ in 0..500 {
            let mut grad = net.zero_grad();
            for &(x, y) in &data {
                let cache = net.forward_cached(&[x]);
                let err = cache.output()[0] - y;
                net.backward(&cache, &[2.0 * err], &mut grad);
            }
            net.sgd_step(&grad, 0.01);
        }
        let after = loss(&net);
        assert!(after < before * 0.05, "before {before}, after {after}");
    }

    #[test]
    fn relu_subgradient_at_zero_is_zero() {
        // The pinned convention: f'(0) := 0, reconstructed from the
        // activated output. `apply` maps 0 (and -0.0) to 0.0, and the
        // derivative at that output is exactly 0 — not 1. A future
        // batched backprop must reproduce this or its gradients diverge
        // from the sequential path for exactly-zero pre-activations.
        assert_eq!(Activation::Relu.apply(0.0), 0.0);
        assert_eq!(Activation::Relu.apply(-0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(
            Activation::Relu.derivative_from_output(f64::MIN_POSITIVE),
            1.0
        );
        // End-to-end: a unit whose pre-activation is exactly 0 passes no
        // gradient. Fresh biases are zero, so a zero input yields an
        // exactly-zero hidden pre-activation regardless of the weights.
        let net = Mlp::new(&[1, 4, 1], Activation::Relu, &mut rng());
        let cache = net.forward_cached(&[0.0]);
        let mut grad = net.zero_grad();
        let din = net.backward(&cache, &[1.0], &mut grad);
        assert_eq!(din[0], 0.0, "zero pre-activation must block the gradient");
    }

    /// Eval (`forward_into`, fast tanh) vs training (`forward_cached`,
    /// libm tanh): bit-identical for ReLU nets (whose activations are
    /// shared) and within ~1e-12 for tanh nets — the train/serve skew
    /// budget of `Activation::apply_eval`.
    #[test]
    fn forward_into_tracks_cached_forward() {
        let mut r = rng();
        for sizes in [&[3usize, 5, 2][..], &[4, 8, 8, 3][..], &[2, 6][..]] {
            for act in [Activation::Tanh, Activation::Relu] {
                let net = Mlp::new(sizes, act, &mut r);
                let input: Vec<f64> = (0..sizes[0]).map(|i| (i as f64 - 1.3) * 0.7).collect();
                let cached = net.forward_cached(&input);
                let mut out = vec![42.0; 9]; // stale buffer contents
                let mut scratch = vec![-7.0; 3];
                net.forward_into(&input, &mut out, &mut scratch);
                assert_eq!(out.len(), cached.output().len());
                for (a, b) in out.iter().zip(cached.output()) {
                    match act {
                        Activation::Relu => {
                            assert_eq!(a.to_bits(), b.to_bits(), "sizes {sizes:?}")
                        }
                        Activation::Tanh => assert!(
                            (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                            "sizes {sizes:?}: eval {a} vs cached {b}"
                        ),
                    }
                }
            }
        }
    }

    /// The fast eval tanh stays within its advertised error budget of
    /// libm and matches it exactly on the special points.
    #[test]
    fn tanh_eval_tracks_libm() {
        let mut worst = 0.0_f64;
        for i in 0..200_001 {
            let x = -25.0 + i as f64 * (50.0 / 200_000.0);
            let (a, b) = (tanh_eval(x), x.tanh());
            worst = worst.max((a - b).abs() / b.abs().max(f64::MIN_POSITIVE));
        }
        assert!(worst < 1e-13, "relative error {worst:e} vs libm");
        assert_eq!(tanh_eval(0.0).to_bits(), 0.0_f64.to_bits());
        assert_eq!(tanh_eval(-0.0).to_bits(), (-0.0_f64).to_bits());
        assert_eq!(tanh_eval(f64::INFINITY), 1.0);
        assert_eq!(tanh_eval(f64::NEG_INFINITY), -1.0);
        assert_eq!(tanh_eval(25.0), 1.0);
        assert_eq!(tanh_eval(-25.0), -1.0);
        assert!(tanh_eval(f64::NAN).is_nan());
        // Tiny inputs: tanh(x) ≈ x, no underflow surprises.
        assert!((tanh_eval(1e-300) - 1e-300).abs() < 1e-310);
    }

    #[test]
    fn forward_batch_matches_forward_bitwise() {
        let mut r = rng();
        for sizes in [&[3usize, 5, 2][..], &[4, 8, 8, 3][..], &[2, 6][..]] {
            let net = Mlp::new(sizes, Activation::Tanh, &mut r);
            let batch = Matrix::from_fn(7, sizes[0], |s, c| ((s * 13 + c) as f64 * 0.31).sin());
            let out = net.forward_batch(&batch);
            assert_eq!((out.rows(), out.cols()), (7, *sizes.last().unwrap()));
            for s in 0..7 {
                let row: Vec<f64> = (0..sizes[0]).map(|c| batch.get(s, c)).collect();
                let seq = net.forward(&row);
                for (c, v) in seq.iter().enumerate() {
                    assert_eq!(
                        out.get(s, c).to_bits(),
                        v.to_bits(),
                        "sizes {sizes:?} row {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_scratch_is_reusable_across_shapes() {
        let mut r = rng();
        let small = Mlp::new(&[2, 3, 1], Activation::Tanh, &mut r);
        let big = Mlp::new(&[5, 8, 4], Activation::Tanh, &mut r);
        let mut scratch = BatchScratch::new();
        let mut out = Matrix::zeros(0, 0);
        let b1 = Matrix::from_fn(4, 2, |s, c| (s + c) as f64 * 0.1);
        small.forward_batch_into(&b1, &mut out, &mut scratch);
        assert_eq!((out.rows(), out.cols()), (4, 1));
        let b2 = Matrix::from_fn(2, 5, |s, c| (s * 5 + c) as f64 * -0.2);
        big.forward_batch_into(&b2, &mut out, &mut scratch);
        assert_eq!((out.rows(), out.cols()), (2, 4));
        assert_eq!(out.as_slice(), big.forward_batch(&b2).as_slice());
    }

    #[test]
    fn relu_activation_works() {
        let mut r = rng();
        let net = Mlp::new(&[2, 4, 1], Activation::Relu, &mut r);
        let out = net.forward(&[1.0, -1.0]);
        assert!(out[0].is_finite());
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(2.0), 1.0);
    }

    #[test]
    fn grad_norm_and_scale() {
        let mut r = rng();
        let net = Mlp::new(&[2, 3, 1], Activation::Tanh, &mut r);
        let cache = net.forward_cached(&[1.0, 1.0]);
        let mut grad = net.zero_grad();
        net.backward(&cache, &[1.0], &mut grad);
        let n = grad.l2_norm();
        assert!(n > 0.0);
        grad.scale(0.5);
        assert!((grad.l2_norm() - 0.5 * n).abs() < 1e-12);
        grad.clear();
        assert_eq!(grad.l2_norm(), 0.0);
    }

    #[test]
    fn finite_check_and_poisoning() {
        let mut r = rng();
        let mut net = Mlp::new(&[2, 4, 1], Activation::Tanh, &mut r);
        assert!(net.params_finite());
        let norm = net.param_l2_norm();
        assert!(norm > 0.0 && norm.is_finite());
        net.map_params(|x| x * 2.0);
        assert!((net.param_l2_norm() - 2.0 * norm).abs() < 1e-9);
        net.map_params(|_| f64::NAN);
        assert!(!net.params_finite());
        assert!(net.forward(&[0.5, 0.5])[0].is_nan());
    }

    /// Every way a serialised network can disagree with its own sizes —
    /// or its matrices with themselves — is a parse error.
    #[test]
    fn mis_shaped_network_does_not_deserialise() {
        let net = Mlp::new(&[3, 4, 2], Activation::Tanh, &mut rng());
        let json = serde_json::to_string(&net).unwrap();
        assert!(serde_json::from_str::<Mlp>(&json).is_ok());
        // Drop the first element of the first array that follows `key`.
        let drop_first = |key: &str| {
            let start = json.find(key).unwrap() + key.len();
            let comma = start + json[start..].find(',').unwrap();
            format!("{}{}", &json[..start], &json[comma + 1..])
        };
        for bad in [
            drop_first("\"data\":["),
            drop_first("\"b\":["),
            json.replacen("\"rows\":4,\"cols\":3", "\"rows\":3,\"cols\":4", 1),
            json.replace("\"sizes\":[3,4,2]", "\"sizes\":[3,5,2]"),
            json.replace("\"sizes\":[3,4,2]", "\"sizes\":[3,4,4,2]"),
            // 4 × (2^62 + 3) wraps to the 12 elements layer 0 holds.
            json.replacen("\"cols\":3", "\"cols\":4611686018427387907", 1)
                .replace("\"sizes\":[3,", "\"sizes\":[4611686018427387907,"),
        ] {
            assert_ne!(bad, json);
            assert!(serde_json::from_str::<Mlp>(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let mut r = rng();
        let net = Mlp::new(&[3, 4, 2], Activation::Tanh, &mut r);
        let s = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&s).unwrap();
        let input = [0.1, 0.2, 0.3];
        assert_eq!(net.forward(&input), back.forward(&input));
    }
}
