//! Dense feed-forward network with ReLU hidden layers and a linear output.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::simd::{self, SimdLevel};

/// Rows per [`Mlp::forward_batch`] call — count doubles as the number of
/// inference batches served, sum as the total rows inferred.
pub(crate) static BATCH_ROWS: sigobs::Hist = sigobs::Hist::new("nn.batch_rows");

/// One dense layer: `y = W x + b` with `W` stored row-major (`out × in`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Dense {
    inputs: usize,
    outputs: usize,
    /// Row-major weights, `outputs × inputs`.
    weights: Vec<f64>,
    biases: Vec<f64>,
}

impl Dense {
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        // He initialization, appropriate for ReLU nets.
        let scale = (2.0 / inputs as f64).sqrt();
        let weights = (0..inputs * outputs)
            .map(|_| rng.gen_range(-1.0..1.0) * scale)
            .collect();
        Self {
            inputs,
            outputs,
            weights,
            biases: vec![0.0; outputs],
        }
    }

    /// `out = W x + b` over exactly `outputs` slots: `acc = bias`, then
    /// `acc += w[i] * x[i]` in input order. Every forward form (row,
    /// batch, training) runs through this loop, and the SIMD kernels
    /// reproduce its order lane by lane.
    fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        for (o, slot) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let mut s = self.biases[o];
            for (w, xi) in row.iter().zip(x) {
                s += w * xi;
            }
            *slot = s;
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.outputs, 0.0);
        self.forward_into(x, out);
    }

    /// Batched forward pass over `rows` row-major samples: one
    /// [`Dense::forward_into`] per row.
    fn forward_batch(&self, x: &[f64], rows: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(rows * self.outputs, 0.0);
        for (xr, yr) in x
            .chunks_exact(self.inputs)
            .zip(out.chunks_exact_mut(self.outputs))
        {
            self.forward_into(xr, yr);
        }
    }
}

/// Widest layer the row kernel ([`Mlp::forward_row`]) keeps in stack
/// buffers. The paper's networks are at most 10 wide; a wider network
/// runs the same kernel over heap buffers.
const ROW_STACK_WIDTH: usize = 16;

/// Batches with fewer rows than this run the row kernel once per row;
/// larger batches take the SIMD batch pass. Below it, the batch pass's
/// scratch borrow and transposes cost more than the lanes save (measured
/// on an AVX2 host with the paper's `3 → 10 → 10 → 5 → 1` networks).
pub const ROW_KERNEL_MAX_ROWS: usize = 4;

thread_local! {
    /// Ping-pong activation buffers for the batched passes: reused
    /// across calls so steady-state inference allocates nothing
    /// (workers each keep their own pair).
    static SOA_SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// A multilayer perceptron: ReLU on all hidden layers, linear output layer —
/// the architecture family used for the paper's transfer functions
/// (`[3, 10, 10, 5, 1]` in Fig. 2).
///
/// # Example
///
/// ```
/// use signn::Mlp;
/// let mlp = Mlp::paper_architecture(3, 7);
/// assert_eq!(mlp.layer_sizes(), &[3, 10, 10, 5, 1]);
/// let y = mlp.forward(&[0.1, 0.2, 0.3]);
/// assert_eq!(y.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    sizes: Vec<usize>,
}

/// Per-parameter gradients of an [`Mlp`], same shapes as the network.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpGradients {
    pub(crate) weights: Vec<Vec<f64>>,
    pub(crate) biases: Vec<Vec<f64>>,
}

impl MlpGradients {
    fn zeros_like(mlp: &Mlp) -> Self {
        Self {
            weights: mlp
                .layers
                .iter()
                .map(|l| vec![0.0; l.weights.len()])
                .collect(),
            biases: mlp
                .layers
                .iter()
                .map(|l| vec![0.0; l.biases.len()])
                .collect(),
        }
    }

    /// Scales all gradients by `f` (e.g. `1 / batch_size`).
    pub fn scale(&mut self, f: f64) {
        for w in &mut self.weights {
            for v in w {
                *v *= f;
            }
        }
        for b in &mut self.biases {
            for v in b {
                *v *= f;
            }
        }
    }
}

impl Mlp {
    /// Creates an MLP with the given layer sizes (first = inputs, last =
    /// outputs) and a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    #[must_use]
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        Self {
            layers,
            sizes: sizes.to_vec(),
        }
    }

    /// The paper's architecture (Fig. 2): `inputs → 10 → 10 → 5 → 1`.
    #[must_use]
    pub fn paper_architecture(inputs: usize, seed: u64) -> Self {
        Self::new(&[inputs, 10, 10, 5, 1], seed)
    }

    /// Layer sizes, including input and output.
    #[must_use]
    pub fn layer_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Number of scalar inputs.
    #[must_use]
    pub fn input_size(&self) -> usize {
        self.sizes[0]
    }

    /// Number of scalar outputs.
    #[must_use]
    pub fn output_size(&self) -> usize {
        *self.sizes.last().expect("at least two sizes")
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.biases.len())
            .sum()
    }

    /// Forward pass (allocating wrapper over the crate's row kernel,
    /// which allocates nothing and is bit-identical to a row of
    /// [`Mlp::forward_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the input size.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_size(), "input size mismatch");
        let mut out = vec![0.0; self.output_size()];
        self.forward_row(|i| x[i], &mut out);
        out
    }

    /// The row kernel: forward pass of one sample, whose input `i` is
    /// `input(i)`, into `out` (`output_size` values) through two
    /// ping-pong stack buffers, so nothing is allocated for networks up
    /// to 16 units wide. The input is written straight into the first
    /// buffer (how [`crate::ScaledModel`] standardizes without a staging
    /// copy). Per-layer arithmetic is the accumulation order of every
    /// other forward form, so the result is bit-identical to that row of
    /// [`Mlp::forward_batch`] at any SIMD level.
    pub(crate) fn forward_row(&self, input: impl Fn(usize) -> f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.output_size(), "output size mismatch");
        let width = self.sizes.iter().copied().max().unwrap_or(0);
        let (mut stack, mut heap);
        let (mut cur, mut next): (&mut [f64], &mut [f64]) = if width <= ROW_STACK_WIDTH {
            stack = [[0.0; ROW_STACK_WIDTH]; 2];
            let [a, b] = &mut stack;
            (a, b)
        } else {
            heap = vec![0.0; 2 * width];
            heap.split_at_mut(width)
        };
        let mut len = self.input_size();
        for (i, v) in cur[..len].iter_mut().enumerate() {
            *v = input(i);
        }
        let hidden = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let y = &mut next[..layer.outputs];
            layer.forward_into(&cur[..len], y);
            if li < hidden {
                for v in y.iter_mut() {
                    *v = v.max(0.0); // ReLU on hidden layers
                }
            }
            std::mem::swap(&mut cur, &mut next);
            len = layer.outputs;
        }
        out.copy_from_slice(&cur[..len]);
    }

    /// Batched forward pass: `x` is a row-major `n_rows × input_size`
    /// matrix; `out` is overwritten with the row-major
    /// `n_rows × output_size` result.
    ///
    /// One pass per layer over the whole batch, with two ping-pong scratch
    /// buffers for the entire call — no per-sample allocation. Each row's
    /// result is bit-identical to [`Mlp::forward`] on that row, so batched
    /// and scalar inference are interchangeable (the levelized simulator
    /// relies on this; see `docs/architecture.md` § Levelized batched engine).
    ///
    /// # Example
    ///
    /// ```
    /// use signn::Mlp;
    /// let mlp = Mlp::paper_architecture(3, 7);
    /// let rows = [[0.1, 0.2, 0.3], [-1.0, 0.5, 2.0]];
    /// let flat: Vec<f64> = rows.iter().flatten().copied().collect();
    /// let mut out = Vec::new();
    /// mlp.forward_batch(&flat, 2, &mut out);
    /// assert_eq!(out[0], mlp.forward(&rows[0])[0]);
    /// assert_eq!(out[1], mlp.forward(&rows[1])[0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not `n_rows * input_size`.
    pub fn forward_batch(&self, x: &[f64], n_rows: usize, out: &mut Vec<f64>) {
        BATCH_ROWS.record(n_rows as u64);
        self.forward_batch_at(simd::active_level(), x, n_rows, out);
    }

    /// [`Mlp::forward_batch`] with an explicit kernel level — the parity
    /// tests pin levels through this; production code uses the resolved
    /// global policy via [`Mlp::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not `n_rows * input_size`.
    pub fn forward_batch_at(&self, level: SimdLevel, x: &[f64], n_rows: usize, out: &mut Vec<f64>) {
        assert_eq!(
            x.len(),
            n_rows * self.input_size(),
            "batch size mismatch: {} values for {} rows of {}",
            x.len(),
            n_rows,
            self.input_size()
        );
        out.clear();
        if n_rows == 0 {
            return;
        }
        if level == SimdLevel::Scalar {
            self.forward_batch_rows(x, n_rows, out);
        } else {
            self.forward_batch_soa(level, x, n_rows, out);
        }
    }

    /// The row-major (AoS) reference pass: one [`Dense::forward_batch`]
    /// per layer, scratch ping-pong, no transposes.
    fn forward_batch_rows(&self, x: &[f64], n_rows: usize, out: &mut Vec<f64>) {
        SOA_SCRATCH.with(|cell| {
            let (cur, next) = &mut *cell.borrow_mut();
            cur.clear();
            cur.extend_from_slice(x);
            let n = self.layers.len();
            for (i, layer) in self.layers.iter().enumerate() {
                layer.forward_batch(cur, n_rows, next);
                if i + 1 < n {
                    for v in next.iter_mut() {
                        *v = v.max(0.0); // ReLU on hidden layers
                    }
                }
                std::mem::swap(cur, next);
            }
            out.extend_from_slice(cur);
        });
    }

    /// The SIMD pass: the batch is transposed once into
    /// structure-of-arrays form (one buffer row per feature, one SIMD
    /// lane per sample), every layer runs through
    /// [`simd::dense_forward_soa`], and the result transposes back.
    /// Per-sample arithmetic order is exactly the scalar pass (the
    /// kernel's contract), and transposition only moves values, so the
    /// output is bit-identical to [`Mlp::forward_batch_rows`].
    fn forward_batch_soa(&self, level: SimdLevel, x: &[f64], n: usize, out: &mut Vec<f64>) {
        SOA_SCRATCH.with(|cell| {
            let (cur, next) = &mut *cell.borrow_mut();
            let d_in = self.input_size();
            // `resize` without `clear`: every element is overwritten below
            // (and by the kernel), so steady-state reuse of the scratch
            // pays no zero-fill — only growth beyond the high-water mark
            // initializes memory.
            cur.resize(d_in * n, 0.0);
            for r in 0..n {
                for i in 0..d_in {
                    cur[i * n + r] = x[r * d_in + i];
                }
            }
            let layer_count = self.layers.len();
            for (li, layer) in self.layers.iter().enumerate() {
                next.resize(layer.outputs * n, 0.0);
                simd::dense_forward_soa(
                    level,
                    layer.inputs,
                    layer.outputs,
                    &layer.weights,
                    &layer.biases,
                    cur,
                    n,
                    next,
                );
                if li + 1 < layer_count {
                    for v in next.iter_mut() {
                        *v = v.max(0.0); // ReLU on hidden layers (scalar:
                                         // `f64::max` semantics, not `maxpd`)
                    }
                }
                std::mem::swap(cur, next);
            }
            let d_out = self.output_size();
            out.resize(n * d_out, 0.0);
            for o in 0..d_out {
                for r in 0..n {
                    out[r * d_out + o] = cur[o * n + r];
                }
            }
        });
    }

    /// Forward + backward pass for one sample under MSE loss
    /// (`L = Σ (y - t)² / outputs`); accumulates gradients into `grads` and
    /// returns the sample loss.
    ///
    /// # Panics
    ///
    /// Panics on input/target size mismatches.
    pub fn backward(&self, x: &[f64], target: &[f64], grads: &mut MlpGradients) -> f64 {
        assert_eq!(x.len(), self.input_size(), "input size mismatch");
        assert_eq!(target.len(), self.output_size(), "target size mismatch");

        // Forward, remembering post-activation values of every layer.
        let n = self.layers.len();
        let mut activations: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        activations.push(x.to_vec());
        let mut buf = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward(activations.last().expect("pushed"), &mut buf);
            if i + 1 < n {
                for v in &mut buf {
                    *v = v.max(0.0);
                }
            }
            activations.push(buf.clone());
        }
        let output = activations.last().expect("pushed");
        let m = self.output_size() as f64;
        let loss: f64 = output
            .iter()
            .zip(target)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f64>()
            / m;

        // Backward: delta on the output (linear) layer.
        let mut delta: Vec<f64> = output
            .iter()
            .zip(target)
            .map(|(y, t)| 2.0 * (y - t) / m)
            .collect();
        for li in (0..n).rev() {
            let layer = &self.layers[li];
            let input = &activations[li];
            // Accumulate gradients.
            for (o, &d) in delta.iter().enumerate().take(layer.outputs) {
                grads.biases[li][o] += d;
                let row = &mut grads.weights[li][o * layer.inputs..(o + 1) * layer.inputs];
                for (g, xi) in row.iter_mut().zip(input) {
                    *g += d * xi;
                }
            }
            if li == 0 {
                break;
            }
            // Propagate delta through W and the previous ReLU.
            let mut prev = vec![0.0; layer.inputs];
            for (o, &d) in delta.iter().enumerate().take(layer.outputs) {
                let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                for (p, w) in prev.iter_mut().zip(row) {
                    *p += w * d;
                }
            }
            // ReLU derivative: post-activation of layer li-1 is zero exactly
            // where the unit was clamped.
            for (p, a) in prev.iter_mut().zip(&activations[li]) {
                if *a <= 0.0 {
                    *p = 0.0;
                }
            }
            delta = prev;
        }
        loss
    }

    /// A fresh zero-gradient buffer matching this network.
    #[must_use]
    pub fn zero_gradients(&self) -> MlpGradients {
        MlpGradients::zeros_like(self)
    }

    /// Applies a parameter update `p -= update` elementwise, where `update`
    /// has gradient shapes (used by optimizers).
    pub(crate) fn apply_update(&mut self, update: &MlpGradients) {
        for (layer, (dw, db)) in self
            .layers
            .iter_mut()
            .zip(update.weights.iter().zip(&update.biases))
        {
            for (w, d) in layer.weights.iter_mut().zip(dw) {
                *w -= d;
            }
            for (b, d) in layer.biases.iter_mut().zip(db) {
                *b -= d;
            }
        }
    }

    /// Flat view of all parameters (weights then biases, per layer) — used
    /// by tests and optimizers.
    #[must_use]
    pub fn flat_parameters(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.parameter_count());
        for l in &self.layers {
            out.extend_from_slice(&l.weights);
            out.extend_from_slice(&l.biases);
        }
        out
    }

    /// Overwrites all parameters from a flat vector (inverse of
    /// [`Mlp::flat_parameters`]).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not equal [`Mlp::parameter_count`].
    pub fn set_flat_parameters(&mut self, flat: &[f64]) {
        assert_eq!(
            flat.len(),
            self.parameter_count(),
            "parameter count mismatch"
        );
        let mut i = 0;
        for l in &mut self.layers {
            let wlen = l.weights.len();
            l.weights.copy_from_slice(&flat[i..i + wlen]);
            i += wlen;
            let blen = l.biases.len();
            l.biases.copy_from_slice(&flat[i..i + blen]);
            i += blen;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_counts() {
        let mlp = Mlp::paper_architecture(3, 0);
        assert_eq!(mlp.input_size(), 3);
        assert_eq!(mlp.output_size(), 1);
        // (3*10+10) + (10*10+10) + (10*5+5) + (5*1+1) = 40+110+55+6 = 211
        assert_eq!(mlp.parameter_count(), 211);
    }

    #[test]
    fn deterministic_seeding() {
        let a = Mlp::new(&[2, 4, 1], 9);
        let b = Mlp::new(&[2, 4, 1], 9);
        let c = Mlp::new(&[2, 4, 1], 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn forward_checks_input_size() {
        let mlp = Mlp::new(&[2, 2, 1], 0);
        let _ = mlp.forward(&[1.0]);
    }

    #[test]
    fn flat_parameters_round_trip() {
        let mut a = Mlp::new(&[3, 5, 2], 1);
        let b = Mlp::new(&[3, 5, 2], 2);
        a.set_flat_parameters(&b.flat_parameters());
        assert_eq!(a, b);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut mlp = Mlp::new(&[2, 6, 4, 1], 3);
        // Nudge every parameter (including the zero-initialized biases) off
        // the ReLU kink: at a pre-activation of exactly 0 the subgradient
        // and finite differences legitimately disagree.
        let nudged: Vec<f64> = mlp
            .flat_parameters()
            .iter()
            .enumerate()
            .map(|(i, p)| p + 0.011 * ((i % 7) as f64 + 1.0))
            .collect();
        mlp.set_flat_parameters(&nudged);
        let x = [0.3, -0.7];
        let t = [0.42];

        let mut grads = mlp.zero_gradients();
        mlp.backward(&x, &t, &mut grads);

        // Flatten analytic gradients in the same order as flat_parameters.
        let mut flat_grad = Vec::new();
        for (w, b) in grads.weights.iter().zip(&grads.biases) {
            flat_grad.extend_from_slice(w);
            flat_grad.extend_from_slice(b);
        }

        let params = mlp.flat_parameters();
        let mut worst = 0.0f64;
        for i in 0..params.len() {
            let h = 1e-6;
            let mut p = params.clone();
            p[i] += h;
            let mut m = mlp.clone();
            m.set_flat_parameters(&p);
            let up = loss_of(&m, &x, &t);
            p[i] -= 2.0 * h;
            m.set_flat_parameters(&p);
            let down = loss_of(&m, &x, &t);
            let fd = (up - down) / (2.0 * h);
            worst = worst.max((fd - flat_grad[i]).abs());
        }
        assert!(worst < 1e-6, "max gradient error {worst}");
    }

    fn loss_of(m: &Mlp, x: &[f64], t: &[f64]) -> f64 {
        let y = m.forward(x);
        y.iter().zip(t).map(|(y, t)| (y - t) * (y - t)).sum::<f64>() / t.len() as f64
    }

    #[test]
    fn forward_batch_bit_identical_to_scalar() {
        let mlp = Mlp::new(&[3, 10, 10, 5, 2], 17);
        let rows: Vec<[f64; 3]> = (0..23)
            .map(|i| {
                let f = i as f64;
                [0.3 * f - 2.0, (-0.7f64).powi(i), f.sin() * 5.0]
            })
            .collect();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut out = Vec::new();
        mlp.forward_batch(&flat, rows.len(), &mut out);
        assert_eq!(out.len(), rows.len() * 2);
        for (r, row) in rows.iter().enumerate() {
            let scalar = mlp.forward(row);
            // Bit-identical, not merely close: the batched pass must be a
            // drop-in replacement on the simulator hot path.
            assert_eq!(&out[r * 2..r * 2 + 2], &scalar[..], "row {r}");
        }
    }

    proptest::proptest! {
        /// The whole-network SIMD pass (SoA transpose + kernels) is
        /// bit-identical to the row-major scalar pass at every level
        /// the host supports.
        #[test]
        fn forward_batch_simd_levels_bit_identical(
            seed in 0u64..u64::MAX,
            rows in 0usize..30,
            hidden in 1usize..12,
        ) {
            use proptest::prelude::prop_assert_eq;
            let mlp = Mlp::new(&[3, hidden, hidden, 1], seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let flat: Vec<f64> = (0..rows * 3)
                .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-9..9)))
                .collect();
            let mut reference = Vec::new();
            mlp.forward_batch_at(SimdLevel::Scalar, &flat, rows, &mut reference);
            for level in crate::simd::SimdLevel::available() {
                let mut out = Vec::new();
                mlp.forward_batch_at(level, &flat, rows, &mut out);
                prop_assert_eq!(out.len(), reference.len());
                for (i, (a, b)) in out.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "level {} row-value {}: {} vs {}", level.as_str(), i, a, b
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// The row kernel refines the batch pass: for every batch size
        /// from 0 to 16 (both sides of the row/SIMD break-even) and every
        /// level the host supports, each row of `forward_batch_at` equals
        /// the row kernel (via `forward`) on that row bit for bit —
        /// including networks wider than the kernel's stack buffers.
        #[test]
        fn forward_row_bit_identical_to_forward_batch(
            seed in 0u64..u64::MAX,
            hidden in 1usize..24,
            outputs in 1usize..3,
        ) {
            use proptest::prelude::prop_assert_eq;
            let mlp = Mlp::new(&[3, hidden, 10, 5, outputs], seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            for rows in 0..=16usize {
                let flat: Vec<f64> = (0..rows * 3)
                    .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-6..6)))
                    .collect();
                for level in crate::simd::SimdLevel::available() {
                    let mut batch = Vec::new();
                    mlp.forward_batch_at(level, &flat, rows, &mut batch);
                    prop_assert_eq!(batch.len(), rows * outputs);
                    for (x, expect) in flat.chunks_exact(3).zip(batch.chunks_exact(outputs)) {
                        for (a, b) in mlp.forward(x).iter().zip(expect) {
                            prop_assert_eq!(a.to_bits(), b.to_bits(),
                                "level {} rows {}: {} vs {}", level.as_str(), rows, a, b);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn forward_batch_empty_and_single() {
        let mlp = Mlp::paper_architecture(3, 3);
        let mut out = vec![1.0; 4];
        mlp.forward_batch(&[], 0, &mut out);
        assert!(out.is_empty());
        mlp.forward_batch(&[0.5, -0.5, 1.0], 1, &mut out);
        assert_eq!(out, mlp.forward(&[0.5, -0.5, 1.0]));
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn forward_batch_checks_size() {
        let mlp = Mlp::new(&[2, 2, 1], 0);
        let mut out = Vec::new();
        mlp.forward_batch(&[1.0, 2.0, 3.0], 2, &mut out);
    }

    #[test]
    fn serde_round_trip() {
        let mlp = Mlp::paper_architecture(3, 11);
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(mlp, back);
        let x = [0.5, -0.5, 1.0];
        assert_eq!(mlp.forward(&x), back.forward(&x));
    }

    #[test]
    fn relu_clamps_hidden_only() {
        // A 1-1 "network" (no hidden layer) is purely linear: negative
        // outputs must pass through.
        let mut mlp = Mlp::new(&[1, 1], 0);
        let n = mlp.parameter_count();
        mlp.set_flat_parameters(&vec![-1.0; n]); // w=-1, b=-1
        let y = mlp.forward(&[1.0]);
        assert!((y[0] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn gradients_scale() {
        let mlp = Mlp::new(&[1, 2, 1], 0);
        let mut g = mlp.zero_gradients();
        mlp.backward(&[1.0], &[0.0], &mut g);
        let before = g.weights[0][0];
        g.scale(0.5);
        assert!((g.weights[0][0] - 0.5 * before).abs() < 1e-15);
    }
}
