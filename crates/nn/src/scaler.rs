//! Feature standardization and the scaled-model wrapper.
//!
//! The TOM features mix quantities of very different ranges (scaled times in
//! units of 100 ps, slopes in the tens); standardizing both inputs and
//! targets keeps the small ReLU networks in a well-conditioned regime.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use crate::mlp::Mlp;
use crate::simd;

/// Per-feature mean/std normalization fitted on a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits means and standard deviations per feature column.
    ///
    /// Columns with (near-)zero variance get `std = 1` so they pass through
    /// unscaled instead of dividing by zero.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or rows have inconsistent lengths.
    #[must_use]
    pub fn fit(data: &[Vec<f64>]) -> Self {
        assert!(!data.is_empty(), "cannot fit a standardizer on no data");
        let dim = data[0].len();
        assert!(
            data.iter().all(|r| r.len() == dim),
            "all rows must have the same length"
        );
        let n = data.len() as f64;
        let mut means = vec![0.0; dim];
        for row in data {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; dim];
        for row in data {
            for ((s, v), m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Self { means, stds }
    }

    /// Identity transform of the given dimension.
    #[must_use]
    pub fn identity(dim: usize) -> Self {
        Self {
            means: vec![0.0; dim],
            stds: vec![1.0; dim],
        }
    }

    /// Number of features.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Standardizes a row: `(x - mean) / std`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.dim(), "dimension mismatch");
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Inverts the transform: `x * std + mean`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn inverse(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.dim(), "dimension mismatch");
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| v * s + m)
            .collect()
    }

    /// Standardizes `n_rows` row-major rows into `out` without per-row
    /// allocation. Elementwise math is identical to
    /// [`Standardizer::transform`], so results are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not `n_rows * dim`.
    pub fn transform_batch(&self, rows: &[f64], n_rows: usize, out: &mut Vec<f64>) {
        assert_eq!(rows.len(), n_rows * self.dim(), "batch size mismatch");
        out.clear();
        out.extend_from_slice(rows);
        if self.dim() > 0 {
            simd::standardize_rows(simd::active_level(), &self.means, &self.stds, out);
        }
    }

    /// Inverts the transform for `n_rows` row-major rows into `out`
    /// (batch form of [`Standardizer::inverse`], bit-identical per row).
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not `n_rows * dim`.
    pub fn inverse_batch(&self, rows: &[f64], n_rows: usize, out: &mut Vec<f64>) {
        assert_eq!(rows.len(), n_rows * self.dim(), "batch size mismatch");
        out.clear();
        out.extend_from_slice(rows);
        if self.dim() > 0 {
            simd::unstandardize_rows(simd::active_level(), &self.means, &self.stds, out);
        }
    }
}

thread_local! {
    /// Standardized-input / raw-output staging buffers for
    /// [`ScaledModel::predict_batch`], reused across calls so the
    /// simulator hot path allocates nothing per batch.
    static PREDICT_SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// An [`Mlp`] bundled with input/output standardizers: callers work in
/// physical units, the network sees standardized values. This is the form a
/// trained transfer function is stored in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaledModel {
    /// The trained network (operates on standardized values).
    pub mlp: Mlp,
    /// Input standardizer.
    pub input_scaler: Standardizer,
    /// Output standardizer.
    pub output_scaler: Standardizer,
}

impl ScaledModel {
    /// Wraps a network with the scalers fitted from raw training data.
    ///
    /// # Panics
    ///
    /// Panics if scaler dimensions do not match the network.
    #[must_use]
    pub fn new(mlp: Mlp, input_scaler: Standardizer, output_scaler: Standardizer) -> Self {
        assert_eq!(mlp.input_size(), input_scaler.dim(), "input scaler dim");
        assert_eq!(mlp.output_size(), output_scaler.dim(), "output scaler dim");
        Self {
            mlp,
            input_scaler,
            output_scaler,
        }
    }

    /// Predicts in physical units (allocating wrapper over
    /// [`ScaledModel::predict_row`]).
    ///
    /// # Panics
    ///
    /// Panics if `raw_input` does not match the input dimension.
    #[must_use]
    pub fn predict(&self, raw_input: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.mlp.output_size()];
        self.predict_row(raw_input, &mut out);
        out
    }

    /// Predicts one row in physical units into `out` without allocating:
    /// the input is standardized straight into the row kernel's first
    /// buffer and the output is unscaled in place.
    /// Elementwise math is that of [`Standardizer::transform`] and
    /// [`Standardizer::inverse`], so the result is bit-identical to the
    /// batch form on that row.
    ///
    /// # Panics
    ///
    /// Panics if `raw` or `out` does not match the model's dimensions.
    pub fn predict_row(&self, raw: &[f64], out: &mut [f64]) {
        assert_eq!(raw.len(), self.input_scaler.dim(), "dimension mismatch");
        let Standardizer { means, stds } = &self.input_scaler;
        self.mlp.forward_row(|i| (raw[i] - means[i]) / stds[i], out);
        let Standardizer { means, stds } = &self.output_scaler;
        for ((v, m), s) in out.iter_mut().zip(means).zip(stds) {
            *v = *v * s + m;
        }
    }

    /// Batched prediction in physical units: `raw_rows` is a row-major
    /// `n_rows × input_size` matrix; `out` is overwritten with the
    /// row-major `n_rows × output_size` predictions. Batches below
    /// [`crate::ROW_KERNEL_MAX_ROWS`] run [`ScaledModel::predict_row`] per
    /// row; larger ones run standardization, inference and inverse
    /// scaling as one pass each over the batch (see
    /// [`Mlp::forward_batch`]). Every row is bit-identical to
    /// [`ScaledModel::predict`] on that row.
    ///
    /// # Panics
    ///
    /// Panics if `raw_rows.len()` is not `n_rows * input_size`.
    pub fn predict_batch(&self, raw_rows: &[f64], n_rows: usize, out: &mut Vec<f64>) {
        if n_rows < crate::ROW_KERNEL_MAX_ROWS {
            assert_eq!(
                raw_rows.len(),
                n_rows * self.input_scaler.dim(),
                "batch size mismatch"
            );
            crate::mlp::BATCH_ROWS.record(n_rows as u64);
            let d_out = self.mlp.output_size();
            out.clear();
            out.resize(n_rows * d_out, 0.0);
            for (raw, y) in raw_rows
                .chunks_exact(self.input_scaler.dim())
                .zip(out.chunks_exact_mut(d_out))
            {
                self.predict_row(raw, y);
            }
            return;
        }
        PREDICT_SCRATCH.with(|cell| {
            let (x, y) = &mut *cell.borrow_mut();
            self.input_scaler.transform_batch(raw_rows, n_rows, x);
            self.mlp.forward_batch(x, n_rows, y);
            self.output_scaler.inverse_batch(y, n_rows, out);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fit_and_transform() {
        let data = vec![vec![1.0, 100.0], vec![3.0, 300.0]];
        let s = Standardizer::fit(&data);
        let t = s.transform(&[2.0, 200.0]);
        assert!(t[0].abs() < 1e-12 && t[1].abs() < 1e-12);
        let t = s.transform(&[3.0, 300.0]);
        assert!((t[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_column_passthrough() {
        let data = vec![vec![5.0], vec![5.0], vec![5.0]];
        let s = Standardizer::fit(&data);
        assert_eq!(s.transform(&[5.0]), vec![0.0]);
        assert_eq!(s.inverse(&[0.0]), vec![5.0]);
    }

    #[test]
    fn identity_is_noop() {
        let s = Standardizer::identity(3);
        let x = vec![1.0, -2.0, 3.5];
        assert_eq!(s.transform(&x), x);
    }

    #[test]
    fn scaled_model_predicts_physical_units() {
        use crate::{train, TrainConfig};
        // y = 1000 * x on x in [0, 1e-3]: raw scales are hostile, the
        // standardized problem is trivial.
        let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 * 1e-3 / 64.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![1000.0 * x[0]]).collect();
        let in_s = Standardizer::fit(&xs);
        let out_s = Standardizer::fit(&ys);
        let xs_t: Vec<Vec<f64>> = xs.iter().map(|x| in_s.transform(x)).collect();
        let ys_t: Vec<Vec<f64>> = ys.iter().map(|y| out_s.transform(y)).collect();
        let mut mlp = Mlp::new(&[1, 8, 1], 2);
        train(
            &mut mlp,
            &xs_t,
            &ys_t,
            &TrainConfig {
                epochs: 200,
                ..Default::default()
            },
        );
        let model = ScaledModel::new(mlp, in_s, out_s);
        let y = model.predict(&[0.5e-3]);
        assert!((y[0] - 0.5).abs() < 0.05, "prediction {}", y[0]);
    }

    #[test]
    fn batch_scaling_bit_identical_to_scalar() {
        let data = vec![
            vec![1.0, 50.0, -3.0],
            vec![4.0, -20.0, 9.0],
            vec![2.5, 0.0, 1.0],
        ];
        let s = Standardizer::fit(&data);
        let rows: Vec<Vec<f64>> = (0..7)
            .map(|i| vec![i as f64 * 0.7, 100.0 - i as f64, (i as f64).cos()])
            .collect();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut fwd = Vec::new();
        s.transform_batch(&flat, rows.len(), &mut fwd);
        let mut back = Vec::new();
        s.inverse_batch(&fwd, rows.len(), &mut back);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(&fwd[r * 3..r * 3 + 3], &s.transform(row)[..], "row {r}");
            assert_eq!(
                &back[r * 3..r * 3 + 3],
                &s.inverse(&s.transform(row))[..],
                "row {r}"
            );
        }
    }

    #[test]
    fn scaled_model_predict_batch_bit_identical() {
        let mlp = Mlp::new(&[2, 6, 1], 5);
        let model = ScaledModel::new(
            mlp,
            Standardizer::fit(&[vec![0.0, -4.0], vec![2.0, 4.0]]),
            Standardizer::fit(&[vec![-10.0], vec![30.0]]),
        );
        let rows = [[0.1, -3.0], [1.9, 3.5], [-7.0, 40.0]];
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut out = Vec::new();
        model.predict_batch(&flat, rows.len(), &mut out);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(out[r], model.predict(row)[0], "row {r}");
        }
    }

    proptest! {
        /// `predict_batch` takes the row kernel below
        /// `ROW_KERNEL_MAX_ROWS` and the batch pass from there on; every
        /// batch size from 0 to 16 must equal `predict` row by row.
        #[test]
        fn predict_batch_bit_identical_across_break_even(
            seed in 0u64..u64::MAX,
            hidden in 1usize..12,
        ) {
            use proptest::rand::{rngs::StdRng, Rng, SeedableRng};
            let model = ScaledModel::new(
                Mlp::new(&[3, hidden, 5, 1], seed),
                Standardizer::fit(&[vec![0.0, -4.0, 1.0], vec![2.0, 4.0, 9.0]]),
                Standardizer::fit(&[vec![-10.0], vec![30.0]]),
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            for rows in 0..=16usize {
                let flat: Vec<f64> = (0..rows * 3).map(|_| rng.gen_range(-20.0..20.0)).collect();
                model.predict_batch(&flat, rows, &mut out);
                prop_assert_eq!(out.len(), rows);
                for (x, y) in flat.chunks_exact(3).zip(&out) {
                    prop_assert_eq!(y.to_bits(), model.predict(x)[0].to_bits(), "rows {}", rows);
                }
            }
        }

        #[test]
        fn transform_inverse_round_trip(
            rows in proptest::collection::vec(
                proptest::collection::vec(-100.0..100.0f64, 3), 2..20),
            probe in proptest::collection::vec(-100.0..100.0f64, 3),
        ) {
            let s = Standardizer::fit(&rows);
            let back = s.inverse(&s.transform(&probe));
            for (a, b) in back.iter().zip(&probe) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
