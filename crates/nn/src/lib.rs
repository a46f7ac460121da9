//! A minimal multilayer-perceptron library for gate transfer functions.
//!
//! The paper (Sec. IV) implements each TOM transfer function with a small
//! MLP: "two inner layers with 10 neurons each and a third layer with 5
//! neurons, with each neuron using a ReLU activation function", trained on
//! SPICE-derived data in minutes on a laptop. This crate provides exactly
//! that capability from scratch:
//!
//! * [`Mlp`] — dense feed-forward network with ReLU hidden layers and a
//!   linear output, He initialization, forward and backward passes, plus
//!   [`Mlp::forward_batch`]: row-major batched inference, one pass per
//!   layer, bit-identical per row to the scalar pass — the inference form
//!   the levelized simulator feeds whole circuit levels through (see
//!   `docs/architecture.md` § Levelized batched engine).
//! * [`AdamOptimizer`] — Adam with the usual bias correction.
//! * [`Standardizer`] — per-feature mean/std normalization of inputs and
//!   targets (essential for the picosecond-scale features involved), with
//!   batch-aware forms ([`Standardizer::transform_batch`]/
//!   [`Standardizer::inverse_batch`]) and [`ScaledModel::predict_batch`].
//! * [`train`] — a mini-batch training loop with shuffling and optional
//!   early stopping on a validation split.
//! * [`simd`] — runtime-dispatched SSE2/AVX2 kernels (std-only, scalar
//!   fallback elsewhere) behind a process-global [`simd::SimdPolicy`];
//!   the batch entry points above route through them while staying
//!   bit-identical to the scalar loops (see `docs/architecture.md`
//!   § SIMD kernels & fleet execution).
//!
//! Models serialize with serde so trained transfer functions can be stored
//! on disk, mirroring the artifacts of the paper's prototype.
//!
//! # Example
//!
//! ```
//! use signn::{Mlp, TrainConfig, train};
//!
//! // Learn y = 2x on [0, 1].
//! let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 64.0]).collect();
//! let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0]]).collect();
//! let mut mlp = Mlp::new(&[1, 8, 1], 42);
//! let report = train(&mut mlp, &xs, &ys, &TrainConfig { epochs: 300, ..Default::default() });
//! assert!(report.final_loss < 1e-3);
//! let out = mlp.forward(&[0.25]);
//! assert!((out[0] - 0.5).abs() < 0.1);
//! ```

// `unsafe` is denied everywhere except the `simd` module, whose
// `std::arch` intrinsics need it (each call site carries its safety
// argument; the rest of the crate stays unsafe-free).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod adam;
mod mlp;
mod scaler;
pub mod simd;
mod train;

pub use adam::AdamOptimizer;
pub use mlp::{Mlp, MlpGradients, ROW_KERNEL_MAX_ROWS};
pub use scaler::{ScaledModel, Standardizer};
pub use train::{train, train_with_validation, TrainConfig, TrainReport};
