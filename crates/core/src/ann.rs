//! The ANN transfer-function backend (Sec. IV): four MLPs per gate input —
//! `{rising, falling} × {output slope, output delay}` — each using the
//! paper's `3 → 10 → 10 → 5 → 1` ReLU architecture.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};
use signn::{train_with_validation, Mlp, ScaledModel, Standardizer, TrainConfig};

use sigchar::Dataset;

use crate::transfer::{TransferFunction, TransferPrediction, TransferQuery};

/// Training configuration for one [`AnnTransfer`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnnTrainConfig {
    /// Epochs per network.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Seed for initialization and shuffling.
    pub seed: u64,
    /// Early-stopping patience (0 = off).
    pub patience: usize,
    /// Fraction of the data used for training (rest validates).
    pub train_fraction: f64,
    /// Worker threads for the four per-gate networks (`0` = auto-detect,
    /// `1` = sequential). Each network trains from its own seeded RNG, so
    /// results are identical at any setting.
    pub parallelism: usize,
}

impl Default for AnnTrainConfig {
    fn default() -> Self {
        Self {
            epochs: 1500,
            batch_size: 32,
            learning_rate: 4e-3,
            seed: 0x5160,
            patience: 200,
            train_fraction: 0.85,
            parallelism: sigwave::parallel::available_parallelism(),
        }
    }
}

impl AnnTrainConfig {
    /// A fast configuration for tests/CI.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            epochs: 350,
            patience: 0,
            ..Self::default()
        }
    }
}

/// Error training a transfer function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainTransferError {
    /// A polarity half of the dataset is empty.
    EmptyPolarity {
        /// `"rising"` or `"falling"`.
        which: &'static str,
    },
}

impl std::fmt::Display for TrainTransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyPolarity { which } => {
                write!(f, "dataset has no {which} samples to train on")
            }
        }
    }
}

impl std::error::Error for TrainTransferError {}

/// One trained scalar network (features → slope or delay).
fn train_scalar(
    samples: &[sigchar::TransferSample],
    target: impl Fn(&sigchar::TransferSample) -> f64,
    config: &AnnTrainConfig,
    seed_offset: u64,
) -> ScaledModel {
    let raw_x: Vec<Vec<f64>> = samples.iter().map(|s| s.features().to_vec()).collect();
    let raw_y: Vec<Vec<f64>> = samples.iter().map(|s| vec![target(s)]).collect();
    let in_scaler = Standardizer::fit(&raw_x);
    let out_scaler = Standardizer::fit(&raw_y);
    let xs: Vec<Vec<f64>> = raw_x.iter().map(|r| in_scaler.transform(r)).collect();
    let ys: Vec<Vec<f64>> = raw_y.iter().map(|r| out_scaler.transform(r)).collect();
    // Deterministic interleaved split.
    let k = ((1.0 / (1.0 - config.train_fraction)).round() as usize).max(2);
    let mut tx = Vec::new();
    let mut ty = Vec::new();
    let mut vx = Vec::new();
    let mut vy = Vec::new();
    for (i, (x, y)) in xs.into_iter().zip(ys).enumerate() {
        if i % k == k - 1 {
            vx.push(x);
            vy.push(y);
        } else {
            tx.push(x);
            ty.push(y);
        }
    }
    if tx.is_empty() {
        std::mem::swap(&mut tx, &mut vx);
        std::mem::swap(&mut ty, &mut vy);
    }
    let mut mlp = Mlp::paper_architecture(3, config.seed ^ seed_offset);
    let train_cfg = TrainConfig {
        epochs: config.epochs,
        batch_size: config.batch_size,
        learning_rate: config.learning_rate,
        seed: config.seed ^ seed_offset,
        patience: config.patience,
    };
    let _ = train_with_validation(&mut mlp, &tx, &ty, &vx, &vy, &train_cfg);
    ScaledModel::new(mlp, in_scaler, out_scaler)
}

/// The paper's transfer-function implementation: four MLPs covering
/// `{F↑, F↓} × {slope, delay}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnTransfer {
    rise_slope: ScaledModel,
    rise_delay: ScaledModel,
    fall_slope: ScaledModel,
    fall_delay: ScaledModel,
}

impl AnnTransfer {
    /// Assembles a transfer function from four already-built networks
    /// (`{rising, falling} × {slope, delay}`) — for loading individually
    /// trained artifacts or building synthetic backends in benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if any network does not map 3 features to 1 output.
    #[must_use]
    pub fn from_parts(
        rise_slope: ScaledModel,
        rise_delay: ScaledModel,
        fall_slope: ScaledModel,
        fall_delay: ScaledModel,
    ) -> Self {
        for net in [&rise_slope, &rise_delay, &fall_slope, &fall_delay] {
            assert_eq!(net.mlp.input_size(), 3, "transfer nets take 3 features");
            assert_eq!(net.mlp.output_size(), 1, "transfer nets are scalar");
        }
        Self {
            rise_slope,
            rise_delay,
            fall_slope,
            fall_delay,
        }
    }

    /// Trains the four networks from a characterization dataset.
    ///
    /// # Errors
    ///
    /// Returns [`TrainTransferError`] if either polarity has no samples.
    pub fn train(dataset: &Dataset, config: &AnnTrainConfig) -> Result<Self, TrainTransferError> {
        if dataset.rising.is_empty() {
            return Err(TrainTransferError::EmptyPolarity { which: "rising" });
        }
        if dataset.falling.is_empty() {
            return Err(TrainTransferError::EmptyPolarity { which: "falling" });
        }
        // The four `{polarity} × {slope, delay}` networks are independent
        // (each derives its RNG from `seed ^ offset`), so train them on the
        // worker pool; results match the sequential path bit-for-bit.
        type Target = fn(&sigchar::TransferSample) -> f64;
        let jobs: [(&[sigchar::TransferSample], Target, u64); 4] = [
            (&dataset.rising, |s| s.a_out, 0x01),
            (&dataset.rising, |s| s.delay, 0x02),
            (&dataset.falling, |s| s.a_out, 0x03),
            (&dataset.falling, |s| s.delay, 0x04),
        ];
        let mut nets = sigwave::parallel::par_map(
            config.parallelism,
            &jobs,
            |_, &(samples, target, offset)| train_scalar(samples, target, config, offset),
        )
        .into_iter();
        Ok(Self {
            rise_slope: nets.next().expect("four networks"),
            rise_delay: nets.next().expect("four networks"),
            fall_slope: nets.next().expect("four networks"),
            fall_delay: nets.next().expect("four networks"),
        })
    }

    /// Serializes to JSON (the trained-model artifact).
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` errors.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Loads from JSON.
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` errors.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Reused polarity-split buffers of [`AnnTransfer::predict_batch`]:
/// per polarity (`[falling, rising]`) the original query indices and the
/// packed feature rows, plus the slope and delay outputs.
struct SplitScratch {
    idx: [Vec<usize>; 2],
    rows: [Vec<f64>; 2],
    slopes: Vec<f64>,
    delays: Vec<f64>,
}

thread_local! {
    /// Per-thread [`SplitScratch`], so steady-state batches allocate
    /// nothing.
    static SPLIT_SCRATCH: RefCell<SplitScratch> = const {
        RefCell::new(SplitScratch {
            idx: [Vec::new(), Vec::new()],
            rows: [Vec::new(), Vec::new()],
            slopes: Vec::new(),
            delays: Vec::new(),
        })
    };
}

impl TransferFunction for AnnTransfer {
    /// Two row-kernel passes ([`ScaledModel::predict_row`]); nothing is
    /// allocated.
    fn predict(&self, query: TransferQuery) -> TransferPrediction {
        let q = query.clamped();
        let x = q.features();
        let (slope_net, delay_net) = if q.a_in > 0.0 {
            (&self.rise_slope, &self.rise_delay)
        } else {
            (&self.fall_slope, &self.fall_delay)
        };
        let (mut a_out, mut delay) = ([0.0], [0.0]);
        slope_net.predict_row(&x, &mut a_out);
        delay_net.predict_row(&x, &mut delay);
        TransferPrediction {
            a_out: a_out[0],
            delay: delay[0],
        }
    }

    /// Batched inference. Batches below [`signn::ROW_KERNEL_MAX_ROWS`]
    /// run [`AnnTransfer::predict`] per query. Larger ones are split by
    /// polarity (the same `a_in > 0` routing as the scalar path) into
    /// reused per-thread buffers, each half runs through its slope/delay
    /// networks as one batch ([`ScaledModel::predict_batch`]), and the
    /// results are scattered back into query order. Bit-identical to the
    /// scalar loop per query.
    fn predict_batch(&self, queries: &[TransferQuery], out: &mut Vec<TransferPrediction>) {
        out.clear();
        if queries.len() < signn::ROW_KERNEL_MAX_ROWS {
            out.extend(queries.iter().map(|&q| self.predict(q)));
            return;
        }
        out.resize(
            queries.len(),
            TransferPrediction {
                a_out: 0.0,
                delay: 0.0,
            },
        );
        SPLIT_SCRATCH.with(|cell| {
            let SplitScratch {
                idx,
                rows,
                slopes,
                delays,
            } = &mut *cell.borrow_mut();
            for p in 0..2 {
                idx[p].clear();
                rows[p].clear();
            }
            for (i, q) in queries.iter().enumerate() {
                let q = q.clamped();
                let p = usize::from(q.a_in > 0.0);
                idx[p].push(i);
                rows[p].extend_from_slice(&q.features());
            }
            let nets = [
                (&self.fall_slope, &self.fall_delay),
                (&self.rise_slope, &self.rise_delay),
            ];
            for (p, (slope_net, delay_net)) in nets.into_iter().enumerate() {
                let n = idx[p].len();
                if n == 0 {
                    continue;
                }
                slope_net.predict_batch(&rows[p], n, slopes);
                delay_net.predict_batch(&rows[p], n, delays);
                for (j, &i) in idx[p].iter().enumerate() {
                    out[i] = TransferPrediction {
                        a_out: slopes[j],
                        delay: delays[j],
                    };
                }
            }
        });
    }

    fn backend_name(&self) -> &'static str {
        "ann"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigchar::{Dataset, GateTag, TransferSample, T_FAR};

    /// A synthetic dataset following a known smooth transfer law, so the
    /// ANN's approximation quality can be verified exactly.
    pub(crate) fn synthetic_dataset(n: usize) -> Dataset {
        // Continuous coverage of (T, a_in), like real characterization data
        // where slopes vary smoothly across the sweep.
        let mut d = Dataset::new(GateTag::NorFo1);
        for i in 0..n {
            let t = 0.05 + (i as f64 / n as f64) * (T_FAR - 0.05);
            for j in 0..8 {
                let mag = 6.0 + 3.0 * j as f64 + 1.3 * (i % 3) as f64;
                for &a_in in &[mag, -mag] {
                    let a_prev = if a_in > 0.0 { 10.0 } else { -10.0 };
                    d.push(law(t, a_in, a_prev));
                }
            }
        }
        d
    }

    /// The synthetic "ground truth" transfer law: delay decays with T,
    /// output slope grows with |a_in| and degrades for small T.
    pub(crate) fn law(t: f64, a_in: f64, a_prev_out: f64) -> TransferSample {
        let degradation = 1.0 - (-t / 0.3).exp();
        let delay = 0.05 + 0.02 * (-t / 0.5).exp() + 0.2 / a_in.abs();
        let a_out_mag = (8.0 + 0.5 * a_in.abs()) * degradation;
        TransferSample {
            t,
            a_in,
            a_prev_out,
            a_out: if a_in > 0.0 { -a_out_mag } else { a_out_mag },
            delay,
        }
    }

    #[test]
    fn learns_synthetic_law() {
        let data = synthetic_dataset(60);
        let ann = AnnTransfer::train(&data, &AnnTrainConfig::fast()).unwrap();
        // Probe interior points not exactly on the training grid.
        let mut worst_delay = 0.0f64;
        let mut worst_slope = 0.0f64;
        for &t in &[0.2, 0.7, 1.3, 2.2] {
            for &a_in in &[8.0, -18.0] {
                let a_prev = if a_in > 0.0 { 10.0 } else { -10.0 };
                let truth = law(t, a_in, a_prev);
                let p = ann.predict(TransferQuery {
                    t,
                    a_in,
                    a_prev_out: a_prev,
                });
                worst_delay = worst_delay.max((p.delay - truth.delay).abs());
                worst_slope = worst_slope.max((p.a_out - truth.a_out).abs() / truth.a_out.abs());
            }
        }
        assert!(worst_delay < 0.02, "delay error {worst_delay} (2 ps)");
        assert!(worst_slope < 0.15, "relative slope error {worst_slope}");
    }

    #[test]
    fn polarity_routing() {
        let data = synthetic_dataset(30);
        let ann = AnnTransfer::train(&data, &AnnTrainConfig::fast()).unwrap();
        let up = ann.predict(TransferQuery {
            t: 1.0,
            a_in: 10.0,
            a_prev_out: 10.0,
        });
        let down = ann.predict(TransferQuery {
            t: 1.0,
            a_in: -10.0,
            a_prev_out: -10.0,
        });
        // Inverting gate: rising input -> falling output and vice versa.
        assert!(up.a_out < 0.0, "{up:?}");
        assert!(down.a_out > 0.0, "{down:?}");
    }

    #[test]
    fn parallel_training_matches_sequential() {
        let data = synthetic_dataset(12);
        let seq = AnnTransfer::train(
            &data,
            &AnnTrainConfig {
                parallelism: 1,
                epochs: 80,
                ..AnnTrainConfig::fast()
            },
        )
        .unwrap();
        let par = AnnTransfer::train(
            &data,
            &AnnTrainConfig {
                parallelism: 4,
                epochs: 80,
                ..AnnTrainConfig::fast()
            },
        )
        .unwrap();
        // Each network derives its RNG from `seed ^ offset`, so the fanned
        // out training must be bit-identical to the sequential path.
        assert_eq!(seq, par);
    }

    #[test]
    fn predict_batch_bit_identical_to_scalar() {
        let data = synthetic_dataset(20);
        let ann = AnnTransfer::train(&data, &AnnTrainConfig::fast()).unwrap();
        // Mixed polarities, out-of-domain T (exercises clamping), and a
        // batch of one.
        let queries: Vec<TransferQuery> = [
            (0.3, 9.0, -11.0),
            (1.7, -14.0, 12.0),
            (50.0, 7.5, -8.0),
            (0.9, -6.0, 9.0),
            (2.4, 16.0, -15.0),
        ]
        .iter()
        .map(|&(t, a_in, a_prev_out)| TransferQuery {
            t,
            a_in,
            a_prev_out,
        })
        .collect();
        let mut out = Vec::new();
        ann.predict_batch(&queries, &mut out);
        assert_eq!(out.len(), queries.len());
        for (q, p) in queries.iter().zip(&out) {
            assert_eq!(*p, ann.predict(*q), "query {q:?}");
        }
        ann.predict_batch(&queries[..1], &mut out);
        assert_eq!(out, vec![ann.predict(queries[0])]);
        ann.predict_batch(&[], &mut out);
        assert!(out.is_empty());
        // Every size from 0 to 16 rows, across the row-kernel break-even,
        // with mixed polarities.
        let many: Vec<TransferQuery> = (0..16)
            .map(|i| {
                let f = f64::from(i);
                TransferQuery {
                    t: 0.1 + 0.17 * f,
                    a_in: if i % 3 == 0 { -6.0 - f } else { 6.0 + f },
                    a_prev_out: if i % 2 == 0 { 9.0 } else { -9.0 },
                }
            })
            .collect();
        for n in 0..=many.len() {
            ann.predict_batch(&many[..n], &mut out);
            let scalar: Vec<_> = many[..n].iter().map(|&q| ann.predict(q)).collect();
            assert_eq!(out, scalar, "batch of {n}");
        }
    }

    #[test]
    fn from_parts_round_trips_trained_networks() {
        let data = synthetic_dataset(10);
        let ann = AnnTransfer::train(&data, &AnnTrainConfig::fast()).unwrap();
        let rebuilt = AnnTransfer::from_parts(
            ann.rise_slope.clone(),
            ann.rise_delay.clone(),
            ann.fall_slope.clone(),
            ann.fall_delay.clone(),
        );
        assert_eq!(ann, rebuilt);
    }

    #[test]
    fn empty_polarity_rejected() {
        let mut d = Dataset::new(GateTag::Inverter);
        d.push(law(1.0, 5.0, 10.0));
        let err = AnnTransfer::train(&d, &AnnTrainConfig::fast()).unwrap_err();
        assert_eq!(err, TrainTransferError::EmptyPolarity { which: "falling" });
    }

    #[test]
    fn serde_round_trip() {
        let data = synthetic_dataset(10);
        let ann = AnnTransfer::train(&data, &AnnTrainConfig::fast()).unwrap();
        let json = ann.to_json().unwrap();
        let back = AnnTransfer::from_json(&json).unwrap();
        let q = TransferQuery {
            t: 0.5,
            a_in: 9.0,
            a_prev_out: 11.0,
        };
        assert_eq!(ann.predict(q), back.predict(q));
        assert_eq!(ann.backend_name(), "ann");
    }

    #[test]
    fn far_history_plateau() {
        // Queries beyond T_FAR must behave like T_FAR (clamping).
        let data = synthetic_dataset(30);
        let ann = AnnTransfer::train(&data, &AnnTrainConfig::fast()).unwrap();
        let at_far = ann.predict(TransferQuery {
            t: T_FAR,
            a_in: 10.0,
            a_prev_out: 10.0,
        });
        let beyond = ann.predict(TransferQuery {
            t: 50.0,
            a_in: 10.0,
            a_prev_out: 10.0,
        });
        assert_eq!(at_far, beyond);
    }
}
