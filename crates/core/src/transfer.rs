//! The TOM transfer function abstraction (Eq. 3) and its backends.
//!
//! A transfer function predicts, for one relevant input of a gate, the next
//! output transition's slope and delay:
//!
//! `(a_out, b_out − b_in) = F_G(T, a_prev_out, a_in)` with
//! `T = b_in − b_prev_out`.
//!
//! The paper implements `F↑`/`F↓` with four small MLPs; it also mentions
//! interpolation polynomials and look-up tables generated "for comparison
//! purposes" — all three backends are provided here.

use serde::{Deserialize, Serialize};
use sigchar::{Dataset, TransferSample, T_FAR};

/// A prediction of the next output transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferPrediction {
    /// Slope of the output transition (sign = polarity).
    pub a_out: f64,
    /// Input-to-output delay `b_out − b_in` in scaled units.
    pub delay: f64,
}

/// The query to a transfer function (all in scaled units).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferQuery {
    /// History interval `T = b_in − b_prev_out` (clamped internally).
    pub t: f64,
    /// Slope of the current input transition.
    pub a_in: f64,
    /// Slope of the previous output transition.
    pub a_prev_out: f64,
}

impl TransferQuery {
    /// Clamps the history interval into the trained domain `(0, T_FAR]`.
    #[must_use]
    pub fn clamped(self) -> Self {
        Self {
            t: self.t.min(T_FAR),
            ..self
        }
    }

    /// Feature vector, ordered as in [`TransferSample::features`].
    #[must_use]
    pub fn features(&self) -> [f64; 3] {
        [self.t, self.a_in, self.a_prev_out]
    }
}

/// A gate transfer function for one input polarity pair (`F↑` and `F↓`
/// bundled): given the current input transition and the previous output
/// transition, predict the next output transition.
pub trait TransferFunction {
    /// Predicts the next output transition. Implementations receive the
    /// query already clamped to the trained domain.
    fn predict(&self, query: TransferQuery) -> TransferPrediction;

    /// Predicts a batch of independent queries, overwriting `out` with one
    /// prediction per query (same order).
    ///
    /// The default implementation is the scalar loop, so external
    /// implementations keep compiling unchanged. Backends with a cheaper
    /// batch form (one matrix pass per MLP layer for [`crate::AnnTransfer`],
    /// scratch reuse for [`crate::LutTransfer`]) override it; every
    /// override must stay bit-identical to the scalar loop per query — the
    /// levelized simulator's determinism guarantee rests on that (see
    /// `docs/architecture.md` § Levelized batched engine), and so does
    /// [`crate::GateModel`]'s snap-point table, whose entries are filled
    /// by scalar `predict` calls and served in place of batch rows.
    fn predict_batch(&self, queries: &[TransferQuery], out: &mut Vec<TransferPrediction>) {
        out.clear();
        out.reserve(queries.len());
        out.extend(queries.iter().map(|&q| self.predict(q)));
    }

    /// A short human-readable backend name (for reports).
    fn backend_name(&self) -> &'static str;
}

/// Splits a dataset's samples into the four scalar regression problems the
/// paper trains (rising/falling × slope/delay) and exposes shared feature
/// extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Rising current input transition (`F↑`).
    Rising,
    /// Falling current input transition (`F↓`).
    Falling,
}

/// Borrowing view over the polarity half of a dataset.
#[must_use]
pub fn polarity_samples(dataset: &Dataset, polarity: Polarity) -> &[TransferSample] {
    match polarity {
        Polarity::Rising => &dataset.rising,
        Polarity::Falling => &dataset.falling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigchar::GateTag;

    #[test]
    fn query_clamps_to_t_far() {
        let q = TransferQuery {
            t: 100.0,
            a_in: 5.0,
            a_prev_out: -5.0,
        };
        assert_eq!(q.clamped().t, T_FAR);
        let q2 = TransferQuery { t: 0.5, ..q };
        assert_eq!(q2.clamped().t, 0.5);
    }

    #[test]
    fn polarity_view() {
        let mut d = Dataset::new(GateTag::NorFo1);
        d.push(TransferSample {
            t: 1.0,
            a_in: 2.0,
            a_prev_out: -3.0,
            a_out: -4.0,
            delay: 0.1,
        });
        assert_eq!(polarity_samples(&d, Polarity::Rising).len(), 1);
        assert!(polarity_samples(&d, Polarity::Falling).is_empty());
    }
}
