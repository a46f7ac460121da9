//! Sigmoidal traces: waveforms represented as sums of sigmoids (Eq. 2).

use serde::{Deserialize, Serialize};

use crate::{to_scaled_time, DigitalTrace, Level, Sigmoid, Waveform};

/// Relative slack of [`SigmoidTrace::digitize`]'s range skipping, scaled
/// by `(transitions + 2)² · (vdd + |threshold|)`. Each logistic
/// evaluation errs by a few ulps of 1 and is monotone up to that error,
/// and summing `m` values in `[0, 1]` errs by at most `m² · ε`, so a
/// range bound and a sampled value can differ by well under
/// `10⁻¹⁴ · (m + 2)² · vdd`; this slack is four orders of magnitude
/// wider. A larger slack only skips less.
const SKIP_MARGIN: f64 = 1e-10;

/// A waveform expressed as the joint model function of Eq. 2:
///
/// `F_T(t) = VDD · ( Σᵢ Fs(t, aᵢ, bᵢ) − k )`
///
/// where the offset `k` makes the trace start at the initial logic level
/// (the paper supplies `F_T − k · VDD` to the fitting algorithm because a
/// sum of `N` sigmoids settles between `k·VDD` and `(k+1)·VDD`).
///
/// Transitions must alternate in polarity, starting with the polarity that
/// leaves the initial level — this is the invariant every well-formed signal
/// trace in the paper satisfies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SigmoidTrace {
    initial: Level,
    transitions: Vec<Sigmoid>,
    vdd: f64,
}

/// Error constructing a [`SigmoidTrace`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildTraceError {
    /// Transition `index` has the same polarity as its predecessor (or, for
    /// index 0, does not leave the initial level).
    PolarityViolation {
        /// Index of the offending transition.
        index: usize,
    },
    /// Crossing times `b` are not non-decreasing.
    OutOfOrder {
        /// Index of the offending transition.
        index: usize,
    },
    /// `vdd` must be positive and finite.
    InvalidVdd(f64),
}

impl std::fmt::Display for BuildTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PolarityViolation { index } => write!(
                f,
                "transition {index} does not alternate polarity with its predecessor"
            ),
            Self::OutOfOrder { index } => {
                write!(f, "transition {index} is earlier than its predecessor")
            }
            Self::InvalidVdd(v) => write!(f, "vdd must be positive and finite, got {v}"),
        }
    }
}

impl std::error::Error for BuildTraceError {}

impl SigmoidTrace {
    /// Creates a trace from an initial level and alternating transitions.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTraceError`] if polarities do not alternate starting
    /// away from `initial`, if the crossing times are not sorted, or if
    /// `vdd` is invalid.
    pub fn from_transitions(
        initial: Level,
        transitions: Vec<Sigmoid>,
        vdd: f64,
    ) -> Result<Self, BuildTraceError> {
        if !vdd.is_finite() || vdd <= 0.0 {
            return Err(BuildTraceError::InvalidVdd(vdd));
        }
        let mut expect_rising = matches!(initial, Level::Low);
        for (i, s) in transitions.iter().enumerate() {
            if s.is_rising() != expect_rising {
                return Err(BuildTraceError::PolarityViolation { index: i });
            }
            expect_rising = !expect_rising;
            if i > 0 && transitions[i - 1].b > s.b {
                return Err(BuildTraceError::OutOfOrder { index: i });
            }
        }
        Ok(Self {
            initial,
            transitions,
            vdd,
        })
    }

    /// A constant trace at the given level with no transitions.
    #[must_use]
    pub fn constant(level: Level, vdd: f64) -> Self {
        Self {
            initial: level,
            transitions: Vec::new(),
            vdd,
        }
    }

    /// The initial logic level (value at `t = -∞`).
    #[must_use]
    pub fn initial(&self) -> Level {
        self.initial
    }

    /// The supply voltage scaling the trace.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// The sigmoid transitions, ordered by crossing time.
    #[must_use]
    pub fn transitions(&self) -> &[Sigmoid] {
        &self.transitions
    }

    /// Number of transitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// `true` if the trace has no transitions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// The offset `k` of Eq. 2: the number of falling sigmoids minus one if
    /// the trace starts high (each falling sigmoid contributes 1 at `-∞`).
    #[must_use]
    pub fn offset_k(&self) -> f64 {
        let falling = self.transitions.iter().filter(|s| !s.is_rising()).count() as f64;
        match self.initial {
            Level::Low => falling,
            Level::High => falling - 1.0,
        }
    }

    /// Evaluates the trace voltage at scaled time `x = t · 10^10`.
    #[must_use]
    pub fn value_at_scaled(&self, x: f64) -> f64 {
        let sum: f64 = self.transitions.iter().map(|s| s.eval_scaled(x)).sum();
        self.vdd * (sum - self.offset_k())
    }

    /// Evaluates the trace voltage at a time in seconds.
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        self.value_at_scaled(to_scaled_time(t))
    }

    /// The final logic level after all transitions.
    #[must_use]
    pub fn final_level(&self) -> Level {
        if self.transitions.len().is_multiple_of(2) {
            self.initial
        } else {
            self.initial.inverted()
        }
    }

    /// Appends a transition.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTraceError`] if the polarity does not alternate or the
    /// crossing time precedes the last transition.
    pub fn push(&mut self, s: Sigmoid) -> Result<(), BuildTraceError> {
        let expect_rising = !self.final_level().is_high();
        let index = self.transitions.len();
        if s.is_rising() != expect_rising {
            return Err(BuildTraceError::PolarityViolation { index });
        }
        if let Some(last) = self.transitions.last() {
            if last.b > s.b {
                return Err(BuildTraceError::OutOfOrder { index });
            }
        }
        self.transitions.push(s);
        Ok(())
    }

    /// Digitizes the trace at `threshold` volts into Heaviside transitions.
    ///
    /// For well-separated transitions each sigmoid crossing is at
    /// `time_at_level(threshold/vdd)`; overlapping transitions (degraded
    /// pulses) are resolved by sampling the exact trace on a grid fine
    /// enough for the steepest transition and refining each crossing by
    /// bisection, so sub-threshold pulses correctly produce *no* digital
    /// transitions.
    ///
    /// The grid is not sampled point by point. Every sigmoid is
    /// monotone, so over a grid range `[x_i, x_j]` the trace lies between
    /// the sums of the per-sigmoid minima and maxima at the two ends; a
    /// range whose bound stays on the current side of `threshold` by
    /// `SKIP_MARGIN`-scaled slack (far more than the rounding of the
    /// sums) cannot contain a sign change of any sampled value, so it is
    /// skipped whole, with a stride that doubles while ranges keep
    /// clearing. Only single grid steps that the bound cannot clear are
    /// sampled, and each sign change among them is bisected; a bisection
    /// stops at its fixed point, once the midpoint equals an end, where
    /// every further step would leave both ends unchanged. The toggles
    /// are therefore bit-identical to sampling every grid point and
    /// running every bisection for its full 60 steps (a dense-scan
    /// reference in the tests checks it).
    #[must_use]
    pub fn digitize(&self, threshold: f64) -> DigitalTrace {
        if self.transitions.is_empty() {
            return DigitalTrace::constant(self.initial);
        }
        let (x0, n, dt) = self.digitize_grid();
        let grid_x = |i: usize| if i == 0 { x0 } else { x0 + i as f64 * dt };
        let k = self.offset_k();
        // The trace value from per-sigmoid values, summed in transition
        // order exactly as `value_at_scaled` does.
        let value = |sig: &[f64]| self.vdd * (sig.iter().copied().sum::<f64>() - k);
        let eval_into = |x: f64, sig: &mut [f64]| {
            for (v, s) in sig.iter_mut().zip(&self.transitions) {
                *v = s.eval_scaled(x);
            }
        };
        let m = self.transitions.len() as f64 + 2.0;
        let margin = SKIP_MARGIN * m * m * (self.vdd + threshold.abs());

        // Per-sigmoid values at the current grid point `i` and at the
        // probed point `j`.
        let mut at_i = vec![0.0; self.transitions.len()];
        let mut at_j = at_i.clone();
        eval_into(x0, &mut at_i);
        let mut above = value(&at_i) > threshold;
        let initial = Level::from_bool(above);
        let mut toggles = Vec::new();
        let (mut i, mut stride) = (0usize, 1usize);
        while i + 1 < n {
            let j = (i + stride).min(n - 1);
            let xj = grid_x(j);
            eval_into(xj, &mut at_j);
            let (mut lo, mut hi) = (0.0, 0.0);
            for (a, b) in at_i.iter().zip(&at_j) {
                lo += a.min(*b);
                hi += a.max(*b);
            }
            let clears = if above {
                self.vdd * (lo - k) > threshold + margin
            } else {
                self.vdd * (hi - k) < threshold - margin
            };
            if clears {
                stride = (stride * 2).min(n);
            } else if j == i + 1 {
                let now_above = value(&at_j) > threshold;
                if now_above != above {
                    toggles.push(self.bisect_crossing(grid_x(i), xj, above, threshold));
                    above = now_above;
                }
                stride = 1;
            } else {
                stride = (j - i) / 2;
                continue;
            }
            i = j;
            std::mem::swap(&mut at_i, &mut at_j);
        }
        DigitalTrace::new(initial, toggles).expect("bisection times increase")
    }

    /// The sampling grid of [`SigmoidTrace::digitize`] as
    /// `(x0, points, step)` in scaled time: padded by the widest
    /// transition on both sides, dense enough to resolve the narrowest
    /// one with several samples, at least 258 and at most 2 000 001
    /// points.
    fn digitize_grid(&self) -> (f64, usize, f64) {
        let first = self.transitions.first().expect("non-empty");
        let last = self.transitions.last().expect("non-empty");
        let max_width = self
            .transitions
            .iter()
            .map(|s| 20.0 / s.a.abs())
            .fold(0.0f64, f64::max);
        let x0 = first.b - max_width;
        let x1 = last.b + max_width;
        let min_width = self
            .transitions
            .iter()
            .map(|s| 1.0 / s.a.abs())
            .fold(f64::INFINITY, f64::min);
        let step = (min_width / 4.0).min((x1 - x0) / 256.0);
        let n = (((x1 - x0) / step).ceil() as usize).clamp(257, 2_000_000) + 1;
        (x0, n, (x1 - x0) / (n - 1) as f64)
    }

    /// Bisects the sign change of the trace between grid points `lo` and
    /// `hi` (the side at `lo` is `lo_above`) for at most 60 halvings, and
    /// returns the midpoint of the final bracket in seconds. Once the
    /// midpoint equals `lo` or `hi` bit for bit it lands on the same side
    /// as that end, so every remaining halving would be a no-op: the loop
    /// stops there.
    fn bisect_crossing(&self, mut lo: f64, mut hi: f64, lo_above: bool, threshold: f64) -> f64 {
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if mid.to_bits() == lo.to_bits() || mid.to_bits() == hi.to_bits() {
                break;
            }
            if (self.value_at_scaled(mid) > threshold) == lo_above {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        crate::to_seconds(0.5 * (lo + hi))
    }

    /// Renders the trace into a sampled [`Waveform`] on `[t0, t1]` seconds
    /// with `n` points.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `t0 >= t1`.
    #[must_use]
    pub fn to_waveform(&self, t0: f64, t1: f64, n: usize) -> Waveform {
        Waveform::from_fn(t0, t1, n, |t| self.value_at(t))
    }

    /// Consumes the trace and returns its transitions.
    #[must_use]
    pub fn into_transitions(self) -> Vec<Sigmoid> {
        self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VDD_DEFAULT;
    use proptest::prelude::*;
    use proptest::rand::rngs::StdRng;
    use proptest::rand::{Rng, SeedableRng};

    impl SigmoidTrace {
        /// Reference oracle: the dense scan — every grid point sampled,
        /// every sign change bisected for the full 60 halvings.
        fn digitize_dense(&self, threshold: f64) -> DigitalTrace {
            if self.transitions.is_empty() {
                return DigitalTrace::constant(self.initial);
            }
            let first = self.transitions.first().expect("non-empty");
            let last = self.transitions.last().expect("non-empty");
            let max_width = self
                .transitions
                .iter()
                .map(|s| 20.0 / s.a.abs())
                .fold(0.0f64, f64::max);
            let x0 = first.b - max_width;
            let x1 = last.b + max_width;
            let min_width = self
                .transitions
                .iter()
                .map(|s| 1.0 / s.a.abs())
                .fold(f64::INFINITY, f64::min);
            let step = (min_width / 4.0).min((x1 - x0) / 256.0);
            let n = (((x1 - x0) / step).ceil() as usize).clamp(257, 2_000_000) + 1;
            let dt = (x1 - x0) / (n - 1) as f64;

            let mut toggles = Vec::new();
            let mut prev_x = x0;
            let mut prev_v = self.value_at_scaled(x0);
            for i in 1..n {
                let x = x0 + i as f64 * dt;
                let v = self.value_at_scaled(x);
                if (prev_v > threshold) != (v > threshold) {
                    let (mut lo, mut hi) = (prev_x, x);
                    let lo_above = prev_v > threshold;
                    for _ in 0..60 {
                        let mid = 0.5 * (lo + hi);
                        if (self.value_at_scaled(mid) > threshold) == lo_above {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    toggles.push(crate::to_seconds(0.5 * (lo + hi)));
                }
                prev_x = x;
                prev_v = v;
            }
            let initial = Level::from_bool(self.value_at_scaled(x0) > threshold);
            DigitalTrace::new(initial, toggles).expect("bisection times increase")
        }
    }

    /// Asserts that `digitize` and the dense-scan reference agree on the
    /// initial level and on every toggle bit for bit.
    fn assert_digitize_refines_dense(t: &SigmoidTrace, threshold: f64) {
        let fast = t.digitize(threshold);
        let dense = t.digitize_dense(threshold);
        assert_eq!(fast.initial(), dense.initial(), "{t:?} at {threshold}");
        let bits = |d: &DigitalTrace| d.toggles().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&dense), "{t:?} at {threshold}");
    }

    /// An alternating trace from `initial` through crossings `bs`
    /// (non-decreasing) with slope magnitudes `mags`.
    fn alternating(initial: Level, bs: &[f64], mags: &[f64]) -> SigmoidTrace {
        let mut rising = !initial.is_high();
        let trs = bs
            .iter()
            .zip(mags)
            .map(|(&b, &a)| {
                let s = if rising {
                    Sigmoid::rising(a, b)
                } else {
                    Sigmoid::falling(a, b)
                };
                rising = !rising;
                s
            })
            .collect();
        SigmoidTrace::from_transitions(initial, trs, VDD_DEFAULT).unwrap()
    }

    /// The gap that puts the peak of a rise/fall pulse (slopes `a1`,
    /// `a2`) at `target` (sum units), by bisection on
    /// [`Sigmoid::pair_extremum`].
    fn gap_for_peak(a1: f64, a2: f64, target: f64) -> f64 {
        let (mut lo, mut hi) = (0.0, 20.0 / a1.min(a2));
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            let peak = Sigmoid::rising(a1, 0.0)
                .pair_extremum(&Sigmoid::falling(a2, mid))
                .sum;
            if peak < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    fn pulse(a: f64, b1: f64, b2: f64) -> SigmoidTrace {
        SigmoidTrace::from_transitions(
            Level::Low,
            vec![Sigmoid::rising(a, b1), Sigmoid::falling(a, b2)],
            VDD_DEFAULT,
        )
        .unwrap()
    }

    #[test]
    fn constant_trace() {
        let t = SigmoidTrace::constant(Level::High, VDD_DEFAULT);
        assert!((t.value_at(0.0) - VDD_DEFAULT).abs() < 1e-12);
        assert!(t.digitize(0.4).is_empty());
        assert_eq!(t.digitize(0.4).initial(), Level::High);
    }

    #[test]
    fn polarity_validation() {
        let err = SigmoidTrace::from_transitions(
            Level::Low,
            vec![Sigmoid::falling(5.0, 1.0)],
            VDD_DEFAULT,
        )
        .unwrap_err();
        assert_eq!(err, BuildTraceError::PolarityViolation { index: 0 });

        let err = SigmoidTrace::from_transitions(
            Level::Low,
            vec![Sigmoid::rising(5.0, 1.0), Sigmoid::rising(5.0, 2.0)],
            VDD_DEFAULT,
        )
        .unwrap_err();
        assert_eq!(err, BuildTraceError::PolarityViolation { index: 1 });
    }

    #[test]
    fn ordering_validation() {
        let err = SigmoidTrace::from_transitions(
            Level::Low,
            vec![Sigmoid::rising(5.0, 2.0), Sigmoid::falling(5.0, 1.0)],
            VDD_DEFAULT,
        )
        .unwrap_err();
        assert_eq!(err, BuildTraceError::OutOfOrder { index: 1 });
    }

    #[test]
    fn invalid_vdd() {
        assert!(matches!(
            SigmoidTrace::from_transitions(Level::Low, vec![], 0.0),
            Err(BuildTraceError::InvalidVdd(_))
        ));
    }

    #[test]
    fn wide_pulse_values() {
        let t = pulse(20.0, 1.0, 4.0);
        assert!(t.value_at_scaled(-5.0).abs() < 1e-3);
        assert!((t.value_at_scaled(2.5) - VDD_DEFAULT).abs() < 1e-3);
        assert!(t.value_at_scaled(10.0).abs() < 1e-3);
        assert_eq!(t.final_level(), Level::Low);
    }

    #[test]
    fn starts_high_offset() {
        let t = SigmoidTrace::from_transitions(
            Level::High,
            vec![Sigmoid::falling(20.0, 1.0), Sigmoid::rising(20.0, 4.0)],
            VDD_DEFAULT,
        )
        .unwrap();
        assert!((t.value_at_scaled(-5.0) - VDD_DEFAULT).abs() < 1e-3);
        assert!(t.value_at_scaled(2.5).abs() < 1e-3);
        assert!((t.value_at_scaled(10.0) - VDD_DEFAULT).abs() < 1e-3);
    }

    #[test]
    fn digitize_wide_pulse() {
        let t = pulse(20.0, 1.0, 4.0);
        let d = t.digitize(VDD_DEFAULT / 2.0);
        assert_eq!(d.len(), 2);
        assert!((d.toggles()[0] - 1.0e-10).abs() < 1e-13);
        assert!((d.toggles()[1] - 4.0e-10).abs() < 1e-13);
    }

    #[test]
    fn digitize_subthreshold_pulse_vanishes() {
        // Overlapping rise/fall that never reaches VDD/2.
        let t = pulse(4.0, 1.0, 1.1);
        let peak = t.transitions()[0].pair_extremum(&t.transitions()[1]);
        assert!(peak.sum < 1.5);
        let d = t.digitize(VDD_DEFAULT / 2.0);
        assert!(d.is_empty(), "sub-threshold pulse must not digitize");
    }

    #[test]
    fn digitize_refines_dense_scan_at_sample_clamp() {
        // Steep transitions over a long span: the grid wants more than
        // 2 M points and is clamped, so steps are coarser than the
        // transitions themselves.
        for (seed, span) in [(1u64, 2.0e4), (2, 6.0e4), (3, 1.0e5)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bs = vec![0.0];
            while bs.len() < 6 {
                let last = *bs.last().expect("non-empty");
                bs.push(last + rng.gen_range(0.0..span / 5.0));
            }
            let mags: Vec<f64> = (0..bs.len()).map(|_| rng.gen_range(30.0..80.0)).collect();
            let t = alternating(Level::Low, &bs, &mags);
            let (_, n, _) = t.digitize_grid();
            assert_eq!(n, 2_000_001, "span {span} must hit the clamp");
            assert_digitize_refines_dense(&t, VDD_DEFAULT / 2.0);
        }
    }

    #[test]
    fn push_maintains_invariants() {
        let mut t = SigmoidTrace::constant(Level::Low, VDD_DEFAULT);
        t.push(Sigmoid::rising(5.0, 1.0)).unwrap();
        assert!(t.push(Sigmoid::rising(5.0, 2.0)).is_err());
        t.push(Sigmoid::falling(5.0, 2.0)).unwrap();
        assert!(t.push(Sigmoid::rising(5.0, 1.5)).is_err());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn to_waveform_round_trip() {
        let t = pulse(20.0, 1.0, 4.0);
        let w = t.to_waveform(0.0, 6e-10, 600);
        let d_trace = t.digitize(0.4);
        let d_wave = w.digitize(0.4);
        assert_eq!(d_trace.len(), d_wave.len());
        for (a, b) in d_trace.toggles().iter().zip(d_wave.toggles()) {
            assert!((a - b).abs() < 2e-12);
        }
    }

    proptest! {
        #[test]
        fn digitize_matches_transition_count_when_separated(
            n in 1usize..6,
            gap in 1.0..3.0f64,
            a in 4.0..40.0f64,
        ) {
            // Well-separated transitions: digitization recovers exactly n toggles
            // at the sigmoid crossing times.
            let mut trs = Vec::new();
            for i in 0..n {
                let b = i as f64 * gap * (40.0 / a).max(1.0);
                let s = if i % 2 == 0 { Sigmoid::rising(a, b) } else { Sigmoid::falling(a, b) };
                trs.push(s);
            }
            let t = SigmoidTrace::from_transitions(Level::Low, trs.clone(), VDD_DEFAULT).unwrap();
            let d = t.digitize(VDD_DEFAULT / 2.0);
            prop_assert_eq!(d.len(), n);
            for (tog, s) in d.toggles().iter().zip(&trs) {
                prop_assert!((tog - s.crossing_seconds()).abs() < 1e-12,
                    "toggle {} vs crossing {}", tog, s.crossing_seconds());
            }
        }

        /// Random alternating traces — one transition to many, coincident
        /// and overlapping crossings, mixed slopes — at thresholds across
        /// and beyond the swing, including thresholds equal to sampled
        /// trace values.
        #[test]
        fn digitize_refines_dense_scan(
            seed in 0u64..u64::MAX,
            count in 1usize..24,
            high in any::<bool>(),
            pin_threshold in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = rng.gen_range(-5.0..5.0);
            let mut bs = Vec::new();
            let mut mags = Vec::new();
            for _ in 0..count {
                bs.push(b);
                mags.push(rng.gen_range(0.5..60.0));
                b += if rng.gen_range(0..6) == 0 { 0.0 } else { rng.gen_range(0.0..1.5) };
            }
            let initial = Level::from_bool(high);
            let t = alternating(initial, &bs, &mags);
            let threshold = if pin_threshold {
                t.value_at_scaled(bs[rng.gen_range(0..count)] + rng.gen_range(-0.2..0.2))
            } else {
                rng.gen_range(-0.1..1.1) * VDD_DEFAULT
            };
            assert_digitize_refines_dense(&t, threshold);
            assert_digitize_refines_dense(&t, VDD_DEFAULT / 2.0);
        }

        /// Narrow pulses whose peak sits just below, at and just above the
        /// half-swing threshold: the near-threshold plateau is where the
        /// range bound cannot clear and sampling must take over.
        #[test]
        fn digitize_refines_dense_scan_near_threshold(
            a1 in 2.0..40.0f64,
            a2 in 2.0..40.0f64,
            offset in -1e-3..1e-3f64,
            falling_pulse in any::<bool>(),
            tail in any::<bool>(),
        ) {
            let gap = gap_for_peak(a1, a2, 1.5 + offset);
            let (initial, mut bs, mut mags) = (
                Level::from_bool(falling_pulse),
                vec![1.0, 1.0 + gap],
                vec![a1, a2],
            );
            if tail {
                // A full-swing pulse after the narrow one.
                bs.extend([4.0, 6.0]);
                mags.extend([20.0, 20.0]);
            }
            let t = alternating(initial, &bs, &mags);
            assert_digitize_refines_dense(&t, VDD_DEFAULT / 2.0);
            // Threshold pinned at the pulse's own peak value.
            let peak = t.transitions()[0].pair_extremum(&t.transitions()[1]);
            assert_digitize_refines_dense(&t, t.value_at_scaled(peak.scaled_time));
        }

        /// Sub-threshold pulses far narrower than their slopes: no toggles
        /// either way, and the same initial level.
        #[test]
        fn digitize_refines_dense_scan_subthreshold(
            a in 1.0..30.0f64,
            gap_frac in 0.0..0.5f64,
            pulses in 1usize..5,
        ) {
            let mut bs = Vec::new();
            for p in 0..pulses {
                let b = 3.0 * p as f64;
                bs.extend([b, b + gap_frac / a]);
            }
            let t = alternating(Level::Low, &bs, &vec![a; bs.len()]);
            assert_digitize_refines_dense(&t, VDD_DEFAULT / 2.0);
        }

        #[test]
        fn value_bounded_for_alternating_traces(
            n in 0usize..8,
            a in 2.0..50.0f64,
            x in -10.0..50.0f64,
        ) {
            let mut trs = Vec::new();
            for i in 0..n {
                let b = i as f64 * 3.0;
                trs.push(if i % 2 == 0 { Sigmoid::rising(a, b) } else { Sigmoid::falling(a, b) });
            }
            let t = SigmoidTrace::from_transitions(Level::Low, trs, VDD_DEFAULT).unwrap();
            let v = t.value_at_scaled(x);
            prop_assert!(v > -0.2 * VDD_DEFAULT && v < 1.2 * VDD_DEFAULT,
                "trace value {} out of physical range", v);
        }
    }
}
