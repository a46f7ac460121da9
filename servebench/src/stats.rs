//! Sample statistics taken from sorted raw samples — never from
//! histogram buckets, so a quantile is always a latency some request
//! actually saw.

/// Nearest-rank quantile of an ascending-sorted sample: the smallest
/// sample with at least `q·n` samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let n = sorted.len();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Sorts a sample ascending (total order; NaN-free inputs expected).
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Arithmetic mean (`0` for an empty sample).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0` when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One frame answered inside the measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the reply arrived, in seconds since the window opened.
    pub done_s: f64,
    /// Client latency in ms.
    pub latency_ms: f64,
    /// Simulations the frame carried.
    pub sims: u64,
}

/// A window's throughput and latency quantiles, each the median over
/// consecutive chunks of the samples, so a host hiccup confined to one
/// chunk moves none of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Simulations per second: chunk sims over the time since the previous
    /// chunk's last reply (the window's opening for the first chunk).
    pub sims_per_s: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile latency, ms.
    pub p90_ms: f64,
}

/// Summarizes a window's samples over `chunks` consecutive chunks in
/// reply order; `None` without enough samples for one per chunk.
#[must_use]
pub fn summarize(samples: &[Sample], chunks: usize) -> Option<Summary> {
    let mut by_done = samples.to_vec();
    by_done.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let n = by_done.len();
    if chunks == 0 || n < chunks {
        return None;
    }
    let (mut rates, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    let mut opened = 0.0;
    for k in 0..chunks {
        let chunk = &by_done[k * n / chunks..(k + 1) * n / chunks];
        let closed = chunk[chunk.len() - 1].done_s;
        let sims: u64 = chunk.iter().map(|s| s.sims).sum();
        rates.push(sims as f64 / (closed - opened));
        opened = closed;
        let latencies = sorted(chunk.iter().map(|s| s.latency_ms).collect());
        p50.push(quantile(&latencies, 0.5));
        p90.push(quantile(&latencies, 0.9));
    }
    Some(Summary {
        sims_per_s: median(&rates),
        p50_ms: median(&p50),
        p90_ms: median(&p90),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The definition, checked by brute force: the smallest sample `x`
    /// such that at least `q·n` samples are `<= x`.
    fn oracle(values: &[f64], q: f64) -> f64 {
        let need = q * values.len() as f64;
        values
            .iter()
            .copied()
            .filter(|&x| values.iter().filter(|&&v| v <= x).count() as f64 >= need)
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn quantiles_match_the_sorted_sample_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            // Few distinct values, so ties are common.
            let values: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..50u32))).collect();
            let s = sorted(values.clone());
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let want = if q == 0.0 { s[0] } else { oracle(&values, q) };
                assert_eq!(quantile(&s, q), want, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn chunk_medians_ignore_a_hiccup_in_one_chunk() {
        // 100 frames of 1 sim, one every 10 ms at 5 ms latency; frames
        // 10..25 stall at 500 ms.
        let samples: Vec<Sample> = (0..100)
            .map(|i| Sample {
                done_s: 0.01 * f64::from(i + 1),
                latency_ms: if (10..25).contains(&i) { 500.0 } else { 5.0 },
                sims: 1,
            })
            .collect();
        let s = summarize(&samples, 5).expect("enough samples");
        assert_eq!(s.p50_ms, 5.0);
        assert_eq!(s.p90_ms, 5.0);
        assert!((s.sims_per_s - 100.0).abs() < 1e-6, "{}", s.sims_per_s);
        let whole = sorted(samples.iter().map(|s| s.latency_ms).collect());
        assert_eq!(quantile(&whole, 0.9), 500.0, "the plain p90 would move");
        assert_eq!(summarize(&samples[..3], 5), None);
    }

    #[test]
    fn quantiles_are_samples_not_bucket_bounds() {
        let s = sorted(vec![0.3, 0.31, 0.33, 0.37, 44.0]);
        assert_eq!(quantile(&s, 0.5), 0.33);
        assert_eq!(quantile(&s, 0.9), 44.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
