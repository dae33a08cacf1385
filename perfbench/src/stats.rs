//! Order statistics for latency samples.
//!
//! A timing is reported as a median and a tail percentile. The tail is the
//! requested percentile when the sample supports it, and otherwise the
//! highest percentile that still leaves [`MIN_BEYOND`] samples above it —
//! a percentile estimated from fewer than ten tail samples is mostly noise.
//! The sample count is reported with every tail.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off a sample, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile actually reported, in `(0, 100)`.
    pub pct: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Samples in the population.
    pub samples: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// Reads percentile `want` (e.g. `99.0`) from `samples` by nearest rank,
/// lowered to the highest percentile with at least [`MIN_BEYOND`] samples
/// beyond it. `None` when even that cannot reach `want` and the median —
/// fewer than `2 · MIN_BEYOND` samples.
pub fn percentile(samples: &[f64], want: f64) -> Option<Percentile> {
    let n = samples.len();
    if n < 2 * MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n_f = n as f64;
    let highest = 100.0 * (n - MIN_BEYOND) as f64 / n_f;
    let pct = want.min(highest);
    // Nearest rank: the smallest rank r with r / n >= pct / 100. The
    // tolerance keeps float error in `pct * n` from rounding one rank up.
    let rank = (pct * n_f / 100.0 - 1e-9).ceil().clamp(1.0, n_f) as usize;
    Some(Percentile {
        pct,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The plain median of any non-empty sample (no tail requirement), for
/// per-layer figures and repeated set-up timings.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}
