//! Order statistics over raw samples.
//!
//! Latency figures are computed from every recorded sample, never from
//! histogram buckets, and a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples required beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; `0` when `xs` is empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One reported percentile with the sample counts that back it.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    /// The nearest-rank sample value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Calls timed; more than `samples` once the buffer decimated.
    pub calls: u64,
}

impl Quantile {
    /// The value and counts as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"value\": {}, \"samples\": {}, \"beyond\": {}, \"calls\": {}}}",
            self.value, self.samples, self.beyond, self.calls
        )
    }
}

/// Samples a [`Latencies`] buffer holds before it decimates.
const CAPACITY: usize = 1 << 18;

/// Raw nanosecond latency samples of one request kind.
///
/// Every call is recorded until the buffer holds [`CAPACITY`] samples;
/// from then on the buffer keeps every second sample and records every
/// second call, and so on, so memory stays bounded while the kept
/// samples remain an evenly spaced subset of all calls.
#[derive(Debug, Clone)]
pub struct Latencies {
    ns: Vec<u32>,
    calls: u64,
    stride: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Self {
            ns: Vec::new(),
            calls: 0,
            stride: 1,
        }
    }
}

impl Latencies {
    /// Records one call's latency.
    pub fn push(&mut self, ns: u64) {
        if self.calls.is_multiple_of(self.stride) {
            self.ns.push(ns.min(u64::from(u32::MAX)) as u32);
            if self.ns.len() == CAPACITY {
                let mut keep = 0;
                self.ns.retain(|_| {
                    keep += 1;
                    keep % 2 == 1
                });
                self.stride *= 2;
            }
        }
        self.calls += 1;
    }

    /// Records a call's latency from a [`std::time::Duration`].
    pub fn push_elapsed(&mut self, d: std::time::Duration) {
        self.push(d.as_nanos() as u64);
    }

    /// Samples given in seconds.
    pub fn from_secs(secs: &[f64]) -> Self {
        let mut l = Self::default();
        for s in secs {
            l.push((s * 1e9) as u64);
        }
        l
    }

    /// Number of kept samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Number of calls recorded, kept or not.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The nearest-rank `q` quantile scaled by `1/divisor` (1e3 gives
    /// microseconds), or `None` when fewer than [`MIN_BEYOND`] samples
    /// lie beyond it.
    pub fn quantile(&self, q: f64, divisor: f64) -> Option<Quantile> {
        let n = self.ns.len();
        if n == 0 {
            return None;
        }
        let mut v = self.ns.clone();
        v.sort_unstable();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        let beyond = n - rank - 1;
        (beyond >= MIN_BEYOND).then(|| Quantile {
            value: f64::from(v[rank]) / divisor,
            samples: n,
            beyond,
            calls: self.calls,
        })
    }
}

/// A small deterministic generator (SplitMix64) for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator; distinct `stream`s give independent streams.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_needs_samples_beyond() {
        let mut l = Latencies::default();
        for i in 1..=20 {
            l.push(i * 1000);
        }
        let p50 = l.quantile(0.5, 1e3).expect("p50 has 10 beyond");
        assert_eq!((p50.value, p50.beyond), (10.0, 10));
        assert!(l.quantile(0.99, 1e3).is_none());
    }

    #[test]
    fn decimation_keeps_evenly_spaced_samples() {
        let mut l = Latencies::default();
        let calls = CAPACITY as u64 * 3;
        for i in 0..calls {
            l.push(i);
        }
        assert_eq!(l.calls(), calls);
        assert!(l.len() < CAPACITY && l.len() >= CAPACITY / 2);
        assert!(l.ns.windows(2).all(|w| u64::from(w[1] - w[0]) == l.stride));
        let p50 = l.quantile(0.5, 1.0).expect("p50");
        assert!((p50.value - calls as f64 / 2.0).abs() < l.stride as f64 * 2.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
