//! Order statistics, the response-time histogram and the result digest.

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`): the smallest
/// sample with at least `q · n` samples at or below it. `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len() as u64, q) as usize - 1])
}

/// Median of `samples` (nearest rank, so always one of the samples).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// 1-based nearest rank of quantile `q` among `n ≥ 1` samples.
fn nearest_rank(n: u64, q: f64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Simulated response times in 1 µs buckets. Memory grows with the
/// largest response seen, not with the number of requests, so a long
/// soak's memory peak measures the kernel rather than the benchmark.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Records one response of `ms` milliseconds (negative clamps to 0).
    pub fn record_ms(&mut self, ms: f64) {
        let bucket = (ms * 1000.0).max(0.0) as usize;
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Responses recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile in ms, reported as the upper edge of its
    /// bucket (the response was at most this long). `None` when empty.
    pub fn percentile_ms(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = nearest_rank(self.total, q);
        let mut seen = 0;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((bucket + 1) as f64 / 1000.0);
            }
        }
        unreachable!("ranks never exceed the recorded total")
    }

    /// Feeds every bucket count into `digest`.
    pub fn digest_into(&self, digest: &mut Digest) {
        digest.u64(self.counts.len() as u64);
        for &c in &self.counts {
            digest.u64(c);
        }
    }
}

/// FNV-1a over the deterministic outputs of a run (`result_digest`). A
/// change that only makes the code faster leaves it unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs an integer (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.5), Some(2.0));
        assert_eq!(percentile(&s, 0.75), Some(3.0));
        assert_eq!(percentile(&s, 0.99), Some(4.0));
        assert_eq!(percentile(&s, 0.01), Some(1.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        // Odd count: the middle sample, never an interpolation.
        assert_eq!(median(&[5.0, 1.0, 9.0]), Some(5.0));
    }

    #[test]
    fn histogram_ranks_match_sorted_samples() {
        let samples = [0.0004, 2.5, 2.5001, 0.75, 10.0, 3.2, 3.2, 0.0];
        let mut h = Histogram::default();
        for &s in &samples {
            h.record_ms(s);
        }
        assert_eq!(h.len(), samples.len() as u64);
        for q in [0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let exact = percentile(&samples, q).expect("non-empty");
            let bucketed = h.percentile_ms(q).expect("non-empty");
            // Upper bucket edge: never below the exact value, within 1 µs.
            assert!(
                bucketed >= exact && bucketed - exact <= 0.001 + 1e-12,
                "q={q}"
            );
        }
        assert_eq!(Histogram::default().percentile_ms(0.5), None);
    }

    #[test]
    fn histogram_p99_needs_the_tail() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record_ms(1.0);
        }
        h.record_ms(50.0);
        assert_eq!(h.percentile_ms(0.99), Some(1.001));
        assert_eq!(h.percentile_ms(1.0), Some(50.001));
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.u64(42);
        a.f64(1.5);
        // Pinned: the digest of a given output stream never changes, so
        // README digests stay comparable across commits.
        assert_eq!(a.value(), 0xc04e_9587_bee5_cae6);
        let mut b = Digest::default();
        b.f64(1.5);
        b.u64(42);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.bytes(b"");
        assert_eq!(c.value(), Digest::default().value());
        // The standard FNV-1a test vector.
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
    }
}
