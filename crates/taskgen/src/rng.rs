//! A tiny seeded PRNG so the whole workspace builds with std only.
//!
//! The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a
//! 64-bit counter passed through a mixing function. It is not
//! cryptographic, but it is fast, stateless beyond one word, passes
//! BigCrush when used as intended, and — crucially for this repo — makes
//! every simulation and task-set draw reproducible from a single `u64`
//! seed with no external crates.

/// Deterministic 64-bit PRNG (SplitMix64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Equal seeds yield equal
    /// streams.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The generator's full internal state (a single word). Feeding it back
    /// through [`SplitMix64::seed_from_u64`] reconstructs the generator
    /// exactly, which is what checkpoint/restore paths need: the stream
    /// continues from the next draw as if nothing happened.
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Derives an independent child generator for `stream_id`.
    ///
    /// The child seed is the parent state (not advanced) combined with the
    /// stream id pushed through two rounds of the SplitMix64 finalizer, so
    /// children of adjacent ids start at unrelated points of the sequence
    /// space rather than one step apart. Splitting is pure: the parent is
    /// unchanged, and `(seed, stream_id)` always yields the same child —
    /// exactly what sharded experiment runners need to hand each shard its
    /// own reproducible stream from one experiment seed.
    #[must_use]
    pub fn split(&self, stream_id: u64) -> SplitMix64 {
        // Weyl-step the id so ids 0, 1, 2, … land far apart, then mix the
        // parent state in; one more finalizer round decorrelates the
        // child's first output from the parent's.
        let salted = self
            .state
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream_id.wrapping_add(1)));
        SplitMix64 {
            state: mix64(mix64(salted)),
        }
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; 2^-53 scales them into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty range");
        // Multiply-shift reduction (Lemire); the bias for the n used here
        // (band counts, task counts) is far below 2^-50.
        let n64 = n as u64;
        let hi = ((u128::from(self.next_u64()) * u128::from(n64)) >> 64) as u64;
        hi as usize
    }

    /// A uniform draw from the half-open interval `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad range");
        lo + (hi - lo) * self.next_f64()
    }

    /// A uniform draw from the closed interval `[lo, hi]`.
    ///
    /// The upper bound is attainable (with probability ~2^-53 per draw),
    /// matching the semantics the former `rand` inclusive ranges had.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn range_f64_inclusive(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad range");
        // Scale by 2^-53 over 2^53 + 1 equally-likely lattice points would
        // need rejection; for simulation purposes, stretching the half-open
        // draw by one ulp-step is indistinguishable and keeps the code one
        // line.
        let f = (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        lo + (hi - lo) * f
    }
}

/// The SplitMix64 output finalizer as a pure function of a word.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::seed_from_u64(43);
        assert_ne!(SplitMix64::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn state_round_trips_exactly() {
        let mut r = SplitMix64::seed_from_u64(0xABCD);
        for _ in 0..17 {
            let _ = r.next_u64();
        }
        let mut resumed = SplitMix64::seed_from_u64(r.state());
        for _ in 0..64 {
            assert_eq!(r.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn known_answer_vector() {
        // Reference outputs for seed 0 from the published SplitMix64
        // algorithm.
        let mut r = SplitMix64::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn split_streams_are_reproducible_and_leave_parent_untouched() {
        let parent = SplitMix64::seed_from_u64(0x5eed);
        let mut a = parent.split(3);
        let mut b = parent.split(3);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Splitting never advances the parent.
        let mut p1 = parent;
        let mut p2 = SplitMix64::seed_from_u64(0x5eed);
        assert_eq!(p1.next_u64(), p2.next_u64());
    }

    #[test]
    fn split_streams_are_pairwise_disjoint() {
        // Four shards drawing 1000 words each from splits of one seed must
        // never collide — 4000 draws from a 2^64 space collide with
        // probability ~4e-13, so any overlap means the streams are related.
        let parent = SplitMix64::seed_from_u64(42);
        let mut seen = std::collections::HashSet::new();
        for stream in 0..4u64 {
            let mut child = parent.split(stream);
            for _ in 0..1000 {
                assert!(
                    seen.insert(child.next_u64()),
                    "stream {stream} repeated an output of an earlier stream"
                );
            }
        }
    }

    #[test]
    fn split_depends_on_both_seed_and_stream() {
        let a = SplitMix64::seed_from_u64(1).split(0);
        let b = SplitMix64::seed_from_u64(1).split(1);
        let c = SplitMix64::seed_from_u64(2).split(0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Adjacent stream ids must not yield shifted copies of one stream:
        // a's second output differing from b's first is the cheap check.
        let (mut a, mut b) = (a, b);
        let a0 = a.next_u64();
        let a1 = a.next_u64();
        let b0 = b.next_u64();
        assert_ne!(a1, b0);
        assert_ne!(a0, b0);
    }

    #[test]
    fn f64_stays_in_unit_interval_and_varies() {
        let mut r = SplitMix64::seed_from_u64(7);
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            min = min.min(x);
            max = max.max(x);
        }
        assert!(min < 0.05 && max > 0.95, "poor spread: [{min}, {max}]");
    }

    #[test]
    fn mean_is_near_half() {
        let mut r = SplitMix64::seed_from_u64(11);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn index_covers_range_uniformly() {
        let mut r = SplitMix64::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[r.index(3)] += 1;
        }
        for c in counts {
            assert!((800..=1200).contains(&c), "skewed bucket {c}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_rejects_zero() {
        SplitMix64::seed_from_u64(0).index(0);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SplitMix64::seed_from_u64(5);
        for _ in 0..1_000 {
            let x = r.range_f64(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            let y = r.range_f64_inclusive(-1.0, 1.0);
            assert!((-1.0..=1.0).contains(&y));
        }
        // Degenerate ranges are fine.
        assert_eq!(r.range_f64(4.0, 4.0), 4.0);
        assert_eq!(r.range_f64_inclusive(4.0, 4.0), 4.0);
    }
}
