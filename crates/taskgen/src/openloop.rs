//! Seeded open-loop request generator for serving workloads.
//!
//! A closed-loop load generator waits for responses and therefore
//! self-throttles when the server falls behind — it cannot express a
//! *flood*. Serving experiments need an open-loop arrival process: requests
//! arrive on their own schedule whether or not the server keeps up, which
//! is exactly what makes overload, shedding, and backpressure observable.
//!
//! The generator produces a deterministic stream of [`Request`]s from a
//! [`SplitMix64`] pair (one stream for interarrivals, one for work sizes,
//! both split from a `(seed, stream)` pair so per-tenant streams are
//! independent and a tenant's arrivals do not change when another tenant's
//! parameters do):
//!
//! * **Heavy-tailed interarrivals** — a bounded Pareto with tail index
//!   α = 2, inverted through `sqrt` (an IEEE-754 core operation, bit-exact
//!   on every platform — unlike `powf`/`ln`, which go through libm and
//!   would make checked-in goldens platform-dependent). The tail is capped
//!   at a configurable multiple of the mean so one draw cannot stall the
//!   stream forever.
//! * **A diurnal load curve** — arrival rate modulated by a triangle wave
//!   (again: no `sin`, which is libm) of configurable period and depth, so
//!   a long soak sweeps through off-peak and peak load.
//! * **Jittered work sizes** — uniform in `mean × [1 − jitter, 1 + jitter]`.
//!
//! Time is plain `f64` milliseconds: the generator feeds harnesses that
//! batch arrivals into server periods (one tree timer per generator), and
//! those own the conversion into kernel [`rtdvs_core::time::Time`].

use core::fmt;

use crate::rng::SplitMix64;

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Arrival time, in milliseconds since the stream's start.
    pub at_ms: f64,
    /// Work the request demands, in milliseconds of CPU at full speed.
    pub work_ms: f64,
}

/// Parameters of one open-loop request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSpec {
    /// Nominal mean interarrival gap, in ms (the uncapped α = 2 Pareto
    /// mean; the tail cap pulls the realized mean slightly below this).
    pub mean_interarrival_ms: f64,
    /// Tail cap as a multiple of the mean gap: no single gap exceeds
    /// `cap × mean`. Must be ≥ 1.
    pub interarrival_cap: f64,
    /// Mean per-request work, in ms.
    pub mean_work_ms: f64,
    /// Work spread: each request draws uniformly from
    /// `mean × [1 − jitter, 1 + jitter]`. In `[0, 1)`.
    pub work_jitter: f64,
    /// Period of the diurnal load triangle wave, in ms. Ignored when
    /// `diurnal_depth` is zero.
    pub diurnal_period_ms: f64,
    /// Depth of the diurnal modulation: the arrival rate swings between
    /// `(1 − depth)` and `(1 + depth)` times nominal. In `[0, 1)`.
    pub diurnal_depth: f64,
}

/// Why an [`OpenLoopSpec`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenLoopError {
    /// `mean_interarrival_ms` was not strictly positive.
    NonPositiveInterarrival,
    /// `interarrival_cap` was below 1.
    CapBelowOne,
    /// `mean_work_ms` was not strictly positive.
    NonPositiveWork,
    /// `work_jitter` was outside `[0, 1)`.
    JitterOutOfRange,
    /// `diurnal_depth` was outside `[0, 1)`.
    DepthOutOfRange,
    /// `diurnal_period_ms` was not strictly positive while the depth was
    /// non-zero.
    NonPositiveDiurnalPeriod,
}

impl fmt::Display for OpenLoopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenLoopError::NonPositiveInterarrival => {
                write!(f, "mean interarrival must be positive")
            }
            OpenLoopError::CapBelowOne => write!(f, "interarrival cap must be at least 1"),
            OpenLoopError::NonPositiveWork => write!(f, "mean work must be positive"),
            OpenLoopError::JitterOutOfRange => write!(f, "work jitter must be in [0, 1)"),
            OpenLoopError::DepthOutOfRange => write!(f, "diurnal depth must be in [0, 1)"),
            OpenLoopError::NonPositiveDiurnalPeriod => {
                write!(f, "diurnal period must be positive when depth is non-zero")
            }
        }
    }
}

impl std::error::Error for OpenLoopError {}

/// A deterministic open-loop request stream.
#[derive(Debug, Clone)]
pub struct OpenLoopGen {
    spec: OpenLoopSpec,
    gaps: SplitMix64,
    works: SplitMix64,
    clock_ms: f64,
    /// The next request, already generated: [`OpenLoopGen::drain_until`]
    /// draws the first request past its horizon and keeps it here.
    peeked: Option<Request>,
}

impl OpenLoopGen {
    /// Creates a stream from `(seed, stream)`. Distinct stream ids on the
    /// same seed yield statistically independent streams (the split is the
    /// same Weyl-step construction the fault injector uses), so a
    /// per-tenant stream survives other tenants being added or removed.
    ///
    /// # Errors
    ///
    /// An [`OpenLoopError`] naming the invalid field.
    pub fn new(spec: OpenLoopSpec, seed: u64, stream: u64) -> Result<OpenLoopGen, OpenLoopError> {
        if spec.mean_interarrival_ms.is_nan() || spec.mean_interarrival_ms <= 0.0 {
            return Err(OpenLoopError::NonPositiveInterarrival);
        }
        if spec.interarrival_cap.is_nan() || spec.interarrival_cap < 1.0 {
            return Err(OpenLoopError::CapBelowOne);
        }
        if spec.mean_work_ms.is_nan() || spec.mean_work_ms <= 0.0 {
            return Err(OpenLoopError::NonPositiveWork);
        }
        if !(0.0..1.0).contains(&spec.work_jitter) {
            return Err(OpenLoopError::JitterOutOfRange);
        }
        if !(0.0..1.0).contains(&spec.diurnal_depth) {
            return Err(OpenLoopError::DepthOutOfRange);
        }
        if spec.diurnal_depth > 0.0
            && (spec.diurnal_period_ms.is_nan() || spec.diurnal_period_ms <= 0.0)
        {
            return Err(OpenLoopError::NonPositiveDiurnalPeriod);
        }
        let root = SplitMix64::seed_from_u64(seed).split(stream);
        Ok(OpenLoopGen {
            spec,
            gaps: root.split(0x0A_0001),
            works: root.split(0x0A_0002),
            clock_ms: 0.0,
            peeked: None,
        })
    }

    /// The diurnal rate multiplier at `t`: a triangle wave through
    /// `[1 − depth, 1 + depth]`, starting at the trough.
    fn rate_at(&self, t_ms: f64) -> f64 {
        if self.spec.diurnal_depth.abs() < rtdvs_core::time::EPS {
            return 1.0;
        }
        let phase = t_ms / self.spec.diurnal_period_ms;
        let frac = phase - phase.floor();
        let tri = if frac < 0.5 {
            4.0 * frac - 1.0
        } else {
            3.0 - 4.0 * frac
        };
        1.0 + self.spec.diurnal_depth * tri
    }

    /// Generates the next request. The stream is unbounded; callers stop
    /// at their horizon.
    pub fn next_request(&mut self) -> Request {
        match self.peeked.take() {
            Some(r) => r,
            None => self.generate(),
        }
    }

    fn generate(&mut self) -> Request {
        // Bounded Pareto(α = 2) gap: xm / sqrt(1 − U) with xm = mean / 2
        // (so the uncapped mean is the nominal one), capped at cap × mean.
        let u = self.gaps.next_f64();
        let xm = self.spec.mean_interarrival_ms / 2.0;
        let raw = (xm / (1.0 - u).sqrt())
            .min(self.spec.interarrival_cap * self.spec.mean_interarrival_ms);
        // The diurnal curve scales the *rate*, so it divides the gap.
        let gap = raw / self.rate_at(self.clock_ms);
        self.clock_ms += gap;
        let j = self.spec.work_jitter;
        let work = self.spec.mean_work_ms * self.works.range_f64(1.0 - j, 1.0 + j);
        Request {
            at_ms: self.clock_ms,
            work_ms: work,
        }
    }

    /// Every request arriving strictly before `until_ms`, appended to
    /// `out` (the batched-release path: one call per simulator tick). The
    /// first request at or past the horizon stays in the generator and is
    /// the next one handed out. A non-finite `until_ms` (NaN or ±∞) drains
    /// nothing and leaves the stream where it was; draining up to +∞ would
    /// never return.
    pub fn drain_until(&mut self, until_ms: f64, out: &mut Vec<Request>) {
        if !until_ms.is_finite() {
            return;
        }
        loop {
            let r = self.next_request();
            if r.at_ms >= until_ms {
                self.peeked = Some(r);
                return;
            }
            out.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> OpenLoopSpec {
        OpenLoopSpec {
            mean_interarrival_ms: 2.0,
            interarrival_cap: 50.0,
            mean_work_ms: 0.1,
            work_jitter: 0.5,
            diurnal_period_ms: 1000.0,
            diurnal_depth: 0.4,
        }
    }

    #[test]
    fn validation_names_the_offending_field() {
        let cases = [
            (
                OpenLoopSpec {
                    mean_interarrival_ms: 0.0,
                    ..spec()
                },
                OpenLoopError::NonPositiveInterarrival,
            ),
            (
                OpenLoopSpec {
                    interarrival_cap: 0.5,
                    ..spec()
                },
                OpenLoopError::CapBelowOne,
            ),
            (
                OpenLoopSpec {
                    mean_work_ms: -1.0,
                    ..spec()
                },
                OpenLoopError::NonPositiveWork,
            ),
            (
                OpenLoopSpec {
                    work_jitter: 1.0,
                    ..spec()
                },
                OpenLoopError::JitterOutOfRange,
            ),
            (
                OpenLoopSpec {
                    diurnal_depth: -0.1,
                    ..spec()
                },
                OpenLoopError::DepthOutOfRange,
            ),
            (
                OpenLoopSpec {
                    diurnal_period_ms: 0.0,
                    ..spec()
                },
                OpenLoopError::NonPositiveDiurnalPeriod,
            ),
        ];
        for (s, want) in cases {
            assert_eq!(OpenLoopGen::new(s, 1, 1).err(), Some(want), "{s:?}");
        }
        assert!(OpenLoopGen::new(spec(), 1, 1).is_ok());
    }

    #[test]
    fn streams_are_deterministic_and_monotone() {
        let mut a = OpenLoopGen::new(spec(), 42, 7).unwrap();
        let mut b = OpenLoopGen::new(spec(), 42, 7).unwrap();
        let mut last = 0.0;
        for _ in 0..10_000 {
            let ra = a.next_request();
            let rb = b.next_request();
            assert_eq!(ra.at_ms.to_bits(), rb.at_ms.to_bits());
            assert_eq!(ra.work_ms.to_bits(), rb.work_ms.to_bits());
            assert!(ra.at_ms > last, "arrivals must advance");
            last = ra.at_ms;
        }
    }

    #[test]
    fn distinct_streams_differ_and_survive_neighbors() {
        let mut s1 = OpenLoopGen::new(spec(), 42, 1).unwrap();
        let mut s2 = OpenLoopGen::new(spec(), 42, 2).unwrap();
        let r1 = s1.next_request();
        let r2 = s2.next_request();
        assert_ne!(r1, r2, "streams must be independent");
        // The same (seed, stream) gives the same arrivals regardless of
        // what other streams exist — the isolation property the bench's
        // flood-vs-baseline comparison depends on.
        let mut again = OpenLoopGen::new(spec(), 42, 1).unwrap();
        assert_eq!(again.next_request(), r1);
    }

    #[test]
    fn mean_gap_and_work_land_near_nominal() {
        let s = OpenLoopSpec {
            diurnal_depth: 0.0,
            ..spec()
        };
        let mut g = OpenLoopGen::new(s, 7, 0).unwrap();
        let n = 200_000;
        let mut last = 0.0;
        let mut sum_gap = 0.0;
        let mut sum_work = 0.0;
        let mut max_gap = 0.0f64;
        for _ in 0..n {
            let r = g.next_request();
            sum_gap += r.at_ms - last;
            max_gap = max_gap.max(r.at_ms - last);
            sum_work += r.work_ms;
            last = r.at_ms;
            assert!(r.work_ms >= 0.05 - 1e-12 && r.work_ms <= 0.15 + 1e-12);
        }
        let mean_gap = sum_gap / f64::from(n);
        // The cap trims the α = 2 tail, so the realized mean sits below
        // nominal but well within the same regime.
        assert!(
            mean_gap > 1.2 && mean_gap < 2.0,
            "mean gap {mean_gap} far from nominal 2.0"
        );
        assert!(max_gap <= 100.0 + 1e-9, "cap of 50×mean violated");
        let mean_work = sum_work / f64::from(n);
        assert!((mean_work - 0.1).abs() < 0.005, "mean work {mean_work}");
    }

    #[test]
    fn diurnal_curve_modulates_the_rate() {
        // Count arrivals in the first (trough-centered) and second
        // (peak-centered) halves of one diurnal period.
        let mut g = OpenLoopGen::new(spec(), 11, 3).unwrap();
        let (mut trough, mut peak) = (0u32, 0u32);
        loop {
            let r = g.next_request();
            if r.at_ms >= 1000.0 {
                break;
            }
            let frac = r.at_ms / 1000.0;
            if !(0.25..0.75).contains(&frac) {
                trough += 1;
            } else {
                peak += 1;
            }
        }
        assert!(
            peak > trough,
            "peak half ({peak}) should out-arrive trough half ({trough})"
        );
    }

    #[test]
    fn drain_until_batches_without_losing_or_reordering() {
        let mut whole = OpenLoopGen::new(spec(), 99, 5).unwrap();
        let mut batched = OpenLoopGen::new(spec(), 99, 5).unwrap();
        let mut direct = Vec::new();
        loop {
            let r = whole.next_request();
            if r.at_ms >= 500.0 {
                break;
            }
            direct.push(r);
        }
        let mut via_batches = Vec::new();
        let mut t = 0.0f64;
        while t < 500.0 {
            batched.drain_until((t + 10.0).min(500.0), &mut via_batches);
            t += 10.0;
        }
        assert_eq!(direct, via_batches);
    }

    #[test]
    fn non_finite_horizons_drain_nothing() {
        let fresh = OpenLoopGen::new(spec(), 99, 5).unwrap().next_request();
        let mut g = OpenLoopGen::new(spec(), 99, 5).unwrap();
        let mut out = Vec::new();
        for horizon in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            g.drain_until(horizon, &mut out);
            assert!(out.is_empty(), "{horizon}: drained {}", out.len());
        }
        assert_eq!(g.next_request(), fresh);
    }

    #[test]
    fn a_peek_through_a_clone_sees_the_next_drained_request() {
        let mut g = OpenLoopGen::new(spec(), 3, 1).unwrap();
        let mut out = Vec::new();
        g.drain_until(100.0, &mut out);
        let peeked = g.clone().next_request();
        assert!(peeked.at_ms >= 100.0);
        out.clear();
        g.drain_until(peeked.at_ms + 1.0, &mut out);
        assert_eq!(out.first(), Some(&peeked));
    }
}
