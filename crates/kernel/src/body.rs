//! Task bodies: the application side of a periodic real-time task.
//!
//! In the prototype (§4.2), a user task writes its period and worst-case
//! computing bound to the kernel module, then loops doing work and writing
//! a completion notification each invocation. In this virtual-time kernel a
//! task's per-invocation CPU demand is supplied by a [`TaskBody`], which
//! plays the role of the user-level loop.

use rtdvs_core::task::Task;
use rtdvs_core::time::{Time, Work};
use rtdvs_taskgen::SplitMix64;

/// Supplies the actual computation demand of each invocation.
pub trait TaskBody: Send {
    /// Returns the work (at maximum frequency) that invocation
    /// `invocation` (1-based) consumes. Values above the task's WCET model
    /// an overrun (condition C2 violated) and are executed as returned.
    fn run(&mut self, invocation: u64, spec: &Task) -> Work;

    /// Notification that invocation `invocation` finished executing at
    /// virtual time `now`. Most bodies ignore it; the aperiodic server
    /// uses it to timestamp job completions.
    fn on_invocation_complete(&mut self, invocation: u64, now: Time) {
        let _ = (invocation, now);
    }

    /// The body's full internal state for checkpointing, or `None` for
    /// bodies that cannot be serialized (closures). A kernel holding an
    /// opaque body refuses to checkpoint rather than write a snapshot that
    /// could not resume the same demand stream.
    fn snapshot_state(&self) -> Option<BodyState> {
        None
    }
}

/// Serializable state of the built-in task bodies, captured by
/// [`TaskBody::snapshot_state`] and revived by the snapshot module.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyState {
    /// [`WcetBody`]: stateless.
    Wcet,
    /// [`FractionBody`] with its fraction.
    Fraction(f64),
    /// [`UniformBody`] with the PRNG's current word.
    Uniform {
        /// The [`SplitMix64`] state; seeding a fresh generator with it
        /// resumes the demand stream exactly.
        rng_state: u64,
    },
    /// [`ColdStartBody`] wrapping another serializable body.
    ColdStart {
        /// First-invocation surcharge as a fraction of the WCET.
        surcharge: f64,
        /// The wrapped body's state.
        inner: Box<BodyState>,
    },
    /// A [`crate::tenants::TenantServer`] body, with every lane's state.
    Server(crate::tenants::ServerSnapshot),
    /// [`OverrunBody`] with both PRNG words and its injection knobs.
    Overrun {
        /// Demand-stream [`SplitMix64`] state.
        base_state: u64,
        /// Fault-stream [`SplitMix64`] state.
        fault_state: u64,
        /// Per-invocation overrun probability.
        rate: f64,
        /// Demand multiplier on an overrunning invocation.
        factor: f64,
        /// First invocation (1-based) eligible to overrun.
        from: u64,
        /// First invocation no longer eligible (exclusive bound).
        until: u64,
    },
}

impl<F> TaskBody for F
where
    F: FnMut(u64, &Task) -> Work + Send,
{
    fn run(&mut self, invocation: u64, spec: &Task) -> Work {
        self(invocation, spec)
    }
}

/// A body that always uses its full worst case.
#[derive(Debug, Clone, Copy, Default)]
pub struct WcetBody;

impl TaskBody for WcetBody {
    fn run(&mut self, _invocation: u64, spec: &Task) -> Work {
        spec.wcet()
    }

    fn snapshot_state(&self) -> Option<BodyState> {
        Some(BodyState::Wcet)
    }
}

/// A body that uses a constant fraction of the worst case each invocation.
#[derive(Debug, Clone, Copy)]
pub struct FractionBody(pub f64);

impl TaskBody for FractionBody {
    fn run(&mut self, _invocation: u64, spec: &Task) -> Work {
        spec.wcet() * self.0.clamp(0.0, 1.0)
    }

    fn snapshot_state(&self) -> Option<BodyState> {
        Some(BodyState::Fraction(self.0))
    }
}

/// A body that draws a uniformly-distributed fraction of the worst case,
/// deterministically from its seed.
#[derive(Debug)]
pub struct UniformBody {
    rng: SplitMix64,
}

impl UniformBody {
    /// Creates the body with a seed.
    #[must_use]
    pub fn new(seed: u64) -> UniformBody {
        UniformBody {
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// Resumes a body from a captured PRNG word (see
    /// [`SplitMix64::state`]); the demand stream continues exactly where
    /// the captured body left off.
    #[must_use]
    pub fn from_state(rng_state: u64) -> UniformBody {
        UniformBody {
            rng: SplitMix64::seed_from_u64(rng_state),
        }
    }
}

impl TaskBody for UniformBody {
    fn run(&mut self, _invocation: u64, spec: &Task) -> Work {
        spec.wcet() * self.rng.range_f64_inclusive(0.0, 1.0)
    }

    fn snapshot_state(&self) -> Option<BodyState> {
        Some(BodyState::Uniform {
            rng_state: self.rng.state(),
        })
    }
}

/// A serializable fault-injecting body: each invocation draws a uniform
/// demand in `[0.55, 0.95] × C_i`, and with probability `rate` (inside the
/// invocation window) the demand is instead forced to `factor × C_i`,
/// violating condition C2 the same way the simulator's overrun fault does.
///
/// Unlike a closure wired to [`rtdvs_sim`]'s injector streams, this body
/// checkpoints: both PRNG words travel in the snapshot, so a kill/restore
/// resumes the exact demand *and* fault sequence. Both streams advance by
/// exactly one draw per invocation regardless of rate or window, so the
/// stream position depends only on the invocation count — the invariant
/// chaos-campaign bisection rests on.
#[derive(Debug)]
pub struct OverrunBody {
    base: SplitMix64,
    fault: SplitMix64,
    rate: f64,
    factor: f64,
    from: u64,
    until: u64,
}

impl OverrunBody {
    /// Creates the body from an already-split stream (derive it from your
    /// root seed via [`SplitMix64::split`] — never a literal seed). The
    /// demand and fault streams are split off `root` internally. A
    /// non-positive `rate` never overruns but still draws.
    #[must_use]
    pub fn new(root: SplitMix64, rate: f64, factor: f64) -> OverrunBody {
        OverrunBody {
            base: root.split(0),
            fault: root.split(1),
            rate,
            factor,
            from: 1,
            until: u64::MAX,
        }
    }

    /// Restricts overruns to invocations in `[from, until)` (1-based).
    #[must_use]
    pub fn with_window(mut self, from: u64, until: u64) -> OverrunBody {
        self.from = from;
        self.until = until;
        self
    }

    /// Resumes a body from captured PRNG words and knobs (see
    /// [`BodyState::Overrun`]); both streams continue exactly where the
    /// captured body left off.
    #[must_use]
    pub fn from_state(
        base_state: u64,
        fault_state: u64,
        rate: f64,
        factor: f64,
        from: u64,
        until: u64,
    ) -> OverrunBody {
        OverrunBody {
            base: SplitMix64::seed_from_u64(base_state),
            fault: SplitMix64::seed_from_u64(fault_state),
            rate,
            factor,
            from,
            until,
        }
    }
}

impl TaskBody for OverrunBody {
    fn run(&mut self, invocation: u64, spec: &Task) -> Work {
        // Always one draw per stream per invocation, unconditionally.
        let demand = spec.wcet() * self.base.range_f64(0.55, 0.95);
        let fires = self.fault.next_f64() < self.rate;
        if fires && invocation >= self.from && invocation < self.until {
            spec.wcet() * self.factor
        } else {
            demand
        }
    }

    fn snapshot_state(&self) -> Option<BodyState> {
        Some(BodyState::Overrun {
            base_state: self.base.state(),
            fault_state: self.fault.state(),
            rate: self.rate,
            factor: self.factor,
            from: self.from,
            until: self.until,
        })
    }
}

/// Wraps another body with a cold-start surcharge on the first invocation,
/// reproducing the §4.3 observation that "the very first invocation of a
/// task may overrun its specified computing time bound" due to cold caches,
/// TLBs, and copy-on-write page faults.
pub struct ColdStartBody<B> {
    inner: B,
    /// Extra work on invocation 1, as a fraction of the WCET (may push the
    /// invocation past its bound).
    pub surcharge: f64,
}

impl<B: TaskBody> ColdStartBody<B> {
    /// Wraps `inner` with a first-invocation surcharge.
    #[must_use]
    pub fn new(inner: B, surcharge: f64) -> ColdStartBody<B> {
        ColdStartBody { inner, surcharge }
    }
}

impl<B: TaskBody> TaskBody for ColdStartBody<B> {
    fn run(&mut self, invocation: u64, spec: &Task) -> Work {
        let base = self.inner.run(invocation, spec);
        if invocation == 1 {
            base + spec.wcet() * self.surcharge
        } else {
            base
        }
    }

    fn on_invocation_complete(&mut self, invocation: u64, now: Time) {
        self.inner.on_invocation_complete(invocation, now);
    }

    fn snapshot_state(&self) -> Option<BodyState> {
        self.inner
            .snapshot_state()
            .map(|inner| BodyState::ColdStart {
                surcharge: self.surcharge,
                inner: Box::new(inner),
            })
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    fn spec() -> Task {
        Task::from_ms(10.0, 4.0).unwrap()
    }

    #[test]
    fn wcet_body() {
        assert_eq!(WcetBody.run(3, &spec()).as_ms(), 4.0);
    }

    #[test]
    fn fraction_body_clamps() {
        assert_eq!(FractionBody(0.5).run(1, &spec()).as_ms(), 2.0);
        assert_eq!(FractionBody(2.0).run(1, &spec()).as_ms(), 4.0);
        assert_eq!(FractionBody(-1.0).run(1, &spec()).as_ms(), 0.0);
    }

    #[test]
    fn uniform_body_in_range_and_deterministic() {
        let mut a = UniformBody::new(5);
        let mut b = UniformBody::new(5);
        for inv in 1..=20 {
            let wa = a.run(inv, &spec());
            assert_eq!(wa, b.run(inv, &spec()));
            assert!(wa.as_ms() >= 0.0 && wa.as_ms() <= 4.0);
        }
    }

    #[test]
    fn closure_body() {
        let mut body = |inv: u64, s: &Task| {
            if inv == 1 {
                s.wcet()
            } else {
                s.wcet() * 0.25
            }
        };
        assert_eq!(TaskBody::run(&mut body, 1, &spec()).as_ms(), 4.0);
        assert_eq!(TaskBody::run(&mut body, 2, &spec()).as_ms(), 1.0);
    }

    #[test]
    fn overrun_body_is_deterministic_and_draw_stable() {
        let root = SplitMix64::seed_from_u64(7).split(0x0C_0001);
        let mut hot = OverrunBody::new(root, 1.0, 1.5);
        let mut cold = OverrunBody::new(root, 0.0, 1.5);
        for inv in 1..=50 {
            let h = hot.run(inv, &spec());
            let c = cold.run(inv, &spec());
            assert_eq!(h.as_ms(), 6.0, "rate 1 always overruns to 1.5 × C");
            assert!(c.as_ms() >= 0.55 * 4.0 && c.as_ms() <= 0.95 * 4.0);
        }
        // Same stream positions regardless of rate: the rate-0 body's
        // state matches a rate-1 body's after the same invocation count.
        let (
            Some(BodyState::Overrun {
                base_state: a,
                fault_state: fa,
                ..
            }),
            Some(BodyState::Overrun {
                base_state: b,
                fault_state: fb,
                ..
            }),
        ) = (hot.snapshot_state(), cold.snapshot_state())
        else {
            panic!("overrun bodies must serialize");
        };
        assert_eq!(a, b);
        assert_eq!(fa, fb);
    }

    #[test]
    fn overrun_body_window_gates_injection_without_skewing_streams() {
        let root = SplitMix64::seed_from_u64(9).split(0x0C_0001);
        let mut windowed = OverrunBody::new(root, 1.0, 2.0).with_window(3, 5);
        let mut open = OverrunBody::new(root, 1.0, 2.0);
        for inv in 1..=8 {
            let w = windowed.run(inv, &spec());
            let o = open.run(inv, &spec());
            assert_eq!(o.as_ms(), 8.0);
            if (3..5).contains(&inv) {
                assert_eq!(w.as_ms(), 8.0, "inv {inv} inside window");
            } else {
                assert!(w.as_ms() < 4.0, "inv {inv} outside window");
            }
        }
    }

    #[test]
    fn overrun_body_resumes_from_state() {
        let root = SplitMix64::seed_from_u64(11).split(0x0C_0001);
        let mut a = OverrunBody::new(root, 0.3, 1.5).with_window(1, 100);
        for inv in 1..=10 {
            a.run(inv, &spec());
        }
        let Some(BodyState::Overrun {
            base_state,
            fault_state,
            rate,
            factor,
            from,
            until,
        }) = a.snapshot_state()
        else {
            panic!("must serialize");
        };
        let mut b = OverrunBody::from_state(base_state, fault_state, rate, factor, from, until);
        for inv in 11..=30 {
            assert_eq!(a.run(inv, &spec()), b.run(inv, &spec()));
        }
    }

    #[test]
    fn cold_start_overruns_only_first_invocation() {
        let mut body = ColdStartBody::new(WcetBody, 0.5);
        // First invocation exceeds the WCET (4 + 2 = 6).
        assert_eq!(body.run(1, &spec()).as_ms(), 6.0);
        assert_eq!(body.run(2, &spec()).as_ms(), 4.0);
    }
}
