//! Deterministic fault injection.
//!
//! Every guarantee in the paper rests on assumptions the clean simulator
//! never stresses: condition C2 (no invocation exceeds its declared worst
//! case, §2.2), frequency transitions that always land, and strictly
//! periodic releases. A [`FaultPlan`] breaks those assumptions on purpose —
//! and deterministically, so a chaos run is exactly as reproducible as a
//! clean one.
//!
//! # Determinism contract
//!
//! Each fault type draws from its own [`SplitMix64`] child stream, derived
//! from the plan's seed via [`SplitMix64::split`]. The engine's main RNG
//! (execution sampling, sporadic gaps) is never touched by the fault layer,
//! and a plan with no faults installed ([`FaultPlan::none`]) performs zero
//! draws and takes zero new branches. Consequently:
//!
//! * a `FaultPlan::none()` run is byte-identical to a run of the pre-fault
//!   engine (pinned by `tests/fault_determinism.rs` and the BENCH goldens);
//! * two runs with the same plan are identical regardless of which other
//!   fault types are enabled, because streams never interleave.
//!
//! Rates are Bernoulli probabilities evaluated once per opportunity
//! (release, transition attempt, …) in event order, which is itself
//! deterministic.

use rtdvs_core::machine::PointIdx;
use rtdvs_core::task::TaskId;
use rtdvs_core::time::{Time, Work};
use rtdvs_taskgen::SplitMix64;

/// WCET overruns: with probability `rate` per release, the invocation's
/// actual demand is forced to `factor × C_i`, above the condition-C2 clamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverrunFault {
    /// Probability that a release overruns.
    pub rate: f64,
    /// Demand multiplier applied to the WCET (≥ 1).
    pub factor: f64,
}

impl OverrunFault {
    /// One per-release draw against an externally held stream: `Some`
    /// multiplier when this release overruns. Always consumes exactly one
    /// value, so the stream position depends only on the number of
    /// releases seen. This is the hook for harnesses that drive kernel
    /// task bodies directly instead of going through the simulator engine.
    #[must_use]
    pub fn draw(&self, rng: &mut SplitMix64) -> Option<f64> {
        fires(rng, self.rate).then_some(self.factor)
    }
}

/// Stuck transitions: with probability `rate` per `set_speed`, the machine
/// silently stays at the old operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckTransitionFault {
    /// Probability that a transition attempt fails.
    pub rate: f64,
}

/// Transition-latency jitter: with probability `rate` per successful
/// transition, an extra stall uniform in `[0, max_extra]` is added on top
/// of the configured switch overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionJitterFault {
    /// Probability that a transition jitters.
    pub rate: f64,
    /// Upper bound of the extra stall.
    pub max_extra: Time,
}

/// Release jitter: with probability `rate` per release, the gap to the next
/// release is stretched by a uniform extra in `[0, max_fraction × period]`.
/// Like the sporadic model, jitter only delays releases — the period stays
/// the *minimum* inter-arrival time, so deadlines remain well defined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleaseJitterFault {
    /// Probability that a release is jittered.
    pub rate: f64,
    /// Upper bound of the delay, as a fraction of the period.
    pub max_fraction: f64,
}

/// A seeded, deterministic fault-injection plan.
///
/// Built with [`FaultPlan::new`] plus `with_*` calls; [`FaultPlan::none`]
/// (the [`Default`]) injects nothing and is provably zero-cost. Builders
/// with a zero rate install nothing, so a rate-0 plan *is* `none()`. An
/// active plan always arms the engine's overrun containment (quarantine
/// the offender, escalate to `f_max`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-fault child streams (independent of the sim seed).
    pub seed: u64,
    /// WCET overrun injection.
    pub overrun: Option<OverrunFault>,
    /// Stuck/failed frequency transitions.
    pub stuck_transition: Option<StuckTransitionFault>,
    /// Transition-latency jitter.
    pub transition_jitter: Option<TransitionJitterFault>,
    /// Release jitter.
    pub release_jitter: Option<ReleaseJitterFault>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, draws nothing, changes nothing.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            overrun: None,
            stuck_transition: None,
            transition_jitter: None,
            release_jitter: None,
        }
    }

    /// An empty plan with a seed, ready for `with_*` builders.
    #[must_use]
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Enables WCET overruns (`rate` per release, demand `factor × C_i`).
    /// A non-positive rate installs nothing.
    #[must_use]
    pub fn with_overruns(mut self, rate: f64, factor: f64) -> FaultPlan {
        debug_assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        debug_assert!(factor >= 1.0, "overrun factor {factor} below 1");
        self.overrun = (rate > 0.0).then_some(OverrunFault { rate, factor });
        self
    }

    /// Enables stuck transitions. A non-positive rate installs nothing.
    #[must_use]
    pub fn with_stuck_transitions(mut self, rate: f64) -> FaultPlan {
        debug_assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        self.stuck_transition = (rate > 0.0).then_some(StuckTransitionFault { rate });
        self
    }

    /// Enables transition-latency jitter. A non-positive rate installs
    /// nothing.
    #[must_use]
    pub fn with_transition_jitter(mut self, rate: f64, max_extra: Time) -> FaultPlan {
        debug_assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        self.transition_jitter = (rate > 0.0).then_some(TransitionJitterFault { rate, max_extra });
        self
    }

    /// Enables release jitter. A non-positive rate installs nothing.
    #[must_use]
    pub fn with_release_jitter(mut self, rate: f64, max_fraction: f64) -> FaultPlan {
        debug_assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        debug_assert!(max_fraction >= 0.0);
        self.release_jitter = (rate > 0.0).then_some(ReleaseJitterFault { rate, max_fraction });
        self
    }

    /// The overrun injector as a standalone `(stream, fault)` pair, seeded
    /// exactly like the engine's own overrun stream — the same plan
    /// produces the same overrun pattern whether it is run through the
    /// simulator or through an external kernel harness.
    #[must_use]
    pub fn overrun_injector(&self) -> Option<(SplitMix64, OverrunFault)> {
        self.overrun
            .map(|f| (SplitMix64::seed_from_u64(self.seed).split(0x0F_0001), f))
    }

    /// `true` if any fault type is installed.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.overrun.is_some()
            || self.stuck_transition.is_some()
            || self.transition_jitter.is_some()
            || self.release_jitter.is_some()
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

/// One injected fault or containment action, timestamped in simulated time.
///
/// Recorded in [`crate::SimReport::faults`] whether or not trace recording
/// is on, so the audit layer can classify deadline misses without the full
/// trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// A release's demand was forced above its WCET.
    Overrun {
        /// When the faulty invocation was released.
        time: Time,
        /// The overrunning task.
        task: TaskId,
        /// Its 1-based invocation number.
        invocation: u64,
        /// The injected demand.
        injected: Work,
        /// The declared worst case it violates.
        bound: Work,
    },
    /// A transition attempt failed; the machine held its old point.
    StuckTransition {
        /// When the attempt was made.
        time: Time,
        /// The point the machine stayed at.
        held: PointIdx,
        /// The point the policy asked for.
        desired: PointIdx,
    },
    /// A successful transition stalled for longer than its model says.
    TransitionJitter {
        /// When the transition happened.
        time: Time,
        /// The extra stall beyond the configured overhead.
        extra: Time,
    },
    /// A release gap was stretched.
    ReleaseJitter {
        /// When the stretched gap was decided (at the preceding release).
        time: Time,
        /// The task whose next release is delayed.
        task: TaskId,
        /// The extra delay.
        delay: Time,
    },
    /// The engine detected an invocation exhausting its WCET budget and
    /// began containment (escalate to `f_max`, quarantine the offender).
    Containment {
        /// When containment started.
        time: Time,
        /// The quarantined task.
        task: TaskId,
        /// Its 1-based invocation number.
        invocation: u64,
    },
}

impl FaultEvent {
    /// The simulated time of the event.
    #[must_use]
    pub fn time(&self) -> Time {
        match *self {
            FaultEvent::Overrun { time, .. }
            | FaultEvent::StuckTransition { time, .. }
            | FaultEvent::TransitionJitter { time, .. }
            | FaultEvent::ReleaseJitter { time, .. }
            | FaultEvent::Containment { time, .. } => time,
        }
    }
}

/// Containment accounting for one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContainmentStats {
    /// How many invocations were quarantined.
    pub activations: u64,
    /// Busy time spent while containment held the processor at `f_max`.
    pub time: Time,
    /// Busy energy charged during that time (the cost of running the
    /// escalated point instead of whatever the policy wanted).
    pub energy: f64,
    /// How many `set_speed` attempts silently failed (the machine held
    /// its old point and the next event interval retried).
    pub stuck_transitions: u64,
}

/// Per-fault-type child streams, alive only while a plan is active.
#[derive(Debug)]
pub(crate) struct FaultStreams {
    pub(crate) plan: FaultPlan,
    pub(crate) overrun: SplitMix64,
    pub(crate) stuck: SplitMix64,
    pub(crate) jitter: SplitMix64,
    pub(crate) release: SplitMix64,
}

impl FaultStreams {
    pub(crate) fn new(plan: FaultPlan) -> FaultStreams {
        let root = SplitMix64::seed_from_u64(plan.seed);
        FaultStreams {
            plan,
            overrun: root.split(0x0F_0001),
            stuck: root.split(0x0F_0002),
            jitter: root.split(0x0F_0003),
            release: root.split(0x0F_0004),
        }
    }
}

/// One Bernoulli draw. Always consumes exactly one value from `rng` so a
/// fault type's stream position depends only on how many opportunities it
/// has seen, never on which of them fired.
pub(crate) fn fires(rng: &mut SplitMix64, rate: f64) -> bool {
    rng.range_f64_inclusive(0.0, 1.0) < rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_default() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn zero_rate_builders_install_nothing() {
        let p = FaultPlan::new(7)
            .with_overruns(0.0, 1.5)
            .with_stuck_transitions(0.0)
            .with_transition_jitter(0.0, Time::from_ms(0.1))
            .with_release_jitter(0.0, 0.25);
        assert!(!p.is_active());
    }

    #[test]
    fn builders_chain() {
        let p = FaultPlan::new(7)
            .with_overruns(0.1, 1.5)
            .with_stuck_transitions(0.05)
            .with_transition_jitter(0.05, Time::from_ms(0.1))
            .with_release_jitter(0.05, 0.25);
        assert!(p.is_active());
        assert_eq!(p.overrun.unwrap().factor, 1.5);
    }

    #[test]
    fn streams_are_independent_and_deterministic() {
        let mut a = FaultStreams::new(FaultPlan::new(42));
        let mut b = FaultStreams::new(FaultPlan::new(42));
        // Same seed, same stream, same draws.
        for _ in 0..16 {
            assert_eq!(a.overrun.next_u64(), b.overrun.next_u64());
        }
        // Draining one stream does not move the others.
        assert_eq!(a.stuck.next_u64(), b.stuck.next_u64());
        assert_eq!(a.release.next_u64(), b.release.next_u64());
    }

    #[test]
    fn fires_respects_rate_extremes() {
        let mut rng = SplitMix64::seed_from_u64(1);
        for _ in 0..64 {
            assert!(!fires(&mut rng, 0.0));
        }
        let mut hits = 0;
        for _ in 0..64 {
            if fires(&mut rng, 1.0) {
                hits += 1;
            }
        }
        // range_f64_inclusive can return exactly 1.0, so allow a hair less
        // than all — but a rate of 1 must fire essentially always.
        assert!(hits >= 63, "rate-1.0 fired only {hits}/64 times");
    }

    #[test]
    fn overrun_injector_matches_the_engine_stream() {
        let plan = FaultPlan::new(42).with_overruns(0.3, 1.5);
        let (mut rng, fault) = plan.overrun_injector().expect("overruns installed");
        let mut engine = FaultStreams::new(plan);
        for _ in 0..256 {
            let external = fault.draw(&mut rng);
            let internal = fires(&mut engine.overrun, fault.rate).then_some(fault.factor);
            assert_eq!(external, internal);
        }
        assert!(FaultPlan::none().overrun_injector().is_none());
    }

    #[test]
    fn fault_event_times() {
        let t = Time::from_ms(3.0);
        let ev = FaultEvent::Containment {
            time: t,
            task: TaskId(0),
            invocation: 2,
        };
        assert_eq!(ev.time(), t);
    }
}
