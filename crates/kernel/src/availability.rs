//! Availability accounting replayed from the kernel event log.
//!
//! The chaos campaign treats disturbance response as a measured quantity —
//! time-in-degraded-mode, MTTF/MTTR, post-crash recovery latency — not
//! just a pass/fail miss count. All of it is derived here by *replaying*
//! the event log against the degradation-ladder rung names: nothing in the
//! kernel hot path mutates extra state, so a run with accounting enabled
//! is byte-identical to one without.
//!
//! Definitions, all in virtual milliseconds:
//!
//! * **nominal** time: the ladder sits at rung 0 (the preferred policy)
//!   and no task is shed. Everything else is **degraded**.
//! * a **failure** is a nominal→degraded transition; a **recovery** is the
//!   transition back. `MTTF = nominal / failures`, `MTTR = degraded /
//!   recoveries` (the conventional uptime/downtime decomposition).
//! * an **outage** is a [`KernelEvent::SupervisorRestored`] — the kernel
//!   was revived from a snapshot after a crash. Its **recovery latency**
//!   is the gap from the restore stamp to the next completed invocation:
//!   how long until the revived system demonstrably serves work again.

use rtdvs_core::time::Time;

use crate::eventlog::EventLog;
use crate::kernel::KernelEvent;

/// Availability statistics replayed from one kernel event log.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityStats {
    /// Horizon covered by the replay.
    pub total_ms: f64,
    /// Time at ladder rung 0 with no shed task.
    pub nominal_ms: f64,
    /// Time below the preferred rung or with a task shed.
    pub degraded_ms: f64,
    /// Time spent at each ladder rung (index = depth; length = rung
    /// count). Shedding does not move the ladder, so rung 0 time can
    /// exceed `nominal_ms`.
    pub rung_ms: Vec<f64>,
    /// Crash restores observed ([`KernelEvent::SupervisorRestored`]).
    pub outages: u64,
    /// Nominal→degraded transitions.
    pub failures: u64,
    /// Degraded→nominal transitions.
    pub recoveries: u64,
    /// Worst restore→first-completion gap, 0 when no outage completed.
    pub worst_recovery_ms: f64,
    /// Most recent restore→first-completion gap.
    pub last_recovery_ms: f64,
    /// A restore happened but no invocation has completed since.
    pub open_recovery: bool,
}

impl AvailabilityStats {
    /// Replays `log` (time-ordered, as [`RtKernel::log`] returns it) up to
    /// `now`, mapping [`KernelEvent::LadderStepped`] destinations to
    /// depths via `rungs` (see [`RtKernel::ladder_rung_names`]). A
    /// destination not on the ladder — possible when a brownout cap
    /// re-shaped the rungs mid-run — keeps the previous depth.
    ///
    /// [`RtKernel::log`]: crate::kernel::RtKernel::log
    /// [`RtKernel::ladder_rung_names`]: crate::kernel::RtKernel::ladder_rung_names
    #[must_use]
    pub fn replay(log: &EventLog, now: Time, rungs: &[&str]) -> AvailabilityStats {
        let mut stats = AvailabilityStats {
            total_ms: 0.0,
            nominal_ms: 0.0,
            degraded_ms: 0.0,
            rung_ms: vec![0.0; rungs.len().max(1)],
            outages: 0,
            failures: 0,
            recoveries: 0,
            worst_recovery_ms: 0.0,
            last_recovery_ms: 0.0,
            open_recovery: false,
        };
        let mut cursor = Time::ZERO;
        let mut depth = 0usize;
        let mut shed = 0u64;
        let mut pending_restore: Option<Time> = None;
        fn charge(
            stats: &mut AvailabilityStats,
            upto: Time,
            cursor: &mut Time,
            depth: usize,
            shed: u64,
        ) {
            let span = (upto.as_ms() - cursor.as_ms()).max(0.0);
            stats.total_ms += span;
            let top = stats.rung_ms.len() - 1;
            stats.rung_ms[depth.min(top)] += span;
            if depth == 0 && shed == 0 {
                stats.nominal_ms += span;
            } else {
                stats.degraded_ms += span;
            }
            *cursor = upto.max(*cursor);
        }
        for (t, event) in log {
            charge(&mut stats, t, &mut cursor, depth, shed);
            let was_nominal = depth == 0 && shed == 0;
            match event {
                KernelEvent::LadderStepped { to, .. } => {
                    depth = rungs.iter().position(|r| *r == to).unwrap_or(depth);
                }
                KernelEvent::PolicyLoaded { name } => {
                    depth = rungs.iter().position(|r| *r == name).unwrap_or(0);
                }
                KernelEvent::Degraded { active } => {
                    if active {
                        shed += 1;
                    } else {
                        shed = shed.saturating_sub(1);
                    }
                }
                KernelEvent::SupervisorRestored => {
                    stats.outages += 1;
                    pending_restore = Some(t);
                    stats.open_recovery = true;
                }
                KernelEvent::Completed { .. } => {
                    if let Some(restored_at) = pending_restore.take() {
                        let latency = (t.as_ms() - restored_at.as_ms()).max(0.0);
                        stats.last_recovery_ms = latency;
                        stats.worst_recovery_ms = stats.worst_recovery_ms.max(latency);
                        stats.open_recovery = false;
                    }
                }
                _ => {}
            }
            let is_nominal = depth == 0 && shed == 0;
            if was_nominal && !is_nominal {
                stats.failures += 1;
            } else if !was_nominal && is_nominal {
                stats.recoveries += 1;
            }
        }
        charge(&mut stats, now, &mut cursor, depth, shed);
        stats
    }

    /// Fraction of the horizon spent nominal (1 when the horizon is
    /// empty).
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.total_ms <= 0.0 {
            1.0
        } else {
            self.nominal_ms / self.total_ms
        }
    }

    /// Mean time to failure: nominal time per nominal→degraded
    /// transition. With zero failures this is the whole nominal span.
    #[must_use]
    pub fn mttf_ms(&self) -> f64 {
        if self.failures == 0 {
            self.nominal_ms
        } else {
            self.nominal_ms / self.failures as f64
        }
    }

    /// Mean time to repair: degraded time per degraded→nominal
    /// transition, 0 when nothing ever recovered.
    #[must_use]
    pub fn mttr_ms(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.degraded_ms / self.recoveries as f64
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;
    use rtdvs_core::time::Work;
    use rtdvs_core::{Machine, PolicyKind};

    use crate::body::FractionBody;
    use crate::kernel::RtKernel;

    const RUNGS: [&str; 3] = ["laEDF", "ccEDF", "manual"];

    fn at(ms: f64, e: KernelEvent) -> (Time, KernelEvent) {
        (Time::from_ms(ms), e)
    }

    #[test]
    fn clean_log_is_fully_nominal() {
        let stats = AvailabilityStats::replay(&EventLog::new(), Time::from_ms(100.0), &RUNGS);
        assert_eq!(stats.total_ms, 100.0);
        assert_eq!(stats.nominal_ms, 100.0);
        assert_eq!(stats.availability(), 1.0);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.mttf_ms(), 100.0);
        assert_eq!(stats.mttr_ms(), 0.0);
    }

    #[test]
    fn ladder_steps_split_the_horizon() {
        let log = EventLog::from_iter([
            at(
                20.0,
                KernelEvent::LadderStepped {
                    from: "laEDF",
                    to: "ccEDF",
                },
            ),
            at(
                50.0,
                KernelEvent::LadderStepped {
                    from: "ccEDF",
                    to: "laEDF",
                },
            ),
        ]);
        let stats = AvailabilityStats::replay(&log, Time::from_ms(100.0), &RUNGS);
        assert_eq!(stats.nominal_ms, 70.0);
        assert_eq!(stats.degraded_ms, 30.0);
        assert_eq!(stats.rung_ms, vec![70.0, 30.0, 0.0]);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.mttf_ms(), 70.0);
        assert_eq!(stats.mttr_ms(), 30.0);
        assert!((stats.availability() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn unknown_ladder_destination_keeps_depth() {
        let log = EventLog::from_iter([at(
            10.0,
            KernelEvent::LadderStepped {
                from: "laEDF",
                to: "elsewhere",
            },
        )]);
        let stats = AvailabilityStats::replay(&log, Time::from_ms(20.0), &RUNGS);
        assert_eq!(stats.nominal_ms, 20.0);
    }

    #[test]
    fn restore_recovery_latency_spans_to_next_completion() {
        let done = KernelEvent::Completed {
            handle: crate::kernel::TaskHandle::from_raw(1),
            invocation: 1,
        };
        let log = EventLog::from_iter([
            at(30.0, KernelEvent::SupervisorRestored),
            at(42.0, done.clone()),
            at(60.0, KernelEvent::SupervisorRestored),
            at(65.0, done),
        ]);
        let stats = AvailabilityStats::replay(&log, Time::from_ms(100.0), &RUNGS);
        assert_eq!(stats.outages, 2);
        assert_eq!(stats.worst_recovery_ms, 12.0);
        assert_eq!(stats.last_recovery_ms, 5.0);
        assert!(!stats.open_recovery);
    }

    #[test]
    fn shed_time_counts_as_degraded_without_moving_the_ladder() {
        let log = EventLog::from_iter([
            at(10.0, KernelEvent::Degraded { active: true }),
            at(40.0, KernelEvent::Degraded { active: false }),
        ]);
        let stats = AvailabilityStats::replay(&log, Time::from_ms(50.0), &RUNGS);
        assert_eq!(stats.degraded_ms, 30.0);
        assert_eq!(stats.rung_ms[0], 50.0);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.recoveries, 1);
    }

    #[test]
    fn kernel_accessor_replays_live_log() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::LaEdf);
        kernel
            .spawn(
                Time::from_ms(10.0),
                Work::from_ms(3.0),
                Box::new(FractionBody(0.5)),
            )
            .unwrap();
        kernel.run_for(Time::from_ms(100.0));
        let stats = kernel.availability();
        assert_eq!(stats.total_ms, 100.0);
        assert_eq!(stats.availability(), 1.0);
        assert_eq!(stats.outages, 0);
    }
}
