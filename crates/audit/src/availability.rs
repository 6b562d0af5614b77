//! Campaign-level availability rules: bounded recovery and an
//! availability floor.
//!
//! The existing auditors check *what* went wrong (misses, unsafe
//! fallbacks, broken isolation); these rules check *how long* the system
//! stayed wrong. Both replay the kernel event log through the kernel's own
//! [`AvailabilityStats`] accounting, so the auditor and the bench artifact
//! can never disagree about what the numbers mean.

use rtdvs_core::time::Time;
use rtdvs_kernel::{AvailabilityStats, EventLog, KernelEvent};

use crate::violation::{Rule, Violation};

/// The availability contract a chaos-campaign cell is audited against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityPolicy {
    /// Every crash restore must see a completed invocation within this
    /// many milliseconds ([`Rule::RecoveryBound`]).
    pub max_recovery_ms: f64,
    /// Minimum fraction of the horizon spent fully nominal
    /// ([`Rule::AvailabilityFloor`]).
    pub min_availability: f64,
}

impl Default for AvailabilityPolicy {
    /// A permissive default: two server periods of recovery slack and a
    /// 50% floor — tight enough to catch a wedged restore or a run pinned
    /// at the ladder bottom, loose enough for mild adversity to pass.
    fn default() -> AvailabilityPolicy {
        AvailabilityPolicy {
            max_recovery_ms: 50.0,
            min_availability: 0.5,
        }
    }
}

/// Audits `log` (up to `now`, with the kernel's ladder rung names) against
/// `policy`. Returns one [`Rule::RecoveryBound`] violation per restore
/// whose first completion came too late (or never), and at most one
/// [`Rule::AvailabilityFloor`] violation for the run.
#[must_use]
pub fn audit_availability(
    log: &EventLog,
    now: Time,
    rungs: &[&str],
    policy: &AvailabilityPolicy,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Per-restore recovery latency, walked directly so every late restore
    // is reported (the aggregate stats only keep worst/last).
    let mut pending: Option<Time> = None;
    for (t, event) in log {
        match event {
            KernelEvent::SupervisorRestored => {
                if let Some(restored_at) = pending.take() {
                    // The previous restore never completed anything before
                    // the next crash; charge it the full gap.
                    check_recovery(&mut violations, restored_at, t, policy);
                }
                pending = Some(t);
            }
            KernelEvent::Completed { .. } => {
                if let Some(restored_at) = pending.take() {
                    check_recovery(&mut violations, restored_at, t, policy);
                }
            }
            _ => {}
        }
    }
    if let Some(restored_at) = pending {
        // Still no completion by the end of the horizon.
        check_recovery(&mut violations, restored_at, now, policy);
    }
    let stats = AvailabilityStats::replay(log, now, rungs);
    let up = stats.availability();
    if up < policy.min_availability {
        violations.push(Violation {
            time: now,
            task: None,
            rule: Rule::AvailabilityFloor,
            details: format!(
                "availability {:.4} below floor {:.4} ({:.1} ms degraded of {:.1} ms)",
                up, policy.min_availability, stats.degraded_ms, stats.total_ms
            ),
        });
    }
    violations
}

fn check_recovery(
    violations: &mut Vec<Violation>,
    restored_at: Time,
    completed_at: Time,
    policy: &AvailabilityPolicy,
) {
    let latency = (completed_at.as_ms() - restored_at.as_ms()).max(0.0);
    if latency > policy.max_recovery_ms {
        violations.push(Violation {
            time: restored_at,
            task: None,
            rule: Rule::RecoveryBound,
            details: format!(
                "restore at {:.3} ms not followed by a completion within {:.1} ms (took {:.3} ms)",
                restored_at.as_ms(),
                policy.max_recovery_ms,
                latency
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdvs_kernel::TaskHandle;

    const RUNGS: [&str; 2] = ["laEDF", "manual"];

    fn at(ms: f64, e: KernelEvent) -> (Time, KernelEvent) {
        (Time::from_ms(ms), e)
    }

    fn done(ms: f64) -> (Time, KernelEvent) {
        at(
            ms,
            KernelEvent::Completed {
                handle: TaskHandle::from_raw(1),
                invocation: 1,
            },
        )
    }

    #[test]
    fn clean_log_passes() {
        let policy = AvailabilityPolicy::default();
        let log = EventLog::from_iter([done(5.0)]);
        assert!(audit_availability(&log, Time::from_ms(100.0), &RUNGS, &policy).is_empty());
    }

    #[test]
    fn prompt_recovery_passes_late_recovery_fails() {
        let policy = AvailabilityPolicy {
            max_recovery_ms: 10.0,
            min_availability: 0.0,
        };
        let ok = EventLog::from_iter([at(20.0, KernelEvent::SupervisorRestored), done(25.0)]);
        assert!(audit_availability(&ok, Time::from_ms(100.0), &RUNGS, &policy).is_empty());
        let late = EventLog::from_iter([at(20.0, KernelEvent::SupervisorRestored), done(45.0)]);
        let v = audit_availability(&late, Time::from_ms(100.0), &RUNGS, &policy);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::RecoveryBound);
        assert_eq!(v[0].time, Time::from_ms(20.0));
    }

    #[test]
    fn restore_with_no_completion_is_charged_to_the_horizon() {
        let policy = AvailabilityPolicy {
            max_recovery_ms: 10.0,
            min_availability: 0.0,
        };
        let log = EventLog::from_iter([at(90.0, KernelEvent::SupervisorRestored)]);
        let v = audit_availability(&log, Time::from_ms(200.0), &RUNGS, &policy);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::RecoveryBound);
    }

    #[test]
    fn back_to_back_restores_each_get_checked() {
        let policy = AvailabilityPolicy {
            max_recovery_ms: 10.0,
            min_availability: 0.0,
        };
        let log = EventLog::from_iter([
            at(10.0, KernelEvent::SupervisorRestored),
            at(40.0, KernelEvent::SupervisorRestored),
            done(45.0),
        ]);
        let v = audit_availability(&log, Time::from_ms(100.0), &RUNGS, &policy);
        // The first restore's window ran 30 ms to the second crash.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].time, Time::from_ms(10.0));
    }

    #[test]
    fn availability_floor_is_enforced() {
        let policy = AvailabilityPolicy {
            max_recovery_ms: 1000.0,
            min_availability: 0.9,
        };
        let log = EventLog::from_iter([at(
            10.0,
            KernelEvent::LadderStepped {
                from: "laEDF",
                to: "manual",
            },
        )]);
        let v = audit_availability(&log, Time::from_ms(100.0), &RUNGS, &policy);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::AvailabilityFloor);
        assert!(v[0].details.contains("0.1000"));
    }
}
