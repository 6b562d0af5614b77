//! Replay audit of the kernel's own event log.
//!
//! The trace auditor in [`crate::replay`] checks a *simulator* run against
//! the paper's DVS guarantees. This module audits the other artifact the
//! repo produces: the [`RtKernel`](rtdvs_kernel::RtKernel) lifecycle log,
//! as read back live or stitched together across a crash/restore cycle
//! (the snapshot carries the full log, so a restored run's log is a
//! superset of the pre-crash one). The checks are pure log-consistency
//! rules — they need no kernel instance, only the `(time, event)` pairs:
//!
//! - timestamps never go backwards, and every clamped backward RTC jump
//!   reports a positive attempted regression ([`Rule::ClockMonotonicity`]
//!   — the time base's clamp must make regression unobservable),
//! - clock-gated releases stay within the stalled-tick watchdog's
//!   worst-case latency, [`RELEASE_LATENCY_BOUND_MS`]
//!   ([`Rule::ReleaseLatencyBound`]),
//! - the mode epoch advances by exactly one per committed transaction
//!   ([`Rule::EpochMonotonicity`]),
//! - per task, invocation numbers are released in `+1` sequence and every
//!   release is closed (completion, miss, removal, or shed) before the
//!   next one ([`Rule::KernelLogConsistency`]),
//! - no event names a task that is not live at that point (orphan events),
//! - every `DeadlineMiss` event is surfaced as a [`Rule::DeadlineMiss`]
//!   finding so harnesses can assert "zero policy-blamed misses" on the
//!   same report type the trace auditor uses,
//! - a regulator safe-point fallback never lands below the desired point
//!   ([`Rule::UnsafeFallback`] — the driver rounds up, never down), and
//!   never above the brownout cap active at that moment
//!   ([`Rule::CapViolation`]).
//!
//! A trailing open invocation is *not* a violation: a log captured
//! mid-run (or at a checkpoint) legitimately ends with work in flight.
//! Snapshot restore holds a log to every rule here but the deadline-miss
//! report, so a restored kernel's log has no other finding.

use std::collections::HashMap;

use rtdvs_core::time::Time;
use rtdvs_kernel::{EventLog, KernelEvent, TaskHandle, RELEASE_LATENCY_BOUND_MS};

use crate::violation::{Rule, Violation};

/// Per-task bookkeeping while walking the log.
#[derive(Default)]
struct TaskState {
    /// Admitted (or readmitted) and not since removed/shed.
    live: bool,
    /// The invocation number currently released and not yet closed.
    open: Option<u64>,
    /// The last invocation number ever released (survives shed/readmit,
    /// which continue the count).
    last_released: Option<u64>,
}

fn flag(out: &mut Vec<Violation>, time: Time, rule: Rule, details: String) {
    out.push(Violation {
        time,
        task: None,
        rule,
        details,
    });
}

/// Audits a kernel event log for lifecycle consistency.
///
/// Returns one [`Violation`] per broken rule, in log order. An empty
/// result means the log is a self-consistent history: admissions precede
/// releases, invocations are sequential and properly closed, removals and
/// sheds only name live tasks, and committed mode changes stepped the
/// epoch monotonically.
#[must_use]
pub fn audit_kernel_log(log: &EventLog) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut tasks: HashMap<TaskHandle, TaskState> = HashMap::new();
    let mut last_time = Time::ZERO;
    let mut last_epoch = 0u64;
    // The brownout cap in force at this point of the log (machine points
    // are ascending, so point-index comparisons are frequency comparisons).
    let mut cap: Option<usize> = None;

    // Requires the handle to be live; one violation per orphan event.
    fn live<'a>(
        tasks: &'a mut HashMap<TaskHandle, TaskState>,
        out: &mut Vec<Violation>,
        time: Time,
        handle: TaskHandle,
        what: &str,
    ) -> &'a mut TaskState {
        let st = tasks.entry(handle).or_default();
        if !st.live {
            flag(
                out,
                time,
                Rule::KernelLogConsistency,
                format!("{what} for {handle}, which is not live here (orphan event)"),
            );
            // Keep auditing from the event's own premise to avoid a
            // cascade of findings for the same root cause.
            st.live = true;
        }
        st
    }

    for (time, event) in log {
        if time.as_ms() < last_time.as_ms() {
            flag(
                &mut out,
                time,
                Rule::ClockMonotonicity,
                format!(
                    "timestamp went backwards: {:.3}ms after {:.3}ms",
                    time.as_ms(),
                    last_time.as_ms()
                ),
            );
        }
        last_time = last_time.max(time);

        match event {
            KernelEvent::Admitted { handle, .. } => {
                let st = tasks.entry(handle).or_default();
                if st.live {
                    flag(
                        &mut out,
                        time,
                        Rule::KernelLogConsistency,
                        format!("{handle} admitted while already live"),
                    );
                }
                // Handles are never reissued, so a (re)admission starts a
                // fresh invocation sequence.
                *st = TaskState {
                    live: true,
                    open: None,
                    last_released: None,
                };
            }
            KernelEvent::Readmitted { handle, .. } => {
                let st = tasks.entry(handle).or_default();
                if st.live {
                    flag(
                        &mut out,
                        time,
                        Rule::KernelLogConsistency,
                        format!("{handle} readmitted while already live"),
                    );
                }
                // Readmission continues the shed task's invocation count.
                st.live = true;
                st.open = None;
            }
            KernelEvent::Removed { handle } | KernelEvent::Shed { handle, .. } => {
                let st = live(&mut tasks, &mut out, time, handle, "removal/shed");
                // Leaving the set closes any open invocation.
                st.live = false;
                st.open = None;
            }
            KernelEvent::Released { handle, invocation } => {
                let st = live(&mut tasks, &mut out, time, handle, "release");
                if let Some(open) = st.open {
                    flag(
                        &mut out,
                        time,
                        Rule::KernelLogConsistency,
                        format!(
                            "{handle} released invocation {invocation} while \
                             invocation {open} is still unclosed"
                        ),
                    );
                }
                if let Some(last) = st.last_released {
                    if invocation != last + 1 {
                        flag(
                            &mut out,
                            time,
                            Rule::KernelLogConsistency,
                            format!(
                                "{handle} released invocation {invocation} out of \
                                 sequence (expected {})",
                                last + 1
                            ),
                        );
                    }
                }
                st.open = Some(invocation);
                st.last_released = Some(invocation);
            }
            KernelEvent::Completed { handle, invocation } => {
                let st = live(&mut tasks, &mut out, time, handle, "completion");
                if st.open != Some(invocation) {
                    flag(
                        &mut out,
                        time,
                        Rule::KernelLogConsistency,
                        format!(
                            "{handle} completed invocation {invocation} without a \
                             matching open release ({:?} open)",
                            st.open
                        ),
                    );
                }
                st.open = None;
            }
            KernelEvent::DeadlineMiss {
                handle,
                invocation,
                remaining,
            } => {
                let st = live(&mut tasks, &mut out, time, handle, "deadline miss");
                if st.open != Some(invocation) {
                    flag(
                        &mut out,
                        time,
                        Rule::KernelLogConsistency,
                        format!(
                            "{handle} missed invocation {invocation} without a \
                             matching open release ({:?} open)",
                            st.open
                        ),
                    );
                }
                st.open = None;
                flag(
                    &mut out,
                    time,
                    Rule::DeadlineMiss,
                    format!(
                        "{handle} invocation {invocation} missed its deadline \
                         with {:.3}ms outstanding",
                        remaining.as_ms()
                    ),
                );
            }
            KernelEvent::Overrun { handle, .. } | KernelEvent::Renegotiated { handle, .. } => {
                let _ = live(&mut tasks, &mut out, time, handle, "overrun/renegotiation");
            }
            KernelEvent::ModeChangeCommitted { epoch } => {
                if epoch != last_epoch + 1 {
                    flag(
                        &mut out,
                        time,
                        Rule::EpochMonotonicity,
                        format!(
                            "mode change committed epoch {epoch}, expected {}",
                            last_epoch + 1
                        ),
                    );
                }
                // Resync on the observed value so one skip is one finding.
                last_epoch = epoch;
            }
            KernelEvent::BrownoutCapSet { cap: new_cap } => {
                cap = new_cap;
            }
            KernelEvent::RegulatorFallback { desired, applied } => {
                if applied < desired {
                    flag(
                        &mut out,
                        time,
                        Rule::UnsafeFallback,
                        format!(
                            "fallback applied point {applied} below desired {desired}; \
                             the driver must round up, never down"
                        ),
                    );
                }
                if let Some(c) = cap {
                    if applied > c {
                        flag(
                            &mut out,
                            time,
                            Rule::CapViolation,
                            format!("fallback applied point {applied} above active cap {c}"),
                        );
                    }
                }
            }
            KernelEvent::ClockJumpClamped { attempted } => {
                if attempted.as_ms() <= 0.0 {
                    flag(
                        &mut out,
                        time,
                        Rule::ClockMonotonicity,
                        format!(
                            "clamp recorded a non-positive backward jump \
                             ({:.3}ms): nothing regressed, so nothing should \
                             have been clamped",
                            attempted.as_ms()
                        ),
                    );
                }
            }
            KernelEvent::ReleaseLate {
                handle,
                invocation,
                latency,
            } => {
                if latency.as_ms() <= 0.0 {
                    flag(
                        &mut out,
                        time,
                        Rule::ReleaseLatencyBound,
                        format!(
                            "{handle} invocation {invocation} reported a \
                             non-positive release latency ({:.3}ms)",
                            latency.as_ms()
                        ),
                    );
                } else if latency.as_ms() > RELEASE_LATENCY_BOUND_MS {
                    flag(
                        &mut out,
                        time,
                        Rule::ReleaseLatencyBound,
                        format!(
                            "{handle} invocation {invocation} released \
                             {:.3}ms behind schedule, past the \
                             {RELEASE_LATENCY_BOUND_MS:.0}ms watchdog bound",
                            latency.as_ms()
                        ),
                    );
                }
            }
            KernelEvent::PolicyLoaded { .. }
            | KernelEvent::Degraded { .. }
            | KernelEvent::ModeChangeStaged { .. }
            | KernelEvent::ModeChangeRejected { .. }
            | KernelEvent::GovernorStretched { .. }
            | KernelEvent::GovernorRelaxed
            | KernelEvent::LadderStepped { .. }
            | KernelEvent::SupervisorRestored
            | KernelEvent::ClockTickGap { .. }
            | KernelEvent::ClockWatchdog { .. }
            | KernelEvent::SnapshotTaken => {}
        }
    }
    out
}

/// One tenant's end-of-run standing, as reported by the serving harness:
/// whether its offered load stayed within its quota, and how much
/// backpressure it absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStanding {
    /// The tenant's raw id.
    pub tenant: u64,
    /// Whether the tenant's offered load exceeded its guaranteed quota at
    /// any point of the run (a flooding tenant).
    pub over_quota: bool,
    /// Requests shed from its queue (oldest-first backpressure).
    pub shed: u64,
    /// Submissions rejected while quarantined.
    pub rejected: u64,
}

/// Audits multi-tenant temporal isolation ([`Rule::TenantIsolation`]).
///
/// The rule formalizes the serving subsystem's promise: another tenant's
/// overload is absorbed by *that tenant's* backpressure, never exported.
/// Concretely, when at least one tenant ran over quota:
///
/// - no hard-RT periodic task may miss a deadline (the server's budget is
///   admission-tested; a flood must not leak past it), and
/// - no compliant tenant (one that stayed within quota) may have had a
///   request shed or rejected — that would be quota theft.
///
/// With every tenant within quota the rule is vacuous: sheds then indicate
/// a misconfigured backlog bound, not cross-tenant interference, and are
/// left to other checks.
#[must_use]
pub fn audit_tenant_isolation(standings: &[TenantStanding], log: &EventLog) -> Vec<Violation> {
    let mut out = Vec::new();
    if !standings.iter().any(|s| s.over_quota) {
        return out;
    }
    let end = log.last().map_or(Time::ZERO, |(t, _)| t);
    // Deadline misses are never packed: the side table holds them all.
    for &(time, ref event) in log.unpacked() {
        if let KernelEvent::DeadlineMiss {
            handle, invocation, ..
        } = *event
        {
            flag(
                &mut out,
                time,
                Rule::TenantIsolation,
                format!(
                    "hard-RT {handle} missed invocation {invocation} while a \
                     tenant was over quota: overload leaked past the server budget"
                ),
            );
        }
    }
    for s in standings {
        if s.over_quota {
            continue;
        }
        if s.shed > 0 || s.rejected > 0 {
            flag(
                &mut out,
                end,
                Rule::TenantIsolation,
                format!(
                    "compliant tenant{} lost requests (shed={}, rejected={}) \
                     while another tenant was over quota: quota theft",
                    s.tenant, s.shed, s.rejected
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdvs_core::machine::Machine;
    use rtdvs_core::policy::PolicyKind;
    use rtdvs_core::time::Work;
    use rtdvs_kernel::{FractionBody, ModeChange, RtKernel};

    fn ms(v: f64) -> Time {
        Time::from_ms(v)
    }

    #[test]
    fn a_real_kernel_run_audits_clean() {
        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
        let a = k
            .spawn(ms(10.0), Work::from_ms(3.0), Box::new(FractionBody(0.8)))
            .unwrap();
        k.spawn(ms(20.0), Work::from_ms(4.0), Box::new(FractionBody(0.6)))
            .unwrap();
        k.run_for(ms(95.0));
        k.submit_mode_change(
            ModeChange::new()
                .reparam(a, ms(16.0), Work::from_ms(3.0))
                .admit(ms(40.0), Work::from_ms(2.0), Box::new(FractionBody(0.5))),
        )
        .unwrap();
        k.run_for(ms(160.0));
        k.remove(a).unwrap();
        k.run_for(ms(80.0));
        let violations = audit_kernel_log(k.log());
        assert!(violations.is_empty(), "{violations:?}");
        assert!(k
            .log()
            .iter()
            .any(|(_, e)| matches!(e, KernelEvent::ModeChangeCommitted { epoch: 1 })));
    }

    #[test]
    fn epoch_skips_and_repeats_are_flagged() {
        let log = EventLog::from_iter([
            (ms(1.0), KernelEvent::ModeChangeCommitted { epoch: 1 }),
            (ms(2.0), KernelEvent::ModeChangeCommitted { epoch: 3 }),
            (ms(3.0), KernelEvent::ModeChangeCommitted { epoch: 4 }),
            (ms(4.0), KernelEvent::ModeChangeCommitted { epoch: 4 }),
        ]);
        let violations = audit_kernel_log(&log);
        let epochs: Vec<_> = violations
            .iter()
            .filter(|v| v.rule == Rule::EpochMonotonicity)
            .collect();
        assert_eq!(epochs.len(), 2, "{violations:?}");
        assert!(epochs[0].details.contains("epoch 3, expected 2"));
        assert!(epochs[1].details.contains("epoch 4, expected 5"));
    }

    #[test]
    fn orphan_and_out_of_sequence_events_are_flagged() {
        let h = TaskHandle::from_raw(1);
        // Released without admission, then a sequence gap, then an
        // unclosed release superseded by the next one.
        let log = EventLog::from_iter([
            (
                ms(0.0),
                KernelEvent::Released {
                    handle: h,
                    invocation: 1,
                },
            ),
            (
                ms(1.0),
                KernelEvent::Completed {
                    handle: h,
                    invocation: 1,
                },
            ),
            (
                ms(10.0),
                KernelEvent::Released {
                    handle: h,
                    invocation: 3,
                },
            ),
            (
                ms(20.0),
                KernelEvent::Released {
                    handle: h,
                    invocation: 4,
                },
            ),
        ]);
        let violations = audit_kernel_log(&log);
        assert!(violations
            .iter()
            .any(|v| v.rule == Rule::KernelLogConsistency && v.details.contains("orphan")));
        assert!(violations
            .iter()
            .any(|v| v.details.contains("out of sequence (expected 2)")));
        assert!(violations
            .iter()
            .any(|v| v.details.contains("invocation 3 is still unclosed")));
    }

    #[test]
    fn backwards_time_and_stray_completion_are_flagged() {
        let h = TaskHandle::from_raw(2);
        let log = EventLog::from_iter([
            (
                ms(5.0),
                KernelEvent::Admitted {
                    handle: h,
                    deferred: false,
                },
            ),
            (
                ms(4.0),
                KernelEvent::Completed {
                    handle: h,
                    invocation: 1,
                },
            ),
        ]);
        let violations = audit_kernel_log(&log);
        assert!(violations
            .iter()
            .any(|v| v.rule == Rule::ClockMonotonicity
                && v.details.contains("timestamp went backwards")));
        assert!(violations
            .iter()
            .any(|v| v.details.contains("without a matching open release")));
    }

    #[test]
    fn clock_events_audit_clean_and_degenerate_ones_are_flagged() {
        let h = TaskHandle::from_raw(1);
        let healthy = EventLog::from_iter([
            (
                ms(0.0),
                KernelEvent::Admitted {
                    handle: h,
                    deferred: false,
                },
            ),
            (ms(3.0), KernelEvent::ClockTickGap { missed: 2 }),
            (ms(3.0), KernelEvent::ClockWatchdog { engaged: true }),
            (
                ms(3.0),
                KernelEvent::ClockJumpClamped { attempted: ms(1.5) },
            ),
            (
                ms(3.0),
                KernelEvent::Released {
                    handle: h,
                    invocation: 1,
                },
            ),
            (
                ms(3.0),
                KernelEvent::ReleaseLate {
                    handle: h,
                    invocation: 1,
                    latency: ms(3.0),
                },
            ),
            (ms(4.0), KernelEvent::ClockWatchdog { engaged: false }),
        ]);
        let violations = audit_kernel_log(&healthy);
        assert!(violations.is_empty(), "{violations:?}");

        let degenerate = EventLog::from_iter([
            (
                ms(1.0),
                KernelEvent::ClockJumpClamped { attempted: ms(0.0) },
            ),
            (
                ms(2.0),
                KernelEvent::ReleaseLate {
                    handle: h,
                    invocation: 1,
                    latency: ms(40.0),
                },
            ),
            (
                ms(3.0),
                KernelEvent::ReleaseLate {
                    handle: h,
                    invocation: 2,
                    latency: ms(-1.0),
                },
            ),
        ]);
        let violations = audit_kernel_log(&degenerate);
        assert!(violations.iter().any(|v| v.rule == Rule::ClockMonotonicity
            && v.details.contains("non-positive backward jump")));
        assert!(violations
            .iter()
            .any(|v| v.rule == Rule::ReleaseLatencyBound && v.details.contains("behind schedule")));
        assert!(violations
            .iter()
            .any(|v| v.rule == Rule::ReleaseLatencyBound
                && v.details.contains("non-positive release latency")));
    }

    #[test]
    fn misses_surface_as_deadline_miss_findings() {
        let h = TaskHandle::from_raw(1);
        let log = EventLog::from_iter([
            (
                ms(0.0),
                KernelEvent::Admitted {
                    handle: h,
                    deferred: false,
                },
            ),
            (
                ms(0.0),
                KernelEvent::Released {
                    handle: h,
                    invocation: 1,
                },
            ),
            (
                ms(10.0),
                KernelEvent::DeadlineMiss {
                    handle: h,
                    invocation: 1,
                    remaining: Work::from_ms(0.5),
                },
            ),
        ]);
        let violations = audit_kernel_log(&log);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, Rule::DeadlineMiss);
        assert!(violations[0].details.contains("0.500ms outstanding"));
    }

    #[test]
    fn unsafe_fallbacks_and_cap_violations_are_flagged() {
        let log = EventLog::from_iter([
            // Round-up fallback under no cap: fine.
            (
                ms(1.0),
                KernelEvent::RegulatorFallback {
                    desired: 2,
                    applied: 4,
                },
            ),
            // Downward fallback: unsafe by definition.
            (
                ms(2.0),
                KernelEvent::RegulatorFallback {
                    desired: 3,
                    applied: 1,
                },
            ),
            // A cap at point 2, then a fallback landing above it.
            (ms(3.0), KernelEvent::BrownoutCapSet { cap: Some(2) }),
            (
                ms(4.0),
                KernelEvent::RegulatorFallback {
                    desired: 1,
                    applied: 3,
                },
            ),
            // Cap lifted: the same landing is fine again.
            (ms(5.0), KernelEvent::BrownoutCapSet { cap: None }),
            (
                ms(6.0),
                KernelEvent::RegulatorFallback {
                    desired: 1,
                    applied: 3,
                },
            ),
        ]);
        let violations = audit_kernel_log(&log);
        let unsafe_fb: Vec<_> = violations
            .iter()
            .filter(|v| v.rule == Rule::UnsafeFallback)
            .collect();
        let cap_viol: Vec<_> = violations
            .iter()
            .filter(|v| v.rule == Rule::CapViolation)
            .collect();
        assert_eq!(unsafe_fb.len(), 1, "{violations:?}");
        assert!(unsafe_fb[0].details.contains("below desired 3"));
        assert_eq!(cap_viol.len(), 1, "{violations:?}");
        assert!(cap_viol[0].details.contains("above active cap 2"));
    }

    #[test]
    fn tenant_isolation_passes_when_the_flood_is_contained() {
        let h = TaskHandle::from_raw(1);
        let log = EventLog::from_iter([
            (
                ms(0.0),
                KernelEvent::Admitted {
                    handle: h,
                    deferred: false,
                },
            ),
            (
                ms(0.0),
                KernelEvent::Released {
                    handle: h,
                    invocation: 1,
                },
            ),
            (
                ms(5.0),
                KernelEvent::Completed {
                    handle: h,
                    invocation: 1,
                },
            ),
        ]);
        // The flooding tenant absorbs all the backpressure itself.
        let standings = [
            TenantStanding {
                tenant: 1,
                over_quota: true,
                shed: 400,
                rejected: 120,
            },
            TenantStanding {
                tenant: 2,
                over_quota: false,
                shed: 0,
                rejected: 0,
            },
        ];
        assert!(audit_tenant_isolation(&standings, &log).is_empty());
    }

    #[test]
    fn tenant_isolation_flags_quota_theft_and_leaked_misses() {
        let h = TaskHandle::from_raw(1);
        let log = EventLog::from_iter([(
            ms(10.0),
            KernelEvent::DeadlineMiss {
                handle: h,
                invocation: 1,
                remaining: Work::from_ms(0.5),
            },
        )]);
        let standings = [
            TenantStanding {
                tenant: 1,
                over_quota: true,
                shed: 400,
                rejected: 0,
            },
            TenantStanding {
                tenant: 2,
                over_quota: false,
                shed: 3,
                rejected: 1,
            },
        ];
        let violations = audit_tenant_isolation(&standings, &log);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().all(|v| v.rule == Rule::TenantIsolation));
        assert!(violations
            .iter()
            .any(|v| v.details.contains("overload leaked past the server budget")));
        assert!(violations
            .iter()
            .any(|v| v.details.contains("quota theft") && v.details.contains("tenant2")));
    }

    #[test]
    fn tenant_isolation_is_vacuous_without_an_overloaded_tenant() {
        let h = TaskHandle::from_raw(1);
        // Even a deadline miss and sheds are not *isolation* findings when
        // nobody flooded (other rules own those).
        let log = EventLog::from_iter([(
            ms(10.0),
            KernelEvent::DeadlineMiss {
                handle: h,
                invocation: 1,
                remaining: Work::from_ms(0.5),
            },
        )]);
        let standings = [TenantStanding {
            tenant: 1,
            over_quota: false,
            shed: 7,
            rejected: 2,
        }];
        assert!(audit_tenant_isolation(&standings, &log).is_empty());
    }

    #[test]
    fn shed_and_readmit_continue_the_invocation_count() {
        let h = TaskHandle::from_raw(1);
        let log = EventLog::from_iter([
            (
                ms(0.0),
                KernelEvent::Admitted {
                    handle: h,
                    deferred: false,
                },
            ),
            (
                ms(0.0),
                KernelEvent::Released {
                    handle: h,
                    invocation: 1,
                },
            ),
            (
                ms(10.0),
                KernelEvent::Shed {
                    handle: h,
                    observed: Work::from_ms(9.0),
                },
            ),
            (
                ms(30.0),
                KernelEvent::Readmitted {
                    handle: h,
                    bound: Work::from_ms(9.0),
                },
            ),
            (
                ms(30.0),
                KernelEvent::Released {
                    handle: h,
                    invocation: 2,
                },
            ),
            (
                ms(35.0),
                KernelEvent::Completed {
                    handle: h,
                    invocation: 2,
                },
            ),
        ]);
        let violations = audit_kernel_log(&log);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
