//! Invariant audit layer for the RT-DVS simulator.
//!
//! The simulator can journal a full [`rtdvs_sim::trace::Trace`] of a run:
//! every release (with the sampled actual computation time), completion,
//! miss, and review grant, plus the processor segments between them. This
//! crate replays that journal against a fresh policy instance and checks
//! the guarantees of Pillai & Shin (SOSP 2001) as machine-checked rules:
//!
//! - no deadline miss when the policy's admission test passed (§2.2),
//! - at most two operating-point switches per invocation (§2.5, §4.1),
//! - the selected frequency always covers the committed demand
//!   (§2.3–§2.5),
//! - ccEDF's utilization bookkeeping sums back to the worst case on every
//!   release (§2.4, Fig. 4),
//! - ccRM's pacing never exceeds the statically-scaled schedule's
//!   allotment (§2.4, Fig. 6),
//! - laEDF never defers work that is due before the earliest deadline
//!   (§2.5, Fig. 8),
//! - dynamic schemes idle at the lowest operating point (§3.2).
//!
//! Each broken invariant is reported as a structured
//! [`Violation`] — `{ time, task, rule, details }` — so tests and CI can
//! assert on exactly which guarantee failed and when.
//!
//! # Quick start
//!
//! ```
//! use rtdvs_audit::audit_run;
//! use rtdvs_core::example::table2_task_set;
//! use rtdvs_core::machine::Machine;
//! use rtdvs_core::policy::PolicyKind;
//! use rtdvs_core::time::Time;
//! use rtdvs_sim::config::SimConfig;
//!
//! let tasks = table2_task_set();
//! let machine = Machine::machine0();
//! let cfg = SimConfig::new(Time::from_ms(160.0));
//! let (report, violations) = audit_run(&tasks, &machine, PolicyKind::LaEdf, &cfg);
//! assert!(report.all_deadlines_met());
//! assert!(violations.is_empty(), "{violations:?}");
//! ```

mod availability;
mod classify;
mod kernel_replay;
mod replay;
mod violation;

pub use availability::{audit_availability, AvailabilityPolicy};
pub use classify::{
    classify_misses, fault_induced_misses, policy_bug_misses, ClassifiedMiss, MissClass,
};
pub use kernel_replay::{audit_kernel_log, audit_tenant_isolation, TenantStanding};
pub use replay::{audit_run, TraceAuditor};
pub use violation::{Rule, Violation};

#[cfg(test)]
mod tests {
    use rtdvs_core::example::table2_task_set;
    use rtdvs_core::machine::Machine;
    use rtdvs_core::policy::PolicyKind;
    use rtdvs_core::sched::SchedulerKind;
    use rtdvs_core::time::Time;
    use rtdvs_sim::config::SimConfig;
    use rtdvs_sim::ExecModel;

    use crate::{audit_run, Rule};

    fn cfg() -> SimConfig {
        SimConfig::new(Time::from_ms(160.0))
            .with_exec(ExecModel::uniform())
            .with_seed(7)
    }

    #[test]
    fn paper_policies_pass_on_the_example_set() {
        let tasks = table2_task_set();
        for machine in [Machine::machine0(), Machine::machine2()] {
            for kind in PolicyKind::paper_six() {
                let (report, violations) = audit_run(&tasks, &machine, kind, &cfg());
                assert!(report.all_deadlines_met(), "{} missed", kind.name());
                assert!(
                    violations.is_empty(),
                    "{} on {}: {violations:?}",
                    kind.name(),
                    machine.name()
                );
            }
        }
    }

    #[test]
    fn broken_manual_pin_is_flagged() {
        // Pinning the example set (U ≈ 0.746) to machine0's lowest point
        // (0.5) makes it infeasible; the auditor must flag the misses.
        let tasks = table2_task_set();
        let machine = Machine::machine0();
        let kind = PolicyKind::Manual {
            scheduler: SchedulerKind::Edf,
            point: machine.lowest(),
        };
        let (report, violations) = audit_run(&tasks, &machine, kind, &cfg());
        assert!(!report.all_deadlines_met());
        assert!(violations.iter().any(|v| v.rule == Rule::DeadlineMiss));
        // Manual makes no guarantee, so the miss is not a guarantee
        // violation.
        assert!(!violations.iter().any(|v| v.rule == Rule::GuaranteeViolated));
    }

    /// Under injected faults the auditor must not blame the policy: every
    /// miss that follows a fault is classified fault-induced, and the
    /// point/scheduler divergence caused by containment is not flagged.
    #[test]
    fn faulty_runs_produce_no_policy_findings() {
        use rtdvs_sim::FaultPlan;
        let tasks = table2_task_set();
        let machine = Machine::machine0();
        // Two plans: a mild one, and a harsh one whose heavy release
        // jitter once tripped ccRM's pacing cross-check (the policy-state
        // invariants must stand down when faults void their premises).
        let plans = [
            FaultPlan::new(0xC405)
                .with_overruns(0.3, 1.5)
                .with_stuck_transitions(0.1)
                .with_transition_jitter(0.1, Time::from_ms(0.1))
                .with_release_jitter(0.1, 0.25),
            FaultPlan::new(0xBEEF)
                .with_overruns(0.4, 1.5)
                .with_stuck_transitions(0.2)
                .with_transition_jitter(0.2, Time::from_ms(0.1))
                .with_release_jitter(0.2, 0.25),
        ];
        for (plan, kind) in plans
            .iter()
            .flat_map(|p| PolicyKind::paper_six().into_iter().map(move |k| (p, k)))
        {
            let config = cfg().with_faults(*plan);
            let (report, violations) = audit_run(&tasks, &machine, kind, &config);
            assert!(
                !report.faults.is_empty(),
                "{}: the plan should have injected something",
                kind.name()
            );
            for v in &violations {
                assert!(
                    v.rule == Rule::FaultInducedMiss,
                    "{}: unexpected policy finding {v}",
                    kind.name()
                );
            }
            assert_eq!(
                crate::policy_bug_misses(&report),
                0,
                "{}: classifier blames the policy",
                kind.name()
            );
        }
    }

    /// The same run without a fault plan audits exactly as before — the
    /// fault-aware paths must not relax anything for clean runs.
    #[test]
    fn clean_runs_still_fully_audited() {
        let tasks = table2_task_set();
        let machine = Machine::machine0();
        let (report, violations) = audit_run(&tasks, &machine, PolicyKind::CcEdf, &cfg());
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(crate::policy_bug_misses(&report), 0);
        assert_eq!(crate::fault_induced_misses(&report), 0);
    }

    #[test]
    fn missing_trace_is_reported() {
        let tasks = table2_task_set();
        let machine = Machine::machine0();
        let config = cfg();
        let report = rtdvs_sim::simulate(&tasks, &machine, PolicyKind::CcEdf, &config);
        let auditor = crate::TraceAuditor::new(&tasks, &machine, PolicyKind::CcEdf, &config);
        let violations = auditor.audit(&report);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, Rule::TraceConsistency);
    }
}
