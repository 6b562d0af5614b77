//! Miss classification for fault-injected runs.
//!
//! When a chaos run misses a deadline, the interesting question is *whose
//! fault it was*: an injected fault (an overrun above the admitted bound, a
//! stuck or jittered transition, a delayed release) voids the premises of
//! condition C1, so a subsequent miss says nothing about the policy. A
//! miss in a run — or a window of a run — that no fault has touched is a
//! genuine policy bug. The chaos harness sweeps fault rates across every
//! policy and asserts the policy-bug count stays at zero.

use rtdvs_core::time::Time;
use rtdvs_sim::{DeadlineMiss, SimReport};

/// Who is to blame for a missed deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// An injected fault preceded the miss; the admission premises were
    /// already void, so the policy is not implicated.
    FaultInduced,
    /// No injected fault could explain the miss: the policy (or the
    /// engine) broke a guarantee it had given.
    PolicyBug,
}

/// One miss with its assigned blame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifiedMiss {
    /// The miss, as recorded by the simulator.
    pub miss: DeadlineMiss,
    /// Who is to blame.
    pub class: MissClass,
}

/// Classifies every miss in `report`.
///
/// A miss is [`MissClass::FaultInduced`] iff at least one injected fault
/// fired at or before the missed deadline — once any fault has perturbed
/// the run, the schedule the admission test reasoned about no longer
/// exists, so every later miss is attributed to the faults. In a run with
/// no fault events every miss is a [`MissClass::PolicyBug`].
#[must_use]
pub fn classify_misses(report: &SimReport) -> Vec<ClassifiedMiss> {
    let first_fault: Option<Time> = report.faults.iter().map(|f| f.time()).reduce(Time::min);
    report
        .misses
        .iter()
        .map(|&miss| ClassifiedMiss {
            miss,
            class: match first_fault {
                Some(t) if t.at_or_before(miss.deadline) => MissClass::FaultInduced,
                _ => MissClass::PolicyBug,
            },
        })
        .collect()
}

/// The number of misses in `report` no injected fault can explain.
#[must_use]
pub fn policy_bug_misses(report: &SimReport) -> u64 {
    classify_misses(report)
        .iter()
        .filter(|c| c.class == MissClass::PolicyBug)
        .count() as u64
}

/// The number of misses in `report` attributed to injected faults.
#[must_use]
pub fn fault_induced_misses(report: &SimReport) -> u64 {
    classify_misses(report)
        .iter()
        .filter(|c| c.class == MissClass::FaultInduced)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdvs_core::task::TaskId;
    use rtdvs_core::time::Work;
    use rtdvs_sim::FaultEvent;

    fn base_report() -> SimReport {
        use rtdvs_sim::{ContainmentStats, EnergyMeter};
        SimReport {
            policy: "EDF",
            duration: Time::from_ms(100.0),
            meter: EnergyMeter::new(1, 0.0),
            switches: 0,
            voltage_switches: 0,
            events: 0,
            misses: vec![],
            task_stats: vec![],
            trace: None,
            clamp_events: 0,
            faults: vec![],
            containment: ContainmentStats::default(),
        }
    }

    fn miss_at(deadline_ms: f64) -> DeadlineMiss {
        DeadlineMiss {
            task: TaskId(0),
            deadline: Time::from_ms(deadline_ms),
            invocation: 1,
            remaining: Work::from_ms(1.0),
        }
    }

    #[test]
    fn misses_without_faults_are_policy_bugs() {
        let mut report = base_report();
        report.misses = vec![miss_at(10.0)];
        assert_eq!(policy_bug_misses(&report), 1);
        assert_eq!(fault_induced_misses(&report), 0);
    }

    #[test]
    fn misses_after_a_fault_are_fault_induced() {
        let mut report = base_report();
        report.misses = vec![miss_at(10.0), miss_at(50.0)];
        report.faults = vec![FaultEvent::TransitionJitter {
            time: Time::from_ms(5.0),
            extra: Time::from_ms(0.1),
        }];
        let classified = classify_misses(&report);
        assert!(classified
            .iter()
            .all(|c| c.class == MissClass::FaultInduced));
    }

    #[test]
    fn misses_before_the_first_fault_stay_policy_bugs() {
        let mut report = base_report();
        report.misses = vec![miss_at(10.0), miss_at(50.0)];
        report.faults = vec![FaultEvent::TransitionJitter {
            time: Time::from_ms(20.0),
            extra: Time::from_ms(0.1),
        }];
        assert_eq!(policy_bug_misses(&report), 1);
        assert_eq!(fault_induced_misses(&report), 1);
    }
}
