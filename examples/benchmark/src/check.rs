//! Failure classification of simulator operations (one `simulate` call).

use rtdvs::sim::theoretical_bound;
use rtdvs::{Machine, SimReport};

/// Relative slack below the theoretical bound tolerated as float rounding.
const BOUND_TOLERANCE: f64 = 1e-9;

/// What one `simulate` call's outcome means for `error_rate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimVerdict {
    /// Every deadline met, energy at or above the bound.
    Ok,
    /// Misses on a set the policy's own admission test rejects: the
    /// policy promised nothing, so they are counted but do not fail.
    ExpectedMisses(u64),
    /// Misses on a set the policy's admission test accepts.
    MissOnAdmitted(u64),
    /// Less energy than the theoretical minimum for the work executed.
    BelowBound,
}

impl SimVerdict {
    /// Whether the operation counts as failed.
    pub fn failed(self) -> bool {
        matches!(self, SimVerdict::MissOnAdmitted(_) | SimVerdict::BelowBound)
    }

    /// Misses that were expected (0 unless [`SimVerdict::ExpectedMisses`]).
    pub fn expected_misses(self) -> u64 {
        match self {
            SimVerdict::ExpectedMisses(n) => n,
            _ => 0,
        }
    }
}

/// Classifies one run from its miss count, whether the policy's
/// `guarantees` test admitted the set, its energy and the bound.
pub fn classify(misses: u64, admitted: bool, energy: f64, bound: f64) -> SimVerdict {
    if energy < bound * (1.0 - BOUND_TOLERANCE) {
        SimVerdict::BelowBound
    } else if misses == 0 {
        SimVerdict::Ok
    } else if admitted {
        SimVerdict::MissOnAdmitted(misses)
    } else {
        SimVerdict::ExpectedMisses(misses)
    }
}

/// Classifies a finished report against the bound for the work it
/// executed over its horizon.
pub fn classify_report(
    report: &SimReport,
    admitted: bool,
    machine: &Machine,
    idle_level: f64,
) -> SimVerdict {
    let bound = theoretical_bound(machine, report.total_work(), report.duration, idle_level);
    classify(report.misses.len() as u64, admitted, report.energy(), bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdvs::core::TaskSet;
    use rtdvs::{simulate, PolicyKind, RmTest, SimConfig, Time};

    #[test]
    fn pure_classification() {
        assert_eq!(classify(0, true, 10.0, 5.0), SimVerdict::Ok);
        assert_eq!(classify(0, false, 10.0, 10.0), SimVerdict::Ok);
        assert_eq!(classify(2, true, 10.0, 5.0), SimVerdict::MissOnAdmitted(2));
        assert_eq!(classify(2, false, 10.0, 5.0), SimVerdict::ExpectedMisses(2));
        assert_eq!(classify(0, true, 4.0, 5.0), SimVerdict::BelowBound);
        // Energy below the bound fails even on a rejected set.
        assert_eq!(classify(3, false, 4.0, 5.0), SimVerdict::BelowBound);
        // Rounding at the bound is not a failure.
        assert_eq!(classify(0, true, 5.0 * (1.0 - 1e-12), 5.0), SimVerdict::Ok);
        assert!(SimVerdict::MissOnAdmitted(1).failed());
        assert!(SimVerdict::BelowBound.failed());
        assert!(!SimVerdict::ExpectedMisses(4).failed());
        assert_eq!(SimVerdict::ExpectedMisses(4).expected_misses(), 4);
        assert_eq!(SimVerdict::MissOnAdmitted(4).expected_misses(), 0);
    }

    /// A set EDF schedules but the exact RM test rejects: static RM misses
    /// on it, and those misses are expected, not failures.
    #[test]
    fn rm_miss_on_an_rm_rejected_set_is_expected() {
        let set = TaskSet::from_ms_pairs(&[(10.0, 5.0), (14.0, 6.9)]).expect("valid set");
        let machine = Machine::machine0();
        let cfg = SimConfig::new(Time::from_ms(140.0));
        let rm = PolicyKind::StaticRm(RmTest::SchedulingPoints);
        let admitted = rm.build().guarantees(&set);
        assert!(!admitted);
        let report = simulate(&set, &machine, rm, &cfg);
        assert!(!report.misses.is_empty());
        let verdict = classify_report(&report, admitted, &machine, cfg.idle_level);
        assert!(matches!(verdict, SimVerdict::ExpectedMisses(n) if n > 0));
        assert!(!verdict.failed());

        // The same misses count as failures had the test admitted the set.
        let verdict = classify_report(&report, true, &machine, cfg.idle_level);
        assert!(verdict.failed());

        // EDF admits and schedules the set: no misses, energy above bound.
        let edf = PolicyKind::CcEdf;
        let report = simulate(&set, &machine, edf, &cfg);
        let verdict = classify_report(&report, edf.build().guarantees(&set), &machine, 0.0);
        assert_eq!(verdict, SimVerdict::Ok);
    }
}
