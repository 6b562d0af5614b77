//! The paper's running example: the task set of Table 2 with the actual
//! per-invocation computation times of Table 3.
//!
//! Every worked figure (Figs. 2, 3, 5, 7) and Table 4 use this data, so it
//! is provided as a shared fixture for tests, examples, and the experiment
//! drivers.

use crate::task::TaskSet;
use crate::time::Work;

/// Table 2: periods and worst-case computation times (ms at maximum
/// frequency) — T1 = (8, 3), T2 = (10, 3), T3 = (14, 1).
#[must_use]
pub fn table2_task_set() -> TaskSet {
    TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)])
        .expect("the paper's example task set is valid")
}

/// Table 3: actual computation requirements for the first two invocations
/// of each task, `actual[task][invocation]` in ms at maximum frequency.
///
/// T1 uses (2, 1), T2 uses (1, 1), T3 uses (1, 1). The paper's examples run
/// for 16 ms, during which each task is invoked exactly twice.
#[must_use]
pub fn table3_actual_times() -> Vec<Vec<Work>> {
    vec![
        vec![Work::from_ms(2.0), Work::from_ms(1.0)],
        vec![Work::from_ms(1.0), Work::from_ms(1.0)],
        vec![Work::from_ms(1.0), Work::from_ms(1.0)],
    ]
}

/// The horizon over which the paper's examples (and Table 4) are evaluated.
pub const EXAMPLE_HORIZON_MS: f64 = 16.0;

/// Table 4: the paper's normalized energy results for the example, keyed by
/// the policy names used in this crate.
#[must_use]
pub fn table4_expected() -> Vec<(&'static str, f64)> {
    vec![
        ("EDF", 1.0),
        ("StaticRM", 1.0),
        ("StaticEDF", 0.64),
        ("ccEDF", 0.52),
        ("ccRM", 0.71),
        ("laEDF", 0.44),
    ]
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let set = table2_task_set();
        assert_eq!(set.len(), 3);
        assert_eq!(set.task(crate::task::TaskId(0)).period().as_ms(), 8.0);
        assert_eq!(set.task(crate::task::TaskId(2)).wcet().as_ms(), 1.0);
        assert!((set.total_utilization() - 0.746_428_571).abs() < 1e-6);
    }

    #[test]
    fn table3_fits_within_wcet() {
        let set = table2_task_set();
        for (task, times) in set.tasks().iter().zip(table3_actual_times()) {
            for w in times {
                assert!(w.as_ms() <= task.wcet().as_ms());
            }
        }
    }

    #[test]
    fn two_invocations_cover_the_horizon() {
        let set = table2_task_set();
        for task in set.tasks() {
            let invocations = (EXAMPLE_HORIZON_MS / task.period().as_ms()).ceil() as usize;
            assert_eq!(invocations, 2);
        }
    }
}
