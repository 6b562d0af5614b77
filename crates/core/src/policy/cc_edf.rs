//! Cycle-conserving EDF (§2.4, Fig. 4).
//!
//! The EDF utilization test is recomputed at every scheduling point using
//! the *actual* cycles consumed by completed invocations in place of their
//! worst case: on release of `T_i` its utilization reverts to `C_i/P_i`; on
//! completion it drops to `cc_i/P_i` until the next release. The lowest
//! operating point whose frequency covers the summed utilization is used.

use crate::analysis::RmTest;
use crate::machine::{Machine, PointIdx};
use crate::policy::{scheduler_guarantees, DvsPolicy};
use crate::sched::SchedulerKind;
use crate::task::{TaskId, TaskSet};
use crate::view::SystemView;

/// Cycle-conserving EDF.
#[derive(Debug, Clone, Default)]
pub struct CcEdf {
    /// Current per-task utilization `U_i`: worst-case while an invocation
    /// is outstanding, actual once it has completed.
    util: Vec<f64>,
    point: PointIdx,
}

impl CcEdf {
    /// Creates the policy (state is filled in by [`DvsPolicy::init`]).
    #[must_use]
    pub fn new() -> CcEdf {
        CcEdf::default()
    }

    /// The utilization sum currently used by the test (exposed for
    /// inspection; Fig. 3 annotates its value at each scheduling point).
    #[must_use]
    pub fn utilization_sum(&self) -> f64 {
        self.util.iter().sum()
    }

    fn select(&mut self, machine: &Machine) -> PointIdx {
        self.point = machine.point_at_least(self.utilization_sum());
        self.point
    }
}

impl DvsPolicy for CcEdf {
    fn name(&self) -> &'static str {
        "ccEDF"
    }

    fn scheduler(&self) -> SchedulerKind {
        SchedulerKind::Edf
    }

    fn init(&mut self, tasks: &TaskSet, machine: &Machine) -> PointIdx {
        self.util = tasks.tasks().iter().map(|t| t.utilization()).collect();
        self.select(machine)
    }

    fn on_release(&mut self, task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        // Restore the worst-case bound for the new invocation (the paper's
        // `U_i = C_i / P_i` step); this may raise the frequency.
        self.util[task.0] = sys.tasks.task(task).utilization();
        self.select(sys.machine)
    }

    fn on_completion(&mut self, task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        // Use the actual cycles of this invocation until the next release
        // (the paper's `U_i = cc_i / P_i` step).
        let actual = sys.view(task).executed;
        self.util[task.0] = actual.utilization_over(sys.tasks.task(task).period());
        self.select(sys.machine)
    }

    fn idle_point(&self, machine: &Machine) -> PointIdx {
        machine.lowest()
    }

    fn current_point(&self) -> PointIdx {
        self.point
    }

    fn guarantees(&self, tasks: &TaskSet) -> bool {
        scheduler_guarantees(SchedulerKind::Edf, tasks, RmTest::default())
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;
    use crate::time::{Time, Work};
    use crate::view::{InvState, TaskView};

    fn paper_set() -> TaskSet {
        TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)]).expect("valid task set")
    }

    fn views(entries: &[(InvState, f64, f64)]) -> Vec<TaskView> {
        entries
            .iter()
            .map(|&(state, executed, deadline)| TaskView {
                invocation: 1,
                state,
                executed: Work::from_ms(executed),
                deadline: Time::from_ms(deadline),
                next_release: Time::from_ms(deadline),
            })
            .collect()
    }

    /// Walks the scheduling points of Fig. 3 and checks the printed
    /// utilization values and the selected frequencies.
    #[test]
    fn fig3_utilization_steps() {
        let tasks = paper_set();
        let machine = Machine::machine0();
        let mut p = CcEdf::new();

        // t = 0: worst case, U = 0.746 → frequency 0.75.
        let idx = p.init(&tasks, &machine);
        assert!((p.utilization_sum() - 0.746_428_571).abs() < 1e-6);
        assert_eq!(machine.point(idx).freq, 0.75);

        // T1 completes after 2 ms of work: U = 2/8+3/10+1/14 = 0.621 → 0.75.
        let v = views(&[
            (InvState::Completed, 2.0, 8.0),
            (InvState::Active, 0.0, 10.0),
            (InvState::Active, 0.0, 14.0),
        ]);
        let sys = SystemView {
            now: Time::from_ms(8.0 / 3.0),
            tasks: &tasks,
            machine: &machine,
            views: &v,
        };
        let idx = p.on_completion(TaskId(0), &sys);
        assert!((p.utilization_sum() - 0.621_428_571).abs() < 1e-6);
        assert_eq!(machine.point(idx).freq, 0.75);

        // T2 completes after 1 ms: U = 0.25+0.1+1/14 = 0.421 → 0.5.
        let v = views(&[
            (InvState::Completed, 2.0, 8.0),
            (InvState::Completed, 1.0, 10.0),
            (InvState::Active, 0.0, 14.0),
        ]);
        let sys = SystemView {
            now: Time::from_ms(4.0),
            tasks: &tasks,
            machine: &machine,
            views: &v,
        };
        let idx = p.on_completion(TaskId(1), &sys);
        assert!((p.utilization_sum() - 0.421_428_571).abs() < 1e-6);
        assert_eq!(machine.point(idx).freq, 0.5);

        // t = 8: T1 re-released, worst case restored:
        // U = 0.375+0.1+0.0714 = 0.546 → 0.75.
        let v = views(&[
            (InvState::Active, 0.0, 16.0),
            (InvState::Completed, 1.0, 10.0),
            (InvState::Active, 0.5, 14.0),
        ]);
        let sys = SystemView {
            now: Time::from_ms(8.0),
            tasks: &tasks,
            machine: &machine,
            views: &v,
        };
        let idx = p.on_release(TaskId(0), &sys);
        assert!((p.utilization_sum() - 0.546_428_571).abs() < 1e-6);
        assert_eq!(machine.point(idx).freq, 0.75);
    }

    #[test]
    fn zero_usage_completion_drops_to_lowest() {
        let tasks = paper_set();
        let machine = Machine::machine0();
        let mut p = CcEdf::new();
        p.init(&tasks, &machine);
        let v = views(&[
            (InvState::Completed, 0.0, 8.0),
            (InvState::Completed, 0.0, 10.0),
            (InvState::Completed, 0.0, 14.0),
        ]);
        let sys = SystemView {
            now: Time::from_ms(1.0),
            tasks: &tasks,
            machine: &machine,
            views: &v,
        };
        p.on_completion(TaskId(0), &sys);
        p.on_completion(TaskId(1), &sys);
        let idx = p.on_completion(TaskId(2), &sys);
        assert_eq!(idx, machine.lowest());
        assert!(p.utilization_sum() < 1e-9);
    }

    #[test]
    fn idle_goes_to_lowest() {
        let machine = Machine::machine0();
        let p = CcEdf::new();
        assert_eq!(p.idle_point(&machine), 0);
    }

    #[test]
    fn guarantees_follow_edf_bound() {
        let p = CcEdf::new();
        assert!(p.guarantees(&paper_set()));
        let over = TaskSet::from_ms_pairs(&[(2.0, 1.5), (4.0, 3.0)]).expect("valid task set");
        assert!(!p.guarantees(&over));
    }
}
