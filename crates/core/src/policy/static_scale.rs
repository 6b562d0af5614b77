//! Static voltage scaling (§2.3, Fig. 1): pick the lowest operating point
//! at which the frequency-scaled schedulability test still passes, and keep
//! it until the task set changes.

use crate::analysis::{static_edf_point, static_rm_point, RmTest};
use crate::machine::{Machine, PointIdx};
use crate::policy::{scheduler_guarantees, DvsPolicy};
use crate::sched::SchedulerKind;
use crate::task::{TaskId, TaskSet};
use crate::view::SystemView;

/// Statically-scaled EDF or RM.
///
/// The operating point is selected once per task set by [`DvsPolicy::init`]
/// and never changes afterwards — including during idle (§3.2 observes that
/// the static schemes do not drop to the lowest point while halted). If the
/// task set fails the schedulability test even at maximum frequency, the
/// maximum point is used (deadline guarantees are then void; admission
/// control should have rejected the set).
#[derive(Debug, Clone)]
pub struct StaticDvs {
    scheduler: SchedulerKind,
    rm_test: RmTest,
    point: PointIdx,
}

impl StaticDvs {
    /// Statically-scaled EDF.
    #[must_use]
    pub fn edf() -> StaticDvs {
        StaticDvs {
            scheduler: SchedulerKind::Edf,
            rm_test: RmTest::default(),
            point: 0,
        }
    }

    /// Statically-scaled RM using the given schedulability test.
    #[must_use]
    pub fn rm(rm_test: RmTest) -> StaticDvs {
        StaticDvs {
            scheduler: SchedulerKind::Rm,
            rm_test,
            point: 0,
        }
    }

    /// The RM test variant in use (meaningful only for the RM flavor).
    #[must_use]
    pub fn rm_test(&self) -> RmTest {
        self.rm_test
    }
}

impl DvsPolicy for StaticDvs {
    fn name(&self) -> &'static str {
        match self.scheduler {
            SchedulerKind::Edf => "StaticEDF",
            SchedulerKind::Rm => "StaticRM",
        }
    }

    fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    fn init(&mut self, tasks: &TaskSet, machine: &Machine) -> PointIdx {
        let chosen = match self.scheduler {
            SchedulerKind::Edf => static_edf_point(tasks, machine),
            SchedulerKind::Rm => static_rm_point(tasks, machine, self.rm_test),
        };
        self.point = chosen.unwrap_or(machine.highest());
        self.point
    }

    fn on_release(&mut self, _task: TaskId, _sys: &SystemView<'_>) -> PointIdx {
        self.point
    }

    fn on_completion(&mut self, _task: TaskId, _sys: &SystemView<'_>) -> PointIdx {
        self.point
    }

    fn idle_point(&self, _machine: &Machine) -> PointIdx {
        self.point
    }

    fn current_point(&self) -> PointIdx {
        self.point
    }

    fn guarantees(&self, tasks: &TaskSet) -> bool {
        scheduler_guarantees(self.scheduler, tasks, self.rm_test)
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    fn paper_set() -> TaskSet {
        TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)]).expect("valid task set")
    }

    #[test]
    fn fig2_static_points() {
        // Fig. 2: static EDF uses 0.75; static RM cannot go below 1.0.
        let set = paper_set();
        let m = Machine::machine0();
        let mut edf = StaticDvs::edf();
        assert_eq!(edf.init(&set, &m), 1);
        assert_eq!(m.point(edf.current_point()).freq, 0.75);
        let mut rm = StaticDvs::rm(RmTest::default());
        assert_eq!(rm.init(&set, &m), 2);
        assert_eq!(m.point(rm.current_point()).freq, 1.0);
    }

    #[test]
    fn low_utilization_set_scales_to_lowest() {
        let set = TaskSet::from_ms_pairs(&[(10.0, 1.0), (20.0, 2.0)]).expect("valid task set");
        let m = Machine::machine0();
        let mut edf = StaticDvs::edf();
        assert_eq!(edf.init(&set, &m), 0);
        let mut rm = StaticDvs::rm(RmTest::default());
        assert_eq!(rm.init(&set, &m), 0);
    }

    #[test]
    fn infeasible_set_saturates_at_max() {
        let set = TaskSet::from_ms_pairs(&[(2.0, 1.5), (4.0, 3.0)]).expect("valid task set");
        let m = Machine::machine0();
        let mut edf = StaticDvs::edf();
        assert_eq!(edf.init(&set, &m), m.highest());
        assert!(!edf.guarantees(&set));
    }

    #[test]
    fn idle_stays_at_static_point() {
        let set = paper_set();
        let m = Machine::machine0();
        let mut edf = StaticDvs::edf();
        edf.init(&set, &m);
        assert_eq!(edf.idle_point(&m), 1);
    }

    #[test]
    fn machine1_lets_static_edf_go_lower() {
        // With the 0.83 point available, U = 0.746 fits under 0.83 too, but
        // 0.75 is still the lowest sufficient point.
        let set = paper_set();
        let m = Machine::machine1();
        let mut edf = StaticDvs::edf();
        edf.init(&set, &m);
        assert_eq!(m.point(edf.current_point()).freq, 0.75);
    }
}
