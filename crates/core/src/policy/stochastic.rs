//! Statistical RT-DVS (extension): the paper's §6 future-work direction,
//! "DVS with probabilistic or statistical deadline guarantees".
//!
//! Cycle-conserving EDF is pessimistic between a task's release and its
//! completion: it reserves the full worst case `C_i` even though the task
//! will almost surely use far less. This policy instead reserves the
//! `confidence`-quantile of the task's *observed* execution times (learned
//! online from completed invocations), trading a small, tunable miss
//! probability for lower frequency while an invocation is outstanding.
//!
//! Guarantee model: deadlines are **not** absolutely guaranteed. With
//! confidence `q`, each invocation's reservation covers at least a
//! fraction `q` of the empirically observed executions; tasks that exceed
//! their reservation simply run longer at the chosen frequency and may
//! miss. Setting `confidence = 1.0` reserves the largest execution seen so
//! far (still weaker than the declared WCET until the worst case has been
//! observed). During the warm-up period (fewer than
//! [`StochasticEdf::WARMUP`] samples) the full worst case is used, so a
//! system that never exhibits variability behaves exactly like ccEDF.

use crate::analysis::RmTest;
use crate::machine::{Machine, PointIdx};
use crate::policy::{scheduler_guarantees, DvsPolicy};
use crate::sched::SchedulerKind;
use crate::task::{TaskId, TaskSet};
use crate::time::Work;
use crate::view::SystemView;

/// Ring buffer of recent execution-time samples for one task.
#[derive(Debug, Clone)]
struct SampleWindow {
    samples: Vec<f64>,
    next: usize,
    filled: bool,
}

impl SampleWindow {
    fn new(capacity: usize) -> SampleWindow {
        SampleWindow {
            samples: Vec::with_capacity(capacity),
            next: 0,
            filled: false,
        }
    }

    fn push(&mut self, value: f64) {
        if self.samples.len() < self.samples.capacity() {
            self.samples.push(value);
        } else {
            self.samples[self.next] = value;
            self.filled = true;
        }
        self.next = (self.next + 1) % self.samples.capacity();
    }

    fn len(&self) -> usize {
        self.samples.len()
    }

    /// The `q`-quantile of the recorded samples (nearest-rank, rounded
    /// up), or `None` if empty.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        Some(sorted[rank])
    }
}

/// EDF-based DVS with statistical (quantile) execution-time reservations.
#[derive(Debug, Clone)]
pub struct StochasticEdf {
    confidence: f64,
    windows: Vec<SampleWindow>,
    /// Current reservation-based utilization per task.
    util: Vec<f64>,
    point: PointIdx,
}

impl StochasticEdf {
    /// Samples required before trusting the empirical distribution.
    pub const WARMUP: usize = 8;

    /// Samples retained per task.
    pub const WINDOW: usize = 64;

    /// Creates the policy with the given confidence quantile.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not in `(0, 1]`.
    #[must_use]
    pub fn new(confidence: f64) -> StochasticEdf {
        assert!(
            confidence > 0.0 && confidence <= 1.0,
            "confidence {confidence} outside (0, 1]"
        );
        StochasticEdf {
            confidence,
            windows: Vec::new(),
            util: Vec::new(),
            point: 0,
        }
    }

    /// The configured confidence quantile.
    #[must_use]
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// The reservation (in work) for an outstanding invocation of `task`:
    /// the confidence quantile of observed executions once warmed up, the
    /// declared worst case before that. Never below the work the current
    /// invocation has already consumed.
    fn reservation(&self, task: TaskId, wcet: Work, executed: Work) -> Work {
        let w = &self.windows[task.0];
        let base = if w.len() >= Self::WARMUP {
            Work::from_ms(w.quantile(self.confidence).expect("non-empty window")).min(wcet)
        } else {
            wcet
        };
        base.max(executed)
    }

    fn select(&mut self, machine: &Machine) -> PointIdx {
        let sum: f64 = self.util.iter().sum();
        self.point = machine.point_at_least(sum);
        self.point
    }
}

impl DvsPolicy for StochasticEdf {
    fn name(&self) -> &'static str {
        "stochEDF"
    }

    fn scheduler(&self) -> SchedulerKind {
        SchedulerKind::Edf
    }

    fn init(&mut self, tasks: &TaskSet, machine: &Machine) -> PointIdx {
        self.windows = (0..tasks.len())
            .map(|_| SampleWindow::new(Self::WINDOW))
            .collect();
        self.util = tasks.tasks().iter().map(|t| t.utilization()).collect();
        self.select(machine)
    }

    fn on_release(&mut self, task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        let spec = sys.tasks.task(task);
        let reserve = self.reservation(task, spec.wcet(), Work::ZERO);
        self.util[task.0] = reserve.utilization_over(spec.period());
        self.select(sys.machine)
    }

    fn on_completion(&mut self, task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        let spec = sys.tasks.task(task);
        let actual = sys.view(task).executed;
        self.windows[task.0].push(actual.as_ms());
        // Like ccEDF: until the next release, the task's demand is exactly
        // what it used.
        self.util[task.0] = actual.utilization_over(spec.period());
        self.select(sys.machine)
    }

    fn idle_point(&self, machine: &Machine) -> PointIdx {
        machine.lowest()
    }

    fn current_point(&self) -> PointIdx {
        self.point
    }

    fn guarantees(&self, tasks: &TaskSet) -> bool {
        // Admission still requires the set to be schedulable in the
        // absolute sense — the statistical relaxation applies only to the
        // frequency choice, not to admission.
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
    use crate::time::Time;
    use crate::view::{InvState, TaskView};

    fn paper_set() -> TaskSet {
        TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)]).expect("valid task set")
    }

    fn active_views(tasks: &TaskSet) -> Vec<TaskView> {
        tasks
            .tasks()
            .iter()
            .map(|t| TaskView {
                invocation: 1,
                state: InvState::Active,
                executed: Work::ZERO,
                deadline: t.period(),
                next_release: t.period(),
            })
            .collect()
    }

    #[test]
    fn window_quantiles() {
        let mut w = SampleWindow::new(8);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.quantile(1.0), Some(4.0));
        assert_eq!(w.quantile(0.5), Some(2.0));
        assert_eq!(w.quantile(0.25), Some(1.0));
        assert_eq!(w.quantile(0.75), Some(3.0));
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = SampleWindow::new(4);
        for v in [9.0, 9.0, 9.0, 9.0, 1.0, 1.0, 1.0, 1.0] {
            w.push(v);
        }
        assert_eq!(w.quantile(1.0), Some(1.0), "old maxima must age out");
        assert!(w.filled);
    }

    #[test]
    fn empty_window_has_no_quantile() {
        let w = SampleWindow::new(4);
        assert_eq!(w.quantile(0.9), None);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn rejects_zero_confidence() {
        let _ = StochasticEdf::new(0.0);
    }

    #[test]
    fn behaves_like_cc_edf_during_warmup() {
        let tasks = paper_set();
        let machine = Machine::machine0();
        let mut p = StochasticEdf::new(0.9);
        let idx = p.init(&tasks, &machine);
        // Worst-case utilization 0.746 → point 0.75, exactly like ccEDF.
        assert_eq!(machine.point(idx).freq, 0.75);
        let views = active_views(&tasks);
        let sys = SystemView {
            now: Time::ZERO,
            tasks: &tasks,
            machine: &machine,
            views: &views,
        };
        assert_eq!(p.on_release(TaskId(0), &sys), 1);
    }

    #[test]
    fn learned_quantile_lowers_reservation() {
        let tasks = paper_set();
        let machine = Machine::machine0();
        let mut p = StochasticEdf::new(0.9);
        p.init(&tasks, &machine);
        // Feed ten completions of T1 at one third of its worst case.
        let mut views = active_views(&tasks);
        for _ in 0..10 {
            views[0].state = InvState::Completed;
            views[0].executed = Work::from_ms(1.0);
            let sys = SystemView {
                now: Time::from_ms(1.0),
                tasks: &tasks,
                machine: &machine,
                views: &views,
            };
            p.on_completion(TaskId(0), &sys);
        }
        // On the next release the reservation is the learned 1 ms, not the
        // 3 ms worst case: U ≈ 1/8 + 3/10 + 1/14 = 0.496 → point 0.5.
        views[0].state = InvState::Active;
        views[0].executed = Work::ZERO;
        let sys = SystemView {
            now: Time::from_ms(8.0),
            tasks: &tasks,
            machine: &machine,
            views: &views,
        };
        let idx = p.on_release(TaskId(0), &sys);
        assert_eq!(machine.point(idx).freq, 0.5);
    }

    #[test]
    fn reservation_never_below_executed() {
        let tasks = paper_set();
        let machine = Machine::machine0();
        let mut p = StochasticEdf::new(0.5);
        p.init(&tasks, &machine);
        for _ in 0..StochasticEdf::WARMUP {
            p.windows[0].push(0.5);
        }
        let r = p.reservation(TaskId(0), Work::from_ms(3.0), Work::from_ms(2.2));
        assert_eq!(r.as_ms(), 2.2);
    }

    #[test]
    fn higher_confidence_reserves_more() {
        let tasks = paper_set();
        let machine = Machine::machine0();
        let mut lo = StochasticEdf::new(0.5);
        let mut hi = StochasticEdf::new(1.0);
        lo.init(&tasks, &machine);
        hi.init(&tasks, &machine);
        for v in [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 2.0, 1.0] {
            lo.windows[0].push(v);
            hi.windows[0].push(v);
        }
        let rl = lo.reservation(TaskId(0), Work::from_ms(3.0), Work::ZERO);
        let rh = hi.reservation(TaskId(0), Work::from_ms(3.0), Work::ZERO);
        assert!(rl < rh);
        assert_eq!(rh.as_ms(), 3.0);
    }
}
