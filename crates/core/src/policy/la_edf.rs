//! Look-ahead EDF (§2.5, Figs. 7 and 8) — the paper's most aggressive
//! RT-DVS algorithm.
//!
//! At every scheduling point the deferral step plans the interval up to the
//! earliest deadline in the system, `D₁`. Walking the tasks in *reverse*
//! EDF order (latest deadline first) it pushes as much of each task's
//! worst-case remaining work `c_left_i` as possible beyond `D₁` — into
//! `[D₁, D_i]` — while reserving worst-case utilization for every
//! earlier-deadline task's future invocations. Whatever cannot be deferred,
//! `x_i`, must execute before `D₁`; the operating point is the lowest one
//! that retires `s = Σ x_i` within `D₁ − now`.
//!
//! If tasks keep finishing early the deferred peak never materializes and
//! the system stays at low frequency; if they do use their worst case, the
//! reserved capacity forces a (guaranteed sufficient) high frequency later.

use crate::analysis::RmTest;
use crate::machine::{Machine, PointIdx};
use crate::policy::{point_for_demand, scheduler_guarantees, DvsPolicy};
use crate::sched::SchedulerKind;
use crate::task::{TaskId, TaskSet};
use crate::time::{Time, Work, EPS};
use crate::view::{InvState, SystemView, TaskView};

/// Look-ahead EDF.
///
/// Every decision is computed from the engine's [`SystemView`]. Besides
/// the current operating point and the planning boundary, the struct keeps
/// two caches that only make a callback cheaper:
///
/// * the tasks in reverse EDF order as of the last callback. Each callback
///   compares every cached deadline with its view's, bit for bit, and
///   moves only the entries whose deadline changed (usually just the task
///   released), each by binary search into the order of the others; the
///   rest keep their places. [`DvsPolicy::init`] caches the tasks by
///   descending id with zero deadlines, which is already reverse EDF
///   order, so the first callback moves every entry the same way.
///   `(deadline, id)` is a strict total order, so the sorted order is
///   unique: it is what a full sort of the view gives, whatever the cache
///   held before.
/// * each task's utilization `U_i` and their total, computed at
///   [`DvsPolicy::init`] as [`TaskSet::total_utilization`] computes them
///   (and rebuilt if a view of a set of another size arrives). They are a
///   function of the task set alone, which `init` receives.
///
/// So no cache supplies a decision: a policy rebuilt by hot-swap or
/// snapshot restore decides exactly as a long-lived one does.
#[derive(Debug, Clone, Default)]
pub struct LaEdf {
    point: PointIdx,
    /// The planning boundary `D1` of the last deferral: work was deferred
    /// past this instant on the promise of re-planning there, so the
    /// engine must grant a review at `D1` if no scheduling point happens
    /// first (only relevant under sporadic arrivals; in the periodic model
    /// a release always lands on `D1`).
    planned_d1: Option<Time>,
    /// Every task, latest deadline first and ties by descending id
    /// (reverse EDF order), as of the last callback.
    order: Vec<Entry>,
    /// `Σ U_i`, as [`TaskSet::total_utilization`] sums it.
    total_utilization: f64,
}

/// One task in the reverse-EDF walk.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The deadline the task had at the last callback.
    deadline: Time,
    id: TaskId,
    /// `U_i`.
    utilization: f64,
}

impl LaEdf {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> LaEdf {
        LaEdf::default()
    }

    /// Fig. 8 `defer()`: the minimum work that must execute before the
    /// earliest deadline `D₁` for all future deadlines to remain feasible.
    ///
    /// Exposed for tests and instrumentation; engines only need the trait
    /// callbacks.
    #[must_use]
    pub fn work_due_before_next_deadline(&mut self, sys: &SystemView<'_>) -> Work {
        self.defer(sys).0
    }

    /// `defer()` and the `D₁` it planned against.
    fn defer(&mut self, sys: &SystemView<'_>) -> (Work, Time) {
        if self.order.len() != sys.tasks.len() {
            self.cache_task_set(sys.tasks);
        }
        self.refresh_order(sys.views);
        let d1 = self.earliest_deadline(sys.now);

        // `u` starts at the total worst-case utilization; each iteration
        // swaps task i's worst-case reservation for its actual demand
        // spread over [D₁, D_i].
        let mut u = self.total_utilization;
        let mut s = Work::ZERO;
        for &Entry {
            deadline,
            id,
            utilization,
        } in &self.order
        {
            u -= utilization;
            let view = sys.view(id);
            // A completed task has c_left = 0. With u ≤ 1 the deferral
            // below computes x = max(0 − (1 − u)·span, 0) = 0 and adds 0
            // to u and to s, and with span ≤ EPS it adds 0 to s: neither
            // changes (up to the sign of a zero u, which no later step can
            // observe), so only the subtraction above is needed.
            if view.state == InvState::Completed && u <= 1.0 {
                continue;
            }
            // A task that has not been released yet (possible only with
            // offsets or deferred admission, an extension over the paper's
            // synchronous model) will still need its full worst case before
            // its first deadline — plan for it conservatively.
            let wcet = sys.tasks.task(id).wcet();
            let c_left = if view.state == InvState::Inactive {
                wcet
            } else {
                view.c_left(wcet)
            };
            let span = (deadline - d1).as_ms();
            if span > EPS {
                // Defer what fits into [D₁, D_i] at the residual capacity
                // (1 − u); the remainder x must run before D₁.
                let x = (c_left - Work::from_ms((1.0 - u) * span)).clamp_non_negative();
                u += (c_left - x).as_ms() / span;
                s += x;
            } else {
                // D_i == D₁: nothing can be deferred.
                s += c_left;
            }
        }
        (s, d1)
    }

    /// Rebuilds the walk for a task set, by descending id with zero
    /// deadlines: reverse EDF order, whose ties run by descending id.
    fn cache_task_set(&mut self, tasks: &TaskSet) {
        self.order.clear();
        let by_id = tasks.tasks().iter().enumerate();
        self.order.extend(by_id.rev().map(|(i, task)| Entry {
            deadline: Time::ZERO,
            id: TaskId(i),
            utilization: task.utilization(),
        }));
        self.total_utilization = tasks.total_utilization();
    }

    /// Brings the order to reverse EDF order under the view's deadlines.
    ///
    /// One scan compares each entry's cached deadline with the view's, bit
    /// for bit. A moved entry takes its new deadline and is re-inserted by
    /// binary search among the others, which stay sorted by the deadlines
    /// they carry, so the whole order is sorted again after each move.
    /// A move to the left fills the moved entry's slot from the entries
    /// already scanned, so the scan goes on after it; a move to the right
    /// fills it with the next unscanned entry, so the scan resumes at it.
    /// The entry moved right is met again with matching bits. That costs
    /// `n` comparisons plus, per moved entry, a binary search and a shift
    /// of the entries it passes.
    ///
    /// The scan between moves is a `position` search: on the benchmark's
    /// `soak128` workload a `while` loop that indexed the order at each
    /// step and called [`LaEdf::reinsert`] in its body ran laEDF about
    /// 300 ns per event slower.
    fn refresh_order(&mut self, views: &[TaskView]) {
        let moved =
            |e: &Entry| views[e.id.0].deadline.as_ms().to_bits() != e.deadline.as_ms().to_bits();
        let mut i = 0;
        while let Some(k) = self.order[i..].iter().position(moved) {
            let at = i + k;
            let mut entry = self.order[at];
            entry.deadline = views[entry.id.0].deadline;
            let to = self.reinsert(at, entry);
            i = if to > at { at } else { at + 1 };
        }
    }

    /// Moves `entry`, which sits at `from` with a new deadline, to its
    /// place in the otherwise sorted order, and returns that place.
    fn reinsert(&mut self, from: usize, entry: Entry) -> usize {
        let order = &mut self.order;
        let to = if from > 0 && runs_before(&entry, &order[from - 1]) {
            let to = order[..from].partition_point(|e| runs_before(e, &entry));
            order[to..=from].rotate_right(1);
            to
        } else if from + 1 < order.len() && runs_before(&order[from + 1], &entry) {
            let after = from + 1;
            let to = after + order[after..].partition_point(|e| runs_before(e, &entry)) - 1;
            order[from..=to].rotate_left(1);
            to
        } else {
            from
        };
        order[to] = entry;
        to
    }

    /// [`SystemView::earliest_deadline`] read off the sorted order: the
    /// deadlines it excludes (at or before `now + EPS`) are the smallest,
    /// so they sit at the tail, and the first one before them is `D₁`.
    fn earliest_deadline(&self, now: Time) -> Time {
        self.order
            .iter()
            .rev()
            .map(|entry| entry.deadline)
            .find(|d| d.as_ms() > now.as_ms() + EPS)
            .unwrap_or(now)
    }

    fn select(&mut self, sys: &SystemView<'_>) -> PointIdx {
        let (s, d1) = self.defer(sys);
        self.planned_d1 = Some(d1);
        self.point = point_for_demand(sys.machine, s, d1 - sys.now);
        self.point
    }
}

/// Reverse EDF order: `a` runs before `b` in the walk if its deadline is
/// later, or equal with a larger id.
fn runs_before(a: &Entry, b: &Entry) -> bool {
    b.deadline
        .total_cmp(&a.deadline)
        .then(b.id.cmp(&a.id))
        .is_lt()
}

impl DvsPolicy for LaEdf {
    fn name(&self) -> &'static str {
        "laEDF"
    }

    fn scheduler(&self) -> SchedulerKind {
        SchedulerKind::Edf
    }

    fn init(&mut self, tasks: &TaskSet, machine: &Machine) -> PointIdx {
        self.cache_task_set(tasks);
        // The release events at t = 0 run defer(); starting anywhere is
        // safe, so start at the bottom.
        self.point = machine.lowest();
        self.point
    }

    fn on_release(&mut self, _task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        self.select(sys)
    }

    fn on_completion(&mut self, _task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        self.select(sys)
    }

    fn review_at(&self) -> Option<Time> {
        self.planned_d1
    }

    fn on_review(&mut self, sys: &SystemView<'_>) -> PointIdx {
        self.select(sys)
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

    fn paper_set() -> TaskSet {
        TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)]).expect("valid task set")
    }

    struct Harness {
        tasks: TaskSet,
        machine: Machine,
        views: Vec<TaskView>,
    }

    impl Harness {
        fn new() -> Harness {
            let tasks = paper_set();
            let views = tasks
                .tasks()
                .iter()
                .map(|t| TaskView {
                    invocation: 1,
                    state: InvState::Active,
                    executed: Work::ZERO,
                    deadline: t.period(),
                    next_release: t.period(),
                })
                .collect();
            Harness {
                tasks,
                machine: Machine::machine0(),
                views,
            }
        }

        fn sys(&self, now: f64) -> SystemView<'_> {
            SystemView {
                now: Time::from_ms(now),
                tasks: &self.tasks,
                machine: &self.machine,
                views: &self.views,
            }
        }
    }

    /// Replays the scheduling points of Fig. 7 and checks the planned work
    /// and selected frequencies: 0.75 at t = 0, 0.5 after T1 completes,
    /// 0.5 after T2 completes, 0.5 at T1's re-release.
    #[test]
    fn fig7_decision_sequence() {
        let mut h = Harness::new();
        let mut p = LaEdf::new();
        p.init(&h.tasks, &h.machine);

        // t = 0 (Fig. 7b): defer T3 fully, part of T2; s = 3 + 25/12.
        let sys = h.sys(0.0);
        let s = p.work_due_before_next_deadline(&sys);
        assert!((s.as_ms() - (3.0 + 25.0 / 12.0)).abs() < 1e-9, "s = {s}");
        let idx = p.on_release(TaskId(0), &sys);
        assert_eq!(h.machine.point(idx).freq, 0.75);

        // T1 completes at t = 8/3 after 2 ms of actual work (Fig. 7c):
        // s = 25/12 over 16/3 ms → required 0.39 → 0.5.
        h.views[0].state = InvState::Completed;
        h.views[0].executed = Work::from_ms(2.0);
        let sys = h.sys(8.0 / 3.0);
        let idx = p.on_completion(TaskId(0), &sys);
        assert_eq!(h.machine.point(idx).freq, 0.5);

        // T2 runs 1 ms at 0.5 (2 ms wall) and completes at t = 14/3
        // (Fig. 7d): nothing must run before D1 → floor frequency.
        h.views[1].state = InvState::Completed;
        h.views[1].executed = Work::from_ms(1.0);
        let sys = h.sys(14.0 / 3.0);
        let s = p.work_due_before_next_deadline(&sys);
        assert!(s.as_ms().abs() < 1e-9);
        let idx = p.on_completion(TaskId(1), &sys);
        assert_eq!(idx, h.machine.lowest());

        // T3 then runs at 0.5 and completes at t = 20/3.
        h.views[2].state = InvState::Completed;
        h.views[2].executed = Work::from_ms(1.0);
        let sys = h.sys(20.0 / 3.0);
        let idx = p.on_completion(TaskId(2), &sys);
        assert_eq!(idx, h.machine.lowest());

        // t = 8 (Fig. 7e): T1 re-released (deadline 16); D1 is now 10.
        // T1's 3 ms fit into [10, 16] under the other tasks' reservations
        // → s = 0 → floor frequency; EDF is work-conserving so T1 runs at
        // 0.5.
        h.views[0] = TaskView {
            invocation: 2,
            state: InvState::Active,
            executed: Work::ZERO,
            deadline: Time::from_ms(16.0),
            next_release: Time::from_ms(16.0),
        };
        let sys = h.sys(8.0);
        let s = p.work_due_before_next_deadline(&sys);
        assert!(s.as_ms().abs() < 1e-9, "s = {s}");
        let idx = p.on_release(TaskId(0), &sys);
        assert_eq!(idx, h.machine.lowest());
    }

    /// With every task at its worst case and utilization 1.0, nothing can
    /// be deferred below full speed at the critical instant.
    #[test]
    fn full_utilization_demands_full_speed() {
        let tasks = TaskSet::from_ms_pairs(&[(4.0, 2.0), (8.0, 4.0)]).expect("valid task set");
        let machine = Machine::machine0();
        let views: Vec<TaskView> = tasks
            .tasks()
            .iter()
            .map(|t| TaskView {
                invocation: 1,
                state: InvState::Active,
                executed: Work::ZERO,
                deadline: t.period(),
                next_release: t.period(),
            })
            .collect();
        let sys = SystemView {
            now: Time::ZERO,
            tasks: &tasks,
            machine: &machine,
            views: &views,
        };
        let mut p = LaEdf::new();
        p.init(&tasks, &machine);
        // s = 2 (T1) + 2 (T2's share that cannot defer past t=4 at zero
        // residual capacity) = 4 over 4 ms → 1.0.
        let s = p.work_due_before_next_deadline(&sys);
        assert!((s.as_ms() - 4.0).abs() < 1e-9);
        assert_eq!(p.on_release(TaskId(0), &sys), machine.highest());
    }

    #[test]
    fn all_completed_plans_zero_work() {
        let mut h = Harness::new();
        for v in &mut h.views {
            v.state = InvState::Completed;
            v.executed = Work::from_ms(0.5);
        }
        let mut p = LaEdf::new();
        p.init(&h.tasks, &h.machine);
        let sys = h.sys(5.0);
        assert_eq!(p.work_due_before_next_deadline(&sys), Work::ZERO);
    }

    #[test]
    fn idle_goes_to_lowest() {
        let machine = Machine::machine0();
        let p = LaEdf::new();
        assert_eq!(p.idle_point(&machine), 0);
    }

    #[test]
    fn guarantees_follow_edf_bound() {
        let p = LaEdf::new();
        assert!(p.guarantees(&paper_set()));
        let over = TaskSet::from_ms_pairs(&[(2.0, 1.5), (4.0, 3.0)]).expect("valid task set");
        assert!(!p.guarantees(&over));
    }
}
