//! Frozen copies of look-ahead EDF, cycle-conserving RM and the exact
//! scheduling-point RM test as they were before each callback became
//! incremental: the references `policy_equivalence.rs` compares the
//! library against. The bodies are verbatim except for imports, and for
//! ccRM's RM test, which is the frozen one below. Do not optimize them.

use rtdvs::core::analysis::RmTest;
use rtdvs::core::machine::{Machine, PointIdx};
use rtdvs::core::policy::{point_for_demand, scheduler_guarantees, DvsPolicy};
use rtdvs::core::sched::SchedulerKind;
use rtdvs::core::task::{TaskId, TaskSet};
use rtdvs::core::time::{Time, Work, EPS};
use rtdvs::core::view::{InvState, SystemView};

/// `analysis::rm_feasible_at` with the frozen scheduling-point test.
pub fn rm_feasible_at(tasks: &TaskSet, alpha: f64, test: RmTest) -> bool {
    match test {
        RmTest::SchedulingPoints => rm_scheduling_points_feasible(tasks, alpha),
        other => rtdvs::core::analysis::rm_feasible_at(tasks, alpha, other),
    }
}

/// `analysis::static_rm_point` with the frozen scheduling-point test.
fn static_rm_point(tasks: &TaskSet, machine: &Machine, test: RmTest) -> Option<PointIdx> {
    machine.lowest_point_where(|p| rm_feasible_at(tasks, p.freq, test))
}

/// Ceiling of `t / p` that tolerates float round-off: values within a
/// relative hair of an integer are treated as that integer.
fn ceil_tolerant(t: f64, p: f64) -> f64 {
    let q = t / p;
    let r = q.round();
    if (q - r).abs() <= 1e-9 * r.max(1.0) {
        r
    } else {
        q.ceil()
    }
}

/// Exact scheduling-point RM test at frequency factor `alpha`.
///
/// For each task `i` in priority order, searches the scheduling points
/// `S_i = { k·P_j : j ≤ i, k = 1..⌊P_i/P_j⌋ } ∪ {P_i}` for a `t` with
/// `Σ_{j ≤ i} ⌈t/P_j⌉ · C_j/α ≤ t`.
pub fn rm_scheduling_points_feasible(tasks: &TaskSet, alpha: f64) -> bool {
    debug_assert!(alpha > 0.0);
    let order = tasks.rm_order();
    for (i, &id_i) in order.iter().enumerate() {
        let p_i = tasks.task(id_i).period().as_ms();
        // Collect scheduling points for level i.
        let mut points: Vec<f64> = Vec::new();
        for &id_j in &order[..=i] {
            let p_j = tasks.task(id_j).period().as_ms();
            let kmax = (p_i / p_j + 1e-9).floor() as u64;
            for k in 1..=kmax {
                points.push(k as f64 * p_j);
            }
        }
        points.push(p_i);
        let fits = points.iter().any(|&t| {
            let workload: f64 = order[..=i]
                .iter()
                .map(|&id_j| {
                    let task = tasks.task(id_j);
                    ceil_tolerant(t, task.period().as_ms()) * task.wcet().as_ms() / alpha
                })
                .sum();
            workload <= t + EPS
        });
        if !fits {
            return false;
        }
    }
    true
}

/// Look-ahead EDF.
///
/// The algorithm is stateless between scheduling points — everything is
/// recomputed from the engine's [`SystemView`] — so the struct only caches
/// the current operating point.
#[derive(Debug, Clone, Default)]
pub struct LaEdf {
    point: PointIdx,
    /// The planning boundary `D1` of the last deferral: work was deferred
    /// past this instant on the promise of re-planning there, so the
    /// engine must grant a review at `D1` if no scheduling point happens
    /// first (only relevant under sporadic arrivals; in the periodic model
    /// a release always lands on `D1`).
    planned_d1: Option<Time>,
    /// Scratch buffer for the reverse-EDF task ordering, kept to avoid a
    /// per-callback allocation.
    order: Vec<TaskId>,
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
        let d1 = sys.earliest_deadline();

        // Latest deadline first; ties in reverse id order so the loop as a
        // whole visits tasks in exact reverse EDF order.
        self.order.clear();
        self.order.extend(sys.iter().map(|(id, _)| id));
        self.order.sort_by(|&a, &b| {
            sys.view(b)
                .deadline
                .total_cmp(&sys.view(a).deadline)
                .then(b.0.cmp(&a.0))
        });

        // `u` starts at the total worst-case utilization; each iteration
        // swaps task i's worst-case reservation for its actual demand
        // spread over [D₁, D_i].
        let mut u: f64 = sys.tasks.total_utilization();
        let mut s = Work::ZERO;
        for &id in &self.order {
            u -= sys.tasks.task(id).utilization();
            // A task that has not been released yet (possible only with
            // offsets or deferred admission, an extension over the paper's
            // synchronous model) will still need its full worst case before
            // its first deadline — plan for it conservatively.
            let c_left = if sys.view(id).state == InvState::Inactive {
                sys.tasks.task(id).wcet()
            } else {
                sys.c_left(id)
            };
            let span = (sys.view(id).deadline - d1).as_ms();
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
        s
    }

    fn select(&mut self, sys: &SystemView<'_>) -> PointIdx {
        let s = self.work_due_before_next_deadline(sys);
        let d1 = sys.earliest_deadline();
        self.planned_d1 = Some(d1);
        self.point = point_for_demand(sys.machine, s, d1 - sys.now);
        self.point
    }
}

impl DvsPolicy for LaEdf {
    fn name(&self) -> &'static str {
        "laEDF"
    }

    fn scheduler(&self) -> SchedulerKind {
        SchedulerKind::Edf
    }

    fn init(&mut self, _tasks: &TaskSet, machine: &Machine) -> PointIdx {
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

/// Per-task progress bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct TaskState {
    /// Remaining allotment from the statically-scaled schedule (`d_i`).
    d: Work,
    /// Invocation number at the last sync, to detect releases.
    last_invocation: u64,
    /// `executed` at the last sync, to compute execution deltas.
    last_executed: Work,
}

/// Cycle-conserving RM.
#[derive(Debug, Clone)]
pub struct CcRm {
    rm_test: RmTest,
    /// Frequency factor `α` chosen by static scaling for this task set.
    alpha: f64,
    states: Vec<TaskState>,
    point: PointIdx,
    /// End of the current pacing window (the `D₁` used by the last
    /// allocation/selection). In the periodic model a release always lands
    /// there; under sporadic arrivals the policy asks the engine for a
    /// review at this instant so the next window gets its allocation.
    planned_boundary: Option<Time>,
}

impl CcRm {
    /// Creates the policy; `rm_test` selects the schedulability test used
    /// to derive the statically-scaled pace `α`.
    #[must_use]
    pub fn new(rm_test: RmTest) -> CcRm {
        CcRm {
            rm_test,
            alpha: 1.0,
            states: Vec::new(),
            point: 0,
            planned_boundary: None,
        }
    }

    /// The statically-scaled frequency factor `α` the policy paces against.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current `Σ d_i` (exposed for inspection and tests).
    #[must_use]
    pub fn outstanding_allotment(&self) -> Work {
        self.states.iter().map(|s| s.d).sum()
    }

    /// Applies execution progress since the last callback: "during task
    /// execution, decrement `c_left_i` and `d_i`" (Fig. 6). `c_left` is
    /// derived from the view; only `d_i` needs explicit decrementing.
    fn sync(&mut self, sys: &SystemView<'_>) {
        for (state, view) in self.states.iter_mut().zip(sys.views) {
            if view.invocation != state.last_invocation {
                state.last_invocation = view.invocation;
                state.last_executed = Work::ZERO;
            }
            let delta = (view.executed - state.last_executed).clamp_non_negative();
            state.d = (state.d - delta).clamp_non_negative();
            state.last_executed = view.executed;
        }
    }

    /// Deals out `budget` cycles to tasks in RM priority order, each task
    /// receiving at most its `c_left` (Fig. 6 `allocate_cycles`).
    fn allocate(&mut self, budget: Work, sys: &SystemView<'_>) {
        let mut k = budget;
        for &id in sys.tasks.rm_order() {
            let c_left = sys.c_left(id);
            let share = c_left.min(k);
            self.states[id.0].d = share;
            k = (k - share).clamp_non_negative();
        }
    }

    /// Fig. 6 `select_frequency`: lowest point retiring `Σ d_i` by the
    /// earliest deadline.
    fn select(&mut self, sys: &SystemView<'_>) -> PointIdx {
        let boundary = sys.earliest_boundary();
        self.planned_boundary = Some(boundary);
        self.point = point_for_demand(
            sys.machine,
            self.outstanding_allotment(),
            boundary - sys.now,
        );
        self.point
    }

    /// Allocates the statically-scaled schedule's progress over the window
    /// up to the next deadline and selects the frequency — the release
    /// path and the sporadic-boundary review path share this step.
    fn reallocate(&mut self, sys: &SystemView<'_>) -> PointIdx {
        let horizon = sys.earliest_boundary() - sys.now;
        let budget = Work::from_ms((horizon.as_ms() * self.alpha).max(0.0));
        self.allocate(budget, sys);
        self.select(sys)
    }
}

impl DvsPolicy for CcRm {
    fn name(&self) -> &'static str {
        "ccRM"
    }

    fn scheduler(&self) -> SchedulerKind {
        SchedulerKind::Rm
    }

    fn init(&mut self, tasks: &TaskSet, machine: &Machine) -> PointIdx {
        self.alpha = static_rm_point(tasks, machine, self.rm_test)
            .map_or(1.0, |idx| machine.point(idx).freq);
        self.states = vec![TaskState::default(); tasks.len()];
        // The first release events will allocate and select; starting at
        // the statically-scaled point is always safe.
        self.point = machine.point_at_least(self.alpha);
        self.point
    }

    fn on_release(&mut self, _task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        self.sync(sys);
        // Progress the statically-scaled schedule would make by the next
        // deadline: α · (D₁ − now) cycles.
        self.reallocate(sys)
    }

    fn on_completion(&mut self, task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        self.sync(sys);
        self.states[task.0].d = Work::ZERO;
        self.select(sys)
    }

    fn review_at(&self) -> Option<Time> {
        self.planned_boundary
    }

    fn on_review(&mut self, sys: &SystemView<'_>) -> PointIdx {
        self.sync(sys);
        self.reallocate(sys)
    }

    fn idle_point(&self, machine: &Machine) -> PointIdx {
        machine.lowest()
    }

    fn current_point(&self) -> PointIdx {
        self.point
    }

    fn guarantees(&self, tasks: &TaskSet) -> bool {
        rm_feasible_at(tasks, 1.0, self.rm_test)
    }
}
