//! Runtime state snapshots handed to DVS policies at scheduling points.
//!
//! The paper's dynamic algorithms (ccEDF, ccRM, laEDF) are invoked by the
//! OS at every task release and completion. They need to see, per task, the
//! progress of the current invocation and its absolute deadline — nothing
//! engine-specific. Execution engines build a [`SystemView`] from their own
//! state and pass it to the policy callbacks.

use crate::machine::Machine;
use crate::task::{TaskId, TaskSet};
use crate::time::{Time, Work};

/// Lifecycle state of a task's current invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvState {
    /// The task has never been released (only possible before its offset).
    Inactive,
    /// The current invocation has been released and has work outstanding.
    Active,
    /// The current invocation has completed; the task is waiting for its
    /// next release. Its `deadline` still refers to the completed
    /// invocation's deadline (= the next release time), which is what the
    /// look-ahead algorithm plans against.
    Completed,
}

/// How many independent running minima [`SystemView::earliest_boundary`]
/// keeps per quantity.
const BOUNDARY_LANES: usize = 4;

/// `acc` lowered to `t` if `t` is above `after` and below `acc`, by
/// selects rather than branches. `t < acc` rather than `f64::min`: no NaN
/// reaches it, so the NaN rule would only cost instructions.
#[inline]
fn min_above(acc: Time, t: Time, after: f64) -> Time {
    let t = if t.as_ms() > after {
        t
    } else {
        Time::UNBOUNDED
    };
    if t.as_ms() < acc.as_ms() {
        t
    } else {
        acc
    }
}

/// Per-task runtime snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskView {
    /// How many invocations have been released so far (the current one
    /// included); 0 while [`InvState::Inactive`].
    pub invocation: u64,
    /// Invocation lifecycle state.
    pub state: InvState,
    /// Work executed so far in the current invocation (resets to zero at
    /// each release).
    pub executed: Work,
    /// Absolute deadline of the current invocation; for `Inactive` tasks,
    /// the deadline their first invocation will have.
    pub deadline: Time,
    /// Next release time.
    pub next_release: Time,
}

impl TaskView {
    /// Worst-case remaining computation for the current invocation
    /// (`c_left_i` in the paper): `C_i − executed`, zero once completed.
    #[must_use]
    pub fn c_left(&self, wcet: Work) -> Work {
        match self.state {
            InvState::Active => (wcet - self.executed).clamp_non_negative(),
            InvState::Inactive | InvState::Completed => Work::ZERO,
        }
    }
}

/// System-wide snapshot at a scheduling point.
#[derive(Debug, Clone, Copy)]
pub struct SystemView<'a> {
    /// Current time.
    pub now: Time,
    /// The (static) task set.
    pub tasks: &'a TaskSet,
    /// The machine being scheduled on.
    pub machine: &'a Machine,
    /// One view per task, indexed by [`TaskId`].
    pub views: &'a [TaskView],
}

impl<'a> SystemView<'a> {
    /// The view for one task.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn view(&self, id: TaskId) -> &TaskView {
        &self.views[id.0]
    }

    /// `c_left_i` for one task.
    #[must_use]
    pub fn c_left(&self, id: TaskId) -> Work {
        self.views[id.0].c_left(self.tasks.task(id).wcet())
    }

    /// The earliest current-invocation deadline at or after `now` (`D_1`
    /// in the paper's look-ahead algorithm; the "next task deadline" in
    /// ccRM).
    ///
    /// Completed invocations still contribute their deadline — the paper's
    /// worked example (Fig. 7d) plans against `D1 = 8` after `T1` has
    /// completed — and `Inactive` tasks contribute their first deadline.
    /// Deadlines at or before `now` are excluded: as a *planning boundary*
    /// a lapsed (or exactly-current) deadline is vacuous — deferring work
    /// "past now" defers nothing — and under sporadic arrivals a completed
    /// invocation's deadline can lapse before the next release, which
    /// would otherwise corrupt the horizon. In the strictly periodic model
    /// a deadline is a release, so after the releases at an instant are
    /// processed every deadline is strictly in the future and the filter
    /// never changes the paper's behavior.
    #[must_use]
    pub fn earliest_deadline(&self) -> Time {
        self.views
            .iter()
            .map(|v| v.deadline)
            .filter(|d| d.as_ms() > self.now.as_ms() + crate::time::EPS)
            .reduce(Time::min)
            // No future deadline (possible only between callbacks with an
            // empty system); degenerate to an empty horizon.
            .unwrap_or(self.now)
    }

    /// The earliest future scheduling boundary: the first deadline *or
    /// release* strictly after `now`.
    ///
    /// The cycle-conserving RM pacing window must not span a future
    /// release — a higher-priority arrival inside the window would claim
    /// processor time the window's allocation knows nothing about. In the
    /// strictly periodic model the earliest deadline *is* the earliest
    /// release, so this equals [`SystemView::earliest_deadline`] there;
    /// they diverge only under sporadic arrivals.
    ///
    /// With no future deadline the boundary is `now`, as for
    /// [`SystemView::earliest_deadline`], whatever the releases.
    ///
    /// The scan keeps four independent minima per quantity, seeded with
    /// `+∞`, and selects rather than branches, so `n` views cost `n / 4`
    /// dependent steps. The result is the one a
    /// fold in view order gives: with `now ≥ 0` only values above
    /// `now + EPS > 0` reach a minimum, so no NaN and no signed zero
    /// does, and the minimum of such a set is the same bits in any order.
    /// A flag, not the `+∞` seed, says whether any deadline passed.
    #[must_use]
    pub fn earliest_boundary(&self) -> Time {
        let after = self.now.as_ms() + crate::time::EPS;
        let mut deadline = [Time::UNBOUNDED; BOUNDARY_LANES];
        let mut release = [Time::UNBOUNDED; BOUNDARY_LANES];
        let mut any_deadline = false;
        let mut fold = |lane: usize, v: &TaskView| {
            any_deadline |= v.deadline.as_ms() > after;
            deadline[lane] = min_above(deadline[lane], v.deadline, after);
            release[lane] = min_above(release[lane], v.next_release, after);
        };
        let chunks = self.views.chunks_exact(BOUNDARY_LANES);
        let rest = chunks.remainder();
        for chunk in chunks {
            for (lane, v) in chunk.iter().enumerate() {
                fold(lane, v);
            }
        }
        for (lane, v) in rest.iter().enumerate() {
            fold(lane, v);
        }
        if !any_deadline {
            return self.now;
        }
        let min = |m: [Time; BOUNDARY_LANES]| m.into_iter().fold(Time::UNBOUNDED, Time::min);
        min(deadline).min(min(release))
    }

    /// Iterates `(TaskId, &TaskView)`.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &TaskView)> {
        self.views.iter().enumerate().map(|(i, v)| (TaskId(i), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(state: InvState, executed: f64, deadline: f64) -> TaskView {
        TaskView {
            invocation: 1,
            state,
            executed: Work::from_ms(executed),
            deadline: Time::from_ms(deadline),
            next_release: Time::from_ms(deadline),
        }
    }

    #[test]
    fn c_left_tracks_progress() {
        let wcet = Work::from_ms(3.0);
        assert_eq!(view(InvState::Active, 0.0, 8.0).c_left(wcet).as_ms(), 3.0);
        assert_eq!(view(InvState::Active, 1.25, 8.0).c_left(wcet).as_ms(), 1.75);
        assert_eq!(view(InvState::Completed, 2.0, 8.0).c_left(wcet), Work::ZERO);
        assert_eq!(view(InvState::Inactive, 0.0, 8.0).c_left(wcet), Work::ZERO);
    }

    #[test]
    fn c_left_clamps_overrun() {
        // If an engine lets a task overrun its WCET, c_left floors at zero
        // rather than going negative.
        let wcet = Work::from_ms(3.0);
        assert_eq!(view(InvState::Active, 4.0, 8.0).c_left(wcet), Work::ZERO);
    }

    #[test]
    fn earliest_deadline_includes_completed_tasks() {
        let tasks = TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0)]).expect("valid task set");
        let machine = Machine::machine0();
        let views = vec![
            view(InvState::Completed, 3.0, 8.0),
            view(InvState::Active, 0.0, 10.0),
        ];
        let sys = SystemView {
            now: Time::from_ms(4.0),
            tasks: &tasks,
            machine: &machine,
            views: &views,
        };
        assert_eq!(sys.earliest_deadline().as_ms(), 8.0);
        assert_eq!(sys.c_left(TaskId(0)), Work::ZERO);
        assert_eq!(sys.c_left(TaskId(1)).as_ms(), 3.0);
    }

    #[test]
    fn earliest_deadline_skips_lapsed_and_current_deadlines() {
        let tasks = TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0)]).expect("valid task set");
        let machine = Machine::machine0();
        // T1's deadline has lapsed (sporadic gap); T2's is exactly now.
        let mut views = vec![
            view(InvState::Completed, 3.0, 5.0),
            view(InvState::Completed, 2.0, 9.0),
        ];
        let sys = SystemView {
            now: Time::from_ms(9.0),
            tasks: &tasks,
            machine: &machine,
            views: &views,
        };
        // No strictly future deadline → empty horizon.
        assert_eq!(sys.earliest_deadline(), Time::from_ms(9.0));
        // With one strictly future deadline, it wins.
        views[1] = view(InvState::Active, 0.0, 12.0);
        let sys = SystemView {
            now: Time::from_ms(9.0),
            tasks: &tasks,
            machine: &machine,
            views: &views,
        };
        assert_eq!(sys.earliest_deadline().as_ms(), 12.0);
    }

    #[test]
    fn earliest_boundary_caps_at_next_release() {
        let tasks = TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0)]).expect("valid task set");
        let machine = Machine::machine0();
        // T1: active with deadline 20. T2: completed, deadline lapsed, but
        // its *next release* at 12 bounds the pacing window.
        let views = vec![
            TaskView {
                invocation: 2,
                state: InvState::Active,
                executed: Work::ZERO,
                deadline: Time::from_ms(20.0),
                next_release: Time::from_ms(25.0),
            },
            TaskView {
                invocation: 1,
                state: InvState::Completed,
                executed: Work::from_ms(1.0),
                deadline: Time::from_ms(9.0),
                next_release: Time::from_ms(12.0),
            },
        ];
        let sys = SystemView {
            now: Time::from_ms(10.0),
            tasks: &tasks,
            machine: &machine,
            views: &views,
        };
        assert_eq!(sys.earliest_deadline().as_ms(), 20.0);
        assert_eq!(sys.earliest_boundary().as_ms(), 12.0);
    }

    #[test]
    fn boundary_equals_deadline_in_the_periodic_model() {
        // With deadline == next_release (the paper's model), the two
        // horizons coincide.
        let tasks = TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0)]).expect("valid task set");
        let machine = Machine::machine0();
        let views = vec![
            view(InvState::Completed, 3.0, 8.0),
            view(InvState::Active, 0.0, 10.0),
        ];
        let sys = SystemView {
            now: Time::from_ms(4.0),
            tasks: &tasks,
            machine: &machine,
            views: &views,
        };
        assert_eq!(sys.earliest_boundary(), sys.earliest_deadline());
    }
}
