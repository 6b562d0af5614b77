//! The periodic hard-real-time task model of the paper (§2.2).
//!
//! Each task `T_i` has a period `P_i` and a worst-case computation time
//! `C_i` specified at the maximum processor frequency. The task is released
//! once every `P_i`, must finish by the end of its period (deadline equals
//! period), tasks are independent, and scheduling overheads are folded into
//! `C_i`.

use core::fmt;

use crate::time::{Time, Work, EPS};

/// Identifier of a task within a [`TaskSet`]: its index in the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0 + 1)
    }
}

/// A periodic real-time task: period, worst-case execution time, and an
/// optional release offset (phase).
///
/// The offset is zero in the paper's model (synchronous release at time 0);
/// it is provided as an extension and defaults to zero everywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    period: Time,
    wcet: Work,
    offset: Time,
}

impl Task {
    /// Creates a task with the given period and worst-case execution time
    /// (both in the units of [`Time`]/[`Work`]: milliseconds) and zero
    /// release offset.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError`] if the period is not strictly positive, the
    /// WCET is not strictly positive, or the WCET exceeds the period (such a
    /// task can never meet its deadline even alone at full speed).
    pub fn new(period: Time, wcet: Work) -> Result<Task, TaskError> {
        Task::with_offset(period, wcet, Time::ZERO)
    }

    /// Creates a task with an explicit release offset.
    ///
    /// # Errors
    ///
    /// Same as [`Task::new`]; additionally the offset must be non-negative.
    pub fn with_offset(period: Time, wcet: Work, offset: Time) -> Result<Task, TaskError> {
        if period.as_ms() <= EPS {
            return Err(TaskError::NonPositivePeriod { period });
        }
        if wcet.as_ms() <= 0.0 {
            return Err(TaskError::NonPositiveWcet { wcet });
        }
        if wcet.as_ms() > period.as_ms() + EPS {
            return Err(TaskError::WcetExceedsPeriod { wcet, period });
        }
        if offset.as_ms() < 0.0 {
            return Err(TaskError::NegativeOffset { offset });
        }
        Ok(Task {
            period,
            wcet,
            offset,
        })
    }

    /// Convenience constructor from raw milliseconds.
    ///
    /// # Errors
    ///
    /// Same as [`Task::new`].
    pub fn from_ms(period_ms: f64, wcet_ms: f64) -> Result<Task, TaskError> {
        Task::new(Time::from_ms(period_ms), Work::from_ms(wcet_ms))
    }

    /// The task's period (and relative deadline).
    #[inline]
    #[must_use]
    pub fn period(&self) -> Time {
        self.period
    }

    /// The worst-case execution time at maximum frequency.
    #[inline]
    #[must_use]
    pub fn wcet(&self) -> Work {
        self.wcet
    }

    /// The release offset (zero in the paper's synchronous model).
    #[inline]
    #[must_use]
    pub fn offset(&self) -> Time {
        self.offset
    }

    /// Worst-case utilization `C_i / P_i` at maximum frequency.
    #[inline]
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.wcet.utilization_over(self.period)
    }

    /// The release time of invocation `k` (0-based).
    #[inline]
    #[must_use]
    pub fn release_time(&self, k: u64) -> Time {
        self.offset + self.period * k as f64
    }

    /// The absolute deadline of invocation `k` (0-based): its next release.
    #[inline]
    #[must_use]
    pub fn deadline(&self, k: u64) -> Time {
        self.release_time(k) + self.period
    }

    /// Returns this task with its WCET increased by `extra`.
    ///
    /// §2.5/§4.1: each invocation causes at most two voltage/frequency
    /// switches, so hardware transition stalls "can be accounted for, and
    /// added to, the worst-case task computation times" — this is that
    /// accounting step (`extra` = 2 × the worst-case stall).
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::WcetExceedsPeriod`] if the inflated WCET no
    /// longer fits in the period (the task cannot tolerate the overhead).
    pub fn with_inflated_wcet(&self, extra: Work) -> Result<Task, TaskError> {
        Task::with_offset(self.period, self.wcet + extra, self.offset)
    }
}

/// Errors constructing a [`Task`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskError {
    /// The period was zero or negative.
    NonPositivePeriod {
        /// The offending period.
        period: Time,
    },
    /// The WCET was zero or negative.
    NonPositiveWcet {
        /// The offending WCET.
        wcet: Work,
    },
    /// The WCET was larger than the period.
    WcetExceedsPeriod {
        /// The offending WCET.
        wcet: Work,
        /// The period it exceeds.
        period: Time,
    },
    /// The release offset was negative.
    NegativeOffset {
        /// The offending offset.
        offset: Time,
    },
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::NonPositivePeriod { period } => {
                write!(f, "task period must be positive, got {period}")
            }
            TaskError::NonPositiveWcet { wcet } => {
                write!(f, "task WCET must be positive, got {wcet}")
            }
            TaskError::WcetExceedsPeriod { wcet, period } => {
                write!(f, "task WCET {wcet} exceeds its period {period}")
            }
            TaskError::NegativeOffset { offset } => {
                write!(f, "task offset must be non-negative, got {offset}")
            }
        }
    }
}

impl std::error::Error for TaskError {}

/// An immutable set of periodic tasks.
///
/// Task identity is positional: [`TaskId`] `i` refers to the `i`-th task
/// passed at construction. The set pre-computes the RM priority order
/// (ascending period, ties broken by index) used by the RM scheduler and
/// the RM schedulability tests.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    tasks: Vec<Task>,
    rm_order: Vec<TaskId>,
}

impl TaskSet {
    /// Creates a task set from its tasks.
    ///
    /// # Errors
    ///
    /// Returns [`TaskSetError::Empty`] for an empty set.
    pub fn new(tasks: Vec<Task>) -> Result<TaskSet, TaskSetError> {
        if tasks.is_empty() {
            return Err(TaskSetError::Empty);
        }
        let mut rm_order: Vec<TaskId> = (0..tasks.len()).map(TaskId).collect();
        rm_order.sort_by(|a, b| {
            tasks[a.0]
                .period()
                .total_cmp(&tasks[b.0].period())
                .then(a.0.cmp(&b.0))
        });
        Ok(TaskSet { tasks, rm_order })
    }

    /// Convenience constructor from `(period_ms, wcet_ms)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if any pair is invalid ([`TaskSetError::Task`]) or
    /// the list is empty ([`TaskSetError::Empty`]).
    pub fn from_ms_pairs(pairs: &[(f64, f64)]) -> Result<TaskSet, TaskSetError> {
        let tasks = pairs
            .iter()
            .enumerate()
            .map(|(i, &(p, c))| {
                Task::from_ms(p, c).map_err(|source| TaskSetError::Task {
                    id: TaskId(i),
                    source,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        TaskSet::new(tasks)
    }

    /// Number of tasks.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` if the set has no tasks (never true by construction).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this set.
    #[inline]
    #[must_use]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// All tasks, in id order.
    #[inline]
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Iterates `(TaskId, &Task)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// Task ids in RM priority order: ascending period, ties by id.
    #[inline]
    #[must_use]
    pub fn rm_order(&self) -> &[TaskId] {
        &self.rm_order
    }

    /// Total worst-case utilization `Σ C_i / P_i` at maximum frequency.
    #[must_use]
    pub fn total_utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Returns a copy of this set with every WCET increased by `extra` —
    /// the bulk version of [`Task::with_inflated_wcet`], used to charge
    /// voltage-switch stalls to the task bounds before admission.
    ///
    /// # Errors
    ///
    /// Returns [`TaskSetError::Task`] naming the first task whose inflated
    /// WCET exceeds its period.
    pub fn with_inflated_wcets(&self, extra: Work) -> Result<TaskSet, TaskSetError> {
        let tasks = self
            .iter()
            .map(|(id, t)| {
                t.with_inflated_wcet(extra)
                    .map_err(|source| TaskSetError::Task { id, source })
            })
            .collect::<Result<Vec<_>, _>>()?;
        TaskSet::new(tasks)
    }

    /// Returns a copy of this set with one task appended (used by the
    /// kernel's dynamic task arrival path).
    ///
    /// # Errors
    ///
    /// Never fails for a non-empty base set; the signature mirrors
    /// [`TaskSet::new`].
    pub fn with_task(&self, task: Task) -> Result<TaskSet, TaskSetError> {
        let mut tasks = self.tasks.clone();
        tasks.push(task);
        TaskSet::new(tasks)
    }
}

/// Errors constructing a [`TaskSet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskSetError {
    /// The set contained no tasks.
    Empty,
    /// A task description was invalid.
    Task {
        /// Position of the bad task.
        id: TaskId,
        /// The underlying error.
        source: TaskError,
    },
}

impl fmt::Display for TaskSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskSetError::Empty => write!(f, "task set must contain at least one task"),
            TaskSetError::Task { id, source } => write!(f, "invalid task {id}: {source}"),
        }
    }
}

impl std::error::Error for TaskSetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TaskSetError::Empty => None,
            TaskSetError::Task { source, .. } => Some(source),
        }
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
    fn task_accessors() {
        let t = Task::from_ms(8.0, 3.0).expect("valid task");
        assert_eq!(t.period().as_ms(), 8.0);
        assert_eq!(t.wcet().as_ms(), 3.0);
        assert_eq!(t.offset(), Time::ZERO);
        assert_eq!(t.utilization(), 0.375);
    }

    #[test]
    fn task_release_and_deadline() {
        let t = Task::from_ms(8.0, 3.0).expect("valid task");
        assert_eq!(t.release_time(0).as_ms(), 0.0);
        assert_eq!(t.release_time(2).as_ms(), 16.0);
        assert_eq!(t.deadline(0).as_ms(), 8.0);
        assert_eq!(t.deadline(2).as_ms(), 24.0);
    }

    #[test]
    fn offset_shifts_releases() {
        let t = Task::with_offset(Time::from_ms(10.0), Work::from_ms(2.0), Time::from_ms(3.0))
            .expect("valid task");
        assert_eq!(t.release_time(0).as_ms(), 3.0);
        assert_eq!(t.deadline(1).as_ms(), 23.0);
    }

    #[test]
    fn rejects_invalid_tasks() {
        assert!(matches!(
            Task::from_ms(0.0, 1.0),
            Err(TaskError::NonPositivePeriod { .. })
        ));
        assert!(matches!(
            Task::from_ms(5.0, 0.0),
            Err(TaskError::NonPositiveWcet { .. })
        ));
        assert!(matches!(
            Task::from_ms(5.0, 6.0),
            Err(TaskError::WcetExceedsPeriod { .. })
        ));
        assert!(matches!(
            Task::with_offset(Time::from_ms(5.0), Work::from_ms(1.0), Time::from_ms(-1.0)),
            Err(TaskError::NegativeOffset { .. })
        ));
    }

    #[test]
    fn wcet_equal_to_period_is_allowed() {
        assert!(Task::from_ms(5.0, 5.0).is_ok());
    }

    #[test]
    fn empty_set_rejected() {
        assert!(matches!(TaskSet::new(vec![]), Err(TaskSetError::Empty)));
    }

    #[test]
    fn paper_set_utilization() {
        // 3/8 + 3/10 + 1/14 = 0.746 (the value printed in Fig. 3).
        let u = paper_set().total_utilization();
        assert!((u - 0.746_428_571_428_571_4).abs() < 1e-12);
    }

    #[test]
    fn rm_order_sorts_by_period_then_id() {
        let set = TaskSet::from_ms_pairs(&[(10.0, 1.0), (8.0, 1.0), (10.0, 2.0), (5.0, 1.0)])
            .expect("valid task set");
        let order: Vec<usize> = set.rm_order().iter().map(|id| id.0).collect();
        assert_eq!(order, vec![3, 1, 0, 2]);
    }

    #[test]
    fn with_task_appends() {
        let set = paper_set();
        let bigger = set
            .with_task(Task::from_ms(20.0, 1.0).expect("valid task"))
            .expect("still schedulable");
        assert_eq!(bigger.len(), 4);
        assert_eq!(bigger.task(TaskId(3)).period().as_ms(), 20.0);
        // RM order puts the new long-period task last.
        assert_eq!(*bigger.rm_order().last().expect("non-empty set"), TaskId(3));
    }

    #[test]
    fn bad_pair_reports_position() {
        let err = TaskSet::from_ms_pairs(&[(8.0, 3.0), (5.0, 9.0)]).unwrap_err();
        assert!(matches!(
            err,
            TaskSetError::Task {
                id: TaskId(1),
                source: TaskError::WcetExceedsPeriod { .. }
            }
        ));
    }

    #[test]
    fn wcet_inflation() {
        let t = Task::from_ms(10.0, 3.0).expect("valid task");
        let inflated = t
            .with_inflated_wcet(Work::from_ms(0.8))
            .expect("inflation fits the period");
        assert_eq!(inflated.wcet().as_ms(), 3.8);
        assert_eq!(inflated.period().as_ms(), 10.0);
        // Inflation past the period is rejected.
        assert!(matches!(
            t.with_inflated_wcet(Work::from_ms(8.0)),
            Err(TaskError::WcetExceedsPeriod { .. })
        ));
    }

    #[test]
    fn set_wcet_inflation() {
        let set = paper_set();
        let inflated = set
            .with_inflated_wcets(Work::from_ms(0.5))
            .expect("inflation fits the periods");
        assert_eq!(inflated.task(TaskId(0)).wcet().as_ms(), 3.5);
        assert_eq!(inflated.task(TaskId(2)).wcet().as_ms(), 1.5);
        // A set with a task near its period cannot absorb large stalls;
        // the error names the offending task.
        let tight = TaskSet::from_ms_pairs(&[(8.0, 3.0), (2.0, 1.9)]).expect("valid task set");
        let err = tight.with_inflated_wcets(Work::from_ms(0.5)).unwrap_err();
        assert!(matches!(err, TaskSetError::Task { id: TaskId(1), .. }));
    }

    #[test]
    fn display_formats() {
        assert_eq!(TaskId(0).to_string(), "T1");
        let err = TaskSet::from_ms_pairs(&[(5.0, 9.0)]).unwrap_err();
        assert!(err.to_string().contains("T1"));
    }
}
