//! Simulation results.

use rtdvs_core::machine::Machine;
use rtdvs_core::task::TaskId;
use rtdvs_core::time::{Time, Work};

use crate::energy::EnergyMeter;
use crate::fault::{ContainmentStats, FaultEvent};
use crate::trace::Trace;

/// One missed deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineMiss {
    /// The task that missed.
    pub task: TaskId,
    /// The deadline that was missed.
    pub deadline: Time,
    /// Which invocation missed (1-based release count).
    pub invocation: u64,
    /// Work still outstanding at the deadline.
    pub remaining: Work,
}

/// Per-task completion statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskStats {
    /// Invocations released within the horizon.
    pub releases: u64,
    /// Invocations completed within the horizon.
    pub completions: u64,
    /// Total actual work executed for this task.
    pub work: Work,
    /// Energy attributed to this task (its cycles, at the voltage they ran
    /// at); idle and stall energy are unattributed, so the sum over tasks
    /// equals the meter's busy energy.
    pub energy: f64,
    /// Smallest slack (deadline − completion time) over all completed
    /// invocations; `None` until the first completion. Non-negative as
    /// long as no deadline was missed.
    pub min_slack: Option<Time>,
    /// Sum of slacks over completed invocations (mean = `total_slack /
    /// completions`).
    pub total_slack: Time,
}

impl TaskStats {
    /// Records one completion with the given slack.
    pub fn record_completion(&mut self, slack: Time) {
        self.completions += 1;
        self.total_slack += slack;
        self.min_slack = Some(match self.min_slack {
            Some(m) => m.min(slack),
            None => slack,
        });
    }

    /// Mean slack per completed invocation, or `None` if nothing
    /// completed.
    #[must_use]
    pub fn mean_slack(&self) -> Option<Time> {
        (self.completions > 0).then(|| self.total_slack / self.completions as f64)
    }
}

/// Exact counts of the engine's work over one run, one per operation it
/// performs at a fixed call site. Nothing here is timed: the counts are a
/// pure function of the inputs, so `figures check` pins them exactly and
/// bounds their growth per event with the task count. Work done outside
/// these entry points (a query that scans every task, say) is not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineOps {
    /// Policy release, completion and review callbacks.
    pub policy_calls: u64,
    /// Writes of one task's policy view (in the engine: at a release, a
    /// completion, a miss and a charged interval).
    pub view_writes: u64,
    /// Timer sets and clears (in the kernel also each entry an O(n) pass
    /// over the timers visits). Each updates a tournament tree
    /// (`rtdvs_core::MinTree`) at a cost of at most ⌈log₂ n⌉ node
    /// comparisons, 7 at 128 tasks.
    pub timer_ops: u64,
    /// Ready-queue inserts, removes and picks. An EDF insert or remove
    /// updates the same kind of tree, a pick reads its root.
    pub queue_ops: u64,
    /// Busy, idle and stall intervals charged to the energy meter.
    pub meter_intervals: u64,
}

impl EngineOps {
    /// The sum of all five counts.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.policy_calls
            + self.view_writes
            + self.timer_ops
            + self.queue_ops
            + self.meter_intervals
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Name of the policy that ran.
    pub policy: &'static str,
    /// Simulated horizon.
    pub duration: Time,
    /// Energy/time accounting.
    pub meter: EnergyMeter,
    /// Number of operating-point changes applied.
    pub switches: u64,
    /// Of which changed the voltage (not just the frequency).
    pub voltage_switches: u64,
    /// Scheduler decision intervals the engine processed (one per
    /// event-to-event interval). A cheap per-run cost metric: sharded
    /// experiment runners sum it per worker to report shard-local
    /// simulation throughput without recording full traces.
    pub events: u64,
    /// Every missed deadline, in time order.
    pub misses: Vec<DeadlineMiss>,
    /// Per-task statistics, indexed by [`TaskId`].
    pub task_stats: Vec<TaskStats>,
    /// Execution trace, when recording was enabled.
    pub trace: Option<Trace>,
    /// How many execution samples violated condition C2 (exceeded the
    /// WCET) and were clamped to it. Nonzero only for trace models whose
    /// entries overshoot the declared bound.
    pub clamp_events: u64,
    /// Every injected fault and containment action, in time order. Empty
    /// unless the run had an active [`crate::FaultPlan`].
    pub faults: Vec<FaultEvent>,
    /// Overrun-containment accounting (all zero without faults).
    pub containment: ContainmentStats,
    /// The engine's operation counts.
    pub ops: EngineOps,
}

impl SimReport {
    /// Total processor energy consumed.
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.meter.total_energy()
    }

    /// Mean processor power over the horizon.
    #[must_use]
    pub fn mean_power(&self) -> f64 {
        self.meter.mean_power(self.duration)
    }

    /// Total actual work executed.
    #[must_use]
    pub fn total_work(&self) -> Work {
        self.meter.total_work()
    }

    /// `true` if every deadline in the horizon was met.
    #[must_use]
    pub fn all_deadlines_met(&self) -> bool {
        self.misses.is_empty()
    }

    /// Energy normalized against another run (the paper normalizes against
    /// plain EDF).
    ///
    /// # Panics
    ///
    /// Panics if the baseline consumed no energy.
    #[must_use]
    pub fn normalized_against(&self, baseline: &SimReport) -> f64 {
        let base = baseline.energy();
        assert!(base > 0.0, "cannot normalize against zero baseline energy");
        self.energy() / base
    }

    /// Per-point utilization summary line (for human-readable reports).
    #[must_use]
    pub fn point_summary(&self, machine: &Machine) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (idx, p) in machine.points().iter().enumerate() {
            let busy = self.meter.busy_time()[idx].as_ms();
            let idle = self.meter.idle_time()[idx].as_ms();
            if busy > 0.0 || idle > 0.0 {
                let _ = write!(s, " f={:.2}: busy {busy:.3}ms idle {idle:.3}ms;", p.freq);
            }
        }
        s.trim_end_matches(';').trim_start().to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(busy_ms_at_max: f64) -> SimReport {
        let machine = Machine::machine0();
        let mut meter = EnergyMeter::new(machine.len(), 0.0);
        meter.charge_busy(&machine, machine.highest(), Time::from_ms(busy_ms_at_max));
        SimReport {
            policy: "test",
            duration: Time::from_ms(100.0),
            meter,
            switches: 0,
            voltage_switches: 0,
            events: 0,
            misses: vec![],
            task_stats: vec![],
            trace: None,
            clamp_events: 0,
            faults: vec![],
            containment: ContainmentStats::default(),
            ops: EngineOps::default(),
        }
    }

    #[test]
    fn energy_and_power() {
        let r = report(4.0); // 4 work × 25 = 100 energy over 100 ms
        assert!((r.energy() - 100.0).abs() < 1e-12);
        assert!((r.mean_power() - 1.0).abs() < 1e-12);
        assert!(r.total_work().approx_eq(Work::from_ms(4.0)));
    }

    #[test]
    fn normalization() {
        let a = report(2.0);
        let b = report(4.0);
        assert!((a.normalized_against(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deadline_accounting() {
        let mut r = report(1.0);
        assert!(r.all_deadlines_met());
        r.misses.push(DeadlineMiss {
            task: TaskId(0),
            deadline: Time::from_ms(8.0),
            invocation: 1,
            remaining: Work::from_ms(0.5),
        });
        assert!(!r.all_deadlines_met());
    }

    #[test]
    fn task_stats_slack_accounting() {
        let mut s = TaskStats::default();
        assert_eq!(s.mean_slack(), None);
        assert_eq!(s.min_slack, None);
        s.record_completion(Time::from_ms(4.0));
        s.record_completion(Time::from_ms(1.0));
        s.record_completion(Time::from_ms(7.0));
        assert_eq!(s.completions, 3);
        assert_eq!(s.min_slack, Some(Time::from_ms(1.0)));
        assert!(s.mean_slack().unwrap().approx_eq(Time::from_ms(4.0)));
    }

    #[test]
    fn point_summary_mentions_used_points() {
        let r = report(4.0);
        let s = r.point_summary(&Machine::machine0());
        assert!(s.contains("f=1.00"));
        assert!(!s.contains("f=0.50"));
    }
}
