//! The frozen pre-refactor engine, kept as a differential yardstick.
//!
//! This is a verbatim copy of the event-driven engine as it stood before
//! the hot-path rewrite (today a tournament-tree ready queue and one
//! tree of per-task timers, see `rtdvs_core::mintree`): linear scans over all tasks at every scheduling point
//! and fresh `Vec` allocations for the ready queue, the due-event sets,
//! and every policy notification. It is the reference implementation
//! `tests/equivalence.rs` compares the engine against: both run the
//! Table 2 set and generated, sporadic, overloaded and faulty workloads,
//! and every report member but the operation counts, and every trace,
//! must be byte-identical. That proves the rewrite is observationally
//! pure speed. It reports no operation counts ([`EngineOps::default`]):
//! those count the engine's own data structures, which this copy lacks.
//!
//! Do not "fix" or optimize this module; its value is that it does not
//! change.

use rtdvs_core::machine::{Machine, PointIdx};
use rtdvs_core::policy::{DvsPolicy, PolicyKind};
use rtdvs_core::task::{TaskId, TaskSet};
use rtdvs_core::time::{Time, Work, EPS};
use rtdvs_core::view::{InvState, SystemView, TaskView};
use rtdvs_taskgen::SplitMix64;

use crate::config::{MissPolicy, SimConfig};
use crate::energy::EnergyMeter;
use crate::fault::{fires, ContainmentStats, FaultEvent, FaultStreams};
use crate::report::{DeadlineMiss, EngineOps, SimReport, TaskStats};
use crate::trace::{Activity, Trace, TraceEvent};

/// Runs `kind` under the frozen pre-refactor engine.
///
/// Convenience wrapper over [`simulate_with_baseline`].
#[must_use]
pub fn simulate_baseline(
    tasks: &TaskSet,
    machine: &Machine,
    kind: PolicyKind,
    cfg: &SimConfig,
) -> SimReport {
    let mut policy = kind.build();
    simulate_with_baseline(tasks, machine, policy.as_mut(), cfg)
}

/// Runs an already-constructed policy under the frozen pre-refactor engine.
///
/// The policy is re-initialized ([`DvsPolicy::init`]) before the run, so a
/// policy instance can be reused across runs.
///
/// # Panics
///
/// Panics if `cfg.duration` is not strictly positive.
#[must_use]
pub fn simulate_with_baseline(
    tasks: &TaskSet,
    machine: &Machine,
    policy: &mut dyn DvsPolicy,
    cfg: &SimConfig,
) -> SimReport {
    BaselineEngine::new(tasks, machine, policy, cfg).run()
}

/// Per-task runtime state.
#[derive(Debug, Clone)]
struct TaskRt {
    invocation: u64,
    state: InvState,
    executed: Work,
    actual: Work,
    deadline: Time,
    next_release: Time,
}

struct BaselineEngine<'a> {
    tasks: &'a TaskSet,
    machine: &'a Machine,
    policy: &'a mut dyn DvsPolicy,
    cfg: &'a SimConfig,
    now: Time,
    rt: Vec<TaskRt>,
    meter: EnergyMeter,
    rng: SplitMix64,
    trace: Option<Trace>,
    /// The operating point currently applied to the hardware; `None` until
    /// the first interval begins.
    applied: Option<PointIdx>,
    /// Execution is blocked until this instant by a transition stall.
    stall_until: Time,
    switches: u64,
    voltage_switches: u64,
    events: u64,
    misses: Vec<DeadlineMiss>,
    stats: Vec<TaskStats>,
    /// Fault-injection streams; `None` unless the plan is active, so an
    /// empty plan adds no draws and no branches to the hot path.
    faults: Option<FaultStreams>,
    fault_log: Vec<FaultEvent>,
    /// Per-task quarantine flags for overrun containment.
    quarantined: Vec<bool>,
    containment: ContainmentStats,
    clamp_events: u64,
}

impl<'a> BaselineEngine<'a> {
    fn new(
        tasks: &'a TaskSet,
        machine: &'a Machine,
        policy: &'a mut dyn DvsPolicy,
        cfg: &'a SimConfig,
    ) -> BaselineEngine<'a> {
        assert!(
            cfg.duration.as_ms() > 0.0,
            "simulation duration must be positive"
        );
        let rt = tasks
            .tasks()
            .iter()
            .map(|t| TaskRt {
                invocation: 0,
                state: InvState::Inactive,
                executed: Work::ZERO,
                actual: Work::ZERO,
                deadline: t.offset() + t.period(),
                next_release: t.offset(),
            })
            .collect();
        BaselineEngine {
            tasks,
            machine,
            policy,
            cfg,
            now: Time::ZERO,
            rt,
            meter: EnergyMeter::new(machine.len(), cfg.idle_level),
            rng: SplitMix64::seed_from_u64(cfg.seed),
            trace: cfg.record_trace.then(Trace::new),
            applied: None,
            stall_until: Time::ZERO,
            switches: 0,
            voltage_switches: 0,
            events: 0,
            misses: Vec::new(),
            stats: vec![TaskStats::default(); tasks.len()],
            faults: cfg.fault.is_active().then(|| FaultStreams::new(cfg.fault)),
            fault_log: Vec::new(),
            quarantined: vec![false; tasks.len()],
            containment: ContainmentStats::default(),
            clamp_events: 0,
        }
    }

    fn views(&self) -> Vec<TaskView> {
        self.rt
            .iter()
            .map(|s| TaskView {
                invocation: s.invocation,
                state: s.state,
                executed: s.executed,
                deadline: s.deadline,
                next_release: s.next_release,
            })
            .collect()
    }

    /// Calls a policy callback with a fresh system view.
    fn notify(&mut self, id: TaskId, is_release: bool) {
        let views = self.views();
        let sys = SystemView {
            now: self.now,
            tasks: self.tasks,
            machine: self.machine,
            views: &views,
        };
        if is_release {
            self.policy.on_release(id, &sys);
        } else {
            self.policy.on_completion(id, &sys);
        }
    }

    fn remaining(&self, i: usize) -> Work {
        self.rt
            .get(i)
            .map_or(Work::ZERO, |s| (s.actual - s.executed).clamp_non_negative())
    }

    /// Total lookup into the quarantine set; out-of-range reads as clean.
    fn is_quarantined(&self, i: usize) -> bool {
        self.quarantined.get(i).copied().unwrap_or(false)
    }

    fn complete(&mut self, i: usize) {
        let Some(rt) = self.rt.get_mut(i) else {
            return;
        };
        rt.executed = rt.actual;
        rt.state = InvState::Completed;
        let executed = rt.executed;
        let slack = rt.deadline - self.now;
        if let Some(st) = self.stats.get_mut(i) {
            st.record_completion(slack);
        }
        if let Some(tr) = &mut self.trace {
            tr.record_event(TraceEvent::Completion {
                time: self.now,
                task: TaskId(i),
                executed,
            });
        }
        self.notify(TaskId(i), false);
    }

    /// The gap from one release to the next under the configured arrival
    /// model, plus injected release jitter when a fault plan asks for it.
    fn inter_arrival(&mut self, i: usize) -> Time {
        let period = self.tasks.task(TaskId(i)).period();
        let base = match self.cfg.arrival {
            crate::config::ArrivalModel::Periodic => period,
            crate::config::ArrivalModel::Sporadic { max_extra_fraction } => {
                debug_assert!(max_extra_fraction >= 0.0);
                let extra: f64 = self
                    .rng
                    .range_f64_inclusive(0.0, max_extra_fraction.max(0.0));
                period + period * extra
            }
        };
        if let Some(f) = &mut self.faults {
            if let Some(rj) = f.plan.release_jitter {
                if fires(&mut f.release, rj.rate) {
                    // Jitter only delays releases: the period stays the
                    // minimum inter-arrival time, so every deadline remains
                    // release + period and the engine invariants hold.
                    let delay = period * f.release.range_f64_inclusive(0.0, rj.max_fraction);
                    self.fault_log.push(FaultEvent::ReleaseJitter {
                        time: self.now,
                        task: TaskId(i),
                        delay,
                    });
                    return base + delay;
                }
            }
        }
        base
    }

    /// Handles an invocation still outstanding at its deadline.
    fn handle_deadline_miss(&mut self, i: usize) {
        let remaining = self.remaining(i);
        let Some((deadline, invocation)) = self.rt.get(i).map(|s| (s.deadline, s.invocation))
        else {
            return;
        };
        self.misses.push(DeadlineMiss {
            task: TaskId(i),
            deadline,
            invocation,
            remaining,
        });
        if let Some(tr) = &mut self.trace {
            tr.record_event(TraceEvent::Miss {
                time: self.now,
                task: TaskId(i),
                deadline,
                remaining,
            });
        }
        let period = self.tasks.task(TaskId(i)).period();
        let Some(rt) = self.rt.get_mut(i) else {
            return;
        };
        match self.cfg.miss_policy {
            MissPolicy::DropRemaining => {
                // Abandon the leftover work; the task waits for its next
                // release.
                rt.actual = rt.executed;
                rt.state = InvState::Completed;
            }
            MissPolicy::SkipRelease => {
                // Let the old invocation overrun into the next period; its
                // next release is skipped entirely.
                rt.deadline += period;
                rt.next_release += period;
            }
        }
    }

    fn release(&mut self, i: usize) {
        let period = self.tasks.task(TaskId(i)).period();
        let gap = self.inter_arrival(i);
        let Some(rt) = self.rt.get_mut(i) else {
            return;
        };
        debug_assert!(
            rt.state != InvState::Active,
            "deadline processing precedes releases"
        );
        rt.invocation += 1;
        rt.state = InvState::Active;
        rt.executed = Work::ZERO;
        rt.deadline = rt.next_release + period;
        rt.next_release += gap;
        let (mut actual, clamped) = self.cfg.exec.sample_checked(
            TaskId(i),
            self.tasks.task(TaskId(i)),
            rt.invocation,
            &mut self.rng,
        );
        if clamped {
            self.clamp_events += 1;
        }
        if let Some(f) = &mut self.faults {
            if let Some(o) = f.plan.overrun {
                if fires(&mut f.overrun, o.rate) {
                    // Demand above the condition-C2 clamp: the declared
                    // bound lied, which is exactly what containment exists
                    // to absorb.
                    let bound = self.tasks.task(TaskId(i)).wcet();
                    let injected = bound * o.factor;
                    self.fault_log.push(FaultEvent::Overrun {
                        time: self.now,
                        task: TaskId(i),
                        invocation: rt.invocation,
                        injected,
                        bound,
                    });
                    actual = injected;
                }
            }
        }
        rt.actual = actual;
        if let Some(st) = self.stats.get_mut(i) {
            st.releases += 1;
        }
        if let Some(tr) = &mut self.trace {
            if let Some(rt) = self.rt.get(i) {
                tr.record_event(TraceEvent::Release {
                    time: self.now,
                    task: TaskId(i),
                    invocation: rt.invocation,
                    deadline: rt.deadline,
                    next_release: rt.next_release,
                    actual: rt.actual,
                });
            }
        }
        self.notify(TaskId(i), true);
    }

    /// Processes every event due at the current instant: completions first
    /// (a task finishing exactly at its deadline meets it), then deadline
    /// misses, then releases, repeating until quiescent (a release with
    /// zero actual work completes immediately).
    fn process_due_events(&mut self, releases_allowed: bool) {
        // Each phase snapshots its due set before acting: the handlers only
        // mutate the task they are given (plus shared logs/rng, drawn in the
        // same ascending order), so the snapshot is behavior-identical to
        // re-checking per index — and keeps this loop free of `rt[i]` panics.
        loop {
            let mut progressed = false;
            let done: Vec<usize> = self
                .rt
                .iter()
                .enumerate()
                .filter(|&(i, s)| s.state == InvState::Active && !self.remaining(i).is_positive())
                .map(|(i, _)| i)
                .collect();
            for i in done {
                self.complete(i);
                progressed = true;
            }
            let missed: Vec<usize> = self
                .rt
                .iter()
                .enumerate()
                .filter(|(_, s)| s.state == InvState::Active && s.deadline.at_or_before(self.now))
                .map(|(i, _)| i)
                .collect();
            for i in missed {
                self.handle_deadline_miss(i);
                progressed = true;
            }
            if releases_allowed {
                let due: Vec<usize> = self
                    .rt
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| {
                        s.state != InvState::Active && s.next_release.at_or_before(self.now)
                    })
                    .map(|(i, _)| i)
                    .collect();
                for i in due {
                    self.release(i);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// The ready queue: active tasks with work left, tagged with their
    /// deadlines for the scheduler.
    fn ready(&self) -> Vec<(TaskId, Time)> {
        self.rt
            .iter()
            .enumerate()
            .filter(|(i, s)| s.state == InvState::Active && self.remaining(*i).is_positive())
            .map(|(i, s)| (TaskId(i), s.deadline))
            .collect()
    }

    /// Applies `desired` to the hardware, accounting a switch (and a stall,
    /// if configured) when it differs from the current point. Under fault
    /// injection the attempt may fail (the machine holds its old point) or
    /// stall longer than its model says.
    fn apply_point(&mut self, desired: PointIdx) {
        if self.applied == Some(desired) {
            return;
        }
        if let Some(prev) = self.applied {
            if let Some(f) = &mut self.faults {
                if let Some(st) = f.plan.stuck_transition {
                    if fires(&mut f.stuck, st.rate) {
                        // The set_speed silently failed; the policy believes
                        // it switched, the hardware disagrees. The next
                        // event interval retries.
                        self.containment.stuck_transitions += 1;
                        self.fault_log.push(FaultEvent::StuckTransition {
                            time: self.now,
                            held: prev,
                            desired,
                        });
                        return;
                    }
                }
            }
            self.switches += 1;
            let dv = (self.machine.point(prev).volts - self.machine.point(desired).volts).abs();
            let voltage_changed = dv > EPS;
            if voltage_changed {
                self.voltage_switches += 1;
            }
            if let Some(ov) = self.cfg.switch_overhead {
                let stall = if voltage_changed {
                    ov.voltage_change
                } else {
                    ov.freq_only
                };
                self.stall_until = self.now + stall;
            }
            if let Some(f) = &mut self.faults {
                if let Some(j) = f.plan.transition_jitter {
                    if fires(&mut f.jitter, j.rate) {
                        let extra =
                            Time::from_ms(f.jitter.range_f64_inclusive(0.0, j.max_extra.as_ms()));
                        self.fault_log.push(FaultEvent::TransitionJitter {
                            time: self.now,
                            extra,
                        });
                        self.stall_until = self.stall_until.max(self.now) + extra;
                    }
                }
            }
        }
        self.applied = Some(desired);
    }

    /// Overrun containment: quarantines any active invocation that has
    /// exhausted its declared WCET budget and still has work left, and
    /// lazily releases the quarantine once the invocation leaves the
    /// active state. No-op without an active fault plan.
    fn update_quarantine(&mut self) {
        if self.faults.is_none() {
            return;
        }
        for i in 0..self.rt.len() {
            let Some((state, executed, invocation)) =
                self.rt.get(i).map(|s| (s.state, s.executed, s.invocation))
            else {
                continue;
            };
            if state != InvState::Active {
                if let Some(q) = self.quarantined.get_mut(i) {
                    *q = false;
                }
                continue;
            }
            if self.is_quarantined(i) {
                continue;
            }
            let wcet = self.tasks.task(TaskId(i)).wcet();
            if executed.as_ms() >= wcet.as_ms() - EPS && self.remaining(i).is_positive() {
                if let Some(q) = self.quarantined.get_mut(i) {
                    *q = true;
                }
                self.containment.activations += 1;
                self.fault_log.push(FaultEvent::Containment {
                    time: self.now,
                    task: TaskId(i),
                    invocation,
                });
            }
        }
    }

    /// Sanitizer-style internal-consistency checks, compiled into debug
    /// builds and absent from release builds.
    /// These guard the engine itself; the paper-level invariants (switch
    /// bounds, demand coverage, idle points) are checked post-hoc by
    /// `rtdvs-audit`'s `TraceAuditor`, which replays the recorded trace.
    #[cfg(debug_assertions)]
    fn sanitize(&self, prev: Time) {
        assert!(
            prev.at_or_before(self.now),
            "engine time ran backwards: {prev} -> {}",
            self.now
        );
        if let Some(p) = self.applied {
            assert!(p < self.machine.len(), "applied point {p} out of range");
        }
        for (i, s) in self.rt.iter().enumerate() {
            assert!(
                s.executed.as_ms() <= s.actual.as_ms() + EPS,
                "T{} executed {} past its sampled work {}",
                i + 1,
                s.executed,
                s.actual
            );
            if s.state == InvState::Active {
                assert!(
                    s.deadline.at_or_before(s.next_release),
                    "T{}: deadline {} after next release {}",
                    i + 1,
                    s.deadline,
                    s.next_release
                );
            }
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn sanitize(&self, _prev: Time) {}

    fn run(mut self) -> SimReport {
        self.policy.init(self.tasks, self.machine);
        // Release everything due at t = 0.
        self.process_due_events(true);

        loop {
            self.events = self.events.saturating_add(1);
            let prev_now = self.now;
            // Grant any due policy review (e.g. laEDF re-planning at its
            // deferral boundary when no release landed there — possible
            // only under sporadic arrivals).
            if let Some(review) = self.policy.review_at() {
                if review.at_or_before(self.now) {
                    let views = self.views();
                    let sys = SystemView {
                        now: self.now,
                        tasks: self.tasks,
                        machine: self.machine,
                        views: &views,
                    };
                    self.policy.on_review(&sys);
                    if let Some(tr) = &mut self.trace {
                        tr.record_event(TraceEvent::Review { time: self.now });
                    }
                }
            }

            // Overrun containment: detect budget exhaustion, then decide
            // occupancy and the operating point for the interval. While any
            // invocation is quarantined the offender is demoted behind the
            // innocent tasks and the processor escalates to f_max, so the
            // overrun steals as little feasible time as possible.
            self.update_quarantine();
            let mut ready = self.ready();
            let containing = self.quarantined.iter().any(|&q| q);
            if containing && ready.iter().any(|(id, _)| !self.is_quarantined(id.0)) {
                ready.retain(|(id, _)| !self.is_quarantined(id.0));
            }
            let running = self.policy.scheduler().pick_next(self.tasks, &ready);
            let desired = if running.is_some() {
                if containing {
                    self.machine.highest()
                } else {
                    self.policy.current_point()
                }
            } else {
                self.policy.idle_point(self.machine)
            };
            self.apply_point(desired);
            // Under stuck-transition faults the hardware can disagree with
            // the policy's request; the interval runs (and is charged) at
            // the point actually applied.
            let point = self.applied.unwrap_or(desired);
            let op = self.machine.point(point);

            // Earliest next event: a release, an active deadline (distinct
            // from the release only under sporadic arrivals), the running
            // task's completion, or the end of the horizon.
            let mut t_next = self.cfg.duration;
            for s in &self.rt {
                t_next = t_next.min(s.next_release.max(self.now));
                if s.state == InvState::Active {
                    t_next = t_next.min(s.deadline.max(self.now));
                }
            }
            if let Some(id) = running {
                let exec_start = self.now.max(self.stall_until);
                let t_done = exec_start + self.remaining(id.0).duration_at(op.freq);
                t_next = t_next.min(t_done);
                // Under an active fault plan, budget exhaustion is an event
                // of its own: stop exactly when the invocation reaches its
                // declared WCET so the quarantine begins on time.
                if self.faults.is_some() && !self.is_quarantined(id.0) {
                    let executed = self.rt.get(id.0).map_or(Work::ZERO, |s| s.executed);
                    let budget = (self.tasks.task(id).wcet() - executed).clamp_non_negative();
                    t_next = t_next.min(exec_start + budget.duration_at(op.freq));
                }
            }
            if let Some(review) = self.policy.review_at() {
                if review.definitely_before(t_next) && self.now.definitely_before(review) {
                    t_next = review;
                }
            }
            t_next = t_next.min(self.cfg.duration).max(self.now);

            // Charge the interval [now, t_next): a stall prefix, then
            // execution or idling.
            let stall_end = self.stall_until.min(t_next).max(self.now);
            if stall_end > self.now {
                let d = stall_end - self.now;
                self.meter.charge_stall(d);
                if let Some(tr) = &mut self.trace {
                    tr.push(self.now, stall_end, point, Activity::Stall);
                }
            }
            if t_next > stall_end {
                let d = t_next - stall_end;
                match running {
                    Some(id) => {
                        self.meter.charge_busy(self.machine, point, d);
                        let work = d.work_at(op.freq);
                        if let Some(s) = self.rt.get_mut(id.0) {
                            s.executed += work;
                        }
                        if let Some(st) = self.stats.get_mut(id.0) {
                            st.work += work;
                            st.energy += work.as_ms() * op.energy_per_work();
                        }
                        if containing {
                            self.containment.time += d;
                            self.containment.energy += work.as_ms() * op.energy_per_work();
                        }
                        if let Some(tr) = &mut self.trace {
                            tr.push(stall_end, t_next, point, Activity::Run(id));
                        }
                    }
                    None => {
                        self.meter.charge_idle(self.machine, point, d);
                        if let Some(tr) = &mut self.trace {
                            tr.push(stall_end, t_next, point, Activity::Idle);
                        }
                    }
                }
            }
            self.now = t_next;
            self.sanitize(prev_now);

            if self.now.as_ms() >= self.cfg.duration.as_ms() - EPS {
                // Completions landing exactly on the horizon still count;
                // releases at the horizon are outside [0, duration).
                self.process_due_events(false);
                break;
            }
            self.process_due_events(true);
        }

        SimReport {
            policy: self.policy.name(),
            duration: self.cfg.duration,
            meter: self.meter,
            switches: self.switches,
            voltage_switches: self.voltage_switches,
            events: self.events,
            misses: self.misses,
            task_stats: self.stats,
            trace: self.trace,
            clamp_events: self.clamp_events,
            faults: self.fault_log,
            containment: self.containment,
            ops: EngineOps::default(),
        }
    }
}
