//! The virtual-time RTOS kernel.
//!
//! Reproduces the software architecture of §4.2: a periodic real-time task
//! layer (the "Periodic RT Task Module"), a pluggable scheduler/DVS policy
//! module that can be swapped at run time, and a PowerNow!-style operating
//! point setter with transition stalls. Tasks are admitted through a
//! procfs-like handle API and the kernel advances in virtual time,
//! scheduling task bodies and accounting energy exactly like the
//! batch simulator — but with a *dynamic* task set.
//!
//! Two §4.3 observations are modeled directly:
//!
//! * **deferred first release** — adding a task to a tightly-scaled system
//!   can cause transient misses, so a new task joins the task set (and the
//!   DVS decisions) immediately, but its first release is deferred until
//!   every current invocation has completed;
//! * **cold-start overruns** — see [`crate::body::ColdStartBody`]; the
//!   kernel logs any invocation that exceeds its declared bound.

use core::fmt;
use std::fmt::Write as _;

use rtdvs_core::machine::{Machine, PointIdx};
use rtdvs_core::mintree::MinTree;
use rtdvs_core::policy::{DvsPolicy, PolicyKind};
use rtdvs_core::readyq::ReadyQueue;
use rtdvs_core::sched::SchedulerKind;
use rtdvs_core::task::{Task, TaskError, TaskId, TaskSet};
use rtdvs_core::tenant::TenantQuota;
use rtdvs_core::time::{Time, Work, EPS};
use rtdvs_core::view::{InvState, SystemView, TaskView};
use rtdvs_platform::{Regulator, TransitionOutcome};
use rtdvs_sim::{Activity, EnergyMeter, EngineOps, SwitchOverhead, Trace};

use crate::body::TaskBody;
use crate::eventlog::EventLog;

/// A stand-in for "far in the future" used for deferred tasks' views.
const FAR_FUTURE_MS: f64 = 1e15;

/// Bounded attempt cap per transition target. Together with the
/// exponential backoff in [`RtKernel::retry_backoff`] this keeps every
/// retry ladder compile-visibly finite (the `bounded-retry` lint rejects
/// unbounded retry loops in kernel and platform code).
pub(crate) const MAX_TRANSITION_ATTEMPTS: usize = 3;

/// Review cadence of the brownout/regulator degradation ladder.
const LADDER_REVIEW_PERIOD_MS: f64 = 50.0;

/// Regulator fallbacks within one review window that step the ladder down.
const LADDER_FALLBACK_THRESHOLD: u64 = 3;

/// Capped-utilization ceiling required before the ladder climbs back up
/// (hysteresis, like the governor's relax headroom).
const LADDER_CLIMB_HEADROOM: f64 = 0.9;

/// Opaque handle identifying an admitted task (the file handle of the
/// prototype's procfs interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskHandle(u64);

impl TaskHandle {
    /// Reconstructs a handle from its numeric id (as printed by
    /// `Display`, e.g. `rt3` → `from_raw(3)`). Used by the text interface;
    /// an id that was never issued simply fails kernel lookups.
    #[must_use]
    pub fn from_raw(id: u64) -> TaskHandle {
        TaskHandle(id)
    }

    /// The numeric id.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TaskHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rt{}", self.0)
    }
}

/// Events the kernel logs (timestamped in its virtual clock).
#[derive(Debug, Clone, PartialEq)]
pub enum KernelEvent {
    /// A task was admitted; `deferred` says its first release waits for
    /// system quiescence.
    Admitted {
        /// The new task's handle.
        handle: TaskHandle,
        /// Whether the first release was deferred (§4.3 fix).
        deferred: bool,
    },
    /// A task was removed.
    Removed {
        /// The removed task's handle.
        handle: TaskHandle,
    },
    /// An invocation was released.
    Released {
        /// The task.
        handle: TaskHandle,
        /// 1-based invocation number.
        invocation: u64,
    },
    /// An invocation completed.
    Completed {
        /// The task.
        handle: TaskHandle,
        /// 1-based invocation number.
        invocation: u64,
    },
    /// An invocation was still outstanding at its deadline; the remaining
    /// work was dropped.
    DeadlineMiss {
        /// The task.
        handle: TaskHandle,
        /// The invocation that missed.
        invocation: u64,
        /// Work outstanding at the deadline.
        remaining: Work,
    },
    /// An invocation used more than its declared worst case (§4.3's
    /// cold-start effect, or a buggy bound).
    Overrun {
        /// The task.
        handle: TaskHandle,
        /// The invocation that overran.
        invocation: u64,
        /// What it actually used.
        used: Work,
        /// Its declared bound.
        bound: Work,
    },
    /// A new scheduler/DVS policy module was loaded.
    PolicyLoaded {
        /// The policy's display name.
        name: &'static str,
    },
    /// Degraded mode: the kernel shed a faulty task (overrun or deadline
    /// miss) to protect the guarantees of the rest of the set.
    Shed {
        /// The shed task.
        handle: TaskHandle,
        /// Its peak observed demand (what admission will be asked to cover
        /// on re-admission).
        observed: Work,
    },
    /// A shed task passed the admission test again and rejoined the set,
    /// with its computing bound renegotiated to the observed peak.
    Readmitted {
        /// The re-admitted task.
        handle: TaskHandle,
        /// The renegotiated worst-case bound.
        bound: Work,
    },
    /// The kernel entered (`active = true`) or left degraded mode.
    Degraded {
        /// Whether the kernel is degraded after this transition.
        active: bool,
    },
    /// A mode-change transaction passed validation and was staged to commit
    /// at the next safe point (quiescent instant).
    ModeChangeStaged {
        /// Number of operations in the transaction.
        ops: usize,
    },
    /// A staged mode-change transaction committed atomically.
    ModeChangeCommitted {
        /// The kernel's mode epoch after the commit (monotonic).
        epoch: u64,
    },
    /// A staged mode-change transaction failed re-validation at its safe
    /// point (the set changed between staging and commit) and was dropped.
    ModeChangeRejected {
        /// Worst-case utilization the rejected set would have had.
        utilization: f64,
    },
    /// The overload governor stretched task periods to contain demand that
    /// exceeds capacity at `f_max` (elastic degradation, first resort
    /// before shedding).
    GovernorStretched {
        /// How many tasks were stretched.
        stretched: usize,
        /// The period multiplier applied to them.
        factor: f64,
    },
    /// The governor restored every stretched task to its nominal period
    /// (hysteresis: the nominal set passes admission again with headroom).
    GovernorRelaxed,
    /// A misbehaving task's computing bound was renegotiated in place to
    /// its observed peak as part of governor containment.
    Renegotiated {
        /// The task.
        handle: TaskHandle,
        /// The new bound.
        bound: Work,
    },
    /// A checkpoint of the full kernel state was taken.
    SnapshotTaken,
    /// The transition driver exhausted its bounded retries for the desired
    /// point and landed on a safe substitute instead. The substitute's
    /// frequency is never below the desired one (rounded up, never down).
    RegulatorFallback {
        /// The point the policy asked for (after cap clamping).
        desired: PointIdx,
        /// The point actually applied.
        applied: PointIdx,
    },
    /// The brownout/thermal cap changed: operating points above `cap` are
    /// unavailable until the cap is lifted (`None`).
    BrownoutCapSet {
        /// The highest available point, or `None` when uncapped.
        cap: Option<PointIdx>,
    },
    /// The brownout governor moved the policy along the degradation ladder
    /// (laEDF → ccEDF → StaticEDF → pinned top) without changing the
    /// operator's preferred policy.
    LadderStepped {
        /// Display name of the policy before the step.
        from: &'static str,
        /// Display name of the policy after the step.
        to: &'static str,
    },
    /// The watchdog supervisor restored the kernel from its last
    /// checkpoint after detecting a stall or repeated containment.
    SupervisorRestored,
    /// A run of timer ticks was lost or coalesced and then recovered: the
    /// gap closed and the release backlog was drained through the
    /// catch-up cascade.
    ClockTickGap {
        /// Ticks that went undelivered inside the gap.
        missed: u64,
    },
    /// The raw RTC attempted a backward jump; the time base's
    /// monotonicity clamp refused it, so kernel time never moved.
    ClockJumpClamped {
        /// The backward distance the RTC attempted (always positive).
        attempted: Time,
    },
    /// The stalled-tick watchdog changed state. While engaged it forces
    /// synthetic tick deliveries and escalates — upward only — to the
    /// capped fail-safe rail.
    ClockWatchdog {
        /// `true` on engagement, `false` when real ticks resume.
        engaged: bool,
    },
    /// An invocation was released later than its scheduled instant
    /// because the tick gate held it back (clock-induced latency; the
    /// audit layer bounds it by the watchdog's worst-case gap).
    ReleaseLate {
        /// The task.
        handle: TaskHandle,
        /// The invocation that was late.
        invocation: u64,
        /// How far past the scheduled release it fired.
        latency: Time,
    },
}

/// Errors from the admission and lifecycle API.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// The task parameters were invalid.
    BadTask(TaskError),
    /// Admitting the task would violate the loaded policy's deadline
    /// guarantee (condition C1 of §2.2).
    NotSchedulable {
        /// Total worst-case utilization the set would have had.
        utilization: f64,
    },
    /// No task with that handle exists.
    NoSuchTask(TaskHandle),
    /// A mode-change transaction is already staged and has not reached its
    /// safe point yet; only one transaction may be in flight at a time.
    ModeChangeBusy,
    /// The mode-change transaction contained no operations.
    EmptyModeChange,
    /// A multi-tenant server's quota configuration was invalid.
    BadTenantConfig(crate::tenants::TenantConfigError),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::BadTask(e) => write!(f, "invalid task parameters: {e}"),
            KernelError::NotSchedulable { utilization } => write!(
                f,
                "task set would not be schedulable under the loaded policy \
                 (worst-case utilization {utilization:.3})"
            ),
            KernelError::NoSuchTask(h) => write!(f, "no task with handle {h}"),
            KernelError::ModeChangeBusy => {
                write!(f, "a mode-change transaction is already staged")
            }
            KernelError::EmptyModeChange => {
                write!(f, "mode-change transaction has no operations")
            }
            KernelError::BadTenantConfig(e) => {
                write!(f, "invalid tenant configuration: {e}")
            }
        }
    }
}

impl std::error::Error for KernelError {}

pub(crate) struct Entry {
    pub(crate) handle: TaskHandle,
    /// The scheduling spec (WCET possibly inflated by the switch-stall
    /// budget, period possibly stretched by the overload governor).
    pub(crate) spec: Task,
    /// The spec as declared by the user (governor stretch applied); bodies
    /// are invoked against this one so their demand is unaffected by
    /// overhead accounting.
    pub(crate) user_spec: Task,
    /// The user-declared period before any governor stretching — what the
    /// task returns to when the governor relaxes.
    pub(crate) nominal_period: Time,
    pub(crate) body: Box<dyn TaskBody>,
    pub(crate) invocation: u64,
    pub(crate) state: InvState,
    pub(crate) executed: Work,
    pub(crate) actual: Work,
    pub(crate) deadline: Time,
    pub(crate) next_release: Time,
    pub(crate) deferred: bool,
    pub(crate) overrun_logged: bool,
    /// Largest actual demand any invocation of this task has shown.
    pub(crate) observed_peak: Work,
    /// Marked for shedding at the next event-processing pass (degraded
    /// mode only).
    pub(crate) pending_shed: bool,
}

impl Entry {
    /// The work left in the current invocation.
    pub(crate) fn remaining(&self) -> Work {
        (self.actual - self.executed).clamp_non_negative()
    }

    /// Whether the governor currently has this task's period stretched
    /// beyond its nominal value.
    pub(crate) fn stretched(&self) -> bool {
        self.user_spec.period().as_ms() > self.nominal_period.as_ms() + EPS
    }
}

/// The run loop's incremental state: what the loop would otherwise
/// recompute from `entries` on every iteration, kept in step at the sites
/// where an entry changes, so the steady state costs O(1) per event and
/// allocates nothing. Derived state: [`RtKernel::rebuild_and_reinit`]
/// rebuilds it from `entries`, and it is never serialized, so the
/// operation counts restart at zero on restore.
#[derive(Default)]
pub(crate) struct SchedState {
    /// The views and the release timers predate the last rebuild. The
    /// next policy callback or release pass rebuilds both, so n spawns in
    /// a row cost O(n) there, not O(n²); writes in between land in
    /// storage that rebuild overwrites.
    pub(crate) stale: bool,
    /// One policy view per entry, rewritten wherever the entry changes
    /// (`RtKernel::sync_view`).
    pub(crate) views: Vec<TaskView>,
    /// The views were last rewritten under a drift estimate, so their
    /// deadlines were tightened for that instant: the next callback
    /// rewrites them all, even if the estimate has since gone.
    pub(crate) views_tightened: bool,
    /// One release timer per non-deferred entry, keyed by entry index.
    pub(crate) releases: MinTree,
    /// Due-timer bitmap reused by the release pass.
    pub(crate) due: Vec<u64>,
    /// Entries that may have run out of work: the running task after its
    /// interval is charged, and zero-work releases.
    pub(crate) candidates: Vec<usize>,
    /// Entries with an invocation in flight.
    pub(crate) active: usize,
    /// Entries whose first release waits for quiescence.
    pub(crate) deferred: usize,
    /// Whether the governor has any entry's period stretched.
    pub(crate) stretched: bool,
    /// Work counted the engine's way.
    pub(crate) ops: EngineOps,
    /// Iterations of the run loop: the kernel's decision intervals.
    pub(crate) events: u64,
}

/// A task evicted in degraded mode, waiting to be re-admitted through the
/// ordinary admission test with its bound renegotiated to what it actually
/// used.
pub(crate) struct ShedTask {
    pub(crate) handle: TaskHandle,
    pub(crate) period: Time,
    /// The user-declared bound it was first admitted with.
    pub(crate) wcet: Work,
    pub(crate) observed_peak: Work,
    pub(crate) invocation: u64,
    pub(crate) body: Box<dyn TaskBody>,
    /// Next time the kernel will retry admission.
    pub(crate) next_attempt: Time,
}

/// The overload governor's summarized condition, surfaced through procfs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorState {
    /// Every task runs at its nominal period; no one is shed.
    Nominal,
    /// At least one task runs at an elastically stretched period.
    Stretched,
    /// At least one task is shed (stretching could not contain the
    /// overload); the dominant state when both apply.
    Shedding,
}

impl fmt::Display for GovernorState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GovernorState::Nominal => "nominal",
            GovernorState::Stretched => "stretched",
            GovernorState::Shedding => "shedding",
        })
    }
}

/// The RT-DVS kernel: periodic task runtime + pluggable policy module +
/// DVS-capable virtual CPU.
pub struct RtKernel {
    pub(crate) machine: Machine,
    pub(crate) policy: Box<dyn DvsPolicy + Send>,
    /// The policy kind the loaded module was built from, kept for
    /// serialization (a `dyn DvsPolicy` cannot name its own constructor).
    pub(crate) policy_kind: PolicyKind,
    pub(crate) entries: Vec<Entry>,
    pub(crate) cached_set: Option<TaskSet>,
    pub(crate) now: Time,
    pub(crate) meter: EnergyMeter,
    pub(crate) trace: Option<Trace>,
    pub(crate) applied: Option<PointIdx>,
    pub(crate) stall_until: Time,
    pub(crate) switches: u64,
    pub(crate) switch_overhead: Option<SwitchOverhead>,
    /// When set, admission inflates every task's WCET by two worst-case
    /// stalls (§2.5: overheads are "accounted for, and added to, the
    /// worst-case task computation times").
    pub(crate) account_switch_overhead: bool,
    pub(crate) defer_new_tasks: bool,
    /// Graceful degradation: shed misbehaving tasks instead of letting
    /// them break everyone's deadlines. Off by default (the paper's
    /// prototype only *logs* overruns).
    pub(crate) degrade_on_fault: bool,
    pub(crate) shed: Vec<ShedTask>,
    /// Every event, in time order, one 16-byte record each (see
    /// [`crate::eventlog`]).
    pub(crate) log: EventLog,
    pub(crate) next_handle: u64,
    /// Monotonic counter bumped by every committed mode change.
    pub(crate) mode_epoch: u64,
    /// The staged (validated but not yet committed) mode-change
    /// transaction, if any.
    pub(crate) pending_change: Option<crate::modechange::StagedChange>,
    /// When the last checkpoint was taken, if ever.
    pub(crate) last_snapshot_at: Option<Time>,
    /// The kernel's last checkpoint, or the snapshot it was revived from:
    /// the next checkpoint extends its log section (see
    /// [`crate::snapshot`]). Never serialized.
    pub(crate) seal: Option<crate::snapshot::Snapshot>,
    /// The seal before the current one, kept so that a checkpoint can
    /// write into its buffer once every caller has let it go (see
    /// [`crate::snapshot`]). Never serialized.
    pub(crate) retired: Option<crate::snapshot::Snapshot>,
    /// The hardware regulator behind the transition driver, when attached.
    /// Hardware state: never serialized — a restore re-attaches the live
    /// regulator rather than rewinding its fault streams.
    pub(crate) regulator: Option<Box<dyn Regulator + Send>>,
    /// Brownout/thermal cap: the highest operating point currently
    /// available, or `None` when uncapped.
    pub(crate) brownout_cap: Option<PointIdx>,
    /// The policy the operator loaded; ladder degradation departs from it
    /// and recovery climbs back to it.
    pub(crate) preferred_policy: PolicyKind,
    /// Current rung on the degradation ladder (0 = preferred policy).
    pub(crate) ladder_pos: usize,
    /// Next virtual time the brownout governor reviews regulator health.
    pub(crate) ladder_review_at: Time,
    /// `regulator_fallbacks` at the previous ladder review.
    pub(crate) fallbacks_at_review: u64,
    /// Transition attempts beyond the first per desired point.
    pub(crate) transition_retries: u64,
    /// Attempts the regulator ignored or timed out (stuck transitions).
    pub(crate) transition_failures: u64,
    /// Times the driver landed on a substitute point instead of the
    /// requested one.
    pub(crate) regulator_fallbacks: u64,
    /// Times the fail-safe rail was forced after retries exhausted.
    pub(crate) forced_transitions: u64,
    /// The watchdog supervisor, when armed. Like the regulator, never
    /// serialized: it owns the snapshot it would restore from.
    pub(crate) supervisor: Option<crate::supervisor::Supervisor>,
    /// Priority-bitmap ready queue of the entries that are active with
    /// work left: inserted at release, removed when the work runs out.
    /// Derived state: reconfigured and refilled by
    /// [`RtKernel::rebuild_and_reinit`], never serialized.
    pub(crate) rq: ReadyQueue,
    /// The rest of the run loop's incremental state.
    pub(crate) sched: SchedState,
    /// Multi-tenant servers spawned on this kernel, keyed by the periodic
    /// task that drives each one. Kept here so procfs can read tenant
    /// state back and checkpoints can restore the pairing.
    pub(crate) tenant_servers: Vec<(TaskHandle, crate::tenants::TenantServer)>,
    /// The kernel time base: drift estimate, monotonicity clamp and
    /// watchdog state, plus the live clock driver when a fault plan is
    /// attached (see [`crate::timebase`]). Observed state is serialized;
    /// the driver, like the regulator, is re-attached instead.
    pub(crate) timebase: crate::timebase::TimeBase,
}

impl RtKernel {
    /// Creates a kernel on `machine` with the given policy module loaded,
    /// a perfect halt (idle level 0), no switch overheads, and deferred
    /// first release enabled.
    #[must_use]
    pub fn new(machine: Machine, kind: PolicyKind) -> RtKernel {
        let n_points = machine.len();
        let mut kernel = RtKernel {
            machine,
            policy: kind.build(),
            policy_kind: kind,
            entries: Vec::new(),
            cached_set: None,
            now: Time::ZERO,
            meter: EnergyMeter::new(n_points, 0.0),
            trace: None,
            applied: None,
            stall_until: Time::ZERO,
            switches: 0,
            switch_overhead: None,
            account_switch_overhead: false,
            defer_new_tasks: true,
            degrade_on_fault: false,
            shed: Vec::new(),
            log: EventLog::new(),
            next_handle: 1,
            mode_epoch: 0,
            pending_change: None,
            last_snapshot_at: None,
            seal: None,
            retired: None,
            regulator: None,
            brownout_cap: None,
            preferred_policy: kind,
            ladder_pos: 0,
            ladder_review_at: Time::ZERO,
            fallbacks_at_review: 0,
            transition_retries: 0,
            transition_failures: 0,
            regulator_fallbacks: 0,
            forced_transitions: 0,
            supervisor: None,
            rq: ReadyQueue::new(),
            sched: SchedState::default(),
            tenant_servers: Vec::new(),
            timebase: crate::timebase::TimeBase::default(),
        };
        kernel.log.push((
            Time::ZERO,
            KernelEvent::PolicyLoaded {
                name: kernel.policy.name(),
            },
        ));
        kernel
    }

    /// Sets the idle level (must be called before any energy accrues).
    #[must_use]
    pub fn with_idle_level(mut self, idle_level: f64) -> RtKernel {
        self.meter = EnergyMeter::new(self.machine.len(), idle_level);
        self
    }

    /// Enables voltage/frequency transition stalls. Unless
    /// [`RtKernel::with_accounted_switch_overhead`] is used instead, the
    /// stalls are *not* charged to the task bounds and deadline guarantees
    /// are voided for tight task sets.
    #[must_use]
    pub fn with_switch_overhead(mut self, overhead: SwitchOverhead) -> RtKernel {
        self.switch_overhead = Some(overhead);
        self
    }

    /// Enables transition stalls *and* the §2.5 accounting rule: every
    /// admitted task's WCET budget is inflated by two worst-case stalls
    /// (at most two switches per invocation), so the guarantees survive
    /// the overhead. Task bodies still see the user-declared spec.
    #[must_use]
    pub fn with_accounted_switch_overhead(mut self, overhead: SwitchOverhead) -> RtKernel {
        self.switch_overhead = Some(overhead);
        self.account_switch_overhead = true;
        self
    }

    /// The WCET surcharge applied at admission when overhead accounting is
    /// on: two worst-case (voltage-change) stalls.
    #[must_use]
    pub fn stall_budget(&self) -> Work {
        match (self.account_switch_overhead, self.switch_overhead) {
            (true, Some(ov)) => Work::from_ms(2.0 * ov.voltage_change.as_ms()),
            _ => Work::ZERO,
        }
    }

    /// Enables execution trace recording.
    #[must_use]
    pub fn with_trace(mut self) -> RtKernel {
        self.trace = Some(Trace::new());
        self
    }

    /// Disables the deferred-first-release fix, reproducing the transient
    /// misses §4.3 warns about.
    #[must_use]
    pub fn without_deferred_release(mut self) -> RtKernel {
        self.defer_new_tasks = false;
        self
    }

    /// Enables graceful degradation. A task whose invocation overruns its
    /// declared bound or misses its deadline is *shed*: removed from the
    /// set so the policy's guarantees for everyone else hold again, and
    /// queued for re-admission. Every period the kernel retries admission
    /// through the ordinary [`DvsPolicy::guarantees`] test with the bound
    /// renegotiated to the task's observed peak demand; if the enlarged
    /// set fits, the task rejoins (deferred-release rules apply).
    ///
    /// Off by default — the paper's prototype only *logs* overruns.
    #[must_use]
    pub fn with_degraded_mode(mut self) -> RtKernel {
        self.degrade_on_fault = true;
        self
    }

    /// Attaches or replaces the regulator at run time (the supervisor uses
    /// this to carry the live hardware across a restore).
    pub fn attach_regulator(&mut self, regulator: Box<dyn Regulator + Send>) {
        self.regulator = Some(regulator);
    }

    /// Sets or lifts the brownout/thermal cap: operating points above
    /// `cap` become unavailable until the cap is lifted. The degradation
    /// ladder reviews the clamped set at the next quiescent instant.
    pub fn set_brownout_cap(&mut self, cap: Option<PointIdx>) {
        let cap = cap.map(|c| c.min(self.machine.highest()));
        if cap == self.brownout_cap {
            return;
        }
        self.brownout_cap = cap;
        self.ladder_review_at = self.now;
        self.log
            .push((self.now, KernelEvent::BrownoutCapSet { cap }));
    }

    /// The active brownout/thermal cap, if any.
    #[must_use]
    pub fn brownout_cap(&self) -> Option<PointIdx> {
        self.brownout_cap
    }

    /// Transition-driver accounting:
    /// `(retries, stuck failures, fallbacks, forced rail writes)`.
    #[must_use]
    pub fn transition_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.transition_retries,
            self.transition_failures,
            self.regulator_fallbacks,
            self.forced_transitions,
        )
    }

    /// Current rung on the degradation ladder (0 = the preferred policy).
    #[must_use]
    pub fn ladder_position(&self) -> usize {
        self.ladder_pos
    }

    /// The degradation ladder's rung names, top to bottom, as they appear
    /// in [`KernelEvent::LadderStepped`] — the key for mapping ladder
    /// events back to depths during availability replay.
    #[must_use]
    pub fn ladder_rung_names(&self) -> Vec<&'static str> {
        self.ladder_rungs().iter().map(|k| k.name()).collect()
    }

    /// Records that this kernel was just revived from a snapshot after a
    /// crash, stamping [`KernelEvent::SupervisorRestored`] at the current
    /// clock. Harnesses that restore by hand (outside a [`Supervisor`])
    /// call this so availability replay sees the outage.
    ///
    /// [`Supervisor`]: crate::supervisor::Supervisor
    pub fn mark_restored(&mut self) {
        self.log.push((self.now, KernelEvent::SupervisorRestored));
    }

    /// Availability accounting replayed from the event log: uptime split
    /// by ladder depth, outage count, MTTF/MTTR, and post-restore recovery
    /// latencies. Pure log replay — calling it never perturbs a run.
    #[must_use]
    pub fn availability(&self) -> crate::availability::AvailabilityStats {
        crate::availability::AvailabilityStats::replay(
            &self.log,
            self.now,
            &self.ladder_rung_names(),
        )
    }

    /// The kernel's virtual clock.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The machine the kernel runs on.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Total processor energy so far.
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.meter.total_energy()
    }

    /// The energy/time accounting.
    #[must_use]
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Operating-point changes applied so far.
    #[must_use]
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The run loop's operation counts, counted like the sim engine's
    /// [`rtdvs_sim::SimReport::ops`]: policy callbacks, view writes, timer
    /// and ready-queue operations, and meter intervals. Every entry an
    /// O(n) pass visits counts once, under the structure the pass stands
    /// in for, so such a pass shows in the counts. Not serialized: the
    /// counts restart at zero on restore.
    #[must_use]
    pub fn ops(&self) -> EngineOps {
        self.sched.ops
    }

    /// Decision intervals the run loop has processed (its iterations), the
    /// kernel's analogue of [`rtdvs_sim::SimReport::events`]. Restarts at
    /// zero on restore, like [`RtKernel::ops`].
    #[must_use]
    pub fn events(&self) -> u64 {
        self.sched.events
    }

    /// The execution trace, if recording was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// The event log, in time order.
    #[must_use]
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// All deadline misses so far, found in the log's side table rather
    /// than its whole history.
    pub fn misses(&self) -> impl Iterator<Item = &(Time, KernelEvent)> {
        self.log
            .unpacked()
            .iter()
            .filter(|(_, e)| matches!(e, KernelEvent::DeadlineMiss { .. }))
    }

    /// The loaded policy module's name.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Whether the kernel is degraded: at least one task has been shed and
    /// is waiting for re-admission. Always `false` unless
    /// [`RtKernel::with_degraded_mode`] was used.
    #[must_use]
    pub fn degraded(&self) -> bool {
        !self.shed.is_empty()
    }

    /// The mode epoch: how many mode-change transactions have committed.
    /// Monotonic; bumped only at commit, never by rejections.
    #[must_use]
    pub fn mode_epoch(&self) -> u64 {
        self.mode_epoch
    }

    /// The overload governor's current state. Shedding dominates
    /// stretching when both apply.
    #[must_use]
    pub fn governor(&self) -> GovernorState {
        if !self.shed.is_empty() {
            GovernorState::Shedding
        } else if self.sched.stretched {
            GovernorState::Stretched
        } else {
            GovernorState::Nominal
        }
    }

    /// When the last checkpoint was taken, if ever.
    #[must_use]
    pub fn last_snapshot_at(&self) -> Option<Time> {
        self.last_snapshot_at
    }

    /// Whether a validated mode-change transaction is staged, waiting for
    /// its safe point.
    #[must_use]
    pub fn pending_mode_change(&self) -> bool {
        self.pending_change.is_some()
    }

    /// The currently shed tasks, as `(handle, observed peak demand)`.
    #[must_use]
    pub fn shed_tasks(&self) -> Vec<(TaskHandle, Work)> {
        self.shed
            .iter()
            .map(|t| (t.handle, t.observed_peak))
            .collect()
    }

    /// Invocations logged as overrunning their declared bound so far.
    #[must_use]
    pub fn overruns(&self) -> u64 {
        self.log
            .unpacked()
            .iter()
            .filter(|(_, e)| matches!(e, KernelEvent::Overrun { .. }))
            .count() as u64
    }

    /// The currently applied normalized frequency.
    #[must_use]
    pub fn current_frequency(&self) -> f64 {
        let idx = self.applied.unwrap_or_else(|| self.machine.lowest());
        self.machine.point(idx).freq
    }

    /// Admits a periodic task (the prototype's "write period and computing
    /// bound to /proc" step).
    ///
    /// The task joins the task set — and the DVS decisions — immediately;
    /// with deferred release enabled its first invocation waits until every
    /// current invocation has completed (§4.3).
    ///
    /// # Errors
    ///
    /// [`KernelError::BadTask`] for invalid parameters,
    /// [`KernelError::NotSchedulable`] if the loaded policy could not
    /// guarantee deadlines for the enlarged set.
    pub fn spawn(
        &mut self,
        period: Time,
        wcet: Work,
        body: Box<dyn TaskBody>,
    ) -> Result<TaskHandle, KernelError> {
        let user_spec = Task::new(period, wcet).map_err(KernelError::BadTask)?;
        let spec = user_spec
            .with_inflated_wcet(self.stall_budget())
            .map_err(KernelError::BadTask)?;
        // Under observed clock drift the guarantee test sees an extra
        // WCET margin — on the candidate only, never the stored spec, so
        // checkpoint restores stay bit-exact.
        let margin = self.clock_admission_margin();
        let admission_spec = if margin.is_positive() {
            user_spec
                .with_inflated_wcet(self.stall_budget() + margin)
                .map_err(KernelError::BadTask)?
        } else {
            spec
        };
        let mut specs: Vec<Task> = self.entries.iter().map(|e| e.spec).collect();
        specs.push(admission_spec);
        let candidate = TaskSet::new(specs).expect("at least the new task");
        if !self.policy.guarantees(&candidate) {
            return Err(KernelError::NotSchedulable {
                utilization: candidate.total_utilization(),
            });
        }
        let deferred = self.defer_new_tasks && self.sched.active > 0;
        let handle = TaskHandle(self.next_handle);
        self.next_handle += 1;
        self.insert_entry(Entry {
            handle,
            spec,
            user_spec,
            nominal_period: period,
            body,
            invocation: 0,
            state: InvState::Inactive,
            executed: Work::ZERO,
            actual: Work::ZERO,
            deadline: self.now + period,
            next_release: self.now,
            deferred,
            overrun_logged: false,
            observed_peak: Work::ZERO,
            pending_shed: false,
        });
        self.log
            .push((self.now, KernelEvent::Admitted { handle, deferred }));
        self.rebuild_and_reinit();
        Ok(handle)
    }

    /// Admits a polling server for aperiodic jobs (§2.2, footnote 1): a
    /// periodic task with period `period` and budget `budget` that serves
    /// its queue FIFO. It is a [`crate::tenants::TenantServer`] with one
    /// lane, [`crate::tenants::POLLING_LANE`], whose quota is the whole
    /// budget and whose backlog is unbounded, and it is listed in
    /// [`RtKernel::tenant_servers`]. Submit jobs with
    /// [`crate::tenants::AperiodicServer::submit`].
    ///
    /// # Errors
    ///
    /// Same as [`RtKernel::spawn_tenant_server`].
    pub fn spawn_polling_server(
        &mut self,
        period: Time,
        budget: Work,
    ) -> Result<(TaskHandle, crate::tenants::AperiodicServer), KernelError> {
        let lane = TenantQuota::new(crate::tenants::POLLING_LANE, budget, usize::MAX);
        let (handle, server) = self.spawn_tenant_server(period, budget, &[lane])?;
        Ok((handle, crate::tenants::AperiodicServer::new(server)))
    }

    /// Admits a multi-tenant polling server: one periodic task with period
    /// `period` and budget `budget`, subdivided into the given per-tenant
    /// quotas (temporal isolation — see [`crate::tenants`]). Submit
    /// requests with [`crate::tenants::TenantServer::submit`].
    ///
    /// # Errors
    ///
    /// [`KernelError::BadTenantConfig`] for an invalid quota set or quotas
    /// that sum past `budget`; otherwise the same as [`RtKernel::spawn`] —
    /// the server's full budget must pass admission.
    pub fn spawn_tenant_server(
        &mut self,
        period: Time,
        budget: Work,
        quotas: &[TenantQuota],
    ) -> Result<(TaskHandle, crate::tenants::TenantServer), KernelError> {
        let server = crate::tenants::TenantServer::new(quotas, budget)
            .map_err(KernelError::BadTenantConfig)?;
        let handle = self.spawn(period, budget, server.body())?;
        self.tenant_servers.push((handle, server.clone()));
        Ok((handle, server))
    }

    /// The multi-tenant servers currently spawned, keyed by their driving
    /// periodic task.
    #[must_use]
    pub fn tenant_servers(&self) -> &[(TaskHandle, crate::tenants::TenantServer)] {
        &self.tenant_servers
    }

    /// Removes a task. Any outstanding invocation is abandoned.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] if the handle is unknown.
    pub fn remove(&mut self, handle: TaskHandle) -> Result<(), KernelError> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.handle == handle)
            .ok_or(KernelError::NoSuchTask(handle))?;
        let _ = self.take_entry(idx);
        self.tenant_servers.retain(|(h, _)| *h != handle);
        self.log.push((self.now, KernelEvent::Removed { handle }));
        self.rebuild_and_reinit();
        Ok(())
    }

    /// Swaps the scheduler/DVS policy module without stopping the running
    /// tasks. During the swap no policy is loaded (§4.2 notes timeliness is
    /// not guaranteed across the window); here the swap is atomic in
    /// virtual time, so guarantees resume immediately.
    pub fn load_policy(&mut self, kind: PolicyKind) {
        self.policy = kind.build();
        self.policy_kind = kind;
        // An operator-loaded policy resets the degradation ladder: this is
        // the new preferred rung the ladder climbs back to.
        self.preferred_policy = kind;
        self.ladder_pos = 0;
        self.log.push((
            self.now,
            KernelEvent::PolicyLoaded {
                name: self.policy.name(),
            },
        ));
        self.rebuild_and_reinit();
    }

    /// Rebuilds the positional task set, resyncs the run loop's
    /// incremental state, and conservatively re-seeds the policy: init
    /// with the new set, then a synthetic release callback for every
    /// in-flight invocation so stateful policies (ccRM) rebuild their
    /// pacing allotments from the real remaining work. This is the loop's
    /// one O(n) resync; it runs at spawn, remove, policy load, shed,
    /// readmit, stretch, relax, mode change, ladder step and restore.
    pub(crate) fn rebuild_and_reinit(&mut self) {
        // An empty table is the one set `TaskSet::new` refuses.
        self.cached_set = TaskSet::new(self.entries.iter().map(|e| e.spec).collect()).ok();
        self.rq
            .configure(self.cached_set.as_ref().map_or(&[], TaskSet::rm_order));
        self.resync();
        // The synthetic release callbacks below read the views.
        if self.sched.active > 0 {
            self.refresh_views();
        }
        if let Some(set) = &self.cached_set {
            self.policy.init(set, &self.machine);
            let sys = SystemView {
                now: self.now,
                tasks: set,
                machine: &self.machine,
                views: &self.sched.views,
            };
            for (i, e) in self.entries.iter().enumerate() {
                if e.state == InvState::Active {
                    self.sched.ops.policy_calls += 1;
                    self.policy.on_release(TaskId(i), &sys);
                }
            }
        }
    }

    /// Rebuilds the ready queue's members, the completion candidates and
    /// the counts from `entries`, reusing every buffer, and marks the
    /// views and the release timers stale.
    fn resync(&mut self) {
        self.sched.candidates.clear();
        self.sched.active = 0;
        self.sched.deferred = 0;
        self.sched.stretched = false;
        for (i, e) in self.entries.iter().enumerate() {
            let active = e.state == InvState::Active;
            self.sched.ops.queue_ops += 1;
            if active && e.remaining().is_positive() {
                self.rq.insert(TaskId(i), e.deadline);
            } else if active {
                self.sched.candidates.push(i);
            }
            self.sched.active += usize::from(active);
            self.sched.deferred += usize::from(e.deferred);
            self.sched.stretched |= e.stretched();
        }
        self.sched.stale = true;
    }

    /// Rewrites the views and re-arms the release timers if a rebuild
    /// left them stale.
    pub(crate) fn freshen(&mut self) {
        if std::mem::take(&mut self.sched.stale) {
            self.write_views();
            self.rearm_release_timers();
        }
    }

    /// Re-arms the release timers with one per non-deferred entry.
    fn rearm_release_timers(&mut self) {
        self.sched.releases.reset(self.entries.len());
        for (i, e) in self.entries.iter().enumerate() {
            self.sched.ops.timer_ops += 1;
            if !e.deferred {
                self.sched.releases.set(i, e.next_release);
            }
        }
    }

    /// Sets entry `idx`'s release timer to its next release.
    fn schedule_release(&mut self, idx: usize) {
        if let Some(e) = self.entries.get(idx) {
            self.sched.releases.set(idx, e.next_release);
        }
        self.sched.ops.timer_ops += 1;
    }

    /// Entry `e` as the policy sees it: deferred entries read as
    /// far-future, and deadlines are tightened by the drift estimate.
    fn view_of(&self, e: &Entry) -> TaskView {
        if e.deferred {
            TaskView {
                invocation: 0,
                state: InvState::Inactive,
                executed: Work::ZERO,
                deadline: Time::from_ms(FAR_FUTURE_MS),
                next_release: Time::from_ms(FAR_FUTURE_MS),
            }
        } else {
            TaskView {
                invocation: e.invocation,
                state: e.state,
                executed: e.executed,
                // Policies see deadlines tightened by the drift
                // estimate; miss detection keeps the raw one.
                deadline: self.clock_tightened_deadline(e.deadline),
                next_release: e.next_release,
            }
        }
    }

    /// Rewrites entry `idx`'s policy view after the entry changed.
    fn sync_view(&mut self, idx: usize) {
        self.sched.ops.view_writes += 1;
        let view = self.entries.get(idx).map(|e| self.view_of(e));
        if let (Some(slot), Some(view)) = (self.sched.views.get_mut(idx), view) {
            *slot = view;
        }
    }

    /// Rewrites all n views at the current instant.
    fn write_views(&mut self) {
        self.sched.views.clear();
        for e in &self.entries {
            let view = self.view_of(e);
            self.sched.views.push(view);
        }
        self.sched.ops.view_writes += self.entries.len() as u64;
        self.sched.views_tightened = self.clock_tightens_deadlines();
    }

    /// Brings the views up to date before a policy callback. Under a drift
    /// estimate a tightened deadline depends on `now`, so all n are
    /// rewritten before every callback, and once more after the estimate
    /// goes: the per-callback O(n) cost is paid only by kernels with a
    /// clock fault plan.
    fn refresh_views(&mut self) {
        if self.sched.stale {
            self.freshen();
        } else if self.sched.views_tightened || self.clock_tightens_deadlines() {
            self.write_views();
        }
    }

    fn notify(&mut self, idx: usize, is_release: bool) {
        if self.cached_set.is_none() {
            return;
        }
        self.refresh_views();
        self.sched.ops.policy_calls += 1;
        let Some(set) = &self.cached_set else { return };
        let sys = SystemView {
            now: self.now,
            tasks: set,
            machine: &self.machine,
            views: &self.sched.views,
        };
        if is_release {
            self.policy.on_release(TaskId(idx), &sys);
        } else {
            self.policy.on_completion(TaskId(idx), &sys);
        }
    }

    fn remaining(&self, idx: usize) -> Work {
        self.entries.get(idx).map_or(Work::ZERO, Entry::remaining)
    }

    fn complete(&mut self, idx: usize) {
        let now = self.now;
        let e = &mut self.entries[idx];
        e.executed = e.actual;
        e.state = InvState::Completed;
        e.body.on_invocation_complete(e.invocation, now);
        e.observed_peak = e.observed_peak.max(e.actual);
        if e.actual.as_ms() > e.user_spec.wcet().as_ms() + EPS && !e.overrun_logged {
            e.overrun_logged = true;
            if self.degrade_on_fault {
                e.pending_shed = true;
            }
            let ev = KernelEvent::Overrun {
                handle: e.handle,
                invocation: e.invocation,
                used: e.actual,
                bound: e.user_spec.wcet(),
            };
            self.log.push((self.now, ev));
        }
        self.sched.active = self.sched.active.saturating_sub(1);
        self.rq.remove(TaskId(idx));
        self.sched.ops.queue_ops += 1;
        self.sync_view(idx);
        let ev = KernelEvent::Completed {
            handle: self.entries[idx].handle,
            invocation: self.entries[idx].invocation,
        };
        self.log.push((self.now, ev));
        self.notify(idx, false);
    }

    pub(crate) fn release(&mut self, idx: usize) {
        let period = self.entries[idx].spec.period();
        let scheduled = self.entries[idx].next_release;
        let was_active = self.entries[idx].state == InvState::Active;
        if was_active {
            let ev = KernelEvent::DeadlineMiss {
                handle: self.entries[idx].handle,
                invocation: self.entries[idx].invocation,
                remaining: self.remaining(idx),
            };
            self.log.push((self.now, ev));
            if self.degrade_on_fault {
                // Don't re-release a misbehaving task: shed it at the
                // next event-processing pass instead.
                let e = &mut self.entries[idx];
                e.observed_peak = e.observed_peak.max(e.actual);
                e.pending_shed = true;
                return;
            }
        }
        let e = &mut self.entries[idx];
        e.invocation += 1;
        e.state = InvState::Active;
        e.executed = Work::ZERO;
        e.deadline = e.next_release + period;
        e.next_release += period;
        e.overrun_logged = false;
        let inv = e.invocation;
        e.actual = e.body.run(inv, &e.user_spec).max(Work::ZERO);
        let deadline = e.deadline;
        if !was_active {
            self.sched.active += 1;
        }
        self.schedule_release(idx);
        // A re-release after a miss repositions the entry; a zero-work
        // release is one of the two ways an invocation runs out of work.
        self.sched.ops.queue_ops += 1;
        if self.remaining(idx).is_positive() {
            self.rq.insert(TaskId(idx), deadline);
        } else {
            self.rq.remove(TaskId(idx));
            self.sched.candidates.push(idx);
        }
        self.sync_view(idx);
        self.note_release_latency(idx, inv, scheduled);
        let ev = KernelEvent::Released {
            handle: self.entries[idx].handle,
            invocation: inv,
        };
        self.log.push((self.now, ev));
        self.notify(idx, true);
    }

    /// Handles every entry marked `pending_shed`. First resort: the
    /// overload governor renegotiates the misbehaving bounds and, when the
    /// renegotiated set no longer fits at nominal rates, contains the
    /// overload by elastic period stretching in criticality order. Only
    /// when stretching cannot help (or the set still fits at nominal, where
    /// the ordinary one-period shed/readmit penalty applies) are tasks
    /// evicted and stashed for periodic re-admission attempts. Returns
    /// whether anything changed.
    fn shed_pending(&mut self) -> bool {
        // A degraded-mode scan: it stays O(n) and is counted as such.
        self.sched.ops.queue_ops += self.entries.len() as u64;
        if !self.entries.iter().any(|e| e.pending_shed) {
            return false;
        }
        if self.try_stretch_containment() {
            return true;
        }
        let mut any = false;
        let mut i = 0;
        while i < self.entries.len() {
            if !self.entries[i].pending_shed {
                i += 1;
                continue;
            }
            let e = self.take_entry(i);
            if self.shed.is_empty() {
                self.log
                    .push((self.now, KernelEvent::Degraded { active: true }));
            }
            let ev = KernelEvent::Shed {
                handle: e.handle,
                observed: e.observed_peak,
            };
            self.log.push((self.now, ev));
            self.shed.push(ShedTask {
                handle: e.handle,
                period: e.user_spec.period(),
                wcet: e.user_spec.wcet(),
                observed_peak: e.observed_peak,
                invocation: e.invocation,
                body: e.body,
                next_attempt: self.now + e.user_spec.period(),
            });
            any = true;
        }
        if any {
            self.rebuild_and_reinit();
        }
        any
    }

    /// The overload governor's first resort: when the set with misbehaving
    /// bounds renegotiated to observed peaks no longer fits at nominal
    /// rates, searches [`rtdvs_core::analysis::elastic_stretch_assignment`]
    /// for the minimal period stretch (least-critical tasks first — the
    /// most recently admitted handles) that makes it fit, and applies it in
    /// place: no task leaves the set, the misbehaving invocation is
    /// abandoned, and everyone re-passes admission at the stretched rates.
    ///
    /// Returns `false` without touching anything when the renegotiated set
    /// still fits at nominal rates (the ordinary shed/readmit penalty is
    /// the right tool there) or when no ladder assignment helps.
    fn try_stretch_containment(&mut self) -> bool {
        let stall = self.stall_budget();
        let nominal: Option<Vec<Task>> = self
            .entries
            .iter()
            .map(|e| {
                let bound = if e.pending_shed {
                    e.user_spec.wcet().max(e.observed_peak)
                } else {
                    e.user_spec.wcet()
                };
                Task::new(e.nominal_period, bound).ok()
            })
            .collect();
        // A bound beyond even the nominal period is out of the elastic
        // model's reach; leave it to the shed path.
        let Some(nominal) = nominal else { return false };
        // Under a brownout cap the governor must contain the overload at
        // the capped top frequency, so feasibility scales every bound up
        // by the capped speed (1.0 when uncapped — a no-op).
        let scale = self.cap_scale();
        let policy = &self.policy;
        let feasible = |tasks: &[Task]| -> bool {
            let specs: Option<Vec<Task>> = tasks
                .iter()
                .map(|t| {
                    t.with_inflated_wcet(stall).ok().and_then(|t| {
                        Task::new(t.period(), Work::from_ms(t.wcet().as_ms() / scale)).ok()
                    })
                })
                .collect();
            match specs.and_then(|s| TaskSet::new(s).ok()) {
                Some(candidate) => policy.guarantees(&candidate),
                None => false,
            }
        };
        if feasible(&nominal) {
            return false;
        }
        // Least critical first: the highest (most recently issued) handles.
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| self.entries[b].handle.cmp(&self.entries[a].handle));
        let Some(factors) =
            rtdvs_core::analysis::elastic_stretch_assignment(&nominal, &order, |set| {
                feasible(set.tasks())
            })
        else {
            return false;
        };
        let stretched = factors.iter().filter(|&&f| f > 1.0).count();
        let factor = factors.iter().copied().fold(1.0, f64::max);
        let mut renegotiated: Vec<(TaskHandle, Work)> = Vec::new();
        for i in 0..self.entries.len() {
            let period = Time::from_ms(self.entries[i].nominal_period.as_ms() * factors[i]);
            let bound = nominal[i].wcet();
            let user_spec = Task::new(period, bound)
                .expect("candidate validated by elastic_stretch_assignment");
            let spec = user_spec
                .with_inflated_wcet(stall)
                .expect("candidate validated by elastic_stretch_assignment");
            let e = &mut self.entries[i];
            if e.pending_shed {
                if bound.as_ms() > e.user_spec.wcet().as_ms() + EPS {
                    renegotiated.push((e.handle, bound));
                }
                // Abandon the missed invocation, if one is outstanding; the
                // task re-releases at its contained rate.
                if e.state == InvState::Active {
                    e.executed = e.actual;
                    e.state = InvState::Completed;
                }
                e.pending_shed = false;
                e.overrun_logged = false;
            }
            e.user_spec = user_spec;
            e.spec = spec;
        }
        for (handle, bound) in renegotiated {
            self.log
                .push((self.now, KernelEvent::Renegotiated { handle, bound }));
        }
        self.log.push((
            self.now,
            KernelEvent::GovernorStretched { stretched, factor },
        ));
        self.rebuild_and_reinit();
        true
    }

    /// Hysteresis half of the governor, run at quiescent instants: when
    /// every stretched task would fit again at its nominal period *with
    /// utilization headroom* (so a marginal set does not flap between
    /// stretched and nominal), restore the nominal rates.
    fn relax_stretch(&mut self) -> bool {
        /// Utilization ceiling for relaxing back to nominal.
        const RELAX_HEADROOM: f64 = 0.95;
        if !self.sched.stretched || !self.shed.is_empty() {
            return false;
        }
        self.sched.ops.queue_ops += self.entries.len() as u64;
        if self.entries.iter().any(|e| e.pending_shed) {
            return false;
        }
        let stall = self.stall_budget();
        // Same cap scaling as the stretch search: never relax back to
        // nominal rates the capped ladder cannot carry.
        let scale = self.cap_scale();
        let specs: Option<Vec<Task>> = self
            .entries
            .iter()
            .map(|e| {
                Task::new(e.nominal_period, e.user_spec.wcet())
                    .ok()
                    .and_then(|t| t.with_inflated_wcet(stall).ok())
                    .and_then(|t| {
                        Task::new(t.period(), Work::from_ms(t.wcet().as_ms() / scale)).ok()
                    })
            })
            .collect();
        let Some(specs) = specs else { return false };
        let Ok(candidate) = TaskSet::new(specs) else {
            return false;
        };
        if !self.policy.guarantees(&candidate) || candidate.total_utilization() > RELAX_HEADROOM {
            return false;
        }
        for e in &mut self.entries {
            let user_spec = Task::new(e.nominal_period, e.user_spec.wcet())
                .expect("validated by the relax candidate");
            e.user_spec = user_spec;
            e.spec = user_spec
                .with_inflated_wcet(stall)
                .expect("validated by the relax candidate");
        }
        self.log.push((self.now, KernelEvent::GovernorRelaxed));
        self.rebuild_and_reinit();
        true
    }

    /// Retries admission for every shed task whose attempt time is due,
    /// with the bound renegotiated to `max(declared, observed peak)`.
    /// Returns whether anything rejoined the set.
    fn try_readmit(&mut self) -> bool {
        let mut any = false;
        let mut i = 0;
        while i < self.shed.len() {
            self.sched.ops.timer_ops += 1;
            if !self.shed[i].next_attempt.at_or_before(self.now) {
                i += 1;
                continue;
            }
            let period = self.shed[i].period;
            let bound = self.shed[i].wcet.max(self.shed[i].observed_peak);
            let admitted = Task::new(period, bound).ok().and_then(|user_spec| {
                let spec = user_spec.with_inflated_wcet(self.stall_budget()).ok()?;
                let mut specs: Vec<Task> = self.entries.iter().map(|e| e.spec).collect();
                specs.push(spec);
                let candidate = TaskSet::new(specs).ok()?;
                self.policy
                    .guarantees(&candidate)
                    .then_some((user_spec, spec))
            });
            let Some((user_spec, spec)) = admitted else {
                // Still does not fit; retry a period later.
                self.shed[i].next_attempt = self.now + period;
                i += 1;
                continue;
            };
            let t = self.shed.remove(i);
            let deferred = self.defer_new_tasks && self.sched.active > 0;
            self.insert_entry(Entry {
                handle: t.handle,
                spec,
                user_spec,
                nominal_period: period,
                body: t.body,
                invocation: t.invocation,
                state: InvState::Inactive,
                executed: Work::ZERO,
                actual: Work::ZERO,
                deadline: self.now + period,
                next_release: self.now,
                deferred,
                overrun_logged: false,
                observed_peak: t.observed_peak,
                pending_shed: false,
            });
            self.log.push((
                self.now,
                KernelEvent::Readmitted {
                    handle: t.handle,
                    bound,
                },
            ));
            if self.shed.is_empty() {
                self.log
                    .push((self.now, KernelEvent::Degraded { active: false }));
            }
            self.rebuild_and_reinit();
            any = true;
        }
        any
    }

    fn process_due_events(&mut self) {
        loop {
            let mut progressed = false;
            if self.degrade_on_fault {
                progressed |= self.shed_pending();
                progressed |= self.try_readmit();
            }
            progressed |= self.complete_candidates();
            // A quiescent instant — no invocation in flight — is the safe
            // point for every whole-set change: staged mode changes commit,
            // the governor relaxes, and deferred first releases fire.
            let quiescent = self.sched.active == 0;
            if quiescent {
                if self.pending_change.is_some() {
                    progressed |= crate::modechange::commit_staged(self);
                }
                progressed |= self.relax_stretch();
                if self.brownout_cap.is_some() || self.regulator.is_some() || self.ladder_pos > 0 {
                    progressed |= self.review_ladder();
                }
                if self.supervisor.is_some() {
                    progressed |= self.supervisor_tick();
                }
            }
            // Deferred tasks release once nothing is in flight (§4.3: "the
            // effects of past DVS decisions, based on the old task set,
            // will have expired").
            if quiescent && self.sched.deferred > 0 {
                self.undefer_all();
                progressed = true;
            }
            progressed |= self.process_due_releases();
            if !progressed {
                break;
            }
        }
    }

    /// Completes every candidate whose invocation has run out of work, in
    /// ascending entry order: the order a scan of every entry finds them
    /// in. Returns whether anything completed.
    fn complete_candidates(&mut self) -> bool {
        if self.sched.candidates.is_empty() {
            return false;
        }
        let mut candidates = std::mem::take(&mut self.sched.candidates);
        candidates.sort_unstable();
        candidates.dedup();
        let mut any = false;
        for &i in &candidates {
            let out_of_work = self
                .entries
                .get(i)
                .is_some_and(|e| e.state == InvState::Active)
                && !self.remaining(i).is_positive();
            if out_of_work {
                self.complete(i);
                any = true;
            }
        }
        // `complete` marks no candidate, so the emptied buffer goes back
        // with its capacity.
        candidates.clear();
        self.sched.candidates = candidates;
        any
    }

    /// Releases every deferred entry at the current (quiescent) instant.
    fn undefer_all(&mut self) {
        let now = self.now;
        for i in 0..self.entries.len() {
            self.sched.ops.timer_ops += 1;
            let e = &mut self.entries[i];
            if e.deferred {
                e.deferred = false;
                e.next_release = now;
                e.deadline = now + e.spec.period();
                self.schedule_release(i);
                self.sync_view(i);
            }
        }
        self.sched.deferred = 0;
    }

    /// Books the switch + stall for landing on `point`, exactly like the
    /// pre-regulator kernel did.
    fn account_switch(&mut self, point: PointIdx) {
        if self.applied == Some(point) {
            return;
        }
        if let Some(prev) = self.applied {
            self.switches += 1;
            let voltage_changed =
                (self.machine.point(prev).volts - self.machine.point(point).volts).abs() > EPS;
            if let Some(ov) = self.switch_overhead {
                self.stall_until = self.now
                    + if voltage_changed {
                        ov.voltage_change
                    } else {
                        ov.freq_only
                    };
            }
        }
        self.applied = Some(point);
    }

    /// Slack to the earliest active deadline — the budget the retry
    /// ladder's backoff may eat into without endangering schedulability.
    /// `None` when nothing is in flight (no deadline pressure).
    fn retry_slack(&self) -> Option<Time> {
        self.entries
            .iter()
            .filter(|e| e.state == InvState::Active)
            .map(|e| e.deadline)
            .min_by(|a, b| a.as_ms().total_cmp(&b.as_ms()))
            .map(|d| self.clock_reduced_slack((d - self.now).max(Time::ZERO)))
    }

    /// Backoff inserted after failed attempt `attempt`: exponential in the
    /// frequency-only stop interval, clamped so the whole bounded ladder
    /// cannot burn more than half the earliest active deadline's slack —
    /// the "deadline-aware" half of retry-with-backoff.
    fn retry_backoff(&self, attempt: usize, slack: Option<Time>) -> Time {
        /// Fraction of the earliest deadline's slack the whole retry
        /// ladder may consume as backoff.
        const BACKOFF_SLACK_FRACTION: f64 = 0.5;
        let base = self
            .switch_overhead
            .map_or(Time::from_us(41.0), |ov| ov.freq_only);
        let exp = Time::from_ms(base.as_ms() * (1u64 << attempt.min(20)) as f64);
        match slack {
            None => exp,
            Some(s) => exp.min(Time::from_ms(
                s.as_ms() * BACKOFF_SLACK_FRACTION / MAX_TRANSITION_ATTEMPTS as f64,
            )),
        }
    }

    fn apply_point(&mut self, desired: PointIdx) {
        let desired = match self.brownout_cap {
            Some(cap) => desired.min(cap.min(self.machine.highest())),
            None => desired,
        };
        if self.applied == Some(desired) {
            return;
        }
        let Some(mut reg) = self.regulator.take() else {
            // No regulator attached: transitions always land.
            self.account_switch(desired);
            return;
        };
        // Regulator-backed transition driver: bounded retries per target
        // with deadline-aware backoff, escalating the target *upward* when
        // a point will not land (frequency rounds up, never down, so any
        // demand the policy committed to stays covered) and forcing the
        // fail-safe rail at the top of the capped ladder as a last resort.
        let top = self.brownout_cap.map_or(self.machine.highest(), |cap| {
            cap.min(self.machine.highest())
        });
        let slack = self.retry_slack();
        self.sched.ops.queue_ops = self
            .sched
            .ops
            .queue_ops
            .saturating_add(self.entries.len() as u64);
        let mut extra_stall = Time::ZERO;
        let mut landed: Option<PointIdx> = None;
        'targets: for target in desired..=top {
            for attempt in 0..MAX_TRANSITION_ATTEMPTS {
                if attempt > 0 || target > desired {
                    self.transition_retries = self.transition_retries.saturating_add(1);
                }
                match reg.attempt(self.applied, target) {
                    TransitionOutcome::Applied { settle_extra } => {
                        extra_stall += settle_extra;
                        landed = Some(target);
                        break 'targets;
                    }
                    TransitionOutcome::Failed => {
                        self.transition_failures = self.transition_failures.saturating_add(1);
                    }
                    TransitionOutcome::TimedOut { lost } => {
                        self.transition_failures = self.transition_failures.saturating_add(1);
                        extra_stall += lost;
                    }
                }
                extra_stall += self.retry_backoff(attempt, slack);
            }
        }
        let final_point = match landed {
            Some(p) => p,
            None => {
                extra_stall += reg.force(top);
                self.forced_transitions = self.forced_transitions.saturating_add(1);
                top
            }
        };
        self.account_switch(final_point);
        if extra_stall.as_ms() > 0.0 {
            self.stall_until = self.stall_until.max(self.now) + extra_stall;
        }
        if final_point != desired {
            self.regulator_fallbacks = self.regulator_fallbacks.saturating_add(1);
            self.log.push((
                self.now,
                KernelEvent::RegulatorFallback {
                    desired,
                    applied: final_point,
                },
            ));
        }
        self.regulator = Some(reg);
    }

    /// The capped top frequency (1.0 when uncapped): a task bound C under
    /// cap frequency f demands C/f of the full-speed processor.
    fn cap_scale(&self) -> f64 {
        match self.brownout_cap {
            Some(cap) => self.machine.point(cap.min(self.machine.highest())).freq,
            None => 1.0,
        }
    }

    /// Whether the current task set passes `kind`'s admission test with
    /// every bound scaled up by the capped top frequency, and with scaled
    /// utilization at or under `headroom`.
    fn capped_feasible_at(&self, kind: PolicyKind, headroom: f64) -> bool {
        if self.entries.is_empty() {
            return true;
        }
        let scale = self.cap_scale();
        let specs: Option<Vec<Task>> = self
            .entries
            .iter()
            .map(|e| {
                Task::new(
                    e.spec.period(),
                    Work::from_ms(e.spec.wcet().as_ms() / scale),
                )
                .ok()
            })
            .collect();
        match specs.and_then(|s| TaskSet::new(s).ok()) {
            Some(set) => kind.build().guarantees(&set) && set.total_utilization() <= headroom,
            None => false,
        }
    }

    /// The degradation ladder, top to bottom: the operator's preferred
    /// policy, then laEDF → ccEDF → StaticEDF → a manual pin at the top of
    /// the (possibly capped) point ladder. Every switch is a fault
    /// opportunity on a flaky regulator, so each rung transitions less
    /// eagerly than the one above, and the bottom rung transitions never.
    fn ladder_rungs(&self) -> Vec<PolicyKind> {
        let top = self.brownout_cap.map_or(self.machine.highest(), |cap| {
            cap.min(self.machine.highest())
        });
        let mut rungs = vec![self.preferred_policy];
        for kind in [
            PolicyKind::LaEdf,
            PolicyKind::CcEdf,
            PolicyKind::StaticEdf,
            PolicyKind::Manual {
                scheduler: SchedulerKind::Edf,
                point: top,
            },
        ] {
            if !rungs.contains(&kind) {
                rungs.push(kind);
            }
        }
        rungs
    }

    /// Moves the policy to `rungs[to]`, logging the step. Unlike
    /// [`RtKernel::load_policy`] this leaves the preferred policy alone,
    /// so the ladder can climb back when conditions recover.
    fn step_ladder(&mut self, to: usize, rungs: &[PolicyKind]) {
        let from = self.policy.name();
        let to = to.min(rungs.len() - 1);
        let kind = rungs[to];
        self.ladder_pos = to;
        self.policy = kind.build();
        self.policy_kind = kind;
        self.log.push((
            self.now,
            KernelEvent::LadderStepped {
                from,
                to: self.policy.name(),
            },
        ));
        self.rebuild_and_reinit();
    }

    /// Pins the ladder at its bottom rung — the supervisor's refuge when
    /// restores flap: a manual pin makes zero further transitions, so a
    /// regulator that cannot transition reliably is never asked to.
    pub(crate) fn pin_ladder_bottom(&mut self) {
        let rungs = self.ladder_rungs();
        if self.ladder_pos + 1 >= rungs.len() {
            return;
        }
        self.step_ladder(rungs.len() - 1, &rungs);
    }

    /// The brownout/regulator governor, run at quiescent instants: steps
    /// the policy one rung down when the capped set fails the active
    /// policy's admission test or the last review window saw repeated
    /// fallback containment, and climbs one rung back after a clean window
    /// with capped headroom. When even the lower rung cannot pass under
    /// the cap, the overload is handed to the elastic governor, whose
    /// stretch search is cap-aware.
    fn review_ladder(&mut self) -> bool {
        if !self.ladder_review_at.at_or_before(self.now) {
            return false;
        }
        self.ladder_review_at = self.now + Time::from_ms(LADDER_REVIEW_PERIOD_MS);
        let window_fallbacks = self
            .regulator_fallbacks
            .saturating_sub(self.fallbacks_at_review);
        self.fallbacks_at_review = self.regulator_fallbacks;
        let rungs = self.ladder_rungs();
        let pos = self.ladder_pos.min(rungs.len() - 1);
        let active_ok = self.capped_feasible_at(self.policy_kind, 1.0);
        if !active_ok || window_fallbacks >= LADDER_FALLBACK_THRESHOLD {
            let mut acted = false;
            if pos + 1 < rungs.len() {
                self.step_ladder(pos + 1, &rungs);
                acted = true;
            }
            if !self.capped_feasible_at(self.policy_kind, 1.0) {
                acted |= self.try_stretch_containment();
            }
            return acted;
        }
        if window_fallbacks == 0 && pos > 0 {
            let up = rungs[pos - 1];
            if self.capped_feasible_at(up, LADDER_CLIMB_HEADROOM) {
                self.step_ladder(pos - 1, &rungs);
                return true;
            }
        }
        false
    }

    /// Advances the kernel's virtual clock to `t`, running tasks and
    /// charging energy along the way. Returns immediately if `t` is not in
    /// the future.
    ///
    /// Each iteration is one decision interval and costs O(1) counted
    /// operations in the number of tasks, a tree update among them at
    /// most ⌈log₂ n⌉ node comparisons: the ready queue, the release
    /// timers, the policy views, the completion candidates and the counts
    /// are all kept in step where entries change (see [`SchedState`]).
    pub fn run_until(&mut self, t: Time) {
        while self.now.definitely_before(t) {
            self.sched.events += 1;
            self.process_due_events();

            // Grant any due policy review (see `DvsPolicy::review_at`).
            if let Some(review) = self.policy.review_at() {
                if review.at_or_before(self.now) && self.cached_set.is_some() {
                    self.refresh_views();
                    self.sched.ops.policy_calls += 1;
                    if let Some(set) = &self.cached_set {
                        let sys = SystemView {
                            now: self.now,
                            tasks: set,
                            machine: &self.machine,
                            views: &self.sched.views,
                        };
                        self.policy.on_review(&sys);
                    }
                }
            }

            self.sanitize();
            let running = if self.cached_set.is_some() {
                self.sched.ops.queue_ops += 1;
                self.rq.pick(self.policy.scheduler())
            } else {
                None
            };
            let desired = if running.is_some() {
                self.policy.current_point()
            } else if self.cached_set.is_some() {
                self.policy.idle_point(&self.machine)
            } else {
                // Empty kernel: sleep at the bottom of the ladder.
                self.machine.lowest()
            };
            // An engaged stalled-tick watchdog escalates to the capped
            // fail-safe rail — upward only.
            let desired = self.clock_failsafe_point(desired);
            self.apply_point(desired);
            // Under a regulator the point that landed may sit above the
            // desired one (safe-point fallback); run and charge at what
            // the hardware actually does. Without a regulator the two are
            // always equal.
            let landed = self.applied.unwrap_or(desired);
            let op = self.machine.point(landed);

            let mut t_next = t;
            if let Some(release) = self.next_release_event() {
                t_next = t_next.min(release);
            }
            for shed in &self.shed {
                self.sched.ops.timer_ops += 1;
                t_next = t_next.min(shed.next_attempt.max(self.now));
            }
            if let Some(tick) = self.timebase.next_tick_at() {
                t_next = t_next.min(tick.max(self.now));
            }
            if let Some(id) = running {
                let exec_start = self.now.max(self.stall_until);
                t_next = t_next.min(exec_start + self.remaining(id.0).duration_at(op.freq));
            }
            if let Some(review) = self.policy.review_at() {
                if review.definitely_before(t_next) && self.now.definitely_before(review) {
                    t_next = review;
                }
            }
            t_next = t_next.min(t).max(self.now);

            let stall_end = self.stall_until.min(t_next).max(self.now);
            if stall_end > self.now {
                self.meter.charge_stall(stall_end - self.now);
                self.sched.ops.meter_intervals += 1;
                if let Some(tr) = &mut self.trace {
                    tr.push(self.now, stall_end, landed, Activity::Stall);
                }
            }
            if t_next > stall_end {
                let d = t_next - stall_end;
                self.sched.ops.meter_intervals += 1;
                match running {
                    Some(id) => {
                        self.meter.charge_busy(&self.machine, landed, d);
                        self.entries[id.0].executed += d.work_at(op.freq);
                        self.sync_view(id.0);
                        if !self.remaining(id.0).is_positive() {
                            self.rq.remove(id);
                            self.sched.ops.queue_ops += 1;
                            self.sched.candidates.push(id.0);
                        }
                        if let Some(tr) = &mut self.trace {
                            tr.push(stall_end, t_next, landed, Activity::Run(id));
                        }
                    }
                    None => {
                        self.meter.charge_idle(&self.machine, landed, d);
                        if let Some(tr) = &mut self.trace {
                            tr.push(stall_end, t_next, landed, Activity::Idle);
                        }
                    }
                }
            }
            self.advance_clock(t_next);
        }
        self.process_due_events();
    }

    /// Debug-build cross-check of the incremental run-loop state against
    /// a full scan of `entries`, once per loop iteration just before the
    /// pick (the kernel's counterpart of the engine's sanitizer), the pick
    /// included. Compiled out of release builds.
    #[cfg(debug_assertions)]
    fn sanitize(&self) {
        // Stale views and timers are rebuilt before their next use.
        // Tightened deadlines hold only for the instant they were written
        // at: under a drift estimate the next callback rewrites them all.
        let timers = !self.sched.stale;
        let views = timers && !self.sched.views_tightened && !self.clock_tightens_deadlines();
        if timers {
            assert_eq!(
                self.sched.views.len(),
                self.entries.len(),
                "view mirror length"
            );
        }
        let (mut active, mut deferred, mut stretched) = (0, 0, false);
        for (i, e) in self.entries.iter().enumerate() {
            let is_active = e.state == InvState::Active;
            let has_work = self.remaining(i).is_positive();
            active += usize::from(is_active);
            deferred += usize::from(e.deferred);
            stretched |= e.stretched();
            assert_eq!(
                self.rq.contains(TaskId(i)),
                is_active && has_work,
                "{}: ready-queue membership disagrees with its state",
                e.handle
            );
            if is_active && !has_work {
                assert!(
                    self.sched.candidates.contains(&i),
                    "{}: out of work but not a completion candidate",
                    e.handle
                );
            }
            if timers {
                assert_eq!(
                    self.sched.releases.get(i),
                    (!e.deferred).then_some(e.next_release),
                    "{}: release timer disagrees with the entry",
                    e.handle
                );
            }
            if views {
                let want = self.view_of(e);
                assert_eq!(
                    self.sched.views[i], want,
                    "{}: policy view out of sync",
                    e.handle
                );
            }
        }
        assert_eq!(self.sched.active, active, "active count");
        assert_eq!(self.sched.deferred, deferred, "deferred count");
        assert_eq!(self.sched.stretched, stretched, "stretched flag");
        if let Some(set) = &self.cached_set {
            let ready: Vec<(TaskId, Time)> = (0..self.entries.len())
                .filter(|&i| self.rq.contains(TaskId(i)))
                .map(|i| (TaskId(i), self.entries[i].deadline))
                .collect();
            let kind = self.policy.scheduler();
            assert_eq!(
                self.rq.pick(kind),
                kind.pick_next(set, &ready),
                "ready-queue pick disagrees with a scan of its members"
            );
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn sanitize(&self) {}

    /// Advances the virtual clock by `d`.
    pub fn run_for(&mut self, d: Time) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// A human-readable status dump, in the spirit of
    /// `cat /proc/rtdvs` on the prototype.
    #[must_use]
    pub fn status(&self) -> String {
        let mut s = String::new();
        let last_snapshot = match self.last_snapshot_at {
            Some(t) => format!("{:.3}ms", t.as_ms()),
            None => "never".to_string(),
        };
        let _ = writeln!(
            s,
            "rtdvs: t={:.3}ms policy={} freq={:.3} energy={:.3} overruns={} degraded={} \
             epoch={} governor={} last_snapshot={}",
            self.now.as_ms(),
            self.policy.name(),
            self.current_frequency(),
            self.energy(),
            self.overruns(),
            if self.degraded() { "yes" } else { "no" },
            self.mode_epoch,
            self.governor(),
            last_snapshot,
        );
        for e in &self.entries {
            let state = match (e.deferred, e.state) {
                (true, _) => "deferred",
                (false, InvState::Inactive) => "inactive",
                (false, InvState::Active) => "active",
                (false, InvState::Completed) => "waiting",
            };
            let stretch = if e.stretched() {
                format!(" stretched(nominal={:.3}ms)", e.nominal_period.as_ms())
            } else {
                String::new()
            };
            let _ = writeln!(
                s,
                "  {}: P={:.3}ms C={:.3}ms inv={} state={} exec={:.3} deadline={:.3}ms{}",
                e.handle,
                e.spec.period().as_ms(),
                e.spec.wcet().as_ms(),
                e.invocation,
                state,
                e.executed.as_ms(),
                e.deadline.as_ms(),
                stretch,
            );
        }
        for shed in &self.shed {
            let _ = writeln!(
                s,
                "  {}: P={:.3}ms C={:.3}ms state=shed observed={:.3}ms retry@{:.3}ms",
                shed.handle,
                shed.period.as_ms(),
                shed.wcet.as_ms(),
                shed.observed_peak.as_ms(),
                shed.next_attempt.as_ms(),
            );
        }
        s
    }
}
