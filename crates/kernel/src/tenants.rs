//! Aperiodic serving (§2.2, footnote 1): one periodic polling server
//! whose budget is split into per-tenant lanes.
//!
//! The paper's task model is strictly periodic, but it notes that
//! "aperiodic and sporadic tasks can be handled by a periodic or deferred
//! server, (and) for non-real-time tasks, too, we can provision processor
//! time using a similar periodic server approach". A [`TenantServer`] is
//! that server: one periodic task with period `P_s` and budget `C_s` (so
//! admission and the DVS policies see exactly one task, and every hard-RT
//! guarantee of §2.2 is untouched) that, at each release, serves queued
//! jobs FIFO. A release that finds every queue empty forfeits its budget,
//! and the DVS policies reclaim whatever budget a period does not use.
//!
//! The classic polling server is the one-lane case.
//! [`crate::RtKernel::spawn_polling_server`] gives the lone lane,
//! [`POLLING_LANE`], the whole budget as its quota and an unbounded
//! backlog, and returns an [`AperiodicServer`] handle on it. A job of work
//! `w ≤ C_s` submitted at time `t` then completes within
//! `ceil(w / C_s) + 1` server periods of `t` under light load, the
//! standard polling-server response bound.
//!
//! With more lanes the budget is subdivided into per-tenant CPU quotas
//! that are replenished at every server release and enforced at dispatch:
//!
//! * **Temporal isolation** — each release first serves every tenant FIFO
//!   up to its own quota, in tenant-id order. A tenant that stays at or
//!   under its quota gets its guaranteed slice no matter what any other
//!   tenant does.
//! * **Bounded work conservation** — budget left over after the
//!   guaranteed pass is handed to still-backlogged, non-quarantined
//!   tenants in id order, capped at one extra quota per tenant per
//!   period. An idle tenant's reservation is not wasted, yet no burst can
//!   absorb the whole leftover and inflate everyone else's completion
//!   times: per-period service is bounded by 2 × quota.
//! * **Deadline-aware backpressure** — every tenant queue is bounded; an
//!   arrival beyond `max_backlog` sheds the *oldest* queued request (the
//!   one with the least chance of a useful response) to admit the new one,
//!   and the submitter is told which job was dropped.
//! * **Flooding-tenant quarantine** — a tenant whose backlog exceeds
//!   [`QUARANTINE_BACKLOG_FACTOR`] × quota for
//!   [`QUARANTINE_STREAK`] consecutive releases is quarantined: new
//!   submissions are rejected with a retry-after hint (periods until the
//!   backlog drains at the guaranteed rate) and the tenant is excluded
//!   from the work-conserving pass. Quarantine throttles *admission*, not
//!   *service*: the guaranteed quota keeps draining the backlog, so the
//!   tenant recovers (and leaves quarantine) instead of starving forever.
//!   Only a lane that shares its server is reviewed: a lone lane has no
//!   neighbour to protect, so the polling server never rejects a job.
//!
//! All per-tenant budget state lives behind one mutex and is mutated only
//! here, on the replenishment/dispatch path — enforced by the repo lint
//! `tenant-budget-mutation` (xtask), so no other kernel code can hand a
//! tenant extra budget.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use rtdvs_core::task::Task;
use rtdvs_core::tenant::{TenantId, TenantQuota};
use rtdvs_core::time::{Time, Work, EPS};

use crate::body::{BodyState, TaskBody};

/// Backlog-to-quota ratio beyond which a lane counts as flooding.
pub const QUARANTINE_BACKLOG_FACTOR: f64 = 4.0;

/// Consecutive flooding releases before quarantine engages.
pub const QUARANTINE_STREAK: u32 = 3;

/// The lone lane of a polling server spawned with
/// [`crate::RtKernel::spawn_polling_server`].
pub const POLLING_LANE: TenantId = TenantId::from_raw(0);

/// Identifier of a submitted aperiodic job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// The raw identifier, for serialization.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    pub(crate) fn from_raw(id: u64) -> JobId {
        JobId(id)
    }
}

/// A finished aperiodic job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedJob {
    /// The job.
    pub id: JobId,
    /// When it was submitted.
    pub arrival: Time,
    /// When the server invocation that finished it completed.
    pub completed: Time,
    /// Total work it required.
    pub work: Work,
}

impl CompletedJob {
    /// The job's response time.
    #[must_use]
    pub fn response_time(&self) -> Time {
        self.completed - self.arrival
    }
}

/// One queued or finishing job of a [`TenantLaneSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// Raw [`JobId`].
    pub id: u64,
    /// When the job was submitted.
    pub arrival: Time,
    /// Total work it requires.
    pub total: Work,
    /// Work still unserved.
    pub remaining: Work,
}

/// Why a tenant configuration was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantConfigError {
    /// No tenants were given.
    NoTenants,
    /// Two reservations name the same tenant.
    DuplicateTenant(TenantId),
    /// A quota was zero or negative.
    NonPositiveQuota(TenantId),
    /// A backlog bound was zero (every arrival would be shed).
    ZeroBacklog(TenantId),
    /// The quotas sum past the server's admitted budget, so the
    /// per-tenant guarantees could not all be honored in one period.
    QuotaExceedsBudget {
        /// Sum of all quotas.
        total: Work,
        /// The server budget they must fit in.
        budget: Work,
    },
}

impl fmt::Display for TenantConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantConfigError::NoTenants => write!(f, "at least one tenant is required"),
            TenantConfigError::DuplicateTenant(t) => write!(f, "duplicate reservation for {t}"),
            TenantConfigError::NonPositiveQuota(t) => write!(f, "{t} has a non-positive quota"),
            TenantConfigError::ZeroBacklog(t) => write!(f, "{t} has a zero backlog bound"),
            TenantConfigError::QuotaExceedsBudget { total, budget } => write!(
                f,
                "tenant quotas sum to {total}, exceeding the server budget {budget}"
            ),
        }
    }
}

impl std::error::Error for TenantConfigError {}

/// The one check every lane set passes, whether a kernel spawns it or a
/// snapshot restores it: at least one lane, no tenant twice, positive
/// quotas and backlog bounds, and quotas that fit in the server's
/// `budget`.
fn check_lanes(quotas: &[TenantQuota], budget: Work) -> Result<(), TenantConfigError> {
    if quotas.is_empty() {
        return Err(TenantConfigError::NoTenants);
    }
    let mut ids: Vec<TenantId> = quotas.iter().map(|q| q.tenant).collect();
    ids.sort_unstable();
    let duplicate = ids.windows(2).find_map(|pair| match pair {
        [a, b] if a == b => Some(*a),
        _ => None,
    });
    if let Some(t) = duplicate {
        return Err(TenantConfigError::DuplicateTenant(t));
    }
    for q in quotas {
        if !q.quota.is_positive() {
            return Err(TenantConfigError::NonPositiveQuota(q.tenant));
        }
        if q.max_backlog == 0 {
            return Err(TenantConfigError::ZeroBacklog(q.tenant));
        }
    }
    let total = quotas.iter().fold(Work::ZERO, |acc, q| acc + q.quota);
    if total.as_ms() > budget.as_ms() + EPS {
        return Err(TenantConfigError::QuotaExceedsBudget { total, budget });
    }
    Ok(())
}

/// The outcome of a tenant request submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubmitOutcome {
    /// The request was queued.
    Accepted {
        /// The new job's id.
        id: JobId,
        /// The oldest queued job that was shed to make room, if the
        /// tenant's backlog bound was hit (oldest-first shedding).
        shed_oldest: Option<JobId>,
    },
    /// The tenant is quarantined for flooding; retry after roughly this
    /// many server periods (the time its backlog needs to drain at the
    /// guaranteed quota rate).
    Rejected {
        /// Deadline-aware retry hint, in server periods.
        retry_after_periods: u64,
    },
    /// No reservation exists for that tenant.
    UnknownTenant,
}

/// Point-in-time statistics of one tenant lane (the procfs `tenants`
/// readback and the bench harness both consume this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantLaneStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Its guaranteed per-period quota.
    pub quota: Work,
    /// Its backlog bound.
    pub max_backlog: usize,
    /// Requests currently queued (not yet fully served).
    pub backlog: usize,
    /// Quota left in the current server period.
    pub budget_remaining: Work,
    /// Requests shed (oldest-first) to admit newer arrivals.
    pub shed: u64,
    /// Submissions rejected while quarantined.
    pub rejected: u64,
    /// Requests fully served.
    pub served_jobs: u64,
    /// Work served for this tenant (partial slices included).
    pub served_work: Work,
    /// Whether the lane is quarantined for flooding.
    pub quarantined: bool,
}

/// The full serializable state of a [`TenantServer`], captured by
/// [`TenantServer::snapshot`]: the counters its lanes share and one
/// record per lane, so checkpoints restore every backlog and the
/// replenishment state bit-exactly.
///
/// Capture goes through the same poison-recovering lock as every other
/// entry point, so a checkpoint taken after a worker thread died holding
/// the lock is still a consistent point-in-time view — never a torn one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerSnapshot {
    /// The next [`JobId`] to issue.
    pub next_id: u64,
    /// Total work served across all lanes.
    pub served: Work,
    /// Releases whose budget was forfeited on empty queues.
    pub forfeited_releases: u64,
    /// One entry per lane, in dispatch order.
    pub tenants: Vec<TenantLaneSnapshot>,
}

/// Bit-exact serialized state of one tenant lane, embedded in
/// [`ServerSnapshot::tenants`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantLaneSnapshot {
    /// The tenant's raw id.
    pub tenant: u64,
    /// The guaranteed per-period quota.
    pub quota: Work,
    /// The backlog bound.
    pub max_backlog: usize,
    /// Quota left in the current server period.
    pub budget_remaining: Work,
    /// Whether the lane is quarantined.
    pub quarantined: bool,
    /// Consecutive flooding releases observed.
    pub over_streak: u32,
    /// Oldest-first sheds so far.
    pub shed: u64,
    /// Quarantine rejections so far.
    pub rejected: u64,
    /// Requests fully served so far.
    pub served_jobs: u64,
    /// Work served for this tenant so far.
    pub served_work: Work,
    /// Queued jobs, FIFO order.
    pub queue: Vec<JobRecord>,
    /// Jobs finished this invocation, awaiting their completion timestamp.
    pub finishing: Vec<JobRecord>,
    /// Completed jobs not yet taken by the tenant.
    pub completed: Vec<CompletedJob>,
}

struct Lane {
    id: TenantId,
    quota: Work,
    max_backlog: usize,
    budget_remaining: Work,
    quarantined: bool,
    over_streak: u32,
    shed: u64,
    rejected: u64,
    served_jobs: u64,
    served_work: Work,
    queue: VecDeque<JobRecord>,
    finishing: Vec<JobRecord>,
    completed: Vec<CompletedJob>,
}

impl Lane {
    fn new(q: &TenantQuota) -> Lane {
        Lane {
            id: q.tenant,
            quota: q.quota,
            max_backlog: q.max_backlog,
            budget_remaining: q.quota,
            quarantined: false,
            over_streak: 0,
            shed: 0,
            rejected: 0,
            served_jobs: 0,
            served_work: Work::ZERO,
            queue: VecDeque::new(),
            finishing: Vec::new(),
            completed: Vec::new(),
        }
    }

    fn backlog_work(&self) -> Work {
        self.queue.iter().map(|j| j.remaining).sum()
    }

    /// The once-per-release quarantine review.
    fn review_quarantine(&mut self) {
        let backlog = self.backlog_work();
        if self.quarantined {
            // Exit once the backlog is back within one period's quota.
            if backlog.as_ms() <= self.quota.as_ms() {
                self.quarantined = false;
                self.over_streak = 0;
            }
        } else if backlog.as_ms() > QUARANTINE_BACKLOG_FACTOR * self.quota.as_ms() {
            self.over_streak += 1;
            if self.over_streak >= QUARANTINE_STREAK {
                self.quarantined = true;
            }
        } else {
            self.over_streak = 0;
        }
    }

    fn stats(&self) -> TenantLaneStats {
        TenantLaneStats {
            tenant: self.id,
            quota: self.quota,
            max_backlog: self.max_backlog,
            backlog: self.queue.len(),
            budget_remaining: self.budget_remaining,
            shed: self.shed,
            rejected: self.rejected,
            served_jobs: self.served_jobs,
            served_work: self.served_work,
            quarantined: self.quarantined,
        }
    }
}

struct TenantShared {
    lanes: Vec<Lane>,
    next_id: u64,
    served: Work,
    forfeited_releases: u64,
}

/// Locks the shared lanes, recovering from a poisoned mutex.
///
/// The lanes are only ever mutated through small, total operations, so
/// data left behind by a submitter that panicked while holding the lock is
/// still consistent — and a real-time server must keep serving jobs even
/// after one worker thread dies. `Mutex` poisoning is advisory; shrugging
/// it off here is the robustness choice, not a shortcut.
fn lock_recovering(shared: &Mutex<TenantShared>) -> MutexGuard<'_, TenantShared> {
    shared
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The submitter-facing handle of an aperiodic server. Spawn one with
/// [`crate::RtKernel::spawn_tenant_server`]; clones share the same lanes.
#[derive(Clone)]
pub struct TenantServer {
    shared: Arc<Mutex<TenantShared>>,
}

impl TenantServer {
    /// Creates a server with one lane per reservation, once
    /// [`check_lanes`] accepts them for `budget`. Lanes are kept in
    /// tenant-id order, which is also the dispatch order.
    pub(crate) fn new(
        quotas: &[TenantQuota],
        budget: Work,
    ) -> Result<TenantServer, TenantConfigError> {
        check_lanes(quotas, budget)?;
        let mut lanes: Vec<Lane> = quotas.iter().map(Lane::new).collect();
        lanes.sort_by_key(|l| l.id);
        Ok(TenantServer {
            shared: Arc::new(Mutex::new(TenantShared {
                lanes,
                next_id: 1,
                served: Work::ZERO,
                forfeited_releases: 0,
            })),
        })
    }

    /// The task body to hand to the kernel (shares these lanes).
    pub(crate) fn body(&self) -> Box<dyn TaskBody> {
        Box::new(TenantServerBody {
            shared: Arc::clone(&self.shared),
        })
    }

    /// Submits a request of `work` for `tenant`, arriving at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `work` is not positive (a zero-work request is
    /// meaningless and would complete without ever being scheduled).
    pub fn submit(&self, tenant: TenantId, work: Work, now: Time) -> SubmitOutcome {
        assert!(work.is_positive(), "a request needs positive work");
        let mut s = lock_recovering(&self.shared);
        let s = &mut *s;
        let Some(lane) = s.lanes.iter_mut().find(|l| l.id == tenant) else {
            return SubmitOutcome::UnknownTenant;
        };
        if lane.quarantined {
            lane.rejected += 1;
            let backlog = lane.backlog_work();
            // Periods until the backlog drains at the guaranteed rate,
            // rounded up; at least one (the current period is committed).
            let periods = (backlog.as_ms() / lane.quota.as_ms()).ceil().max(1.0);
            return SubmitOutcome::Rejected {
                retry_after_periods: periods as u64,
            };
        }
        let shed_oldest = if lane.queue.len() >= lane.max_backlog {
            lane.queue.pop_front().map(|old| {
                lane.shed += 1;
                JobId::from_raw(old.id)
            })
        } else {
            None
        };
        let id = s.next_id;
        s.next_id += 1;
        lane.queue.push_back(JobRecord {
            id,
            arrival: now,
            total: work,
            remaining: work,
        });
        SubmitOutcome::Accepted {
            id: JobId::from_raw(id),
            shed_oldest,
        }
    }

    /// Requests currently queued for `tenant` (0 for unknown tenants).
    #[must_use]
    pub fn pending(&self, tenant: TenantId) -> usize {
        let s = lock_recovering(&self.shared);
        s.lanes
            .iter()
            .find(|l| l.id == tenant)
            .map_or(0, |l| l.queue.len())
    }

    /// Takes (drains) `tenant`'s completed jobs, in completion order. The
    /// result is allocated at its exact size; the lane keeps its buffer,
    /// so serving refills it without regrowing.
    #[must_use]
    pub fn take_completed(&self, tenant: TenantId) -> Vec<CompletedJob> {
        let mut s = lock_recovering(&self.shared);
        s.lanes
            .iter_mut()
            .find(|l| l.id == tenant)
            .map_or_else(Vec::new, |l| l.completed.drain(..).collect())
    }

    /// Total work served across all tenants.
    #[must_use]
    pub fn total_served(&self) -> Work {
        lock_recovering(&self.shared).served
    }

    /// Server releases that found every queue empty.
    #[must_use]
    pub fn forfeited_releases(&self) -> u64 {
        lock_recovering(&self.shared).forfeited_releases
    }

    /// Point-in-time statistics of every lane, in tenant-id order.
    #[must_use]
    pub fn lane_stats(&self) -> Vec<TenantLaneStats> {
        lock_recovering(&self.shared)
            .lanes
            .iter()
            .map(Lane::stats)
            .collect()
    }

    /// The server's full serialized state.
    #[must_use]
    pub fn snapshot(&self) -> ServerSnapshot {
        let s = lock_recovering(&self.shared);
        ServerSnapshot {
            next_id: s.next_id,
            served: s.served,
            forfeited_releases: s.forfeited_releases,
            tenants: s
                .lanes
                .iter()
                .map(|l| TenantLaneSnapshot {
                    tenant: l.id.raw(),
                    quota: l.quota,
                    max_backlog: l.max_backlog,
                    budget_remaining: l.budget_remaining,
                    quarantined: l.quarantined,
                    over_streak: l.over_streak,
                    shed: l.shed,
                    rejected: l.rejected,
                    served_jobs: l.served_jobs,
                    served_work: l.served_work,
                    queue: l.queue.iter().copied().collect(),
                    finishing: l.finishing.clone(),
                    completed: l.completed.clone(),
                })
                .collect(),
        }
    }

    /// Revives a server of `budget` from a captured snapshot (the restore
    /// path), once its lanes pass the same [`check_lanes`] a spawn does.
    pub(crate) fn from_snapshot(
        snap: &ServerSnapshot,
        budget: Work,
    ) -> Result<TenantServer, TenantConfigError> {
        let lanes = snap
            .tenants
            .iter()
            .map(|t| Lane {
                id: TenantId::from_raw(t.tenant),
                quota: t.quota,
                max_backlog: t.max_backlog,
                budget_remaining: t.budget_remaining,
                quarantined: t.quarantined,
                over_streak: t.over_streak,
                shed: t.shed,
                rejected: t.rejected,
                served_jobs: t.served_jobs,
                served_work: t.served_work,
                queue: t.queue.iter().copied().collect(),
                finishing: t.finishing.clone(),
                completed: t.completed.clone(),
            })
            .collect();
        let server = TenantServer {
            shared: Arc::new(Mutex::new(TenantShared {
                lanes,
                next_id: snap.next_id,
                served: snap.served,
                forfeited_releases: snap.forfeited_releases,
            })),
        };
        server.check_budget(budget)?;
        Ok(server)
    }

    /// Checks the lanes against a server `budget` (a restore, or a mode
    /// change that reparameterizes the server) with [`check_lanes`].
    pub(crate) fn check_budget(&self, budget: Work) -> Result<(), TenantConfigError> {
        let quotas: Vec<TenantQuota> = lock_recovering(&self.shared)
            .lanes
            .iter()
            .map(|l| TenantQuota::new(l.id, l.quota, l.max_backlog))
            .collect();
        check_lanes(&quotas, budget)
    }
}

/// The submitter's handle on a polling server spawned with
/// [`crate::RtKernel::spawn_polling_server`]: the server's one lane,
/// [`POLLING_LANE`], which never sheds and is never quarantined. Clones
/// share it.
#[derive(Clone)]
pub struct AperiodicServer {
    server: TenantServer,
}

impl AperiodicServer {
    pub(crate) fn new(server: TenantServer) -> AperiodicServer {
        AperiodicServer { server }
    }

    /// Submits an aperiodic job of `work` at time `now` (use
    /// `kernel.now()`); returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `work` is not strictly positive.
    pub fn submit(&self, work: Work, now: Time) -> JobId {
        match self.server.submit(POLLING_LANE, work, now) {
            SubmitOutcome::Accepted { id, .. } => id,
            // The lane exists, has no neighbour to be quarantined for, and
            // its unbounded backlog sheds nothing.
            outcome => unreachable!("the polling lane refused a job: {outcome:?}"),
        }
    }

    /// Jobs queued and not yet fully served.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.server.pending(POLLING_LANE)
    }

    /// Drains and returns all completed jobs.
    #[must_use]
    pub fn take_completed(&self) -> Vec<CompletedJob> {
        self.server.take_completed(POLLING_LANE)
    }

    /// Total aperiodic work served so far.
    #[must_use]
    pub fn total_served(&self) -> Work {
        self.server.total_served()
    }

    /// Releases at which the queue was empty and the budget was forfeited
    /// (the defining behavior of a *polling* server).
    #[must_use]
    pub fn forfeited_releases(&self) -> u64 {
        self.server.forfeited_releases()
    }
}

/// The kernel-side body of a [`TenantServer`].
struct TenantServerBody {
    shared: Arc<Mutex<TenantShared>>,
}

/// Serves `lane` FIFO up to `allow` work; returns what was spent. A job
/// that finishes moves to the lane's `finishing` list for timestamping at
/// invocation completion.
fn serve_lane(lane: &mut Lane, allow: Work) -> Work {
    let mut spent = Work::ZERO;
    while let Some(front) = lane.queue.front_mut() {
        let slice = front.remaining.min((allow - spent).clamp_non_negative());
        if !slice.is_positive() {
            break;
        }
        front.remaining = (front.remaining - slice).clamp_non_negative();
        spent += slice;
        if front.remaining.is_positive() {
            break;
        }
        let Some(job) = lane.queue.pop_front() else {
            break;
        };
        lane.served_jobs += 1;
        lane.finishing.push(job);
    }
    lane.served_work += spent;
    spent
}

impl TaskBody for TenantServerBody {
    fn run(&mut self, _invocation: u64, spec: &Task) -> Work {
        let mut s = lock_recovering(&self.shared);
        let s = &mut *s;
        let budget = spec.wcet();
        // Replenishment + quarantine review, once per server release. A
        // lone lane has no neighbour to protect, so it is never reviewed.
        let shared = s.lanes.len() > 1;
        for lane in &mut s.lanes {
            lane.budget_remaining = lane.quota;
            if shared {
                lane.review_quarantine();
            }
        }
        if s.lanes.iter().all(|l| l.queue.is_empty()) {
            // Polling server: an empty period forfeits the budget.
            s.forfeited_releases += 1;
            return Work::ZERO;
        }
        let mut used = Work::ZERO;
        // Guaranteed pass: each lane gets its own quota, id order.
        for lane in &mut s.lanes {
            let allow = lane
                .budget_remaining
                .min((budget - used).clamp_non_negative());
            let spent = serve_lane(lane, allow);
            lane.budget_remaining = (lane.budget_remaining - spent).clamp_non_negative();
            used += spent;
        }
        // Work-conserving pass: leftover budget to still-backlogged,
        // non-quarantined lanes, bounded to one extra quota per lane per
        // period. The bound caps any single tenant's service at 2x its
        // quota in one period, so a burst drains at a limited, predictable
        // rate instead of absorbing the whole leftover and inflating every
        // other tenant's completion times (a flooding tenant, quarantined,
        // drains at exactly its guaranteed rate).
        for lane in &mut s.lanes {
            if lane.quarantined {
                continue;
            }
            let allow = lane.quota.min((budget - used).clamp_non_negative());
            if !allow.is_positive() {
                continue;
            }
            used += serve_lane(lane, allow);
        }
        s.served += used;
        used
    }

    fn on_invocation_complete(&mut self, _invocation: u64, now: Time) {
        let mut s = lock_recovering(&self.shared);
        for lane in &mut s.lanes {
            for job in lane.finishing.drain(..) {
                lane.completed.push(CompletedJob {
                    id: JobId::from_raw(job.id),
                    arrival: job.arrival,
                    completed: now,
                    work: job.total,
                });
            }
        }
    }

    fn snapshot_state(&self) -> Option<BodyState> {
        Some(BodyState::Server(
            TenantServer {
                shared: Arc::clone(&self.shared),
            }
            .snapshot(),
        ))
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    fn tid(n: u64) -> TenantId {
        TenantId::from_raw(n)
    }

    fn w(v: f64) -> Work {
        Work::from_ms(v)
    }

    fn t(v: f64) -> Time {
        Time::from_ms(v)
    }

    fn quotas2() -> Vec<TenantQuota> {
        vec![
            TenantQuota::new(tid(1), w(1.0), 8),
            TenantQuota::new(tid(2), w(1.0), 8),
        ]
    }

    fn spec(period: f64, budget: f64) -> Task {
        Task::new(t(period), w(budget)).unwrap()
    }

    #[test]
    fn config_validation() {
        assert_eq!(
            TenantServer::new(&[], w(2.0)).err(),
            Some(TenantConfigError::NoTenants)
        );
        let dup = [
            TenantQuota::new(tid(1), w(1.0), 8),
            TenantQuota::new(tid(1), w(1.0), 8),
        ];
        assert_eq!(
            TenantServer::new(&dup, w(2.0)).err(),
            Some(TenantConfigError::DuplicateTenant(tid(1)))
        );
        let zero = [TenantQuota::new(tid(1), w(0.0), 8)];
        assert_eq!(
            TenantServer::new(&zero, w(2.0)).err(),
            Some(TenantConfigError::NonPositiveQuota(tid(1)))
        );
        let backlog = [TenantQuota::new(tid(1), w(1.0), 0)];
        assert_eq!(
            TenantServer::new(&backlog, w(2.0)).err(),
            Some(TenantConfigError::ZeroBacklog(tid(1)))
        );
        assert_eq!(
            TenantServer::new(&quotas2(), w(1.5)).err(),
            Some(TenantConfigError::QuotaExceedsBudget {
                total: w(2.0),
                budget: w(1.5)
            })
        );
        assert!(TenantServer::new(&quotas2(), w(2.0)).is_ok());
    }

    /// A polling server's lone lane outside a kernel, and its body.
    fn polling(budget: f64) -> (AperiodicServer, Box<dyn TaskBody>) {
        let lane = [TenantQuota::new(POLLING_LANE, w(budget), usize::MAX)];
        let srv = TenantServer::new(&lane, w(budget)).unwrap();
        let body = srv.body();
        (AperiodicServer::new(srv), body)
    }

    #[test]
    fn polling_lane_serves_fifo_across_periods() {
        let (server, mut body) = polling(2.0);
        let sp = spec(10.0, 2.0);
        assert_eq!(body.run(1, &sp), Work::ZERO);
        assert_eq!(server.forfeited_releases(), 1);
        let a = server.submit(w(0.5), t(0.0));
        let b = server.submit(w(5.0), t(0.1));
        let c = server.submit(w(1.0), t(0.2));
        // Budget 2: a finishes and b gets 1.5, then b needs two more
        // periods (2 + 1.5) and c finishes in b's last one.
        for (inv, used) in [(2, 2.0), (3, 2.0), (4, 2.0)] {
            assert_eq!(body.run(inv, &sp).as_ms(), used);
            body.on_invocation_complete(inv, t(10.0 * inv as f64));
        }
        let done = server.take_completed();
        assert_eq!(done.iter().map(|j| j.id).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(done[1].completed, t(40.0));
        assert_eq!(server.pending(), 1);
        assert_eq!(body.run(5, &sp).as_ms(), 0.5);
        body.on_invocation_complete(5, t(50.0));
        assert_eq!(server.take_completed()[0].id, c);
        assert!(server.total_served().approx_eq(w(6.5)));
    }

    #[test]
    #[should_panic(expected = "positive work")]
    fn polling_lane_rejects_empty_jobs() {
        let _ = polling(2.0).0.submit(Work::ZERO, t(0.0));
    }

    /// The quarantine needs a neighbour: a lone lane whose backlog stays
    /// far past [`QUARANTINE_BACKLOG_FACTOR`] × quota for many releases
    /// accepts every submission.
    #[test]
    fn lone_lane_with_a_deep_backlog_never_rejects() {
        let lane = [TenantQuota::new(tid(1), w(1.0), 64)];
        let srv = TenantServer::new(&lane, w(1.0)).unwrap();
        let mut body = srv.body();
        let sp = spec(10.0, 1.0);
        for inv in 1..=4 * u64::from(QUARANTINE_STREAK) {
            for _ in 0..4 {
                assert!(matches!(
                    srv.submit(tid(1), w(1.0), t(10.0 * inv as f64)),
                    SubmitOutcome::Accepted { .. }
                ));
            }
            let _ = body.run(inv, &sp);
            body.on_invocation_complete(inv, t(10.0 * inv as f64 + 1.0));
        }
        let stats = srv.lane_stats()[0];
        assert!(stats.backlog > 30, "backlog {}", stats.backlog);
        assert!(!stats.quarantined);
        assert_eq!(stats.rejected, 0);
    }

    /// The documented polling-server response bound, measured end-to-end
    /// through the kernel with worst-case phasing (submission just after a
    /// release): a job of work `w ≤ C_s` completes within
    /// `ceil(w / C_s) + 1` server periods. The bound is also shown tight —
    /// the worst-phased job needs more than `ceil(w / C_s)` periods — so
    /// the doc comment cannot be tightened.
    #[test]
    fn response_time_meets_the_documented_bound() {
        use crate::kernel::RtKernel;
        use rtdvs_core::machine::Machine;
        use rtdvs_core::policy::PolicyKind;

        for job in [w(1.9), w(2.0), w(5.0)] {
            let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf);
            let (_, server) = kernel
                .spawn_polling_server(t(10.0), w(2.0))
                .expect("server admits alone");
            // Worst phasing: the release at t = 0 has already polled (and
            // forfeited) when the job arrives.
            kernel.run_until(t(0.5));
            server.submit(job, kernel.now());
            kernel.run_until(t(100.0));
            let done = server.take_completed();
            assert_eq!(done.len(), 1, "job of {job} never completed");
            let periods = (job.as_ms() / 2.0).ceil() + 1.0;
            let bound = t(periods * 10.0);
            let response = done[0].response_time();
            assert!(
                response.as_ms() <= bound.as_ms(),
                "job of {job}: response {response} exceeds documented bound {bound}"
            );
            assert!(
                response.as_ms() > (periods - 1.0) * 10.0 - 0.5,
                "job of {job}: response {response} beats ceil(w/C_s) periods — \
                 the documented bound is tighter than claimed"
            );
            assert_eq!(kernel.misses().count(), 0);
        }
    }

    #[test]
    fn unknown_tenant_is_reported() {
        let srv = TenantServer::new(&quotas2(), w(2.0)).unwrap();
        assert_eq!(
            srv.submit(tid(9), w(1.0), t(0.0)),
            SubmitOutcome::UnknownTenant
        );
        assert_eq!(srv.pending(tid(9)), 0);
        assert!(srv.take_completed(tid(9)).is_empty());
    }

    #[test]
    fn guaranteed_quota_isolates_a_compliant_tenant_from_a_flood() {
        let srv = TenantServer::new(&quotas2(), w(2.0)).unwrap();
        let mut body = srv.body();
        // Tenant 1 floods far beyond its quota; tenant 2 submits one small
        // request per period.
        for _ in 0..32 {
            let _ = srv.submit(tid(1), w(1.0), t(0.0));
        }
        let sp = spec(10.0, 2.0);
        for inv in 1..=4u64 {
            let _ = srv.submit(tid(2), w(0.5), t(10.0 * (inv - 1) as f64));
            let used = body.run(inv, &sp);
            body.on_invocation_complete(inv, t(10.0 * inv as f64));
            assert!(used.as_ms() <= 2.0 + 1e-9);
        }
        // Tenant 2's requests all finished within their submission period:
        // the flood never ate its guaranteed slice.
        let done = srv.take_completed(tid(2));
        assert_eq!(done.len(), 4);
        for j in &done {
            assert!(j.response_time().as_ms() <= 10.0 + 1e-9);
        }
        assert_eq!(srv.pending(tid(2)), 0);
        assert!(srv.pending(tid(1)) > 0, "the flood is still backlogged");
    }

    #[test]
    fn leftover_budget_is_work_conserving() {
        let srv = TenantServer::new(&quotas2(), w(2.0)).unwrap();
        let mut body = srv.body();
        // Only tenant 1 has work: 2.0 of it, quota 1.0, budget 2.0. The
        // guaranteed pass serves 1.0 and the leftover pass the other 1.0.
        let _ = srv.submit(tid(1), w(2.0), t(0.0));
        let used = body.run(1, &spec(10.0, 2.0));
        assert!(used.approx_eq(w(2.0)), "used {used}");
        body.on_invocation_complete(1, t(10.0));
        assert_eq!(srv.take_completed(tid(1)).len(), 1);
    }

    #[test]
    fn backlog_bound_sheds_oldest_first() {
        let quotas = [TenantQuota::new(tid(1), w(1.0), 2)];
        let srv = TenantServer::new(&quotas, w(2.0)).unwrap();
        let first = match srv.submit(tid(1), w(1.0), t(0.0)) {
            SubmitOutcome::Accepted { id, shed_oldest } => {
                assert_eq!(shed_oldest, None);
                id
            }
            other => panic!("unexpected {other:?}"),
        };
        let _ = srv.submit(tid(1), w(1.0), t(0.1));
        // Third submission hits max_backlog = 2: the oldest is shed.
        match srv.submit(tid(1), w(1.0), t(0.2)) {
            SubmitOutcome::Accepted { shed_oldest, .. } => {
                assert_eq!(shed_oldest, Some(first));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(srv.pending(tid(1)), 2);
        assert_eq!(srv.lane_stats()[0].shed, 1);
    }

    #[test]
    fn flooding_tenant_is_quarantined_and_recovers() {
        let quotas = [
            TenantQuota::new(tid(1), w(1.0), 64),
            TenantQuota::new(tid(2), w(1.0), 64),
        ];
        let srv = TenantServer::new(&quotas, w(2.0)).unwrap();
        let mut body = srv.body();
        let sp = spec(10.0, 2.0);
        // Build a deep backlog (> 4 × quota after service).
        for _ in 0..10 {
            let _ = srv.submit(tid(1), w(1.0), t(0.0));
        }
        let mut inv = 0u64;
        let run_period = |body: &mut Box<dyn TaskBody>, inv: &mut u64| {
            *inv += 1;
            let _ = body.run(*inv, &sp);
            body.on_invocation_complete(*inv, t(10.0 * *inv as f64));
        };
        // Three consecutive flooding releases trip the quarantine.
        for _ in 0..QUARANTINE_STREAK {
            assert!(!srv.lane_stats()[0].quarantined);
            run_period(&mut body, &mut inv);
        }
        assert!(srv.lane_stats()[0].quarantined);
        // While quarantined: submissions are rejected with a drain hint,
        // but the guaranteed quota keeps serving.
        let before = srv.pending(tid(1));
        match srv.submit(tid(1), w(1.0), t(100.0)) {
            SubmitOutcome::Rejected {
                retry_after_periods,
            } => assert!(retry_after_periods >= 1),
            other => panic!("unexpected {other:?}"),
        }
        // The compliant tenant is untouched by the quarantine.
        assert!(matches!(
            srv.submit(tid(2), w(0.5), t(100.0)),
            SubmitOutcome::Accepted { .. }
        ));
        run_period(&mut body, &mut inv);
        assert!(srv.pending(tid(1)) < before, "quota still drains");
        // Enough periods drain the backlog below one quota: quarantine
        // lifts and submissions are accepted again.
        for _ in 0..10 {
            run_period(&mut body, &mut inv);
        }
        assert!(!srv.lane_stats()[0].quarantined);
        assert!(matches!(
            srv.submit(tid(1), w(0.5), t(300.0)),
            SubmitOutcome::Accepted { .. }
        ));
        assert!(srv.lane_stats()[0].rejected >= 1);
    }

    #[test]
    fn empty_queues_forfeit_the_release() {
        let srv = TenantServer::new(&quotas2(), w(2.0)).unwrap();
        let mut body = srv.body();
        assert_eq!(body.run(1, &spec(10.0, 2.0)), Work::ZERO);
        assert_eq!(srv.forfeited_releases(), 1);
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let srv = TenantServer::new(&quotas2(), w(2.0)).unwrap();
        let mut body = srv.body();
        for _ in 0..5 {
            let _ = srv.submit(tid(1), w(0.7), t(0.25));
        }
        let _ = srv.submit(tid(2), w(0.3), t(0.5));
        let _ = body.run(1, &spec(10.0, 2.0));
        body.on_invocation_complete(1, t(10.0));
        let snap = srv.snapshot();
        assert!(!snap.tenants.is_empty());
        let revived = TenantServer::from_snapshot(&snap, w(2.0)).unwrap();
        assert_eq!(revived.snapshot(), snap);
        // Both continue identically.
        let mut rbody = revived.body();
        let used = body.run(2, &spec(10.0, 2.0));
        let rused = rbody.run(2, &spec(10.0, 2.0));
        assert_eq!(used.as_ms().to_bits(), rused.as_ms().to_bits());
        body.on_invocation_complete(2, t(20.0));
        rbody.on_invocation_complete(2, t(20.0));
        assert_eq!(srv.take_completed(tid(1)), revived.take_completed(tid(1)));
        assert_eq!(revived.snapshot(), srv.snapshot());
    }

    /// One panicked worker poisons the mutex; the server must shrug it off
    /// and keep serving, and a checkpoint must capture the same consistent
    /// state a clean capture would — never a torn or failed snapshot.
    #[test]
    fn survives_a_poisoned_mutex() {
        let srv = TenantServer::new(&quotas2(), w(2.0)).unwrap();
        let _ = srv.submit(tid(2), w(1.5), t(0.0));
        let clean = srv.snapshot();
        let shared = Arc::clone(&srv.shared);
        let worker = std::thread::spawn(move || {
            let _guard = shared.lock().unwrap();
            panic!("poison the lock");
        });
        assert!(worker.join().is_err(), "worker must have panicked");
        assert!(srv.shared.is_poisoned(), "lock must actually be poisoned");
        assert_eq!(srv.snapshot(), clean, "poisoned capture must not tear");
        assert_eq!(srv.body().snapshot_state(), Some(BodyState::Server(clean)));
        assert!(matches!(
            srv.submit(tid(1), w(0.5), t(0.0)),
            SubmitOutcome::Accepted { .. }
        ));
        assert_eq!(srv.pending(tid(1)), 1);
    }
}
