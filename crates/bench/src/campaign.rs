//! Unified chaos campaign: every seeded fault dimension composed under
//! one root seed, with availability accounting and automatic repro
//! minimization.
//!
//! The earlier soaks each stress one layer in isolation — WCET overruns
//! (`crate::tenants`), regulator failures plus brownouts, transactional
//! mode churn and clock/timer faults (`crate::soak`), crash/restore
//! (`tests/recovery.rs`), and a flooding tenant (`crate::tenants`). The
//! campaign turns them into *dimensions* of one
//! [`ChaosPlan`] and runs all of them against the same kernel at once:
//! the relaxed Table 2 hard-RT set plus a two-lane tenant server on the
//! K6-2+ prototype machine, under phased adversity windows.
//!
//! # Seed discipline
//!
//! Every dimension draws from its own child of the plan's root stream
//! (`SplitMix64::seed_from_u64(plan.seed).split(tag)`), and every
//! schedule draws exactly once per decision slot regardless of its rate.
//! Consequence: toggling or attenuating one dimension leaves every other
//! dimension's drawn sequence **byte-identical** — the invariant the
//! shrinker's bisection relies on, and the one `tests/campaign.rs`
//! pins as a property test over [`materialize`].
//!
//! # Availability accounting
//!
//! Each cell's event log is replayed through
//! [`rtdvs_kernel::AvailabilityStats`] (MTTF/MTTR, time-in-degraded-mode,
//! per-rung ladder histogram, post-kill recovery latency) and audited
//! against the campaign's [`AvailabilityPolicy`] (bounded recovery,
//! availability floor) on top of the lifecycle and tenant-isolation
//! auditors. Misses are blame-classified by [`kernel_blame`], the one
//! classifier the kernel soaks share: any logged adversity, injected
//! overruns included, voids the admission premises for later misses.
//!
//! # Repro minimization
//!
//! When a plan trips an audit rule, [`shrink_plan`] delta-debugs it:
//! disable whole dimensions to a fixpoint, then halve the horizon, then
//! halve the surviving rates — re-running the cell after every candidate
//! edit and keeping it only if the *same rule* still fires. The result is
//! a minimal `rtdvs-repro/v1` artifact ([`ReproArtifact`]) whose floats
//! are serialized as IEEE-754 bit patterns, so `figures repro <file>`
//! (via `xtask repro`) replays it to the bit-identical violation.

use std::time::Instant;

use rtdvs_audit::{
    audit_availability, audit_kernel_log, audit_tenant_isolation, AvailabilityPolicy, Rule,
    TenantStanding, Violation,
};
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::task::Task;
use rtdvs_core::tenant::{TenantId, TenantQuota};
use rtdvs_core::time::{Time, Work};
use rtdvs_kernel::{
    KernelError, KernelEvent, ModeChange, OverrunBody, RtKernel, Snapshot, TaskHandle, TenantServer,
};
use rtdvs_platform::{PowerNowCpu, UnreliableRegulator};
use rtdvs_taskgen::{OpenLoopGen, OpenLoopSpec, Request, SplitMix64};

use crate::artifact::{Artifact, ArtifactError, Json};
use crate::soak::{clock_plan, regulator_plan};
use crate::tenants::RELAXED_TABLE2;

/// Stream tags of the root split, one per dimension plus the workload.
/// The workload tag feeds the periodic bodies' base demand and the
/// compliant tenant stream — always active, never toggled.
const STREAM_WORKLOAD: u64 = 0x0C_0000;
const STREAM_FAULTS: u64 = 0x0C_0001;
const STREAM_REGULATOR: u64 = 0x0C_0002;
const STREAM_KILLS: u64 = 0x0C_0003;
const STREAM_CHURN: u64 = 0x0C_0004;
const STREAM_FLOOD: u64 = 0x0C_0005;
const STREAM_CLOCK: u64 = 0x0C_0006;

/// Drive-loop slot: the tenant server period and the cadence at which
/// generators are drained into it.
const SLOT_MS: f64 = 10.0;

/// Spacing of the kill decision slots: each slot flips a coin with the
/// kill dimension's rate and, on heads, crashes the kernel at a drawn
/// instant inside the slot (revived from the latest checkpoint).
const KILL_SLOT_MS: f64 = 500.0;

/// Spacing of the churn decision slots.
const CHURN_SLOT_MS: f64 = 20.0;

/// Spacing of the brownout decision slots.
const BROWNOUT_SLOT_MS: f64 = 100.0;

/// The operating point a brownout clamps to (index into the K6-2+'s
/// seven points; keeps the relaxed set feasible under the cap).
const BROWNOUT_CAP_POINT: usize = 3;

/// How far a churn transaction stretches the first task's period (and
/// back). Table 2 at 8→12 ms and its relaxed twin at 16→24 ms both stay
/// admissible under every paper policy, so a churn-induced miss is a
/// transaction bug.
const CHURN_STRETCH: f64 = 1.5;

/// Checkpoint cadence: what a kill can rewind to.
const CHECKPOINT_MS: f64 = 90.0;

/// Server shape: two lanes (compliant + flood) inside one budget.
const SERVER_PERIOD_MS: f64 = 10.0;
const SERVER_BUDGET_MS: f64 = 1.5;
const COMPLIANT_QUOTA_MS: f64 = 0.56;
const COMPLIANT_BACKLOG: usize = 256;
const FLOOD_QUOTA_MS: f64 = 0.1;
const FLOOD_BACKLOG: usize = 24;

/// Mean request work of both tenant streams, ms.
const MEAN_WORK_MS: f64 = 0.05;

/// Flood interarrival at rate 1.0: 0.05 ms work per 0.5 ms gap is 10x
/// the flood lane's 0.1 ms-per-period quota.
const FLOOD_BASE_GAP_MS: f64 = 0.5;

/// The shrinker never halves the horizon below this.
const MIN_REPRO_HORIZON_MS: f64 = 100.0;

/// Rate-halving budget per dimension in the shrinker's attenuate phase.
const MAX_RATE_HALVINGS: u32 = 4;

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

/// A half-open adversity window `[start_ms, end_ms)` in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// First instant the dimension may act, ms.
    pub start_ms: f64,
    /// First instant it may no longer act, ms (`f64::INFINITY` = open).
    pub end_ms: f64,
}

impl Window {
    /// The whole run.
    #[must_use]
    pub fn full() -> Window {
        Window {
            start_ms: 0.0,
            end_ms: f64::INFINITY,
        }
    }

    /// A bounded window.
    #[must_use]
    pub fn span(start_ms: f64, end_ms: f64) -> Window {
        Window { start_ms, end_ms }
    }

    /// Whether `at_ms` falls inside the window.
    #[must_use]
    pub fn contains(&self, at_ms: f64) -> bool {
        at_ms >= self.start_ms && at_ms < self.end_ms
    }

    /// Whether the window covers any time at all before `horizon_ms`.
    #[must_use]
    pub fn overlaps(&self, horizon_ms: f64) -> bool {
        self.start_ms < self.end_ms && self.start_ms < horizon_ms
    }
}

/// One adversity dimension of a [`ChaosPlan`]: how often it acts, and
/// when. What one act is depends on the dimension (see the plan's
/// fields).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dim {
    /// Probability per decision slot (per invocation for overruns, per
    /// attempt for the regulator), or intensity for the flood.
    pub rate: f64,
    /// When the dimension may act.
    pub window: Window,
}

impl Dim {
    /// A dimension acting at `rate` inside `window`.
    #[must_use]
    pub fn new(rate: f64, window: Window) -> Dim {
        Dim { rate, window }
    }

    /// Whether the dimension can act before `horizon_ms` at all.
    #[must_use]
    pub fn active(&self, horizon_ms: f64) -> bool {
        self.rate > 0.0 && self.window.overlaps(horizon_ms)
    }

    /// The dimension as a JSON object; `factor`, the overrun magnitude of
    /// the faults dimension, sits between the rate and the window.
    fn to_tree(self, factor: Option<f64>) -> Json {
        let mut members = vec![
            ("rate", Json::fixed(self.rate, 6)),
            ("rate_bits", Json::bits(self.rate)),
        ];
        if let Some(factor) = factor {
            members.extend([
                ("factor", Json::fixed(factor, 6)),
                ("factor_bits", Json::bits(factor)),
            ]);
        }
        members.push(("start_bits", Json::bits(self.window.start_ms)));
        members.push(("end_bits", Json::bits(self.window.end_ms)));
        Json::obj(members)
    }

    /// Reads the bit-pattern members only; the decimal duplicates are for
    /// humans.
    fn from_tree(tree: &Json) -> Result<Dim, ArtifactError> {
        Ok(Dim {
            rate: tree.get("rate_bits")?.as_bits()?,
            window: Window::span(
                tree.get("start_bits")?.as_bits()?,
                tree.get("end_bits")?.as_bits()?,
            ),
        })
    }
}

/// One composed chaos campaign: every fault dimension the repo knows,
/// derived from a single root seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Root seed every dimension's stream splits from.
    pub seed: u64,
    /// Simulated horizon, ms.
    pub horizon_ms: f64,
    /// WCET overruns: each periodic invocation inside the window overruns
    /// to `fault_factor` x WCET with probability `rate`.
    pub faults: Dim,
    /// The WCET multiple an overrunning invocation runs to.
    pub fault_factor: f64,
    /// An [`UnreliableRegulator`] at `rate` (failures, timeouts, settle
    /// jitter) for the whole run — hardware is attached or it is not —
    /// plus a brownout cap per `BROWNOUT_SLOT_MS` slot with probability
    /// `rate`, gated to the window.
    pub regulator: Dim,
    /// Crash/restore: each `KILL_SLOT_MS` slot inside the window kills
    /// the kernel with probability `rate`; it is revived from the most
    /// recent checkpoint (taken every `CHECKPOINT_MS`).
    pub kills: Dim,
    /// Transactional mode churn: each `CHURN_SLOT_MS` slot inside the
    /// window submits a period-toggle transaction with probability `rate`.
    pub mode_churn: Dim,
    /// A flooding tenant: an open-loop stream into the flood lane at
    /// `rate` x the 10x-quota reference intensity, submitting only inside
    /// the window.
    pub flood: Dim,
    /// A seeded [`rtdvs_sim::ClockPlan`] at `rate` (drift retargets at the
    /// rate; tick loss and coalescing at half, backward jumps at a
    /// quarter — [`crate::soak::clock_plan`]), acting only inside the
    /// window.
    pub clock: Dim,
}

impl ChaosPlan {
    /// The six dimensions by name, in canonical order.
    #[must_use]
    pub fn dims(&self) -> [(&'static str, &Dim); 6] {
        [
            ("faults", &self.faults),
            ("regulator", &self.regulator),
            ("kills", &self.kills),
            ("mode_churn", &self.mode_churn),
            ("flood", &self.flood),
            ("clock", &self.clock),
        ]
    }

    /// [`ChaosPlan::dims`], mutably.
    pub fn dims_mut(&mut self) -> [(&'static str, &mut Dim); 6] {
        [
            ("faults", &mut self.faults),
            ("regulator", &mut self.regulator),
            ("kills", &mut self.kills),
            ("mode_churn", &mut self.mode_churn),
            ("flood", &mut self.flood),
            ("clock", &mut self.clock),
        ]
    }

    /// Names of the dimensions that can act at all, in canonical order:
    /// `rate > 0` and a window overlapping the horizon — except the
    /// regulator, whose unreliable hardware is attached for the whole run
    /// whatever its (brownout) window.
    #[must_use]
    pub fn active_dimensions(&self) -> Vec<&'static str> {
        self.dims()
            .into_iter()
            .filter(|(name, d)| {
                d.rate > 0.0 && (*name == "regulator" || d.window.overlaps(self.horizon_ms))
            })
            .map(|(name, _)| name)
            .collect()
    }

    /// The plan as a JSON object. Floats are written as IEEE-754 bit
    /// patterns (with decimal duplicates for humans), so a parsed plan
    /// replays bit-identically.
    fn to_tree(&self) -> Json {
        let head = [
            ("seed", self.seed.into()),
            ("horizon_ms", Json::fixed(self.horizon_ms, 3)),
            ("horizon_bits", Json::bits(self.horizon_ms)),
        ];
        Json::obj(head.into_iter().chain(self.dims().map(|(name, d)| {
            let factor = (name == "faults").then_some(self.fault_factor);
            (name, d.to_tree(factor))
        })))
    }

    /// Reads a plan back (bit-pattern members only).
    fn from_tree(tree: &Json) -> Result<ChaosPlan, ArtifactError> {
        let off = Dim::new(0.0, Window::full());
        let mut plan = ChaosPlan {
            seed: tree.get("seed")?.as_u64()?,
            horizon_ms: tree.get("horizon_bits")?.as_bits()?,
            faults: off,
            fault_factor: tree.get("faults")?.get("factor_bits")?.as_bits()?,
            regulator: off,
            kills: off,
            mode_churn: off,
            flood: off,
            clock: off,
        };
        for (name, dim) in plan.dims_mut() {
            match tree.get(name) {
                Ok(member) => *dim = Dim::from_tree(member)?,
                // Plans serialized before the clock dimension existed omit
                // it; read them as "clock faults off" so old repros stay
                // replayable.
                Err(_) if name == "clock" => {}
                Err(e) => return Err(e),
            }
        }
        Ok(plan)
    }
}

// ---------------------------------------------------------------------------
// Materialization
// ---------------------------------------------------------------------------

/// Every drawn sequence a campaign cell consumes, materialized up front.
/// Each field comes from its own child of the root stream, so the
/// property test in `tests/campaign.rs` can assert that toggling one
/// dimension leaves every other field byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSchedules {
    /// Per periodic task: `(base_state, fault_state)` PRNG words. Base
    /// demand draws come from the workload child, overrun draws from the
    /// faults child — the overrun *stream* exists (and is drawn from)
    /// even when the fault rate is 0, so toggling the dimension never
    /// shifts anything.
    pub body_streams: Vec<(u64, u64)>,
    /// Seed of the compliant tenant's open-loop generator (workload
    /// child).
    pub compliant_gen_seed: u64,
    /// Seed of the [`UnreliableRegulator`]'s failure plan.
    pub regulator_seed: u64,
    /// Brownout cap schedule `(instant, cap)` inside the regulator
    /// window.
    pub brownouts: Vec<(Time, Option<usize>)>,
    /// Kill instants inside the kill window.
    pub kills: Vec<Time>,
    /// Churn-transaction instants inside the churn window.
    pub churns: Vec<Time>,
    /// Seed of the flooding tenant's open-loop generator.
    pub flood_gen_seed: u64,
    /// Seed of the clock-fault oracle's plan (the oracle draws its own
    /// per-dimension streams from this at run time).
    pub clock_seed: u64,
}

/// Derives every schedule from the plan's root seed. Pure: two calls
/// with the same plan return identical schedules, and schedules for
/// plans differing in exactly one dimension differ only in that
/// dimension's field.
#[must_use]
pub fn materialize(plan: &ChaosPlan) -> CampaignSchedules {
    let root = SplitMix64::seed_from_u64(plan.seed);
    let workload = root.split(STREAM_WORKLOAD);
    let faults = root.split(STREAM_FAULTS);
    let body_streams = (0..RELAXED_TABLE2.len() as u64)
        .map(|i| (workload.split(i).state(), faults.split(i).state()))
        .collect();
    let compliant_gen_seed = workload.split(0x10).state();

    let mut reg = root.split(STREAM_REGULATOR);
    let regulator_seed = reg.next_u64();
    let brownouts = brownout_schedule(
        &mut reg,
        plan.regulator.rate,
        &plan.regulator.window,
        plan.horizon_ms,
    );

    let mut kill_stream = root.split(STREAM_KILLS);
    let kills = kill_schedule(
        &mut kill_stream,
        plan.kills.rate,
        &plan.kills.window,
        plan.horizon_ms,
    );

    let mut churn_stream = root.split(STREAM_CHURN);
    let churns = churn_schedule(
        &mut churn_stream,
        plan.mode_churn.rate,
        &plan.mode_churn.window,
        plan.horizon_ms,
    );

    let flood_gen_seed = root.split(STREAM_FLOOD).state();
    let clock_seed = root.split(STREAM_CLOCK).state();
    CampaignSchedules {
        body_streams,
        compliant_gen_seed,
        regulator_seed,
        brownouts,
        kills,
        churns,
        flood_gen_seed,
        clock_seed,
    }
}

/// One coin per slot regardless of rate or window (stable stream
/// positions); cap changes are emitted only inside the window, and an
/// imposed cap is lifted at the first boundary at or past the window end.
pub(crate) fn brownout_schedule(
    stream: &mut SplitMix64,
    rate: f64,
    window: &Window,
    horizon_ms: f64,
) -> Vec<(Time, Option<usize>)> {
    let mut schedule = Vec::new();
    let mut capped = false;
    let mut slot = 1u32;
    loop {
        let at_ms = BROWNOUT_SLOT_MS * f64::from(slot);
        if at_ms >= horizon_ms {
            return schedule;
        }
        let browned = stream.next_f64() < rate && window.contains(at_ms);
        if browned && !capped {
            schedule.push((Time::from_ms(at_ms), Some(BROWNOUT_CAP_POINT)));
            capped = true;
        } else if !browned && capped {
            schedule.push((Time::from_ms(at_ms), None));
            capped = false;
        }
        slot += 1;
    }
}

/// Two draws per slot (fire coin + position) regardless of rate or
/// window, so attenuating the dimension never shifts later slots.
fn kill_schedule(
    stream: &mut SplitMix64,
    rate: f64,
    window: &Window,
    horizon_ms: f64,
) -> Vec<Time> {
    let mut schedule = Vec::new();
    let mut slot = 0u32;
    loop {
        let slot_start = KILL_SLOT_MS * f64::from(slot);
        if slot_start >= horizon_ms {
            return schedule;
        }
        let fires = stream.next_f64() < rate;
        let frac = stream.next_f64();
        let at_ms = slot_start + frac * KILL_SLOT_MS;
        if fires && window.contains(at_ms) && at_ms < horizon_ms {
            schedule.push(Time::from_ms(at_ms));
        }
        slot += 1;
    }
}

/// One coin per slot regardless of rate or window.
pub(crate) fn churn_schedule(
    stream: &mut SplitMix64,
    rate: f64,
    window: &Window,
    horizon_ms: f64,
) -> Vec<Time> {
    let mut schedule = Vec::new();
    let mut slot = 1u32;
    loop {
        let at_ms = CHURN_SLOT_MS * f64::from(slot);
        if at_ms >= horizon_ms {
            return schedule;
        }
        if stream.next_f64() < rate && window.contains(at_ms) {
            schedule.push(Time::from_ms(at_ms));
        }
        slot += 1;
    }
}

/// Maps a time window onto an [`OverrunBody`] invocation window for a
/// task of the given period: the invocations whose nominal release falls
/// inside the window (invocation k releases near `(k-1) * period`).
fn invocation_window(window: &Window, period_ms: f64) -> (u64, u64) {
    let from = if window.start_ms <= 0.0 {
        1
    } else {
        (window.start_ms / period_ms).floor() as u64 + 1
    };
    let until = if window.end_ms.is_finite() {
        (window.end_ms / period_ms).ceil() as u64 + 1
    } else {
        u64::MAX
    };
    (from, until)
}

// ---------------------------------------------------------------------------
// The cell runner
// ---------------------------------------------------------------------------

/// One policy's raw campaign outcome.
struct CellRun {
    energy: f64,
    blamed: u64,
    excused: u64,
    findings: Vec<Violation>,
    kills: u64,
    churn_commits: u64,
    clock_events: u64,
    compliant_offered: u64,
    flood_offered: u64,
    served: u64,
    stats: rtdvs_kernel::AvailabilityStats,
}

/// An event the drive loop injects between slots, in (time, priority)
/// order — checkpoints sort before kills at the same instant so a kill
/// always has the freshest snapshot.
enum Chaos {
    Brownout(Option<usize>),
    Churn,
    Checkpoint,
    Kill,
}

fn compliant_spec() -> OpenLoopSpec {
    OpenLoopSpec {
        mean_interarrival_ms: 1.4,
        interarrival_cap: 40.0,
        mean_work_ms: MEAN_WORK_MS,
        work_jitter: 0.5,
        diurnal_period_ms: 60_000.0,
        diurnal_depth: 0.05,
    }
}

fn flood_spec(rate: f64) -> OpenLoopSpec {
    OpenLoopSpec {
        mean_interarrival_ms: FLOOD_BASE_GAP_MS / rate,
        interarrival_cap: 40.0,
        mean_work_ms: MEAN_WORK_MS,
        work_jitter: 0.5,
        diurnal_period_ms: 60_000.0,
        diurnal_depth: 0.3,
    }
}

fn attach_adversity(kernel: &mut RtKernel, plan: &ChaosPlan, sched: &CampaignSchedules) {
    if plan.regulator.rate > 0.0 {
        let cpu = PowerNowCpu::k6_2_plus_550();
        kernel.attach_regulator(Box::new(UnreliableRegulator::new(
            cpu,
            regulator_plan(sched.regulator_seed, plan.regulator.rate),
        )));
    }
    if plan.clock.active(plan.horizon_ms) {
        let mut p = clock_plan(sched.clock_seed, plan.clock.rate);
        if plan.clock.window.start_ms > 0.0 || plan.clock.window.end_ms.is_finite() {
            p = p.with_window(
                Time::from_ms(plan.clock.window.start_ms.max(0.0)),
                Time::from_ms(plan.clock.window.end_ms),
            );
        }
        kernel.set_clock_plan(p);
    }
}

/// Runs one policy through the full campaign: relaxed Table 2 under
/// windowed overruns, a two-lane tenant server, the unreliable regulator
/// with brownout caps, churn transactions, periodic checkpoints, and
/// kills revived from the latest snapshot.
fn run_cell(
    kind: PolicyKind,
    plan: &ChaosPlan,
    sched: &CampaignSchedules,
    avail: &AvailabilityPolicy,
) -> CellRun {
    let cpu = PowerNowCpu::k6_2_plus_550();
    let machine = cpu.machine().expect("prototype machine is valid");
    let mut kernel =
        RtKernel::new(machine, kind).with_accounted_switch_overhead(cpu.switch_overhead());
    attach_adversity(&mut kernel, plan, sched);

    let (rate, factor) = if plan.faults.active(plan.horizon_ms) {
        (plan.faults.rate, plan.fault_factor)
    } else {
        (0.0, 1.0)
    };
    let mut handles = Vec::new();
    for (i, &(period, wcet)) in RELAXED_TABLE2.iter().enumerate() {
        let (base_state, fault_state) = sched.body_streams[i];
        let (from, until) = invocation_window(&plan.faults.window, period);
        let h = kernel
            .spawn(
                Time::from_ms(period),
                Work::from_ms(wcet),
                Box::new(OverrunBody::from_state(
                    base_state,
                    fault_state,
                    rate,
                    factor,
                    from,
                    until,
                )),
            )
            .expect("the relaxed Table 2 set is admitted beside the server");
        handles.push(h);
    }
    let quotas = [
        TenantQuota::new(
            TenantId::from_raw(1),
            Work::from_ms(COMPLIANT_QUOTA_MS),
            COMPLIANT_BACKLOG,
        ),
        TenantQuota::new(
            TenantId::from_raw(2),
            Work::from_ms(FLOOD_QUOTA_MS),
            FLOOD_BACKLOG,
        ),
    ];
    let (_h, server) = kernel
        .spawn_tenant_server(
            Time::from_ms(SERVER_PERIOD_MS),
            Work::from_ms(SERVER_BUDGET_MS),
            &quotas,
        )
        .expect("the two-lane server fits beside the relaxed set");
    let mut server: TenantServer = server;

    let mut compliant = OpenLoopGen::new(compliant_spec(), sched.compliant_gen_seed, 1)
        .expect("the compliant spec is well-formed");
    let mut flood = if plan.flood.active(plan.horizon_ms) {
        Some(
            OpenLoopGen::new(flood_spec(plan.flood.rate), sched.flood_gen_seed, 2)
                .expect("the flood spec is well-formed"),
        )
    } else {
        None
    };

    // Merge the chaos schedules into one (time, priority)-ordered list.
    let mut events: Vec<(Time, u8, Chaos)> = Vec::new();
    for &(at, cap) in &sched.brownouts {
        events.push((at, 0, Chaos::Brownout(cap)));
    }
    for &at in &sched.churns {
        events.push((at, 1, Chaos::Churn));
    }
    let mut k = 1u32;
    loop {
        let at_ms = CHECKPOINT_MS * f64::from(k);
        if at_ms >= plan.horizon_ms {
            break;
        }
        events.push((Time::from_ms(at_ms), 2, Chaos::Checkpoint));
        k += 1;
    }
    for &at in &sched.kills {
        events.push((at, 3, Chaos::Kill));
    }
    events.sort_by(|a, b| a.0.as_ms().total_cmp(&b.0.as_ms()).then(a.1.cmp(&b.1)));

    let mut last_snap: Snapshot = kernel
        .checkpoint()
        .expect("a freshly-built kernel checkpoints");
    let mut kills_applied = 0u64;
    let mut churn_commits = 0u64;
    let mut relaxed = false;
    let mut compliant_offered = 0u64;
    let mut flood_offered = 0u64;
    let mut compliant_work = 0.0f64;
    let mut flood_work = 0.0f64;
    let mut served = 0u64;
    let mut batch: Vec<Request> = Vec::new();
    let mut ei = 0usize;
    let n_slots = (plan.horizon_ms / SLOT_MS).floor() as u64;
    let nominal = Task::from_ms(RELAXED_TABLE2[0].0, RELAXED_TABLE2[0].1)
        .expect("the relaxed Table 2 set is valid");
    for b in 1..=n_slots {
        let t = Time::from_ms(SLOT_MS * b as f64);
        batch.clear();
        compliant.drain_until(t.as_ms(), &mut batch);
        for r in &batch {
            compliant_offered += 1;
            compliant_work += r.work_ms;
            server.submit(
                TenantId::from_raw(1),
                Work::from_ms(r.work_ms),
                Time::from_ms(r.at_ms),
            );
        }
        if let Some(gen) = flood.as_mut() {
            batch.clear();
            gen.drain_until(t.as_ms(), &mut batch);
            for r in &batch {
                if !plan.flood.window.contains(r.at_ms) {
                    continue;
                }
                flood_offered += 1;
                flood_work += r.work_ms;
                server.submit(
                    TenantId::from_raw(2),
                    Work::from_ms(r.work_ms),
                    Time::from_ms(r.at_ms),
                );
            }
        }
        while ei < events.len() && events[ei].0.as_ms() <= t.as_ms() {
            let at = events[ei].0;
            if kernel.now().as_ms() < at.as_ms() {
                kernel.run_until(at);
            }
            match events[ei].2 {
                Chaos::Brownout(cap) => kernel.set_brownout_cap(cap),
                Chaos::Churn => {
                    // A staged-but-uncommitted transaction or a transient
                    // infeasibility just skips this slot's toggle — under
                    // composed chaos any rejection reason is acceptable.
                    if submit_churn(&mut kernel, handles[0], &nominal, &mut relaxed).is_ok() {
                        churn_commits += 1;
                    }
                }
                Chaos::Checkpoint => {
                    // A transaction staged across the checkpoint instant
                    // refuses the snapshot; keep the previous one (that is
                    // what a kill will rewind to).
                    if let Ok(s) = kernel.checkpoint() {
                        last_snap = s;
                    }
                }
                Chaos::Kill => {
                    let (revived, _servers) = last_snap
                        .restore()
                        .expect("campaign snapshots restore cleanly");
                    kernel = revived;
                    kernel.mark_restored();
                    attach_adversity(&mut kernel, plan, sched);
                    server = kernel.tenant_servers()[0].1.clone();
                    kills_applied += 1;
                }
            }
            ei += 1;
        }
        if kernel.now().as_ms() < t.as_ms() {
            kernel.run_until(t);
        }
        for lane in [1u64, 2] {
            served += server.take_completed(TenantId::from_raw(lane)).len() as u64;
        }
    }

    let KernelBlame {
        blamed,
        excused,
        clock_events,
        mut findings,
    } = kernel_blame(kernel.log());
    let n_periods = n_slots.max(1);
    let standings = [
        TenantStanding {
            tenant: 1,
            over_quota: compliant_work > COMPLIANT_QUOTA_MS * n_periods as f64,
            shed: server.lane_stats()[0].shed,
            rejected: server.lane_stats()[0].rejected,
        },
        TenantStanding {
            tenant: 2,
            over_quota: flood_work > FLOOD_QUOTA_MS * n_periods as f64,
            shed: server.lane_stats()[1].shed,
            rejected: server.lane_stats()[1].rejected,
        },
    ];
    let rungs = kernel.ladder_rung_names();
    findings.extend(audit_tenant_isolation(&standings, kernel.log()));
    findings.extend(audit_availability(
        kernel.log(),
        kernel.now(),
        &rungs,
        avail,
    ));
    findings.sort_by(|a, b| {
        a.time
            .as_ms()
            .total_cmp(&b.time.as_ms())
            .then_with(|| a.rule.as_str().cmp(b.rule.as_str()))
    });
    let stats = kernel.availability();
    CellRun {
        energy: kernel.energy(),
        blamed,
        excused,
        findings,
        kills: kills_applied,
        churn_commits,
        clock_events,
        compliant_offered,
        flood_offered,
        served,
        stats,
    }
}

/// A finished kernel log's misses split by blame, plus its non-miss
/// audit findings.
pub(crate) struct KernelBlame {
    /// Misses with no adversity logged before them: policy bugs.
    pub(crate) blamed: u64,
    /// Misses after some adversity voided the admission premises.
    pub(crate) excused: u64,
    /// Clock-fault events (tick gaps, clamped jumps, watchdog actions,
    /// late releases).
    pub(crate) clock_events: u64,
    /// Lifecycle audit findings other than the misses themselves.
    pub(crate) findings: Vec<Violation>,
}

/// The kernel blame classifier, in log order: once any regulator
/// fallback, brownout cap change, ladder step, supervisor restore,
/// injected overrun, or clock event is logged, the admission test's
/// premises are void and later misses are excused; a miss before all of
/// that is a policy bug.
pub(crate) fn kernel_blame(log: &[(Time, KernelEvent)]) -> KernelBlame {
    let mut adversity_acted = false;
    let (mut blamed, mut excused, mut clock_events) = (0, 0, 0);
    for (_, event) in log {
        match event {
            KernelEvent::RegulatorFallback { .. }
            | KernelEvent::BrownoutCapSet { .. }
            | KernelEvent::LadderStepped { .. }
            | KernelEvent::SupervisorRestored
            | KernelEvent::Overrun { .. } => adversity_acted = true,
            KernelEvent::ClockTickGap { .. }
            | KernelEvent::ClockJumpClamped { .. }
            | KernelEvent::ClockWatchdog { .. }
            | KernelEvent::ReleaseLate { .. } => {
                adversity_acted = true;
                clock_events += 1;
            }
            KernelEvent::DeadlineMiss { .. } if adversity_acted => excused += 1,
            KernelEvent::DeadlineMiss { .. } => blamed += 1,
            _ => {}
        }
    }
    let findings = audit_kernel_log(log)
        .into_iter()
        .filter(|v| v.rule != Rule::DeadlineMiss)
        .collect();
    KernelBlame {
        blamed,
        excused,
        clock_events,
        findings,
    }
}

/// Submits one churn transaction: `handle` (spawned as `nominal`) toggles
/// between its nominal period and [`CHURN_STRETCH`] times it, and
/// `relaxed` flips when the kernel accepts the change.
pub(crate) fn submit_churn(
    kernel: &mut RtKernel,
    handle: TaskHandle,
    nominal: &Task,
    relaxed: &mut bool,
) -> Result<(), KernelError> {
    let period = if *relaxed {
        nominal.period()
    } else {
        Time::from_ms(nominal.period().as_ms() * CHURN_STRETCH)
    };
    kernel.submit_mode_change(ModeChange::new().reparam(handle, period, nominal.wcet()))?;
    *relaxed = !*relaxed;
    Ok(())
}

// ---------------------------------------------------------------------------
// The campaign artifact
// ---------------------------------------------------------------------------

/// Shape of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Policies to run, in column order.
    pub policies: Vec<PolicyKind>,
    /// The composed plan (shared across policies: every column faces
    /// identical adversity).
    pub plan: ChaosPlan,
    /// The availability contract each cell is audited against.
    pub availability: AvailabilityPolicy,
}

/// The committed campaign shape behind `BENCH_campaign.json` and the CI
/// campaign-smoke job: all six paper policies, three seconds of virtual
/// time, every dimension active with phased windows. Small enough to
/// re-run on every push.
#[must_use]
pub fn campaign_smoke_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        policies: PolicyKind::paper_six().to_vec(),
        plan: ChaosPlan {
            seed,
            horizon_ms: 3000.0,
            faults: Dim::new(0.05, Window::span(500.0, 2500.0)),
            fault_factor: 1.5,
            regulator: Dim::new(0.05, Window::full()),
            kills: Dim::new(0.6, Window::span(500.0, 2600.0)),
            mode_churn: Dim::new(0.2, Window::full()),
            flood: Dim::new(1.0, Window::span(1000.0, 2000.0)),
            clock: Dim::new(0.25, Window::span(250.0, 2750.0)),
        },
        availability: AvailabilityPolicy {
            max_recovery_ms: 150.0,
            min_availability: 0.1,
        },
    }
}

/// One policy's campaign outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Policy name.
    pub policy: String,
    /// Misses with no adversity event before them (gated to 0).
    pub blamed_misses: u64,
    /// Misses excused by prior adversity.
    pub excused_misses: u64,
    /// Audit findings: lifecycle + tenant isolation + availability
    /// (gated to 0).
    pub audit_findings: u64,
    /// Kills applied by the drive loop.
    pub kills: u64,
    /// Restores visible in the final (stitched) log — at most `kills`,
    /// fewer when a later kill rewound past an earlier restore.
    pub restores: u64,
    /// Committed churn transactions.
    pub churn_commits: u64,
    /// Clock-fault events in the final log (tick gaps, clamped jumps,
    /// watchdog actions, late releases).
    pub clock_events: u64,
    /// Compliant-lane requests offered.
    pub compliant_offered: u64,
    /// Flood-lane requests offered (inside the flood window).
    pub flood_offered: u64,
    /// Requests served across both lanes (as observed by the drive loop;
    /// completions lost to a crash rewind are not re-counted).
    pub served: u64,
    /// Kernel energy over the horizon.
    pub energy: f64,
    /// Fraction of the horizon fully nominal.
    pub availability: f64,
    /// Nominal milliseconds.
    pub nominal_ms: f64,
    /// Degraded milliseconds.
    pub degraded_ms: f64,
    /// Mean time to failure, ms.
    pub mttf_ms: f64,
    /// Mean time to repair, ms.
    pub mttr_ms: f64,
    /// Worst restore-to-completion gap, ms.
    pub worst_recovery_ms: f64,
    /// Time at each ladder rung (index = depth), ms.
    pub rung_ms: Vec<f64>,
}

/// A complete campaign artifact (`rtdvs-campaign/v1`).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignArtifact {
    /// Root seed of the plan.
    pub seed: u64,
    /// Horizon, ms.
    pub horizon_ms: f64,
    /// Active dimensions of the plan, canonical order.
    pub dimensions: Vec<String>,
    /// Recovery bound each cell was audited against, ms.
    pub max_recovery_ms: f64,
    /// Availability floor each cell was audited against.
    pub min_availability: f64,
    /// Per-policy outcomes, column order.
    pub cells: Vec<CampaignCell>,
    /// Wall clock (provenance; zeroed in canonical form).
    pub wall_ms: u64,
}

impl Artifact for CampaignArtifact {
    const SCHEMA: &'static str = "rtdvs-campaign/v1";
    const PROVENANCE: &'static [&'static str] = &["wall_ms"];

    fn to_tree(&self) -> Json {
        let cell = |c: &CampaignCell| {
            let rungs = c.rung_ms.iter().map(|&r| Json::fixed(r, 3)).collect();
            Json::obj([
                ("policy", c.policy.as_str().into()),
                ("blamed_misses", c.blamed_misses.into()),
                ("excused_misses", c.excused_misses.into()),
                ("audit_findings", c.audit_findings.into()),
                ("kills", c.kills.into()),
                ("restores", c.restores.into()),
                ("churn_commits", c.churn_commits.into()),
                ("clock_events", c.clock_events.into()),
                ("compliant_offered", c.compliant_offered.into()),
                ("flood_offered", c.flood_offered.into()),
                ("served", c.served.into()),
                ("energy", Json::fixed(c.energy, 9)),
                ("availability", Json::fixed(c.availability, 6)),
                ("nominal_ms", Json::fixed(c.nominal_ms, 3)),
                ("degraded_ms", Json::fixed(c.degraded_ms, 3)),
                ("mttf_ms", Json::fixed(c.mttf_ms, 3)),
                ("mttr_ms", Json::fixed(c.mttr_ms, 3)),
                ("worst_recovery_ms", Json::fixed(c.worst_recovery_ms, 3)),
                ("rung_ms", rungs),
            ])
        };
        let dimensions = self.dimensions.iter().map(|d| d.as_str().into()).collect();
        Json::obj([
            ("seed", self.seed.into()),
            ("horizon_ms", Json::fixed(self.horizon_ms, 3)),
            ("dimensions", dimensions),
            ("max_recovery_ms", Json::fixed(self.max_recovery_ms, 3)),
            ("min_availability", Json::fixed(self.min_availability, 4)),
            ("cells", self.cells.iter().map(cell).collect()),
            ("wall_ms", self.wall_ms.into()),
        ])
    }

    fn from_tree(tree: &Json) -> Result<Self, ArtifactError> {
        Ok(CampaignArtifact {
            seed: tree.get("seed")?.as_u64()?,
            horizon_ms: tree.get("horizon_ms")?.as_f64()?,
            dimensions: tree
                .get("dimensions")?
                .list(|d| Ok(d.as_str()?.to_owned()))?,
            max_recovery_ms: tree.get("max_recovery_ms")?.as_f64()?,
            min_availability: tree.get("min_availability")?.as_f64()?,
            cells: tree.get("cells")?.list(|c| {
                Ok(CampaignCell {
                    policy: c.get("policy")?.as_str()?.to_owned(),
                    blamed_misses: c.get("blamed_misses")?.as_u64()?,
                    excused_misses: c.get("excused_misses")?.as_u64()?,
                    audit_findings: c.get("audit_findings")?.as_u64()?,
                    kills: c.get("kills")?.as_u64()?,
                    restores: c.get("restores")?.as_u64()?,
                    churn_commits: c.get("churn_commits")?.as_u64()?,
                    clock_events: c.get("clock_events").map_or(Ok(0), Json::as_u64)?,
                    compliant_offered: c.get("compliant_offered")?.as_u64()?,
                    flood_offered: c.get("flood_offered")?.as_u64()?,
                    served: c.get("served")?.as_u64()?,
                    energy: c.get("energy")?.as_f64()?,
                    availability: c.get("availability")?.as_f64()?,
                    nominal_ms: c.get("nominal_ms")?.as_f64()?,
                    degraded_ms: c.get("degraded_ms")?.as_f64()?,
                    mttf_ms: c.get("mttf_ms")?.as_f64()?,
                    mttr_ms: c.get("mttr_ms")?.as_f64()?,
                    worst_recovery_ms: c.get("worst_recovery_ms")?.as_f64()?,
                    rung_ms: c.get("rung_ms")?.list(Json::as_f64)?,
                })
            })?,
            wall_ms: tree.get("wall_ms")?.as_u64()?,
        })
    }
}

impl CampaignArtifact {
    /// The invariants any passing campaign obeys. Non-empty means the
    /// composed system broke a promise.
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.cells.is_empty() {
            problems.push("no cells in the artifact".to_owned());
        }
        let kills_on = self.dimensions.iter().any(|d| d == "kills");
        let flood_on = self.dimensions.iter().any(|d| d == "flood");
        let churn_on = self.dimensions.iter().any(|d| d == "mode_churn");
        let clock_on = self.dimensions.iter().any(|d| d == "clock");
        for c in &self.cells {
            let who = &c.policy;
            if c.blamed_misses != 0 {
                problems.push(format!(
                    "{who}: {} policy-blamed miss(es) — a miss before any adversity is a real bug",
                    c.blamed_misses
                ));
            }
            if c.audit_findings != 0 {
                problems.push(format!(
                    "{who}: {} audit finding(s) in the composed replay",
                    c.audit_findings
                ));
            }
            if c.restores > c.kills {
                problems.push(format!(
                    "{who}: {} restore(s) in the log but only {} kill(s) applied",
                    c.restores, c.kills
                ));
            }
            if kills_on && (c.kills == 0 || c.restores == 0) {
                problems.push(format!(
                    "{who}: kill dimension active but kills={} restores={}",
                    c.kills, c.restores
                ));
            }
            if flood_on && c.flood_offered == 0 {
                problems.push(format!("{who}: flood dimension active but nothing offered"));
            }
            if churn_on && c.churn_commits == 0 {
                problems.push(format!(
                    "{who}: churn dimension active but nothing committed"
                ));
            }
            if clock_on && c.clock_events == 0 {
                problems.push(format!(
                    "{who}: clock dimension active but no clock event ever fired"
                ));
            }
            if c.compliant_offered == 0 || c.served == 0 {
                problems.push(format!("{who}: tenant serving was dead"));
            }
            if c.availability < self.min_availability {
                problems.push(format!(
                    "{who}: availability {:.6} below the floor {:.4}",
                    c.availability, self.min_availability
                ));
            }
            if c.rung_ms.is_empty() {
                problems.push(format!("{who}: empty ladder histogram"));
            }
        }
        problems
    }
}

/// Runs the full campaign — every policy against the same materialized
/// schedules — and packs it into the artifact. Deterministic in `cfg`
/// alone except `wall_ms`.
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignArtifact {
    assert!(
        !cfg.policies.is_empty(),
        "campaign needs at least one policy"
    );
    assert!(
        cfg.plan.horizon_ms > 0.0,
        "campaign needs a positive horizon"
    );
    let start = Instant::now();
    let sched = materialize(&cfg.plan);
    let cells = cfg
        .policies
        .iter()
        .map(|&kind| {
            let run = run_cell(kind, &cfg.plan, &sched, &cfg.availability);
            CampaignCell {
                policy: kind.name().to_owned(),
                blamed_misses: run.blamed,
                excused_misses: run.excused,
                audit_findings: run.findings.len() as u64,
                kills: run.kills,
                restores: run.stats.outages,
                churn_commits: run.churn_commits,
                clock_events: run.clock_events,
                compliant_offered: run.compliant_offered,
                flood_offered: run.flood_offered,
                served: run.served,
                energy: run.energy,
                availability: run.stats.availability(),
                nominal_ms: run.stats.nominal_ms,
                degraded_ms: run.stats.degraded_ms,
                mttf_ms: run.stats.mttf_ms(),
                mttr_ms: run.stats.mttr_ms(),
                worst_recovery_ms: run.stats.worst_recovery_ms,
                rung_ms: run.stats.rung_ms.clone(),
            }
        })
        .collect();
    CampaignArtifact {
        seed: cfg.plan.seed,
        horizon_ms: cfg.plan.horizon_ms,
        dimensions: cfg
            .plan
            .active_dimensions()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        max_recovery_ms: cfg.availability.max_recovery_ms,
        min_availability: cfg.availability.min_availability,
        cells,
        wall_ms: start.elapsed().as_millis() as u64,
    }
}

// ---------------------------------------------------------------------------
// Repro minimization
// ---------------------------------------------------------------------------

/// The violation a repro artifact pins, with its time as an IEEE-754 bit
/// pattern so replay equality is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproViolation {
    /// [`Rule::as_str`] of the broken rule.
    pub rule: String,
    /// When it was observed, ms.
    pub time_ms: f64,
    /// The violation's details string.
    pub details: String,
}

/// A minimized, deterministically-replayable repro (`rtdvs-repro/v1`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReproArtifact {
    /// Policy name of the violating cell.
    pub policy: String,
    /// Recovery bound the cell was audited against, ms.
    pub max_recovery_ms: f64,
    /// Availability floor the cell was audited against.
    pub min_availability: f64,
    /// The minimized plan.
    pub plan: ChaosPlan,
    /// The pinned violation.
    pub violation: ReproViolation,
}

impl Artifact for ReproArtifact {
    const SCHEMA: &'static str = "rtdvs-repro/v1";
    const PROVENANCE: &'static [&'static str] = &[];

    fn to_tree(&self) -> Json {
        Json::obj([
            ("policy", self.policy.as_str().into()),
            ("max_recovery_ms", Json::fixed(self.max_recovery_ms, 3)),
            ("max_recovery_bits", Json::bits(self.max_recovery_ms)),
            ("min_availability", Json::fixed(self.min_availability, 4)),
            ("min_availability_bits", Json::bits(self.min_availability)),
            ("plan", self.plan.to_tree()),
            (
                "violation",
                Json::obj([
                    ("rule", self.violation.rule.as_str().into()),
                    ("time_ms", Json::fixed(self.violation.time_ms, 6)),
                    ("time_bits", Json::bits(self.violation.time_ms)),
                    ("details", self.violation.details.as_str().into()),
                ]),
            ),
        ])
    }

    fn from_tree(tree: &Json) -> Result<Self, ArtifactError> {
        let violation = tree.get("violation")?;
        Ok(ReproArtifact {
            policy: tree.get("policy")?.as_str()?.to_owned(),
            max_recovery_ms: tree.get("max_recovery_bits")?.as_bits()?,
            min_availability: tree.get("min_availability_bits")?.as_bits()?,
            plan: ChaosPlan::from_tree(tree.get("plan")?)?,
            violation: ReproViolation {
                rule: violation.get("rule")?.as_str()?.to_owned(),
                time_ms: violation.get("time_bits")?.as_bits()?,
                details: violation.get("details")?.as_str()?.to_owned(),
            },
        })
    }
}

/// Maps a policy name back to its [`PolicyKind`] (paper-six only — the
/// campaign never runs anything else).
#[must_use]
pub fn policy_by_name(name: &str) -> Option<PolicyKind> {
    PolicyKind::paper_six()
        .into_iter()
        .find(|k| k.name() == name)
}

/// The audit findings one `(policy, plan, availability)` cell produces,
/// in deterministic (time, rule) order.
#[must_use]
pub fn cell_findings(
    kind: PolicyKind,
    plan: &ChaosPlan,
    avail: &AvailabilityPolicy,
) -> Vec<Violation> {
    let sched = materialize(plan);
    run_cell(kind, plan, &sched, avail).findings
}

/// Delta-debugs `plan` down to a minimal repro of its first audit
/// violation: greedily disable whole dimensions to a fixpoint, then
/// halve the horizon (clipping windows) while the same rule still fires,
/// then halve the surviving rates. Every candidate edit re-runs the cell
/// and is kept only if a violation of the *same rule* reproduces — sound
/// because each dimension draws from its own split stream, so an edit
/// never shifts another dimension's sequence.
///
/// # Errors
///
/// Returns an error when the plan trips no audit violation at all.
pub fn shrink_plan(
    kind: PolicyKind,
    plan: &ChaosPlan,
    avail: &AvailabilityPolicy,
) -> Result<ReproArtifact, String> {
    let baseline = cell_findings(kind, plan, avail);
    let Some(target) = baseline.first() else {
        return Err(format!(
            "plan does not trip any audit violation under {} — nothing to minimize",
            kind.name()
        ));
    };
    let rule = target.rule;
    let reproduces = |p: &ChaosPlan| cell_findings(kind, p, avail).iter().any(|v| v.rule == rule);

    let mut cur = plan.clone();
    // Phase 1: disable whole dimensions, to a fixpoint.
    loop {
        let mut changed = false;
        for d in 0..cur.dims().len() {
            if cur.dims()[d].1.rate <= 0.0 {
                continue;
            }
            let mut cand = cur.clone();
            cand.dims_mut()[d].1.rate = 0.0;
            if reproduces(&cand) {
                cur = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Phase 2: narrow the time window by halving the horizon.
    while cur.horizon_ms / 2.0 >= MIN_REPRO_HORIZON_MS {
        let mut cand = cur.clone();
        cand.horizon_ms /= 2.0;
        let horizon_ms = cand.horizon_ms;
        for (_, dim) in cand.dims_mut() {
            dim.window.end_ms = dim.window.end_ms.min(horizon_ms);
        }
        if reproduces(&cand) {
            cur = cand;
        } else {
            break;
        }
    }
    // Phase 3: attenuate the surviving rates.
    for d in 0..cur.dims().len() {
        for _ in 0..MAX_RATE_HALVINGS {
            let rate = cur.dims()[d].1.rate;
            if rate <= 0.0 {
                break;
            }
            let mut cand = cur.clone();
            cand.dims_mut()[d].1.rate = rate / 2.0;
            if reproduces(&cand) {
                cur = cand;
            } else {
                break;
            }
        }
    }
    let witness = cell_findings(kind, &cur, avail)
        .into_iter()
        .find(|v| v.rule == rule)
        .expect("the shrunk plan was kept only because it reproduces");
    Ok(ReproArtifact {
        policy: kind.name().to_owned(),
        max_recovery_ms: avail.max_recovery_ms,
        min_availability: avail.min_availability,
        plan: cur,
        violation: ReproViolation {
            rule: rule.as_str().to_owned(),
            time_ms: witness.time.as_ms(),
            details: witness.details,
        },
    })
}

/// Replays a minimized repro and checks it reproduces the **identical**
/// violation: same rule, bit-identical time, byte-identical details.
///
/// # Errors
///
/// Describes what was found instead when the replay diverges.
pub fn replay_repro(repro: &ReproArtifact) -> Result<(), String> {
    let kind = policy_by_name(&repro.policy)
        .ok_or_else(|| format!("unknown policy {:?} in repro", repro.policy))?;
    let avail = AvailabilityPolicy {
        max_recovery_ms: repro.max_recovery_ms,
        min_availability: repro.min_availability,
    };
    let fresh = cell_findings(kind, &repro.plan, &avail);
    let hit = fresh.iter().any(|v| {
        v.rule.as_str() == repro.violation.rule
            && v.time.as_ms().to_bits() == repro.violation.time_ms.to_bits()
            && v.details == repro.violation.details
    });
    if hit {
        return Ok(());
    }
    let got: Vec<String> = fresh
        .iter()
        .map(|v| format!("[{}] t={:.6} ms: {}", v.rule, v.time.as_ms(), v.details))
        .collect();
    Err(format!(
        "repro did not reproduce: expected [{}] at {:.6} ms ({}); replay produced {} finding(s){}{}",
        repro.violation.rule,
        repro.violation.time_ms,
        repro.violation.details,
        fresh.len(),
        if got.is_empty() { "" } else { ":\n  " },
        got.join("\n  ")
    ))
}

/// A plan that provably violates its availability contract: the
/// regulator fails every transition, so the degradation ladder walks to
/// the bottom early and the run spends most of the horizon below the
/// preferred policy — far under the declared 0.9 floor. The other
/// dimensions ride along at mild rates so the shrinker has something to
/// strip. `tests/campaign.rs` pins that this shrinks to a repro with at
/// most 2 active dimensions and at most 10% of the original horizon.
#[must_use]
pub fn known_violating_campaign(seed: u64) -> (PolicyKind, ChaosPlan, AvailabilityPolicy) {
    (
        PolicyKind::CcEdf,
        ChaosPlan {
            seed,
            horizon_ms: 4000.0,
            faults: Dim::new(0.05, Window::full()),
            fault_factor: 1.5,
            regulator: Dim::new(1.0, Window::full()),
            kills: Dim::new(0.3, Window::span(500.0, 3500.0)),
            mode_churn: Dim::new(0.2, Window::full()),
            flood: Dim::new(1.0, Window::span(1000.0, 3000.0)),
            clock: Dim::new(0.0, Window::full()),
        },
        AvailabilityPolicy {
            max_recovery_ms: 200.0,
            min_availability: 0.9,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> ChaosPlan {
        campaign_smoke_config(seed).plan
    }

    #[test]
    fn materialize_is_deterministic() {
        let p = plan(7);
        assert_eq!(materialize(&p), materialize(&p));
    }

    #[test]
    fn schedules_respect_their_windows() {
        let p = plan(11);
        let sched = materialize(&p);
        for &at in &sched.kills {
            assert!(p.kills.window.contains(at.as_ms()), "kill at {at}");
        }
        for &at in &sched.churns {
            assert!(p.mode_churn.window.contains(at.as_ms()), "churn at {at}");
        }
        for &(at, _) in &sched.brownouts {
            assert!(at.as_ms() < p.horizon_ms);
        }
    }

    #[test]
    fn zero_rates_produce_empty_schedules() {
        let mut p = plan(13);
        p.kills.rate = 0.0;
        p.mode_churn.rate = 0.0;
        p.regulator.rate = 0.0;
        let sched = materialize(&p);
        assert!(sched.kills.is_empty());
        assert!(sched.churns.is_empty());
        assert!(sched.brownouts.is_empty());
        assert!(p.active_dimensions() == vec!["faults", "flood", "clock"]);
        p.clock.rate = 0.0;
        assert!(p.active_dimensions() == vec!["faults", "flood"]);
    }

    #[test]
    fn invocation_window_maps_release_times() {
        let (from, until) = invocation_window(&Window::span(500.0, 2500.0), 16.0);
        // Invocation k releases near (k-1)*16 ms; 500/16 = 31.25, so the
        // first windowed invocation releases at 512 ms (k = 33).
        assert_eq!(from, 32);
        assert_eq!(until, 158);
        let (from, until) = invocation_window(&Window::full(), 16.0);
        assert_eq!((from, until), (1, u64::MAX));
    }

    #[test]
    fn campaign_artifact_round_trips_and_validates() {
        let art = CampaignArtifact {
            seed: 9,
            horizon_ms: 1000.0,
            dimensions: vec!["kills".to_owned(), "flood".to_owned()],
            max_recovery_ms: 150.0,
            min_availability: 0.1,
            cells: vec![CampaignCell {
                policy: "ccEDF".to_owned(),
                blamed_misses: 0,
                excused_misses: 3,
                audit_findings: 0,
                kills: 2,
                restores: 2,
                churn_commits: 0,
                clock_events: 0,
                compliant_offered: 700,
                flood_offered: 900,
                served: 1500,
                energy: 1.25,
                availability: 0.8,
                nominal_ms: 800.0,
                degraded_ms: 200.0,
                mttf_ms: 400.0,
                mttr_ms: 100.0,
                worst_recovery_ms: 20.0,
                rung_ms: vec![800.0, 150.0, 50.0],
            }],
            wall_ms: 42,
        };
        let back = CampaignArtifact::from_json(&art.to_json()).unwrap();
        assert_eq!(art, back);
        assert!(art.validate().is_empty(), "{:?}", art.validate());
        assert_eq!(art.canonical_json(), back.canonical_json());

        let mut broken = art.clone();
        broken.cells[0].blamed_misses = 1;
        broken.cells[0].audit_findings = 2;
        broken.cells[0].kills = 0;
        assert_eq!(broken.validate().len(), 4); // blamed, findings, restores>kills, kills-dim dead
    }

    #[test]
    fn policy_by_name_covers_paper_six() {
        for kind in PolicyKind::paper_six() {
            assert_eq!(policy_by_name(kind.name()), Some(kind));
        }
        assert_eq!(policy_by_name("nonesuch"), None);
    }
}
