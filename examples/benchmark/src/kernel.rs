//! Kernel workloads: `kernel-tenants` (a long-running `RtKernel` serving
//! an open-loop tenant load) and `kernel-recovery` (checkpoints, crashes
//! and restores while the policy is hot-swapped).

use std::time::Instant;

use rtdvs::audit::{audit_kernel_log, audit_tenant_isolation, Rule, TenantStanding};
use rtdvs::core::tenant::{TenantId, TenantQuota};
use rtdvs::kernel::{RtKernel, Snapshot, SubmitOutcome, TenantServer, UniformBody};
use rtdvs::sim::{theoretical_bound, FaultPlan};
use rtdvs::taskgen::{generate, OpenLoopGen, OpenLoopSpec, Request, SplitMix64, TaskGenSpec};
use rtdvs::{Machine, PolicyKind, Task, TaskSet, Time, Work};
use rtdvs_bench::{tenants_smoke_config, TenantsConfig};

use crate::calib::Stopwatch;
use crate::stats::{percentile, Digest, Histogram};
use crate::trace::Tracer;
use crate::{Metric, Rep, Workload};

const RUN_UNTIL: &str = "kernel::run_until";
const SPAWN: &str = "kernel::spawn";
const LOAD_POLICY: &str = "kernel::load_policy";
const AUDIT_LOG: &str = "audit::audit_kernel_log";
const AUDIT_TENANTS: &str = "audit::audit_tenant_isolation";
const AVAILABILITY: &str = "kernel::availability";
const SUBMIT: &str = "tenants::submit";
const TAKE: &str = "tenants::take_completed";
const DRAIN: &str = "openloop::drain_until";
const CHECKPOINT: &str = "snapshot::checkpoint";
const FROM_TEXT: &str = "snapshot::from_text";
const RESTORE: &str = "snapshot::restore";

fn mean_ns(tr: &Tracer, name: &str) -> f64 {
    let t = tr.totals(name);
    t.self_ns as f64 / t.count.max(1) as f64
}

/// Energy must not fall below the minimum for the work the kernel retired.
fn check_bound(kernel: &RtKernel) -> Result<(), String> {
    let meter = kernel.meter();
    let bound = theoretical_bound(
        kernel.machine(),
        meter.total_work(),
        kernel.now(),
        meter.idle_level(),
    );
    if kernel.energy() < bound * (1.0 - 1e-9) {
        return Err(format!(
            "kernel energy {} is below the theoretical bound {bound}",
            kernel.energy()
        ));
    }
    Ok(())
}

/// Audit replay of the kernel log: only deadline misses may be reported,
/// and the caller decides whether those are allowed.
fn audit_log(kernel: &RtKernel, tr: &mut Tracer) -> Result<(), String> {
    let g = tr.open(AUDIT_LOG);
    let findings = audit_kernel_log(kernel.log());
    tr.close(g);
    match findings.iter().find(|v| v.rule != Rule::DeadlineMiss) {
        Some(v) => Err(format!(
            "{} kernel-log audit finding(s), first: {v:?}",
            findings.len()
        )),
        None => Ok(()),
    }
}

fn kernel_layer_metrics(tr: &Tracer, log_len: usize, sim_s: f64, slices_ns: &[f64]) -> Vec<Metric> {
    let run = tr.totals(RUN_UNTIL);
    let reps = tr.totals("rep").count.max(1) as f64;
    let slice_us = |q| percentile(slices_ns, q).unwrap_or(f64::NAN) / 1000.0;
    vec![
        Metric::of("kernel.slice_us_p50", slice_us(0.5), "us", slices_ns.len()),
        Metric::of("kernel.slice_us_p99", slice_us(0.99), "us", slices_ns.len()),
        Metric::new(
            "kernel.run_ms_per_sim_s",
            run.self_ns as f64 / 1e6 / (sim_s * reps),
            "ms",
        ),
        Metric::new("kernel.log_len", log_len as f64, "count"),
        Metric::new("kernel.spawn_us", mean_ns(tr, SPAWN) / 1000.0, "us"),
        Metric::new(
            "audit.kernel_log_ns_per_entry",
            tr.totals(AUDIT_LOG).self_ns as f64 / log_len.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "kernel.availability_ms",
            tr.totals(AVAILABILITY).self_ns as f64 / 1e6,
            "ms",
        ),
    ]
}

// ---------------------------------------------------------------------------
// kernel-tenants
// ---------------------------------------------------------------------------

/// Uptime of one rep: an hour of virtual time, past the 2^30-tick limit
/// of `TimingWheel`. This workload releases requests without a wheel, so
/// only `RtKernel`'s own clock runs this long.
const TENANTS_HORIZON_MS: f64 = 3_600_000.0;
/// Server periods per timing chunk: 120 s, two cycles of the diurnal
/// load curve, so every chunk carries the same mix.
const CHUNK_PERIODS: u64 = 12_000;

/// The relaxed Table 2 set under 2% overruns at 1.3× beside a tenant
/// server with five compliant tenants and one flooding at 10× its quota,
/// all under ccEDF. Requests are released once per 10 ms server period;
/// latency is simulated response time from each request's scheduled
/// arrival.
pub struct Tenants {
    cfg: TenantsConfig,
    /// Compliant tenants' response times, the last rep's.
    hist: Histogram,
    served: u64,
    energy: f64,
    /// The last rep's kernel and each tenant's offered work, for the audits.
    last: Option<(RtKernel, TenantServer, Vec<f64>)>,
    /// `run_until` durations and requests submitted, traced reps only.
    slices_ns: Vec<f64>,
    traced_submits: u64,
    log_len: usize,
}

/// A kernel ready to serve, with its server and one generator per tenant.
pub struct TenantsState {
    kernel: RtKernel,
    server: TenantServer,
    gens: Vec<OpenLoopGen>,
}

impl Tenants {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Tenants {
        let mut cfg = tenants_smoke_config(seed);
        cfg.horizon = Time::from_ms(TENANTS_HORIZON_MS);
        Tenants {
            cfg,
            hist: Histogram::default(),
            served: 0,
            energy: 0.0,
            last: None,
            slices_ns: Vec::new(),
            traced_submits: 0,
            log_len: 0,
        }
    }

    fn build(&self, policy: PolicyKind, tr: &mut Tracer) -> TenantsState {
        let cfg = &self.cfg;
        let root = SplitMix64::seed_from_u64(cfg.seed);
        let mut kernel = RtKernel::new(cfg.machine.clone(), policy);
        for (i, &(period, wcet)) in cfg.periodic.iter().enumerate() {
            let mut body_rng = root.split(0x7E_0100 + i as u64);
            let plan = FaultPlan::new(root.split(0x7E_0200 + i as u64).next_u64())
                .with_overruns(cfg.overrun_rate, cfg.overrun_factor);
            let (mut fault_rng, fault) = plan
                .overrun_injector()
                .expect("the plan configures overruns");
            let g = tr.open(SPAWN);
            kernel
                .spawn(
                    Time::from_ms(period),
                    Work::from_ms(wcet),
                    Box::new(move |_inv: u64, spec: &Task| {
                        let base = spec.wcet() * body_rng.range_f64(0.55, 0.95);
                        match fault.draw(&mut fault_rng) {
                            Some(factor) => spec.wcet() * factor,
                            None => base,
                        }
                    }),
                )
                .expect("the relaxed Table 2 set is admitted beside the server");
            tr.close(g);
        }
        let quotas: Vec<TenantQuota> = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantQuota::new(tenant_id(i), t.quota, t.max_backlog))
            .collect();
        let g = tr.open(SPAWN);
        let (_handle, server) = kernel
            .spawn_tenant_server(cfg.server_period, cfg.server_budget, &quotas)
            .expect("quotas fit the budget and the budget passes admission");
        tr.close(g);
        let gens = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let spec = OpenLoopSpec {
                    mean_interarrival_ms: t.mean_interarrival_ms,
                    interarrival_cap: cfg.interarrival_cap,
                    mean_work_ms: cfg.mean_work_ms,
                    work_jitter: cfg.work_jitter,
                    diurnal_period_ms: cfg.diurnal_period_ms,
                    diurnal_depth: t.diurnal_depth,
                };
                OpenLoopGen::new(spec, cfg.seed, 0x7E_0300 + i as u64)
                    .expect("the smoke spec is well-formed")
            })
            .collect();
        TenantsState {
            kernel,
            server,
            gens,
        }
    }

    /// Serves the whole horizon. Returns the rep, the compliant response
    /// histogram and each tenant's offered work.
    fn serve(
        &mut self,
        s: &mut TenantsState,
        tr: &mut Tracer,
        sw: &mut Stopwatch,
    ) -> Result<(Rep, Histogram, Vec<f64>), String> {
        let n = self.cfg.tenants.len();
        let compliant: Vec<bool> = self.cfg.tenants.iter().map(|t| !t.flood).collect();
        let mut offered_work = vec![0.0; n];
        let mut hist = Histogram::default();
        let mut attempted = 0u64;
        let mut failed = 0u64;
        let mut batch: Vec<Request> = Vec::new();
        let period_ms = self.cfg.server_period.as_ms();
        let n_periods = (self.cfg.horizon.as_ms() / period_ms).floor() as u64;
        sw.restart();
        for b in 1..=n_periods {
            let t = Time::from_ms(period_ms * b as f64);
            for (k, gen) in s.gens.iter_mut().enumerate() {
                batch.clear();
                let g = tr.open(DRAIN);
                gen.drain_until(t.as_ms(), &mut batch);
                tr.close(g);
                if tr.is_on() {
                    self.traced_submits += batch.len() as u64;
                }
                let g = tr.open(SUBMIT);
                for r in &batch {
                    let outcome = s.server.submit(
                        tenant_id(k),
                        Work::from_ms(r.work_ms),
                        Time::from_ms(r.at_ms),
                    );
                    if compliant[k] {
                        attempted += 1;
                        failed += u64::from(matches!(
                            outcome,
                            SubmitOutcome::Rejected { .. }
                                | SubmitOutcome::UnknownTenant
                                | SubmitOutcome::Accepted {
                                    shed_oldest: Some(_),
                                    ..
                                }
                        ));
                    }
                    offered_work[k] += r.work_ms;
                }
                tr.close(g);
            }
            let g = tr.open(RUN_UNTIL);
            s.kernel.run_until(t);
            let ns = tr.close(g);
            if tr.is_on() {
                self.slices_ns.push(ns as f64);
            }
            for (k, &is_compliant) in compliant.iter().enumerate() {
                let g = tr.open(TAKE);
                let done = s.server.take_completed(tenant_id(k));
                tr.close(g);
                if is_compliant {
                    for job in done {
                        hist.record_ms((job.completed - job.arrival).as_ms());
                    }
                }
            }
            if b % CHUNK_PERIODS == 0 || b == n_periods {
                sw.lap();
            }
        }
        let lanes = s.server.lane_stats();
        let lost: u64 = lanes
            .iter()
            .zip(&compliant)
            .filter(|(_, &c)| c)
            .map(|(l, _)| l.shed + l.rejected)
            .sum();
        if lost != failed {
            return Err(format!(
                "compliant lanes report {lost} shed or rejected requests, the submit outcomes {failed}"
            ));
        }
        let mut digest = Digest::default();
        hist.digest_into(&mut digest);
        for l in &lanes {
            digest.u64(l.served_jobs);
            digest.u64(l.shed);
            digest.u64(l.rejected);
        }
        digest.f64(s.kernel.energy());
        digest.u64(s.kernel.log().len() as u64);
        let rep = Rep {
            sim_s: s.kernel.now().as_ms() / 1000.0,
            events: s.kernel.log().len() as u64,
            attempted,
            failed,
            digest: digest.value(),
        };
        Ok((rep, hist, offered_work))
    }
}

fn tenant_id(index: usize) -> TenantId {
    TenantId::from_raw(index as u64 + 1)
}

impl Workload for Tenants {
    type State = TenantsState;
    const EXEC_SPAN: &'static str = RUN_UNTIL;

    fn setup(&mut self, tr: &mut Tracer) -> TenantsState {
        self.build(self.cfg.policy, tr)
    }

    fn rep(
        &mut self,
        mut s: TenantsState,
        tr: &mut Tracer,
        sw: &mut Stopwatch,
    ) -> Result<Rep, String> {
        // One kernel at a time, so the heap peak is one rep's.
        self.last = None;
        let (rep, hist, offered_work) = self.serve(&mut s, tr, sw)?;
        self.hist = hist;
        self.served = s.server.lane_stats().iter().map(|l| l.served_jobs).sum();
        self.energy = s.kernel.energy();
        self.log_len = s.kernel.log().len();
        self.last = Some((s.kernel, s.server, offered_work));
        Ok(rep)
    }

    /// Audits the last rep's kernel, then reruns the same inputs under
    /// plain EDF for the energy normalization.
    fn finish(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        let (kernel, server, offered_work) = self.last.take().ok_or("no rep ran")?;
        let misses = kernel.misses().count();
        if misses > 0 {
            return Err(format!(
                "{misses} hard-RT deadline miss(es) beside the tenants"
            ));
        }
        audit_log(&kernel, tr)?;
        let n_periods = (self.cfg.horizon.as_ms() / self.cfg.server_period.as_ms()).floor();
        let standings: Vec<TenantStanding> = server
            .lane_stats()
            .iter()
            .zip(&offered_work)
            .enumerate()
            .map(|(i, (lane, &work))| TenantStanding {
                tenant: i as u64 + 1,
                over_quota: work > lane.quota.as_ms() * n_periods,
                shed: lane.shed,
                rejected: lane.rejected,
            })
            .collect();
        let g = tr.open(AUDIT_TENANTS);
        let isolation = audit_tenant_isolation(&standings, kernel.log());
        tr.close(g);
        if let Some(v) = isolation.first() {
            return Err(format!("tenant isolation broken: {v:?}"));
        }
        let g = tr.open(AVAILABILITY);
        let availability = kernel.availability();
        tr.close(g);
        if availability.outages != 0 {
            return Err("outages reported on a kernel that never crashed".into());
        }
        check_bound(&kernel)?;
        drop((kernel, server));

        let mut off = Tracer::new(false);
        let mut reference = self.build(PolicyKind::PlainEdf, &mut off);
        self.serve(&mut reference, &mut off, &mut Stopwatch::start())?;
        Ok(self.energy / reference.kernel.energy())
    }

    fn policy_probe(&self) -> (TaskSet, Machine) {
        let mut pairs = self.cfg.periodic.clone();
        pairs.push((
            self.cfg.server_period.as_ms(),
            self.cfg.server_budget.as_ms(),
        ));
        let tasks = TaskSet::from_ms_pairs(&pairs).expect("valid periodic set");
        (tasks, self.cfg.machine.clone())
    }

    fn extra_metrics(&self, rep_s: f64, tr: &Tracer, layer: bool) -> Vec<Metric> {
        if layer {
            let mut out = kernel_layer_metrics(
                tr,
                self.log_len,
                TENANTS_HORIZON_MS / 1000.0,
                &self.slices_ns,
            );
            out.push(Metric::new(
                "tenants.submit_ns",
                tr.totals(SUBMIT).self_ns as f64 / self.traced_submits.max(1) as f64,
                "ns",
            ));
            out.push(Metric::new("tenants.take_ns", mean_ns(tr, TAKE), "ns"));
            out.push(Metric::new("openloop.drain_ns", mean_ns(tr, DRAIN), "ns"));
            out.push(Metric::new(
                "audit.tenant_isolation_ms",
                tr.totals(AUDIT_TENANTS).self_ns as f64 / 1e6,
                "ms",
            ));
            return out;
        }
        let n = self.hist.len() as usize;
        vec![
            Metric::new("req_per_s", self.served as f64 / rep_s, "1/s"),
            Metric::of(
                "req_p50_ms",
                self.hist.percentile_ms(0.5).unwrap_or(f64::NAN),
                "ms",
                n,
            ),
            Metric::of(
                "req_p99_ms",
                self.hist.percentile_ms(0.99).unwrap_or(f64::NAN),
                "ms",
                n,
            ),
            Metric::new(
                "energy_per_req",
                self.energy / self.served.max(1) as f64,
                "energy",
            ),
        ]
    }
}

// ---------------------------------------------------------------------------
// kernel-recovery
// ---------------------------------------------------------------------------

const RECOVERY_TASKS: usize = 32;
const RECOVERY_UTIL: f64 = 0.7;
/// Releases one rep's uptime is sized for (about 6 s for an average set).
/// Fixing the release count rather than the uptime fixes the log length,
/// which sets a checkpoint's size and cost, so seeds compare.
const RECOVERY_RELEASES: f64 = 18_000.0;
/// Evenly spaced checkpoints per rep, split evenly across the six
/// policies.
const CHECKPOINTS: u64 = 120;
/// Every tenth checkpoint the kernel "crashes" and is revived from it.
const CHECKPOINTS_PER_CRASH: u64 = 10;
/// Further generated sets `energy_norm` averages over, beside the rep's
/// own, run through the same policy swaps without checkpoints after the
/// timed phase. One 32-task set's normalized energy spreads about 10%
/// between seeds; the mean over 64 sets spread 0.5% over twelve seeds.
const ENERGY_SETS: u64 = 63;

/// Simulated ms that `tasks` take to release [`RECOVERY_RELEASES`] jobs.
fn recovery_uptime_ms(tasks: &TaskSet) -> f64 {
    let releases_per_ms: f64 = tasks.tasks().iter().map(|t| 1.0 / t.period().as_ms()).sum();
    RECOVERY_RELEASES / releases_per_ms
}

/// Runs `kernel` to `uptime_ms` through a rep's policy swaps, without
/// its checkpoints and crashes.
fn run_swapped(kernel: &mut RtKernel, uptime_ms: f64) {
    let policies = PolicyKind::paper_six();
    let per_phase = CHECKPOINTS / policies.len() as u64;
    let every_ms = uptime_ms / CHECKPOINTS as f64;
    for step in 1..=CHECKPOINTS {
        if step > 1 && (step - 1) % per_phase == 0 {
            kernel.load_policy(policies[((step - 1) / per_phase) as usize]);
        }
        kernel.run_until(Time::from_ms(every_ms * step as f64));
    }
}

/// A generated 32-task set at U = 0.7 with uniform bodies, run for about
/// 18 000 releases. The policy is hot-swapped through the paper six; 120
/// checkpoints are taken at even intervals, and at every tenth the kernel
/// is revived from it with `Snapshot::from_text` and `restore`. A
/// checkpoint embeds the whole log, so its cost grows through the rep.
pub struct Recovery {
    seed: u64,
    machine: Machine,
    uptime_ms: f64,
    /// Host ms per checkpoint and per `from_text` + `restore`, all reps.
    ckpt_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    /// Snapshot sizes, bytes, all reps.
    bytes: Vec<f64>,
    last: Option<RtKernel>,
    energy: f64,
    log_len: usize,
    misses: usize,
    /// `run_until` durations and checkpointed bytes, traced reps only.
    slices_ns: Vec<f64>,
    traced_bytes: u64,
}

impl Recovery {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Recovery {
        let mut w = Recovery {
            seed,
            machine: Machine::machine0(),
            uptime_ms: 0.0,
            ckpt_ms: Vec::new(),
            restore_ms: Vec::new(),
            bytes: Vec::new(),
            last: None,
            energy: 0.0,
            log_len: 0,
            misses: 0,
            slices_ns: Vec::new(),
            traced_bytes: 0,
        };
        w.uptime_ms = recovery_uptime_ms(&w.tasks(0));
        w
    }

    /// Set `k` of the seed: 0 is the rep's, the others only feed
    /// `energy_norm`.
    fn tasks(&self, k: u64) -> TaskSet {
        let spec = TaskGenSpec::new(RECOVERY_TASKS, RECOVERY_UTIL).expect("valid spec");
        let root = SplitMix64::seed_from_u64(self.seed);
        let set_seed = match k {
            0 => root.split(1).next_u64(),
            _ => root.split(3).split(k).next_u64(),
        };
        generate(&spec, set_seed).expect("the generator is total for this spec")
    }

    /// A kernel under plain EDF running set `k` with uniform bodies.
    fn kernel_for(&self, k: u64, tasks: &TaskSet, tr: &mut Tracer) -> RtKernel {
        let root = SplitMix64::seed_from_u64(self.seed);
        let bodies = match k {
            0 => root.split(2),
            _ => root.split(4).split(k),
        };
        let mut kernel = RtKernel::new(self.machine.clone(), PolicyKind::paper_six()[0]);
        for (i, task) in tasks.tasks().iter().enumerate() {
            let g = tr.open(SPAWN);
            kernel
                .spawn(
                    task.period(),
                    task.wcet(),
                    Box::new(UniformBody::new(bodies.split(i as u64).next_u64())),
                )
                .expect("U = 0.7 passes EDF admission");
            tr.close(g);
        }
        kernel
    }
}

impl Workload for Recovery {
    type State = RtKernel;
    const EXEC_SPAN: &'static str = RUN_UNTIL;

    fn setup(&mut self, tr: &mut Tracer) -> RtKernel {
        let g = tr.open("taskgen::generate");
        let tasks = self.tasks(0);
        tr.close(g);
        self.kernel_for(0, &tasks, tr)
    }

    /// Discards the warm-up's latency samples: only timed reps pool them.
    fn warm_up(
        &mut self,
        kernel: RtKernel,
        tr: &mut Tracer,
        sw: &mut Stopwatch,
    ) -> Result<Rep, String> {
        let rep = self.rep(kernel, tr, sw)?;
        self.ckpt_ms.clear();
        self.restore_ms.clear();
        self.bytes.clear();
        Ok(rep)
    }

    fn rep(
        &mut self,
        mut kernel: RtKernel,
        tr: &mut Tracer,
        sw: &mut Stopwatch,
    ) -> Result<Rep, String> {
        self.last = None;
        let policies = PolicyKind::paper_six();
        let per_phase = CHECKPOINTS / policies.len() as u64;
        let every_ms = self.uptime_ms / CHECKPOINTS as f64;
        let (mut attempted, mut failed, mut restores) = (0u64, 0u64, 0u64);
        let mut last_snapshot = None;
        for step in 1..=CHECKPOINTS {
            if step > 1 && (step - 1) % per_phase == 0 {
                let g = tr.open(LOAD_POLICY);
                kernel.load_policy(policies[((step - 1) / per_phase) as usize]);
                tr.close(g);
            }
            let g = tr.open(RUN_UNTIL);
            kernel.run_until(Time::from_ms(every_ms * step as f64));
            let ns = tr.close(g);
            if tr.is_on() {
                self.slices_ns.push(ns as f64);
            }

            attempted += 1;
            let g = tr.open(CHECKPOINT);
            let t0 = Instant::now();
            let snap = kernel.checkpoint();
            self.ckpt_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tr.close(g);
            let snap = match snap {
                Ok(s) => s,
                Err(_) => {
                    failed += 1;
                    sw.lap();
                    continue;
                }
            };
            self.bytes.push(snap.as_text().len() as f64);
            if tr.is_on() {
                self.traced_bytes += snap.as_text().len() as u64;
            }

            if step % CHECKPOINTS_PER_CRASH == 0 {
                attempted += 1;
                let t0 = Instant::now();
                let g = tr.open(FROM_TEXT);
                let parsed = Snapshot::from_text(snap.as_text());
                tr.close(g);
                let g = tr.open(RESTORE);
                let revived = parsed.and_then(|p| p.restore());
                tr.close(g);
                self.restore_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                match revived {
                    Ok((mut revived, _servers))
                        if revived.now() == kernel.now()
                            && revived.energy().to_bits() == kernel.energy().to_bits()
                            && revived.log().len() == kernel.log().len()
                            && revived.status() == kernel.status() =>
                    {
                        revived.mark_restored();
                        restores += 1;
                        kernel = revived;
                    }
                    _ => failed += 1,
                }
            }
            last_snapshot = Some(snap);
            sw.lap();
        }
        let snap = last_snapshot.ok_or("no checkpoint succeeded")?;
        let checksum = snap.as_text().lines().last().unwrap_or_default();
        let mut digest = Digest::default();
        digest.bytes(checksum.as_bytes());
        digest.u64(kernel.log().len() as u64);
        digest.f64(kernel.energy());
        digest.u64(restores);
        let rep = Rep {
            sim_s: kernel.now().as_ms() / 1000.0,
            events: kernel.log().len() as u64,
            attempted,
            failed,
            digest: digest.value(),
        };
        self.energy = kernel.energy();
        self.log_len = kernel.log().len();
        self.misses = kernel.misses().count();
        self.last = Some(kernel);
        Ok(rep)
    }

    /// Audits the last rep's kernel. `energy_norm` is the mean, over the
    /// rep's set and [`ENERGY_SETS`] more, of the set's energy under the
    /// policy swaps (the rep's own for its set) over its energy under
    /// plain EDF, uninterrupted.
    fn finish(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        let kernel = self.last.take().ok_or("no rep ran")?;
        audit_log(&kernel, tr)?;
        let g = tr.open(AVAILABILITY);
        let availability = kernel.availability();
        tr.close(g);
        let crashes = CHECKPOINTS / CHECKPOINTS_PER_CRASH;
        if availability.outages != crashes {
            return Err(format!(
                "availability replay counts {} outages, the run crashed {crashes} times",
                availability.outages
            ));
        }
        check_bound(&kernel)?;
        drop(kernel);

        let mut off = Tracer::new(false);
        let mut norm_sum = 0.0;
        for k in 0..=ENERGY_SETS {
            let tasks = self.tasks(k);
            let uptime_ms = recovery_uptime_ms(&tasks);
            let energy = if k == 0 {
                self.energy
            } else {
                let mut swapped = self.kernel_for(k, &tasks, &mut off);
                run_swapped(&mut swapped, uptime_ms);
                swapped.energy()
            };
            let mut reference = self.kernel_for(k, &tasks, &mut off);
            reference.run_until(Time::from_ms(uptime_ms));
            norm_sum += energy / reference.energy();
        }
        Ok(norm_sum / (ENERGY_SETS + 1) as f64)
    }

    fn policy_probe(&self) -> (TaskSet, Machine) {
        (self.tasks(0), self.machine.clone())
    }

    fn extra_metrics(&self, _rep_s: f64, tr: &Tracer, layer: bool) -> Vec<Metric> {
        if layer {
            let mut out =
                kernel_layer_metrics(tr, self.log_len, self.uptime_ms / 1000.0, &self.slices_ns);
            out.push(Metric::new(
                "snapshot.checkpoint_ns_per_byte",
                tr.totals(CHECKPOINT).self_ns as f64 / self.traced_bytes.max(1) as f64,
                "ns",
            ));
            out.push(Metric::of(
                "snapshot.bytes_p95",
                percentile(&self.bytes, 0.95).unwrap_or(f64::NAN),
                "bytes",
                self.bytes.len(),
            ));
            out.push(Metric::new(
                "snapshot.from_text_ms",
                mean_ns(tr, FROM_TEXT) / 1e6,
                "ms",
            ));
            out.push(Metric::new(
                "snapshot.restore_ms",
                mean_ns(tr, RESTORE) / 1e6,
                "ms",
            ));
            out.push(Metric::new(
                "kernel.load_policy_us",
                mean_ns(tr, LOAD_POLICY) / 1000.0,
                "us",
            ));
            return out;
        }
        let q = |v: &[f64], p| percentile(v, p).unwrap_or(f64::NAN);
        vec![
            Metric::of(
                "ckpt_p50_ms",
                q(&self.ckpt_ms, 0.5),
                "ms",
                self.ckpt_ms.len(),
            ),
            Metric::of(
                "ckpt_p95_ms",
                q(&self.ckpt_ms, 0.95),
                "ms",
                self.ckpt_ms.len(),
            ),
            Metric::of(
                "restore_p50_ms",
                q(&self.restore_ms, 0.5),
                "ms",
                self.restore_ms.len(),
            ),
            Metric::new("kernel.misses", self.misses as f64, "count"),
        ]
    }
}
