//! Multi-tenant serving soak: temporal isolation under a flooding tenant.
//!
//! The tenant server (`rtdvs_kernel::tenants`) promises three things at
//! once, and this soak turns each into a gated number:
//!
//! 1. **Temporal isolation** — a tenant that floods at 10× its CPU quota
//!    must not steal service from compliant tenants or from the hard-RT
//!    periodic set sharing the kernel. The soak runs the relaxed Table 2
//!    set (with fault-injected WCET overruns) beside the server and
//!    demands zero periodic deadline misses and a clean
//!    [`rtdvs_audit::audit_tenant_isolation`] replay.
//! 2. **Quota-aware shedding and backpressure** — the flooding tenant's
//!    bounded queue must shed oldest-first and its lane must be
//!    quarantined (submissions rejected with retry hints) while the
//!    backlog exceeds the quarantine threshold; compliant tenants must
//!    never lose a request (`shed == 0`, `rejected == 0`).
//! 3. **Bounded interference** — each compliant tenant's p99 response
//!    latency in the flooded run must stay within
//!    [`TenantsConfig::p99_ratio_limit`] of the same tenant's p99 in a
//!    flood-free run at identical arrival streams (the only difference
//!    between the runs is whether the flooding tenant submits).
//!
//! Load comes from seeded open-loop generators
//! ([`rtdvs_taskgen::OpenLoopGen`]): heavy-tailed interarrivals under a
//! diurnal rate curve, batched into the kernel once per server period
//! through the O(1) timing wheel ([`rtdvs_sim::wheel::TimingWheel`]) —
//! the committed shape offers millions of requests per regeneration.
//!
//! Everything in the artifact except `wall_ms` is a pure function of the
//! seed (virtual time, deterministic generators, platform-independent
//! math), so the committed golden (`BENCH_tenants.json`, schema
//! `rtdvs-tenants/v1`) is compared byte-for-byte on its canonical form.

use std::time::Instant;

use rtdvs_audit::{audit_kernel_log, audit_tenant_isolation, Rule, TenantStanding};
use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::task::Task;
use rtdvs_core::tenant::{TenantId, TenantQuota};
use rtdvs_core::time::{Time, Work};
use rtdvs_kernel::{RtKernel, TenantServer};
use rtdvs_sim::wheel::TimingWheel;
use rtdvs_sim::FaultPlan;
use rtdvs_taskgen::{OpenLoopGen, OpenLoopSpec, Request, SplitMix64};

use crate::artifact::{Artifact, ArtifactError, Json};

/// The hard-RT periodic set sharing the kernel with the server: Table 2
/// relaxed to twice the paper's periods (U ≈ 0.37) so the server budget
/// and the injected overruns fit beside it.
pub const RELAXED_TABLE2: [(f64, f64); 3] = [(16.0, 3.0), (20.0, 3.0), (28.0, 1.0)];

/// One tenant's quota and offered-load shape.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Guaranteed CPU quota per server period.
    pub quota: Work,
    /// Queue bound (requests); the oldest is shed beyond it.
    pub max_backlog: usize,
    /// Mean interarrival gap of the tenant's open-loop stream, ms.
    pub mean_interarrival_ms: f64,
    /// Diurnal rate-curve depth of the stream.
    pub diurnal_depth: f64,
    /// Whether this is the flooding tenant (absent from the baseline run).
    pub flood: bool,
}

/// Shape of the tenant soak.
#[derive(Debug, Clone)]
pub struct TenantsConfig {
    /// Machine to simulate.
    pub machine: Machine,
    /// DVS policy driving the kernel.
    pub policy: PolicyKind,
    /// Hard-RT periodic set: `(period_ms, wcet_ms)`.
    pub periodic: Vec<(f64, f64)>,
    /// Per-invocation probability that a periodic task overruns.
    pub overrun_rate: f64,
    /// Overrun magnitude as a WCET multiple.
    pub overrun_factor: f64,
    /// Server period.
    pub server_period: Time,
    /// Server budget (WCET at admission); per-tenant quotas must fit it.
    pub server_budget: Work,
    /// The tenants, in id order (tenant 1 first). Exactly one floods.
    pub tenants: Vec<TenantSpec>,
    /// Mean request work, ms.
    pub mean_work_ms: f64,
    /// Request-work jitter fraction.
    pub work_jitter: f64,
    /// Diurnal rate-curve period shared by every stream, ms.
    pub diurnal_period_ms: f64,
    /// Interarrival cap as a multiple of the mean gap.
    pub interarrival_cap: f64,
    /// Simulated horizon.
    pub horizon: Time,
    /// Gate: compliant p99 in the flooded run over the flood-free p99.
    pub p99_ratio_limit: f64,
    /// Seed every stream derives from.
    pub seed: u64,
}

/// The committed soak shape: five compliant tenants plus one tenant
/// flooding at 10× its quota, beside the relaxed Table 2 set under 2%
/// WCET overruns, for five simulated minutes (≈ 2 million offered
/// requests per regeneration).
#[must_use]
pub fn tenants_smoke_config(seed: u64) -> TenantsConfig {
    let compliant = TenantSpec {
        quota: Work::from_ms(0.56),
        max_backlog: 256,
        mean_interarrival_ms: 1.4,
        diurnal_depth: 0.05,
        flood: false,
    };
    let flood = TenantSpec {
        quota: Work::from_ms(0.1),
        // Small enough that the 10x flood overflows it (oldest-first
        // shedding) before the quarantine review rejects submissions.
        max_backlog: 24,
        // Offered work 0.05 ms per 0.5 ms gap = 10× the 0.1 ms/period quota.
        mean_interarrival_ms: 0.5,
        diurnal_depth: 0.3,
        flood: true,
    };
    let mut tenants = vec![compliant; 5];
    tenants.push(flood);
    TenantsConfig {
        machine: Machine::machine0(),
        policy: PolicyKind::CcEdf,
        periodic: RELAXED_TABLE2.to_vec(),
        overrun_rate: 0.02,
        overrun_factor: 1.3,
        server_period: Time::from_ms(10.0),
        server_budget: Work::from_ms(2.9),
        tenants,
        mean_work_ms: 0.05,
        work_jitter: 0.5,
        diurnal_period_ms: 60_000.0,
        interarrival_cap: 40.0,
        horizon: Time::from_ms(300_000.0),
        p99_ratio_limit: 1.05,
        seed,
    }
}

/// One tenant's soak outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// Raw tenant id (1-based, id order).
    pub tenant: u64,
    /// Whether this tenant flooded.
    pub flood: bool,
    /// Its guaranteed quota, ms per server period.
    pub quota_ms: f64,
    /// Requests its generator offered in the flooded run.
    pub offered: u64,
    /// Requests fully served.
    pub served: u64,
    /// Requests shed oldest-first from its bounded queue.
    pub shed: u64,
    /// Submissions rejected while quarantined.
    pub rejected: u64,
    /// Server periods the lane spent quarantined.
    pub quarantined_periods: u64,
    /// Response-latency percentiles in the flooded run, ms.
    pub p50_ms: f64,
    /// 99th percentile response latency, ms.
    pub p99_ms: f64,
    /// 99.9th percentile response latency, ms.
    pub p999_ms: f64,
    /// The same tenant's p99 in the flood-free baseline run, ms (0 for
    /// the flooding tenant, which is absent from the baseline).
    pub baseline_p99_ms: f64,
    /// `p99_ms / baseline_p99_ms` (0 for the flooding tenant).
    pub p99_ratio: f64,
}

/// The full soak result / golden artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantsArtifact {
    /// Seed every stream derived from.
    pub seed: u64,
    /// Simulated horizon, ms.
    pub horizon_ms: f64,
    /// Server period, ms.
    pub server_period_ms: f64,
    /// Server budget, ms.
    pub server_budget_ms: f64,
    /// Gate on compliant p99 inflation.
    pub p99_ratio_limit: f64,
    /// Hard-RT deadline misses across both runs (gated to 0).
    pub periodic_misses: u64,
    /// Kernel-log lifecycle findings plus tenant-isolation findings
    /// across both runs (gated to 0).
    pub audit_violations: u64,
    /// Server releases forfeited to empty queues in the flooded run.
    pub forfeited_releases: u64,
    /// Kernel energy of the flooded run divided by its served requests.
    pub energy_per_request: f64,
    /// Per-tenant outcomes, id order.
    pub tenants: Vec<TenantOutcome>,
    /// Total wall clock (provenance; zeroed in canonical form).
    pub wall_ms: u64,
}

impl Artifact for TenantsArtifact {
    const SCHEMA: &'static str = "rtdvs-tenants/v1";
    const PROVENANCE: &'static [&'static str] = &["wall_ms"];

    fn to_tree(&self) -> Json {
        let tenant = |t: &TenantOutcome| {
            Json::obj([
                ("tenant", t.tenant.into()),
                ("flood", t.flood.into()),
                ("quota_ms", Json::fixed(t.quota_ms, 3)),
                ("offered", t.offered.into()),
                ("served", t.served.into()),
                ("shed", t.shed.into()),
                ("rejected", t.rejected.into()),
                ("quarantined_periods", t.quarantined_periods.into()),
                ("p50_ms", Json::fixed(t.p50_ms, 6)),
                ("p99_ms", Json::fixed(t.p99_ms, 6)),
                ("p999_ms", Json::fixed(t.p999_ms, 6)),
                ("baseline_p99_ms", Json::fixed(t.baseline_p99_ms, 6)),
                ("p99_ratio", Json::fixed(t.p99_ratio, 4)),
            ])
        };
        Json::obj([
            ("seed", self.seed.into()),
            ("horizon_ms", Json::fixed(self.horizon_ms, 3)),
            ("server_period_ms", Json::fixed(self.server_period_ms, 3)),
            ("server_budget_ms", Json::fixed(self.server_budget_ms, 3)),
            ("p99_ratio_limit", Json::fixed(self.p99_ratio_limit, 4)),
            ("periodic_misses", self.periodic_misses.into()),
            ("audit_violations", self.audit_violations.into()),
            ("forfeited_releases", self.forfeited_releases.into()),
            (
                "energy_per_request",
                Json::fixed(self.energy_per_request, 9),
            ),
            ("tenants", self.tenants.iter().map(tenant).collect()),
            ("wall_ms", self.wall_ms.into()),
        ])
    }

    fn from_tree(tree: &Json) -> Result<Self, ArtifactError> {
        Ok(TenantsArtifact {
            seed: tree.get("seed")?.as_u64()?,
            horizon_ms: tree.get("horizon_ms")?.as_f64()?,
            server_period_ms: tree.get("server_period_ms")?.as_f64()?,
            server_budget_ms: tree.get("server_budget_ms")?.as_f64()?,
            p99_ratio_limit: tree.get("p99_ratio_limit")?.as_f64()?,
            periodic_misses: tree.get("periodic_misses")?.as_u64()?,
            audit_violations: tree.get("audit_violations")?.as_u64()?,
            forfeited_releases: tree.get("forfeited_releases")?.as_u64()?,
            energy_per_request: tree.get("energy_per_request")?.as_f64()?,
            tenants: tree.get("tenants")?.list(|t| {
                Ok(TenantOutcome {
                    tenant: t.get("tenant")?.as_u64()?,
                    flood: t.get("flood")?.as_bool()?,
                    quota_ms: t.get("quota_ms")?.as_f64()?,
                    offered: t.get("offered")?.as_u64()?,
                    served: t.get("served")?.as_u64()?,
                    shed: t.get("shed")?.as_u64()?,
                    rejected: t.get("rejected")?.as_u64()?,
                    quarantined_periods: t.get("quarantined_periods")?.as_u64()?,
                    p50_ms: t.get("p50_ms")?.as_f64()?,
                    p99_ms: t.get("p99_ms")?.as_f64()?,
                    p999_ms: t.get("p999_ms")?.as_f64()?,
                    baseline_p99_ms: t.get("baseline_p99_ms")?.as_f64()?,
                    p99_ratio: t.get("p99_ratio")?.as_f64()?,
                })
            })?,
            wall_ms: tree.get("wall_ms")?.as_u64()?,
        })
    }
}

impl TenantsArtifact {
    /// The isolation invariants any passing soak obeys. Non-empty means
    /// the tenant server broke a promise.
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.tenants.is_empty() {
            problems.push("no tenants in the artifact".to_owned());
        }
        if self.tenants.iter().filter(|t| t.flood).count() != 1 {
            problems.push("the soak needs exactly one flooding tenant".to_owned());
        }
        if self.periodic_misses != 0 {
            problems.push(format!(
                "{} hard-RT deadline miss(es): tenant overload leaked past the server budget",
                self.periodic_misses
            ));
        }
        if self.audit_violations != 0 {
            problems.push(format!(
                "{} audit finding(s) in the kernel-log / tenant-isolation replay",
                self.audit_violations
            ));
        }
        for t in &self.tenants {
            let who = format!("tenant{}", t.tenant);
            if t.flood {
                if t.shed == 0 {
                    problems.push(format!("{who}: flooded but shed nothing — no backpressure"));
                }
                if t.rejected == 0 {
                    problems.push(format!("{who}: flooded but was never quarantined-rejected"));
                }
                if t.quarantined_periods == 0 {
                    problems.push(format!("{who}: flooded but never quarantined"));
                }
            } else {
                if t.shed != 0 || t.rejected != 0 {
                    problems.push(format!(
                        "{who}: compliant yet lost requests (shed={}, rejected={}) — quota theft",
                        t.shed, t.rejected
                    ));
                }
                if t.quarantined_periods != 0 {
                    problems.push(format!("{who}: compliant yet quarantined"));
                }
                if t.offered == 0 || t.served == 0 {
                    problems.push(format!("{who}: offered or served nothing — dead stream"));
                }
                if !(t.p99_ratio > 0.0 && t.p99_ratio <= self.p99_ratio_limit) {
                    problems.push(format!(
                        "{who}: flooded p99 is {:.4}x the flood-free p99 (limit {:.4})",
                        t.p99_ratio, self.p99_ratio_limit
                    ));
                }
            }
        }
        problems
    }
}

/// Nearest-rank percentile of an unsorted latency sample (0 if empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One kernel run's raw outcome.
struct SoakRun {
    energy: f64,
    misses: u64,
    audit_findings: u64,
    forfeited: u64,
    offered: Vec<u64>,
    served: Vec<u64>,
    shed: Vec<u64>,
    rejected: Vec<u64>,
    quarantined_periods: Vec<u64>,
    /// Per-tenant response latencies, sorted ascending.
    latencies: Vec<Vec<f64>>,
}

/// Runs one kernel to the horizon. `flood_active` controls whether the
/// flooding tenant's generator submits; everything else — periodic
/// bodies, overrun draws, compliant streams — is bit-identical across
/// the flooded and baseline runs.
fn run_soak(cfg: &TenantsConfig, flood_active: bool) -> SoakRun {
    let root = SplitMix64::seed_from_u64(cfg.seed);
    let mut kernel = RtKernel::new(cfg.machine.clone(), cfg.policy);
    for (i, &(period, wcet)) in cfg.periodic.iter().enumerate() {
        let mut body_rng = root.split(0x7E_0100 + i as u64);
        let plan = FaultPlan::new(root.split(0x7E_0200 + i as u64).next_u64())
            .with_overruns(cfg.overrun_rate, cfg.overrun_factor);
        let (mut fault_rng, fault) = plan
            .overrun_injector()
            .expect("the plan configures overruns");
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
    }
    let quotas: Vec<TenantQuota> = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TenantQuota::new(TenantId::from_raw(i as u64 + 1), t.quota, t.max_backlog))
        .collect();
    let (_handle, server) = kernel
        .spawn_tenant_server(cfg.server_period, cfg.server_budget, &quotas)
        .expect("quotas fit the budget and the budget passes admission");

    run_offered_load(cfg, flood_active, &mut kernel, &server)
}

/// Drives the open-loop generators into `server` one server period at a
/// time, stepping `kernel` between batches, and tallies the outcome.
fn run_offered_load(
    cfg: &TenantsConfig,
    flood_active: bool,
    kernel: &mut RtKernel,
    server: &TenantServer,
) -> SoakRun {
    let n = cfg.tenants.len();
    let mut gens: Vec<Option<OpenLoopGen>> = Vec::with_capacity(n);
    let mut wheel = TimingWheel::new(n);
    for (i, t) in cfg.tenants.iter().enumerate() {
        if t.flood && !flood_active {
            gens.push(None);
            continue;
        }
        let spec = OpenLoopSpec {
            mean_interarrival_ms: t.mean_interarrival_ms,
            interarrival_cap: cfg.interarrival_cap,
            mean_work_ms: cfg.mean_work_ms,
            work_jitter: cfg.work_jitter,
            diurnal_period_ms: cfg.diurnal_period_ms,
            diurnal_depth: t.diurnal_depth,
        };
        let gen = OpenLoopGen::new(spec, cfg.seed, 0x7E_0300 + i as u64)
            .expect("the smoke spec is well-formed");
        let first = gen.clone().next_request().at_ms;
        wheel.schedule(i, Time::from_ms(first));
        gens.push(Some(gen));
    }

    let mut offered = vec![0u64; n];
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut offered_work = vec![0.0f64; n];
    let mut quarantined_periods = vec![0u64; n];
    let mut batch: Vec<Request> = Vec::new();
    let mut due = Vec::new();
    let period_ms = cfg.server_period.as_ms();
    let n_periods = (cfg.horizon.as_ms() / period_ms).floor() as u64;
    for b in 1..=n_periods {
        let t = Time::from_ms(period_ms * b as f64);
        // Release every generator whose next arrival lands before this
        // boundary, earliest wheel expiry first.
        while let Some(min) = wheel.peek_min() {
            if min.as_ms() >= t.as_ms() {
                break;
            }
            wheel.advance(min);
            wheel.collect_due(min, &mut due);
            for (w, &word) in due.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let k = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    wheel.cancel(k);
                    let gen = gens[k].as_mut().expect("only scheduled lanes expire");
                    batch.clear();
                    gen.drain_until(t.as_ms(), &mut batch);
                    for r in &batch {
                        offered[k] += 1;
                        offered_work[k] += r.work_ms;
                        server.submit(
                            TenantId::from_raw(k as u64 + 1),
                            Work::from_ms(r.work_ms),
                            Time::from_ms(r.at_ms),
                        );
                    }
                    let next = gen.clone().next_request().at_ms;
                    wheel.schedule(k, Time::from_ms(next));
                }
            }
        }
        wheel.advance(t);
        kernel.run_until(t);
        for (i, lane) in server.lane_stats().iter().enumerate() {
            if lane.quarantined {
                quarantined_periods[i] += 1;
            }
        }
        for (k, sink) in latencies.iter_mut().enumerate() {
            for job in server.take_completed(TenantId::from_raw(k as u64 + 1)) {
                sink.push((job.completed - job.arrival).as_ms());
            }
        }
    }

    for sink in &mut latencies {
        sink.sort_by(|a, b| a.total_cmp(b));
    }
    let lanes = server.lane_stats();
    let standings: Vec<TenantStanding> = lanes
        .iter()
        .enumerate()
        .map(|(i, lane)| TenantStanding {
            tenant: i as u64 + 1,
            over_quota: offered_work[i] > lane.quota.as_ms() * n_periods as f64,
            shed: lane.shed,
            rejected: lane.rejected,
        })
        .collect();
    let audit_findings = audit_kernel_log(kernel.log())
        .iter()
        .filter(|v| v.rule != Rule::DeadlineMiss)
        .count() as u64
        + audit_tenant_isolation(&standings, kernel.log()).len() as u64;
    SoakRun {
        energy: kernel.energy(),
        misses: kernel.misses().count() as u64,
        audit_findings,
        forfeited: server.forfeited_releases(),
        offered,
        served: lanes.iter().map(|l| l.served_jobs).collect(),
        shed: lanes.iter().map(|l| l.shed).collect(),
        rejected: lanes.iter().map(|l| l.rejected).collect(),
        quarantined_periods,
        latencies,
    }
}

/// Runs the full soak — the flooded run plus the flood-free baseline at
/// identical compliant streams — and packs it into the artifact.
///
/// # Panics
///
/// Panics if the config has no tenants or not exactly one flooding
/// tenant, or if the periodic set plus server fail admission.
#[must_use]
pub fn run_tenants(cfg: &TenantsConfig) -> TenantsArtifact {
    assert!(
        cfg.tenants.iter().filter(|t| t.flood).count() == 1,
        "the soak needs exactly one flooding tenant"
    );
    let start = Instant::now();
    let flooded = run_soak(cfg, true);
    let baseline = run_soak(cfg, false);

    let served_total: u64 = flooded.served.iter().sum();
    let tenants = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let flood_lat = &flooded.latencies[i];
            let p99 = percentile(flood_lat, 0.99);
            let baseline_p99 = percentile(&baseline.latencies[i], 0.99);
            TenantOutcome {
                tenant: i as u64 + 1,
                flood: spec.flood,
                quota_ms: spec.quota.as_ms(),
                offered: flooded.offered[i],
                served: flooded.served[i],
                shed: flooded.shed[i],
                rejected: flooded.rejected[i],
                quarantined_periods: flooded.quarantined_periods[i],
                p50_ms: percentile(flood_lat, 0.50),
                p99_ms: p99,
                p999_ms: percentile(flood_lat, 0.999),
                baseline_p99_ms: baseline_p99,
                p99_ratio: if spec.flood || baseline_p99 <= 0.0 {
                    0.0
                } else {
                    p99 / baseline_p99
                },
            }
        })
        .collect();
    TenantsArtifact {
        seed: cfg.seed,
        horizon_ms: cfg.horizon.as_ms(),
        server_period_ms: cfg.server_period.as_ms(),
        server_budget_ms: cfg.server_budget.as_ms(),
        p99_ratio_limit: cfg.p99_ratio_limit,
        periodic_misses: flooded.misses + baseline.misses,
        audit_violations: flooded.audit_findings + baseline.audit_findings,
        forfeited_releases: flooded.forfeited,
        energy_per_request: if served_total == 0 {
            0.0
        } else {
            flooded.energy / served_total as f64
        },
        tenants,
        wall_ms: u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A horizon short enough for debug-build tests; the p99 gate is
    /// relaxed because small samples make the ratio noisy.
    fn tiny() -> TenantsConfig {
        let mut cfg = tenants_smoke_config(0x7E);
        cfg.horizon = Time::from_ms(3_000.0);
        cfg.p99_ratio_limit = 1.5;
        cfg
    }

    #[test]
    fn canonical_json_is_deterministic_and_hides_wall_clock() {
        let a = run_tenants(&tiny());
        let b = run_tenants(&tiny());
        assert!(a.canonical_json().contains("\"wall_ms\": 0"));
        assert_eq!(a.canonical_json(), b.canonical_json());
    }

    #[test]
    fn flood_is_contained_in_the_tiny_shape() {
        let art = run_tenants(&tiny());
        let problems = art.validate();
        assert!(problems.is_empty(), "{problems:?}");
        let flood = art.tenants.iter().find(|t| t.flood).expect("one flood");
        assert!(flood.shed > 0 && flood.rejected > 0);
        assert!(flood.quarantined_periods > 0);
        for t in art.tenants.iter().filter(|t| !t.flood) {
            assert_eq!(t.shed, 0, "tenant{} lost requests", t.tenant);
            assert_eq!(t.rejected, 0, "tenant{} was rejected", t.tenant);
            assert!(t.served > 0);
        }
        assert_eq!(art.periodic_misses, 0);
        assert_eq!(art.audit_violations, 0);
    }

    #[test]
    fn validate_flags_quota_theft() {
        let mut art = run_tenants(&tiny());
        let victim = art
            .tenants
            .iter_mut()
            .find(|t| !t.flood)
            .expect("compliant tenant");
        victim.shed = 3;
        assert!(
            art.validate().iter().any(|p| p.contains("quota theft")),
            "{:?}",
            art.validate()
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.50), 2.0);
        assert_eq!(percentile(&sorted, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }
}
