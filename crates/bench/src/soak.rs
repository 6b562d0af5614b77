//! Single-fault soaks: one adversity swept over a rate axis, with blame
//! accounting.
//!
//! The paper's evaluation (§4) has one experiment shape: sweep one axis,
//! run the six policies, and normalize energy against a baseline run. A
//! soak is that shape with an adversity rate on the x axis. For every
//! `(rate, set)` cell it draws one plan, shared by every policy column,
//! and runs each policy twice at the same body seed: once under the plan
//! and once clean (the twin). The grid packs into the `rtdvs-bench/v1`
//! artifact under the soak's label:
//!
//! | [`Soak`] | label | executor | adversity at rate `r` |
//! |---|---|---|---|
//! | `Faults` | `chaos-soak` | sim engine, Table 2, machine 0 | [`chaos_plan`] |
//! | `Modes` | `mode-churn` | kernel, Table 2, machine 0 | a period toggle per 20 ms slot with probability `r` |
//! | `Regulator` | `regulator-soak` | kernel, relaxed Table 2, K6-2+ | [`regulator_plan`] plus a brownout cap per 100 ms slot with probability `r` |
//! | `Clock` | `clock-soak` | kernel, relaxed Table 2, K6-2+ | [`clock_plan`] |
//!
//! `energy_norm` is the plan run's energy over its clean twin's. The
//! faults soak counts the misses the sim-side classifier
//! ([`rtdvs_audit::classify_misses`]) blames on the policy in
//! `deadline_miss` and the fault-induced ones in `fault_miss`. The kernel
//! soaks count policy-blamed misses (see [`crate::campaign`]'s blame
//! classifier) plus non-miss audit findings in `deadline_miss`, and the
//! excused misses in `fault_miss`. Any miss of a clean twin counts as
//! policy-blamed.
//!
//! At rate 0 every plan is inactive, yet the regulator soak still
//! attaches its (ideal) regulator and the clock soak its (inactive) clock
//! plan. The plan run must then be byte-identical to its twin, so the
//! rate-0 column normalizing to exactly 1.0 bitwise is the committed proof
//! that an idle fault layer is free.
//!
//! The soaked sets are admitted by all six paper policies, so a clean run
//! misses nothing and any policy-blamed miss in the grid is a genuine bug.

use std::time::Instant;

use rtdvs_audit::{fault_induced_misses, policy_bug_misses};
use rtdvs_core::example::table2_task_set;
use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::task::TaskSet;
use rtdvs_core::time::Time;
use rtdvs_kernel::{KernelError, RtKernel, UniformBody};
use rtdvs_platform::{PowerNowCpu, RegulatorPlan, UnreliableRegulator};
use rtdvs_sim::{simulate, ClockPlan, ExecModel, FaultPlan, SimConfig};
use rtdvs_taskgen::SplitMix64;

use crate::artifact::{BenchArtifact, BenchGrid, BenchPoint, BenchSeries};
use crate::campaign::{brownout_schedule, churn_schedule, kernel_blame, submit_churn, Window};
use crate::tenants::RELAXED_TABLE2;

/// The clock plan's drift cap, ppm: an order of magnitude past a bad
/// crystal, enough to make the estimator's margins matter.
const DRIFT_MAX_PPM: f64 = 400.0;

/// Largest coalesced tick burst the clock plan may defer.
const COALESCE_BURST: u32 = 4;

/// Largest backward RTC jump the clock plan may attempt, ms.
const JUMP_MAX_MS: f64 = 2.0;

/// Independent seed sets averaged per rate.
const SETS_PER_RATE: usize = 3;

/// Simulated horizon per run, ms.
const DURATION_MS: f64 = 600.0;

/// Which adversity a soak sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Soak {
    /// Sim-engine fault injection ([`chaos_plan`]).
    Faults,
    /// Transactional mode churn on the kernel.
    Modes,
    /// Unreliable regulator plus brownout caps on the kernel.
    Regulator,
    /// Seeded clock and timer faults on the kernel ([`clock_plan`]).
    Clock,
}

impl Soak {
    /// Every soak, in golden order.
    pub const ALL: [Soak; 4] = [Soak::Faults, Soak::Modes, Soak::Regulator, Soak::Clock];

    /// The artifact's grid label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Soak::Faults => "chaos-soak",
            Soak::Modes => "mode-churn",
            Soak::Regulator => "regulator-soak",
            Soak::Clock => "clock-soak",
        }
    }

    /// File name of the committed golden at the repository root.
    #[must_use]
    pub fn golden(self) -> &'static str {
        match self {
            Soak::Faults => "BENCH_faults.json",
            Soak::Modes => "BENCH_modes.json",
            Soak::Regulator => "BENCH_regulator.json",
            Soak::Clock => "BENCH_clock.json",
        }
    }

    /// The adversity rates swept (x axis), each in `[0, 1]`; 0 is an
    /// inactive plan.
    fn rates(self) -> [f64; 4] {
        match self {
            Soak::Faults => [0.0, 0.05, 0.1, 0.2],
            Soak::Modes => [0.0, 0.2, 0.5, 1.0],
            Soak::Regulator | Soak::Clock => [0.0, 0.05, 0.2, 0.5],
        }
    }

    /// The soaked task set: Table 2 on machine 0, or Table 2 with doubled
    /// periods on the K6-2+, whose accounted switch overhead inflates
    /// its utilization to about 0.49.
    fn tasks(self) -> TaskSet {
        match self {
            Soak::Faults | Soak::Modes => table2_task_set(),
            Soak::Regulator | Soak::Clock => {
                TaskSet::from_ms_pairs(&RELAXED_TABLE2).expect("the relaxed Table 2 set is valid")
            }
        }
    }
}

/// The fault plan at `rate`: WCET overruns to 1.5x at the rate; stuck
/// transitions, transition jitter and delayed releases at half of it. At
/// rate 0 it is exactly [`FaultPlan::none`].
#[must_use]
pub fn chaos_plan(fault_seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::new(fault_seed)
        .with_overruns(rate, 1.5)
        .with_stuck_transitions(rate * 0.5)
        .with_transition_jitter(rate * 0.5, Time::from_ms(0.1))
        .with_release_jitter(rate * 0.5, 0.25)
}

/// The K6-2+ regulator's failure plan at `rate`: ignored transitions at
/// the rate, handshake timeouts and late settles at half of it. At rate 0
/// it is exactly [`RegulatorPlan::ideal`].
#[must_use]
pub fn regulator_plan(seed: u64, rate: f64) -> RegulatorPlan {
    let stop = PowerNowCpu::k6_2_plus_550().stop_interval();
    RegulatorPlan::new(seed)
        .with_failures(rate)
        .with_timeouts(rate * 0.5, stop)
        .with_settle_jitter(rate * 0.5, stop)
}

/// The clock-fault plan at `rate`: drift retargets at the rate, tick loss
/// and coalescing at half of it, backward jumps at a quarter. At rate 0
/// it is exactly [`ClockPlan::none`].
#[must_use]
pub fn clock_plan(seed: u64, rate: f64) -> ClockPlan {
    ClockPlan::new(seed)
        .with_drift(rate, DRIFT_MAX_PPM)
        .with_tick_loss(rate * 0.5)
        .with_coalescing(rate * 0.5, COALESCE_BURST)
        .with_backward_jumps(rate * 0.25, JUMP_MAX_MS)
}

/// One cell's adversity, drawn once and shared by every policy column.
enum Plan {
    Faults(FaultPlan),
    Churn(Vec<Time>),
    Regulator(RegulatorPlan, Vec<(Time, Option<usize>)>),
    Clock(ClockPlan),
}

impl Plan {
    /// Draws `soak`'s adversity from the cell stream (after the body
    /// seed), with the campaign's schedule generators over the whole run.
    fn draw(soak: Soak, stream: &mut SplitMix64, rate: f64, duration: Time) -> Plan {
        let horizon_ms = duration.as_ms();
        match soak {
            Soak::Faults => Plan::Faults(chaos_plan(stream.next_u64(), rate)),
            Soak::Modes => Plan::Churn(churn_schedule(stream, rate, &Window::full(), horizon_ms)),
            Soak::Regulator => {
                let plan = regulator_plan(stream.next_u64(), rate);
                let brownouts = brownout_schedule(stream, rate, &Window::full(), horizon_ms);
                Plan::Regulator(plan, brownouts)
            }
            Soak::Clock => Plan::Clock(clock_plan(stream.next_u64(), rate)),
        }
    }
}

/// One run's (or one grid point's summed) outcome.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    energy: f64,
    /// Clean-twin energy (grid points only).
    baseline: f64,
    /// Policy-blamed misses plus non-miss audit findings.
    blamed: u64,
    /// Misses an injected adversity excuses.
    excused: u64,
}

/// Advances `kernel` to `at` unless it is already there.
fn step_to(kernel: &mut RtKernel, at: Time) {
    if kernel.now().as_ms() < at.as_ms() {
        kernel.run_for(at - kernel.now());
    }
}

/// Runs one policy of a kernel soak to `duration` and returns the
/// finished kernel; `plan` is `None` for the twin.
///
/// # Panics
///
/// Panics if a policy rejects the soaked set or a churn transaction is
/// refused for any reason but one still in flight: both are admissible
/// by construction.
fn kernel_run(
    soak: Soak,
    kind: PolicyKind,
    duration: Time,
    body_seed: u64,
    plan: Option<&Plan>,
) -> RtKernel {
    let cpu = PowerNowCpu::k6_2_plus_550();
    let mut kernel = if soak == Soak::Modes {
        RtKernel::new(Machine::machine0(), kind)
    } else {
        let machine = cpu.machine().expect("prototype machine is valid");
        RtKernel::new(machine, kind).with_accounted_switch_overhead(cpu.switch_overhead())
    };
    match plan {
        Some(Plan::Regulator(p, _)) => {
            kernel.attach_regulator(Box::new(UnreliableRegulator::new(cpu, *p)));
        }
        Some(Plan::Clock(p)) => kernel.set_clock_plan(*p),
        _ => {}
    }
    let tasks = soak.tasks();
    let mut bodies = SplitMix64::seed_from_u64(body_seed);
    let handles: Vec<_> = tasks
        .tasks()
        .iter()
        .map(|t| {
            let body = Box::new(UniformBody::new(bodies.next_u64()));
            kernel
                .spawn(t.period(), t.wcet(), body)
                .expect("every paper policy admits the soaked set")
        })
        .collect();
    match plan {
        Some(Plan::Churn(schedule)) => {
            let mut relaxed = false;
            for &at in schedule {
                step_to(&mut kernel, at);
                match submit_churn(&mut kernel, handles[0], &tasks.tasks()[0], &mut relaxed) {
                    // A transaction staged at an earlier slot and not yet
                    // at its safe point skips this slot's toggle.
                    Ok(()) | Err(KernelError::ModeChangeBusy) => {}
                    Err(e) => panic!("churn transaction rejected: {e}"),
                }
            }
        }
        Some(Plan::Regulator(_, brownouts)) => {
            for &(at, cap) in brownouts {
                step_to(&mut kernel, at);
                kernel.set_brownout_cap(cap);
            }
        }
        _ => {}
    }
    step_to(&mut kernel, duration);
    kernel
}

/// One policy's run under `plan` (`None`: the twin) on the soak's executor.
fn run_one(soak: Soak, kind: PolicyKind, body_seed: u64, plan: Option<&Plan>) -> Tally {
    let duration = Time::from_ms(DURATION_MS);
    if soak != Soak::Faults {
        let kernel = kernel_run(soak, kind, duration, body_seed, plan);
        let blame = kernel_blame(kernel.log());
        return Tally {
            energy: kernel.energy(),
            blamed: blame.blamed + blame.findings.len() as u64,
            excused: blame.excused,
            ..Tally::default()
        };
    }
    let mut sim = SimConfig::new(duration)
        .with_exec(ExecModel::uniform())
        .with_seed(body_seed);
    if let Some(Plan::Faults(faults)) = plan {
        sim = sim.with_faults(*faults);
    }
    let report = simulate(&soak.tasks(), &Machine::machine0(), kind, &sim);
    Tally {
        energy: report.energy(),
        blamed: policy_bug_misses(&report),
        excused: fault_induced_misses(&report),
        ..Tally::default()
    }
}

/// Runs a soak's grid — all six paper policies, the soak's four rates,
/// `SETS_PER_RATE` seed sets per rate, `DURATION_MS` per run — and
/// packs it into an artifact under the soak's label.
///
/// Deterministic in `(soak, seed)`: each `(rate, set)` cell draws its
/// body seed, then its plan, from
/// `SplitMix64::seed_from_u64(seed).split(cell_id)`, and the grid is
/// folded in cell-id order. Only `wall_ms` varies between runs.
///
/// # Panics
///
/// Panics if a policy rejects the soaked set, or a churn transaction is
/// refused for any reason but one still in flight (both are admissible
/// by construction).
#[must_use]
pub fn run_soak(soak: Soak, seed: u64) -> BenchArtifact {
    let start = Instant::now();
    let policies = PolicyKind::paper_six();
    let rates = soak.rates();
    let n_pol = policies.len();
    let mut cells = vec![Tally::default(); rates.len() * n_pol];
    for (ri, &rate) in rates.iter().enumerate() {
        for s in 0..SETS_PER_RATE {
            let cell_id = (ri * SETS_PER_RATE + s) as u64;
            let mut stream = SplitMix64::seed_from_u64(seed).split(cell_id);
            let body_seed = stream.next_u64();
            let plan = Plan::draw(soak, &mut stream, rate, Time::from_ms(DURATION_MS));
            for (pi, &kind) in policies.iter().enumerate() {
                let hard = run_one(soak, kind, body_seed, Some(&plan));
                let clean = run_one(soak, kind, body_seed, None);
                let cell = &mut cells[ri * n_pol + pi];
                cell.energy += hard.energy;
                cell.baseline += clean.energy;
                cell.blamed += hard.blamed + clean.blamed + clean.excused;
                cell.excused += hard.excused;
            }
        }
    }

    let n_tasks = soak.tasks().len();
    let series = policies
        .iter()
        .enumerate()
        .map(|(pi, kind)| BenchSeries {
            policy: kind.name().to_owned(),
            n_tasks,
            points: rates
                .iter()
                .enumerate()
                .map(|(ri, &rate)| {
                    let cell = &cells[ri * n_pol + pi];
                    BenchPoint {
                        u: rate,
                        energy_norm: cell.energy / cell.baseline,
                        deadline_miss: cell.blamed,
                        fault_miss: cell.excused,
                    }
                })
                .collect(),
        })
        .collect();
    BenchArtifact {
        seed,
        threads: 1,
        grid: BenchGrid {
            label: soak.label().to_owned(),
            n_tasks: vec![n_tasks],
            utilizations: rates.to_vec(),
            sets_per_point: SETS_PER_RATE,
            duration_ms: DURATION_MS,
            policies: policies.iter().map(|k| k.name().to_owned()).collect(),
        },
        series,
        wall_ms: start.elapsed().as_millis() as u64,
    }
}

/// Every problem of a soak artifact: its structural ones
/// ([`BenchArtifact::validate`]) plus each broken soak promise:
///
/// - no policy-blamed miss or non-miss audit finding at any rate;
/// - mode churn excuses nothing, so it misses nothing at all;
/// - the rate-0 column is the clean twin: `energy_norm` bitwise 1.0 and
///   no excused miss;
/// - the top rate leaves a footprint on some policy (an energy shift or
///   an excused miss), and under sim-engine faults at least one excused
///   miss;
/// - fault containment and regulator hardening can only add energy, so
///   under faults and the regulator some policy pays for them at the top
///   rate (`energy_norm` above 1).
#[must_use]
pub fn soak_violations(soak: Soak, art: &BenchArtifact) -> Vec<String> {
    let mut problems = art.validate();
    let top = art.grid.utilizations.len().saturating_sub(1);
    let mut top_excused = 0u64;
    let mut top_footprint = false;
    let mut top_worst = f64::MIN;
    for series in &art.series {
        for (ri, p) in series.points.iter().enumerate() {
            let who = format!("{} at rate {}", series.policy, p.u);
            if p.deadline_miss != 0 {
                problems.push(format!("{who}: {} policy-blamed miss(es)", p.deadline_miss));
            }
            if p.fault_miss != 0 && (soak == Soak::Modes || p.u.to_bits() == 0) {
                problems.push(format!("{who}: {} excused miss(es)", p.fault_miss));
            }
            let bitwise_one = p.energy_norm.to_bits() == 1.0_f64.to_bits();
            if p.u.to_bits() == 0 && !bitwise_one {
                problems.push(format!(
                    "{who}: energy_norm {} — an inactive plan must be free",
                    p.energy_norm
                ));
            }
            if ri == top {
                top_excused += p.fault_miss;
                top_footprint |= !bitwise_one || p.fault_miss > 0;
                top_worst = top_worst.max(p.energy_norm);
            }
        }
    }
    if !top_footprint {
        problems.push("the top rate left no footprint on any policy".to_owned());
    }
    if soak == Soak::Faults && top_excused == 0 {
        problems.push("no injected fault ever caused a miss at the top rate".to_owned());
    }
    if matches!(soak, Soak::Faults | Soak::Regulator) && top_worst <= 1.0 {
        problems.push(format!(
            "the top rate cost no policy any energy (largest energy_norm {top_worst})"
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Artifact;
    use rtdvs_audit::audit_kernel_log;

    /// The committed goldens' seed.
    const GOLDEN_SEED: u64 = 0x5eed;

    #[test]
    fn every_soak_is_deterministic_and_keeps_its_promises() {
        for soak in Soak::ALL {
            let art = run_soak(soak, GOLDEN_SEED);
            assert_eq!(art.grid.label, soak.label());
            assert_eq!(
                art.canonical_json(),
                run_soak(soak, GOLDEN_SEED).canonical_json(),
                "{soak:?}"
            );
            let problems = soak_violations(soak, &art);
            assert!(problems.is_empty(), "{soak:?}: {problems:?}");
        }
    }

    #[test]
    fn violations_catch_a_costly_inactive_plan_a_blamed_miss_and_free_hardening() {
        let clean = run_soak(Soak::Regulator, GOLDEN_SEED);
        let mut art = clean.clone();
        art.series[0].points[0].energy_norm = 1.0 + f64::EPSILON;
        art.series[1].points[1].deadline_miss = 1;
        assert_eq!(soak_violations(Soak::Regulator, &art).len(), 2);

        // Hardening that costs nothing at the top rate still leaves the
        // brownout caps' savings as a footprint, but no longer passes.
        let mut art = clean;
        for series in &mut art.series {
            let top = series.points.last_mut().expect("non-empty");
            top.energy_norm = top.energy_norm.min(1.0);
        }
        let problems = soak_violations(Soak::Regulator, &art);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("cost no policy any energy"));
    }

    #[test]
    fn mode_churn_commits_transactions() {
        let duration = Time::from_ms(300.0);
        let mut stream = SplitMix64::seed_from_u64(7).split(0);
        let body_seed = stream.next_u64();
        let plan = Plan::draw(Soak::Modes, &mut stream, 1.0, duration);
        let Plan::Churn(schedule) = &plan else {
            unreachable!("the modes soak draws a churn schedule")
        };
        assert!(schedule.len() >= 10, "schedule too sparse: {schedule:?}");
        let kernel = kernel_run(
            Soak::Modes,
            PolicyKind::CcEdf,
            duration,
            body_seed,
            Some(&plan),
        );
        assert!(
            kernel.mode_epoch() >= schedule.len() as u64 / 2,
            "only {} commits for {} churn slots",
            kernel.mode_epoch(),
            schedule.len()
        );
        assert!(audit_kernel_log(kernel.log()).is_empty());
    }

    #[test]
    fn brownouts_alternate_and_vanish_at_rate_zero() {
        let duration = Time::from_ms(600.0);
        for (rate, expect_some) in [(0.0, false), (0.7, true)] {
            let mut stream = SplitMix64::seed_from_u64(9).split(0);
            let Plan::Regulator(_, schedule) =
                Plan::draw(Soak::Regulator, &mut stream, rate, duration)
            else {
                unreachable!("the regulator soak draws a brownout schedule")
            };
            assert_eq!(!schedule.is_empty(), expect_some, "rate {rate}");
            // Strictly alternating impose/lift, starting with an imposition.
            for (i, (_, cap)) in schedule.iter().enumerate() {
                assert_eq!(cap.is_some(), i % 2 == 0, "rate {rate}: {schedule:?}");
            }
        }
    }
}
