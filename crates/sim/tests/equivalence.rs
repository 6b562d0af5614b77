//! Differential pinning of the engine against the frozen baseline.
//!
//! `rtdvs_sim::baseline` is a verbatim copy of the pre-refactor engine
//! (linear ready scans, per-phase `Vec` snapshots). The rewritten engine
//! (an EDF ready queue and per-task timers in two tournament trees,
//! `rtdvs_core::MinTree`, and an RM rank bitmap) must be
//! observationally *identical* — not just equal energies, but the same
//! events in the same order, the same RNG draws, the same trace segments,
//! byte for byte. Every case here compares full `Debug` renderings of the
//! two reports (exact `f64` formatting roundtrips, so equal strings mean
//! bitwise-equal numbers) plus the structured trace slices. The one member
//! left out is `ops`: the baseline counts no operations.

use rtdvs_core::example::{table2_task_set, table3_actual_times, EXAMPLE_HORIZON_MS};
use rtdvs_core::task::TaskSet;
use rtdvs_core::{Machine, PolicyKind, RmTest, Time};
use rtdvs_sim::baseline::simulate_baseline;
use rtdvs_sim::{
    simulate, ArrivalModel, EngineOps, ExecModel, FaultEvent, FaultPlan, MissPolicy, SimConfig,
    SimReport,
};
use rtdvs_taskgen::{generate, TaskGenSpec};

/// Runs both engines and asserts bit-exact equality of the reports, all
/// but their operation counts. Returns the baseline's report, so a case
/// can check that its config reaches the path it is meant to. The engine
/// runs on a worker, so an engine that stalls fails the case instead of
/// hanging it, in release builds too.
fn assert_equivalent(
    tasks: &TaskSet,
    policy: PolicyKind,
    cfg: &SimConfig,
    label: &str,
) -> SimReport {
    let (tx, rx) = std::sync::mpsc::channel();
    let (worker_tasks, worker_cfg) = (tasks.clone(), cfg.clone());
    let worker = std::thread::spawn(move || {
        let _ = tx.send(simulate(
            &worker_tasks,
            &Machine::machine0(),
            policy,
            &worker_cfg,
        ));
    });
    let mut new = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .unwrap_or_else(|_| panic!("{label}: the engine stalled or panicked"));
    worker
        .join()
        .expect("the simulation thread finished cleanly");
    new.ops = EngineOps::default();
    let old = simulate_baseline(tasks, &Machine::machine0(), policy, cfg);

    // Structured comparisons first, for readable failures.
    assert_eq!(new.events, old.events, "{label}: event counts differ");
    assert_eq!(new.misses, old.misses, "{label}: deadline misses differ");
    assert_eq!(new.switches, old.switches, "{label}: switch counts differ");
    assert_eq!(new.faults, old.faults, "{label}: fault logs differ");
    assert!(
        new.energy().to_bits() == old.energy().to_bits(),
        "{label}: energy differs: {} vs {}",
        new.energy(),
        old.energy()
    );
    match (&new.trace, &old.trace) {
        (Some(a), Some(b)) => {
            assert_eq!(a.segments(), b.segments(), "{label}: trace segments differ");
            assert_eq!(a.events(), b.events(), "{label}: trace events differ");
        }
        (None, None) => {}
        _ => panic!("{label}: one engine recorded a trace, the other did not"),
    }
    // Then the catch-all: the full report must render identically.
    assert_eq!(
        format!("{new:?}"),
        format!("{old:?}"),
        "{label}: reports differ"
    );
    old
}

/// The paper's Table 2 set on the Table 3 trace, all six policies.
#[test]
fn paper_example_all_policies() {
    let tasks = table2_task_set();
    let cfg = SimConfig::new(Time::from_ms(EXAMPLE_HORIZON_MS))
        .with_exec(ExecModel::Trace(table3_actual_times()))
        .with_trace();
    for policy in PolicyKind::paper_six() {
        assert_equivalent(&tasks, policy, &cfg, policy.name());
    }
}

/// Random workloads across seeds, utilizations, and execution models.
#[test]
fn random_workloads_all_policies() {
    for &(n, util) in &[(3usize, 0.5f64), (5, 0.8), (8, 0.95)] {
        let spec = TaskGenSpec::new(n, util).expect("valid spec");
        for seed in 0..4u64 {
            let tasks = generate(&spec, 0x5eed_0000 + seed).expect("generated set");
            let cfg = SimConfig::new(Time::from_ms(500.0))
                .with_exec(ExecModel::uniform())
                .with_seed(seed)
                .with_trace();
            for policy in PolicyKind::paper_six() {
                let label = format!("{} n={n} u={util} seed={seed}", policy.name());
                assert_equivalent(&tasks, policy, &cfg, &label);
            }
        }
    }
}

/// Sporadic arrivals + SkipRelease misses: exercises the deadline-timer
/// reschedule path and the release/deadline divergence.
#[test]
fn sporadic_and_skip_release() {
    let tasks = TaskSet::from_ms_pairs(&[
        (4.0, 2.5),
        (6.0, 3.0),
        (9.0, 2.0),
        (13.0, 4.0),
        (20.0, 5.0),
        (31.0, 6.0),
    ])
    .expect("task set");
    let mut cfg = SimConfig::new(Time::from_ms(400.0))
        .with_exec(ExecModel::uniform())
        .with_arrival(ArrivalModel::Sporadic {
            max_extra_fraction: 0.5,
        })
        .with_seed(7)
        .with_trace();
    cfg.miss_policy = MissPolicy::SkipRelease;
    for policy in PolicyKind::paper_six() {
        let label = format!("sporadic/skip {}", policy.name());
        assert_equivalent(&tasks, policy, &cfg, &label);
    }
}

/// Overloaded periodic set under DropRemaining: steady deadline misses.
#[test]
fn overload_drop_remaining() {
    let tasks = TaskSet::from_ms_pairs(&[(5.0, 4.0), (7.0, 5.0), (11.0, 3.0)]).expect("task set");
    let cfg = SimConfig::new(Time::from_ms(300.0)).with_trace();
    for policy in PolicyKind::paper_six() {
        let label = format!("overload {}", policy.name());
        assert_equivalent(&tasks, policy, &cfg, &label);
    }
}

/// Full fault gauntlet: overruns with containment (quarantine masking),
/// stuck transitions, transition jitter, and release jitter, together.
#[test]
fn fault_plans_with_containment() {
    let spec = TaskGenSpec::new(5, 0.7).expect("valid spec");
    for seed in 0..3u64 {
        let tasks = generate(&spec, 0xfau64 * 1000 + seed).expect("generated set");
        let plan = FaultPlan::new(seed)
            .with_overruns(0.2, 1.8)
            .with_stuck_transitions(0.1)
            .with_transition_jitter(0.3, Time::from_ms(0.05))
            .with_release_jitter(0.2, 0.2);
        let cfg = SimConfig::new(Time::from_ms(400.0))
            .with_exec(ExecModel::uniform())
            .with_seed(seed)
            .with_faults(plan)
            .with_trace();
        for policy in PolicyKind::paper_six() {
            let label = format!("faults {} seed={seed}", policy.name());
            assert_equivalent(&tasks, policy, &cfg, &label);
        }
    }
}

/// Zero-work invocations (trace entries of 0) complete at their release
/// instant through the completion-candidate path.
#[test]
fn zero_work_releases() {
    let tasks = TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)]).expect("task set");
    let times = vec![
        vec![
            rtdvs_core::Work::from_ms(0.0),
            rtdvs_core::Work::from_ms(2.0),
        ],
        vec![rtdvs_core::Work::from_ms(0.0)],
        vec![
            rtdvs_core::Work::from_ms(1.0),
            rtdvs_core::Work::from_ms(0.0),
        ],
    ];
    let cfg = SimConfig::new(Time::from_ms(100.0))
        .with_exec(ExecModel::Trace(times))
        .with_trace();
    for policy in PolicyKind::paper_six() {
        let label = format!("zero-work {}", policy.name());
        assert_equivalent(&tasks, policy, &cfg, &label);
    }
}

/// Thousands of tasks all releasing at the same instant: every period is
/// shared by hundreds of tasks, so each release instant is due for a
/// same-instant batch of timers and the RM bitmap fills a word at a
/// time. The engines must agree on the collection order, the pick order,
/// and every switch.
#[test]
fn thousands_of_same_instant_releases() {
    let pairs: Vec<(f64, f64)> = (0..2048)
        .map(|i| {
            let period = 40.0 + f64::from(i % 8) * 5.0;
            (period, period * 0.0004)
        })
        .collect();
    let tasks = TaskSet::from_ms_pairs(&pairs).expect("task set");
    let cfg = SimConfig::new(Time::from_ms(100.0))
        .with_exec(ExecModel::uniform())
        .with_seed(3);
    for policy in [
        PolicyKind::PlainEdf,
        PolicyKind::StaticRm(RmTest::SchedulingPoints),
        PolicyKind::CcEdf,
    ] {
        let label = format!("same-instant {}", policy.name());
        assert_equivalent(&tasks, policy, &cfg, &label);
    }
}

/// A long horizon on the paper set: two minutes of timers, where the old
/// timing wheel cascaded and its ready-queue cursor wrapped many times.
#[test]
fn long_horizon_cascades() {
    let tasks = table2_task_set();
    let cfg = SimConfig::new(Time::from_ms(120_000.0))
        .with_exec(ExecModel::uniform())
        .with_seed(42);
    for policy in [
        PolicyKind::CcEdf,
        PolicyKind::LaEdf,
        PolicyKind::CcRm(RmTest::SchedulingPoints),
    ] {
        let label = format!("long {}", policy.name());
        assert_equivalent(&tasks, policy, &cfg, &label);
    }
}

/// Configs in which every release's deadline is its next release, so the
/// engine keeps one timer per task and finds each miss through the
/// release timer: periodic arrival, sporadic arrival with no extra and
/// release jitter of at most zero, under both miss policies (`SkipRelease`
/// then moves the deadline and the release together). The overloaded set
/// must miss in each.
#[test]
fn deadline_at_next_release_configs() {
    let spec = TaskGenSpec::new(6, 0.9).expect("valid spec");
    let tasks = generate(&spec, 0x06a9).expect("generated set");
    let overload =
        TaskSet::from_ms_pairs(&[(5.0, 4.0), (7.0, 5.0), (11.0, 3.0)]).expect("task set");
    let periodic = SimConfig::new(Time::from_ms(400.0))
        .with_exec(ExecModel::uniform())
        .with_seed(5)
        .with_trace();
    let sporadic = periodic.clone().with_arrival(ArrivalModel::Sporadic {
        max_extra_fraction: 0.0,
    });
    let jitter = periodic
        .clone()
        .with_faults(FaultPlan::new(9).with_release_jitter(1.0, 0.0));
    for (name, cfg) in [
        ("periodic", periodic),
        ("sporadic0", sporadic),
        ("jitter0", jitter),
    ] {
        for miss_policy in [MissPolicy::DropRemaining, MissPolicy::SkipRelease] {
            let mut cfg = cfg.clone();
            cfg.miss_policy = miss_policy;
            for policy in PolicyKind::paper_six() {
                let label = format!("{name} {miss_policy:?} {}", policy.name());
                assert_equivalent(&tasks, policy, &cfg, &label);
                let r = assert_equivalent(&overload, policy, &cfg, &format!("{label} overload"));
                assert!(!r.misses.is_empty(), "{label}: the overload never missed");
            }
        }
    }
}

/// Release jitter that fires on some releases only: a task's gaps mix
/// zero and non-zero, so on the jittered invocations its deadline falls
/// before its next release and its one timer moves between the two,
/// while on the others they coincide and the timer stays put, through
/// completions and misses under both miss policies.
#[test]
fn mixed_gaps_move_the_one_timer() {
    let spec = TaskGenSpec::new(5, 0.8).expect("valid spec");
    let tasks = generate(&spec, 0x61d5).expect("generated set");
    let overload =
        TaskSet::from_ms_pairs(&[(5.0, 4.0), (7.0, 5.0), (11.0, 3.0)]).expect("task set");
    for miss_policy in [MissPolicy::DropRemaining, MissPolicy::SkipRelease] {
        for seed in 0..3u64 {
            let mut cfg = SimConfig::new(Time::from_ms(400.0))
                .with_exec(ExecModel::uniform())
                .with_seed(seed)
                .with_faults(FaultPlan::new(seed).with_release_jitter(0.5, 0.3))
                .with_trace();
            cfg.miss_policy = miss_policy;
            for policy in PolicyKind::paper_six() {
                let label = format!("mixed {miss_policy:?} seed={seed} {}", policy.name());
                let r = assert_equivalent(&tasks, policy, &cfg, &label);
                let jittered = r
                    .faults
                    .iter()
                    .filter(|f| matches!(f, FaultEvent::ReleaseJitter { .. }))
                    .count() as u64;
                let releases: u64 = r.task_stats.iter().map(|t| t.releases).sum();
                assert!(
                    jittered > 0 && jittered < releases,
                    "{label}: {jittered} of {releases} releases jittered"
                );
                let r = assert_equivalent(&overload, policy, &cfg, &format!("{label} overload"));
                assert!(!r.misses.is_empty(), "{label}: the overload never missed");
            }
        }
    }
}
