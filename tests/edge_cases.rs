//! Edge cases across the stack: degenerate machines, saturated and barely
//! exercised task sets, offsets, and tie-breaking.
#![allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]

use rtdvs::core::analysis::RmTest;
use rtdvs::kernel::{FractionBody, RtKernel, WcetBody};
use rtdvs::{
    simulate, ExecModel, Machine, PolicyKind, SimConfig, Task, TaskId, TaskSet, Time, Work,
};

fn ms(v: f64) -> Time {
    Time::from_ms(v)
}

/// On a machine with a single operating point, every policy degenerates to
/// the same schedule and the same energy.
#[test]
fn single_point_machine_equalizes_all_policies() {
    let machine = Machine::new("fixed", &[(1.0, 2.0)]).unwrap();
    let tasks = TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)]).unwrap();
    let cfg = SimConfig::new(ms(280.0)).with_exec(ExecModel::ConstantFraction(0.7));
    let energies: Vec<f64> = PolicyKind::paper_six()
        .into_iter()
        .map(|k| simulate(&tasks, &machine, k, &cfg).energy())
        .collect();
    for e in &energies {
        assert!((e - energies[0]).abs() < 1e-9, "{energies:?}");
    }
}

/// A single task with C = P at U = 1: the processor is busy the whole
/// horizon at full speed under every guaranteed policy, and no deadline is
/// missed.
#[test]
fn fully_saturated_single_task() {
    let tasks = TaskSet::from_ms_pairs(&[(10.0, 10.0)]).unwrap();
    let machine = Machine::machine0();
    let cfg = SimConfig::new(ms(100.0));
    for kind in PolicyKind::paper_six() {
        let r = simulate(&tasks, &machine, kind, &cfg);
        assert!(r.all_deadlines_met(), "{}", kind.name());
        // 100 ms of work at the maximum point: energy exactly 100 × 25.
        assert!(
            (r.energy() - 2500.0).abs() < 1e-6,
            "{}: {}",
            kind.name(),
            r.energy()
        );
        assert!(r.total_work().approx_eq(Work::from_ms(100.0)));
    }
}

/// A task whose offset lies beyond the horizon never runs, and the system
/// idles the entire time.
#[test]
fn offset_beyond_horizon_never_releases() {
    let tasks = TaskSet::new(vec![Task::with_offset(
        ms(10.0),
        Work::from_ms(2.0),
        ms(500.0),
    )
    .unwrap()])
    .unwrap();
    let machine = Machine::machine0();
    let mut cfg = SimConfig::new(ms(100.0));
    cfg.idle_level = 1.0;
    let r = simulate(&tasks, &machine, PolicyKind::CcEdf, &cfg);
    assert_eq!(r.task_stats[0].releases, 0);
    assert!(r.all_deadlines_met());
    // Pure idle at the lowest point: 100 × 4.5.
    assert!((r.energy() - 450.0).abs() < 1e-6);
}

/// Identical tasks: ties must break deterministically by id, giving T1
/// strictly better (or equal) slack than T2 everywhere.
#[test]
fn identical_tasks_tie_break_by_id() {
    let tasks = TaskSet::from_ms_pairs(&[(10.0, 3.0), (10.0, 3.0)]).unwrap();
    let machine = Machine::machine0();
    let cfg = SimConfig::new(ms(200.0));
    for kind in [PolicyKind::PlainEdf, PolicyKind::PlainRm] {
        let r = simulate(&tasks, &machine, kind, &cfg);
        assert!(r.all_deadlines_met());
        let s1 = r.task_stats[0].min_slack.unwrap();
        let s2 = r.task_stats[1].min_slack.unwrap();
        assert!(s1.as_ms() >= s2.as_ms() - 1e-9, "{}", kind.name());
    }
}

/// Per-task execution traces of different lengths clamp independently.
#[test]
fn ragged_trace_model() {
    let tasks = TaskSet::from_ms_pairs(&[(10.0, 4.0), (20.0, 6.0)]).unwrap();
    let machine = Machine::machine0();
    let exec = ExecModel::Trace(vec![
        vec![Work::from_ms(4.0), Work::from_ms(1.0)], // T1: then repeats 1.0
        vec![Work::from_ms(2.0)],                     // T2: always 2.0
    ]);
    let cfg = SimConfig::new(ms(60.0)).with_exec(exec);
    let r = simulate(&tasks, &machine, PolicyKind::PlainEdf, &cfg);
    assert!(r.all_deadlines_met());
    // T1: 4 + 1×5 = 9; T2: 2×3 = 6.
    assert!((r.task_stats[0].work.as_ms() - 9.0).abs() < 1e-9);
    assert!((r.task_stats[1].work.as_ms() - 6.0).abs() < 1e-9);
}

/// An idle-heavy set under a *static* policy must idle at the static
/// point, not the floor — the mechanism behind Fig. 10's divergence.
#[test]
fn static_policy_idles_at_its_point() {
    let tasks = TaskSet::from_ms_pairs(&[(10.0, 6.0)]).unwrap(); // U = 0.6 → 0.75 point
    let machine = Machine::machine0();
    let mut cfg = SimConfig::new(ms(100.0));
    cfg.idle_level = 1.0;
    let st = simulate(&tasks, &machine, PolicyKind::StaticEdf, &cfg);
    let cc = simulate(&tasks, &machine, PolicyKind::CcEdf, &cfg);
    // Same busy pattern (WCET execution), but ccEDF idles at 0.5/3 V.
    assert!((st.meter.busy_energy() - cc.meter.busy_energy()).abs() < 1e-6);
    assert!(cc.meter.idle_energy() < st.meter.idle_energy() - 1e-6);
}

/// Kernel no-ops: running to the past, running an empty kernel, and
/// spawning after a long quiet period all behave.
#[test]
fn kernel_time_edges() {
    let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::LaEdf);
    kernel.run_until(ms(50.0));
    let e = kernel.energy();
    kernel.run_until(ms(10.0)); // in the past: no-op
    assert_eq!(kernel.now(), ms(50.0));
    assert_eq!(kernel.energy(), e);
    kernel
        .spawn(ms(10.0), Work::from_ms(2.0), Box::new(WcetBody))
        .unwrap();
    kernel.run_until(ms(150.0));
    assert_eq!(kernel.misses().count(), 0);
    // Ten full invocations fit in [50, 150].
    assert!(
        kernel
            .log()
            .iter()
            .filter(|(_, ev)| matches!(ev, rtdvs::kernel::KernelEvent::Released { .. }))
            .count()
            >= 10
    );
}

/// Admission at exactly U = 1.0 is accepted for EDF and runs without
/// misses; one iota more is rejected.
#[test]
fn admission_at_the_edf_boundary() {
    let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
    kernel
        .spawn(ms(10.0), Work::from_ms(5.0), Box::new(FractionBody(1.0)))
        .unwrap();
    kernel
        .spawn(ms(20.0), Work::from_ms(10.0), Box::new(FractionBody(1.0)))
        .unwrap();
    assert!(kernel
        .spawn(ms(1000.0), Work::from_ms(1.0), Box::new(WcetBody))
        .is_err());
    kernel.run_until(ms(400.0));
    assert_eq!(kernel.misses().count(), 0);
}

/// RM-based policies on an RM-infeasible (but EDF-feasible) set: the
/// engine keeps running, records the misses, and the EDF flavors of the
/// same set stay clean — the paper's Fig. 2 asymmetry at system level.
#[test]
fn rm_infeasible_set_records_misses_gracefully() {
    let tasks = TaskSet::from_ms_pairs(&[(10.0, 5.0), (14.0, 6.9)]).unwrap();
    let machine = Machine::machine0();
    let cfg = SimConfig::new(ms(700.0));
    let rm = simulate(&tasks, &machine, PolicyKind::PlainRm, &cfg);
    assert!(!rm.all_deadlines_met());
    // Only the low-priority task suffers.
    assert!(rm.misses.iter().all(|m| m.task == TaskId(1)));
    let edf = simulate(&tasks, &machine, PolicyKind::PlainEdf, &cfg);
    assert!(edf.all_deadlines_met());
    let ccrm = simulate(&tasks, &machine, PolicyKind::CcRm(RmTest::default()), &cfg);
    assert!(!ccrm.all_deadlines_met());
    // ccRM (α = 1 fallback) paces plain RM: it must not miss *more* often.
    assert!(ccrm.misses.len() <= rm.misses.len() + 1);
}
