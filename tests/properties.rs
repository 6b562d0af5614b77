//! Seeded-random property tests of the whole stack: for arbitrary
//! schedulable task sets and arbitrary actual-computation behavior, the
//! RT-DVS policies must never miss a deadline, never beat the theoretical
//! bound, never waste more energy than the non-DVS baseline, and never
//! switch more than twice per invocation.
//!
//! These were proptest suites; they now draw their cases from the
//! workspace's own `SplitMix64` so the whole tree builds offline. Every
//! case is a pure function of the fixed base seed, so failures reproduce
//! exactly.
#![allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]

use rtdvs::core::analysis::{rm_feasible_at, RmTest};
use rtdvs::sim::config::ArrivalModel;
use rtdvs::sim::theoretical_bound;
use rtdvs::taskgen::{generate, SplitMix64, TaskGenSpec};
use rtdvs::{simulate, ExecModel, Machine, PolicyKind, SimConfig, TaskSet, Time};

/// Cases per property. Proptest ran 48; these run a comparable amount
/// with none of the shrinking machinery (a failing case prints its index,
/// which is all that is needed to reproduce it).
const CASES: u64 = 48;

/// One drawn scenario: a task set, a machine, an execution model, and the
/// simulation seed.
struct Scenario {
    tasks: TaskSet,
    machine: Machine,
    exec: ExecModel,
    cfg: SimConfig,
}

fn draw_machine(r: &mut SplitMix64) -> Machine {
    match r.index(3) {
        0 => Machine::machine0(),
        1 => Machine::machine1(),
        _ => Machine::machine2(),
    }
}

fn draw_exec(r: &mut SplitMix64) -> ExecModel {
    match r.index(3) {
        0 => ExecModel::Wcet,
        1 => ExecModel::ConstantFraction(r.range_f64_inclusive(0.05, 1.0)),
        _ => {
            let lo = r.range_f64(0.0, 0.5);
            let hi = r.range_f64_inclusive(0.5, 1.0);
            ExecModel::UniformFraction { lo, hi }
        }
    }
}

fn draw_task_set(r: &mut SplitMix64) -> TaskSet {
    let n = 1 + r.index(8);
    let upct = 5 + r.index(95); // 5..=99 percent
    let spec = TaskGenSpec::new(n, upct as f64 / 100.0).expect("valid spec");
    generate(&spec, r.next_u64()).expect("generator succeeds")
}

fn draw_scenario(r: &mut SplitMix64) -> Scenario {
    let tasks = draw_task_set(r);
    let machine = draw_machine(r);
    let exec = draw_exec(r);
    let cfg = SimConfig::new(Time::from_ms(600.0))
        .with_exec(exec.clone())
        .with_seed(r.next_u64());
    Scenario {
        tasks,
        machine,
        exec,
        cfg,
    }
}

/// Runs `check` over `CASES` scenarios drawn from a per-property stream.
fn for_each_scenario(property_salt: u64, mut check: impl FnMut(usize, Scenario)) {
    let mut r = SplitMix64::seed_from_u64(0xD15C_0DE5 ^ property_salt);
    for case in 0..CASES {
        check(case as usize, draw_scenario(&mut r));
    }
}

/// The headline guarantee: EDF-based policies never miss a deadline on
/// any EDF-schedulable set (the generator only emits U ≤ 1), under any
/// execution behavior, on any machine.
#[test]
fn edf_policies_never_miss() {
    for_each_scenario(1, |case, s| {
        for kind in [
            PolicyKind::PlainEdf,
            PolicyKind::StaticEdf,
            PolicyKind::CcEdf,
            PolicyKind::LaEdf,
        ] {
            let report = simulate(&s.tasks, &s.machine, kind, &s.cfg);
            assert!(
                report.all_deadlines_met(),
                "case {case}: {} missed {} deadlines (first: {:?})",
                kind.name(),
                report.misses.len(),
                report.misses.first()
            );
        }
    });
}

/// RM-based policies never miss on RM-schedulable sets.
#[test]
fn rm_policies_never_miss_on_rm_feasible_sets() {
    for_each_scenario(2, |case, s| {
        if !rm_feasible_at(&s.tasks, 1.0, RmTest::SchedulingPoints) {
            return;
        }
        for kind in [
            PolicyKind::PlainRm,
            PolicyKind::StaticRm(RmTest::SchedulingPoints),
            PolicyKind::CcRm(RmTest::SchedulingPoints),
        ] {
            let report = simulate(&s.tasks, &s.machine, kind, &s.cfg);
            assert!(
                report.all_deadlines_met(),
                "case {case}: {} missed {} deadlines",
                kind.name(),
                report.misses.len()
            );
        }
    });
}

/// The Liu–Layland variant is also safe (it is only more conservative).
#[test]
fn rm_policies_never_miss_under_liu_layland_pacing() {
    for_each_scenario(3, |case, s| {
        if !rm_feasible_at(&s.tasks, 1.0, RmTest::LiuLayland) {
            return;
        }
        let machine = Machine::machine0();
        for kind in [
            PolicyKind::StaticRm(RmTest::LiuLayland),
            PolicyKind::CcRm(RmTest::LiuLayland),
        ] {
            let report = simulate(&s.tasks, &machine, kind, &s.cfg);
            assert!(report.all_deadlines_met(), "case {case}: {}", kind.name());
        }
    });
}

/// No policy beats the theoretical lower bound for the work it did.
#[test]
fn nothing_beats_the_bound() {
    for_each_scenario(4, |case, s| {
        let mut cfg = s.cfg.clone();
        let mut r = SplitMix64::seed_from_u64(cfg.seed ^ 4);
        cfg.idle_level = r.range_f64_inclusive(0.0, 1.0);
        for kind in PolicyKind::paper_six() {
            let report = simulate(&s.tasks, &s.machine, kind, &cfg);
            let bound = theoretical_bound(
                &s.machine,
                report.total_work(),
                cfg.duration,
                cfg.idle_level,
            );
            assert!(
                bound <= report.energy() + 1e-6,
                "case {case}: {} energy {} below bound {bound}",
                kind.name(),
                report.energy()
            );
        }
    });
}

/// DVS never costs more than no DVS: every EDF-based policy's energy is
/// at most plain EDF's (the RM pair compares against plain RM).
#[test]
fn dvs_is_never_worse_than_no_dvs() {
    for_each_scenario(5, |case, s| {
        let edf = simulate(&s.tasks, &s.machine, PolicyKind::PlainEdf, &s.cfg).energy();
        for kind in [PolicyKind::StaticEdf, PolicyKind::CcEdf, PolicyKind::LaEdf] {
            let e = simulate(&s.tasks, &s.machine, kind, &s.cfg).energy();
            assert!(
                e <= edf + 1e-6,
                "case {case}: {} used {e} > plain {edf}",
                kind.name()
            );
        }
        if !rm_feasible_at(&s.tasks, 1.0, RmTest::SchedulingPoints) {
            return;
        }
        let rm = simulate(&s.tasks, &s.machine, PolicyKind::PlainRm, &s.cfg).energy();
        for kind in [
            PolicyKind::StaticRm(RmTest::SchedulingPoints),
            PolicyKind::CcRm(RmTest::SchedulingPoints),
        ] {
            let e = simulate(&s.tasks, &s.machine, kind, &s.cfg).energy();
            assert!(
                e <= rm + 1e-6,
                "case {case}: {} used {e} > plain RM {rm}",
                kind.name()
            );
        }
    });
}

/// §2.5: "at most, they require 2 frequency/voltage switches per task
/// per invocation" — plus the initial setting.
#[test]
fn at_most_two_switches_per_invocation() {
    for_each_scenario(6, |case, s| {
        for kind in PolicyKind::paper_six() {
            let report = simulate(&s.tasks, &s.machine, kind, &s.cfg);
            let releases: u64 = report.task_stats.iter().map(|t| t.releases).sum();
            assert!(
                report.switches <= 2 * releases + 1,
                "case {case}: {}: {} switches for {releases} releases",
                kind.name(),
                report.switches
            );
        }
    });
}

/// Static policies never switch after the initial setting.
#[test]
fn static_policies_never_switch() {
    for_each_scenario(7, |case, s| {
        for kind in [
            PolicyKind::PlainEdf,
            PolicyKind::PlainRm,
            PolicyKind::StaticEdf,
            PolicyKind::StaticRm(RmTest::SchedulingPoints),
        ] {
            let report = simulate(&s.tasks, &s.machine, kind, &s.cfg);
            assert_eq!(report.switches, 0, "case {case}: {} switched", kind.name());
        }
    });
}

/// Runs are deterministic: same inputs, same report.
#[test]
fn simulation_is_deterministic() {
    for_each_scenario(8, |case, s| {
        let cfg = s.cfg.clone().with_exec(ExecModel::uniform());
        let a = simulate(&s.tasks, &s.machine, PolicyKind::LaEdf, &cfg);
        let b = simulate(&s.tasks, &s.machine, PolicyKind::LaEdf, &cfg);
        assert!(a.energy() == b.energy(), "case {case}: energy diverged");
        assert_eq!(a.switches, b.switches, "case {case}");
        assert_eq!(a.misses.len(), b.misses.len(), "case {case}");
    });
}

/// Sporadic arrivals (period = minimum inter-arrival) never break the
/// guarantees either: demand only shrinks.
#[test]
fn sporadic_arrivals_never_miss() {
    for_each_scenario(9, |case, s| {
        let mut cfg = s.cfg.clone();
        let mut r = SplitMix64::seed_from_u64(cfg.seed ^ 9);
        cfg.arrival = ArrivalModel::Sporadic {
            max_extra_fraction: r.range_f64_inclusive(0.0, 1.5),
        };
        for kind in [PolicyKind::PlainEdf, PolicyKind::CcEdf, PolicyKind::LaEdf] {
            let report = simulate(&s.tasks, &s.machine, kind, &cfg);
            assert!(
                report.all_deadlines_met(),
                "case {case}: {} missed under sporadic arrivals",
                kind.name()
            );
        }
        if !rm_feasible_at(&s.tasks, 1.0, RmTest::SchedulingPoints) {
            return;
        }
        for kind in [
            PolicyKind::PlainRm,
            PolicyKind::CcRm(RmTest::SchedulingPoints),
        ] {
            let report = simulate(&s.tasks, &s.machine, kind, &cfg);
            assert!(report.all_deadlines_met(), "case {case}: {}", kind.name());
        }
    });
}

/// The manual pin at the maximum point is equivalent to the plain
/// baseline.
#[test]
fn manual_pin_at_max_equals_plain() {
    for_each_scenario(10, |case, s| {
        let plain = simulate(&s.tasks, &s.machine, PolicyKind::PlainEdf, &s.cfg);
        let pinned = simulate(
            &s.tasks,
            &s.machine,
            PolicyKind::Manual {
                scheduler: rtdvs::SchedulerKind::Edf,
                point: s.machine.highest(),
            },
            &s.cfg,
        );
        assert!(
            plain.energy() == pinned.energy(),
            "case {case}: energy diverged ({} vs {})",
            plain.energy(),
            pinned.energy()
        );
        assert_eq!(plain.misses.len(), pinned.misses.len(), "case {case}");
        // The execution-model draw is part of the scenario even though this
        // property ignores its details.
        let _ = &s.exec;
    });
}

/// A rejected mode-change transaction leaves kernel *and* policy state
/// byte-identical, proven bitwise: a kernel that suffers the rejection is
/// checkpointed against a twin that replayed the same seeded op sequence
/// without it, and the two snapshot texts must match exactly. Six policies
/// × 200 sequences = 1200 cases, each covering a different rejection
/// flavor (empty transaction, unknown handle, malformed task, demand over
/// capacity — or `ModeChangeBusy` when the sequence left a transaction
/// staged).
#[test]
fn rejected_mode_change_is_bitwise_neutral() {
    use rtdvs::kernel::{ModeChange, RtKernel, SnapshotError, TaskHandle, UniformBody};
    use rtdvs::Work;

    const SEQUENCES_PER_POLICY: u64 = 200;
    let ms = Time::from_ms;
    let w = Work::from_ms;
    for (pi, kind) in PolicyKind::paper_six().into_iter().enumerate() {
        for case in 0..SEQUENCES_PER_POLICY {
            let mut r = SplitMix64::seed_from_u64(0xB17_4E47 ^ case).split(pi as u64);
            // Draw the whole scenario up front so both twins replay it
            // identically.
            let n = 1 + r.index(3);
            let tasks: Vec<(f64, f64, u64)> = (0..n)
                .map(|_| {
                    let p = r.range_f64(8.0, 30.0);
                    let c = p * r.range_f64(0.05, 0.55 / n as f64);
                    (p, c, r.next_u64())
                })
                .collect();
            let warm_ms = r.range_f64(10.0, 120.0);
            let valid_reparam_first = r.index(2) == 0;
            let settle_ms = r.range_f64(5.0, 40.0);
            let flavor = r.index(4);

            let spin = |reject: bool| -> String {
                let mut k = RtKernel::new(Machine::machine0(), kind);
                let mut handles = Vec::new();
                for &(p, c, seed) in &tasks {
                    handles.push(
                        k.spawn(ms(p), w(c), Box::new(UniformBody::new(seed)))
                            .expect("drawn set is admissible (U ≤ 0.55)"),
                    );
                }
                k.run_until(ms(warm_ms));
                if valid_reparam_first {
                    let (p, c, _) = tasks[0];
                    let _ = k.submit_mode_change(ModeChange::new().reparam(
                        handles[0],
                        ms(p * 1.25),
                        w(c),
                    ));
                    k.run_until(ms(warm_ms + settle_ms));
                }
                if reject {
                    let doomed = match flavor {
                        0 => ModeChange::new(),
                        1 => ModeChange::new().retire(TaskHandle::from_raw(9999)),
                        2 => {
                            ModeChange::new().admit(ms(5.0), w(9.0), Box::new(UniformBody::new(1)))
                        }
                        _ => {
                            ModeChange::new().admit(ms(10.0), w(9.9), Box::new(UniformBody::new(1)))
                        }
                    };
                    assert!(
                        k.submit_mode_change(doomed).is_err(),
                        "case {case}: doomed transaction was accepted"
                    );
                }
                // The sequence may have left a valid transaction staged; a
                // checkpoint refuses then, so run to the next safe point
                // (identically on both twins).
                let mut snap = k.checkpoint();
                let mut patience = 0;
                while matches!(snap, Err(SnapshotError::PendingModeChange)) && patience < 20 {
                    k.run_for(ms(50.0));
                    snap = k.checkpoint();
                    patience += 1;
                }
                snap.expect("checkpoint succeeds at a safe point")
                    .as_text()
                    .to_owned()
            };
            let with_rejection = spin(true);
            let control = spin(false);
            assert_eq!(
                with_rejection,
                control,
                "case {case}: {}: a rejected transaction left a trace",
                kind.name()
            );
        }
    }
}

/// The generator hits its utilization target and respects C ≤ P.
#[test]
fn generator_respects_spec() {
    let mut r = SplitMix64::seed_from_u64(11);
    for case in 0..CASES {
        let n = 1 + r.index(15);
        let upct = 5 + r.index(96); // 5..=100 percent
        let target = upct as f64 / 100.0;
        let spec = TaskGenSpec::new(n, target).expect("valid spec");
        let set = generate(&spec, r.next_u64()).expect("generator succeeds");
        assert_eq!(set.len(), n, "case {case}");
        assert!(
            (set.total_utilization() - target).abs() < 1e-9,
            "case {case}: target {target}, got {}",
            set.total_utilization()
        );
        for t in set.tasks() {
            assert!(
                t.wcet().as_ms() <= t.period().as_ms() + 1e-9,
                "case {case}: C > P"
            );
        }
    }
}
