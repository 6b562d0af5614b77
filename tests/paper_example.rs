//! End-to-end reproduction of the paper's worked example through the
//! public umbrella API: Table 4's normalized energies and the frequency
//! traces of Figs. 2, 3, 5, and 7.
#![allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]

use rtdvs::core::analysis::RmTest;
use rtdvs::core::example::{
    table2_task_set, table3_actual_times, table4_expected, EXAMPLE_HORIZON_MS,
};
use rtdvs::sim::theoretical_bound;
use rtdvs::{simulate, ExecModel, Machine, PolicyKind, SimConfig, Time};

fn example_cfg() -> SimConfig {
    SimConfig::new(Time::from_ms(EXAMPLE_HORIZON_MS))
        .with_exec(ExecModel::Trace(table3_actual_times()))
        .with_trace()
}

#[test]
fn table4_exact_energies() {
    let tasks = table2_task_set();
    let machine = Machine::machine0();
    let cfg = example_cfg();
    let base = simulate(&tasks, &machine, PolicyKind::PlainEdf, &cfg);
    // Plain EDF: 7 ms of work at 25 energy/work.
    assert!((base.energy() - 175.0).abs() < 1e-9);

    for (kind, paper_value) in PolicyKind::paper_six()
        .into_iter()
        .zip(table4_expected().into_iter().map(|(_, v)| v))
    {
        let report = simulate(&tasks, &machine, kind, &cfg);
        assert!(report.all_deadlines_met(), "{}", kind.name());
        let normalized = report.normalized_against(&base);
        assert!(
            (normalized - paper_value).abs() < 0.005,
            "{}: got {normalized:.4}, paper reports {paper_value}",
            kind.name()
        );
    }
}

#[test]
fn table4_exact_fractions() {
    // Beyond the paper's two-decimal rounding, the energies are exactly
    // 175, 175, 112, 91, 125, and 77 units.
    let tasks = table2_task_set();
    let machine = Machine::machine0();
    let cfg = example_cfg();
    let expected = [175.0, 175.0, 112.0, 91.0, 125.0, 77.0];
    for (kind, want) in PolicyKind::paper_six().into_iter().zip(expected) {
        let report = simulate(&tasks, &machine, kind, &cfg);
        assert!(
            (report.energy() - want).abs() < 1e-9,
            "{}: energy {} != {want}",
            kind.name(),
            report.energy()
        );
    }
}

#[test]
fn la_edf_touches_the_paper_frequencies() {
    // Fig. 7: laEDF uses 0.75 for T1, then 0.5 for everything else.
    let tasks = table2_task_set();
    let machine = Machine::machine0();
    let report = simulate(&tasks, &machine, PolicyKind::LaEdf, &example_cfg());
    let trace = report.trace.as_ref().unwrap();
    let freq_at = |ms: f64| trace.point_at(Time::from_ms(ms), &machine).unwrap();
    assert_eq!(freq_at(1.0), 0.75);
    assert_eq!(freq_at(4.0), 0.5);
    assert_eq!(freq_at(9.0), 0.5);
    assert_eq!(freq_at(15.0), 0.5);
    // And never the maximum point anywhere in the horizon.
    for seg in trace.segments() {
        assert!(machine.point(seg.point).freq < 1.0);
    }
}

#[test]
fn cc_rm_uses_all_three_frequencies() {
    // Fig. 5's staircase needs 1.0, 0.75, and 0.5 to all appear.
    let tasks = table2_task_set();
    let machine = Machine::machine0();
    let report = simulate(
        &tasks,
        &machine,
        PolicyKind::CcRm(RmTest::default()),
        &example_cfg(),
    );
    let trace = report.trace.as_ref().unwrap();
    let mut seen = [false; 3];
    for seg in trace.segments() {
        seen[seg.point] = true;
    }
    assert_eq!(seen, [true, true, true]);
}

#[test]
fn static_rm_cannot_scale_but_static_edf_can() {
    // Fig. 2's asymmetry between the two static schemes.
    let tasks = table2_task_set();
    let machine = Machine::machine0();
    let cfg = SimConfig::new(Time::from_ms(EXAMPLE_HORIZON_MS)).with_trace();
    let rm = simulate(
        &tasks,
        &machine,
        PolicyKind::StaticRm(RmTest::default()),
        &cfg,
    );
    let edf = simulate(&tasks, &machine, PolicyKind::StaticEdf, &cfg);
    assert!(rm.all_deadlines_met() && edf.all_deadlines_met());
    for seg in rm.trace.as_ref().unwrap().segments() {
        assert_eq!(machine.point(seg.point).freq, 1.0);
    }
    for seg in edf.trace.as_ref().unwrap().segments() {
        assert_eq!(machine.point(seg.point).freq, 0.75);
    }
}

/// Fig. 2's negative result, simulated directly: pinning the machine to
/// 0.75 is fine under EDF but makes T3 miss its 14 ms deadline under RM —
/// T1 and T2 monopolize the processor at their higher static priorities.
#[test]
fn rm_pinned_at_three_quarters_misses_t3() {
    use rtdvs::SchedulerKind;
    let tasks = table2_task_set();
    let machine = Machine::machine0();
    let cfg = SimConfig::new(Time::from_ms(EXAMPLE_HORIZON_MS)); // worst case
    let rm = simulate(
        &tasks,
        &machine,
        PolicyKind::Manual {
            scheduler: SchedulerKind::Rm,
            point: 1,
        },
        &cfg,
    );
    assert_eq!(rm.misses.len(), 1, "exactly T3's first deadline");
    let miss = &rm.misses[0];
    assert_eq!(miss.task, rtdvs::TaskId(2));
    assert!(miss.deadline.approx_eq(Time::from_ms(14.0)));
    // T3 never got to run at all before its deadline.
    assert!(miss.remaining.approx_eq(rtdvs::Work::from_ms(1.0)));

    let edf = simulate(
        &tasks,
        &machine,
        PolicyKind::Manual {
            scheduler: SchedulerKind::Edf,
            point: 1,
        },
        &cfg,
    );
    assert!(edf.all_deadlines_met(), "EDF at 0.75 meets all deadlines");
}

#[test]
fn look_ahead_beats_everything_and_bound_holds() {
    let tasks = table2_task_set();
    let machine = Machine::machine0();
    let cfg = example_cfg();
    let mut energies = Vec::new();
    for kind in PolicyKind::paper_six() {
        energies.push((kind.name(), simulate(&tasks, &machine, kind, &cfg).energy()));
    }
    let la = energies.iter().find(|(n, _)| *n == "laEDF").unwrap().1;
    for (name, e) in &energies {
        assert!(la <= *e + 1e-9, "laEDF should beat {name} on this example");
    }
    let base = simulate(&tasks, &machine, PolicyKind::PlainEdf, &cfg);
    let bound = theoretical_bound(&machine, base.total_work(), cfg.duration, 0.0);
    assert!(bound <= la + 1e-9);
    // 7 work over 16 ms → rate 0.4375 → mix of idle and the 0.5 point:
    // bound = 7 × 9 = 63.
    assert!((bound - 63.0).abs() < 1e-9);
}

#[test]
fn energies_scale_quadratically_with_voltage() {
    // Rescaling every voltage by k multiplies every energy by k².
    let tasks = table2_task_set();
    let scaled = Machine::new("scaled", &[(0.5, 6.0), (0.75, 8.0), (1.0, 10.0)]).unwrap();
    let cfg = example_cfg();
    for kind in PolicyKind::paper_six() {
        let a = simulate(&tasks, &Machine::machine0(), kind, &cfg).energy();
        let b = simulate(&tasks, &scaled, kind, &cfg).energy();
        assert!((b - 4.0 * a).abs() < 1e-6, "{}", kind.name());
    }
}
