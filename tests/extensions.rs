//! Integration tests for the documented extensions: hyperperiod
//! periodicity, statistical RT-DVS, the interval-governor baseline, and
//! the extra platform presets.
#![allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]

use rtdvs::core::example::table2_task_set;
use rtdvs::core::hyperperiod::hyperperiod;
use rtdvs::platform::{all_machines, crusoe_tm5400, xscale_80200};
use rtdvs::taskgen::{generate, TaskGenSpec};
use rtdvs::{simulate, ExecModel, Machine, PolicyKind, SimConfig, Time};

/// A synchronous schedule repeats every hyperperiod: for deterministic
/// execution, energy over `2H` is exactly twice the energy over `H`, for
/// every policy.
#[test]
fn energy_is_periodic_with_the_hyperperiod() {
    let tasks = table2_task_set();
    let machine = Machine::machine0();
    let h = hyperperiod(&tasks).expect("paper set has a hyperperiod");
    assert_eq!(h.as_ms(), 280.0);
    for exec in [ExecModel::Wcet, ExecModel::ConstantFraction(0.6)] {
        for kind in PolicyKind::paper_six() {
            let one = simulate(
                &tasks,
                &machine,
                kind,
                &SimConfig::new(h).with_exec(exec.clone()),
            );
            let two = simulate(
                &tasks,
                &machine,
                kind,
                &SimConfig::new(h * 2.0).with_exec(exec.clone()),
            );
            assert!(one.all_deadlines_met() && two.all_deadlines_met());
            assert!(
                (two.energy() - 2.0 * one.energy()).abs() < 1e-6,
                "{} with {exec:?}: E(2H) = {} vs 2·E(H) = {}",
                kind.name(),
                two.energy(),
                2.0 * one.energy()
            );
        }
    }
}

/// Statistical RT-DVS: lower confidence saves energy; higher confidence
/// misses less. Aggregated over seeds to ride out sampling noise.
#[test]
fn stochastic_confidence_trades_energy_for_misses() {
    let machine = Machine::machine0();
    let spec = TaskGenSpec::new(6, 0.85).unwrap();
    let mut totals = [(0.0f64, 0u64), (0.0, 0), (0.0, 0)]; // (energy, misses) per confidence
    let confidences = [0.5, 0.9, 1.0];
    for seed in 0..12u64 {
        let tasks = generate(&spec, seed).unwrap();
        let cfg = SimConfig::new(Time::from_secs(1.5))
            .with_exec(ExecModel::uniform())
            .with_seed(seed);
        for (slot, &confidence) in confidences.iter().enumerate() {
            let r = simulate(
                &tasks,
                &machine,
                PolicyKind::StochasticEdf { confidence },
                &cfg,
            );
            totals[slot].0 += r.energy();
            totals[slot].1 += r.misses.len() as u64;
        }
    }
    // Energy is monotone in confidence.
    assert!(totals[0].0 <= totals[1].0 + 1e-6, "{totals:?}");
    assert!(totals[1].0 <= totals[2].0 + 1e-6, "{totals:?}");
    // Misses are (weakly) anti-monotone.
    assert!(totals[0].1 >= totals[1].1, "{totals:?}");
    assert!(totals[1].1 >= totals[2].1, "{totals:?}");
}

/// At a quantile of 1.0 over a warm window, stochEDF behaves almost like
/// ccEDF (it reserves the observed max, never more than the WCET) and
/// misses rarely; ccEDF itself never misses.
#[test]
fn stochastic_full_confidence_is_nearly_cc_edf() {
    let machine = Machine::machine0();
    let spec = TaskGenSpec::new(5, 0.7).unwrap();
    let mut stoch_misses = 0usize;
    for seed in 0..10u64 {
        let tasks = generate(&spec, seed).unwrap();
        let cfg = SimConfig::new(Time::from_secs(1.0))
            .with_exec(ExecModel::ConstantFraction(0.8))
            .with_seed(seed);
        // Constant execution: the learned max equals the true demand, so
        // full confidence cannot miss.
        let r = simulate(
            &tasks,
            &machine,
            PolicyKind::StochasticEdf { confidence: 1.0 },
            &cfg,
        );
        stoch_misses += r.misses.len();
        let cc = simulate(&tasks, &machine, PolicyKind::CcEdf, &cfg);
        assert!(r.energy() <= cc.energy() + 1e-6, "seed {seed}");
    }
    assert_eq!(stoch_misses, 0);
}

/// The interval governor saves energy but cannot be trusted with
/// deadlines: across a batch of tight task sets it must miss somewhere,
/// while laEDF never does — the paper's core §5 argument, quantified.
#[test]
fn interval_governor_misses_where_rtdvs_does_not() {
    let machine = Machine::machine0();
    let spec = TaskGenSpec::new(5, 0.9).unwrap();
    let mut governor_misses = 0usize;
    let mut governor_energy = 0.0;
    let mut edf_energy = 0.0;
    for seed in 100..120u64 {
        let tasks = generate(&spec, seed).unwrap();
        let cfg = SimConfig::new(Time::from_secs(1.0))
            .with_exec(ExecModel::UniformFraction { lo: 0.3, hi: 1.0 })
            .with_seed(seed);
        let gov = simulate(&tasks, &machine, PolicyKind::Interval, &cfg);
        governor_misses += gov.misses.len();
        governor_energy += gov.energy();
        edf_energy += simulate(&tasks, &machine, PolicyKind::PlainEdf, &cfg).energy();
        let la = simulate(&tasks, &machine, PolicyKind::LaEdf, &cfg);
        assert!(la.all_deadlines_met(), "laEDF must not miss (seed {seed})");
    }
    assert!(
        governor_misses > 0,
        "a deadline-oblivious governor should miss somewhere at U = 0.9"
    );
    assert!(
        governor_energy < edf_energy,
        "the governor does save energy — that is its appeal"
    );
}

/// The extra platform presets behave consistently: every machine's
/// achievable savings floor matches its voltage range, and the RT-DVS
/// guarantee holds on all of them.
#[test]
fn presets_support_all_policies() {
    let spec = TaskGenSpec::new(5, 0.6).unwrap();
    let tasks = generate(&spec, 7).unwrap();
    let cfg = SimConfig::new(Time::from_secs(1.0)).with_exec(ExecModel::ConstantFraction(0.7));
    for machine in all_machines() {
        for kind in PolicyKind::paper_six() {
            let r = simulate(&tasks, &machine, kind, &cfg);
            assert!(
                r.all_deadlines_met() || kind.scheduler() == rtdvs::SchedulerKind::Rm,
                "{} on {}",
                kind.name(),
                machine.name()
            );
        }
    }
}

/// Narrow voltage ranges cap savings: normalized laEDF energy at low
/// utilization is lowest on machine 0 (3–5 V), higher on XScale
/// (1.0–1.5 V), higher still on Crusoe (1.2–1.6 V).
#[test]
fn voltage_range_orders_savings_across_presets() {
    let spec = TaskGenSpec::new(5, 0.3).unwrap();
    let machines = [
        Machine::machine0(),
        xscale_80200().unwrap(),
        crusoe_tm5400().unwrap(),
    ];
    let mut ratios = Vec::new();
    for machine in &machines {
        let mut ratio = 0.0;
        for seed in 0..6u64 {
            let tasks = generate(&spec, seed).unwrap();
            let cfg = SimConfig::new(Time::from_secs(1.0)).with_seed(seed);
            let base = simulate(&tasks, machine, PolicyKind::PlainEdf, &cfg);
            let la = simulate(&tasks, machine, PolicyKind::LaEdf, &cfg);
            ratio += la.energy() / base.energy();
        }
        ratios.push(ratio / 6.0);
    }
    assert!(
        ratios[0] < ratios[1] && ratios[1] < ratios[2],
        "savings ordering violated: {ratios:?}"
    );
}
