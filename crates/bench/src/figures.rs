//! One driver per table/figure of the paper, plus the ablations called out
//! in DESIGN.md; the text of every `results/` file they produce
//! ([`results_files`]); and the exact diff the gate holds those files to
//! ([`diff_results_file`]).

use std::fmt::Write as _;
use std::num::NonZeroUsize;

use rtdvs_core::analysis::RmTest;
use rtdvs_core::example::{table2_task_set, table3_actual_times, EXAMPLE_HORIZON_MS};
use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::time::Time;
use rtdvs_platform::{PowerNowCpu, SystemPowerModel};
use rtdvs_sim::{simulate, ExecModel, SimConfig, SwitchOverhead};

use crate::artifact::{BenchArtifact, BenchGrid};
use crate::runner::{run_sweep_threads, SweepRun};
use crate::sweep::{available_threads, run_sweep, Sweep, SweepConfig, DEFAULT_SEED};

/// Scale knobs shared by all figure drivers, so tests can run cheap
/// versions of the committed experiments.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Task sets averaged per grid point (paper: "hundreds").
    pub sets_per_point: usize,
    /// Simulated horizon per run.
    pub duration: Time,
    /// Utilization grid step count across (0, 1].
    pub grid: usize,
}

impl Scale {
    /// The one scale of every committed paper number
    /// (`BENCH_paper_figures.json` and `results/`): 20 task sets per
    /// point, 2 s horizons, a 20-point utilization grid. The paper
    /// averages "hundreds" of sets; at 100 the gate that re-derives every
    /// number would not fit CI's 60 s.
    #[must_use]
    pub fn committed() -> Scale {
        Scale {
            sets_per_point: 20,
            duration: Time::from_secs(2.0),
            grid: 20,
        }
    }

    fn utilizations(&self) -> Vec<f64> {
        (1..=self.grid)
            .map(|i| i as f64 / self.grid as f64)
            .collect()
    }

    fn apply(&self, mut cfg: SweepConfig) -> SweepConfig {
        cfg.sets_per_point = self.sets_per_point;
        cfg.duration = self.duration;
        cfg.utilizations = self.utilizations();
        cfg
    }
}

/// The panels of the paper's headline energy-vs-utilization evaluation:
/// `(conference figure number, tasks per set)`.
///
/// The SOSP proceedings number the normalized-energy curves for 5, 10,
/// and 15 tasks as Figures 6, 7, and 8; the tech-report numbering used by
/// the CSV files in `results/` calls the same three panels Fig. 9.
pub const PAPER_FIGURE_PANELS: [(u32, usize); 3] = [(6, 5), (7, 10), (8, 15)];

/// One regenerated paper figure: conference number, tasks per set, and
/// the sharded run that produced it.
#[derive(Debug, Clone)]
pub struct PaperFigure {
    /// Conference figure number (6, 7, or 8).
    pub figure: u32,
    /// Tasks per generated set.
    pub n_tasks: usize,
    /// The sweep run (curves, spreads, cost accounting).
    pub run: SweepRun,
}

/// Regenerates the Figure 6–8 curves on the sharded runner: all six
/// policies, normalized energy vs utilization, one panel per task count.
#[must_use]
pub fn paper_figures(scale: Scale, seed: u64, threads: NonZeroUsize) -> Vec<PaperFigure> {
    PAPER_FIGURE_PANELS
        .into_iter()
        .map(|(figure, n_tasks)| {
            let mut cfg = scale.apply(SweepConfig::paper_default(n_tasks));
            cfg.seed = seed;
            PaperFigure {
                figure,
                n_tasks,
                run: run_sweep_threads(&cfg, threads),
            }
        })
        .collect()
}

/// Packs regenerated paper figures into the `BENCH_paper_figures.json`
/// artifact.
#[must_use]
pub fn paper_figures_artifact(
    figures: &[PaperFigure],
    scale: Scale,
    seed: u64,
    threads: NonZeroUsize,
) -> BenchArtifact {
    let policies: Vec<String> = PolicyKind::paper_six()
        .iter()
        .map(|k| k.name().to_owned())
        .collect();
    BenchArtifact {
        seed,
        threads: threads.get(),
        grid: BenchGrid {
            label: "paper-figures".to_owned(),
            n_tasks: figures.iter().map(|f| f.n_tasks).collect(),
            utilizations: scale.utilizations(),
            sets_per_point: scale.sets_per_point,
            duration_ms: scale.duration.as_ms(),
            policies,
        },
        series: figures
            .iter()
            .flat_map(|f| BenchArtifact::panel_series(&f.run.sweep, f.n_tasks))
            .collect(),
        wall_ms: figures.iter().map(|f| f.run.stats.wall_ms).sum(),
    }
}

/// Fig. 9: absolute energy vs utilization for 5, 10, and 15 tasks
/// (worst-case execution, perfect halt, machine 0): the
/// [`paper_figures`] panels at the default seed.
#[must_use]
pub fn fig9(scale: Scale) -> Vec<(usize, Sweep)> {
    paper_figures(scale, DEFAULT_SEED, available_threads())
        .into_iter()
        .map(|f| (f.n_tasks, f.run.sweep))
        .collect()
}

/// Fig. 10: normalized energy for idle levels 0.01, 0.1, and 1.0
/// (8 tasks, worst-case execution, machine 0).
#[must_use]
pub fn fig10(scale: Scale) -> Vec<(f64, Sweep)> {
    [0.01, 0.1, 1.0]
        .into_iter()
        .map(|idle| {
            let mut cfg = scale.apply(SweepConfig::paper_default(8));
            cfg.idle_level = idle;
            (idle, run_sweep(&cfg))
        })
        .collect()
}

/// Fig. 11: normalized energy on machines 0, 1, and 2 (8 tasks,
/// worst-case execution, perfect halt).
#[must_use]
pub fn fig11(scale: Scale) -> Vec<(Machine, Sweep)> {
    [
        Machine::machine0(),
        Machine::machine1(),
        Machine::machine2(),
    ]
    .into_iter()
    .map(|m| {
        let mut cfg = scale.apply(SweepConfig::paper_default(8));
        cfg.machine = m.clone();
        (m, run_sweep(&cfg))
    })
    .collect()
}

/// Fig. 12: normalized energy with actual computation a constant 90%, 70%,
/// and 50% of the worst case (8 tasks, machine 0).
#[must_use]
pub fn fig12(scale: Scale) -> Vec<(f64, Sweep)> {
    [0.9, 0.7, 0.5]
        .into_iter()
        .map(|c| {
            let mut cfg = scale.apply(SweepConfig::paper_default(8));
            cfg.exec = ExecModel::ConstantFraction(c);
            (c, run_sweep(&cfg))
        })
        .collect()
}

/// Fig. 13: normalized energy with computation uniformly distributed in
/// `[0, WCET]` (8 tasks, machine 0).
#[must_use]
pub fn fig13(scale: Scale) -> Sweep {
    let mut cfg = scale.apply(SweepConfig::paper_default(8));
    cfg.exec = ExecModel::uniform();
    run_sweep(&cfg)
}

/// The policies plotted in Figs. 16/17 (the prototype implemented these
/// four).
#[must_use]
pub fn prototype_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::PlainEdf,
        PolicyKind::StaticRm(RmTest::default()),
        PolicyKind::CcEdf,
        PolicyKind::LaEdf,
    ]
}

/// Fig. 17: mean *CPU* power vs utilization on the prototype's two-level
/// K6-2+ machine — 5 tasks, each consuming 90% of its worst case.
///
/// Returns the sweep in simulator power units (the paper's "arbitrary
/// unit" axis): energies divided by the horizon.
#[must_use]
pub fn fig17(scale: Scale) -> Sweep {
    let machine = PowerNowCpu::k6_2_plus_550()
        .machine()
        .expect("prototype machine is valid");
    let mut cfg = scale.apply(SweepConfig::paper_default(5));
    cfg.machine = machine;
    cfg.policies = prototype_policies();
    cfg.exec = ExecModel::ConstantFraction(0.9);
    run_sweep(&cfg)
}

/// Fig. 16: whole-system power in watts for the same experiment, adding
/// the HP N3350 envelope (screen off, disk in standby, as measured).
///
/// Returns `(utilization, watts-per-policy)` rows plus the policy names.
#[must_use]
pub fn fig16(scale: Scale) -> (Vec<&'static str>, Vec<(f64, Vec<f64>)>) {
    fig16_watts(&fig17(scale), scale.duration)
}

/// Fig. 16's watts from a Fig. 17 sweep over `duration`.
fn fig16_watts(fig17: &Sweep, duration: Time) -> (Vec<&'static str>, Vec<(f64, Vec<f64>)>) {
    let machine = PowerNowCpu::k6_2_plus_550()
        .machine()
        .expect("prototype machine is valid");
    let model = SystemPowerModel::hp_n3350();
    let rows = fig17
        .rows
        .iter()
        .map(|row| {
            let watts = row
                .energy
                .iter()
                .map(|e| {
                    let sim_power = e / duration.as_ms();
                    model.total_watts(&machine, sim_power, false, false)
                })
                .collect();
            (row.utilization, watts)
        })
        .collect();
    (fig17.policy_names.clone(), rows)
}

/// Table 1: the subsystem power decomposition of the prototype laptop.
#[must_use]
pub fn table1() -> Vec<(&'static str, &'static str, &'static str, f64)> {
    let machine = PowerNowCpu::k6_2_plus_550()
        .machine()
        .expect("prototype machine is valid");
    SystemPowerModel::hp_n3350().table1(&machine)
}

/// Table 4: normalized energy of all six policies on the worked example
/// (Tables 2 and 3, machine 0, 16 ms horizon, idle cycles free).
#[must_use]
pub fn table4() -> Vec<(&'static str, f64)> {
    let tasks = table2_task_set();
    let machine = Machine::machine0();
    let cfg = SimConfig::new(Time::from_ms(EXAMPLE_HORIZON_MS))
        .with_exec(ExecModel::Trace(table3_actual_times()));
    let base = simulate(&tasks, &machine, PolicyKind::PlainEdf, &cfg).energy();
    PolicyKind::paper_six()
        .into_iter()
        .map(|kind| {
            let r = simulate(&tasks, &machine, kind, &cfg);
            (kind.name(), r.energy() / base)
        })
        .collect()
}

/// Worked-example execution traces (Figs. 2, 3, 5, 7) rendered as ASCII
/// Gantt charts: `(figure label, policy name, chart)`.
#[must_use]
pub fn example_traces() -> Vec<(&'static str, &'static str, String)> {
    let tasks = table2_task_set();
    let machine = Machine::machine0();
    let horizon = Time::from_ms(EXAMPLE_HORIZON_MS);
    let worst = SimConfig::new(horizon).with_trace();
    let actual = SimConfig::new(horizon)
        .with_exec(ExecModel::Trace(table3_actual_times()))
        .with_trace();
    let runs: Vec<(&'static str, PolicyKind, &SimConfig)> = vec![
        ("fig2-static-edf", PolicyKind::StaticEdf, &worst),
        (
            "fig2-static-rm",
            PolicyKind::StaticRm(RmTest::default()),
            &worst,
        ),
        ("fig3-cc-edf", PolicyKind::CcEdf, &actual),
        ("fig5-cc-rm", PolicyKind::CcRm(RmTest::default()), &actual),
        ("fig7-la-edf", PolicyKind::LaEdf, &actual),
    ];
    runs.into_iter()
        .map(|(label, kind, cfg)| {
            let r = simulate(&tasks, &machine, kind, cfg);
            let chart = r
                .trace
                .as_ref()
                .expect("trace recording enabled")
                .render_gantt(&machine, horizon, 64);
            (label, kind.name(), chart)
        })
        .collect()
}

/// Ablation: how the RM schedulability test (exact scheduling points vs
/// the Liu–Layland bound) changes the energy of the RM-based policies.
///
/// Returns `(utilization, staticRM-exact, staticRM-LL, ccRM-exact,
/// ccRM-LL)` in energy normalized against plain EDF.
#[must_use]
pub fn ablation_rm_test(scale: Scale) -> Vec<(f64, [f64; 4])> {
    let mut cfg = scale.apply(SweepConfig::paper_default(8));
    cfg.policies = vec![
        PolicyKind::PlainEdf,
        PolicyKind::StaticRm(RmTest::SchedulingPoints),
        PolicyKind::StaticRm(RmTest::LiuLayland),
        PolicyKind::CcRm(RmTest::SchedulingPoints),
        PolicyKind::CcRm(RmTest::LiuLayland),
    ];
    let sweep = run_sweep(&cfg);
    sweep
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            (
                row.utilization,
                [
                    sweep.normalized(i, 1),
                    sweep.normalized(i, 2),
                    sweep.normalized(i, 3),
                    sweep.normalized(i, 4),
                ],
            )
        })
        .collect()
}

/// Ablation: the cost of voltage-transition stalls on the prototype
/// machine. Returns `(label, mean normalized energy, total misses)` for
/// laEDF at utilization 0.7, c = 0.9, across overheads of zero, the
/// measured 41 µs/0.41 ms, and a pessimistic 10× that.
#[must_use]
pub fn ablation_switch_overhead(scale: Scale) -> Vec<(&'static str, f64, u64)> {
    let machine = PowerNowCpu::k6_2_plus_550()
        .machine()
        .expect("prototype machine is valid");
    let overheads: Vec<(&'static str, Option<SwitchOverhead>)> = vec![
        ("none", None),
        (
            "k6 (41us/0.41ms)",
            Some(PowerNowCpu::k6_2_plus_550().switch_overhead()),
        ),
        (
            "10x k6",
            Some(SwitchOverhead {
                freq_only: Time::from_us(410.0),
                voltage_change: Time::from_ms(4.1),
            }),
        ),
    ];
    let spec = rtdvs_taskgen::TaskGenSpec::new(5, 0.7).expect("valid");
    overheads
        .into_iter()
        .map(|(label, overhead)| {
            let mut energy_ratio_sum = 0.0;
            let mut misses = 0u64;
            for s in 0..scale.sets_per_point {
                let tasks = rtdvs_taskgen::generate(&spec, 0xAB1E + s as u64).expect("gen");
                let mut cfg = SimConfig::new(scale.duration)
                    .with_exec(ExecModel::ConstantFraction(0.9))
                    .with_seed(s as u64);
                cfg.switch_overhead = overhead;
                let base = simulate(&tasks, &machine, PolicyKind::PlainEdf, &cfg);
                let r = simulate(&tasks, &machine, PolicyKind::LaEdf, &cfg);
                energy_ratio_sum += r.energy() / base.energy();
                misses += r.misses.len() as u64;
            }
            (
                label,
                energy_ratio_sum / scale.sets_per_point as f64,
                misses,
            )
        })
        .collect()
}

/// One row of the extension tradeoff study.
#[derive(Debug, Clone)]
pub struct TradeoffRow {
    /// Policy label (includes the confidence for stochEDF).
    pub label: String,
    /// Energy normalized against plain EDF (mean over sets).
    pub energy: f64,
    /// Deadline misses per 1000 invocations (mean over sets).
    pub miss_rate: f64,
}

/// Extension study: the energy ↔ miss-rate tradeoff of statistical RT-DVS
/// (§6 future work) against ccEDF (absolute guarantees) and the
/// deadline-oblivious interval governor (§5 baseline).
///
/// Workload: 8 tasks, U = 0.85, invocations uniform in [0, WCET] — a
/// regime with real variability where quantile reservations pay off.
#[must_use]
pub fn extension_tradeoff(scale: Scale) -> Vec<TradeoffRow> {
    let machine = Machine::machine0();
    let spec = rtdvs_taskgen::TaskGenSpec::new(8, 0.85).expect("valid");
    let policies: Vec<(String, PolicyKind)> = [
        ("ccEDF".to_owned(), PolicyKind::CcEdf),
        ("laEDF".to_owned(), PolicyKind::LaEdf),
        (
            "stochEDF(0.99)".to_owned(),
            PolicyKind::StochasticEdf { confidence: 0.99 },
        ),
        (
            "stochEDF(0.90)".to_owned(),
            PolicyKind::StochasticEdf { confidence: 0.9 },
        ),
        (
            "stochEDF(0.50)".to_owned(),
            PolicyKind::StochasticEdf { confidence: 0.5 },
        ),
        ("interval".to_owned(), PolicyKind::Interval),
    ]
    .into_iter()
    .collect();

    policies
        .into_iter()
        .map(|(label, kind)| {
            let mut energy_ratio = 0.0;
            let mut misses = 0u64;
            let mut releases = 0u64;
            for s in 0..scale.sets_per_point {
                let tasks = rtdvs_taskgen::generate(&spec, 0xFADE + s as u64).expect("gen");
                let cfg = SimConfig::new(scale.duration)
                    .with_exec(ExecModel::uniform())
                    .with_seed(s as u64);
                let base = simulate(&tasks, &machine, PolicyKind::PlainEdf, &cfg);
                let r = simulate(&tasks, &machine, kind, &cfg);
                energy_ratio += r.energy() / base.energy();
                misses += r.misses.len() as u64;
                releases += r.task_stats.iter().map(|t| t.releases).sum::<u64>();
            }
            TradeoffRow {
                label,
                energy: energy_ratio / scale.sets_per_point as f64,
                miss_rate: 1000.0 * misses as f64 / releases.max(1) as f64,
            }
        })
        .collect()
}

/// Every `results/` file but the minimized repro, as `(file name, text)`
/// in the paper's order: Tables 1 and 4, the worked-example traces,
/// Figs. 9–13, 16 and 17, the two ablations and the extension study.
/// Fig. 9 is `figures`, the run behind `BENCH_paper_figures.json`; every
/// other sweep runs here at `scale`.
#[must_use]
pub fn results_files(figures: &[PaperFigure], scale: Scale) -> Vec<(String, String)> {
    let mut files = Vec::new();
    let mut csv = String::from("screen,disk,cpu,watts\n");
    for (screen, disk, cpu, watts) in table1() {
        let _ = writeln!(csv, "{screen},{disk},{cpu},{watts:.1}");
    }
    files.push(("table1.csv".to_owned(), csv));
    let mut csv = String::from("policy,normalized_energy,paper\n");
    let paper = rtdvs_core::example::table4_expected();
    for ((name, got), (_, want)) in table4().into_iter().zip(paper) {
        let _ = writeln!(csv, "{name},{got:.4},{want}");
    }
    files.push(("table4.csv".to_owned(), csv));
    for (label, _, chart) in example_traces() {
        files.push((format!("{label}.txt"), chart));
    }
    for f in figures {
        files.push((format!("fig9_{}tasks.csv", f.n_tasks), f.run.sweep.to_csv()));
    }
    for (idle, sweep) in fig10(scale) {
        files.push((format!("fig10_idle{idle}.csv"), sweep.to_normalized_csv()));
    }
    for (i, (_, sweep)) in fig11(scale).into_iter().enumerate() {
        files.push((format!("fig11_machine{i}.csv"), sweep.to_normalized_csv()));
    }
    for (c, sweep) in fig12(scale) {
        files.push((format!("fig12_c{c}.csv"), sweep.to_normalized_csv()));
    }
    files.push((
        "fig13_uniform.csv".to_owned(),
        fig13(scale).to_normalized_csv(),
    ));
    let power = fig17(scale);
    let (names, rows) = fig16_watts(&power, scale.duration);
    let mut csv = format!("utilization,{}\n", names.join(","));
    for (u, watts) in rows {
        let _ = write!(csv, "{u:.3}");
        for w in watts {
            let _ = write!(csv, ",{w:.3}");
        }
        csv.push('\n');
    }
    files.push(("fig16_watts.csv".to_owned(), csv));
    files.push(("fig17_power.csv".to_owned(), power.to_csv()));
    let mut csv = String::from("utilization,staticRM_exact,staticRM_LL,ccRM_exact,ccRM_LL\n");
    for (u, [se, sl, ce, cl]) in ablation_rm_test(scale) {
        let _ = writeln!(csv, "{u:.3},{se:.4},{sl:.4},{ce:.4},{cl:.4}");
    }
    files.push(("ablation_rm_test.csv".to_owned(), csv));
    let mut csv = String::from("overhead,normalized_energy,misses\n");
    for (label, energy, misses) in ablation_switch_overhead(scale) {
        let _ = writeln!(csv, "{label},{energy:.4},{misses}");
    }
    files.push(("ablation_switch_overhead.csv".to_owned(), csv));
    let mut csv = String::from("policy,normalized_energy,misses_per_1000\n");
    for row in extension_tradeoff(scale) {
        let _ = writeln!(csv, "{},{:.4},{:.4}", row.label, row.energy, row.miss_rate);
    }
    files.push(("extension_tradeoff.csv".to_owned(), csv));
    files
}

/// Compares a committed `results/` file with its fresh text, which must
/// match byte for byte, and names every divergence by file, line (with
/// its row key in a CSV) and column. A NaN or infinite CSV cell on either
/// side always diverges.
#[must_use]
pub fn diff_results_file<'a>(name: &str, golden: &'a str, fresh: &'a str) -> Vec<String> {
    let csv = name.ends_with(".csv");
    let lines = |text: &'a str| text.strip_suffix('\n').unwrap_or(text).split('\n');
    let golden_lines: Vec<&str> = lines(golden).collect();
    let fresh_lines: Vec<&str> = lines(fresh).collect();
    let header: Vec<&str> = golden_lines
        .first()
        .map_or(Vec::new(), |h| h.split(',').collect());
    let key = match header.first() {
        Some(&"utilization") => "U",
        Some(first) => first,
        None => "",
    };
    let mut problems = Vec::new();
    if golden.ends_with('\n') != fresh.ends_with('\n') {
        let last = golden_lines.len();
        problems.push(format!("{name}: line {last}: the final newline differs"));
    }
    for i in 0..golden_lines.len().max(fresh_lines.len()) {
        let line = i + 1;
        let (g, f) = (golden_lines.get(i).copied(), fresh_lines.get(i).copied());
        let row = match g.and_then(|g| g.split(',').next()) {
            Some(first) if csv && i > 0 && !first.is_empty() => {
                format!("line {line} ({key}={first})")
            }
            _ => format!("line {line}"),
        };
        let (g, f) = match (g, f) {
            (Some(g), Some(f)) if !g.is_empty() && !f.is_empty() => (g, f),
            (Some(g), Some(f)) if g == f => continue,
            (Some(g), _) if !g.is_empty() || f.is_none() => {
                problems.push(format!("{name}: {row}: missing"));
                continue;
            }
            (_, f) => {
                problems.push(format!("{name}: {row}: extra {:?}", f.unwrap_or_default()));
                continue;
            }
        };
        if !csv {
            if g != f {
                let column = g.chars().zip(f.chars()).take_while(|(a, b)| a == b).count() + 1;
                problems.push(format!(
                    "{name}: {row}, column {column}: {f:?} vs golden {g:?}"
                ));
            }
            continue;
        }
        let (g_cells, f_cells): (Vec<&str>, Vec<&str>) =
            (g.split(',').collect(), f.split(',').collect());
        if g_cells.len() != f_cells.len() {
            problems.push(format!(
                "{name}: {row}: {} columns vs golden {}",
                f_cells.len(),
                g_cells.len()
            ));
            continue;
        }
        for (c, (g, f)) in g_cells.iter().zip(&f_cells).enumerate() {
            if let Some(why) = diff_cell(g, f) {
                let column = header.get(c).copied().unwrap_or("?");
                problems.push(format!("{name}: {row}, column {column}: {why}"));
            }
        }
    }
    problems
}

/// One CSV cell against its golden: `None` if it reproduces.
fn diff_cell(golden: &str, fresh: &str) -> Option<String> {
    let finite = |cell: &str| cell.parse::<f64>().map_or(true, f64::is_finite);
    if !finite(golden) || !finite(fresh) {
        return Some(format!("{fresh} vs golden {golden}: not a finite number"));
    }
    (golden != fresh).then(|| format!("{fresh} vs golden {golden}"))
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_paper_rounding() {
        let rows = table4();
        let expected = rtdvs_core::example::table4_expected();
        for ((name, got), (ename, want)) in rows.iter().zip(expected) {
            assert_eq!(*name, ename);
            // The paper reports two decimals.
            assert!(
                (got - want).abs() < 0.005,
                "{name}: got {got:.4}, paper says {want}"
            );
        }
    }

    #[test]
    fn table1_matches_measurements() {
        let rows = table1();
        let watts: Vec<f64> = rows.iter().map(|r| r.3).collect();
        for (got, want) in watts.iter().zip([13.5, 13.0, 7.1, 27.3]) {
            assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        }
    }

    #[test]
    fn example_traces_render() {
        let traces = example_traces();
        assert_eq!(traces.len(), 5);
        for (label, _, chart) in &traces {
            assert!(chart.contains('#'), "{label} chart has no execution");
        }
    }

    #[test]
    fn extension_tradeoff_orderings() {
        let scale = Scale {
            sets_per_point: 6,
            duration: Time::from_ms(1500.0),
            grid: 1,
        };
        let rows = extension_tradeoff(scale);
        let by = |label: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(label))
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        // The guaranteed policies never miss.
        assert_eq!(by("ccEDF").miss_rate, 0.0);
        assert_eq!(by("laEDF").miss_rate, 0.0);
        // Relaxing confidence trades misses for energy: 0.5 must not use
        // more energy than 0.99, and the quantile policies undercut ccEDF.
        assert!(by("stochEDF(0.50)").energy <= by("stochEDF(0.99)").energy + 1e-9);
        assert!(by("stochEDF(0.50)").energy <= by("ccEDF").energy + 1e-9);
        // Lower confidence cannot miss less (ties allowed on small runs).
        assert!(by("stochEDF(0.50)").miss_rate >= by("stochEDF(0.99)").miss_rate);
    }

    const SWEEP_CSV: &str = "utilization,EDF,ccEDF,bound\n\
                             0.500,1.000000,0.574000,0.374000\n\
                             1.000,1.000000,1.000000,0.990000\n";

    #[test]
    fn results_diff_holds_sweep_cells_exactly() {
        let name = "fig10_idle1.csv";
        assert!(diff_results_file(name, SWEEP_CSV, SWEEP_CSV).is_empty());
        let half = SWEEP_CSV.replace("0.574000", "0.576870");
        let problems = diff_results_file(name, SWEEP_CSV, &half);
        assert_eq!(
            problems,
            ["fig10_idle1.csv: line 2 (U=0.500), column ccEDF: 0.576870 vs golden 0.574000"]
        );
        let nan = SWEEP_CSV.replace("0.374000", "NaN");
        let problems = diff_results_file(name, &nan, &nan);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("column bound: NaN"), "{problems:?}");
    }

    #[test]
    fn results_diff_names_exact_cells_lines_and_columns() {
        let table = "policy,normalized_energy,paper\nEDF,1.0000,1\nccEDF,0.5200,0.52\n";
        let problems = diff_results_file("table4.csv", table, &table.replace("0.5200", "0.5201"));
        assert_eq!(
            problems,
            ["table4.csv: line 3 (policy=ccEDF), column normalized_energy: 0.5201 vs golden 0.5200"]
        );
        let misses = "overhead,normalized_energy,misses\nnone,0.4000,0\nk6,0.4100,2494\n";
        let problems = diff_results_file(
            "ablation_switch_overhead.csv",
            misses,
            &misses.replace("2494", "2495"),
        );
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("line 3 (overhead=k6), column misses"));
        let trace = "t  0 ##__\nT1 |#\n";
        let problems = diff_results_file("fig7-la-edf.txt", trace, &trace.replace("|#", "|_"));
        assert_eq!(
            problems,
            ["fig7-la-edf.txt: line 2, column 5: \"T1 |_\" vs golden \"T1 |#\""]
        );
        let short = SWEEP_CSV.replacen("1.000,1.000000,1.000000,0.990000\n", "", 1);
        let problems = diff_results_file("fig9_5tasks.csv", SWEEP_CSV, &short);
        assert_eq!(problems, ["fig9_5tasks.csv: line 3 (U=1.000): missing"]);
        let wide = SWEEP_CSV.replace("bound\n", "bound,x\n");
        let problems = diff_results_file("fig9_5tasks.csv", SWEEP_CSV, &wide);
        assert_eq!(problems, ["fig9_5tasks.csv: line 1: 5 columns vs golden 4"]);
    }

    #[test]
    fn fig16_adds_constant_floor_over_fig17() {
        let scale = Scale {
            sets_per_point: 3,
            duration: Time::from_ms(300.0),
            grid: 4,
        };
        let (names, rows) = fig16(scale);
        assert_eq!(names.len(), 4);
        for (_, watts) in &rows {
            for &w in watts {
                // Floor 7.1 W, ceiling 27.3 W.
                assert!((7.1 - 1e-9..=27.3 + 1e-9).contains(&w), "watts {w}");
            }
        }
        // Power rises with utilization for the baseline (column 0).
        assert!(rows.last().unwrap().1[0] > rows.first().unwrap().1[0]);
    }
}
