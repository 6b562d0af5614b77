//! Simulator workloads: `soak128` (the engine at large n) and
//! `paper-sweep` (the sharded runner over the paper's figure grid).

use std::num::NonZeroUsize;
use std::time::Instant;

use rtdvs::sim::theoretical_bound;
use rtdvs::taskgen::{generate, SplitMix64, TaskGenSpec};
use rtdvs::{simulate, ExecModel, Machine, PolicyKind, SimConfig, TaskSet, Time};
use rtdvs_bench::{run_sweep_threads, SweepConfig, SweepRow};

use crate::calib::Stopwatch;
use crate::check::classify_report;
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::{Metric, Rep, Workload};

const SIMULATE: &str = "sim::simulate";
const GENERATE: &str = "taskgen::generate";
const GUARANTEES: &str = "policy::guarantees";

/// Whether each paper policy's own admission test accepts `tasks`.
fn admitted(tasks: &TaskSet, tr: &mut Tracer) -> [bool; 6] {
    let g = tr.open(GUARANTEES);
    let out = PolicyKind::paper_six().map(|k| k.build().guarantees(tasks));
    tr.close(g);
    out
}

fn generate_traced(spec: &TaskGenSpec, seed: u64, tr: &mut Tracer) -> TaskSet {
    let g = tr.open(GENERATE);
    let tasks = generate(spec, seed).expect("the generator is total for these specs");
    tr.close(g);
    tasks
}

/// Mean `µs` per closed span of `name`.
fn mean_us(tr: &Tracer, name: &str) -> f64 {
    let t = tr.totals(name);
    t.total_ns as f64 / t.count.max(1) as f64 / 1000.0
}

// ---------------------------------------------------------------------------
// soak128
// ---------------------------------------------------------------------------

/// Tasks per soak set. At this size the per-event policy math (laEDF's
/// sort, ccRM's walks) dominates the engine.
const SOAK_TASKS: usize = 128;
const SOAK_UTIL: f64 = 0.8;
/// Sets per rep. The per-event cost depends on the set, so a rep averages
/// several to keep the metric a property of the size, not of one draw.
const SOAK_SETS: u64 = 4;
const SOAK_HORIZON_MS: f64 = 2_000.0;

/// Four generated 128-task sets at U = 0.8 with uniform execution times;
/// every paper policy simulates each set for 2 s, in turn (one rep = 24
/// runs, 48 simulated seconds).
pub struct Soak128 {
    seed: u64,
    machine: Machine,
    energy_norm: f64,
    expected_misses: u64,
    /// Per policy: host ns and events summed over traced reps.
    traced: [(u64, u64); 6],
}

/// One soak set with its simulator config and admission verdicts.
pub struct SoakSet {
    tasks: TaskSet,
    cfg: SimConfig,
    admitted: [bool; 6],
}

impl Soak128 {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Soak128 {
        Soak128 {
            seed,
            machine: Machine::machine0(),
            energy_norm: 0.0,
            expected_misses: 0,
            traced: [(0, 0); 6],
        }
    }

    /// Seeds of set `i`: the generator's and the simulator's.
    fn streams(&self, i: u64) -> (u64, u64) {
        let mut s = SplitMix64::seed_from_u64(self.seed).split(i);
        (s.next_u64(), s.next_u64())
    }

    fn spec() -> TaskGenSpec {
        TaskGenSpec::new(SOAK_TASKS, SOAK_UTIL).expect("valid soak spec")
    }
}

impl Workload for Soak128 {
    type State = Vec<SoakSet>;
    const EXEC_SPAN: &'static str = SIMULATE;

    fn setup(&mut self, tr: &mut Tracer) -> Vec<SoakSet> {
        (0..SOAK_SETS)
            .map(|i| {
                let (set_seed, sim_seed) = self.streams(i);
                let tasks = generate_traced(&Soak128::spec(), set_seed, tr);
                let admitted = admitted(&tasks, tr);
                let cfg = SimConfig::new(Time::from_ms(SOAK_HORIZON_MS))
                    .with_exec(ExecModel::uniform())
                    .with_seed(sim_seed);
                SoakSet {
                    tasks,
                    cfg,
                    admitted,
                }
            })
            .collect()
    }

    fn rep(
        &mut self,
        sets: Vec<SoakSet>,
        tr: &mut Tracer,
        sw: &mut Stopwatch,
    ) -> Result<Rep, String> {
        let mut digest = Digest::default();
        let mut rep = Rep::default();
        let mut energy = [0.0; 6];
        let mut expected = 0;
        for s in &sets {
            for (i, kind) in PolicyKind::paper_six().into_iter().enumerate() {
                let g = tr.open(SIMULATE);
                sw.restart();
                let report = simulate(&s.tasks, &self.machine, kind, &s.cfg);
                let ns = tr.close(g);
                sw.lap();
                if tr.is_on() {
                    self.traced[i].0 += ns;
                    self.traced[i].1 += report.events;
                }
                let verdict =
                    classify_report(&report, s.admitted[i], &self.machine, s.cfg.idle_level);
                rep.attempted += 1;
                rep.failed += u64::from(verdict.failed());
                expected += verdict.expected_misses();
                rep.events += report.events;
                rep.sim_s += report.duration.as_ms() / 1000.0;
                energy[i] += report.energy();
                digest.u64(report.events);
                digest.f64(report.energy());
                digest.u64(report.misses.len() as u64);
            }
        }
        // Plain EDF is column 0; the five DVS policies follow.
        self.energy_norm = energy[1..].iter().sum::<f64>() / (5.0 * energy[0]);
        self.expected_misses = expected;
        rep.digest = digest.value();
        Ok(rep)
    }

    fn finish(&mut self, _tr: &mut Tracer) -> Result<f64, String> {
        Ok(self.energy_norm)
    }

    fn policy_probe(&self) -> (TaskSet, Machine) {
        let tasks = generate(&Soak128::spec(), self.streams(0).0).expect("valid soak spec");
        (tasks, self.machine.clone())
    }

    fn extra_metrics(&self, _rep_s: f64, tr: &Tracer, layer: bool) -> Vec<Metric> {
        if !layer {
            return Vec::new();
        }
        let mut out = per_policy_sim_metrics(&self.traced);
        out.push(Metric::new(
            "taskgen.generate_us",
            mean_us(tr, GENERATE),
            "us",
        ));
        out.push(Metric::new(
            "sim.expected_misses",
            self.expected_misses as f64,
            "count",
        ));
        out
    }
}

/// `sim.<P>.ns_per_event` and `sim.<P>.events` from per-policy totals.
fn per_policy_sim_metrics(totals: &[(u64, u64); 6]) -> Vec<Metric> {
    let mut out = Vec::new();
    for (kind, &(ns, events)) in PolicyKind::paper_six().iter().zip(totals) {
        let p = kind.name();
        out.push(Metric::new(
            format!("sim.{p}.ns_per_event"),
            ns as f64 / events.max(1) as f64,
            "ns",
        ));
        out.push(Metric::new(
            format!("sim.{p}.events"),
            events as f64,
            "count",
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// paper-sweep
// ---------------------------------------------------------------------------

/// Task counts of Figs. 6–8.
const SWEEP_TASKS: [usize; 3] = [5, 10, 15];
const SETS_PER_POINT: usize = 8;
const SWEEP_HORIZON_MS: f64 = 2_000.0;
/// Workers for the traced speed-up figure. The timed reps use one worker:
/// on a shared two-vCPU host, two-worker wall time follows the load the
/// host's other tenants put on the second vCPU.
const SPEEDUP_THREADS: usize = 2;

/// `run_sweep_threads` on one worker over the Figs. 6–8 grid: n ∈ {5, 10,
/// 15}, U = 0.05…1.0 in 20 steps, 8 sets per point, WCET execution and
/// 2 s simulated per run (2 880 simulations per rep). The runner is called
/// once per grid point, so each timed chunk lasts tens of milliseconds
/// and the host-speed calibration around it follows the host.
pub struct PaperSweep {
    seed: u64,
    /// Failures and expected misses found by the serial reference pass.
    failed: u64,
    expected_misses: u64,
    energy_norm: f64,
    /// Per policy: host ns and events of the serial reference pass.
    serial: [(u64, u64); 6],
    /// `run_sweep_threads` on [`SPEEDUP_THREADS`] workers over the same
    /// grid, ns (traced runs only).
    parallel_ns: u64,
}

/// One generated cell: the set a runner cell simulates, with its stream.
struct Cell {
    tasks: TaskSet,
    sim_seed: u64,
    admitted: [bool; 6],
}

/// One grid point: a one-point runner config and its cells.
pub struct Point {
    cfg: SweepConfig,
    cells: Vec<Cell>,
}

impl PaperSweep {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> PaperSweep {
        PaperSweep {
            seed,
            failed: 0,
            expected_misses: 0,
            energy_norm: 0.0,
            serial: [(0, 0); 6],
            parallel_ns: 0,
        }
    }

    /// One runner config per grid point, each with its own seed.
    fn configs(&self) -> Vec<SweepConfig> {
        let root = SplitMix64::seed_from_u64(self.seed);
        let mut out = Vec::new();
        for n in SWEEP_TASKS {
            let panel = SweepConfig::paper_default(n);
            for (ui, &util) in panel.utilizations.iter().enumerate() {
                out.push(SweepConfig {
                    utilizations: vec![util],
                    sets_per_point: SETS_PER_POINT,
                    duration: Time::from_ms(SWEEP_HORIZON_MS),
                    seed: root.split(n as u64).split(ui as u64).next_u64(),
                    ..panel.clone()
                });
            }
        }
        out
    }
}

/// Digest of one point's merged rows and event count.
fn digest_rows(digest: &mut Digest, rows: &[SweepRow], events: u64) {
    for row in rows {
        digest.f64(row.utilization);
        for &e in &row.energy {
            digest.f64(e);
        }
        digest.f64(row.bound);
        for &w in &row.work {
            digest.f64(w);
        }
        for &m in &row.misses {
            digest.u64(m);
        }
    }
    digest.u64(events);
}

impl Workload for PaperSweep {
    type State = Vec<Point>;
    const EXEC_SPAN: &'static str = "runner::run_sweep_threads";

    /// Generates every cell's set exactly as the runner derives it (one
    /// stream per `(seed, cell id)`) and runs each policy's admission test,
    /// which the failure accounting needs per set.
    fn setup(&mut self, tr: &mut Tracer) -> Vec<Point> {
        self.configs()
            .into_iter()
            .map(|cfg| {
                let spec =
                    TaskGenSpec::new(cfg.n_tasks, cfg.utilizations[0]).expect("valid grid point");
                let cells = (0..cfg.sets_per_point as u64)
                    .map(|cell_id| {
                        let mut stream = SplitMix64::seed_from_u64(cfg.seed).split(cell_id);
                        let set_seed = stream.next_u64();
                        let sim_seed = stream.next_u64();
                        let tasks = generate_traced(&spec, set_seed, tr);
                        let admitted = admitted(&tasks, tr);
                        Cell {
                            tasks,
                            sim_seed,
                            admitted,
                        }
                    })
                    .collect();
                Point { cfg, cells }
            })
            .collect()
    }

    /// A serial reference pass: every cell simulated here, one policy at a
    /// time, classified per simulation, and merged in cell order as the
    /// runner promises. Every timed rep must reproduce its digest bit for
    /// bit, which also proves the runner's merge exact.
    fn warm_up(
        &mut self,
        points: Vec<Point>,
        _tr: &mut Tracer,
        sw: &mut Stopwatch,
    ) -> Result<Rep, String> {
        let mut digest = Digest::default();
        let mut rep = Rep::default();
        self.failed = 0;
        self.expected_misses = 0;
        self.serial = [(0, 0); 6];
        for point in &points {
            let cfg = &point.cfg;
            let n_pol = cfg.policies.len();
            let mut energy = vec![0.0; n_pol];
            let mut work = vec![0.0; n_pol];
            let mut misses = vec![0u64; n_pol];
            let mut bound = 0.0;
            let mut events = 0;
            for cell in &point.cells {
                let sim_cfg = SimConfig::new(cfg.duration)
                    .with_exec(cfg.exec.clone())
                    .with_idle_level(cfg.idle_level)
                    .with_seed(cell.sim_seed);
                let mut edf_work = None;
                for (p, &kind) in cfg.policies.iter().enumerate() {
                    let t0 = Instant::now();
                    let report = simulate(&cell.tasks, &cfg.machine, kind, &sim_cfg);
                    self.serial[p].0 += t0.elapsed().as_nanos() as u64;
                    self.serial[p].1 += report.events;
                    let verdict =
                        classify_report(&report, cell.admitted[p], &cfg.machine, cfg.idle_level);
                    rep.attempted += 1;
                    self.failed += u64::from(verdict.failed());
                    self.expected_misses += verdict.expected_misses();
                    energy[p] += report.energy();
                    work[p] += report.total_work().as_ms();
                    misses[p] += report.misses.len() as u64;
                    events += report.events;
                    rep.sim_s += cfg.duration.as_ms() / 1000.0;
                    if kind == PolicyKind::PlainEdf {
                        edf_work = Some(report.total_work());
                    }
                }
                let work = edf_work.ok_or("the sweep must include plain EDF")?;
                bound += theoretical_bound(&cfg.machine, work, cfg.duration, cfg.idle_level);
            }
            let n = cfg.sets_per_point as f64;
            let row = SweepRow {
                utilization: cfg.utilizations[0],
                energy: energy.iter().map(|e| e / n).collect(),
                bound: bound / n,
                work: work.iter().map(|w| w / n).collect(),
                misses,
            };
            digest_rows(&mut digest, &[row], events);
            rep.events += events;
            sw.lap();
        }
        rep.failed = self.failed;
        rep.digest = digest.value();
        Ok(rep)
    }

    fn rep(
        &mut self,
        points: Vec<Point>,
        tr: &mut Tracer,
        sw: &mut Stopwatch,
    ) -> Result<Rep, String> {
        let mut digest = Digest::default();
        let mut rep = Rep {
            failed: self.failed,
            ..Rep::default()
        };
        let mut norm_sum = 0.0;
        let mut norm_n = 0usize;
        for point in &points {
            let g = tr.open(Self::EXEC_SPAN);
            sw.restart();
            let run = run_sweep_threads(&point.cfg, NonZeroUsize::MIN);
            tr.close(g);
            sw.lap();
            digest_rows(&mut digest, &run.sweep.rows, run.stats.events);
            rep.events += run.stats.events;
            rep.attempted += run.stats.sims;
            rep.sim_s += run.stats.sims as f64 * point.cfg.duration.as_ms() / 1000.0;
            let edf = run.sweep.edf_column();
            for row in 0..run.sweep.rows.len() {
                for p in (0..run.sweep.policy_names.len()).filter(|&p| p != edf) {
                    norm_sum += run.sweep.normalized(row, p);
                    norm_n += 1;
                }
            }
        }
        self.energy_norm = norm_sum / norm_n as f64;
        rep.digest = digest.value();
        Ok(rep)
    }

    fn finish(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        if tr.is_on() {
            let configs = self.configs();
            let threads = NonZeroUsize::new(SPEEDUP_THREADS).expect("non-zero");
            let t0 = Instant::now();
            for cfg in &configs {
                let _ = run_sweep_threads(cfg, threads);
            }
            self.parallel_ns = t0.elapsed().as_nanos() as u64;
        }
        Ok(self.energy_norm)
    }

    fn policy_probe(&self) -> (TaskSet, Machine) {
        let spec = TaskGenSpec::new(10, 0.7).expect("valid probe spec");
        let seed = SplitMix64::seed_from_u64(self.seed).split(10).next_u64();
        let tasks = generate(&spec, seed).expect("valid probe spec");
        (tasks, Machine::machine0())
    }

    fn extra_metrics(&self, rep_s: f64, tr: &Tracer, layer: bool) -> Vec<Metric> {
        if !layer {
            return Vec::new();
        }
        let mut out = per_policy_sim_metrics(&self.serial);
        out.push(Metric::new(
            "taskgen.generate_us",
            mean_us(tr, GENERATE),
            "us",
        ));
        out.push(Metric::new(
            "sim.expected_misses",
            self.expected_misses as f64,
            "count",
        ));
        let cells = self.configs().len() * SETS_PER_POINT;
        out.push(Metric::new(
            "runner.cells_per_s",
            cells as f64 / rep_s,
            "1/s",
        ));
        let one_worker_ns =
            tr.totals(Self::EXEC_SPAN).total_ns as f64 / tr.totals("rep").count.max(1) as f64;
        out.push(Metric::new(
            "runner.speedup_2t",
            one_worker_ns / self.parallel_ns as f64,
            "ratio",
        ));
        out
    }
}
