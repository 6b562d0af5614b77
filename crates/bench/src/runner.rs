//! Sharded, multi-threaded sweep execution.
//!
//! The (policy × utilization × seed) grid behind every figure is
//! embarrassingly parallel, but naive parallelism breaks two properties
//! the experiments depend on: per-point averages must not depend on how
//! the grid was partitioned, and a run must be reproducible bit for bit
//! from its seed regardless of worker count. The runner gets both by
//! construction:
//!
//! * **Work unit = one generated task set.** A cell is one `(utilization,
//!   set)` pair; every policy runs inside the cell because the paper runs
//!   all policies on the *same* set and the theoretical bound is computed
//!   from the work plain EDF executed on that set.
//! * **Per-cell streams via [`SplitMix64::split`].** Each cell derives its
//!   RNG stream from the experiment seed and its own cell id — never from
//!   which worker ran it, or in what order.
//! * **Deterministic merge.** Workers deposit finished cells into a
//!   slot-per-cell table; the reduction then folds the slots in cell-id
//!   order. Floating-point summation order is therefore fixed, so one
//!   worker and N workers produce bit-identical sweeps.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use rtdvs_sim::{simulate, theoretical_bound, SimConfig};
use rtdvs_taskgen::{generate, SplitMix64, TaskGenSpec};

use crate::sweep::{Sweep, SweepConfig, SweepRow};

/// All policies evaluated on one generated task set.
#[derive(Debug, Clone)]
struct CellOut {
    /// Absolute energy per policy (column order of the config).
    energy: Vec<f64>,
    /// Work executed per policy (ms at maximum frequency).
    work: Vec<f64>,
    /// Deadline misses per policy.
    misses: Vec<u64>,
    /// Theoretical lower bound for the work plain EDF executed.
    bound: f64,
    /// Scheduler decision intervals processed across all policies.
    events: u64,
}

/// Cost accounting for one run of the sharded runner.
#[derive(Debug, Clone, Copy)]
pub struct RunnerStats {
    /// Worker threads used.
    pub threads: usize,
    /// Cells evaluated (`utilizations × sets_per_point`).
    pub cells: usize,
    /// Individual simulations executed (`cells × policies`).
    pub sims: u64,
    /// Scheduler decision intervals processed, summed over all
    /// simulations (the engine's shard-local tracing counter).
    pub events: u64,
    /// Wall-clock time of the run in milliseconds. The only
    /// non-deterministic output of the runner; everything else is a pure
    /// function of the sweep config.
    pub wall_ms: u64,
}

impl RunnerStats {
    /// Decision intervals simulated per wall-clock second — the runner's
    /// throughput figure of merit across thread counts.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms == 0 {
            return f64::INFINITY;
        }
        self.events as f64 * 1000.0 / self.wall_ms as f64
    }
}

/// A sweep plus the cost accounting the plain [`Sweep`] does not carry.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The merged sweep (identical for every thread count).
    pub sweep: Sweep,
    /// Cost accounting for this run.
    pub stats: RunnerStats,
}

/// Derives the RNG stream for one cell of the grid. Pure in
/// `(experiment seed, cell id)`: independent of worker count, worker
/// identity, and completion order.
fn cell_stream(experiment_seed: u64, cell_id: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(experiment_seed).split(cell_id)
}

/// Evaluates one cell: generate the task set for `(ui, s)` and run every
/// policy on it.
fn eval_cell(cfg: &SweepConfig, edf_idx: Option<usize>, ui: usize, s: usize) -> CellOut {
    let util = cfg.utilizations[ui];
    let cell_id = (ui * cfg.sets_per_point + s) as u64;
    let mut stream = cell_stream(cfg.seed, cell_id);
    let set_seed = stream.next_u64();
    let sim_seed = stream.next_u64();

    let spec = TaskGenSpec::new(cfg.n_tasks, util).expect("valid sweep parameters");
    let tasks = generate(&spec, set_seed).expect("generator succeeds");
    let sim_cfg = SimConfig {
        duration: cfg.duration,
        idle_level: cfg.idle_level,
        exec: cfg.exec.clone(),
        arrival: rtdvs_sim::ArrivalModel::Periodic,
        seed: sim_seed,
        switch_overhead: None,
        miss_policy: rtdvs_sim::MissPolicy::DropRemaining,
        record_trace: false,
        // An inactive plan is provably zero-cost: the BENCH goldens stay
        // byte-identical to the pre-fault engine.
        fault: rtdvs_sim::FaultPlan::none(),
    };

    let mut out = CellOut {
        energy: Vec::with_capacity(cfg.policies.len()),
        work: Vec::with_capacity(cfg.policies.len()),
        misses: Vec::with_capacity(cfg.policies.len()),
        bound: 0.0,
        events: 0,
    };
    let mut work_for_bound = None;
    for (pi, kind) in cfg.policies.iter().enumerate() {
        let report = simulate(&tasks, &cfg.machine, *kind, &sim_cfg);
        out.energy.push(report.energy());
        out.work.push(report.total_work().as_ms());
        out.misses.push(report.misses.len() as u64);
        out.events += report.events;
        if Some(pi) == edf_idx || (edf_idx.is_none() && pi == 0) {
            work_for_bound = Some(report.total_work());
        }
    }
    let work = work_for_bound.expect("at least one policy ran");
    out.bound = theoretical_bound(&cfg.machine, work, cfg.duration, cfg.idle_level);
    out
}

/// Runs the sweep grid on `threads` workers and merges the cells in
/// deterministic order.
///
/// The merged [`Sweep`] (and everything derived from it) is bit-identical
/// for every thread count; only [`RunnerStats::wall_ms`] varies between
/// runs.
///
/// # Panics
///
/// Panics if the config is invalid (empty utilization grid or
/// `sets_per_point == 0`) or a worker thread panics.
#[must_use]
pub fn run_sweep_threads(cfg: &SweepConfig, threads: NonZeroUsize) -> SweepRun {
    assert!(
        !cfg.utilizations.is_empty() && cfg.sets_per_point > 0,
        "sweep grid must be non-empty"
    );
    let start = Instant::now();
    let edf_idx = cfg
        .policies
        .iter()
        .position(|k| *k == rtdvs_core::policy::PolicyKind::PlainEdf);
    let n_cells = cfg.utilizations.len() * cfg.sets_per_point;
    let workers = threads.get().min(n_cells);

    // Slot-per-cell output table. Workers claim cells with an atomic
    // cursor (dynamic load balancing: long-period task sets simulate
    // slower, so static striping would leave workers idle) and write each
    // result into its own slot, so completion order cannot leak into the
    // reduction below.
    let slots: Vec<Mutex<Option<CellOut>>> = (0..n_cells).map(|_| Mutex::new(None)).collect();
    if workers <= 1 {
        for (cell, slot) in slots.iter().enumerate() {
            let out = eval_cell(
                cfg,
                edf_idx,
                cell / cfg.sets_per_point,
                cell % cfg.sets_per_point,
            );
            *slot.lock().expect("slot lock poisoned") = Some(out);
        }
    } else {
        let cursor = AtomicUsize::new(0);
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        let cell = cursor.fetch_add(1, Ordering::Relaxed);
                        if cell >= n_cells {
                            break;
                        }
                        let out = eval_cell(
                            cfg,
                            edf_idx,
                            cell / cfg.sets_per_point,
                            cell % cfg.sets_per_point,
                        );
                        *slots[cell].lock().expect("slot lock poisoned") = Some(out);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("sweep worker panicked");
            }
        });
    }

    // Deterministic reduction: fold cells in id order, never in completion
    // order, so float summation is identical for every worker count.
    let n_pol = cfg.policies.len();
    let mut rows = Vec::with_capacity(cfg.utilizations.len());
    let mut events = 0u64;
    for (ui, &util) in cfg.utilizations.iter().enumerate() {
        let mut energy_sum = vec![0.0; n_pol];
        let mut work_sum = vec![0.0; n_pol];
        let mut miss_sum = vec![0u64; n_pol];
        let mut bound_sum = 0.0;
        for s in 0..cfg.sets_per_point {
            let cell = ui * cfg.sets_per_point + s;
            let out = slots[cell]
                .lock()
                .expect("slot lock poisoned")
                .take()
                .expect("every cell was evaluated");
            for p in 0..n_pol {
                energy_sum[p] += out.energy[p];
                work_sum[p] += out.work[p];
                miss_sum[p] += out.misses[p];
            }
            bound_sum += out.bound;
            events += out.events;
        }
        let n = cfg.sets_per_point as f64;
        rows.push(SweepRow {
            utilization: util,
            energy: energy_sum.iter().map(|e| e / n).collect(),
            bound: bound_sum / n,
            work: work_sum.iter().map(|w| w / n).collect(),
            misses: miss_sum,
        });
    }

    SweepRun {
        sweep: Sweep {
            policy_names: cfg.policies.iter().map(|k| k.name()).collect(),
            rows,
        },
        stats: RunnerStats {
            threads: workers,
            cells: n_cells,
            sims: (n_cells * n_pol) as u64,
            events,
            wall_ms: start.elapsed().as_millis() as u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdvs_core::time::Time;

    fn tiny_cfg() -> SweepConfig {
        let mut cfg = SweepConfig::paper_default(5);
        cfg.utilizations = vec![0.3, 0.7];
        cfg.sets_per_point = 3;
        cfg.duration = Time::from_ms(300.0);
        cfg
    }

    fn one() -> NonZeroUsize {
        NonZeroUsize::new(1).expect("non-zero")
    }

    fn four() -> NonZeroUsize {
        NonZeroUsize::new(4).expect("non-zero")
    }

    #[test]
    fn thread_count_does_not_change_the_sweep() {
        let cfg = tiny_cfg();
        let serial = run_sweep_threads(&cfg, one());
        let parallel = run_sweep_threads(&cfg, four());
        // Byte-level equality via the CSV serialization: same floats, same
        // order, for every column.
        assert_eq!(serial.sweep.to_csv(), parallel.sweep.to_csv());
        for (a, b) in serial.sweep.rows.iter().zip(&parallel.sweep.rows) {
            assert_eq!(a.energy, b.energy);
            assert_eq!(a.work, b.work);
            assert_eq!(a.misses, b.misses);
            assert!(a.bound.to_bits() == b.bound.to_bits());
        }
        assert_eq!(serial.stats.events, parallel.stats.events);
        assert_eq!(serial.stats.sims, parallel.stats.sims);
    }

    #[test]
    fn stats_account_for_the_whole_grid() {
        let cfg = tiny_cfg();
        let run = run_sweep_threads(&cfg, one());
        assert_eq!(run.stats.cells, 6);
        assert_eq!(run.stats.sims, 6 * 6);
        assert!(run.stats.events > 0);
    }

    #[test]
    fn workers_capped_by_cells() {
        let mut cfg = tiny_cfg();
        cfg.utilizations = vec![0.5];
        cfg.sets_per_point = 2;
        let run = run_sweep_threads(&cfg, NonZeroUsize::new(16).expect("non-zero"));
        assert_eq!(run.stats.threads, 2);
    }

    #[test]
    fn cell_streams_are_decoupled_from_partitioning() {
        // The stream for a cell depends only on (seed, cell id).
        let mut a = cell_stream(7, 5);
        let mut b = cell_stream(7, 5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = cell_stream(7, 6);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_rejected() {
        let mut cfg = tiny_cfg();
        cfg.utilizations.clear();
        let _ = run_sweep_threads(&cfg, one());
    }
}
