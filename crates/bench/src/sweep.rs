//! Utilization sweeps: the common harness behind Figs. 9–13, 16, 17.
//!
//! Following §3.1, each data point averages over many randomly generated
//! task sets at a fixed total worst-case utilization; every policy runs on
//! the same sets, and the theoretical lower bound is computed from the
//! work actually executed.

use std::fmt::Write as _;
use std::num::NonZeroUsize;

use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::time::Time;
use rtdvs_sim::ExecModel;

/// The experiment seed of every committed artifact (`0x5eed`).
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Configuration for one sweep (one panel of a figure).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Machine to simulate.
    pub machine: Machine,
    /// Policies to compare, in column order.
    pub policies: Vec<PolicyKind>,
    /// Tasks per generated set.
    pub n_tasks: usize,
    /// Actual-computation model.
    pub exec: ExecModel,
    /// Idle level (halted-cycle energy ratio).
    pub idle_level: f64,
    /// Worst-case utilization grid (x axis).
    pub utilizations: Vec<f64>,
    /// Task sets averaged per grid point.
    pub sets_per_point: usize,
    /// Simulated horizon per run.
    pub duration: Time,
    /// Base RNG seed.
    pub seed: u64,
}

impl SweepConfig {
    /// The paper's standard setup: machine 0, the six figure policies,
    /// worst-case execution, perfect halt, utilizations 0.05–1.0 in steps
    /// of 0.05.
    #[must_use]
    pub fn paper_default(n_tasks: usize) -> SweepConfig {
        SweepConfig {
            machine: Machine::machine0(),
            policies: PolicyKind::paper_six().to_vec(),
            n_tasks,
            exec: ExecModel::Wcet,
            idle_level: 0.0,
            utilizations: (1..=20).map(|i| i as f64 * 0.05).collect(),
            sets_per_point: 50,
            duration: Time::from_secs(2.0),
            seed: DEFAULT_SEED,
        }
    }
}

/// One grid point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Worst-case utilization of the generated sets.
    pub utilization: f64,
    /// Mean absolute energy per policy (column order of the config).
    pub energy: Vec<f64>,
    /// Mean theoretical lower bound (for the work plain EDF executed, as
    /// in the paper's figures).
    pub bound: f64,
    /// Mean work executed per policy (ms at maximum frequency). Policies
    /// can differ slightly — slower ones leave more work in flight at the
    /// horizon, and misses drop work.
    pub work: Vec<f64>,
    /// Total deadline misses per policy across all sets (non-zero only
    /// where a scheduler's guarantee does not cover the set, e.g. RM-based
    /// policies at high utilization).
    pub misses: Vec<u64>,
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Column names: the policy names, then "bound".
    pub policy_names: Vec<&'static str>,
    /// One row per utilization grid point.
    pub rows: Vec<SweepRow>,
}

impl Sweep {
    /// Index of the plain-EDF column (the normalization baseline).
    ///
    /// # Panics
    ///
    /// Panics if the sweep did not include plain EDF.
    #[must_use]
    pub fn edf_column(&self) -> usize {
        self.policy_names
            .iter()
            .position(|n| *n == "EDF")
            .expect("sweep must include plain EDF to normalize")
    }

    /// Energy of `policy` at `row`, normalized against plain EDF (how the
    /// paper plots Figs. 10–13).
    #[must_use]
    pub fn normalized(&self, row: usize, policy: usize) -> f64 {
        let base = self.rows[row].energy[self.edf_column()];
        self.rows[row].energy[policy] / base
    }

    /// The bound at `row`, normalized against plain EDF.
    #[must_use]
    pub fn normalized_bound(&self, row: usize) -> f64 {
        let base = self.rows[row].energy[self.edf_column()];
        self.rows[row].bound / base
    }

    /// Serializes the sweep as CSV, absolute energies plus the bound.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut s = String::from("utilization");
        for name in &self.policy_names {
            let _ = write!(s, ",{name}");
        }
        s.push_str(",bound\n");
        for row in &self.rows {
            let _ = write!(s, "{:.3}", row.utilization);
            for e in &row.energy {
                let _ = write!(s, ",{e:.6}");
            }
            let _ = writeln!(s, ",{:.6}", row.bound);
        }
        s
    }

    /// Serializes the sweep as CSV with energies normalized against EDF.
    #[must_use]
    pub fn to_normalized_csv(&self) -> String {
        let mut s = String::from("utilization");
        for name in &self.policy_names {
            let _ = write!(s, ",{name}");
        }
        s.push_str(",bound\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(s, "{:.3}", row.utilization);
            for p in 0..row.energy.len() {
                let _ = write!(s, ",{:.6}", self.normalized(i, p));
            }
            let _ = writeln!(s, ",{:.6}", self.normalized_bound(i));
        }
        s
    }

    /// A fixed-width human-readable table of normalized energies.
    #[must_use]
    pub fn render_normalized(&self) -> String {
        let mut s = String::from("  util");
        for name in &self.policy_names {
            let _ = write!(s, " {name:>9}");
        }
        s.push_str("     bound\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(s, "  {:4.2}", row.utilization);
            for p in 0..row.energy.len() {
                let _ = write!(s, " {:9.3}", self.normalized(i, p));
            }
            let _ = writeln!(s, " {:9.3}", self.normalized_bound(i));
        }
        s
    }
}

/// Runs a sweep on every available core: for each utilization, generate
/// `sets_per_point` task sets and run every policy on each, averaging
/// absolute energies; the bound is computed per set from the work plain
/// EDF actually executed.
///
/// This is [`crate::runner::run_sweep_threads`] at [`available_threads`].
/// The runner evaluates every cell with its own
/// [`rtdvs_taskgen::SplitMix64::split`]-derived stream and merges the
/// cells in a fixed order, so the result is bit-identical at any thread
/// count.
#[must_use]
pub fn run_sweep(cfg: &SweepConfig) -> Sweep {
    crate::runner::run_sweep_threads(cfg, available_threads()).sweep
}

/// The machine's parallelism, or one worker when it cannot be queried.
/// The thread count is pure mechanism: no result depends on it.
#[must_use]
pub fn available_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SweepConfig {
        let mut cfg = SweepConfig::paper_default(5);
        cfg.utilizations = vec![0.3, 0.6, 0.9];
        cfg.sets_per_point = 4;
        cfg.duration = Time::from_ms(400.0);
        cfg
    }

    #[test]
    fn sweep_shapes_and_columns() {
        let sweep = run_sweep(&tiny_cfg());
        assert_eq!(sweep.rows.len(), 3);
        assert_eq!(sweep.policy_names.len(), 6);
        assert_eq!(sweep.edf_column(), 0);
        for row in &sweep.rows {
            assert_eq!(row.energy.len(), 6);
            assert!(row.bound > 0.0);
        }
    }

    #[test]
    fn edf_normalization_is_one() {
        let sweep = run_sweep(&tiny_cfg());
        for i in 0..sweep.rows.len() {
            assert!((sweep.normalized(i, 0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bound_is_lowest_curve() {
        // Each policy's energy must be at least the theoretical bound for
        // the work *it* executed (policies differ in work left in flight
        // at the horizon, and misses drop work). The bound is convex in
        // the rate, so comparing at the mean work is conservative.
        let cfg = tiny_cfg();
        let sweep = run_sweep(&cfg);
        for row in &sweep.rows {
            for (pi, &e) in row.energy.iter().enumerate() {
                let own_bound = rtdvs_sim::theoretical_bound(
                    &cfg.machine,
                    rtdvs_core::time::Work::from_ms(row.work[pi]),
                    cfg.duration,
                    cfg.idle_level,
                );
                assert!(
                    own_bound <= e + 1e-9,
                    "{} beat its own bound at U={}",
                    sweep.policy_names[pi],
                    row.utilization
                );
            }
        }
    }

    #[test]
    fn edf_policies_never_miss_at_or_below_full_utilization() {
        let sweep = run_sweep(&tiny_cfg());
        let names = &sweep.policy_names;
        for row in &sweep.rows {
            for (pi, name) in names.iter().enumerate() {
                if ["EDF", "StaticEDF", "ccEDF", "laEDF"].contains(name) {
                    assert_eq!(row.misses[pi], 0, "{name} missed at U={}", row.utilization);
                }
            }
        }
    }

    #[test]
    fn csv_round_shape() {
        let sweep = run_sweep(&tiny_cfg());
        let csv = sweep.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("utilization,EDF,"));
        assert!(lines[0].ends_with("bound"));
        let ncsv = sweep.to_normalized_csv();
        assert_eq!(ncsv.lines().count(), 4);
        let rendered = sweep.render_normalized();
        assert!(rendered.contains("laEDF"));
    }
}
