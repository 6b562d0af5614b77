//! # rtdvs-taskgen
//!
//! Random periodic task-set generation, replicating the workload model of
//! Pillai & Shin (SOSP 2001, §3.1), originally used for the EMERALDS
//! microkernel evaluation:
//!
//! * each task has an equal probability of a **short** (1–10 ms),
//!   **medium** (10–100 ms), or **long** (100–1000 ms) period, uniform
//!   within the band;
//! * raw computation times are drawn from the same three-band distribution
//!   (capped at the period), then scaled by a constant so the set's total
//!   worst-case utilization hits a target value.
//!
//! Generation is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;

use rtdvs_core::task::{Task, TaskSet};
use rtdvs_core::time::{Time, Work};

pub mod openloop;
pub mod rng;

pub use openloop::{OpenLoopError, OpenLoopGen, OpenLoopSpec, Request};
pub use rng::SplitMix64;

/// The paper's three period bands, in milliseconds.
pub const PERIOD_BANDS_MS: [(f64, f64); 3] = [(1.0, 10.0), (10.0, 100.0), (100.0, 1000.0)];

/// Task-set generator configuration.
#[derive(Debug, Clone)]
pub struct TaskGenSpec {
    /// Number of tasks per set.
    pub n_tasks: usize,
    /// Target total worst-case utilization in `(0, 1]`.
    pub utilization: f64,
}

impl TaskGenSpec {
    /// Creates a spec with the paper's three period bands.
    ///
    /// # Errors
    ///
    /// Returns [`TaskGenError`] if `n_tasks` is zero or `utilization` is
    /// outside `(0, 1]`.
    pub fn new(n_tasks: usize, utilization: f64) -> Result<TaskGenSpec, TaskGenError> {
        if n_tasks == 0 {
            return Err(TaskGenError::NoTasks);
        }
        if !(utilization > 0.0 && utilization <= 1.0) {
            return Err(TaskGenError::BadUtilization { utilization });
        }
        Ok(TaskGenSpec {
            n_tasks,
            utilization,
        })
    }
}

/// Errors from task-set generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskGenError {
    /// Zero tasks requested.
    NoTasks,
    /// Target utilization outside `(0, 1]`.
    BadUtilization {
        /// The offending value.
        utilization: f64,
    },
    /// No valid set found within the resampling budget (can only happen
    /// for extreme parameters, e.g. one task at utilization 1.0 whose
    /// scaled computation time keeps exceeding its period).
    Exhausted,
}

impl fmt::Display for TaskGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskGenError::NoTasks => write!(f, "at least one task is required"),
            TaskGenError::BadUtilization { utilization } => {
                write!(f, "target utilization {utilization} outside (0, 1]")
            }
            TaskGenError::Exhausted => {
                write!(
                    f,
                    "could not generate a valid task set within the retry budget"
                )
            }
        }
    }
}

impl std::error::Error for TaskGenError {}

/// Draws one value from the paper's banded distribution: pick one of
/// [`PERIOD_BANDS_MS`] uniformly, then a value uniformly within it.
fn banded(rng: &mut SplitMix64) -> f64 {
    let (lo, hi) = PERIOD_BANDS_MS[rng.index(PERIOD_BANDS_MS.len())];
    rng.range_f64(lo, hi)
}

/// Generates one task set for `spec`, deterministically from `seed`.
///
/// The generated set always has total worst-case utilization within
/// `1e-9` of `spec.utilization` and every task satisfies `C_i ≤ P_i`.
/// Candidate sets where the utilization scaling would push some task's
/// computation time above its period are resampled (up to 10 000 times).
///
/// # Errors
///
/// Returns [`TaskGenError::Exhausted`] if no valid set is found, which does
/// not happen for the paper's parameter ranges (n ≥ 2, U ≤ 1).
pub fn generate(spec: &TaskGenSpec, seed: u64) -> Result<TaskSet, TaskGenError> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    const MAX_ATTEMPTS: usize = 10_000;
    for _ in 0..MAX_ATTEMPTS {
        let periods: Vec<f64> = (0..spec.n_tasks).map(|_| banded(&mut rng)).collect();
        let raw_comp: Vec<f64> = (0..spec.n_tasks)
            .map(|_| banded(&mut rng))
            .zip(&periods)
            .map(|(c, &p)| c.min(p))
            .collect();
        let raw_util: f64 = raw_comp.iter().zip(&periods).map(|(&c, &p)| c / p).sum();
        if raw_util <= 0.0 {
            continue;
        }
        let scale = spec.utilization / raw_util;
        let tasks: Option<Vec<Task>> = periods
            .iter()
            .zip(&raw_comp)
            .map(|(&p, &c)| {
                let scaled = c * scale;
                if scaled > p || scaled <= 0.0 {
                    None
                } else {
                    Task::new(Time::from_ms(p), Work::from_ms(scaled)).ok()
                }
            })
            .collect();
        if let Some(tasks) = tasks {
            let set = TaskSet::new(tasks).expect("n_tasks > 0");
            debug_assert!((set.total_utilization() - spec.utilization).abs() < 1e-9);
            return Ok(set);
        }
    }
    Err(TaskGenError::Exhausted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        assert!(TaskGenSpec::new(0, 0.5).is_err());
        assert!(TaskGenSpec::new(5, 0.0).is_err());
        assert!(TaskGenSpec::new(5, 1.2).is_err());
        assert!(TaskGenSpec::new(5, 1.0).is_ok());
    }

    #[test]
    fn hits_target_utilization_exactly() {
        for &u in &[0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let spec = TaskGenSpec::new(8, u).unwrap();
            let set = generate(&spec, 42).unwrap();
            assert_eq!(set.len(), 8);
            assert!(
                (set.total_utilization() - u).abs() < 1e-9,
                "target {u}, got {}",
                set.total_utilization()
            );
        }
    }

    #[test]
    fn all_tasks_fit_their_periods() {
        let spec = TaskGenSpec::new(15, 0.95).unwrap();
        for seed in 0..50 {
            let set = generate(&spec, seed).unwrap();
            for t in set.tasks() {
                assert!(t.wcet().as_ms() <= t.period().as_ms() + 1e-9);
                assert!(t.period().as_ms() >= 1.0 && t.period().as_ms() < 1000.0);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = TaskGenSpec::new(5, 0.6).unwrap();
        let a = generate(&spec, 7).unwrap();
        let b = generate(&spec, 7).unwrap();
        assert_eq!(a, b);
        let c = generate(&spec, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn period_bands_are_all_hit() {
        // Over many tasks, every band should appear.
        let spec = TaskGenSpec::new(10, 0.5).unwrap();
        let mut short = 0;
        let mut medium = 0;
        let mut long = 0;
        for seed in 0..30 {
            let set = generate(&spec, seed).unwrap();
            for t in set.tasks() {
                let p = t.period().as_ms();
                if p < 10.0 {
                    short += 1;
                } else if p < 100.0 {
                    medium += 1;
                } else {
                    long += 1;
                }
            }
        }
        assert!(short > 0 && medium > 0 && long > 0);
        // Equal band probability: each should be near a third of 300.
        for count in [short, medium, long] {
            assert!((50..=150).contains(&count), "band count {count} is skewed");
        }
    }

    #[test]
    fn single_task_full_utilization() {
        // C = P: valid and generated without exhausting retries.
        let spec = TaskGenSpec::new(1, 1.0).unwrap();
        let set = generate(&spec, 3).unwrap();
        let t = &set.tasks()[0];
        assert!((t.wcet().as_ms() - t.period().as_ms()).abs() < 1e-9);
    }

    #[test]
    fn edf_schedulable_by_construction() {
        let spec = TaskGenSpec::new(10, 1.0).unwrap();
        for seed in 0..10 {
            let set = generate(&spec, seed).unwrap();
            assert!(rtdvs_core::analysis::edf_feasible_at(&set, 1.0));
        }
    }
}
