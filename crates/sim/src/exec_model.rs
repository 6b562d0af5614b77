//! Models of how much computation each task invocation actually requires.
//!
//! Real-time tasks are specified by worst-case computation times but
//! "generally use much less than the worst case on most invocations"
//! (§2.4). The simulator parameterizes this exactly as the paper does
//! (§3.1): a constant fraction of the worst case, a uniformly-distributed
//! random fraction, the full worst case, or an explicit per-invocation
//! trace (used for the Table 3 examples).

use rtdvs_core::task::{Task, TaskId};
use rtdvs_core::time::{Work, EPS};
use rtdvs_taskgen::SplitMix64;

/// Per-invocation actual computation model.
#[derive(Debug, Clone)]
pub enum ExecModel {
    /// Every invocation uses its full worst case (`c = 1.0`).
    Wcet,
    /// Every invocation uses a constant fraction of its worst case
    /// (e.g. `0.9` for the paper's `c = 0.9` runs).
    ConstantFraction(f64),
    /// Each invocation independently draws a fraction uniformly from
    /// `[lo, hi]` (the paper's "uniform c" uses `[0, 1]`).
    UniformFraction {
        /// Inclusive lower bound of the fraction.
        lo: f64,
        /// Inclusive upper bound of the fraction.
        hi: f64,
    },
    /// Explicit per-invocation times: `times[task][invocation]`, clamped to
    /// the last entry once the trace is exhausted. Used to replay Table 3.
    Trace(Vec<Vec<Work>>),
}

impl ExecModel {
    /// The paper's "uniform c" model: fraction uniform in `[0, 1]`.
    #[must_use]
    pub fn uniform() -> ExecModel {
        ExecModel::UniformFraction { lo: 0.0, hi: 1.0 }
    }

    /// Samples the actual computation for invocation `invocation`
    /// (1-based) of `task`.
    ///
    /// The result is clamped to `[0, C_i]`: condition C2 of §2.2 requires
    /// that no task exceed its specified worst case, and negative work is
    /// meaningless.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a fraction parameter is outside
    /// `[0, 1]`; clamping keeps release builds safe.
    pub fn sample(&self, task: TaskId, spec: &Task, invocation: u64, rng: &mut SplitMix64) -> Work {
        self.sample_checked(task, spec, invocation, rng).0
    }

    /// Like [`ExecModel::sample`], but also reports whether the raw draw
    /// violated condition C2 (exceeded the WCET) and had to be clamped.
    /// The engine counts these so C2 violations in input traces are
    /// observable (`SimReport::clamp_events`) instead of silently eaten.
    pub fn sample_checked(
        &self,
        task: TaskId,
        spec: &Task,
        invocation: u64,
        rng: &mut SplitMix64,
    ) -> (Work, bool) {
        let wcet = spec.wcet();
        let raw = match self {
            ExecModel::Wcet => wcet,
            ExecModel::ConstantFraction(c) => {
                debug_assert!((0.0..=1.0).contains(c), "fraction {c} outside [0, 1]");
                wcet * *c
            }
            ExecModel::UniformFraction { lo, hi } => {
                debug_assert!(lo <= hi && *lo >= 0.0 && *hi <= 1.0);
                let f = rng.range_f64_inclusive(*lo, *hi);
                wcet * f
            }
            ExecModel::Trace(times) => {
                // Total on the engine hot path: a task missing from the
                // trace, or a trace with no invocations, contributes zero
                // work (flagged loudly in debug builds) instead of
                // panicking mid-simulation.
                let per_task = times.get(task.0).map_or(&[][..], Vec::as_slice);
                debug_assert!(
                    !per_task.is_empty(),
                    "trace for {task} must list at least one invocation"
                );
                let idx = (invocation.max(1) as usize - 1).min(per_task.len().saturating_sub(1));
                per_task.get(idx).copied().unwrap_or(Work::ZERO)
            }
        };
        let clamped = raw.as_ms() > wcet.as_ms() + EPS;
        (raw.max(Work::ZERO).min(wcet), clamped)
    }

    /// The long-run mean fraction of the worst case this model consumes
    /// (used by reports; `None` for traces, whose mean depends on the
    /// horizon).
    #[must_use]
    pub fn mean_fraction(&self) -> Option<f64> {
        match self {
            ExecModel::Wcet => Some(1.0),
            ExecModel::ConstantFraction(c) => Some(*c),
            ExecModel::UniformFraction { lo, hi } => Some((lo + hi) / 2.0),
            ExecModel::Trace(_) => None,
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;
    use rtdvs_core::task::Task;

    fn task() -> Task {
        Task::from_ms(10.0, 4.0).unwrap()
    }

    fn rng() -> SplitMix64 {
        SplitMix64::seed_from_u64(42)
    }

    #[test]
    fn wcet_model_returns_full_wcet() {
        let m = ExecModel::Wcet;
        let w = m.sample(TaskId(0), &task(), 1, &mut rng());
        assert_eq!(w.as_ms(), 4.0);
    }

    #[test]
    fn constant_fraction_scales() {
        let m = ExecModel::ConstantFraction(0.5);
        let w = m.sample(TaskId(0), &task(), 7, &mut rng());
        assert_eq!(w.as_ms(), 2.0);
    }

    #[test]
    fn uniform_stays_in_range_and_varies() {
        let m = ExecModel::uniform();
        let mut r = rng();
        let mut seen_distinct = false;
        let mut prev: Option<f64> = None;
        for inv in 1..=100 {
            let w = m.sample(TaskId(0), &task(), inv, &mut r);
            assert!(w.as_ms() >= 0.0 && w.as_ms() <= 4.0);
            if let Some(p) = prev {
                if (w.as_ms() - p).abs() > 1e-12 {
                    seen_distinct = true;
                }
            }
            prev = Some(w.as_ms());
        }
        assert!(
            seen_distinct,
            "uniform model should vary across invocations"
        );
    }

    #[test]
    fn uniform_mean_is_half() {
        let m = ExecModel::uniform();
        let mut r = rng();
        let n = 20_000;
        let sum: f64 = (1..=n)
            .map(|inv| m.sample(TaskId(0), &task(), inv, &mut r).as_ms())
            .sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean} should be near 2.0");
    }

    #[test]
    fn trace_indexes_by_invocation_and_clamps() {
        let m = ExecModel::Trace(vec![vec![Work::from_ms(2.0), Work::from_ms(1.0)]]);
        let t = task();
        let mut r = rng();
        assert_eq!(m.sample(TaskId(0), &t, 1, &mut r).as_ms(), 2.0);
        assert_eq!(m.sample(TaskId(0), &t, 2, &mut r).as_ms(), 1.0);
        // Beyond the trace, the last entry repeats.
        assert_eq!(m.sample(TaskId(0), &t, 9, &mut r).as_ms(), 1.0);
    }

    #[test]
    fn samples_never_exceed_wcet() {
        // A trace entry above the WCET is clamped (condition C2).
        let m = ExecModel::Trace(vec![vec![Work::from_ms(99.0)]]);
        let w = m.sample(TaskId(0), &task(), 1, &mut rng());
        assert_eq!(w.as_ms(), 4.0);
    }

    #[test]
    fn sample_checked_reports_clamps() {
        let m = ExecModel::Trace(vec![vec![Work::from_ms(99.0), Work::from_ms(1.0)]]);
        let t = task();
        let mut r = rng();
        let (w, clamped) = m.sample_checked(TaskId(0), &t, 1, &mut r);
        assert_eq!(w.as_ms(), 4.0);
        assert!(
            clamped,
            "a 99 ms entry against a 4 ms WCET is a C2 violation"
        );
        let (w, clamped) = m.sample_checked(TaskId(0), &t, 2, &mut r);
        assert_eq!(w.as_ms(), 1.0);
        assert!(!clamped);
        // In-range models never clamp.
        let (_, clamped) = ExecModel::uniform().sample_checked(TaskId(0), &t, 1, &mut r);
        assert!(!clamped);
    }

    #[test]
    fn mean_fractions() {
        assert_eq!(ExecModel::Wcet.mean_fraction(), Some(1.0));
        assert_eq!(ExecModel::ConstantFraction(0.7).mean_fraction(), Some(0.7));
        assert_eq!(ExecModel::uniform().mean_fraction(), Some(0.5));
        assert_eq!(ExecModel::Trace(vec![]).mean_fraction(), None);
    }

    #[test]
    fn determinism_with_same_seed() {
        let m = ExecModel::uniform();
        let a: Vec<f64> = {
            let mut r = SplitMix64::seed_from_u64(7);
            (1..=10)
                .map(|i| m.sample(TaskId(0), &task(), i, &mut r).as_ms())
                .collect()
        };
        let b: Vec<f64> = {
            let mut r = SplitMix64::seed_from_u64(7);
            (1..=10)
                .map(|i| m.sample(TaskId(0), &task(), i, &mut r).as_ms())
                .collect()
        };
        assert_eq!(a, b);
    }
}
