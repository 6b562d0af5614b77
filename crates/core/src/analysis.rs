//! Schedulability analysis for EDF and RM, with frequency scaling.
//!
//! Scaling the operating frequency by a factor `α ∈ (0, 1]` multiplies every
//! worst-case computation time by `1/α` while periods and deadlines are
//! unchanged (§2.3). Each test below therefore takes `α` and evaluates the
//! classical condition on the scaled WCETs:
//!
//! * **EDF** — the necessary and sufficient utilization bound
//!   `Σ C_i/(α·P_i) ≤ 1` (Liu & Layland).
//! * **RM, Liu–Layland** — the sufficient bound
//!   `Σ C_i/(α·P_i) ≤ n(2^{1/n} − 1)`.
//! * **RM, scheduling points** — the exact (necessary and sufficient for
//!   synchronous release) Lehoczky–Sha–Ding test: every task must have some
//!   scheduling point `t ≤ P_i` at which the level-i workload fits.
//! * **RM, response time** — the equivalent iterative response-time
//!   analysis, kept as an independent cross-check of the scheduling-point
//!   test.

use crate::machine::{Machine, PointIdx};
use crate::task::{Task, TaskId, TaskSet};
use crate::time::EPS;

/// Which RM schedulability test to use.
///
/// The paper's static-scaling algorithm (Fig. 1) uses a test from the
/// real-time literature whose cost it describes as roughly quadratic in the
/// number of tasks, which matches the scheduling-point test; the O(n)
/// Liu–Layland bound is provided for comparison and ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RmTest {
    /// Sufficient-only utilization bound `n(2^{1/n} − 1)`.
    LiuLayland,
    /// Exact scheduling-point (Lehoczky–Sha–Ding) test. The default.
    ///
    /// A level that does not fit at its own period searches its points in
    /// ascending order, skipping those whose workload an earlier point
    /// already shows to be too large; the verdict is that of trying every
    /// point. A level with more than [`MAX_SCHEDULING_POINTS`] points
    /// instead tries the first that many in a fixed order and counts as
    /// not fitting once they are spent. The cap can reject a feasible set
    /// only when a level has more points than that, such as two tasks
    /// whose periods are more than 2¹⁸ apart; it never admits an
    /// infeasible set. Generated sets, whose periods span at most 1,000
    /// to one, need at most 1,000 points per task.
    #[default]
    SchedulingPoints,
    /// Exact iterative response-time analysis.
    ResponseTime,
}

/// The Liu–Layland RM utilization bound `n(2^{1/n} − 1)` for `n` tasks.
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn liu_layland_bound(n: usize) -> f64 {
    assert!(n > 0, "bound undefined for zero tasks");
    let n = n as f64;
    n * (2.0_f64.powf(1.0 / n) - 1.0)
}

/// EDF feasibility of `tasks` at frequency factor `alpha`:
/// `Σ C_i/P_i ≤ α`.
#[must_use]
pub fn edf_feasible_at(tasks: &TaskSet, alpha: f64) -> bool {
    tasks.total_utilization() <= alpha + EPS
}

/// RM feasibility of `tasks` at frequency factor `alpha` under the chosen
/// test.
#[must_use]
pub fn rm_feasible_at(tasks: &TaskSet, alpha: f64, test: RmTest) -> bool {
    match test {
        RmTest::LiuLayland => {
            tasks.total_utilization() <= alpha * liu_layland_bound(tasks.len()) + EPS
        }
        RmTest::SchedulingPoints => rm_scheduling_points_feasible(tasks, alpha),
        RmTest::ResponseTime => rm_response_time_feasible(tasks, alpha),
    }
}

/// The most scheduling points [`RmTest::SchedulingPoints`] tries for one
/// priority level. A level with at most this many is searched in full; a
/// level with more tries this many in a fixed order and counts as not
/// fitting once they are spent. A level of `n` generated tasks needs at
/// most `1000·n + 1` points, so no generated set of up to 262 tasks
/// reaches the cap (the largest the experiments generate has 128);
/// without it, a set with periods 10¹² apart would take hours to decide.
pub const MAX_SCHEDULING_POINTS: u64 = 1 << 18;

/// Ceiling of `t / p` that tolerates float round-off: values within a
/// relative hair of a positive integer are treated as that integer. The
/// hair around 0 is empty, so any `t > 0` counts at least once, however
/// long the period.
fn ceil_tolerant(t: f64, p: f64) -> f64 {
    let q = t / p;
    let r = q.round();
    if (q - r).abs() <= 1e-9 * r {
        r
    } else {
        q.ceil()
    }
}

/// Exact scheduling-point RM test at frequency factor `alpha`.
///
/// For each task `i` in priority order, searches the scheduling points
/// `S_i = { k·P_j : j ≤ i, k = 1..⌊P_i/P_j⌋ } ∪ {P_i}` for a `t` with
/// `W(t) = Σ_{j ≤ i} ⌈t/P_j⌉ · C_j/α ≤ t`.
///
/// The search tries `t = P_i` first. If that fails and `S_i` has at most
/// [`MAX_SCHEDULING_POINTS`] points, [`level_fits_somewhere`] visits them
/// in ascending order and skips those an earlier point rules out, so the
/// verdict is that of a full search over `S_i`. Otherwise it enumerates
/// the `k·P_j` lazily, `j` in level order, until the cap's points are
/// spent; there the verdict depends on which points the cap leaves out,
/// so that order is kept as it is.
fn rm_scheduling_points_feasible(tasks: &TaskSet, alpha: f64) -> bool {
    debug_assert!(alpha > 0.0);
    let order = tasks.rm_order();
    order.iter().enumerate().all(|(i, &id_i)| {
        let level = &order[..=i];
        let p_i = tasks.task(id_i).period().as_ms();
        if level_workload(tasks, level, alpha, p_i) <= p_i + EPS {
            return true;
        }
        let points = level.iter().fold(0u64, |sum, &id_j| {
            sum.saturating_add(multiples(p_i, tasks.task(id_j).period().as_ms()))
        });
        if points < MAX_SCHEDULING_POINTS {
            return level_fits_somewhere(tasks, level, alpha, p_i);
        }
        // `t = P_i` was the first point; each `j` takes its multiples out
        // of what is left.
        let mut budget = MAX_SCHEDULING_POINTS - 1;
        level.iter().any(|&id_j| {
            let p_j = tasks.task(id_j).period().as_ms();
            let kmax = multiples(p_i, p_j).min(budget);
            budget -= kmax;
            (1..=kmax).any(|k| {
                let t = k as f64 * p_j;
                level_workload(tasks, level, alpha, t) <= t + EPS
            })
        })
    })
}

/// `⌊P_i/P_j⌋`, tolerating round-off: how many multiples of `p_j` are
/// scheduling points of the level whose longest period is `p_i`.
fn multiples(p_i: f64, p_j: f64) -> u64 {
    (p_i / p_j + 1e-9).floor() as u64
}

/// Whether the level fits at some point `k·P_j`, `k ≤ ⌊P_i/P_j⌋`.
///
/// Visits the points in ascending order and skips every point `t` with
/// `W(t_e) > t + EPS` for a visited `t_e ≤ t`. `W` never decreases as `t`
/// grows: [`ceil_tolerant`] is a non-decreasing step function,
/// multiplying or dividing by a positive constant is monotone under
/// rounding, and so is each addition of the in-order sum. So
/// `W(t) ≥ W(t_e) > t + EPS` and a skipped point cannot fit. `floor`
/// keeps the largest `W` visited. A visited point costs one pass over
/// the level for the next point, in which each progression's next
/// multiple comes from `last` and `floor`, and one pass for `W`.
fn level_fits_somewhere(tasks: &TaskSet, level: &[TaskId], alpha: f64, p_i: f64) -> bool {
    let mut last = f64::NEG_INFINITY;
    let mut floor = f64::NEG_INFINITY;
    loop {
        let next = level.iter().fold(f64::INFINITY, |next, &id_j| {
            let p_j = tasks.task(id_j).period().as_ms();
            first_multiple(p_j, multiples(p_i, p_j), last, floor).min(next)
        });
        if next.is_infinite() {
            return false;
        }
        let workload = level_workload(tasks, level, alpha, next);
        if workload <= next + EPS {
            return true;
        }
        last = next;
        floor = floor.max(workload);
    }
}

/// The first multiple `t = k·p`, `1 ≤ k ≤ kmax`, with `t > last` and
/// `t + EPS ≥ floor`, or `+∞` if there is none. Both conditions hold
/// from some `k` on, since `k·p` and `t + EPS` are monotone in `k` (and
/// no NaN reaches them); the estimate `⌊max(last, floor − EPS)/p⌋` is
/// off by at most one, and the two loops settle the exact first `k`.
fn first_multiple(p: f64, kmax: u64, last: f64, floor: f64) -> f64 {
    let admits = |k: u64| {
        let t = k as f64 * p;
        t > last && t + EPS >= floor
    };
    let target = last.max(floor - EPS);
    let estimate = if target > 0.0 {
        (target / p).floor() as u64
    } else {
        1
    };
    let mut k = estimate.clamp(1, kmax.saturating_add(1));
    while k > 1 && admits(k - 1) {
        k -= 1;
    }
    while k <= kmax && !admits(k) {
        k += 1;
    }
    if k <= kmax {
        k as f64 * p
    } else {
        f64::INFINITY
    }
}

/// The level-`i` workload at `t`, `W(t) = Σ_{j ∈ level} ⌈t/P_j⌉ · C_j/α`,
/// summed in `level` order. The level fits at `t` if `W(t) ≤ t + EPS`.
fn level_workload(tasks: &TaskSet, level: &[TaskId], alpha: f64, t: f64) -> f64 {
    level.iter().fold(0.0, |workload, &id_j| {
        let task = tasks.task(id_j);
        workload + ceil_tolerant(t, task.period().as_ms()) * task.wcet().as_ms() / alpha
    })
}

/// Exact response-time RM analysis at frequency factor `alpha`.
///
/// Iterates `R ← C_i/α + Σ_{j<i} ⌈R/P_j⌉ · C_j/α` to a fixed point for each
/// task; feasible if every fixed point is within the task's period.
fn rm_response_time_feasible(tasks: &TaskSet, alpha: f64) -> bool {
    debug_assert!(alpha > 0.0);
    let order = tasks.rm_order();
    for (i, &id_i) in order.iter().enumerate() {
        let c_i = tasks.task(id_i).wcet().as_ms() / alpha;
        let p_i = tasks.task(id_i).period().as_ms();
        let mut r = c_i;
        loop {
            let interference: f64 = order[..i]
                .iter()
                .map(|&id_j| {
                    let task = tasks.task(id_j);
                    ceil_tolerant(r, task.period().as_ms()) * task.wcet().as_ms() / alpha
                })
                .sum();
            let next = c_i + interference;
            if next > p_i + EPS {
                return false;
            }
            if (next - r).abs() <= EPS {
                break;
            }
            r = next;
        }
    }
    true
}

/// The statically-scaled EDF operating point (Fig. 1): the lowest point at
/// which the EDF test passes, or `None` if the set is infeasible even at
/// maximum frequency.
#[must_use]
pub fn static_edf_point(tasks: &TaskSet, machine: &Machine) -> Option<PointIdx> {
    machine.lowest_point_where(|p| edf_feasible_at(tasks, p.freq))
}

/// The statically-scaled RM operating point (Fig. 1): the lowest point at
/// which the chosen RM test passes, or `None` if none passes.
#[must_use]
pub fn static_rm_point(tasks: &TaskSet, machine: &Machine, test: RmTest) -> Option<PointIdx> {
    machine.lowest_point_where(|p| rm_feasible_at(tasks, p.freq, test))
}

/// The period-stretch ladder used by elastic overload degradation: each
/// factor multiplies a stretched task's nominal period, reducing its rate
/// (and utilization) while preserving its computing bound.
pub const STRETCH_LADDER: [f64; 3] = [1.25, 1.5, 2.0];

/// Searches for the smallest elastic period-stretch assignment that makes
/// `nominal` feasible, re-running the caller's schedulability test for every
/// candidate.
///
/// `nominal` are the tasks at their nominal periods (with whatever computing
/// bounds the caller wants validated — e.g. renegotiated to observed peaks).
/// `order` lists task indices from *least* to *most* critical; candidates
/// stretch a prefix of that order, so the least-critical tasks degrade
/// first. For each prefix length `k = 1..=n` (shortest first) and each
/// factor of [`STRETCH_LADDER`] (ascending), the candidate multiplies the
/// periods of `order[..k]` by the factor and asks `feasible` whether the
/// stretched set is schedulable. The first passing candidate wins, so the
/// result is deterministic and minimally disruptive: fewest tasks touched,
/// then smallest stretch — a more-critical task is never slowed while
/// deeper stretching of the less-critical ones would suffice.
///
/// Returns per-task factors aligned with `nominal` (`1.0` = untouched), or
/// `None` if even stretching every task by the ladder's maximum does not
/// help. Candidates containing an invalid task (a bound exceeding even the
/// stretched period) are skipped, not errors.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..nominal.len()`.
pub fn elastic_stretch_assignment<F>(
    nominal: &[Task],
    order: &[usize],
    feasible: F,
) -> Option<Vec<f64>>
where
    F: Fn(&TaskSet) -> bool,
{
    assert_eq!(order.len(), nominal.len(), "order must cover every task");
    {
        let mut seen = vec![false; nominal.len()];
        for &i in order {
            assert!(!seen[i], "order must be a permutation");
            seen[i] = true;
        }
    }
    for k in 1..=order.len() {
        for &factor in &STRETCH_LADDER {
            let mut factors = vec![1.0; nominal.len()];
            for &i in &order[..k] {
                factors[i] = factor;
            }
            let stretched: Option<Vec<Task>> = nominal
                .iter()
                .zip(&factors)
                .map(|(t, &f)| {
                    Task::new(crate::time::Time::from_ms(t.period().as_ms() * f), t.wcet()).ok()
                })
                .collect();
            let Some(tasks) = stretched else { continue };
            let Ok(candidate) = TaskSet::new(tasks) else {
                continue;
            };
            if feasible(&candidate) {
                return Some(factors);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_set() -> TaskSet {
        TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)]).expect("valid task set")
    }

    #[test]
    fn liu_layland_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.828_427_124_746_19).abs() < 1e-9);
        assert!((liu_layland_bound(3) - 0.779_763_149_684_62).abs() < 1e-9);
        // Tends to ln 2 for large n.
        assert!((liu_layland_bound(10_000) - core::f64::consts::LN_2).abs() < 1e-4);
    }

    #[test]
    fn edf_test_on_paper_set() {
        let set = paper_set();
        // U = 0.746: feasible at 0.75 and 1.0, not at 0.5 (Fig. 2).
        assert!(edf_feasible_at(&set, 1.0));
        assert!(edf_feasible_at(&set, 0.75));
        assert!(!edf_feasible_at(&set, 0.5));
    }

    #[test]
    fn rm_tests_on_paper_set() {
        let set = paper_set();
        // Fig. 2: static RM must run at 1.0; 0.75 misses T3's deadline.
        for test in [
            RmTest::LiuLayland,
            RmTest::SchedulingPoints,
            RmTest::ResponseTime,
        ] {
            assert!(rm_feasible_at(&set, 1.0, test), "{test:?} at 1.0");
            assert!(!rm_feasible_at(&set, 0.75, test), "{test:?} at 0.75");
            assert!(!rm_feasible_at(&set, 0.5, test), "{test:?} at 0.5");
        }
    }

    #[test]
    fn exact_tests_admit_more_than_liu_layland() {
        // Harmonic periods: U = 1.0 is RM-schedulable exactly, but fails LL.
        let set = TaskSet::from_ms_pairs(&[(2.0, 1.0), (4.0, 2.0)]).expect("valid task set");
        assert!((set.total_utilization() - 1.0).abs() < 1e-12);
        assert!(!rm_feasible_at(&set, 1.0, RmTest::LiuLayland));
        assert!(rm_feasible_at(&set, 1.0, RmTest::SchedulingPoints));
        assert!(rm_feasible_at(&set, 1.0, RmTest::ResponseTime));
    }

    #[test]
    fn static_points_on_paper_set() {
        let set = paper_set();
        let m = Machine::machine0();
        // Fig. 2: static EDF uses 0.75, static RM uses 1.0.
        assert_eq!(static_edf_point(&set, &m), Some(1));
        assert_eq!(static_rm_point(&set, &m, RmTest::SchedulingPoints), Some(2));
        assert_eq!(static_rm_point(&set, &m, RmTest::LiuLayland), Some(2));
    }

    #[test]
    fn infeasible_set_has_no_static_point() {
        // U > 1: not schedulable at any frequency.
        let set = TaskSet::from_ms_pairs(&[(2.0, 1.5), (4.0, 3.0)]).expect("valid task set");
        let m = Machine::machine0();
        assert_eq!(static_edf_point(&set, &m), None);
        assert_eq!(static_rm_point(&set, &m, RmTest::SchedulingPoints), None);
    }

    #[test]
    fn single_task_feasibility_threshold() {
        // One task with U = 0.6 needs α ≥ 0.6 under every test.
        let set = TaskSet::from_ms_pairs(&[(10.0, 6.0)]).expect("valid task set");
        for test in [
            RmTest::LiuLayland,
            RmTest::SchedulingPoints,
            RmTest::ResponseTime,
        ] {
            assert!(rm_feasible_at(&set, 0.6, test));
            assert!(!rm_feasible_at(&set, 0.59, test));
        }
        assert!(edf_feasible_at(&set, 0.6));
        assert!(!edf_feasible_at(&set, 0.59));
    }

    #[test]
    fn ceil_tolerant_handles_exact_multiples() {
        assert_eq!(ceil_tolerant(14.0, 7.0), 2.0);
        assert_eq!(ceil_tolerant(14.000001, 7.0), 3.0);
        assert_eq!(ceil_tolerant(13.9, 7.0), 2.0);
        // A value that is an exact multiple only up to float noise.
        let t = 0.3 * 3.0; // 0.8999999999999999
        assert_eq!(ceil_tolerant(t, 0.3), 3.0);
    }

    #[test]
    fn far_longer_periods_still_count_at_every_point() {
        // U = 0.5 + 0.6 = 1.1 with the second period `ratio` times the
        // first: infeasible, however far apart the periods are.
        let freqs = [
            Machine::machine0(),
            Machine::machine1(),
            Machine::machine2(),
        ]
        .iter()
        .flat_map(|m| m.points().iter().map(|p| p.freq).collect::<Vec<_>>())
        .collect::<Vec<_>>();
        for ratio in [1e9, 1e10, 1e12] {
            let p = 1e-5;
            let set = TaskSet::from_ms_pairs(&[(p, 0.5 * p), (p * ratio, 0.6 * p * ratio)])
                .expect("valid task set");
            for &alpha in &freqs {
                for test in [
                    RmTest::LiuLayland,
                    RmTest::SchedulingPoints,
                    RmTest::ResponseTime,
                ] {
                    assert!(
                        !rm_feasible_at(&set, alpha, test),
                        "{test:?} admits U = 1.1 at ratio {ratio:e}, alpha {alpha}"
                    );
                }
            }
        }
        // A period 10¹² times another adds its task's full WCET at the
        // shortest scheduling point.
        assert_eq!(ceil_tolerant(1e-5, 1e7).to_bits(), 1f64.to_bits());
        assert_eq!(ceil_tolerant(0.0, 1e7).to_bits(), 0f64.to_bits());
    }

    #[test]
    fn the_point_cap_bounds_the_search() {
        // The second level does not fit at any of its 10¹² points: the
        // cap stops the search after MAX_SCHEDULING_POINTS of them.
        let set = TaskSet::from_ms_pairs(&[(1e-5, 0.5e-5), (1e7, 0.6e7)]).expect("valid task set");
        let start = std::time::Instant::now();
        assert!(!rm_feasible_at(&set, 1.0, RmTest::SchedulingPoints));
        let took = start.elapsed();
        assert!(took.as_secs_f64() < 1.0, "deciding took {took:?}");
    }

    #[test]
    fn above_the_cap_the_enumeration_order_is_kept() {
        // The second level fits only at t = 300,000, past the first 2¹⁸
        // points the capped enumeration tries: it rejects the set, which
        // the response-time test and a full ascending search admit.
        let set =
            TaskSet::from_ms_pairs(&[(1.0, 0.5), (300_000.1, 149_999.8)]).expect("valid task set");
        assert!(!rm_feasible_at(&set, 1.0, RmTest::SchedulingPoints));
        assert!(rm_feasible_at(&set, 1.0, RmTest::ResponseTime));
        let level = set.rm_order();
        assert!(level_fits_somewhere(&set, level, 1.0, 300_000.1));
    }

    #[test]
    fn the_ascending_search_skips_what_it_rules_out() {
        // Periods 1 and 1,000.5: 1,001 points. The level does not fit at
        // its period (W = 0.75·1001 + 249.9 = 1000.65) and first fits at
        // t = 1,000 (W = 999.9). Each visit jumps to the workload it
        // found, so the search visits a few dozen of the points.
        let set = TaskSet::from_ms_pairs(&[(1.0, 0.75), (1000.5, 249.9)]).expect("valid task set");
        let level = set.rm_order();
        assert!(level_workload(&set, level, 1.0, 1000.5) > 1000.5 + EPS);
        assert!(level_fits_somewhere(&set, level, 1.0, 1000.5));
        assert!(rm_feasible_at(&set, 1.0, RmTest::SchedulingPoints));
        // The next multiple is past `last` and no more than EPS below
        // `floor`: (p, kmax, last, floor, next).
        let none = f64::NEG_INFINITY;
        let cases = [
            (1.0, 1000, none, none, 1.0),
            (1.0, 1000, 200.0, 0.0, 201.0),
            (1.0, 1000, 10.0, 799.5, 800.0),
            (1.0, 1000, 10.0, 800.0 + 0.5 * EPS, 800.0),
            (1.0, 1000, 10.0, 800.0 + 2.0 * EPS, 801.0),
            (1000.0, 1, 999.0, 0.0, 1000.0),
            (1000.0, 1, 1000.0, 0.0, f64::INFINITY),
        ];
        for (p, kmax, last, floor, next) in cases {
            let got = first_multiple(p, kmax, last, floor);
            assert_eq!(
                got.to_bits(),
                next.to_bits(),
                "{p} {kmax} {last} {floor}: {got}"
            );
        }
    }

    #[test]
    fn exact_tests_agree_on_random_like_sets() {
        // A few hand-picked sets where LL is inconclusive.
        let sets = [
            vec![(5.0, 2.0), (7.0, 2.0), (11.0, 1.5)],
            vec![(3.0, 1.0), (6.0, 2.0), (12.0, 4.0)],
            vec![(10.0, 4.0), (15.0, 4.0), (35.0, 3.5)],
        ];
        for pairs in sets {
            let set = TaskSet::from_ms_pairs(&pairs).expect("valid task set");
            for alpha in [0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0] {
                assert_eq!(
                    rm_feasible_at(&set, alpha, RmTest::SchedulingPoints),
                    rm_feasible_at(&set, alpha, RmTest::ResponseTime),
                    "disagreement on {pairs:?} at alpha={alpha}"
                );
            }
        }
    }

    #[test]
    fn scaling_monotonicity() {
        // If feasible at α, feasible at any α' ≥ α.
        let set = paper_set();
        let mut prev = false;
        for step in 0..=20 {
            let alpha = 0.05 * step as f64 + 0.0;
            if alpha <= 0.0 {
                continue;
            }
            let now = rm_feasible_at(&set, alpha, RmTest::SchedulingPoints);
            assert!(
                !prev || now,
                "feasibility lost when raising alpha to {alpha}"
            );
            prev = now;
        }
    }

    #[test]
    fn stretch_finds_the_minimal_prefix() {
        use crate::time::{Time, Work};
        // U = 0.5 + 0.6 = 1.1: infeasible under EDF. Stretching only the
        // least-critical task (index 1) by 1.25 gives 0.5 + 0.48 = 0.98.
        let nominal = [
            Task::new(Time::from_ms(10.0), Work::from_ms(5.0)).expect("valid"),
            Task::new(Time::from_ms(10.0), Work::from_ms(6.0)).expect("valid"),
        ];
        let factors =
            elastic_stretch_assignment(&nominal, &[1, 0], |set| edf_feasible_at(set, 1.0))
                .expect("a stretch must exist");
        assert_eq!(factors, vec![1.0, 1.25]);
    }

    #[test]
    fn stretch_escalates_factor_before_criticality() {
        use crate::time::{Time, Work};
        // U = 0.5 + 0.9 = 1.4. Stretching task 1 alone: ×1.25 → 1.22,
        // ×1.5 → 1.1, ×2.0 → 0.95 — the ladder must reach 2.0 on the
        // least-critical task without ever touching task 0.
        let nominal = [
            Task::new(Time::from_ms(10.0), Work::from_ms(5.0)).expect("valid"),
            Task::new(Time::from_ms(10.0), Work::from_ms(9.0)).expect("valid"),
        ];
        let factors =
            elastic_stretch_assignment(&nominal, &[1, 0], |set| edf_feasible_at(set, 1.0))
                .expect("a stretch must exist");
        assert_eq!(factors, vec![1.0, 2.0]);
    }

    #[test]
    fn hopeless_overload_returns_none() {
        use crate::time::{Time, Work};
        // Even at ×2 on both tasks U = 2.4/2 + 1.8/2 > 1.
        let nominal = [
            Task::new(Time::from_ms(1.0), Work::from_ms(2.4)).ok(),
            Task::new(Time::from_ms(1.0), Work::from_ms(0.9)).ok(),
        ];
        // A bound larger than the period is unrepresentable as a Task, so
        // build the hopeless case from representable-but-overloaded tasks:
        // three of U = 0.9 each still sum to 1.35 at the ladder's maximum.
        assert!(nominal[0].is_none(), "2.4 > 1.0 must not be a valid task");
        let nominal = [
            Task::new(Time::from_ms(10.0), Work::from_ms(9.0)).expect("valid"),
            Task::new(Time::from_ms(10.0), Work::from_ms(9.0)).expect("valid"),
            Task::new(Time::from_ms(10.0), Work::from_ms(9.0)).expect("valid"),
        ];
        assert_eq!(
            elastic_stretch_assignment(&nominal, &[2, 1, 0], |set| edf_feasible_at(set, 1.0)),
            None
        );
    }

    #[test]
    fn stretch_skips_candidates_with_invalid_tasks() {
        use crate::time::{Time, Work};
        // Task 1's bound (8) exceeds its nominal period (6): only stretched
        // candidates that make room for the bound are even representable.
        let nominal = [
            Task::new(Time::from_ms(10.0), Work::from_ms(2.0)).expect("valid"),
            Task::new(Time::from_ms(12.0), Work::from_ms(8.0)).expect("valid"),
        ];
        // Pretend the caller renegotiated task 1's bound upward by building
        // the nominal row directly with the larger bound via a short period.
        let over = [
            nominal[0],
            Task::new(Time::from_ms(8.0), Work::from_ms(8.0)).expect("valid"),
        ];
        // At nominal, U = 0.2 + 1.0 = 1.2; ×1.25 on task 1 → 0.2 + 0.8 = 1.0.
        let factors = elastic_stretch_assignment(&over, &[1, 0], |set| edf_feasible_at(set, 1.0))
            .expect("a stretch must exist");
        assert_eq!(factors, vec![1.0, 1.25]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn stretch_rejects_bad_order() {
        use crate::time::{Time, Work};
        let nominal = [
            Task::new(Time::from_ms(10.0), Work::from_ms(1.0)).expect("valid"),
            Task::new(Time::from_ms(10.0), Work::from_ms(1.0)).expect("valid"),
        ];
        let _ = elastic_stretch_assignment(&nominal, &[0, 0], |_| true);
    }
}
