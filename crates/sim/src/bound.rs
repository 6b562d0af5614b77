//! The theoretical lower bound on energy (§3.2).
//!
//! The bound "reflects execution throughput only": given the total number
//! of task computation cycles executed during a simulation, it is the
//! minimum energy with which those cycles could have been executed over the
//! simulation duration on the given machine — ignoring all timing
//! constraints. No algorithm can do better.
//!
//! Formally this is a tiny linear program: split the duration into
//! fractions `λ_j` spent at each operating point (plus a halted
//! pseudo-point at frequency 0 whose power is the cheapest idle power),
//! minimizing `Σ λ_j · power_j` subject to `Σ λ_j · f_j = r` and
//! `Σ λ_j = 1`, where `r` is the required average execution rate. The
//! optimum lies on the lower convex envelope of the `(f, power)` points,
//! so checking every pair of points suffices.

use rtdvs_core::machine::Machine;
use rtdvs_core::time::{Time, Work, EPS};

/// Minimum energy to execute `total_work` over `duration` on `machine`
/// with the given idle level.
///
/// Returns the energy in the same units as the simulator (volt²·ms). If
/// `total_work` exceeds what the machine can execute in `duration` (rate
/// above 1.0), the demand is clamped to full speed — no schedule can
/// execute more, and callers feeding simulator output never hit this case.
///
/// # Panics
///
/// Panics if `duration` is not strictly positive.
#[must_use]
pub fn theoretical_bound(
    machine: &Machine,
    total_work: Work,
    duration: Time,
    idle_level: f64,
) -> f64 {
    assert!(
        duration.as_ms() > 0.0,
        "bound undefined for non-positive duration"
    );
    let rate = (total_work.as_ms() / duration.as_ms()).clamp(0.0, 1.0);
    minimum_average_power(machine, rate, idle_level) * duration.as_ms()
}

/// Minimum average power to sustain execution rate `rate ∈ [0, 1]`.
///
/// Exposed separately for the power-oriented experiments (Figs. 16, 17).
#[must_use]
pub fn minimum_average_power(machine: &Machine, rate: f64, idle_level: f64) -> f64 {
    assert!(
        (0.0..=1.0 + EPS).contains(&rate),
        "rate {rate} outside [0, 1]"
    );
    // Candidate (frequency, power) points: every operating point busy, plus
    // halting at the cheapest idle point.
    let mut pts: Vec<(f64, f64)> = machine
        .points()
        .iter()
        .map(|p| (p.freq, p.busy_power()))
        .collect();
    let cheapest_idle = machine
        .points()
        .iter()
        .map(|p| p.idle_power(idle_level))
        .fold(f64::INFINITY, f64::min);
    pts.push((0.0, cheapest_idle));

    let mut best = f64::INFINITY;
    for (i, &(fa, pa)) in pts.iter().enumerate() {
        if (fa - rate).abs() <= EPS {
            best = best.min(pa);
        }
        for &(fb, pb) in &pts[i + 1..] {
            let (lo, hi) = if fa <= fb {
                ((fa, pa), (fb, pb))
            } else {
                ((fb, pb), (fa, pa))
            };
            if lo.0 - EPS <= rate && rate <= hi.0 + EPS && hi.0 - lo.0 > EPS {
                let lambda = ((rate - lo.0) / (hi.0 - lo.0)).clamp(0.0, 1.0);
                best = best.min(lo.1 + lambda * (hi.1 - lo.1));
            }
        }
    }
    debug_assert!(best.is_finite(), "no feasible point mix for rate {rate}");
    best
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    #[test]
    fn zero_work_costs_nothing_with_perfect_halt() {
        let m = Machine::machine0();
        let e = theoretical_bound(&m, Work::ZERO, Time::from_ms(100.0), 0.0);
        assert_eq!(e, 0.0);
    }

    #[test]
    fn full_rate_uses_max_point() {
        let m = Machine::machine0();
        // 100 work over 100 ms: must run flat out at (1.0, 5 V) → 25/ms.
        let e = theoretical_bound(&m, Work::from_ms(100.0), Time::from_ms(100.0), 0.0);
        assert!((e - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn exact_point_rate_uses_that_point() {
        let m = Machine::machine0();
        // Rate 0.5 matches the lowest point exactly: 0.5·9 = 4.5/ms.
        let p = minimum_average_power(&m, 0.5, 0.0);
        assert!((p - 4.5).abs() < 1e-12);
    }

    #[test]
    fn low_rate_mixes_idle_and_lowest_point() {
        let m = Machine::machine0();
        // Rate 0.25 with perfect halt: half the time at (0.5, 3 V), half
        // halted → 2.25/ms.
        let p = minimum_average_power(&m, 0.25, 0.0);
        assert!((p - 2.25).abs() < 1e-12);
    }

    #[test]
    fn intermediate_rate_interpolates_convexly() {
        let m = Machine::machine0();
        // Rate 0.625 between (0.5 → 4.5) and (0.75 → 12): λ = 0.5 → 8.25.
        let p = minimum_average_power(&m, 0.625, 0.0);
        assert!((p - 8.25).abs() < 1e-12);
    }

    #[test]
    fn bound_is_monotonic_in_rate() {
        let m = Machine::machine2();
        let mut prev = -1.0;
        for step in 0..=50 {
            let rate = step as f64 / 50.0;
            let p = minimum_average_power(&m, rate, 0.0);
            assert!(p + 1e-12 >= prev, "power decreased at rate {rate}");
            prev = p;
        }
    }

    #[test]
    fn idle_level_raises_low_rate_bound() {
        let m = Machine::machine0();
        let perfect = minimum_average_power(&m, 0.1, 0.0);
        let lossy = minimum_average_power(&m, 0.1, 1.0);
        assert!(lossy > perfect);
        // With idle level 1.0 the halted pseudo-point costs as much per
        // cycle as running, so the cheapest idle is the lowest point:
        // 0.5·9 = 4.5 at frequency 0.
        let idle_only = minimum_average_power(&m, 0.0, 1.0);
        assert!((idle_only - 4.5).abs() < 1e-12);
    }

    #[test]
    fn bound_never_exceeds_naive_max_frequency_schedule() {
        let m = Machine::machine1();
        for step in 1..=10 {
            let rate = step as f64 / 10.0;
            let bound = minimum_average_power(&m, rate, 0.0);
            // Running everything at max frequency then halting: 25·rate.
            assert!(bound <= 25.0 * rate + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "non-positive duration")]
    fn rejects_zero_duration() {
        let _ = theoretical_bound(&Machine::machine0(), Work::ZERO, Time::ZERO, 0.0);
    }
}
