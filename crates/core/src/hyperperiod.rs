//! Hyperperiod computation.
//!
//! For a synchronous periodic task set the schedule repeats with the least
//! common multiple of the periods; simulating exactly one hyperperiod
//! therefore captures the steady state, and energy over `k` hyperperiods
//! is exactly `k` times the energy over one. Periods are `f64`
//! milliseconds, so the LCM is computed on a fixed sub-nanosecond grid and
//! only returned when every period sits on that grid (which all practical
//! task sets do).

use crate::task::TaskSet;
use crate::time::Time;

/// Resolution of the integer grid: periods are scaled to units of 1 ps.
const GRID_PER_MS: f64 = 1e9;

/// Largest hyperperiod reported, in grid units (≈ 18 hours); beyond this
/// the LCM is useless for simulation and `None` is returned.
const MAX_GRID: u128 = (GRID_PER_MS as u128) * 1000 * 3600 * 18;

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The hyperperiod (LCM of all periods) of `tasks`, or `None` if a period
/// does not sit on the picosecond grid or the LCM exceeds ≈ 18 hours.
///
/// Release offsets do not change the cycle length, only its phase; the
/// steady-state schedule still repeats every hyperperiod once all offsets
/// have passed.
#[must_use]
pub fn hyperperiod(tasks: &TaskSet) -> Option<Time> {
    let mut lcm: u128 = 1;
    for task in tasks.tasks() {
        let scaled = task.period().as_ms() * GRID_PER_MS;
        let grid = scaled.round();
        if (scaled - grid).abs() > 1e-3 || grid <= 0.0 || grid > MAX_GRID as f64 {
            return None;
        }
        let g = grid as u128;
        lcm = lcm / gcd(lcm, g) * g;
        if lcm > MAX_GRID {
            return None;
        }
    }
    Some(Time::from_ms(lcm as f64 / GRID_PER_MS))
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_hyperperiod() {
        // lcm(8, 10, 14) = 280.
        let set = TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)])
            .expect("valid task set");
        assert_eq!(
            hyperperiod(&set).expect("hyperperiod exists").as_ms(),
            280.0
        );
    }

    #[test]
    fn harmonic_set() {
        let set =
            TaskSet::from_ms_pairs(&[(2.0, 0.5), (4.0, 1.0), (8.0, 2.0)]).expect("valid task set");
        assert_eq!(hyperperiod(&set).expect("hyperperiod exists").as_ms(), 8.0);
    }

    #[test]
    fn fractional_periods_on_grid() {
        let set = TaskSet::from_ms_pairs(&[(2.5, 1.0), (4.0, 1.0)]).expect("valid task set");
        assert_eq!(hyperperiod(&set).expect("hyperperiod exists").as_ms(), 20.0);
    }

    #[test]
    fn coprime_sub_millisecond_periods() {
        let set =
            TaskSet::from_ms_pairs(&[(0.003, 0.001), (0.007, 0.002)]).expect("valid task set");
        assert!((hyperperiod(&set).expect("hyperperiod exists").as_ms() - 0.021).abs() < 1e-12);
    }

    #[test]
    fn absurd_lcm_returns_none() {
        // Near-coprime long periods blow past the cap.
        let set = TaskSet::from_ms_pairs(&[(999.983, 1.0), (999.979, 1.0), (999.961, 1.0)])
            .expect("valid task set");
        assert_eq!(hyperperiod(&set), None);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
    }
}
