//! Time and work quantities used throughout the RT-DVS stack.
//!
//! The paper's worked examples contain exact thirds (running 2 ms of work at
//! speed 0.75 takes 8/3 ms), which no fixed-radix integer clock can
//! represent, so — like the paper's own C++ simulator — all quantities are
//! `f64` with an explicit comparison epsilon ([`EPS`]).
//!
//! Two distinct dimensions are kept apart by newtypes:
//!
//! * [`Time`] — an instant or duration, in milliseconds.
//! * [`Work`] — an amount of computation, in milliseconds of execution at
//!   the *maximum* processor frequency (i.e. normalized cycles).
//!
//! With the maximum frequency normalized to 1.0, one millisecond of wall
//! time at full speed retires exactly one millisecond of work; at normalized
//! frequency `f` it retires `f` milliseconds of work.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Comparison epsilon, in milliseconds (and work-milliseconds).
///
/// Simulated horizons are at most a few minutes (~10^5 ms) and individual
/// arithmetic steps lose at most a few ulps, so 10^-6 ms (one nanosecond)
/// separates genuinely distinct scheduling events by many orders of
/// magnitude while absorbing float round-off.
pub const EPS: f64 = 1e-6;

/// Returns `true` if two raw millisecond values are equal within [`EPS`].
#[inline]
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// An instant or duration in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Time(f64);

/// An amount of computation, in milliseconds of execution at the maximum
/// processor frequency.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Work(f64);

impl Time {
    /// The zero instant.
    pub const ZERO: Time = Time(0.0);

    /// `+∞`, the seed of a running minimum over times. No constructor
    /// accepts it, so it is not public.
    pub(crate) const UNBOUNDED: Time = Time(f64::INFINITY);

    /// The instant whose raw value is `ms`, unchecked: only for values
    /// read back from a `Time`, such as a [`crate::mintree::MinTree`] key.
    #[inline]
    pub(crate) const fn from_raw(ms: f64) -> Time {
        Time(ms)
    }

    /// Creates a time value from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is not finite.
    #[inline]
    #[must_use]
    pub fn from_ms(ms: f64) -> Time {
        assert!(ms.is_finite(), "non-finite time: {ms}");
        Time(ms)
    }

    /// Creates a time value from seconds.
    #[inline]
    #[must_use]
    pub fn from_secs(s: f64) -> Time {
        Time::from_ms(s * 1e3)
    }

    /// Creates a time value from microseconds.
    #[inline]
    #[must_use]
    pub fn from_us(us: f64) -> Time {
        Time::from_ms(us * 1e-3)
    }

    /// Returns the value in milliseconds.
    #[inline]
    #[must_use]
    pub fn as_ms(self) -> f64 {
        self.0
    }

    /// Returns the value in seconds.
    #[inline]
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 * 1e-3
    }

    /// Returns `true` if `self` equals `other` within [`EPS`].
    #[inline]
    #[must_use]
    pub fn approx_eq(self, other: Time) -> bool {
        approx_eq(self.0, other.0)
    }

    /// Returns `true` if `self` is earlier than `other` by more than [`EPS`].
    #[inline]
    #[must_use]
    pub fn definitely_before(self, other: Time) -> bool {
        self.0 < other.0 - EPS
    }

    /// Returns `true` if `self <= other + EPS` (at-or-before, tolerantly).
    #[inline]
    #[must_use]
    pub fn at_or_before(self, other: Time) -> bool {
        self.0 <= other.0 + EPS
    }

    /// Returns the smaller of two times.
    #[inline]
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Returns the larger of two times.
    #[inline]
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The work retired over this duration at normalized frequency `freq`.
    #[inline]
    #[must_use]
    pub fn work_at(self, freq: f64) -> Work {
        Work(self.0 * freq)
    }

    /// Total ordering treating the value as a raw f64 (no NaN can occur by
    /// construction).
    #[inline]
    #[must_use]
    pub fn total_cmp(&self, other: &Time) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Work {
    /// No work.
    pub const ZERO: Work = Work(0.0);

    /// Creates a work value from milliseconds-at-maximum-frequency.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is not finite.
    #[inline]
    #[must_use]
    pub fn from_ms(ms: f64) -> Work {
        assert!(ms.is_finite(), "non-finite work: {ms}");
        Work(ms)
    }

    /// Returns the value in milliseconds-at-maximum-frequency.
    #[inline]
    #[must_use]
    pub fn as_ms(self) -> f64 {
        self.0
    }

    /// Returns `true` if `self` equals `other` within [`EPS`].
    #[inline]
    #[must_use]
    pub fn approx_eq(self, other: Work) -> bool {
        approx_eq(self.0, other.0)
    }

    /// Returns `true` if there is more than [`EPS`] of work here.
    #[inline]
    #[must_use]
    pub fn is_positive(self) -> bool {
        self.0 > EPS
    }

    /// Returns the smaller of two work amounts.
    #[inline]
    #[must_use]
    pub fn min(self, other: Work) -> Work {
        Work(self.0.min(other.0))
    }

    /// Returns the larger of two work amounts.
    #[inline]
    #[must_use]
    pub fn max(self, other: Work) -> Work {
        Work(self.0.max(other.0))
    }

    /// Clamps negative values (from float round-off) to zero.
    #[inline]
    #[must_use]
    pub fn clamp_non_negative(self) -> Work {
        Work(self.0.max(0.0))
    }

    /// The wall-clock duration needed to retire this work at normalized
    /// frequency `freq`.
    ///
    /// # Panics
    ///
    /// Panics if `freq` is not strictly positive.
    #[inline]
    #[must_use]
    pub fn duration_at(self, freq: f64) -> Time {
        assert!(freq > 0.0, "non-positive frequency: {freq}");
        Time(self.0 / freq)
    }

    /// This work as a fraction of a period: the task's utilization
    /// contribution.
    #[inline]
    #[must_use]
    pub fn utilization_over(self, period: Time) -> f64 {
        self.0 / period.as_ms()
    }

    /// Total ordering treating the value as a raw f64.
    #[inline]
    #[must_use]
    pub fn total_cmp(&self, other: &Work) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}ms", self.0)
    }
}

impl fmt::Display for Work {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}mc", self.0)
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: f64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<f64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: f64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Div for Time {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Time) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for Time {
    type Output = Time;
    #[inline]
    fn neg(self) -> Time {
        Time(-self.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        Time(iter.map(|t| t.0).sum())
    }
}

impl Add for Work {
    type Output = Work;
    #[inline]
    fn add(self, rhs: Work) -> Work {
        Work(self.0 + rhs.0)
    }
}

impl Sub for Work {
    type Output = Work;
    #[inline]
    fn sub(self, rhs: Work) -> Work {
        Work(self.0 - rhs.0)
    }
}

impl AddAssign for Work {
    #[inline]
    fn add_assign(&mut self, rhs: Work) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Work {
    #[inline]
    fn sub_assign(&mut self, rhs: Work) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Work {
    type Output = Work;
    #[inline]
    fn mul(self, rhs: f64) -> Work {
        Work(self.0 * rhs)
    }
}

impl Div<f64> for Work {
    type Output = Work;
    #[inline]
    fn div(self, rhs: f64) -> Work {
        Work(self.0 / rhs)
    }
}

impl Div for Work {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Work) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Work {
    fn sum<I: Iterator<Item = Work>>(iter: I) -> Work {
        Work(iter.map(|w| w.0).sum())
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrips_units() {
        assert_eq!(Time::from_secs(1.5).as_ms(), 1500.0);
        assert_eq!(Time::from_us(500.0).as_ms(), 0.5);
        assert_eq!(Time::from_ms(250.0).as_secs(), 0.25);
    }

    #[test]
    fn time_arithmetic() {
        let a = Time::from_ms(10.0);
        let b = Time::from_ms(4.0);
        assert_eq!((a + b).as_ms(), 14.0);
        assert_eq!((a - b).as_ms(), 6.0);
        assert_eq!((a * 0.5).as_ms(), 5.0);
        assert_eq!((a / 2.0).as_ms(), 5.0);
        assert_eq!(a / b, 2.5);
        assert_eq!((-b).as_ms(), -4.0);
    }

    #[test]
    fn work_time_conversions() {
        // 2 ms of work at speed 0.75 takes 8/3 ms of wall time.
        let w = Work::from_ms(2.0);
        let t = w.duration_at(0.75);
        assert!((t.as_ms() - 8.0 / 3.0).abs() < 1e-12);
        // And that wall time at 0.75 retires the work again.
        assert!(t.work_at(0.75).approx_eq(w));
    }

    #[test]
    fn utilization() {
        let w = Work::from_ms(3.0);
        assert_eq!(w.utilization_over(Time::from_ms(8.0)), 0.375);
    }

    #[test]
    fn approx_comparisons() {
        let a = Time::from_ms(1.0);
        let b = Time::from_ms(1.0 + EPS / 2.0);
        assert!(a.approx_eq(b));
        assert!(!a.definitely_before(b));
        assert!(a.at_or_before(b));
        let c = Time::from_ms(1.1);
        assert!(a.definitely_before(c));
        assert!(!c.at_or_before(a));
    }

    #[test]
    fn clamp_non_negative() {
        assert_eq!(Work::from_ms(-1e-18).clamp_non_negative(), Work::ZERO);
        assert_eq!(Work::from_ms(2.0).clamp_non_negative().as_ms(), 2.0);
    }

    #[test]
    fn sums() {
        let times = [1.0, 2.0, 3.5].map(Time::from_ms);
        assert_eq!(times.into_iter().sum::<Time>().as_ms(), 6.5);
        let works = [1.0, 0.25].map(Work::from_ms);
        assert_eq!(works.into_iter().sum::<Work>().as_ms(), 1.25);
    }

    #[test]
    #[should_panic(expected = "non-finite time")]
    fn rejects_nan_time() {
        let _ = Time::from_ms(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-positive frequency")]
    fn rejects_zero_frequency() {
        let _ = Work::from_ms(1.0).duration_at(0.0);
    }

    #[test]
    fn min_max() {
        let a = Time::from_ms(1.0);
        let b = Time::from_ms(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let w = Work::from_ms(1.0);
        let v = Work::from_ms(2.0);
        assert_eq!(w.max(v), v);
        assert_eq!(w.min(v), w);
    }
}
