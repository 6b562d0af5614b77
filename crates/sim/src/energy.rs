//! Energy accounting for the simulated processor.
//!
//! The model follows §3.1 of the paper: a constant quantum of energy per
//! cycle, scaled by the square of the operating voltage. With work measured
//! in maximum-frequency milliseconds, executing `w` work at voltage `V`
//! costs `w·V²`; halting for `Δt` at an operating point with frequency `f`
//! lets `f·Δt` cycles pass, each costing `idle_level · V²`. Energy is
//! therefore in arbitrary-but-consistent units (volt²·milliseconds); only
//! ratios are meaningful, exactly as in the paper's figures.

use rtdvs_core::machine::{Machine, PointIdx};
use rtdvs_core::time::{Time, Work};

/// Accumulates processor energy and time, split by operating point.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    idle_level: f64,
    busy_energy: f64,
    idle_energy: f64,
    busy_time: Vec<Time>,
    idle_time: Vec<Time>,
    work_done: Vec<Work>,
    stall_time: Time,
}

impl EnergyMeter {
    /// Creates a meter for a machine with `n_points` operating points and
    /// the given idle level (ratio of halted-cycle to busy-cycle energy).
    ///
    /// # Panics
    ///
    /// Panics if `idle_level` is negative or not finite.
    #[must_use]
    pub fn new(n_points: usize, idle_level: f64) -> EnergyMeter {
        assert!(
            idle_level.is_finite() && idle_level >= 0.0,
            "idle level must be a non-negative finite ratio, got {idle_level}"
        );
        EnergyMeter {
            idle_level,
            busy_energy: 0.0,
            idle_energy: 0.0,
            busy_time: vec![Time::ZERO; n_points],
            idle_time: vec![Time::ZERO; n_points],
            work_done: vec![Work::ZERO; n_points],
            stall_time: Time::ZERO,
        }
    }

    /// Reconstructs a meter from previously captured accounting — the
    /// checkpoint/restore counterpart of [`EnergyMeter::new`]. The per-point
    /// vectors must have equal lengths (the machine's point count).
    ///
    /// Returns `None` if `idle_level` is negative or not finite, or if the
    /// per-point vectors disagree on length.
    #[must_use]
    pub fn from_parts(
        idle_level: f64,
        busy_energy: f64,
        idle_energy: f64,
        busy_time: Vec<Time>,
        idle_time: Vec<Time>,
        work_done: Vec<Work>,
        stall_time: Time,
    ) -> Option<EnergyMeter> {
        let valid = idle_level.is_finite()
            && idle_level >= 0.0
            && busy_time.len() == idle_time.len()
            && idle_time.len() == work_done.len();
        valid.then_some(EnergyMeter {
            idle_level,
            busy_energy,
            idle_energy,
            busy_time,
            idle_time,
            work_done,
            stall_time,
        })
    }

    /// Charges `duration` of execution at `point`, retiring
    /// `freq · duration` work.
    pub fn charge_busy(&mut self, machine: &Machine, point: PointIdx, duration: Time) {
        if duration.as_ms() <= 0.0 {
            return;
        }
        let op = machine.point(point);
        let work = duration.work_at(op.freq);
        self.busy_energy += work.as_ms() * op.energy_per_work();
        if let Some(t) = self.busy_time.get_mut(point) {
            *t += duration;
        }
        if let Some(w) = self.work_done.get_mut(point) {
            *w += work;
        }
    }

    /// Charges `duration` of halted time at `point`.
    pub fn charge_idle(&mut self, machine: &Machine, point: PointIdx, duration: Time) {
        if duration.as_ms() <= 0.0 {
            return;
        }
        let op = machine.point(point);
        self.idle_energy += duration.as_ms() * op.idle_power(self.idle_level);
        if let Some(t) = self.idle_time.get_mut(point) {
            *t += duration;
        }
    }

    /// Records `duration` of voltage/frequency-transition stall. The
    /// processor does not operate during the switch, so it "incurs almost
    /// no energy costs" (§3.1) — only time is recorded.
    pub fn charge_stall(&mut self, duration: Time) {
        if duration.as_ms() <= 0.0 {
            return;
        }
        self.stall_time += duration;
    }

    /// The idle level this meter was configured with.
    #[must_use]
    pub fn idle_level(&self) -> f64 {
        self.idle_level
    }

    /// Energy spent executing task cycles.
    #[must_use]
    pub fn busy_energy(&self) -> f64 {
        self.busy_energy
    }

    /// Energy spent in halted cycles.
    #[must_use]
    pub fn idle_energy(&self) -> f64 {
        self.idle_energy
    }

    /// Total processor energy.
    #[must_use]
    pub fn total_energy(&self) -> f64 {
        self.busy_energy + self.idle_energy
    }

    /// Total work retired, across all points.
    #[must_use]
    pub fn total_work(&self) -> Work {
        self.work_done.iter().copied().sum()
    }

    /// Per-point busy time, indexed by operating point.
    #[must_use]
    pub fn busy_time(&self) -> &[Time] {
        &self.busy_time
    }

    /// Per-point idle time, indexed by operating point.
    #[must_use]
    pub fn idle_time(&self) -> &[Time] {
        &self.idle_time
    }

    /// Per-point work retired, indexed by operating point.
    #[must_use]
    pub fn work_done(&self) -> &[Work] {
        &self.work_done
    }

    /// Total time spent stalled in voltage/frequency transitions.
    #[must_use]
    pub fn stall_time(&self) -> Time {
        self.stall_time
    }

    /// Mean power over `duration` (energy units per millisecond).
    #[must_use]
    pub fn mean_power(&self, duration: Time) -> f64 {
        if duration.as_ms() <= 0.0 {
            0.0
        } else {
            self.total_energy() / duration.as_ms()
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

    #[test]
    fn busy_energy_scales_with_voltage_squared() {
        let m = Machine::machine0();
        let mut meter = EnergyMeter::new(m.len(), 0.0);
        // 2 ms at point 1 (0.75, 4 V): 1.5 work × 16 = 24.
        meter.charge_busy(&m, 1, Time::from_ms(2.0));
        assert!((meter.busy_energy() - 24.0).abs() < 1e-12);
        assert!(meter.total_work().approx_eq(Work::from_ms(1.5)));
        assert_eq!(meter.busy_time()[1].as_ms(), 2.0);
    }

    #[test]
    fn idle_energy_respects_idle_level() {
        let m = Machine::machine0();
        // Perfect halt: no idle energy at all.
        let mut perfect = EnergyMeter::new(m.len(), 0.0);
        perfect.charge_idle(&m, 2, Time::from_ms(10.0));
        assert_eq!(perfect.idle_energy(), 0.0);
        // idle level 1.0 at the max point: full busy power 25/ms.
        let mut lossy = EnergyMeter::new(m.len(), 1.0);
        lossy.charge_idle(&m, 2, Time::from_ms(10.0));
        assert!((lossy.idle_energy() - 250.0).abs() < 1e-12);
        // Idling at the lowest point is cheaper: 0.5·9 = 4.5/ms.
        let mut low = EnergyMeter::new(m.len(), 1.0);
        low.charge_idle(&m, 0, Time::from_ms(10.0));
        assert!((low.idle_energy() - 45.0).abs() < 1e-12);
    }

    #[test]
    fn stall_time_accumulates_without_energy() {
        let m = Machine::machine0();
        let mut meter = EnergyMeter::new(m.len(), 1.0);
        meter.charge_stall(Time::from_ms(0.4));
        meter.charge_stall(Time::from_ms(0.041));
        assert!((meter.stall_time().as_ms() - 0.441).abs() < 1e-12);
        assert_eq!(meter.total_energy(), 0.0);
    }

    #[test]
    fn zero_and_negative_durations_are_ignored() {
        let m = Machine::machine0();
        let mut meter = EnergyMeter::new(m.len(), 1.0);
        meter.charge_busy(&m, 0, Time::ZERO);
        meter.charge_idle(&m, 0, Time::from_ms(-1.0));
        assert_eq!(meter.total_energy(), 0.0);
    }

    #[test]
    fn mean_power() {
        let m = Machine::machine0();
        let mut meter = EnergyMeter::new(m.len(), 0.0);
        meter.charge_busy(&m, 2, Time::from_ms(4.0)); // 4 work × 25 = 100
        assert!((meter.mean_power(Time::from_ms(10.0)) - 10.0).abs() < 1e-12);
        assert_eq!(meter.mean_power(Time::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "idle level")]
    fn rejects_negative_idle_level() {
        let _ = EnergyMeter::new(3, -0.5);
    }

    #[test]
    fn from_parts_round_trips_a_live_meter() {
        let m = Machine::machine0();
        let mut meter = EnergyMeter::new(m.len(), 0.3);
        meter.charge_busy(&m, 1, Time::from_ms(2.0));
        meter.charge_idle(&m, 0, Time::from_ms(5.0));
        meter.charge_stall(Time::from_ms(0.2));
        let copy = EnergyMeter::from_parts(
            meter.idle_level(),
            meter.busy_energy(),
            meter.idle_energy(),
            meter.busy_time().to_vec(),
            meter.idle_time().to_vec(),
            meter.work_done().to_vec(),
            meter.stall_time(),
        )
        .expect("a live meter's parts are valid");
        assert_eq!(
            copy.total_energy().to_bits(),
            meter.total_energy().to_bits()
        );
        // Both halves keep accruing identically.
        let (mut a, mut b) = (meter, copy);
        a.charge_busy(&m, 2, Time::from_ms(1.0));
        b.charge_busy(&m, 2, Time::from_ms(1.0));
        assert_eq!(a.total_energy().to_bits(), b.total_energy().to_bits());
    }

    #[test]
    fn from_parts_rejects_mismatched_vectors() {
        let meter = EnergyMeter::from_parts(
            0.0,
            0.0,
            0.0,
            vec![Time::ZERO; 2],
            vec![Time::ZERO; 3],
            vec![Work::ZERO; 2],
            Time::ZERO,
        );
        assert!(meter.is_none());
    }
}
