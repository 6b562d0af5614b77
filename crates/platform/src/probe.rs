//! An oscilloscope-style power probe (Fig. 15).
//!
//! The paper measures laptop power as current × voltage on a digital
//! oscilloscope whose long-duration acquisition averages over 15–30 second
//! windows. This module reproduces the measurement arithmetic against a
//! simulated execution trace: instantaneous CPU power is reconstructed per
//! trace segment and integrated over arbitrary windows.

use rtdvs_core::machine::Machine;
use rtdvs_core::time::Time;
use rtdvs_sim::{Activity, Trace};

/// Integrates CPU energy over `[start, end]` from a trace: busy segments
/// draw their point's busy power, idle segments the idle power at
/// `idle_level`, transition stalls nothing.
#[must_use]
pub fn energy_in_window(
    trace: &Trace,
    machine: &Machine,
    idle_level: f64,
    start: Time,
    end: Time,
) -> f64 {
    let mut energy = 0.0;
    for seg in trace.segments() {
        let lo = seg.start.max(start);
        let hi = seg.end.min(end);
        let dt = hi.as_ms() - lo.as_ms();
        if dt <= 0.0 {
            continue;
        }
        let op = machine.point(seg.point);
        let power = match seg.activity {
            Activity::Run(_) => op.busy_power(),
            Activity::Idle => op.idle_power(idle_level),
            Activity::Stall => 0.0,
        };
        energy += power * dt;
    }
    energy
}

/// Mean CPU power over `[start, end]` (simulator units per ms).
///
/// # Panics
///
/// Panics if the window is empty or inverted.
#[must_use]
pub fn mean_power_in_window(
    trace: &Trace,
    machine: &Machine,
    idle_level: f64,
    start: Time,
    end: Time,
) -> f64 {
    let span = end.as_ms() - start.as_ms();
    assert!(span > 0.0, "probe window must have positive length");
    energy_in_window(trace, machine, idle_level, start, end) / span
}

/// A windowed averaging probe.
#[derive(Debug, Clone, Copy)]
pub struct PowerProbe {
    /// Averaging window length.
    pub window: Time,
    /// Idle level of the processor being probed.
    pub idle_level: f64,
}

impl PowerProbe {
    /// A probe with the paper's short acquisition window (15 s) and a
    /// perfect halt.
    #[must_use]
    pub fn oscilloscope() -> PowerProbe {
        PowerProbe {
            window: Time::from_secs(15.0),
            idle_level: 0.0,
        }
    }

    /// Samples consecutive window averages across `[0, horizon]`,
    /// returning `(window start, mean power)` pairs. A final partial
    /// window is averaged over its actual length.
    #[must_use]
    pub fn acquire(&self, trace: &Trace, machine: &Machine, horizon: Time) -> Vec<(Time, f64)> {
        let mut out = Vec::new();
        let w = self.window.as_ms();
        assert!(w > 0.0, "probe window must be positive");
        let mut t = 0.0;
        while t < horizon.as_ms() {
            let end = (t + w).min(horizon.as_ms());
            out.push((
                Time::from_ms(t),
                mean_power_in_window(
                    trace,
                    machine,
                    self.idle_level,
                    Time::from_ms(t),
                    Time::from_ms(end),
                ),
            ));
            t = end;
        }
        out
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;
    use rtdvs_core::task::TaskId;

    fn t(ms: f64) -> Time {
        Time::from_ms(ms)
    }

    /// Builds a trace: run 4 ms at max, idle 4 ms at lowest.
    fn sample_trace() -> (Trace, Machine) {
        let m = Machine::machine0();
        let mut tr = Trace::new();
        tr.push(t(0.0), t(4.0), 2, Activity::Run(TaskId(0)));
        tr.push(t(4.0), t(8.0), 0, Activity::Idle);
        (tr, m)
    }

    #[test]
    fn window_energy_integrates_by_activity() {
        let (tr, m) = sample_trace();
        // Busy half: 4 ms × 25 = 100; idle half at level 0: 0.
        assert!((energy_in_window(&tr, &m, 0.0, t(0.0), t(8.0)) - 100.0).abs() < 1e-12);
        // With idle level 1.0 the idle half adds 4 × 4.5 = 18.
        assert!((energy_in_window(&tr, &m, 1.0, t(0.0), t(8.0)) - 118.0).abs() < 1e-12);
    }

    #[test]
    fn partial_window_overlap() {
        let (tr, m) = sample_trace();
        // [2, 6]: 2 ms busy (50) + 2 ms idle (0).
        assert!((energy_in_window(&tr, &m, 0.0, t(2.0), t(6.0)) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn mean_power_divides_by_span() {
        let (tr, m) = sample_trace();
        assert!((mean_power_in_window(&tr, &m, 0.0, t(0.0), t(8.0)) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn stall_draws_nothing() {
        let m = Machine::machine0();
        let mut tr = Trace::new();
        tr.push(t(0.0), t(1.0), 2, Activity::Stall);
        assert_eq!(energy_in_window(&tr, &m, 1.0, t(0.0), t(1.0)), 0.0);
    }

    #[test]
    fn probe_acquires_consecutive_windows() {
        let (tr, m) = sample_trace();
        let probe = PowerProbe {
            window: t(4.0),
            idle_level: 0.0,
        };
        let samples = probe.acquire(&tr, &m, t(8.0));
        assert_eq!(samples.len(), 2);
        assert!((samples[0].1 - 25.0).abs() < 1e-12);
        assert!((samples[1].1 - 0.0).abs() < 1e-12);
    }

    #[test]
    fn probe_handles_partial_final_window() {
        let (tr, m) = sample_trace();
        let probe = PowerProbe {
            window: t(5.0),
            idle_level: 0.0,
        };
        let samples = probe.acquire(&tr, &m, t(8.0));
        assert_eq!(samples.len(), 2);
        // Final window [5, 8] is pure idle.
        assert_eq!(samples[1].1, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn rejects_empty_window() {
        let (tr, m) = sample_trace();
        let _ = mean_power_in_window(&tr, &m, 0.0, t(1.0), t(1.0));
    }
}
