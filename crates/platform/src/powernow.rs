//! Model of the prototype's CPU: a mobile AMD K6-2+ with AMD's PowerNow!
//! frequency/voltage scaling, as installed in the HP N3350 laptop (§4.1).
//!
//! The processor's PLL clock generator offers 200–600 MHz in 50 MHz steps
//! (skipping 250 MHz), limited by the part's maximum clock rate (550 MHz
//! here). Five control pins select the core voltage through an external
//! regulator; HP wired up only two settings, 1.4 V and 2.0 V, and the
//! paper determined empirically that the part is stable at 1.4 V up to
//! 450 MHz and needs 2.0 V above. Every transition halts the processor for
//! a mandatory stop interval programmed in multiples of 41 µs (4096 cycles
//! of the 100 MHz bus clock).

use rtdvs_core::machine::{Machine, MachineError};
use rtdvs_core::time::Time;
use rtdvs_sim::SwitchOverhead;

/// The mandatory stop interval unit: 4096 cycles of the 100 MHz system bus.
pub const STOP_INTERVAL_UNIT_US: f64 = 41.0;

/// A PowerNow!-capable CPU with a two-level voltage regulator.
#[derive(Debug, Clone)]
pub struct PowerNowCpu {
    max_mhz: u32,
    low_volts: f64,
    high_volts: f64,
    /// Highest frequency stable at the low voltage.
    low_volt_max_mhz: u32,
    /// Stop-interval multiplier programmed for transitions (the paper used
    /// 10 ≈ 0.4 ms, which showed no instability).
    stop_multiplier: u32,
}

impl PowerNowCpu {
    /// The HP N3350's K6-2+ exactly as characterized in §4.1: 550 MHz max,
    /// 1.4 V stable through 450 MHz, 2.0 V above, stop multiplier 10.
    #[must_use]
    pub fn k6_2_plus_550() -> PowerNowCpu {
        PowerNowCpu {
            max_mhz: 550,
            low_volts: 1.4,
            high_volts: 2.0,
            low_volt_max_mhz: 450,
            stop_multiplier: 10,
        }
    }

    /// Sets the programmable stop-interval multiplier (each unit is
    /// [`STOP_INTERVAL_UNIT_US`]).
    #[must_use]
    pub fn with_stop_multiplier(mut self, multiplier: u32) -> PowerNowCpu {
        self.stop_multiplier = multiplier;
        self
    }

    /// The PLL frequencies this part can run at, ascending: 200–600 MHz in
    /// 50 MHz steps, skipping 250 MHz, capped at the part's maximum.
    #[must_use]
    pub fn frequencies_mhz(&self) -> Vec<u32> {
        (4..=12)
            .map(|k| k * 50)
            .filter(|&f| f != 250 && f >= 200 && f <= self.max_mhz)
            .collect()
    }

    /// The regulator voltage required for `mhz` (the empirical map of
    /// §4.1).
    #[must_use]
    pub fn voltage_for_mhz(&self, mhz: u32) -> f64 {
        if mhz <= self.low_volt_max_mhz {
            self.low_volts
        } else {
            self.high_volts
        }
    }

    /// The part's maximum frequency.
    #[must_use]
    pub fn max_mhz(&self) -> u32 {
        self.max_mhz
    }

    /// This CPU as a normalized [`Machine`] for the simulator: frequencies
    /// divided by the maximum, paired with their regulator voltages.
    ///
    /// # Errors
    ///
    /// Propagates [`MachineError`]; the stock presets never fail.
    pub fn machine(&self) -> Result<Machine, MachineError> {
        let pairs: Vec<(f64, f64)> = self
            .frequencies_mhz()
            .into_iter()
            .map(|mhz| {
                (
                    f64::from(mhz) / f64::from(self.max_mhz),
                    self.voltage_for_mhz(mhz),
                )
            })
            .collect();
        Machine::new("AMD K6-2+ (PowerNow!)", &pairs)
    }

    /// The programmed mandatory stop interval.
    #[must_use]
    pub fn stop_interval(&self) -> Time {
        Time::from_us(STOP_INTERVAL_UNIT_US * f64::from(self.stop_multiplier))
    }

    /// Measured switch overheads for the simulator: the paper observed
    /// ≈41 µs for frequency-only changes and used ≈0.4 ms (multiplier 10)
    /// whenever the voltage changes.
    #[must_use]
    pub fn switch_overhead(&self) -> SwitchOverhead {
        SwitchOverhead {
            freq_only: Time::from_us(STOP_INTERVAL_UNIT_US),
            voltage_change: self.stop_interval(),
        }
    }

    /// Cycles observed on the time-stamp counter during a minimum-interval
    /// transition *to* `target_mhz`.
    ///
    /// The paper measured ≈8200 cycles for transitions to 200 MHz and
    /// ≈22500 to 550 MHz — i.e. the counter ticks at the *target* frequency
    /// for essentially the whole 41 µs window, showing the PLL itself locks
    /// quickly.
    #[must_use]
    pub fn transition_halt_cycles(&self, target_mhz: u32) -> u64 {
        (f64::from(target_mhz) * STOP_INTERVAL_UNIT_US) as u64
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
    fn frequency_ladder_matches_datasheet() {
        let cpu = PowerNowCpu::k6_2_plus_550();
        assert_eq!(
            cpu.frequencies_mhz(),
            vec![200, 300, 350, 400, 450, 500, 550]
        );
    }

    #[test]
    fn voltage_map_matches_empirical_study() {
        let cpu = PowerNowCpu::k6_2_plus_550();
        assert_eq!(cpu.voltage_for_mhz(200), 1.4);
        assert_eq!(cpu.voltage_for_mhz(450), 1.4);
        assert_eq!(cpu.voltage_for_mhz(500), 2.0);
        assert_eq!(cpu.voltage_for_mhz(550), 2.0);
    }

    #[test]
    fn machine_is_normalized_and_two_level() {
        let m = PowerNowCpu::k6_2_plus_550().machine().unwrap();
        assert_eq!(m.len(), 7);
        assert_eq!(m.point(m.highest()).freq, 1.0);
        assert!((m.point(0).freq - 200.0 / 550.0).abs() < 1e-12);
        let volts: Vec<f64> = m.points().iter().map(|p| p.volts).collect();
        assert_eq!(volts, vec![1.4, 1.4, 1.4, 1.4, 1.4, 2.0, 2.0]);
    }

    #[test]
    fn stop_interval_scales_with_multiplier() {
        let cpu = PowerNowCpu::k6_2_plus_550();
        // Multiplier 10 → ≈0.41 ms (the paper's "approximately 0.4 ms").
        assert!((cpu.stop_interval().as_ms() - 0.41).abs() < 1e-9);
        let one = cpu.with_stop_multiplier(1);
        assert!((one.stop_interval().as_ms() - 0.041).abs() < 1e-9);
    }

    #[test]
    fn transition_cycles_match_paper_observations() {
        let cpu = PowerNowCpu::k6_2_plus_550();
        assert_eq!(cpu.transition_halt_cycles(200), 8200);
        assert_eq!(cpu.transition_halt_cycles(550), 22_550); // paper: ~22500
    }

    #[test]
    fn switch_overhead_fields() {
        let ov = PowerNowCpu::k6_2_plus_550().switch_overhead();
        assert!((ov.freq_only.as_ms() - 0.041).abs() < 1e-9);
        assert!((ov.voltage_change.as_ms() - 0.41).abs() < 1e-9);
    }
}
