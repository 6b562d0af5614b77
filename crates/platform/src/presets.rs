//! Additional DVS-capable processor presets.
//!
//! §4.1 mentions two other DVS-capable parts of the era the authors had no
//! access to: the Transmeta Crusoe (LongRun) and the Intel XScale. These
//! presets model their public frequency ladders; as with the paper's own
//! "machine 2", the voltage pairings are educated estimates from the
//! datasheets of the period (the paper itself marks its AMD voltages as
//! speculative too). They are useful for machine-sensitivity ablations
//! beyond Fig. 11.

use rtdvs_core::machine::{Machine, MachineError};

/// Transmeta Crusoe TM5400-style LongRun ladder: 300–600 MHz in 100 MHz
/// steps, roughly 1.2–1.6 V.
///
/// # Errors
///
/// Never fails for the built-in values; the `Result` mirrors
/// [`Machine::new`].
pub fn crusoe_tm5400() -> Result<Machine, MachineError> {
    Machine::new(
        "Transmeta Crusoe TM5400 (LongRun)",
        &[
            (300.0 / 600.0, 1.2),
            (400.0 / 600.0, 1.35),
            (500.0 / 600.0, 1.475),
            (1.0, 1.6),
        ],
    )
}

/// Intel XScale 80200-style ladder: 200–733 MHz, roughly 1.0–1.5 V.
///
/// # Errors
///
/// Never fails for the built-in values.
pub fn xscale_80200() -> Result<Machine, MachineError> {
    Machine::new(
        "Intel XScale 80200",
        &[
            (200.0 / 733.0, 1.0),
            (333.0 / 733.0, 1.1),
            (400.0 / 733.0, 1.3),
            (600.0 / 733.0, 1.4),
            (1.0, 1.5),
        ],
    )
}

/// Every machine this workspace knows about: the paper's three synthetic
/// specs, the measured K6-2+, and the two estimated presets — handy for
/// machine-sweep ablations.
///
/// # Panics
///
/// Never panics; all presets are statically valid.
#[must_use]
pub fn all_machines() -> Vec<Machine> {
    vec![
        Machine::machine0(),
        Machine::machine1(),
        Machine::machine2(),
        crate::powernow::PowerNowCpu::k6_2_plus_550()
            .machine()
            .expect("valid preset"),
        crusoe_tm5400().expect("valid preset"),
        xscale_80200().expect("valid preset"),
    ]
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for m in all_machines() {
            assert!(m.len() >= 3, "{} too few points", m.name());
            assert_eq!(m.point(m.highest()).freq, 1.0, "{}", m.name());
        }
        assert_eq!(all_machines().len(), 6);
    }

    #[test]
    fn crusoe_shape() {
        let m = crusoe_tm5400().unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m.point(0).volts, 1.2);
        assert!((m.point(0).freq - 0.5).abs() < 1e-12);
    }

    #[test]
    fn xscale_shape() {
        let m = xscale_80200().unwrap();
        assert_eq!(m.len(), 5);
        // Wide frequency range: lowest point is ~27% of max.
        assert!(m.point(0).freq < 0.3);
        // Narrow voltage range: max/min voltage ratio 1.5.
        assert!((m.point(m.highest()).volts / m.point(0).volts - 1.5).abs() < 1e-12);
    }

    #[test]
    fn voltage_range_orders_the_achievable_savings() {
        // Wider relative voltage range → lower floor of per-work energy.
        // machine 0 spans 3–5 V (ratio 0.6²=0.36); XScale spans 1.0–1.5 V
        // (ratio 0.44); Crusoe 1.2–1.6 V (0.5625).
        let floor = |m: &Machine| {
            let lo = m.point(0).energy_per_work();
            let hi = m.point(m.highest()).energy_per_work();
            lo / hi
        };
        let m0 = floor(&Machine::machine0());
        let xs = floor(&xscale_80200().unwrap());
        let cr = floor(&crusoe_tm5400().unwrap());
        assert!(m0 < xs && xs < cr);
    }
}
