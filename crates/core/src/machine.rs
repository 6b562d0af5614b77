//! DVS-capable machine descriptions: the discrete frequency/voltage
//! operating points available to the processor.
//!
//! Frequencies are normalized so that the maximum available frequency is
//! 1.0 (task WCETs are specified at this frequency). Energy per unit of
//! work at an operating point scales with the square of its supply voltage
//! (`E ∝ V²`, §2.1 of the paper); the voltage unit is arbitrary but must be
//! consistent within a machine.

use core::fmt;

use crate::time::EPS;

/// Index of an operating point within a [`Machine`] (ascending frequency).
pub type PointIdx = usize;

/// One frequency/voltage pair the processor can run at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Normalized frequency in `(0, 1]`.
    pub freq: f64,
    /// Supply voltage required at this frequency (arbitrary consistent
    /// unit).
    pub volts: f64,
}

impl OperatingPoint {
    /// Energy dissipated per unit of work executed at this point.
    ///
    /// With `E_cycle ∝ V²` and work measured in maximum-frequency
    /// milliseconds (a fixed number of cycles per unit), the per-work energy
    /// is `V²` in the machine's (arbitrary) energy unit.
    #[inline]
    #[must_use]
    pub fn energy_per_work(&self) -> f64 {
        self.volts * self.volts
    }

    /// Power drawn while executing at this point: cycles retire at rate
    /// `freq`, each costing `V²`.
    #[inline]
    #[must_use]
    pub fn busy_power(&self) -> f64 {
        self.freq * self.energy_per_work()
    }

    /// Power drawn while halted at this point, given the machine's idle
    /// level (ratio of halted-cycle to busy-cycle energy, §3.1).
    #[inline]
    #[must_use]
    pub fn idle_power(&self, idle_level: f64) -> f64 {
        idle_level * self.busy_power()
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.2}V)", self.freq, self.volts)
    }
}

/// A DVS-capable machine: its list of operating points, sorted by ascending
/// frequency, with the maximum normalized frequency equal to 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    name: String,
    points: Vec<OperatingPoint>,
}

impl Machine {
    /// Creates a machine from `(freq, volts)` pairs.
    ///
    /// Points may be given in any order; they are sorted by frequency.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] if there are no points, any frequency is
    /// outside `(0, 1]`, the maximum frequency is not 1.0, frequencies are
    /// not distinct, any voltage is not strictly positive, or voltage is
    /// not non-decreasing in frequency (CMOS needs at least as much voltage
    /// to run faster).
    pub fn new(name: &str, pairs: &[(f64, f64)]) -> Result<Machine, MachineError> {
        if pairs.is_empty() {
            return Err(MachineError::NoPoints);
        }
        let mut points: Vec<OperatingPoint> = pairs
            .iter()
            .map(|&(freq, volts)| OperatingPoint { freq, volts })
            .collect();
        points.sort_by(|a, b| a.freq.total_cmp(&b.freq));
        for p in &points {
            if !p.freq.is_finite() || p.freq <= 0.0 || p.freq > 1.0 + EPS {
                return Err(MachineError::BadFrequency { freq: p.freq });
            }
            if !p.volts.is_finite() || p.volts <= 0.0 {
                return Err(MachineError::BadVoltage { volts: p.volts });
            }
        }
        if (points.last().expect("non-empty").freq - 1.0).abs() > EPS {
            return Err(MachineError::MaxFrequencyNotNormalized {
                max_freq: points.last().expect("non-empty").freq,
            });
        }
        for w in points.windows(2) {
            if (w[1].freq - w[0].freq).abs() <= EPS {
                return Err(MachineError::DuplicateFrequency { freq: w[1].freq });
            }
            if w[1].volts < w[0].volts - EPS {
                return Err(MachineError::VoltageNotMonotonic {
                    freq: w[1].freq,
                    volts: w[1].volts,
                });
            }
        }
        Ok(Machine {
            name: name.to_owned(),
            points,
        })
    }

    /// The paper's "machine 0": `(0.5, 3 V), (0.75, 4 V), (1.0, 5 V)` —
    /// PC-motherboard-like frequency steps, used for most simulations.
    #[must_use]
    pub fn machine0() -> Machine {
        Machine::new("machine 0", &[(0.5, 3.0), (0.75, 4.0), (1.0, 5.0)])
            .expect("machine 0 preset is valid")
    }

    /// The paper's "machine 1": machine 0 plus an extra `(0.83, 4.5 V)`
    /// point near the ccEDF/ccRM crossover.
    #[must_use]
    pub fn machine1() -> Machine {
        Machine::new(
            "machine 1",
            &[(0.5, 3.0), (0.75, 4.0), (0.83, 4.5), (1.0, 5.0)],
        )
        .expect("machine 1 preset is valid")
    }

    /// The paper's "machine 2": an AMD K6 PowerNow!-like ladder with seven
    /// closely spaced points and a narrow voltage range.
    #[must_use]
    pub fn machine2() -> Machine {
        Machine::new(
            "machine 2",
            &[
                (0.36, 1.4),
                (0.55, 1.5),
                (0.64, 1.6),
                (0.73, 1.7),
                (0.82, 1.8),
                (0.91, 1.9),
                (1.0, 2.0),
            ],
        )
        .expect("machine 2 preset is valid")
    }

    /// The machine's name (for reports).
    #[inline]
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All operating points, ascending by frequency.
    #[inline]
    #[must_use]
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Number of operating points.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false`: machines have at least one point by construction.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The operating point at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    #[must_use]
    pub fn point(&self, idx: PointIdx) -> OperatingPoint {
        self.points[idx]
    }

    /// Index of the lowest-frequency point.
    #[inline]
    #[must_use]
    pub fn lowest(&self) -> PointIdx {
        0
    }

    /// Index of the highest-frequency (maximum, normalized 1.0) point.
    #[inline]
    #[must_use]
    pub fn highest(&self) -> PointIdx {
        self.points.len() - 1
    }

    /// The lowest point whose frequency is at least `required` (within
    /// [`EPS`] tolerance), or the highest point if `required` exceeds the
    /// maximum frequency.
    ///
    /// This is the `select frequency` primitive shared by every RT-DVS
    /// algorithm in the paper: "use lowest frequency f_i such that ...".
    /// Saturating at the maximum keeps the system running as fast as the
    /// hardware allows when the demand is (transiently) infeasible.
    #[must_use]
    pub fn point_at_least(&self, required: f64) -> PointIdx {
        self.points
            .iter()
            .position(|p| p.freq + EPS >= required)
            .unwrap_or(self.highest())
    }

    /// The lowest point satisfying `pred`, or `None`.
    pub fn lowest_point_where(
        &self,
        mut pred: impl FnMut(OperatingPoint) -> bool,
    ) -> Option<PointIdx> {
        self.points.iter().position(|&p| pred(p))
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.name)?;
        for p in &self.points {
            write!(f, " {p}")?;
        }
        Ok(())
    }
}

/// Errors constructing a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachineError {
    /// No operating points were given.
    NoPoints,
    /// A frequency was outside `(0, 1]` or not finite.
    BadFrequency {
        /// The offending frequency.
        freq: f64,
    },
    /// A voltage was not strictly positive or not finite.
    BadVoltage {
        /// The offending voltage.
        volts: f64,
    },
    /// The fastest point's frequency is not 1.0, so task WCETs (specified
    /// at maximum frequency) would be ill-defined.
    MaxFrequencyNotNormalized {
        /// The actual maximum frequency.
        max_freq: f64,
    },
    /// Two points share a frequency.
    DuplicateFrequency {
        /// The duplicated frequency.
        freq: f64,
    },
    /// Voltage decreases as frequency increases.
    VoltageNotMonotonic {
        /// Frequency at which the violation occurs.
        freq: f64,
        /// The out-of-order voltage.
        volts: f64,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::NoPoints => write!(f, "machine needs at least one operating point"),
            MachineError::BadFrequency { freq } => {
                write!(f, "frequency {freq} outside the normalized range (0, 1]")
            }
            MachineError::BadVoltage { volts } => {
                write!(f, "voltage {volts} must be strictly positive")
            }
            MachineError::MaxFrequencyNotNormalized { max_freq } => write!(
                f,
                "maximum frequency must be normalized to 1.0, got {max_freq}"
            ),
            MachineError::DuplicateFrequency { freq } => {
                write!(f, "duplicate operating frequency {freq}")
            }
            MachineError::VoltageNotMonotonic { freq, volts } => write!(
                f,
                "voltage {volts} at frequency {freq} is lower than at a slower point"
            ),
        }
    }
}

impl std::error::Error for MachineError {}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_and_sorted() {
        for m in [
            Machine::machine0(),
            Machine::machine1(),
            Machine::machine2(),
        ] {
            assert!(m.points().windows(2).all(|w| w[0].freq < w[1].freq));
            assert_eq!(m.point(m.highest()).freq, 1.0);
        }
        assert_eq!(Machine::machine0().len(), 3);
        assert_eq!(Machine::machine1().len(), 4);
        assert_eq!(Machine::machine2().len(), 7);
    }

    #[test]
    fn energy_model_matches_paper_units() {
        // Machine 0 voltages 3/4/5 → per-work energies 9/16/25.
        let m = Machine::machine0();
        let e: Vec<f64> = m
            .points()
            .iter()
            .map(OperatingPoint::energy_per_work)
            .collect();
        assert_eq!(e, vec![9.0, 16.0, 25.0]);
        // Busy power folds in the frequency.
        assert_eq!(m.point(0).busy_power(), 4.5);
        assert_eq!(m.point(2).busy_power(), 25.0);
        // Idle power scales with the idle level.
        assert_eq!(m.point(0).idle_power(0.5), 2.25);
        assert_eq!(m.point(0).idle_power(0.0), 0.0);
    }

    #[test]
    fn point_at_least_picks_lowest_sufficient() {
        let m = Machine::machine0();
        assert_eq!(m.point_at_least(0.0), 0);
        assert_eq!(m.point_at_least(0.4), 0);
        assert_eq!(m.point_at_least(0.5), 0);
        assert_eq!(m.point_at_least(0.51), 1);
        assert_eq!(m.point_at_least(0.75), 1);
        assert_eq!(m.point_at_least(0.76), 2);
        assert_eq!(m.point_at_least(1.0), 2);
        // Demand beyond the hardware saturates at the maximum point.
        assert_eq!(m.point_at_least(1.3), 2);
    }

    #[test]
    fn point_at_least_tolerates_float_noise() {
        let m = Machine::machine0();
        // A value infinitesimally above 0.75 still selects 0.75.
        assert_eq!(m.point_at_least(0.75 + f64::EPSILON), 1);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let m = Machine::new("m", &[(1.0, 5.0), (0.5, 3.0)]).expect("valid machine");
        assert_eq!(m.point(0).freq, 0.5);
        assert_eq!(m.point(1).freq, 1.0);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            Machine::new("m", &[]),
            Err(MachineError::NoPoints)
        ));
        assert!(matches!(
            Machine::new("m", &[(0.0, 1.0), (1.0, 2.0)]),
            Err(MachineError::BadFrequency { .. })
        ));
        assert!(matches!(
            Machine::new("m", &[(0.5, -1.0), (1.0, 2.0)]),
            Err(MachineError::BadVoltage { .. })
        ));
        assert!(matches!(
            Machine::new("m", &[(0.5, 1.0), (0.9, 2.0)]),
            Err(MachineError::MaxFrequencyNotNormalized { .. })
        ));
        assert!(matches!(
            Machine::new("m", &[(0.5, 1.0), (0.5, 1.5), (1.0, 2.0)]),
            Err(MachineError::DuplicateFrequency { .. })
        ));
        assert!(matches!(
            Machine::new("m", &[(0.5, 3.0), (1.0, 2.0)]),
            Err(MachineError::VoltageNotMonotonic { .. })
        ));
    }

    #[test]
    fn lowest_point_where_finds_first_match() {
        let m = Machine::machine2();
        let idx = m
            .lowest_point_where(|p| p.volts >= 1.7)
            .expect("a point qualifies");
        assert_eq!(m.point(idx).freq, 0.73);
        assert!(m.lowest_point_where(|p| p.volts > 99.0).is_none());
    }

    #[test]
    fn display_is_informative() {
        let s = Machine::machine0().to_string();
        assert!(s.contains("machine 0"));
        assert!(s.contains("0.500"));
    }
}
