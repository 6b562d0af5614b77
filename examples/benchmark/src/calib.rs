//! Host-speed calibration for end-to-end host times.
//!
//! The benchmark shares its host, and the host's speed drifts within
//! seconds. On the 2-vCPU Xeon VM the bounds were set on, this loop's
//! median ranged from 0.28 to 0.51 ms between runs, and the workloads'
//! rep times moved with it: over ten `kernel-recovery` runs, throughput
//! spread 24% between seeds (interquartile range over median) raw and 3%
//! calibrated. End-to-end host times are therefore reported in reference
//! time: each measured time multiplied by [`REFERENCE_LOOP_NS`] over the
//! time this loop takes around it. The loop is the benchmark's own code
//! and touches no heap, so a change to the library or its allocations
//! cannot move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The loop's median time on the reference host, when uncontended. A
/// calibrated time reads as if measured there.
pub const REFERENCE_LOOP_NS: f64 = 300_000.0;
/// Elements the loop fills, sorts and sums (128 KiB, on the stack).
const LEN: usize = 16_384;
/// Loops per calibration; the median is used.
const LOOPS: usize = 11;
/// Host time between calibrations of a [`Stopwatch`].
const WINDOW: Duration = Duration::from_millis(100);

/// One pass: a xorshift fill, an unstable sort and a float reduction,
/// the mix of integer, branch, memory and float work the workloads do.
fn one_loop_ns() -> f64 {
    let t0 = Instant::now();
    let mut buf = [0u64; LEN];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for slot in &mut buf {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *slot = x;
    }
    let buf = black_box(&mut buf);
    buf.sort_unstable();
    let mut acc = 0.0f64;
    for (i, &v) in buf.iter().enumerate() {
        acc += (v as f64).sqrt() * i as f64;
    }
    black_box(acc);
    t0.elapsed().as_nanos() as f64
}

/// The factor that turns host time measured now into reference time:
/// [`REFERENCE_LOOP_NS`] over the loop's median time.
fn scale() -> f64 {
    let samples: Vec<f64> = (0..LOOPS).map(|_| one_loop_ns()).collect();
    REFERENCE_LOOP_NS / median(&samples).expect("LOOPS > 0")
}

/// Laps of a [`Stopwatch`], in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Laps {
    /// Host ns of each lap.
    pub host_ns: Vec<u64>,
    /// The same laps in reference ns.
    pub reference_ns: Vec<f64>,
}

impl Laps {
    /// Reference time over host time of all laps: below 1 when the host
    /// ran slower than the reference.
    pub fn speed(&self) -> f64 {
        self.reference_ns.iter().sum::<f64>() / self.host_ns.iter().sum::<u64>().max(1) as f64
    }
}

/// Times consecutive laps of work. It calibrates when started, then after
/// the first lap that ends a [`WINDOW`] or more after the last
/// calibration, and when finished; each lap is scaled by the mean of the
/// calibrations that bracket it. Calibration time is in no lap.
pub struct Stopwatch {
    window_scale: f64,
    window_start: Instant,
    lap_start: Instant,
    /// Host ns of the laps since the last calibration.
    pending: Vec<u64>,
    laps: Laps,
}

impl Stopwatch {
    /// Calibrates and starts the first lap.
    pub fn start() -> Stopwatch {
        let window_scale = scale();
        let now = Instant::now();
        Stopwatch {
            window_scale,
            window_start: now,
            lap_start: now,
            pending: Vec::new(),
            laps: Laps::default(),
        }
    }

    /// Ends the current lap and starts the next.
    pub fn lap(&mut self) {
        self.pending
            .push(u64::try_from(self.lap_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if self.window_start.elapsed() >= WINDOW {
            self.calibrate();
        }
        self.lap_start = Instant::now();
    }

    /// Starts the next lap now, leaving the time since the last lap out.
    pub fn restart(&mut self) {
        self.lap_start = Instant::now();
    }

    fn calibrate(&mut self) {
        let end_scale = scale();
        let s = (self.window_scale + end_scale) / 2.0;
        for ns in self.pending.drain(..) {
            self.laps.host_ns.push(ns);
            self.laps.reference_ns.push(ns as f64 * s);
        }
        self.window_scale = end_scale;
        self.window_start = Instant::now();
    }

    /// Calibrates the laps still pending and returns them all.
    pub fn finish(mut self) -> Laps {
        if !self.pending.is_empty() {
            self.calibrate();
        }
        self.laps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_are_scaled_and_kept_in_order() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        sw.lap();
        std::thread::sleep(WINDOW);
        sw.lap();
        sw.lap();
        let laps = sw.finish();
        assert_eq!(laps.host_ns.len(), 3);
        assert_eq!(laps.reference_ns.len(), 3);
        assert!(laps.host_ns[0] >= 2_000_000);
        assert!(laps.host_ns[1] >= WINDOW.as_nanos() as u64);
        assert!(laps.host_ns[2] < laps.host_ns[1]);
        let speed = laps.speed();
        assert!(speed.is_finite() && speed > 0.0, "speed {speed}");
        for (h, r) in laps.host_ns.iter().zip(&laps.reference_ns) {
            assert!(*r >= 0.0 && (*h == 0 || *r > 0.0));
        }
    }
}
