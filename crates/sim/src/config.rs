//! Simulation configuration.

use rtdvs_core::time::Time;

use crate::exec_model::ExecModel;
use crate::fault::FaultPlan;

/// Time penalties for changing the operating point, modeled after the
/// AMD K6-2+ prototype (§4.1): the processor halts for a mandatory stop
/// interval during every transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchOverhead {
    /// Stall when only the frequency changes (41 µs on the prototype).
    pub freq_only: Time,
    /// Stall when the voltage changes too (0.4 ms on the prototype).
    pub voltage_change: Time,
}

impl SwitchOverhead {
    /// The prototype's measured overheads: 41 µs / 0.4 ms.
    #[must_use]
    pub fn k6_prototype() -> SwitchOverhead {
        SwitchOverhead {
            freq_only: Time::from_us(41.0),
            voltage_change: Time::from_ms(0.4),
        }
    }

    /// No overhead (the paper's simulator default).
    #[must_use]
    pub fn none() -> SwitchOverhead {
        SwitchOverhead {
            freq_only: Time::ZERO,
            voltage_change: Time::ZERO,
        }
    }
}

/// How task invocations arrive.
///
/// The paper's model is strictly periodic; the sporadic extension keeps
/// each task's period as its *minimum* inter-arrival time (and relative
/// deadline), adding a random extra gap before the next release. Demand can
/// only decrease, so every schedulability guarantee derived for the
/// periodic case still holds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalModel {
    /// Releases exactly every period (the paper's model).
    #[default]
    Periodic,
    /// Sporadic: the gap to the next release is the period plus a uniform
    /// extra in `[0, max_extra_fraction × period]`.
    Sporadic {
        /// Upper bound of the extra gap, as a fraction of the period.
        max_extra_fraction: f64,
    },
}

/// What happens to an invocation's leftover work when it misses its
/// deadline (only reachable for task sets that fail the admission test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissPolicy {
    /// Abandon the remaining work and start the next invocation on time.
    /// Keeps the periodic model intact; the default.
    #[default]
    DropRemaining,
    /// Keep executing the old invocation; the new release is skipped (its
    /// release is counted, the work is not). Models a task overrunning
    /// into its next period.
    SkipRelease,
}

/// Full configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulated horizon, starting at time 0.
    pub duration: Time,
    /// Ratio of halted-cycle to busy-cycle energy (§3.1); 0 is a perfect
    /// software-controlled halt.
    pub idle_level: f64,
    /// Actual-computation model.
    pub exec: ExecModel,
    /// Arrival model (periodic by default).
    pub arrival: ArrivalModel,
    /// RNG seed for the execution model (runs are deterministic given the
    /// same seed).
    pub seed: u64,
    /// Voltage/frequency transition stalls; `None` disables them (the
    /// paper's simulation assumption).
    pub switch_overhead: Option<SwitchOverhead>,
    /// Deadline-miss handling.
    pub miss_policy: MissPolicy,
    /// Whether to record a full execution trace (costs memory; needed for
    /// the worked-example figures and the Gantt renderer).
    pub record_trace: bool,
    /// Fault-injection plan ([`FaultPlan::none`] by default — provably
    /// zero-cost when empty, see `crates/sim/src/fault.rs`).
    pub fault: FaultPlan,
}

impl SimConfig {
    /// A configuration matching the paper's simulator defaults: perfect
    /// halt, worst-case execution, no switch overhead, no trace.
    #[must_use]
    pub fn new(duration: Time) -> SimConfig {
        SimConfig {
            duration,
            idle_level: 0.0,
            exec: ExecModel::Wcet,
            arrival: ArrivalModel::Periodic,
            seed: 0,
            switch_overhead: None,
            miss_policy: MissPolicy::default(),
            record_trace: false,
            fault: FaultPlan::none(),
        }
    }

    /// Sets the execution model.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecModel) -> SimConfig {
        self.exec = exec;
        self
    }

    /// Sets the arrival model.
    #[must_use]
    pub fn with_arrival(mut self, arrival: ArrivalModel) -> SimConfig {
        self.arrival = arrival;
        self
    }

    /// Sets the idle level.
    #[must_use]
    pub fn with_idle_level(mut self, idle_level: f64) -> SimConfig {
        self.idle_level = idle_level;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Enables trace recording.
    #[must_use]
    pub fn with_trace(mut self) -> SimConfig {
        self.record_trace = true;
        self
    }

    /// Sets switch overheads.
    #[must_use]
    pub fn with_switch_overhead(mut self, overhead: SwitchOverhead) -> SimConfig {
        self.switch_overhead = Some(overhead);
        self
    }

    /// Sets the fault-injection plan.
    #[must_use]
    pub fn with_faults(mut self, fault: FaultPlan) -> SimConfig {
        self.fault = fault;
        self
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
    fn builder_chains() {
        let cfg = SimConfig::new(Time::from_ms(16.0))
            .with_idle_level(0.1)
            .with_seed(7)
            .with_trace()
            .with_switch_overhead(SwitchOverhead::k6_prototype());
        assert_eq!(cfg.duration.as_ms(), 16.0);
        assert_eq!(cfg.idle_level, 0.1);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.record_trace);
        let ov = cfg.switch_overhead.unwrap();
        assert!((ov.freq_only.as_ms() - 0.041).abs() < 1e-12);
        assert!((ov.voltage_change.as_ms() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn defaults_match_paper_simulator() {
        let cfg = SimConfig::new(Time::from_secs(1.0));
        assert_eq!(cfg.idle_level, 0.0);
        assert!(cfg.switch_overhead.is_none());
        assert!(!cfg.record_trace);
        assert!(matches!(cfg.exec, ExecModel::Wcet));
        assert_eq!(cfg.miss_policy, MissPolicy::DropRemaining);
        assert!(!cfg.fault.is_active());
    }

    #[test]
    fn with_faults_installs_the_plan() {
        let cfg = SimConfig::new(Time::from_ms(16.0))
            .with_faults(FaultPlan::new(9).with_overruns(0.1, 1.5));
        assert!(cfg.fault.is_active());
        assert_eq!(cfg.fault.seed, 9);
    }
}
