//! # rtdvs-sim
//!
//! Discrete-event simulator for DVS-capable real-time systems, reproducing
//! the evaluation substrate of Pillai & Shin (SOSP 2001, §3.1): cycle-level
//! execution accounting, `E ∝ V²` energy, an idle-level parameter for
//! imperfect halt, per-invocation actual-computation models, optional
//! voltage-transition stalls, execution traces, and the theoretical energy
//! lower bound.
//!
//! # Examples
//!
//! Running look-ahead EDF on the paper's example task set:
//!
//! ```
//! use rtdvs_core::example::{table2_task_set, table3_actual_times};
//! use rtdvs_core::{Machine, PolicyKind, Time};
//! use rtdvs_sim::{simulate, ExecModel, SimConfig};
//!
//! let tasks = table2_task_set();
//! let machine = Machine::machine0();
//! let cfg = SimConfig::new(Time::from_ms(16.0))
//!     .with_exec(ExecModel::Trace(table3_actual_times()));
//! let report = simulate(&tasks, &machine, PolicyKind::LaEdf, &cfg);
//! assert!(report.all_deadlines_met());
//! assert!((report.energy() - 77.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod bound;
pub mod clock;
pub mod config;
pub mod energy;
pub mod engine;
pub mod exec_model;
pub mod fault;
pub mod reference;
pub mod report;
pub mod trace;

pub use bound::{minimum_average_power, theoretical_bound};
pub use clock::{ClockOracle, ClockPlan, TickObservation, TickOutcome};
pub use config::{ArrivalModel, MissPolicy, SimConfig, SwitchOverhead};
pub use energy::EnergyMeter;
pub use engine::{simulate, simulate_with};
pub use exec_model::ExecModel;
pub use fault::{ContainmentStats, FaultEvent, FaultPlan};
pub use reference::{simulate_reference, RefReport};
pub use report::{DeadlineMiss, EngineOps, SimReport, TaskStats};
pub use trace::{Activity, Segment, Trace};
