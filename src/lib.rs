//! # rtdvs
//!
//! Real-time dynamic voltage scaling (RT-DVS) for low-power embedded
//! operating systems — a Rust reproduction of Pillai & Shin, SOSP 2001.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`core`] — task model, EDF/RM schedulability analysis, and the five
//!   RT-DVS policies (static scaling, ccEDF, ccRM, laEDF) plus the non-DVS
//!   baseline;
//! * [`sim`] — the discrete-event DVS simulator with `E ∝ V²` energy
//!   accounting, execution traces, and the theoretical lower bound;
//! * [`audit`] — the invariant audit layer: replays recorded traces and
//!   machine-checks the paper's guarantees;
//! * [`taskgen`] — the paper's three-band random workload generator;
//! * [`platform`] — AMD K6-2+ PowerNow! and HP N3350 power models;
//! * [`kernel`] — the virtual-time RTOS layer with pluggable policy
//!   modules, admission control, and dynamic task arrival.
//!
//! See `examples/quickstart.rs` for a five-minute tour. The `figures`
//! binary (in `crates/bench`) regenerates every table and figure of the
//! paper with `figures run`, and `figures check` re-derives each of them
//! by value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rtdvs_audit as audit;
pub use rtdvs_core as core;
pub use rtdvs_kernel as kernel;
pub use rtdvs_platform as platform;
pub use rtdvs_sim as sim;
pub use rtdvs_taskgen as taskgen;

pub use rtdvs_core::{
    DvsPolicy, InvState, Machine, OperatingPoint, PointIdx, PolicyKind, RmTest, SchedulerKind,
    SystemView, Task, TaskId, TaskSet, TaskView, Time, Work,
};
pub use rtdvs_kernel::RtKernel;
pub use rtdvs_sim::{simulate, simulate_with, ExecModel, SimConfig, SimReport};
