//! # rtdvs-core
//!
//! Core library for **real-time dynamic voltage scaling (RT-DVS)**,
//! reproducing Pillai & Shin, *"Real-Time Dynamic Voltage Scaling for
//! Low-Power Embedded Operating Systems"*, SOSP 2001.
//!
//! DVS lowers processor energy by running at a reduced frequency and — the
//! key CMOS property — a correspondingly reduced supply voltage, for a
//! quadratic (`E ∝ V²`) energy saving per cycle. Throughput-feedback DVS
//! breaks hard real-time guarantees; the paper's contribution is a family
//! of DVS algorithms coupled to the EDF and RM schedulers that provably
//! preserve every deadline:
//!
//! * [`policy::StaticDvs`] — static voltage scaling via the scaled
//!   schedulability tests (§2.3);
//! * [`policy::CcEdf`] and [`policy::CcRm`] — cycle-conserving scaling that
//!   reclaims unused worst-case allocations (§2.4);
//! * [`policy::LaEdf`] — look-ahead scaling that defers work past the next
//!   deadline (§2.5).
//!
//! This crate is pure: the task model ([`task`]), machine descriptions
//! ([`machine`]), schedulability analysis ([`analysis`]), scheduler
//! priority rules ([`sched`]), and the DVS policies ([`policy`]). The
//! companion crates provide the discrete-event simulator (`rtdvs-sim`),
//! workload generation (`rtdvs-taskgen`), the hardware platform models
//! (`rtdvs-platform`), and the RTOS runtime (`rtdvs-kernel`).
//!
//! # Examples
//!
//! Selecting a statically-scaled operating point for a task set:
//!
//! ```
//! use rtdvs_core::analysis::static_edf_point;
//! use rtdvs_core::machine::Machine;
//! use rtdvs_core::task::TaskSet;
//!
//! let tasks = TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)])?;
//! let machine = Machine::machine0();
//! let point = static_edf_point(&tasks, &machine).expect("schedulable");
//! assert_eq!(machine.point(point).freq, 0.75);
//! # Ok::<(), rtdvs_core::task::TaskSetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod example;
pub mod hyperperiod;
pub mod machine;
pub mod mintree;
pub mod policy;
pub mod readyq;
pub mod sched;
pub mod task;
pub mod tenant;
pub mod time;
pub mod view;

pub use analysis::RmTest;
pub use machine::{Machine, OperatingPoint, PointIdx};
pub use mintree::MinTree;
pub use policy::{DvsPolicy, PolicyKind};
pub use readyq::ReadyQueue;
pub use sched::SchedulerKind;
pub use task::{Task, TaskId, TaskSet};
pub use tenant::{TenantId, TenantQuota};
pub use time::{Time, Work};
pub use view::{InvState, SystemView, TaskView};
