//! # rtdvs-kernel
//!
//! A virtual-time RTOS layer reproducing the prototype implementation of
//! Pillai & Shin (SOSP 2001, §4.2): periodic real-time task support with a
//! procfs-like admission interface, pluggable scheduler/DVS policy modules
//! that can be hot-swapped, dynamic task arrival with the deferred first
//! release of §4.3, cold-start overrun logging, and PowerNow!-style
//! transition stalls.
//!
//! # Examples
//!
//! Admitting two tasks and running under look-ahead EDF:
//!
//! ```
//! use rtdvs_core::{Machine, PolicyKind, Time, Work};
//! use rtdvs_kernel::{FractionBody, RtKernel};
//!
//! let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::LaEdf);
//! kernel
//!     .spawn(
//!         Time::from_ms(10.0),
//!         Work::from_ms(3.0),
//!         Box::new(FractionBody(0.5)),
//!     )
//!     .expect("schedulable");
//! kernel.run_for(Time::from_ms(100.0));
//! assert!(kernel.misses().count() == 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod body;
pub mod eventlog;
pub mod kernel;
pub mod modechange;
pub mod procfs;
pub mod snapshot;
pub mod supervisor;
pub mod tenants;
pub mod timebase;

pub use availability::AvailabilityStats;
pub use body::{
    BodyState, ColdStartBody, FractionBody, OverrunBody, TaskBody, UniformBody, WcetBody,
};
pub use eventlog::EventLog;
pub use kernel::{GovernorState, KernelError, KernelEvent, RtKernel, TaskHandle};
pub use modechange::{ModeChange, ModeChangeReceipt};
pub use procfs::{execute, execute_script};
pub use snapshot::{Snapshot, SnapshotError};
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorState};
pub use tenants::{
    AperiodicServer, CompletedJob, JobId, SubmitOutcome, TenantConfigError, TenantLaneStats,
    TenantServer,
};
pub use timebase::{ClockStats, TimeBase, RELEASE_LATENCY_BOUND_MS, TICK_MS, WATCHDOG_GAP_TICKS};

#[cfg(test)]
mod tests {
    use super::*;
    use rtdvs_core::analysis::RmTest;
    use rtdvs_core::{Machine, PolicyKind, Time, Work};
    use rtdvs_sim::SwitchOverhead;

    fn spawn_paper_set(kernel: &mut RtKernel) -> Vec<TaskHandle> {
        // Table 2 tasks with Table 3's first-invocation behavior
        // approximated by constant fractions.
        let specs = [(8.0, 3.0, 0.9), (10.0, 3.0, 0.9), (14.0, 1.0, 0.9)];
        specs
            .iter()
            .map(|&(p, c, f)| {
                kernel
                    .spawn(
                        Time::from_ms(p),
                        Work::from_ms(c),
                        Box::new(FractionBody(f)),
                    )
                    .expect("paper set is schedulable")
            })
            .collect()
    }

    #[test]
    fn runs_paper_set_without_misses() {
        for kind in PolicyKind::paper_six() {
            let mut kernel = RtKernel::new(Machine::machine0(), kind);
            spawn_paper_set(&mut kernel);
            kernel.run_for(Time::from_ms(1000.0));
            assert_eq!(
                kernel.misses().count(),
                0,
                "{} missed deadlines",
                kernel.policy_name()
            );
            assert!(kernel.energy() > 0.0);
        }
    }

    #[test]
    fn admission_control_rejects_overload() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
        kernel
            .spawn(Time::from_ms(10.0), Work::from_ms(8.0), Box::new(WcetBody))
            .unwrap();
        let err = kernel
            .spawn(Time::from_ms(10.0), Work::from_ms(8.0), Box::new(WcetBody))
            .unwrap_err();
        assert!(matches!(err, KernelError::NotSchedulable { .. }));
    }

    #[test]
    fn rm_admission_is_stricter_than_edf() {
        // Schedulable under EDF but not RM.
        let mut edf = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf);
        edf.spawn(Time::from_ms(10.0), Work::from_ms(5.0), Box::new(WcetBody))
            .unwrap();
        assert!(edf
            .spawn(Time::from_ms(14.0), Work::from_ms(6.9), Box::new(WcetBody))
            .is_ok());
        let mut rm = RtKernel::new(
            Machine::machine0(),
            PolicyKind::StaticRm(RmTest::SchedulingPoints),
        );
        rm.spawn(Time::from_ms(10.0), Work::from_ms(5.0), Box::new(WcetBody))
            .unwrap();
        assert!(rm
            .spawn(Time::from_ms(14.0), Work::from_ms(6.9), Box::new(WcetBody))
            .is_err());
    }

    #[test]
    fn deferred_release_waits_for_quiescence() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::LaEdf);
        kernel
            .spawn(Time::from_ms(10.0), Work::from_ms(4.0), Box::new(WcetBody))
            .unwrap();
        // Run into the middle of the first invocation, then add a task.
        kernel.run_until(Time::from_ms(2.0));
        let h2 = kernel
            .spawn(Time::from_ms(20.0), Work::from_ms(2.0), Box::new(WcetBody))
            .unwrap();
        let admitted = kernel
            .log()
            .iter()
            .find_map(|(t, e)| match e {
                KernelEvent::Admitted { handle, deferred } if handle == h2 => Some((t, deferred)),
                _ => None,
            })
            .unwrap();
        assert!(admitted.1, "second task should be deferred");
        kernel.run_until(Time::from_ms(40.0));
        // Its first release must come only after the in-flight invocation
        // completed (T1's first invocation runs 4 ms of work).
        let released_at = kernel
            .log()
            .iter()
            .find_map(|(t, e)| match e {
                KernelEvent::Released {
                    handle,
                    invocation: 1,
                } if handle == h2 => Some(t),
                _ => None,
            })
            .unwrap();
        assert!(released_at.as_ms() >= 4.0 - 1e-6);
        assert_eq!(kernel.misses().count(), 0);
    }

    #[test]
    fn immediate_release_is_used_when_idle() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
        kernel.run_until(Time::from_ms(5.0));
        let h = kernel
            .spawn(Time::from_ms(10.0), Work::from_ms(1.0), Box::new(WcetBody))
            .unwrap();
        // Nothing was in flight, so no deferral.
        let deferred = kernel.log().iter().any(
            |(_, e)| matches!(e, KernelEvent::Admitted { handle, deferred: true } if handle == h),
        );
        assert!(!deferred);
        kernel.run_for(Time::from_ms(1.0));
        assert!(kernel
            .log()
            .iter()
            .any(|(_, e)| matches!(e, KernelEvent::Released { .. })));
    }

    #[test]
    fn policy_hot_swap_keeps_tasks_running() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf);
        spawn_paper_set(&mut kernel);
        kernel.run_until(Time::from_ms(50.0));
        let e_before = kernel.energy();
        kernel.load_policy(PolicyKind::LaEdf);
        kernel.run_until(Time::from_ms(1050.0));
        assert_eq!(kernel.misses().count(), 0);
        assert_eq!(kernel.policy_name(), "laEDF");
        assert!(kernel.energy() > e_before);
        // Both policy loads are logged.
        let loads: Vec<&'static str> = kernel
            .log()
            .iter()
            .filter_map(|(_, e)| match e {
                KernelEvent::PolicyLoaded { name } => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(loads, vec!["EDF", "laEDF"]);
    }

    #[test]
    fn cold_start_overrun_is_logged() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf);
        kernel
            .spawn(
                Time::from_ms(20.0),
                Work::from_ms(4.0),
                Box::new(ColdStartBody::new(FractionBody(0.9), 0.5)),
            )
            .unwrap();
        kernel.run_for(Time::from_ms(100.0));
        let overruns: Vec<u64> = kernel
            .log()
            .iter()
            .filter_map(|(_, e)| match e {
                KernelEvent::Overrun { invocation, .. } => Some(invocation),
                _ => None,
            })
            .collect();
        // Exactly the first invocation overran (§4.3).
        assert_eq!(overruns, vec![1]);
    }

    #[test]
    fn remove_task_frees_capacity() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
        let h1 = kernel
            .spawn(Time::from_ms(10.0), Work::from_ms(6.0), Box::new(WcetBody))
            .unwrap();
        assert!(kernel
            .spawn(Time::from_ms(10.0), Work::from_ms(6.0), Box::new(WcetBody))
            .is_err());
        kernel.remove(h1).unwrap();
        assert!(kernel
            .spawn(Time::from_ms(10.0), Work::from_ms(6.0), Box::new(WcetBody))
            .is_ok());
        assert!(matches!(kernel.remove(h1), Err(KernelError::NoSuchTask(_))));
    }

    #[test]
    fn switch_overhead_accrues_stall_time() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf)
            .with_switch_overhead(SwitchOverhead::k6_prototype());
        spawn_paper_set(&mut kernel);
        kernel.run_for(Time::from_ms(200.0));
        assert!(kernel.meter().stall_time().as_ms() > 0.0);
    }

    #[test]
    fn accounted_switch_overhead_preserves_guarantees() {
        use rtdvs_core::time::Work;
        // Medium-period tasks that can absorb the 2 × 0.41 ms budget.
        let specs = [(30.0, 8.0), (50.0, 10.0), (80.0, 12.0)];
        let run = |accounted: bool| {
            let base = RtKernel::new(Machine::machine0(), PolicyKind::LaEdf);
            let mut kernel = if accounted {
                base.with_accounted_switch_overhead(SwitchOverhead::k6_prototype())
            } else {
                base.with_switch_overhead(SwitchOverhead::k6_prototype())
            };
            for &(p, c) in &specs {
                kernel
                    .spawn(
                        Time::from_ms(p),
                        Work::from_ms(c),
                        Box::new(FractionBody(0.9)),
                    )
                    .unwrap();
            }
            kernel.run_until(Time::from_ms(2000.0));
            kernel.misses().count()
        };
        assert_eq!(run(true), 0, "accounted overhead must not miss");
        // The unaccounted variant may or may not miss on this workload;
        // the accounted one must never be worse.
        assert!(run(true) <= run(false));
    }

    #[test]
    fn stall_budget_reflects_configuration() {
        use rtdvs_core::time::Work;
        let plain = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
        assert_eq!(plain.stall_budget(), Work::ZERO);
        let unaccounted = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf)
            .with_switch_overhead(SwitchOverhead::k6_prototype());
        assert_eq!(unaccounted.stall_budget(), Work::ZERO);
        let accounted = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf)
            .with_accounted_switch_overhead(SwitchOverhead::k6_prototype());
        assert!((accounted.stall_budget().as_ms() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn accounting_tightens_admission() {
        use rtdvs_core::time::Work;
        // U would be exactly 1.0 without the surcharge; with it the set no
        // longer fits.
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf)
            .with_accounted_switch_overhead(SwitchOverhead::k6_prototype());
        kernel
            .spawn(Time::from_ms(10.0), Work::from_ms(5.0), Box::new(WcetBody))
            .unwrap();
        let err = kernel
            .spawn(Time::from_ms(10.0), Work::from_ms(5.0), Box::new(WcetBody))
            .unwrap_err();
        assert!(matches!(err, KernelError::NotSchedulable { .. }));
    }

    #[test]
    fn status_reports_tasks_and_policy() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::LaEdf);
        spawn_paper_set(&mut kernel);
        kernel.run_until(Time::from_ms(1.0));
        let s = kernel.status();
        assert!(s.contains("policy=laEDF"));
        assert!(s.contains("rt1"));
        assert!(s.contains("rt3"));
        assert!(s.contains("P=8.000ms"));
    }

    #[test]
    fn empty_kernel_idles_at_floor() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::LaEdf).with_idle_level(1.0);
        kernel.run_for(Time::from_ms(10.0));
        // Idle at the lowest point with idle level 1: 10 ms × 4.5 = 45.
        assert!((kernel.energy() - 45.0).abs() < 1e-9);
        assert_eq!(kernel.misses().count(), 0);
    }

    #[test]
    fn polling_server_serves_jobs_without_breaking_periodic_guarantees() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::LaEdf);
        // Hard periodic load at U = 0.5.
        kernel
            .spawn(
                Time::from_ms(10.0),
                Work::from_ms(5.0),
                Box::new(FractionBody(0.8)),
            )
            .unwrap();
        // Server: 20 ms period, 4 ms budget (U_s = 0.2).
        let (_h, server) = kernel
            .spawn_polling_server(Time::from_ms(20.0), Work::from_ms(4.0))
            .unwrap();
        kernel.run_until(Time::from_ms(30.0));
        // A burst of aperiodic jobs arrives.
        let j1 = server.submit(Work::from_ms(3.0), kernel.now());
        let j2 = server.submit(Work::from_ms(6.0), kernel.now());
        kernel.run_until(Time::from_ms(200.0));
        let done = server.take_completed();
        let ids: Vec<_> = done.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![j1, j2], "jobs must finish FIFO");
        // j1 (3 ≤ budget) finishes within roughly two server periods.
        assert!(
            done[0].response_time().as_ms() <= 2.0 * 20.0 + 1e-6,
            "j1 response {}",
            done[0].response_time()
        );
        // j2 needs two budget-slices → within roughly three periods.
        assert!(done[1].response_time().as_ms() <= 3.0 * 20.0 + 1e-6);
        // The periodic task never missed.
        assert_eq!(kernel.misses().count(), 0);
        assert!(server.total_served().approx_eq(Work::from_ms(9.0)));
    }

    #[test]
    fn idle_server_budget_is_reclaimed_by_dvs() {
        // With an empty queue the server completes instantly, so a dynamic
        // policy reclaims its budget: energy must be well below the same
        // system with the server's budget fully consumed.
        let mk = |consume: bool| {
            let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
            kernel
                .spawn(Time::from_ms(10.0), Work::from_ms(4.0), Box::new(WcetBody))
                .unwrap();
            let (_h, server) = kernel
                .spawn_polling_server(Time::from_ms(10.0), Work::from_ms(4.0))
                .unwrap();
            if consume {
                // Keep the queue saturated.
                server.submit(Work::from_ms(400.0), Time::ZERO);
            }
            kernel.run_until(Time::from_ms(400.0));
            assert_eq!(kernel.misses().count(), 0);
            kernel.energy()
        };
        let busy = mk(true);
        let idle = mk(false);
        assert!(
            idle < busy * 0.75,
            "reclaimed budget should save energy: idle {idle} vs busy {busy}"
        );
    }

    /// A task that understated its bound is shed once, re-admitted with
    /// the bound renegotiated to its observed peak, and then runs clean.
    #[test]
    fn degraded_mode_sheds_and_readmits_with_renegotiated_bound() {
        use rtdvs_core::task::Task;
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf).with_degraded_mode();
        let _good = kernel
            .spawn(Time::from_ms(10.0), Work::from_ms(2.0), Box::new(WcetBody))
            .unwrap();
        // Declares 1 ms but always uses 2 ms.
        let bad = kernel
            .spawn(
                Time::from_ms(20.0),
                Work::from_ms(1.0),
                Box::new(|_: u64, _: &Task| Work::from_ms(2.0)),
            )
            .unwrap();
        kernel.run_for(Time::from_ms(200.0));
        let shed: Vec<_> = kernel
            .log()
            .iter()
            .filter_map(|(_, e)| match e {
                KernelEvent::Shed { handle, observed } => Some((handle, observed)),
                _ => None,
            })
            .collect();
        assert_eq!(shed, vec![(bad, Work::from_ms(2.0))]);
        let readmitted: Vec<_> = kernel
            .log()
            .iter()
            .filter_map(|(_, e)| match e {
                KernelEvent::Readmitted { handle, bound } => Some((handle, bound)),
                _ => None,
            })
            .collect();
        assert_eq!(readmitted, vec![(bad, Work::from_ms(2.0))]);
        let transitions: Vec<bool> = kernel
            .log()
            .iter()
            .filter_map(|(_, e)| match e {
                KernelEvent::Degraded { active } => Some(active),
                _ => None,
            })
            .collect();
        assert_eq!(transitions, vec![true, false]);
        assert!(!kernel.degraded(), "back to full service");
        // Exactly one overrun: after renegotiation the 2 ms demand is
        // within the new bound.
        assert_eq!(kernel.overruns(), 1);
        assert_eq!(kernel.misses().count(), 0);
        assert!(kernel.status().contains("degraded=no"));
    }

    /// A hopeless task (demand that can never pass admission — beyond even
    /// the governor's elastic reach, since a 25 ms bound fits no period the
    /// stretch ladder can reach) is shed at its first miss and STAYS shed,
    /// so the rest of the set keeps its guarantees; without degraded mode
    /// it would miss every invocation.
    #[test]
    fn degraded_mode_contains_a_hopeless_task() {
        use rtdvs_core::task::Task;
        let spawn_set = |kernel: &mut RtKernel| -> TaskHandle {
            kernel
                .spawn(Time::from_ms(10.0), Work::from_ms(5.0), Box::new(WcetBody))
                .unwrap();
            kernel
                .spawn(
                    Time::from_ms(20.0),
                    Work::from_ms(2.0),
                    Box::new(|_: u64, _: &Task| Work::from_ms(25.0)),
                )
                .unwrap()
        };
        let mut kernel =
            RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf).with_degraded_mode();
        let bad = spawn_set(&mut kernel);
        kernel.run_for(Time::from_ms(400.0));
        // Shed at its first miss, never re-admitted (a 25 ms bound on a
        // 20 ms period is not even a representable task).
        assert_eq!(kernel.misses().count(), 1);
        assert!(kernel.degraded());
        assert_eq!(kernel.shed_tasks(), vec![(bad, Work::from_ms(25.0))]);
        assert!(kernel.status().contains("degraded=yes"));
        assert!(kernel.status().contains("state=shed"));
        // Contrast: the stock kernel lets it miss every period.
        let mut stock = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf);
        spawn_set(&mut stock);
        stock.run_for(Time::from_ms(400.0));
        assert!(stock.misses().count() > 10);
    }

    /// With well-behaved tasks, degraded mode never engages and changes
    /// nothing.
    #[test]
    fn degraded_mode_is_inert_without_faults() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::LaEdf).with_degraded_mode();
        spawn_paper_set(&mut kernel);
        kernel.run_for(Time::from_ms(1000.0));
        assert_eq!(kernel.misses().count(), 0);
        assert!(!kernel.degraded());
        assert!(!kernel.log().iter().any(|(_, e)| matches!(
            e,
            KernelEvent::Shed { .. }
                | KernelEvent::Degraded { .. }
                | KernelEvent::Readmitted { .. }
        )));
    }

    /// An aperiodic burst bigger than the server can ever catch up with
    /// degrades gracefully: jobs are served late, nothing panics, and the
    /// hard periodic task keeps all its deadlines.
    #[test]
    fn aperiodic_burst_degrades_gracefully() {
        let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf).with_degraded_mode();
        kernel
            .spawn(Time::from_ms(10.0), Work::from_ms(5.0), Box::new(WcetBody))
            .unwrap();
        let (_h, server) = kernel
            .spawn_polling_server(Time::from_ms(20.0), Work::from_ms(4.0))
            .unwrap();
        // 60 ms of aperiodic work at once — 15 server periods worth.
        for _ in 0..20 {
            server.submit(Work::from_ms(3.0), kernel.now());
        }
        kernel.run_until(Time::from_ms(400.0));
        // The server never exceeds its budget, so it is never shed.
        assert!(!kernel.degraded());
        assert_eq!(kernel.misses().count(), 0);
        assert_eq!(server.take_completed().len(), 20);
        assert_eq!(server.pending(), 0);
    }

    #[test]
    fn kernel_and_simulator_agree_on_energy() {
        // Same workload through both engines: Table 2 at c = 1.0 (WCET)
        // under static EDF, 160 ms horizon.
        use rtdvs_core::example::table2_task_set;
        use rtdvs_sim::{simulate, SimConfig};
        let tasks = table2_task_set();
        let m = Machine::machine0();
        let cfg = SimConfig::new(Time::from_ms(160.0));
        let sim = simulate(&tasks, &m, PolicyKind::StaticEdf, &cfg);

        let mut kernel = RtKernel::new(m.clone(), PolicyKind::StaticEdf);
        for t in tasks.tasks() {
            kernel
                .spawn(t.period(), t.wcet(), Box::new(WcetBody))
                .unwrap();
        }
        kernel.run_until(Time::from_ms(160.0));
        assert!(
            (kernel.energy() - sim.energy()).abs() < 1e-6,
            "kernel {} vs sim {}",
            kernel.energy(),
            sim.energy()
        );
    }
}
