//! Scenario tests for the RTOS layer: the §4.3 dynamic-task experiments,
//! policy module swapping under load, and kernel/simulator cross-checks.
#![allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]

use rtdvs::core::analysis::RmTest;
use rtdvs::core::example::table2_task_set;
use rtdvs::kernel::{ColdStartBody, FractionBody, KernelEvent, RtKernel, UniformBody, WcetBody};
use rtdvs::sim::SwitchOverhead;
use rtdvs::taskgen::{generate, TaskGenSpec};
use rtdvs::{simulate, ExecModel, Machine, PolicyKind, SimConfig, TaskSet, Time, Work};

fn ms(v: f64) -> Time {
    Time::from_ms(v)
}

fn w(v: f64) -> Work {
    Work::from_ms(v)
}

/// Fill a kernel close to capacity, then inject a task mid-invocation.
/// With the deferred-release fix there must be no transient miss.
#[test]
fn dynamic_arrival_with_deferral_is_safe() {
    for kind in [PolicyKind::CcEdf, PolicyKind::LaEdf] {
        let mut kernel = RtKernel::new(Machine::machine0(), kind);
        kernel
            .spawn(ms(10.0), w(4.0), Box::new(FractionBody(0.95)))
            .unwrap();
        kernel
            .spawn(ms(25.0), w(8.0), Box::new(FractionBody(0.95)))
            .unwrap();
        // Run into the thick of the first invocations.
        kernel.run_until(ms(3.0));
        kernel
            .spawn(ms(50.0), w(10.0), Box::new(FractionBody(0.95)))
            .unwrap();
        kernel.run_until(ms(500.0));
        assert_eq!(
            kernel.misses().count(),
            0,
            "{} suffered a transient miss despite deferral",
            kernel.policy_name()
        );
    }
}

/// The same injection without the fix can miss — and when it does, the
/// kernel records it instead of silently breaking. (The paper observed
/// such transients "unless one is very careful".)
#[test]
fn dynamic_arrival_without_deferral_is_recorded_if_it_bites() {
    let mut with_fix_misses = 0;
    let mut without_fix_misses = 0;
    for seed in 0..10u64 {
        for &fix in &[true, false] {
            let base = RtKernel::new(Machine::machine0(), PolicyKind::LaEdf);
            let mut kernel = if fix {
                base
            } else {
                base.without_deferred_release()
            };
            kernel
                .spawn(ms(8.0), w(4.0), Box::new(UniformBody::new(seed)))
                .unwrap();
            kernel
                .spawn(ms(20.0), w(8.0), Box::new(UniformBody::new(seed ^ 1)))
                .unwrap();
            kernel.run_until(ms(2.5));
            kernel.spawn(ms(40.0), w(3.9), Box::new(WcetBody)).unwrap();
            kernel.run_until(ms(400.0));
            let misses = kernel.misses().count();
            if fix {
                with_fix_misses += misses;
            } else {
                without_fix_misses += misses;
            }
        }
    }
    assert_eq!(with_fix_misses, 0, "deferral must eliminate transients");
    // The unfixed path is permitted to miss; either way it must not be
    // *worse* than the fixed path.
    assert!(without_fix_misses >= with_fix_misses);
}

/// Cycling through every policy module under load keeps deadlines intact.
#[test]
fn policy_carousel_under_load() {
    let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf);
    for t in table2_task_set().tasks() {
        kernel
            .spawn(t.period(), t.wcet(), Box::new(FractionBody(0.7)))
            .unwrap();
    }
    for kind in [
        PolicyKind::StaticEdf,
        PolicyKind::CcEdf,
        PolicyKind::LaEdf,
        PolicyKind::StaticRm(RmTest::default()),
        PolicyKind::CcRm(RmTest::default()),
        PolicyKind::PlainRm,
        PolicyKind::LaEdf,
    ] {
        kernel.load_policy(kind);
        kernel.run_for(ms(120.0));
    }
    assert_eq!(kernel.misses().count(), 0);
    // Seven loads plus the initial one.
    let loads = kernel
        .log()
        .iter()
        .filter(|(_, e)| matches!(e, KernelEvent::PolicyLoaded { .. }))
        .count();
    assert_eq!(loads, 8);
}

/// Kernel and batch simulator agree bit-for-bit on a static workload for
/// every policy (same engine semantics, independent implementations).
#[test]
fn kernel_matches_simulator_for_all_policies() {
    let tasks = table2_task_set();
    let machine = Machine::machine0();
    let horizon = ms(320.0);
    for kind in PolicyKind::paper_six() {
        let cfg = SimConfig::new(horizon).with_exec(ExecModel::ConstantFraction(0.8));
        let sim = simulate(&tasks, &machine, kind, &cfg);
        let mut kernel = RtKernel::new(machine.clone(), kind);
        for t in tasks.tasks() {
            kernel
                .spawn(t.period(), t.wcet(), Box::new(FractionBody(0.8)))
                .unwrap();
        }
        kernel.run_until(horizon);
        assert!(
            (kernel.energy() - sim.energy()).abs() < 1e-6,
            "{}: kernel {} vs sim {}",
            kind.name(),
            kernel.energy(),
            sim.energy()
        );
        assert_eq!(kernel.misses().count(), sim.misses.len(), "{}", kind.name());
    }
}

/// One cell of the executor differential: a generated set, a policy, an
/// execution fraction and the switch-overhead model.
struct DiffCase {
    n: usize,
    util: f64,
    fraction: f64,
    kind: PolicyKind,
    overhead: Option<SwitchOverhead>,
}

/// The differential grid: n from 1 to 128 (powers of two and the sizes
/// halfway between them, so bitmaps with partly filled words are covered),
/// U from 0.3 to 0.9, c in {1, 0.8, 0.5}, the six paper policies, without
/// and with the K6 prototype's switch overheads. 3,528 cells before
/// admission.
fn differential_grid() -> Vec<DiffCase> {
    let mut cases = Vec::new();
    for n in [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128] {
        for u10 in 3..=9 {
            for fraction in [1.0, 0.8, 0.5] {
                for kind in PolicyKind::paper_six() {
                    for overhead in [None, Some(SwitchOverhead::k6_prototype())] {
                        cases.push(DiffCase {
                            n,
                            util: f64::from(u10) / 10.0,
                            fraction,
                            kind,
                            overhead,
                        });
                    }
                }
            }
        }
    }
    cases
}

/// Runs one cell in both executors for `horizon`: the kernel with
/// `FractionBody(c)` bodies against the engine with
/// `ExecModel::ConstantFraction(c)`. Returns `false` when the kernel's
/// admission refuses the set (the engine admits anything, so such cells
/// are not comparable); panics, naming the cell, when the two disagree.
fn executors_agree(case: &DiffCase, horizon: Time) -> bool {
    let spec = TaskGenSpec::new(case.n, case.util).expect("valid generator spec");
    let seed = 0xD1FF ^ ((case.n as u64) << 8) ^ (case.util * 10.0) as u64;
    let tasks: TaskSet = generate(&spec, seed).expect("generation is total");
    let machine = Machine::machine0();
    let mut kernel = RtKernel::new(machine.clone(), case.kind);
    let mut cfg = SimConfig::new(horizon).with_exec(ExecModel::ConstantFraction(case.fraction));
    if let Some(ov) = case.overhead {
        kernel = kernel.with_switch_overhead(ov);
        cfg = cfg.with_switch_overhead(ov);
    }
    for t in tasks.tasks() {
        let body = Box::new(FractionBody(case.fraction));
        if kernel.spawn(t.period(), t.wcet(), body).is_err() {
            return false;
        }
    }
    kernel.run_until(horizon);
    let sim = simulate(&tasks, &machine, case.kind, &cfg);
    let cell = format!(
        "n={} U={} c={} {} overhead={}",
        case.n,
        case.util,
        case.fraction,
        case.kind.name(),
        case.overhead.is_some()
    );
    assert_eq!(
        kernel.energy().to_bits(),
        sim.energy().to_bits(),
        "{cell}: kernel energy {} vs engine {}",
        kernel.energy(),
        sim.energy()
    );
    assert_eq!(kernel.misses().count(), sim.misses.len(), "{cell}: misses");
    true
}

/// The executor differential on generated inputs: energies bit-identical
/// and miss counts equal, on every 29th cell of the grid for 250 ms (a
/// debug build also runs both executors' sanitizers throughout).
/// `full_executor_differential` runs every cell.
#[test]
fn kernel_matches_simulator_on_generated_sets() {
    let grid = differential_grid();
    let admitted = grid
        .iter()
        .step_by(29)
        .filter(|case| executors_agree(case, ms(250.0)))
        .count();
    assert!(admitted >= 100, "only {admitted} admitted cells");
}

/// The whole differential grid at 2 s per cell. Slow in a debug build;
/// run it with `cargo test --release --test kernel_scenarios -- --ignored`.
#[test]
#[ignore = "the full grid; run in release with --ignored"]
fn full_executor_differential() {
    let grid = differential_grid();
    let admitted = grid
        .iter()
        .filter(|case| executors_agree(case, ms(2_000.0)))
        .count();
    println!("{admitted} of {} cells admitted; all agree", grid.len());
}

/// Removing a task mid-run frees its utilization for a bigger replacement.
#[test]
fn remove_then_replace_under_load() {
    let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
    let h1 = kernel
        .spawn(ms(10.0), w(5.0), Box::new(FractionBody(0.9)))
        .unwrap();
    kernel
        .spawn(ms(20.0), w(8.0), Box::new(FractionBody(0.9)))
        .unwrap();
    kernel.run_until(ms(100.0));
    // A 0.5-utilization addition is refused while h1 (U = 0.5) lives...
    assert!(kernel.spawn(ms(20.0), w(10.0), Box::new(WcetBody)).is_err());
    // ...but fits once h1 leaves.
    kernel.remove(h1).unwrap();
    kernel
        .spawn(ms(20.0), w(10.0), Box::new(FractionBody(0.9)))
        .unwrap();
    kernel.run_until(ms(300.0));
    assert_eq!(kernel.misses().count(), 0);
}

/// The cold-start overrun (§4.3) is visible under a DVS policy and only on
/// the first invocation; after warm-up the system settles with no misses
/// beyond any caused by the overrun itself.
#[test]
fn cold_start_warms_up() {
    let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
    for (p, c) in [(20.0, 3.0), (40.0, 6.0)] {
        kernel
            .spawn(
                ms(p),
                w(c),
                Box::new(ColdStartBody::new(FractionBody(0.8), 0.4)),
            )
            .unwrap();
    }
    kernel.run_until(ms(800.0));
    let overruns: Vec<u64> = kernel
        .log()
        .iter()
        .filter_map(|(_, e)| match e {
            KernelEvent::Overrun { invocation, .. } => Some(invocation),
            _ => None,
        })
        .collect();
    assert_eq!(overruns, vec![1, 1], "each task overruns exactly once");
    // All misses (if any) must be attributable to the cold start: none
    // after the first period of each task.
    for (t, e) in kernel.misses() {
        assert!(
            t.as_ms() <= 40.0,
            "late miss at {t} not explained by cold start: {e:?}"
        );
    }
}

/// The procfs lifecycle surfaces — `epoch`, `governor`, `last-snapshot` —
/// track mode-change commits, governor stretching, and checkpoints taken
/// through the same text interface.
#[test]
fn procfs_surfaces_track_mode_lifecycle() {
    use rtdvs::kernel::{execute, ModeChange};

    let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
    let h = kernel
        .spawn(ms(8.0), w(3.0), Box::new(FractionBody(0.8)))
        .unwrap();
    kernel
        .spawn(ms(10.0), w(3.0), Box::new(FractionBody(0.8)))
        .unwrap();
    assert_eq!(execute(&mut kernel, "epoch"), "0");
    assert_eq!(execute(&mut kernel, "governor"), "nominal");
    assert_eq!(execute(&mut kernel, "last-snapshot"), "never");

    // A committed reparam bumps the epoch.
    kernel.run_until(ms(40.0));
    kernel
        .submit_mode_change(ModeChange::new().reparam(h, ms(12.0), w(3.0)))
        .unwrap();
    kernel.run_until(ms(100.0));
    assert_eq!(execute(&mut kernel, "epoch"), "1");
    assert_eq!(execute(&mut kernel, "governor"), "nominal");

    // An over-capacity admit with `or_degrade` commits stretched: the
    // governor surface flips, and the epoch keeps counting.
    let receipt = kernel
        .submit_mode_change(
            ModeChange::new()
                .admit(ms(10.0), w(6.0), Box::new(FractionBody(0.8)))
                .or_degrade(),
        )
        .unwrap();
    kernel.run_until(ms(200.0));
    assert_eq!(execute(&mut kernel, "epoch"), "2");
    assert_eq!(execute(&mut kernel, "governor"), "stretched");
    assert_eq!(
        kernel.misses().count(),
        0,
        "stretching must contain the overload"
    );

    // A checkpoint through the text interface stamps `last-snapshot`.
    let reply = execute(&mut kernel, "checkpoint");
    assert!(
        reply.starts_with("ok ") && reply.ends_with(" bytes"),
        "{reply}"
    );
    assert_eq!(execute(&mut kernel, "last-snapshot"), "200.000");

    // Retiring the stretched admit restores nominal rates.
    kernel
        .submit_mode_change(ModeChange::new().retire(receipt.admitted[0]))
        .unwrap();
    kernel.run_until(ms(300.0));
    assert_eq!(execute(&mut kernel, "epoch"), "3");
    assert_eq!(execute(&mut kernel, "governor"), "nominal");
    assert_eq!(kernel.misses().count(), 0);
}

/// The procfs `tenants` node tracks live multi-tenant backpressure: a
/// flooded lane's shedding and quarantine show up in the readback while
/// a compliant lane's line stays clean, and the periodic set underneath
/// keeps meeting every deadline.
#[test]
fn procfs_tenants_surface_tracks_live_backpressure() {
    use rtdvs::core::tenant::{TenantId, TenantQuota};
    use rtdvs::kernel::execute;

    let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
    for t in table2_task_set().tasks() {
        kernel
            .spawn(t.period(), t.wcet(), Box::new(FractionBody(0.7)))
            .unwrap();
    }
    assert_eq!(execute(&mut kernel, "tenants"), "none");

    let quotas = [
        TenantQuota::new(TenantId::from_raw(1), w(0.4), 64),
        TenantQuota::new(TenantId::from_raw(2), w(0.2), 4),
    ];
    let (_, server) = kernel
        .spawn_tenant_server(ms(10.0), w(0.6), &quotas)
        .expect("Table 2 at 0.7 fraction leaves room for the server");

    // Tenant 1 stays at half its quota; tenant 2 floods at 10x into a
    // four-deep queue until shedding and quarantine both engage.
    let mut t = 0.0;
    while t < 200.0 {
        let _ = server.submit(TenantId::from_raw(1), w(0.2), ms(t));
        for _ in 0..4 {
            let _ = server.submit(TenantId::from_raw(2), w(0.5), ms(t));
        }
        t += 10.0;
        kernel.run_until(ms(t));
    }

    let reply = execute(&mut kernel, "tenants");
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 2, "{reply}");
    assert!(
        lines[0].contains("tenant1") && lines[0].contains("shed=0"),
        "compliant lane picked up backpressure: {}",
        lines[0]
    );
    assert!(
        lines[0].contains("rejected=0") && lines[0].contains("quarantine=no"),
        "compliant lane picked up backpressure: {}",
        lines[0]
    );
    assert!(
        lines[1].contains("tenant2") && lines[1].contains("quarantine=yes"),
        "the flooded lane must read back quarantined: {}",
        lines[1]
    );
    let stats = &server.lane_stats()[1];
    assert!(stats.shed > 0, "the four-deep queue must have shed");
    assert!(stats.rejected > 0, "quarantine must have rejected");
    assert_eq!(kernel.misses().count(), 0, "hard-RT set stayed clean");
}

/// The procfs `availability` node reads back live MTTF/MTTR accounting
/// through a full degrade/crash/recover lifecycle — and every field
/// agrees exactly with the `kernel.availability()` replay it fronts.
#[test]
fn procfs_availability_surface_tracks_outage_accounting() {
    use rtdvs::kernel::execute;
    use rtdvs::platform::{PowerNowCpu, RegulatorPlan, UnreliableRegulator};

    fn field<'a>(reply: &'a str, key: &str) -> &'a str {
        reply
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
            .unwrap_or_else(|| panic!("missing {key} in {reply:?}"))
    }

    // The relaxed Table 2 set leaves headroom for overhead inflation on
    // the prototype machine.
    let relaxed = [(16.0, 3.0), (20.0, 3.0), (28.0, 1.0)];
    let cpu = PowerNowCpu::k6_2_plus_550();
    let machine = cpu.machine().expect("prototype machine is valid");
    let mut kernel = RtKernel::new(machine, PolicyKind::CcEdf)
        .with_accounted_switch_overhead(cpu.switch_overhead());
    for &(p, c) in &relaxed {
        kernel
            .spawn(ms(p), w(c), Box::new(FractionBody(0.7)))
            .unwrap();
    }

    // A clean run reads back fully nominal.
    kernel.run_until(ms(50.0));
    let reply = execute(&mut kernel, "availability");
    assert_eq!(field(&reply, "up"), "1.000000", "{reply}");
    assert_eq!(field(&reply, "outages"), "0", "{reply}");
    assert_eq!(field(&reply, "failures"), "0", "{reply}");
    assert_eq!(field(&reply, "degraded"), "0.000", "{reply}");

    // A rate-1.0 regulator trips fallback containment: the ladder steps
    // below the preferred policy and degraded time starts accruing.
    kernel.attach_regulator(Box::new(UnreliableRegulator::new(
        PowerNowCpu::k6_2_plus_550(),
        RegulatorPlan::new(0xA7A1_15ED).with_failures(1.0),
    )));
    kernel.run_until(ms(250.0));
    assert!(
        kernel.ladder_position() > 0,
        "failures must step the ladder"
    );

    // Crash at 250 ms, revive from the checkpoint. The restore drops the
    // regulator, so the next clean review window climbs the ladder back.
    let snapshot = kernel.checkpoint().expect("checkpoint serializes");
    drop(kernel);
    let (mut kernel, _) = snapshot.restore().expect("snapshot restores");
    kernel.mark_restored();
    kernel.run_until(ms(400.0));

    let stats = kernel.availability();
    assert_eq!(stats.outages, 1);
    assert!(stats.failures >= 1, "the ladder step is a failure");
    assert!(stats.recoveries >= 1, "the climb back is a recovery");
    assert!(stats.degraded_ms > 0.0);
    assert!(
        stats.worst_recovery_ms > 0.0,
        "a completion after the restore closes the recovery"
    );

    // The procfs surface is the same replay, field for field.
    let reply = execute(&mut kernel, "availability");
    assert_eq!(field(&reply, "up"), format!("{:.6}", stats.availability()));
    assert_eq!(field(&reply, "nominal"), format!("{:.3}", stats.nominal_ms));
    assert_eq!(
        field(&reply, "degraded"),
        format!("{:.3}", stats.degraded_ms)
    );
    assert_eq!(field(&reply, "outages"), stats.outages.to_string());
    assert_eq!(field(&reply, "failures"), stats.failures.to_string());
    assert_eq!(field(&reply, "recoveries"), stats.recoveries.to_string());
    assert_eq!(field(&reply, "mttf"), format!("{:.3}", stats.mttf_ms()));
    assert_eq!(field(&reply, "mttr"), format!("{:.3}", stats.mttr_ms()));
    assert_eq!(
        field(&reply, "worst_recovery"),
        format!("{:.3}", stats.worst_recovery_ms)
    );
    let rungs: Vec<String> = stats.rung_ms.iter().map(|ms| format!("{ms:.3}")).collect();
    assert_eq!(field(&reply, "rungs"), rungs.join(","));
}

/// The status interface always reflects the live state.
#[test]
fn status_tracks_time_and_frequency() {
    let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::StaticEdf).with_trace();
    for t in table2_task_set().tasks() {
        kernel
            .spawn(t.period(), t.wcet(), Box::new(WcetBody))
            .unwrap();
    }
    kernel.run_until(ms(4.0));
    let s = kernel.status();
    assert!(s.contains("t=4.000ms"), "{s}");
    assert!(s.contains("freq=0.750"), "{s}");
    assert!(kernel.current_frequency() == 0.75);
}

/// The §2.2 polling server pinned end to end: two periodic tasks beside
/// `spawn_polling_server` for 4 s under each paper policy, 8 seeds each,
/// with light (20–160 ms gaps) and saturating (1–8 ms gaps) aperiodic
/// arrivals. A row folds, over its 8 seeds, the energy bits, every
/// completed job's arrival, completion stamp and work, the served work,
/// the forfeited releases and the log length into one FNV-1a digest. Job
/// ids are left out: they are the server's numbering, not its behaviour.
#[test]
fn polling_server_is_pinned() {
    const PINS: [&str; 12] = [
        "EDF light: jobs 338 forfeits 949 log 19685 digest 3ec68d6bb182d730",
        "EDF saturating: jobs 2589 forfeits 8 log 19680 digest a9c7091421a26ef3",
        "StaticRM light: jobs 338 forfeits 949 log 19685 digest 3e7afb1b9c802fc0",
        "StaticRM saturating: jobs 2589 forfeits 8 log 19680 digest fa8df408d00e1a3a",
        "StaticEDF light: jobs 338 forfeits 949 log 19685 digest 3e7afb1b9c802fc0",
        "StaticEDF saturating: jobs 2589 forfeits 8 log 19680 digest fa8df408d00e1a3a",
        "ccEDF light: jobs 338 forfeits 949 log 19685 digest 0c6cc0a9d80ac652",
        "ccEDF saturating: jobs 2589 forfeits 8 log 19680 digest d221d012a0c39c6b",
        "ccRM light: jobs 338 forfeits 949 log 19685 digest 70532878e68880bb",
        "ccRM saturating: jobs 2589 forfeits 8 log 19680 digest 5c49c58c0a830f46",
        "laEDF light: jobs 338 forfeits 949 log 19685 digest 1a019fada34388ad",
        "laEDF saturating: jobs 2589 forfeits 8 log 19680 digest a6fffc565f1fd357",
    ];
    let fold = |h: &mut u64, v: u64| {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut rows = Vec::new();
    for kind in PolicyKind::paper_six() {
        for (load, gaps) in [("light", (20.0, 160.0)), ("saturating", (1.0, 8.0))] {
            let (mut jobs, mut forfeits, mut log) = (0usize, 0u64, 0usize);
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for seed in 0..8u64 {
                let mut kernel = RtKernel::new(Machine::machine0(), kind);
                kernel
                    .spawn(ms(4.615), w(1.0), Box::new(FractionBody(0.7)))
                    .unwrap();
                kernel
                    .spawn(ms(20.0), w(4.6), Box::new(FractionBody(0.6)))
                    .unwrap();
                let (_, server) = kernel.spawn_polling_server(ms(25.0), w(5.0)).unwrap();
                let mut rng = rtdvs::taskgen::SplitMix64::seed_from_u64(seed);
                let mut t = 0.0f64;
                while t < 4000.0 {
                    t += rng.range_f64(gaps.0, gaps.1);
                    kernel.run_until(ms(t.min(4000.0)));
                    if t < 4000.0 {
                        let _ = server.submit(w(rng.range_f64(0.5, 4.5)), kernel.now());
                    }
                }
                fold(&mut digest, kernel.energy().to_bits());
                for job in server.take_completed() {
                    jobs += 1;
                    fold(&mut digest, job.arrival.as_ms().to_bits());
                    fold(&mut digest, job.completed.as_ms().to_bits());
                    fold(&mut digest, job.work.as_ms().to_bits());
                }
                fold(&mut digest, server.total_served().as_ms().to_bits());
                fold(&mut digest, server.forfeited_releases());
                fold(&mut digest, kernel.log().len() as u64);
                forfeits += server.forfeited_releases();
                log += kernel.log().len();
                assert_eq!(
                    kernel.misses().count(),
                    0,
                    "{} {load} seed {seed}",
                    kernel.policy_name()
                );
            }
            rows.push(format!(
                "{} {load}: jobs {jobs} forfeits {forfeits} log {log} digest {digest:016x}",
                kind.name()
            ));
        }
    }
    assert_eq!(rows, PINS, "fresh rows:\n{}", rows.join("\n"));
}
