//! Crash-recovery harness: run the paper's Table 2 set, checkpoint on a
//! fixed cadence, kill the kernel at a seeded random instant in the second
//! hyperperiod, restore from the last snapshot, and prove the restored run
//! misses no deadline a continuous run would have met — with the stitched
//! (pre-crash + post-restore) event log passing the lifecycle audit.

use rtdvs::audit::{audit_kernel_log, Rule};
use rtdvs::kernel::{ModeChange, RtKernel, Snapshot, TaskHandle, UniformBody};
use rtdvs::taskgen::SplitMix64;
use rtdvs::{Machine, PolicyKind, Time, Work};

/// The paper's Table 2 set (period, WCET in ms); hyperperiod 280 ms.
const TABLE2: [(f64, f64); 3] = [(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)];
/// Two hyperperiods.
const HORIZON_MS: f64 = 560.0;
/// Checkpoint cadence; deliberately co-prime with every Table 2 period so
/// snapshots land mid-invocation, not at convenient idle instants.
const CHECKPOINT_MS: f64 = 33.0;

fn ms(v: f64) -> Time {
    Time::from_ms(v)
}

fn w(v: f64) -> Work {
    Work::from_ms(v)
}

fn build(kind: PolicyKind, seed: u64) -> (RtKernel, Vec<TaskHandle>) {
    let mut kernel = RtKernel::new(Machine::machine0(), kind);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let handles = TABLE2
        .iter()
        .map(|&(p, c)| {
            kernel
                .spawn(ms(p), w(c), Box::new(UniformBody::new(rng.next_u64())))
                .expect("Table 2 is admissible under every paper policy")
        })
        .collect();
    (kernel, handles)
}

/// Runs the kernel to `kill`, checkpointing every [`CHECKPOINT_MS`], and
/// returns the last snapshot taken at or before the kill instant.
fn run_to_crash(kernel: &mut RtKernel, kill: Time) -> Snapshot {
    let mut last: Option<Snapshot> = None;
    let mut t = 0.0;
    while t <= kill.as_ms() {
        kernel.run_until(ms(t));
        last = Some(kernel.checkpoint().expect("checkpoint on cadence"));
        t += CHECKPOINT_MS;
    }
    kernel.run_until(kill);
    last.expect("at least the t=0 checkpoint was taken")
}

/// For every paper policy: the continuous run finishes Table 2 clean, and
/// so does the crashed-and-restored run — zero misses, audit-clean
/// stitched trace.
#[test]
fn crash_and_restore_misses_nothing_for_every_policy() {
    for (i, kind) in PolicyKind::paper_six().into_iter().enumerate() {
        let body_seed = 0x7AB1_E2C0 + i as u64;
        let mut instants = SplitMix64::seed_from_u64(0xC4A5_4ED5).split(i as u64);
        // A seeded random kill instant somewhere in the second hyperperiod.
        let kill = ms(instants.range_f64(280.0, HORIZON_MS));

        // The control: the same workload, never interrupted.
        let (mut control, _) = build(kind, body_seed);
        control.run_until(ms(HORIZON_MS));
        assert_eq!(
            control.misses().count(),
            0,
            "{}: control run missed",
            kind.name()
        );

        // The victim: checkpointed on cadence, killed mid-hyperperiod.
        let (mut victim, _) = build(kind, body_seed);
        let snapshot = run_to_crash(&mut victim, kill);
        drop(victim); // the crash — everything after the last checkpoint is gone

        let (mut restored, servers) = snapshot.restore().expect("snapshot restores");
        assert!(servers.is_empty(), "no polling servers in this workload");
        assert!(
            restored.now() <= kill,
            "{}: restored clock {} is past the kill instant {}",
            kind.name(),
            restored.now(),
            kill
        );
        restored.run_until(ms(HORIZON_MS));
        assert_eq!(
            restored.misses().count(),
            0,
            "{}: restored run missed a deadline the continuous run met (killed at {kill})",
            kind.name()
        );
        let findings = audit_kernel_log(restored.log());
        assert!(
            findings.is_empty(),
            "{}: stitched trace has lifecycle findings: {findings:?}",
            kind.name()
        );
    }
}

/// Restoring the same snapshot twice and running both replicas to the
/// horizon produces bit-identical logs and energy.
#[test]
fn restore_is_deterministic() {
    let (mut victim, _) = build(PolicyKind::CcEdf, 0x5eed);
    let snapshot = run_to_crash(&mut victim, ms(311.0));
    drop(victim);
    let replay = |snap: &Snapshot| {
        let (mut k, _) = snap.restore().expect("snapshot restores");
        k.run_until(ms(HORIZON_MS));
        (k.log().to_vec(), k.energy().to_bits(), k.mode_epoch())
    };
    let first = replay(&snapshot);
    let second = replay(&snapshot);
    assert_eq!(first.0, second.0, "logs diverged between restores");
    assert_eq!(first.1, second.1, "energy diverged between restores");
    assert_eq!(first.2, second.2);
}

/// A crash with a multi-tenant server mid-backlog restores every lane
/// bit-exactly — queued jobs, shed/reject counters, quarantine state —
/// and the restored kernel drains the backlog to completion with zero
/// periodic misses.
#[test]
fn tenant_server_backlog_survives_a_crash() {
    use rtdvs::core::tenant::{TenantId, TenantQuota};

    let (mut victim, _) = build(PolicyKind::CcEdf, 0x7E4A);
    let quotas = [
        TenantQuota::new(TenantId::from_raw(1), w(1.2), 32),
        TenantQuota::new(TenantId::from_raw(2), w(0.8), 32),
    ];
    let (_, server) = victim
        .spawn_tenant_server(ms(10.0), w(2.0), &quotas)
        .expect("Table 2 leaves room for a 0.2-utilization server");

    // Offer 1.5x the server budget for ten periods: a real backlog
    // builds in both lanes while the guaranteed pass keeps serving.
    let mut t = 0.0;
    while t < 100.0 {
        let _ = server.submit(TenantId::from_raw(1), w(1.8), ms(t));
        let _ = server.submit(TenantId::from_raw(2), w(1.2), ms(t));
        t += 10.0;
        victim.run_until(ms(t));
    }
    let snapshot = victim.checkpoint().expect("tenant lanes serialize");
    let at_checkpoint = server.lane_stats();
    assert!(
        at_checkpoint.iter().any(|l| l.backlog > 0),
        "the overload must leave a mid-backlog checkpoint"
    );
    // The crash: everything after the checkpoint is gone.
    victim.run_until(ms(130.0));
    drop(victim);

    let (mut restored, servers) = snapshot.restore().expect("snapshot restores");
    let revived = restored.tenant_servers();
    assert_eq!(revived.len(), 1, "the tenant server survives the crash");
    assert_eq!(
        servers[0].0, revived[0].0,
        "the restore lists the same server"
    );
    let (_, revived_server) = &revived[0];
    assert_eq!(
        revived_server.lane_stats(),
        at_checkpoint,
        "restored lanes differ from the checkpoint instant"
    );

    // No new arrivals: the restored server must drain the backlog at the
    // guaranteed rate and finish the horizon clean.
    let revived_server = revived_server.clone();
    restored.run_until(ms(HORIZON_MS));
    for tenant in [TenantId::from_raw(1), TenantId::from_raw(2)] {
        assert_eq!(
            revived_server.pending(tenant),
            0,
            "{tenant}: backlog not drained by the horizon"
        );
        assert!(
            !revived_server.take_completed(tenant).is_empty(),
            "{tenant}: drained jobs must surface as completions"
        );
    }
    assert_eq!(restored.misses().count(), 0, "restored run missed");
    let findings = audit_kernel_log(restored.log());
    assert!(findings.is_empty(), "stitched trace findings: {findings:?}");
}

/// The compound-degraded crash: a kernel killed while a tenant lane is
/// quarantined, a brownout cap is imposed, AND the degradation ladder
/// sits below the preferred policy (a rate-1.0 regulator keeps tripping
/// fallback containment). The snapshot text round-trips bit-exactly
/// through `Snapshot::from_text`, the restore revives every piece of
/// that compound state, and the stitched trace — with the restore
/// stamped as a supervisor outage — passes the lifecycle audit.
#[test]
fn compound_degraded_state_survives_a_crash() {
    use rtdvs::core::tenant::{TenantId, TenantQuota};
    use rtdvs::platform::{PowerNowCpu, RegulatorPlan, UnreliableRegulator};

    // The relaxed Table 2 set: enough headroom that the capped machine
    // still fits it, so the degradation stays a policy downgrade rather
    // than an overload.
    const RELAXED: [(f64, f64); 3] = [(16.0, 3.0), (20.0, 3.0), (28.0, 1.0)];

    let cpu = PowerNowCpu::k6_2_plus_550();
    let machine = cpu.machine().expect("prototype machine is valid");
    let mut victim = RtKernel::new(machine, PolicyKind::CcEdf)
        .with_accounted_switch_overhead(cpu.switch_overhead());
    let mut rng = SplitMix64::seed_from_u64(0xD16E_57A7);
    for &(p, c) in &RELAXED {
        victim
            .spawn(ms(p), w(c), Box::new(UniformBody::new(rng.next_u64())))
            .expect("the relaxed set is admissible");
    }
    let quotas = [
        TenantQuota::new(TenantId::from_raw(1), w(0.4), 64),
        TenantQuota::new(TenantId::from_raw(2), w(0.2), 4),
    ];
    let (_, server) = victim
        .spawn_tenant_server(ms(10.0), w(0.6), &quotas)
        .expect("the relaxed set leaves room for the server");
    let regulator_seed = rng.next_u64();
    victim.attach_regulator(Box::new(UnreliableRegulator::new(
        PowerNowCpu::k6_2_plus_550(),
        RegulatorPlan::new(regulator_seed).with_failures(1.0),
    )));
    victim.set_brownout_cap(Some(3));

    // Tenant 2 floods its four-deep queue at 10x quota until quarantine
    // engages; the failing regulator meanwhile feeds the ladder governor
    // enough fallbacks to step below the preferred policy.
    let mut t = 0.0;
    while t < 200.0 {
        let _ = server.submit(TenantId::from_raw(1), w(0.2), ms(t));
        for _ in 0..4 {
            let _ = server.submit(TenantId::from_raw(2), w(0.5), ms(t));
        }
        t += 10.0;
        victim.run_until(ms(t));
    }
    assert!(
        server.lane_stats()[1].quarantined,
        "the flooded lane must be quarantined at the kill"
    );
    assert!(
        victim.ladder_position() > 0,
        "the ladder must sit below the preferred policy at the kill"
    );
    let ladder_at_kill = victim.ladder_position();
    let snapshot = victim.checkpoint().expect("compound state serializes");
    let lanes_at_kill = server.lane_stats();

    // The snapshot's text form is the durable artifact: parsing it back
    // and re-rendering must reproduce the bytes exactly.
    let text = snapshot.as_text().to_owned();
    let reparsed = Snapshot::from_text(&text).expect("snapshot text parses");
    assert_eq!(
        reparsed.as_text(),
        text,
        "snapshot text must round-trip bit-exactly"
    );

    // The crash: everything after the checkpoint is gone.
    victim.run_until(ms(230.0));
    drop(victim);

    let (mut restored, servers) = reparsed.restore().expect("snapshot restores");
    assert_eq!(servers.len(), 1, "the restore lists the tenant server");
    assert_eq!(
        restored.brownout_cap(),
        Some(3),
        "the brownout cap survives the crash"
    );
    assert_eq!(
        restored.ladder_position(),
        ladder_at_kill,
        "the ladder depth survives the crash"
    );
    let revived = restored.tenant_servers();
    assert_eq!(revived.len(), 1);
    let revived_server = revived[0].1.clone();
    assert_eq!(
        revived_server.lane_stats(),
        lanes_at_kill,
        "restored lanes differ from the checkpoint instant"
    );

    // Revive as the supervisor would: stamp the outage and re-attach the
    // (stateless-hardware) regulator from the same failure-plan seed.
    restored.mark_restored();
    restored.attach_regulator(Box::new(UnreliableRegulator::new(
        PowerNowCpu::k6_2_plus_550(),
        RegulatorPlan::new(regulator_seed).with_failures(1.0),
    )));
    restored.run_until(ms(HORIZON_MS));

    let stats = restored.availability();
    assert_eq!(stats.outages, 1, "the restore reads back as one outage");
    assert!(
        stats.degraded_ms > 0.0,
        "time below the preferred rung must be accounted"
    );
    let findings: Vec<_> = audit_kernel_log(restored.log())
        .into_iter()
        .filter(|v| v.rule != Rule::DeadlineMiss)
        .collect();
    assert!(findings.is_empty(), "stitched trace findings: {findings:?}");
}

/// A healthy kernel writes no `timebase` stanza (old snapshots stay
/// byte-identical), while a kernel that observed clock faults carries
/// its time-base state — drift estimate, clamp counters, gap and
/// watchdog flags — bit-exactly across a kill/restore. The driver
/// itself is live hardware: the supervisor re-attaches the plan like it
/// re-attaches the regulator, and the revived run finishes with a
/// clean audit.
#[test]
fn time_base_state_survives_a_crash() {
    use rtdvs::sim::ClockPlan;

    // Zero-state: no clock plan ever attached, no stanza written.
    let (mut plain, _) = build(PolicyKind::CcEdf, 0xC10C_0000);
    plain.run_until(ms(100.0));
    let clean = plain.checkpoint().expect("checkpoint");
    assert!(
        !clean.as_text().contains("\ntimebase "),
        "a default time base must serialize exactly as before the stanza existed"
    );

    // The victim: every clock-fault dimension active until the time base
    // has something to remember.
    let plan = ClockPlan::new(0xBAD_C10C)
        .with_drift(0.4, 400.0)
        .with_tick_loss(0.3)
        .with_coalescing(0.2, 4)
        .with_backward_jumps(0.2, 2.0);
    let (mut victim, _) = build(PolicyKind::CcEdf, 0x5eed);
    victim.set_clock_plan(plan);
    victim.run_until(ms(300.0));
    let at_kill = victim.clock_stats();
    assert!(
        at_kill.drift_ppm > 0.0 && at_kill.clamped_jumps > 0,
        "the faulty plan must leave observable time-base state: {at_kill:?}"
    );
    let snapshot = victim.checkpoint().expect("time-base state serializes");
    let text = snapshot.as_text().to_owned();
    assert!(
        text.contains("\ntimebase "),
        "non-default state writes a stanza"
    );
    let reparsed = Snapshot::from_text(&text).expect("snapshot text parses");
    assert_eq!(
        reparsed.as_text(),
        text,
        "timebase stanza must round-trip bit-exactly"
    );
    // The crash: everything after the checkpoint is gone.
    victim.run_until(ms(330.0));
    drop(victim);

    let (mut restored, _) = reparsed.restore().expect("snapshot restores");
    let revived = restored.clock_stats();
    assert!(
        !revived.active,
        "the clock driver is hardware, never serialized"
    );
    assert_eq!(
        revived.ewma_err_ms.to_bits(),
        at_kill.ewma_err_ms.to_bits(),
        "drift estimate must restore bit-exactly"
    );
    assert_eq!(revived.clamped_jumps, at_kill.clamped_jumps);
    assert_eq!(revived.last_clamp, at_kill.last_clamp);
    assert_eq!(revived.max_catch_up, at_kill.max_catch_up);
    assert_eq!(revived.pending_gap, at_kill.pending_gap);
    assert_eq!(revived.watchdog, at_kill.watchdog);

    // Revive as the supervisor would: stamp the outage and re-attach the
    // plan — the drift estimate carries over instead of relearning.
    restored.mark_restored();
    restored.set_clock_plan(plan);
    restored.run_until(ms(HORIZON_MS));
    let findings: Vec<_> = audit_kernel_log(restored.log())
        .into_iter()
        .filter(|v| v.rule != Rule::DeadlineMiss)
        .collect();
    assert!(findings.is_empty(), "stitched trace findings: {findings:?}");
}

/// A crash after a committed mode change restores the post-transaction
/// world: the bumped epoch, the re-parameterized task, and a clean finish.
#[test]
fn recovery_preserves_mode_epoch_and_reparams() {
    let (mut victim, handles) = build(PolicyKind::LaEdf, 0xEC0_4E57);
    victim.run_until(ms(50.0));
    victim
        .submit_mode_change(ModeChange::new().reparam(handles[0], ms(12.0), w(3.0)))
        .expect("relaxing a period keeps the set admissible");
    victim.run_until(ms(140.0));
    assert_eq!(
        victim.mode_epoch(),
        1,
        "the transaction committed pre-crash"
    );
    let snapshot = run_to_crash(&mut victim, ms(430.0));
    drop(victim);

    let (mut restored, _) = snapshot.restore().expect("snapshot restores");
    assert_eq!(restored.mode_epoch(), 1, "epoch survives the crash");
    restored.run_until(ms(HORIZON_MS));
    assert_eq!(restored.misses().count(), 0);
    let findings = audit_kernel_log(restored.log());
    assert!(findings.is_empty(), "stitched trace findings: {findings:?}");
}

/// A kernel of the `kernel-recovery` benchmark's shape (seed 1): a
/// generated 32-task set at U = 0.7 with uniform bodies, hot-swapped
/// through the paper six policies, checkpointed once at the end of each
/// policy's phase. Returns the six checkpoint texts.
fn recovery_shape_checkpoints() -> Vec<String> {
    use rtdvs::taskgen::{generate, TaskGenSpec};
    let spec = TaskGenSpec::new(32, 0.7).expect("valid spec");
    let root = SplitMix64::seed_from_u64(1);
    let tasks = generate(&spec, root.split(1).next_u64()).expect("the generator is total");
    let policies = PolicyKind::paper_six();
    let mut kernel = RtKernel::new(Machine::machine0(), policies[0]);
    for (i, task) in tasks.tasks().iter().enumerate() {
        let body = UniformBody::new(root.split(2).split(i as u64).next_u64());
        kernel
            .spawn(task.period(), task.wcet(), Box::new(body))
            .expect("U = 0.7 passes EDF admission");
    }
    let mut texts = Vec::new();
    for (phase, kind) in policies.into_iter().enumerate() {
        if phase > 0 {
            kernel.load_policy(kind);
        }
        kernel.run_until(ms(100.0 * (phase + 1) as f64));
        let snap = kernel.checkpoint().expect("uniform bodies serialize");
        texts.push(snap.as_text().to_owned());
    }
    texts
}

/// Kernels whose checkpoints, between them, carry every snapshot stanza
/// and body form: switch overheads, a brownout cap, a failing regulator
/// (ladder and regulator counters), a polling server (a one-lane tenant
/// server) and a multi-tenant server with queued jobs, cold-start, fraction, uniform
/// and overrun bodies, a shed task, a stochastic-EDF policy token and the
/// `timebase` stanza.
fn stanza_kernels() -> Vec<(&'static str, RtKernel)> {
    use rtdvs::core::analysis::RmTest;
    use rtdvs::core::tenant::{TenantId, TenantQuota};
    use rtdvs::kernel::{ColdStartBody, FractionBody, OverrunBody};
    use rtdvs::platform::{PowerNowCpu, RegulatorPlan, UnreliableRegulator};
    use rtdvs::sim::ClockPlan;

    let mut rng = SplitMix64::seed_from_u64(0x57A_BA5E);

    // Polling server, cold start, cap and a failing regulator on the K6.
    let cpu = PowerNowCpu::k6_2_plus_550();
    let machine = cpu.machine().expect("prototype machine is valid");
    let mut classic = RtKernel::new(machine, PolicyKind::CcRm(RmTest::SchedulingPoints))
        .with_accounted_switch_overhead(cpu.switch_overhead());
    for &(p, c) in &[(16.0, 3.0), (20.0, 3.0)] {
        classic
            .spawn(ms(p), w(c), Box::new(UniformBody::new(rng.next_u64())))
            .expect("relaxed Table 2 admits");
    }
    classic
        .spawn(
            ms(28.0),
            w(1.0),
            Box::new(ColdStartBody::new(FractionBody(0.5), 0.4)),
        )
        .expect("relaxed Table 2 admits");
    let (_, server) = classic
        .spawn_polling_server(ms(10.0), w(1.0))
        .expect("room for a server");
    classic.attach_regulator(Box::new(UnreliableRegulator::new(
        PowerNowCpu::k6_2_plus_550(),
        RegulatorPlan::new(rng.next_u64()).with_failures(0.5),
    )));
    classic.set_brownout_cap(Some(3));
    for step in 0..12 {
        server.submit(w(0.7), classic.now());
        classic.run_until(ms(10.0 * f64::from(step) + 7.0));
    }

    // Tenant server and a shed overrunning task in degraded mode.
    let mut tenant = RtKernel::new(
        Machine::machine0(),
        PolicyKind::StochasticEdf { confidence: 0.9 },
    )
    .with_degraded_mode();
    for &(p, c) in &TABLE2[..2] {
        tenant
            .spawn(ms(p), w(c), Box::new(UniformBody::new(rng.next_u64())))
            .expect("Table 2 admits");
    }
    let overrun = OverrunBody::new(rng.split(0), 1.0, 2.0).with_window(3, u64::MAX);
    tenant
        .spawn(ms(40.0), w(2.0), Box::new(overrun))
        .expect("room for the overrunning task");
    let quotas = [
        TenantQuota::new(TenantId::from_raw(1), w(0.4), 8),
        TenantQuota::new(TenantId::from_raw(2), w(0.2), 2),
    ];
    let (_, lanes) = tenant
        .spawn_tenant_server(ms(10.0), w(0.6), &quotas)
        .expect("room for the tenant server");
    while !tenant.degraded() && tenant.now() < ms(400.0) {
        let _ = lanes.submit(TenantId::from_raw(1), w(0.3), tenant.now());
        let _ = lanes.submit(TenantId::from_raw(2), w(0.4), tenant.now());
        tenant.run_for(ms(2.0));
    }
    assert!(tenant.degraded(), "the overrunning task must be shed");

    // Time-base state from a faulty clock.
    let (mut clock, _) = build(PolicyKind::LaEdf, rng.next_u64());
    clock.set_clock_plan(
        ClockPlan::new(rng.next_u64())
            .with_drift(0.4, 400.0)
            .with_tick_loss(0.3)
            .with_backward_jumps(0.2, 2.0),
    );
    clock.run_until(ms(120.0));

    vec![("classic", classic), ("tenant", tenant), ("clock", clock)]
}

/// The checksum line of `text`, checked against [`checksum`] of the body
/// above it.
fn sealed_checksum_line(text: &str) -> &str {
    let line = text.lines().last().expect("a snapshot has lines");
    let body = &text[..text.len() - line.len() - 1];
    assert_eq!(line, format!("checksum {:016x}", checksum(body.as_bytes())));
    line
}

/// The bytes of `rtdvs-snapshot/v3` are pinned: any change to what the
/// writer emits changes these checksum lines. They were regenerated for
/// v2, when the log moved ahead of the state stanzas and lost its count
/// line (each v2 text is the v1 text of the same checkpoint with exactly
/// that edit, resealed), and for v3, whose texts are the v2 texts with
/// only the version line and the checksum line changed. The recovery
/// checkpoints after the first extend the sealed log of the one before,
/// and each line equals [`checksum`] of its text, the independent oracle.
#[test]
fn snapshot_bytes_are_pinned() {
    let recovery: Vec<String> = recovery_shape_checkpoints()
        .iter()
        .map(|t| sealed_checksum_line(t).to_owned())
        .collect();
    let stanzas: Vec<String> = stanza_kernels()
        .into_iter()
        .map(|(name, mut k)| {
            let snap = k.checkpoint().expect("stanza kernels serialize");
            format!("{name} {}", sealed_checksum_line(snap.as_text()))
        })
        .collect();
    assert_eq!(recovery, RECOVERY_CHECKSUMS);
    assert_eq!(stanzas, STANZA_CHECKSUMS);
}

/// Checksum lines of [`recovery_shape_checkpoints`].
const RECOVERY_CHECKSUMS: [&str; 6] = [
    "checksum 3b19dd4e149fab13",
    "checksum bfe40b69e59966d1",
    "checksum 88e7983be7203e89",
    "checksum 766f6a3c9207d06d",
    "checksum ba02df38aedd64a5",
    "checksum 53abfb502708d765",
];

/// Checksum lines of a checkpoint of each of [`stanza_kernels`].
const STANZA_CHECKSUMS: [&str; 3] = [
    "classic checksum f633dc150d5e6032",
    "tenant checksum 4c4b4765e3a9cd12",
    "clock checksum 8b10a1e0a711b445",
];

/// The `rtdvs-snapshot/v3` checksum, written out from its definition
/// rather than taken from the crate: from a fixed seed, each 8-byte
/// little-endian word `w` of `bytes`, the last one zero-padded, steps the
/// state to `rotl((h ^ w) * K, 29)`, and the length steps it last.
fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(29);
    let h = bytes.chunks(8).fold(0x243f_6a88_85a3_08d3, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        step(h, u64::from_le_bytes(word))
    });
    step(h, bytes.len() as u64)
}

/// Seals `body` (the text above the checksum line) with a fresh checksum,
/// as anyone who edits a snapshot can.
fn reseal(mut body: String) -> String {
    if !body.ends_with('\n') {
        body.push('\n');
    }
    let sum = checksum(body.as_bytes());
    body + &format!("checksum {sum:016x}\n")
}

/// Field values a forger might write: NaN, ±∞, −0 and the largest
/// finite float as hex bits, and integers at and past the end of `u64`.
const HOSTILE_FIELDS: [&str; 7] = [
    "7ff8000000000000",
    "7ff0000000000000",
    "fff0000000000000",
    "8000000000000000",
    "7fefffffffffffff",
    "18446744073709551615",
    "340282366920938463463374607431768211456",
];

/// One SplitMix64 mutation of a snapshot body: truncation, a bit flip,
/// a token swap, a duplicated, reordered or deleted line, or (twice as
/// likely) a field replaced by a hostile value. Three edits in four aim
/// at the lines other than the `ev` log, which would otherwise draw
/// almost all of them.
fn mutate(body: &str, rng: &mut SplitMix64) -> String {
    let mut lines: Vec<String> = body.lines().map(str::to_owned).collect();
    let header: Vec<usize> = (0..lines.len())
        .filter(|&i| !lines[i].starts_with("ev "))
        .collect();
    let pick = |rng: &mut SplitMix64, n: usize| (rng.next_u64() % n as u64) as usize;
    let at = if rng.next_u64() & 3 != 0 {
        header[pick(rng, header.len())]
    } else {
        pick(rng, lines.len())
    };
    match rng.next_u64() % 8 {
        0 => {
            let mut cut = pick(rng, body.len());
            while !body.is_char_boundary(cut) {
                cut -= 1;
            }
            return body[..cut].to_owned();
        }
        1 => {
            let mut bytes = lines[at].clone().into_bytes();
            if !bytes.is_empty() {
                let i = pick(rng, bytes.len());
                bytes[i] ^= 1 << (rng.next_u64() % 8);
            }
            lines[at] = String::from_utf8_lossy(&bytes).into_owned();
        }
        2 => {
            let mut toks: Vec<&str> = lines[at].split(' ').collect();
            let (a, b) = (pick(rng, toks.len()), pick(rng, toks.len()));
            toks.swap(a, b);
            lines[at] = toks.join(" ");
        }
        3 => {
            let dup = lines[at].clone();
            lines.insert(at, dup);
        }
        4 => {
            let other = pick(rng, lines.len());
            lines.swap(at, other);
        }
        5 => {
            lines.remove(at);
        }
        _ => {
            let mut toks: Vec<String> = lines[at].split(' ').map(str::to_owned).collect();
            // A field, never the tag (unless the line is only a tag).
            let i = if toks.len() > 1 {
                1 + pick(rng, toks.len() - 1)
            } else {
                0
            };
            let value = HOSTILE_FIELDS[pick(rng, HOSTILE_FIELDS.len())];
            // Inside a compound token (`stoch-edf:<hex>`) only the value
            // after the last colon is replaced.
            let field = &mut toks[i];
            *field = match field.rfind(':') {
                Some(c) => format!("{}{value}", &field[..=c]),
                None => value.to_owned(),
            };
            lines[at] = toks.join(" ");
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// The version line and the `ev` lines after it: the part of a snapshot
/// that a checkpoint of the kernel restored from it extends.
fn ev_run(text: &str) -> &str {
    let mut end = text.find('\n').map_or(text.len(), |i| i + 1);
    while text[end..].starts_with("ev ") {
        end += text[end..].find('\n').map_or(text.len() - end, |i| i + 1);
    }
    &text[..end]
}

/// The restore contract for one resealed mutant: `from_text` and
/// `restore` return an error or a kernel, never panic; a kernel they
/// return holds a log with no clock-monotonicity, epoch-monotonicity or
/// log-consistency finding, runs 200 ms, answers `status` and
/// `availability`, and re-checkpoints to a text that extends the
/// mutant's `ev` run and that loads and restores again. Returns whether
/// the mutant restored.
fn check_mutant(text: &str) -> bool {
    let Ok((mut kernel, _)) = Snapshot::from_text(text).and_then(|s| s.restore()) else {
        return false;
    };
    let findings: Vec<_> = audit_kernel_log(kernel.log())
        .into_iter()
        .filter(|v| {
            matches!(
                v.rule,
                Rule::ClockMonotonicity | Rule::EpochMonotonicity | Rule::KernelLogConsistency
            )
        })
        .collect();
    assert!(
        findings.is_empty(),
        "a restored log breaks the lifecycle: {findings:?}"
    );
    kernel.run_for(ms(200.0));
    let _ = kernel.status();
    let _ = kernel.availability();
    let again = kernel.checkpoint().expect("a restored kernel serializes");
    assert!(
        again.as_text().starts_with(ev_run(text)),
        "a restored kernel's checkpoint does not extend the restored log"
    );
    let reloaded = Snapshot::from_text(again.as_text()).and_then(|s| s.restore());
    assert!(
        reloaded.is_ok(),
        "a restored kernel's checkpoint does not restore: {:?}",
        reloaded.err()
    );
    true
}

/// Seeded reseal fuzz of snapshot restore: the checksum catches torn
/// text, not a forgery, so every mutant here is resealed and reaches the
/// parser. The contract is [`check_mutant`]'s.
#[test]
fn resealed_mutants_never_panic_restore() {
    const MUTANTS_PER_TEXT: usize = 1400;
    let texts: Vec<String> = stanza_kernels()
        .into_iter()
        .map(|(_, mut k)| {
            let text = k.checkpoint().expect("stanza kernels serialize");
            text.as_text().to_owned()
        })
        .collect();
    let all = texts.concat();
    for stanza in [
        "\noverhead 3",
        "\ncap 3",
        "\ntimebase ",
        "\nshed ",
        " tserver ",
        " coldstart ",
        " fraction ",
        " uniform ",
        " overrun ",
        "stoch-edf:",
        "cc-rm:sp",
    ] {
        assert!(all.contains(stanza), "no input carries {stanza:?}");
    }
    let mut rng = SplitMix64::seed_from_u64(0xF022_5EA1);
    let (mut mutants, mut restored) = (0, 0);
    for text in &texts {
        let body = &text[..text.rfind("checksum ").expect("sealed text")];
        for _ in 0..MUTANTS_PER_TEXT {
            let mutant = reseal(mutate(body, &mut rng));
            let outcome = std::panic::catch_unwind(|| check_mutant(&mutant));
            match outcome {
                Ok(ok) => restored += usize::from(ok),
                Err(_) => panic!("mutant {mutants} panicked:\n{mutant}"),
            }
            mutants += 1;
        }
    }
    println!("{mutants} resealed mutants, {restored} restored and re-checkpointed");
    assert!(restored > 0 && restored < mutants);
}
