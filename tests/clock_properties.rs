//! Seeded-random properties of the hardened time base, 1200 cases in
//! all:
//!
//! * **observational freedom** (600 cases — 6 policies x 100 draws): a
//!   kernel with an inactive [`ClockPlan`] attached is byte-identical —
//!   log, energy bits, checkpoint text — to a twin with no plan at all.
//!   The zero-rate plan draws nothing, so hardening must be provably
//!   free when the clock is healthy.
//! * **monotonicity** (300 cases): under drifting, tick-losing,
//!   backward-jumping clocks, kernel time never moves backward, the run
//!   reaches its horizon, and the audit layer finds no monotonicity or
//!   release-latency violations — the clamp and the watchdog hold.
//! * **catch-up order** (300 cases): when a tick gap closes, the release
//!   backlog drains in exactly the `(scheduled release, spawn index)`
//!   order an uninterrupted timer would have produced.
//!
//! Every case is a pure function of its index and the fixed base seed,
//! so a failing case reproduces exactly from the printed index.

use rtdvs::audit::{audit_kernel_log, Rule};
use rtdvs::kernel::{KernelEvent, RtKernel, TaskHandle, UniformBody};
use rtdvs::sim::ClockPlan;
use rtdvs::taskgen::SplitMix64;
use rtdvs::{Machine, PolicyKind, Time, Work};

/// Horizon of every property run, milliseconds.
const HORIZON_MS: f64 = 300.0;

/// One drawn workload: admissible under all six paper policies.
struct Workload {
    /// `(handle, period_ms)` in spawn order.
    tasks: Vec<(TaskHandle, f64)>,
}

/// Spawns 2–4 tasks with periods from a Table 2-ish menu and total
/// utilization in [0.3, 0.6] — low enough that every paper policy
/// (including RM at its bound) admits the set.
fn build(kind: PolicyKind, r: &mut SplitMix64) -> (RtKernel, Workload) {
    const PERIODS: [f64; 5] = [8.0, 10.0, 14.0, 16.0, 20.0];
    let mut kernel = RtKernel::new(Machine::machine0(), kind);
    let n = 2 + r.index(3);
    let util = r.range_f64_inclusive(0.3, 0.6);
    let mut tasks = Vec::with_capacity(n);
    for _ in 0..n {
        let p = PERIODS[r.index(PERIODS.len())];
        let c = (util / n as f64 * p).max(0.1);
        let handle = kernel
            .spawn(
                Time::from_ms(p),
                Work::from_ms(c),
                Box::new(UniformBody::new(r.next_u64())),
            )
            .expect("a U <= 0.6 set is admissible under every paper policy");
        tasks.push((handle, p));
    }
    (kernel, Workload { tasks })
}

/// A clock plan with every fault dimension active at drawn rates (the
/// same scaling family as the bench soak's `clock_plan`).
fn adversarial_plan(r: &mut SplitMix64) -> ClockPlan {
    let rate = r.range_f64_inclusive(0.05, 0.5);
    ClockPlan::new(r.next_u64())
        .with_drift(rate, 400.0)
        .with_tick_loss(rate * 0.5)
        .with_coalescing(rate * 0.5, 4)
        .with_backward_jumps(rate * 0.25, 2.0)
}

/// An inactive plan attached to the kernel is observationally free: the
/// log, the energy accumulator, and the checkpoint text are all
/// bit-identical to a kernel that never heard of clock plans.
#[test]
fn inactive_plan_is_observationally_free_per_policy() {
    for (pi, kind) in PolicyKind::paper_six().into_iter().enumerate() {
        for case in 0..100u64 {
            let mut r = SplitMix64::seed_from_u64(0x0B17_4E47 ^ case).split(pi as u64);
            let body_seed = r.next_u64();

            let draw = |seed: u64| {
                let mut rr = SplitMix64::seed_from_u64(seed);
                build(kind, &mut rr)
            };
            let (mut plain, _) = draw(body_seed);
            let (twin, _) = draw(body_seed);
            let mut twin = twin.with_clock_plan(ClockPlan::none());
            assert!(
                !twin.clock_plan_active(),
                "{} case {case}: a zero-rate plan attached a driver",
                kind.name()
            );

            plain.run_until(Time::from_ms(HORIZON_MS));
            twin.run_until(Time::from_ms(HORIZON_MS));

            assert_eq!(
                plain.log(),
                twin.log(),
                "{} case {case}: logs diverged under an inactive plan",
                kind.name()
            );
            assert_eq!(
                plain.energy().to_bits(),
                twin.energy().to_bits(),
                "{} case {case}: energy diverged under an inactive plan",
                kind.name()
            );
            let a = plain.checkpoint().expect("checkpoint");
            let b = twin.checkpoint().expect("checkpoint");
            assert_eq!(
                a.as_text(),
                b.as_text(),
                "{} case {case}: checkpoint text diverged under an inactive plan",
                kind.name()
            );
        }
    }
}

/// Under arbitrary clock adversity the monotonicity clamp holds (no log
/// timestamp ever regresses), time reaches the horizon (no livelock),
/// and the audit layer's clock rules stay silent: every backward jump
/// was refused and every gated release stayed inside the watchdog's
/// latency bound.
#[test]
fn clamp_never_moves_time_backward_and_releases_stay_bounded() {
    for case in 0..300u64 {
        let mut r = SplitMix64::seed_from_u64(0xC10C_C1A4 ^ case);
        let kind = PolicyKind::paper_six()[r.index(6)];
        let (kernel, _) = build(kind, &mut r);
        let mut kernel = kernel.with_clock_plan(adversarial_plan(&mut r));

        kernel.run_until(Time::from_ms(HORIZON_MS));
        assert!(
            kernel.now().as_ms() >= HORIZON_MS - 1e-9,
            "case {case} ({}): kernel stalled at {}",
            kind.name(),
            kernel.now()
        );

        let mut last = Time::ZERO;
        for (t, _) in kernel.log() {
            assert!(
                last.at_or_before(t),
                "case {case} ({}): log time moved backward ({last} -> {t})",
                kind.name()
            );
            last = last.max(t);
        }

        let clock_findings: Vec<_> = audit_kernel_log(kernel.log())
            .into_iter()
            .filter(|v| v.rule == Rule::ClockMonotonicity || v.rule == Rule::ReleaseLatencyBound)
            .collect();
        assert!(
            clock_findings.is_empty(),
            "case {case} ({}): clock-rule findings: {clock_findings:?}",
            kind.name()
        );
    }
}

/// Gap recovery replays the backlog in timer order: within any batch of
/// releases fired at one instant, the `(scheduled release, spawn index)`
/// sequence is non-decreasing — the order an unbroken tick stream would
/// have produced. Scheduled instants reconstruct exactly as
/// `(invocation - 1) * period` because the workload never reparameterizes.
#[test]
fn catch_up_preserves_release_order() {
    for case in 0..300u64 {
        let mut r = SplitMix64::seed_from_u64(0x0DE1_40DE ^ case);
        let kind = PolicyKind::paper_six()[r.index(6)];
        let (kernel, workload) = build(kind, &mut r);
        // Heavy loss and coalescing: gaps open constantly, so most
        // releases flow through the catch-up cascade.
        let plan = ClockPlan::new(r.next_u64())
            .with_tick_loss(r.range_f64_inclusive(0.3, 0.8))
            .with_coalescing(0.3, 4);
        let mut kernel = kernel.with_clock_plan(plan);
        kernel.run_until(Time::from_ms(HORIZON_MS));

        let index_of = |h: TaskHandle| -> usize {
            workload
                .tasks
                .iter()
                .position(|&(th, _)| th == h)
                .expect("released handle was spawned here")
        };
        let mut prev: Option<(Time, (u64, usize))> = None;
        let mut batched = 0usize;
        for (t, ev) in kernel.log() {
            let KernelEvent::Released { handle, invocation } = ev else {
                continue;
            };
            let idx = index_of(handle);
            let sched_ms = (invocation - 1) as f64 * workload.tasks[idx].1;
            let key = (Time::from_ms(sched_ms).as_ms().to_bits(), idx);
            if let Some((pt, pk)) = prev {
                if pt.as_ms().to_bits() == t.as_ms().to_bits() {
                    batched += 1;
                    assert!(
                        pk <= key,
                        "case {case} ({}): batch at {t} released {pk:?} before {key:?}",
                        kind.name()
                    );
                }
            }
            prev = Some((t, key));
        }
        assert!(
            batched > 0,
            "case {case} ({}): loss that heavy must batch some releases",
            kind.name()
        );
    }
}
