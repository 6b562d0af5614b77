//! Seeded-random property tests of the hardened transition driver: for
//! arbitrary admissible task sets on the prototype K6-2+ machine, an
//! ideal regulator must be observationally free (identical event log and
//! bit-identical energy against no regulator at all), and under *any*
//! regulator failure rate — with brownout caps toggling mid-run — the
//! safe-point fallback must never land below the frequency the policy
//! demanded, and the kernel-log auditor must never find an unsafe
//! fallback or a cap violation.
//!
//! Like `properties.rs`, these draw their cases from the workspace's own
//! `SplitMix64`: every case is a pure function of the fixed base seed, so
//! failures reproduce exactly from the printed case index.

use rtdvs::kernel::{KernelEvent, RtKernel, UniformBody};
use rtdvs::platform::{PowerNowCpu, RegulatorPlan, UnreliableRegulator};
use rtdvs::taskgen::{generate, SplitMix64, TaskGenSpec};
use rtdvs::{PolicyKind, Time};
use rtdvs_audit::{audit_kernel_log, Rule};

/// Scenarios per property; each runs all six paper policies, so every
/// property covers 600 seeded cases.
const SCENARIOS: usize = 100;

/// Simulated horizon per case. Long enough for several brownout toggles
/// and hundreds of transitions, short enough that 1200 kernel runs stay
/// in test-suite budget.
const HORIZON_MS: f64 = 200.0;

/// One drawn workload: `(period, wcet, body seed)` triples kept light
/// enough (worst-case utilization ≤ 0.45 before overhead inflation) that
/// every paper policy admits the set on the K6-2+ machine.
struct Scenario {
    tasks: Vec<(Time, rtdvs::Work, u64)>,
    kernel_salt: u64,
}

fn draw_scenario(r: &mut SplitMix64) -> Scenario {
    let n = 1 + r.index(5);
    let upct = 5 + r.index(41); // 5..=45 percent
    let spec = TaskGenSpec::new(n, upct as f64 / 100.0).expect("valid spec");
    let set = generate(&spec, r.next_u64()).expect("generator succeeds");
    let tasks = set
        .iter()
        .map(|(_, t)| (t.period(), t.wcet(), r.next_u64()))
        .collect();
    Scenario {
        tasks,
        kernel_salt: r.next_u64(),
    }
}

/// Builds a kernel on the prototype machine with accounted switch
/// overheads, spawning the scenario's tasks. Admission rejections are
/// tolerated (RM tests may refuse what EDF accepts); both kernels of a
/// comparison see identical rejections because admission is a pure
/// function of the set.
fn build_kernel(kind: PolicyKind, scenario: &Scenario) -> RtKernel {
    let cpu = PowerNowCpu::k6_2_plus_550();
    let machine = cpu.machine().expect("prototype machine is valid");
    let mut kernel =
        RtKernel::new(machine, kind).with_accounted_switch_overhead(cpu.switch_overhead());
    for &(period, wcet, body_seed) in &scenario.tasks {
        let _ = kernel.spawn(period, wcet, Box::new(UniformBody::new(body_seed)));
    }
    kernel
}

fn for_each_case(property_salt: u64, mut check: impl FnMut(usize, PolicyKind, &Scenario)) {
    let mut r = SplitMix64::seed_from_u64(0x4E67_00D5 ^ property_salt);
    for case in 0..SCENARIOS {
        let scenario = draw_scenario(&mut r);
        for kind in PolicyKind::paper_six() {
            check(case, kind, &scenario);
        }
    }
}

/// Property: attaching an ideal regulator is observationally free. The
/// plan draws nothing and stalls nothing, so the kernel with it attached
/// must produce the identical event log and bit-identical energy to a
/// kernel with no regulator at all — the mechanism behind the committed
/// BENCH goldens staying byte-stable.
#[test]
fn ideal_regulator_is_observationally_free_for_all_policies() {
    for_each_case(0x0001_DEA1, |case, kind, scenario| {
        let mut bare = build_kernel(kind, scenario);
        let mut ideal = build_kernel(kind, scenario);
        ideal.attach_regulator(Box::new(UnreliableRegulator::new(
            PowerNowCpu::k6_2_plus_550(),
            RegulatorPlan::ideal(),
        )));
        bare.run_for(Time::from_ms(HORIZON_MS));
        ideal.run_for(Time::from_ms(HORIZON_MS));
        assert_eq!(
            bare.energy().to_bits(),
            ideal.energy().to_bits(),
            "case {case} {}: ideal regulator changed the energy ({} vs {})",
            kind.name(),
            bare.energy(),
            ideal.energy()
        );
        assert_eq!(
            bare.log(),
            ideal.log(),
            "case {case} {}: ideal regulator changed the event log",
            kind.name()
        );
    });
}

/// Property: under any failure rate — ignored transitions, handshake
/// timeouts, late settles, and brownout caps toggling mid-run — a
/// logged safe-point fallback never lands below the point the policy
/// demanded (the driver rounds up, never down), and the kernel-log
/// auditor confirms it: no unsafe fallback, no cap violation, no
/// lifecycle inconsistency.
#[test]
fn fallbacks_never_round_down_under_any_failure_rate() {
    for_each_case(0x000F_A112, |case, kind, scenario| {
        let mut r = SplitMix64::seed_from_u64(scenario.kernel_salt);
        let rate = r.range_f64_inclusive(0.05, 1.0);
        let cpu = PowerNowCpu::k6_2_plus_550();
        let stop = cpu.stop_interval();
        let plan = RegulatorPlan::new(r.next_u64())
            .with_failures(rate)
            .with_timeouts(rate * 0.5, stop)
            .with_settle_jitter(rate * 0.5, stop);
        let mut kernel = build_kernel(kind, scenario);
        kernel.attach_regulator(Box::new(UnreliableRegulator::new(cpu, plan)));

        // Toggle a brownout cap at a few random instants so the capped
        // and uncapped driver paths both see the failures.
        let toggles = 1 + r.index(4);
        let mut elapsed = 0.0;
        for _ in 0..toggles {
            let slice = r.range_f64_inclusive(10.0, HORIZON_MS / toggles as f64);
            kernel.run_for(Time::from_ms(slice));
            elapsed += slice;
            match kernel.brownout_cap() {
                Some(_) => kernel.set_brownout_cap(None),
                None => kernel.set_brownout_cap(Some(2 + r.index(4))),
            }
        }
        if elapsed < HORIZON_MS {
            kernel.run_for(Time::from_ms(HORIZON_MS - elapsed));
        }

        for (at, event) in kernel.log() {
            if let KernelEvent::RegulatorFallback { desired, applied } = event {
                assert!(
                    applied >= desired,
                    "case {case} {} rate {rate:.2}: fallback at t={at} landed at point \
                     {applied}, below the demanded {desired}",
                    kind.name()
                );
            }
        }
        let violations: Vec<_> = audit_kernel_log(kernel.log())
            .into_iter()
            .filter(|v| {
                matches!(
                    v.rule,
                    Rule::UnsafeFallback | Rule::CapViolation | Rule::KernelLogConsistency
                )
            })
            .collect();
        assert!(
            violations.is_empty(),
            "case {case} {} rate {rate:.2}: {violations:?}",
            kind.name()
        );
    });
}
