//! Differential suite: the incremental look-ahead EDF, cycle-conserving RM
//! and early-exit scheduling-point RM test against frozen copies of the
//! code they replaced (`tests/frozen/`). Every decision must be
//! bit-identical, so the checks compare exact values, not tolerances.
//!
//! * (a) Engine level: `simulate_with` gives the same report and trace
//!   with either policy, over generated sets on every machine, every
//!   execution model, sporadic arrivals, switch overheads and overruns
//!   with containment.
//! * (b) Call level: a seeded fuzz drives both policies with the same
//!   callbacks over view sequences no engine makes: remaining work and
//!   budgets within `EPS` of zero, sets with `U > 1` and tied periods,
//!   deadlines at or before `now`, deadlines that move earlier without a
//!   callback, several tasks changing between calls, repeated identical
//!   calls and `init` in mid-sequence. After every call the points,
//!   review instants, laEDF's planned work and ccRM's outstanding
//!   allotment must be equal under `f64` `==` (which ignores only the sign
//!   of a zero). Comparing points alone misses inexact shortcuts: a
//!   sub-`EPS` difference in the planned work rarely moves the point.
//! * (c) RM test: the verdict of the scheduling-point test at every
//!   machine frequency, over generated, harmonic and tied-period sets.
//!
//! Horizons and call counts shrink as `n` grows so the suite stays within
//! a few seconds in a debug build.

mod frozen;

use rtdvs::core::analysis::rm_feasible_at;
use rtdvs::core::policy::{CcRm, LaEdf};
use rtdvs::sim::{ArrivalModel, FaultPlan, SwitchOverhead};
use rtdvs::taskgen::{generate, SplitMix64, TaskGenSpec};
use rtdvs::{
    simulate_with, DvsPolicy, ExecModel, InvState, Machine, RmTest, SimConfig, SystemView, TaskId,
    TaskSet, TaskView, Time, Work,
};

const EPS: f64 = rtdvs::core::time::EPS;

fn machines() -> [Machine; 3] {
    [
        Machine::machine0(),
        Machine::machine1(),
        Machine::machine2(),
    ]
}

// ---------------------------------------------------------------------
// (a) Engine level.
// ---------------------------------------------------------------------

/// Runs the new and the frozen policy through the engine and asserts
/// bit-exact equality of the reports, as `crates/sim/tests/equivalence.rs`
/// does for the two engines.
fn assert_equivalent(
    tasks: &TaskSet,
    machine: &Machine,
    new: &mut dyn DvsPolicy,
    old: &mut dyn DvsPolicy,
    cfg: &SimConfig,
    label: &str,
) {
    let new = simulate_with(tasks, machine, new, cfg);
    let old = simulate_with(tasks, machine, old, cfg);
    assert_eq!(new.events, old.events, "{label}: event counts differ");
    assert_eq!(new.misses, old.misses, "{label}: deadline misses differ");
    assert_eq!(new.switches, old.switches, "{label}: switch counts differ");
    assert_eq!(new.faults, old.faults, "{label}: fault logs differ");
    assert!(
        new.energy().to_bits() == old.energy().to_bits(),
        "{label}: energy differs: {} vs {}",
        new.energy(),
        old.energy()
    );
    match (&new.trace, &old.trace) {
        (Some(a), Some(b)) => {
            assert_eq!(a.segments(), b.segments(), "{label}: trace segments differ");
            assert_eq!(a.events(), b.events(), "{label}: trace events differ");
        }
        _ => panic!("{label}: both runs must record a trace"),
    }
    assert_eq!(
        format!("{new:?}"),
        format!("{old:?}"),
        "{label}: reports differ"
    );
}

/// Per-invocation actual times for `ExecModel::Trace`: a few fractions of
/// each WCET, zero among them.
fn trace_model(tasks: &TaskSet, r: &mut SplitMix64) -> ExecModel {
    let times = tasks
        .tasks()
        .iter()
        .map(|t| {
            (0..4)
                .map(|k| match k {
                    0 => Work::ZERO,
                    _ => t.wcet() * r.range_f64_inclusive(0.0, 1.0),
                })
                .collect()
        })
        .collect();
    ExecModel::Trace(times)
}

#[test]
fn engine_runs_match_frozen_policies() {
    let mut r = SplitMix64::seed_from_u64(0x00e9_0141);
    let mut case = 0usize;
    for n in [1usize, 2, 3, 8, 32, 128] {
        // About the same number of events per run at every n.
        let horizon = (8000.0 / n as f64).clamp(60.0, 3000.0);
        for util in [0.3, 0.55, 0.8, 1.0] {
            let spec = TaskGenSpec::new(n, util).expect("valid spec");
            let tasks = generate(&spec, r.next_u64()).expect("generated set");
            let machine = &machines()[case % 3];
            let exec = match case % 4 {
                0 => ExecModel::Wcet,
                1 => ExecModel::ConstantFraction(0.5),
                2 => ExecModel::uniform(),
                _ => trace_model(&tasks, &mut r),
            };
            let mut cfg = SimConfig::new(Time::from_ms(horizon))
                .with_exec(exec)
                .with_seed(r.next_u64())
                .with_trace();
            if case % 2 == 1 {
                cfg = cfg.with_arrival(ArrivalModel::Sporadic {
                    max_extra_fraction: 0.5,
                });
            }
            if (case / 2) % 2 == 1 {
                cfg = cfg.with_switch_overhead(SwitchOverhead::k6_prototype());
            }
            if (case / 3) % 2 == 1 {
                cfg = cfg.with_faults(FaultPlan::new(r.next_u64()).with_overruns(0.2, 1.5));
            }
            let label = format!("case {case}: n={n} u={util} {}", machine.name());
            assert_equivalent(
                &tasks,
                machine,
                &mut LaEdf::new(),
                &mut frozen::LaEdf::new(),
                &cfg,
                &format!("laEDF {label}"),
            );
            let test = [RmTest::SchedulingPoints, RmTest::ResponseTime][case % 2];
            assert_equivalent(
                &tasks,
                machine,
                &mut CcRm::new(test),
                &mut frozen::CcRm::new(test),
                &cfg,
                &format!("ccRM({test:?}) {label}"),
            );
            case += 1;
        }
    }
}

// ---------------------------------------------------------------------
// (b) Call level.
// ---------------------------------------------------------------------

/// Offsets that land a quantity on, just inside or just outside `EPS`
/// of a boundary.
const NEAR: [f64; 7] = [0.0, 1e-12, 1e-9, 5e-7, EPS, 1.5e-6, 1e-5];

/// A set with `U > 1` possible and periods drawn from a short menu, so
/// ties are common. In one of three, every task but the first shares a
/// utilization of `1 + δ` with `δ` from [`NEAR`]: when the first task has
/// the latest deadline and has completed, laEDF's `u` is then above 1 by
/// at most `EPS` after subtracting its `U`.
fn hand_built_set(r: &mut SplitMix64) -> TaskSet {
    const PERIODS: [f64; 6] = [2.0, 4.0, 4.0, 5.0, 8.0, 10.0];
    let n = 1 + r.index(7);
    let share =
        (n >= 3 && r.index(3) == 0).then(|| (1.0 + NEAR[r.index(NEAR.len())]) / (n - 1) as f64);
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let p = PERIODS[r.index(PERIODS.len())];
            match share {
                Some(u) if i > 0 => (p, p * u),
                _ => (p, p * r.range_f64_inclusive(0.05, 1.0)),
            }
        })
        .collect();
    TaskSet::from_ms_pairs(&pairs).expect("valid hand-built set")
}

fn draw_set(r: &mut SplitMix64) -> TaskSet {
    if r.index(2) == 0 {
        hand_built_set(r)
    } else {
        let n = [1, 2, 3, 5, 8, 16][r.index(6)];
        let spec = TaskGenSpec::new(n, r.range_f64_inclusive(0.1, 1.0)).expect("valid spec");
        generate(&spec, r.next_u64()).expect("generated set")
    }
}

/// `f64` `==`: the same bits, except that `0.0` equals `-0.0`.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
}

/// Both implementations of both policies, driven in lockstep.
struct Pair {
    la: LaEdf,
    la_old: frozen::LaEdf,
    cc: CcRm,
    cc_old: frozen::CcRm,
}

/// What the fuzz does to the policies at one step.
#[derive(Debug, Clone, Copy)]
enum Call {
    Release(TaskId),
    Completion(TaskId),
    Review,
    Init,
}

impl Pair {
    fn new(test: RmTest) -> Pair {
        Pair {
            la: LaEdf::new(),
            la_old: frozen::LaEdf::new(),
            cc: CcRm::new(test),
            cc_old: frozen::CcRm::new(test),
        }
    }

    /// Makes `call` on all four policies and asserts every observable
    /// agrees.
    fn call(&mut self, call: Call, sys: &SystemView<'_>, label: &str) {
        let Pair {
            la,
            la_old,
            cc,
            cc_old,
        } = self;
        let policies: [(&mut dyn DvsPolicy, &mut dyn DvsPolicy); 2] = [(la, la_old), (cc, cc_old)];
        for (new, old) in policies {
            let (a, b) = match call {
                Call::Release(id) => (new.on_release(id, sys), old.on_release(id, sys)),
                Call::Completion(id) => (new.on_completion(id, sys), old.on_completion(id, sys)),
                Call::Review => (new.on_review(sys), old.on_review(sys)),
                Call::Init => (
                    new.init(sys.tasks, sys.machine),
                    old.init(sys.tasks, sys.machine),
                ),
            };
            let name = new.name();
            assert_eq!(a, b, "{label}: {name} {call:?} chose another point");
            assert_eq!(new.current_point(), old.current_point(), "{label}: {name}");
            assert_eq!(
                new.review_at(),
                old.review_at(),
                "{label}: {name} {call:?} asked for another review"
            );
        }
        let (s, s_old) = (
            self.la.work_due_before_next_deadline(sys),
            self.la_old.work_due_before_next_deadline(sys),
        );
        assert!(
            same(s.as_ms(), s_old.as_ms()),
            "{label}: laEDF {call:?} plans {s:?}, frozen {s_old:?}"
        );
        let (d, d_old) = (
            self.cc.outstanding_allotment(),
            self.cc_old.outstanding_allotment(),
        );
        assert!(
            same(d.as_ms(), d_old.as_ms()),
            "{label}: ccRM {call:?} allots {d:?}, frozen {d_old:?}"
        );
        assert!(self.cc.alpha().to_bits() == self.cc_old.alpha().to_bits());
    }
}

/// One fuzz sequence: a set, a machine and views that change between
/// calls in ways an engine would not change them.
struct Sequence {
    r: SplitMix64,
    tasks: TaskSet,
    machine: Machine,
    views: Vec<TaskView>,
    now: f64,
}

impl Sequence {
    fn new(seed: u64) -> Sequence {
        let mut r = SplitMix64::seed_from_u64(seed);
        let tasks = draw_set(&mut r);
        let machine = machines()[r.index(3)].clone();
        let views = tasks
            .tasks()
            .iter()
            .map(|t| TaskView {
                invocation: 1,
                state: InvState::Active,
                executed: Work::ZERO,
                deadline: t.period(),
                next_release: t.period(),
            })
            .collect();
        Sequence {
            r,
            tasks,
            machine,
            views,
            now: 0.0,
        }
    }

    fn sys(&self) -> SystemView<'_> {
        SystemView {
            now: Time::from_ms(self.now),
            tasks: &self.tasks,
            machine: &self.machine,
            views: &self.views,
        }
    }

    fn near(&mut self) -> f64 {
        NEAR[self.r.index(NEAR.len())]
    }

    /// A new invocation of `i`, due one period (or a little more) ahead.
    fn release(&mut self, i: usize) {
        let period = self.tasks.task(TaskId(i)).period().as_ms();
        let deadline = self.now + period * [1.0, 0.5, 1.5][self.r.index(3)];
        let v = &mut self.views[i];
        v.invocation += 1;
        v.state = InvState::Active;
        v.executed = Work::ZERO;
        v.deadline = Time::from_ms(deadline);
        v.next_release = Time::from_ms(deadline + [0.0, 0.0, 0.3][self.r.index(3)]);
    }

    /// Changes one task's view.
    fn mutate(&mut self, i: usize) {
        let wcet = self.tasks.task(TaskId(i)).wcet().as_ms();
        match self.r.index(8) {
            0 => self.release(i),
            // Run part of the remaining work, all of it, or all but a
            // sliver within EPS of zero.
            1 | 2 => {
                let left = (wcet - self.views[i].executed.as_ms()).max(0.0);
                let ran = match self.r.index(3) {
                    0 => left * self.r.range_f64_inclusive(0.0, 1.0),
                    1 => (left - self.near()).max(0.0),
                    _ => left + self.near(),
                };
                self.views[i].executed += Work::from_ms(ran);
            }
            3 => self.views[i].state = InvState::Completed,
            // The deadline moves earlier without a callback, possibly to
            // or before now.
            4 => {
                let d = &mut self.views[i].deadline;
                *d = Time::from_ms((d.as_ms() - self.r.range_f64_inclusive(0.0, 3.0)).max(0.0));
            }
            5 => {
                let near = self.near();
                self.views[i].deadline = Time::from_ms(self.now + [near, -near][self.r.index(2)]);
            }
            6 => {
                let v = &mut self.views[i];
                v.state = InvState::Inactive;
                v.invocation = 0;
                v.executed = Work::ZERO;
            }
            _ => {
                let v = &mut self.views[i];
                v.next_release = v.deadline + Time::from_ms(self.r.range_f64_inclusive(0.0, 2.0));
            }
        }
    }

    /// Advances `now`, sometimes to just before the earliest boundary so
    /// that ccRM's budget `α·(D₁ − now)` falls within `EPS` of zero.
    fn advance(&mut self) {
        match self.r.index(4) {
            0 => {}
            1 => self.now += self.near(),
            2 => self.now += self.r.range_f64_inclusive(0.0, 2.0),
            _ => {
                let boundary = self.sys().earliest_boundary().as_ms();
                let target = boundary - [1.01e-6, 1.5e-6, 2e-6, 1e-5][self.r.index(4)];
                self.now = self.now.max(target);
            }
        }
    }

    fn draw_call(&mut self) -> Call {
        let id = TaskId(self.r.index(self.tasks.len()));
        match self.r.index(20) {
            0..=8 => Call::Release(id),
            9..=16 => Call::Completion(id),
            17 | 18 => Call::Review,
            _ => Call::Init,
        }
    }
}

#[test]
fn callbacks_match_frozen_policies() {
    let mut calls = 0u64;
    for seq in 0..1500u64 {
        let mut s = Sequence::new(0xca11_0000 + seq);
        let test = [
            RmTest::SchedulingPoints,
            RmTest::ResponseTime,
            RmTest::LiuLayland,
        ][s.r.index(3)];
        let mut pair = Pair::new(test);
        pair.call(Call::Init, &s.sys(), &format!("seq {seq} init"));
        let mut last = Call::Init;
        for step in 0..(2400 / (s.tasks.len() + 8)) {
            // One in eight steps repeats the last call on an unchanged
            // view; otherwise up to three tasks change first.
            let call = if s.r.index(8) == 0 {
                last
            } else {
                for _ in 0..s.r.index(4) {
                    let i = s.r.index(s.tasks.len());
                    s.mutate(i);
                }
                s.advance();
                let call = s.draw_call();
                match call {
                    Call::Release(id) if s.r.index(2) == 0 => s.release(id.0),
                    Call::Completion(id) => s.views[id.0].state = InvState::Completed,
                    _ => {}
                }
                call
            };
            // laEDF decides from the view alone, so a fresh instance
            // that never saw `init`, as after a hot-swap, must rebuild its
            // caches and agree with the long-lived frozen one from its
            // first callback on.
            if !matches!(call, Call::Init) && s.r.index(40) == 0 {
                pair.la = LaEdf::new();
            }
            pair.call(call, &s.sys(), &format!("seq {seq} step {step}"));
            last = call;
            calls += 1;
        }
    }
    assert!(calls > 200_000, "only {calls} calls");
}

// ---------------------------------------------------------------------
// (c) RM test.
// ---------------------------------------------------------------------

#[test]
fn scheduling_point_verdicts_match_frozen_test() {
    let mut r = SplitMix64::seed_from_u64(0x5c4e_d01e);
    let mut sets: Vec<TaskSet> = (0..300)
        .map(|_| {
            let n = 1 + r.index(10);
            let spec = TaskGenSpec::new(n, r.range_f64_inclusive(0.2, 1.0)).expect("valid spec");
            generate(&spec, r.next_u64()).expect("generated set")
        })
        .collect();
    let freqs: Vec<f64> = machines()
        .iter()
        .flat_map(|m| m.points().iter().map(|p| p.freq).collect::<Vec<_>>())
        .collect();
    for _ in 0..300 {
        // Harmonic periods, each a power-of-two multiple of a base, with
        // ties; utilization around and above the RM bound.
        let base = r.range_f64_inclusive(1.0, 5.0);
        let n = 2 + r.index(7);
        let mut pairs: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let p = base * f64::from(1u32 << r.index(5));
                (p, p * r.range_f64_inclusive(0.02, 0.5))
            })
            .collect();
        sets.push(TaskSet::from_ms_pairs(&pairs).expect("valid harmonic set"));
        // The same periods with the level-n workload at the longest
        // period `P` set to `P + δ` at one machine frequency α, δ from
        // NEAR: harmonic, so that workload is `P·U/α`, and rounding
        // decides the verdict within EPS of the bound.
        let alpha = freqs[r.index(freqs.len())];
        let p_max = pairs.iter().map(|&(p, _)| p).fold(0.0, f64::max);
        let u = alpha * (1.0 + NEAR[r.index(NEAR.len())] / p_max);
        let weights: Vec<f64> = pairs.iter().map(|&(p, c)| c / p).collect();
        let total: f64 = weights.iter().sum();
        for ((p, c), w) in pairs.iter_mut().zip(&weights) {
            *c = *p * u * w / total;
        }
        sets.push(TaskSet::from_ms_pairs(&pairs).expect("valid exact-fit set"));
        sets.push(hand_built_set(&mut r));
    }
    let mut feasible = 0;
    let mut checks = 0;
    for (i, set) in sets.iter().enumerate() {
        for &alpha in &freqs {
            let new = rm_feasible_at(set, alpha, RmTest::SchedulingPoints);
            let old = frozen::rm_scheduling_points_feasible(set, alpha);
            assert_eq!(new, old, "set {i} at alpha {alpha}: {set:?}");
            feasible += usize::from(new);
            checks += 1;
        }
    }
    // Both verdicts must be well represented for the check to mean much.
    assert!(
        feasible > checks / 5 && feasible < checks * 4 / 5,
        "{feasible} of {checks}"
    );
}
