//! Per-callback cost of the six paper policies at a workload's task set.
//!
//! The engine and the kernel call a policy at every release and
//! completion, so these callbacks are the policy layer's whole cost. They
//! are timed on synthetic views (every other task active, 40% of its WCET
//! executed), the measurement `crates/bench/benches/policy_overhead.rs`
//! makes at fixed sizes, here at the size each workload runs.

use std::hint::black_box;
use std::time::Instant;

use rtdvs::{InvState, Machine, PolicyKind, SystemView, TaskId, TaskSet, TaskView, Time};

use crate::stats::median;

/// Wall time one timing batch should fill.
const BATCH_NS: u128 = 1_000_000;
/// Batches per callback; the median batch is reported.
const BATCHES: usize = 5;

/// One policy's callback costs.
#[derive(Debug, Clone, Copy)]
pub struct PolicyCost {
    /// Policy display name.
    pub name: &'static str,
    /// `init` with the task set, µs per call.
    pub init_us: f64,
    /// `on_release`, ns per call.
    pub release_ns: f64,
    /// `on_completion`, ns per call.
    pub completion_ns: f64,
}

fn synthetic_views(tasks: &TaskSet) -> Vec<TaskView> {
    tasks
        .tasks()
        .iter()
        .enumerate()
        .map(|(i, t)| TaskView {
            invocation: 1,
            state: if i % 2 == 0 {
                InvState::Active
            } else {
                InvState::Completed
            },
            executed: t.wcet() * 0.4,
            deadline: t.period(),
            next_release: t.period(),
        })
        .collect()
}

/// Median ns per call of `f`, over [`BATCHES`] batches of about
/// [`BATCH_NS`] each.
fn ns_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    let mut iters = 0u64;
    while t0.elapsed().as_nanos() < BATCH_NS / 4 {
        black_box(f());
        iters += 1;
    }
    let per_batch = (iters * 4).max(1);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples).expect("BATCHES > 0")
}

/// Times `init`, `on_release` and `on_completion` of every paper policy
/// on `tasks`.
pub fn measure(tasks: &TaskSet, machine: &Machine) -> Vec<PolicyCost> {
    let views = synthetic_views(tasks);
    let sys = SystemView {
        now: Time::from_ms(1.0),
        tasks,
        machine,
        views: &views,
    };
    let released = TaskId(1 % tasks.len());
    PolicyKind::paper_six()
        .into_iter()
        .map(|kind| {
            let mut policy = kind.build();
            let init_us = ns_per_call(|| policy.init(tasks, machine)) / 1000.0;
            let release_ns = ns_per_call(|| policy.on_release(released, &sys));
            let completion_ns = ns_per_call(|| policy.on_completion(TaskId(0), &sys));
            PolicyCost {
                name: kind.name(),
                init_us,
                release_ns,
                completion_ns,
            }
        })
        .collect()
}
