//! The operation ledger: both executors' exact work per event, pinned.
//!
//! The paper's simulator (§3.1) does work only at releases and
//! completions, and its prototype (§4.2) calls the policy module at the
//! same points, so each executor's cost is a per-event quantity. The
//! ledger runs the six paper policies in the sim engine on the Table 2
//! set for [`TABLE2_MS`] and on generated sets of [`SIZES`] tasks
//! (U = [`UTIL`], uniform execution) for [`GENERATED_MS`], then runs the
//! same generated sets in an [`RtKernel`] with [`UniformBody`] bodies
//! (the `kernel` panels). It records each run's events and [`EngineOps`]
//! counts in `BENCH_ops.json` (schema `rtdvs-ops/v1`). Nothing in it is
//! measured, so it has no provenance: `figures check` diffs every byte,
//! and [`OpsArtifact::validate`] holds both executors to O(1) work per
//! event on the fresh run. Total ops/event at the largest size must stay
//! within [`MAX_GROWTH`] times its value at the smallest, for every
//! policy and executor, so regenerating the golden cannot hide an O(n)
//! regression.
//!
//! The engine counts only work done through its counted entry points (see
//! [`EngineOps`]). The kernel also counts every entry an O(n) pass visits,
//! under the structure the pass stands in for (see [`RtKernel::ops`]).
//! A timer or EDF queue operation counts once, though it updates a
//! tournament tree (`rtdvs_core::MinTree`) at a cost of at most ⌈log₂ n⌉
//! node comparisons (7 at 128 tasks); `soak128` bounds that cost end to
//! end.
//! Either way an uncounted O(n) loop, such as a view rebuilt into a fresh
//! `Vec`, is invisible here, as is a constant-factor slowdown; the
//! end-to-end benchmark (`examples/benchmark`, `events_per_s`) catches
//! both.

use rtdvs_core::example::table2_task_set;
use rtdvs_core::{Machine, PolicyKind, TaskSet, Time};
use rtdvs_kernel::{RtKernel, UniformBody};
use rtdvs_sim::{simulate, EngineOps, ExecModel, SimConfig};
use rtdvs_taskgen::{generate, SplitMix64, TaskGenSpec};

use crate::artifact::{Artifact, ArtifactError, Json};

/// Horizon of the Table 2 runs, milliseconds.
pub const TABLE2_MS: u64 = 2_000;
/// Task counts of the generated sets, smallest first.
pub const SIZES: [usize; 3] = [8, 32, 128];
/// Worst-case utilization of the generated sets.
pub const UTIL: f64 = 0.8;
/// Horizon of the generated-set runs, milliseconds.
pub const GENERATED_MS: u64 = 8_000;
/// How much total ops/event may grow from the smallest generated set to
/// the largest (16× the tasks) before an executor counts as O(n).
pub const MAX_GROWTH: f64 = 1.25;
/// The panel sets run at every [`SIZES`] entry: the engine's, then the
/// kernel's.
const GENERATED_SETS: [&str; 2] = ["generated", "kernel"];

/// One policy's run on one task set.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsRow {
    /// Policy display name.
    pub policy: String,
    /// Scheduler decision intervals ([`rtdvs_sim::SimReport::events`],
    /// [`RtKernel::events`]).
    pub events: u64,
    /// The executor's operation counts.
    pub ops: EngineOps,
}

impl OpsRow {
    /// Total operations per event.
    #[must_use]
    pub fn per_event(&self) -> f64 {
        self.ops.total() as f64 / self.events.max(1) as f64
    }
}

/// Every paper policy's run on one task set.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsPanel {
    /// `"table2"` or `"generated"` (engine runs), or `"kernel"` (the
    /// generated sets in an [`RtKernel`]).
    pub set: String,
    /// Tasks in the set.
    pub n_tasks: usize,
    /// Simulated horizon, milliseconds.
    pub duration_ms: u64,
    /// One row per paper policy, in [`PolicyKind::paper_six`] order.
    pub rows: Vec<OpsRow>,
}

/// The ledger / golden artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsArtifact {
    /// Seed of the generated sets and of every run's execution draws.
    pub seed: u64,
    /// The Table 2 panel, then one engine panel and then one kernel panel
    /// per [`SIZES`] entry.
    pub panels: Vec<OpsPanel>,
}

impl Artifact for OpsArtifact {
    const SCHEMA: &'static str = "rtdvs-ops/v1";
    const PROVENANCE: &'static [&'static str] = &[];

    fn to_tree(&self) -> Json {
        let row = |r: &OpsRow| {
            Json::obj([
                ("policy", r.policy.as_str().into()),
                ("events", r.events.into()),
                ("policy_calls", r.ops.policy_calls.into()),
                ("view_writes", r.ops.view_writes.into()),
                ("timer_ops", r.ops.timer_ops.into()),
                ("queue_ops", r.ops.queue_ops.into()),
                ("meter_intervals", r.ops.meter_intervals.into()),
            ])
        };
        let panel = |p: &OpsPanel| {
            Json::obj([
                ("set", p.set.as_str().into()),
                ("n_tasks", p.n_tasks.into()),
                ("duration_ms", p.duration_ms.into()),
                ("rows", p.rows.iter().map(row).collect()),
            ])
        };
        Json::obj([
            ("seed", self.seed.into()),
            ("panels", self.panels.iter().map(panel).collect()),
        ])
    }

    fn from_tree(tree: &Json) -> Result<Self, ArtifactError> {
        Ok(OpsArtifact {
            seed: tree.get("seed")?.as_u64()?,
            panels: tree.get("panels")?.list(|p| {
                Ok(OpsPanel {
                    set: p.get("set")?.as_str()?.to_owned(),
                    n_tasks: p.get("n_tasks")?.as_usize()?,
                    duration_ms: p.get("duration_ms")?.as_u64()?,
                    rows: p.get("rows")?.list(|r| {
                        Ok(OpsRow {
                            policy: r.get("policy")?.as_str()?.to_owned(),
                            events: r.get("events")?.as_u64()?,
                            ops: EngineOps {
                                policy_calls: r.get("policy_calls")?.as_u64()?,
                                view_writes: r.get("view_writes")?.as_u64()?,
                                timer_ops: r.get("timer_ops")?.as_u64()?,
                                queue_ops: r.get("queue_ops")?.as_u64()?,
                                meter_intervals: r.get("meter_intervals")?.as_u64()?,
                            },
                        })
                    })?,
                })
            })?,
        })
    }
}

impl OpsArtifact {
    /// The ledger's invariants: the Table 2 panel, then one engine and one
    /// kernel panel per [`SIZES`] entry, each with the six paper policies
    /// and nonzero events, and total ops/event at the largest size within
    /// [`MAX_GROWTH`] times the smallest for every policy and executor.
    /// Returns one message per violation.
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let shape: Vec<(&str, usize)> = self.panels.iter().map(|p| (&*p.set, p.n_tasks)).collect();
        let want: Vec<(&str, usize)> = std::iter::once(("table2", table2_task_set().len()))
            .chain(
                GENERATED_SETS
                    .iter()
                    .flat_map(|&set| SIZES.map(|n| (set, n))),
            )
            .collect();
        if shape != want {
            problems.push(format!("panels {shape:?}, expected {want:?}"));
        }
        let names: Vec<&str> = PolicyKind::paper_six().iter().map(|k| k.name()).collect();
        for p in &self.panels {
            let policies: Vec<&str> = p.rows.iter().map(|r| &*r.policy).collect();
            if policies != names {
                problems.push(format!("{} n={}: policies {policies:?}", p.set, p.n_tasks));
            }
            for r in p.rows.iter().filter(|r| r.events == 0) {
                problems.push(format!("{} n={}/{}: no events", p.set, p.n_tasks, r.policy));
            }
        }
        let (small, large) = (SIZES[0], SIZES[SIZES.len() - 1]);
        for set in GENERATED_SETS {
            // Engine rows keep the names they had before the kernel rows.
            let (executor, prefix) = if set == "kernel" {
                ("kernel", "kernel ")
            } else {
                ("engine", "")
            };
            let rows = |n: usize| {
                let panel = self.panels.iter().find(|p| p.set == set && p.n_tasks == n);
                panel.map_or(&[][..], |p| &p.rows)
            };
            for (a, b) in rows(small).iter().zip(rows(large)) {
                let growth = b.per_event() / a.per_event();
                if growth > MAX_GROWTH {
                    problems.push(format!(
                        "{prefix}n={large}/{}: {:.2} ops/event is {growth:.2}x its n={small} value \
                         {:.2}, above the {MAX_GROWTH}x limit: {executor} work per event grows \
                         with n",
                        b.policy,
                        b.per_event(),
                        a.per_event()
                    ));
                }
            }
        }
        problems
    }
}

/// Runs the ledger: 24 simulations and 18 kernel runs, about two seconds
/// on one core of a release build.
///
/// # Panics
///
/// Panics if a generated set cannot be built, which [`UTIL`] and
/// [`SIZES`] rule out.
#[must_use]
pub fn run_ops(seed: u64) -> OpsArtifact {
    ledger(seed, GENERATED_MS)
}

fn ledger(seed: u64, generated_ms: u64) -> OpsArtifact {
    let generated = SIZES.map(|n| {
        let spec = TaskGenSpec::new(n, UTIL).expect("UTIL is in (0, 1]");
        let tasks = generate(&spec, seed).expect("task-set generation is total");
        ("generated", tasks, generated_ms)
    });
    let kernel_panels: Vec<OpsPanel> = generated
        .iter()
        .map(|(_, tasks, duration_ms)| OpsPanel {
            set: "kernel".to_owned(),
            n_tasks: tasks.len(),
            duration_ms: *duration_ms,
            rows: PolicyKind::paper_six()
                .into_iter()
                .map(|kind| kernel_row(tasks, kind, seed, *duration_ms))
                .collect(),
        })
        .collect();
    let panels = std::iter::once(("table2", table2_task_set(), TABLE2_MS))
        .chain(generated)
        .map(|(set, tasks, duration_ms)| {
            let cfg = SimConfig::new(Time::from_ms(duration_ms as f64))
                .with_exec(ExecModel::uniform())
                .with_seed(seed);
            let rows = PolicyKind::paper_six().into_iter().map(|kind| {
                let r = simulate(&tasks, &Machine::machine0(), kind, &cfg);
                OpsRow {
                    policy: kind.name().to_owned(),
                    events: r.events,
                    ops: r.ops,
                }
            });
            OpsPanel {
                set: set.to_owned(),
                n_tasks: tasks.len(),
                duration_ms,
                rows: rows.collect(),
            }
        })
        .chain(kernel_panels)
        .collect();
    OpsArtifact { seed, panels }
}

/// One kernel run: every task spawned under plain EDF (admission would
/// refuse some sets under RM), then `kind` loaded, then `duration_ms` of
/// uptime. Task `i`'s body draws uniformly from its own stream split off
/// `seed`.
fn kernel_row(tasks: &TaskSet, kind: PolicyKind, seed: u64, duration_ms: u64) -> OpsRow {
    let root = SplitMix64::seed_from_u64(seed);
    let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf);
    for (i, t) in tasks.tasks().iter().enumerate() {
        let body = UniformBody::new(root.split(i as u64).next_u64());
        kernel
            .spawn(t.period(), t.wcet(), Box::new(body))
            .expect("a set at UTIL passes EDF admission");
    }
    kernel.load_policy(kind);
    kernel.run_until(Time::from_ms(duration_ms as f64));
    OpsRow {
        policy: kind.name().to_owned(),
        events: kernel.events(),
        ops: kernel.ops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = include_str!("../../../BENCH_ops.json");

    fn golden() -> OpsArtifact {
        OpsArtifact::from_json(GOLDEN).expect("the committed ledger parses")
    }

    /// At a 200 ms horizon: debug builds check the engine's structures
    /// against a full scan after every event.
    #[test]
    fn ledger_runs_are_byte_identical() {
        let seed = crate::sweep::DEFAULT_SEED;
        assert_eq!(ledger(seed, 200).to_json(), ledger(seed, 200).to_json());
    }

    /// The Table 2 and n = 128 event counts the retired throughput golden
    /// pinned for the same runs.
    #[test]
    fn event_counts_carry_over() {
        let art = golden();
        let events =
            |i: usize| -> Vec<u64> { art.panels[i].rows.iter().map(|r| r.events).collect() };
        assert_eq!(events(0), [1079; 6]);
        assert_eq!(
            events(3),
            [237_183, 237_183, 237_183, 237_175, 237_183, 237_175]
        );
    }

    #[test]
    fn validate_names_the_policy_and_size_that_grew() {
        let mut art = golden();
        art.panels[3].rows[4].ops.view_writes *= 16;
        let problems = art.validate();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("n=128/ccRM: "), "{problems:?}");
        art.panels[3].rows[4].ops.view_writes /= 16;
        art.panels[6].rows[0].ops.queue_ops *= 16;
        let problems = art.validate();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with("kernel n=128/EDF: ")
                && problems[0].ends_with("kernel work per event grows with n"),
            "{problems:?}"
        );

        art.panels.pop();
        art.panels[1].rows.pop();
        art.panels[2].rows[0].events = 0;
        let problems = art.validate().join("\n");
        for what in ["panels", "generated n=8: policies", "n=32/EDF: no events"] {
            assert!(problems.contains(what), "{what}: {problems}");
        }
    }
}
