//! Tier-1 guarantees for the sharded sweep runner.
//!
//! The parallel runner's whole claim is *determinism by construction*:
//! every (utilization, task-set) cell draws from its own split PRNG
//! stream and the reduction folds cells in a fixed order, so the thread
//! count is pure mechanism — it may change wall-clock, never results.
//! These tests pin that claim at the two layers the gate relies on (the
//! merged `Sweep` and the serialized artifact). The `compare` tolerance
//! gate's own tests live beside it in `crates/bench/src/artifact.rs`.

use std::num::NonZeroUsize;

use rtdvs::core::Time;
use rtdvs_bench::figures::{paper_figures, paper_figures_artifact, Scale};
use rtdvs_bench::sweep::DEFAULT_SEED;
use rtdvs_bench::{run_sweep, run_sweep_threads, Artifact, SweepConfig};

fn threads(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("thread counts in tests are positive")
}

/// Figures 6–8 at a small scale: every panel, two utilizations, two sets.
fn small() -> Scale {
    Scale {
        sets_per_point: 2,
        duration: Time::from_ms(600.0),
        grid: 2,
    }
}

/// The headline guarantee: the paper-figures artifact the gate diffs
/// against its golden is byte-identical whether produced by one worker
/// or four.
#[test]
fn bench_sweep_artifact_is_byte_identical_across_thread_counts() {
    let artifact = |n| {
        let figures = paper_figures(small(), DEFAULT_SEED, threads(n));
        paper_figures_artifact(&figures, small(), DEFAULT_SEED, threads(n))
    };
    let serial = artifact(1);
    let sharded = artifact(4);
    // `canonical_json` zeroes the two provenance fields (`threads`,
    // `wall_ms`) that legitimately differ between the runs; everything
    // else must match to the byte.
    assert_eq!(serial.canonical_json(), sharded.canonical_json());
    // The full rendering differs only in that provenance.
    assert_eq!(serial.threads, 1);
    assert_eq!(sharded.threads, 4);
}

/// `run_sweep`, which shards over every available core, and the runner
/// at one thread are the same computation, not two code paths that
/// happen to agree today.
#[test]
fn run_sweep_matches_single_threaded_runner() {
    let mut cfg = SweepConfig::paper_default(8);
    cfg.utilizations = vec![0.5, 0.9];
    cfg.sets_per_point = 2;
    cfg.duration = Time::from_ms(600.0);
    let plain = run_sweep(&cfg);
    let threaded = run_sweep_threads(&cfg, threads(1)).sweep;
    assert_eq!(plain.to_csv(), threaded.to_csv());
}
