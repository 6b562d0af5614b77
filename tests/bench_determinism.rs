//! Tier-1 guarantees for the sharded sweep runner and the BENCH
//! artifact gate.
//!
//! The parallel runner's whole claim is *determinism by construction*:
//! every (utilization, task-set) cell draws from its own split PRNG
//! stream and the reduction folds cells in a fixed order, so the thread
//! count is pure mechanism — it may change wall-clock, never results.
//! These tests pin that claim at the two layers CI relies on (the merged
//! `Sweep` and the serialized artifact), and prove the `compare`
//! tolerance gate actually rejects the regressions it exists to catch.

use std::num::NonZeroUsize;

use rtdvs_bench::figures::{smoke_sweep_artifact, smoke_sweep_config};
use rtdvs_bench::{compare, run_sweep, run_sweep_threads, Artifact};

const SEED: u64 = 0x5eed;

fn threads(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("thread counts in tests are positive")
}

/// The headline guarantee: the artifact CI diffs against the golden is
/// byte-identical whether produced by one worker or four.
#[test]
fn bench_sweep_artifact_is_byte_identical_across_thread_counts() {
    let serial = smoke_sweep_artifact(SEED, threads(1));
    let sharded = smoke_sweep_artifact(SEED, threads(4));
    // `canonical_json` zeroes the two provenance fields (`threads`,
    // `wall_ms`) that legitimately differ between the runs; everything
    // else must match to the byte.
    assert_eq!(serial.canonical_json(), sharded.canonical_json());
    // The full rendering differs only in that provenance.
    assert_eq!(serial.threads, 1);
    assert_eq!(sharded.threads, 4);
}

/// The serial `run_sweep` entry point and the sharded runner at one
/// thread are the same computation, not two code paths that happen to
/// agree today.
#[test]
fn run_sweep_matches_single_threaded_runner() {
    let cfg = smoke_sweep_config(SEED);
    let plain = run_sweep(&cfg);
    let threaded = run_sweep_threads(&cfg, threads(1)).sweep;
    assert_eq!(plain.to_csv(), threaded.to_csv());
}

/// The comparator must reject an energy shift of 2% when the gate is
/// ±1% — this is the regression the bench-check stage exists to catch.
#[test]
fn compare_rejects_two_percent_energy_drift() {
    let golden = smoke_sweep_artifact(SEED, threads(1));
    let mut drifted = smoke_sweep_artifact(SEED, threads(1));
    // Nudge one ccEDF point by 2%; EDF stays untouched so the artifact
    // remains internally plausible (EDF normalizes to 1.0).
    let series = drifted
        .series
        .iter_mut()
        .find(|s| s.policy == "ccEDF")
        .expect("smoke sweep always includes ccEDF");
    series.points[0].energy_norm *= 1.02;

    let problems = compare(&golden, &drifted, 0.01);
    assert!(
        problems.iter().any(|p| p.contains("ccEDF")),
        "2% drift must be flagged, got: {problems:?}"
    );
    // The same artifact passes a 5% gate: the failure above is the
    // tolerance working, not an equality accident.
    assert!(compare(&golden, &drifted, 0.05).is_empty());
}

/// Deadline misses are compared exactly, not within tolerance: a policy
/// that starts missing deadlines is broken regardless of magnitude.
#[test]
fn compare_rejects_any_new_deadline_miss() {
    let golden = smoke_sweep_artifact(SEED, threads(1));
    let mut missed = smoke_sweep_artifact(SEED, threads(1));
    let series = missed
        .series
        .iter_mut()
        .find(|s| s.policy == "laEDF")
        .expect("smoke sweep always includes laEDF");
    series.points[0].deadline_miss += 1;

    let problems = compare(&golden, &missed, 0.01);
    assert!(
        problems.iter().any(|p| p.contains("deadline")),
        "a new deadline miss must be flagged, got: {problems:?}"
    );
    // Even a generous energy tolerance does not excuse a miss.
    assert!(!compare(&golden, &missed, 0.20).is_empty());
}

/// An identical re-run passes the gate — the comparator has no false
/// positives on the exact configuration CI runs.
#[test]
fn compare_accepts_identical_rerun() {
    let golden = smoke_sweep_artifact(SEED, threads(1));
    let rerun = smoke_sweep_artifact(SEED, threads(2));
    assert_eq!(compare(&golden, &rerun, 0.01), Vec::<String>::new());
}
