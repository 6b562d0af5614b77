//! Chaos-campaign properties: stream independence under dimension
//! toggles, and the delta-debugging shrinker's acceptance contract.
//!
//! The campaign derives every adversity schedule from one root seed via
//! `SplitMix64::split`, one child stream per dimension. The first test
//! pins the payoff of that discipline: turning any single dimension off
//! leaves every *other* dimension's drawn sequence byte-identical, so a
//! minimized repro that drops a dimension still replays the survivors
//! exactly. The second test pins the shrinker's headline guarantee on
//! the committed known-violating plan.

use rtdvs_bench::{
    campaign_smoke_config, known_violating_campaign, materialize, replay_repro, shrink_plan,
    Artifact, ChaosPlan, ReproArtifact,
};

/// Sets one dimension's rate to zero, by canonical index.
fn toggle_off(plan: &ChaosPlan, dim: usize) -> ChaosPlan {
    let mut p = plan.clone();
    p.dims_mut()[dim].1.rate = 0.0;
    p
}

/// Toggling any one dimension off leaves every other dimension's
/// materialized schedule byte-identical, and empties only the toggled
/// dimension's own schedule. This is the property that makes shrinking
/// sound: a candidate plan with one dimension removed replays the
/// remaining adversity exactly, so a violation that survives the
/// removal was never caused by the removed dimension's draws shifting.
#[test]
fn toggling_one_dimension_leaves_the_others_byte_identical() {
    let plan = campaign_smoke_config(0xC0FFEE).plan;
    let base = materialize(&plan);
    assert!(
        !base.brownouts.is_empty() && !base.kills.is_empty() && !base.churns.is_empty(),
        "the smoke plan must exercise every scheduled dimension for the toggle to mean anything"
    );

    for dim in 0..6 {
        let toggled = materialize(&toggle_off(&plan, dim));

        // Workload-side streams never move: base demand and generator
        // seeds come from their own children of the root.
        assert_eq!(
            toggled.body_streams.len(),
            base.body_streams.len(),
            "dim {dim}: task count changed"
        );
        for (i, (t, b)) in toggled
            .body_streams
            .iter()
            .zip(&base.body_streams)
            .enumerate()
        {
            assert_eq!(t.0, b.0, "dim {dim}: task {i} base stream moved");
            assert_eq!(t.1, b.1, "dim {dim}: task {i} fault stream moved");
        }
        assert_eq!(
            toggled.compliant_gen_seed, base.compliant_gen_seed,
            "dim {dim}: compliant tenant generator seed moved"
        );
        assert_eq!(
            toggled.flood_gen_seed, base.flood_gen_seed,
            "dim {dim}: flood generator seed moved"
        );
        assert_eq!(
            toggled.regulator_seed, base.regulator_seed,
            "dim {dim}: regulator failure-plan seed moved"
        );
        assert_eq!(
            toggled.clock_seed, base.clock_seed,
            "dim {dim}: clock fault-plan seed moved"
        );

        // Scheduled dimensions: the toggled one empties, the others are
        // bit-for-bit the baseline (instants compared through their
        // IEEE-754 bit patterns, caps exactly).
        let same_times = |a: &[rtdvs::Time], b: &[rtdvs::Time]| -> bool {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.as_ms().to_bits() == y.as_ms().to_bits())
        };
        if dim == 1 {
            assert!(
                toggled.brownouts.is_empty(),
                "toggled-off regulator still caps"
            );
        } else {
            assert_eq!(
                toggled.brownouts.len(),
                base.brownouts.len(),
                "dim {dim}: brownout schedule moved"
            );
            for ((ta, ca), (tb, cb)) in toggled.brownouts.iter().zip(&base.brownouts) {
                assert_eq!(ta.as_ms().to_bits(), tb.as_ms().to_bits(), "dim {dim}");
                assert_eq!(ca, cb, "dim {dim}: brownout cap moved");
            }
        }
        if dim == 2 {
            assert!(toggled.kills.is_empty(), "toggled-off kills still fire");
        } else {
            assert!(
                same_times(&toggled.kills, &base.kills),
                "dim {dim}: kill schedule moved"
            );
        }
        if dim == 3 {
            assert!(toggled.churns.is_empty(), "toggled-off churn still submits");
        } else {
            assert!(
                same_times(&toggled.churns, &base.churns),
                "dim {dim}: churn schedule moved"
            );
        }
    }
}

/// The committed known-violating plan shrinks to the contract the repro
/// pipeline advertises: at most 2 active dimensions, at most 10% of the
/// original horizon, and a repro that replays the identical violation —
/// including after a round-trip through its `rtdvs-repro/v1` JSON form.
#[test]
fn known_violating_plan_minimizes_to_a_replayable_repro() {
    let (kind, plan, avail) = known_violating_campaign(0x5eed);
    let repro = shrink_plan(kind, &plan, &avail).expect("the seeded plan must violate");

    let active = repro.plan.active_dimensions();
    assert!(
        active.len() <= 2,
        "shrinker left {} active dimensions ({active:?}), contract allows 2",
        active.len()
    );
    assert!(
        repro.plan.horizon_ms <= 0.10 * plan.horizon_ms,
        "shrinker left {} ms of {} ms, contract allows 10%",
        repro.plan.horizon_ms,
        plan.horizon_ms
    );
    assert_eq!(repro.plan.seed, plan.seed, "minimization must not reseed");
    replay_repro(&repro).expect("fresh repro replays bit-identically");

    let parsed = ReproArtifact::from_json(&repro.to_json()).expect("repro JSON round-trips");
    assert_eq!(parsed, repro, "hex-bit serialization must be lossless");
    replay_repro(&parsed).expect("parsed repro replays bit-identically");
}
