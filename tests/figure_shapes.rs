//! Shape assertions for the paper's figures, run at reduced scale: the
//! reproduction is not expected to match absolute numbers, but who wins,
//! by roughly what factor, and where the crossovers fall must match §3.2.
//!
//! The horizon must comfortably exceed the longest task period (up to 1 s
//! in the three-band workload model); otherwise work still in flight at
//! the cutoff distorts the normalized energies.
#![allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]

use rtdvs::core::{Time, Work};
use rtdvs::sim::theoretical_bound;
use rtdvs_bench::{fig10, fig11, fig12, fig13, fig16, fig9, Scale, Sweep};

fn scale() -> Scale {
    Scale {
        sets_per_point: 6,
        duration: Time::from_ms(2400.0),
        grid: 5,
    }
}

/// Column helpers by policy name.
fn col(sweep: &Sweep, name: &str) -> usize {
    sweep
        .policy_names
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("no column {name}"))
}

/// Index of the grid row closest to utilization `u`.
fn row_at(sweep: &Sweep, u: f64) -> usize {
    sweep
        .rows
        .iter()
        .enumerate()
        .min_by(|a, b| {
            (a.1.utilization - u)
                .abs()
                .total_cmp(&(b.1.utilization - u).abs())
        })
        .map(|(i, _)| i)
        .unwrap()
}

/// The bound for the work a specific policy executed (policies execute
/// slightly different totals near the horizon).
fn own_bound(sweep: &Sweep, machine: &rtdvs::Machine, row: usize, policy: usize, idle: f64) -> f64 {
    theoretical_bound(
        machine,
        Work::from_ms(sweep.rows[row].work[policy]),
        scale().duration,
        idle,
    )
}

/// Fig. 9's headline orderings at mid utilization: bound ≤ laEDF ≤ ccEDF ≤
/// staticEDF ≤ EDF, and staticRM between staticEDF and EDF.
#[test]
fn fig9_ordering_holds_for_every_task_count() {
    let machine = rtdvs::Machine::machine0();
    for (n, sweep) in fig9(scale()) {
        let r = row_at(&sweep, 0.6);
        let norm = |name: &str| sweep.normalized(r, col(&sweep, name));
        let la_col = col(&sweep, "laEDF");
        let la_bound = own_bound(&sweep, &machine, r, la_col, 0.0);
        assert!(
            la_bound <= sweep.rows[r].energy[la_col] + 1e-6,
            "{n} tasks: laEDF beat its own bound"
        );
        assert!(norm("laEDF") <= norm("ccEDF") + 0.02, "{n} tasks");
        assert!(norm("ccEDF") <= norm("StaticEDF") + 0.02, "{n} tasks");
        assert!(norm("StaticEDF") <= 1.0 + 1e-9, "{n} tasks");
        assert!(norm("StaticRM") <= 1.0 + 1e-9, "{n} tasks");
        // The savings at mid utilization are substantial (paper: the
        // RT-DVS curves sit far below EDF).
        assert!(norm("laEDF") < 0.6, "{n} tasks: laEDF at {}", norm("laEDF"));
    }
}

/// Fig. 9's second claim: "the number of tasks has very little effect".
#[test]
fn fig9_task_count_is_insignificant() {
    let sweeps = fig9(scale());
    let r = row_at(&sweeps[0].1, 0.6);
    let la: Vec<f64> = sweeps
        .iter()
        .map(|(_, s)| s.normalized(r, col(s, "laEDF")))
        .collect();
    let spread =
        la.iter().cloned().fold(f64::MIN, f64::max) - la.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        spread < 0.12,
        "laEDF normalized energy varies too much with task count: {la:?}"
    );
}

/// Fig. 10: raising the idle level increases the *relative* savings of the
/// dynamic schemes, and ccEDF diverges below staticEDF as idle energy
/// matters more (the dynamic algorithms halt at the lowest point, the
/// static ones do not). The divergence needs a utilization where the
/// static point is above the floor, e.g. ~0.7 → the 0.75 point.
#[test]
fn fig10_idle_level_favors_dynamic_schemes() {
    let sweeps = fig10(scale());
    let (idle_low, low) = &sweeps[0];
    let (idle_high, high) = &sweeps[2];
    assert_eq!((*idle_low, *idle_high), (0.01, 1.0));
    let r = row_at(low, 0.6);
    let cc_low = low.normalized(r, col(low, "ccEDF"));
    let cc_high = high.normalized(r, col(high, "ccEDF"));
    assert!(
        cc_high < cc_low + 1e-9,
        "higher idle level should improve ccEDF's relative savings: {cc_low} -> {cc_high}"
    );
    let st_high = high.normalized(r, col(high, "StaticEDF"));
    assert!(
        cc_high < st_high - 0.01,
        "ccEDF ({cc_high}) should diverge below staticEDF ({st_high}) at idle level 1"
    );
}

/// Fig. 11: machine 2 (many settings, narrow voltage range) yields smaller
/// maximum savings than machine 0, and laEDF loses its edge there — the
/// paper's crossover observation ("cycle-conserving EDF outperforms the
/// look-ahead EDF algorithm" on machine 2, while laEDF wins on machine 0).
#[test]
fn fig11_machine2_reverses_ccedf_and_laedf() {
    let sweeps = fig11(scale());
    let (m0, s0) = &sweeps[0];
    let (m2, s2) = &sweeps[2];
    assert_eq!(m0.name(), "machine 0");
    assert_eq!(m2.name(), "machine 2");
    let r = row_at(s0, 0.6);
    // Maximum achievable savings: best normalized energy anywhere.
    let best = |s: &Sweep| -> f64 {
        let c = col(s, "laEDF");
        (0..s.rows.len())
            .map(|i| s.normalized(i, c))
            .fold(f64::MAX, f64::min)
    };
    assert!(
        best(s2) > best(s0),
        "machine 2's narrow voltage range must cap the savings"
    );
    let cc2 = s2.normalized(r, col(s2, "ccEDF"));
    let la2 = s2.normalized(r, col(s2, "laEDF"));
    assert!(
        cc2 <= la2 + 0.03,
        "machine 2: ccEDF {cc2} should be at least on par with laEDF {la2}"
    );
    let cc0 = s0.normalized(r, col(s0, "ccEDF"));
    let la0 = s0.normalized(r, col(s0, "laEDF"));
    assert!(la0 <= cc0 + 1e-9, "machine 0: laEDF {la0} vs ccEDF {cc0}");
    // And ccEDF tracks the bound closely on machine 2 ("very closely
    // approximate the theoretical lower bound").
    assert!(cc2 - s2.normalized_bound(r) < 0.12);
}

/// Fig. 12: lower actual computation helps the EDF-based dynamic schemes,
/// leaves the static schemes unchanged, and barely moves ccRM.
#[test]
fn fig12_actual_computation_sensitivity() {
    let sweeps = fig12(scale());
    let r = row_at(&sweeps[0].1, 0.8);
    let at = |i: usize, name: &str| sweeps[i].1.normalized(r, col(&sweeps[i].1, name));
    // ccEDF and laEDF improve as c drops 0.9 → 0.5.
    for name in ["ccEDF", "laEDF"] {
        assert!(
            at(2, name) < at(0, name) - 0.02,
            "{name}: c=0.5 ({}) should clearly beat c=0.9 ({})",
            at(2, name),
            at(0, name)
        );
    }
    // Static scaling keys off the worst case only.
    for name in ["StaticEDF", "StaticRM"] {
        assert!((at(0, name) - at(2, name)).abs() < 0.03, "{name} moved");
    }
    // ccRM "does not do a very good job of adapting": much less movement
    // than ccEDF.
    let ccrm_move = at(0, "ccRM") - at(2, "ccRM");
    let ccedf_move = at(0, "ccEDF") - at(2, "ccEDF");
    assert!(
        ccrm_move < ccedf_move,
        "ccRM ({ccrm_move}) should adapt less than ccEDF ({ccedf_move})"
    );
}

/// Fig. 13: uniform computation in [0, C] behaves like constant c = 0.5 —
/// "the actual distribution ... is not the critical factor"; the average
/// utilization is.
#[test]
fn fig13_uniform_matches_constant_half() {
    let uniform = fig13(scale());
    let halves = fig12(scale());
    let half = &halves[2].1;
    assert_eq!(halves[2].0, 0.5);
    for u in [0.4, 0.6, 0.8] {
        let ru = row_at(&uniform, u);
        let rh = row_at(half, u);
        for name in ["ccEDF", "laEDF"] {
            let a = uniform.normalized(ru, col(&uniform, name));
            let b = half.normalized(rh, col(half, name));
            assert!(
                (a - b).abs() < 0.08,
                "{name} at U={u}: uniform {a} vs c=0.5 {b}"
            );
        }
    }
}

/// Fig. 16: on the prototype platform the RT-DVS policies cut total system
/// power by roughly 20–40% at moderate-to-high utilization.
#[test]
fn fig16_savings_are_twenty_to_forty_percent() {
    let (names, rows) = fig16(scale());
    let edf = names.iter().position(|n| *n == "EDF").unwrap();
    let cc = names.iter().position(|n| *n == "ccEDF").unwrap();
    let row = rows
        .iter()
        .min_by(|a, b| (a.0 - 0.7).abs().total_cmp(&(b.0 - 0.7).abs()))
        .unwrap();
    let saving = 1.0 - row.1[cc] / row.1[edf];
    assert!(
        (0.15..=0.50).contains(&saving),
        "ccEDF system-power saving at U≈0.7 was {saving:.2}, expected ~20-40%"
    );
    // All powers within the platform envelope.
    for (_, watts) in &rows {
        for &p in watts {
            assert!((7.0..=27.5).contains(&p));
        }
    }
}
