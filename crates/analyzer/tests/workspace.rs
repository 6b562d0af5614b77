//! Self-run: the analyzer over its own workspace must reproduce the
//! checked-in `analysis.json` byte-for-byte, with every waiver used and
//! zero direct panic sites in the zero-budget functions. This is the
//! same check `xtask analyze` performs in CI, locked down as a test so
//! `cargo test --workspace` alone catches a drifted baseline.

use std::path::Path;

use rtdvs_analyzer::manifest::Manifest;
use rtdvs_analyzer::{analyze, Workspace};

#[test]
fn workspace_analysis_matches_the_checked_in_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root, &["crates", "src"]).expect("workspace sources readable");
    let manifest =
        Manifest::load(&root.join("xtask/analyzer-manifest.txt")).expect("manifest parses");
    let a = analyze(&ws, &manifest);

    assert!(
        a.unused_allows.is_empty(),
        "stale waivers in xtask/analyzer-manifest.txt: {:?}",
        a.unused_allows
    );
    assert_eq!(
        a.report.deny_panic_roots, 10,
        "expected exactly the sim scheduling loop, the kernel transition driver, the \
         repro reader, the results diff, snapshot loading, the restore reader, the sealing \
         restore, the checkpoint writer, and the task-file parser"
    );
    // The zero-panic budget holds: no tier-1 findings (they all carry the
    // `zero-panic-budget` wording), only baselined surface reports.
    assert!(
        a.report
            .findings
            .iter()
            .all(|f| !f.detail.contains("zero-panic-budget")),
        "direct panic site crept back into a zero-budget function: {:?}",
        a.report.findings
    );

    let baseline = std::fs::read_to_string(root.join("analysis.json"))
        .expect("checked-in analysis.json baseline");
    let current = a.report.to_json();
    assert!(
        baseline == current,
        "analysis drifted from the checked-in baseline; if intentional, run \
         `cargo run -p xtask -- analyze --write`.\n--- baseline ---\n{baseline}\n--- current ---\n{current}"
    );
}
