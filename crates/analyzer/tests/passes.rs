//! Fixture tests: each pass must catch its seeded violations — and stay
//! quiet on the adjacent non-violations — in small in-memory workspaces.

use rtdvs_analyzer::manifest::Manifest;
use rtdvs_analyzer::{analyze, Workspace};

fn passes<'a>(a: &'a rtdvs_analyzer::Analysis, pass: &str) -> Vec<&'a str> {
    a.report
        .findings
        .iter()
        .filter(|f| f.pass == pass)
        .map(|f| f.symbol.as_str())
        .collect()
}

#[test]
fn determinism_catches_direct_and_transitive_taint() {
    let ws = Workspace::from_sources(&[(
        "crates/simx/src/a.rs",
        r#"
use std::time::Instant;

fn clock_read() -> f64 {
    let t = Instant::now();
    t.elapsed().as_secs_f64()
}

pub fn result_fn() -> f64 {
    clock_read() * 2.0
}

pub fn clean_fn(x: f64) -> f64 {
    x + 1.0
}
"#,
    )]);
    let manifest = Manifest::parse("result-path crates/simx\n").unwrap();
    let a = analyze(&ws, &manifest);
    let syms = passes(&a, "determinism");
    assert!(
        syms.iter().any(|s| s.ends_with("::clock_read")),
        "direct Instant::now source missed: {syms:?}"
    );
    assert!(
        syms.iter().any(|s| s.ends_with("::result_fn")),
        "transitive taint through clock_read missed: {syms:?}"
    );
    assert!(
        !syms.iter().any(|s| s.ends_with("::clean_fn")),
        "clean function falsely tainted"
    );
}

#[test]
fn determinism_outside_result_paths_is_not_reported() {
    let ws = Workspace::from_sources(&[(
        "crates/benchx/src/timing.rs",
        "use std::time::Instant;\npub fn stopwatch() -> Instant {\n    Instant::now()\n}\n",
    )]);
    let manifest = Manifest::parse("result-path crates/simx\n").unwrap();
    let a = analyze(&ws, &manifest);
    assert!(passes(&a, "determinism").is_empty());
}

#[test]
fn determinism_flags_default_hashmap_iteration_but_not_lookup_maps() {
    let ws = Workspace::from_sources(&[(
        "crates/simx/src/maps.rs",
        r#"
use std::collections::HashMap;

pub fn iterates() -> u64 {
    let mut m: HashMap<u32, u64> = HashMap::new();
    m.insert(1, 2);
    m.values().sum()
}

pub fn lookup_only(k: u32) -> Option<u64> {
    let mut m: HashMap<u32, u64> = HashMap::new();
    m.insert(k, 7);
    m.get(&k).copied()
}
"#,
    )]);
    let manifest = Manifest::parse("result-path crates/simx\n").unwrap();
    let a = analyze(&ws, &manifest);
    let syms = passes(&a, "determinism");
    assert!(
        syms.iter().any(|s| s.ends_with("::iterates")),
        "HashMap iteration with RandomState missed: {syms:?}"
    );
    assert!(
        !syms.iter().any(|s| s.ends_with("::lookup_only")),
        "pure-lookup HashMap falsely flagged (deterministic)"
    );
}

#[test]
fn panic_pass_enforces_zero_budget_and_reports_the_reachable_surface() {
    let ws = Workspace::from_sources(&[(
        "crates/simx/src/eng.rs",
        r#"
struct Eng {
    xs: Vec<u64>,
    n: u64,
}

impl Eng {
    fn helper(&self, o: Option<u64>) -> u64 {
        o.unwrap()
    }

    pub fn run_loop(&mut self) -> u64 {
        self.n += 1;
        let first = self.xs[0];
        first + self.helper(Some(3))
    }

    pub fn total(&self) -> u64 {
        self.xs.first().copied().unwrap_or(0)
    }
}
"#,
    )]);
    let manifest = Manifest::parse("deny-panic eng.rs::Eng::run_loop\n").unwrap();
    let a = analyze(&ws, &manifest);
    let findings: Vec<_> = a
        .report
        .findings
        .iter()
        .filter(|f| f.pass == "panic")
        .collect();
    // Tier 1: the root's own counter bump and indexing.
    assert!(
        findings
            .iter()
            .any(|f| f.symbol.ends_with("::run_loop") && f.detail.contains("counter-bump")),
        "counter bump in zero-budget root missed"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.symbol.ends_with("::run_loop") && f.detail.contains("(index)")),
        "indexing in zero-budget root missed"
    );
    // Tier 2: the unwrap-bearing callee is on the surface.
    assert!(
        findings
            .iter()
            .any(|f| f.symbol.ends_with("::helper") && f.detail.contains("panic surface")),
        "reachable panicky callee missed: {findings:?}"
    );
    // The total function is not reachable from the root and stays clean.
    assert!(!findings.iter().any(|f| f.symbol.ends_with("::total")));
}

#[test]
fn panic_pass_exempts_test_and_debug_only_code() {
    let ws = Workspace::from_sources(&[(
        "crates/simx/src/dbg.rs",
        r#"
pub fn run_loop(xs: &[u64]) -> u64 {
    let v = xs.first().copied().unwrap_or(0);
    sanity(xs);
    v
}

#[cfg(debug_assertions)]
fn sanity(xs: &[u64]) {
    assert!(xs.len() < 1000, "absurd input");
}

#[cfg(not(debug_assertions))]
fn sanity(_xs: &[u64]) {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::run_loop(&[1]).to_string().parse::<u64>().unwrap();
    }
}
"#,
    )]);
    let manifest = Manifest::parse("deny-panic dbg.rs::run_loop\n").unwrap();
    let a = analyze(&ws, &manifest);
    assert!(
        a.report.findings.iter().all(|f| f.pass != "panic"),
        "debug-only assert or test unwrap leaked into the panic surface: {:?}",
        a.report.findings
    );
}

/// Only a positive `cfg(debug_assertions)` gate exempts a function: its
/// release-only `cfg(not(debug_assertions))` twin ships, so an index site
/// in it is on the root's panic surface.
#[test]
fn panic_pass_keeps_release_only_code_on_the_surface() {
    let ws = Workspace::from_sources(&[(
        "crates/simx/src/rel.rs",
        r#"
pub fn run_loop(xs: &[u64]) -> u64 {
    let v = xs.first().copied().unwrap_or(0);
    sanity(xs);
    v
}

#[cfg(debug_assertions)]
fn sanity(xs: &[u64]) {
    assert!(xs.len() < 1000, "absurd input");
}

#[cfg(not(debug_assertions))]
fn sanity(xs: &[u64]) {
    let _ = xs[0];
}
"#,
    )]);
    let manifest = Manifest::parse("deny-panic rel.rs::run_loop\n").unwrap();
    let a = analyze(&ws, &manifest);
    let surface: Vec<_> = a
        .report
        .findings
        .iter()
        .filter(|f| f.pass == "panic" && f.symbol.ends_with("::sanity"))
        .collect();
    assert!(
        surface.iter().any(|f| f.detail.contains("index")),
        "the release-only twin's index site escaped the panic pass: {:?}",
        a.report.findings
    );
    assert!(
        !surface.iter().any(|f| f.detail.contains("assert")),
        "the debug-only twin's assert leaked into the panic surface: {surface:?}"
    );
}

#[test]
fn lockorder_rejects_cycles_and_accepts_consistent_order() {
    let cyclic = Workspace::from_sources(&[(
        "crates/kernelx/src/srv.rs",
        r#"
use std::sync::Mutex;

pub struct Srv {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Srv {
    pub fn forward(&self) -> u32 {
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        *a + *b
    }

    pub fn backward(&self) -> u32 {
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        *a - *b
    }
}
"#,
    )]);
    let manifest = Manifest::parse("lock-path crates/kernelx\n").unwrap();
    let a = analyze(&cyclic, &manifest);
    let cycles: Vec<_> = a
        .report
        .findings
        .iter()
        .filter(|f| f.pass == "lock-order")
        .collect();
    assert_eq!(cycles.len(), 1, "expected one canonical cycle: {cycles:?}");
    assert!(cycles[0].symbol.contains("alpha") && cycles[0].symbol.contains("beta"));

    let consistent = Workspace::from_sources(&[(
        "crates/kernelx/src/srv.rs",
        r#"
use std::sync::Mutex;

pub struct Srv {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Srv {
    pub fn forward(&self) -> u32 {
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        *a + *b
    }

    pub fn also_forward(&self) -> u32 {
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        *a * *b
    }
}
"#,
    )]);
    let a = analyze(&consistent, &manifest);
    assert!(
        a.report.findings.iter().all(|f| f.pass != "lock-order"),
        "consistent order falsely reported as a cycle"
    );
}

#[test]
fn lockorder_sees_cycles_through_the_call_graph() {
    let ws = Workspace::from_sources(&[(
        "crates/kernelx/src/srv.rs",
        r#"
use std::sync::Mutex;

pub struct Srv {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Srv {
    fn take_beta(&self) -> u32 {
        *self.beta.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn forward(&self) -> u32 {
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        *a + self.take_beta()
    }

    pub fn backward(&self) -> u32 {
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        *a - *b
    }
}
"#,
    )]);
    let manifest = Manifest::parse("lock-path crates/kernelx\n").unwrap();
    let a = analyze(&ws, &manifest);
    assert!(
        a.report.findings.iter().any(|f| f.pass == "lock-order"),
        "interprocedural alpha->beta / beta->alpha cycle missed: {:?}",
        a.report.findings
    );
}

#[test]
fn allow_waivers_suppress_findings_and_unused_ones_are_reported() {
    let src = (
        "crates/simx/src/a.rs",
        "use std::time::Instant;\npub fn result_fn() -> f64 {\n    Instant::now().elapsed().as_secs_f64()\n}\n",
    );
    let manifest =
        Manifest::parse("result-path crates/simx\nallow determinism crates/simx/src/a.rs\n")
            .unwrap();
    let a = analyze(&Workspace::from_sources(&[src]), &manifest);
    assert!(
        a.report.findings.is_empty(),
        "waiver did not suppress: {:?}",
        a.report.findings
    );
    assert!(a.unused_allows.is_empty(), "used waiver reported as unused");

    let stale = Manifest::parse(
        "result-path crates/simx\nallow determinism crates/simx/src/a.rs\n\
         allow panic crates/simx/src/other.rs\n",
    )
    .unwrap();
    let a = analyze(&Workspace::from_sources(&[src]), &stale);
    assert_eq!(
        a.unused_allows,
        vec![("panic".to_owned(), "crates/simx/src/other.rs".to_owned())],
        "stale waiver not reported"
    );
}
