//! Workspace tooling.
//!
//! Five subcommands:
//!
//! * `cargo run -p xtask -- ci` — the full local gate, nine stages: fmt,
//!   clippy, `lint`, `analyze`, release build, workspace tests, the
//!   crash-recovery smoke test, examples (the workspace examples, then the
//!   `examples/benchmark` package's release build and unit tests, then
//!   one-second runs of its four workloads whose `result_digest`s must be
//!   those in `DIGESTS`) and `bench-check`, each
//!   wall-clock-timed with a summary table at the end.
//!   `ci.sh` and the GitHub Actions workflow both delegate here, so the
//!   shell script and the hosted pipeline cannot drift. `--skip a,b`
//!   skips stages by name (unknown names are hard errors); `--json PATH`
//!   additionally writes the per-stage timing table as
//!   `xtask-ci-times/v1` JSON, which every CI job uploads as an
//!   artifact.
//! * `cargo run -p xtask -- bench-check` — the golden gate: delegates to
//!   `figures check` (crates/bench), the single check of every committed
//!   artifact, whose one rule is exact reproduction. It regenerates every
//!   `BENCH_*.json` (Figures 6–8 in `BENCH_paper_figures.json`, the four
//!   single-fault soaks, the tenant soak, the chaos campaign and both
//!   executors' operation ledger in `BENCH_ops.json`) and requires every
//!   member but provenance exactly, naming each member that differs, and
//!   every table, trace and sweep in `results/` byte for byte, naming
//!   each divergence by file, row and column. It holds each to its
//!   invariants (no policy-blamed miss, inactive plans bit-exact, tenant
//!   isolation, campaign availability, ops/event flat from 8 to 128 tasks
//!   in each executor; nothing is timed), and replays the committed repro
//!   `results/repro_availability_floor.json` to its bit-identical
//!   violation. `figures run` regenerates all of them but the repro.
//! * `cargo run -p xtask -- repro [FILE]` — replays a minimized chaos
//!   repro (`rtdvs-repro/v1`, default
//!   `results/repro_availability_floor.json`) via `figures repro` and
//!   requires the bit-identical audit violation it pins; `--write`
//!   re-shrinks the known-violating campaign and rewrites the artifact.
//! * `cargo run -p xtask -- analyze` — the static-analysis gate:
//!   delegates to `rtdvs-analyzer` (lexer, item/call graph, and the
//!   determinism / panic-reachability / lock-order passes, configured by
//!   `xtask/analyzer-manifest.txt`), renders the `rtdvs-analysis/v1`
//!   report, and compares it byte-for-byte against the checked-in
//!   `analysis.json` baseline. `--write` regenerates the baseline after
//!   an intentional change. Unused manifest waivers are hard errors.
//! * `cargo run -p xtask -- lint` — repo-specific source lints that
//!   clippy cannot express. The line scanners run over
//!   `rtdvs_analyzer::lexer::sanitized_lines` — the shared lexer blanks
//!   comments, char literals, and string interiors (including raw
//!   strings and nested block comments, which the old per-line stripper
//!   mis-lexed) while preserving byte columns:
//!
//! - `no-unwrap` — `.unwrap()` (or `.expect("")` with an empty message) in
//!   `crates/core` non-test code. Library code must propagate `Result` or
//!   `expect` with a message that states the violated precondition.
//! - `float-eq` — raw `==`/`!=` between `f64` quantities outside
//!   `crates/core/src/time.rs` (the one module allowed to define the
//!   comparison semantics). Use `approx_eq`/`EPS`.
//! - `policy-demand` — a policy feeding raw `as_ms()` arithmetic into
//!   `point_at_least` instead of going through `point_for_demand`, which
//!   handles the no-work and zero-horizon corners.
//! - `must-use-point` — a `pub fn` returning `PointIdx` without
//!   `#[must_use]`: dropping a computed operating point is always a bug.
//! - `kernel-expect` — `.expect(` in `crates/kernel` non-test code. The
//!   kernel layer is the OS surface: it must degrade (shed, renegotiate,
//!   recover poisoned locks), never panic on a runtime condition.
//! - `bounded-retry` — retry machinery in `crates/kernel` or
//!   `crates/platform` non-test code that hides its attempt bound: a bare
//!   `loop {` wrapped around attempt/retry logic (the bound, if any, is a
//!   runtime condition), or a `for … in 0..N` retry loop capped by a
//!   magic number instead of a named const. Hardware that can fail
//!   forever must be retried a compile-visible number of times
//!   (`MAX_TRANSITION_ATTEMPTS`-style) with backoff, then fall back.
//! - `mode-change-mutation` — direct mutation of the kernel's entry table
//!   (`entries.push(`, `entries.remove(`, ...) in `crates/kernel`
//!   non-test code outside `modechange.rs`. The transaction module owns
//!   the only admit/retire primitives (`insert_entry`/`take_entry`) so
//!   every task-set change flows through the planned, logged, epoch-
//!   stamped path; mutating the table anywhere else bypasses the
//!   schedulability re-validation.
//! - `tenant-budget-mutation` — direct assignment to a tenant lane's
//!   `budget_remaining` in `crates/kernel` non-test code outside
//!   `tenants.rs`. The replenishment/dispatch path is the only place a
//!   tenant's per-period budget may change; writing it anywhere else
//!   hands a tenant CPU time its quota never reserved and silently
//!   breaks temporal isolation.
//! - `time-base-mutation` — raw kernel-time writes (`.now = …`,
//!   `.now += …`) or raw tick arithmetic (`tick_of(`) in `crates/kernel`
//!   non-test code outside `timebase.rs`. The time-base module owns the
//!   only clock-advance path: it applies the monotonicity clamp, feeds
//!   the EWMA drift estimator, runs the stalled-tick watchdog, and logs
//!   `ClockJumpClamped`/`ClockTickGap`. A raw write anywhere else can
//!   move kernel time backwards (breaking the audit's monotonicity
//!   rule) or skip the drift accounting that sizes the slack margins.
//! - `seed-discipline` — `SplitMix64::seed_from_u64(<literal>)` in
//!   non-test code. Every production stream must derive from a
//!   caller-supplied root seed (`cfg.seed`, `plan.seed`, a saved
//!   `state()` word) via `split`, so one seed replays the whole run and
//!   toggling one consumer cannot shift another's sequence. A literal
//!   seed buried mid-stack silently decouples that stream from the
//!   experiment seed — exactly the bug the chaos campaign's
//!   byte-identical-dimension property exists to rule out.
//!
//! Findings can be suppressed per file via `xtask/lint-allow.txt`
//! (`<rule> <path>` lines); the file must stay empty for `crates/core`.
//! An allowlist entry that no longer suppresses anything is itself an
//! error — stale waivers rot. Exits non-zero when any finding remains,
//! so CI can gate on it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// One lint hit, reported as `path:line: [rule] message`.
#[derive(Debug)]
struct Finding {
    path: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("analyze") => analyze(&args[1..]),
        Some("ci") => ci(&args[1..]),
        Some("bench-check") => figures_gate("check", &args[1..]),
        Some("repro") => figures_gate("repro", &args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint|analyze|ci|bench-check|repro>");
            ExitCode::from(2)
        }
    }
}

/// One stage of the CI gate: a name, the argvs it runs in order (always
/// `cargo` from the workspace root), then an in-process check, if any.
struct Stage {
    name: &'static str,
    runs: &'static [&'static [&'static str]],
    check: Option<fn() -> bool>,
}

/// The benchmark's manifest. It is a package of its own, outside the
/// workspace, so `cargo build --examples` does not reach it.
const BENCHMARK_MANIFEST: &str = "examples/benchmark/Cargo.toml";

/// `result_digest` of every benchmark workload at seed 1. The two engine
/// workloads hash the events, energy and misses of the six paper
/// policies, so they change exactly when a policy or the engine decides
/// differently: `soak128` on four 128-task sets, `paper-sweep` over the
/// Figs. 6–8 grid of 5- to 15-task sets through the sweep runner and the
/// task generator (both as listed in `examples/benchmark/README.md`).
/// The two kernel workloads hash what an `RtKernel` leaves behind:
/// `kernel-tenants` its log length and energy after an hour serving
/// tenants, with the served, shed and rejected requests and the response
/// times; `kernel-recovery` its log length, energy and restores after
/// checkpoints, crashes and policy swaps, with the last checkpoint's
/// checksum line, so a change to the `rtdvs-snapshot/v3` text moves it
/// (its value is in EXPERIMENTS.md § Checkpoint cost; the README still
/// lists the v1 one). A change that alters any of these on purpose
/// updates them and says why.
const DIGESTS: [(&str, &str); 4] = [
    ("soak128", "07acbb0d52b0ec60"),
    ("paper-sweep", "5796d6ee345d6b46"),
    ("kernel-tenants", "12a4add0089d7a83"),
    ("kernel-recovery", "c0a3d85c6fba1612"),
];

/// The full local gate, in dependency order. `lint` and `analyze` are
/// the in-process passes (no argv); everything else shells out to
/// cargo so the stages are exactly what a contributor would type.
const STAGES: [Stage; 9] = [
    Stage {
        name: "fmt",
        runs: &[&["fmt", "--all", "--check"]],
        check: None,
    },
    Stage {
        name: "clippy",
        runs: &[&["clippy", "--workspace", "--", "-D", "warnings"]],
        check: None,
    },
    Stage {
        name: "lint",
        runs: &[],
        check: Some(|| lint() == ExitCode::SUCCESS),
    },
    Stage {
        name: "analyze",
        runs: &[],
        check: Some(|| analyze(&[]) == ExitCode::SUCCESS),
    },
    Stage {
        name: "build",
        runs: &[&["build", "--workspace", "--release"]],
        check: None,
    },
    Stage {
        name: "test",
        runs: &[&["test", "--workspace", "-q"]],
        check: None,
    },
    Stage {
        name: "recovery-smoke",
        runs: &[&[
            "test",
            "-q",
            "--release",
            "-p",
            "rtdvs",
            "--test",
            "recovery",
        ]],
        check: None,
    },
    // The workspace examples, then the benchmark package: its binary in
    // the profile the benchmark runs it in, and its unit tests, so a
    // change to an API it calls fails here rather than in a benchmark run;
    // then the decision digest guard on the binary just built.
    Stage {
        name: "examples",
        runs: &[
            &["build", "--examples"],
            &["build", "--release", "--manifest-path", BENCHMARK_MANIFEST],
            &[
                "test",
                "-q",
                "--release",
                "--manifest-path",
                BENCHMARK_MANIFEST,
            ],
        ],
        check: Some(digests_hold),
    },
    Stage {
        name: "bench-check",
        runs: &[&[
            "run",
            "-q",
            "--release",
            "-p",
            "rtdvs-bench",
            "--bin",
            "figures",
            "--",
            "check",
        ]],
        check: None,
    },
];

/// The decision digest guard: runs each workload in [`DIGESTS`] at seed 1
/// for one second, untraced, and requires exit 0 and its pinned
/// `result_digest`. A speed-only change to a policy, the RM test, the
/// engine, the runner, the task generator, the kernel or its snapshot
/// codec keeps them. Every workload runs, so one failure does not hide
/// another.
fn digests_hold() -> bool {
    let mut ok = true;
    for (workload, expected) in DIGESTS {
        let run = Command::new("cargo")
            .args([
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
            ])
            .arg(BENCHMARK_MANIFEST)
            .args(["--", "--workload", workload, "--seed", "1"])
            .args(["--seconds", "1", "--trace", "0"])
            .current_dir(repo_root())
            .output();
        let out = match run {
            Ok(out) => out,
            Err(e) => {
                eprintln!("cannot spawn cargo: {e}");
                return false;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let digest = stdout
            .lines()
            .find_map(|l| l.strip_prefix("result_digest "));
        if out.status.success() && digest == Some(expected) {
            println!("{workload} seed 1: result_digest {expected}");
            continue;
        }
        eprint!("{stdout}{}", String::from_utf8_lossy(&out.stderr));
        eprintln!(
            "{workload} seed 1: {}, result_digest {} (expected {expected}): \
             the workload's decisions or outputs changed",
            out.status,
            digest.unwrap_or("missing"),
        );
        ok = false;
    }
    ok
}

/// Runs the full offline gate with per-stage wall-clock timing and a
/// summary table. Stops at the first failing stage (later stages would
/// only add noise) but always prints the table.
fn ci(args: &[String]) -> ExitCode {
    let mut skip: Vec<String> = Vec::new();
    let mut json_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--skip" => {
                let Some(list) = it.next() else {
                    eprintln!("--skip needs a comma-separated stage list");
                    return ExitCode::from(2);
                };
                skip.extend(list.split(',').map(|s| s.trim().to_owned()));
            }
            "--json" => {
                let Some(path) = it.next() else {
                    eprintln!("--json needs an output path");
                    return ExitCode::from(2);
                };
                json_out = Some(PathBuf::from(path));
            }
            other => {
                eprintln!("unknown `ci` argument {other}");
                eprintln!("usage: cargo run -p xtask -- ci [--skip stage1,stage2] [--json PATH]");
                eprintln!(
                    "stages: {}",
                    STAGES.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    // A typo'd --skip silently running the stage it meant to skip (or
    // silently skipping nothing) has bitten before: unknown names are
    // hard errors, not notes.
    let unknown: Vec<&String> = skip
        .iter()
        .filter(|name| !STAGES.iter().any(|s| s.name == name.as_str()))
        .collect();
    if !unknown.is_empty() {
        for name in &unknown {
            eprintln!("error: --skip {name} matches no stage");
        }
        eprintln!(
            "valid stages: {}",
            STAGES.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
        );
        return ExitCode::from(2);
    }

    let root = repo_root();
    let mut results: Vec<(&'static str, &'static str, f64)> = Vec::new();
    let mut failed = false;
    let total = Instant::now();
    for stage in &STAGES {
        if skip.iter().any(|s| s == stage.name) {
            results.push((stage.name, "skipped", 0.0));
            continue;
        }
        println!("==> {}", stage.name);
        let start = Instant::now();
        let ok = stage.runs.iter().all(|args| {
            match Command::new("cargo")
                .args(*args)
                .current_dir(&root)
                .status()
            {
                Ok(status) => status.success(),
                Err(e) => {
                    eprintln!("cannot spawn cargo: {e}");
                    false
                }
            }
        }) && stage.check.is_none_or(|check| check());
        let secs = start.elapsed().as_secs_f64();
        results.push((stage.name, if ok { "ok" } else { "FAILED" }, secs));
        if !ok {
            failed = true;
            break;
        }
    }

    println!("\n  stage         result    wall");
    println!("  ------------  --------  --------");
    for (name, outcome, secs) in &results {
        println!("  {name:<12}  {outcome:<8}  {secs:7.1}s");
    }
    println!("  ------------  --------  --------");
    println!(
        "  total                   {:7.1}s",
        total.elapsed().as_secs_f64()
    );
    if let Some(path) = &json_out {
        let json = stage_times_json(&results, total.elapsed().as_secs_f64(), failed);
        if let Err(e) = fs::write(path, json) {
            eprintln!("cannot write stage timings to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  stage timings written to {}", path.display());
    }
    if failed {
        println!("\nCI gate FAILED.");
        ExitCode::FAILURE
    } else {
        println!("\nCI gate green.");
        ExitCode::SUCCESS
    }
}

/// Renders the per-stage timing table as JSON (`xtask-ci-times/v1`) for
/// the `--json` flag; every CI job uploads this so stage-level slowdowns
/// show up as artifact diffs, not anecdotes.
fn stage_times_json(results: &[(&str, &str, f64)], total_secs: f64, failed: bool) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{{\n  \"schema\": \"xtask-ci-times/v1\",");
    let _ = writeln!(s, "  \"ok\": {},", !failed);
    let _ = writeln!(s, "  \"total_secs\": {total_secs:.3},");
    let _ = writeln!(s, "  \"stages\": [");
    for (i, (name, outcome, secs)) in results.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"result\": \"{outcome}\", \"secs\": {secs:.3}}}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]\n}}");
    s
}

/// Delegates to an artifact gate in `rtdvs-bench` (`figures check` or
/// `figures repro`), forwarding any extra arguments (e.g.
/// `--golden-dir some/dir`).
fn figures_gate(command: &str, args: &[String]) -> ExitCode {
    let status = Command::new("cargo")
        .args([
            "run",
            "-q",
            "--release",
            "-p",
            "rtdvs-bench",
            "--bin",
            "figures",
            "--",
            command,
        ])
        .args(args)
        .current_dir(repo_root())
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cannot spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

fn repo_root() -> PathBuf {
    // xtask lives at <root>/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits one level below the workspace root")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let root = repo_root();
    let ws = match rtdvs_analyzer::Workspace::load(&root, &["crates", "src"]) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("xtask lint: cannot load workspace sources: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut findings = Vec::new();
    for file in &ws.files {
        findings.extend(scan_source(&file.path, &file.text));
    }

    let allow = load_allowlist(&root.join("xtask/lint-allow.txt"));
    let mut used = vec![false; allow.len()];
    findings.retain(|f| {
        for (i, (rule, path)) in allow.iter().enumerate() {
            if rule == f.rule && path == &f.path {
                used[i] = true;
                return false;
            }
        }
        true
    });
    let mut stale = false;
    for (i, (rule, path)) in allow.iter().enumerate() {
        if !used[i] {
            eprintln!(
                "error: unused allowlist entry `{rule} {path}` in xtask/lint-allow.txt; \
                 the finding it suppressed is gone — delete the entry"
            );
            stale = true;
        }
    }

    if findings.is_empty() {
        println!("xtask lint: clean ({} files)", ws.files.len());
        return if stale {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    for f in &findings {
        println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.msg);
    }
    println!("xtask lint: {} finding(s)", findings.len());
    ExitCode::FAILURE
}

/// Lexes one source file and runs every line rule over its sanitized
/// lines. Shared by `lint()` and the regression tests below.
fn scan_source(rel: &str, source: &str) -> Vec<Finding> {
    let tokens = rtdvs_analyzer::lexer::lex(source);
    let sanitized = rtdvs_analyzer::lexer::sanitized_lines(source, &tokens);
    let mut findings = Vec::new();
    scan_file(rel, source, &sanitized, &mut findings);
    findings
}

/// The static-analysis gate: run `rtdvs-analyzer` over the workspace,
/// fail on unused manifest waivers, and hold the report byte-exact
/// against the checked-in `analysis.json` (or regenerate it with
/// `--write`).
fn analyze(args: &[String]) -> ExitCode {
    let mut write = false;
    for a in args {
        match a.as_str() {
            "--write" => write = true,
            other => {
                eprintln!("unknown `analyze` argument {other}");
                eprintln!("usage: cargo run -p xtask -- analyze [--write]");
                return ExitCode::from(2);
            }
        }
    }
    let root = repo_root();
    let ws = match rtdvs_analyzer::Workspace::load(&root, &["crates", "src"]) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("xtask analyze: cannot load workspace sources: {e}");
            return ExitCode::FAILURE;
        }
    };
    let manifest =
        match rtdvs_analyzer::manifest::Manifest::load(&root.join("xtask/analyzer-manifest.txt")) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("xtask analyze: {e}");
                return ExitCode::FAILURE;
            }
        };
    let analysis = rtdvs_analyzer::analyze(&ws, &manifest);

    let mut failed = false;
    for (pass, path) in &analysis.unused_allows {
        eprintln!(
            "error: unused waiver `allow {pass} {path}` in xtask/analyzer-manifest.txt; \
             the finding it suppressed is gone — delete the waiver"
        );
        failed = true;
    }

    let json = analysis.report.to_json();
    let baseline_path = root.join("analysis.json");
    if write {
        if let Err(e) = fs::write(&baseline_path, &json) {
            eprintln!(
                "xtask analyze: cannot write {}: {e}",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "xtask analyze: wrote {} ({} finding(s))",
            baseline_path.display(),
            analysis.report.findings.len()
        );
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let baseline = fs::read_to_string(&baseline_path).unwrap_or_default();
    if baseline != json {
        eprintln!("xtask analyze: report differs from the checked-in analysis.json baseline.");
        report_baseline_diff(&baseline, &json);
        eprintln!(
            "If the change is intentional, regenerate with \
             `cargo run -p xtask -- analyze --write` and commit the result."
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "xtask analyze: baseline exact ({} files, {} functions, {} finding(s))",
            analysis.report.files,
            analysis.report.functions,
            analysis.report.findings.len()
        );
        ExitCode::SUCCESS
    }
}

/// Prints the finding lines present on only one side of a baseline
/// mismatch — enough to act on without a JSON diff tool.
fn report_baseline_diff(baseline: &str, current: &str) {
    let pick = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.trim_start().starts_with("{ \"pass\""))
            .map(str::to_owned)
            .collect()
    };
    let old = pick(baseline);
    let new = pick(current);
    for l in new.iter().filter(|l| !old.contains(l)) {
        eprintln!("  new finding: {}", l.trim().trim_end_matches(','));
    }
    for l in old.iter().filter(|l| !new.contains(l)) {
        eprintln!("  gone from baseline: {}", l.trim().trim_end_matches(','));
    }
}

fn load_allowlist(path: &Path) -> Vec<(String, String)> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((it.next()?.to_owned(), it.next()?.to_owned()))
        })
        .collect()
}

fn scan_file(rel: &str, source: &str, sanitized: &[String], findings: &mut Vec<Finding>) {
    let in_core = rel.starts_with("crates/core/");
    let in_kernel = rel.starts_with("crates/kernel/");
    let in_platform = rel.starts_with("crates/platform/");
    let is_time = rel == "crates/core/src/time.rs";
    let in_policy = rel.starts_with("crates/core/src/policy/") && !rel.ends_with("/mod.rs");
    let lines: Vec<&str> = source.lines().collect();

    // Depth > 0 means we are inside a `#[cfg(test)]` item and skip it;
    // `armed` bridges the gap between the attribute and its `{`. The
    // attribute is matched on the sanitized line, so `#[cfg(test)]`
    // inside a comment or string does not arm the skip.
    let mut test_depth = 0usize;
    let mut armed = false;
    for idx in 0..lines.len() {
        let line = sanitized.get(idx).map_or("", |s| s.as_str());
        if line.contains("#[cfg(test)]") {
            armed = true;
            continue;
        }
        if armed || test_depth > 0 {
            let opens = line.matches('{').count();
            let closes = line.matches('}').count();
            if armed && opens > 0 {
                armed = false;
            }
            test_depth = (test_depth + opens).saturating_sub(closes);
            if test_depth > 0 || armed {
                continue;
            }
            continue; // the line that closed the test item
        }
        let n = idx + 1;

        if in_core {
            if line.contains(".unwrap()") {
                findings.push(Finding {
                    path: rel.to_owned(),
                    line: n,
                    rule: "no-unwrap",
                    msg: "`.unwrap()` in library code; return Result or `.expect(\"why\")`"
                        .to_owned(),
                });
            }
            if line.contains(".expect(\"\")") {
                findings.push(Finding {
                    path: rel.to_owned(),
                    line: n,
                    rule: "no-unwrap",
                    msg: "`.expect(\"\")` without a message; state the violated precondition"
                        .to_owned(),
                });
            }
        }

        if in_kernel && line.contains(".expect(") {
            findings.push(Finding {
                path: rel.to_owned(),
                line: n,
                rule: "kernel-expect",
                msg: "`.expect(` in the kernel layer; degrade or recover instead of panicking \
                      (see server.rs's lock_recovering)"
                    .to_owned(),
            });
        }

        if in_kernel || in_platform {
            check_bounded_retry(rel, sanitized, idx, line, findings);
        }

        if in_kernel && !rel.ends_with("/modechange.rs") {
            for method in [
                "push(",
                "insert(",
                "remove(",
                "retain(",
                "swap_remove(",
                "truncate(",
                "drain(",
                "clear(",
            ] {
                if line.contains(&format!("entries.{method}")) {
                    findings.push(Finding {
                        path: rel.to_owned(),
                        line: n,
                        rule: "mode-change-mutation",
                        msg: format!(
                            "direct entry-table mutation `entries.{method}...)` outside the \
                             transaction module; go through insert_entry/take_entry \
                             (modechange.rs) so the change is planned, logged, and \
                             epoch-stamped"
                        ),
                    });
                }
            }
        }

        if in_kernel && !rel.ends_with("/timebase.rs") {
            check_time_base_mutation(rel, idx, line, findings);
        }

        if in_kernel && !rel.ends_with("/tenants.rs") {
            if let Some(pos) = line.find("budget_remaining") {
                let rest = line[pos + "budget_remaining".len()..].trim_start();
                if rest.starts_with("+=")
                    || rest.starts_with("-=")
                    || (rest.starts_with('=') && !rest.starts_with("=="))
                {
                    findings.push(Finding {
                        path: rel.to_owned(),
                        line: n,
                        rule: "tenant-budget-mutation",
                        msg: "direct write to a tenant lane's `budget_remaining` outside \
                              tenants.rs; only the replenishment/dispatch path may change a \
                              tenant's per-period budget — anything else hands out CPU time \
                              the quota never reserved"
                            .to_owned(),
                    });
                }
            }
        }

        if !is_time {
            for (op_at, op_len) in float_cmp_sites(line) {
                let lhs = token_before(line, op_at);
                let rhs = token_after(line, op_at + op_len);
                if is_floaty(lhs) || is_floaty(rhs) {
                    findings.push(Finding {
                        path: rel.to_owned(),
                        line: n,
                        rule: "float-eq",
                        msg: format!(
                            "raw float comparison `{lhs} {} {rhs}`; use approx_eq/EPS",
                            &line[op_at..op_at + op_len]
                        ),
                    });
                }
            }
        }

        if in_policy && line.contains("point_at_least(") && line.contains("as_ms()") {
            findings.push(Finding {
                path: rel.to_owned(),
                line: n,
                rule: "policy-demand",
                msg: "raw as_ms() ratio fed to point_at_least; use point_for_demand".to_owned(),
            });
        }

        check_seed_discipline(rel, idx, line, findings);

        if line.contains("pub fn") && !line.contains("fn main") {
            check_must_use(rel, &lines, idx, findings);
        }
    }
}

/// Flags raw kernel-time writes or raw tick arithmetic outside the
/// time-base module: writes to a `.now` field (`=`, `+=`, `-=`) bypass
/// the monotonicity clamp and the drift estimator, and `tick_of(` calls
/// outside `timebase.rs` duplicate the tick quantization the time base
/// owns. Reads (`let now = self.now;`, `x.now == y`) are fine.
fn check_time_base_mutation(rel: &str, idx: usize, line: &str, findings: &mut Vec<Finding>) {
    const FIELD: &str = ".now";
    let mut from = 0;
    while let Some(pos) = line[from..].find(FIELD) {
        let after = from + pos + FIELD.len();
        from = after;
        // `.now_tick` and friends are different fields.
        if line[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            continue;
        }
        let rest = line[after..].trim_start();
        if rest.starts_with("+=")
            || rest.starts_with("-=")
            || (rest.starts_with('=') && !rest.starts_with("=="))
        {
            findings.push(Finding {
                path: rel.to_owned(),
                line: idx + 1,
                rule: "time-base-mutation",
                msg: "direct write to the kernel clock outside timebase.rs; only the \
                      time-base module may advance time — it applies the monotonicity \
                      clamp, the EWMA drift estimator, and the stalled-tick watchdog"
                    .to_owned(),
            });
        }
    }
    if line.contains("tick_of(") {
        findings.push(Finding {
            path: rel.to_owned(),
            line: idx + 1,
            rule: "time-base-mutation",
            msg: "raw tick arithmetic (`tick_of(`) outside timebase.rs; the time-base \
                  module owns tick quantization — go through its accessors so gap \
                  recovery and catch-up stay consistent"
                .to_owned(),
        });
    }
}

/// Flags `SplitMix64::seed_from_u64(<literal>)` in non-test code: every
/// production stream must derive from a caller-supplied root seed via
/// `split`, so a single seed replays the whole run. (Test modules are
/// already skipped by the `#[cfg(test)]` scanner state.)
fn check_seed_discipline(rel: &str, idx: usize, line: &str, findings: &mut Vec<Finding>) {
    const CALL: &str = "SplitMix64::seed_from_u64(";
    let mut from = 0;
    while let Some(pos) = line[from..].find(CALL) {
        let arg_at = from + pos + CALL.len();
        from = arg_at;
        let arg = line[arg_at..].trim_start();
        if arg.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            findings.push(Finding {
                path: rel.to_owned(),
                line: idx + 1,
                rule: "seed-discipline",
                msg: "literal seed fed to SplitMix64::seed_from_u64; derive the stream from \
                      the experiment's root seed (cfg.seed / plan.seed / a saved state() word) \
                      via split so one seed replays the whole run"
                    .to_owned(),
            });
        }
    }
}

/// Byte offsets (and operator lengths) of `==`/`!=` sites in a line,
/// skipping `<=`, `>=`, and pattern-irrelevant `=`s.
fn float_cmp_sites(line: &str) -> Vec<(usize, usize)> {
    let bytes = line.as_bytes();
    let mut sites = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let pair = &bytes[i..i + 2];
        if pair == b"==" {
            let prev = i.checked_sub(1).map(|p| bytes[p]);
            let next = bytes.get(i + 2);
            let fused = matches!(prev, Some(b'=' | b'!' | b'<' | b'>')) || next == Some(&b'=');
            if !fused {
                sites.push((i, 2));
            }
            i += 2;
        } else if pair == b"!=" && bytes.get(i + 2) != Some(&b'=') {
            sites.push((i, 2));
            i += 2;
        } else {
            i += 1;
        }
    }
    sites
}

fn token_before(line: &str, op_at: usize) -> &str {
    let head = line[..op_at].trim_end();
    let start = head
        .rfind(|c: char| c.is_whitespace() || c == ',')
        .map_or(0, |p| p + 1);
    &head[start..]
}

fn token_after(line: &str, after_op: usize) -> &str {
    let tail = line[after_op..].trim_start();
    let end = tail
        .find(|c: char| c.is_whitespace() || c == ',')
        .unwrap_or(tail.len());
    &tail[..end]
}

/// Does this expression token read as an `f64` quantity?
fn is_floaty(token: &str) -> bool {
    for accessor in [".as_ms()", ".as_f64()", ".freq()", ".volt()"] {
        if token.ends_with(accessor) {
            return true;
        }
    }
    let trimmed = token
        .trim_start_matches(['(', '['])
        .trim_end_matches([')', ']', ';', '{', '}']);
    trimmed.contains('.') && trimmed.parse::<f64>().is_ok()
}

/// How far past a `loop {` the bounded-retry rule looks for retry
/// vocabulary before deciding the loop is retry machinery.
const RETRY_WINDOW_LINES: usize = 25;

/// Flags retry machinery whose attempt bound is not compile-visible:
/// a bare `loop {` whose body talks about attempts/retries (any exit is a
/// runtime condition — a wedged regulator spins it forever), or a
/// `for <attempt-ish> in 0..N` loop capped by a magic number rather than
/// a named const.
fn check_bounded_retry(
    rel: &str,
    sanitized: &[String],
    idx: usize,
    line: &str,
    findings: &mut Vec<Finding>,
) {
    if line.contains("loop {") {
        let end = sanitized.len().min(idx + 1 + RETRY_WINDOW_LINES);
        let retryish = sanitized[idx + 1..end]
            .iter()
            .map(|l| l.to_lowercase())
            .any(|l| l.contains("retry") || l.contains("attempt"));
        if retryish {
            findings.push(Finding {
                path: rel.to_owned(),
                line: idx + 1,
                rule: "bounded-retry",
                msg: "unbounded `loop {` around retry logic; cap it with \
                      `for attempt in 0..<NAMED_CONST>` plus backoff, then fall back"
                    .to_owned(),
            });
        }
        return;
    }
    let Some(rest) = line.trim_start().strip_prefix("for ") else {
        return;
    };
    let Some((var, tail)) = rest.split_once(" in ") else {
        return;
    };
    let v = var.trim().to_lowercase();
    if !(v.contains("attempt") || v.contains("retry")) {
        return;
    }
    let Some((_, bound)) = tail.split_once("..") else {
        return;
    };
    let bound = bound.trim_start_matches('=').trim_start();
    if bound.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        findings.push(Finding {
            path: rel.to_owned(),
            line: idx + 1,
            rule: "bounded-retry",
            msg: "retry loop capped by a magic number; name the cap as a const \
                  (MAX_TRANSITION_ATTEMPTS-style) so the bound is compile-visible"
                .to_owned(),
        });
    }
}

/// Flags a `pub fn` returning `PointIdx` that lacks `#[must_use]`.
/// Mutating methods (`&mut self`) are exempt: they are called for the
/// side effect, the returned point is advisory.
fn check_must_use(rel: &str, lines: &[&str], idx: usize, findings: &mut Vec<Finding>) {
    let mut sig = String::new();
    for line in lines.iter().skip(idx).take(8) {
        sig.push_str(line);
        sig.push(' ');
        if line.contains('{') || line.contains(';') {
            break;
        }
    }
    let Some(arrow) = sig.find("->") else {
        return;
    };
    let ret = &sig[arrow + 2..];
    if !ret.trim_start().starts_with("PointIdx") || sig.contains("&mut self") {
        return;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let above = lines[j].trim_start();
        if above.starts_with("#[") || above.starts_with("///") || above.starts_with("//") {
            if above.contains("must_use") {
                return;
            }
        } else {
            break;
        }
    }
    findings.push(Finding {
        path: rel.to_owned(),
        line: idx + 1,
        rule: "must-use-point",
        msg: "pub fn returning PointIdx lacks #[must_use]".to_owned(),
    });
}

#[cfg(test)]
mod tests {
    use super::scan_source;

    /// The retired per-line stripper treated the second line of a
    /// multi-line string literal as code; the shared lexer knows the
    /// string is still open.
    #[test]
    fn multiline_strings_do_not_leak_code_to_the_scanners() {
        let src = "fn f() -> String {\n    format!(\n        \"x == y.as_ms()\n         more text.unwrap()\"\n    )\n}\n";
        let findings = scan_source("crates/core/src/x.rs", src);
        assert!(
            findings.is_empty(),
            "string contents flagged: {:?}",
            findings.iter().map(|f| f.rule).collect::<Vec<_>>()
        );
    }

    /// Raw strings with embedded quotes flipped the old stripper's
    /// in-string state; everything after the inner `"` leaked as code.
    #[test]
    fn raw_strings_with_embedded_quotes_stay_opaque() {
        let src = "fn f() -> &'static str {\n    r#\"say \"hi\" then x.unwrap() == 1.0\"#\n}\n";
        let findings = scan_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "raw-string contents flagged");
    }

    /// The old stripper never handled block comments at all, let alone
    /// nested ones.
    #[test]
    fn nested_block_comments_are_blanked() {
        let src = "fn f() {\n    /* outer /* inner */ still comment: x.unwrap() */\n}\n";
        let findings = scan_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "block-comment contents flagged");
    }

    /// A `'"'` char literal put the old stripper into string mode and
    /// swallowed the rest of the line — hiding real violations.
    #[test]
    fn char_literal_quote_does_not_hide_violations() {
        let src = "fn f(o: Option<u32>) -> u32 {\n    let _c = '\"';\n    o.unwrap()\n}\n";
        let findings = scan_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1, "the unwrap after '\"' must be seen");
        assert_eq!(findings[0].rule, "no-unwrap");
        assert_eq!(findings[0].line, 3);
    }

    /// `#[cfg(test)]` in a doc comment must not arm the test-code skip.
    #[test]
    fn cfg_test_in_comments_does_not_arm_the_skip() {
        let src = "/// Mentions #[cfg(test)] in prose.\nfn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
        let findings = scan_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "no-unwrap");
    }

    /// A tenant budget written outside the dispatch module is flagged;
    /// a comparison is not.
    #[test]
    fn tenant_budget_writes_outside_tenants_rs_are_flagged() {
        let src = "fn f(lane: &mut Lane) {\n    lane.budget_remaining = Work::ZERO;\n}\n";
        let findings = scan_source("crates/kernel/src/kernel.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "tenant-budget-mutation");
        assert_eq!(findings[0].line, 2);

        let cmp = "fn f(lane: &Lane) -> bool {\n    lane.budget_remaining == Work::ZERO\n}\n";
        let findings = scan_source("crates/kernel/src/kernel.rs", cmp);
        assert!(
            findings.iter().all(|f| f.rule != "tenant-budget-mutation"),
            "comparison flagged: {findings:?}"
        );
    }

    /// The replenishment/dispatch module itself is the one place the
    /// budget may change.
    #[test]
    fn tenant_budget_writes_inside_tenants_rs_are_allowed() {
        let src = "fn f(lane: &mut Lane) {\n    lane.budget_remaining = lane.quota;\n}\n";
        let findings = scan_source("crates/kernel/src/tenants.rs", src);
        assert!(
            findings.iter().all(|f| f.rule != "tenant-budget-mutation"),
            "{findings:?}"
        );
    }

    /// A kernel-clock write outside the time-base module is flagged;
    /// reads, comparisons, and different `.now_*` fields are not.
    #[test]
    fn kernel_clock_writes_outside_timebase_rs_are_flagged() {
        let src = "fn f(k: &mut Kernel, t: Time) {\n    k.now = t;\n}\n";
        let findings = scan_source("crates/kernel/src/kernel.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "time-base-mutation");
        assert_eq!(findings[0].line, 2);

        let reads = "fn f(k: &Kernel) -> bool {\n    let now = k.now;\n    k.now == now\n}\n";
        let findings = scan_source("crates/kernel/src/kernel.rs", reads);
        assert!(
            findings.iter().all(|f| f.rule != "time-base-mutation"),
            "read flagged: {findings:?}"
        );

        let other_field = "fn f(w: &mut Wheel, t: u64) {\n    w.now_tick = t;\n}\n";
        let findings = scan_source("crates/kernel/src/kernel.rs", other_field);
        assert!(
            findings.iter().all(|f| f.rule != "time-base-mutation"),
            ".now_tick flagged: {findings:?}"
        );
    }

    /// Raw tick arithmetic outside timebase.rs is flagged; timebase.rs
    /// itself is the one module allowed to quantize time into ticks.
    #[test]
    fn raw_tick_arithmetic_outside_timebase_rs_is_flagged() {
        let src = "fn f(t: Time) -> u64 {\n    tick_of(t)\n}\n";
        let findings = scan_source("crates/kernel/src/kernel.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "time-base-mutation");

        let findings = scan_source("crates/kernel/src/timebase.rs", src);
        assert!(
            findings.iter().all(|f| f.rule != "time-base-mutation"),
            "timebase.rs flagged: {findings:?}"
        );
    }

    /// A literal seed in non-test code decouples that stream from the
    /// experiment seed; a seed threaded from the caller is fine.
    #[test]
    fn literal_seeds_outside_tests_are_flagged() {
        let src = "fn f() -> SplitMix64 {\n    SplitMix64::seed_from_u64(0x5eed)\n}\n";
        let findings = scan_source("crates/bench/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "seed-discipline");
        assert_eq!(findings[0].line, 2);

        let threaded =
            "fn f(seed: u64) -> SplitMix64 {\n    SplitMix64::seed_from_u64(seed).split(3)\n}\n";
        let findings = scan_source("crates/bench/src/x.rs", threaded);
        assert!(
            findings.iter().all(|f| f.rule != "seed-discipline"),
            "threaded seed flagged: {findings:?}"
        );
    }

    /// Test modules may pin literal seeds — the cfg(test) skip covers
    /// the rule like every other scanner.
    #[test]
    fn literal_seeds_in_test_modules_are_allowed() {
        let src = "#[cfg(test)]\nmod tests {\n    fn rng() -> SplitMix64 {\n        SplitMix64::seed_from_u64(42)\n    }\n}\n";
        let findings = scan_source("crates/sim/src/x.rs", src);
        assert!(
            findings.iter().all(|f| f.rule != "seed-discipline"),
            "{findings:?}"
        );
    }

    /// Real test modules are still skipped.
    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(o: Option<u32>) {\n        o.unwrap();\n    }\n}\n";
        let findings = scan_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "test-module unwrap flagged");
    }
}
