//! Seeded fuzz of the text readers: those `figures check` trusts with
//! committed text (the `rtdvs-repro/v1` reader with its replay, the
//! `results/` value diff, and the `BENCH_*.json` artifact readers with
//! their layout check and golden diff), the task-file parser of the CLI
//! tools and the kernel's procfs command interface.
//!
//! Each mutant is one or two SplitMix64 edits of a text: truncation, a
//! bit flip, a token swap, a duplicated or deleted line, or (twice as
//! likely) a number or `*_bits` value replaced by a hostile one. The
//! contract is never to panic: a repro is rejected with a typed error or
//! replays to a verdict within the horizon cap, a mutated results file is
//! either reproduced or named line by line, an artifact is rejected or
//! writes text that reads back, a task file parses to valid tasks or to
//! a `TaskFileError`, and a procfs command replies with a value, an `ok…`
//! or an `err: …`, while the session's kernel keeps a log that audits
//! clean of all but deadline misses and checkpoints and restores to an
//! equal log.

use std::path::Path;

use rtdvs::audit::{audit_kernel_log, Rule};
use rtdvs::core::task::Task;
use rtdvs::kernel::procfs::execute;
use rtdvs::kernel::Snapshot;
use rtdvs::taskgen::SplitMix64;
use rtdvs::{Machine, PolicyKind, RtKernel};
use rtdvs_bench::campaign::MAX_REPRO_HORIZON_MS;
use rtdvs_bench::figures::diff_results_file;
use rtdvs_bench::taskfile::parse_task_set;
use rtdvs_bench::{
    replay_repro, Artifact, BenchArtifact, CampaignArtifact, Json, OpsArtifact, ReproArtifact,
    TenantsArtifact,
};

/// The committed minimized repro.
const REPRO: &str = include_str!("../results/repro_availability_floor.json");

/// Replacement values: NaN, ±∞, −0, `u64::MAX` and huge numbers, as
/// decimal text and as IEEE-754 bit patterns.
const HOSTILE: [&str; 16] = [
    "NaN",
    "inf",
    "-inf",
    "-0",
    "1e999",
    "1e300",
    "18446744073709551615",
    "",
    "7ff8000000000000",
    "7ff0000000000000",
    "fff0000000000000",
    "8000000000000000",
    "ffffffffffffffff",
    "7fefffffffffffff",
    "4415af1d78b58c40",
    "0000000000000001",
];

fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

/// One mutation of `text`, whose tokens are separated by `sep`.
fn mutate(text: &str, sep: char, rng: &mut SplitMix64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    if lines.is_empty() {
        return text.to_owned();
    }
    let at = pick(rng, lines.len());
    match rng.next_u64() % 8 {
        0 => {
            let mut cut = pick(rng, text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_owned();
        }
        1 => {
            let mut bytes = lines[at].clone().into_bytes();
            if !bytes.is_empty() {
                let i = pick(rng, bytes.len());
                bytes[i] ^= 1 << (rng.next_u64() % 8);
            }
            lines[at] = String::from_utf8_lossy(&bytes).into_owned();
        }
        2 => {
            let mut toks: Vec<&str> = lines[at].split(sep).collect();
            let (a, b) = (pick(rng, toks.len()), pick(rng, toks.len()));
            toks.swap(a, b);
            lines[at] = toks.join(&sep.to_string());
        }
        3 => {
            let dup = lines[at].clone();
            lines.insert(at, dup);
        }
        4 => {
            lines.remove(at);
        }
        _ => {
            // A token holding a digit, with its quotes and trailing
            // punctuation kept.
            let mut toks: Vec<String> = lines[at].split(sep).map(str::to_owned).collect();
            let numeric: Vec<usize> = (0..toks.len())
                .filter(|&i| toks[i].bytes().any(|b| b.is_ascii_digit()))
                .collect();
            if !numeric.is_empty() {
                let tok = &mut toks[numeric[pick(rng, numeric.len())]];
                let core = tok.trim_end_matches([',', '}', ']']).trim_matches('"');
                let value = HOSTILE[pick(rng, HOSTILE.len())];
                *tok = tok.replacen(core, value, 1);
                lines[at] = toks.join(&sep.to_string());
            }
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// One or two mutations.
fn mutant(text: &str, sep: char, rng: &mut SplitMix64) -> String {
    let once = mutate(text, sep, rng);
    if rng.next_u64() & 1 == 0 {
        once
    } else {
        mutate(&once, sep, rng)
    }
}

/// `ReproArtifact::from_json` then `replay_repro` never panics, and every
/// accepted plan is within the horizon cap, so its replay ends.
#[test]
fn repro_mutants_never_panic_or_hang() {
    const MUTANTS: usize = 4000;
    let mut rng = SplitMix64::seed_from_u64(0x4E9_F022);
    let (mut accepted, mut replayed) = (0, 0);
    for i in 0..MUTANTS {
        let text = mutant(REPRO, ' ', &mut rng);
        let outcome = std::panic::catch_unwind(|| {
            let repro = ReproArtifact::from_json(&text).ok()?;
            let horizon = repro.plan.horizon_ms;
            assert!(horizon > 0.0 && horizon <= MAX_REPRO_HORIZON_MS);
            Some(replay_repro(&repro).is_ok())
        });
        match outcome {
            Ok(Some(ok)) => {
                accepted += 1;
                replayed += usize::from(ok);
            }
            Ok(None) => {}
            Err(_) => panic!("repro mutant {i} panicked:\n{text}"),
        }
    }
    println!(
        "{MUTANTS} repro mutants: {accepted} accepted, {replayed} replayed to the pinned violation"
    );
    assert!(accepted > 0 && accepted < MUTANTS);
}

/// Every committed results CSV or trace, mutated and compared with its
/// fresh text (which `figures check` pins to the committed bytes), yields
/// differences that each name the file and a line, and never panics.
/// Every mutant that changed a byte is named.
#[test]
fn results_mutants_are_named_never_panic() {
    const MUTANTS_PER_FILE: usize = 200;
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("results/ is committed")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "csv" || e == "txt"))
        .map(|p| {
            let name = p
                .file_name()
                .expect("a file")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read_to_string(&p).expect("readable file"))
        })
        .collect();
    files.sort();
    assert_eq!(files.len(), 25, "every table, trace and sweep");
    let mut rng = SplitMix64::seed_from_u64(0x2E5_0175);
    let (mut mutants, mut named) = (0, 0);
    for (name, fresh) in &files {
        let csv = name.ends_with(".csv");
        for _ in 0..MUTANTS_PER_FILE {
            let golden = mutant(fresh, if csv { ',' } else { ' ' }, &mut rng);
            let problems = std::panic::catch_unwind(|| diff_results_file(name, &golden, fresh))
                .unwrap_or_else(|_| panic!("{name} mutant panicked:\n{golden}"));
            for p in &problems {
                assert!(p.starts_with(&format!("{name}: line ")), "{p}");
            }
            assert_eq!(
                problems.is_empty(),
                golden == *fresh,
                "{name} mutant:\n{golden}\n{problems:?}"
            );
            mutants += 1;
            named += usize::from(!problems.is_empty());
        }
    }
    println!("{mutants} results mutants, {named} named");
}

/// A small task file: comments, a blank line and release offsets.
const TASK_FILE: &str = "# Table 2, phased\n8 3\n10 3 2.5 # medium\n\n14 1 7\n";

/// `parse_task_set` never panics on a mutated task file: it returns a
/// set or a `TaskFileError`, and every task it accepts is one
/// `Task::with_offset` accepts again.
#[test]
fn task_file_mutants_never_panic() {
    const MUTANTS: usize = 3000;
    let mut rng = SplitMix64::seed_from_u64(0x7A5_CF11);
    let mut accepted = 0;
    for i in 0..MUTANTS {
        let text = mutant(TASK_FILE, ' ', &mut rng);
        let parsed = std::panic::catch_unwind(|| parse_task_set(&text))
            .unwrap_or_else(|_| panic!("task-file mutant {i} panicked:\n{text}"));
        if let Ok(set) = parsed {
            accepted += 1;
            for t in set.tasks() {
                let again = Task::with_offset(t.period(), t.wcet(), t.offset());
                assert!(again.is_ok(), "mutant {i} accepted {t:?}:\n{text}");
            }
        }
    }
    println!("{MUTANTS} task-file mutants, {accepted} accepted");
    assert!(accepted > 0 && accepted < MUTANTS);
}

/// Mutants of each committed `BENCH_*.json`.
const MUTANTS_PER_ARTIFACT: usize = 400;

/// Feeds [`MUTANTS_PER_ARTIFACT`] mutants of `golden`, an artifact of
/// schema `A`, to `A::from_json`, to `A::read_exact` and to the diff
/// against the golden. None of them may panic, and an accepted mutant's
/// `to_json` must read back to the same text. Returns how many mutants
/// were accepted.
fn artifact_mutants<A>(name: &str, golden: &str, rng: &mut SplitMix64) -> usize
where
    A: Artifact + std::panic::RefUnwindSafe,
{
    let parsed = A::from_json(golden).expect("the committed artifact reads");
    let mut accepted = 0;
    for i in 0..MUTANTS_PER_ARTIFACT {
        let text = mutant(golden, ' ', rng);
        let outcome = std::panic::catch_unwind(|| {
            let _ = A::read_exact(&text);
            let art = A::from_json(&text).ok()?;
            let _ = parsed.diff(&art);
            Some(art.to_json())
        });
        let written = match outcome {
            Ok(written) => written,
            Err(_) => panic!("{name} mutant {i} panicked:\n{text}"),
        };
        if let Some(written) = written {
            let again = A::from_json(&written)
                .unwrap_or_else(|e| panic!("{name} mutant {i} wrote text that fails: {e}"));
            assert_eq!(
                again.to_json(),
                written,
                "{name} mutant {i}: not a fixed point"
            );
            accepted += 1;
        }
    }
    accepted
}

/// Every committed `BENCH_*.json`, mutated, through the reader its
/// schema names (see [`artifact_mutants`]).
#[test]
fn bench_artifact_mutants_never_panic() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("the repository root is readable")
        .map(|entry| entry.expect("readable entry").path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_owned();
            let bench = name.starts_with("BENCH_") && name.ends_with(".json");
            bench.then(|| (name, std::fs::read_to_string(&p).expect("readable file")))
        })
        .collect();
    files.sort();
    assert_eq!(files.len(), 8, "every committed BENCH artifact");
    let mut rng = SplitMix64::seed_from_u64(0xBE7C_4A27);
    let mut accepted = 0;
    for (name, golden) in &files {
        let tree = Json::parse(golden).expect("the committed artifact parses");
        let schema = tree.get("schema").and_then(Json::as_str).expect("a schema");
        accepted += match schema {
            "rtdvs-bench/v1" => artifact_mutants::<BenchArtifact>(name, golden, &mut rng),
            "rtdvs-ops/v1" => artifact_mutants::<OpsArtifact>(name, golden, &mut rng),
            "rtdvs-tenants/v1" => artifact_mutants::<TenantsArtifact>(name, golden, &mut rng),
            "rtdvs-campaign/v1" => artifact_mutants::<CampaignArtifact>(name, golden, &mut rng),
            other => panic!("{name}: no reader for schema {other:?}"),
        };
    }
    let mutants = files.len() * MUTANTS_PER_ARTIFACT;
    println!("{mutants} BENCH artifact mutants, {accepted} accepted");
    assert!(accepted > 0 && accepted < mutants);
}

/// A procfs session that uses every write command (`register`, `remove`,
/// `policy`, `run`, `cap`, `cap none`, `supervise`, `checkpoint`) and
/// some reads.
const PROCFS_SCRIPT: &str = "register 10 2 0.5\nregister 25 5 1\npolicy cc-edf\nrun 40\n\
    cap 1\nstatus\nrun 25.5\nremove rt1\ncap\ncap none\nsupervise 20\nrun 30\n\
    checkpoint\nenergy\nmisses\npolicy la-edf\nregister 40 4 0.25\nrun 50\n\
    last-snapshot\navailability\nsupervisor\ntenants\n";

/// Whether `line` may run on the session's kernel. A `register` whose
/// period does not parse to at least 1 ms, or a `run` above 100 ms, goes
/// to a fresh kernel with no tasks instead: its parser still sees the
/// hostile value, but no kernel logs millions of entries.
fn within_session_bounds(line: &str) -> bool {
    let mut toks = line.split_whitespace();
    let cmd = toks.next();
    let value = toks.next().and_then(|t| t.parse::<f64>().ok());
    match cmd {
        Some("register") => value.is_some_and(|period| period >= 1.0),
        Some("run") => !value.is_some_and(|ms| ms > 100.0),
        _ => true,
    }
}

/// A write replies `ok…` or `err: …`; any other command replies a value
/// or `err: …`.
fn well_formed(line: &str, reply: &str) -> bool {
    if let Some(msg) = reply.strip_prefix("err: ") {
        return !msg.is_empty();
    }
    let mut toks = line.split_whitespace();
    let cmd = toks.next();
    let has_arg = toks.next().is_some();
    let write = matches!(
        cmd,
        Some("register" | "remove" | "policy" | "run" | "supervise" | "checkpoint")
    ) || (cmd == Some("cap") && has_arg);
    if write {
        reply.starts_with("ok")
    } else {
        !reply.is_empty() && !reply.starts_with("err")
    }
}

/// Holds a finished procfs session's kernel to what a hostile but
/// accepted session must leave behind: a log whose audit finds deadline
/// misses at most, and a checkpoint that reads back and restores to an
/// equal log.
fn check_session(i: usize, kernel: &mut RtKernel, script: &str) {
    let findings: Vec<_> = audit_kernel_log(kernel.log())
        .into_iter()
        .filter(|v| v.rule != Rule::DeadlineMiss)
        .collect();
    assert!(
        findings.is_empty(),
        "procfs mutant {i}: audit findings {findings:?}\n{script}"
    );
    let snap = kernel
        .checkpoint()
        .unwrap_or_else(|e| panic!("procfs mutant {i}: checkpoint refused: {e}\n{script}"));
    let (revived, _) = Snapshot::from_text(snap.as_text())
        .and_then(|parsed| parsed.restore())
        .unwrap_or_else(|e| panic!("procfs mutant {i}: restore refused: {e}\n{script}"));
    assert_eq!(
        revived.log(),
        kernel.log(),
        "procfs mutant {i}: the restored log differs\n{script}"
    );
}

/// Mutants of [`PROCFS_SCRIPT`], fed line by line to `procfs::execute`
/// on a fresh kernel each: no command panics, every reply is well formed
/// (see [`well_formed`]), and the session's kernel passes
/// [`check_session`].
#[test]
fn procfs_write_mutants_never_panic() {
    const MUTANTS: usize = 2000;
    let fresh = || RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf);
    let mut rng = SplitMix64::seed_from_u64(0x9C0F_5E55);
    let (mut lines, mut ok_writes, mut errors, mut diverted) = (0, 0, 0, 0);
    for i in 0..MUTANTS {
        let script = mutant(PROCFS_SCRIPT, ' ', &mut rng);
        let mut kernel = fresh();
        for line in script.lines() {
            let mut spare;
            let target = if within_session_bounds(line) {
                &mut kernel
            } else {
                diverted += 1;
                spare = fresh();
                &mut spare
            };
            let reply =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(target, line)))
                    .unwrap_or_else(|_| {
                        panic!("procfs mutant {i} panicked on {line:?}:\n{script}")
                    });
            assert!(
                well_formed(line, &reply),
                "procfs mutant {i}: {line:?} replied {reply:?}"
            );
            lines += 1;
            errors += usize::from(reply.starts_with("err: "));
            ok_writes += usize::from(reply.starts_with("ok"));
        }
        check_session(i, &mut kernel, &script);
    }
    println!(
        "{MUTANTS} procfs mutants, {lines} commands: {ok_writes} ok, {errors} err, \
         {diverted} on a task-free kernel"
    );
    assert!(ok_writes > 0 && errors > 0 && diverted > 0);
}
