//! Regenerates every paper number and every committed golden, and checks
//! that each reproduces exactly.
//!
//! ```text
//! figures [run] [--out DIR]
//!     The one writer: regenerate every committed golden into DIR
//!     (default: the repository root). That is every table and figure of
//!     the paper at one committed scale (20 task sets per point, 2 s, a
//!     20-point grid): Figures 6–8 (BENCH_paper_figures.json) and the
//!     results/ tables, traces and sweeps (Fig. 9's CSVs come from the
//!     same run as Figures 6–8). It also writes the four single-fault
//!     soaks (BENCH_faults.json, BENCH_modes.json, BENCH_regulator.json,
//!     BENCH_clock.json), the tenant soak (BENCH_tenants.json), the chaos
//!     campaign (BENCH_campaign.json) and both executors' operation
//!     ledger (BENCH_ops.json). A run that breaks its own invariants is
//!     not written.
//!
//! figures check [--golden-dir DIR]
//!     The one gate for every committed artifact, read from DIR (default:
//!     the repository root), and its one rule is exact reproduction. It
//!     regenerates every BENCH_*.json as `run` does and diffs its
//!     canonical tree (provenance zeroed) against the committed file's,
//!     naming every member that differs; it re-derives every results/
//!     file and requires it byte for byte, naming each divergence by
//!     file, line and column. It enforces every artifact's own invariants
//!     on the fresh run (the ledger's: ops/event flat from 8 to 128
//!     tasks, in the engine and in the kernel), and replays
//!     results/repro_availability_floor.json to its bit-identical
//!     violation. Nothing it gates is timed. Every JSON file it reads
//!     must also be exactly what its writer writes for the value read
//!     (`Artifact::read_exact`), so hand edits, extra digits, unknown
//!     members and layout drift fail, each named by its line. Checks every artifact, then exits non-zero if
//!     any diverged — this is what `xtask bench-check` and the CI
//!     bench-smoke job run.
//!
//! figures repro [--write] [FILE]
//!     Replay a minimized chaos repro (`rtdvs-repro/v1`, read exactly)
//!     and require the bit-identical audit violation it pins
//!     (default FILE: results/repro_availability_floor.json). With
//!     `--write`, instead shrink the known-violating campaign down to a
//!     minimal repro and write it to FILE. This is what `xtask repro`
//!     runs.
//! ```
//!
//! Every sweep shards over all cores; the results are bit-identical at
//! any thread count, so the thread count is not a setting.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rtdvs_bench::artifact::Artifact;
use rtdvs_bench::campaign::{
    campaign_smoke_config, known_violating_campaign, replay_repro, run_campaign, shrink_plan,
    CampaignArtifact, ReproArtifact,
};
use rtdvs_bench::figures::{
    diff_results_file, paper_figures, paper_figures_artifact, results_files, PaperFigure, Scale,
};
use rtdvs_bench::ops::{run_ops, OpsArtifact};
use rtdvs_bench::render_normalized_chart;
use rtdvs_bench::soak::{run_soak, soak_violations, Soak};
use rtdvs_bench::sweep::{available_threads, DEFAULT_SEED};
use rtdvs_bench::tenants::{run_tenants, tenants_smoke_config, TenantsArtifact};

/// The directory of the paper's tables, traces and sweeps, relative to
/// the repository root.
const RESULTS_DIR: &str = "results";

/// Default location of the committed minimized repro, relative to the
/// repository root.
const REPRO_FILE: &str = "results/repro_availability_floor.json";

struct Args {
    command: String,
    out: Option<PathBuf>,
    golden_dir: Option<PathBuf>,
    write: bool,
    file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_owned(),
        out: None,
        golden_dir: None,
        write: false,
        file: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "run" | "check" | "repro" => args.command = a,
            "--write" => args.write = true,
            "--out" => args.out = Some(PathBuf::from(argv.next().ok_or("--out needs a dir")?)),
            "--golden-dir" => {
                args.golden_dir = Some(PathBuf::from(
                    argv.next().ok_or("--golden-dir needs a dir")?,
                ));
            }
            "--help" | "-h" => return Err(usage()),
            other if args.command == "repro" && args.file.is_none() && !other.starts_with('-') => {
                args.file = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(args)
}

fn usage() -> String {
    "usage: figures [run|check|repro] [--out DIR] [--golden-dir DIR] [--write] \
     [FILE (repro only)]"
        .to_owned()
}

/// The workspace root: `crates/bench` sits two levels below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

fn print_panel(figure: &PaperFigure) {
    let stats = &figure.run.stats;
    println!(
        "-- Figure {} ({} tasks): {} cells, {} sims, {} events, {} ms wall, {:.0} events/s --",
        figure.figure,
        figure.n_tasks,
        stats.cells,
        stats.sims,
        stats.events,
        stats.wall_ms,
        stats.events_per_sec()
    );
    println!("{}", figure.run.sweep.render_normalized());
    println!("{}", render_normalized_chart(&figure.run.sweep));
}

fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Reports one artifact's verdict: `what` it reproduces, or every
/// problem found. Returns whether the artifact passed.
fn gate(name: &str, what: &str, problems: &[String]) -> bool {
    if problems.is_empty() {
        println!("{name}: {what}");
        return true;
    }
    for p in problems {
        eprintln!("{name}: {p}");
    }
    false
}

/// Reads the committed file at a path and names every member at which it
/// differs from the fresh run.
type Diff = Box<dyn Fn(&Path) -> Result<Vec<String>, String>>;

/// A golden regenerated at [`DEFAULT_SEED`]: the text `run` writes, the
/// fresh run's invariant violations, and the exact diff `check` holds the
/// committed file to.
struct Fresh {
    json: String,
    violations: Vec<String>,
    diff: Diff,
}

impl Fresh {
    fn new<A: Artifact + 'static>(violations: Vec<String>, art: A) -> Fresh {
        Fresh {
            json: art.to_json(),
            violations,
            diff: Box::new(move |path| load::<A>(path).map(|golden| golden.diff(&art))),
        }
    }
}

/// One committed `BENCH_*.json`: its file, what its invariants promise,
/// and its generator at [`DEFAULT_SEED`], which checks them.
struct Golden<'a> {
    file: &'static str,
    holds: &'static str,
    generate: Box<dyn Fn() -> Fresh + 'a>,
}

/// Every committed `BENCH_*.json`, each named once: `run` writes what
/// the generators produce and `check` diffs it against the committed
/// file. The paper figures pack `figures`, the run behind `results/`.
fn goldens(figures: &[PaperFigure]) -> Vec<Golden<'_>> {
    let paper = Golden {
        file: "BENCH_paper_figures.json",
        holds: "is well formed",
        generate: Box::new(move || {
            let threads = available_threads();
            let art = paper_figures_artifact(figures, Scale::committed(), DEFAULT_SEED, threads);
            Fresh::new(art.validate(), art)
        }),
    };
    let soaks = Soak::ALL.map(|soak| Golden {
        file: soak.golden(),
        holds: "keeps its promises",
        generate: Box::new(move || {
            let art = run_soak(soak, DEFAULT_SEED);
            Fresh::new(soak_violations(soak, &art), art)
        }),
    });
    let kernels = [
        Golden {
            file: "BENCH_tenants.json",
            holds: "isolation holds",
            generate: Box::new(|| {
                let art = run_tenants(&tenants_smoke_config(DEFAULT_SEED));
                print_tenants_summary(&art);
                Fresh::new(art.validate(), art)
            }),
        },
        Golden {
            file: "BENCH_campaign.json",
            holds: "invariants hold",
            generate: Box::new(|| {
                let art = run_campaign(&campaign_smoke_config(DEFAULT_SEED));
                print_campaign_summary(&art);
                Fresh::new(art.validate(), art)
            }),
        },
        Golden {
            file: "BENCH_ops.json",
            holds: "ops/event stays flat",
            generate: Box::new(|| {
                let art = run_ops(DEFAULT_SEED);
                print_ops_summary(&art);
                Fresh::new(art.validate(), art)
            }),
        },
    ];
    std::iter::once(paper).chain(soaks).chain(kernels).collect()
}

fn run(args: &Args) -> Result<(), String> {
    let threads = available_threads();
    let scale = Scale::committed();
    let out = args.out.clone().unwrap_or_else(repo_root);
    let results = out.join(RESULTS_DIR);
    std::fs::create_dir_all(&results)
        .map_err(|e| format!("cannot create {}: {e}", results.display()))?;

    println!(
        "== Figures 6-8: {}-point grid x {} sets x 6 policies, {} thread(s) ==",
        scale.grid,
        scale.sets_per_point,
        threads.get()
    );
    let figures = paper_figures(scale, DEFAULT_SEED, threads);
    for figure in &figures {
        print_panel(figure);
    }
    for golden in goldens(&figures) {
        let fresh = (golden.generate)();
        if !gate(golden.file, golden.holds, &fresh.violations) {
            return Err(format!(
                "{} breaks its invariants; not written",
                golden.file
            ));
        }
        write_file(&out, golden.file, &fresh.json)?;
    }
    for (name, text) in results_files(&figures, scale) {
        write_file(&results, &name, &text)?;
    }
    Ok(())
}

/// Reads a committed artifact exactly ([`Artifact::read_exact`]): it must
/// be what the writer writes for the value read.
fn load<A: Artifact>(path: &Path) -> Result<A, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    A::read_exact(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every committed artifact, reproduced exactly and held to its
/// invariants (see the module docs). Every artifact is checked and
/// reported before any failure is returned, so one divergence never hides
/// another.
fn check(args: &Args) -> Result<(), String> {
    let scale = Scale::committed();
    let dir = args.golden_dir.clone().unwrap_or_else(repo_root);
    let mut failed = Vec::new();
    let mut verdict = |name: &str, what: &str, problems: Result<Vec<String>, String>| {
        if !gate(name, what, &problems.unwrap_or_else(|e| vec![e])) {
            failed.push(name.to_owned());
        }
    };

    let figures = paper_figures(scale, DEFAULT_SEED, available_threads());
    for golden in goldens(&figures) {
        let fresh = (golden.generate)();
        let problems = (fresh.diff)(&dir.join(golden.file)).map(|mut problems| {
            problems.extend(fresh.violations);
            problems
        });
        let what = format!("reproduces exactly; {}", golden.holds);
        verdict(golden.file, &what, problems);
    }

    let files = results_files(&figures, scale);
    let results: Vec<String> = files
        .iter()
        .flat_map(|(name, fresh)| {
            let path = dir.join(RESULTS_DIR).join(name);
            match std::fs::read_to_string(&path) {
                Ok(golden) => diff_results_file(name, &golden, fresh),
                Err(e) => vec![format!("{name}: cannot read {}: {e}", path.display())],
            }
        })
        .collect();
    verdict(
        RESULTS_DIR,
        &format!("{} files reproduce byte for byte", files.len()),
        Ok(results),
    );

    let repro = load::<ReproArtifact>(&dir.join(REPRO_FILE))
        .map(|repro| replay_repro(&repro).err().into_iter().collect());
    verdict(REPRO_FILE, "replays to the identical violation", repro);

    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("diverged: {}", failed.join(", ")))
    }
}

fn print_tenants_summary(art: &TenantsArtifact) {
    let offered: u64 = art.tenants.iter().map(|t| t.offered).sum();
    let worst_ratio = art
        .tenants
        .iter()
        .filter(|t| !t.flood)
        .map(|t| t.p99_ratio)
        .fold(0.0, f64::max);
    println!(
        "tenants: {} tenants, {} requests offered over {} ms; 0 periodic misses, \
         0 audit findings, worst compliant p99 inflation {:.3}x (limit {:.2}x), {} ms",
        art.tenants.len(),
        offered,
        art.horizon_ms,
        worst_ratio,
        art.p99_ratio_limit,
        art.wall_ms
    );
    for t in &art.tenants {
        println!(
            "  tenant{} {} quota {:.3} ms  offered {:>8}  served {:>8}  shed {:>7}  \
             rejected {:>7}  quarantined {:>5} periods  p50 {:>7.3} p99 {:>7.3} \
             p999 {:>7.3} ms{}",
            t.tenant,
            if t.flood { "[flood]" } else { "       " },
            t.quota_ms,
            t.offered,
            t.served,
            t.shed,
            t.rejected,
            t.quarantined_periods,
            t.p50_ms,
            t.p99_ms,
            t.p999_ms,
            if t.flood {
                String::new()
            } else {
                format!("  ({:.3}x flood-free p99)", t.p99_ratio)
            }
        );
    }
}

fn print_campaign_summary(art: &CampaignArtifact) {
    println!(
        "campaign: {} policies x [{}] over {} ms (seed {:#x}); 0 blamed misses, \
         0 audit findings, floor {:.2}, recovery bound {:.0} ms, {} ms wall",
        art.cells.len(),
        art.dimensions.join(", "),
        art.horizon_ms,
        art.seed,
        art.min_availability,
        art.max_recovery_ms,
        art.wall_ms
    );
    for c in &art.cells {
        println!(
            "  {:>9}  kills {:>2} restores {:>2}  churn {:>3}  served {:>5}/{:>5}  \
             excused {:>3}  avail {:.4}  mttf {:>8.1} mttr {:>7.1} worst-rec {:>7.1} ms",
            c.policy,
            c.kills,
            c.restores,
            c.churn_commits,
            c.served,
            c.compliant_offered + c.flood_offered,
            c.excused_misses,
            c.availability,
            c.mttf_ms,
            c.mttr_ms,
            c.worst_recovery_ms
        );
    }
}

fn print_ops_summary(art: &OpsArtifact) {
    println!("ops: operations per event");
    for p in &art.panels {
        let cells: Vec<String> = p
            .rows
            .iter()
            .map(|r| format!("{} {:.2}", r.policy, r.per_event()))
            .collect();
        println!("  {:>9} n={:<3} {}", p.set, p.n_tasks, cells.join("  "));
    }
}

fn repro(args: &Args) -> Result<(), String> {
    let path = args
        .file
        .clone()
        .unwrap_or_else(|| repo_root().join(REPRO_FILE));

    if args.write {
        let (kind, plan, avail) = known_violating_campaign(DEFAULT_SEED);
        println!(
            "repro: shrinking the known-violating campaign (policy {}, {} ms, \
             dimensions [{}])...",
            kind.name(),
            plan.horizon_ms,
            plan.active_dimensions().join(", ")
        );
        let repro = shrink_plan(kind, &plan, &avail)?;
        replay_repro(&repro)?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        std::fs::write(&path, repro.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        print_repro_summary(&repro);
        return Ok(());
    }

    let repro: ReproArtifact =
        load(&path).map_err(|e| format!("{e} (`figures repro --write` regenerates it)"))?;
    replay_repro(&repro)?;
    println!(
        "repro: {} replays to the identical violation",
        path.display()
    );
    print_repro_summary(&repro);
    Ok(())
}

fn print_repro_summary(repro: &ReproArtifact) {
    println!(
        "  policy {}  seed {:#x}  horizon {} ms  dimensions [{}]",
        repro.policy,
        repro.plan.seed,
        repro.plan.horizon_ms,
        repro.plan.active_dimensions().join(", ")
    );
    println!(
        "  [{}] t={:.3} ms: {}",
        repro.violation.rule, repro.violation.time_ms, repro.violation.details
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "run" => run(&args),
        "check" => check(&args).map_err(|e| {
            format!(
                "{e}\nif the change is intentional, regenerate the goldens with `figures run` \
                 (the repro with `figures repro --write`) and commit them"
            )
        }),
        "repro" => repro(&args),
        other => Err(format!("unknown command {other}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
