//! Regenerates the paper's headline figures on the sharded runner and
//! maintains the repo's `BENCH_*.json` trajectory.
//!
//! ```text
//! figures [run] [--quick] [--threads N] [--seed S] [--out DIR]
//!     The one writer: regenerate every committed golden into DIR
//!     (default: the repository root): Figures 6–8
//!     (BENCH_paper_figures.json), the smoke sweep (BENCH_sweep.json), the
//!     four single-fault soaks (BENCH_faults.json, BENCH_modes.json,
//!     BENCH_regulator.json, BENCH_clock.json), the tenant soak
//!     (BENCH_tenants.json), the chaos campaign (BENCH_campaign.json) and
//!     the engine-vs-baseline throughput soak (BENCH_throughput.json, its
//!     events/s measured on this machine as provenance). A run that
//!     breaks its own invariants is not written; the throughput floors
//!     are the gate's, not the writer's.
//!
//! figures check [--golden-dir DIR] [--threads N]
//!     The one gate for every committed artifact: re-run the smoke sweep
//!     and the four soaks and diff them against their goldens (±1%
//!     energy, miss counts exact), structurally validate
//!     BENCH_paper_figures.json (full regeneration is too slow for every
//!     push), re-run the tenant soak and the campaign and diff their
//!     canonical trees exactly (naming every member that differs),
//!     re-measure the throughput soak, diff its machine-independent
//!     payload against BENCH_throughput.json and enforce its events/s
//!     ratio floors (≥5x baseline on the engine-dominated soak policies,
//!     a ratio against an in-process reference run, never wall-clock),
//!     enforce every artifact's own invariants, and replay
//!     results/repro_availability_floor.json to its bit-identical
//!     violation. Every file it reads must also be a fixed point of
//!     parse→write, so hand edits and layout drift fail. Checks every
//!     artifact, then exits non-zero if any diverged — this is what
//!     `xtask bench-check` and the CI bench-smoke job run.
//!
//! figures repro [--write] [FILE]
//!     Replay a minimized chaos repro (`rtdvs-repro/v1`, a fixed point of
//!     parse→write) and require the bit-identical audit violation it pins
//!     (default FILE: results/repro_availability_floor.json). With
//!     `--write`, instead shrink the known-violating campaign down to a
//!     minimal repro and write it to FILE. This is what `xtask repro`
//!     runs.
//! ```

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rtdvs_bench::artifact::{check_layout, compare, Artifact, BenchArtifact};
use rtdvs_bench::campaign::{
    campaign_smoke_config, known_violating_campaign, replay_repro, run_campaign, shrink_plan,
    CampaignArtifact, ReproArtifact,
};
use rtdvs_bench::figures::{
    paper_figures, paper_figures_artifact, smoke_sweep_artifact, PaperFigure, Scale,
};
use rtdvs_bench::render_normalized_chart;
use rtdvs_bench::soak::{run_soak, soak_violations, Soak};
use rtdvs_bench::tenants::{run_tenants, tenants_smoke_config, TenantsArtifact};
use rtdvs_bench::throughput::{
    floor_violations, run_throughput, throughput_smoke_config, ThroughputArtifact,
};

/// Default experiment seed (the sweep harness default, `0x5eed`).
const DEFAULT_SEED: u64 = 0x5eed;

/// Relative energy tolerance of the sweep and soak golden comparisons.
const TOLERANCE: f64 = 0.01;

/// File names of the committed golden artifacts at the repository root
/// (the soaks' come from [`Soak::golden`]).
const PAPER_FIGURES_FILE: &str = "BENCH_paper_figures.json";
const SWEEP_FILE: &str = "BENCH_sweep.json";
const THROUGHPUT_FILE: &str = "BENCH_throughput.json";
const TENANTS_FILE: &str = "BENCH_tenants.json";
const CAMPAIGN_FILE: &str = "BENCH_campaign.json";

/// Default location of the committed minimized repro, relative to the
/// repository root.
const REPRO_FILE: &str = "results/repro_availability_floor.json";

struct Args {
    command: String,
    quick: bool,
    threads: Option<usize>,
    seed: u64,
    out: Option<PathBuf>,
    golden_dir: Option<PathBuf>,
    write: bool,
    file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_owned(),
        quick: false,
        threads: None,
        seed: DEFAULT_SEED,
        out: None,
        golden_dir: None,
        write: false,
        file: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "run" | "check" | "repro" => args.command = a,
            "--quick" => args.quick = true,
            "--write" => args.write = true,
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a count")?;
                args.threads = Some(v.parse().map_err(|e| format!("--threads {v}: {e}"))?);
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                args.seed = parse_seed(&v)?;
            }
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
    "usage: figures [run|check|repro] [--quick] [--threads N] [--seed S] [--out DIR] \
     [--golden-dir DIR] [--write] [FILE (repro only)]"
        .to_owned()
}

fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|e| format!("--seed {v}: {e}"))
}

/// The workspace root: `crates/bench` sits two levels below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

fn default_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::new(1).expect("non-zero"))
}

fn resolve_threads(requested: Option<usize>) -> Result<NonZeroUsize, String> {
    match requested {
        None => Ok(default_threads()),
        Some(n) => NonZeroUsize::new(n).ok_or_else(|| "--threads 0 is meaningless".to_owned()),
    }
}

/// The grid the committed `BENCH_paper_figures.json` is generated at:
/// full 20-point utilization grid, trimmed sample count so regeneration
/// stays tractable on a laptop while the curves stay smooth.
fn figures_scale(quick: bool) -> Scale {
    if quick {
        Scale::quick()
    } else {
        Scale {
            sets_per_point: 20,
            duration: rtdvs_core::time::Time::from_secs(2.0),
            grid: 20,
        }
    }
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

fn run(args: &Args) -> Result<(), String> {
    let threads = resolve_threads(args.threads)?;
    let scale = figures_scale(args.quick);
    let out = args.out.clone().unwrap_or_else(repo_root);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    println!(
        "== Figures 6-8: {}-point grid x {} sets x 6 policies, {} thread(s) ==",
        scale.grid,
        scale.sets_per_point,
        threads.get()
    );
    let figures = paper_figures(scale, args.seed, threads);
    for figure in &figures {
        print_panel(figure);
    }
    let artifact = paper_figures_artifact(&figures, scale, args.seed, threads);
    write_file(&out, PAPER_FIGURES_FILE, &artifact.to_json())?;
    let smoke = smoke_sweep_artifact(args.seed, threads);
    write_file(&out, SWEEP_FILE, &smoke.to_json())?;

    let refuse = |name: &str| format!("{name} breaks its invariants; not written");
    for soak in Soak::ALL {
        let art = run_soak(soak, args.seed);
        if !gate(
            soak.golden(),
            "keeps its promises",
            &soak_violations(soak, &art),
        ) {
            return Err(refuse(soak.golden()));
        }
        write_file(&out, soak.golden(), &art.to_json())?;
    }
    let tenants = run_tenants(&tenants_smoke_config(args.seed));
    if !gate(TENANTS_FILE, "isolation holds", &tenants.validate()) {
        return Err(refuse(TENANTS_FILE));
    }
    write_file(&out, TENANTS_FILE, &tenants.to_json())?;
    print_tenants_summary(&tenants);
    let campaign = run_campaign(&campaign_smoke_config(args.seed));
    if !gate(CAMPAIGN_FILE, "invariants hold", &campaign.validate()) {
        return Err(refuse(CAMPAIGN_FILE));
    }
    write_file(&out, CAMPAIGN_FILE, &campaign.to_json())?;
    print_campaign_summary(&campaign);
    let throughput = run_throughput(&throughput_smoke_config(args.seed));
    if !gate(THROUGHPUT_FILE, "is well formed", &throughput.validate()) {
        return Err(refuse(THROUGHPUT_FILE));
    }
    write_file(&out, THROUGHPUT_FILE, &throughput.to_json())?;
    print_throughput_summary(&throughput);
    Ok(())
}

/// Reads a committed artifact, which must also be in the writer's exact
/// layout (a fixed point of parse→write).
fn load<A: Artifact>(path: &Path) -> Result<A, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    check_layout(&text)
        .and_then(|()| A::from_json(&text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Every deterministic committed artifact, reproduced from its seed and
/// held to its invariants (see the module docs). Every artifact is
/// checked and reported before any failure is returned, so one divergence
/// never hides another.
fn check(args: &Args) -> Result<(), String> {
    let threads = resolve_threads(args.threads)?;
    let dir = args.golden_dir.clone().unwrap_or_else(repo_root);
    let within = format!("reproduces within ±{:.0}%", 100.0 * TOLERANCE);
    let mut failed = Vec::new();
    let mut verdict = |name: &str, what: &str, problems: Result<Vec<String>, String>| {
        if !gate(name, what, &problems.unwrap_or_else(|e| vec![e])) {
            failed.push(name.to_owned());
        }
    };

    let sweep = load::<BenchArtifact>(&dir.join(SWEEP_FILE)).map(|golden| {
        let fresh = smoke_sweep_artifact(golden.seed, threads);
        compare(&golden, &fresh, TOLERANCE)
    });
    verdict(SWEEP_FILE, &within, sweep);

    let paper = load::<BenchArtifact>(&dir.join(PAPER_FIGURES_FILE)).map(|paper| paper.validate());
    verdict(PAPER_FIGURES_FILE, "is structurally sound", paper);

    for soak in Soak::ALL {
        let problems = load::<BenchArtifact>(&dir.join(soak.golden())).map(|golden| {
            let fresh = run_soak(soak, golden.seed);
            let mut problems = compare(&golden, &fresh, TOLERANCE);
            problems.extend(soak_violations(soak, &fresh));
            problems
        });
        verdict(soak.golden(), &within, problems);
    }

    let tenants = load::<TenantsArtifact>(&dir.join(TENANTS_FILE)).map(|golden| {
        let fresh = run_tenants(&tenants_smoke_config(golden.seed));
        print_tenants_summary(&fresh);
        let mut problems = golden.diff(&fresh);
        problems.extend(fresh.validate());
        problems
    });
    verdict(TENANTS_FILE, "reproduces byte-for-byte", tenants);

    let campaign = load::<CampaignArtifact>(&dir.join(CAMPAIGN_FILE)).map(|golden| {
        let fresh = run_campaign(&campaign_smoke_config(golden.seed));
        print_campaign_summary(&fresh);
        let mut problems = golden.diff(&fresh);
        problems.extend(fresh.validate());
        problems
    });
    verdict(CAMPAIGN_FILE, "reproduces byte-for-byte", campaign);

    // The events/s ratios are this machine's; only the event counts,
    // panel shapes and floors are pinned.
    let throughput = load::<ThroughputArtifact>(&dir.join(THROUGHPUT_FILE)).map(|golden| {
        let mut cfg = throughput_smoke_config(golden.seed);
        cfg.floor_ratio = golden.floor_ratio;
        cfg.table2_floor_ratio = golden.table2_floor_ratio;
        let fresh = run_throughput(&cfg);
        print_throughput_summary(&fresh);
        let mut problems = golden.diff(&fresh);
        problems.extend(floor_violations(&fresh));
        problems.extend(fresh.validate());
        problems
    });
    verdict(
        THROUGHPUT_FILE,
        "reproduces its event counts and clears its floors",
        throughput,
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

fn print_throughput_summary(art: &ThroughputArtifact) {
    let floored: Vec<&rtdvs_bench::PolicyThroughput> =
        art.soak.iter().filter(|p| p.floored).collect();
    let worst = floored
        .iter()
        .map(|p| p.ratio)
        .fold(f64::INFINITY, f64::min);
    println!(
        "throughput: {}-task soak sustains {:.1}-{:.1}x baseline events/s on {} floored \
         policies (floor {}x), {} ms",
        art.soak_tasks,
        worst,
        floored.iter().map(|p| p.ratio).fold(0.0, f64::max),
        floored.len(),
        art.floor_ratio,
        art.wall_ms
    );
    for (panel, rows) in [("soak", &art.soak), ("table2", &art.table2)] {
        for p in rows {
            println!(
                "  {panel:>6} {:>9} {:>10} events {:>12.0} vs {:>12.0} events/s  {:>6.2}x{}",
                p.policy,
                p.events,
                p.engine_eps,
                p.baseline_eps,
                p.ratio,
                if p.floored { "  [floored]" } else { "" }
            );
        }
    }
}

fn repro(args: &Args) -> Result<(), String> {
    let path = args
        .file
        .clone()
        .unwrap_or_else(|| repo_root().join(REPRO_FILE));

    if args.write {
        let (kind, plan, avail) = known_violating_campaign(args.seed);
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
