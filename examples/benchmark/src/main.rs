//! End-to-end and per-layer benchmark of both RT-DVS executors.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: set-up (timed several times, median
//! reported), untimed warm-up reps for [`WARM_UP`], then timed reps until
//! `--seconds` have passed (at least [`MIN_REPS`]). Every input is generated from the
//! seed. The run checks its outputs, prints every metric by name with its
//! unit, then prints one JSON object as its last line. With `--trace 1`
//! the measured time is split between an untraced and a traced phase; the
//! traced phase records spans (written as JSON under the Cargo target
//! directory) and the JSON line carries the per-layer metrics instead of
//! the end-to-end ones. The exit code is 0 only when every check passed.
//!
//! "Simulated" numbers are virtual time and repeat exactly for a seed;
//! "host" numbers are wall clock, and end-to-end host times are
//! calibrated to a reference host speed (see [`calib`]).

mod alloc;
mod calib;
mod check;
mod kernel;
mod policy;
mod sim;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rtdvs::{Machine, TaskSet};

use crate::calib::{Laps, Stopwatch};
use crate::stats::median;
use crate::trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Fewest timed reps per phase, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;
/// Untimed warm-up before the first timed rep (at least one rep). The
/// first seconds of a process run measurably slower on shared hosts, and
/// the allocator settles only after the first large frees.
const WARM_UP: Duration = Duration::from_secs(3);
/// Set-ups are timed in a burst before every untraced rep, warm-up
/// included, of this much host time (at least one set-up, at most
/// [`MAX_SETUPS`]). The host's slow spells last seconds, so bursts spread
/// over the run sample them as the reps do, where one burst at the start
/// would land in a single spell.
const SETUP_BURST: Duration = Duration::from_millis(30);
const MAX_SETUPS: usize = 2_000;

/// One rep's outcome, deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Simulated seconds the rep covered.
    pub sim_s: f64,
    /// Scheduling events the executor processed: engine decision intervals
    /// (simulator) or kernel log entries (`RtKernel`).
    pub events: u64,
    /// Operations attempted in the rep (see README, "Failure accounting").
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// FNV-1a digest of the rep's deterministic outputs.
    pub digest: u64,
}

/// A printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes, when more than one.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric with no sample count.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    /// A metric summarizing `n` samples.
    pub fn of(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            samples: Some(n),
            ..Metric::new(name, value, unit)
        }
    }
}

/// One benchmark workload. `Err` from any method is a broken invariant:
/// the run prints `"correct": false` and exits non-zero.
pub trait Workload {
    /// Everything one rep consumes.
    type State;
    /// Span name of the executor call behind the `exec.*` metrics.
    const EXEC_SPAN: &'static str;

    /// Generates the inputs from the seed and builds the executors.
    fn setup(&mut self, tr: &mut Tracer) -> Self::State;

    /// The untimed rep before the timed phase. Its digest and lap count
    /// must equal every timed rep's.
    fn warm_up(
        &mut self,
        state: Self::State,
        tr: &mut Tracer,
        sw: &mut Stopwatch,
    ) -> Result<Rep, String> {
        self.rep(state, tr, sw)
    }

    /// One timed rep. It ends a `sw` lap after each chunk of its work:
    /// every rep does the same chunks in the same order (see
    /// `Phase::rep_s`).
    fn rep(
        &mut self,
        state: Self::State,
        tr: &mut Tracer,
        sw: &mut Stopwatch,
    ) -> Result<Rep, String>;

    /// Correctness checks after the timed phase; returns `energy_norm`,
    /// simulated energy over plain-EDF energy on the same inputs.
    fn finish(&mut self, tr: &mut Tracer) -> Result<f64, String>;

    /// The task set and machine the policy-callback costs are timed on.
    fn policy_probe(&self) -> (TaskSet, Machine);

    /// Workload-specific metrics: end-to-end (`layer == false`), or
    /// per-layer from the traced phase (`layer == true`). `rep_s` is the
    /// phase's typical reference seconds per rep.
    fn extra_metrics(&self, rep_s: f64, tr: &Tracer, layer: bool) -> Vec<Metric>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: benchmark --workload <soak128|paper-sweep|kernel-tenants|kernel-recovery> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected a u64"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| bad("expected a positive whole number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Host-time samples and outcomes of one phase of timed reps.
#[derive(Default)]
struct Phase {
    /// Laps of each rep.
    laps: Vec<Laps>,
    /// Events and simulated seconds of one rep (the same in every rep).
    events: u64,
    sim_s: f64,
    attempted: u64,
    failed: u64,
}

impl Phase {
    /// Reference seconds (see [`calib`]) of a typical rep: every chunk's
    /// calibrated median over the reps, summed. Interference that slows a
    /// chunk in a minority of reps drops out, which a median of whole reps
    /// would only manage when it hits a minority of reps.
    fn rep_s(&self) -> f64 {
        let n_chunks = self.laps.first().map_or(0, |l| l.reference_ns.len());
        let total_ns: f64 = (0..n_chunks)
            .map(|i| {
                let col: Vec<f64> = self.laps.iter().map(|l| l.reference_ns[i]).collect();
                median(&col).expect("at least one rep")
            })
            .sum();
        total_ns / 1e9
    }

    /// Median over reps of the host's speed against the reference.
    fn host_speed(&self) -> f64 {
        let speeds: Vec<f64> = self.laps.iter().map(Laps::speed).collect();
        median(&speeds).expect("at least one rep")
    }

    /// Host seconds of each rep's laps.
    fn host_s(&self) -> Vec<f64> {
        self.laps
            .iter()
            .map(|l| l.host_ns.iter().sum::<u64>() as f64 / 1e9)
            .collect()
    }

    fn reps(&self) -> usize {
        self.laps.len()
    }
}

/// Each set-up burst's median time.
#[derive(Default)]
struct SetupTimes {
    reference_s: Vec<f64>,
    host_s: Vec<f64>,
    setups: usize,
}

impl SetupTimes {
    /// Times a burst of untraced set-ups and returns the last one's state.
    fn burst<W: Workload>(&mut self, w: &mut W) -> W::State {
        let mut off = Tracer::new(false);
        let start = Instant::now();
        let mut sw = Stopwatch::start();
        let mut n = 0;
        let state = loop {
            let state = w.setup(&mut off);
            sw.lap();
            n += 1;
            if n == MAX_SETUPS || start.elapsed() >= SETUP_BURST {
                break state;
            }
            drop(state);
            sw.restart();
        };
        let laps = sw.finish();
        let host: Vec<f64> = laps.host_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        let reference: Vec<f64> = laps.reference_ns.iter().map(|ns| ns / 1e9).collect();
        self.host_s
            .push(median(&host).expect("at least one set-up"));
        self.reference_s
            .push(median(&reference).expect("at least one set-up"));
        self.setups += n;
        state
    }

    /// `setup_s` (reference) and `setup_host_s`: the median over bursts.
    fn metrics(&self) -> [Metric; 2] {
        let m = |v: &[f64]| median(v).expect("every run sets up");
        [
            Metric::of("setup_s", m(&self.reference_s), "s", self.setups),
            Metric::of("setup_host_s", m(&self.host_s), "s", self.setups),
        ]
    }
}

/// Timed reps for `budget` (at least [`MIN_REPS`]). Untraced phases time
/// a set-up burst before each rep into `setups`; a traced phase passes
/// `None` and sets up once per rep, traced.
fn run_phase<W: Workload>(
    w: &mut W,
    budget: Duration,
    tr: &mut Tracer,
    mut setups: Option<&mut SetupTimes>,
    warm: &Rep,
    warm_laps: usize,
    first_rep: u32,
) -> Result<Phase, String> {
    let mut phase = Phase {
        events: warm.events,
        sim_s: warm.sim_s,
        ..Phase::default()
    };
    let start = Instant::now();
    while phase.reps() < MIN_REPS || start.elapsed() < budget {
        let state = match setups.as_deref_mut() {
            Some(times) => times.burst(w),
            None => w.setup(tr),
        };
        tr.set_rep(first_rep + phase.reps() as u32);
        let root = tr.open("rep");
        let mut sw = Stopwatch::start();
        let rep = w.rep(state, tr, &mut sw)?;
        let laps = sw.finish();
        tr.close(root);
        if rep.digest != warm.digest || laps.host_ns.len() != warm_laps {
            return Err(format!(
                "rep {} (digest {:016x}, {} laps) differs from the warm-up \
                 (digest {:016x}, {warm_laps} laps): the run is not deterministic",
                phase.reps(),
                rep.digest,
                laps.host_ns.len(),
                warm.digest,
            ));
        }
        phase.laps.push(laps);
        phase.attempted += rep.attempted;
        phase.failed += rep.failed;
    }
    Ok(phase)
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn trace_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("traces")
}

/// Everything a finished run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    lines: Vec<Metric>,
    json_metrics: Vec<Metric>,
    rep_host_s: Vec<f64>,
    digest: u64,
    trace_file: Option<std::path::PathBuf>,
    problems: Vec<String>,
}

fn run<W: Workload>(w: &mut W, args: &Args) -> Report {
    let mut problems = Vec::new();
    let mut off = Tracer::new(false);

    let mut setups = SetupTimes::default();
    let mut lines = Vec::new();
    let mut json_metrics = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut digest = 0;
    let mut rep_host_s = Vec::new();
    let mut trace_file = None;

    let outcome = (|| -> Result<(), String> {
        let warm_start = Instant::now();
        let state = setups.burst(w);
        let mut sw = Stopwatch::start();
        let warm = w.warm_up(state, &mut off, &mut sw)?;
        let warm_laps = sw.finish().host_ns.len();
        digest = warm.digest;
        while warm_start.elapsed() < WARM_UP {
            let state = setups.burst(w);
            if w.warm_up(state, &mut off, &mut Stopwatch::start())?.digest != digest {
                return Err("warm-up reps disagree: the run is not deterministic".into());
            }
        }
        let total = Duration::from_secs(args.seconds);
        let untraced_budget = if args.trace { total / 2 } else { total };
        let plain = run_phase(
            w,
            untraced_budget,
            &mut off,
            Some(&mut setups),
            &warm,
            warm_laps,
            0,
        )?;
        lines.extend(setups.metrics());
        let (reps, rep_s) = (plain.reps(), plain.rep_s());
        // Taken before the traced phase adds its own samples.
        let workload_metrics = w.extra_metrics(rep_s, &off, false);
        let mut traced_tr = Tracer::new(true);
        let traced = if args.trace {
            Some(run_phase(
                w,
                total - untraced_budget,
                &mut traced_tr,
                None,
                &warm,
                warm_laps,
                plain.reps() as u32,
            )?)
        } else {
            None
        };
        let energy_norm = w.finish(if args.trace { &mut traced_tr } else { &mut off })?;
        attempted = plain.attempted + traced.as_ref().map_or(0, |p| p.attempted);
        failed = plain.failed + traced.as_ref().map_or(0, |p| p.failed);
        rep_host_s = plain.host_s();
        let eps = plain.events as f64 / rep_s;
        lines.push(Metric::of("events_per_s", eps, "1/s", reps));
        lines.push(Metric::of("host_speed", plain.host_speed(), "ratio", reps));
        lines.push(Metric::of("sim_speed", plain.sim_s / rep_s, "s/s", reps));
        lines.push(Metric::new("events_per_rep", plain.events as f64, "count"));
        lines.push(Metric::new("energy_norm", energy_norm, "ratio"));
        lines.push(Metric::new(
            "peak_heap_mb",
            alloc::peak_bytes() as f64 / f64::from(1 << 20),
            "MB",
        ));
        lines.push(Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"));
        lines.push(Metric::new(
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ));
        lines.extend(workload_metrics);
        json_metrics = ["setup_s", "events_per_s", "energy_norm", "peak_heap_mb"]
            .iter()
            .map(|name| {
                lines
                    .iter()
                    .find(|m| m.name == *name)
                    .cloned()
                    .expect("every end-to-end metric is computed")
            })
            .collect();

        if let Some(traced) = traced {
            let mut layer = Vec::new();
            let (tasks, machine) = w.policy_probe();
            for cost in policy::measure(&tasks, &machine) {
                let p = cost.name;
                layer.push(Metric::new(
                    format!("policy.{p}.release_ns"),
                    cost.release_ns,
                    "ns",
                ));
                layer.push(Metric::new(
                    format!("policy.{p}.completion_ns"),
                    cost.completion_ns,
                    "ns",
                ));
                layer.push(Metric::new(
                    format!("policy.{p}.init_us"),
                    cost.init_us,
                    "us",
                ));
            }
            let exec = traced_tr.totals(W::EXEC_SPAN);
            // Lap time, so the calibrations between laps stay out.
            let timed_ns = traced.host_s().iter().sum::<f64>() * 1e9;
            let n = traced.reps();
            layer.push(Metric::of(
                "exec.ns_per_event",
                exec.self_ns as f64 / (traced.events * n as u64) as f64,
                "ns",
                n,
            ));
            layer.push(Metric::new("exec.events", traced.events as f64, "count"));
            layer.push(Metric::of(
                "other.ms_per_rep",
                (timed_ns - exec.self_ns as f64).max(0.0) / 1e6 / n as f64,
                "ms",
                n,
            ));
            layer.push(Metric::new(
                "trace.overhead_pct",
                100.0 * (traced.rep_s() / rep_s - 1.0),
                "%",
            ));
            layer.push(Metric::new(
                "trace.spans",
                (traced_tr.span_count() / n as u64) as f64,
                "count",
            ));
            json_metrics = layer.clone();
            layer.extend(w.extra_metrics(traced.rep_s(), &traced_tr, true));
            for (name, t) in traced_tr.all_totals() {
                layer.push(Metric::of(
                    format!("self.{name}"),
                    t.self_ns as f64 / 1e6,
                    "ms",
                    t.count as usize,
                ));
            }
            lines.extend(layer);
            let dir = trace_dir();
            let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, traced_tr.to_json(&args.workload, args.seed)))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            trace_file = Some(path);
        }
        Ok(())
    })();
    if let Err(e) = outcome {
        problems.push(e);
    }
    for m in lines.iter().chain(&json_metrics) {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite", m.name));
        }
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        lines,
        json_metrics,
        rep_host_s,
        digest,
        trace_file,
        problems,
    }
}

fn json_line(r: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct,
        r.attempted.max(1),
        r.failed
    );
    for (i, m) in r.json_metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "soak128" => run(&mut sim::Soak128::new(args.seed), &args),
        "paper-sweep" => run(&mut sim::PaperSweep::new(args.seed), &args),
        "kernel-tenants" => run(&mut kernel::Tenants::new(args.seed), &args),
        "kernel-recovery" => run(&mut kernel::Recovery::new(args.seed), &args),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &report.lines {
        match m.samples {
            Some(n) => println!("{} {} {} n={n}", m.name, m.value, m.unit),
            None => println!("{} {} {}", m.name, m.value, m.unit),
        }
    }
    let reps: Vec<String> = report.rep_host_s.iter().map(f64::to_string).collect();
    println!("rep_host_s {}", reps.join(" "));
    println!("attempted {} failed {}", report.attempted, report.failed);
    println!("result_digest {:016x}", report.digest);
    if let Some(path) = &report.trace_file {
        println!("trace_file {}", path.display());
    }
    for p in &report.problems {
        println!("problem {p}");
        eprintln!("error: {p}");
    }
    println!("{}", json_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
