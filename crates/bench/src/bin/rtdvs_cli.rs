//! Command-line front-end for the RT-DVS stack.
//!
//! ```text
//! rtdvs-cli analyze  --tasks FILE [--machine NAME]
//! rtdvs-cli simulate --tasks FILE [--machine NAME] [--policy NAME]
//!                    [--duration-ms N] [--exec wcet|uniform|cN] [--idle-level X]
//!                    [--sporadic FRAC] [--seed N] [--gantt] [--trace-csv FILE]
//! rtdvs-cli compare  --tasks FILE [--machine NAME] [--duration-ms N] [...]
//! ```
//!
//! Machines: `machine0` (default), `machine1`, `machine2`, `k6`, `crusoe`,
//! `xscale`. Policies, named as procfs names them
//! (`rtdvs_kernel::procfs::parse_policy_name`): `edf`, `rm`, `static-edf`,
//! `static-rm`, `cc-edf`, `cc-rm`, `la-edf` (default),
//! `stoch-edf=<confidence>`, `interval`, `manual-edf=<point>`.

use std::fs;
use std::process::ExitCode;

use rtdvs_bench::taskfile::parse_task_set;
use rtdvs_core::analysis::{
    edf_feasible_at, liu_layland_bound, rm_feasible_at, static_edf_point, static_rm_point, RmTest,
};
use rtdvs_core::hyperperiod::hyperperiod;
use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::task::TaskSet;
use rtdvs_core::time::Time;
use rtdvs_kernel::procfs::parse_policy_name;
use rtdvs_platform::{crusoe_tm5400, xscale_80200, PowerNowCpu};
use rtdvs_sim::{simulate, theoretical_bound, ArrivalModel, ExecModel, SimConfig};

fn machine_by_name(name: &str) -> Result<Machine, String> {
    match name {
        "machine0" => Ok(Machine::machine0()),
        "machine1" => Ok(Machine::machine1()),
        "machine2" => Ok(Machine::machine2()),
        "k6" => PowerNowCpu::k6_2_plus_550()
            .machine()
            .map_err(|e| e.to_string()),
        "crusoe" => crusoe_tm5400().map_err(|e| e.to_string()),
        "xscale" => xscale_80200().map_err(|e| e.to_string()),
        other => Err(format!(
            "unknown machine {other}; expected machine0|machine1|machine2|k6|crusoe|xscale"
        )),
    }
}

fn exec_by_name(name: &str) -> Result<ExecModel, String> {
    if name == "wcet" {
        return Ok(ExecModel::Wcet);
    }
    if name == "uniform" {
        return Ok(ExecModel::uniform());
    }
    if let Some(c) = name.strip_prefix('c') {
        let c: f64 = c.parse().map_err(|_| format!("bad exec model {name}"))?;
        if !(0.0..=1.0).contains(&c) {
            return Err(format!("fraction {c} outside [0, 1]"));
        }
        return Ok(ExecModel::ConstantFraction(c));
    }
    Err(format!(
        "unknown exec model {name}; expected wcet|uniform|c<frac>"
    ))
}

#[derive(Debug)]
struct Options {
    command: String,
    tasks: Option<String>,
    machine: Machine,
    policy: PolicyKind,
    duration: Time,
    exec: ExecModel,
    idle_level: f64,
    sporadic: Option<f64>,
    seed: u64,
    gantt: bool,
    trace_csv: Option<String>,
}

fn parse_options() -> Result<Options, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let mut opts = Options {
        command,
        tasks: None,
        machine: Machine::machine0(),
        policy: PolicyKind::LaEdf,
        duration: Time::from_secs(1.0),
        exec: ExecModel::Wcet,
        idle_level: 0.0,
        sporadic: None,
        seed: 0,
        gantt: false,
        trace_csv: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            argv.next().ok_or(format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--tasks" => opts.tasks = Some(value("--tasks")?),
            "--machine" => opts.machine = machine_by_name(&value("--machine")?)?,
            "--policy" => opts.policy = parse_policy_name(&value("--policy")?)?,
            "--duration-ms" => {
                let ms: f64 = value("--duration-ms")?
                    .parse()
                    .map_err(|_| "bad duration".to_owned())?;
                opts.duration = Time::from_ms(ms);
            }
            "--exec" => opts.exec = exec_by_name(&value("--exec")?)?,
            "--idle-level" => {
                opts.idle_level = value("--idle-level")?
                    .parse()
                    .map_err(|_| "bad idle level".to_owned())?;
            }
            "--sporadic" => {
                opts.sporadic = Some(
                    value("--sporadic")?
                        .parse()
                        .map_err(|_| "bad sporadic fraction".to_owned())?,
                );
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad seed".to_owned())?;
            }
            "--gantt" => opts.gantt = true,
            "--trace-csv" => opts.trace_csv = Some(value("--trace-csv")?),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn usage() -> String {
    "usage: rtdvs-cli <analyze|simulate|compare> --tasks FILE [options]".to_owned()
}

fn load_tasks(opts: &Options) -> Result<TaskSet, String> {
    let path = opts.tasks.as_ref().ok_or("--tasks FILE is required")?;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_task_set(&text).map_err(|e| format!("{path}: {e}"))
}

fn sim_config(opts: &Options) -> SimConfig {
    let mut cfg = SimConfig::new(opts.duration)
        .with_exec(opts.exec.clone())
        .with_idle_level(opts.idle_level)
        .with_seed(opts.seed);
    if let Some(extra) = opts.sporadic {
        cfg = cfg.with_arrival(ArrivalModel::Sporadic {
            max_extra_fraction: extra,
        });
    }
    if opts.gantt || opts.trace_csv.is_some() {
        cfg = cfg.with_trace();
    }
    cfg
}

fn cmd_analyze(opts: &Options) -> Result<(), String> {
    let tasks = load_tasks(opts)?;
    let m = &opts.machine;
    println!("machine: {m}");
    println!("tasks: {}", tasks.len());
    for (id, t) in tasks.iter() {
        println!(
            "  {id}: P = {:.3} ms, C = {:.3} ms, U = {:.4}",
            t.period().as_ms(),
            t.wcet().as_ms(),
            t.utilization()
        );
    }
    let u = tasks.total_utilization();
    println!("total worst-case utilization: {u:.4}");
    match hyperperiod(&tasks) {
        Some(h) => println!("hyperperiod: {:.3} ms", h.as_ms()),
        None => println!("hyperperiod: (too large or off-grid)"),
    }
    println!(
        "EDF schedulable at max frequency: {}",
        edf_feasible_at(&tasks, 1.0)
    );
    println!(
        "RM Liu-Layland bound n(2^(1/n)-1) = {:.4}: {}",
        liu_layland_bound(tasks.len()),
        rm_feasible_at(&tasks, 1.0, RmTest::LiuLayland)
    );
    println!(
        "RM exact (scheduling points): {}",
        rm_feasible_at(&tasks, 1.0, RmTest::SchedulingPoints)
    );
    match static_edf_point(&tasks, m) {
        Some(idx) => println!(
            "static EDF operating point: {} (f = {:.3})",
            idx,
            m.point(idx).freq
        ),
        None => println!("static EDF operating point: none (infeasible)"),
    }
    match static_rm_point(&tasks, m, RmTest::default()) {
        Some(idx) => println!(
            "static RM operating point: {} (f = {:.3})",
            idx,
            m.point(idx).freq
        ),
        None => println!("static RM operating point: none (infeasible)"),
    }
    Ok(())
}

fn cmd_simulate(opts: &Options) -> Result<(), String> {
    let tasks = load_tasks(opts)?;
    let cfg = sim_config(opts);
    let report = simulate(&tasks, &opts.machine, opts.policy, &cfg);
    println!(
        "policy {} on {} for {:.1} ms",
        report.policy,
        opts.machine.name(),
        opts.duration.as_ms()
    );
    println!(
        "energy: {:.3} (mean power {:.4})",
        report.energy(),
        report.mean_power()
    );
    println!(
        "work executed: {:.3} ms; switches: {} ({} voltage)",
        report.total_work().as_ms(),
        report.switches,
        report.voltage_switches
    );
    println!("deadline misses: {}", report.misses.len());
    for miss in report.misses.iter().take(5) {
        println!(
            "  {} missed at {:.3} ms (invocation {}, {:.3} ms of work left)",
            miss.task,
            miss.deadline.as_ms(),
            miss.invocation,
            miss.remaining.as_ms()
        );
    }
    let bound = theoretical_bound(
        &opts.machine,
        report.total_work(),
        opts.duration,
        opts.idle_level,
    );
    println!("theoretical bound for this work: {bound:.3}");
    if let Some(trace) = &report.trace {
        if opts.gantt {
            let span = Time::from_ms(opts.duration.as_ms().min(100.0));
            println!("\nfirst {:.0} ms:", span.as_ms());
            println!("{}", trace.render_gantt(&opts.machine, span, 72));
        }
        if let Some(path) = &opts.trace_csv {
            fs::write(path, trace.to_csv(&opts.machine))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("trace written to {path}");
        }
    }
    Ok(())
}

fn cmd_compare(opts: &Options) -> Result<(), String> {
    let tasks = load_tasks(opts)?;
    let cfg = sim_config(opts);
    let base = simulate(&tasks, &opts.machine, PolicyKind::PlainEdf, &cfg);
    println!(
        "{:<10} {:>12} {:>8} {:>8} {:>9}",
        "policy", "energy", "normd", "misses", "switches"
    );
    for kind in PolicyKind::paper_six() {
        let r = simulate(&tasks, &opts.machine, kind, &cfg);
        println!(
            "{:<10} {:>12.2} {:>8.3} {:>8} {:>9}",
            kind.name(),
            r.energy(),
            r.energy() / base.energy(),
            r.misses.len(),
            r.switches
        );
    }
    let bound = theoretical_bound(
        &opts.machine,
        base.total_work(),
        opts.duration,
        opts.idle_level,
    );
    println!(
        "{:<10} {:>12.2} {:>8.3}",
        "bound",
        bound,
        bound / base.energy()
    );
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_options() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = match opts.command.as_str() {
        "analyze" => cmd_analyze(&opts),
        "simulate" => cmd_simulate(&opts),
        "compare" => cmd_compare(&opts),
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
