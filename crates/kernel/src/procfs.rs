//! The prototype's procfs-style text interface (§4.2).
//!
//! On the paper's Linux prototype, "tasks can use ordinary file read and
//! write mechanisms to interact with our modules": a task writes its
//! period and computing bound to register, writes again to signal each
//! completion, and `cat` on the module file returns status "in a human
//! readable form". This module reproduces that control surface as a text
//! protocol over [`RtKernel`], which makes the kernel scriptable from
//! tests, REPLs, and the CLI without touching the typed API.
//!
//! Commands (one per line):
//!
//! ```text
//! register <period_ms> <wcet_ms> <fraction>   -> "ok rtN"
//! remove <handle>                             -> "ok"
//! policy <name>                               -> "ok <name>"
//! run <ms>                                    -> "ok t=<now>"
//! status                                      -> the status dump
//! energy                                      -> "<joule-units>"
//! misses                                      -> "<count>"
//! frequency                                   -> "<normalized freq>"
//! overruns                                    -> "<count>"
//! degraded                                    -> "yes" | "no"
//! epoch                                       -> "<mode epoch>"
//! governor                                    -> "nominal" | "stretched" | "shedding"
//! last-snapshot                               -> "never" | "<ms>"
//! checkpoint                                  -> "ok <bytes> bytes"
//! cap                                         -> "none" | "<point index>"
//! cap <idx|none>                              -> "ok cap=<idx|none>"
//! transitions                                 -> "retries=N failures=N fallbacks=N forced=N"
//! ladder                                      -> "pos=<rung> policy=<name>"
//! availability                                -> "up=… nominal=… mttf=… rungs=…"
//! tenants                                     -> "none" | one line per tenant lane
//! clock                                       -> "inactive" | "drift_ppm=… ewma_ms=… clamped=… last_clamp=… catch_up=… gap=… watchdog=…"
//! supervisor                                  -> "off" | "state=… restores=… checkpoint=…"
//! supervise <heartbeat_ms>                    -> "ok heartbeat=<ms>"
//! ```
//!
//! `<fraction>` gives the registered task's actual per-invocation demand
//! as a fraction of its bound (the text protocol cannot carry closures).
//! Every numeric argument must be a finite number, and `<fraction>` must
//! lie in [0, 1]; anything else is an `err: bad <field>` reply.

use rtdvs_core::analysis::RmTest;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::sched::SchedulerKind;
use rtdvs_core::time::{Time, Work};

use crate::body::FractionBody;
use crate::kernel::{RtKernel, TaskHandle};

/// Parses a policy module name as used by the prototype's module loader.
///
/// # Errors
///
/// Returns a human-readable message for unknown names.
pub fn parse_policy_name(name: &str) -> Result<PolicyKind, String> {
    match name {
        "edf" => Ok(PolicyKind::PlainEdf),
        "rm" => Ok(PolicyKind::PlainRm),
        "static-edf" => Ok(PolicyKind::StaticEdf),
        "static-rm" => Ok(PolicyKind::StaticRm(RmTest::default())),
        "cc-edf" => Ok(PolicyKind::CcEdf),
        "cc-rm" => Ok(PolicyKind::CcRm(RmTest::default())),
        "la-edf" => Ok(PolicyKind::LaEdf),
        "interval" => Ok(PolicyKind::Interval),
        other => {
            if let Some(c) = other.strip_prefix("stoch-edf=") {
                let confidence: f64 = c.parse().map_err(|_| format!("bad confidence {c:?}"))?;
                if confidence > 0.0 && confidence <= 1.0 {
                    return Ok(PolicyKind::StochasticEdf { confidence });
                }
                return Err(format!("confidence {confidence} outside (0, 1]"));
            }
            if let Some(p) = other.strip_prefix("manual-edf=") {
                let point: usize = p.parse().map_err(|_| format!("bad point {p:?}"))?;
                return Ok(PolicyKind::Manual {
                    scheduler: SchedulerKind::Edf,
                    point,
                });
            }
            Err(format!("unknown policy {other:?}"))
        }
    }
}

/// Executes one text command against the kernel, returning the reply line
/// (or an `err: …` line; the interface never panics on user input).
pub fn execute(kernel: &mut RtKernel, line: &str) -> String {
    match try_execute(kernel, line) {
        Ok(reply) => reply,
        Err(msg) => format!("err: {msg}"),
    }
}

/// Executes a whole script (one command per line, `#` comments allowed),
/// returning one reply per executed command.
pub fn execute_script(kernel: &mut RtKernel, script: &str) -> Vec<String> {
    script
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| execute(kernel, l))
        .collect()
}

fn parse_handle(token: &str) -> Result<TaskHandle, String> {
    token
        .strip_prefix("rt")
        .and_then(|n| n.parse::<u64>().ok())
        .map(TaskHandle::from_raw)
        .ok_or_else(|| format!("bad handle {token:?}"))
}

/// Parses the numeric argument `field`, which must pass `ok`.
fn number(token: &str, field: &str, ok: fn(f64) -> bool) -> Result<f64, String> {
    token
        .parse()
        .ok()
        .filter(|&x| ok(x))
        .ok_or_else(|| format!("bad {field}"))
}

fn try_execute(kernel: &mut RtKernel, line: &str) -> Result<String, String> {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().ok_or("empty command")?;
    let rest: Vec<&str> = parts.collect();
    match (cmd, rest.as_slice()) {
        ("register", [period, wcet, fraction]) => {
            let period = number(period, "period", f64::is_finite)?;
            let wcet = number(wcet, "wcet", f64::is_finite)?;
            let fraction = number(fraction, "fraction", |f| (0.0..=1.0).contains(&f))?;
            let handle = kernel
                .spawn(
                    Time::from_ms(period),
                    Work::from_ms(wcet),
                    Box::new(FractionBody(fraction)),
                )
                .map_err(|e| e.to_string())?;
            Ok(format!("ok {handle}"))
        }
        ("remove", [handle]) => {
            kernel
                .remove(parse_handle(handle)?)
                .map_err(|e| e.to_string())?;
            Ok("ok".to_owned())
        }
        ("policy", [name]) => {
            let kind = parse_policy_name(name)?;
            kernel.load_policy(kind);
            Ok(format!("ok {}", kernel.policy_name()))
        }
        ("run", [ms]) => {
            let ms = number(ms, "duration", f64::is_finite)?;
            if ms <= 0.0 {
                return Err("duration must be positive".to_owned());
            }
            kernel.run_for(Time::from_ms(ms));
            Ok(format!("ok t={:.3}", kernel.now().as_ms()))
        }
        ("status", []) => Ok(kernel.status()),
        ("energy", []) => Ok(format!("{:.6}", kernel.energy())),
        ("misses", []) => Ok(format!("{}", kernel.misses().count())),
        ("frequency", []) => Ok(format!("{:.3}", kernel.current_frequency())),
        ("overruns", []) => Ok(format!("{}", kernel.overruns())),
        ("degraded", []) => Ok(if kernel.degraded() { "yes" } else { "no" }.to_owned()),
        ("epoch", []) => Ok(format!("{}", kernel.mode_epoch())),
        ("governor", []) => Ok(kernel.governor().to_string()),
        ("last-snapshot", []) => Ok(match kernel.last_snapshot_at() {
            None => "never".to_owned(),
            Some(t) => format!("{:.3}", t.as_ms()),
        }),
        ("checkpoint", []) => {
            let snap = kernel.checkpoint().map_err(|e| e.to_string())?;
            Ok(format!("ok {} bytes", snap.as_text().len()))
        }
        ("cap", []) => Ok(match kernel.brownout_cap() {
            None => "none".to_owned(),
            Some(c) => format!("{c}"),
        }),
        ("cap", ["none"]) => {
            kernel.set_brownout_cap(None);
            Ok("ok cap=none".to_owned())
        }
        ("cap", [idx]) => {
            let idx: usize = idx
                .parse()
                .map_err(|_| format!("bad point index {idx:?}"))?;
            kernel.set_brownout_cap(Some(idx));
            Ok(format!(
                "ok cap={}",
                kernel.brownout_cap().unwrap_or_default()
            ))
        }
        ("transitions", []) => {
            let (retries, failures, fallbacks, forced) = kernel.transition_stats();
            Ok(format!(
                "retries={retries} failures={failures} fallbacks={fallbacks} forced={forced}"
            ))
        }
        ("ladder", []) => Ok(format!(
            "pos={} policy={}",
            kernel.ladder_position(),
            kernel.policy_name()
        )),
        ("tenants", []) => {
            let mut lines = Vec::new();
            for (handle, server) in kernel.tenant_servers() {
                for l in server.lane_stats() {
                    lines.push(format!(
                        "{handle} {} quota={:.3} backlog={} shed={} rejected={} quarantine={}",
                        l.tenant,
                        l.quota.as_ms(),
                        l.backlog,
                        l.shed,
                        l.rejected,
                        if l.quarantined { "yes" } else { "no" },
                    ));
                }
            }
            if lines.is_empty() {
                Ok("none".to_owned())
            } else {
                Ok(lines.join("\n"))
            }
        }
        ("clock", []) => {
            let stats = kernel.clock_stats();
            if !stats.active {
                return Ok("inactive".to_owned());
            }
            let last_clamp = stats
                .last_clamp
                .map_or_else(|| "never".to_owned(), |t| format!("{:.3}", t.as_ms()));
            Ok(format!(
                "drift_ppm={:.3} ewma_ms={:.6} clamped={} last_clamp={last_clamp} \
                 catch_up={} gap={} watchdog={}",
                stats.drift_ppm,
                stats.ewma_err_ms,
                stats.clamped_jumps,
                stats.max_catch_up,
                stats.pending_gap,
                if stats.watchdog { "yes" } else { "no" },
            ))
        }
        ("availability", []) => {
            let stats = kernel.availability();
            let rungs = stats
                .rung_ms
                .iter()
                .map(|ms| format!("{ms:.3}"))
                .collect::<Vec<_>>()
                .join(",");
            Ok(format!(
                "up={:.6} nominal={:.3} degraded={:.3} outages={} failures={} \
                 recoveries={} mttf={:.3} mttr={:.3} worst_recovery={:.3} rungs={rungs}",
                stats.availability(),
                stats.nominal_ms,
                stats.degraded_ms,
                stats.outages,
                stats.failures,
                stats.recoveries,
                stats.mttf_ms(),
                stats.mttr_ms(),
                stats.worst_recovery_ms,
            ))
        }
        ("supervisor", []) => Ok(kernel.supervisor_status()),
        ("supervise", [heartbeat]) => {
            let ms = number(heartbeat, "heartbeat", f64::is_finite)?;
            if ms <= 0.0 {
                return Err("heartbeat must be positive".to_owned());
            }
            kernel.arm_supervisor(crate::supervisor::SupervisorConfig {
                heartbeat: Time::from_ms(ms),
                ..crate::supervisor::SupervisorConfig::default()
            });
            Ok(format!("ok heartbeat={ms:.3}"))
        }
        _ => Err(format!("unknown command {line:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdvs_core::machine::Machine;

    fn kernel() -> RtKernel {
        RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf)
    }

    #[test]
    fn register_run_and_read_back() {
        let mut k = kernel();
        assert_eq!(execute(&mut k, "register 10 3 0.9"), "ok rt1");
        assert_eq!(execute(&mut k, "register 20 4 0.5"), "ok rt2");
        assert_eq!(execute(&mut k, "run 100"), "ok t=100.000");
        assert_eq!(execute(&mut k, "misses"), "0");
        let status = execute(&mut k, "status");
        assert!(status.contains("rt1"));
        assert!(status.contains("rt2"));
        let energy: f64 = execute(&mut k, "energy").parse().unwrap();
        assert!(energy > 0.0);
    }

    #[test]
    fn policy_swap_via_text() {
        let mut k = kernel();
        execute(&mut k, "register 10 3 0.9");
        assert_eq!(execute(&mut k, "policy la-edf"), "ok laEDF");
        execute(&mut k, "run 50");
        let f: f64 = execute(&mut k, "frequency").parse().unwrap();
        assert!(f < 1.0, "laEDF should have scaled down, got {f}");
        assert_eq!(execute(&mut k, "policy stoch-edf=0.9"), "ok stochEDF");
    }

    #[test]
    fn remove_via_text() {
        let mut k = kernel();
        execute(&mut k, "register 10 9 1.0");
        assert!(execute(&mut k, "register 10 9 1.0").starts_with("err:"));
        assert_eq!(execute(&mut k, "remove rt1"), "ok");
        assert_eq!(execute(&mut k, "register 10 9 1.0"), "ok rt2");
        assert!(execute(&mut k, "remove rt1").starts_with("err:"));
        assert!(execute(&mut k, "remove bogus").starts_with("err:"));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut k = kernel();
        assert!(execute(&mut k, "").starts_with("err:"));
        assert!(execute(&mut k, "frobnicate").starts_with("err:"));
        assert!(execute(&mut k, "register ten three 0.5").starts_with("err:"));
        assert!(execute(&mut k, "run -5").starts_with("err:"));
        assert!(execute(&mut k, "policy nonsense").starts_with("err:"));
        assert!(execute(&mut k, "policy stoch-edf=2.0").starts_with("err:"));
    }

    /// Every numeric argument, non-finite: a typed error, and the kernel
    /// still runs afterwards.
    #[test]
    fn non_finite_numbers_are_rejected() {
        let mut k = kernel();
        execute(&mut k, "register 10 3 0.9");
        for bad in ["nan", "inf", "-inf"] {
            for (line, field) in [
                (format!("register {bad} 1 0.5"), "period"),
                (format!("register 10 {bad} 0.5"), "wcet"),
                (format!("register 10 1 {bad}"), "fraction"),
                (format!("run {bad}"), "duration"),
                (format!("supervise {bad}"), "heartbeat"),
            ] {
                let reply = execute(&mut k, &line);
                assert_eq!(reply, format!("err: bad {field}"), "{line}");
                assert!(execute(&mut k, "run 10").starts_with("ok t="), "{line}");
            }
        }
        for line in ["register 10 1 -0.1", "register 10 1 1.5"] {
            assert_eq!(execute(&mut k, line), "err: bad fraction");
        }
    }

    #[test]
    fn scripts_run_line_by_line() {
        let mut k = kernel();
        let replies = execute_script(
            &mut k,
            "# bring up a small system\n\
             register 8 3 0.7\n\
             register 14 1 0.7   # low-rate task\n\
             policy cc-edf\n\
             run 160\n\
             misses\n",
        );
        assert_eq!(replies.len(), 5);
        assert_eq!(replies[0], "ok rt1");
        assert_eq!(replies[2], "ok ccEDF");
        assert_eq!(replies[4], "0");
    }

    #[test]
    fn overruns_and_degraded_read_back() {
        use crate::body::ColdStartBody;
        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf).with_degraded_mode();
        assert_eq!(execute(&mut k, "overruns"), "0");
        assert_eq!(execute(&mut k, "degraded"), "no");
        k.spawn(
            Time::from_ms(20.0),
            Work::from_ms(4.0),
            Box::new(ColdStartBody::new(FractionBody(0.9), 0.5)),
        )
        .unwrap();
        execute(&mut k, "run 100");
        assert_eq!(execute(&mut k, "overruns"), "1");
    }

    #[test]
    fn lifecycle_fields_read_back() {
        let mut k = kernel();
        assert_eq!(execute(&mut k, "epoch"), "0");
        assert_eq!(execute(&mut k, "governor"), "nominal");
        assert_eq!(execute(&mut k, "last-snapshot"), "never");
        execute(&mut k, "register 10 3 0.9");
        execute(&mut k, "run 25");
        let reply = execute(&mut k, "checkpoint");
        assert!(
            reply.starts_with("ok ") && reply.ends_with(" bytes"),
            "{reply}"
        );
        assert_eq!(execute(&mut k, "last-snapshot"), "25.000");
        assert!(execute(&mut k, "status").contains("last_snapshot=25.000ms"));
    }

    #[test]
    fn regulator_fields_read_back() {
        let mut k = kernel();
        execute(&mut k, "register 10 3 0.9");
        assert_eq!(execute(&mut k, "cap"), "none");
        assert_eq!(
            execute(&mut k, "transitions"),
            "retries=0 failures=0 fallbacks=0 forced=0"
        );
        assert_eq!(execute(&mut k, "ladder"), "pos=0 policy=EDF");
        assert_eq!(execute(&mut k, "supervisor"), "off");
        // Impose a cap, run, lift it again.
        assert_eq!(execute(&mut k, "cap 1"), "ok cap=1");
        assert_eq!(execute(&mut k, "cap"), "1");
        execute(&mut k, "run 60");
        assert_eq!(execute(&mut k, "cap none"), "ok cap=none");
        assert!(execute(&mut k, "cap grue").starts_with("err:"));
        // An out-of-range cap clamps to the top point.
        assert_eq!(execute(&mut k, "cap 99"), "ok cap=2");
    }

    #[test]
    fn supervisor_arms_via_text() {
        let mut k = kernel();
        execute(&mut k, "register 10 3 0.9");
        assert_eq!(execute(&mut k, "supervise 50"), "ok heartbeat=50.000");
        execute(&mut k, "run 200");
        let s = execute(&mut k, "supervisor");
        assert!(s.contains("state=nominal"), "{s}");
        assert!(s.contains("restores=0"), "{s}");
        assert!(execute(&mut k, "supervise -1").starts_with("err:"));
    }

    #[test]
    fn tenants_read_back() {
        use rtdvs_core::tenant::{TenantId, TenantQuota};

        let mut k = kernel();
        assert_eq!(execute(&mut k, "tenants"), "none");
        let quotas = [
            TenantQuota::new(TenantId::from_raw(1), Work::from_ms(0.5), 2),
            TenantQuota::new(TenantId::from_raw(2), Work::from_ms(0.5), 8),
        ];
        let (_, server) = k
            .spawn_tenant_server(Time::from_ms(10.0), Work::from_ms(2.0), &quotas)
            .expect("tenant server admits");
        // Overflow tenant 1's two-deep queue so a shed shows up.
        for _ in 0..3 {
            let _ = server.submit(TenantId::from_raw(1), Work::from_ms(0.4), k.now());
        }
        let reply = execute(&mut k, "tenants");
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines.len(), 2, "{reply}");
        assert_eq!(
            lines[0],
            "rt1 tenant1 quota=0.500 backlog=2 shed=1 rejected=0 quarantine=no"
        );
        assert_eq!(
            lines[1],
            "rt1 tenant2 quota=0.500 backlog=0 shed=0 rejected=0 quarantine=no"
        );
    }

    #[test]
    fn clock_reads_back() {
        use rtdvs_sim::ClockPlan;

        let mut k = kernel();
        assert_eq!(execute(&mut k, "clock"), "inactive");
        k.set_clock_plan(ClockPlan::new(0xC10C_5EED).with_tick_loss(0.4));
        execute(&mut k, "register 10 3 0.9");
        execute(&mut k, "run 200");
        let reply = execute(&mut k, "clock");
        assert!(reply.contains("clamped=0"), "{reply}");
        assert!(reply.contains("last_clamp=never"), "{reply}");
        assert!(reply.contains("catch_up="), "{reply}");
        assert!(reply.contains("watchdog="), "{reply}");
    }

    #[test]
    fn policy_names_round_trip() {
        for name in [
            "edf",
            "rm",
            "static-edf",
            "static-rm",
            "cc-edf",
            "cc-rm",
            "la-edf",
            "interval",
            "stoch-edf=0.5",
            "manual-edf=1",
        ] {
            assert!(parse_policy_name(name).is_ok(), "{name}");
        }
        assert!(parse_policy_name("pace").is_err());
    }
}
