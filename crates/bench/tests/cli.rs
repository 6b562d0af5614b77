//! `rtdvs-cli simulate` rejects hostile numeric flags with a usage error
//! instead of panicking inside the simulator.

use std::process::Command;

#[test]
fn hostile_simulate_flags_are_usage_errors() {
    let tasks = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_table2.tasks");
    std::fs::write(&tasks, "8 3\n10 3\n14 1\n").expect("the target tmpdir is writable");
    let simulate = |flag: &str, value: &str| {
        Command::new(env!("CARGO_BIN_EXE_rtdvs-cli"))
            .args(["simulate", "--tasks"])
            .arg(&tasks)
            .args(["--duration-ms", "16", flag, value])
            .output()
            .expect("rtdvs-cli runs")
    };
    assert!(simulate("--sporadic", "0.5").status.success());
    for (flag, value) in [
        ("--duration-ms", "nan"),
        ("--duration-ms", "inf"),
        ("--duration-ms", "0"),
        ("--duration-ms", "-5"),
        ("--idle-level", "nan"),
        ("--idle-level", "-1"),
        ("--idle-level", "inf"),
        ("--sporadic", "-1"),
        ("--sporadic", "nan"),
        ("--sporadic", "inf"),
    ] {
        let out = simulate(flag, value);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} {value} was accepted");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(stderr.contains("usage:"), "{flag} {value}: {stderr}");
    }
}
