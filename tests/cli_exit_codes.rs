//! The `cme` binary's exit-code contract: 0 success, 1 usage, 2 runtime.
//! Runtime failures (unreachable daemon, dead connection, unusable data)
//! must print a one-line diagnostic, never a raw panic.

use std::process::Command;

fn cme(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cme"))
        .args(args)
        .output()
        .expect("spawn cme")
}

fn stderr(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn usage_errors_exit_1() {
    assert_eq!(cme(&[]).status.code(), Some(1), "no command");
    assert_eq!(cme(&["frobnicate"]).status.code(), Some(1), "unknown verb");
    assert_eq!(
        cme(&["query", "--bogus-flag"]).status.code(),
        Some(1),
        "unknown flag"
    );
    assert_eq!(
        cme(&["serve", "--chaos", "not-a-spec"]).status.code(),
        Some(1),
        "malformed chaos spec"
    );
    // The engine always runs the counting evaluator with the pre-pass on, so
    // neither is a flag.
    for (verb, flag) in [("query", "--strategy"), ("sweep", "--prepass")] {
        let out = cme(&[verb, flag, "on"]);
        assert_eq!(out.status.code(), Some(1), "{verb} {flag}");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("unknown {verb} flag `{flag}`")),
            "{err}"
        );
    }
    assert_eq!(cme(&["help"]).status.code(), Some(0));
}

/// Every daemon job reads the store first and runs on one thread, and
/// `trace sim` replays in one streaming pass: neither a thread count nor a
/// store switch is a flag.
#[test]
fn retired_knob_flags_exit_1_naming_the_flag() {
    for (verb, args) in [
        ("query", &["query", "--threads", "2"][..]),
        ("query", &["query", "--no-store"]),
        ("sweep", &["sweep", "--threads", "2"]),
        ("sweep", &["sweep", "--no-store"]),
        ("trace sim", &["trace", "sim", "--threads", "2"]),
    ] {
        let out = cme(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        let err = stderr(&out);
        assert!(
            err.contains(&format!("unknown {verb} flag `{flag}`")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn unreachable_daemon_exits_2_with_diagnostic() {
    // Port 1 is essentially never listening.
    for verb in ["ping", "stats", "compact", "shutdown"] {
        let out = cme(&[verb, "--addr", "127.0.0.1:1"]);
        assert_eq!(out.status.code(), Some(2), "{verb}");
        let err = stderr(&out);
        assert!(
            err.contains("cannot connect to 127.0.0.1:1"),
            "{verb}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{verb}: one-line diagnostic");
    }
    let out = cme(&["query", "--addr", "127.0.0.1:1", "--workload", "mmt"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot connect"), "{}", stderr(&out));
}

#[test]
fn trace_sim_bad_inputs_exit_2_with_path() {
    let out = cme(&["trace", "sim", "--in", "/nonexistent/t.cmet"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("/nonexistent/t.cmet"),
        "{}",
        stderr(&out)
    );

    // A zero-access trace must be a hard error naming the file, not a
    // replay of nothing with a perfect miss ratio.
    let empty = std::env::temp_dir().join(format!("cme-cli-empty-{}.cmet", std::process::id()));
    std::fs::write(&empty, b"").unwrap();
    let out = cme(&[
        "trace",
        "sim",
        "--in",
        empty.to_str().unwrap(),
        "--geometry",
        "2K:2:32",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("no accesses"), "{err}");
    assert!(err.contains(empty.to_str().unwrap()), "{err}");
    let _ = std::fs::remove_file(&empty);
}

#[test]
fn trace_gen_and_sim_roundtrip_exits_0() {
    let path = std::env::temp_dir().join(format!("cme-cli-rt-{}.cmet", std::process::id()));
    let gen = cme(&[
        "trace",
        "gen",
        "--workload",
        "mmt",
        "--n",
        "8",
        "--out",
        path.to_str().unwrap(),
        "--geometry",
        "2K:2:32",
    ]);
    assert_eq!(gen.status.code(), Some(0), "{}", stderr(&gen));
    let sim = cme(&["trace", "sim", "--in", path.to_str().unwrap()]);
    assert_eq!(sim.status.code(), Some(0), "{}", stderr(&sim));
    let _ = std::fs::remove_file(&path);
}
