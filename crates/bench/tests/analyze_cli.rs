//! Drives the `analyze` binary itself: malformed FORTRAN must produce a
//! `path:line:` diagnostic and a nonzero exit, never a panic; so must a
//! malformed numeric flag, here and in the table binaries, and an unknown
//! flag. Well-formed input must still succeed.

use std::path::PathBuf;
use std::process::Command;

fn temp_file(tag: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cme-analyze-{tag}-{}.f", std::process::id()));
    std::fs::write(&path, contents).expect("write temp source");
    path
}

fn analyze(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(args)
        .output()
        .expect("spawn analyze")
}

#[test]
fn malformed_fortran_exits_nonzero_with_file_line_diagnostic() {
    // Line 3 opens a DO loop that is never closed.
    let src = "      SUBROUTINE S\n      REAL*8 A(8)\n      DO 10 I = 1, 8\n      A(I) = 0.0\n      END\n";
    let path = temp_file("unclosed-do", src);
    let out = analyze(&["--file", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_file(&path);

    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("{}:", path.display())),
        "diagnostic must name the file: {stderr}"
    );
    // `path:line:` — the diagnostic points into the source.
    let after_path =
        &stderr[stderr.find(path.to_str().unwrap()).unwrap() + path.as_os_str().len()..];
    assert!(
        after_path.starts_with(':')
            && after_path[1..]
                .split(':')
                .next()
                .is_some_and(|l| l.trim().parse::<usize>().is_ok()),
        "diagnostic must carry a line number: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

#[test]
fn unbound_symbol_diagnostic_names_the_symbol() {
    let src = "      SUBROUTINE S\n      REAL*8 A(N)\n      DO 10 I = 1, N\n      A(I) = 0.0\n10    CONTINUE\n      END\n";
    let path = temp_file("unbound", src);
    // No --param N=..., so N is unbound.
    let out = analyze(&["--file", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_file(&path);

    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("`N`"), "should name the symbol: {stderr}");
}

#[test]
fn unknown_workload_exits_nonzero() {
    let out = analyze(&["--workload", "doom"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("doom"), "{stderr}");
}

#[test]
fn well_formed_file_still_succeeds() {
    let src = "      SUBROUTINE S\n      REAL*8 A(N)\n      DO 10 I = 1, N\n      A(I) = 0.0\n10    CONTINUE\n      END\n";
    let path = temp_file("good", src);
    let out = analyze(&[
        "--file",
        path.to_str().unwrap(),
        "--param",
        "N=16",
        "--exact",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let _ = std::fs::remove_file(&path);

    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("miss ratio"), "{stdout}");
}

#[test]
fn degenerate_geometries_exit_two_with_one_line_diagnostic() {
    // Zero fields, a size that does not divide into ways, and a
    // 64-bit-overflowing way size: each must be a one-line exit-2
    // diagnostic, never a panic or a wrapped-arithmetic analysis.
    for (geometry, needle) in [
        ("0:1:32", "cache size"),
        ("8K:0:32", "associativity"),
        ("8K:1:0", "line size"),
        ("8K:3:32", "divide"),
        ("9223372036854775807:4:9223372036854775807", "overflows"),
    ] {
        let out = analyze(&["--workload", "mmt", "--n", "8", "--geometry", geometry]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{geometry}: {stderr}");
        assert!(
            stderr.to_lowercase().contains(needle),
            "{geometry}: diagnostic should mention {needle}: {stderr}"
        );
        assert_eq!(
            stderr.trim().lines().count(),
            1,
            "{geometry}: diagnostic must be one line: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{geometry}: {stderr}");
    }
}

#[test]
fn malformed_numeric_flags_exit_two_naming_the_flag() {
    for flag in [
        "--n",
        "--iters",
        "--cache",
        "--line",
        "--assoc",
        "--threads",
    ] {
        let out = analyze(&["--workload", "mmt", flag, "abc"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert_eq!(
            stderr.trim(),
            format!("analyze: {flag} wants an integer, got `abc`"),
            "{flag}"
        );
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
}

#[test]
fn table_binaries_reject_malformed_threads_and_scale() {
    for (args, want) in [
        (
            ["--threads", "x"],
            "table3: --threads wants an integer, got `x`",
        ),
        (
            ["--scale", "huge"],
            "table3: --scale wants small, medium or paper, got `huge`",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table3"))
            .args(args)
            .output()
            .expect("spawn table3");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.trim(), want);
    }
}

#[test]
fn unknown_flags_exit_two_naming_the_flag() {
    for (args, flag) in [
        (&["--workload", "mmt", "--exakt"][..], "--exakt"),
        (
            &["--workload", "mmt", "--n", "8", "--threads", "1", "--walk"][..],
            "--walk",
        ),
        // The pre-pass is no longer optional: its switch is retired.
        (&["--workload", "mmt", "--prepass", "off"][..], "--prepass"),
        (&["-n", "8"][..], "-n"),
        (&["--workload", "mmt", "--n", "8", "extra"][..], "extra"),
    ] {
        let out = analyze(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(
            stderr.trim(),
            format!("analyze: unknown flag `{flag}`"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
}

#[test]
fn values_of_flags_are_not_flags() {
    let out = analyze(&[
        "--workload",
        "mmt",
        "--n",
        "8",
        "--param",
        "X=1",
        "--geometry",
        "4K:2:32",
        "--iters",
        "1",
        "--threads",
        "1",
        "--exact",
        "--simulate",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
}
