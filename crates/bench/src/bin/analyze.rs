//! Command-line analyser: run the cache model on a bundled workload (or a
//! FORTRAN file) and print the per-reference miss breakdown.
//!
//! ```text
//! cargo run -p cme-bench --bin analyze --release -- --workload hydro --n 50
//! cargo run -p cme-bench --bin analyze --release -- --file prog.f --param N=64 --exact
//! ```
//!
//! Options:
//! * `--workload <hydro|mgrid|mmt|tomcatv|swim|applu|livermore1|livermore5|dgefa|mxm>`
//! * `--file <path>` — parse a FORTRAN file instead (calls are inlined)
//! * `--param NAME=VALUE` — compile-time binding (repeatable)
//! * `--n <size>` — problem size for bundled workloads (default 32)
//! * `--iters <t>` — time steps for whole-program workloads (default 2)
//! * `--cache <bytes>` `--line <bytes>` `--assoc <k>` — geometry
//!   (default 32KB/32B/2)
//! * `--geometry SIZE:ASSOC:LINE` — geometry as one string, e.g.
//!   `48K:2:32`; overrides the three flags above and admits
//!   non-power-of-two set counts
//! * `--exact` — run `FindMisses` instead of `EstimateMisses`
//! * `--simulate` — also run the trace-driven simulator for comparison
//! * `--threads <n>` — worker threads for point classification
//!   (0 or absent = one per hardware thread; 1 = serial). The report is
//!   byte-identical for every value.
//! * `--prepass <on|off>` — the definitely-hit/definitely-miss pre-pass
//!   (default on). Pure accelerator: the report is byte-identical either
//!   way.
//!
//! Any other flag is rejected with a one-line diagnostic and exit code 2.

use cme_analysis::{EstimateMisses, FindMisses, PrepassMode, SamplingOptions};
use cme_cache::{CacheConfig, Simulator};
use cme_ir::Program;
use std::collections::HashMap;
use std::process::ExitCode;

/// Flags followed by a value.
const VALUE_FLAGS: [&str; 11] = [
    "--workload",
    "--file",
    "--param",
    "--n",
    "--iters",
    "--cache",
    "--line",
    "--assoc",
    "--geometry",
    "--threads",
    "--prepass",
];

/// Flags that stand alone.
const SWITCHES: [&str; 2] = ["--exact", "--simulate"];

/// Prints a diagnostic and exits nonzero — bad input is a user error, not
/// a panic (exit code 2, like a compiler rejecting its input).
fn fail(message: &str) -> ExitCode {
    eprintln!("analyze: {message}");
    ExitCode::from(2)
}

/// The first argument that is neither a documented flag nor the value
/// of one.
fn unknown_flag(args: &[String]) -> Option<&str> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            it.next();
        } else if !SWITCHES.contains(&arg.as_str()) {
            return Some(arg);
        }
    }
    None
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = unknown_flag(&args) {
        return fail(&format!("unknown flag `{flag}`"));
    }
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);

    let n: i64 = cme_bench::int_flag("--n").unwrap_or(32);
    let iters: i64 = cme_bench::int_flag("--iters").unwrap_or(2);
    let cache_bytes: u64 = cme_bench::int_flag("--cache").unwrap_or(32 * 1024);
    let line: u64 = cme_bench::int_flag("--line").unwrap_or(32);
    let assoc: u32 = cme_bench::int_flag("--assoc").unwrap_or(2);
    let threads = cme_bench::threads_from_args();
    let cfg = if let Some(spec) = get("--geometry") {
        match CacheConfig::parse_geometry(&spec) {
            Ok(cfg) => cfg,
            Err(e) => return fail(&e.to_string()),
        }
    } else {
        match CacheConfig::new(cache_bytes, line, assoc) {
            Ok(cfg) => cfg,
            Err(e) => return fail(&e.to_string()),
        }
    };

    let program: Program = if let Some(path) = get("--file") {
        let mut params: HashMap<String, i64> = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--param" {
                let Some(kv) = args.get(i + 1) else {
                    return fail("--param needs NAME=VALUE");
                };
                let Some((k, v)) = kv.split_once('=') else {
                    return fail(&format!("--param wants NAME=VALUE, got `{kv}`"));
                };
                let Ok(v) = v.parse() else {
                    return fail(&format!("--param value `{v}` is not an integer"));
                };
                params.insert(k.to_uppercase(), v);
            }
            i += 1;
        }
        match cme_bench::load_fortran(&path, &params) {
            Ok(p) => p,
            Err(diagnostic) => return fail(&diagnostic),
        }
    } else {
        match get("--workload").as_deref().unwrap_or("hydro") {
            "hydro" => cme_workloads::hydro(n, n),
            "mgrid" => cme_workloads::mgrid(n),
            "mmt" => cme_workloads::mmt(n, (n / 2).max(1), (n / 4).max(1)),
            "tomcatv" => cme_workloads::tomcatv_like(n, iters),
            "swim" => cme_workloads::swim_like(n, iters),
            "applu" => cme_workloads::applu_like(n, iters),
            "livermore1" => cme_workloads::livermore1(n * n),
            "livermore5" => cme_workloads::livermore5(n * n),
            "dgefa" => cme_workloads::dgefa(n),
            "mxm" => cme_workloads::mxm(n),
            other => return fail(&format!("unknown workload `{other}`")),
        }
    };

    println!(
        "program `{}`: {} references, {} dynamic accesses, cache {}",
        program.name(),
        program.references().len(),
        program.total_accesses(),
        cfg
    );

    let prepass = match get("--prepass").as_deref() {
        None | Some("on") => PrepassMode::On,
        Some("off") => PrepassMode::Off,
        Some(other) => return fail(&format!("unknown prepass mode `{other}`")),
    };
    let report = if has("--exact") {
        FindMisses::new(&program, cfg)
            .threads(threads)
            .prepass(prepass)
            .run()
    } else {
        let opts = SamplingOptions {
            threads,
            prepass,
            ..SamplingOptions::paper_default()
        };
        EstimateMisses::new(&program, cfg, opts).run()
    };
    print!("{}", report.render(&program));
    println!(
        "\n{} in {:?}: miss ratio {:.2}%",
        if has("--exact") {
            "FindMisses"
        } else {
            "EstimateMisses"
        },
        report.elapsed(),
        100.0 * report.miss_ratio()
    );
    if report.prepass_resolved() > 0 {
        let analyzed: u64 = report.references().iter().map(|r| r.analyzed).sum();
        println!(
            "pre-pass resolved {} of {} points ({:.1}%)",
            report.prepass_resolved(),
            analyzed,
            100.0 * report.prepass_resolved() as f64 / analyzed.max(1) as f64
        );
    }

    if has("--simulate") {
        let t = std::time::Instant::now();
        let sim = Simulator::new(cfg).run(&program);
        println!(
            "Simulator in {:?}: miss ratio {:.2}% ({} misses)",
            t.elapsed(),
            100.0 * sim.miss_ratio(),
            sim.total_misses()
        );
    }
    ExitCode::SUCCESS
}
