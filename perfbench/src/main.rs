//! The repository benchmark: one command, three workloads, end-to-end
//! metrics with tracing off and per-layer metrics with it on.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kernels-exact|whole-sampled|serve-cli --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable progress goes to stderr; the last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). Every analysis runs on one thread at the default knobs.
//! End-to-end times are scaled to nominal host speed ([`Host`]).
//! See `README.md` next to this package for the rationale.

mod kernels;
mod lower;
mod lru;
mod pins;
mod serve;
mod spans;
mod stats;
mod whole;

use spans::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The host reference's time, in ms, at the nominal host speed that
/// end-to-end times are scaled to: about the fastest the measuring host
/// (2 vCPUs, KVM, Intel Xeon) runs it.
pub const NOMINAL_REF_MS: f64 = 50.0;

/// Set-ups before every pass of `kernels-exact` and `whole-sampled`;
/// `setup_s` is the median of all of a run's set-ups, so it samples the
/// host over the whole run as the other metrics do.
pub const SETUP_REPS: usize = 15;

/// Simulator runs per (program, geometry) in `kernels-exact` and
/// `serve-cli`; a row's simulation time is their median. `whole-sampled`
/// simulates each row once per pass and takes the median over passes.
pub const SIM_REPS: usize = 3;

/// The geometries `kernels-exact` draws from.
pub const KERNEL_GEOMETRIES: [&str; 24] = [
    "8K:1:32", "8K:1:64", "8K:2:32", "8K:2:64", "8K:4:32", "8K:4:64", "16K:1:32", "16K:1:64",
    "16K:2:32", "16K:2:64", "16K:4:32", "16K:4:64", "32K:1:32", "32K:1:64", "32K:2:32", "32K:2:64",
    "32K:4:32", "32K:4:64", "48K:1:32", "48K:1:64", "48K:2:32", "48K:2:64", "48K:4:32", "48K:4:64",
];

pub const WORKLOADS: [&str; 3] = ["kernels-exact", "whole-sampled", "serve-cli"];

/// End-to-end metrics (tracing off), with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("analysis_s", "s"),
    ("simulate_s", "s"),
    ("peak_rss_mb", "MB"),
    ("queries_per_s", "1/s"),
];

/// Per-layer metrics (tracing on), with their units. A layer a workload
/// does not call reports 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("fortran.parse_ms", "ms"),
    ("inline.inline_ms", "ms"),
    ("ir.normalize_ms", "ms"),
    ("inline.refs_out", "count"),
    ("reuse.analyze_ms", "ms"),
    ("reuse.vectors", "count"),
    ("prepass.build_ms", "ms"),
    ("prepass.resolved_pct", "%"),
    ("find.walk_ms", "ms"),
    ("find.walked_points", "count"),
    ("estimate.run_ms", "ms"),
    ("estimate.samples", "count"),
    ("estimate.sampled_refs", "count"),
    ("estimate.miss_err_pp", "pp"),
    ("cache.simulate_ms", "ms"),
    ("cache.accesses", "count"),
    ("serve.engine_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.store_hit_pct", "%"),
    ("serve.reuse_hit_pct", "%"),
    ("serve.sweep_cells_from_store", "count"),
    ("serve.trace_accesses", "count"),
    ("serve.hot_p50_ms", "ms"),
    ("serve.hot_p95_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_p90_ms", "ms"),
    ("serve.hot_answers", "count"),
    ("serve.cold_answers", "count"),
    ("serve.inexact_answers", "count"),
    ("host.ref_ms", "ms"),
    ("trace.analysis_s", "s"),
    ("trace.analysis_overhead_s", "s"),
    ("trace.cold_p50_ms", "ms"),
    ("trace.cold_p50_overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Lowering spans, reported per set-up.
pub const LOWERING_SPANS: [(&str, &str); 3] = [
    ("fortran.parse", "fortran.parse_ms"),
    ("inline.inline", "inline.inline_ms"),
    ("ir.normalize", "ir.normalize_ms"),
];

/// One invocation.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the process started.
    pub started: Instant,
}

/// Ops attempted and failed. A failed op is reported and the run goes on.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("FAILED op: {why}");
            }
        }
    }
}

/// The host's speed over a run. The host's throughput drifts by up to a
/// third, within seconds and for minutes, for every process at once, so
/// the benchmark times a fixed computation of its own
/// ([`lru::host_reference`]) at quiet points of a run: after every row,
/// every batch of set-ups and before and after every serve round. Each
/// pass, batch or round is a window; its times are scaled by
/// [`NOMINAL_REF_MS`] over the typical reference time in it (see
/// [`typical_ms`]), which gives them as they would read on a host at
/// nominal speed.
#[derive(Debug, Default)]
pub struct Host {
    /// Every reference time of the run, in ms.
    refs: Vec<f64>,
    /// Where in `refs` the current window starts.
    window: usize,
}

impl Host {
    /// Times the reference once.
    pub fn probe(&mut self) {
        let t = Instant::now();
        std::hint::black_box(lru::host_reference());
        self.refs.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Closes the current window, probing once if it holds no probe yet,
    /// and returns its scale: [`NOMINAL_REF_MS`] over its typical
    /// reference time.
    pub fn scale(&mut self) -> f64 {
        if self.refs.len() == self.window {
            self.probe();
        }
        let scale = NOMINAL_REF_MS / typical_ms(&self.refs[self.window..]);
        self.window = self.refs.len();
        scale
    }

    /// The median reference time of the run so far, in ms.
    pub fn ref_ms(&self) -> f64 {
        stats::median(&self.refs)
    }
}

/// The typical reference time of a window: the mean of its probes,
/// leaving out any above twice their median. The host flips between a
/// fast and a slow state (about 50 and 80 ms) within seconds, so a
/// window's time stretches with the share of it spent slow, which the
/// mean follows and the median does not; a rare stall of several times
/// the median is left out.
fn typical_ms(refs: &[f64]) -> f64 {
    let cap = 2.0 * stats::median(refs);
    let kept: Vec<f64> = refs.iter().copied().filter(|&r| r <= cap).collect();
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Every set-up of a run: its time in seconds, scaled by its batch's
/// host speed, and, when traced, its span.
#[derive(Debug, Default)]
pub struct SetUps {
    pub times: Vec<f64>,
    pub spans: Vec<usize>,
}

/// Lowers a workload's programs [`SETUP_REPS`] times, each inside a
/// `setup` span, and records each set-up in `setups`, scaled by the host
/// speed of the batch; returns the programs of the last one.
pub fn set_up(
    tr: &mut Tracer,
    setups: &mut SetUps,
    host: &mut Host,
    mut lower_all: impl FnMut(&mut Tracer, u64) -> Vec<lower::Lowered>,
) -> Vec<lower::Lowered> {
    let mut programs = Vec::new();
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let rep = (setups.times.len() + times.len()) as u64;
        let open = tr.enter("setup", rep);
        setups.spans.extend(open.id());
        let t = Instant::now();
        programs = lower_all(tr, rep);
        times.push(t.elapsed().as_secs_f64());
        tr.exit(open);
    }
    let scale = host.scale();
    setups.times.extend(times.iter().map(|t| t * scale));
    programs
}

/// Median over the given lowering spans of each lowering layer's self
/// time, plus the references inlining produced for `programs`.
pub fn lowering_layers(
    tr: &Tracer,
    parents: &[usize],
    programs: &[&lower::Lowered],
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for (span, metric) in LOWERING_SPANS {
        m.insert(metric, span_ms(tr, parents, span));
    }
    m.insert(
        "inline.refs_out",
        programs.iter().map(|l| l.refs_out as f64).sum(),
    );
    m
}

/// Median over `parents` of the total self time, in ms, of the spans
/// called `name` under each.
pub fn span_ms(tr: &Tracer, parents: &[usize], name: &str) -> f64 {
    let per: Vec<f64> = parents
        .iter()
        .map(|&p| tr.self_total_under(name, p).as_secs_f64() * 1e3)
        .collect();
    stats::median(&per)
}

/// Runs `cme_cache::Simulator` on one (program, geometry) `reps` times,
/// each in a span; returns the median time in seconds and the simulated
/// counts.
pub fn simulate(
    tr: &mut Tracer,
    op: u64,
    program: &cme_ir::Program,
    config: cme_cache::CacheConfig,
    reps: usize,
) -> (f64, cme_cache::SimStats) {
    let mut times = Vec::with_capacity(reps);
    let mut stats = None;
    for _ in 0..reps {
        let t = Instant::now();
        let sim = tr.time("cache.simulate", op, || {
            cme_cache::Simulator::new(config).run(program)
        });
        times.push(t.elapsed().as_secs_f64());
        stats = Some(sim);
    }
    (stats::median(&times), stats.expect("reps is at least one"))
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Whether to start pass `pass`: always the first (and, when tracing,
/// the second, so traced and untraced passes compare), then only while a
/// pass as long as the last one, `last` seconds, would still end within
/// the run's time, counted from the start of the process.
pub fn another_pass(run: &Run, pass: u64, last: f64) -> bool {
    let min = if run.trace { 2 } else { 1 };
    pass < min || run.started.elapsed().as_secs_f64() + last <= run.seconds
}

/// One pass of `kernels-exact` or `whole-sampled`: its times as measured,
/// in seconds, and the host scale of its window.
#[derive(Debug)]
pub struct Pass {
    pub traced: bool,
    pub seconds: f64,
    pub analysis: f64,
    pub simulate: f64,
    pub scale: f64,
}

impl Pass {
    /// Prints the pass on stderr.
    pub fn log(&self, pass: u64) {
        eprintln!(
            "pass {pass}{}: analysis {:.3} s, simulate {:.3} s as measured; host scale {:.3}",
            if self.traced { " (traced)" } else { "" },
            self.analysis,
            self.simulate,
            self.scale
        );
    }
}

/// The timings of `kernels-exact` and `whole-sampled`: `analysis_s` (the
/// median untraced pass), `simulate_s` (the median pass) and
/// `queries_per_s` (rows per second of `analysis_s`), scaled to nominal
/// host speed. In a traced run also the traced passes' analysis time as
/// measured, to set the layers' spans against, and the tracing overhead:
/// traced minus untraced, both scaled, as they ran at different times.
pub fn pass_metrics(run: &Run, rows: usize, passes: &[Pass]) -> BTreeMap<&'static str, f64> {
    let pick = |traced: bool, f: &dyn Fn(&Pass) -> f64| -> f64 {
        let v: Vec<f64> = passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(f)
            .collect();
        stats::median(&v)
    };
    let analysis_s = pick(false, &|p| p.analysis * p.scale);
    let simulate_s = stats::median(
        &passes
            .iter()
            .map(|p| p.simulate * p.scale)
            .collect::<Vec<_>>(),
    );
    eprintln!(
        "{}: analysis {:.3} s as measured, {analysis_s:.3} s at nominal host speed; \
         simulation/analysis = {:.3} (not a metric)",
        run.workload,
        pick(false, &|p| p.analysis),
        simulate_s / analysis_s
    );
    let mut m = BTreeMap::new();
    m.insert("analysis_s", analysis_s);
    m.insert("simulate_s", simulate_s);
    m.insert("queries_per_s", rows as f64 / analysis_s);
    if run.trace {
        m.insert("trace.analysis_s", pick(true, &|p| p.analysis));
        m.insert(
            "trace.analysis_overhead_s",
            pick(true, &|p| p.analysis * p.scale) - analysis_s,
        );
    }
    m
}

/// Scratch space of a run, inside the directory the benchmark runs from.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Run {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("`{flag}` needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("missing --workload"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    Run {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        started,
    }
}

fn main() {
    let run = parse_args();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        run.workload, run.seed, run.seconds, run.trace as u8
    );

    let mut host = Host::default();
    let mut tr = Tracer::new();
    let mut ops = Ops::default();
    let mut values = match run.workload.as_str() {
        "kernels-exact" => kernels::run(&run, &mut tr, &mut ops, &mut host),
        "whole-sampled" => whole::run(&run, &mut tr, &mut ops, &mut host),
        _ => serve::run(&run, &mut tr, &mut ops, &mut host),
    };
    // The run's median host reference, next to the results: a per-layer
    // diagnostic, never gated.
    values.insert("host.ref_ms", host.ref_ms());
    values.insert("trace.spans", tr.spans().len() as f64);
    values.insert(
        "peak_rss_mb",
        peak_rss_mb().expect("/proc/self/status reports VmHWM"),
    );

    if run.trace {
        let path = run_dir().join(format!("spans-{}-seed{}.jsonl", run.workload, run.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    let catalogue: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        let value = match values.get(name) {
            Some(v) => *v,
            None if run.trace => 0.0,
            None => panic!("workload {} did not measure {name}", run.workload),
        };
        assert!(value.is_finite(), "{name} = {value} is not finite");
        eprintln!("  {name:32} {value:>14.4} {unit}");
        metrics.push(format!(r#""{name}":{{"value":{value:?},"unit":"{unit}"}}"#));
    }
    eprintln!("ops: {} attempted, {} failed", ops.attempted, ops.failed);
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        ops.failed == 0 && ops.attempted > 0,
        ops.attempted,
        ops.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The typical reference time follows the share of slow probes and
    /// leaves out a stall.
    #[test]
    fn typical_reference_time() {
        assert_eq!(typical_ms(&[50.0, 50.0, 80.0, 80.0]), 65.0);
        assert_eq!(typical_ms(&[50.0, 50.0, 50.0, 80.0]), 57.5);
        assert_eq!(typical_ms(&[50.0, 52.0, 48.0, 500.0]), 50.0);
        let mut host = Host::default();
        let scale = host.scale();
        assert!(scale > 0.0 && scale.is_finite());
        assert_eq!(host.refs.len(), 1, "an empty window probes once");
    }
}
