//! Timing harness for the set-conscious interference walk: runs
//! `FindMisses` under both walk strategies (legacy full scan vs the
//! congruence skip-walk with contention-bound early exit), serially and
//! with the full worker pool, verifies all reports agree point-for-point,
//! and writes the numbers to `BENCH_classify.json`.
//!
//! ```text
//! cargo run -p cme-bench --bin bench_classify --release -- \
//!     [--scale small|medium|paper] [--threads N] [--skip-legacy] [--out BENCH_classify.json]
//! ```
//!
//! `--scale paper` uses the paper's problem sizes (MMT N=BJ=100, BK=50,
//! Hydro 100×100, MGRID 100); the default `small` is a CI smoke size.
//! `--skip-legacy` omits the legacy-scan timing (it dominates wall clock
//! at paper scale) — the reported speedup then compares against a prior
//! recorded baseline instead of a fresh one.

use cme_analysis::{FindMisses, Report, Threads, WalkStrategy};
use cme_bench::{timed, Scale, Table};
use cme_cache::CacheConfig;
use cme_ir::Program;
use cme_reuse::ReuseAnalysis;
use std::sync::Arc;
use std::time::Duration;

struct Row {
    workload: String,
    points: u64,
    legacy_serial: Option<Duration>,
    skip_serial: Duration,
    skip_parallel: Duration,
}

fn run(
    program: &Program,
    reuse: &Arc<ReuseAnalysis>,
    cfg: CacheConfig,
    walk: WalkStrategy,
    threads: Threads,
) -> (Report, Duration) {
    timed(|| {
        FindMisses::with_reuse(program, cfg, reuse.clone())
            .strategy(walk)
            .threads(threads)
            .run()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scale = Scale::from_args();
    let skip_legacy = args.iter().any(|a| a == "--skip-legacy");
    let threads = cme_bench::threads_from_args();
    let out = get("--out").unwrap_or_else(|| "BENCH_classify.json".to_string());

    let workloads: Vec<(String, Program)> = match scale {
        Scale::Small => vec![
            ("mmt(N=16,BJ=16,BK=8)".into(), cme_workloads::mmt(16, 16, 8)),
            ("hydro(24x24)".into(), cme_workloads::hydro(24, 24)),
            ("mgrid(12)".into(), cme_workloads::mgrid(12)),
        ],
        Scale::Medium => vec![
            (
                "mmt(N=40,BJ=40,BK=20)".into(),
                cme_workloads::mmt(40, 40, 20),
            ),
            ("hydro(60x60)".into(), cme_workloads::hydro(60, 60)),
            ("mgrid(40)".into(), cme_workloads::mgrid(40)),
        ],
        Scale::Paper => vec![
            (
                "mmt(N=100,BJ=100,BK=50)".into(),
                cme_workloads::mmt(100, 100, 50),
            ),
            ("hydro(100x100)".into(), cme_workloads::hydro(100, 100)),
            ("mgrid(100)".into(), cme_workloads::mgrid(100)),
        ],
    };

    let cfg = CacheConfig::new(32 * 1024, 32, 2).expect("valid geometry");
    let nthreads = threads.count();
    eprintln!(
        "bench_classify: scale {}, cache {cfg}, {nthreads} worker threads",
        scale.label()
    );

    let mut rows: Vec<Row> = Vec::new();
    for (name, program) in &workloads {
        // Reuse vectors are shared; only classification is being timed.
        let reuse = Arc::new(ReuseAnalysis::analyze(program, cfg.line_bytes()));

        let (skip_s, skip_s_t) = run(
            program,
            &reuse,
            cfg,
            WalkStrategy::SetSkip,
            Threads::Fixed(1),
        );
        eprintln!("{name}: set-skip serial {skip_s_t:?}");
        let (skip_p, skip_p_t) = run(program, &reuse, cfg, WalkStrategy::SetSkip, threads);
        eprintln!("{name}: set-skip {nthreads}-thread {skip_p_t:?}");
        assert_eq!(
            skip_s.references(),
            skip_p.references(),
            "{name}: serial and parallel skip-walk reports diverged"
        );

        let legacy_t = if skip_legacy {
            None
        } else {
            let (legacy, t) = run(
                program,
                &reuse,
                cfg,
                WalkStrategy::LegacyScan,
                Threads::Fixed(1),
            );
            eprintln!("{name}: legacy serial {t:?}");
            assert_eq!(
                skip_s.references(),
                legacy.references(),
                "{name}: skip-walk and legacy-scan reports diverged"
            );
            Some(t)
        };

        rows.push(Row {
            workload: name.clone(),
            points: skip_s.total_accesses(),
            legacy_serial: legacy_t,
            skip_serial: skip_s_t,
            skip_parallel: skip_p_t,
        });
    }

    let mut table = Table::new(&[
        "workload",
        "points",
        "legacy-serial (s)",
        "skip-serial (s)",
        "skip-parallel (s)",
        "speedup",
        "Mpts/s",
    ]);
    let mut json_rows = Vec::new();
    for r in &rows {
        let skip_s = r.skip_serial.as_secs_f64();
        let speedup = r.legacy_serial.map(|t| t.as_secs_f64() / skip_s.max(1e-9));
        let pps = r.points as f64 / skip_s.max(1e-9);
        table.row(vec![
            r.workload.clone(),
            r.points.to_string(),
            r.legacy_serial.map_or("-".into(), cme_bench::secs),
            cme_bench::secs(r.skip_serial),
            cme_bench::secs(r.skip_parallel),
            speedup.map_or("-".into(), |s| format!("{s:.2}x")),
            format!("{:.2}", pps / 1e6),
        ]);
        json_rows.push(format!(
            "    {{\"workload\": \"{}\", \"points\": {}, \"legacy_serial_ms\": {}, \
             \"skip_serial_ms\": {:.1}, \"skip_parallel_ms\": {:.1}, \
             \"points_per_sec\": {:.0}{}}}",
            r.workload,
            r.points,
            r.legacy_serial
                .map_or("null".into(), |t| format!("{:.1}", t.as_secs_f64() * 1e3)),
            r.skip_serial.as_secs_f64() * 1e3,
            r.skip_parallel.as_secs_f64() * 1e3,
            pps,
            speedup.map_or(String::new(), |s| format!(", \"speedup\": {s:.2}")),
        ));
    }
    table.print();

    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"cache\": \"32KB/32B/2-way\",\n  \"threads\": {nthreads},\n  \"hw_threads\": {},\n  \"strategy\": \"set-skip\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        scale.label(),
        cme_bench::hw_threads(),
        json_rows.join(",\n")
    );
    std::fs::write(&out, &json).expect("write BENCH_classify.json");
    eprintln!("-> {out}");
}
