//! Timing harness for the row engine (the definitely-hit/definitely-miss
//! pre-pass): times cold serial `FindMisses`, which runs the row engine
//! and then the counting classifier on the points it leaves, against the
//! classifier alone over every point (`Classifier::classify_every_point`,
//! the pre-pass-off reference), verifies the reports agree
//! point-for-point, records the resolution rate (share of points settled
//! without the classifier) and the row engine's work (points whose vector
//! scan ran, and rows its counting walks visit per counted point, from an
//! untimed pre-pass of its own), and writes the numbers to
//! `BENCH_prepass.json`.
//!
//! ```text
//! cargo run -p cme-bench --bin bench_prepass --release -- \
//!     [--scale small|medium|paper] [--out BENCH_prepass.json]
//! ```
//!
//! `--scale paper` uses the paper's problem sizes (MMT N=BJ=100, BK=50,
//! Hydro 100×100, MGRID 100) plus stream3(65536); the default `small` is a
//! CI smoke size. Beyond the per-workload rows the harness exercises two
//! clients of fully resolved references end to end:
//!
//! * a serial padding sweep (`cme-opt`) over stream3, with sampling width
//!   forced tiny so every model evaluation is planned exhaustively, against
//!   the classifier alone over every distinct layout the sweep evaluated;
//! * a serve job: an exact `Job` at a stream3 size no other row uses, run
//!   through `Engine::run`, must leave no point to the classifier and
//!   return a payload byte-identical to the every-point reference's.
//!
//! Floors (hard process-exit failures, used by `scripts/ci.sh`):
//! * at every scale: byte-identical reports, stream3 fully resolved with
//!   zero walked points, every padding trial's predicted ratio equal to
//!   the reference's for its layout, and the never-seen-size serve job
//!   resolving every point;
//! * resolution rate MMT ≥ 90% and MGRID ≥ 97%, and pre-pass-on wall ≤
//!   reference wall on MMT (best of three each, interleaved; 10% slack at
//!   small scale);
//! * MMT's counting walks visit at most one row per counted point: a
//!   batch spans the held rows of one reuse vector, so the windows of
//!   `A(I,K)`, one counted point per row, share their rows;
//! * at `--scale paper` only, where walking is expensive enough for the
//!   ratios to mean anything: pre-pass on ≥ 100× faster than the reference
//!   on stream3, and the padding sweep ≥ 10× faster than the reference
//!   over its layouts; and at most 0.25 points evaluated per point on MMT
//!   and MGRID, so counted points and windows over mixed strides are
//!   decided once per residue class, not per point.

use cme_analysis::{
    CancelToken, Classifier, FindMisses, Prepass, Report, SamplingOptions, Threads,
};
use cme_bench::{secs, stream3, timed, Scale, Table};
use cme_cache::CacheConfig;
use cme_ir::Program;
use cme_opt::{search_padding, PaddingOptions, PADDING_REUSE_CAP};
use cme_reuse::ReuseAnalysis;
use cme_serve::engine::render_payload;
use cme_serve::{AnalysisMode, Engine, Job};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

struct Row {
    workload: String,
    points: u64,
    resolved: u64,
    /// Points the row engine decided by counting, and the rows its
    /// counting walks visited.
    counted: u64,
    rows_walked: u64,
    /// Points whose vector scan ran.
    evaluated: u64,
    off: Duration,
    on: Duration,
}

impl Row {
    fn rate(&self) -> f64 {
        self.resolved as f64 / self.points.max(1) as f64
    }

    fn rows_per_count(&self) -> f64 {
        self.rows_walked as f64 / self.counted.max(1) as f64
    }

    fn evaluated_per_point(&self) -> f64 {
        self.evaluated as f64 / self.points.max(1) as f64
    }

    fn speedup(&self) -> f64 {
        self.off.as_secs_f64() / self.on.as_secs_f64().max(1e-9)
    }
}

/// The every-point reference and cold serial `FindMisses` (pre-pass on):
/// the reports and the best of three walls each, the two interleaved so
/// drift in the host's speed hits both alike.
fn off_and_on(
    program: &Program,
    reuse: &Arc<ReuseAnalysis>,
    cfg: CacheConfig,
) -> [(Report, Duration); 2] {
    let off = || timed(|| Classifier::new(program, reuse, cfg).classify_every_point());
    let on = || {
        timed(|| {
            FindMisses::with_reuse(program, cfg, reuse.clone())
                .threads(Threads::Fixed(1))
                .run()
        })
    };
    let mut best = [off(), on()];
    for _ in 1..3 {
        best[0].1 = best[0].1.min(off().1);
        best[1].1 = best[1].1.min(on().1);
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scale = Scale::from_args();
    let out = get("--out").unwrap_or_else(|| "BENCH_prepass.json".to_string());

    let (stream_elems, sweep_elems) = match scale {
        Scale::Small => (4096i64, 8192i64),
        Scale::Medium => (16384, 24576),
        Scale::Paper => (65536, 65536),
    };
    let mut workloads: Vec<(String, Program)> = match scale {
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
    workloads.push((format!("stream3({stream_elems})"), stream3(stream_elems)));

    let cfg = CacheConfig::new(32 * 1024, 32, 2).expect("valid geometry");
    eprintln!(
        "bench_prepass: scale {}, cache {cfg}, serial, counting evaluator",
        scale.label()
    );

    let mut rows: Vec<Row> = Vec::new();
    for (name, program) in &workloads {
        // Reuse vectors are shared; only classification is being timed.
        let reuse = Arc::new(ReuseAnalysis::analyze(program, cfg.line_bytes()));

        let [(off, off_t), (on, on_t)] = off_and_on(program, &reuse, cfg);
        let points: u64 = on.references().iter().map(|r| r.analyzed).sum();
        eprintln!(
            "{name}: every-point reference {off_t:?}, FindMisses {on_t:?} ({}/{points} resolved)",
            on.prepass_resolved()
        );
        assert_eq!(
            off.references(),
            on.references(),
            "{name}: FindMisses diverged from the every-point reference"
        );
        let pre = Prepass::build(
            &Classifier::new(program, &reuse, cfg),
            &CancelToken::never(),
        )
        .expect("a never-token pre-pass cannot be cancelled");
        eprintln!(
            "{name}: {} points evaluated, {} counted, {} rows walked",
            pre.evaluated_points(),
            pre.counted_points(),
            pre.rows_walked()
        );

        rows.push(Row {
            workload: name.clone(),
            points,
            resolved: on.prepass_resolved(),
            counted: pre.counted_points(),
            rows_walked: pre.rows_walked(),
            evaluated: pre.evaluated_points(),
            off: off_t,
            on: on_t,
        });
    }

    // --- cme-opt padding sweep against the every-point reference --------
    // A tiny interval width forces every model evaluation onto the
    // exhaustive plan, so every reference resolves in full. The reference
    // does the same work without the row engine: one capped reuse analysis
    // (reuse vectors are layout-independent) and the classifier over
    // every point of each distinct layout the sweep evaluated. Both sides
    // run serially.
    let sweep_program = stream3(sweep_elems);
    let sweep_cfg = CacheConfig::new(2048, 32, 1).expect("valid geometry");
    let sweep_opts = PaddingOptions {
        sampling: SamplingOptions {
            width: 0.001,
            threads: Threads::Fixed(1),
            ..PaddingOptions::default().sampling
        },
        ..PaddingOptions::default()
    };
    let (plan, sweep_on) = timed(|| search_padding(&sweep_program, sweep_cfg, &sweep_opts));
    let (reference, sweep_off) = timed(|| {
        let reuse = ReuseAnalysis::analyze_capped(
            &sweep_program,
            sweep_cfg.line_bytes(),
            PADDING_REUSE_CAP,
        );
        let mut ratios: HashMap<&[i64], f64> = HashMap::new();
        for trial in &plan.trials {
            ratios.entry(trial.padding.as_slice()).or_insert_with(|| {
                let padded = sweep_program.with_padding(&trial.padding);
                Classifier::new(&padded, &reuse, sweep_cfg)
                    .classify_every_point()
                    .miss_ratio()
            });
        }
        ratios
    });
    for trial in &plan.trials {
        assert_eq!(
            trial.predicted_ratio,
            reference[trial.padding.as_slice()],
            "padding trial {:?} diverged from the every-point reference",
            trial.padding
        );
    }
    eprintln!(
        "padding sweep: {sweep_on:?} ({} evaluations); every-point reference over its {} \
         layouts {sweep_off:?}",
        plan.trials.len(),
        reference.len()
    );
    let sweep_speedup = sweep_off.as_secs_f64() / sweep_on.as_secs_f64().max(1e-9);

    // --- serve job: never-seen size, nothing walked -----------------------
    let engine = Engine::in_memory(64);
    let new_elems = stream_elems + 1111;
    let novel = stream3(new_elems);
    let outcome = engine
        .run(&Job::exact(&novel, cfg))
        .expect("serve job carries no deadline");
    assert!(!outcome.from_store, "a new size cannot be a store hit");
    assert_eq!(
        outcome.prepass_resolved, outcome.points,
        "stream3({new_elems}) must resolve without a walk"
    );
    let novel_reuse = ReuseAnalysis::analyze(&novel, cfg.line_bytes());
    let walked = Classifier::new(&novel, &novel_reuse, cfg).classify_every_point();
    assert_eq!(
        *outcome.payload,
        render_payload(&novel, cfg, &AnalysisMode::Exact, &walked),
        "serve payload diverged from the every-point payload"
    );
    eprintln!(
        "serve job: stream3({new_elems}) resolved all {} points, none walked",
        outcome.points
    );

    // --- report ----------------------------------------------------------
    let mut table = Table::new(&[
        "workload",
        "points",
        "resolved %",
        "evals/point",
        "rows/count",
        "off (s)",
        "on (s)",
        "speedup",
    ]);
    let mut json_rows = Vec::new();
    for r in &rows {
        table.row(vec![
            r.workload.clone(),
            r.points.to_string(),
            format!("{:.1}", 100.0 * r.rate()),
            format!("{:.3}", r.evaluated_per_point()),
            format!("{:.2}", r.rows_per_count()),
            secs(r.off),
            secs(r.on),
            format!("{:.2}x", r.speedup()),
        ]);
        json_rows.push(format!(
            "    {{\"workload\": \"{}\", \"points\": {}, \"resolved\": {}, \
             \"resolved_rate\": {:.4}, \"walked_points\": {}, \"evaluated_points\": {}, \
             \"evaluated_per_point\": {:.3}, \"counted_points\": {}, \"rows_walked\": {}, \
             \"rows_per_counted_point\": {:.2}, \"off_ms\": {:.3}, \"on_ms\": {:.3}, \
             \"speedup\": {:.2}}}",
            r.workload,
            r.points,
            r.resolved,
            r.rate(),
            r.points - r.resolved,
            r.evaluated,
            r.evaluated_per_point(),
            r.counted,
            r.rows_walked,
            r.rows_per_count(),
            r.off.as_secs_f64() * 1e3,
            r.on.as_secs_f64() * 1e3,
            r.speedup(),
        ));
    }
    table.print();
    eprintln!(
        "padding sweep: {} -> {} ({sweep_speedup:.1}x), every trial equal to the reference",
        secs(sweep_off),
        secs(sweep_on)
    );

    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"cache\": \"32KB/32B/2-way\",\n  \"threads\": 1,\n  \
         \"hw_threads\": {},\n  \"evaluator\": \"counting\",\n  \"prepass\": \"on-vs-off\",\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"padding_sweep\": {{\"workload\": \"stream3({})\", \"evaluations\": {}, \
         \"layouts\": {}, \"off_ms\": {:.1}, \"on_ms\": {:.1}, \"speedup\": {:.1}}},\n  \
         \"new_size\": {{\"workload\": \"stream3({})\", \"points\": {}, \
         \"prepass_resolved\": {}}}\n}}\n",
        scale.label(),
        cme_bench::hw_threads(),
        json_rows.join(",\n"),
        sweep_elems,
        plan.trials.len(),
        reference.len(),
        sweep_off.as_secs_f64() * 1e3,
        sweep_on.as_secs_f64() * 1e3,
        sweep_speedup,
        new_elems,
        outcome.points,
        outcome.prepass_resolved,
    );
    std::fs::write(&out, &json).expect("write BENCH_prepass.json");
    eprintln!("-> {out}");

    // CI floors. MMT is the workload the pre-pass was first built for:
    // long streaming rows with uniform verdicts, and windows that cross
    // hundreds of rows; MGRID's stride-2 and transposed references need
    // counting too.
    let row_of = |prefix: &str| {
        rows.iter()
            .find(|r| r.workload.starts_with(prefix))
            .unwrap_or_else(|| panic!("{prefix} row"))
    };
    for (prefix, floor) in [("mmt", 0.90), ("mgrid", 0.97)] {
        let row = row_of(prefix);
        assert!(
            row.rate() >= floor,
            "pre-pass resolution regressed on {}: {:.1}% < {:.0}%",
            row.workload,
            100.0 * row.rate(),
            100.0 * floor
        );
    }
    let mmt = row_of("mmt");
    assert!(
        mmt.rows_per_count() <= 1.0,
        "counting walks no longer share rows on {}: {:.2} rows walked per counted point > 1",
        mmt.workload,
        mmt.rows_per_count()
    );
    // At small scale the MMT walls are single-digit milliseconds, where
    // scheduler noise swamps the real margin; allow 10% there and stay
    // strict where the measurement is meaningful.
    let tolerance = if scale == Scale::Small { 1.10 } else { 1.0 };
    assert!(
        mmt.on.as_secs_f64() <= mmt.off.as_secs_f64() * tolerance,
        "pre-pass no longer pays for itself on {}: on {:?} > reference {:?}",
        mmt.workload,
        mmt.on,
        mmt.off
    );
    // The streaming workload must resolve in full at every scale.
    let stream = rows.last().expect("stream3 row");
    assert_eq!(
        stream.resolved,
        stream.points,
        "stream3 no longer resolves in full: {} points walked",
        stream.points - stream.resolved
    );
    if scale == Scale::Paper {
        assert!(
            stream.speedup() >= 100.0,
            "pre-pass below the 100x floor over the every-point reference on stream3: {:.0}x",
            stream.speedup()
        );
        assert!(
            sweep_speedup >= 10.0,
            "padding sweep below the 10x floor over the every-point reference: \
             {sweep_speedup:.1}x"
        );
        // Counted points and windows over mixed strides extend over their
        // residue classes: the vector scan runs at a few points per row.
        for prefix in ["mmt", "mgrid"] {
            let row = row_of(prefix);
            assert!(
                row.evaluated_per_point() <= 0.25,
                "the row engine evaluates too many points on {}: {:.3} per point > 0.25",
                row.workload,
                row.evaluated_per_point()
            );
        }
    }
}
