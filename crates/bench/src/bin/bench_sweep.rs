//! Timing harness for geometry sweeps: evaluates a 24-cell design-space
//! grid (sizes × associativities × line sizes) once as a sweep — one
//! reuse analysis per distinct line size, then a `FindMisses` per cell
//! over the shared analysis, the loop `Engine::run_sweep` runs through
//! the engine's reuse cache — and naively, one cold analysis per
//! geometry: once walked (the classifier alone over every point,
//! `Classifier::classify_every_point`, the pre-pass-off reference) and
//! once as `FindMisses`. It verifies every grid cell is byte-identical to
//! its walked twin, measures the sharing, exercises the serve engine's
//! sweep/store round trip, and writes the numbers to `BENCH_sweep.json`.
//!
//! ```text
//! cargo run -p cme-bench --bin bench_sweep --release -- \
//!     [--scale small|medium|paper] [--out BENCH_sweep.json]
//! ```
//!
//! All sides run serially (`Threads::Fixed(1)`) and compare core
//! `Report`s, with no fingerprint or payload on either side: the sweep's
//! saving is a per-geometry work reduction — one reuse analysis per
//! distinct line size instead of one per cell, and no walk for references
//! the pre-pass resolves in full — not a parallel speedup.
//!
//! Floors (hard process-exit failures, used by `scripts/ci.sh`):
//! * at every scale: each of the 24 cells renders bytes identical to an
//!   independent walked run, for both the streaming and the mixed
//!   workload; a repeat sweep through the serve engine computes nothing
//!   (every cell answered from the store); on the streaming workload the
//!   sweep is no slower than the default per-geometry loop (best of three
//!   runs on each side);
//! * at `--scale paper` only (where per-geometry work is expensive enough
//!   for the ratio to be meaningful): the sweep must beat the walked
//!   per-geometry loop by ≥ 5× on the streaming workload.

use cme_analysis::{Classifier, FindMisses, Report, Threads};
use cme_bench::{best_of, secs, stream3, timed, Scale};
use cme_cache::CacheConfig;
use cme_ir::Program;
use cme_reuse::ReuseAnalysis;
use cme_serve::engine::render_payload;
use cme_serve::{AnalysisMode, Engine, SweepJob};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The benchmark grid: 4 sizes × 3 associativities × 2 line sizes.
const GRID: &str = "8K,16K,32K,64K:1,2,4:16,32";

struct Row {
    workload: String,
    cells: usize,
    points: u64,
    /// Per-geometry loop of every-point references.
    walked: Duration,
    /// Per-geometry loop of `FindMisses`.
    naive: Duration,
    sweep: Duration,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.walked.as_secs_f64() / self.sweep.as_secs_f64().max(1e-9)
    }
}

/// An independent cold serial `FindMisses` per geometry, each rebuilding
/// its own reuse analysis.
fn per_geometry(program: &Program, grid: &[CacheConfig]) -> Vec<Report> {
    grid.iter()
        .map(|g| {
            FindMisses::new(program, *g)
                .threads(Threads::Fixed(1))
                .run()
        })
        .collect()
}

/// [`per_geometry`] without the row engine: each geometry's own reuse
/// analysis, then the classifier over every point.
fn per_geometry_walked(program: &Program, grid: &[CacheConfig]) -> Vec<Report> {
    grid.iter()
        .map(|g| {
            let reuse = ReuseAnalysis::analyze(program, g.line_bytes());
            Classifier::new(program, &reuse, *g).classify_every_point()
        })
        .collect()
}

/// The sweep: a serial `FindMisses` per geometry over one reuse analysis
/// per distinct line size, shared by every geometry of that line size.
fn run_sweep(program: &Program, grid: &[CacheConfig]) -> Vec<Report> {
    let mut reuse: HashMap<u64, Arc<ReuseAnalysis>> = HashMap::new();
    grid.iter()
        .map(|&g| {
            let line = g.line_bytes();
            let shared = reuse
                .entry(line)
                .or_insert_with(|| Arc::new(ReuseAnalysis::analyze(program, line)));
            FindMisses::with_reuse(program, g, shared.clone())
                .threads(Threads::Fixed(1))
                .run()
        })
        .collect()
}

/// Runs both per-geometry loops and the sweep over `grid` (the default
/// loop and the sweep best of `reps`), asserts byte-identity cell by cell,
/// and returns the timing row.
fn measure(name: &str, program: &Program, grid: &[CacheConfig], reps: usize) -> Row {
    let (walked_reports, walked) = timed(|| per_geometry_walked(program, grid));
    let (naive_reports, naive) = best_of(reps, || per_geometry(program, grid));
    let (sweep_reports, sweep) = best_of(reps, || run_sweep(program, grid));

    let mut points = 0u64;
    for (((g, walked_r), naive_r), sweep_r) in grid
        .iter()
        .zip(&walked_reports)
        .zip(&naive_reports)
        .zip(&sweep_reports)
    {
        let walked_bytes = render_payload(program, *g, &AnalysisMode::Exact, walked_r);
        for (what, r) in [("default", naive_r), ("sweep", sweep_r)] {
            assert_eq!(
                walked_bytes,
                render_payload(program, *g, &AnalysisMode::Exact, r),
                "{name} cell {g}: {what} run diverged from the walked run"
            );
        }
        points += sweep_r.total_accesses();
    }
    eprintln!(
        "  {name:<16} {} cells  walked {:>9}  default {:>9}  sweep {:>9}  ({:.1}x over walked)",
        grid.len(),
        secs(walked),
        secs(naive),
        secs(sweep),
        walked.as_secs_f64() / sweep.as_secs_f64().max(1e-9),
    );
    Row {
        workload: name.to_string(),
        cells: grid.len(),
        points,
        walked,
        naive,
        sweep,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scale = Scale::from_args();
    let out = get("--out").unwrap_or_else(|| "BENCH_sweep.json".to_string());

    let (stream_elems, hydro_n) = match scale {
        Scale::Small => (4096i64, 24i64),
        Scale::Medium => (16384, 60),
        Scale::Paper => (65536, 100),
    };
    let grid = CacheConfig::parse_geometry_grid(GRID).expect("benchmark grid is valid");
    eprintln!(
        "bench_sweep: scale {}, grid {GRID} ({} cells, serial both sides)",
        scale.label(),
        grid.len()
    );

    let stream = stream3(stream_elems);
    let hydro = cme_workloads::hydro(hydro_n, hydro_n);
    let rows = [
        measure(&format!("stream3({stream_elems})"), &stream, &grid, 3),
        measure(&format!("hydro({hydro_n}x{hydro_n})"), &hydro, &grid, 1),
    ];

    // The serve round trip: a cold sweep populates the store, so the
    // repeat sweep — and any later single query on a swept geometry — is
    // pure lookup.
    let engine = Engine::in_memory(grid.len() * 2);
    let (cold, cold_wall) = timed(|| {
        engine
            .run_sweep(&SweepJob::exact(&hydro, grid.clone()))
            .expect("sweep carries no deadline")
    });
    let (hot, hot_wall) = timed(|| {
        engine
            .run_sweep(&SweepJob::exact(&hydro, grid.clone()))
            .expect("sweep carries no deadline")
    });
    assert_eq!(
        cold.computed as usize,
        grid.len(),
        "cold sweep computes all"
    );
    assert_eq!(hot.computed, 0, "repeat sweep must answer from the store");
    assert_eq!(hot.store_hits as usize, grid.len());
    for (a, b) in cold.cells.iter().zip(&hot.cells) {
        assert_eq!(a.payload, b.payload, "store round trip must be byte-exact");
    }
    eprintln!(
        "  serve store:     cold sweep {:>9}  repeat {:>9} (0 cells recomputed)",
        secs(cold_wall),
        secs(hot_wall)
    );

    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"cells\": {}, \"points\": {}, \
                 \"walked_s\": {:.6}, \"naive_s\": {:.6}, \"sweep_s\": {:.6}, \
                 \"speedup\": {:.2}, \"cells_identical\": true}}",
                r.workload,
                r.cells,
                r.points,
                r.walked.as_secs_f64(),
                r.naive.as_secs_f64(),
                r.sweep.as_secs_f64(),
                r.speedup()
            )
        })
        .collect();
    let json = format!
    (
        "{{\n  \"scale\": \"{}\",\n  \"grid\": \"{GRID}\",\n  \"cells\": {},\n  \"threads\": 1,\n  \"workloads\": [\n{}\n  ],\n  \"serve\": {{\"cold_sweep_s\": {:.6}, \"repeat_sweep_s\": {:.6}, \"repeat_computed\": {}}}\n}}\n",
        scale.label(),
        grid.len(),
        row_json.join(",\n"),
        cold_wall.as_secs_f64(),
        hot_wall.as_secs_f64(),
        hot.computed
    );
    std::fs::write(&out, &json).expect("write BENCH_sweep.json");
    eprintln!("bench_sweep: wrote {out}");

    // CI floors. Sharing reuse across a line size must never cost more
    // than the default per-geometry loop, and the sweep must beat the walk
    // where walking is expensive (paper scale, streaming workload).
    let stream_row = &rows[0];
    assert!(
        stream_row.sweep <= stream_row.naive,
        "sweep slower than the default per-geometry loop: {:?} > {:?}",
        stream_row.sweep,
        stream_row.naive
    );
    if scale == Scale::Paper {
        assert!(
            stream_row.speedup() >= 5.0,
            "sweep floor: sweep must be >=5x the walked loop at paper scale, got {:.2}x",
            stream_row.speedup()
        );
    }
}
