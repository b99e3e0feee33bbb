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
//! The per-geometry `FindMisses` loop and the sweep are each timed best of
//! three, alternating (loop, sweep, sweep, loop, loop, sweep) so that a
//! change in the host's speed lands on both sides alike, and the spread of
//! the three (slowest minus fastest) is recorded beside the best, so a
//! difference between them can be read against the host's noise. All
//! sides run serially (`Threads::Fixed(1)`) and compare
//! core `Report`s, with no fingerprint or payload on either side: the
//! sweep's
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
use cme_bench::{secs, stream3, timed, Scale};
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

/// Runs of the per-geometry loop and of the sweep, each.
const REPS: usize = 3;

struct Row {
    workload: String,
    cells: usize,
    points: u64,
    /// Per-geometry loop of every-point references.
    walked: Duration,
    /// Per-geometry loop of `FindMisses`, and the sweep: best and spread
    /// of `REPS` runs each.
    naive: Timing,
    sweep: Timing,
}

/// The best of several runs, and how far the slowest lay above it.
#[derive(Clone, Copy)]
struct Timing {
    best: Duration,
    spread: Duration,
}

impl Timing {
    /// The best of `runs` and how far the slowest lay above it.
    fn of(runs: &[Duration]) -> Timing {
        let best = *runs.iter().min().expect("at least one run");
        let worst = *runs.iter().max().expect("at least one run");
        Timing {
            best,
            spread: worst - best,
        }
    }
}

impl Row {
    fn speedup(&self) -> f64 {
        self.walked.as_secs_f64() / self.sweep.best.as_secs_f64().max(1e-9)
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
/// loop and the sweep `REPS` times each, alternating which goes first),
/// asserts byte-identity cell by cell, and returns the timing row.
fn measure(name: &str, program: &Program, grid: &[CacheConfig]) -> Row {
    let (walked_reports, walked) = timed(|| per_geometry_walked(program, grid));
    let (mut naive_runs, mut sweep_runs) = (Vec::new(), Vec::new());
    let (mut naive_reports, mut sweep_reports) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        for sweep_side in [rep % 2 == 1, rep % 2 == 0] {
            if sweep_side {
                let (reports, t) = timed(|| run_sweep(program, grid));
                sweep_reports = reports;
                sweep_runs.push(t);
            } else {
                let (reports, t) = timed(|| per_geometry(program, grid));
                naive_reports = reports;
                naive_runs.push(t);
            }
        }
    }
    let (naive, sweep) = (Timing::of(&naive_runs), Timing::of(&sweep_runs));

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
        "  {name:<16} {} cells  walked {:>9}  default {:>9} (spread {})  sweep {:>9} \
         (spread {})  ({:.1}x over walked)",
        grid.len(),
        secs(walked),
        secs(naive.best),
        secs(naive.spread),
        secs(sweep.best),
        secs(sweep.spread),
        walked.as_secs_f64() / sweep.best.as_secs_f64().max(1e-9),
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
        measure(&format!("stream3({stream_elems})"), &stream, &grid),
        measure(&format!("hydro({hydro_n}x{hydro_n})"), &hydro, &grid),
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
                 \"walked_s\": {:.6}, \"naive_s\": {:.6}, \"naive_spread_s\": {:.6}, \
                 \"sweep_s\": {:.6}, \"sweep_spread_s\": {:.6}, \"speedup\": {:.2}, \
                 \"cells_identical\": true}}",
                r.workload,
                r.cells,
                r.points,
                r.walked.as_secs_f64(),
                r.naive.best.as_secs_f64(),
                r.naive.spread.as_secs_f64(),
                r.sweep.best.as_secs_f64(),
                r.sweep.spread.as_secs_f64(),
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
        stream_row.sweep.best <= stream_row.naive.best,
        "sweep slower than the default per-geometry loop: {:?} > {:?}",
        stream_row.sweep.best,
        stream_row.naive.best
    );
    if scale == Scale::Paper {
        assert!(
            stream_row.speedup() >= 5.0,
            "sweep floor: sweep must be >=5x the walked loop at paper scale, got {:.2}x",
            stream_row.speedup()
        );
    }
}
