//! Amortized geometry sweeps: one reuse analysis, a whole design-space
//! grid.
//!
//! Reuse vectors depend only on program structure and the line size —
//! never on capacity or associativity — so a grid of geometries that
//! shares `d` distinct line sizes needs exactly `d` reuse analyses, not
//! one per cell. A [`SweepPlan`] hoists everything geometry-independent
//! out of the per-geometry loop:
//!
//! * **reuse vectors** — one [`ReuseAnalysis`] per distinct line size,
//!   shared (behind `Arc`) by every geometry with that line size;
//! * **classifier construction** — one [`Classifier`] per geometry, built
//!   once up front (per-reference address plans, bounding boxes and
//!   lexical ranks are hoisted there, borrowed from the shared reuse);
//! * **iteration-space rows** — each reference's RIS is enumerated into
//!   its flat row buffer *once* ([`Program::flat_ris`]), and only when
//!   some geometry still needs a walk; every geometry's chunked walk
//!   indexes the same rows.
//!
//! Per geometry, classification runs through the same tiers as
//! [`crate::FindMisses`]: the hit/miss pre-pass first (a reference it
//! resolves in full never touches the rows), then the chunked exact walk —
//! fanned out over *(geometry, chunk)* work items on the parallel engine,
//! so a grid keeps every worker busy even when single references split
//! into few chunks.
//!
//! # Correctness contract
//!
//! Every cell of [`SweepPlan::run`] is **byte-identical** (after payload
//! rendering) to an independent single-geometry [`crate::FindMisses`]
//! run: the same tiers make the same per-point decisions, and the merged
//! quantities are sums of `u64` counters, so neither the fan-out shape
//! nor the thread count can change a report. The differential tests
//! below and the `bench_sweep` CI gate assert exactly this.

use crate::cancel::{CancelToken, Cancelled};
use crate::classify::{Classifier, Scratch, WalkStrategy};
use crate::options::{PrepassMode, Threads};
use crate::parallel::{self, Tally, CHUNK_POINTS};
use crate::prepass::{self, RefVerdicts};
use crate::report::{Coverage, RefReport, Report};
use cme_cache::CacheConfig;
use cme_ir::Program;
use cme_reuse::ReuseAnalysis;
use std::sync::Arc;
use std::time::Instant;

/// Knobs of a sweep run. All three are pure accelerators: results are
/// byte-identical across every combination (the differential tests
/// assert it), exactly as for [`crate::FindMisses`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions {
    pub threads: Threads,
    pub walk: WalkStrategy,
    pub prepass: PrepassMode,
}

/// The geometry-independent half of a design-space sweep: the program
/// plus one shared [`ReuseAnalysis`] per distinct line size.
///
/// Build it once with [`SweepPlan::new`] (or [`SweepPlan::with_reuse`]
/// when the caller already caches reuse analyses, like the serve
/// engine), then evaluate any number of geometry grids with
/// [`SweepPlan::run`].
#[derive(Debug)]
pub struct SweepPlan<'p> {
    program: &'p Program,
    /// `(line_bytes, analysis)` in first-seen order.
    reuse: Vec<(u64, Arc<ReuseAnalysis>)>,
}

impl<'p> SweepPlan<'p> {
    /// Analyses reuse once per distinct line size in `geometries`.
    pub fn new(program: &'p Program, geometries: &[CacheConfig]) -> Self {
        let mut reuse: Vec<(u64, Arc<ReuseAnalysis>)> = Vec::new();
        for g in geometries {
            let line = g.line_bytes();
            if !reuse.iter().any(|&(l, _)| l == line) {
                reuse.push((line, Arc::new(ReuseAnalysis::analyze(program, line))));
            }
        }
        SweepPlan { program, reuse }
    }

    /// A plan over caller-supplied reuse analyses (`(line_bytes,
    /// analysis)` pairs); each must have been generated for `program` at
    /// its line size, uncapped.
    pub fn with_reuse(program: &'p Program, reuse: Vec<(u64, Arc<ReuseAnalysis>)>) -> Self {
        SweepPlan { program, reuse }
    }

    /// The shared reuse analysis for one line size, if the plan covers it.
    pub fn reuse_for(&self, line_bytes: u64) -> Option<&Arc<ReuseAnalysis>> {
        self.reuse
            .iter()
            .find(|&&(l, _)| l == line_bytes)
            .map(|(_, a)| a)
    }

    /// Distinct line sizes (= reuse analyses) the plan holds.
    pub fn line_sizes(&self) -> usize {
        self.reuse.len()
    }

    /// Evaluates every geometry of the grid, returning one [`Report`] per
    /// geometry in input order. See [`SweepPlan::run_cancellable`].
    ///
    /// # Panics
    ///
    /// Panics if a geometry's line size is not covered by the plan (never
    /// the case for a plan from [`SweepPlan::new`] over the same grid).
    pub fn run(&self, geometries: &[CacheConfig], opts: &SweepOptions) -> Vec<Report> {
        self.run_cancellable(geometries, opts, &CancelToken::never())
            .expect("never-token sweeps cannot be cancelled")
    }

    /// Cancellable [`SweepPlan::run`]: the token is checked inside each
    /// pre-pass and per work chunk, exactly as in single-geometry
    /// analysis. On cancellation all per-cell progress is discarded.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fired mid-sweep.
    ///
    /// # Panics
    ///
    /// As [`SweepPlan::run`], for a line size the plan does not cover.
    pub fn run_cancellable(
        &self,
        geometries: &[CacheConfig],
        opts: &SweepOptions,
        cancel: &CancelToken,
    ) -> Result<Vec<Report>, Cancelled> {
        let start = Instant::now();
        let threads = opts.threads.count();
        let nrefs = self.program.references().len();
        // One classifier per geometry, hoisted out of the reference loop.
        // Each borrows the shared reuse analysis for its line size.
        let classifiers: Vec<Classifier<'_>> = geometries
            .iter()
            .map(|&g| {
                let reuse = self
                    .reuse_for(g.line_bytes())
                    .expect("sweep plan must cover every line size of the grid");
                Classifier::new(self.program, reuse, g).with_strategy(opts.walk)
            })
            .collect();
        let mut cells: Vec<CellAcc> = geometries.iter().map(|_| CellAcc::default()).collect();
        let mut points_done: u64 = 0;

        for r in 0..nrefs {
            // The geometry-dependent pre-pass first. Cells it does not
            // resolve in full stay pending and share one flat row buffer
            // below.
            let mut pending: Vec<(usize, Option<RefVerdicts>)> = Vec::new();
            for (ci, cl) in classifiers.iter().enumerate() {
                let verdicts = match opts.prepass {
                    PrepassMode::On => Some(
                        prepass::analyze_reference(cl, r, cancel)
                            .map_err(|_| Cancelled { points_done })?,
                    ),
                    PrepassMode::Off => None,
                };
                match verdicts.as_ref().and_then(RefVerdicts::totals) {
                    Some(totals) => {
                        points_done += totals.analyzed();
                        cells[ci].push(r, totals, verdicts.as_ref());
                    }
                    None => pending.push((ci, verdicts)),
                }
            }
            if pending.is_empty() {
                continue;
            }

            // Enumerate the reference's iteration rows once for every
            // pending geometry.
            let (flat, npoints) = self.program.flat_ris(r);
            let dim = self.program.depth();
            if dim == 0 {
                for (ci, verdicts) in &pending {
                    if cancel.is_cancelled() {
                        return Err(Cancelled { points_done });
                    }
                    let tally = zero_dim_tally(&classifiers[*ci], r, verdicts.as_ref());
                    points_done += tally.analyzed();
                    cells[*ci].push(r, tally, verdicts.as_ref());
                }
                continue;
            }

            // Fan the parallel engine out over (geometry, chunk) items:
            // item `i` classifies chunk `i % nchunks` of the shared rows
            // under pending geometry `i / nchunks`. Chunk boundaries are
            // identical to the single-geometry walk, so tallies (and
            // hence reports) are too.
            let nchunks = npoints.div_ceil(CHUNK_POINTS).max(1);
            let ntasks = pending.len() * nchunks;
            let tallies = parallel::run_chunked_cancellable(
                threads,
                ntasks,
                cancel,
                Scratch::new,
                |scratch, i| {
                    let (ci, verdicts) = &pending[i / nchunks];
                    let cl = &classifiers[*ci];
                    let verdicts = verdicts.as_ref();
                    let lo = (i % nchunks) * CHUNK_POINTS;
                    let hi = npoints.min(lo + CHUNK_POINTS);
                    let mut tally = Tally::default();
                    let mut cursor =
                        verdicts.map_or(0, |v| v.cursor_at(&flat[lo * dim..(lo + 1) * dim]));
                    for point in flat[lo * dim..hi * dim].chunks_exact(dim) {
                        match verdicts.and_then(|v| v.lookup(point, &mut cursor)) {
                            Some(v) => tally.bump_verdict(v),
                            None => tally.bump(cl.classify_with_scratch(r, point, scratch)),
                        }
                    }
                    tally
                },
            )
            .ok_or(Cancelled { points_done })?;
            for (p, (ci, verdicts)) in pending.iter().enumerate() {
                let mut total = Tally::default();
                for t in &tallies[p * nchunks..(p + 1) * nchunks] {
                    total.merge(*t);
                }
                points_done += total.analyzed();
                cells[*ci].push(r, total, verdicts.as_ref());
            }
        }

        let elapsed = start.elapsed();
        Ok(cells
            .into_iter()
            .map(|c| Report::new(c.reports, elapsed).with_prepass_resolved(c.prepass_resolved))
            .collect())
    }
}

/// Per-geometry accumulator while the sweep walks the reference list.
#[derive(Debug, Default)]
struct CellAcc {
    reports: Vec<RefReport>,
    prepass_resolved: u64,
}

impl CellAcc {
    fn push(&mut self, r: cme_ir::RefId, tally: Tally, verdicts: Option<&RefVerdicts>) {
        if let Some(v) = verdicts {
            self.prepass_resolved += v.resolved();
        }
        self.reports.push(RefReport {
            r,
            ris_size: tally.analyzed(),
            analyzed: tally.analyzed(),
            cold: tally.cold,
            replacement: tally.replacement,
            hits: tally.hits,
            coverage: Coverage::Exhaustive,
        });
    }
}

/// The serial walk for zero-depth programs (no rows to chunk).
fn zero_dim_tally(cl: &Classifier<'_>, r: cme_ir::RefId, verdicts: Option<&RefVerdicts>) -> Tally {
    let mut tally = Tally::default();
    let mut scratch = Scratch::new();
    let mut cursor = 0usize;
    cl.program().ris(r).for_each_point(|point| {
        match verdicts.and_then(|v| v.lookup(point, &mut cursor)) {
            Some(v) => tally.bump_verdict(v),
            None => tally.bump(cl.classify_with_scratch(r, point, &mut scratch)),
        }
    });
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find::FindMisses;
    use cme_ir::{LinExpr, Program, ProgramBuilder, SNode, SRef};

    /// A small two-array kernel with both streaming and reuse behaviour.
    fn kernel(n: i64) -> Program {
        let mut b = ProgramBuilder::new("sweep-kernel");
        b.array("A", &[n, n], 8);
        b.array("B", &[n], 8);
        let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
        b.push(SNode::loop_(
            "J",
            1,
            n,
            vec![SNode::loop_(
                "I",
                1,
                n,
                vec![SNode::reads_only(vec![
                    SRef::new("A", vec![i.clone(), j.clone()]),
                    SRef::new("B", vec![i.clone()]),
                ])],
            )],
        ));
        b.build().unwrap()
    }

    fn grid() -> Vec<CacheConfig> {
        // 2 line sizes x 3 capacities x 2 associativities, plus one
        // non-power-of-two set count through the with_geometry fallback.
        let mut g = CacheConfig::parse_geometry_grid("1K,2K,4K:1,2:16,32").unwrap();
        g.push(CacheConfig::parse_geometry("3K:2:32").unwrap());
        g
    }

    fn assert_reports_equal(a: &Report, b: &Report, what: &str) {
        assert_eq!(a.references().len(), b.references().len(), "{what}");
        for (x, y) in a.references().iter().zip(b.references()) {
            assert_eq!(x.r, y.r, "{what}");
            assert_eq!(x.ris_size, y.ris_size, "{what} ref {}", x.r);
            assert_eq!(x.analyzed, y.analyzed, "{what} ref {}", x.r);
            assert_eq!(x.cold, y.cold, "{what} ref {}", x.r);
            assert_eq!(x.replacement, y.replacement, "{what} ref {}", x.r);
            assert_eq!(x.hits, y.hits, "{what} ref {}", x.r);
            assert_eq!(x.coverage, y.coverage, "{what} ref {}", x.r);
        }
    }

    /// The tentpole contract: every sweep cell equals an independent
    /// single-geometry `FindMisses` run, field for field.
    #[test]
    fn sweep_cells_match_independent_find_misses() {
        let p = kernel(24);
        let grid = grid();
        let plan = SweepPlan::new(&p, &grid);
        assert_eq!(plan.line_sizes(), 2, "two distinct line sizes");
        let reports = plan.run(&grid, &SweepOptions::default());
        assert_eq!(reports.len(), grid.len());
        for (g, cell) in grid.iter().zip(&reports) {
            let solo = FindMisses::new(&p, *g).run();
            assert_reports_equal(cell, &solo, &g.to_string());
        }
    }

    /// Sweep results are invariant across threads x strategy x prepass
    /// modes — the same contract `FindMisses` holds.
    #[test]
    fn sweep_is_mode_invariant() {
        let p = kernel(16);
        let grid = grid();
        let plan = SweepPlan::new(&p, &grid);
        let baseline = plan.run(&grid, &SweepOptions::default());
        for threads in [Threads::Fixed(1), Threads::Fixed(4)] {
            for walk in [WalkStrategy::SetSkip, WalkStrategy::LegacyScan] {
                for prepass in [PrepassMode::On, PrepassMode::Off] {
                    let opts = SweepOptions {
                        threads,
                        walk,
                        prepass,
                    };
                    let got = plan.run(&grid, &opts);
                    for ((g, a), b) in grid.iter().zip(&baseline).zip(&got) {
                        assert_reports_equal(a, b, &format!("{g} {opts:?}"));
                    }
                }
            }
        }
    }

    /// One plan serves many grids, and duplicate geometries in one grid
    /// produce identical cells.
    #[test]
    fn plan_reuse_and_duplicate_cells() {
        let p = kernel(12);
        let g32 = CacheConfig::parse_geometry("1K:2:32").unwrap();
        let g16 = CacheConfig::parse_geometry("2K:1:16").unwrap();
        let plan = SweepPlan::new(&p, &[g32, g16]);
        let twice = plan.run(&[g32, g16, g32], &SweepOptions::default());
        assert_reports_equal(&twice[0], &twice[2], "duplicate cells");
        let solo = plan.run(&[g16], &SweepOptions::default());
        assert_reports_equal(&twice[1], &solo[0], "plan reuse across grids");
    }

    /// An already-fired token cancels the sweep.
    #[test]
    fn sweep_respects_cancellation() {
        let p = kernel(16);
        let grid = grid();
        let plan = SweepPlan::new(&p, &grid);
        let token = CancelToken::new();
        token.cancel();
        assert!(plan
            .run_cancellable(&grid, &SweepOptions::default(), &token)
            .is_err());
    }
}
