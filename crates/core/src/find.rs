//! `FindMisses`: exact analysis of every iteration point (Fig. 6, left).

use crate::cancel::{CancelToken, Cancelled};
use crate::classify::{Classifier, WalkStrategy};
use crate::options::{PrepassMode, Threads};
use crate::parallel;
use crate::prepass::{self, RefVerdicts};
use crate::report::{Coverage, RefReport, Report};
use cme_cache::CacheConfig;
use cme_ir::Program;
use cme_reuse::ReuseAnalysis;
use std::sync::Arc;
use std::time::Instant;

/// Exact miss analysis: classifies *all* iteration points of every
/// reference. Practical for small problem sizes; use
/// [`crate::EstimateMisses`] for whole programs.
///
/// # Examples
///
/// ```
/// use cme_analysis::FindMisses;
/// use cme_cache::{CacheConfig, Simulator};
/// use cme_ir::{ProgramBuilder, SNode, SRef, LinExpr};
///
/// let mut b = ProgramBuilder::new("scan");
/// b.array("A", &[64], 8);
/// b.push(SNode::loop_("I", 1, 64,
///     vec![SNode::reads_only(vec![SRef::new("A", vec![LinExpr::var("I")])])]));
/// let p = b.build()?;
/// let cfg = CacheConfig::new(1024, 32, 1).expect("valid geometry");
///
/// let report = FindMisses::new(&p, cfg).run();
/// let sim = Simulator::new(cfg).run(&p);
/// assert_eq!(report.exact_misses(), Some(sim.total_misses()));
/// # Ok::<(), cme_ir::IrError>(())
/// ```
#[derive(Debug)]
pub struct FindMisses<'p> {
    program: &'p Program,
    config: CacheConfig,
    reuse: Arc<ReuseAnalysis>,
    threads: Threads,
    walk: WalkStrategy,
    prepass: PrepassMode,
}

impl<'p> FindMisses<'p> {
    /// Prepares the analysis (generates reuse vectors).
    pub fn new(program: &'p Program, config: CacheConfig) -> Self {
        let reuse = Arc::new(ReuseAnalysis::analyze(program, config.line_bytes()));
        FindMisses {
            program,
            config,
            reuse,
            threads: Threads::default(),
            walk: WalkStrategy::default(),
            prepass: PrepassMode::default(),
        }
    }

    /// Reuses pre-generated vectors (must match the program and the line
    /// size of `config`). An `Arc` is shared, not copied, so one analysis
    /// can serve every geometry with its line size.
    pub fn with_reuse(
        program: &'p Program,
        config: CacheConfig,
        reuse: impl Into<Arc<ReuseAnalysis>>,
    ) -> Self {
        FindMisses {
            program,
            config,
            reuse: reuse.into(),
            threads: Threads::default(),
            walk: WalkStrategy::default(),
            prepass: PrepassMode::default(),
        }
    }

    /// Sets the worker-thread count. The report is byte-identical for every
    /// setting (the parallel reduction is deterministic); `Fixed(1)` runs
    /// the legacy serial path. With the pre-pass on (the default) it
    /// governs only the points the row engine leaves to the classifier —
    /// none on the paper's kernels, where the row engine counts every
    /// window; with [`PrepassMode::Off`] it governs every point.
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Selects how the replacement equations evaluate interference windows
    /// (default [`WalkStrategy::SetSkip`], the counting evaluator).
    /// Verdicts — and therefore reports — are bit-identical for every
    /// strategy; [`WalkStrategy::LegacyScan`] is the full interval scan,
    /// kept for differential testing. The pre-pass always counts; the
    /// strategy governs only the points it leaves to the classifier (none
    /// on the paper's kernels), or every point with [`PrepassMode::Off`].
    pub fn strategy(mut self, walk: WalkStrategy) -> Self {
        self.walk = walk;
        self
    }

    /// Enables or disables the definitely-hit/definitely-miss pre-pass
    /// (default [`PrepassMode::On`]). The pre-pass resolves points only to
    /// the verdict the exact walk would reach, and a reference it resolves
    /// in full is counted without walking, so the report is byte-identical
    /// for both settings; `Off` exists for differential testing and timing
    /// comparisons.
    pub fn prepass(mut self, mode: PrepassMode) -> Self {
        self.prepass = mode;
        self
    }

    /// The generated (or shared) reuse vectors.
    pub fn reuse(&self) -> &Arc<ReuseAnalysis> {
        &self.reuse
    }

    /// Classifies every point of every RIS.
    pub fn run(&self) -> Report {
        self.run_cancellable(&CancelToken::never())
            .expect("never-token runs cannot be cancelled")
    }

    /// Like [`FindMisses::run`], but aborts cleanly when `cancel` fires
    /// (explicitly or by deadline). The token is checked per work chunk
    /// (~1k points); on abort the error reports how many points of the
    /// completed references had been classified.
    pub fn run_cancellable(&self, cancel: &CancelToken) -> Result<Report, Cancelled> {
        let start = Instant::now();
        let classifier =
            Classifier::new(self.program, &self.reuse, self.config).with_strategy(self.walk);
        let threads = self.threads.count();
        let mut reports = Vec::with_capacity(self.program.references().len());
        let mut points_done = 0u64;
        let mut prepass_resolved = 0u64;
        for r in 0..self.program.references().len() {
            let verdicts = match self.prepass {
                PrepassMode::On => Some(
                    prepass::analyze_reference(&classifier, r, cancel)
                        .map_err(|_| Cancelled { points_done })?,
                ),
                PrepassMode::Off => None,
            };
            if let Some(v) = &verdicts {
                prepass_resolved += v.resolved();
            }
            let tally = match verdicts.as_ref().and_then(RefVerdicts::totals) {
                Some(totals) => totals,
                None => parallel::classify_exhaustive(
                    &classifier,
                    r,
                    self.program.ris(r),
                    threads,
                    cancel,
                    verdicts.as_ref(),
                )
                .ok_or(Cancelled { points_done })?,
            };
            points_done += tally.analyzed();
            reports.push(RefReport {
                r,
                ris_size: tally.analyzed(),
                analyzed: tally.analyzed(),
                cold: tally.cold,
                replacement: tally.replacement,
                hits: tally.hits,
                coverage: Coverage::Exhaustive,
            });
        }
        Ok(Report::new(reports, start.elapsed()).with_prepass_resolved(prepass_resolved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_cache::Simulator;
    use cme_ir::{LinExpr, LinRel, ProgramBuilder, RelOp, SNode, SRef};

    /// End-to-end exactness check on the Figure 1/2 program across
    /// associativities and cache sizes, against the LRU simulator.
    #[test]
    fn exact_on_figure2_program() {
        let n = 16i64;
        let mut b = ProgramBuilder::new("fig2");
        b.array("A", &[n], 8);
        b.array("B", &[n, n], 8);
        let i1 = LinExpr::var("I1");
        let i2 = LinExpr::var("I2");
        b.push(SNode::loop_(
            "I1",
            2,
            n,
            vec![
                SNode::assign(SRef::new("A", vec![i1.offset(-1)]), vec![]).labelled("S1"),
                SNode::loop_(
                    "I2",
                    i1.clone(),
                    n,
                    vec![SNode::assign(
                        SRef::new("B", vec![i2.offset(-1), i1.clone()]),
                        vec![SRef::new("A", vec![i2.offset(-1)])],
                    )
                    .labelled("S2")],
                ),
                SNode::loop_(
                    "I2",
                    1,
                    n,
                    vec![
                        SNode::reads_only(vec![SRef::new("B", vec![i2.clone(), i1.clone()])])
                            .labelled("S3"),
                        SNode::if_(
                            vec![LinRel::new(i2.clone(), RelOp::Eq, LinExpr::constant(n))],
                            vec![SNode::reads_only(vec![SRef::new("A", vec![i1.clone()])])
                                .labelled("S4")],
                        ),
                    ],
                ),
            ],
        ));
        b.push(SNode::loop_(
            "I1",
            1,
            n - 1,
            vec![SNode::assign(SRef::new("A", vec![i1.offset(1)]), vec![]).labelled("S5")],
        ));
        let p = b.build().unwrap();

        for (size, assoc) in [(512u64, 1u32), (512, 2), (1024, 1), (1024, 4), (4096, 2)] {
            let cfg = CacheConfig::new(size, 32, assoc).unwrap();
            let report = FindMisses::new(&p, cfg).run();
            let sim = Simulator::new(cfg).run(&p);
            assert_eq!(report.total_accesses(), sim.total_accesses());
            let pred = report.exact_misses().unwrap();
            // The S1/S4 guards make some group reuse point-dependent
            // ("facet" reuse, ignored per §3.5), so the prediction may
            // overestimate slightly — never underestimate, and the miss
            // *ratio* stays within 3 % absolute of the simulator.
            assert!(
                pred >= sim.total_misses(),
                "cfg {cfg}: FindMisses underestimated {pred} < {}",
                sim.total_misses()
            );
            let err = (pred - sim.total_misses()) as f64 / sim.total_accesses() as f64;
            assert!(
                err <= 0.03,
                "cfg {cfg}: overestimate {pred} vs {} (abs err {err:.4})",
                sim.total_misses()
            );
        }
    }

    /// On a guard-free perfect-nest program the reuse-vector set is
    /// complete and FindMisses matches the simulator *exactly* across
    /// associativities (the Table 3 situation).
    #[test]
    fn exact_on_perfect_nests() {
        let n = 20i64;
        let mut b = ProgramBuilder::new("perfect");
        b.array("X", &[n, n], 8);
        b.array("Y", &[n, n], 8);
        b.array("Z", &[n], 8);
        let i = LinExpr::var("I");
        let j = LinExpr::var("J");
        b.push(SNode::loop_(
            "J",
            2,
            n - 1,
            vec![SNode::loop_(
                "I",
                2,
                n - 1,
                vec![SNode::assign(
                    SRef::new("Y", vec![i.clone(), j.clone()]),
                    vec![
                        SRef::new("X", vec![i.offset(-1), j.clone()]),
                        SRef::new("X", vec![i.offset(1), j.clone()]),
                        SRef::new("X", vec![i.clone(), j.offset(-1)]),
                        SRef::new("Z", vec![i.clone()]),
                    ],
                )],
            )],
        ));
        let j2 = LinExpr::var("J2");
        let i2 = LinExpr::var("I2");
        b.push(SNode::loop_(
            "J2",
            2,
            n - 1,
            vec![SNode::loop_(
                "I2",
                2,
                n - 1,
                vec![SNode::assign(
                    SRef::new("X", vec![i2.clone(), j2.clone()]),
                    vec![SRef::new("Y", vec![i2.clone(), j2.clone()])],
                )],
            )],
        ));
        let p = b.build().unwrap();
        for (size, assoc) in [(1024u64, 1u32), (1024, 2), (2048, 4), (4096, 1)] {
            let cfg = CacheConfig::new(size, 32, assoc).unwrap();
            let report = FindMisses::new(&p, cfg).run();
            let sim = Simulator::new(cfg).run(&p);
            assert_eq!(
                report.exact_misses(),
                Some(sim.total_misses()),
                "cfg {cfg} not exact"
            );
        }
    }

    /// The rendered per-reference table is well-formed.
    #[test]
    fn report_renders() {
        let mut b = ProgramBuilder::new("render");
        b.array("A", &[32], 8);
        b.push(SNode::loop_(
            "I",
            1,
            32,
            vec![SNode::reads_only(vec![SRef::new(
                "A",
                vec![LinExpr::var("I")],
            )])],
        ));
        let p = b.build().unwrap();
        let cfg = CacheConfig::new(1024, 32, 1).unwrap();
        let report = FindMisses::new(&p, cfg).run();
        let text = report.render(&p);
        assert!(text.contains("A(I)"), "{text}");
        assert!(text.contains("TOTAL"), "{text}");
        assert!(text.lines().count() >= 3);
    }

    /// Per-reference attribution also matches the simulator.
    #[test]
    fn per_reference_matches_simulator() {
        let mut b = ProgramBuilder::new("perref");
        b.array("A", &[32], 8);
        b.array("C", &[32], 8);
        let i = LinExpr::var("I");
        let j = LinExpr::var("J");
        b.push(SNode::loop_(
            "I",
            1,
            32,
            vec![SNode::assign(
                SRef::new("C", vec![i.clone()]),
                vec![SRef::new("A", vec![i.clone()])],
            )],
        ));
        b.push(SNode::loop_(
            "J",
            1,
            32,
            vec![SNode::reads_only(vec![SRef::new("A", vec![j.clone()])])],
        ));
        let p = b.build().unwrap();
        let cfg = CacheConfig::new(2048, 32, 1).unwrap();
        let report = FindMisses::new(&p, cfg).run();
        let sim = Simulator::new(cfg).run(&p);
        for r in 0..p.references().len() {
            let rr = report.reference(r);
            let sc = sim.reference(r);
            assert_eq!(rr.ris_size, sc.accesses, "ref {r} access count");
            assert_eq!(
                rr.cold + rr.replacement,
                sc.misses,
                "ref {r} ({}) miss count",
                p.reference(r).display
            );
        }
    }
}
