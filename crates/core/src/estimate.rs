//! `EstimateMisses`: sampled analysis with statistical guarantees
//! (Fig. 6, right).

use crate::cancel::{CancelToken, Cancelled};
use crate::classify::Classifier;
use crate::options::SamplingOptions;
use crate::parallel;
use crate::report::{Coverage, RefReport, Report};
use cme_cache::CacheConfig;
use cme_ir::Program;
use cme_reuse::ReuseAnalysis;
use std::sync::Arc;
use std::time::Instant;

/// Sampled miss analysis: classifies a uniform sample of each reference
/// iteration space, sized so the per-reference miss ratio carries a
/// `(confidence, width)` guarantee. References with small RISs are analysed
/// exhaustively.
///
/// # Examples
///
/// ```
/// use cme_analysis::{EstimateMisses, SamplingOptions};
/// use cme_cache::CacheConfig;
/// use cme_ir::{ProgramBuilder, SNode, SRef, LinExpr};
///
/// let mut b = ProgramBuilder::new("scan");
/// b.array("A", &[4096], 8);
/// b.push(SNode::loop_("I", 1, 4096,
///     vec![SNode::reads_only(vec![SRef::new("A", vec![LinExpr::var("I")])])]));
/// let p = b.build()?;
/// let cfg = CacheConfig::new(1024, 32, 1).expect("valid geometry");
///
/// let report = EstimateMisses::new(&p, cfg, SamplingOptions::paper_default()).run();
/// // True ratio is 0.25 (one miss per 4-element line); the estimate is
/// // within the requested ±0.05 with 95% confidence.
/// assert!((report.miss_ratio() - 0.25).abs() < 0.05);
/// # Ok::<(), cme_ir::IrError>(())
/// ```
#[derive(Debug)]
pub struct EstimateMisses<'p> {
    program: &'p Program,
    config: CacheConfig,
    options: SamplingOptions,
    reuse: Arc<ReuseAnalysis>,
}

impl<'p> EstimateMisses<'p> {
    /// Prepares the analysis (generates reuse vectors).
    pub fn new(program: &'p Program, config: CacheConfig, options: SamplingOptions) -> Self {
        let reuse = Arc::new(ReuseAnalysis::analyze(program, config.line_bytes()));
        EstimateMisses {
            program,
            config,
            options,
            reuse,
        }
    }

    /// Reuses pre-generated vectors; an `Arc` is shared, not copied.
    pub fn with_reuse(
        program: &'p Program,
        config: CacheConfig,
        options: SamplingOptions,
        reuse: impl Into<Arc<ReuseAnalysis>>,
    ) -> Self {
        EstimateMisses {
            program,
            config,
            options,
            reuse: reuse.into(),
        }
    }

    /// The generated (or shared) reuse vectors.
    pub fn reuse(&self) -> &Arc<ReuseAnalysis> {
        &self.reuse
    }

    /// Runs the sampled analysis.
    pub fn run(&self) -> Report {
        self.run_cancellable(&CancelToken::never())
            .expect("never-token runs cannot be cancelled")
    }

    /// Like [`EstimateMisses::run`], but aborts cleanly when `cancel` fires
    /// (explicitly or by deadline). The token is checked per work chunk; on
    /// abort the error reports how many points of the completed references
    /// had been classified.
    pub fn run_cancellable(&self, cancel: &CancelToken) -> Result<Report, Cancelled> {
        let start = Instant::now();
        let classifier = Classifier::new(self.program, &self.reuse, self.config);
        let threads = self.options.threads.count();
        let mut reports = Vec::with_capacity(self.program.references().len());
        let mut points_done = 0u64;
        let mut prepass_resolved = 0u64;
        for r in 0..self.program.references().len() {
            let ris = self.program.ris(r);
            let volume = ris.count();
            let (tally, coverage) = match self.options.plan(volume) {
                crate::options::SamplePlan::Exhaustive => {
                    // The pre-pass costs at least O(rows); it pays for
                    // itself only on exhaustively-analysed references.
                    // Sampled references classify ~a few hundred points,
                    // so they go to the classifier directly.
                    let (tally, resolved) =
                        parallel::classify_exhaustive(&classifier, r, threads, cancel)
                            .ok_or(Cancelled { points_done })?;
                    prepass_resolved += resolved;
                    (tally, Coverage::Exhaustive)
                }
                crate::options::SamplePlan::Sample(nsamples) => {
                    // Per-reference deterministic seed; each sample chunk
                    // derives its own RNG stream from it, so the sampled
                    // point set is independent of the thread count.
                    let ref_seed = self.options.seed ^ (r as u64).wrapping_mul(0x9E3779B97F4A7C15);
                    parallel::classify_sampled(
                        &classifier,
                        r,
                        ris,
                        nsamples,
                        ref_seed,
                        threads,
                        cancel,
                    )
                    .ok_or(Cancelled { points_done })?
                }
            };
            points_done += tally.analyzed();
            reports.push(RefReport {
                r,
                ris_size: volume,
                analyzed: tally.analyzed(),
                cold: tally.cold,
                replacement: tally.replacement,
                hits: tally.hits,
                coverage,
            });
        }
        Ok(Report::new(reports, start.elapsed()).with_prepass_resolved(prepass_resolved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_cache::Simulator;
    use cme_ir::{LinExpr, ProgramBuilder, SNode, SRef};

    fn stencil_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new("stencil2d");
        b.array("U", &[n, n], 8);
        b.array("V", &[n, n], 8);
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
                    SRef::new("V", vec![i.clone(), j.clone()]),
                    vec![
                        SRef::new("U", vec![i.offset(-1), j.clone()]),
                        SRef::new("U", vec![i.offset(1), j.clone()]),
                        SRef::new("U", vec![i.clone(), j.offset(-1)]),
                        SRef::new("U", vec![i.clone(), j.offset(1)]),
                    ],
                )],
            )],
        ));
        b.build().unwrap()
    }

    /// The sampled estimate lands close to the simulator's ground truth.
    #[test]
    fn estimate_close_to_simulation() {
        let p = stencil_program(64);
        for assoc in [1u32, 2] {
            let cfg = CacheConfig::new(4096, 32, assoc).unwrap();
            let sim_ratio = Simulator::new(cfg).run(&p).miss_ratio();
            let est = EstimateMisses::new(&p, cfg, SamplingOptions::paper_default())
                .run()
                .miss_ratio();
            assert!(
                (est - sim_ratio).abs() < 0.05,
                "assoc {assoc}: estimate {est} vs simulator {sim_ratio}"
            );
        }
    }

    /// Small RISs are analysed exhaustively; large ones sampled.
    #[test]
    fn coverage_selection() {
        let p = stencil_program(64); // RIS = 63² ≈ 3969 > 385
        let cfg = CacheConfig::new(4096, 32, 1).unwrap();
        let report = EstimateMisses::new(&p, cfg, SamplingOptions::paper_default()).run();
        for rr in report.references() {
            match rr.coverage {
                Coverage::Sampled { samples } => {
                    assert!(samples >= 300, "sample too small: {samples}");
                    assert!(samples < rr.ris_size);
                }
                Coverage::Exhaustive => panic!("expected sampling for RIS {}", rr.ris_size),
            }
        }

        let small = stencil_program(12); // RIS = 121 < 385 → exhaustive
        let report = EstimateMisses::new(&small, cfg, SamplingOptions::paper_default()).run();
        for rr in report.references() {
            assert_eq!(rr.coverage, Coverage::Exhaustive);
        }
    }

    /// Determinism: same seed, same estimate; different seed may differ but
    /// stays within the interval.
    #[test]
    fn seeded_determinism() {
        let p = stencil_program(48);
        let cfg = CacheConfig::new(4096, 32, 1).unwrap();
        let opts = SamplingOptions::paper_default();
        let a = EstimateMisses::new(&p, cfg, opts.clone())
            .run()
            .miss_ratio();
        let b = EstimateMisses::new(&p, cfg, opts).run().miss_ratio();
        assert_eq!(a, b);
    }

    /// Exhaustive EstimateMisses (small program) equals FindMisses.
    #[test]
    fn degenerates_to_findmisses_on_small_programs() {
        let p = stencil_program(14);
        let cfg = CacheConfig::new(2048, 32, 2).unwrap();
        let est = EstimateMisses::new(&p, cfg, SamplingOptions::paper_default()).run();
        let find = crate::FindMisses::new(&p, cfg).run();
        assert_eq!(est.exact_misses(), find.exact_misses());
        assert!(est.exact_misses().is_some());
    }
}
