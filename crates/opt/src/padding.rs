//! Inter-array padding selection driven by the analytical model.
//!
//! Conflict misses arise when hot arrays' base addresses collide modulo the
//! cache-set span. The classic remedy is *inter-array padding*: shifting
//! base addresses by a few lines (Rivera & Tseng, PLDI'98 — cited by the
//! paper as a target client of the miss equations). The search below is
//! exactly the loop the paper wants to enable: evaluate candidate paddings
//! with `EstimateMisses` (milliseconds each) instead of simulating
//! (seconds to hours each).
//!
//! Greedy coordinate descent: arrays are padded one at a time, in layout
//! order, each trying every multiple of the line size up to one set span;
//! a couple of rounds converge in practice.

use cme_analysis::{parallel, SamplingOptions};
use cme_cache::CacheConfig;
use cme_ir::Program;
use cme_serve::{Engine, Job};

/// Options for [`search_padding`].
#[derive(Debug, Clone)]
pub struct PaddingOptions {
    /// Candidate paddings per array are `0, L, 2L, …, (candidates−1)·L`
    /// bytes (`L` = line size). Values beyond the number of cache sets are
    /// pointless; the default of 0 means "one set span / 4, at most 16".
    pub candidates: usize,
    /// Coordinate-descent rounds over all arrays.
    pub rounds: usize,
    /// Sampling parameters for each model evaluation (wider than the
    /// analysis default: the search compares candidates, so a coarse
    /// estimate with a fixed seed suffices).
    pub sampling: SamplingOptions,
}

impl Default for PaddingOptions {
    fn default() -> Self {
        PaddingOptions {
            candidates: 0,
            rounds: 2,
            sampling: SamplingOptions {
                confidence: 0.90,
                width: 0.03,
                seed: 0x9AD,
                ..SamplingOptions::paper_default()
            },
        }
    }
}

/// One evaluated layout of a padding search.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddingTrial {
    /// Bytes inserted before each array (index = array id).
    pub padding: Vec<i64>,
    /// Predicted miss ratio of the padded program.
    pub predicted_ratio: f64,
}

/// The outcome of a padding search.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddingPlan {
    /// Bytes inserted before each array (index = array id).
    pub padding: Vec<i64>,
    /// Predicted miss ratio with the original layout.
    pub baseline_ratio: f64,
    /// Predicted miss ratio with [`PaddingPlan::padding`] applied.
    pub padded_ratio: f64,
    /// Every model evaluation, in order: the original layout first. A
    /// layout the descent revisits appears once per visit.
    pub trials: Vec<PaddingTrial>,
}

impl PaddingPlan {
    /// The padded program.
    pub fn apply(&self, program: &Program) -> Program {
        program.with_padding(&self.padding)
    }

    /// Predicted improvement in percentage points.
    pub fn predicted_gain(&self) -> f64 {
        self.baseline_ratio - self.padded_ratio
    }
}

/// The reuse-vector cap used by every padding evaluation (reuse vectors
/// are layout-independent, so the engine shares one capped analysis across
/// all candidate layouts).
pub const PADDING_REUSE_CAP: usize = 128;

/// Searches for inter-array paddings minimising the predicted miss ratio
/// of `program` on `config`, using a private in-memory [`Engine`].
pub fn search_padding(
    program: &Program,
    config: CacheConfig,
    opts: &PaddingOptions,
) -> PaddingPlan {
    // Coordinate descent revisits layouts across rounds; a small
    // per-search store memoises them.
    let engine = Engine::in_memory(256);
    search_padding_in(&engine, program, config, opts)
}

/// Like [`search_padding`], but evaluating through a caller-supplied
/// [`Engine`] — a long-lived engine (e.g. the `cme serve` daemon's)
/// memoises evaluations across searches: re-running a sweep after a
/// geometry change only pays for the layouts that were never seen.
pub fn search_padding_in(
    engine: &Engine,
    program: &Program,
    config: CacheConfig,
    opts: &PaddingOptions,
) -> PaddingPlan {
    let line = config.line_bytes() as i64;
    let candidates = if opts.candidates == 0 {
        (config.num_sets() as usize / 4).clamp(2, 16)
    } else {
        opts.candidates
    };
    let threads = opts.sampling.threads.count();
    let eval = |p: &Program| -> f64 {
        let mut job = Job::estimate(p, config, opts.sampling.clone());
        job.reuse_cap = Some(PADDING_REUSE_CAP);
        // One level of parallelism only: the candidate sweep below gets
        // the workers, and the engine classifies each model serially.
        engine
            .run(&job)
            .expect("padding evaluations carry no deadline")
            .miss_ratio
    };
    let n = program.arrays().len();
    let mut padding = vec![0i64; n];
    let baseline_ratio = eval(program);
    let mut trials = vec![PaddingTrial {
        padding: padding.clone(),
        predicted_ratio: baseline_ratio,
    }];
    let mut best_ratio = baseline_ratio;
    for _ in 0..opts.rounds {
        let mut improved = false;
        for a in 0..n {
            if !matches!(program.array(a).storage, cme_ir::Storage::Owned) {
                continue;
            }
            let keep = padding[a];
            // Evaluate every candidate padding of array `a` in parallel;
            // the results come back in candidate order, so the pick below
            // is deterministic regardless of worker scheduling.
            let evaluated = parallel::run_chunked(
                threads,
                candidates,
                || (),
                |_, c| {
                    let pad = c as i64 * line;
                    if pad == keep {
                        return None;
                    }
                    let mut trial = padding.clone();
                    trial[a] = pad;
                    Some(PaddingTrial {
                        predicted_ratio: eval(&program.with_padding(&trial)),
                        padding: trial,
                    })
                },
            );
            let mut best_here = (best_ratio, keep);
            for trial in evaluated.into_iter().flatten() {
                if trial.predicted_ratio + 1e-9 < best_here.0 {
                    best_here = (trial.predicted_ratio, trial.padding[a]);
                }
                trials.push(trial);
            }
            padding[a] = best_here.1;
            if best_here.0 + 1e-9 < best_ratio {
                best_ratio = best_here.0;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    PaddingPlan {
        padding,
        baseline_ratio,
        padded_ratio: best_ratio,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_cache::Simulator;
    use cme_ir::{LinExpr, ProgramBuilder, SNode, SRef};

    /// Three same-size arrays streamed together: with a power-of-two size
    /// equal to the cache way size they ping-pong in every set of a
    /// direct-mapped cache; a line of padding fixes it.
    fn conflict_program(elems: i64) -> Program {
        let mut b = ProgramBuilder::new("conflict");
        b.array("A", &[elems], 8);
        b.array("B", &[elems], 8);
        b.array("C", &[elems], 8);
        let i = LinExpr::var("I");
        b.push(SNode::loop_(
            "I",
            1,
            elems,
            vec![SNode::assign(
                SRef::new("C", vec![i.clone()]),
                vec![
                    SRef::new("A", vec![i.clone()]),
                    SRef::new("B", vec![i.clone()]),
                ],
            )],
        ));
        b.build().unwrap()
    }

    #[test]
    fn padding_removes_streaming_conflicts() {
        // 2KB direct-mapped cache; arrays of exactly 2KB each ⇒ A(i), B(i),
        // C(i) all map to the same set ⇒ thrashing.
        let program = conflict_program(256);
        let cfg = CacheConfig::new(2048, 32, 1).unwrap();
        let sim_before = Simulator::new(cfg).run(&program).miss_ratio();
        assert!(sim_before > 0.9, "baseline must thrash: {sim_before}");

        let plan = search_padding(&program, cfg, &PaddingOptions::default());
        assert!(plan.predicted_gain() > 0.5, "{plan:?}");

        // The model's recommendation must hold up in the simulator.
        let padded = plan.apply(&program);
        let sim_after = Simulator::new(cfg).run(&padded).miss_ratio();
        assert!(
            sim_after < 0.3,
            "padding should cure thrashing: {sim_after} (plan {:?})",
            plan.padding
        );
        assert!(plan.trials.len() > 3);
        assert_eq!(plan.trials[0].padding, vec![0; 3]);
        assert_eq!(plan.trials[0].predicted_ratio, plan.baseline_ratio);
        assert!(plan
            .trials
            .iter()
            .any(|t| t.padding == plan.padding && t.predicted_ratio == plan.padded_ratio));
    }

    #[test]
    fn padding_never_recommended_when_layout_is_fine() {
        // A single streaming array cannot be improved by padding.
        let mut b = ProgramBuilder::new("stream");
        b.array("A", &[512], 8);
        b.push(SNode::loop_(
            "I",
            1,
            512,
            vec![SNode::reads_only(vec![SRef::new(
                "A",
                vec![LinExpr::var("I")],
            )])],
        ));
        let program = b.build().unwrap();
        let cfg = CacheConfig::new(2048, 32, 1).unwrap();
        let plan = search_padding(&program, cfg, &PaddingOptions::default());
        assert!(plan.predicted_gain().abs() < 0.02, "{plan:?}");
    }

    #[test]
    fn shared_engine_memoises_repeat_searches() {
        let program = conflict_program(256);
        let cfg = CacheConfig::new(2048, 32, 1).unwrap();
        let engine = Engine::in_memory(256);
        let first = search_padding_in(&engine, &program, cfg, &PaddingOptions::default());
        let misses_after_first = engine
            .metrics()
            .store_misses
            .load(std::sync::atomic::Ordering::Relaxed);
        let second = search_padding_in(&engine, &program, cfg, &PaddingOptions::default());
        assert_eq!(first, second);
        // The repeat search answers every evaluation from the store.
        assert_eq!(
            engine
                .metrics()
                .store_misses
                .load(std::sync::atomic::Ordering::Relaxed),
            misses_after_first,
            "second search must not recompute anything"
        );
        assert!(
            engine
                .metrics()
                .store_hits
                .load(std::sync::atomic::Ordering::Relaxed)
                >= first.trials.len() as u64,
            "second search should hit the store once per evaluation"
        );
    }

    /// Every trial's predicted ratio is the classifier's over every point
    /// of its layout, without the row engine: with a tiny interval width
    /// every reference is planned exhaustively, and reuse vectors are
    /// layout-independent, so one capped analysis serves every layout.
    #[test]
    fn trials_match_the_every_point_reference() {
        use cme_analysis::Classifier;
        use cme_reuse::ReuseAnalysis;
        let program = conflict_program(256);
        let cfg = CacheConfig::new(2048, 32, 1).unwrap();
        let mut opts = PaddingOptions::default();
        opts.sampling.width = 0.001;
        let plan = search_padding(&program, cfg, &opts);
        let reuse = ReuseAnalysis::analyze_capped(&program, cfg.line_bytes(), PADDING_REUSE_CAP);
        for trial in &plan.trials {
            let padded = program.with_padding(&trial.padding);
            let reference = Classifier::new(&padded, &reuse, cfg).classify_every_point();
            assert_eq!(trial.predicted_ratio, reference.miss_ratio(), "{trial:?}");
        }
    }

    #[test]
    fn apply_respects_alignment() {
        let program = conflict_program(64);
        let padded = program.with_padding(&[0, 8, 16]);
        for (i, a) in padded.arrays().iter().enumerate() {
            assert_eq!(
                padded.base_address(i) % a.elem_bytes as i64,
                0,
                "array {i} misaligned"
            );
        }
        // Padding shifts B and C.
        assert!(padded.base_address(1) >= program.base_address(1) + 8);
        assert!(padded.base_address(2) >= program.base_address(2) + 24);
    }
}
