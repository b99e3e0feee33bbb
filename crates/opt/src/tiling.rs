//! Tile-size selection driven by the analytical model.
//!
//! Blocked loop nests expose a tile-size knob; the best value depends on
//! the cache geometry in ways heuristics (e.g. "working set ≤ cache")
//! capture only roughly. With miss predictions costing milliseconds, the
//! model can simply *try* the candidates — the use the paper's
//! introduction motivates for guiding tiling transformations.
//!
//! The searcher is generic: the caller provides a program factory
//! `f(tile parameters) → Program` and the candidate grid; the searcher
//! returns the predicted-best point and the full sweep.

use cme_analysis::{parallel, SamplingOptions};
use cme_cache::CacheConfig;
use cme_ir::Program;
use cme_serve::{Engine, Job};

/// One evaluated tiling candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct TilePoint {
    /// The tile parameters as supplied by the candidate grid.
    pub params: Vec<i64>,
    /// Predicted miss ratio.
    pub predicted_ratio: f64,
}

/// Result of a tile search.
#[derive(Debug, Clone, PartialEq)]
pub struct TilePlan {
    /// All evaluated points, in evaluation order.
    pub sweep: Vec<TilePoint>,
    /// Index of the predicted-best point in [`TilePlan::sweep`].
    pub best: usize,
}

impl TilePlan {
    /// The predicted-best candidate.
    pub fn best_point(&self) -> &TilePoint {
        &self.sweep[self.best]
    }
}

/// Evaluates every candidate parameter vector and returns the predicted
/// best.
///
/// Candidates are evaluated on `sampling.threads` workers (the outer sweep
/// parallelises better than the inner point classification, so each model
/// evaluation runs serially inside its worker). The sweep order, the ratios
/// and the chosen best are identical for every thread count: estimates are
/// seeded-deterministic and ties break to the lowest candidate index.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn search_tiles<F>(
    candidates: &[Vec<i64>],
    config: CacheConfig,
    sampling: SamplingOptions,
    build: F,
) -> TilePlan
where
    F: Fn(&[i64]) -> Program + Sync,
{
    let engine = Engine::in_memory(candidates.len().max(16));
    search_tiles_in(&engine, candidates, config, sampling, build)
}

/// Like [`search_tiles`], but evaluating through a caller-supplied
/// [`Engine`]: repeating a sweep against a long-lived engine (`cme serve`)
/// answers already-seen candidates from the content-addressed store.
pub fn search_tiles_in<F>(
    engine: &Engine,
    candidates: &[Vec<i64>],
    config: CacheConfig,
    sampling: SamplingOptions,
    build: F,
) -> TilePlan
where
    F: Fn(&[i64]) -> Program + Sync,
{
    assert!(!candidates.is_empty(), "no tiling candidates supplied");
    let threads = sampling.threads.count();
    let ratios = parallel::run_chunked(
        threads,
        candidates.len(),
        || (),
        |_, i| {
            let program = build(&candidates[i]);
            // One level of parallelism only: the candidate sweep gets the
            // workers, and the engine classifies each evaluation serially.
            engine
                .run(&Job::estimate(&program, config, sampling.clone()))
                .expect("tile evaluations carry no deadline")
                .miss_ratio
        },
    );
    let mut sweep = Vec::with_capacity(candidates.len());
    let mut best = 0usize;
    for (i, (params, predicted_ratio)) in candidates.iter().zip(ratios).enumerate() {
        if predicted_ratio
            < sweep
                .get(best)
                .map_or(f64::INFINITY, |b: &TilePoint| b.predicted_ratio)
        {
            best = i;
        }
        sweep.push(TilePoint {
            params: params.clone(),
            predicted_ratio,
        });
    }
    TilePlan { sweep, best }
}

/// Convenience grid builder: the cross product of per-dimension candidate
/// lists, filtered by a divisibility predicate.
pub fn grid(dims: &[&[i64]], mut keep: impl FnMut(&[i64]) -> bool) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = vec![Vec::new()];
    for &dim in dims {
        let mut next = Vec::with_capacity(out.len() * dim.len());
        for base in &out {
            for &v in dim {
                let mut c = base.clone();
                c.push(v);
                next.push(c);
            }
        }
        out = next;
    }
    out.retain(|c| keep(c));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_cache::Simulator;

    #[test]
    fn grid_builds_filtered_cross_product() {
        let g = grid(&[&[1, 2], &[3, 4]], |c| c[0] + c[1] != 5);
        assert_eq!(g, vec![vec![1, 3], vec![2, 4]]);
    }

    /// Tile sweeps with the pre-pass off return the identical sweep
    /// (exhaustively-planned references walk to the same totals; sampled
    /// ones never consult the pre-pass).
    #[test]
    fn prepass_off_tile_sweep_matches_default() {
        use cme_analysis::PrepassMode;
        let n = 16i64;
        let cfg = CacheConfig::new(2048, 32, 2).unwrap();
        let candidates = grid(&[&[4, 8, 16], &[4, 8, 16]], |c| {
            n % c[0] == 0 && n % c[1] == 0
        });
        let base = SamplingOptions {
            confidence: 0.90,
            width: 0.05,
            seed: 7,
            ..SamplingOptions::paper_default()
        };
        let on = search_tiles(&candidates, cfg, base.clone(), |p| {
            cme_workloads::mmt(n, p[0], p[1])
        });
        let off = search_tiles(
            &candidates,
            cfg,
            SamplingOptions {
                prepass: PrepassMode::Off,
                ..base
            },
            |p| cme_workloads::mmt(n, p[0], p[1]),
        );
        assert_eq!(on, off);
    }

    #[test]
    fn mmt_tile_search_beats_worst_candidate() {
        let n = 48i64;
        let cfg = CacheConfig::new(4096, 32, 2).unwrap();
        let candidates = grid(&[&[4, 8, 16, 48], &[4, 8, 16, 48]], |c| {
            n % c[0] == 0 && n % c[1] == 0
        });
        let plan = search_tiles(
            &candidates,
            cfg,
            SamplingOptions {
                confidence: 0.90,
                width: 0.05,
                seed: 1,
                ..SamplingOptions::paper_default()
            },
            |p| cme_workloads::mmt(n, p[0], p[1]),
        );
        assert_eq!(plan.sweep.len(), candidates.len());
        let best = plan.best_point().clone();
        let worst = plan
            .sweep
            .iter()
            .max_by(|a, b| a.predicted_ratio.total_cmp(&b.predicted_ratio))
            .unwrap()
            .clone();
        // Validate the ranking against the simulator: the predicted best
        // must not simulate worse than the predicted worst.
        let sim = |p: &TilePoint| {
            Simulator::new(cfg)
                .run(&cme_workloads::mmt(n, p.params[0], p.params[1]))
                .miss_ratio()
        };
        let (sim_best, sim_worst) = (sim(&best), sim(&worst));
        assert!(
            sim_best <= sim_worst + 0.01,
            "model best {sim_best} vs model worst {sim_worst}"
        );
    }
}
