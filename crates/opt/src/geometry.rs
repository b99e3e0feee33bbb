//! Cache-geometry selection through the serve engine's sweeps.
//!
//! The paper's design-space story: once miss counts are analytical, "which
//! cache should this loop nest get?" becomes a query, not a simulation
//! campaign. This module asks it through [`Engine::run_sweep`], a loop of
//! ordinary exact queries: cells of one line size share one reuse analysis
//! through the engine's reuse cache, and every cell lands in the
//! content-addressed store — a later padding or tiling search over any
//! swept geometry starts from hot results, and re-ranking after adding
//! candidates only pays for the new cells.

use cme_cache::CacheConfig;
use cme_ir::Program;
use cme_serve::{Engine, SweepJob};

/// One ranked design point.
#[derive(Debug, Clone)]
pub struct GeometryChoice {
    pub config: CacheConfig,
    /// Exact analytical miss ratio for the whole program on this geometry.
    pub miss_ratio: f64,
    /// Exact miss count (absent only if the stored payload predates the
    /// field).
    pub misses: Option<u64>,
    /// Whether this cell was answered from the result store.
    pub from_store: bool,
}

/// The outcome of a geometry ranking: design points sorted by ascending
/// miss ratio, plus how much of the grid was already known.
#[derive(Debug, Clone)]
pub struct GeometryRanking {
    pub ranked: Vec<GeometryChoice>,
    /// Cells answered from the store.
    pub store_hits: u64,
    /// Cells computed by this call.
    pub computed: u64,
}

impl GeometryRanking {
    /// The winning design point (fewest misses).
    pub fn best(&self) -> &GeometryChoice {
        &self.ranked[0]
    }
}

/// Ranks `geometries` for `program` by exact analytical miss ratio, using
/// a private in-memory [`Engine`].
pub fn rank_geometries(program: &Program, geometries: &[CacheConfig]) -> GeometryRanking {
    let engine = Engine::in_memory(geometries.len().max(16) * 2);
    rank_geometries_in(&engine, program, geometries)
}

/// Like [`rank_geometries`], but through a caller-supplied [`Engine`] — a
/// long-lived engine memoises cells across rankings, and a ranking over
/// geometries a `cme sweep` already visited computes nothing.
pub fn rank_geometries_in(
    engine: &Engine,
    program: &Program,
    geometries: &[CacheConfig],
) -> GeometryRanking {
    let job = SweepJob::exact(program, geometries.to_vec());
    let out = engine
        .run_sweep(&job)
        .expect("geometry rankings carry no deadline");
    GeometryRanking {
        ranked: out
            .cells
            .into_iter()
            .map(|c| GeometryChoice {
                config: c.config,
                miss_ratio: c.miss_ratio,
                misses: c.misses,
                from_store: c.from_store,
            })
            .collect(),
        store_hits: out.store_hits,
        computed: out.computed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_analysis::FindMisses;
    use cme_ir::{LinExpr, ProgramBuilder, SNode, SRef};

    /// Three same-size arrays streamed together (the padding module's
    /// conflict workload): thrashes direct-mapped caches whose way size
    /// equals the array size, so associativity visibly reorders the grid.
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

    fn grid() -> Vec<CacheConfig> {
        CacheConfig::parse_geometry_grid("2K,4K:1,2,4:32").unwrap()
    }

    #[test]
    fn ranking_agrees_with_independent_exact_runs() {
        let program = conflict_program(256);
        let ranking = rank_geometries(&program, &grid());
        assert_eq!(ranking.ranked.len(), 6);
        assert_eq!(ranking.computed, 6);
        let mut prev = -1.0;
        for choice in &ranking.ranked {
            assert!(choice.miss_ratio >= prev, "ranking must be ascending");
            prev = choice.miss_ratio;
            let report = FindMisses::new(&program, choice.config).run();
            assert_eq!(choice.misses, report.exact_misses());
            assert!((choice.miss_ratio - report.miss_ratio()).abs() < 1e-12);
        }
        // The conflict workload separates the grid: the winner beats the
        // 2K direct-mapped cache that the padding tests thrash.
        let thrasher = ranking
            .ranked
            .iter()
            .find(|c| (c.config.size_bytes(), c.config.assoc()) == (2048, 1))
            .unwrap();
        assert!(ranking.best().miss_ratio < thrasher.miss_ratio);
    }

    #[test]
    fn repeat_ranking_answers_from_the_store() {
        let program = conflict_program(256);
        let engine = Engine::in_memory(64);
        let first = rank_geometries_in(&engine, &program, &grid());
        assert_eq!(first.computed, 6);
        assert_eq!(first.store_hits, 0);
        let second = rank_geometries_in(&engine, &program, &grid());
        assert_eq!(second.computed, 0, "repeat ranking must not recompute");
        assert_eq!(second.store_hits, 6);
        for (a, b) in first.ranked.iter().zip(&second.ranked) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.misses, b.misses);
        }
    }
}
