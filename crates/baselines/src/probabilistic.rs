//! A probabilistic miss estimator in the style of Fraguela, Doallo &
//! Zapata (PACT'99) — the comparison method of Table 7.
//!
//! The defining traits of that class of models, reproduced here:
//!
//! * reuse is summarised once per `(reference, reuse vector)` pair at a
//!   *representative* iteration point instead of being solved pointwise;
//! * interference is treated *probabilistically*: the distinct memory
//!   lines touched in the reuse interval are assumed to scatter uniformly
//!   and independently over the cache sets, so the reused line survives a
//!   `k`-way set with probability `P(Binom(V, 1/S) < k)` (evaluated via its
//!   Poisson limit);
//! * coverage of a reuse vector across the iteration space is approximated
//!   geometrically from bounding boxes rather than counted exactly.
//!
//! These independence assumptions are exactly what the cache-miss-equation
//! approach removes, which is why `EstimateMisses` dominates this model in
//! Table 7 — most visibly on configurations where alignment and conflict
//! structure matter (large lines, small caches).

use cme_cache::CacheConfig;
use cme_ir::{Program, RefId};
use cme_poly::{lex, vector as vecs};
use cme_reuse::{ReuseAnalysis, ReuseKind};
use std::ops::ControlFlow;

/// Result of the probabilistic estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbEstimate {
    /// Per-reference predicted miss ratios.
    pub per_ref: Vec<f64>,
    /// RIS volumes (weights).
    pub weights: Vec<u64>,
}

impl ProbEstimate {
    /// The volume-weighted program miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        let total: u64 = self.weights.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.per_ref
            .iter()
            .zip(&self.weights)
            .map(|(&m, &w)| m * w as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// Upper bound on the representative interval walk; intervals longer than
/// this have (essentially) unbounded interference and survive with
/// probability ~0 anyway.
const WALK_CAP: u64 = 200_000;

/// Runs the probabilistic model.
pub fn estimate(program: &Program, config: CacheConfig) -> ProbEstimate {
    let reuse = ReuseAnalysis::analyze(program, config.line_bytes());
    let nrefs = program.references().len();
    let sets = config.num_sets() as f64;
    let k = config.assoc() as usize;

    let mut per_ref = Vec::with_capacity(nrefs);
    let mut weights = Vec::with_capacity(nrefs);
    for r in 0..nrefs {
        let ris = program.ris(r);
        let volume = ris.count();
        weights.push(volume);
        if volume == 0 {
            per_ref.push(0.0);
            continue;
        }
        // Representative point: the centre of the bounding box, snapped
        // into the RIS by a tiny deterministic search.
        let rep = representative_point(program, r);
        let arr = program.array(program.reference(r).array);
        let ls_elems = (config.line_bytes() / arr.elem_bytes as u64).max(1) as f64;

        let mut remaining = 1.0f64;
        let mut hit_prob = 0.0f64;
        // Spatial vectors of one family (same producer) are not
        // independent: the fraction not covered by the closest one is the
        // line-boundary fraction, which the farther family members also
        // miss. Only the closest spatial vector per producer participates.
        let mut spatial_seen: std::collections::HashSet<RefId> = std::collections::HashSet::new();
        for rv in reuse.for_consumer(r) {
            if remaining < 1e-9 {
                break;
            }
            if rv.kind != ReuseKind::Temporal && !spatial_seen.insert(rv.producer) {
                continue;
            }
            // Geometric coverage of the vector: per-dimension overlap of
            // the consumer box with the producer box shifted by r.
            let f = coverage_fraction(program, rv.producer, r, rv.vector);
            // Spatial vectors only hit when the two elements share a line:
            // alignment factor (L − d)/L for first-dimension distance d.
            let align = match rv.kind {
                ReuseKind::Temporal => 1.0,
                ReuseKind::Spatial | ReuseKind::CrossColumnSpatial => {
                    let d = first_dim_distance(program, rv.producer, r, rv.vector);
                    ((ls_elems - d.abs() as f64) / ls_elems).max(0.0)
                }
            };
            let covered = remaining * f * align;
            if covered < 1e-9 {
                continue;
            }
            // Representative interference volume: distinct lines touched in
            // the interval ending at the representative point.
            let v = match &rep {
                Some(point) => interval_footprint(program, r, point, rv.vector),
                None => WALK_CAP,
            };
            let lambda = v as f64 / sets;
            let survive = poisson_cdf_below(k, lambda);
            hit_prob += covered * survive;
            remaining -= covered;
        }
        // Whatever is not covered by any reuse vector is a (cold) miss.
        per_ref.push((1.0 - hit_prob).clamp(0.0, 1.0));
    }
    ProbEstimate { per_ref, weights }
}

/// `P(X < k)` for `X ~ Poisson(λ)`.
fn poisson_cdf_below(k: usize, lambda: f64) -> f64 {
    if lambda > 700.0 {
        return 0.0;
    }
    let mut term = (-lambda).exp();
    let mut acc = 0.0;
    for j in 0..k {
        if j > 0 {
            term *= lambda / j as f64;
        }
        acc += term;
    }
    acc.min(1.0)
}

/// Snaps the bounding-box centre into the RIS.
fn representative_point(program: &Program, r: RefId) -> Option<Vec<i64>> {
    let ris = program.ris(r);
    let bbox = ris.bounding_box();
    let centre: Vec<i64> = bbox.iter().map(|&(lo, hi)| (lo + hi) / 2).collect();
    if ris.contains(&centre) {
        return Some(centre);
    }
    // Walk the final dimensions through their conditional intervals.
    let mut point = Vec::with_capacity(centre.len());
    for (d, &c) in centre.iter().enumerate() {
        let (lo, hi) = ris.system().interval(&point, d)?;
        point.push(c.clamp(lo, hi));
    }
    if ris.contains(&point) {
        Some(point)
    } else {
        None
    }
}

/// Fraction of consumer iterations whose producer instance exists,
/// estimated from shifted bounding boxes (the probabilistic-model
/// approximation; the CMEs check this exactly per point).
fn coverage_fraction(program: &Program, producer: RefId, consumer: RefId, rv: &[i64]) -> f64 {
    let (_, x) = lex::deinterleave(rv);
    let pc = program.ris(consumer).bounding_box();
    let pp = program.ris(producer).bounding_box();
    let mut frac = 1.0f64;
    for d in 0..pc.len() {
        let (clo, chi) = pc[d];
        // Producer box shifted by +x covers consumer values in
        // [plo + x, phi + x].
        let (plo, phi) = (pp[d].0 + x[d], pp[d].1 + x[d]);
        let lo = clo.max(plo);
        let hi = chi.min(phi);
        let width = (chi - clo + 1) as f64;
        let overlap = ((hi - lo + 1).max(0)) as f64;
        frac *= overlap / width;
    }
    frac
}

/// First-dimension element distance between producer and consumer along a
/// vector (`δ₁ − M₁·x` in the paper's notation).
fn first_dim_distance(program: &Program, producer: RefId, consumer: RefId, rv: &[i64]) -> i64 {
    let (_, x) = lex::deinterleave(rv);
    let rp = program.reference(producer);
    let rc = program.reference(consumer);
    if rp.subs.is_empty() || rc.subs.is_empty() {
        return 0;
    }
    let delta1 = rp.subs[0].constant_term() - rc.subs[0].constant_term();
    delta1 - vecs::dot(rp.subs[0].coeffs(), &x)
}

/// Distinct memory lines touched in the interval `[rep − r, rep]`, capped.
fn interval_footprint(program: &Program, r: RefId, rep: &[i64], rv: &[i64]) -> u64 {
    let i_vec = program.iteration_vector(r, rep);
    let from = vecs::sub(&i_vec, rv);
    let line_bytes = 32; // footprint granularity; the set-spread uses the
                         // real geometry, only V is counted here.
    let mut lines: std::collections::HashSet<i64> = std::collections::HashSet::new();
    let mut walked = 0u64;
    cme_ir::walk::walk_range(program, &from, &i_vec, |a, _| {
        walked += 1;
        lines.insert(a.addr.div_euclid(line_bytes));
        if walked >= WALK_CAP {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    lines.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{LinExpr, ProgramBuilder, SNode, SRef};

    fn stream(len: i64) -> Program {
        let mut b = ProgramBuilder::new("stream");
        b.array("A", &[len], 8);
        b.push(SNode::loop_(
            "I",
            1,
            len,
            vec![SNode::reads_only(vec![SRef::new(
                "A",
                vec![LinExpr::var("I")],
            )])],
        ));
        b.build().unwrap()
    }

    #[test]
    fn poisson_tail_sane() {
        assert!((poisson_cdf_below(1, 0.0) - 1.0).abs() < 1e-12);
        assert!(poisson_cdf_below(1, 10.0) < 1e-3);
        assert!(poisson_cdf_below(4, 0.5) > 0.99);
        assert_eq!(poisson_cdf_below(2, 1e6), 0.0);
    }

    #[test]
    fn stream_estimate_close_to_quarter() {
        // Sequential scan of 8B elements with 32B lines: true ratio 0.25.
        let p = stream(4096);
        let cfg = CacheConfig::new(32 * 1024, 32, 1).unwrap();
        let est = estimate(&p, cfg);
        assert!(
            (est.miss_ratio() - 0.25).abs() < 0.05,
            "got {}",
            est.miss_ratio()
        );
    }

    #[test]
    fn estimate_is_a_probability() {
        let p = cme_workloads_smoke();
        for assoc in [1u32, 2, 4] {
            let cfg = CacheConfig::new(2048, 32, assoc).unwrap();
            let est = estimate(&p, cfg);
            for (i, &m) in est.per_ref.iter().enumerate() {
                assert!((0.0..=1.0).contains(&m), "ref {i}: {m}");
            }
        }
    }

    /// A small stencil standing in for a workload (avoids a circular dev
    /// dependency on cme-workloads).
    fn cme_workloads_smoke() -> Program {
        let mut b = ProgramBuilder::new("stencil");
        b.array("U", &[32, 32], 8);
        b.array("V", &[32, 32], 8);
        let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
        b.push(SNode::loop_(
            "J",
            2,
            31,
            vec![SNode::loop_(
                "I",
                2,
                31,
                vec![SNode::assign(
                    SRef::new("V", vec![i.clone(), j.clone()]),
                    vec![
                        SRef::new("U", vec![i.offset(-1), j.clone()]),
                        SRef::new("U", vec![i.offset(1), j.clone()]),
                    ],
                )],
            )],
        ));
        b.build().unwrap()
    }

    #[test]
    fn less_accurate_than_sampled_cme_on_conflicted_stencil() {
        // The Table 7 relationship at small scale: |Δ_P| ≥ |Δ_E| against
        // the simulator (allowing ties).
        let p = cme_workloads_smoke();
        let cfg = CacheConfig::new(1024, 32, 1).unwrap();
        let sim = cme_cache::Simulator::new(cfg).run(&p).miss_ratio();
        let prob = estimate(&p, cfg).miss_ratio();
        let cme = cme_analysis::EstimateMisses::new(
            &p,
            cfg,
            cme_analysis::SamplingOptions::paper_default(),
        )
        .run()
        .miss_ratio();
        let d_p = (prob - sim).abs();
        let d_e = (cme - sim).abs();
        assert!(
            d_e <= d_p + 1e-9,
            "CME error {d_e:.4} should not exceed probabilistic error {d_p:.4} (sim {sim:.4})"
        );
    }
}
