//! Acceptance check for the counting evaluator: per-point verdicts —
//! including the `vector_idx` payloads — are bit-identical between
//! [`WalkStrategy::SetSkip`] and the legacy full-scan walk on the paper
//! kernels (hydro, mgrid, mmt), a guarded-IF program, and a program
//! whose element size shares no power-of-two structure with the line. Geometries include a non-power-of-two set count.

use cme_analysis::{Classifier, Scratch, WalkStrategy};
use cme_cache::CacheConfig;
use cme_ir::{LinExpr, LinRel, Program, ProgramBuilder, RelOp, SNode, SRef};
use cme_reuse::ReuseAnalysis;

fn assert_verdicts_identical(program: &Program, cfg: CacheConfig, tag: &str) {
    let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());
    let skip = Classifier::new(program, &reuse, cfg).with_strategy(WalkStrategy::SetSkip);
    let scan = Classifier::new(program, &reuse, cfg).with_strategy(WalkStrategy::LegacyScan);
    let mut s1 = Scratch::new();
    let mut s2 = Scratch::new();
    for r in 0..program.references().len() {
        program.ris(r).for_each_point(|point| {
            let a = skip.classify_with_scratch(r, point, &mut s1);
            let b = scan.classify_with_scratch(r, point, &mut s2);
            assert_eq!(
                a,
                b,
                "{tag} cfg {cfg}: ref {r} ({}) at {point:?}",
                program.reference(r).display
            );
        });
    }
}

/// A guarded program in the Figure 1/2 mould: an IF-gated read whose
/// interference intervals cross guard boundaries.
fn guarded_program() -> Program {
    let n = 12i64;
    let mut b = ProgramBuilder::new("guarded");
    b.array("A", &[n], 8);
    b.array("B", &[n, n], 8);
    let i1 = LinExpr::var("I1");
    let i2 = LinExpr::var("I2");
    b.push(SNode::loop_(
        "I1",
        2,
        n,
        vec![
            SNode::assign(SRef::new("A", vec![i1.offset(-1)]), vec![]),
            SNode::loop_(
                "I2",
                1,
                n,
                vec![
                    SNode::reads_only(vec![SRef::new("B", vec![i2.clone(), i1.clone()])]),
                    SNode::if_(
                        vec![LinRel::new(i2.clone(), RelOp::Eq, LinExpr::constant(n))],
                        vec![SNode::reads_only(vec![SRef::new("A", vec![i1.clone()])])],
                    ),
                ],
            ),
        ],
    ));
    b.build().unwrap()
}

/// elem_bytes = 12: address strides share no power-of-two structure with
/// the 32-byte line, so line boundaries fall at shifting offsets in a row.
fn dense_tier_program() -> Program {
    let n = 10i64;
    let mut b = ProgramBuilder::new("dense");
    b.array("P", &[n, n], 12);
    b.array("Q", &[n], 24);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
    b.push(SNode::loop_(
        "J",
        1,
        n,
        vec![SNode::loop_(
            "I",
            1,
            n,
            vec![SNode::assign(
                SRef::new("P", vec![i.clone(), j.clone()]),
                vec![
                    SRef::new("P", vec![j.clone(), i.clone()]),
                    SRef::new("Q", vec![i.clone()]),
                ],
            )],
        )],
    ));
    b.build().unwrap()
}

fn configs() -> Vec<CacheConfig> {
    vec![
        CacheConfig::new(1024, 32, 1).unwrap(),
        CacheConfig::new(2048, 32, 2).unwrap(),
        CacheConfig::new(4096, 64, 4).unwrap(),
        // Non-power-of-two set count: the division fallbacks.
        CacheConfig::with_geometry(32, 12, 2).unwrap(),
    ]
}

#[test]
fn hydro_verdicts_identical() {
    let p = cme_workloads::hydro(20, 20);
    for cfg in configs() {
        assert_verdicts_identical(&p, cfg, "hydro");
    }
}

#[test]
fn mgrid_verdicts_identical() {
    let p = cme_workloads::mgrid(10);
    for cfg in configs() {
        assert_verdicts_identical(&p, cfg, "mgrid");
    }
}

#[test]
fn mmt_verdicts_identical() {
    let p = cme_workloads::mmt(10, 10, 5);
    for cfg in configs() {
        assert_verdicts_identical(&p, cfg, "mmt");
    }
}

#[test]
fn guarded_if_verdicts_identical() {
    let p = guarded_program();
    for cfg in configs() {
        assert_verdicts_identical(&p, cfg, "guarded");
    }
}

#[test]
fn dense_tier_verdicts_identical() {
    let p = dense_tier_program();
    for cfg in configs() {
        assert_verdicts_identical(&p, cfg, "dense-tier");
    }
}
