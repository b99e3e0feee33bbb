//! The counting evaluator must decide every interference window exactly
//! as the full reverse walk does: per iteration point, the default
//! [`WalkStrategy::SetSkip`] classifier returns the same [`PointClass`] —
//! `vector_idx` included — as [`WalkStrategy::LegacyScan`]. Fuzzed over
//! randomized guarded nests (row-uniform thresholds, thresholds and `≠`
//! holes inside a row, negative strides, element sizes that are neither a
//! multiple nor a divisor of the line) and an inlined whole-program
//! workload with `CALL` statements, under lines of 16/24/32 B and
//! 4/8/12/16 sets.

use cme_analysis::{Classifier, PointClass, Scratch, WalkStrategy};
use cme_cache::CacheConfig;
use cme_ir::{LinExpr, LinRel, NormalizeOptions, Program, ProgramBuilder, RelOp, SNode, SRef};
use cme_poly::rng::{Rng, SeededRng};
use cme_reuse::ReuseAnalysis;

fn arb_subscript2(rng: &mut SeededRng) -> (LinExpr, LinExpr) {
    let off = rng.gen_range(-2..=2);
    match rng.gen_below(7) {
        0 => (LinExpr::var("I").offset(off), LinExpr::var("J")),
        1 => (LinExpr::var("J").offset(off), LinExpr::var("I")),
        2 => (LinExpr::var("I"), LinExpr::var("J").offset(off)),
        3 => (
            LinExpr::var("I").scale(2).offset(off.abs()),
            LinExpr::var("J"),
        ),
        // Negative innermost strides: the row runs down the array.
        4 => (
            LinExpr::var("I").scale(-1).offset(10 + off),
            LinExpr::var("J"),
        ),
        5 => (
            LinExpr::var("I").scale(-2).offset(17 + off),
            LinExpr::var("J"),
        ),
        _ => (LinExpr::constant(off.abs() + 1), LinExpr::var("J")),
    }
}

fn arb_guard(rng: &mut SeededRng) -> LinRel {
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
    let c = rng.gen_range(2..=5);
    match rng.gen_below(5) {
        // Row-uniform: the whole row is in or out.
        0 => LinRel::new(j, RelOp::Ge, LinExpr::constant(3)),
        // Thresholds inside the row.
        1 => LinRel::new(i, RelOp::Le, j),
        2 => LinRel::new(i, RelOp::Ge, LinExpr::constant(c)),
        // `≠` holes inside the row, fixed and moving with the prefix.
        3 => LinRel::new(i, RelOp::Ne, LinExpr::constant(c)),
        _ => LinRel::new(i, RelOp::Ne, j),
    }
}

fn arb_stmt(rng: &mut SeededRng) -> SNode {
    let name = ["X", "Y", "Z"][rng.gen_below(3) as usize];
    let (s1, s2) = arb_subscript2(rng);
    let (r1, r2) = arb_subscript2(rng);
    let reads = if rng.gen_bool() {
        vec![SRef::new(
            ["X", "Y", "Z"][rng.gen_below(3) as usize],
            vec![r1, r2],
        )]
    } else {
        vec![]
    };
    let stmt = SNode::assign(SRef::new(name, vec![s1, s2]), reads);
    match rng.gen_below(3) {
        0 => stmt,
        1 => SNode::if_(vec![arb_guard(rng)], vec![stmt]),
        _ => SNode::if_(vec![arb_guard(rng), arb_guard(rng)], vec![stmt]),
    }
}

/// Random guarded 2-deep nests over mixed element sizes: 8 B divides
/// every line size, 12 B divides only the 24 B line, and 20 B is neither
/// a multiple nor a divisor of any of them.
fn arb_program(rng: &mut SeededRng) -> Program {
    let nbody = rng.gen_range(1..=3) as usize;
    let body: Vec<SNode> = (0..nbody).map(|_| arb_stmt(rng)).collect();
    let n = rng.gen_range(3..=7);
    let elem = [8, 12, 20][rng.gen_below(3) as usize];

    let mut b = ProgramBuilder::new("walkfuzz");
    b.array("X", &[24, 12], elem);
    b.array("Y", &[24, 12], elem);
    b.array("Z", &[24, 12], elem);
    b.options(NormalizeOptions::default());
    b.push(SNode::loop_("J", 1, n, vec![SNode::loop_("I", 1, n, body)]));
    if rng.gen_bool() {
        let i = LinExpr::var("I2");
        b.push(SNode::loop_(
            "I2",
            1,
            n,
            vec![SNode::assign(
                SRef::new("X", vec![i.clone(), LinExpr::constant(1)]),
                vec![SRef::new("Y", vec![i.scale(2), LinExpr::constant(2)])],
            )],
        ));
    }
    b.build().expect("fuzz program normalises")
}

/// A random geometry with one of the fuzzed line sizes and set counts.
fn arb_config(rng: &mut SeededRng) -> CacheConfig {
    let line = [16u64, 24, 32][rng.gen_below(3) as usize];
    let sets = [4u64, 8, 12, 16][rng.gen_below(4) as usize];
    let assoc = rng.gen_range(1..=4) as u32;
    CacheConfig::with_geometry(line, sets, assoc).expect("valid geometry")
}

/// Classifies every point (about one in `every` when `every > 1`) of
/// every reference with both strategies and asserts identical verdicts.
/// Returns how many of them the replacement equations decided.
fn check(program: &Program, cfg: CacheConfig, every: u64, rng: &mut SeededRng, tag: &str) -> u64 {
    let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());
    let count = Classifier::new(program, &reuse, cfg);
    let scan = Classifier::new(program, &reuse, cfg).with_strategy(WalkStrategy::LegacyScan);
    let (mut s1, mut s2) = (Scratch::new(), Scratch::new());
    let mut decided = 0;
    for r in 0..program.references().len() {
        program.ris(r).for_each_point(|point| {
            if every > 1 && rng.gen_below(every) != 0 {
                return;
            }
            let got = count.classify_with_scratch(r, point, &mut s1);
            let want = scan.classify_with_scratch(r, point, &mut s2);
            assert_eq!(
                got,
                want,
                "{tag} cfg {cfg}: ref {r} ({}) at {point:?}",
                program.reference(r).display
            );
            decided += u64::from(got != PointClass::Cold);
        });
    }
    decided
}

#[test]
fn counting_matches_legacy_scan_on_random_guarded_nests() {
    let mut rng = SeededRng::seed_from_u64(0x5E7F);
    let mut decided = 0;
    for case in 0..160 {
        let program = arb_program(&mut rng);
        for _ in 0..3 {
            let cfg = arb_config(&mut rng);
            decided += check(&program, cfg, 1, &mut rng, &format!("case {case}"));
        }
    }
    assert!(decided > 5_000, "only {decided} points reached a window");
}

#[test]
fn counting_matches_legacy_scan_on_inlined_call_program() {
    // swim_like routes all work through CALL statements; after inlining,
    // the normalised program has many statements per row and constant
    // references — a different shape than the fuzz nests.
    let program = cme_workloads::swim_like(8, 1);
    let mut rng = SeededRng::seed_from_u64(0xCA11);
    let mut decided = 0;
    for _ in 0..4 {
        let cfg = arb_config(&mut rng);
        decided += check(&program, cfg, 8, &mut rng, "swim-like");
    }
    assert!(decided > 1_000, "only {decided} points reached a window");
}

/// Windows that cross many rows and nests, with holes and negative
/// strides in every row: `A(I)` is reused only across the whole second
/// nest, whose rows walk `B` backward around a `≠` hole and read `C` at a
/// stride of 40 B.
#[test]
fn counting_matches_legacy_scan_across_nests_with_holes_and_negative_strides() {
    let n = 12i64;
    let mut b = ProgramBuilder::new("cross-nest");
    b.array("A", &[n], 8);
    b.array("B", &[n, n], 8);
    b.array("C", &[2 * n, n], 20);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
    let sweep_a = || {
        SNode::loop_(
            "J",
            1,
            1,
            vec![SNode::loop_(
                "I",
                1,
                n,
                vec![SNode::reads_only(vec![SRef::new("A", vec![i.clone()])])],
            )],
        )
    };
    b.push(sweep_a());
    b.push(SNode::loop_(
        "J",
        1,
        n,
        vec![SNode::loop_(
            "I",
            1,
            n,
            vec![
                SNode::if_(
                    vec![LinRel::new(i.clone(), RelOp::Ne, j.clone())],
                    vec![SNode::reads_only(vec![SRef::new(
                        "B",
                        vec![i.scale(-1).offset(n + 1), j.clone()],
                    )])],
                ),
                SNode::reads_only(vec![SRef::new("C", vec![i.scale(2), j.clone()])]),
            ],
        )],
    ));
    b.push(sweep_a());
    let program = b.build().unwrap();
    for cfg in [
        CacheConfig::with_geometry(16, 8, 1).unwrap(),
        CacheConfig::with_geometry(24, 12, 2).unwrap(),
        CacheConfig::with_geometry(32, 4, 4).unwrap(),
        CacheConfig::with_geometry(32, 16, 3).unwrap(),
    ] {
        let mut rng = SeededRng::seed_from_u64(1);
        check(&program, cfg, 1, &mut rng, "cross-nest");
    }
}
