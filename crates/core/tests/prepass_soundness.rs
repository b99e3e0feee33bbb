//! Differential soundness for the definitely-hit/definitely-miss pre-pass.
//!
//! The pre-pass promises more than soundness: every verdict it emits must
//! equal what the classifier's exact interference walk would return for
//! that point — that is what keeps reports byte-identical with the
//! pre-pass on or off. These tests enforce the contract three ways on
//! fuzzed workloads:
//!
//! 1. **vs the exact walk** — for every point of every reference,
//!    `RefVerdicts::lookup` either returns `None` (unresolved) or the
//!    classifier's own verdict. Any mismatch is a hard failure.
//! 2. **vs the LRU simulator** — a pre-pass `Hit` must be a simulator hit
//!    on *every* program (the model never under-counts misses). On
//!    guard-free uniformly-generated nests the reuse-vector set is
//!    complete, so there `Cold`/`Replacement` must be simulator misses
//!    too.
//! 3. **under cancellation** — an expired deadline aborts inside the
//!    pre-pass itself, before any verdict is published.
//!
//! On a fixed corpus — three sizes of each paper kernel on four geometries
//! (non-power-of-two included), a complete-vector stencil, a guarded
//! transposed nest and a row past the piece cap — reports are also
//! compared with the classifier run over every point without the row
//! engine ([`Classifier::classify_every_point`]), and the coverage is
//! pinned: resolved points and fully resolved references may grow, never
//! shrink.

use cme_analysis::{
    prepass, CancelToken, Classifier, Coverage as RefCoverage, EstimateMisses, FindMisses,
    PointClass, Report, SamplingOptions, Scratch, Verdict,
};
use cme_cache::{Cache, CacheConfig, Simulator};
use cme_ir::{LinExpr, LinRel, Program, ProgramBuilder, RelOp, SNode, SRef};
use cme_poly::rng::{Rng, SeededRng};
use cme_reuse::ReuseAnalysis;
use std::ops::ControlFlow;

/// A random guard-free two-deep nest with uniformly generated references
/// (same shape as `classifier_sim_fuzz`): complete reuse vectors, so the
/// model matches the simulator access-for-access.
fn arb_perfect_program(rng: &mut SeededRng) -> Program {
    let n = rng.gen_range(4..=9);
    let elem = [4u32, 8, 8][rng.gen_below(3) as usize];
    let mut b = ProgramBuilder::new("prepass-fuzz");
    b.array("X", &[16, 16], elem);
    b.array("Y", &[16, 16], elem);
    b.array("Z", &[16], elem);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));

    let flip_x = rng.gen_bool();
    let flip_y = rng.gen_bool();
    let mk = |name: &str, flip: bool, di: i64, dj: i64| {
        let (a, bo) = (i.offset(di + 2), j.offset(dj + 2));
        if flip {
            SRef::new(name, vec![bo, a])
        } else {
            SRef::new(name, vec![a, bo])
        }
    };

    let nreads = rng.gen_range(1..=3) as usize;
    let mut reads: Vec<SRef> = (0..nreads)
        .map(|_| {
            let (di, dj) = (rng.gen_range(-1..=1), rng.gen_range(-1..=1));
            mk("X", flip_x, di, dj)
        })
        .collect();
    if rng.gen_bool() {
        let v = if rng.gen_bool() { &i } else { &j };
        reads.push(SRef::new("Z", vec![v.offset(2)]));
    }
    b.push(SNode::loop_(
        "J",
        1,
        n,
        vec![SNode::loop_(
            "I",
            1,
            n,
            vec![SNode::assign(mk("Y", flip_y, 0, 0), reads)],
        )],
    ));
    b.build().expect("fuzz program normalises")
}

/// A random *guarded* two-deep nest: triangular and banded IF conditions
/// split rows and force the pre-pass through non-rectangular row
/// segmentation and guard-aware window evaluation.
fn arb_guarded_program(rng: &mut SeededRng) -> Program {
    let n = rng.gen_range(6..=12);
    let mut b = ProgramBuilder::new("prepass-guarded-fuzz");
    b.array("A", &[24, 24], 8);
    b.array("B", &[24, 24], 8);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));

    let guard = match rng.gen_below(3) {
        // Triangular: I <= J.
        0 => LinRel::new(i.clone(), RelOp::Le, j.clone()),
        // Band: I <= J + 2.
        1 => LinRel::new(i.clone(), RelOp::Le, j.offset(2)),
        // Skip one diagonal: I /= J.
        _ => LinRel::new(i.clone(), RelOp::Ne, j.clone()),
    };
    let (di, dj) = (rng.gen_range(-1..=1), rng.gen_range(-1..=1));
    b.push(SNode::loop_(
        "J",
        2,
        n,
        vec![SNode::loop_(
            "I",
            1,
            n,
            vec![
                SNode::assign(
                    SRef::new("A", vec![i.offset(2), j.offset(2)]),
                    vec![SRef::new("A", vec![i.offset(di + 2), j.offset(dj + 2)])],
                ),
                SNode::if_(
                    vec![guard],
                    vec![SNode::reads_only(vec![SRef::new(
                        "B",
                        vec![j.offset(2), i.offset(2)],
                    )])],
                ),
            ],
        )],
    ));
    b.build().expect("guarded fuzz program normalises")
}

fn arb_config(rng: &mut SeededRng) -> CacheConfig {
    if rng.gen_bool() {
        let size_log = rng.gen_range(8..=11) as u32;
        let assoc = [1u32, 2, 4][rng.gen_below(3) as usize];
        CacheConfig::new(1u64 << size_log, 32, assoc).unwrap()
    } else {
        // Non-power-of-two geometries: division/rem fallbacks everywhere.
        let (line, sets, assoc) = [(32u64, 12u64, 2u32), (24, 16, 1), (16, 12, 2), (24, 12, 4)]
            [rng.gen_below(4) as usize];
        CacheConfig::with_geometry(line, sets, assoc).unwrap()
    }
}

/// What the pre-pass covered on one program.
#[derive(Debug, Default)]
struct Coverage {
    resolved: u64,
    total: u64,
    /// References with no unknown point.
    full_refs: usize,
}

/// Asserts verdict-for-verdict equality with the classifier for every
/// point of every reference and, for fully resolved references, equality
/// of the totals with the classifier's tally.
fn assert_matches_classifier(program: &Program, cfg: CacheConfig, ctx: &str) -> Coverage {
    let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());
    let classifier = Classifier::new(program, &reuse, cfg);
    let cancel = CancelToken::never();
    let mut scratch = Scratch::new();
    let mut cov = Coverage::default();
    for r in 0..program.references().len() {
        let vd = prepass::analyze_reference(&classifier, r, &cancel).expect("never cancelled");
        cov.resolved += vd.resolved();
        cov.total += vd.total();
        let mut cursor = 0usize;
        let mut seen = 0u64;
        let mut counted = (0u64, 0u64, 0u64);
        program.ris(r).for_each_point(|p| {
            seen += 1;
            let Some(v) = vd.lookup(p, &mut cursor) else {
                return;
            };
            let exact = classifier.classify_with_scratch(r, p, &mut scratch);
            let want = match exact {
                PointClass::Hit { .. } => Verdict::Hit,
                PointClass::Cold => Verdict::Cold,
                PointClass::ReplacementMiss { .. } => Verdict::Replacement,
            };
            assert_eq!(
                v, want,
                "{ctx}: ref {r} point {p:?}: pre-pass {v:?} vs walk {exact:?}"
            );
            match v {
                Verdict::Cold => counted.0 += 1,
                Verdict::Replacement => counted.1 += 1,
                Verdict::Hit => counted.2 += 1,
            }
        });
        assert_eq!(seen, vd.total(), "{ctx}: ref {r} RIS volume mismatch");
        if let Some(t) = vd.totals() {
            cov.full_refs += 1;
            assert_eq!(
                (t.cold, t.replacement, t.hits),
                counted,
                "{ctx}: ref {r} totals"
            );
        }
    }
    cov
}

/// Replays the program's access trace through the LRU cache and checks
/// each resolved point's verdict against the simulated outcome. `strict`
/// demands misses match too (complete reuse vectors only); otherwise only
/// the universally-sound direction (`Hit` ⇒ simulator hit) is enforced.
fn assert_matches_simulator(program: &Program, cfg: CacheConfig, strict: bool, ctx: &str) {
    let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());
    let classifier = Classifier::new(program, &reuse, cfg);
    let cancel = CancelToken::never();
    let verdicts: Vec<_> = (0..program.references().len())
        .map(|r| prepass::analyze_reference(&classifier, r, &cancel).expect("never cancelled"))
        .collect();
    let mut cache = Cache::new(cfg);
    let mut cursors = vec![0usize; verdicts.len()];
    cme_ir::walk::for_each_access(program, |a| {
        let miss = cache.access(a.addr);
        if let Some(v) = verdicts[a.r].lookup(a.point, &mut cursors[a.r]) {
            match v {
                Verdict::Hit => assert!(
                    !miss,
                    "{ctx}: ref {} point {:?}: pre-pass Hit but the simulator missed",
                    a.r, a.point
                ),
                Verdict::Cold | Verdict::Replacement => {
                    if strict {
                        assert!(
                            miss,
                            "{ctx}: ref {} point {:?}: pre-pass {v:?} but the simulator hit",
                            a.r, a.point
                        );
                    }
                }
            }
        }
        ControlFlow::Continue(())
    });
}

#[test]
fn matches_classifier_on_perfect_nests() {
    let mut rng = SeededRng::seed_from_u64(0xD1FF_0001);
    let (mut resolved, mut total) = (0u64, 0u64);
    for case in 0..48 {
        let program = arb_perfect_program(&mut rng);
        let cfg = arb_config(&mut rng);
        let cov = assert_matches_classifier(&program, cfg, &format!("case {case} cfg {cfg}"));
        resolved += cov.resolved;
        total += cov.total;
    }
    // The fuzz pool as a whole must not silently degrade to Unknown.
    assert!(
        resolved * 2 > total,
        "pre-pass resolved only {resolved}/{total} fuzz points"
    );
}

#[test]
fn matches_classifier_on_guarded_nests() {
    let mut rng = SeededRng::seed_from_u64(0xD1FF_0002);
    let mut resolved = 0u64;
    for case in 0..32 {
        let program = arb_guarded_program(&mut rng);
        let cfg = arb_config(&mut rng);
        resolved +=
            assert_matches_classifier(&program, cfg, &format!("case {case} cfg {cfg}")).resolved;
    }
    assert!(resolved > 0, "guarded nests never resolved anything");
}

#[test]
fn verdicts_match_simulator_on_complete_vector_programs() {
    let mut rng = SeededRng::seed_from_u64(0xD1FF_0003);
    for case in 0..32 {
        let program = arb_perfect_program(&mut rng);
        let cfg = arb_config(&mut rng);
        // Guard-free uniformly-generated nests: complete vectors, so every
        // resolved verdict (hit or miss) must equal the simulator's.
        assert_matches_simulator(&program, cfg, true, &format!("case {case} cfg {cfg}"));
    }
}

#[test]
fn hits_are_simulator_hits_on_guarded_programs() {
    let mut rng = SeededRng::seed_from_u64(0xD1FF_0004);
    for case in 0..24 {
        let program = arb_guarded_program(&mut rng);
        let cfg = arb_config(&mut rng);
        // Guards can hide facet reuse (§3.5), so the model may miss where
        // the simulator hits — but a pre-pass Hit must never be a miss.
        assert_matches_simulator(&program, cfg, false, &format!("case {case} cfg {cfg}"));
    }
}

/// A FORTRAN kernel whose inner statement lives in a CALLed subroutine:
/// the pre-pass must stay exact across the inliner's renamed loop
/// variables and merged statement lists.
#[test]
fn matches_classifier_on_inlined_call_program() {
    let src = "
      PROGRAM DRIVE
      REAL*8 U(40,40), V(40,40)
      DO J = 1, 39
        CALL BODY(U(1,J), V(1,J))
      ENDDO
      END
      SUBROUTINE BODY(UC, VC)
      REAL*8 UC(80), VC(40)
      DO I = 1, 39
        VC(I) = UC(I) + UC(I+1) + UC(I+40)
      ENDDO
      END
";
    let params = std::collections::HashMap::new();
    let source = cme_fortran::parse_program(src, &params).expect("parses");
    let inlined = cme_inline::Inliner::new().inline(&source).expect("inlines");
    let program = cme_ir::normalize(&inlined, &Default::default()).expect("normalises");
    assert!(
        !program.references().is_empty(),
        "inlined program has references"
    );
    for cfg in [
        CacheConfig::new(4096, 32, 2).unwrap(),
        CacheConfig::with_geometry(24, 12, 2).unwrap(),
    ] {
        let cov = assert_matches_classifier(&program, cfg, &format!("cfg {cfg}"));
        assert!(
            cov.resolved > 0,
            "cfg {cfg}: nothing resolved ({} points)",
            cov.total
        );
    }
}

/// The blocked-matmul workload the CI floor watches: at least 90% of the
/// points must resolve, mirroring `bench_prepass`'s assertion at test
/// scale.
#[test]
fn mmt_resolution_rate_floor() {
    let program = cme_workloads::mmt(16, 16, 8);
    let cfg = CacheConfig::new(32 * 1024, 32, 2).unwrap();
    let cov = assert_matches_classifier(&program, cfg, "mmt(16,16,8)");
    assert!(
        cov.resolved * 10 >= cov.total * 9,
        "mmt resolution regressed: {}/{}",
        cov.resolved,
        cov.total
    );
}

/// An already-expired deadline aborts inside the pre-pass itself — the
/// verdict analysis is cancellable, not just the walk that follows it.
#[test]
fn expired_deadline_aborts_inside_prepass() {
    // A single reference with a 16384-point RIS: well past the pre-pass's
    // cancellation grain, so the deadline check must fire mid-analysis.
    let mut b = ProgramBuilder::new("big");
    b.array("A", &[128, 128], 8);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
    b.push(SNode::loop_(
        "J",
        1,
        128,
        vec![SNode::loop_(
            "I",
            1,
            128,
            vec![SNode::reads_only(vec![SRef::new("A", vec![i, j])])],
        )],
    ));
    let big = b.build().unwrap();
    let cfg = CacheConfig::new(4096, 32, 2).unwrap();
    let reuse = ReuseAnalysis::analyze(&big, cfg.line_bytes());
    let classifier = Classifier::new(&big, &reuse, cfg);

    let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
    assert!(
        prepass::analyze_reference(&classifier, 0, &expired).is_err(),
        "expired deadline must abort analyze_reference"
    );

    let program = cme_workloads::mmt(24, 24, 12);
    let cfg = CacheConfig::new(4096, 32, 2).unwrap();

    // End-to-end: a 1ms deadline on a multi-hundred-ms workload errors
    // out through FindMisses with the pre-pass enabled.
    let started = std::time::Instant::now();
    let result = FindMisses::new(&program, cfg).run_cancellable(&CancelToken::with_timeout(
        std::time::Duration::from_millis(1),
    ));
    assert!(result.is_err(), "1ms deadline must cancel the analysis");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "cancellation took {:?}",
        started.elapsed()
    );
}

/// Three concrete instantiations per paper kernel — different shapes, not
/// just scalings.
fn kernel_sizes() -> Vec<(String, Program)> {
    let mut v: Vec<(String, Program)> = Vec::new();
    for n in [16i64, 24, 33] {
        v.push((format!("hydro-{n}"), cme_workloads::hydro(n, n)));
    }
    for n in [8i64, 12, 17] {
        v.push((format!("mgrid-{n}"), cme_workloads::mgrid(n)));
    }
    for (n, bj, bk) in [(8i64, 8i64, 4i64), (16, 8, 4), (18, 9, 6)] {
        v.push((format!("mmt-{n}x{bj}x{bk}"), cme_workloads::mmt(n, bj, bk)));
    }
    v
}

/// Non-power-of-two line sizes and set counts included: closure must not
/// lean on power-of-two set mapping.
fn geometries() -> Vec<CacheConfig> {
    vec![
        CacheConfig::new(4096, 32, 2).unwrap(),
        CacheConfig::new(1024, 32, 1).unwrap(),
        CacheConfig::with_geometry(24, 12, 2).unwrap(),
        CacheConfig::with_geometry(32, 21, 1).unwrap(),
    ]
}

/// Coverage floors per `kernel_sizes() × geometries()` case, in order:
/// `(resolved points, fully resolved references)`. Every floor is full
/// coverage: since cross-row windows are counted, the pre-pass decides
/// every point of every reference of the paper kernels.
const KERNEL_FLOORS: [[(u64, usize); 4]; 9] = [
    [(11700, 52); 4],
    [(27508, 52); 4],
    [(53248, 52); 4],
    [(3672, 17); 4],
    [(17000, 17); 4],
    [(57375, 17); 4],
    [(1728, 6); 4],
    [(13312, 6); 4],
    [(18792, 6); 4],
];

fn assert_floor(cov: &Coverage, (resolved, full_refs): (u64, usize), ctx: &str) {
    assert!(
        cov.resolved >= resolved,
        "{ctx}: resolved {} < floor {resolved}",
        cov.resolved
    );
    assert!(
        cov.full_refs >= full_refs,
        "{ctx}: {} fully resolved references < floor {full_refs}",
        cov.full_refs
    );
}

/// Every resolved verdict on the kernel corpus equals the classifier's,
/// and coverage holds its floors.
#[test]
fn kernel_corpus_coverage_holds_its_floors() {
    for ((name, program), floors) in kernel_sizes().iter().zip(KERNEL_FLOORS) {
        for (cfg, floor) in geometries().into_iter().zip(floors) {
            let ctx = format!("{name} on {cfg}");
            assert_floor(&assert_matches_classifier(program, cfg, &ctx), floor, &ctx);
        }
    }
}

/// The classifier alone over every point of `program`: the reference
/// every report must equal.
fn every_point(program: &Program, cfg: CacheConfig) -> Report {
    let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());
    let report = Classifier::new(program, &reuse, cfg).classify_every_point();
    assert_eq!(
        report.prepass_resolved(),
        0,
        "the reference skips the row engine"
    );
    report
}

/// Exact analysis: report contents identical to the every-point reference
/// on every kernel × geometry pair.
#[test]
fn findmisses_matches_every_point_reference_on_kernel_corpus() {
    for (name, program) in &kernel_sizes() {
        for cfg in geometries() {
            let found = FindMisses::new(program, cfg).run();
            let reference = every_point(program, cfg);
            assert_eq!(
                found.references(),
                reference.references(),
                "{name} on {cfg}"
            );
            assert_eq!(
                found.miss_ratio(),
                reference.miss_ratio(),
                "{name} on {cfg}"
            );
        }
    }
}

/// Sampled analysis: every exhaustively planned reference goes through the
/// row engine and tallies exactly what the every-point reference does.
#[test]
fn estimatemisses_exhaustive_references_match_every_point_reference() {
    let cfg = CacheConfig::new(4096, 32, 2).unwrap();
    let mut exhaustive = 0;
    for (name, program) in &kernel_sizes() {
        let est = EstimateMisses::new(program, cfg, SamplingOptions::paper_default()).run();
        let reference = every_point(program, cfg);
        for (got, want) in est.references().iter().zip(reference.references()) {
            if got.coverage == RefCoverage::Exhaustive {
                assert_eq!(got, want, "{name}: reference {}", got.r);
                exhaustive += 1;
            }
        }
    }
    assert!(exhaustive > 0, "no reference was planned exhaustively");
}

/// On guard-free perfect nests the reuse-vector set is complete, so the
/// report — most of it counted without a walk — matches the LRU simulator
/// exactly.
#[test]
fn fully_resolved_references_match_simulator_on_complete_vector_programs() {
    let n = 20i64;
    let mut b = ProgramBuilder::new("stencil");
    b.array("U", &[n, n], 8);
    b.array("V", &[n, n], 8);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
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
                ],
            )],
        )],
    ));
    let program = b.build().unwrap();
    for (size, assoc) in [(1024u64, 1u32), (2048, 2), (4096, 4)] {
        let cfg = CacheConfig::new(size, 32, assoc).unwrap();
        let ctx = format!("stencil on {cfg}");
        assert_floor(
            &assert_matches_classifier(&program, cfg, &ctx),
            (1211, 3),
            &ctx,
        );
        let report = FindMisses::new(&program, cfg).run();
        let sim = Simulator::new(cfg).run(&program);
        assert_eq!(report.exact_misses(), Some(sim.total_misses()), "{ctx}");
    }
}

/// The transposed `B(J,I)` read gives the leaf mixed strides, so its
/// windows are decided point by point — within a row by the window
/// evaluation, across rows by counting — and every reference resolves;
/// the report equals the every-point reference.
#[test]
fn guarded_transposed_nest_resolves_in_full() {
    let n = 40i64;
    let mut b = ProgramBuilder::new("guarded-transpose");
    b.array("A", &[48, 48], 8);
    b.array("B", &[48, 48], 8);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
    b.push(SNode::loop_(
        "J",
        2,
        n,
        vec![SNode::loop_(
            "I",
            1,
            n,
            vec![
                SNode::assign(
                    SRef::new("A", vec![i.clone(), j.clone()]),
                    vec![SRef::new("A", vec![i.clone(), j.offset(-1)])],
                ),
                SNode::if_(
                    vec![LinRel::new(i.clone(), RelOp::Le, j.clone())],
                    vec![SNode::reads_only(vec![SRef::new(
                        "B",
                        vec![j.clone(), i.clone()],
                    )])],
                ),
            ],
        )],
    ));
    let program = b.build().unwrap();
    let cfg = CacheConfig::new(4096, 32, 2).unwrap();
    let cov = assert_matches_classifier(&program, cfg, "guarded-transpose");
    assert_eq!(cov.resolved, cov.total, "guarded-transpose");
    assert_eq!(
        cov.full_refs,
        program.references().len(),
        "guarded-transpose"
    );
    let found = FindMisses::new(&program, cfg).run();
    assert_eq!(found.references(), every_point(&program, cfg).references());
}

/// A row whose verdicts change more often than a row may store pieces
/// (`MAX_ROW_PIECES`, 48) keeps its remainder for the walk: `X(I)` reuses
/// the line its guarded producer touched in the same iteration, so with
/// one element per line every hole of the producer's guard — at each of
/// the 46 primes below 200 — is a cold miss between hits. The consumer is
/// resolved only in part, the producer in full, and the mixed report
/// equals the every-point reference.
#[test]
fn piece_capped_row_mixes_resolved_and_walked_references() {
    let n = 200i64;
    let primes: Vec<i64> = (2..n)
        .filter(|&p| (2..p).take_while(|d| d * d <= p).all(|d| p % d != 0))
        .collect();
    assert_eq!(primes.len(), 46);
    let mut b = ProgramBuilder::new("piece-cap");
    b.array("X", &[n], 32);
    let i = LinExpr::var("I");
    b.push(SNode::loop_(
        "I",
        1,
        n,
        vec![
            SNode::if_(
                primes
                    .iter()
                    .map(|&p| LinRel::new(i.clone(), RelOp::Ne, LinExpr::constant(p)))
                    .collect(),
                vec![SNode::reads_only(vec![SRef::new("X", vec![i.clone()])])],
            ),
            SNode::reads_only(vec![SRef::new("X", vec![i.clone()])]),
        ],
    ));
    let program = b.build().unwrap();
    let cfg = CacheConfig::new(1024, 32, 1).unwrap();
    let cov = assert_matches_classifier(&program, cfg, "piece-cap");
    assert_eq!(
        cov.full_refs, 1,
        "piece-cap: only the producer resolves in full"
    );
    assert!(
        cov.resolved > cov.total / 2 && cov.resolved < cov.total,
        "piece-cap: resolved {} of {}",
        cov.resolved,
        cov.total
    );
    let found = FindMisses::new(&program, cfg).run();
    assert_eq!(found.references(), every_point(&program, cfg).references());
    assert_eq!(found.prepass_resolved(), cov.resolved);
}

/// MGRID(52) at 32K:2:32: the whole-row compressor resolved only half of
/// references 0 and 7 (62,500 of 125,000 points each); pieces keep both
/// whole.
#[test]
fn mgrid52_references_0_and_7_resolve_in_full() {
    let program = cme_workloads::mgrid(52);
    let cfg = CacheConfig::parse_geometry("32K:2:32").unwrap();
    let reuse = ReuseAnalysis::analyze(&program, cfg.line_bytes());
    let classifier = Classifier::new(&program, &reuse, cfg);
    let pre = prepass::Prepass::build(&classifier, &CancelToken::never()).unwrap();
    let full = (0..program.references().len())
        .filter(|&r| pre.reference(r).totals().is_some())
        .count();
    assert_floor(
        &Coverage {
            resolved: pre.resolved_points(),
            total: pre.total_points(),
            full_refs: full,
        },
        (1_645_700, 7),
        "mgrid-52",
    );
    let mut scratch = Scratch::new();
    for r in [0, 7] {
        let totals = pre
            .reference(r)
            .totals()
            .unwrap_or_else(|| panic!("reference {r} must resolve in full"));
        let mut tally = cme_analysis::parallel::Tally::default();
        program
            .ris(r)
            .for_each_point(|p| tally.bump(classifier.classify_with_scratch(r, p, &mut scratch)));
        assert_eq!(totals, tally, "reference {r}");
    }
}
