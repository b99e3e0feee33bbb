//! The parallel engine's central guarantee, tested end-to-end: for any
//! thread count, `FindMisses` and `EstimateMisses` produce reports with
//! identical contents — same per-reference tallies, same coverage, same
//! miss counts and ratios — and `FindMisses` equals the classifier run
//! over every point without the row engine. (Whole-`Report` equality is
//! not used because a `Report` also records wall-clock time.)

use cme_analysis::parallel::CHUNK_POINTS;
use cme_analysis::{Classifier, EstimateMisses, FindMisses, SamplingOptions, Threads};
use cme_cache::CacheConfig;
use cme_ir::{LinExpr, LinRel, Program, ProgramBuilder, RelOp, SNode, SRef};
use cme_reuse::ReuseAnalysis;

/// Compared against a `Threads::Fixed(1)` baseline, which covers the
/// serial path itself.
const THREAD_COUNTS: [usize; 2] = [2, 8];

/// A 2-deep nest with an IF guard, so guarded (non-rectangular) RIS
/// shapes go through the chunked path too.
fn guarded_program() -> Program {
    let mut b = ProgramBuilder::new("guarded");
    b.array("A", &[48, 48], 8);
    b.array("B", &[48, 48], 8);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
    b.push(SNode::loop_(
        "J",
        2,
        40,
        vec![SNode::loop_(
            "I",
            1,
            40,
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
    b.build().unwrap()
}

/// Sizes chosen so the larger references exceed one `CHUNK_POINTS` chunk
/// (1024 points) — the chunked parallel path must actually engage, not
/// fall back to the serial small-space path.
fn workloads() -> Vec<(&'static str, Program)> {
    vec![
        ("hydro", cme_workloads::hydro(40, 40)),
        ("mgrid", cme_workloads::mgrid(12)),
        ("mmt", cme_workloads::mmt(16, 16, 8)),
        ("guarded", guarded_program()),
        ("piece-cap", piece_capped_program(3000)),
    ]
}

/// Exact analysis: identical reports for 1, 2 and 8 workers.
#[test]
fn findmisses_identical_across_thread_counts() {
    let cfg = CacheConfig::new(4096, 32, 2).unwrap();
    for (name, program) in &workloads() {
        let baseline = FindMisses::new(program, cfg)
            .threads(Threads::Fixed(1))
            .run();
        assert!(baseline.total_accesses() > 0, "{name}: empty program");
        for threads in THREAD_COUNTS {
            let report = FindMisses::new(program, cfg)
                .threads(Threads::Fixed(threads))
                .run();
            assert_eq!(
                baseline.references(),
                report.references(),
                "{name}: FindMisses diverged at {threads} threads"
            );
            assert_eq!(baseline.exact_misses(), report.exact_misses(), "{name}");
            assert_eq!(baseline.miss_ratio(), report.miss_ratio(), "{name}");
        }
    }
}

/// Sampled analysis: the per-chunk seed derivation makes the sampled point
/// set — and hence the whole report — independent of the thread count.
#[test]
fn estimatemisses_identical_across_thread_counts() {
    let cfg = CacheConfig::new(4096, 32, 2).unwrap();
    for (name, program) in &workloads() {
        let opts = |threads: usize| SamplingOptions {
            threads: Threads::Fixed(threads),
            ..SamplingOptions::paper_default()
        };
        let baseline = EstimateMisses::new(program, cfg, opts(1)).run();
        for threads in THREAD_COUNTS {
            let report = EstimateMisses::new(program, cfg, opts(threads)).run();
            assert_eq!(
                baseline.references(),
                report.references(),
                "{name}: EstimateMisses diverged at {threads} threads"
            );
            assert_eq!(baseline.miss_ratio(), report.miss_ratio(), "{name}");
        }
    }
}

/// The fallback sampling tier goes through the same chunked machinery.
#[test]
fn faithful_options_identical_across_thread_counts() {
    let cfg = CacheConfig::new(2048, 32, 1).unwrap();
    let program = cme_workloads::hydro(24, 24);
    let opts = |threads: usize| SamplingOptions {
        threads: Threads::Fixed(threads),
        ..SamplingOptions::paper_faithful()
    };
    let baseline = EstimateMisses::new(&program, cfg, opts(1)).run();
    for threads in THREAD_COUNTS {
        let report = EstimateMisses::new(&program, cfg, opts(threads)).run();
        assert_eq!(
            baseline.references(),
            report.references(),
            "{threads} threads"
        );
    }
}

/// `X(I)` reuses the line its guarded producer touched in the same
/// iteration; with one element per line every hole of the producer's
/// guard, at each prime below `n`, is a cold miss between hits, so the
/// consumer's row needs more pieces than the row engine stores and the
/// classifier decides the rest of it.
fn piece_capped_program(n: i64) -> Program {
    let mut b = ProgramBuilder::new("piece-cap");
    b.array("X", &[n], 32);
    let i = LinExpr::var("I");
    let holes = (2..n)
        .filter(|&p| (2..p).take_while(|d| d * d <= p).all(|d| p % d != 0))
        .map(|p| LinRel::new(i.clone(), RelOp::Ne, LinExpr::constant(p)))
        .collect();
    b.push(SNode::loop_(
        "I",
        1,
        n,
        vec![
            SNode::if_(
                holes,
                vec![SNode::reads_only(vec![SRef::new("X", vec![i.clone()])])],
            ),
            SNode::reads_only(vec![SRef::new("X", vec![i.clone()])]),
        ],
    ));
    b.build().unwrap()
}

/// At 1, 2 and 8 workers, every `FindMisses` report equals the classifier
/// run over every point without the row engine.
#[test]
fn threads_match_the_every_point_reference() {
    let cfg = CacheConfig::new(4096, 32, 2).unwrap();
    for (name, program) in &workloads() {
        let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());
        let reference = Classifier::new(program, &reuse, cfg).classify_every_point();
        assert_eq!(reference.prepass_resolved(), 0, "{name}");
        for threads in [1usize, 2, 8] {
            let report = FindMisses::new(program, cfg)
                .threads(Threads::Fixed(threads))
                .run();
            assert_eq!(
                reference.references(),
                report.references(),
                "{name}: diverged from the every-point reference at {threads} threads"
            );
            assert_eq!(reference.exact_misses(), report.exact_misses(), "{name}");
        }
    }
}

/// The row engine resolves every point of the paper kernels and the
/// guarded nest, so only the piece-capped row reaches the classifier's
/// chunked path: it leaves about half its points, all in one 3,000-point
/// reference, more than one `CHUNK_POINTS` chunk.
#[test]
fn piece_capped_row_reaches_the_chunked_classifier_path() {
    let program = piece_capped_program(3000);
    assert!((0..program.references().len()).all(|r| program.ris(r).count() > CHUNK_POINTS as u64));
    let report = FindMisses::new(&program, CacheConfig::new(4096, 32, 2).unwrap()).run();
    assert!(
        report.prepass_resolved() < report.total_accesses(),
        "piece-cap must leave points to the classifier"
    );
}

/// `Threads::Auto` (the default) also matches the serial report — the
/// default configuration is deterministic out of the box.
#[test]
fn auto_threads_matches_serial() {
    let cfg = CacheConfig::new(4096, 32, 2).unwrap();
    let program = cme_workloads::mmt(24, 24, 12);
    let serial = FindMisses::new(&program, cfg)
        .threads(Threads::Fixed(1))
        .run();
    let auto = FindMisses::new(&program, cfg).run();
    assert_eq!(serial.references(), auto.references());
}
