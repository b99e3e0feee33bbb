//! The parallel engine's central guarantee, tested end-to-end: for any
//! thread count, `FindMisses` and `EstimateMisses` produce reports with
//! identical contents — same per-reference tallies, same coverage, same
//! miss counts and ratios. (Whole-`Report` equality is not used because a
//! `Report` also records wall-clock time.)

use cme_analysis::{
    EstimateMisses, FindMisses, PrepassMode, SamplingOptions, Threads, WalkStrategy,
};
use cme_cache::CacheConfig;
use cme_ir::{LinExpr, LinRel, Program, ProgramBuilder, RelOp, SNode, SRef};

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

/// The walk strategy, the thread count and the hit/miss pre-pass are
/// independent determinism axes: every (prepass, strategy, threads)
/// combination — including the default counting evaluator with the
/// pre-pass on at 1, 2 and 8 workers — yields a report identical to the
/// legacy full scan run serially with the pre-pass off.
#[test]
fn strategy_and_threads_identical_reports() {
    let cfg = CacheConfig::new(4096, 32, 2).unwrap();
    for (name, program) in &workloads() {
        let baseline = FindMisses::new(program, cfg)
            .strategy(WalkStrategy::LegacyScan)
            .threads(Threads::Fixed(1))
            .prepass(PrepassMode::Off)
            .run();
        for prepass in [PrepassMode::On, PrepassMode::Off] {
            for walk in [WalkStrategy::SetSkip, WalkStrategy::LegacyScan] {
                for threads in [1usize, 2, 8] {
                    let report = FindMisses::new(program, cfg)
                        .strategy(walk)
                        .threads(Threads::Fixed(threads))
                        .prepass(prepass)
                        .run();
                    assert_eq!(
                        baseline.references(),
                        report.references(),
                        "{name}: {prepass:?}/{walk:?} diverged at {threads} threads"
                    );
                    assert_eq!(
                        baseline.exact_misses(),
                        report.exact_misses(),
                        "{name}: {prepass:?}/{walk:?}/{threads}"
                    );
                }
            }
        }
    }
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
