//! Differential fuzz: on guard-free perfect nests whose references are
//! uniformly generated per array (one orientation, small stencil offsets)
//! the reuse-vector set is complete, so `FindMisses` must agree with the
//! `cme-cache` LRU simulator *exactly* — cold and replacement totals both.
//! Geometries include non-power-of-two line sizes and set counts, which
//! force the division fallback paths and the dense congruence tier.

use cme_analysis::{Classifier, FindMisses};
use cme_cache::{CacheConfig, Simulator};
use cme_ir::{LinExpr, Program, ProgramBuilder, SNode, SRef};
use cme_poly::rng::{Rng, SeededRng};

/// A random guard-free two-deep nest. Each array gets one fixed subscript
/// orientation; every reference to it is that orientation plus a small
/// stencil offset, so all same-array references are uniformly generated.
fn arb_perfect_program(rng: &mut SeededRng) -> Program {
    let n = rng.gen_range(4..=9);
    let elem = [4u32, 8, 8][rng.gen_below(3) as usize];
    let mut b = ProgramBuilder::new("simfuzz");
    b.array("X", &[16, 16], elem);
    b.array("Y", &[16, 16], elem);
    b.array("Z", &[16], elem);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));

    // Per-array orientation: false = (I, J), true = (J, I).
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
        // A row reference keeps the Z references uniformly generated too.
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

#[test]
fn findmisses_matches_simulator_on_uniform_perfect_nests() {
    let mut rng = SeededRng::seed_from_u64(0xD1FF);
    for case in 0..64 {
        let program = arb_perfect_program(&mut rng);
        let cfg = arb_config(&mut rng);
        let report = FindMisses::new(&program, cfg).run();
        let sim = Simulator::new(cfg).run(&program);
        assert_eq!(
            report.total_accesses(),
            sim.total_accesses(),
            "case {case} cfg {cfg}: access counts"
        );
        assert_eq!(
            report.exact_misses(),
            Some(sim.total_misses()),
            "case {case} cfg {cfg}: miss totals"
        );
        let (cold, repl): (u64, u64) = report
            .references()
            .iter()
            .fold((0, 0), |(c, r), rr| (c + rr.cold, r + rr.replacement));
        assert_eq!(
            cold + repl,
            sim.total_misses(),
            "case {case} cfg {cfg}: cold+replacement split"
        );
    }
}

/// Three-way oracle: the analytical classifier, the in-memory simulator
/// and the trace pipeline (generate → raw wire roundtrip → streaming
/// `TraceSim`) must all agree on these complete-reuse-vector programs.
/// The trace leg additionally checks the cold/replacement *split*, which
/// the in-memory simulator does not report.
#[test]
fn trace_replay_agrees_with_classifier_and_simulator() {
    let mut rng = SeededRng::seed_from_u64(0xD1FF + 2);
    for case in 0..24 {
        let program = arb_perfect_program(&mut rng);
        let cfg = arb_config(&mut rng);

        let words = cme_trace::generate(&program).expect("fuzz addresses fit u32");
        // Roundtrip through the raw on-the-wire encoding so the byte
        // format sits inside the oracle loop too.
        let mut wire = Vec::new();
        cme_trace::write_raw(&mut wire, words.iter().copied()).unwrap();
        let mut reader = cme_trace::TraceReader::new(&wire[..]).unwrap();
        let stats = cme_trace::replay_reader(cfg, &mut reader).unwrap();

        let sim = Simulator::new(cfg).run(&program);
        assert_eq!(
            stats.accesses,
            sim.total_accesses(),
            "case {case} cfg {cfg}: trace access count"
        );
        assert_eq!(
            stats.misses(),
            sim.total_misses(),
            "case {case} cfg {cfg}: trace miss total vs simulator"
        );

        let report = FindMisses::new(&program, cfg).run();
        assert_eq!(
            report.exact_misses(),
            Some(stats.misses()),
            "case {case} cfg {cfg}: classifier vs trace replay"
        );
        let (cold, repl): (u64, u64) = report
            .references()
            .iter()
            .fold((0, 0), |(c, r), rr| (c + rr.cold, r + rr.replacement));
        assert_eq!(
            (cold, repl),
            (stats.cold, stats.replacement),
            "case {case} cfg {cfg}: cold/replacement split"
        );
    }
}

/// The classifier run over every point without the row engine sees the
/// same totals on the same seed stream, so a divergence pins the blame on
/// the row engine or on the counting evaluator.
#[test]
fn both_exhaustive_paths_match_simulator() {
    let mut rng = SeededRng::seed_from_u64(0xD1FF + 1);
    for case in 0..24 {
        let program = arb_perfect_program(&mut rng);
        let cfg = arb_config(&mut rng);
        let sim = Simulator::new(cfg).run(&program).total_misses();
        let found = FindMisses::new(&program, cfg);
        let every_point = Classifier::new(&program, found.reuse(), cfg).classify_every_point();
        for (path, report) in [("FindMisses", found.run()), ("every point", every_point)] {
            assert_eq!(
                report.exact_misses(),
                Some(sim),
                "case {case} cfg {cfg}: {path}"
            );
        }
    }
}
