//! Differential harness: generated-trace replay vs the reference simulator
//! vs the analytical classifier, on the paper's workload suite at reduced
//! scale (the bench harness repeats this at paper scale).
//!
//! The contract has two tiers:
//!
//! * replay ≡ simulator, exactly, on every workload and geometry — the
//!   trace pipeline (generate → serialise → stream → replay) is a
//!   bit-faithful reimplementation of the in-memory walk;
//! * FindMisses ≡ replay on Hydro and MGRID (the reuse-vector model is
//!   exact there), and FindMisses ≥ replay on MMT (documented slight
//!   overestimate: cross-nest group reuse is not expressible as constant
//!   reuse vectors).

use cme_cache::{CacheConfig, Simulator};
use cme_ir::Program;
use cme_trace::{frame_bytes, generate, replay_reader, TraceReader, TraceSim};

fn workloads() -> Vec<(&'static str, Program)> {
    vec![
        ("mmt", cme_workloads::mmt(16, 8, 4)),
        ("hydro", cme_workloads::hydro(24, 24)),
        ("mgrid", cme_workloads::mgrid(10)),
    ]
}

fn geometries() -> Vec<CacheConfig> {
    vec![
        // Power-of-two: shift/mask fast paths.
        CacheConfig::new(4096, 32, 2).unwrap(),
        // Non-power-of-two set count (96 sets): Euclidean fallback.
        CacheConfig::with_geometry(32, 96, 2).unwrap(),
    ]
}

#[test]
fn replay_matches_reference_simulator_everywhere() {
    for (name, program) in workloads() {
        let words = generate(&program).unwrap();
        assert_eq!(words.len() as u64, program.total_accesses(), "{name}");
        for cfg in geometries() {
            let sim = Simulator::new(cfg).run(&program);
            let mut replay = TraceSim::new(cfg);
            replay.replay(&words);
            let stats = replay.stats();
            assert_eq!(stats.accesses, sim.total_accesses(), "{name} {cfg}");
            assert_eq!(stats.misses(), sim.total_misses(), "{name} {cfg}");
        }
    }
}

#[test]
fn analytical_misses_cross_validate_against_replay() {
    for (name, program) in workloads() {
        let words = generate(&program).unwrap();
        for cfg in geometries() {
            let find = cme_analysis::FindMisses::new(&program, cfg).run();
            let pred = find.exact_misses().expect("exact mode");
            let mut replay = TraceSim::new(cfg);
            replay.replay(&words);
            let measured = replay.stats().misses();
            if name == "mmt" {
                // Paper-faithful overestimate, never an underestimate.
                assert!(pred >= measured, "{name} {cfg}: {pred} < {measured}");
                let err = (pred - measured) as f64 / replay.stats().accesses as f64;
                assert!(err < 0.02, "{name} {cfg}: drift {err}");
            } else {
                assert_eq!(pred, measured, "{name} {cfg}");
            }
        }
    }
}

#[test]
fn streamed_framed_replay_equals_in_memory_replay() {
    let program = cme_workloads::hydro(24, 24);
    let words = generate(&program).unwrap();
    for cfg in geometries() {
        let bytes = frame_bytes(&cfg, &words);
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let header = reader.header().expect("framed");
        assert_eq!(header.geometry().unwrap(), cfg);
        let streamed = replay_reader(cfg, &mut reader).unwrap();
        let mut direct = TraceSim::new(cfg);
        direct.replay(&words);
        assert_eq!(streamed, direct.stats(), "{cfg}");
    }
}
