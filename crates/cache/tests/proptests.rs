//! Randomised tests: the set-associative LRU cache — and trace replay,
//! which runs on the same core — against a naive reference model on
//! seeded random traces.
//!
//! (Formerly proptest-based; rewritten over the vendored seeded PRNG so the
//! suite runs with zero external dependencies.)

use cme_cache::{Cache, CacheConfig};
use cme_poly::rng::{Rng, SeededRng};
use cme_trace::{TraceSim, TraceStats};
use std::collections::HashSet;

/// A deliberately simple (and slow) LRU model: one global list of
/// (set, line) with per-set counting.
struct NaiveLru {
    cfg: CacheConfig,
    /// Per set: lines in MRU→LRU order.
    sets: Vec<Vec<i64>>,
}

impl NaiveLru {
    fn new(cfg: CacheConfig) -> Self {
        NaiveLru {
            sets: vec![Vec::new(); cfg.num_sets() as usize],
            cfg,
        }
    }

    fn access(&mut self, addr: i64) -> bool {
        let line = addr.div_euclid(self.cfg.line_bytes() as i64);
        let set = line.rem_euclid(self.cfg.num_sets() as i64) as usize;
        let lines = &mut self.sets[set];
        if let Some(pos) = lines.iter().position(|&l| l == line) {
            let l = lines.remove(pos);
            lines.insert(0, l);
            false
        } else {
            lines.insert(0, line);
            lines.truncate(self.cfg.assoc() as usize);
            true
        }
    }
}

/// A seeded geometry: power-of-two from `CacheConfig::new` on even
/// draws, a 3/6/12/24-set geometry from `CacheConfig::with_geometry` (the
/// division paths that `48K:2:32`-style sweeps and traces take) on odd
/// ones. `None` when the power-of-two draw does not fit a whole way.
fn random_geometry(rng: &mut SeededRng) -> Option<CacheConfig> {
    let line = 1u64 << rng.gen_range(4..=6);
    let assoc = [1u32, 2, 4, 8][rng.gen_below(4) as usize];
    if rng.gen_below(2) == 0 {
        let size = 1u64 << rng.gen_range(6..=11);
        if size < line * assoc as u64 {
            return None;
        }
        Some(CacheConfig::new(size, line, assoc).unwrap())
    } else {
        let sets = [3u64, 6, 12, 24][rng.gen_below(4) as usize];
        Some(CacheConfig::with_geometry(line, sets, assoc).unwrap())
    }
}

#[test]
fn lru_matches_reference_model() {
    let mut rng = SeededRng::seed_from_u64(0x1005);
    let mut odd_sets = 0;
    for case in 0..256 {
        let Some(cfg) = random_geometry(&mut rng) else {
            continue;
        };
        odd_sets += usize::from(!cfg.num_sets().is_power_of_two());
        let trace_len = rng.gen_range(1..=399) as usize;
        let trace: Vec<i64> = (0..trace_len).map(|_| rng.gen_range(0..=4095)).collect();
        let mut real = Cache::new(cfg);
        let mut naive = NaiveLru::new(cfg);
        for &addr in &trace {
            assert_eq!(
                real.access(addr),
                naive.access(addr),
                "case {case} cfg {cfg} addr {addr}"
            );
        }
    }
    assert!(odd_sets > 64, "only {odd_sets} non-power-of-two geometries");
}

/// Trace replay's cold/replacement split equals the naive model's misses
/// split by first touch of the line.
#[test]
fn trace_replay_split_matches_reference_model() {
    let mut rng = SeededRng::seed_from_u64(0x7ACE);
    for case in 0..128 {
        let Some(cfg) = random_geometry(&mut rng) else {
            continue;
        };
        let trace_len = rng.gen_range(1..=999) as usize;
        let trace: Vec<u32> = (0..trace_len)
            .map(|_| rng.gen_range(0..=8191) as u32)
            .collect();

        let mut naive = NaiveLru::new(cfg);
        let mut touched = HashSet::new();
        let mut want = TraceStats::default();
        for &addr in &trace {
            want.accesses += 1;
            let line = (addr as u64 / cfg.line_bytes()) as i64;
            if !naive.access(addr as i64) {
                want.hits += 1;
            } else if touched.insert(line) {
                want.cold += 1;
            } else {
                want.replacement += 1;
            }
        }

        let mut sim = TraceSim::new(cfg);
        for chunk in trace.chunks(97) {
            sim.replay(chunk);
        }
        assert_eq!(sim.stats(), want, "case {case} cfg {cfg}");
    }
}

#[test]
fn misses_monotone_in_cache_size() {
    // With fixed line size and full associativity growth by doubling
    // size, LRU miss counts must not increase (inclusion property holds
    // for same-#set doubling of ways).
    let mut rng = SeededRng::seed_from_u64(0x2007);
    for case in 0..128 {
        let trace_len = rng.gen_range(1..=299) as usize;
        let trace: Vec<i64> = (0..trace_len).map(|_| rng.gen_range(0..=2047)).collect();
        let mut last = u64::MAX;
        for ways in [1u32, 2, 4, 8] {
            let cfg = CacheConfig::new(1024 * ways as u64, 32, ways).unwrap();
            let mut cache = Cache::new(cfg);
            let misses = trace.iter().filter(|&&a| cache.access(a)).count() as u64;
            assert!(misses <= last, "case {case} ways {ways}: {misses} > {last}");
            last = misses;
        }
    }
}
