//! High-throughput trace replay over any [`CacheConfig`] geometry, on the
//! workspace's one LRU core ([`cme_cache::Cache`]).
//!
//! The replay loop is two batched passes per chunk: a tight
//! address-to-(line, set) extraction pass using the config's
//! `line_shift`/`set_mask` fast paths (falling back to exact Euclidean
//! division for non-power-of-two geometries), then an LRU update pass that
//! hands each pair to [`Cache::access_line`]. Cold misses are told apart
//! from replacement misses with a touched-lines set consulted only on
//! misses — the one thing replay adds to the program simulator.

use crate::format::TraceReader;
use cme_cache::{Cache, CacheConfig};
use std::collections::HashSet;
use std::io::{self, Read};

/// Aggregate replay counts (the trace carries no reference identity, so
/// there is no per-reference split — totals are the cross-validation
/// currency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Addresses replayed.
    pub accesses: u64,
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Misses on never-before-touched memory lines.
    pub cold: u64,
    /// Misses on lines that had been resident and were evicted.
    pub replacement: u64,
}

impl TraceStats {
    /// Total misses of either kind.
    pub fn misses(&self) -> u64 {
        self.cold + self.replacement
    }

    /// Misses over accesses (0 for an empty trace).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// Extraction batch size: big enough to amortise the two-pass split, small
/// enough to stay in L1.
const BATCH: usize = 4096;

/// A streaming LRU cache simulator over raw addresses.
///
/// Feed it address slices in any chunking via [`TraceSim::replay`]; state
/// persists across calls, so a trace can stream through a fixed-size
/// buffer. [`TraceSim::stats`] reads the running totals at any point.
#[derive(Debug)]
pub struct TraceSim {
    cfg: CacheConfig,
    cache: Cache,
    /// Every memory line ever fetched (consulted only on misses).
    touched: HashSet<i64>,
    stats: TraceStats,
    /// Scratch for the batched (line, set) extraction pass.
    batch: Vec<(i64, u32)>,
}

impl TraceSim {
    /// A simulator with every way empty.
    pub fn new(cfg: CacheConfig) -> TraceSim {
        TraceSim {
            cfg,
            cache: Cache::new(cfg),
            touched: HashSet::new(),
            stats: TraceStats::default(),
            batch: Vec::with_capacity(BATCH),
        }
    }

    /// The geometry being simulated.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Running totals.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Replays a slice of addresses, updating the running totals.
    pub fn replay(&mut self, addrs: &[u32]) {
        let mut batch = std::mem::take(&mut self.batch);
        for chunk in addrs.chunks(BATCH) {
            // Pass 1: batched set-index extraction (shift/mask fast paths
            // inside `mem_line`/`set_of_line`; division fallback otherwise).
            batch.clear();
            batch.extend(chunk.iter().map(|&a| {
                let line = self.cfg.mem_line(a as i64);
                (line, self.cfg.set_of_line(line) as u32)
            }));
            // Pass 2: LRU updates, misses split by first touch.
            self.stats.accesses += batch.len() as u64;
            for &(line, set) in &batch {
                if !self.cache.access_line(line, set as usize) {
                    self.stats.hits += 1;
                } else if self.touched.insert(line) {
                    self.stats.cold += 1;
                } else {
                    self.stats.replacement += 1;
                }
            }
        }
        self.batch = batch;
    }
}

/// Replays a whole trace stream (either format variant) through a
/// fixed-size chunk buffer — constant memory in the trace length.
pub fn replay_reader<R: Read>(
    cfg: CacheConfig,
    reader: &mut TraceReader<R>,
) -> io::Result<TraceStats> {
    let mut sim = TraceSim::new(cfg);
    let mut buf: Vec<u32> = Vec::with_capacity(1 << 16);
    loop {
        buf.clear();
        if reader.read_chunk(&mut buf, 1 << 16)? == 0 {
            return Ok(sim.stats());
        }
        sim.replay(&buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::new(256, 32, 2).unwrap() // 4 sets, 2 ways
    }

    #[test]
    fn sequential_scan_counts_cold_misses() {
        let mut sim = TraceSim::new(cfg());
        let addrs: Vec<u32> = (0..256u32).collect(); // 8 lines, 32 touches each
        sim.replay(&addrs);
        let s = sim.stats();
        assert_eq!(s.accesses, 256);
        assert_eq!(s.cold, 8);
        assert_eq!(s.replacement, 0);
        assert_eq!(s.hits, 248);
    }

    #[test]
    fn thrashing_three_lines_in_two_ways() {
        // Lines 0, 4, 8 all map to set 0 of a 2-way cache: each round trip
        // evicts, so every access past the first three misses.
        let addrs: Vec<u32> = [0u32, 128, 256].repeat(10);
        let mut sim = TraceSim::new(cfg());
        sim.replay(&addrs);
        let s = sim.stats();
        assert_eq!(s.accesses, 30);
        assert_eq!(s.cold, 3);
        assert_eq!(s.replacement, 27);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn lru_not_fifo() {
        // A re-touch renews recency: 0,4,0,8,0 keeps line 0 resident.
        let addrs = [0u32, 128, 0, 256, 0];
        let mut sim = TraceSim::new(cfg());
        sim.replay(&addrs);
        let s = sim.stats();
        assert_eq!(s.misses(), 3, "three distinct lines fetched");
        assert_eq!(s.hits, 2, "line 0 survives both conflicts");
    }

    #[test]
    fn chunking_is_invisible() {
        let addrs: Vec<u32> = (0..5000u32).map(|i| (i * 89) % 4096).collect();
        let mut whole = TraceSim::new(cfg());
        whole.replay(&addrs);
        let mut pieces = TraceSim::new(cfg());
        for chunk in addrs.chunks(7) {
            pieces.replay(chunk);
        }
        assert_eq!(whole.stats(), pieces.stats());
    }
}
