//! The k-way set-associative LRU cache state machine: one flat
//! `num_sets × assoc` tag array, most recent line first within each set.
//!
//! Associativities are small, so a linear scan of one set's ways beats
//! fancier structures: a hit is usually decided by the first comparison
//! and a miss shifts at most `assoc` words. Both consumers drive this one
//! core — [`crate::Simulator`] walks a program's accesses through
//! [`Cache::access`], and trace replay (`cme_trace::TraceSim`) feeds
//! pre-split `(line, set)` pairs to [`Cache::access_line`].

use crate::config::CacheConfig;

/// An unfilled way. Lines of non-negative addresses are non-negative; the
/// one line this sentinel shadows is that of address `i64::MIN` under
/// 1-byte lines.
const EMPTY: i64 = i64::MIN;

/// A functional LRU cache: feed it memory accesses, it reports hits and
/// misses.
///
/// # Examples
///
/// ```
/// use cme_cache::{Cache, CacheConfig};
/// let cfg = CacheConfig::new(64, 32, 1)?; // two sets, direct-mapped
/// let mut cache = Cache::new(cfg);
/// assert!(cache.access(0));    // cold miss
/// assert!(!cache.access(8));   // same line: hit
/// assert!(cache.access(64));   // maps to set 0, evicts line 0
/// assert!(cache.access(0));    // line 0 was evicted: miss
/// # Ok::<(), cme_cache::CacheConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    assoc: usize,
    /// `sets × assoc` resident memory lines, MRU first within each set.
    lines: Vec<i64>,
}

impl Cache {
    /// An empty (all-cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        let assoc = config.assoc() as usize;
        Cache {
            config,
            assoc,
            lines: vec![EMPTY; config.num_sets() as usize * assoc],
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Performs one access at a byte address; returns `true` on a miss.
    /// Reads and writes are identical under fetch-on-write.
    #[inline]
    pub fn access(&mut self, addr: i64) -> bool {
        let line = self.config.mem_line(addr);
        let set = self.config.set_of_line(line) as usize;
        self.access_line(line, set)
    }

    /// Touches memory line `line` in set `set`; returns `true` on a miss.
    /// The caller has already split the address (`set` must be the line's
    /// set).
    #[inline]
    pub fn access_line(&mut self, line: i64, set: usize) -> bool {
        let ways = &mut self.lines[set * self.assoc..(set + 1) * self.assoc];
        match ways.iter().position(|&w| w == line) {
            Some(0) => false,
            Some(at) => {
                // Hit below the MRU way: rotate the prefix to re-rank.
                ways[..=at].rotate_right(1);
                false
            }
            None => {
                // Miss: insert at MRU, dropping the LRU way.
                ways.rotate_right(1);
                ways[0] = line;
                true
            }
        }
    }

    /// Empties the cache (all lines invalid).
    pub fn clear(&mut self) {
        self.lines.fill(EMPTY);
    }

    /// Whether the line containing `addr` is currently resident.
    pub fn is_resident(&self, addr: i64) -> bool {
        let line = self.config.mem_line(addr);
        let set = self.config.set_of_line(line) as usize;
        self.lines[set * self.assoc..(set + 1) * self.assoc].contains(&line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: u64, line: u64, assoc: u32) -> CacheConfig {
        CacheConfig::new(size, line, assoc).unwrap()
    }

    #[test]
    fn lru_eviction_order_two_way() {
        // One set: 2 ways × 32B lines = 64B cache, 1 set.
        let mut c = Cache::new(cfg(64, 32, 2));
        assert!(c.access(0)); // A
        assert!(c.access(32)); // B; LRU = A
        assert!(!c.access(0)); // A hit; LRU = B
        assert!(c.access(64)); // C evicts B
        assert!(!c.access(0)); // A still resident
        assert!(c.access(32)); // B was evicted
    }

    #[test]
    fn full_associativity_behaviour() {
        // 4 ways, one set.
        let mut c = Cache::new(cfg(128, 32, 4));
        for a in [0, 32, 64, 96] {
            assert!(c.access(a));
        }
        for a in [0, 32, 64, 96] {
            assert!(!c.access(a));
        }
        assert!(c.access(128)); // evicts LRU = line 0
        assert!(c.access(0));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = Cache::new(cfg(128, 32, 1)); // 4 sets
        assert!(c.access(0)); // set 0
        assert!(c.access(32)); // set 1
        assert!(!c.access(0));
        assert!(!c.access(32));
        assert!(c.access(128)); // set 0 conflict
        assert!(!c.access(32)); // set 1 untouched
    }

    #[test]
    fn residency_probe_and_clear() {
        let mut c = Cache::new(cfg(64, 32, 1));
        c.access(40);
        assert!(c.is_resident(33)); // same line as 40
        assert!(!c.is_resident(0));
        c.clear();
        assert!(!c.is_resident(40));
    }

    #[test]
    fn it_takes_k_distinct_contentions_to_evict() {
        // §4.1: in a k-way cache, k distinct set contentions evict a line.
        for k in [1u32, 2, 4, 8] {
            let sets = 4u64;
            let line = 32u64;
            let mut c = Cache::new(cfg(line * sets * k as u64, line, k));
            let victim = 0i64;
            c.access(victim);
            // k−1 distinct conflicting lines: victim survives.
            for j in 1..k as i64 {
                c.access(victim + (sets as i64) * (line as i64) * j);
            }
            assert!(c.is_resident(victim), "k={k}: evicted too early");
            // One more distinct contention: evicted.
            c.access(victim + (sets as i64) * (line as i64) * k as i64);
            assert!(!c.is_resident(victim), "k={k}: not evicted after k");
        }
    }

    #[test]
    fn repeated_contentions_do_not_evict() {
        // The same interfering line touched many times counts once.
        let mut c = Cache::new(cfg(128, 32, 2)); // 2 sets, 2 ways
        c.access(0);
        for _ in 0..10 {
            c.access(64); // same conflicting line every time
        }
        assert!(c.is_resident(0));
    }
}
