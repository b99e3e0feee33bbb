//! The benchmark's own LRU cache model: the oracle that checks answers
//! without going through the analysis (or the simulator) under test, and
//! the fixed host-reference computation.

use cme_cache::CacheConfig;
use cme_ir::Program;

/// A set-associative LRU cache over memory lines. Each set is a small
/// most-recently-used-first array of line numbers.
pub struct Lru {
    line_bytes: i64,
    sets: i64,
    assoc: usize,
    ways: Vec<i64>,
    filled: Vec<usize>,
}

/// Totals of one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replay {
    pub accesses: u64,
    pub misses: u64,
}

impl Replay {
    pub fn miss_ratio(&self) -> f64 {
        self.misses as f64 / self.accesses.max(1) as f64
    }
}

impl Lru {
    pub fn new(config: &CacheConfig) -> Lru {
        let sets = config.num_sets() as usize;
        let assoc = config.assoc() as usize;
        Lru {
            line_bytes: config.line_bytes() as i64,
            sets: sets as i64,
            assoc,
            ways: vec![0; sets * assoc],
            filled: vec![0; sets],
        }
    }

    /// Touches `addr`; true on a hit.
    pub fn access(&mut self, addr: i64) -> bool {
        let line = addr.div_euclid(self.line_bytes);
        let set = line.rem_euclid(self.sets) as usize;
        let ways = &mut self.ways[set * self.assoc..(set + 1) * self.assoc];
        let filled = &mut self.filled[set];
        match ways[..*filled].iter().position(|&l| l == line) {
            Some(pos) => {
                ways[..=pos].rotate_right(1);
                true
            }
            None => {
                if *filled < self.assoc {
                    *filled += 1;
                }
                ways[..*filled].rotate_right(1);
                ways[0] = line;
                false
            }
        }
    }
}

/// Replays a program's address trace through a cold cache.
pub fn replay(program: &Program, config: &CacheConfig) -> Replay {
    let mut cache = Lru::new(config);
    let mut out = Replay {
        accesses: 0,
        misses: 0,
    };
    cme_ir::for_each_address(program, |addr| {
        out.accesses += 1;
        if !cache.access(addr) {
            out.misses += 1;
        }
    });
    out
}

/// The host-reference computation: a fixed pseudo-random trace of four
/// million accesses over a 256 KiB footprint through a 32K:4:32 cache.
/// Nothing in it depends on the code under test, so its time tracks only
/// the host. Returns the miss count, which never changes.
pub fn host_reference() -> u64 {
    let config = CacheConfig::new(32 * 1024, 32, 4).expect("fixed geometry is valid");
    let mut cache = Lru::new(&config);
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut misses = 0u64;
    for i in 0..4_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Half the accesses stream, half jump: both hit and miss paths run.
        let addr = if i % 2 == 0 {
            ((i * 8) % (256 * 1024)) as i64
        } else {
            (x % (256 * 1024)) as i64
        };
        if !cache.access(std::hint::black_box(addr)) {
            misses += 1;
        }
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_cache::Simulator;

    #[test]
    fn lru_matches_the_simulator_on_the_kernels() {
        let programs = [
            cme_workloads::hydro(12, 12),
            cme_workloads::mgrid(10),
            cme_workloads::mmt(16, 8, 4),
        ];
        for p in &programs {
            for g in ["1K:1:32", "2K:2:32", "4K:4:64"] {
                let cfg = CacheConfig::parse_geometry(g).unwrap();
                let sim = Simulator::new(cfg).run(p);
                let own = replay(p, &cfg);
                assert_eq!(own.accesses, sim.total_accesses(), "{} {g}", p.name());
                assert_eq!(own.misses, sim.total_misses(), "{} {g}", p.name());
            }
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cfg = CacheConfig::new(64, 32, 2).unwrap(); // one set, two ways
        let mut c = Lru::new(&cfg);
        assert!(!c.access(0));
        assert!(!c.access(32));
        assert!(c.access(0)); // 0 is now MRU, 32 LRU
        assert!(!c.access(64)); // evicts 32
        assert!(c.access(0));
        assert!(!c.access(32));
    }

    #[test]
    fn host_reference_is_fixed() {
        assert_eq!(host_reference(), host_reference());
    }
}
