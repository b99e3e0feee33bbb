//! Address-trace subsystem: binary trace ingest, streaming LRU replay and
//! analytical cross-validation.
//!
//! This crate closes the loop between the analytical engine and ground
//! truth. It has three layers:
//!
//! * [`format`](mod@format) — the compact binary trace format: a plain sequence of
//!   big-endian 4-byte addresses (interoperable with external tracers),
//!   plus an optional framed variant (`CMET` magic) that carries the cache
//!   geometry the trace was generated for, the access count and a CRC-32.
//!   [`TraceReader`] streams either variant without materialising it.
//! * [`sim`] — [`TraceSim`], streaming replay over arbitrary
//!   [`cme_cache::CacheConfig`] geometries on the same LRU core the program
//!   simulator drives ([`cme_cache::Cache`]), adding the cold/replacement
//!   split; [`replay_reader`] streams a whole trace through it in one pass.
//! * [`gen`] — [`generate`], which emits the exact program-order access
//!   stream of a normalised `cme_ir::Program`, so analytical miss counts
//!   can be cross-validated against trace replay.
//!
//! The load-bearing identity: for any program and geometry,
//! `replay(generate(p))` equals the in-memory reference simulator's totals
//! access-for-access, and equals the miss-equation classifier's exact
//! totals wherever the reuse-vector model is exact (Hydro and MGRID in the
//! paper suite; MMT is a documented slight overestimate, §4 of the paper).

pub mod format;
pub mod gen;
pub mod sim;

pub use format::{frame_bytes, write_framed, write_raw, Crc32, FrameHeader, TraceReader};
pub use gen::{generate, write_framed_trace, TraceGenError};
pub use sim::{replay_reader, TraceSim, TraceStats};

use cme_cache::CacheConfig;
use cme_ir::{Fingerprint, FpHasher};

/// Content fingerprint of a replay job: FNV-1a/128 over the trace bytes and
/// the geometry they are replayed against. Two requests with the same trace
/// content and geometry — whether the trace arrived as a file or was
/// generated from source — share a fingerprint, so the serve store can
/// answer repeats without replaying.
///
/// Feed it the *on-the-wire* bytes (framed or raw, exactly as stored);
/// framing is part of the content.
pub fn trace_fingerprint(trace_bytes: &[u8], cfg: &CacheConfig) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_str("cme-trace-v1");
    h.write_u64(cfg.line_bytes());
    h.write_u64(cfg.num_sets());
    h.write_u64(u64::from(cfg.assoc()));
    h.write_u64(trace_bytes.len() as u64);
    h.write_bytes(trace_bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_geometry_and_content() {
        let a = CacheConfig::new(32 * 1024, 32, 2).unwrap();
        let b = CacheConfig::with_geometry(32, 768, 2).unwrap();
        let t1 = frame_bytes(&a, &[1, 2, 3]);
        let t2 = frame_bytes(&a, &[1, 2, 4]);
        assert_eq!(trace_fingerprint(&t1, &a), trace_fingerprint(&t1, &a));
        assert_ne!(trace_fingerprint(&t1, &a), trace_fingerprint(&t2, &a));
        assert_ne!(trace_fingerprint(&t1, &a), trace_fingerprint(&t1, &b));
    }

    #[test]
    fn generated_trace_replays_like_the_reference_simulator() {
        let program = cme_workloads::hydro(20, 10);
        let cfg = CacheConfig::new(1024, 32, 2).unwrap();
        let words = generate(&program).unwrap();
        let mut sim = TraceSim::new(cfg);
        sim.replay(&words);
        let stats = sim.stats();

        let reference = cme_cache::Simulator::new(cfg).run(&program);
        assert_eq!(stats.accesses, reference.total_accesses());
        assert_eq!(stats.misses(), reference.total_misses());
    }
}
