//! Trace generation: emit the exact program-order access stream of a
//! normalised [`Program`] as a binary trace.
//!
//! This is the bridge between the analytical side of the repo and the
//! trace side: the generated stream is *definitionally* the one the
//! in-memory simulator and the miss-equation walkers consume, so replaying
//! it through [`crate::TraceSim`] must reproduce the simulator's totals
//! exactly — the cross-validation identity the bench harness asserts.

use cme_cache::CacheConfig;
use cme_ir::Program;
use std::fmt;
use std::io::{self, Seek, Write};

/// Why a program's access stream cannot be encoded as a u32 trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceGenError {
    /// An access fell outside `0..=u32::MAX` byte addresses — the compact
    /// format (4-byte big-endian words) cannot carry it.
    AddressOutOfRange { addr: i64 },
}

impl fmt::Display for TraceGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceGenError::AddressOutOfRange { addr } => write!(
                f,
                "address {addr} does not fit the 4-byte trace word (need 0..=4294967295)"
            ),
        }
    }
}

impl std::error::Error for TraceGenError {}

/// The program's full access stream, program-ordered, as trace words.
///
/// Materialises the whole trace in memory (4 bytes per access); callers
/// that only need to *replay* can feed the vector straight to
/// [`crate::TraceSim::replay`] without ever serialising it.
pub fn generate(program: &Program) -> Result<Vec<u32>, TraceGenError> {
    let mut out: Vec<u32> = Vec::with_capacity(program.total_accesses() as usize);
    let mut bad: Option<i64> = None;
    cme_ir::for_each_address(program, |addr| {
        if bad.is_some() {
            return;
        }
        match u32::try_from(addr) {
            Ok(word) => out.push(word),
            Err(_) => bad = Some(addr),
        }
    });
    match bad {
        Some(addr) => Err(TraceGenError::AddressOutOfRange { addr }),
        None => Ok(out),
    }
}

/// Generates and writes the program's trace in the framed variant, tagging
/// it with `cfg`'s geometry. Returns the access count.
pub fn write_framed_trace<W: Write + Seek>(
    dst: &mut W,
    program: &Program,
    cfg: &CacheConfig,
) -> io::Result<u64> {
    let words = generate(program).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    crate::format::write_framed(dst, cfg, words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{LinExpr, ProgramBuilder, SNode, SRef};

    #[test]
    fn generate_matches_address_trace() {
        let program = cme_workloads::mmt(8, 4, 2);
        let words = generate(&program).unwrap();
        let addrs = cme_ir::address_trace(&program);
        assert_eq!(words.len() as u64, program.total_accesses());
        assert_eq!(words, addrs.iter().map(|&a| a as u32).collect::<Vec<u32>>());
    }

    #[test]
    fn oversized_addresses_are_rejected() {
        // A single giant array pushes its tail addresses past u32::MAX.
        let mut b = ProgramBuilder::new("huge");
        b.array("A", &[700_000_000], 8); // 5.6 GB
        let i = LinExpr::var("I");
        b.push(SNode::loop_(
            "I",
            699_999_999,
            700_000_000,
            vec![SNode::assign(SRef::new("A", vec![i.clone()]), vec![])],
        ));
        let program = b.build().unwrap();
        let err = generate(&program).unwrap_err();
        assert!(matches!(err, TraceGenError::AddressOutOfRange { .. }));
    }
}
