//! Canonical fingerprints of normalised programs.
//!
//! A [`Fingerprint`] is a deterministic 128-bit digest of everything the
//! miss equations can observe about a [`Program`]: the loop forest with its
//! bounds, the statements with their labels and guards, the references with
//! their subscripts and lexical ranks, the arrays with their shapes, and
//! (for the full fingerprint) the byte layout. Two programs with equal
//! fingerprints produce byte-identical analysis reports under equal cache
//! geometry and options, which is what makes the digest usable as a
//! content-address for cached results (`cme-serve`).
//!
//! Deliberately *excluded* are presentation-only fields — the program name,
//! statement debug names (`"S1"`) and reference display strings — so the
//! same kernel reaches the same fingerprint whether it was assembled with
//! [`crate::ProgramBuilder`] or lowered from FORTRAN source: both paths run
//! the same normalisation and differ only in those labels.
//!
//! The hash is FNV-1a over a canonical byte encoding, widened to 128 bits.
//! It is *not* adversarially collision-resistant — it addresses a cache of
//! one's own results, not untrusted content — but at 128 bits accidental
//! collisions are negligible for any realistic store size.

use crate::program::{Program, Storage};
use crate::DimSize;
use cme_poly::{Affine, Constraint, ConstraintKind};
use std::fmt;

/// The 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// The 128-bit FNV prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit content digest; renders as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Parses the 32-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A streaming FNV-1a/128 hasher over a canonical byte encoding.
///
/// Every `write_*` method is length-prefixed or fixed-width, so distinct
/// field sequences cannot collide by concatenation ambiguity.
#[derive(Debug, Clone)]
pub struct FpHasher {
    state: u128,
}

impl Default for FpHasher {
    fn default() -> Self {
        FpHasher { state: FNV_OFFSET }
    }
}

impl FpHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        FpHasher::default()
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte (used for small tags).
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorbs a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `i64` as 8 little-endian bytes.
    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by its IEEE bit pattern (used for sampling options;
    /// equal options mean equal bits).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs a length-prefixed `i64` slice.
    pub fn write_i64s(&mut self, vs: &[i64]) {
        self.write_u64(vs.len() as u64);
        for &v in vs {
            self.write_i64(v);
        }
    }

    /// Absorbs an affine form (variable count, coefficients, constant).
    pub fn write_affine(&mut self, a: &Affine) {
        self.write_i64s(a.coeffs());
        self.write_i64(a.constant_term());
    }

    /// Absorbs a constraint (relation tag plus affine form).
    pub fn write_constraint(&mut self, c: &Constraint) {
        self.write_u8(match c.kind {
            ConstraintKind::Eq => 0,
            ConstraintKind::Ge => 1,
            ConstraintKind::Ne => 2,
        });
        self.write_affine(&c.expr);
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// Absorbs a program's canonical encoding; `layout` adds the base
/// addresses (the byte layout) to pure structure.
fn absorb_program(h: &mut FpHasher, p: &Program, layout: bool) {
    h.write_str("cme-program-v1");
    h.write_u64(p.depth() as u64);

    let arrays = p.arrays();
    h.write_u64(arrays.len() as u64);
    for (i, a) in arrays.iter().enumerate() {
        h.write_str(&a.name);
        h.write_u64(a.elem_bytes as u64);
        h.write_u64(a.dims.len() as u64);
        for d in &a.dims {
            match d {
                DimSize::Fixed(v) => {
                    h.write_u8(0);
                    h.write_i64(*v);
                }
                DimSize::Assumed => h.write_u8(1),
            }
        }
        match a.storage {
            Storage::Owned => h.write_u8(0),
            Storage::AliasOf(t) => {
                h.write_u8(1);
                h.write_u64(t as u64);
            }
        }
        if layout {
            h.write_i64(p.base_address(i));
        }
    }

    fn absorb_loop(h: &mut FpHasher, l: &crate::program::LoopNode) {
        h.write_affine(&l.lb);
        h.write_affine(&l.ub);
        h.write_u64(l.stmts.len() as u64);
        for &s in &l.stmts {
            h.write_u64(s as u64);
        }
        h.write_u64(l.inner.len() as u64);
        for inner in &l.inner {
            absorb_loop(h, inner);
        }
    }
    h.write_u64(p.roots().len() as u64);
    for root in p.roots() {
        absorb_loop(h, root);
    }

    h.write_u64(p.statements().len() as u64);
    for s in p.statements() {
        h.write_i64s(&s.label);
        h.write_u64(s.guard.len() as u64);
        for c in &s.guard {
            h.write_constraint(c);
        }
        h.write_u64(s.refs.len() as u64);
        for &r in &s.refs {
            h.write_u64(r as u64);
        }
        // `s.name` is presentation-only: excluded.
    }

    h.write_u64(p.references().len() as u64);
    for r in p.references() {
        h.write_u64(r.array as u64);
        h.write_u64(r.subs.len() as u64);
        for sub in &r.subs {
            h.write_affine(sub);
        }
        h.write_u8(match r.kind {
            crate::program::AccessKind::Read => 0,
            crate::program::AccessKind::Write => 1,
        });
        h.write_u64(r.stmt as u64);
        h.write_u64(r.lex_rank as u64);
        // `r.display` is presentation-only: excluded.
    }
}

/// The full canonical fingerprint of a program, *including* its memory
/// layout (base addresses). Programs differing only in padding fingerprint
/// differently — exactly what a result cache needs, since padding changes
/// miss behaviour.
pub fn fingerprint_program(p: &Program) -> Fingerprint {
    let mut h = FpHasher::new();
    absorb_program(&mut h, p, true);
    h.finish()
}

/// The structural fingerprint: like [`fingerprint_program`] but *excluding*
/// base addresses. Reuse vectors depend only on structure and line size, so
/// this is the right key for sharing a `ReuseAnalysis` across padded
/// variants of one program.
pub fn structural_fingerprint(p: &Program) -> Fingerprint {
    let mut h = FpHasher::new();
    absorb_program(&mut h, p, false);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, ProgramBuilder, SNode, SRef};

    fn stencil(n: i64, shift: i64) -> Program {
        let mut b = ProgramBuilder::new(format!("stencil-{shift}"));
        b.array("A", &[n, n], 8);
        b.array("B", &[n, n], 8);
        let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
        b.push(SNode::loop_(
            "J",
            2,
            n - 1,
            vec![SNode::loop_(
                "I",
                2,
                n - 1,
                vec![SNode::assign(
                    SRef::new("B", vec![i.clone(), j.clone()]),
                    vec![SRef::new("A", vec![i.offset(shift), j.clone()])],
                )],
            )],
        ));
        b.build().unwrap()
    }

    #[test]
    fn equal_programs_equal_fingerprints_despite_names() {
        // Same structure, different program names: identical digests.
        let a = stencil(16, -1);
        let b = stencil(16, -1);
        assert_eq!(fingerprint_program(&a), fingerprint_program(&b));
        assert_eq!(structural_fingerprint(&a), structural_fingerprint(&b));
    }

    #[test]
    fn subscript_change_changes_fingerprint() {
        let a = stencil(16, -1);
        let b = stencil(16, 1);
        assert_ne!(fingerprint_program(&a), fingerprint_program(&b));
        assert_ne!(structural_fingerprint(&a), structural_fingerprint(&b));
    }

    #[test]
    fn bounds_change_changes_fingerprint() {
        assert_ne!(
            fingerprint_program(&stencil(16, -1)),
            fingerprint_program(&stencil(17, -1))
        );
    }

    #[test]
    fn padding_changes_full_but_not_structural() {
        let p = stencil(16, -1);
        let padded = p.with_padding(&[0, 64]);
        assert_ne!(fingerprint_program(&p), fingerprint_program(&padded));
        assert_eq!(structural_fingerprint(&p), structural_fingerprint(&padded));
    }

    #[test]
    fn display_roundtrips() {
        let fp = fingerprint_program(&stencil(8, -1));
        let s = fp.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(Fingerprint::parse(&s), Some(fp));
        assert_eq!(Fingerprint::parse("xyz"), None);
    }

    #[test]
    fn hasher_is_order_and_length_sensitive() {
        let mut a = FpHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = FpHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
