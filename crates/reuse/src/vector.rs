//! Reuse vector types (§3.5 of the paper).

use cme_ir::RefId;
use std::fmt;

/// The locality a reuse vector carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReuseKind {
    /// The producer touched the *same element* (eq. 1).
    Temporal,
    /// The producer touched the *same memory line*, within one array column
    /// (eq. 2).
    Spatial,
    /// The producer touched the same memory line spanning two adjacent
    /// array columns (Fig. 3).
    CrossColumnSpatial,
}

/// Self reuse (producer and consumer are the same static reference) or
/// group reuse (different references).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseClass {
    /// `R_p` and `R_c` are the same reference.
    SelfReuse,
    /// `R_p` and `R_c` differ.
    Group,
}

/// A reuse vector from a producer reference to a consumer reference: a
/// view into the flat storage of a [`crate::ReuseAnalysis`].
///
/// The vector is *interleaved*: `(ℓ₁ᶜ−ℓ₁ᵖ, x₁, …, ℓ_nᶜ−ℓ_nᵖ, x_n)`, always
/// lexicographically non-negative. The consumer at iteration `i` may reuse
/// the line the producer touched at `i − r` (subject to the cold and
/// replacement equations — a reuse vector is a *candidate*, verified during
/// analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReuseVector<'a> {
    /// The producing reference `R_p`.
    pub producer: RefId,
    /// The consuming reference `R_c`.
    pub consumer: RefId,
    /// The interleaved vector of length `2n`.
    pub vector: &'a [i64],
    /// Temporal / spatial / cross-column.
    pub kind: ReuseKind,
    /// Self or group.
    pub class: ReuseClass,
}

impl ReuseVector<'_> {
    /// The index components `(x₁, …, x_n)`.
    pub fn index_part(&self) -> Vec<i64> {
        cme_poly::lex::indices_of(self.vector)
    }

    /// The label-difference components.
    pub fn label_part(&self) -> Vec<i64> {
        cme_poly::lex::labels_of(self.vector)
    }

    /// Whether the vector is all-zero (loop-independent reuse inside one
    /// iteration point — only valid when the producer is lexically earlier).
    pub fn is_zero(&self) -> bool {
        self.vector.iter().all(|&v| v == 0)
    }
}

impl fmt::Display for ReuseVector<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            ReuseKind::Temporal => "T",
            ReuseKind::Spatial => "S",
            ReuseKind::CrossColumnSpatial => "X",
        };
        let class = match self.class {
            ReuseClass::SelfReuse => "self",
            ReuseClass::Group => "group",
        };
        write!(
            f,
            "r{:?} {kind}/{class} R{}→R{}",
            self.vector, self.producer, self.consumer
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_split() {
        let r = ReuseVector {
            producer: 0,
            consumer: 1,
            vector: &[0, 0, 1, -1],
            kind: ReuseKind::Temporal,
            class: ReuseClass::Group,
        };
        assert_eq!(r.label_part(), vec![0, 1]);
        assert_eq!(r.index_part(), vec![0, -1]);
        assert!(!r.is_zero());
        assert!(r.to_string().contains("T/group"));
    }
}
