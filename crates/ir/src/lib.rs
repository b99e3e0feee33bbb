//! Regular-program intermediate representation for cache behaviour analysis.
//!
//! This crate models the program class of the paper (§3): FORTRAN-style
//! programs with regular computations — subroutines, `CALL` statements,
//! `IF` statements and arbitrarily nested `DO` loops, free of data-dependent
//! constructs. It provides:
//!
//! * a source-level AST ([`ast`]) produced by front ends and builders;
//! * the five-step loop-nest normalisation of §3.1 ([`normalize()`]);
//! * the normalised, analysis-ready [`Program`] with iteration vectors
//!   (§3.2), reference iteration spaces (§3.3) and a column-major memory
//!   layout;
//! * program-order walkers over all memory accesses ([`walk`]), used both by
//!   the cache simulator and by the miss-equation interference analysis.
//!
//! # Example
//!
//! ```
//! use cme_ir::{ProgramBuilder, SRef, SNode, LinExpr};
//!
//! let mut b = ProgramBuilder::new("saxpy-like");
//! b.array("X", &[100], 8);
//! b.array("Y", &[100], 8);
//! let i = LinExpr::var("I");
//! b.push(SNode::loop_("I", 1, 100, vec![
//!     SNode::assign(
//!         SRef::new("Y", vec![i.clone()]),
//!         vec![SRef::new("X", vec![i.clone()]), SRef::new("Y", vec![i.clone()])],
//!     ),
//! ]));
//! let program = b.build()?;
//! assert_eq!(program.depth(), 1);
//! assert_eq!(program.references().len(), 3);
//! assert_eq!(program.total_accesses(), 300);
//! # Ok::<(), cme_ir::IrError>(())
//! ```

pub mod ast;
pub mod builder;
pub mod error;
pub mod expr;
pub mod fingerprint;
pub mod normalize;
pub mod pretty;
pub mod program;
pub mod unparse;
pub mod walk;

pub use ast::{
    Actual, CommonBlock, DimSize, SAssign, SCall, SIf, SLoop, SNode, SRef, SourceProgram,
    SourceStats, Subroutine, VarDecl, VarKind,
};
pub use builder::ProgramBuilder;
pub use error::IrError;
pub use expr::{LinExpr, LinRel, RelOp};
pub use fingerprint::{fingerprint_program, structural_fingerprint, Fingerprint, FpHasher};
pub use normalize::{normalize, normalize_subroutine, NormalizeOptions};
pub use program::{
    AccessKind, Array, ArrayId, LoopNode, Program, RefId, Reference, Statement, StmtId, Storage,
};
pub use walk::{address_trace, for_each_address, Access, BoundaryTag, RowSpan};
