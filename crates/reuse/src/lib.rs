//! Cross-nest reuse vector generation (§3.4–3.5 of the paper).
//!
//! The paper's key enabling contribution is a representation of data reuse
//! that spans *multiple loop nests*: reuse vectors interleave loop-label
//! differences with index differences, generalising Wolf & Lam's framework
//! (which is the special case where all label differences are zero).
//!
//! * [`ugr`] partitions references into uniformly generated sets;
//! * [`generator`] solves the reuse equations (1) and (2) over the integers
//!   and emits temporal, spatial and cross-column candidate vectors;
//! * [`ReuseAnalysis`] stores the vectors flat, indexed per consumer and
//!   sorted in the lexicographic order the miss analysis consumes them in;
//!   readers borrow [`ReuseVector`] views.
//!
//! # Example
//!
//! ```
//! use cme_ir::{ProgramBuilder, SNode, SRef, LinExpr};
//! use cme_reuse::ReuseAnalysis;
//!
//! let mut b = ProgramBuilder::new("stencil");
//! b.array("A", &[64], 8);
//! let i = LinExpr::var("I");
//! b.push(SNode::loop_("I", 2, 63, vec![
//!     SNode::reads_only(vec![
//!         SRef::new("A", vec![i.offset(-1)]),
//!         SRef::new("A", vec![i.offset(1)]),
//!     ]),
//! ]));
//! let p = b.build()?;
//! let reuse = ReuseAnalysis::analyze(&p, 32);
//! // A(I+1) at iteration I is reused as A(I−1) two iterations later.
//! assert!(reuse
//!     .for_consumer(0)
//!     .any(|v| v.producer == 1 && v.vector == vec![0, 2]));
//! # Ok::<(), cme_ir::IrError>(())
//! ```

pub mod generator;
pub mod ugr;
pub mod vector;

pub use generator::{ReuseAnalysis, Vectors};
pub use ugr::{subscript_parts, ugr_sets, UgrSet};
pub use vector::{ReuseClass, ReuseKind, ReuseVector};
