//! Model-driven locality optimisation on top of the cache miss equations.
//!
//! The paper's introduction names the two intended clients of a fast,
//! accurate compile-time cache model: choosing **padding** sizes and
//! choosing **tile** sizes. This crate implements both as searches over
//! `EstimateMisses` evaluations:
//!
//! * [`search_padding`] — greedy inter-array padding (base-address
//!   shifting) to break set conflicts;
//! * [`search_tiles`] — sweep of tiling parameter candidates with a
//!   program factory.
//!
//! Both return plans whose predictions are meant to be (and in the tests
//! are) validated against the trace-driven simulator.
//!
//! Evaluations route through a `cme_serve::Engine`, so repeated layouts
//! hit the content-addressed result store and every candidate shares one
//! reuse-vector analysis (reuse vectors are layout-independent). The
//! `*_in` variants ([`search_padding_in`], [`search_tiles_in`]) accept a
//! caller-supplied engine to memoise across searches.
//!
//! # Example
//!
//! ```
//! use cme_ir::{LinExpr, ProgramBuilder, SNode, SRef};
//! use cme_cache::CacheConfig;
//! use cme_opt::{search_padding, PaddingOptions};
//!
//! // Two 1KB arrays streamed together on a 1KB direct-mapped cache:
//! // every access pair conflicts.
//! let mut b = ProgramBuilder::new("pingpong");
//! b.array("A", &[128], 8);
//! b.array("B", &[128], 8);
//! let i = LinExpr::var("I");
//! b.push(SNode::loop_("I", 1, 128, vec![SNode::assign(
//!     SRef::new("B", vec![i.clone()]),
//!     vec![SRef::new("A", vec![i.clone()])],
//! )]));
//! let program = b.build()?;
//! let cfg = CacheConfig::new(1024, 32, 1).expect("valid");
//!
//! let plan = search_padding(&program, cfg, &PaddingOptions::default());
//! assert!(plan.predicted_gain() > 0.5); // thrashing cured
//! # Ok::<(), cme_ir::IrError>(())
//! ```

pub mod geometry;
pub mod padding;
pub mod tiling;

pub use geometry::{rank_geometries, rank_geometries_in, GeometryChoice, GeometryRanking};
pub use padding::{
    search_padding, search_padding_in, PaddingOptions, PaddingPlan, PaddingTrial, PADDING_REUSE_CAP,
};
pub use tiling::{grid, search_tiles, search_tiles_in, TilePlan, TilePoint};
