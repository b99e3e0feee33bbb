//! Cache Miss Equations: analytical whole-program cache behaviour analysis
//! (§4 of the paper).
//!
//! Given a normalised [`cme_ir::Program`], a [`cme_cache::CacheConfig`] and
//! the reuse vectors of [`cme_reuse`], this crate classifies every access as
//! a cold miss, a replacement miss or a hit by solving the cold and
//! replacement equations pointwise:
//!
//! * [`FindMisses`] — exact: classifies every iteration point. Matches the
//!   LRU simulator exactly whenever the reuse-vector set is complete
//!   (Table 3 of the paper).
//! * [`EstimateMisses`] — sampled: classifies a uniform sample per
//!   reference, sized by a binomial confidence bound (Fig. 6), achieving
//!   miss ratios within fractions of a percent at a small fraction of the
//!   simulation cost (Tables 4 and 6).
//!
//! # Example
//!
//! ```
//! use cme_analysis::{EstimateMisses, FindMisses, SamplingOptions};
//! use cme_cache::{CacheConfig, Simulator};
//! use cme_ir::{ProgramBuilder, SNode, SRef, LinExpr};
//!
//! let mut b = ProgramBuilder::new("axpy");
//! b.array("X", &[512], 8);
//! b.array("Y", &[512], 8);
//! let i = LinExpr::var("I");
//! b.push(SNode::loop_("I", 1, 512, vec![SNode::assign(
//!     SRef::new("Y", vec![i.clone()]),
//!     vec![SRef::new("X", vec![i.clone()]), SRef::new("Y", vec![i.clone()])],
//! )]));
//! let p = b.build()?;
//! let cfg = CacheConfig::new(32 * 1024, 32, 2).expect("valid geometry");
//!
//! let exact = FindMisses::new(&p, cfg).run();
//! let simulated = Simulator::new(cfg).run(&p);
//! assert_eq!(exact.exact_misses(), Some(simulated.total_misses()));
//!
//! let estimate = EstimateMisses::new(&p, cfg, SamplingOptions::paper_default()).run();
//! assert!((estimate.miss_ratio() - simulated.miss_ratio()).abs() < 0.05);
//! # Ok::<(), cme_ir::IrError>(())
//! ```

pub mod cancel;
pub mod classify;
pub mod estimate;
pub mod find;
pub mod options;
pub mod parallel;
pub mod prepass;
pub mod report;

pub use cancel::{CancelToken, Cancelled};
pub use classify::{Classifier, PointClass, Scratch, WalkStrategy};
pub use estimate::EstimateMisses;
pub use find::FindMisses;
pub use options::{PrepassMode, SamplingOptions, Threads};
pub use prepass::{Prepass, RefVerdicts, Verdict};
pub use report::{Coverage, RefReport, Report};
