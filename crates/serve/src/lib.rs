//! `cme-serve`: a persistent analysis service for the cache-miss-equation
//! toolchain.
//!
//! The paper's pitch is that analytical modelling makes cache behaviour
//! *cheap to query*; this crate makes the queries persistent. A daemon
//! (`cme serve`) keeps a process-wide [`engine::Engine`] alive across
//! requests, so repeated analyses — IDE integrations, compiler sweeps,
//! `cme-opt` padding searches — pay the analysis cost once and the lookup
//! cost forever after:
//!
//! * **Content-addressed result store** ([`store`]): every job is keyed by
//!   a canonical 128-bit fingerprint of (normalised program, cache
//!   geometry, analysis options). Equal fingerprints return byte-identical
//!   report payloads, from an in-memory LRU backed by an optional
//!   append-only disk log with per-entry CRCs.
//! * **Deadline & cancellation propagation** ([`cme_analysis::CancelToken`]):
//!   a request's `timeout_ms` — or its client hanging up, which the
//!   server's disconnect watcher notices within one 50 ms poll — aborts
//!   the point-classification loops within one work chunk, releasing the
//!   worker with a structured partial-progress error.
//! * **Per-request observability** ([`metrics`]): queue wait, store
//!   hit/miss, points classified and wall time ride on every
//!   response; aggregate counters answer the `stats` verb and are
//!   dumped as JSON on shutdown.
//! * **Chaos-tested failure handling** ([`fault`]): a seeded fault plan
//!   injects torn writes, read errors, dropped connections and worker
//!   panics; the daemon answers every fault with either the exact bytes or
//!   a structured retryable error — panic isolation, poison-recovering
//!   locks, crash-safe store compaction, single-flight deduplication, load
//!   shedding, and client retries keep it that way under load.
//!
//! The wire protocol ([`protocol`]) is newline-delimited JSON over TCP,
//! hand-rolled in [`json`] — the crate (like the whole workspace) has zero
//! external dependencies.

pub mod client;
pub mod engine;
pub mod fault;
pub mod json;
mod lru;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod store;

pub use client::{Client, RetryPolicy};
pub use engine::{
    job_fingerprint, render_trace_payload, AnalysisMode, Engine, EngineError, Job, Outcome,
    SweepCell, SweepJob, SweepOutcome, TraceOutcome,
};
pub use fault::{FaultPlan, FaultSite, Faults};
pub use json::Json;
pub use metrics::Metrics;
pub use protocol::{AnalyzeRequest, Mode, ProgramSpec, Request, TraceRequest, TraceSource};
pub use server::{Server, ServerOptions};
pub use store::{CompactStats, Store, StoredResult};
