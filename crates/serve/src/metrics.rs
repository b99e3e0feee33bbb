//! Service-level counters, aggregated across requests with plain atomics.
//!
//! Per-request numbers (queue wait, points, wall time, store hit/miss) are
//! attached to each response by the server; this module keeps the running
//! totals behind the `stats` verb and the shutdown dump.

use crate::json::{obj, Json};
use std::sync::atomic::{AtomicU64, Ordering};

/// Running totals. All counters are monotonic; `snapshot` is a consistent
/// *enough* read for observability (no cross-counter atomicity needed).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests received (any verb).
    pub requests: AtomicU64,
    /// `analyze` requests and sweep cells answered from the result store.
    pub store_hits: AtomicU64,
    /// `analyze` requests and distinct sweep cells that ran the analysis
    /// (single-flight followers are counted in `single_flight_waits`).
    pub store_misses: AtomicU64,
    /// Reuse-analysis cache hits (shared across layouts of one program).
    pub reuse_hits: AtomicU64,
    /// Reuse-analysis cache misses (vectors generated).
    pub reuse_misses: AtomicU64,
    /// Requests that hit their deadline.
    pub timeouts: AtomicU64,
    /// Requests cancelled by client disconnect.
    pub cancelled: AtomicU64,
    /// Malformed or unbuildable requests.
    pub bad_requests: AtomicU64,
    /// Worker panics caught and answered with a structured `internal_error`
    /// (the daemon survived each one).
    pub panics_caught: AtomicU64,
    /// Requests shed with `retry_after` because the admission queue could
    /// not meet their deadline.
    pub shed_requests: AtomicU64,
    /// Analyses answered by waiting on an identical in-flight job instead
    /// of recomputing (single-flight followers).
    pub single_flight_waits: AtomicU64,
    /// Points classified by analyses that ran to completion.
    pub points_classified: AtomicU64,
    /// Of the classified points, how many the hit/miss pre-pass resolved
    /// without an interference walk.
    pub prepass_resolved_points: AtomicU64,
    /// Of the classified points, how many still took the exact walk
    /// (sampled coverage or unresolved residue).
    pub prepass_unresolved_points: AtomicU64,
    /// Total microseconds requests waited in the accept queue.
    pub queue_wait_us: AtomicU64,
    /// Total microseconds of analysis wall time: every analysis that ran,
    /// `analyze` requests and sweep cells alike.
    pub analysis_wall_us: AtomicU64,
    /// `sweep` requests received.
    pub sweep_requests: AtomicU64,
    /// Grid cells evaluated across all sweeps (hits and computes alike).
    pub sweep_cells: AtomicU64,
    /// Sweep cells answered from the result store.
    pub sweep_cell_store_hits: AtomicU64,
    /// Total microseconds of sweep wall time (lookup + compute).
    pub sweep_wall_us: AtomicU64,
    /// `trace` requests answered from the result store.
    pub trace_store_hits: AtomicU64,
    /// `trace` requests that actually replayed.
    pub trace_store_misses: AtomicU64,
    /// Addresses replayed by trace requests that ran.
    pub trace_accesses_replayed: AtomicU64,
    /// Total microseconds of trace replay wall time (store misses only).
    pub trace_wall_us: AtomicU64,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Counts one computed analysis or sweep cell: its classified points,
    /// split into those the pre-pass resolved and the rest.
    pub fn add_classified(&self, points: u64, prepass_resolved: u64) {
        Metrics::add(&self.points_classified, points);
        Metrics::add(&self.prepass_resolved_points, prepass_resolved);
        Metrics::add(
            &self.prepass_unresolved_points,
            points.saturating_sub(prepass_resolved),
        );
    }

    /// The totals as a JSON object (the `stats` response body and the
    /// shutdown dump).
    pub fn snapshot(&self) -> Json {
        let g = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i64);
        obj(vec![
            ("requests", g(&self.requests)),
            ("store_hits", g(&self.store_hits)),
            ("store_misses", g(&self.store_misses)),
            ("reuse_hits", g(&self.reuse_hits)),
            ("reuse_misses", g(&self.reuse_misses)),
            ("timeouts", g(&self.timeouts)),
            ("cancelled", g(&self.cancelled)),
            ("bad_requests", g(&self.bad_requests)),
            ("panics_caught", g(&self.panics_caught)),
            ("shed_requests", g(&self.shed_requests)),
            ("single_flight_waits", g(&self.single_flight_waits)),
            ("points_classified", g(&self.points_classified)),
            ("prepass_resolved_points", g(&self.prepass_resolved_points)),
            (
                "prepass_unresolved_points",
                g(&self.prepass_unresolved_points),
            ),
            ("queue_wait_us", g(&self.queue_wait_us)),
            ("analysis_wall_us", g(&self.analysis_wall_us)),
            ("sweep_requests", g(&self.sweep_requests)),
            ("sweep_cells", g(&self.sweep_cells)),
            ("sweep_cell_store_hits", g(&self.sweep_cell_store_hits)),
            ("sweep_wall_us", g(&self.sweep_wall_us)),
            ("trace_store_hits", g(&self.trace_store_hits)),
            ("trace_store_misses", g(&self.trace_store_misses)),
            ("trace_accesses_replayed", g(&self.trace_accesses_replayed)),
            ("trace_wall_us", g(&self.trace_wall_us)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::new();
        Metrics::bump(&m.requests);
        Metrics::bump(&m.requests);
        Metrics::add(&m.points_classified, 1000);
        let snap = m.snapshot();
        assert_eq!(snap.get("requests"), Some(&Json::Int(2)));
        assert_eq!(snap.get("points_classified"), Some(&Json::Int(1000)));
        assert_eq!(snap.get("timeouts"), Some(&Json::Int(0)));
    }
}
