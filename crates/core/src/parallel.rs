//! The parallel point-classification engine.
//!
//! Point classification is embarrassingly parallel — every iteration point
//! is classified independently and the per-reference tallies are sums of
//! `u64` counters — so the engine is built from two small, dependency-free
//! pieces:
//!
//! * [`ChunkQueue`] — an atomic work queue over task indices `0..n`. Workers
//!   *steal* the next index with one `fetch_add`; there is no per-task
//!   allocation, no channel, and contention is one cache line.
//! * [`run_chunked`] — spawns `threads` scoped workers
//!   (`std::thread::scope`, so borrowed data flows in without `Arc`), gives
//!   each worker one reusable state value (a [`crate::Scratch`] in the
//!   classification engines — the buffers warm up once per worker, not once
//!   per point), and returns the task results **sorted by task index**.
//!
//! # Determinism
//!
//! The engine guarantees byte-identical results for every thread count:
//!
//! * each task is a pure function of its index — which points a chunk
//!   covers, and (for sampling) the chunk's RNG seed, never depend on which
//!   worker ran it or in what order;
//! * the reduction is ordered: results are sorted by task index before
//!   merging, and the merged quantities are sums of `u64` counters, which
//!   are associative and commutative anyway.
//!
//! With `threads == 1` no worker is spawned at all — the caller's thread
//! runs every task in index order, which is exactly the legacy serial path.

use crate::cancel::CancelToken;
use crate::classify::{Classifier, PointClass, Scratch};
use crate::prepass::{self, Verdict};
use crate::report::Coverage;
use cme_ir::RefId;
use cme_poly::rng::{derive_seed, SeededRng};
use cme_poly::sample;
use cme_poly::space::Space;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Points per work chunk for exhaustive classification. Large enough that
/// queue traffic is negligible (one atomic op per ~1k classified points,
/// each of which costs a reuse-vector scan), small enough that mid-size
/// references still split into many chunks for load balance.
pub const CHUNK_POINTS: usize = 1024;

/// Samples per work chunk (and per RNG stream) in sampled classification.
/// Also the granularity of seed derivation: chunk `i` of a reference always
/// draws its quota from `derive_seed(ref_seed, i)`, so the sampled point
/// set is a function of the seed alone, not of the schedule.
pub const CHUNK_SAMPLES: u64 = 64;

/// An atomic chunk-stealing work queue over task indices `0..ntasks`.
///
/// Every index is handed out exactly once across all stealing threads.
#[derive(Debug)]
pub struct ChunkQueue {
    next: AtomicUsize,
    ntasks: usize,
}

impl ChunkQueue {
    /// A queue holding the indices `0..ntasks`.
    pub fn new(ntasks: usize) -> Self {
        ChunkQueue {
            next: AtomicUsize::new(0),
            ntasks,
        }
    }

    /// Takes the next unprocessed task index, or `None` when drained.
    pub fn steal(&self) -> Option<usize> {
        // Relaxed suffices: the index value itself carries the claim, and
        // the scope join provides the final happens-before edge.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i < self.ntasks {
            Some(i)
        } else {
            None
        }
    }
}

/// Runs `ntasks` indexed tasks on up to `threads` workers and returns the
/// results in task-index order.
///
/// Each worker owns one `state` value produced by `make_state` and reuses
/// it across every task it steals (shared-scratch execution). `threads <= 1`
/// (or a single task) runs everything on the calling thread with no spawns.
pub fn run_chunked<S, T, MS, F>(threads: usize, ntasks: usize, make_state: MS, task: F) -> Vec<T>
where
    T: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    run_chunked_cancellable(threads, ntasks, &CancelToken::never(), make_state, task)
        .expect("never-token runs cannot be cancelled")
}

/// Cancellable [`run_chunked`]: the token is checked once per task steal
/// (per chunk, not per point). Returns `None` when cancellation fired before
/// the queue drained — partial results are discarded, each worker stops
/// after at most the task it is currently running.
pub fn run_chunked_cancellable<S, T, MS, F>(
    threads: usize,
    ntasks: usize,
    cancel: &CancelToken,
    make_state: MS,
    task: F,
) -> Option<Vec<T>>
where
    T: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if threads <= 1 || ntasks <= 1 {
        let mut state = make_state();
        let mut out = Vec::with_capacity(ntasks);
        for i in 0..ntasks {
            if cancel.is_cancelled() {
                return None;
            }
            out.push(task(&mut state, i));
        }
        return Some(out);
    }
    let queue = ChunkQueue::new(ntasks);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(ntasks));
    let nworkers = threads.min(ntasks);
    std::thread::scope(|scope| {
        for _ in 0..nworkers {
            scope.spawn(|| {
                let mut state = make_state();
                let mut local: Vec<(usize, T)> = Vec::new();
                while !cancel.is_cancelled() {
                    let Some(i) = queue.steal() else { break };
                    local.push((i, task(&mut state, i)));
                }
                results.lock().unwrap().extend(local);
            });
        }
    });
    if cancel.is_cancelled() {
        return None;
    }
    let mut v = results.into_inner().unwrap();
    v.sort_unstable_by_key(|&(i, _)| i);
    Some(v.into_iter().map(|(_, t)| t).collect())
}

/// Per-chunk classification tally; the merged quantity of the reduction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Cold misses.
    pub cold: u64,
    /// Replacement misses.
    pub replacement: u64,
    /// Hits.
    pub hits: u64,
}

impl Tally {
    /// Counts one verdict.
    pub fn bump(&mut self, class: PointClass) {
        match class {
            PointClass::Cold => self.cold += 1,
            PointClass::ReplacementMiss { .. } => self.replacement += 1,
            PointClass::Hit { .. } => self.hits += 1,
        }
    }

    /// Counts one pre-pass verdict. A resolved point contributes exactly
    /// the increment its [`PointClass`] would (the tally never records
    /// which vector decided), so consulting the pre-pass changes no report.
    pub fn bump_verdict(&mut self, v: Verdict) {
        match v {
            Verdict::Cold => self.cold += 1,
            Verdict::Replacement => self.replacement += 1,
            Verdict::Hit => self.hits += 1,
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.cold += other.cold;
        self.replacement += other.replacement;
        self.hits += other.hits;
    }

    /// Points counted so far.
    pub fn analyzed(&self) -> u64 {
        self.cold + self.replacement + self.hits
    }
}

/// Classifies every point of `RIS_r`: the one exhaustive path of
/// `FindMisses` and `EstimateMisses`. The row engine
/// ([`prepass::analyze_reference`]) runs first; a reference it resolves in
/// full is tallied without visiting a point, and otherwise the classifier
/// decides the points it leaves, on `threads` workers. Returns the tally
/// and the points the row engine resolved, or `None` once `cancel` fires.
///
/// The point stream is materialised into a flat row-major buffer (serial
/// enumeration is a tiny fraction of classification cost), split into
/// [`CHUNK_POINTS`]-sized chunks and reduced in chunk order. Small spaces
/// take the serial path directly. Resolved points count exactly what the
/// classifier would, so the report equals
/// [`Classifier::classify_every_point`]'s.
pub(crate) fn classify_exhaustive(
    classifier: &Classifier<'_>,
    r: RefId,
    threads: usize,
    cancel: &CancelToken,
) -> Option<(Tally, u64)> {
    let verdicts = prepass::analyze_reference(classifier, r, cancel).ok()?;
    let resolved = verdicts.resolved();
    if let Some(totals) = verdicts.totals() {
        return Some((totals, resolved));
    }
    let ris = classifier.program().ris(r);
    let dim = classifier.program().depth();
    let serial_tally = || {
        let mut tally = Tally::default();
        let mut scratch = Scratch::new();
        let mut cursor = 0usize;
        ris.for_each_point(|point| match verdicts.lookup(point, &mut cursor) {
            Some(v) => tally.bump_verdict(v),
            None => tally.bump(classifier.classify_with_scratch(r, point, &mut scratch)),
        });
        tally
    };
    // The non-cancellable serial paths stay allocation-free; a live token
    // always goes through the chunked route so the per-chunk checks happen
    // even on one thread.
    if (threads <= 1 || dim == 0) && !cancel.can_cancel() {
        return Some((serial_tally(), resolved));
    }
    if dim == 0 {
        if cancel.is_cancelled() {
            return None;
        }
        return Some((serial_tally(), resolved));
    }
    let (flat, npoints) = classifier.program().flat_ris(r);
    if npoints <= CHUNK_POINTS && !cancel.can_cancel() {
        return Some((serial_tally(), resolved));
    }
    let nchunks = npoints.div_ceil(CHUNK_POINTS).max(1);
    let tallies =
        run_chunked_cancellable(threads, nchunks, cancel, Scratch::new, |scratch, ci| {
            let lo = ci * CHUNK_POINTS;
            let hi = npoints.min(lo + CHUNK_POINTS);
            let mut tally = Tally::default();
            // Chunks are contiguous lex ranges, so one binary search positions
            // the verdict cursor and the per-point lookups advance linearly.
            let mut cursor = verdicts.cursor_at(&flat[lo * dim..(lo + 1) * dim]);
            for point in flat[lo * dim..hi * dim].chunks_exact(dim) {
                match verdicts.lookup(point, &mut cursor) {
                    Some(v) => tally.bump_verdict(v),
                    None => tally.bump(classifier.classify_with_scratch(r, point, scratch)),
                }
            }
            tally
        })?;
    let mut total = Tally::default();
    for t in tallies {
        total.merge(t);
    }
    Some((total, resolved))
}

/// Classifies a deterministic uniform sample of `RIS_r` on `threads`
/// workers.
///
/// The quota is split into [`CHUNK_SAMPLES`]-sized chunks; chunk `i` draws
/// its points from a fresh RNG seeded with `derive_seed(ref_seed, i)`. The
/// sampled point set is therefore a function of `(ref_seed, nsamples)`
/// alone — byte-identical for every thread count, including 1.
pub(crate) fn classify_sampled(
    classifier: &Classifier<'_>,
    r: RefId,
    ris: &Space,
    nsamples: u64,
    ref_seed: u64,
    threads: usize,
    cancel: &CancelToken,
) -> Option<(Tally, Coverage)> {
    let nchunks = nsamples.div_ceil(CHUNK_SAMPLES) as usize;
    let results =
        run_chunked_cancellable(threads, nchunks, cancel, Scratch::new, |scratch, ci| {
            let lo = ci as u64 * CHUNK_SAMPLES;
            let quota = CHUNK_SAMPLES.min(nsamples - lo) as usize;
            let mut rng = SeededRng::seed_from_u64(derive_seed(ref_seed, ci as u64));
            let points = sample::sample_points(ris, &mut rng, quota, sample::DEFAULT_MAX_TRIALS);
            let mut tally = Tally::default();
            for point in &points {
                tally.bump(classifier.classify_with_scratch(r, point, scratch));
            }
            (tally, points.len() as u64)
        })?;
    let mut total = Tally::default();
    let mut samples = 0u64;
    for (t, n) in results {
        total.merge(t);
        samples += n;
    }
    Some((total, Coverage::Sampled { samples }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    /// Every index is handed out exactly once even under heavy contention.
    #[test]
    fn queue_processes_every_index_exactly_once() {
        const NTASKS: usize = 10_000;
        const NTHREADS: usize = 8;
        let queue = ChunkQueue::new(NTASKS);
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::with_capacity(NTASKS));
        std::thread::scope(|scope| {
            for _ in 0..NTHREADS {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    while let Some(i) = queue.steal() {
                        local.push(i);
                    }
                    seen.lock().unwrap().extend(local);
                });
            }
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), NTASKS, "index count");
        let unique: HashSet<usize> = seen.iter().copied().collect();
        assert_eq!(unique.len(), NTASKS, "duplicate indices");
        assert!(unique.iter().all(|&i| i < NTASKS));
        // Drained queue keeps returning None.
        assert_eq!(queue.steal(), None);
        assert_eq!(queue.steal(), None);
    }

    /// Results come back in task order regardless of scheduling, and every
    /// worker state observes only its own tasks.
    #[test]
    fn run_chunked_is_ordered_and_complete() {
        for threads in [1usize, 2, 4, 8] {
            let out = run_chunked(
                threads,
                129,
                || 0u64,
                |state, i| {
                    *state += 1;
                    (i as u64) * 3
                },
            );
            assert_eq!(out.len(), 129, "threads={threads}");
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, (i as u64) * 3, "threads={threads} index {i}");
            }
        }
    }

    /// Worker states are created once per worker, not once per task.
    #[test]
    fn states_are_shared_across_tasks() {
        let created = AtomicU64::new(0);
        let out = run_chunked(
            4,
            64,
            || {
                created.fetch_add(1, Ordering::Relaxed);
            },
            |_, i| i,
        );
        assert_eq!(out.len(), 64);
        let n = created.load(Ordering::Relaxed);
        assert!(n <= 4, "created {n} states for 4 workers");
    }

    /// Zero tasks is fine (no spawns, empty result).
    #[test]
    fn empty_queue() {
        let out = run_chunked(8, 0, || (), |_, i| i);
        assert!(out.is_empty());
        assert_eq!(ChunkQueue::new(0).steal(), None);
    }

    #[test]
    fn tally_merge_adds() {
        let mut a = Tally {
            cold: 1,
            replacement: 2,
            hits: 3,
        };
        a.merge(Tally {
            cold: 10,
            replacement: 20,
            hits: 30,
        });
        assert_eq!(a.analyzed(), 66);
        a.bump(PointClass::Cold);
        a.bump(PointClass::Hit { vector_idx: 0 });
        assert_eq!(a.cold, 12);
        assert_eq!(a.hits, 34);
    }
}
