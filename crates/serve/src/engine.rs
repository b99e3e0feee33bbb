//! The analysis engine: fingerprint → store lookup → (single-flight →
//! reuse cache → cancellable analysis) → canonical payload.
//!
//! The engine is the piece shared by the TCP server, the `cme-opt` sweeps
//! and the benches: everything that wants memoised, cancellable analyses
//! goes through [`Engine::run`]. It owns the result [`Store`], a
//! reuse-vector cache (reuse vectors depend only on program *structure*
//! and line size, so padded layout variants of one program share them) and
//! the service [`Metrics`].
//!
//! A sweep is a loop of single queries: [`Engine::run_sweep`] sends each
//! distinct grid cell through the path [`Engine::run`] takes, so a cell is
//! looked up, coalesced, computed and stored exactly as a lone exact
//! query of its geometry, and answers that query's bytes.
//!
//! The store lookup on its own is `Engine::recall` (and `recall_sweep`,
//! `recall_trace`). The server calls it before admission, so a stored
//! answer costs one store read; `run` (so every sweep cell) and
//! `run_trace` start with the same routine, so every hit is counted the
//! same way.
//!
//! Every job reads the store first, classifies on one thread and stores
//! its answer: results are byte-identical for every thread count, so the
//! daemon's parallelism is its `--workers`, across jobs, and no job
//! carries a thread count or a store switch.
//!
//! Identical jobs that arrive while one is already computing
//! are *coalesced*: one leader runs the analysis, followers block on its
//! flight slot and receive the same payload `Arc` — safe because equal
//! fingerprints render equal bytes by construction. A leader that fails
//! (error or panic — the flight guard publishes on `Drop`) wakes its
//! followers to retry, each under its own deadline; nobody inherits a
//! stranger's failure.
//!
//! All shared state is guarded by poison-recovering locks
//! ([`crate::fault::lock_recover`]): a panicking worker must cost one
//! request, not wedge every later one. Each map update is single-step, so
//! the state behind a poisoned lock is always consistent.

use crate::fault::{self, FaultSite, Faults};
use crate::metrics::Metrics;
use crate::store::{Store, StoredResult};
use cme_analysis::{CancelToken, EstimateMisses, FindMisses, Report, SamplingOptions, Threads};
use cme_cache::CacheConfig;
use cme_ir::{fingerprint_program, structural_fingerprint, Fingerprint, FpHasher, Program};
use cme_reuse::ReuseAnalysis;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Exact or sampled analysis. The embedded options' `threads` and
/// `prepass` fields are *ignored* for fingerprinting — neither changes
/// results. `threads` is overridden at run time (the engine classifies
/// serially); `prepass` is honoured (wire requests always run it on).
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisMode {
    Exact,
    Estimate(SamplingOptions),
}

/// One unit of work for the engine. The engine always runs the counting
/// evaluator ([`cme_analysis::WalkStrategy::SetSkip`]) with the hit/miss
/// pre-pass on, for every wire request; the slower reference paths are
/// reachable only in process: `PrepassMode::Off` through an estimate job's
/// [`SamplingOptions`], `WalkStrategy::LegacyScan` through `cme_analysis`
/// directly.
#[derive(Debug)]
pub struct Job<'p> {
    pub program: &'p Program,
    pub config: CacheConfig,
    pub mode: AnalysisMode,
    /// Cap on reuse vectors per consumer (`None` = uncapped), as accepted
    /// by `ReuseAnalysis::analyze_capped`. Part of the fingerprint: capping
    /// can change results.
    pub reuse_cap: Option<usize>,
    pub cancel: CancelToken,
}

impl<'p> Job<'p> {
    /// A default estimate job.
    pub fn estimate(program: &'p Program, config: CacheConfig, options: SamplingOptions) -> Self {
        Job {
            program,
            config,
            mode: AnalysisMode::Estimate(options),
            reuse_cap: None,
            cancel: CancelToken::never(),
        }
    }

    /// A default exact job.
    pub fn exact(program: &'p Program, config: CacheConfig) -> Self {
        Job {
            program,
            config,
            mode: AnalysisMode::Exact,
            reuse_cap: None,
            cancel: CancelToken::never(),
        }
    }
}

/// A finished (or memoised) analysis.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub fingerprint: Fingerprint,
    /// The canonical report payload; byte-identical for equal fingerprints.
    pub payload: Arc<String>,
    /// Whether the payload came from the store.
    pub from_store: bool,
    /// Points classified (by this run, or recorded with the stored result).
    pub points: u64,
    /// Analysis wall time (zero for store hits).
    pub wall: Duration,
    pub miss_ratio: f64,
    /// The report's exact miss count (`None` for estimates).
    pub exact_misses: Option<u64>,
    /// Points the hit/miss pre-pass resolved (zero for store hits: the
    /// stored payload carries no mode-dependent diagnostics). Equal to
    /// `points` when nothing was walked.
    pub prepass_resolved: u64,
    /// Whether this outcome was coalesced onto an identical in-flight job
    /// (single-flight follower: same bytes, no recomputation).
    pub coalesced: bool,
}

impl Outcome {
    /// What the store keeps of this outcome (and a flight hands its
    /// followers).
    fn summary(&self) -> StoredResult {
        StoredResult {
            payload: self.payload.clone(),
            miss_ratio: self.miss_ratio,
            points: self.points,
            exact_misses: self.exact_misses,
        }
    }
}

/// Why an analysis did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The job's deadline passed mid-analysis.
    Timeout { points_done: u64 },
    /// The job was cancelled explicitly (e.g. client disconnected).
    Cancelled { points_done: u64 },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Timeout { points_done } => {
                write!(f, "deadline exceeded after {points_done} classified points")
            }
            EngineError::Cancelled { points_done } => {
                write!(f, "cancelled after {points_done} classified points")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The content-addressed job key: program (including layout), cache
/// geometry, analysis mode and reuse cap. The sampling options' thread
/// count and pre-pass mode are deliberately excluded — results are
/// byte-identical across both.
pub fn job_fingerprint(
    program: &Program,
    config: CacheConfig,
    mode: &AnalysisMode,
    reuse_cap: Option<usize>,
) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_str("cme-job-v1");
    h.write_bytes(&fingerprint_program(program).0.to_le_bytes());
    h.write_u64(config.size_bytes());
    h.write_u64(config.line_bytes());
    h.write_u64(config.assoc() as u64);
    match mode {
        AnalysisMode::Exact => h.write_u8(0),
        AnalysisMode::Estimate(o) => {
            h.write_u8(1);
            h.write_f64(o.confidence);
            h.write_f64(o.width);
            h.write_u64(o.seed);
            match o.fallback {
                None => h.write_u8(0),
                Some((c, w)) => {
                    h.write_u8(1);
                    h.write_f64(c);
                    h.write_f64(w);
                }
            }
            // `o.threads` and `o.prepass` excluded on purpose.
        }
    }
    match reuse_cap {
        None => h.write_u8(0),
        Some(c) => {
            h.write_u8(1);
            h.write_u64(c as u64);
        }
    }
    h.finish()
}

/// The fingerprint of every cell of a sweep grid: its ordinary
/// single-geometry exact job key.
pub(crate) fn sweep_fingerprints(
    program: &Program,
    geometries: &[CacheConfig],
) -> Vec<Fingerprint> {
    geometries
        .iter()
        .map(|&g| job_fingerprint(program, g, &AnalysisMode::Exact, None))
        .collect()
}

type ReuseKey = (u128, u64, u64);

/// A finished (or memoised) trace replay.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    pub fingerprint: Fingerprint,
    /// The canonical trace payload; byte-identical for equal fingerprints.
    pub payload: Arc<String>,
    /// Whether the payload came from the store.
    pub from_store: bool,
    /// Addresses in the trace (recorded with stored results too).
    pub accesses: u64,
    /// Replay wall time (zero for store hits).
    pub wall: Duration,
    pub miss_ratio: f64,
}

/// One unit of design-space exploration: a geometry grid over one
/// program, evaluated exactly. Each grid cell is an ordinary exact
/// [`Job`] under its single-geometry [`job_fingerprint`], so a sweep both
/// *answers from* and *populates* the same store as single queries.
#[derive(Debug)]
pub struct SweepJob<'p> {
    pub program: &'p Program,
    pub geometries: Vec<CacheConfig>,
    pub cancel: CancelToken,
}

impl<'p> SweepJob<'p> {
    /// A sweep job with no deadline.
    pub fn exact(program: &'p Program, geometries: Vec<CacheConfig>) -> Self {
        SweepJob {
            program,
            geometries,
            cancel: CancelToken::never(),
        }
    }
}

/// One evaluated grid cell. `payload` is the canonical single-geometry
/// report — byte-identical to what a lone `analyze` of this geometry
/// returns (that is the sweep's correctness contract).
#[derive(Debug, Clone)]
pub struct SweepCell {
    pub config: CacheConfig,
    pub fingerprint: Fingerprint,
    pub payload: Arc<String>,
    /// Whether this cell was answered from the store.
    pub from_store: bool,
    pub points: u64,
    pub miss_ratio: f64,
    /// Exact miss count (always present for exact cells; `None` only if a
    /// stored payload predates exact mode).
    pub misses: Option<u64>,
}

impl SweepCell {
    /// The cell of `config`, answered by its single query's outcome.
    fn new(config: CacheConfig, out: Outcome) -> SweepCell {
        SweepCell {
            config,
            fingerprint: out.fingerprint,
            misses: out.exact_misses,
            payload: out.payload,
            from_store: out.from_store,
            points: out.points,
            miss_ratio: out.miss_ratio,
        }
    }
}

/// A finished sweep: cells ranked by ascending miss ratio (ties keep grid
/// order).
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    pub cells: Vec<SweepCell>,
    pub wall: Duration,
    /// Cells answered from the store.
    pub store_hits: u64,
    /// Distinct cells this sweep computed: neither stored nor coalesced
    /// onto an identical job in flight.
    pub computed: u64,
}

/// The state of one in-flight job fingerprint.
enum FlightState {
    Running,
    /// `Ok`: the leader's bytes. `Err`: the leader failed (timeout, cancel
    /// or panic) — followers retry under their own deadlines.
    Done(Result<StoredResult, ()>),
}

/// One single-flight slot: followers block on `cv` until the leader
/// publishes.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    /// Blocks until the leader publishes, polling the follower's own
    /// cancel token so a hung leader cannot strand a follower past its
    /// deadline. `Ok(None)` means the leader failed: retry.
    fn wait(
        &self,
        cancel: &cme_analysis::CancelToken,
    ) -> Result<Option<StoredResult>, EngineError> {
        let mut state = fault::lock_recover(&self.state);
        loop {
            match &*state {
                FlightState::Done(Ok(result)) => return Ok(Some(result.clone())),
                FlightState::Done(Err(())) => return Ok(None),
                FlightState::Running => {
                    if cancel.is_cancelled() {
                        return Err(if cancel.deadline_exceeded() {
                            EngineError::Timeout { points_done: 0 }
                        } else {
                            EngineError::Cancelled { points_done: 0 }
                        });
                    }
                    let (guard, _) =
                        fault::wait_timeout_recover(&self.cv, state, Duration::from_millis(10));
                    state = guard;
                }
            }
        }
    }
}

/// Removes the flight slot and publishes the leader's result when dropped.
/// Dropping without [`FlightGuard::finish`] — an unwinding panic — marks
/// the flight failed, so followers never hang on a dead leader.
struct FlightGuard<'e> {
    engine: &'e Engine,
    fp: u128,
    flight: Arc<Flight>,
    result: Option<Result<StoredResult, ()>>,
}

impl FlightGuard<'_> {
    fn finish(mut self, result: Result<StoredResult, ()>) {
        self.result = Some(result);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        fault::lock_recover(&self.engine.inflight).remove(&self.fp);
        let mut state = fault::lock_recover(&self.flight.state);
        *state = FlightState::Done(self.result.take().unwrap_or(Err(())));
        drop(state);
        self.flight.cv.notify_all();
    }
}

/// The memoising analysis engine. Share it behind an `Arc`.
pub struct Engine {
    store: Store,
    reuse_cache: Mutex<HashMap<ReuseKey, Arc<ReuseAnalysis>>>,
    /// Single-flight slots: job fingerprints currently computing.
    inflight: Mutex<HashMap<u128, Arc<Flight>>>,
    metrics: Metrics,
    faults: Faults,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").finish_non_exhaustive()
    }
}

impl Engine {
    /// An engine over an existing store.
    pub fn new(store: Store) -> Engine {
        Engine::with_faults(store, None)
    }

    /// An engine with a fault plan threaded through analyses (the store's
    /// plan is set separately at `Store::open_with`).
    pub fn with_faults(store: Store, faults: Faults) -> Engine {
        Engine {
            store,
            reuse_cache: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            metrics: Metrics::new(),
            faults,
        }
    }

    /// An engine with a purely in-memory store of `capacity` results.
    pub fn in_memory(capacity: usize) -> Engine {
        Engine::new(Store::in_memory(capacity))
    }

    pub fn store(&self) -> &Store {
        &self.store
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The reuse cache's gauges: cached analyses, and the heap bytes they
    /// hold (exact: an analysis is four flat buffers).
    pub fn reuse_cache_usage(&self) -> (usize, usize) {
        let cache = fault::lock_recover(&self.reuse_cache);
        (cache.len(), cache.values().map(|r| r.heap_bytes()).sum())
    }

    /// The cached reuse analysis for the job's `(program structure, line
    /// size, cap)` key — the geometry-independent half of every analysis,
    /// shared across capacities, associativities and padded layouts.
    fn reuse_for(&self, job: &Job) -> Arc<ReuseAnalysis> {
        let line_bytes = job.config.line_bytes();
        let key: ReuseKey = (
            structural_fingerprint(job.program).0,
            line_bytes,
            job.reuse_cap.map_or(u64::MAX, |c| c as u64),
        );
        if let Some(hit) = fault::lock_recover(&self.reuse_cache).get(&key) {
            Metrics::bump(&self.metrics.reuse_hits);
            return hit.clone();
        }
        Metrics::bump(&self.metrics.reuse_misses);
        let reuse = Arc::new(match job.reuse_cap {
            Some(cap) => ReuseAnalysis::analyze_capped(job.program, line_bytes, cap),
            None => ReuseAnalysis::analyze(job.program, line_bytes),
        });
        fault::lock_recover(&self.reuse_cache).insert(key, reuse.clone());
        reuse
    }

    /// The stored answer to the job keyed `fp`, counted as a store hit.
    pub(crate) fn recall(&self, fp: Fingerprint) -> Option<Outcome> {
        let hit = self.store.get(fp)?;
        Metrics::bump(&self.metrics.store_hits);
        Some(stored_outcome(fp, hit))
    }

    /// Runs (or recalls) one job: store lookup, then single-flight
    /// coalescing onto an identical in-flight job, then the analysis and
    /// the store write.
    pub fn run(&self, job: &Job) -> Result<Outcome, EngineError> {
        let fp = job_fingerprint(job.program, job.config, &job.mode, job.reuse_cap);
        self.run_keyed(job, fp)
    }

    /// [`Engine::run`] for a job whose fingerprint `fp` is already known.
    fn run_keyed(&self, job: &Job, fp: Fingerprint) -> Result<Outcome, EngineError> {
        loop {
            if let Some(hit) = self.recall(fp) {
                return Ok(hit);
            }

            // Claim the flight slot or join an existing one.
            let role = {
                let mut inflight = fault::lock_recover(&self.inflight);
                match inflight.get(&fp.0) {
                    Some(existing) => Err(existing.clone()),
                    None => {
                        let fresh = Arc::new(Flight {
                            state: Mutex::new(FlightState::Running),
                            cv: Condvar::new(),
                        });
                        inflight.insert(fp.0, fresh.clone());
                        Ok(fresh)
                    }
                }
            };
            match role {
                Ok(flight) => {
                    // Leader: compute, publish to followers via the guard
                    // (which publishes failure even on an unwinding panic).
                    let guard = FlightGuard {
                        engine: self,
                        fp: fp.0,
                        flight,
                        result: None,
                    };
                    Metrics::bump(&self.metrics.store_misses);
                    let outcome = self.compute(job, fp);
                    guard.finish(outcome.as_ref().map(Outcome::summary).map_err(|_| ()));
                    return outcome;
                }
                Err(flight) => {
                    // Follower: wait for the leader's bytes; on leader
                    // failure, loop and try again (the store may have been
                    // populated meanwhile, or we become the leader).
                    Metrics::bump(&self.metrics.single_flight_waits);
                    match flight.wait(&job.cancel)? {
                        Some(result) => {
                            return Ok(Outcome {
                                from_store: false,
                                coalesced: true,
                                ..stored_outcome(fp, result)
                            })
                        }
                        None => continue,
                    }
                }
            }
        }
    }

    /// The actual analysis: reuse vectors, cancellable serial
    /// classification, canonical payload, store write-through.
    fn compute(&self, job: &Job, fp: Fingerprint) -> Result<Outcome, EngineError> {
        let start = Instant::now();
        fault::maybe_sleep(&self.faults, FaultSite::AnalysisDelay);
        let reuse = self.reuse_for(job);
        let report = match &job.mode {
            AnalysisMode::Exact => FindMisses::with_reuse(job.program, job.config, reuse)
                .threads(Threads::Fixed(1))
                .run_cancellable(&job.cancel),
            AnalysisMode::Estimate(options) => {
                let options = SamplingOptions {
                    threads: Threads::Fixed(1),
                    ..options.clone()
                };
                EstimateMisses::with_reuse(job.program, job.config, options, reuse)
                    .run_cancellable(&job.cancel)
            }
        }
        .map_err(|c| {
            if job.cancel.deadline_exceeded() {
                Metrics::bump(&self.metrics.timeouts);
                EngineError::Timeout {
                    points_done: c.points_done,
                }
            } else {
                Metrics::bump(&self.metrics.cancelled);
                EngineError::Cancelled {
                    points_done: c.points_done,
                }
            }
        })?;
        let wall = start.elapsed();

        let points: u64 = report.references().iter().map(|r| r.analyzed).sum();
        let miss_ratio = report.miss_ratio();
        let prepass_resolved = report.prepass_resolved();
        let payload = Arc::new(render_payload(job.program, job.config, &job.mode, &report));
        self.metrics.add_classified(points, prepass_resolved);
        Metrics::add(&self.metrics.analysis_wall_us, wall.as_micros() as u64);
        let outcome = Outcome {
            fingerprint: fp,
            payload,
            from_store: false,
            points,
            wall,
            miss_ratio,
            exact_misses: report.exact_misses(),
            prepass_resolved,
            coalesced: false,
        };
        self.store.put(fp, outcome.summary());
        Ok(outcome)
    }

    /// Replays a binary trace (raw or framed bytes, exactly as on the
    /// wire) against `config` in one streaming pass, memoised under the
    /// trace fingerprint — the FNV-1a/128 of the bytes plus the geometry,
    /// so a repeat replay of the same trace content is answered from the
    /// store without decoding.
    ///
    /// Errors (a malformed trace) are client-facing strings.
    pub fn run_trace(
        &self,
        trace_bytes: &[u8],
        config: CacheConfig,
    ) -> Result<TraceOutcome, String> {
        let fp = cme_trace::trace_fingerprint(trace_bytes, &config);
        if let Some(hit) = self.recall_trace(fp) {
            return Ok(hit);
        }
        Metrics::bump(&self.metrics.trace_store_misses);

        let start = Instant::now();
        let stats = cme_trace::TraceReader::new(trace_bytes)
            .and_then(|mut reader| cme_trace::replay_reader(config, &mut reader))
            .map_err(|e| format!("trace: {e}"))?;
        let wall = start.elapsed();

        let payload = Arc::new(render_trace_payload(config, &stats));
        Metrics::add(&self.metrics.trace_accesses_replayed, stats.accesses);
        Metrics::add(&self.metrics.trace_wall_us, wall.as_micros() as u64);
        self.store.put(
            fp,
            StoredResult {
                payload: payload.clone(),
                miss_ratio: stats.miss_ratio(),
                points: stats.accesses,
                exact_misses: None,
            },
        );
        Ok(TraceOutcome {
            fingerprint: fp,
            payload,
            from_store: false,
            accesses: stats.accesses,
            wall,
            miss_ratio: stats.miss_ratio(),
        })
    }

    /// The stored replay keyed `fp`, counted as a trace store hit.
    pub(crate) fn recall_trace(&self, fp: Fingerprint) -> Option<TraceOutcome> {
        let hit = self.store.get(fp)?;
        Metrics::bump(&self.metrics.trace_store_hits);
        Some(TraceOutcome {
            fingerprint: fp,
            payload: hit.payload,
            from_store: true,
            accesses: hit.points,
            wall: Duration::ZERO,
            miss_ratio: hit.miss_ratio,
        })
    }

    /// A sweep answered wholly from the store, its cells counted as store
    /// hits; `None`, with nothing counted, if any cell is missing. `fps`
    /// are the cells' [`sweep_fingerprints`]. Every cell is looked up
    /// before any payload is parsed, so a partly stored grid costs lookups
    /// only: [`Engine::run_sweep`] then reads each stored cell once.
    pub(crate) fn recall_sweep(
        &self,
        geometries: &[CacheConfig],
        fps: &[Fingerprint],
    ) -> Option<SweepOutcome> {
        let start = Instant::now();
        let hits: Vec<StoredResult> = fps
            .iter()
            .map(|&fp| self.store.get(fp))
            .collect::<Option<_>>()?;
        Metrics::bump(&self.metrics.sweep_requests);
        Metrics::add(&self.metrics.store_hits, hits.len() as u64);
        let cells = geometries
            .iter()
            .zip(fps)
            .zip(hits)
            .map(|((&config, &fp), hit)| SweepCell::new(config, stored_outcome(fp, hit)))
            .collect();
        Some(self.ranked(cells, start, 0))
    }

    /// Finishes a sweep: counts its cells, store hits and wall time, and
    /// ranks the cells by ascending miss ratio (a stable sort keeps grid
    /// order on ties).
    fn ranked(&self, mut cells: Vec<SweepCell>, start: Instant, computed: u64) -> SweepOutcome {
        let wall = start.elapsed();
        let store_hits = cells.iter().filter(|c| c.from_store).count() as u64;
        Metrics::add(&self.metrics.sweep_cells, cells.len() as u64);
        Metrics::add(&self.metrics.sweep_cell_store_hits, store_hits);
        Metrics::add(&self.metrics.sweep_wall_us, wall.as_micros() as u64);
        cells.sort_by(|a, b| {
            a.miss_ratio
                .partial_cmp(&b.miss_ratio)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        SweepOutcome {
            cells,
            wall,
            store_hits,
            computed,
        }
    }

    /// Evaluates a geometry grid as a loop of single queries: each
    /// distinct cell, in grid order, runs as an exact [`Job`] with the
    /// sweep's cancel token, so it is looked up, coalesced onto an
    /// identical job in flight, computed and stored exactly as a lone
    /// query of its geometry. A duplicate geometry copies its twin's
    /// cell. The engine's reuse cache gives every cell of one line size
    /// the same reuse analysis.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when the deadline passes or the client hangs up
    /// mid-sweep; cells completed before it stay in the store.
    pub fn run_sweep(&self, job: &SweepJob) -> Result<SweepOutcome, EngineError> {
        let fps = sweep_fingerprints(job.program, &job.geometries);
        let start = Instant::now();
        Metrics::bump(&self.metrics.sweep_requests);
        let mut cells: Vec<SweepCell> = Vec::with_capacity(fps.len());
        let mut computed = 0;
        for (i, (&config, &fp)) in job.geometries.iter().zip(&fps).enumerate() {
            if let Some(twin) = fps[..i].iter().position(|&f| f == fp) {
                cells.push(cells[twin].clone());
                continue;
            }
            let cell = Job {
                cancel: job.cancel.clone(),
                ..Job::exact(job.program, config)
            };
            let out = self.run_keyed(&cell, fp)?;
            computed += u64::from(!(out.from_store || out.coalesced));
            cells.push(SweepCell::new(config, out));
        }
        Ok(self.ranked(cells, start, computed))
    }
}

/// The outcome of a stored answer.
fn stored_outcome(fingerprint: Fingerprint, hit: StoredResult) -> Outcome {
    Outcome {
        fingerprint,
        payload: hit.payload,
        from_store: true,
        points: hit.points,
        wall: Duration::ZERO,
        miss_ratio: hit.miss_ratio,
        exact_misses: hit.exact_misses,
        prepass_resolved: 0,
        coalesced: false,
    }
}

/// Renders the canonical report payload. Deliberately excludes anything
/// nondeterministic (wall time, thread counts): two runs of the same job
/// must produce the same bytes.
pub fn render_payload(
    program: &Program,
    config: CacheConfig,
    mode: &AnalysisMode,
    report: &Report,
) -> String {
    use crate::json::{obj, Json};
    use cme_analysis::Coverage;

    let mut fields = vec![
        ("program", Json::Str(program.name().to_string())),
        ("cache", Json::Str(config.to_string())),
        (
            "mode",
            Json::Str(
                match mode {
                    AnalysisMode::Exact => "exact",
                    AnalysisMode::Estimate(_) => "estimate",
                }
                .to_string(),
            ),
        ),
    ];
    if let AnalysisMode::Estimate(o) = mode {
        fields.push((
            "sampling",
            obj(vec![
                ("confidence", Json::Float(o.confidence)),
                ("width", Json::Float(o.width)),
                ("seed", Json::Int(o.seed as i64)),
            ]),
        ));
    }
    let points: u64 = report.references().iter().map(|r| r.analyzed).sum();
    fields.push(("total_accesses", Json::Int(report.total_accesses() as i64)));
    fields.push(("points", Json::Int(points as i64)));
    fields.push(("miss_ratio", Json::Float(report.miss_ratio())));
    fields.push(("estimated_misses", Json::Float(report.estimated_misses())));
    fields.push((
        "exact_misses",
        match report.exact_misses() {
            Some(m) => Json::Int(m as i64),
            None => Json::Null,
        },
    ));
    let refs: Vec<Json> = report
        .references()
        .iter()
        .map(|rr| {
            obj(vec![
                (
                    "display",
                    Json::Str(program.reference(rr.r).display.clone()),
                ),
                ("ris", Json::Int(rr.ris_size as i64)),
                ("analyzed", Json::Int(rr.analyzed as i64)),
                ("cold", Json::Int(rr.cold as i64)),
                ("replacement", Json::Int(rr.replacement as i64)),
                ("hits", Json::Int(rr.hits as i64)),
                ("miss_ratio", Json::Float(rr.miss_ratio())),
                (
                    "coverage",
                    match rr.coverage {
                        Coverage::Exhaustive => Json::Str("exhaustive".to_string()),
                        Coverage::Sampled { samples } => Json::Int(samples as i64),
                    },
                ),
            ])
        })
        .collect();
    fields.push(("refs", Json::Arr(refs)));
    obj(fields).render()
}

/// Renders the canonical trace payload. Like [`render_payload`], excludes
/// wall time: equal fingerprints render equal bytes.
pub fn render_trace_payload(config: CacheConfig, stats: &cme_trace::TraceStats) -> String {
    use crate::json::{obj, Json};
    obj(vec![
        ("kind", Json::Str("trace".to_string())),
        ("cache", Json::Str(config.to_string())),
        ("geometry", Json::Str(config.geometry_string())),
        ("accesses", Json::Int(stats.accesses as i64)),
        ("hits", Json::Int(stats.hits as i64)),
        ("cold", Json::Int(stats.cold as i64)),
        ("replacement", Json::Int(stats.replacement as i64)),
        ("misses", Json::Int(stats.misses() as i64)),
        ("miss_ratio", Json::Float(stats.miss_ratio())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_analysis::PrepassMode;
    use cme_ir::{LinExpr, ProgramBuilder, SNode, SRef};

    fn small_program() -> Program {
        let mut b = ProgramBuilder::new("engine-test");
        b.array("A", &[64, 64], 8);
        let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
        b.push(SNode::loop_(
            "J",
            1,
            64,
            vec![SNode::loop_(
                "I",
                1,
                64,
                vec![SNode::reads_only(vec![SRef::new(
                    "A",
                    vec![i.clone(), j.clone()],
                )])],
            )],
        ));
        b.build().unwrap()
    }

    #[test]
    fn fingerprint_distinguishes_jobs() {
        let p = small_program();
        let c1 = CacheConfig::new(1024, 32, 1).unwrap();
        let c2 = CacheConfig::new(2048, 32, 1).unwrap();
        let exact = job_fingerprint(&p, c1, &AnalysisMode::Exact, None);
        assert_eq!(exact, job_fingerprint(&p, c1, &AnalysisMode::Exact, None));
        assert_ne!(exact, job_fingerprint(&p, c2, &AnalysisMode::Exact, None));
        let est = AnalysisMode::Estimate(SamplingOptions::paper_default());
        assert_ne!(exact, job_fingerprint(&p, c1, &est, None));
        assert_ne!(
            job_fingerprint(&p, c1, &est, None),
            job_fingerprint(&p, c1, &est, Some(64))
        );
        // Thread count must NOT affect the fingerprint.
        let mut threaded = SamplingOptions::paper_default();
        threaded.threads = Threads::Fixed(7);
        assert_eq!(
            job_fingerprint(&p, c1, &est, None),
            job_fingerprint(&p, c1, &AnalysisMode::Estimate(threaded), None)
        );
    }

    #[test]
    fn store_hit_returns_identical_payload() {
        let p = small_program();
        let cfg = CacheConfig::new(1024, 32, 2).unwrap();
        let engine = Engine::in_memory(8);
        let cold = engine.run(&Job::exact(&p, cfg)).unwrap();
        assert!(!cold.from_store);
        let hot = engine.run(&Job::exact(&p, cfg)).unwrap();
        assert!(hot.from_store);
        assert_eq!(&*cold.payload, &*hot.payload);
        assert_eq!(cold.miss_ratio, hot.miss_ratio);
        assert_eq!(cold.points, hot.points);
        use std::sync::atomic::Ordering;
        assert_eq!(engine.metrics().store_hits.load(Ordering::Relaxed), 1);
        assert_eq!(engine.metrics().store_misses.load(Ordering::Relaxed), 1);
    }

    /// The pre-pass always runs on fresh analyses and sweep cells, and its
    /// counters add up to the classified points; store hits classify
    /// nothing and add nothing.
    #[test]
    fn prepass_metrics_count_fresh_runs_only() {
        use std::sync::atomic::Ordering;
        let p = small_program();
        let cfg = CacheConfig::new(1024, 32, 2).unwrap();
        let engine = Engine::in_memory(64);
        let cold = engine.run(&Job::exact(&p, cfg)).unwrap();
        assert!(cold.prepass_resolved > 0, "sequential scan should resolve");
        let hot = engine.run(&Job::exact(&p, cfg)).unwrap();
        assert!(hot.from_store);
        assert_eq!(hot.prepass_resolved, 0);
        let m = engine.metrics();
        assert_eq!(
            m.prepass_resolved_points.load(Ordering::Relaxed),
            cold.prepass_resolved
        );
        let split = |m: &Metrics| {
            m.prepass_resolved_points.load(Ordering::Relaxed)
                + m.prepass_unresolved_points.load(Ordering::Relaxed)
        };
        assert_eq!(split(m), cold.points);
        // A cold sweep counts its computed cells on both sides too.
        let out = engine
            .run_sweep(&SweepJob::exact(&p, sweep_grid()))
            .unwrap();
        assert!(out.computed > 0);
        assert_eq!(split(m), m.points_classified.load(Ordering::Relaxed));
    }

    #[test]
    fn reuse_cache_shared_across_layouts() {
        use std::sync::atomic::Ordering;
        let p = small_program();
        let padded = p.with_padding(&[32]);
        let cfg = CacheConfig::new(1024, 32, 2).unwrap();
        let engine = Engine::in_memory(8);
        engine.run(&Job::exact(&p, cfg)).unwrap();
        engine.run(&Job::exact(&padded, cfg)).unwrap();
        assert_eq!(engine.metrics().reuse_misses.load(Ordering::Relaxed), 1);
        assert_eq!(engine.metrics().reuse_hits.load(Ordering::Relaxed), 1);
    }

    /// Two estimate jobs at geometries with one line size share one reuse
    /// analysis: generated once, and handed to each analysis as the cached
    /// allocation rather than a copy.
    #[test]
    fn estimate_jobs_share_the_cached_reuse_analysis() {
        use std::sync::atomic::Ordering;
        let p = small_program();
        let geometries = [
            CacheConfig::new(1024, 32, 2).unwrap(),
            CacheConfig::new(4096, 32, 1).unwrap(),
        ];
        let engine = Engine::in_memory(8);
        for cfg in geometries {
            let job = Job::estimate(&p, cfg, SamplingOptions::paper_default());
            assert!(!engine.run(&job).unwrap().from_store);
        }
        assert_eq!(engine.metrics().reuse_misses.load(Ordering::Relaxed), 1);
        assert_eq!(engine.metrics().reuse_hits.load(Ordering::Relaxed), 1);
        let cached = engine.reuse_for(&Job::exact(&p, geometries[0]));
        assert_eq!(Arc::strong_count(&cached), 2, "no analysis kept a share");
        for cfg in geometries {
            let job = Job::estimate(&p, cfg, SamplingOptions::paper_default());
            let reuse = engine.reuse_for(&job);
            assert!(Arc::ptr_eq(&reuse, &cached));
            let em = EstimateMisses::with_reuse(&p, cfg, SamplingOptions::paper_default(), reuse);
            assert!(Arc::ptr_eq(em.reuse(), &cached), "{cfg}: copied");
            let fm = FindMisses::with_reuse(&p, cfg, cached.clone());
            assert!(Arc::ptr_eq(fm.reuse(), &cached), "{cfg}: copied");
        }
    }

    /// An exact job answers a problem size the engine has never seen
    /// without walking a single point, byte-identical to the walked report
    /// at that size.
    #[test]
    fn fully_resolved_job_answers_new_size_without_walking() {
        fn scan(n: i64) -> Program {
            let mut b = ProgramBuilder::new("scan");
            b.array("A", &[n, n], 8);
            let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
            b.push(SNode::loop_(
                "J",
                1,
                n,
                vec![SNode::loop_(
                    "I",
                    1,
                    n,
                    vec![SNode::reads_only(vec![SRef::new(
                        "A",
                        vec![i.clone(), j.clone()],
                    )])],
                )],
            ));
            b.build().unwrap()
        }
        let cfg = CacheConfig::new(1024, 32, 2).unwrap();
        let engine = Engine::in_memory(8);
        for n in [48, 72] {
            let p = scan(n);
            let resolved = engine.run(&Job::exact(&p, cfg)).unwrap();
            assert!(!resolved.from_store, "n={n} was never analysed");
            assert_eq!(resolved.prepass_resolved, resolved.points, "n={n}");

            let walked = FindMisses::new(&p, cfg).prepass(PrepassMode::Off).run();
            let payload = render_payload(&p, cfg, &AnalysisMode::Exact, &walked);
            assert_eq!(&*resolved.payload, &payload, "n={n}");
        }
    }

    /// A repeat trace replay — same bytes, same geometry — is answered
    /// from the store with a byte-identical payload; a different geometry
    /// or different bytes miss.
    #[test]
    fn trace_replay_memoises_by_content_and_geometry() {
        use std::sync::atomic::Ordering;
        let p = small_program();
        let cfg = CacheConfig::new(1024, 32, 2).unwrap();
        let engine = Engine::in_memory(8);
        let words = cme_trace::generate(&p).unwrap();
        let bytes = cme_trace::frame_bytes(&cfg, &words);

        let cold = engine.run_trace(&bytes, cfg).unwrap();
        assert!(!cold.from_store);
        assert_eq!(cold.accesses, p.total_accesses());
        let hot = engine.run_trace(&bytes, cfg).unwrap();
        assert!(hot.from_store, "same content and geometry must hit");
        assert_eq!(&*cold.payload, &*hot.payload);
        assert_eq!(hot.accesses, cold.accesses);
        assert_eq!(engine.metrics().trace_store_hits.load(Ordering::Relaxed), 1);
        assert_eq!(
            engine.metrics().trace_store_misses.load(Ordering::Relaxed),
            1
        );

        let other = CacheConfig::new(2048, 32, 2).unwrap();
        let refr = engine.run_trace(&bytes, other).unwrap();
        assert!(!refr.from_store, "geometry is part of the key");

        // The payload parses and agrees with the reference simulator.
        let v = crate::json::Json::parse(&cold.payload).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("trace"));
        let sim = cme_cache::Simulator::new(cfg).run(&p);
        assert_eq!(v.get("misses").unwrap().as_u64(), Some(sim.total_misses()));
    }

    #[test]
    fn malformed_trace_is_a_client_error() {
        let engine = Engine::in_memory(8);
        let cfg = CacheConfig::new(1024, 32, 2).unwrap();
        // Truncated payload: framed header promising more than it carries.
        let mut bytes = cme_trace::frame_bytes(&cfg, &[1, 2, 3, 4]);
        bytes.truncate(bytes.len() - 2);
        let err = engine.run_trace(&bytes, cfg).unwrap_err();
        assert!(err.starts_with("trace:"), "{err}");
    }

    #[test]
    fn timeout_surfaces_as_engine_error() {
        let p = small_program();
        let cfg = CacheConfig::new(1024, 32, 2).unwrap();
        let engine = Engine::in_memory(8);
        let mut job = Job::exact(&p, cfg);
        job.cancel = CancelToken::with_timeout(Duration::ZERO);
        match engine.run(&job) {
            Err(EngineError::Timeout { .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    fn sweep_grid() -> Vec<CacheConfig> {
        CacheConfig::parse_geometry_grid("1K,2K,4K:1,2:16,32").unwrap()
    }

    /// The sweep correctness contract at the engine level: every cell is
    /// byte-identical to an independent single-geometry run on another
    /// engine, and the ranked table is sorted by miss ratio.
    #[test]
    fn sweep_cells_match_single_queries() {
        let p = small_program();
        let grid = sweep_grid();
        let engine = Engine::in_memory(64);
        let out = engine
            .run_sweep(&SweepJob::exact(&p, grid.clone()))
            .unwrap();
        assert_eq!(out.cells.len(), grid.len());
        assert_eq!(out.computed, grid.len() as u64);
        for w in out.cells.windows(2) {
            assert!(w[0].miss_ratio <= w[1].miss_ratio, "ranked ascending");
        }
        let solo = Engine::in_memory(64);
        for cell in &out.cells {
            let reference = solo.run(&Job::exact(&p, cell.config)).unwrap();
            assert!(!reference.from_store);
            assert_eq!(&*cell.payload, &*reference.payload, "{}", cell.config);
            assert_eq!(cell.fingerprint, reference.fingerprint);
            assert_eq!(cell.points, reference.points);
        }
    }

    /// Sweep-then-query store addressing: after a grid sweep, a single
    /// query on any swept geometry is a store hit, byte-identical to its
    /// sweep cell — and a repeat sweep computes nothing. A cell counts as
    /// the query it is: a store miss when computed, a store hit (and a
    /// sweep cell store hit) when recalled.
    #[test]
    fn sweep_populates_store_for_single_queries() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let p = small_program();
        let grid = sweep_grid();
        let k = grid.len() as u64;
        let engine = Engine::in_memory(64);
        let m = engine.metrics();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let out = engine
            .run_sweep(&SweepJob::exact(&p, grid.clone()))
            .unwrap();
        assert_eq!(out.store_hits, 0);
        assert_eq!(out.computed, k);
        assert_eq!(load(&m.store_misses), k, "a computed cell is a store miss");
        assert_eq!(load(&m.store_hits), 0);
        for cell in &out.cells {
            let hot = engine.run(&Job::exact(&p, cell.config)).unwrap();
            assert!(hot.from_store, "{} must be a store hit", cell.config);
            assert_eq!(&*hot.payload, &*cell.payload, "{}", cell.config);
        }
        let hits_before = load(&m.store_hits);
        let repeat = engine
            .run_sweep(&SweepJob::exact(&p, grid.clone()))
            .unwrap();
        assert_eq!(repeat.computed, 0, "repeat sweep is all store hits");
        assert_eq!(repeat.store_hits, k);
        for (a, b) in out.cells.iter().zip(&repeat.cells) {
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(&*a.payload, &*b.payload);
            assert_eq!(a.misses, b.misses, "store hits recover exact misses");
        }
        assert_eq!(load(&m.store_hits) - hits_before, k);
        assert_eq!(load(&m.sweep_cell_store_hits), k);
        assert_eq!(load(&m.store_misses), k, "the repeat computed nothing");
        // The converse direction: a lone query pre-fills its sweep cell.
        let fresh = Engine::in_memory(64);
        fresh.run(&Job::exact(&p, grid[3])).unwrap();
        let seeded = fresh.run_sweep(&SweepJob::exact(&p, grid.clone())).unwrap();
        assert_eq!(seeded.store_hits, 1, "prior query answers its cell");
        assert_eq!(seeded.computed, grid.len() as u64 - 1);
    }

    /// Duplicate grid cells compute once and answer identical twins.
    #[test]
    fn sweep_dedups_duplicate_geometries() {
        let p = small_program();
        let grid = sweep_grid();
        let engine = Engine::in_memory(64);
        let dup = SweepJob::exact(&p, vec![grid[0], grid[1], grid[0]]);
        let out = engine.run_sweep(&dup).unwrap();
        assert_eq!(out.computed, 2);
        let twins: Vec<&SweepCell> = out.cells.iter().filter(|c| c.config == grid[0]).collect();
        assert_eq!(twins.len(), 2);
        assert_eq!(&*twins[0].payload, &*twins[1].payload);
    }

    /// A sweep cell and a concurrent lone query of the same geometry are
    /// one job: the cell coalesces onto the query in flight (or reads its
    /// stored answer if it already finished), so the geometry is computed
    /// once and both answers carry the same bytes.
    #[test]
    fn sweep_cell_and_concurrent_query_compute_once() {
        use crate::fault::FaultPlan;
        use std::sync::atomic::Ordering;
        let p = cme_workloads::hydro(24, 24);
        let g = CacheConfig::parse_geometry("4K:1:32").unwrap();
        let h = CacheConfig::parse_geometry("8K:2:32").unwrap();
        // Every analysis first sleeps; with this seed the first sleep is
        // 99 ms, so the query is still computing when the sweep reaches g.
        let plan = FaultPlan::with_rates(188, &[(FaultSite::AnalysisDelay, 1000)]);
        let engine = Engine::with_faults(Store::in_memory(8), Some(Arc::new(plan)));
        let m = engine.metrics();
        let (single, sweep) = std::thread::scope(|s| {
            let single = s.spawn(|| engine.run(&Job::exact(&p, g)).unwrap());
            // The query leads g's flight once it has counted its miss.
            while m.store_misses.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            let sweep = engine.run_sweep(&SweepJob::exact(&p, vec![g, h]));
            (single.join().unwrap(), sweep.unwrap())
        });
        let cell = |c: CacheConfig| sweep.cells.iter().find(|x| x.config == c).unwrap();
        assert_eq!(&*cell(g).payload, &*single.payload, "same bytes for g");
        assert_eq!(
            m.points_classified.load(Ordering::Relaxed),
            single.points + cell(h).points,
            "g was computed once"
        );
        assert_eq!(sweep.computed, 1);
    }

    /// A sweep under an expired deadline fails with a timeout.
    #[test]
    fn sweep_timeout_surfaces_as_engine_error() {
        let p = small_program();
        let engine = Engine::in_memory(8);
        let mut job = SweepJob::exact(&p, sweep_grid());
        job.cancel = CancelToken::with_timeout(Duration::ZERO);
        match engine.run_sweep(&job) {
            Err(EngineError::Timeout { .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn payload_parses_and_summarises() {
        let p = small_program();
        let cfg = CacheConfig::new(1024, 32, 2).unwrap();
        let engine = Engine::in_memory(8);
        let out = engine.run(&Job::exact(&p, cfg)).unwrap();
        let v = crate::json::Json::parse(&out.payload).unwrap();
        assert_eq!(v.get("mode").unwrap().as_str(), Some("exact"));
        assert_eq!(v.get("points").unwrap().as_u64(), Some(out.points));
        assert_eq!(v.get("miss_ratio").unwrap().as_f64(), Some(out.miss_ratio));
        assert_eq!(
            v.get("refs").unwrap().as_arr().unwrap().len(),
            p.references().len()
        );
    }
}
