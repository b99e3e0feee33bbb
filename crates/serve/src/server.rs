//! The TCP front end: one lightweight reader thread per connection, with a
//! counting semaphore bounding how many *analyses* run at once.
//!
//! Cheap verbs (`ping`, `stats`, `compact`, `shutdown`) answer immediately
//! on any connection. A job (`analyze`, `sweep`, `trace`) looks for its
//! answer before it computes anything:
//!
//! 1. the front-end memo maps the request line's bytes to the
//!    fingerprint(s) an earlier `ok` answer to the same line is stored
//!    under, and a stored answer goes straight back;
//! 2. otherwise an `analyze` or `sweep` builds its program and
//!    fingerprints the job, and a stored answer goes straight back;
//! 3. only a store miss (its front end already ran) or a trace the memo
//!    did not answer (generating or reading a trace costs time in
//!    proportion to its length) passes *admission* and reaches the
//!    engine, which runs it on one thread and stores its answer.
//!
//! An `analyze` or `sweep` answer that computes nothing therefore never
//! holds a permit, never queues and never enters the service-time
//! estimate. Admission is a bounded queue that sheds load with a
//! structured `retry_after` error when the queue is full or when queue
//! depth × observed service time says the request's own deadline cannot
//! be met — better an honest early no than a guaranteed-late timeout.
//! Admitted requests then acquire an analysis permit; the time spent
//! waiting is the request's queue wait, reported in its response metrics.
//! Bounding analyses (rather than connections) means an idle client
//! holding its connection open never starves other clients.
//!
//! While an `analyze` or `sweep` computes, its connection is registered
//! with the server's one watcher thread, which `peek`s every registered
//! connection without blocking every 50 ms: a client that disconnects
//! cancels its own job through the [`CancelToken`], releasing the permit
//! within one poll plus one chunk of classification work. A finishing job
//! deregisters itself and answers at once; it never waits for a poll.
//! (A trace replay is not cancellable, so it is not watched.) A job
//! runs under `catch_unwind`: a panicking worker answers *its* client with
//! a structured `internal_error` and bumps `panics_caught` — the daemon
//! survives. Request lines are capped at [`MAX_LINE_BYTES`]; an oversized
//! line gets a structured error instead of unbounded buffering. Every
//! socket has Nagle's algorithm off and every line goes out in one write.
//! `shutdown` stops the accept loop and (optionally) dumps the aggregate
//! metrics as JSON.

use crate::engine::{
    job_fingerprint, sweep_fingerprints, AnalysisMode, Engine, EngineError, Job, Outcome, SweepJob,
    SweepOutcome, TraceOutcome,
};
use crate::fault::{self, FaultSite, Faults};
use crate::json::{obj, Json};
use crate::lru::Lru;
use crate::metrics::Metrics;
use crate::protocol::{
    error_response, AnalyzeRequest, Request, SweepRequest, TraceRequest, TraceSource,
};
use crate::store::Store;
use cme_analysis::CancelToken;
use cme_cache::CacheConfig;
use cme_ir::{Fingerprint, FpHasher, Program};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on one NDJSON request line. Any realistic program spec fits in
/// a fraction of this; past it the server answers a structured error and
/// closes, instead of buffering an unbounded (possibly hostile) line.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address; use port `0` for an ephemeral port.
    pub addr: String,
    /// Maximum concurrent analyses (0 = one per hardware thread, capped
    /// at 8).
    pub workers: usize,
    /// Directory for the on-disk result store (`None` = memory only).
    pub store_dir: Option<PathBuf>,
    /// In-memory result-store capacity; also the number of request lines
    /// the front-end memo remembers.
    pub store_capacity: usize,
    /// If set, the bound port is written here (for ephemeral-port callers).
    pub port_file: Option<PathBuf>,
    /// If set, aggregate metrics are dumped here as JSON on shutdown.
    pub metrics_dump: Option<PathBuf>,
    /// Maximum analyses waiting for a permit before new ones are shed.
    pub max_queue: usize,
    /// Fault-injection plan (chaos testing); `None` in production.
    pub faults: Faults,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            store_dir: None,
            store_capacity: 256,
            port_file: None,
            metrics_dump: None,
            max_queue: 64,
            faults: None,
        }
    }
}

/// Admission control: a counting semaphore (std has none) bounding
/// concurrent analyses, plus the bookkeeping that lets it say *no*
/// early — queue depth and an EWMA of observed service time.
struct Admission {
    permits_total: usize,
    max_queue: usize,
    state: Mutex<AdmissionState>,
    ready: Condvar,
    /// EWMA of analysis service time in µs (α = 1/8).
    avg_service_us: AtomicU64,
}

struct AdmissionState {
    free: usize,
    waiting: usize,
}

/// Why admission refused a request.
struct Shed {
    retry_after_ms: u64,
    reason: &'static str,
}

impl Admission {
    fn new(permits: usize, max_queue: usize) -> Admission {
        Admission {
            permits_total: permits.max(1),
            max_queue,
            state: Mutex::new(AdmissionState {
                free: permits.max(1),
                waiting: 0,
            }),
            ready: Condvar::new(),
            avg_service_us: AtomicU64::new(0),
        }
    }

    /// The expected wait for a request arriving behind `depth` others, from
    /// the observed service time (0 until the first analysis completes).
    fn estimated_wait_us(&self, depth: u64) -> u64 {
        depth * self.avg_service_us.load(Ordering::Relaxed) / self.permits_total as u64
    }

    /// Jobs queued or running right now (the `ping` gauge).
    fn depth(&self) -> u64 {
        let s = fault::lock_recover(&self.state);
        (s.waiting + (self.permits_total - s.free)) as u64
    }

    /// Admits the request (blocking until a permit frees, returning the
    /// wait) or sheds it: queue full, or the projected wait already blows
    /// the request's own deadline.
    fn admit(&self, deadline_ms: Option<u64>) -> Result<Duration, Shed> {
        let start = Instant::now();
        let mut s = fault::lock_recover(&self.state);
        let depth = (s.waiting + (self.permits_total - s.free)) as u64;
        let projected_us = self.estimated_wait_us(depth);
        let retry_after_ms = (projected_us / 1000).clamp(1, 60_000);
        // A free permit means no queueing at all — the queue bound only
        // applies to requests that would actually wait.
        if s.free == 0 && s.waiting >= self.max_queue {
            return Err(Shed {
                retry_after_ms,
                reason: "admission queue is full",
            });
        }
        if let Some(ms) = deadline_ms {
            if projected_us > ms.saturating_mul(1000) {
                return Err(Shed {
                    retry_after_ms,
                    reason: "projected queue wait exceeds the request deadline",
                });
            }
        }
        s.waiting += 1;
        while s.free == 0 {
            s = fault::wait_recover(&self.ready, s);
        }
        s.waiting -= 1;
        s.free -= 1;
        Ok(start.elapsed())
    }

    /// Returns a permit and folds the observed service time into the EWMA.
    fn release(&self, service: Duration) {
        let us = service.as_micros() as u64;
        let old = self.avg_service_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { (7 * old + us) / 8 };
        self.avg_service_us.store(new, Ordering::Relaxed);
        fault::lock_recover(&self.state).free += 1;
        self.ready.notify_one();
    }
}

/// A bound (but not yet running) server.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    options: ServerOptions,
}

impl Server {
    /// Binds the listener, opens the store and writes the port file.
    pub fn bind(options: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let store = match &options.store_dir {
            Some(dir) => Store::open_with(dir, options.store_capacity, options.faults.clone())?,
            None => Store::in_memory(options.store_capacity),
        };
        if let Some(path) = &options.port_file {
            std::fs::write(path, format!("{}\n", listener.local_addr()?.port()))?;
        }
        Ok(Server {
            engine: Arc::new(Engine::with_faults(store, options.faults.clone())),
            listener,
            options,
        })
    }

    /// The bound address (query this before [`Server::run`] when using an
    /// ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared engine (useful for in-process inspection in tests).
    pub fn engine(&self) -> Arc<Engine> {
        self.engine.clone()
    }

    /// Accepts and serves connections until a `shutdown` request arrives.
    pub fn run(self) -> std::io::Result<()> {
        let permits = if self.options.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        } else {
            self.options.workers
        };
        let shared = Arc::new(Shared {
            engine: self.engine.clone(),
            admission: Admission::new(permits, self.options.max_queue),
            watcher: Watcher::default(),
            memo: Memo::new(self.options.store_capacity),
            shutdown: AtomicBool::new(false),
            local: self.local_addr()?,
            faults: self.options.faults.clone(),
        });
        let watcher = {
            let shared = shared.clone();
            std::thread::spawn(move || shared.watcher.run(&shared.shutdown))
        };

        for stream in self.listener.incoming() {
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(conn) = stream else { continue };
            let _ = conn.set_nodelay(true);
            let shared = shared.clone();
            // Reader threads are cheap and die with their connection (or
            // with the process after shutdown) — no join needed.
            std::thread::spawn(move || {
                let _ = shared.serve_connection(conn);
            });
        }
        // The watcher sees the shutdown flag within one poll.
        watcher
            .join()
            .map_err(|_| std::io::Error::other("the disconnect watcher panicked"))?;

        if let Some(path) = &self.options.metrics_dump {
            let mut snap = self.engine.metrics().snapshot();
            if let Json::Obj(pairs) = &mut snap {
                push_gauges(pairs, &self.engine);
            }
            std::fs::write(path, format!("{}\n", snap.render()))?;
        }
        Ok(())
    }
}

/// What every connection thread shares.
struct Shared {
    engine: Arc<Engine>,
    admission: Admission,
    watcher: Watcher,
    memo: Memo,
    shutdown: AtomicBool,
    local: SocketAddr,
    faults: Faults,
}

/// One request line, read under the byte cap.
enum LineRead {
    Line(String),
    /// The line exceeded [`MAX_LINE_BYTES`] (buffering stopped there).
    TooLong,
    Eof,
}

/// Reads one `\n`-terminated line, buffering at most `cap` bytes. Invalid
/// UTF-8 is replaced (the JSON parse then fails with a structured error).
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(at) => {
                if buf.len() + at > cap {
                    reader.consume(at + 1);
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(&chunk[..at]);
                reader.consume(at + 1);
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
            None => {
                let n = chunk.len();
                if buf.len() + n > cap {
                    reader.consume(n);
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(chunk);
                reader.consume(n);
            }
        }
    }
}

impl Shared {
    fn serve_connection(&self, mut conn: TcpStream) -> std::io::Result<()> {
        let mut reader = BufReader::new(conn.try_clone()?);
        loop {
            let line = match read_line_capped(&mut reader, MAX_LINE_BYTES)? {
                LineRead::Eof => return Ok(()),
                LineRead::TooLong => {
                    // Answer honestly, then close: the rest of the oversized
                    // line cannot be resynchronised cheaply.
                    Metrics::bump(&self.engine.metrics().bad_requests);
                    let resp = error_response(
                        "line_too_long",
                        &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    );
                    let _ = write_response(&mut conn, &resp);
                    return Ok(());
                }
                LineRead::Line(line) => line,
            };
            if line.trim().is_empty() {
                continue;
            }
            Metrics::bump(&self.engine.metrics().requests);

            // Injected connection faults: a stalled read, or the daemon
            // dropping the connection without a response (the client's
            // transport-retry path).
            fault::maybe_sleep(&self.faults, FaultSite::DelayRead);
            if fault::fires(&self.faults, FaultSite::DropConn) {
                return Ok(());
            }

            let (response, stop) = self.respond(&line, &conn);
            write_response(&mut conn, &response)?;

            if stop {
                self.shutdown.store(true, Ordering::Release);
                // Poke the accept loop so it observes the flag.
                let _ = TcpStream::connect(self.local);
                return Ok(());
            }
        }
    }

    /// The answer to one request line, and whether it asked for shutdown.
    fn respond(&self, line: &str, conn: &TcpStream) -> (Json, bool) {
        let request = match Json::parse(line) {
            Err(e) => return (self.bad_request(&e.to_string()), false),
            Ok(v) => match Request::from_json(&v) {
                Err(e) => return (self.bad_request(&e), false),
                Ok(request) => request,
            },
        };
        let response = match request {
            Request::Ping => ping_response(&self.engine, &self.admission),
            Request::Stats => {
                let mut snap = self.engine.metrics().snapshot();
                if let Json::Obj(pairs) = &mut snap {
                    push_gauges(pairs, &self.engine);
                }
                obj(vec![("ok", Json::Bool(true)), ("stats", snap)])
            }
            Request::Compact => run_compact(&self.engine),
            Request::Shutdown => {
                let bye = obj(vec![("ok", Json::Bool(true)), ("bye", Json::Bool(true))]);
                return (bye, true);
            }
            Request::Analyze(req) => self.analyze(line, &req, conn),
            Request::Sweep(req) => self.sweep(line, &req, conn),
            Request::Trace(req) => self.trace(line, &req),
        };
        (response, false)
    }

    fn bad_request(&self, message: &str) -> Json {
        Metrics::bump(&self.engine.metrics().bad_requests);
        error_response("bad_request", message)
    }

    /// Runs a job that has to compute under admission and the panic
    /// domain. `Ok` carries `run`'s result and the queue wait; `Err` the
    /// shed, panic or `run`'s own error answer.
    fn compute<R>(
        &self,
        timeout_ms: Option<u64>,
        run: impl FnOnce() -> Result<R, Json>,
    ) -> Result<(R, Duration), Json> {
        let queue_wait = self
            .admission
            .admit(timeout_ms)
            .map_err(|shed| shed_response(&self.engine, shed))?;
        Metrics::add(
            &self.engine.metrics().queue_wait_us,
            queue_wait.as_micros() as u64,
        );
        let start = Instant::now();
        // The job is the panic domain: an unwinding worker (injected or
        // real) must not tear down the connection thread or leak its
        // admission permit, both of which live outside this closure.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if fault::fires(&self.faults, FaultSite::WorkerPanic) {
                panic!("injected: worker panic");
            }
            run()
        }));
        self.admission.release(start.elapsed());
        match caught {
            Ok(result) => result.map(|r| (r, queue_wait)),
            Err(payload) => Err(panic_response(&self.engine, payload.as_ref())),
        }
    }

    fn analyze(&self, line: &str, req: &AnalyzeRequest, conn: &TcpStream) -> Json {
        let key = Memo::key(line);
        if let Some(hit) = self
            .memo
            .get(key)
            .and_then(|fps| self.engine.recall(*fps.first()?))
        {
            return analyze_response(&hit, Duration::ZERO);
        }

        // The job is built before admission, to look for its answer.
        let (program, config, mode) = match self.analyze_job(req) {
            Ok(job) => job,
            Err(resp) => return resp,
        };
        let fp = job_fingerprint(&program, config, &mode, None);
        if let Some(hit) = self.engine.recall(fp) {
            self.memo.put(key, &[fp]);
            return analyze_response(&hit, Duration::ZERO);
        }

        let ran = self.compute(req.timeout_ms, || {
            let (cancel, _watched) = self.watcher.watch(conn, req.timeout_ms);
            self.engine
                .run(&Job {
                    program: &program,
                    config,
                    mode,
                    reuse_cap: None,
                    cancel,
                })
                .map_err(engine_error_response)
        });
        match ran {
            Err(resp) => resp,
            Ok((out, queue_wait)) => {
                self.memo.put(key, &[out.fingerprint]);
                analyze_response(&out, queue_wait)
            }
        }
    }

    /// The program, geometry and mode an `analyze` request names.
    fn analyze_job(
        &self,
        req: &AnalyzeRequest,
    ) -> Result<(Program, CacheConfig, AnalysisMode), Json> {
        let program = req.spec.build().map_err(|e| self.bad_request(&e))?;
        let config = match req.geometry {
            Some(g) => g,
            None => CacheConfig::new(req.size_bytes, req.line_bytes, req.assoc)
                .map_err(|e| self.bad_request(&e.to_string()))?,
        };
        let mode = match req.mode.sampling() {
            Some(options) => AnalysisMode::Estimate(options),
            None => AnalysisMode::Exact,
        };
        Ok((program, config, mode))
    }

    fn sweep(&self, line: &str, req: &SweepRequest, conn: &TcpStream) -> Json {
        let key = Memo::key(line);
        if let Some(out) = self
            .memo
            .get(key)
            .and_then(|fps| self.engine.recall_sweep(&req.geometries, &fps))
        {
            return sweep_response(req, &out, Duration::ZERO);
        }

        // As for `analyze`: built before admission, to look it up.
        let program = match req.spec.build() {
            Ok(p) => p,
            Err(e) => return self.bad_request(&e),
        };
        let fps = sweep_fingerprints(&program, &req.geometries);
        if let Some(out) = self.engine.recall_sweep(&req.geometries, &fps) {
            self.memo.put(key, &fps);
            return sweep_response(req, &out, Duration::ZERO);
        }

        let ran = self.compute(req.timeout_ms, || {
            let (cancel, _watched) = self.watcher.watch(conn, req.timeout_ms);
            self.engine
                .run_sweep(&SweepJob {
                    program: &program,
                    geometries: req.geometries.clone(),
                    cancel,
                })
                .map_err(engine_error_response)
        });
        match ran {
            Err(resp) => resp,
            Ok((out, queue_wait)) => {
                self.memo.put(key, &fps);
                sweep_response(req, &out, queue_wait)
            }
        }
    }

    /// A trace costs time in proportion to its length before the store
    /// can be asked (generating or reading it, then hashing it), so past
    /// the memo the whole request runs under admission. The replay is not
    /// cancellable, so the job is not watched.
    fn trace(&self, line: &str, req: &TraceRequest) -> Json {
        // A trace file's contents can change under the same request bytes,
        // so only generated traces are remembered.
        let generated = matches!(req.source, TraceSource::Spec(_));
        let key = generated.then(|| Memo::key(line));
        let remembered = key.and_then(|k| self.memo.get(k));
        if let Some(hit) = remembered.and_then(|fps| self.engine.recall_trace(*fps.first()?)) {
            return trace_response(&hit, Duration::ZERO);
        }

        let ran = self.compute(req.timeout_ms, || {
            let (bytes, config) = self.trace_input(req)?;
            self.engine
                .run_trace(&bytes, config)
                .map_err(|e| self.bad_request(&e))
        });
        match ran {
            Err(resp) => resp,
            Ok((out, queue_wait)) => {
                if let Some(key) = key {
                    self.memo.put(key, &[out.fingerprint]);
                }
                trace_response(&out, queue_wait)
            }
        }
    }

    /// A trace request's bytes and replay geometry. Priority for the
    /// geometry: explicit request field, then a framed trace's embedded
    /// header, then the default. Generated traces are framed with the
    /// resolved geometry, so a `cme trace gen` file and a spec-sourced
    /// request over the same program share a fingerprint.
    fn trace_input(&self, req: &TraceRequest) -> Result<(Vec<u8>, CacheConfig), Json> {
        let default_geometry =
            || CacheConfig::new(32 * 1024, 32, 2).expect("default geometry is valid");
        match &req.source {
            TraceSource::File(path) => {
                let bytes = std::fs::read(path)
                    .map_err(|e| self.bad_request(&format!("trace file `{path}`: {e}")))?;
                let config = match req.geometry {
                    Some(g) => g,
                    None => match cme_trace::TraceReader::new(&bytes[..]) {
                        Err(e) => return Err(self.bad_request(&format!("trace: {e}"))),
                        Ok(r) => match r.header().map(|h| h.geometry()) {
                            Some(Ok(g)) => g,
                            Some(Err(e)) => {
                                return Err(self.bad_request(&format!("trace header: {e}")))
                            }
                            None => default_geometry(),
                        },
                    },
                };
                Ok((bytes, config))
            }
            TraceSource::Spec(spec) => {
                let program = spec.build().map_err(|e| self.bad_request(&e))?;
                let config = req.geometry.unwrap_or_else(default_geometry);
                let words =
                    cme_trace::generate(&program).map_err(|e| self.bad_request(&e.to_string()))?;
                Ok((cme_trace::frame_bytes(&config, &words), config))
            }
        }
    }
}

/// Writes one response line in a single write: with Nagle's algorithm
/// off, a separate newline write would go out as its own packet.
fn write_response(conn: &mut TcpStream, response: &Json) -> std::io::Result<()> {
    let mut line = response.render();
    line.push('\n');
    conn.write_all(line.as_bytes())
}

/// The shed error: structured, explicitly retryable, with the pause the
/// admission math suggests.
fn shed_response(engine: &Engine, shed: Shed) -> Json {
    Metrics::bump(&engine.metrics().shed_requests);
    let mut resp = error_response("retry_after", shed.reason);
    if let Json::Obj(pairs) = &mut resp {
        pairs.push((
            "retry_after_ms".to_string(),
            Json::Int(shed.retry_after_ms as i64),
        ));
        pairs.push(("retryable".to_string(), Json::Bool(true)));
    }
    resp
}

/// The `ping` health verb: liveness plus the queue and store gauges an
/// operator (or a load balancer) wants at a glance.
fn ping_response(engine: &Engine, admission: &Admission) -> Json {
    let store = engine.store();
    obj(vec![
        ("ok", Json::Bool(true)),
        ("pong", Json::Bool(true)),
        ("queue_depth", Json::Int(admission.depth() as i64)),
        ("workers", Json::Int(admission.permits_total as i64)),
        (
            "avg_service_us",
            Json::Int(admission.avg_service_us.load(Ordering::Relaxed) as i64),
        ),
        ("store_entries", Json::Int(store.len() as i64)),
        ("store_disk_bytes", Json::Int(store.disk_bytes() as i64)),
        ("store_live_bytes", Json::Int(store.live_bytes() as i64)),
        ("store_dead_bytes", Json::Int(store.dead_bytes() as i64)),
    ])
}

/// The `compact` verb: run a store compaction now, report what it did.
fn run_compact(engine: &Engine) -> Json {
    match engine.store().compact() {
        Ok(stats) => obj(vec![
            ("ok", Json::Bool(true)),
            ("before_bytes", Json::Int(stats.before_bytes as i64)),
            ("after_bytes", Json::Int(stats.after_bytes as i64)),
            ("frames", Json::Int(stats.frames as i64)),
            ("dropped_bytes", Json::Int(stats.dropped_bytes as i64)),
        ]),
        Err(e) => {
            // A failed compaction resyncs the store to a consistent view,
            // so asking again is always safe — except on a memory-only
            // store, where there is nothing to compact, ever.
            let retryable = e.kind() != std::io::ErrorKind::Unsupported;
            let mut resp = error_response("store_error", &e.to_string());
            if let (Json::Obj(pairs), true) = (&mut resp, retryable) {
                pairs.push(("retryable".to_string(), Json::Bool(true)));
            }
            resp
        }
    }
}

/// Appends the store's and the reuse cache's gauges to a metrics snapshot
/// (the `stats` verb and the shutdown dump).
fn push_gauges(pairs: &mut Vec<(String, Json)>, engine: &Engine) {
    let (reuse_entries, reuse_bytes) = engine.reuse_cache_usage();
    pairs.push((
        "reuse_cache_entries".to_string(),
        Json::Int(reuse_entries as i64),
    ));
    pairs.push((
        "reuse_cache_bytes".to_string(),
        Json::Int(reuse_bytes as i64),
    ));
    let store = engine.store();
    pairs.push(("store_entries".to_string(), Json::Int(store.len() as i64)));
    pairs.push((
        "store_disk_bytes".to_string(),
        Json::Int(store.disk_bytes() as i64),
    ));
    pairs.push((
        "store_disk_frames".to_string(),
        Json::Int(store.disk_frames() as i64),
    ));
    pairs.push((
        "store_live_bytes".to_string(),
        Json::Int(store.live_bytes() as i64),
    ));
    pairs.push((
        "store_dead_bytes".to_string(),
        Json::Int(store.dead_bytes() as i64),
    ));
    pairs.push((
        "store_append_errors".to_string(),
        Json::Int(store.append_errors.load(Ordering::Relaxed) as i64),
    ));
    pairs.push((
        "store_compactions".to_string(),
        Json::Int(store.compactions.load(Ordering::Relaxed) as i64),
    ));
    pairs.push((
        "store_compaction_errors".to_string(),
        Json::Int(store.compaction_errors.load(Ordering::Relaxed) as i64),
    ));
}

/// The structured answer to a caught worker panic: the daemon is fine, the
/// job is content-addressed, the client may simply retry.
fn panic_response(engine: &Engine, payload: &(dyn std::any::Any + Send)) -> Json {
    Metrics::bump(&engine.metrics().panics_caught);
    let what = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked".to_string());
    let mut resp = error_response("internal_error", &format!("worker panic: {what}"));
    if let Json::Obj(pairs) = &mut resp {
        pairs.push(("retryable".to_string(), Json::Bool(true)));
    }
    resp
}

/// How often the watcher polls the connections of computing jobs.
const WATCH_POLL: Duration = Duration::from_millis(50);

/// The server's one disconnect watcher: the connections of the jobs
/// computing right now, each with its job's [`CancelToken`].
#[derive(Default)]
struct Watcher {
    jobs: Mutex<HashMap<u64, (TcpStream, CancelToken)>>,
    next_id: AtomicU64,
}

impl Watcher {
    /// Polls every [`WATCH_POLL`] until the server shuts down.
    fn run(&self, shutdown: &AtomicBool) {
        while !shutdown.load(Ordering::Acquire) {
            std::thread::sleep(WATCH_POLL);
            self.poll();
        }
    }

    /// One non-blocking `peek` per registered connection. End of stream or
    /// a socket error cancels that job and drops it from the registry;
    /// pending bytes (a pipelined request) or `WouldBlock` mean the client
    /// is still there. `peek` never consumes pipelined request bytes.
    fn poll(&self) {
        let mut buf = [0u8; 1];
        fault::lock_recover(&self.jobs).retain(|_, (conn, cancel)| match conn.peek(&mut buf) {
            Ok(0) => {
                cancel.cancel(); // orderly client EOF
                false
            }
            Ok(_) => true,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                true
            }
            Err(_) => {
                cancel.cancel(); // connection reset
                false
            }
        });
    }

    /// The cancel token of a job starting now (its deadline, if any, runs
    /// from here), with the job's connection registered — non-blocking —
    /// until the returned guard drops. A connection that cannot be cloned
    /// or made non-blocking is not watched.
    fn watch<'w>(
        &'w self,
        conn: &'w TcpStream,
        timeout_ms: Option<u64>,
    ) -> (CancelToken, Watched<'w>) {
        let cancel = match timeout_ms {
            Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = conn.try_clone() {
            if conn.set_nonblocking(true).is_ok() {
                fault::lock_recover(&self.jobs).insert(id, (clone, cancel.clone()));
            }
        }
        let watched = Watched {
            watcher: self,
            conn,
            id,
        };
        (cancel, watched)
    }
}

/// A computing job's registration with the [`Watcher`]. Dropping it
/// deregisters the job under the registry lock, so no poll touches the
/// socket afterwards, and restores blocking mode: the response can be
/// written at once.
struct Watched<'w> {
    watcher: &'w Watcher,
    conn: &'w TcpStream,
    id: u64,
}

impl Drop for Watched<'_> {
    fn drop(&mut self) {
        fault::lock_recover(&self.watcher.jobs).remove(&self.id);
        let _ = self.conn.set_nonblocking(false);
    }
}

/// The front-end memo: the hash of a request line → the fingerprint(s) an
/// `ok` answer to that line is stored under (one for `analyze` and
/// generated traces, one per cell for a sweep). A repeated line then skips
/// the front end — FORTRAN parsing, inlining, normalisation and
/// fingerprinting. At most `capacity` lines; the least recently used goes
/// first.
struct Memo {
    lines: Mutex<Lru<Arc<[Fingerprint]>>>,
}

impl Memo {
    fn new(capacity: usize) -> Memo {
        Memo {
            lines: Mutex::new(Lru::new(capacity)),
        }
    }

    /// The memo key of a request line.
    fn key(line: &str) -> u128 {
        let mut h = FpHasher::new();
        h.write_str(line);
        h.finish().0
    }

    fn get(&self, key: u128) -> Option<Arc<[Fingerprint]>> {
        fault::lock_recover(&self.lines).get(key).cloned()
    }

    /// Remembers `fps` under `key`.
    fn put(&self, key: u128, fps: &[Fingerprint]) {
        fault::lock_recover(&self.lines).insert(key, Arc::from(fps));
    }
}

/// A timeout or cancellation, with the partial progress made.
fn engine_error_response(err: EngineError) -> Json {
    let (kind, points_done) = match err {
        EngineError::Timeout { points_done } => ("timeout", points_done),
        EngineError::Cancelled { points_done } => ("cancelled", points_done),
    };
    let mut resp = error_response(kind, &err.to_string());
    if let Json::Obj(pairs) = &mut resp {
        pairs.push(("points_done".to_string(), Json::Int(points_done as i64)));
    }
    resp
}

fn analyze_response(out: &Outcome, queue_wait: Duration) -> Json {
    // Per-run counters are null on store hits and coalesced answers:
    // nothing was classified.
    let ran = !(out.from_store || out.coalesced);
    let metrics = obj(vec![
        (
            "store",
            Json::Str(
                if out.from_store {
                    "hit"
                } else if out.coalesced {
                    "coalesced"
                } else {
                    "miss"
                }
                .to_string(),
            ),
        ),
        ("points", Json::Int(out.points as i64)),
        ("wall_us", Json::Int(out.wall.as_micros() as i64)),
        ("queue_wait_us", Json::Int(queue_wait.as_micros() as i64)),
        (
            // Share of this run's points the pre-pass resolved; 100 means
            // nothing was walked.
            "prepass_resolved_pct",
            if ran {
                Json::Float(100.0 * out.prepass_resolved as f64 / out.points.max(1) as f64)
            } else {
                Json::Null
            },
        ),
    ]);
    obj(vec![
        ("ok", Json::Bool(true)),
        ("fingerprint", Json::Str(out.fingerprint.to_string())),
        ("report", Json::Raw(out.payload.as_str().to_string())),
        ("metrics", metrics),
    ])
}

fn sweep_response(req: &SweepRequest, out: &SweepOutcome, queue_wait: Duration) -> Json {
    let cells: Vec<Json> = out
        .cells
        .iter()
        .map(|c| {
            let mut pairs = vec![
                (
                    "geometry".to_string(),
                    Json::Str(c.config.geometry_string()),
                ),
                (
                    "fingerprint".to_string(),
                    Json::Str(c.fingerprint.to_string()),
                ),
                ("miss_ratio".to_string(), Json::Float(c.miss_ratio)),
                (
                    "misses".to_string(),
                    match c.misses {
                        Some(m) => Json::Int(m as i64),
                        None => Json::Null,
                    },
                ),
                ("points".to_string(), Json::Int(c.points as i64)),
                (
                    "store".to_string(),
                    Json::Str(if c.from_store { "hit" } else { "miss" }.to_string()),
                ),
            ];
            if req.include_reports {
                pairs.push((
                    "report".to_string(),
                    Json::Raw(c.payload.as_str().to_string()),
                ));
            }
            Json::Obj(pairs)
        })
        .collect();
    let metrics = obj(vec![
        ("cells", Json::Int(out.cells.len() as i64)),
        ("store_hits", Json::Int(out.store_hits as i64)),
        ("computed", Json::Int(out.computed as i64)),
        ("wall_us", Json::Int(out.wall.as_micros() as i64)),
        ("queue_wait_us", Json::Int(queue_wait.as_micros() as i64)),
    ]);
    obj(vec![
        ("ok", Json::Bool(true)),
        ("cells", Json::Arr(cells)),
        ("metrics", metrics),
    ])
}

fn trace_response(out: &TraceOutcome, queue_wait: Duration) -> Json {
    let metrics = obj(vec![
        (
            "store",
            Json::Str(if out.from_store { "hit" } else { "miss" }.to_string()),
        ),
        ("accesses", Json::Int(out.accesses as i64)),
        ("wall_us", Json::Int(out.wall.as_micros() as i64)),
        ("queue_wait_us", Json::Int(queue_wait.as_micros() as i64)),
    ]);
    obj(vec![
        ("ok", Json::Bool(true)),
        ("fingerprint", Json::Str(out.fingerprint.to_string())),
        ("report", Json::Raw(out.payload.as_str().to_string())),
        ("metrics", metrics),
    ])
}
