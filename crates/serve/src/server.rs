//! The TCP front end: one lightweight reader thread per connection, with a
//! counting semaphore bounding how many *analyses* run at once.
//!
//! Cheap verbs (`ping`, `stats`, `compact`, `shutdown`) answer immediately
//! on any connection; `analyze`/`trace` requests first pass *admission*: a
//! bounded queue that sheds load with a structured `retry_after` error when
//! the queue is full or when queue depth × observed service time says the
//! request's own deadline cannot be met — better an honest early no than a
//! guaranteed-late timeout. Admitted requests then acquire an analysis
//! permit; the time spent waiting is the request's queue wait, reported in
//! its response metrics. Bounding analyses (rather than connections) means
//! an idle client holding its connection open never starves other clients.
//!
//! While an `analyze` runs, a watcher thread `peek`s the socket: a client
//! that disconnects mid-analysis cancels its own job through the
//! [`CancelToken`], releasing the permit within one chunk of
//! classification work. The engine call itself runs under `catch_unwind`:
//! a panicking worker answers *its* client with a structured
//! `internal_error` and bumps `panics_caught` — the daemon survives.
//! Request lines are capped at [`MAX_LINE_BYTES`]; an oversized line gets a
//! structured error instead of unbounded buffering. `shutdown` stops the
//! accept loop and (optionally) dumps the aggregate metrics as JSON.

use crate::engine::{AnalysisMode, Engine, EngineError, Job, SweepJob};
use crate::fault::{self, FaultSite, Faults};
use crate::json::{obj, Json};
use crate::metrics::Metrics;
use crate::protocol::{
    error_response, AnalyzeRequest, Request, SweepRequest, TraceRequest, TraceSource,
};
use crate::store::Store;
use cme_analysis::CancelToken;
use cme_cache::CacheConfig;
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
    /// In-memory result-store capacity.
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
        let admission = Arc::new(Admission::new(permits, self.options.max_queue));
        let shutdown = Arc::new(AtomicBool::new(false));
        let local = self.local_addr()?;
        let faults = self.options.faults.clone();

        for stream in self.listener.incoming() {
            if shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(conn) = stream else { continue };
            let engine = self.engine.clone();
            let admission = admission.clone();
            let shutdown = shutdown.clone();
            let faults = faults.clone();
            // Reader threads are cheap and die with their connection (or
            // with the process after shutdown) — no join needed.
            std::thread::spawn(move || {
                let _ = handle_connection(conn, &engine, &admission, &shutdown, local, &faults);
            });
        }

        if let Some(path) = &self.options.metrics_dump {
            let mut snap = self.engine.metrics().snapshot();
            if let Json::Obj(pairs) = &mut snap {
                push_store_stats(pairs, &self.engine);
            }
            std::fs::write(path, format!("{}\n", snap.render()))?;
        }
        Ok(())
    }
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

fn handle_connection(
    mut conn: TcpStream,
    engine: &Engine,
    admission: &Admission,
    shutdown: &AtomicBool,
    local: SocketAddr,
    faults: &Faults,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(conn.try_clone()?);
    loop {
        let line = match read_line_capped(&mut reader, MAX_LINE_BYTES)? {
            LineRead::Eof => return Ok(()),
            LineRead::TooLong => {
                // Answer honestly, then close: the rest of the oversized
                // line cannot be resynchronised cheaply.
                Metrics::bump(&engine.metrics().bad_requests);
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
        Metrics::bump(&engine.metrics().requests);

        // Injected connection faults: a stalled read, or the daemon
        // dropping the connection without a response (the client's
        // transport-retry path).
        fault::maybe_sleep(faults, FaultSite::DelayRead);
        if fault::fires(faults, FaultSite::DropConn) {
            return Ok(());
        }

        let (response, stop) = match Json::parse(&line) {
            Err(e) => {
                Metrics::bump(&engine.metrics().bad_requests);
                (error_response("bad_request", &e.to_string()), false)
            }
            Ok(v) => match Request::from_json(&v) {
                Err(e) => {
                    Metrics::bump(&engine.metrics().bad_requests);
                    (error_response("bad_request", &e), false)
                }
                Ok(Request::Ping) => (ping_response(engine, admission), false),
                Ok(Request::Stats) => {
                    let mut snap = engine.metrics().snapshot();
                    if let Json::Obj(pairs) = &mut snap {
                        push_store_stats(pairs, engine);
                    }
                    (obj(vec![("ok", Json::Bool(true)), ("stats", snap)]), false)
                }
                Ok(Request::Compact) => (run_compact(engine), false),
                Ok(Request::Shutdown) => (
                    obj(vec![("ok", Json::Bool(true)), ("bye", Json::Bool(true))]),
                    true,
                ),
                Ok(Request::Analyze(req)) => match admission.admit(req.timeout_ms) {
                    Err(shed) => (shed_response(engine, shed), false),
                    Ok(queue_wait) => {
                        Metrics::add(
                            &engine.metrics().queue_wait_us,
                            queue_wait.as_micros() as u64,
                        );
                        let start = Instant::now();
                        let resp = run_analyze(&req, engine, &conn, queue_wait, faults);
                        admission.release(start.elapsed());
                        (resp, false)
                    }
                },
                Ok(Request::Sweep(req)) => match admission.admit(req.timeout_ms) {
                    Err(shed) => (shed_response(engine, shed), false),
                    Ok(queue_wait) => {
                        Metrics::add(
                            &engine.metrics().queue_wait_us,
                            queue_wait.as_micros() as u64,
                        );
                        let start = Instant::now();
                        let resp = run_sweep(&req, engine, &conn, queue_wait, faults);
                        admission.release(start.elapsed());
                        (resp, false)
                    }
                },
                Ok(Request::Trace(req)) => match admission.admit(req.timeout_ms) {
                    Err(shed) => (shed_response(engine, shed), false),
                    Ok(queue_wait) => {
                        Metrics::add(
                            &engine.metrics().queue_wait_us,
                            queue_wait.as_micros() as u64,
                        );
                        let start = Instant::now();
                        let resp = run_trace(&req, engine, queue_wait, faults);
                        admission.release(start.elapsed());
                        (resp, false)
                    }
                },
            },
        };

        write_response(&mut conn, &response)?;

        if stop {
            shutdown.store(true, Ordering::Release);
            // Poke the accept loop so it observes the flag.
            let _ = TcpStream::connect(local);
            return Ok(());
        }
    }
}

fn write_response(conn: &mut TcpStream, response: &Json) -> std::io::Result<()> {
    conn.write_all(response.render().as_bytes())?;
    conn.write_all(b"\n")?;
    conn.flush()
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

/// Appends store-shape fields to a metrics snapshot (the `stats` verb and
/// the shutdown dump).
fn push_store_stats(pairs: &mut Vec<(String, Json)>, engine: &Engine) {
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

/// A disconnect watcher for a long-running job: while the job runs, a
/// thread `peek`s the socket, and a client that hangs up cancels its own
/// job through the [`CancelToken`]. `peek` never consumes pipelined
/// request bytes.
struct Watch {
    done: Arc<AtomicBool>,
    watcher: Option<std::thread::JoinHandle<()>>,
}

fn watch_disconnect(conn: &TcpStream, cancel: &CancelToken) -> Watch {
    let done = Arc::new(AtomicBool::new(false));
    let watcher = conn.try_clone().ok().map(|watch_conn| {
        let cancel = cancel.clone();
        let done = done.clone();
        let _ = watch_conn.set_read_timeout(Some(Duration::from_millis(50)));
        std::thread::spawn(move || {
            let mut buf = [0u8; 1];
            while !done.load(Ordering::Acquire) {
                match watch_conn.peek(&mut buf) {
                    Ok(0) => {
                        cancel.cancel(); // orderly client EOF
                        return;
                    }
                    Ok(_) => std::thread::sleep(Duration::from_millis(20)),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => {
                        cancel.cancel(); // connection reset
                        return;
                    }
                }
            }
        })
    });
    Watch { done, watcher }
}

impl Watch {
    /// Stops the watcher once the job completes and restores blocking
    /// reads (the watcher's read timeout is a property of the shared
    /// socket) for the request loop.
    fn finish(self, conn: &TcpStream) {
        self.done.store(true, Ordering::Release);
        if let Some(w) = self.watcher {
            let _ = w.join();
            let _ = conn.set_read_timeout(None);
        }
    }
}

fn run_sweep(
    req: &SweepRequest,
    engine: &Engine,
    conn: &TcpStream,
    queue_wait: Duration,
    faults: &Faults,
) -> Json {
    let program = match req.spec.build() {
        Ok(p) => p,
        Err(e) => {
            Metrics::bump(&engine.metrics().bad_requests);
            return error_response("bad_request", &e);
        }
    };
    let cancel = match req.timeout_ms {
        Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    let watch = watch_disconnect(conn, &cancel);

    let job = SweepJob {
        program: &program,
        geometries: req.geometries.clone(),
        cancel: cancel.clone(),
        use_store: req.use_store,
        threads: req.threads,
    };
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if fault::fires(faults, FaultSite::WorkerPanic) {
            panic!("injected: worker panic");
        }
        engine.run_sweep(&job)
    }));
    watch.finish(conn);

    let outcome = match caught {
        Ok(out) => out,
        Err(panic_payload) => return panic_response(engine, panic_payload.as_ref()),
    };
    match outcome {
        Ok(out) => {
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
                ("threads", Json::Int(req.threads.count() as i64)),
            ]);
            obj(vec![
                ("ok", Json::Bool(true)),
                ("cells", Json::Arr(cells)),
                ("metrics", metrics),
            ])
        }
        Err(err) => {
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
    }
}

fn run_analyze(
    req: &AnalyzeRequest,
    engine: &Engine,
    conn: &TcpStream,
    queue_wait: Duration,
    faults: &Faults,
) -> Json {
    let program = match req.spec.build() {
        Ok(p) => p,
        Err(e) => {
            Metrics::bump(&engine.metrics().bad_requests);
            return error_response("bad_request", &e);
        }
    };
    let config = match req.geometry {
        Some(g) => g,
        None => match CacheConfig::new(req.size_bytes, req.line_bytes, req.assoc) {
            Ok(c) => c,
            Err(e) => {
                Metrics::bump(&engine.metrics().bad_requests);
                return error_response("bad_request", &e.to_string());
            }
        },
    };
    let cancel = match req.timeout_ms {
        Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };

    let watch = watch_disconnect(conn, &cancel);

    let job = Job {
        program: &program,
        config,
        mode: match req.mode.sampling() {
            Some(options) => AnalysisMode::Estimate(options),
            None => AnalysisMode::Exact,
        },
        reuse_cap: None,
        cancel: cancel.clone(),
        use_store: req.use_store,
        threads: req.threads,
    };
    // The engine call is the panic domain: an unwinding worker (injected
    // or real) must not tear down the connection thread, skip watcher
    // cleanup, or leak its admission permit — all of which live outside
    // this closure.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if fault::fires(faults, FaultSite::WorkerPanic) {
            panic!("injected: worker panic");
        }
        engine.run(&job)
    }));

    watch.finish(conn);

    let outcome = match caught {
        Ok(out) => out,
        Err(panic_payload) => return panic_response(engine, panic_payload.as_ref()),
    };

    match outcome {
        Ok(out) => {
            // Per-run counters are null on store hits and coalesced
            // answers: nothing was classified.
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
                ("threads", Json::Int(job.threads.count() as i64)),
                (
                    // Share of this run's points the pre-pass resolved;
                    // 100 means nothing was walked.
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
        Err(err) => {
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
    }
}

fn run_trace(req: &TraceRequest, engine: &Engine, queue_wait: Duration, faults: &Faults) -> Json {
    let bad = |engine: &Engine, msg: &str| {
        Metrics::bump(&engine.metrics().bad_requests);
        error_response("bad_request", msg)
    };
    let default_geometry =
        || CacheConfig::new(32 * 1024, 32, 2).expect("default geometry is valid");

    // Resolve the trace bytes and the replay geometry. Priority for the
    // geometry: explicit request field, then a framed trace's embedded
    // header, then the default. Generated traces are framed with the
    // resolved geometry, so a `cme trace gen` file and a spec-sourced
    // request over the same program share a fingerprint.
    let (bytes, config) = match &req.source {
        TraceSource::File(path) => {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => return bad(engine, &format!("trace file `{path}`: {e}")),
            };
            let config = match req.geometry {
                Some(g) => g,
                None => match cme_trace::TraceReader::new(&bytes[..]) {
                    Err(e) => return bad(engine, &format!("trace: {e}")),
                    Ok(r) => match r.header().map(|h| h.geometry()) {
                        Some(Ok(g)) => g,
                        Some(Err(e)) => return bad(engine, &format!("trace header: {e}")),
                        None => default_geometry(),
                    },
                },
            };
            (bytes, config)
        }
        TraceSource::Spec(spec) => {
            let program = match spec.build() {
                Ok(p) => p,
                Err(e) => return bad(engine, &e),
            };
            let config = req.geometry.unwrap_or_else(default_geometry);
            let words = match cme_trace::generate(&program) {
                Ok(w) => w,
                Err(e) => return bad(engine, &e.to_string()),
            };
            (cme_trace::frame_bytes(&config, &words), config)
        }
    };

    let caught = catch_unwind(AssertUnwindSafe(|| {
        if fault::fires(faults, FaultSite::WorkerPanic) {
            panic!("injected: worker panic");
        }
        engine.run_trace(&bytes, config, req.threads.count(), req.use_store)
    }));
    let ran = match caught {
        Ok(ran) => ran,
        Err(panic_payload) => return panic_response(engine, panic_payload.as_ref()),
    };
    match ran {
        Ok(out) => {
            let metrics = obj(vec![
                (
                    "store",
                    Json::Str(if out.from_store { "hit" } else { "miss" }.to_string()),
                ),
                ("accesses", Json::Int(out.accesses as i64)),
                ("wall_us", Json::Int(out.wall.as_micros() as i64)),
                ("queue_wait_us", Json::Int(queue_wait.as_micros() as i64)),
                ("threads", Json::Int(req.threads.count() as i64)),
            ]);
            obj(vec![
                ("ok", Json::Bool(true)),
                ("fingerprint", Json::Str(out.fingerprint.to_string())),
                ("report", Json::Raw(out.payload.as_str().to_string())),
                ("metrics", metrics),
            ])
        }
        Err(e) => bad(engine, &e),
    }
}
