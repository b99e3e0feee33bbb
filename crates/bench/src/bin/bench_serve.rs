//! Timing harness for the analysis service, at two levels:
//!
//! 1. **Engine.** The same exact MMT analysis through one `Engine`, cold
//!    (full serial classification) and then 200 times hot (store fetch);
//!    every hot payload byte-identical to the cold one.
//! 2. **Wire.** An in-process daemon answers one stored job 200 times over
//!    fresh connections, as `cme query` does, and 200 pings over one
//!    persistent `Client`. The job is the Hydro (N=60) estimate: its hits
//!    are the ones a disconnect-watcher poll on the hot path would delay.
//!    Every wire answer is byte-identical to the engine-level payload of
//!    the same job.
//!
//! Both are written to `BENCH_serve.json`.
//!
//! ```text
//! cargo run -p cme-bench --bin bench_serve --release -- \
//!     [--scale small|medium|paper] [--out BENCH_serve.json]
//! ```
//!
//! Gates at every scale: wire hot p95 under 10 ms and persistent ping p50
//! under 1 ms. At `--scale paper` (MMT N=BJ=100, BK=50 on the paper's
//! 32KB/32B/2-way cache) the engine-level hot query must also be at least
//! 100x faster than the cold one — the whole point of a persistent
//! service: the second asker pays a hash lookup, not a whole-program
//! analysis.

use cme_analysis::SamplingOptions;
use cme_bench::{timed, Scale};
use cme_cache::CacheConfig;
use cme_serve::client::call_with_retry;
use cme_serve::{Client, Engine, Job, Json, RetryPolicy, Server, ServerOptions};
use std::time::Duration;

/// Repeats per latency distribution.
const QUERIES: usize = 200;

/// The wire job: the Hydro (N=60) estimate on the paper's cache.
const WIRE_N: i64 = 60;
const WIRE_SEED: u64 = 11;
const WIRE_REQUEST: &str = r#"{"cmd":"analyze","workload":"hydro","n":60,"mode":"estimate","seed":11,"geometry":"32K:2:32"}"#;

/// The `q`-quantile of sorted latencies, in milliseconds.
fn ms_at(sorted: &[Duration], q: f64) -> f64 {
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i].as_secs_f64() * 1e3
}

/// The raw `"report":…` bytes of a response line (spliced verbatim by the
/// server).
fn report_bytes(line: &str) -> &str {
    let start = line.find(r#""report":"#).expect("has report") + r#""report":"#.len();
    let end = line.find(r#","metrics":"#).expect("has metrics");
    &line[start..end]
}

/// Wire latencies: hot answers over fresh connections and pings over one
/// persistent connection, each sorted.
struct Wire {
    cold: Duration,
    hot: Vec<Duration>,
    pings: Vec<Duration>,
}

fn wire(cfg: CacheConfig) -> Wire {
    let program = cme_workloads::hydro(WIRE_N, WIRE_N);
    let options = SamplingOptions {
        seed: WIRE_SEED,
        ..SamplingOptions::paper_default()
    };
    let expected = Engine::in_memory(4)
        .run(&Job::estimate(&program, cfg, options))
        .expect("no deadline")
        .payload;

    let server = Server::bind(ServerOptions::default()).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let daemon = std::thread::spawn(move || server.run());
    let once = RetryPolicy::with_retries(0);
    let ask = || {
        let (line, t) = timed(|| call_with_retry(addr, WIRE_REQUEST, &once).expect("answered"));
        assert_eq!(
            report_bytes(&line),
            expected.as_str(),
            "wire report must be byte-identical to the engine payload"
        );
        (line, t)
    };

    let (line, cold) = ask();
    assert!(
        line.contains(r#""store":"miss""#),
        "first ask computes: {line}"
    );
    let mut hot: Vec<Duration> = (0..QUERIES)
        .map(|_| {
            let (line, t) = ask();
            assert!(line.contains(r#""store":"hit""#), "repeat must hit: {line}");
            t
        })
        .collect();
    hot.sort();

    let mut client = Client::connect(addr).expect("connect");
    let mut pings: Vec<Duration> = (0..QUERIES)
        .map(|_| {
            let (line, t) = timed(|| client.request_line(r#"{"cmd":"ping"}"#).expect("pong"));
            assert!(line.contains(r#""pong":true"#), "{line}");
            t
        })
        .collect();
    pings.sort();

    let bye = client
        .request(&Json::parse(r#"{"cmd":"shutdown"}"#).unwrap())
        .expect("shutdown answered");
    assert_eq!(bye.get("bye"), Some(&Json::Bool(true)));
    daemon
        .join()
        .expect("daemon thread")
        .expect("clean daemon exit");
    Wire { cold, hot, pings }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scale = Scale::from_args();
    let out = get("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());

    let (n, bj, bk) = match scale {
        Scale::Small => (24, 12, 6),
        Scale::Medium => (48, 24, 12),
        Scale::Paper => (100, 100, 50),
    };
    let cfg = CacheConfig::new(32 * 1024, 32, 2).expect("valid geometry");
    let program = cme_workloads::mmt(n, bj, bk);
    eprintln!(
        "MMT (N={n}, BJ={bj}, BK={bk}): {} accesses, cache {cfg}",
        program.total_accesses(),
    );

    let engine = Engine::in_memory(16);
    let job = Job::exact(&program, cfg);

    let (cold, cold_t) = timed(|| engine.run(&job).expect("no deadline"));
    assert!(!cold.from_store, "first run must be cold");
    eprintln!("cold: {cold_t:?} ({} points)", cold.points);

    // The hot path measured properly: N repeat queries, each verified
    // byte-identical (the tentpole guarantee — repeat queries return the
    // stored bytes), with the latency distribution rather than a single
    // possibly-lucky sample.
    let mut hot_lat = Vec::with_capacity(QUERIES);
    for _ in 0..QUERIES {
        let (hot, hot_t) = timed(|| engine.run(&job).expect("no deadline"));
        assert!(hot.from_store, "repeat run must hit the store");
        assert_eq!(
            cold.payload.as_str(),
            hot.payload.as_str(),
            "hot payload must be byte-identical to the cold one"
        );
        assert_eq!(cold.fingerprint, hot.fingerprint);
        hot_lat.push(hot_t);
    }
    hot_lat.sort();
    let hot_t = hot_lat[QUERIES / 2];
    let p50_us = hot_t.as_secs_f64() * 1e6;
    let p99_us = hot_lat[QUERIES * 99 / 100].as_secs_f64() * 1e6;
    eprintln!("hot:  p50 {p50_us:.1}us  p99 {p99_us:.1}us over {QUERIES} queries");

    let speedup = cold_t.as_secs_f64() / hot_t.as_secs_f64().max(1e-9);
    if scale == Scale::Paper {
        assert!(
            speedup >= 100.0,
            "paper-size hot query must be >=100x faster than cold, got {speedup:.1}x"
        );
    }

    let w = wire(cfg);
    let (wire_p50, wire_p95) = (ms_at(&w.hot, 0.5), ms_at(&w.hot, 0.95));
    let ping_p50 = ms_at(&w.pings, 0.5);
    eprintln!(
        "wire: cold {:?}, hot p50 {wire_p50:.3}ms p95 {wire_p95:.3}ms over {QUERIES} fresh connections; persistent ping p50 {ping_p50:.3}ms",
        w.cold
    );
    assert!(
        wire_p95 < 10.0,
        "wire hot p95 must be under 10 ms, got {wire_p95:.3} ms"
    );
    assert!(
        ping_p50 < 1.0,
        "persistent ping p50 must be under 1 ms, got {ping_p50:.3} ms"
    );

    let json = format!(
        "{{\n  \"workload\": \"mmt(N={n},BJ={bj},BK={bk})\",\n  \"scale\": \"{}\",\n  \"cache\": \"32KB/32B/2-way\",\n  \"mode\": \"exact\",\n  \"points\": {},\n  \"cold_ms\": {:.3},\n  \"hot_ms\": {:.3},\n  \"hot_queries\": {QUERIES},\n  \"hot_p50_us\": {p50_us:.1},\n  \"hot_p99_us\": {p99_us:.1},\n  \"speedup\": {speedup:.1},\n  \"threads\": 1,\n  \"hw_threads\": {},\n  \"strategy\": \"set-skip\",\n  \"fingerprint\": \"{}\",\n  \"wire_job\": \"hydro(N={WIRE_N}) estimate seed={WIRE_SEED}, 32KB/32B/2-way\",\n  \"wire_cold_ms\": {:.3},\n  \"wire_hot_queries\": {QUERIES},\n  \"wire_hot_p50_ms\": {wire_p50:.3},\n  \"wire_hot_p95_ms\": {wire_p95:.3},\n  \"persistent_pings\": {QUERIES},\n  \"persistent_ping_p50_ms\": {ping_p50:.3}\n}}\n",
        scale.label(),
        cold.points,
        cold_t.as_secs_f64() * 1e3,
        hot_t.as_secs_f64() * 1e3,
        cme_bench::hw_threads(),
        cold.fingerprint,
        w.cold.as_secs_f64() * 1e3,
    );
    std::fs::write(&out, &json).expect("write BENCH_serve.json");
    eprintln!("speedup {speedup:.1}x -> {out}");
    print!("{json}");
}
