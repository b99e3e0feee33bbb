//! End-to-end tests over a real TCP connection: cold/hot byte-identity,
//! deadline propagation, client-disconnect cancellation and shutdown.

use cme_serve::json::Json;
use cme_serve::{Client, Server, ServerOptions};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cme-e2e-{tag}-{}", std::process::id()))
}

struct Daemon {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    metrics_dump: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let metrics_dump = temp_path(&format!("{tag}-metrics"));
        let _ = std::fs::remove_file(&metrics_dump);
        let server = Server::bind(ServerOptions {
            workers: 2,
            metrics_dump: Some(metrics_dump.clone()),
            ..ServerOptions::default()
        })
        .expect("bind");
        let addr = server.local_addr().unwrap();
        let thread = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            thread: Some(thread),
            metrics_dump,
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr).expect("connect")
    }

    fn shutdown(mut self) -> Json {
        let resp = self
            .client()
            .request(&Json::parse(r#"{"cmd":"shutdown"}"#).unwrap())
            .expect("shutdown response");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        self.thread
            .take()
            .unwrap()
            .join()
            .expect("server thread")
            .expect("server exit");
        let dump = std::fs::read_to_string(&self.metrics_dump).expect("metrics dump written");
        let _ = std::fs::remove_file(&self.metrics_dump);
        Json::parse(dump.trim()).expect("metrics dump parses")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            // Best effort: make sure a panicking test does not hang.
            if let Ok(mut c) = Client::connect(self.addr) {
                let _ = c.request_line(r#"{"cmd":"shutdown"}"#);
            }
            let _ = t.join();
        }
    }
}

/// Cuts the raw `"report":…` span out of a response line (spliced verbatim
/// by the server, so this is a byte-exact comparison of stored payloads).
fn report_bytes(line: &str) -> &str {
    let start = line.find(r#""report":"#).expect("has report") + r#""report":"#.len();
    let end = line.find(r#","metrics":"#).expect("has metrics");
    &line[start..end]
}

#[test]
fn cold_then_hot_is_byte_identical() {
    let daemon = Daemon::start("hotcold");
    let mut client = daemon.client();

    let pong = client
        .request(&Json::parse(r#"{"cmd":"ping"}"#).unwrap())
        .unwrap();
    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));

    let req = r#"{"cmd":"analyze","workload":"mmt","n":24,"mode":"exact","cache":16384,"line":32,"assoc":2}"#;
    let cold_line = client.request_line(req).unwrap();
    let cold = Json::parse(&cold_line).unwrap();
    assert_eq!(cold.get("ok"), Some(&Json::Bool(true)), "{cold_line}");
    let cold_metrics = cold.get("metrics").unwrap();
    assert_eq!(
        cold_metrics.get("store").unwrap().as_str(),
        Some("miss"),
        "first query must be cold"
    );
    assert!(cold_metrics.get("points").unwrap().as_u64().unwrap() > 0);
    assert!(cold_metrics.get("threads").unwrap().as_u64().unwrap() >= 1);

    // Hot query from a *different* connection: same bytes, store hit.
    let mut second = daemon.client();
    let hot_line = second.request_line(req).unwrap();
    let hot = Json::parse(&hot_line).unwrap();
    assert_eq!(hot.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        hot.get("metrics").unwrap().get("store").unwrap().as_str(),
        Some("hit")
    );
    assert_eq!(report_bytes(&cold_line), report_bytes(&hot_line));
    assert_eq!(cold.get("fingerprint"), hot.get("fingerprint"));

    // Stats reflect one miss + one hit.
    let stats = client
        .request(&Json::parse(r#"{"cmd":"stats"}"#).unwrap())
        .unwrap();
    let s = stats.get("stats").unwrap();
    assert_eq!(s.get("store_hits").unwrap().as_u64(), Some(1));
    assert_eq!(s.get("store_misses").unwrap().as_u64(), Some(1));
    assert_eq!(s.get("store_entries").unwrap().as_u64(), Some(1));

    let dump = daemon.shutdown();
    assert_eq!(dump.get("store_hits").unwrap().as_u64(), Some(1));
    assert!(dump.get("requests").unwrap().as_u64().unwrap() >= 4);
}

/// `stats` gauges the reuse cache: one analysis per line size, holding
/// exactly the heap bytes of the analyses it caches.
#[test]
fn stats_gauge_the_reuse_cache() {
    let daemon = Daemon::start("reusegauge");
    let mut client = daemon.client();
    for line in [16, 32] {
        let req = format!(
            r#"{{"cmd":"analyze","workload":"hydro","n":12,"mode":"estimate","cache":4096,"line":{line},"assoc":1,"threads":1}}"#
        );
        let resp = client.request_line(&req).unwrap();
        assert!(resp.contains(r#""ok":true"#), "{resp}");
    }
    let stats = client
        .request(&Json::parse(r#"{"cmd":"stats"}"#).unwrap())
        .unwrap();
    let s = stats.get("stats").unwrap();
    let program = cme_workloads::hydro(12, 12);
    let bytes: usize = [16, 32]
        .map(|line| cme_reuse::ReuseAnalysis::analyze(&program, line).heap_bytes())
        .iter()
        .sum();
    assert_eq!(s.get("reuse_cache_entries").unwrap().as_u64(), Some(2));
    assert_eq!(
        s.get("reuse_cache_bytes").unwrap().as_u64(),
        Some(bytes as u64)
    );
    let dump = daemon.shutdown();
    assert_eq!(dump.get("reuse_cache_entries").unwrap().as_u64(), Some(2));
}

/// A persistent client pays no Nagle/delayed-ACK stall: each request is
/// one write and both ends have Nagle's algorithm off.
#[test]
fn persistent_client_pings_under_a_millisecond() {
    let daemon = Daemon::start("ping");
    let mut client = daemon.client();
    let mut lat: Vec<Duration> = (0..50)
        .map(|_| {
            let t = Instant::now();
            let line = client.request_line(r#"{"cmd":"ping"}"#).unwrap();
            assert!(line.contains(r#""pong":true"#), "{line}");
            t.elapsed()
        })
        .collect();
    lat.sort();
    let p50 = lat[lat.len() / 2];
    assert!(
        p50 < Duration::from_millis(1),
        "persistent ping p50 {p50:?} (want < 1 ms)"
    );
    daemon.shutdown();
}

/// A computed analysis and a ping written in one go on one connection are
/// both answered, in order, and the connection stays usable. A ping sent
/// while an analysis computes waits in the socket, where the watcher
/// peeks at it: it must neither cancel the job nor consume the bytes.
#[test]
fn pipelined_requests_are_answered_in_order() {
    use std::io::{BufRead, BufReader, Write};
    let daemon = Daemon::start("pipeline");
    let analyze = |n: u32| {
        format!(
            r#"{{"cmd":"analyze","workload":"mmt","n":{n},"mode":"exact","cache":8192,"line":32,"assoc":1}}"#
        )
    };
    let ping = r#"{"cmd":"ping"}"#;
    let mut conn = std::net::TcpStream::connect(daemon.addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut read = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    };
    let store = |v: &Json| {
        let store = v.get("metrics").and_then(|m| m.get("store"));
        store.and_then(Json::as_str).map(str::to_string)
    };

    conn.write_all(format!("{}\n{ping}\n", analyze(24)).as_bytes())
        .unwrap();
    let first = read();
    assert_eq!(store(&first).as_deref(), Some("miss"), "{first:?}");
    assert_eq!(read().get("pong"), Some(&Json::Bool(true)));

    conn.write_all(format!("{}\n", analyze(64)).as_bytes())
        .unwrap();
    let mut gauges = daemon.client();
    let deadline = Instant::now() + Duration::from_secs(10);
    while gauges
        .request(&Json::parse(ping).unwrap())
        .unwrap()
        .get("queue_depth")
        != Some(&Json::Int(1))
    {
        assert!(Instant::now() < deadline, "the analysis never started");
    }
    conn.write_all(format!("{ping}\n").as_bytes()).unwrap();
    let computed = read();
    assert_eq!(store(&computed).as_deref(), Some("miss"), "{computed:?}");
    assert_eq!(read().get("pong"), Some(&Json::Bool(true)));

    // Still usable: the repeat is a store hit with the same report.
    conn.write_all(format!("{}\n", analyze(24)).as_bytes())
        .unwrap();
    let hit = read();
    assert_eq!(store(&hit).as_deref(), Some("hit"));
    assert_eq!(hit.get("report"), first.get("report"));
    daemon.shutdown();
}

#[test]
fn timeout_returns_structured_error_and_releases_worker() {
    let daemon = Daemon::start("timeout");
    let mut client = daemon.client();

    // Big enough that 1 ms cannot finish it.
    let req =
        r#"{"cmd":"analyze","workload":"mmt","n":96,"mode":"exact","timeout_ms":1,"store":false}"#;
    let resp = client
        .request(&Json::parse(req).unwrap())
        .expect("a clean error response, not a dropped connection");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(resp.get("kind").unwrap().as_str(), Some("timeout"));
    assert!(resp
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("deadline"));
    assert!(resp.get("points_done").unwrap().as_u64().is_some());

    // The same worker/connection still serves requests afterwards.
    let pong = client
        .request(&Json::parse(r#"{"cmd":"ping"}"#).unwrap())
        .unwrap();
    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));

    let stats = client
        .request(&Json::parse(r#"{"cmd":"stats"}"#).unwrap())
        .unwrap();
    assert_eq!(
        stats
            .get("stats")
            .unwrap()
            .get("timeouts")
            .unwrap()
            .as_u64(),
        Some(1)
    );
    daemon.shutdown();
}

#[test]
fn disconnect_cancels_running_analysis() {
    let daemon = Daemon::start("disconnect");

    // Fire a long analysis and hang up immediately.
    {
        let client = daemon.client();
        use std::io::Write;
        // Raw write without waiting for the response.
        let mut raw = std::net::TcpStream::connect(daemon.addr).unwrap();
        raw.write_all(
            br#"{"cmd":"analyze","workload":"mmt","n":128,"mode":"exact","store":false}"#,
        )
        .unwrap();
        raw.write_all(b"\n").unwrap();
        raw.flush().unwrap();
        drop(raw); // client gone
        let _ = client; // keep a second connection alive meanwhile
    }

    // The watcher should cancel the orphaned job well before it finishes.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut cancelled = 0;
    while Instant::now() < deadline {
        let mut c = daemon.client();
        let stats = c
            .request(&Json::parse(r#"{"cmd":"stats"}"#).unwrap())
            .unwrap();
        cancelled = stats
            .get("stats")
            .unwrap()
            .get("cancelled")
            .unwrap()
            .as_u64()
            .unwrap();
        if cancelled >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(cancelled, 1, "disconnect must cancel the running analysis");
    daemon.shutdown();
}

/// The `trace` verb end to end: a spec-sourced replay runs cold, an
/// external trace *file* of the same program and geometry hits the store
/// (the fingerprint is over trace content + geometry, not provenance), and
/// the payload agrees with the analyze totals' universe (accesses).
#[test]
fn trace_replay_cold_then_file_hot() {
    let daemon = Daemon::start("trace");
    let mut client = daemon.client();

    let req = r#"{"cmd":"trace","workload":"mmt","n":16,"bj":8,"bk":4,"geometry":"2K:2:32"}"#;
    let cold_line = client.request_line(req).unwrap();
    let cold = Json::parse(&cold_line).unwrap();
    assert_eq!(cold.get("ok"), Some(&Json::Bool(true)), "{cold_line}");
    assert_eq!(
        cold.get("metrics").unwrap().get("store").unwrap().as_str(),
        Some("miss")
    );
    let report = cold.get("report").unwrap();
    assert_eq!(report.get("kind").unwrap().as_str(), Some("trace"));
    assert_eq!(report.get("geometry").unwrap().as_str(), Some("2K:2:32"));
    let accesses = report.get("accesses").unwrap().as_u64().unwrap();
    assert_eq!(accesses, cme_workloads::mmt(16, 8, 4).total_accesses());
    assert!(report.get("misses").unwrap().as_u64().unwrap() > 0);

    // Write the identical trace to a file and replay it by path: store hit,
    // byte-identical report.
    let trace_path = temp_path("trace-mmt.cmet");
    let cfg = cme_cache::CacheConfig::parse_geometry("2K:2:32").unwrap();
    let words = cme_trace::generate(&cme_workloads::mmt(16, 8, 4)).unwrap();
    std::fs::write(&trace_path, cme_trace::frame_bytes(&cfg, &words)).unwrap();
    let file_req = format!(r#"{{"cmd":"trace","file":"{}"}}"#, trace_path.display());
    let hot_line = client.request_line(&file_req).unwrap();
    let hot = Json::parse(&hot_line).unwrap();
    assert_eq!(hot.get("ok"), Some(&Json::Bool(true)), "{hot_line}");
    assert_eq!(
        hot.get("metrics").unwrap().get("store").unwrap().as_str(),
        Some("hit"),
        "same content and geometry must answer from the store"
    );
    assert_eq!(report_bytes(&cold_line), report_bytes(&hot_line));
    assert_eq!(cold.get("fingerprint"), hot.get("fingerprint"));
    let _ = std::fs::remove_file(&trace_path);

    let stats = client
        .request(&Json::parse(r#"{"cmd":"stats"}"#).unwrap())
        .unwrap();
    let s = stats.get("stats").unwrap();
    assert_eq!(s.get("trace_store_hits").unwrap().as_u64(), Some(1));
    assert_eq!(s.get("trace_store_misses").unwrap().as_u64(), Some(1));
    assert_eq!(
        s.get("trace_accesses_replayed").unwrap().as_u64(),
        Some(accesses)
    );
    // In-memory store: disk stats are present and zero.
    assert_eq!(s.get("store_disk_bytes").unwrap().as_u64(), Some(0));
    assert_eq!(s.get("store_disk_frames").unwrap().as_u64(), Some(0));

    // A missing file is a clean bad_request.
    let resp = Json::parse(
        &client
            .request_line(r#"{"cmd":"trace","file":"/nonexistent/trace.bin"}"#)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(resp.get("kind").unwrap().as_str(), Some("bad_request"));

    daemon.shutdown();
}

#[test]
fn malformed_requests_get_bad_request() {
    let daemon = Daemon::start("badreq");
    let mut client = daemon.client();
    for req in [
        "this is not json",
        r#"{"cmd":"analyze"}"#,
        r#"{"cmd":"analyze","workload":"nope"}"#,
        // Bad geometry: non-power-of-two cache size.
        r#"{"cmd":"analyze","workload":"mmt","n":8,"cache":5000}"#,
        // Malformed FORTRAN source surfaces a diagnostic, not a crash.
        r#"{"cmd":"analyze","source":"      DO 10 I = 1, N\n      END"}"#,
    ] {
        let resp = Json::parse(&client.request_line(req).unwrap()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{req}");
        assert_eq!(
            resp.get("kind").unwrap().as_str(),
            Some("bad_request"),
            "{req}"
        );
    }
    daemon.shutdown();
}

#[test]
fn sweep_populates_store_and_matches_single_queries() {
    let daemon = Daemon::start("sweep");
    let mut client = daemon.client();

    // A 2x2x1 grid sweep with per-cell reports included.
    let sweep_req =
        r#"{"cmd":"sweep","workload":"mmt","n":24,"grid":"8K,16K:1,2:32","reports":true}"#;
    let sweep_line = client.request_line(sweep_req).unwrap();
    let sweep = Json::parse(&sweep_line).unwrap();
    assert_eq!(sweep.get("ok"), Some(&Json::Bool(true)), "{sweep_line}");
    let metrics = sweep.get("metrics").unwrap();
    assert_eq!(metrics.get("cells").unwrap().as_u64(), Some(4));
    assert_eq!(metrics.get("store_hits").unwrap().as_u64(), Some(0));
    assert_eq!(metrics.get("computed").unwrap().as_u64(), Some(4));
    let Some(Json::Arr(cells)) = sweep.get("cells") else {
        panic!("sweep response has a cells array: {sweep_line}");
    };
    assert_eq!(cells.len(), 4);

    // Cells are ranked by ascending miss ratio.
    let ratios: Vec<f64> = cells
        .iter()
        .map(|c| match c.get("miss_ratio").unwrap() {
            Json::Float(v) => *v,
            Json::Int(v) => *v as f64,
            other => panic!("miss_ratio is a number, got {other:?}"),
        })
        .collect();
    assert!(ratios.windows(2).all(|w| w[0] <= w[1]), "{ratios:?}");

    // A later single query on any swept geometry is a store hit, and its
    // payload is byte-identical to that cell's report.
    for cell in cells {
        let geometry = cell.get("geometry").unwrap().as_str().unwrap();
        let req = format!(
            r#"{{"cmd":"analyze","workload":"mmt","n":24,"geometry":"{geometry}","mode":"exact"}}"#
        );
        let line = client.request_line(&req).unwrap();
        let single = Json::parse(&line).unwrap();
        assert_eq!(single.get("ok"), Some(&Json::Bool(true)), "{line}");
        assert_eq!(
            single
                .get("metrics")
                .unwrap()
                .get("store")
                .unwrap()
                .as_str(),
            Some("hit"),
            "swept geometry {geometry} must be a store hit"
        );
        assert_eq!(single.get("fingerprint"), cell.get("fingerprint"));
        assert_eq!(
            Json::parse(report_bytes(&line)).ok().as_ref(),
            cell.get("report"),
            "{geometry}"
        );
    }

    // A repeat sweep answers every cell from the store.
    let repeat = Json::parse(&client.request_line(sweep_req).unwrap()).unwrap();
    let metrics = repeat.get("metrics").unwrap();
    assert_eq!(metrics.get("store_hits").unwrap().as_u64(), Some(4));
    assert_eq!(metrics.get("computed").unwrap().as_u64(), Some(0));

    let stats = client
        .request(&Json::parse(r#"{"cmd":"stats"}"#).unwrap())
        .unwrap();
    let s = stats.get("stats").unwrap();
    assert_eq!(s.get("sweep_requests").unwrap().as_u64(), Some(2));
    assert_eq!(s.get("sweep_cells").unwrap().as_u64(), Some(8));
    assert_eq!(s.get("sweep_cell_store_hits").unwrap().as_u64(), Some(4));

    daemon.shutdown();
}
