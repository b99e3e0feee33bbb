//! Chaos gate for the serve tier: a seeded fault schedule (torn writes,
//! read errors, dropped connections, delayed reads, worker panics) against
//! a live daemon over real TCP. The gate holds four promises at once:
//!
//! 1. **No lies.** Every completed response is byte-identical to the
//!    fault-free baseline; every failed request is a structured, retryable
//!    error — never a corrupt payload, never a hung or dead daemon.
//! 2. **Volume.** The schedule injects >= 100 faults, >= 5 of them worker
//!    panics, before the daemon is asked to shut down cleanly.
//! 3. **Crash-safe compaction.** A store compaction killed at every
//!    injected crash point (temp write, fsync, rename, swap) leaves a
//!    store that still answers correctly and reopens byte-consistently.
//! 4. **Chaos off = seed.** With no fault plan, the same requests return
//!    the same bytes as the baseline run.
//!
//! ```text
//! cargo run -p cme-bench --bin bench_chaos --release -- \
//!     [--out BENCH_chaos.json]
//! ```

use cme_ir::Fingerprint;
use cme_serve::client::{call_with_retry, RetryPolicy};
use cme_serve::json::Json;
use cme_serve::store::{Store, StoredResult};
use cme_serve::{FaultPlan, FaultSite, Server, ServerOptions};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The request mix: exact and estimated analyses across workloads, plus a
/// spec-sourced trace replay. Every job is deterministic (estimates carry
/// a fixed seed), so byte-identity across runs is a hard assertion.
const JOBS: &[(&str, &str)] = &[
    (
        "mmt-exact",
        r#"{"cmd":"analyze","workload":"mmt","n":24,"bj":12,"bk":6,"mode":"exact","cache":16384}"#,
    ),
    (
        "hydro-exact",
        r#"{"cmd":"analyze","workload":"hydro","n":32,"mode":"exact","cache":8192}"#,
    ),
    (
        "mgrid-exact",
        r#"{"cmd":"analyze","workload":"mgrid","n":16,"mode":"exact","cache":8192}"#,
    ),
    (
        "mmt-estimate",
        r#"{"cmd":"analyze","workload":"mmt","n":40,"bj":20,"bk":10,"mode":"estimate","seed":7,"cache":32768}"#,
    ),
    (
        "hydro-estimate",
        r#"{"cmd":"analyze","workload":"hydro","n":40,"mode":"estimate","seed":11,"cache":16384}"#,
    ),
    (
        "trace-mmt",
        r#"{"cmd":"trace","workload":"mmt","n":16,"bj":8,"bk":4,"geometry":"2K:2:32"}"#,
    ),
];

/// Rounds over the job mix in the chaos phase. Sized so the per-request
/// fault sites (dropped connections, delayed reads) alone clear the
/// >= 100 injection floor.
const ROUNDS: usize = 25;

/// The seeded schedule. Deterministic caps pin the headline faults (every
/// early store append torn, the first compaction reads failing, the first
/// eight analysis attempts panicking); the per-mille sites supply volume.
const CHAOS_SPEC: &str =
    "seed=42,torn-write=1000x4,read-error=1000x3,delay-read=400,drop-conn=300,panic=1000x8,analysis-delay=300";

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cme-bench-chaos-{tag}-{}", std::process::id()))
}

struct Daemon {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

fn boot(store_dir: Option<PathBuf>, plan: Option<Arc<FaultPlan>>) -> Daemon {
    let server = Server::bind(ServerOptions {
        workers: 3,
        store_dir,
        faults: plan,
        ..ServerOptions::default()
    })
    .expect("bind chaos daemon");
    let addr = server.local_addr().unwrap();
    let thread = std::thread::spawn(move || server.run());
    Daemon {
        addr,
        thread: Some(thread),
    }
}

impl Daemon {
    fn shutdown(mut self) {
        let line = call_with_retry(
            self.addr,
            r#"{"cmd":"shutdown"}"#,
            &RetryPolicy::with_retries(3),
        )
        .expect("shutdown answered");
        assert_eq!(
            Json::parse(&line).unwrap().get("ok"),
            Some(&Json::Bool(true))
        );
        self.thread
            .take()
            .unwrap()
            .join()
            .expect("server thread")
            .expect("clean server exit");
    }
}

fn report_bytes(line: &str) -> &str {
    let start = line.find(r#""report":"#).expect("has report") + r#""report":"#.len();
    let end = line.find(r#","metrics":"#).expect("has metrics");
    &line[start..end]
}

#[derive(Default)]
struct Counters {
    completed: u64,
    structured_failures: u64,
    transport_failures: u64,
}

/// Drives one request to completion: transport faults reconnect, structured
/// retryable errors loop. Anything else — an unstructured error, a
/// non-retryable kind, or 40 fruitless tries — fails the gate.
fn run_to_completion(
    addr: SocketAddr,
    line: &str,
    policy: &RetryPolicy,
    c: &mut Counters,
) -> String {
    for _ in 0..40 {
        match call_with_retry(addr, line, policy) {
            Ok(resp) => {
                let v = Json::parse(&resp).expect("response is valid JSON");
                if v.get("ok").and_then(Json::as_bool) == Some(true) {
                    c.completed += 1;
                    return resp;
                }
                let kind = v.get("kind").and_then(Json::as_str).unwrap_or("?");
                assert!(
                    matches!(kind, "internal_error" | "retry_after" | "store_error"),
                    "unexpected failure kind under chaos: {resp}"
                );
                assert_eq!(
                    v.get("retryable"),
                    Some(&Json::Bool(true)),
                    "failures must be marked retryable: {resp}"
                );
                c.structured_failures += 1;
            }
            Err(_) => c.transport_failures += 1,
        }
    }
    panic!("request never completed under chaos: {line}");
}

/// Phase 3: compaction killed at each injected crash point must leave a
/// store that answers and reopens with the exact same payloads.
fn crash_point_sweep() -> u64 {
    let mut injected = 0;
    for site in [
        "compact-temp",
        "compact-fsync",
        "compact-rename",
        "compact-swap",
    ] {
        let dir = tmp(&format!("crash-{site}"));
        let _ = std::fs::remove_dir_all(&dir);
        let payloads: Vec<String> = (0..6)
            .map(|i| format!(r#"{{"miss_ratio":0.{i}25,"points":{i}0}}"#))
            .collect();
        {
            let s = Store::open(&dir, 16).expect("open store");
            for (i, p) in payloads.iter().enumerate() {
                s.put(
                    Fingerprint(i as u128 + 1),
                    StoredResult {
                        payload: Arc::new(p.clone()),
                        miss_ratio: 0.5,
                        points: 1,
                        exact_misses: None,
                    },
                );
            }
        }
        // Corrupt the first frame so the pass has something to drop.
        let path = dir.join("results.cmes");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[30] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let plan = Arc::new(FaultPlan::parse(&format!("seed=9,{site}=1000x1")).unwrap());
        let s = Store::open_with(&dir, 16, Some(plan.clone())).expect("reopen store");
        let err = s.compact().expect_err("crash point fails the pass");
        assert!(err.to_string().contains("injected"), "{site}: {err}");
        injected += plan.injected_total();

        // Still answering, correct bytes, after the crash.
        for (i, p) in payloads.iter().enumerate().skip(1) {
            assert_eq!(
                &*s.get(Fingerprint(i as u128 + 1)).expect("survives").payload,
                p,
                "{site}: payload {i} after crashed compaction"
            );
        }
        // The crash-point cap is spent: retrying the compaction completes.
        // (Retry-safety is the whole point of the resync-on-error design.)
        let stats = s.compact().expect("second pass succeeds");
        assert_eq!(stats.frames, 5, "{site}");
        assert_eq!(s.dead_bytes(), 0, "{site}");

        // Disk truth: a clean reopen sees the same five frames.
        drop(s);
        let s = Store::open(&dir, 16).expect("clean reopen");
        assert_eq!(s.load_stats().loaded, 5, "{site}");
        assert_eq!(
            s.load_stats().corrupt,
            0,
            "{site}: compaction never leaves corruption"
        );
        for (i, p) in payloads.iter().enumerate().skip(1) {
            assert_eq!(
                &*s.get(Fingerprint(i as u128 + 1)).unwrap().payload,
                p,
                "{site}: byte-identical after reopen"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
        eprintln!("crash point {site}: recovered, byte-identical");
    }
    injected
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_chaos.json".to_string());

    // Injected worker panics are part of the schedule — keep their default
    // panic-hook noise out of the log, let real panics through.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected:"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("injected:"))
            })
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    // Phase 1: fault-free baseline bytes for every job.
    eprintln!("phase 1: fault-free baseline ({} jobs)", JOBS.len());
    let baseline: BTreeMap<&str, String> = {
        let daemon = boot(None, None);
        let policy = RetryPolicy::with_retries(0);
        let map = JOBS
            .iter()
            .map(|(key, line)| {
                let resp = call_with_retry(daemon.addr, line, &policy).expect("baseline request");
                let v = Json::parse(&resp).unwrap();
                assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{key}: {resp}");
                (*key, report_bytes(&resp).to_string())
            })
            .collect();
        daemon.shutdown();
        map
    };

    // Phase 2: the same jobs, many rounds, under the seeded fault schedule.
    eprintln!(
        "phase 2: chaos rounds ({ROUNDS} x {} jobs, spec {CHAOS_SPEC})",
        JOBS.len()
    );
    let plan = Arc::new(FaultPlan::parse(CHAOS_SPEC).expect("chaos spec"));
    let store_dir = tmp("store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let daemon = boot(Some(store_dir.clone()), Some(plan.clone()));
    let mut policy = RetryPolicy::with_retries(8);
    policy.base = Duration::from_millis(1);
    policy.cap = Duration::from_millis(50);

    let mut counters = Counters::default();
    for round in 0..ROUNDS {
        for (key, line) in JOBS {
            let resp = run_to_completion(daemon.addr, line, &policy, &mut counters);
            assert_eq!(
                report_bytes(&resp),
                baseline[key],
                "round {round}, {key}: completed response must match the fault-free bytes"
            );
        }
        if round % 5 == 4 {
            // Live compaction under fire (its first reads are injected to
            // fail; the error is structured and the store resyncs).
            run_to_completion(daemon.addr, r#"{"cmd":"compact"}"#, &policy, &mut counters);
        }
    }

    // A concurrent burst: all workers hammered at once, same contract.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    let mut c = Counters::default();
                    let resp = run_to_completion(daemon.addr, JOBS[0].1, &policy, &mut c);
                    assert_eq!(report_bytes(&resp), baseline[JOBS[0].0]);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("burst thread");
        }
    });

    // The daemon survived the whole schedule and says so.
    let ping = run_to_completion(daemon.addr, r#"{"cmd":"ping"}"#, &policy, &mut counters);
    assert_eq!(
        Json::parse(&ping).unwrap().get("pong"),
        Some(&Json::Bool(true))
    );
    let stats_line = run_to_completion(daemon.addr, r#"{"cmd":"stats"}"#, &policy, &mut counters);
    let stats = Json::parse(&stats_line).unwrap();
    let panics_caught = stats
        .get("stats")
        .unwrap()
        .get("panics_caught")
        .unwrap()
        .as_u64()
        .unwrap();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);

    let per_site: Vec<(FaultSite, u64)> = FaultSite::ALL
        .iter()
        .map(|&site| (site, plan.injected(site)))
        .collect();
    let daemon_injected = plan.injected_total();

    // Phase 3: compaction crash points.
    eprintln!("phase 3: compaction crash-point sweep");
    let crash_injected = crash_point_sweep();

    // Phase 4: chaos off — the same requests, the seed's bytes.
    eprintln!("phase 4: chaos-off byte-identity");
    {
        let daemon = boot(None, None);
        let policy = RetryPolicy::with_retries(0);
        for (key, line) in JOBS {
            let resp = call_with_retry(daemon.addr, line, &policy).expect("clean request");
            assert_eq!(
                report_bytes(&resp),
                baseline[key],
                "{key}: chaos-off bytes must equal the baseline"
            );
        }
        daemon.shutdown();
    }

    // The gate's arithmetic.
    let total = daemon_injected + crash_injected;
    assert!(
        total >= 100,
        "schedule must inject >= 100 faults, got {total}"
    );
    assert!(
        panics_caught >= 5,
        "schedule must include >= 5 worker panics, got {panics_caught}"
    );
    for (site, want) in [
        (FaultSite::TornWrite, 1),
        (FaultSite::ReadError, 1),
        (FaultSite::DropConn, 1),
    ] {
        let got = plan.injected(site);
        assert!(
            got >= want,
            "{}: {got} injections, want >= {want}",
            site.name()
        );
    }

    let sites_json: String = per_site
        .iter()
        .map(|(site, n)| format!("    \"{}\": {n}", site.name()))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"spec\": \"{CHAOS_SPEC}\",\n  \"rounds\": {ROUNDS},\n  \"jobs\": {},\n  \"requests_completed\": {},\n  \"structured_failures\": {},\n  \"transport_failures\": {},\n  \"panics_caught\": {panics_caught},\n  \"faults_injected\": {{\n{sites_json}\n  }},\n  \"daemon_injected\": {daemon_injected},\n  \"crash_point_injected\": {crash_injected},\n  \"total_injected\": {total},\n  \"crash_points_recovered\": 4,\n  \"byte_identity\": \"held for every completed response and the chaos-off rerun\"\n}}\n",
        JOBS.len(),
        counters.completed,
        counters.structured_failures,
        counters.transport_failures,
    );
    std::fs::write(&out, &json).expect("write BENCH_chaos.json");
    eprintln!(
        "{total} faults injected ({panics_caught} panics caught), {} completed, {} structured failures -> {out}",
        counters.completed, counters.structured_failures
    );
    print!("{json}");
}
