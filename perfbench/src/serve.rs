//! `serve-cli`: CLI-style traffic against an in-process daemon.
//!
//! A round starts a daemon at its defaults on a fresh on-disk store,
//! waits for its first `ping`, then two closed-loop clients with no think
//! time send their seeded request sequences through
//! `cme_serve::client::call_with_retry`, one connection per request, as
//! `cme query` does. Each client owns its jobs (no two clients ever ask
//! for the same answer), and every job is asked for several times, so
//! most answers come from the store. Rounds repeat until the run's time
//! is up; every round asks the same questions.
//!
//! Every answer is checked: a repeat must be byte-identical to its job's
//! first answer (in any round), a sweep cell byte-identical to the single
//! query of the same geometry, and first answers must agree with the
//! benchmark's own LRU replay of the same program.

use crate::kernels::shuffle;
use crate::lower::{self, Lowered};
use crate::lru;
use crate::spans::Tracer;
use crate::stats::{median, quantile, tail_supported};
use crate::{Host, Ops, Run};
use cme_cache::CacheConfig;
use cme_poly::rng::{derive_seed, Rng, SplitMix64};
use cme_serve::client::call_with_retry;
use cme_serve::json::obj;
use cme_serve::{Json, RetryPolicy, Server, ServerOptions};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Clients, each its own thread and its own jobs.
const CLIENTS: usize = 2;

/// Largest |answered − replayed| whole-program miss ratio, in percentage
/// points, an `estimate` answer may show.
pub const ESTIMATE_TOLERANCE_PP: f64 = 2.0;

/// A program as named on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// A bundled kernel: `"workload":name,"n":n` (plus `bj`/`bk` for MMT).
    Kernel { name: &'static str, n: i64 },
    /// FORTRAN text sent as `"source"`, re-lowered on every request.
    Source {
        name: &'static str,
        n: i64,
        itmax: i64,
    },
}

impl Spec {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        match *self {
            Spec::Kernel { name, n } => {
                let mut f = vec![("workload", Json::Str(name.into())), ("n", Json::Int(n))];
                if name == "mmt" {
                    f.push(("bj", Json::Int(n / 2)));
                    f.push(("bk", Json::Int(n / 4)));
                }
                f
            }
            Spec::Source { name, n, itmax } => vec![
                ("source", Json::Str(source_text(name).into())),
                (
                    "params",
                    obj(vec![("N", Json::Int(n)), ("ITMAX", Json::Int(itmax))]),
                ),
            ],
        }
    }

    /// The same program, lowered by the benchmark (for the oracle).
    fn lower(&self, tr: &mut Tracer, op: u64) -> Lowered {
        match *self {
            Spec::Kernel { name, n } => {
                let k = crate::kernels::KERNELS
                    .iter()
                    .find(|k| k.name == name)
                    .expect("kernel spec names a bundled kernel");
                let params: Vec<(&str, i64)> = match name {
                    "hydro" => vec![("JN", n), ("KN", n)],
                    "mgrid" => vec![("M", n)],
                    _ => vec![("N", n), ("BJ", n / 2), ("BK", n / 4)],
                };
                lower::fortran(tr, op, k.text, &params)
            }
            Spec::Source { name, n, itmax } => {
                lower::fortran(tr, op, source_text(name), &[("N", n), ("ITMAX", itmax)])
            }
        }
    }
}

fn source_text(name: &str) -> &'static str {
    match name {
        "tomcatv" => cme_workloads::TOMCATV_LIKE_SRC,
        _ => cme_workloads::SWIM_LIKE_SRC,
    }
}

/// What a job asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    Estimate {
        seed: u64,
    },
    Exact,
    /// Exact analyses of a whole grid, with every cell's report.
    Sweep {
        geometries: Vec<CacheConfig>,
    },
    Trace,
}

/// One distinct question.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub spec: Spec,
    pub geometry: CacheConfig,
    pub kind: Kind,
}

impl Job {
    /// The request line.
    pub fn line(&self) -> String {
        let geometry = Json::Str(self.geometry.geometry_string());
        let mut f = match &self.kind {
            Kind::Estimate { seed } => vec![
                ("cmd", Json::Str("analyze".into())),
                ("geometry", geometry),
                ("mode", Json::Str("estimate".into())),
                ("seed", Json::Int(*seed as i64)),
            ],
            Kind::Exact => vec![
                ("cmd", Json::Str("analyze".into())),
                ("geometry", geometry),
                ("mode", Json::Str("exact".into())),
            ],
            Kind::Sweep { geometries } => vec![
                ("cmd", Json::Str("sweep".into())),
                (
                    "geometries",
                    Json::Arr(
                        geometries
                            .iter()
                            .map(|g| Json::Str(g.geometry_string()))
                            .collect(),
                    ),
                ),
                // The default knobs of `analyze`: sweeps default the
                // symbolic tier on, which no other path measures.
                ("symbolic", Json::Str("off".into())),
                ("reports", Json::Bool(true)),
            ],
            Kind::Trace => vec![("cmd", Json::Str("trace".into())), ("geometry", geometry)],
        };
        f.extend(self.spec.fields());
        f.push(("threads", Json::Int(1)));
        obj(f).render()
    }

    /// The (program, geometry) pairs whose answers the oracle must know.
    fn oracle_keys(&self) -> Vec<CacheConfig> {
        match &self.kind {
            Kind::Sweep { geometries } => geometries.clone(),
            _ => vec![self.geometry],
        }
    }
}

/// A client's jobs and the order it asks them in.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub jobs: Vec<Job>,
    pub sequence: Vec<usize>,
}

/// Requests per job per round: the first is usually computed, the rest
/// come from the store.
pub const ASKS_PER_JOB: usize = 10;

/// The seed's plans, one per client. The jobs are fixed, so every seed
/// asks for the same amount of work; the seed draws the sampling seeds
/// and the order of the requests, which decides which answers are
/// computed by a sweep and which by a single query. Client `c` uses
/// problem sizes and geometries of its own, so no two clients share a job
/// or a sweep cell.
pub fn plans(seed: u64) -> Vec<Plan> {
    (0..CLIENTS)
        .map(|c| {
            let mut rng =
                SplitMix64::seed_from_u64(derive_seed(derive_seed(seed, 0x3000), c as u64));
            // Geometries are dealt from the kernels-exact grid in a fixed
            // stride that mixes sizes, line sizes and associativities, from
            // a different starting point per client.
            let grid = &crate::KERNEL_GEOMETRIES;
            let mut dealt = 0;
            let mut deal = || {
                let g = grid[(12 * c + 7 * dealt) % grid.len()];
                dealt += 1;
                assert!(dealt <= grid.len(), "more slots than geometries");
                CacheConfig::parse_geometry(g).expect("listed geometry is valid")
            };
            let c = c as i64;
            let kernel = |name, n| Spec::Kernel { name, n };
            let mut jobs = Vec::new();
            // Estimates on the kernels as bundled workloads, and on
            // tomcatv-like and swim-like sent as FORTRAN.
            let estimated = [
                kernel("hydro", 60 + c),
                kernel("mgrid", 24 + c),
                kernel("mmt", 48 + 8 * c),
                Spec::Source {
                    name: "tomcatv",
                    n: 64 + 2 * c,
                    itmax: 2,
                },
                Spec::Source {
                    name: "swim",
                    n: 64 + 2 * c,
                    itmax: 2,
                },
            ];
            for spec in estimated {
                let kind = Kind::Estimate {
                    seed: rng.next_u64() >> 1,
                };
                jobs.push(Job {
                    spec,
                    geometry: deal(),
                    kind,
                });
            }
            // Exact analyses of small kernels, two geometries each; the
            // first two programs are also swept over a four-cell grid that
            // holds both of their single-query geometries.
            let exact = [
                kernel("hydro", 24 + c),
                kernel("mgrid", 12 + c),
                kernel("mmt", 16 + 8 * c),
            ];
            for (i, spec) in exact.into_iter().enumerate() {
                let (g1, g2) = (deal(), deal());
                jobs.push(Job {
                    spec: spec.clone(),
                    geometry: g1,
                    kind: Kind::Exact,
                });
                jobs.push(Job {
                    spec: spec.clone(),
                    geometry: g2,
                    kind: Kind::Exact,
                });
                if i < 2 {
                    let geometries = vec![g1, g2, deal(), deal()];
                    jobs.push(Job {
                        spec,
                        geometry: g1,
                        kind: Kind::Sweep { geometries },
                    });
                }
            }
            // Trace replays.
            for spec in [kernel("hydro", 28 + c), kernel("mmt", 16 + 8 * c)] {
                jobs.push(Job {
                    spec,
                    geometry: deal(),
                    kind: Kind::Trace,
                });
            }
            let mut sequence: Vec<usize> = (0..jobs.len())
                .flat_map(|j| std::iter::repeat_n(j, ASKS_PER_JOB))
                .collect();
            shuffle(&mut sequence, &mut rng);
            Plan { jobs, sequence }
        })
        .collect()
}

/// The bytes of every `"key":` value in a JSON line, in order.
pub fn raw_values<'a>(line: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\":");
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = line[from..].find(&needle) {
        let start = from + at + needle.len();
        let (mut depth, mut in_str, mut esc) = (0i32, false, false);
        let mut end = start;
        for (i, &b) in bytes.iter().enumerate().skip(start) {
            end = i + 1;
            if in_str {
                match b {
                    _ if esc => esc = false,
                    b'\\' => esc = true,
                    b'"' => in_str = false,
                    _ => {}
                }
                continue;
            }
            match b {
                b'"' => in_str = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => {
                    depth -= 1;
                    if depth < 0 {
                        end = i;
                        break;
                    }
                }
                b',' if depth == 0 => {
                    end = i;
                    break;
                }
                _ => {}
            }
            if depth == 0 && (b == b'}' || b == b']') {
                break;
            }
        }
        out.push(&line[start..end]);
        from = end;
    }
    out
}

/// One answered (or failed) request.
struct Answer {
    client: usize,
    /// Position in the client's sequence.
    seq: usize,
    job: usize,
    start: Instant,
    latency: Duration,
    response: Result<String, String>,
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setup: f64,
    wall: f64,
    requests: u64,
    hot: Vec<f64>,
    cold: Vec<f64>,
    engine_cold: Vec<f64>,
    analysis_s: f64,
    /// Engine seconds of each computed `analyze` and `sweep` answer, by
    /// client and job.
    analysis_by_job: Vec<(String, f64)>,
    queue_wait: Vec<f64>,
    overhead_hot: Vec<f64>,
    /// `cme_cache::Simulator` on every (program, geometry) of the jobs.
    simulate: f64,
    /// Its seconds by client, job and geometry.
    simulate_by_key: Vec<(String, f64)>,
    /// The host scale of the round.
    scale: f64,
    sim_accesses: u64,
    span: Option<usize>,
    /// Distinct exact answers above the replayed count.
    inexact: u64,
    stats: Option<Json>,
}

/// The LRU replay of every (client, job, geometry) the jobs touch.
type Oracle = HashMap<(usize, usize, String), lru::Replay>;

pub fn run(
    run: &Run,
    tr: &mut Tracer,
    ops: &mut Ops,
    host: &mut Host,
) -> BTreeMap<&'static str, f64> {
    let plans = plans(run.seed);
    let mut m = BTreeMap::new();

    // The oracle: the benchmark lowers every program itself and replays it
    // through its own LRU model; simulate_s times cme_cache::Simulator on
    // the same (program, geometry) pairs.
    tr.set_enabled(run.trace);
    let lowering = tr.enter("oracle.lower", 0);
    let lowering_id = lowering.id();
    let mut programs: Vec<Vec<Lowered>> = Vec::new();
    for (c, plan) in plans.iter().enumerate() {
        programs.push(
            plan.jobs
                .iter()
                .enumerate()
                .map(|(j, job)| job.spec.lower(tr, (c * 1000 + j) as u64))
                .collect(),
        );
    }
    tr.exit(lowering);
    let mut oracle = Oracle::new();
    for (c, plan) in plans.iter().enumerate() {
        for (j, job) in plan.jobs.iter().enumerate() {
            for g in job.oracle_keys() {
                let r = lru::replay(&programs[c][j].program, &g);
                oracle.insert((c, j, g.geometry_string()), r);
            }
        }
    }
    let mut first: HashMap<(usize, usize), String> = HashMap::new();
    let mut rounds: Vec<(bool, f64, Round)> = Vec::new();
    let mut round = 0u64;
    while crate::another_pass(run, round, rounds.last().map_or(0.0, |r| r.1)) {
        let traced = run.trace && round.is_multiple_of(2);
        tr.set_enabled(traced);
        let t = Instant::now();
        let r = serve_round(
            run, round, tr, host, &plans, &programs, &oracle, &mut first, ops,
        );
        eprintln!(
            "round {round}{}: analysis {:.3} s, simulate {:.3} s, {} requests in {:.3} s as measured; host scale {:.3}",
            if traced { " (traced)" } else { "" },
            r.analysis_s,
            r.simulate,
            r.requests,
            r.wall,
            r.scale
        );
        rounds.push((traced, t.elapsed().as_secs_f64(), r));
        round += 1;
    }
    tr.set_enabled(false);
    let _ = std::fs::remove_dir(crate::run_dir());

    // End-to-end times, each round scaled to nominal host speed. Every
    // round asks the same questions, so analysis_s and simulate_s add up
    // each computed answer's and each simulation's median over the
    // untraced rounds, which keeps one slow answer from moving a round.
    let all: Vec<&Round> = rounds.iter().filter(|r| !r.0).map(|r| &r.2).collect();
    let med = |f: &dyn Fn(&Round) -> f64| median(&all.iter().map(|r| f(r)).collect::<Vec<_>>());
    let per_key = |f: &dyn Fn(&Round) -> &Vec<(String, f64)>| -> f64 {
        let mut by_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in &all {
            for (key, t) in f(r) {
                by_key.entry(key).or_default().push(t * r.scale);
            }
        }
        by_key.values().map(|v| median(v)).sum()
    };
    m.insert("setup_s", med(&|r| r.setup * r.scale));
    m.insert("simulate_s", per_key(&|r| &r.simulate_by_key));
    m.insert("analysis_s", per_key(&|r| &r.analysis_by_job));
    // Throughput is as measured: a round's traffic waits mostly on the
    // daemon's 50 ms watcher polls, so its wall time does not follow the
    // host's speed.
    m.insert("queries_per_s", med(&|r| r.requests as f64 / r.wall));

    let pick = |traced: bool| -> Vec<&Round> {
        rounds
            .iter()
            .filter(|r| r.0 == traced || !run.trace)
            .map(|r| &r.2)
            .collect()
    };
    let summary = latency_summary(&pick(true));
    for (k, v) in &summary {
        eprintln!("  {k:32} {v:>14.4}");
    }
    if run.trace {
        m.extend(summary.iter().map(|(k, v)| (*k, *v)));
        let untraced = latency_summary(&pick(false));
        m.insert("trace.cold_p50_ms", summary["serve.cold_p50_ms"]);
        m.insert(
            "trace.cold_p50_overhead_ms",
            summary["serve.cold_p50_ms"] - untraced["serve.cold_p50_ms"],
        );
        let engine = |traced: bool, scaled: bool| {
            median(
                &pick(traced)
                    .iter()
                    .map(|r| r.analysis_s * if scaled { r.scale } else { 1.0 })
                    .collect::<Vec<_>>(),
            )
        };
        m.insert("trace.analysis_s", engine(true, false));
        m.insert(
            "trace.analysis_overhead_s",
            engine(true, true) - engine(false, true),
        );
        let traced_rounds = pick(true);
        let total = |key: &str| -> f64 {
            traced_rounds
                .iter()
                .filter_map(|r| r.stats.as_ref()?.get(key)?.as_f64())
                .sum()
        };
        let pct = |a: f64, b: f64| 100.0 * a / (a + b).max(1.0);
        m.insert(
            "serve.store_hit_pct",
            pct(total("store_hits"), total("store_misses")),
        );
        m.insert(
            "serve.reuse_hit_pct",
            pct(total("reuse_hits"), total("reuse_misses")),
        );
        let n = traced_rounds.len().max(1) as f64;
        m.insert(
            "serve.sweep_cells_from_store",
            total("sweep_cell_store_hits") / n,
        );
        m.insert("serve.trace_accesses", total("trace_accesses_replayed") / n);
        let lowered: Vec<&Lowered> = programs.iter().flatten().collect();
        m.extend(crate::lowering_layers(
            tr,
            &Vec::from_iter(lowering_id),
            &lowered,
        ));
        let ids: Vec<usize> = traced_rounds.iter().filter_map(|r| r.span).collect();
        m.insert(
            "cache.simulate_ms",
            crate::span_ms(tr, &ids, "cache.simulate") / crate::SIM_REPS as f64,
        );
        m.insert(
            "cache.accesses",
            traced_rounds.first().map_or(0.0, |r| r.sim_accesses as f64),
        );
    }
    m
}

/// Latency percentiles and per-layer serve times over some rounds.
fn latency_summary(rounds: &[&Round]) -> BTreeMap<&'static str, f64> {
    let cat = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let hot = cat(&|r| &r.hot);
    let cold = cat(&|r| &r.cold);
    let q = |v: &Vec<f64>, p: f64| -> f64 {
        if !tail_supported(v.len(), p) && p > 0.5 {
            eprintln!(
                "serve-cli: only {} samples for a p{:.0} (fewer than ten beyond it)",
                v.len(),
                p * 100.0
            );
        }
        quantile(v, p).unwrap_or(0.0)
    };
    let mut m = BTreeMap::new();
    m.insert("serve.hot_p50_ms", q(&hot, 0.5));
    m.insert("serve.hot_p95_ms", q(&hot, 0.95));
    m.insert("serve.cold_p50_ms", q(&cold, 0.5));
    m.insert("serve.cold_p90_ms", q(&cold, 0.9));
    m.insert("serve.hot_answers", hot.len() as f64);
    m.insert("serve.cold_answers", cold.len() as f64);
    m.insert("serve.engine_ms", median(&cat(&|r| &r.engine_cold)));
    let waits = cat(&|r| &r.queue_wait);
    m.insert(
        "serve.queue_wait_ms",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
    );
    m.insert("serve.overhead_ms", median(&cat(&|r| &r.overhead_hot)));
    m.insert(
        "serve.inexact_answers",
        rounds.iter().map(|r| r.inexact as f64).sum(),
    );
    m
}

/// Sends one request line on a fresh connection, as `cme query` does.
fn call(addr: SocketAddr, line: &str) -> Result<String, String> {
    call_with_retry(addr, line, &RetryPolicy::with_retries(0)).map_err(|e| e.to_string())
}

#[allow(clippy::too_many_arguments)]
fn serve_round(
    run: &Run,
    round: u64,
    tr: &mut Tracer,
    host: &mut Host,
    plans: &[Plan],
    programs: &[Vec<Lowered>],
    oracle: &Oracle,
    first: &mut HashMap<(usize, usize), String>,
    ops: &mut Ops,
) -> Round {
    let mut out = Round::default();
    let round_span = tr.enter("serve.round", round);
    out.span = round_span.id();

    // The simulator on every (program, geometry) the jobs touch, against
    // the LRU replay: what answering the round by simulation would cost.
    // It runs before the daemon starts, so nothing else competes for the
    // host while it is timed.
    for (c, plan) in plans.iter().enumerate() {
        for (j, job) in plan.jobs.iter().enumerate() {
            for g in job.oracle_keys() {
                let op = (c * 1000 + j) as u64;
                let (t, sim) = crate::simulate(tr, op, &programs[c][j].program, g, crate::SIM_REPS);
                out.simulate += t;
                out.simulate_by_key.push((format!("{c}/{j}/{g}"), t));
                out.sim_accesses += sim.total_accesses();
                let own = oracle[&(c, j, g.geometry_string())];
                ops.record(
                    if (sim.total_accesses(), sim.total_misses()) == (own.accesses, own.misses) {
                        Ok(())
                    } else {
                        Err(format!(
                            "serve-cli simulator {} misses vs LRU replay {} on {:?} {g}",
                            sim.total_misses(),
                            own.misses,
                            job.spec
                        ))
                    },
                );
            }
        }
    }

    host.probe();

    // Set-up: bind and open a fresh store, then the first answered ping.
    let dir = crate::run_dir().join(format!("store-{}-{}-{round}", std::process::id(), run.seed));
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let options = ServerOptions {
        store_dir: Some(dir.clone()),
        ..ServerOptions::default()
    };
    let server = tr
        .time("serve.bind", round, || Server::bind(options))
        .expect("the daemon binds an ephemeral local port");
    let addr = server
        .local_addr()
        .expect("a bound listener has an address");
    let daemon = std::thread::spawn(move || server.run());
    let ping = tr.time("serve.ping", round, || call(addr, r#"{"cmd":"ping"}"#));
    out.setup = t.elapsed().as_secs_f64();
    ops.record(match &ping {
        Ok(line) if line.contains(r#""pong":true"#) => Ok(()),
        Ok(line) => Err(format!("serve-cli ping answered {line}")),
        Err(e) => Err(format!("serve-cli ping failed: {e}")),
    });

    // Traffic: two closed-loop clients, no think time.
    let t = Instant::now();
    let answers: Vec<Answer> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                s.spawn(move || {
                    let lines: Vec<String> = plan.jobs.iter().map(Job::line).collect();
                    plan.sequence
                        .iter()
                        .enumerate()
                        .map(|(seq, &j)| {
                            let start = Instant::now();
                            let response = call(addr, &lines[j]);
                            Answer {
                                client: c,
                                seq,
                                job: j,
                                start,
                                latency: start.elapsed(),
                                response,
                            }
                        })
                        .collect::<Vec<Answer>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    out.wall = t.elapsed().as_secs_f64();

    let stats = tr.time("serve.stats", round, || call(addr, r#"{"cmd":"stats"}"#));
    out.stats = stats
        .ok()
        .and_then(|l| Json::parse(&l).ok())
        .and_then(|j| j.get("stats").cloned());
    let bye = tr.time("serve.shutdown", round, || {
        call(addr, r#"{"cmd":"shutdown"}"#)
    });
    match bye {
        // Only a daemon that said goodbye can be joined; one that did not
        // ends with the process.
        Ok(l) if l.contains(r#""bye":true"#) => ops.record(match daemon.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve-cli daemon stopped with {e}")),
            Err(_) => Err("serve-cli daemon thread panicked".to_string()),
        }),
        other => ops.record(Err(format!("serve-cli shutdown answered {other:?}"))),
    }
    let _ = std::fs::remove_dir_all(&dir);
    // The host's speed with the daemon gone; the round's window also
    // holds the probe taken before the daemon started.
    host.probe();
    out.scale = host.scale();

    // Sweep cells are checked against single queries of the same round.
    let mut singles: HashMap<(usize, String, String), String> = HashMap::new();
    for a in &answers {
        let job = &plans[a.client].jobs[a.job];
        if let (Kind::Exact, Ok(line)) = (&job.kind, &a.response) {
            if let Some(report) = raw_values(line, "report").first() {
                let key = (
                    a.client,
                    format!("{:?}", job.spec),
                    job.geometry.geometry_string(),
                );
                singles.insert(key, report.to_string());
            }
        }
    }

    for a in &answers {
        let job = &plans[a.client].jobs[a.job];
        // One op per request: round, client, position in the sequence.
        let op = round * 100_000 + (a.client * 10_000 + a.seq) as u64;
        tr.record("serve.request", op, a.start, a.start + a.latency);
        out.requests += 1;
        let ms = a.latency.as_secs_f64() * 1e3;
        let verdict = check_answer(a, job, oracle, first, &singles, &mut out, ms);
        ops.record(verdict.map_err(|e| format!("serve-cli {:?} {}: {e}", job.kind, job.geometry)));
    }
    tr.exit(round_span);
    out
}

/// Checks one answer and files its latency as hot or cold.
fn check_answer(
    a: &Answer,
    job: &Job,
    oracle: &Oracle,
    first: &mut HashMap<(usize, usize), String>,
    singles: &HashMap<(usize, String, String), String>,
    out: &mut Round,
    ms: f64,
) -> Result<(), String> {
    let line = a.response.as_ref().map_err(|e| format!("transport: {e}"))?;
    let v = Json::parse(line).map_err(|e| format!("unparseable answer: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error answer: {line}"));
    }
    let metrics = v.get("metrics").ok_or("answer without metrics")?;
    let num = |k: &str| metrics.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let (wall_ms, wait_ms) = (num("wall_us") / 1e3, num("queue_wait_us") / 1e3);
    let computed = match &job.kind {
        Kind::Sweep { .. } => num("computed") > 0.0,
        _ => metrics.get("store").and_then(Json::as_str) != Some("hit"),
    };
    out.queue_wait.push(wait_ms);
    if computed {
        out.cold.push(ms);
        out.engine_cold.push(wall_ms);
        if !matches!(job.kind, Kind::Trace) {
            out.analysis_s += wall_ms / 1e3;
            out.analysis_by_job
                .push((format!("{}/{}", a.client, a.job), wall_ms / 1e3));
        }
    } else {
        out.hot.push(ms);
        out.overhead_hot.push(ms - wall_ms - wait_ms);
    }

    // Repeats: byte-identical to the job's first answer.
    let reports = raw_values(line, "report");
    let answer = reports.join("\n");
    if answer.is_empty() {
        return Err("answer without a report".into());
    }
    let key = (a.client, a.job);
    if let Some(prev) = first.get(&key) {
        return if *prev == answer {
            Ok(())
        } else {
            Err("repeat differs from the job's first answer".into())
        };
    }

    // A first answer: against the oracle.
    let replayed = |g: &CacheConfig| oracle[&(a.client, a.job, g.geometry_string())];
    let result = match &job.kind {
        Kind::Estimate { .. } => {
            let report = Json::parse(reports[0]).map_err(|e| e.to_string())?;
            let ratio = report
                .get("miss_ratio")
                .and_then(Json::as_f64)
                .ok_or("no miss_ratio")?;
            let own = replayed(&job.geometry);
            let err_pp = 100.0 * (ratio - own.miss_ratio()).abs();
            if err_pp <= ESTIMATE_TOLERANCE_PP {
                Ok(())
            } else {
                Err(format!("estimate off by {err_pp:.3} pp"))
            }
        }
        Kind::Exact => exact_matches(&job.spec, reports[0], replayed(&job.geometry))
            .map(|exact| out.inexact += u64::from(!exact)),
        Kind::Sweep { geometries } => {
            if reports.len() != geometries.len() {
                return Err(format!(
                    "{} cells for {} geometries",
                    reports.len(),
                    geometries.len()
                ));
            }
            let cells = v
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or("sweep without cells")?;
            let mut res = Ok(());
            for (cell, report) in cells.iter().zip(&reports) {
                let g = cell
                    .get("geometry")
                    .and_then(Json::as_str)
                    .and_then(|s| CacheConfig::parse_geometry(s).ok())
                    .ok_or("cell without geometry")?;
                if !geometries.contains(&g) {
                    res = Err(format!("unrequested cell {g}"));
                    break;
                }
                match exact_matches(&job.spec, report, replayed(&g)) {
                    Ok(exact) => out.inexact += u64::from(!exact),
                    Err(e) => {
                        res = Err(format!("cell {g}: {e}"));
                        break;
                    }
                }
                let single = (a.client, format!("{:?}", job.spec), g.geometry_string());
                if let Some(s) = singles.get(&single) {
                    if s != report {
                        res = Err(format!("cell {g} differs from the single query"));
                        break;
                    }
                }
            }
            res
        }
        Kind::Trace => {
            let report = Json::parse(reports[0]).map_err(|e| e.to_string())?;
            let own = replayed(&job.geometry);
            let get = |k: &str| report.get(k).and_then(Json::as_u64);
            if (get("accesses"), get("misses")) == (Some(own.accesses), Some(own.misses)) {
                Ok(())
            } else {
                Err(format!("trace replay {report:?} vs LRU {own:?}"))
            }
        }
    };
    first.insert(key, answer);
    result
}

/// An exact report against the replayed count: never below it, above it
/// only within the documented overestimate bound. `Ok(false)` flags an
/// overestimate (Hydro below its Table 3 size shows one-miss
/// overestimates at some geometries; see the README).
fn exact_matches(spec: &Spec, report: &str, own: lru::Replay) -> Result<bool, String> {
    let report = Json::parse(report).map_err(|e| e.to_string())?;
    let misses = report
        .get("exact_misses")
        .and_then(Json::as_u64)
        .ok_or("exact report without exact_misses")?;
    let accesses = report
        .get("total_accesses")
        .and_then(Json::as_u64)
        .ok_or("report without total_accesses")?;
    let name = match spec {
        Spec::Kernel { name, .. } | Spec::Source { name, .. } => *name,
    };
    crate::pins::check_bounded((name, "", own.accesses, own.misses), accesses, misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_values_slice_exact_bytes() {
        let line =
            r#"{"ok":true,"report":{"a":[1,{"b":"x}\"y"}],"c":2.5},"metrics":{"store":"hit"}}"#;
        assert_eq!(
            raw_values(line, "report"),
            vec![r#"{"a":[1,{"b":"x}\"y"}],"c":2.5}"#]
        );
        let sweep =
            r#"{"cells":[{"geometry":"8K:1:32","report":{"x":1}},{"report":{"x":2}}],"m":1}"#;
        assert_eq!(
            raw_values(sweep, "report"),
            vec![r#"{"x":1}"#, r#"{"x":2}"#]
        );
        assert_eq!(raw_values(sweep, "m"), vec!["1"]);
    }

    /// The same seed gives the same counts (two traced rounds each time)
    /// and no failed op.
    #[test]
    fn same_seed_same_counts() {
        let run_once = || {
            let run = Run {
                workload: "serve-cli".into(),
                seed: 3,
                seconds: 0.001,
                started: Instant::now(),
                trace: true,
            };
            let mut ops = Ops::default();
            let m = super::run(&run, &mut Tracer::new(), &mut ops, &mut Host::default());
            assert_eq!(ops.failed, 0);
            m
        };
        let (a, b) = (run_once(), run_once());
        for key in [
            "inline.refs_out",
            "cache.accesses",
            "serve.hot_answers",
            "serve.cold_answers",
            "serve.inexact_answers",
            "serve.store_hit_pct",
            "serve.sweep_cells_from_store",
            "serve.trace_accesses",
        ] {
            assert_eq!(a[key], b[key], "{key}");
            assert!(a[key] > 0.0, "{key}");
        }
    }

    #[test]
    fn plans_are_seeded_and_disjoint() {
        assert_eq!(plans(7), plans(7));
        assert_ne!(plans(7), plans(8));
        let p = plans(7);
        for job in &p[0].jobs {
            assert!(!p[1].jobs.iter().any(|j| j.spec == job.spec), "{job:?}");
        }
        for plan in &p {
            assert_eq!(plan.sequence.len(), ASKS_PER_JOB * plan.jobs.len());
        }
    }
}
