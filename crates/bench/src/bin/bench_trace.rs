//! Timing and cross-validation harness for the trace subsystem: generates
//! the exact address stream of each paper workload, measures streaming LRU
//! replay throughput, and checks the load-bearing identity of the whole
//! repo — analytical miss counts vs trace-driven replay — on a
//! power-of-two and a non-power-of-two geometry. Writes `BENCH_trace.json`.
//!
//! ```text
//! cargo run -p cme-bench --bin bench_trace --release -- \
//!     [--scale small|medium|paper] [--threads N] [--out BENCH_trace.json]
//! ```
//!
//! `--threads` sets the `FindMisses` worker count (0 or absent = auto);
//! replay is one serial streaming pass.
//!
//! Checks enforced (exit 2 on failure):
//! * framed encode → decode returns the generated words bit-for-bit, and
//!   re-encoding is byte-identical (the store fingerprint hangs off these
//!   bytes);
//! * replay totals equal the in-memory `cme-cache` simulator on every
//!   workload × geometry;
//! * `FindMisses` equals replay *exactly* on hydro and mgrid; on MMT the
//!   analytical count is a paper-faithful overestimate (`pred >= sim`,
//!   miss-ratio drift under 2%) and the delta is recorded;
//! * a repeat replay through the serve engine answers from the store with
//!   a byte-identical payload;
//! * at `--scale paper`, serial replay of the MMT trace sustains at least
//!   10M accesses/sec.

use cme_analysis::FindMisses;
use cme_bench::{timed, Scale};
use cme_cache::{CacheConfig, Simulator};
use cme_ir::Program;
use cme_serve::Engine;
use std::process::ExitCode;

const PAPER_FLOOR_ACCESSES_PER_SEC: f64 = 10_000_000.0;

fn fail(message: &str) -> ExitCode {
    eprintln!("bench_trace: {message}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scale = Scale::from_args();
    let threads = cme_bench::threads_from_args();
    let out = get("--out").unwrap_or_else(|| "BENCH_trace.json".to_string());

    let workloads: Vec<(String, Program)> = match scale {
        Scale::Small => vec![
            ("mmt(N=16,BJ=16,BK=8)".into(), cme_workloads::mmt(16, 16, 8)),
            ("hydro(24x24)".into(), cme_workloads::hydro(24, 24)),
            ("mgrid(12)".into(), cme_workloads::mgrid(12)),
        ],
        Scale::Medium => vec![
            (
                "mmt(N=40,BJ=40,BK=20)".into(),
                cme_workloads::mmt(40, 40, 20),
            ),
            ("hydro(60x60)".into(), cme_workloads::hydro(60, 60)),
            ("mgrid(40)".into(), cme_workloads::mgrid(40)),
        ],
        Scale::Paper => vec![
            (
                "mmt(N=100,BJ=100,BK=50)".into(),
                cme_workloads::mmt(100, 100, 50),
            ),
            ("hydro(100x100)".into(), cme_workloads::hydro(100, 100)),
            ("mgrid(100)".into(), cme_workloads::mgrid(100)),
        ],
    };
    // One power-of-two geometry (shift/mask indexing) and one with a
    // non-power-of-two set count (Euclidean fallback + dense congruence
    // tier on the analytical side).
    let geometries: Vec<CacheConfig> = ["32K:2:32", "48K:2:32"]
        .iter()
        .map(|s| CacheConfig::parse_geometry(s).expect("valid geometry"))
        .collect();

    let nthreads = threads.count();
    eprintln!(
        "bench_trace: scale {}, {nthreads} analysis threads",
        scale.label()
    );

    let mut rows: Vec<String> = Vec::new();
    let mut mmt_throughput = 0.0f64;
    for (name, program) in &workloads {
        let (words, gen_t) = timed(|| cme_trace::generate(program).expect("addresses fit u32"));

        // Framed roundtrip: decode returns the generated words exactly and
        // the encoding is deterministic (store keys are over these bytes).
        let cfg0 = geometries[0];
        let framed = cme_trace::frame_bytes(&cfg0, &words);
        if framed != cme_trace::frame_bytes(&cfg0, &words) {
            return fail(&format!("{name}: framed encoding is not deterministic"));
        }
        let reader = cme_trace::TraceReader::new(&framed[..]).expect("framed header");
        let decoded = reader.read_to_end().expect("framed payload");
        if decoded != words {
            return fail(&format!("{name}: framed roundtrip lost words"));
        }

        let is_mmt = name.starts_with("mmt");
        for cfg in &geometries {
            // Serial replay, timed: this is the throughput number.
            let (serial, serial_t) = timed(|| {
                let mut sim = cme_trace::TraceSim::new(*cfg);
                sim.replay(&words);
                sim.stats()
            });
            let per_sec = serial.accesses as f64 / serial_t.as_secs_f64().max(1e-9);
            if is_mmt && *cfg == geometries[0] {
                mmt_throughput = per_sec;
            }

            // Replay must agree with the in-memory reference simulator.
            let sim = Simulator::new(*cfg).run(program);
            if serial.accesses != sim.total_accesses() || serial.misses() != sim.total_misses() {
                return fail(&format!("{name} {cfg}: replay diverges from simulator"));
            }

            // The paper's identity: analytical misses vs measured misses.
            let (report, analyse_t) =
                timed(|| FindMisses::new(program, *cfg).threads(threads).run());
            let pred = report
                .exact_misses()
                .expect("exact analysis yields exact misses");
            let measured = serial.misses();
            let delta = pred as i64 - measured as i64;
            if is_mmt {
                // Paper-faithful overestimate: cross-nest group reuse is
                // not expressible as constant reuse vectors.
                if pred < measured {
                    return fail(&format!(
                        "{name} {cfg}: analytical count {pred} under measured {measured}"
                    ));
                }
                let drift = (report.miss_ratio() - serial.miss_ratio()).abs();
                if drift >= 0.02 {
                    return fail(&format!("{name} {cfg}: miss-ratio drift {drift:.4} >= 2%"));
                }
            } else if pred != measured {
                return fail(&format!(
                    "{name} {cfg}: analytical {pred} != measured {measured}"
                ));
            }

            eprintln!(
                "{name} {cfg}: {} accesses, replay {:.1}M/s, analytical {pred} vs measured {measured} (delta {delta:+})",
                serial.accesses,
                per_sec / 1e6
            );
            rows.push(format!(
                "    {{\"workload\": \"{name}\", \"geometry\": \"{}\", \"accesses\": {}, \"gen_ms\": {:.3}, \"replay_ms\": {:.3}, \"accesses_per_sec\": {:.0}, \"analyse_ms\": {:.3}, \"analytical_misses\": {pred}, \"measured_misses\": {measured}, \"delta\": {delta}}}",
                cfg.geometry_string(),
                serial.accesses,
                gen_t.as_secs_f64() * 1e3,
                serial_t.as_secs_f64() * 1e3,
                per_sec,
                analyse_t.as_secs_f64() * 1e3,
            ));
        }
    }

    if scale == Scale::Paper && mmt_throughput < PAPER_FLOOR_ACCESSES_PER_SEC {
        return fail(&format!(
            "paper-scale MMT serial replay {:.1}M accesses/sec under the {:.0}M floor",
            mmt_throughput / 1e6,
            PAPER_FLOOR_ACCESSES_PER_SEC / 1e6
        ));
    }

    // Serve-engine leg: a repeat replay answers from the store with a
    // byte-identical payload.
    let engine = Engine::in_memory(16);
    let (ref name, ref program) = workloads[0];
    let words = cme_trace::generate(program).expect("addresses fit u32");
    let bytes = cme_trace::frame_bytes(&geometries[0], &words);
    let cold = engine
        .run_trace(&bytes, geometries[0])
        .expect("cold trace replay");
    let hot = engine
        .run_trace(&bytes, geometries[0])
        .expect("hot trace replay");
    if cold.from_store || !hot.from_store {
        return fail(&format!("{name}: engine store cold/hot sequence broken"));
    }
    if cold.payload != hot.payload || cold.fingerprint != hot.fingerprint {
        return fail(&format!("{name}: stored trace payload not byte-identical"));
    }

    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"threads\": {nthreads},\n  \"hw_threads\": {},\n  \"mmt_serial_accesses_per_sec\": {:.0},\n  \"paper_floor_accesses_per_sec\": {:.0},\n  \"engine_hot_from_store\": true,\n  \"rows\": [\n{}\n  ]\n}}\n",
        scale.label(),
        cme_bench::hw_threads(),
        mmt_throughput,
        PAPER_FLOOR_ACCESSES_PER_SEC,
        rows.join(",\n"),
    );
    std::fs::write(&out, &json).expect("write BENCH_trace.json");
    eprintln!("-> {out}");
    print!("{json}");
    ExitCode::SUCCESS
}
