//! Timing harness for the parallel point-classification engine: runs
//! `FindMisses` on the MMT kernel serially and with the full worker pool,
//! verifies the two reports agree point-for-point, and writes the numbers
//! to `BENCH_parallel.json`.
//!
//! ```text
//! cargo run -p cme-bench --bin bench_parallel --release -- [--n 100] [--bj 100] [--bk 50] [--out BENCH_parallel.json]
//! ```
//!
//! Defaults are the paper's MMT size (N=BJ=100, BK=50) on the paper's
//! 32KB/32B/2-way cache. The speedup is honest wall-clock: on a single-CPU
//! host it will sit near 1.0 — the engine adds parallelism, not magic.

use cme_analysis::{FindMisses, Threads};
use cme_bench::timed;
use cme_cache::CacheConfig;
use cme_reuse::ReuseAnalysis;
use std::sync::Arc;

fn main() {
    let n: i64 = cme_bench::int_flag("--n").unwrap_or(100);
    let bj: i64 = cme_bench::int_flag("--bj").unwrap_or(n);
    let bk: i64 = cme_bench::int_flag("--bk").unwrap_or((n / 2).max(1));
    let out = cme_bench::flag_value("--out").unwrap_or_else(|| "BENCH_parallel.json".to_string());

    let cfg = CacheConfig::new(32 * 1024, 32, 2).expect("valid geometry");
    let program = cme_workloads::mmt(n, bj, bk);
    let max_threads = Threads::Auto.count();
    eprintln!(
        "MMT (N={n}, BJ={bj}, BK={bk}): {} accesses, cache {cfg}, {max_threads} hardware threads",
        program.total_accesses()
    );

    // Reuse vectors are shared; only classification is being timed.
    let reuse = Arc::new(ReuseAnalysis::analyze(&program, cfg.line_bytes()));

    let (serial, serial_t) = timed(|| {
        FindMisses::with_reuse(&program, cfg, reuse.clone())
            .threads(Threads::Fixed(1))
            .run()
    });
    eprintln!("serial   ({} thread):  {:?}", 1, serial_t);
    let (parallel, parallel_t) = timed(|| {
        FindMisses::with_reuse(&program, cfg, reuse.clone())
            .threads(Threads::Auto)
            .run()
    });
    eprintln!("parallel ({max_threads} threads): {parallel_t:?}");

    // The deterministic-reduction guarantee, checked on every run.
    assert_eq!(
        serial.references(),
        parallel.references(),
        "serial and parallel reports diverged"
    );

    let speedup = serial_t.as_secs_f64() / parallel_t.as_secs_f64().max(1e-9);
    // On a single-hardware-thread host "parallel vs serial" measures only
    // pool overhead; a near-1.0 ratio there is noise, not a speedup, so
    // record null plus a caveat rather than a misleading number.
    let hw = cme_bench::hw_threads();
    let speedup_field = if hw == 1 {
        "\"speedup\": null,\n  \"caveat\": \"host has 1 hardware thread; serial-vs-parallel wall ratio is not a parallel speedup\""
            .to_string()
    } else {
        format!("\"speedup\": {speedup:.2}")
    };
    let json = format!(
        "{{\n  \"workload\": \"mmt(N={n},BJ={bj},BK={bk})\",\n  \"points\": {},\n  \"serial_ms\": {:.1},\n  \"parallel_ms\": {:.1},\n  \"threads\": {max_threads},\n  \"hw_threads\": {hw},\n  \"strategy\": \"set-skip\",\n  {speedup_field}\n}}\n",
        serial.total_accesses(),
        serial_t.as_secs_f64() * 1e3,
        parallel_t.as_secs_f64() * 1e3,
    );
    std::fs::write(&out, &json).expect("write BENCH_parallel.json");
    eprintln!("speedup {speedup:.2}x -> {out}");
    print!("{json}");
}
