//! Regenerates Table 6: `EstimateMisses` vs the simulator on the three
//! whole programs (after abstract inlining), with run times and speedups.
//!
//! ```text
//! cargo run -p cme-bench --bin table6 --release [-- --scale small|medium|paper] [--threads n]
//! ```
//!
//! Expected shape: absolute miss-ratio errors under ~1 percentage point,
//! with the analytical time orders of magnitude below the simulation time,
//! and the gap growing with program size (the paper's Applu: 128s vs
//! almost 5 hours — three orders of magnitude).

use cme_analysis::{EstimateMisses, SamplingOptions};
use cme_bench::{paper_caches, scaled_caches, secs, timed, Scale, Table};
use cme_cache::Simulator;
use cme_ir::Program;
use cme_reuse::ReuseAnalysis;
use std::sync::Arc;

fn main() {
    let scale = Scale::from_args();
    let sampling = SamplingOptions {
        threads: cme_bench::threads_from_args(),
        ..SamplingOptions::paper_default()
    };
    let (programs, caches): (Vec<(&str, Program)>, _) = match scale {
        Scale::Small => (
            vec![
                (
                    "tomcatv-like (N=32,T=8)",
                    cme_workloads::tomcatv_like(32, 8),
                ),
                ("swim-like (N=32,T=8)", cme_workloads::swim_like(32, 8)),
                ("applu-like (N=10,T=6)", cme_workloads::applu_like(10, 6)),
            ],
            scaled_caches(8),
        ),
        Scale::Medium => (
            vec![
                (
                    "tomcatv-like (N=64,T=30)",
                    cme_workloads::tomcatv_like(64, 30),
                ),
                ("swim-like (N=64,T=30)", cme_workloads::swim_like(64, 30)),
                ("applu-like (N=12,T=20)", cme_workloads::applu_like(12, 20)),
            ],
            scaled_caches(16),
        ),
        Scale::Paper => (
            vec![
                (
                    "tomcatv-like (N=256,T=100)",
                    cme_workloads::tomcatv_like(256, 100),
                ),
                (
                    "swim-like (N=256,T=100)",
                    cme_workloads::swim_like(256, 100),
                ),
                ("applu-like (N=16,T=75)", cme_workloads::applu_like(16, 75)),
            ],
            paper_caches(),
        ),
    };

    println!(
        "Table 6: EstimateMisses (c=95%, w=0.05) vs simulator on whole programs ({} scale)\n",
        scale.label()
    );
    let mut t = Table::new(&[
        "Program", "Cache", "Sim %", "E.M %", "Abs err", "E.M t(s)", "Sim t(s)", "Speedup",
    ]);
    for (name, program) in &programs {
        // Reuse vectors are shared across the three configurations and
        // capped per consumer on reference-dense programs (see DESIGN.md).
        let (reuse, reuse_t) = timed(|| {
            Arc::new(ReuseAnalysis::analyze_capped(
                program,
                caches[0].1.line_bytes(),
                128,
            ))
        });
        eprintln!("[{name}] reuse vectors in {}s", secs(reuse_t));
        for (cname, cfg) in &caches {
            let (sim, sim_t) = timed(|| Simulator::new(*cfg).run(program));
            let (report, est_t) = timed(|| {
                EstimateMisses::with_reuse(program, *cfg, sampling.clone(), reuse.clone()).run()
            });
            let sim_ratio = 100.0 * sim.miss_ratio();
            let est_ratio = 100.0 * report.miss_ratio();
            let speedup = sim_t.as_secs_f64() / est_t.as_secs_f64().max(1e-9);
            t.row(vec![
                name.to_string(),
                cname.to_string(),
                format!("{sim_ratio:.2}"),
                format!("{est_ratio:.2}"),
                format!("{:.2}", (est_ratio - sim_ratio).abs()),
                secs(est_t),
                secs(sim_t),
                format!("{speedup:.1}x"),
            ]);
        }
    }
    t.print();
    println!(
        "\nPaper (32KB/32B): errors 0.25–0.84 percentage points; Applu analysed in ~128s vs ~4.8h simulated."
    );
}
