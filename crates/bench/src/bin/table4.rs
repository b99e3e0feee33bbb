//! Regenerates Table 4: `EstimateMisses` accuracy and run time on the
//! three kernels (`c = 95 %`, `w = 0.05`).
//!
//! ```text
//! cargo run -p cme-bench --bin table4 --release [-- --scale small|medium|paper] [--threads n]
//! ```
//!
//! Expected shape: absolute miss-ratio errors well below the requested
//! 0.05 interval (the paper reports ≤ 0.4 percentage points), at a small
//! fraction of the exact analysis / simulation time.

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
    let (kernels, caches): (Vec<(&str, Program)>, _) = match scale {
        Scale::Small => (
            vec![
                ("Hydro (KN=JN=24)", cme_workloads::hydro(24, 24)),
                ("MGRID (M=12)", cme_workloads::mgrid(12)),
                ("MMT (N=BJ=24,BK=12)", cme_workloads::mmt(24, 24, 12)),
            ],
            scaled_caches(4),
        ),
        Scale::Medium => (
            vec![
                ("Hydro (KN=JN=50)", cme_workloads::hydro(50, 50)),
                ("MGRID (M=32)", cme_workloads::mgrid(32)),
                ("MMT (N=BJ=50,BK=25)", cme_workloads::mmt(50, 50, 25)),
            ],
            scaled_caches(8),
        ),
        Scale::Paper => (
            vec![
                ("Hydro (KN=JN=100)", cme_workloads::hydro(100, 100)),
                ("MGRID (M=100)", cme_workloads::mgrid(100)),
                ("MMT (N=BJ=100,BK=50)", cme_workloads::mmt(100, 100, 50)),
            ],
            paper_caches(),
        ),
    };

    println!(
        "Table 4: EstimateMisses (c=95%, w=0.05) vs simulator ({} scale)\n",
        scale.label()
    );
    let mut t = Table::new(&[
        "Program", "Cache", "Sim %", "Est %", "Abs err", "Est t(s)", "Sim t(s)",
    ]);
    for (name, program) in &kernels {
        let (reuse, reuse_t) =
            timed(|| Arc::new(ReuseAnalysis::analyze(program, caches[0].1.line_bytes())));
        eprintln!("[{name}] reuse vectors in {}s", secs(reuse_t));
        for (cname, cfg) in &caches {
            let (sim, sim_t) = timed(|| Simulator::new(*cfg).run(program));
            let (report, est_t) = timed(|| {
                EstimateMisses::with_reuse(program, *cfg, sampling.clone(), reuse.clone()).run()
            });
            let sim_ratio = 100.0 * sim.miss_ratio();
            let est_ratio = 100.0 * report.miss_ratio();
            t.row(vec![
                name.to_string(),
                cname.to_string(),
                format!("{sim_ratio:.2}"),
                format!("{est_ratio:.2}"),
                format!("{:.2}", (est_ratio - sim_ratio).abs()),
                secs(est_t),
                secs(sim_t),
            ]);
        }
    }
    t.print();
    println!("\nPaper: absolute errors ≤ 0.37 percentage points, run times ≤ 0.5s per kernel.");
}
