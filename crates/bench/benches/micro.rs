//! Std-only micro-benchmarks for the analysis pipeline stages, plus the
//! sampling-parameter ablation called out in DESIGN.md.
//!
//! Runs via `cargo bench -p cme-bench` (the manifest sets `harness = false`
//! so this is a plain binary — no external benchmarking framework needed,
//! which keeps the workspace building offline). Each case is timed with a
//! warm-up pass and a median-of-N wall-clock measurement.

use cme_analysis::{EstimateMisses, FindMisses, SamplingOptions};
use cme_cache::{CacheConfig, Simulator};
use cme_poly::{Affine, Constraint, ConstraintSystem, SeededRng, Space};
use cme_reuse::ReuseAnalysis;
use std::hint::black_box;
use std::time::Instant;

fn cfg() -> CacheConfig {
    CacheConfig::new(8 * 1024, 32, 2).expect("valid")
}

/// Median-of-`n` wall-clock timing with one warm-up iteration.
fn bench<T>(label: &str, n: usize, mut f: impl FnMut() -> T) {
    black_box(f());
    let mut times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = times[times.len() / 2];
    println!("{label:<40} {median:>10.3} ms  (median of {n})");
}

fn bench_reuse_generation() {
    let hydro = cme_workloads::hydro(50, 50);
    let mmt = cme_workloads::mmt(32, 16, 8);
    bench("reuse_generation/hydro_50", 10, || {
        ReuseAnalysis::analyze(black_box(&hydro), 32)
    });
    bench("reuse_generation/mmt_32", 10, || {
        ReuseAnalysis::analyze(black_box(&mmt), 32)
    });
    // Whole programs: most pairs share a candidate set, and applu-like's
    // inlined copies yield 1.8M vectors.
    let tomcatv = cme_workloads::tomcatv_like(256, 10);
    let applu = cme_workloads::applu_like(6, 2);
    bench("reuse_generation/tomcatv_like_256", 3, || {
        ReuseAnalysis::analyze(black_box(&tomcatv), 32)
    });
    bench("reuse_generation/applu_like_6_2", 3, || {
        ReuseAnalysis::analyze(black_box(&applu), 32)
    });
}

fn bench_polyhedra() {
    // Triangular 3-D iteration space: count + sample.
    let mut sys = ConstraintSystem::new(3);
    sys.push(Constraint::ge(Affine::new(vec![1, 0, 0], -1)));
    sys.push(Constraint::ge(Affine::new(vec![-1, 0, 0], 60)));
    sys.push(Constraint::ge(Affine::new(vec![-1, 1, 0], 0)));
    sys.push(Constraint::ge(Affine::new(vec![0, -1, 0], 60)));
    sys.push(Constraint::ge(Affine::new(vec![0, -1, 1], 0)));
    sys.push(Constraint::ge(Affine::new(vec![0, 0, -1], 60)));
    let space = Space::new(sys).expect("bounded");
    bench("polyhedra/count_triangular_60", 20, || {
        black_box(&space).count()
    });
    bench("polyhedra/sample_385_points", 20, || {
        let mut rng = SeededRng::seed_from_u64(7);
        cme_poly::sample::sample_points(
            black_box(&space),
            &mut rng,
            385,
            cme_poly::sample::DEFAULT_MAX_TRIALS,
        )
    });
}

fn bench_simulator() {
    let hydro = cme_workloads::hydro(40, 40);
    bench("simulator/hydro_40_trace", 10, || {
        Simulator::new(cfg()).run(black_box(&hydro))
    });
}

fn bench_analysis() {
    let hydro = cme_workloads::hydro(24, 24);
    bench("analysis/find_misses_hydro_24", 5, || {
        FindMisses::new(black_box(&hydro), cfg()).run()
    });
    let hydro50 = cme_workloads::hydro(50, 50);
    bench("analysis/estimate_misses_hydro_50", 5, || {
        EstimateMisses::new(black_box(&hydro50), cfg(), SamplingOptions::paper_default()).run()
    });
}

/// Ablation: how the sampling interval width trades time for accuracy.
fn bench_sampling_ablation() {
    let program = cme_workloads::hydro(50, 50);
    for (label, width) in [("w_0.02", 0.02), ("w_0.05", 0.05), ("w_0.10", 0.10)] {
        let opts = SamplingOptions {
            width,
            seed: 7,
            ..SamplingOptions::paper_default()
        };
        bench(&format!("sampling_width_ablation/{label}"), 5, || {
            EstimateMisses::new(black_box(&program), cfg(), opts.clone()).run()
        });
    }
}

/// Ablation: the per-consumer reuse-vector cap trades generation/classify
/// time against (bounded) conservative overestimation on reference-dense
/// programs.
fn bench_vector_cap_ablation() {
    let program = cme_workloads::mmt(32, 16, 8);
    for (label, cap) in [
        ("cap_32", 32usize),
        ("cap_128", 128),
        ("uncapped", usize::MAX),
    ] {
        bench(&format!("vector_cap_ablation/{label}"), 5, || {
            ReuseAnalysis::analyze_capped(black_box(&program), 32, cap)
        });
    }
}

fn main() {
    bench_reuse_generation();
    bench_polyhedra();
    bench_simulator();
    bench_analysis();
    bench_sampling_ablation();
    bench_vector_cap_ablation();
}
