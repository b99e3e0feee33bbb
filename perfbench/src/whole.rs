//! `whole-sampled`: `EstimateMisses` and then `cme_cache::Simulator` on
//! three whole programs of Table 6, each at two seeded 32 B-line
//! geometries.
//!
//! Tomcatv-like and swim-like run at N=256, T=10 and keep the simulator
//! busy. Applu-like runs at N=8, T=3 with its time step cut down to its
//! first physics subroutine ([`applu_reduced`]): 205 inlined references,
//! all of them sampled, so its analysis is reuse-vector generation plus
//! the sampled walk. The full applu-like (2325 references, 3.0 million
//! reuse vectors, 1 GB) is one analysis of 20–30 s that a run cannot
//! repeat, so its time could not be taken as a median.
//!
//! A pass analyses every program at one 8K and one 16K geometry. At 8K the
//! seed deals tomcatv-like and swim-like opposite associativities and
//! applu-like either one; at 16K each program gets the other one. So every
//! program simulates one direct-mapped and one 2-way cache in every pass
//! (a direct-mapped simulation is about 20% cheaper), and the seed moves
//! the inputs without moving the cost.

use crate::lower::{self, Lowered};
use crate::pins;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{Host, Ops, Pass, Run};
use cme_analysis::{Coverage, EstimateMisses, SamplingOptions, Threads};
use cme_cache::CacheConfig;
use cme_ir::{SNode, SourceProgram};
use cme_poly::rng::{derive_seed, Rng, SplitMix64};
use cme_reuse::ReuseAnalysis;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const PROGRAMS: [&str; 3] = ["tomcatv-like", "swim-like", "applu-reduced"];

/// Geometries the rows use.
pub const GEOMETRIES: [&str; 4] = ["8K:1:32", "8K:2:32", "16K:1:32", "16K:2:32"];

/// The physics subroutine [`applu_reduced`] keeps.
const APPLU_KEPT: &str = "PHYS00";

/// Applu-like at N=8, T=3 whose time step calls only [`APPLU_KEPT`]: the
/// set-up calls stay, the other eleven physics calls and the ten `ADDF`
/// calls go.
pub fn applu_reduced() -> SourceProgram {
    let mut source = cme_workloads::applu_like_source(8, 3);
    let entry = source.entry.clone();
    let main = source
        .subroutines
        .iter_mut()
        .find(|s| s.name == entry)
        .expect("applu-like has its entry subroutine");
    for node in &mut main.body {
        if let SNode::Loop(step) = node {
            step.body
                .retain(|n| matches!(n, SNode::Call(c) if c.callee == APPLU_KEPT));
        }
    }
    source
}

/// Lowers the three programs, in [`PROGRAMS`] order.
pub fn lower_all(tr: &mut Tracer, op: u64) -> Vec<Lowered> {
    let params = [("N", 256), ("ITMAX", 10)];
    vec![
        lower::fortran(tr, op, cme_workloads::TOMCATV_LIKE_SRC, &params),
        lower::fortran(tr, op, cme_workloads::SWIM_LIKE_SRC, &params),
        lower::source_program(tr, op, &applu_reduced()),
    ]
}

/// Per traced pass: reuse vectors, samples, sampled references, simulated
/// accesses.
type Counts = (u64, u64, u64, u64);

/// One row: a program (index into [`PROGRAMS`]), its geometry and its
/// sampling seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub program: usize,
    pub config: CacheConfig,
    pub sampling_seed: u64,
}

/// The seed's rows, in analysis order: every program at one 8K and one
/// 16K geometry, with the associativities dealt as the module describes.
/// Each row has a sampling seed of its own.
pub fn rows(seed: u64) -> Vec<Row> {
    let mut rng = SplitMix64::seed_from_u64(derive_seed(seed, 0x2000));
    let tomcatv = 1 + rng.gen_below(2) as u32;
    let at_8k = [tomcatv, 3 - tomcatv, 1 + rng.gen_below(2) as u32];
    let mut rows: Vec<Row> = (0..PROGRAMS.len())
        .flat_map(|program| {
            [(8u64, at_8k[program]), (16, 3 - at_8k[program])].map(|(kib, assoc)| {
                let g = format!("{kib}K:{assoc}:32");
                debug_assert!(GEOMETRIES.contains(&g.as_str()));
                Row {
                    program,
                    config: CacheConfig::parse_geometry(&g).expect("dealt geometry is valid"),
                    sampling_seed: derive_seed(seed, ((program as u64) << 8) | kib),
                }
            })
        })
        .collect();
    crate::kernels::shuffle(&mut rows, &mut rng);
    rows
}

/// Analyses one row: reuse vectors, then `EstimateMisses` on one thread
/// at the paper's default sampling, each in a span. Returns the report,
/// the analysis wall time and the number of reuse vectors.
pub fn analyse(
    tr: &mut Tracer,
    op: u64,
    program: &cme_ir::Program,
    row: &Row,
) -> (cme_analysis::Report, Duration, u64) {
    let options = SamplingOptions {
        seed: row.sampling_seed,
        threads: Threads::Fixed(1),
        ..SamplingOptions::paper_default()
    };
    let t0 = Instant::now();
    let reuse = tr.time("reuse.analyze", op, || {
        ReuseAnalysis::analyze(program, row.config.line_bytes())
    });
    let vectors = reuse.vectors().len() as u64;
    let em = EstimateMisses::with_reuse(program, row.config, options, reuse);
    let report = tr.time("estimate.run", op, || em.run());
    (report, t0.elapsed(), vectors)
}

/// Checks a sampled row against a pinned simulated count and tolerance; a
/// missing pin or a miss is a failed op.
pub fn check_row(
    ops: &mut Ops,
    row: &Row,
    pin: Option<pins::SampledPin>,
    report: &cme_analysis::Report,
) {
    let name = PROGRAMS[row.program];
    let geometry = row.config.geometry_string();
    ops.record(
        match pin {
            Some(pin) => pins::check_sampled(pin, report.total_accesses(), report.miss_ratio()),
            None => Err(format!("no pinned count for {name} {geometry}")),
        }
        .map_err(|e| format!("whole-sampled {e}")),
    );
}

fn pin_of(row: &Row) -> Option<pins::SampledPin> {
    pins::whole(PROGRAMS[row.program], &row.config.geometry_string())
}

pub fn run(
    run: &Run,
    tr: &mut Tracer,
    ops: &mut Ops,
    host: &mut Host,
) -> BTreeMap<&'static str, f64> {
    let rows = rows(run.seed);
    for row in &rows {
        eprintln!(
            "row: {} at {}",
            PROGRAMS[row.program],
            row.config.geometry_string()
        );
    }
    let mut m = BTreeMap::new();

    tr.set_enabled(run.trace);
    let mut setups = crate::SetUps::default();
    let programs = crate::set_up(tr, &mut setups, host, lower_all);

    let mut passes: Vec<Pass> = Vec::new();
    let mut first: Vec<Option<String>> = vec![None; rows.len()];
    let mut traced_passes = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let mut err_pp = Vec::new();
    let mut pass = 0u64;
    while crate::another_pass(run, pass, passes.last().map_or(0.0, |p| p.seconds)) {
        let traced = run.trace && pass.is_multiple_of(2);
        tr.set_enabled(traced);
        let pass_start = Instant::now();
        if pass > 0 {
            crate::set_up(tr, &mut setups, host, lower_all);
        }
        let pass_span = tr.enter("pass", pass);
        traced_passes.extend(pass_span.id());
        let mut wall = Duration::ZERO;
        let mut sim_wall = 0.0;
        let (mut vectors, mut samples, mut sampled_refs, mut accesses) = (0u64, 0u64, 0u64, 0u64);
        for (i, row) in rows.iter().enumerate() {
            let op = pass * 1000 + i as u64;
            let program = &programs[row.program].program;
            let name = PROGRAMS[row.program];
            let cfg = row.config;
            let open = tr.enter("row", op);
            let (report, w, v) = analyse(tr, op, program, row);
            tr.exit(open);
            wall += w;
            vectors += v;
            for r in report.references() {
                if let Coverage::Sampled { samples: n } = r.coverage {
                    samples += n;
                    sampled_refs += 1;
                }
            }
            check_row(ops, row, pin_of(row), &report);
            // The simulator on the same row, right after the analysis;
            // once per pass, the median is taken over passes.
            let (t, sim) = crate::simulate(tr, op, program, cfg, 1);
            sim_wall += t;
            accesses += sim.total_accesses();
            err_pp.push(100.0 * (report.miss_ratio() - sim.miss_ratio()).abs());
            ops.record(match pin_of(row) {
                Some((p, g, a, mi, _)) => {
                    pins::check_simulated((p, g, a, mi), sim.total_accesses(), sim.total_misses())
                        .map_err(|e| format!("whole-sampled {name} {cfg} simulator: {e}"))
                }
                None => Err(format!("no pinned count for {name} {cfg}")),
            });
            // Every pass, traced or not, must produce the same report.
            let rendered = report.render(program);
            match &first[i] {
                None => first[i] = Some(rendered),
                Some(prev) => ops.record(if *prev == rendered {
                    Ok(())
                } else {
                    Err(format!(
                        "whole-sampled {name} {cfg}: pass {pass} report differs from pass 0"
                    ))
                }),
            }
            // The host's speed right after the row.
            host.probe();
        }
        tr.exit(pass_span);
        let done = Pass {
            traced,
            seconds: pass_start.elapsed().as_secs_f64(),
            analysis: wall.as_secs_f64(),
            simulate: sim_wall,
            scale: host.scale(),
        };
        done.log(pass);
        passes.push(done);
        if traced {
            counts.push((vectors, samples, sampled_refs, accesses));
        }
        pass += 1;
    }
    tr.set_enabled(false);

    m.insert("setup_s", median(&setups.times));
    m.extend(crate::pass_metrics(run, rows.len(), &passes));
    if run.trace {
        m.extend(crate::lowering_layers(
            tr,
            &setups.spans,
            &programs.iter().collect::<Vec<_>>(),
        ));
        let span_ms = |name| crate::span_ms(tr, &traced_passes, name);
        m.insert("reuse.analyze_ms", span_ms("reuse.analyze"));
        m.insert("estimate.run_ms", span_ms("estimate.run"));
        m.insert("cache.simulate_ms", span_ms("cache.simulate"));
        let med = |f: &dyn Fn(&Counts) -> f64| median(&counts.iter().map(f).collect::<Vec<f64>>());
        m.insert("reuse.vectors", med(&|c| c.0 as f64));
        m.insert("estimate.samples", med(&|c| c.1 as f64));
        m.insert("estimate.sampled_refs", med(&|c| c.2 as f64));
        m.insert("cache.accesses", med(&|c| c.3 as f64));
        m.insert(
            "estimate.miss_err_pp",
            err_pp.iter().take(rows.len()).sum::<f64>() / rows.len() as f64,
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_cache::Simulator;

    /// The same seed gives the same rows, the same report and the same
    /// error against the simulator; a corrupted or missing pin is a failed
    /// op, not a crash.
    #[test]
    fn same_seed_same_answer_and_a_corrupted_pin_fails_an_op() {
        assert_eq!(rows(5), rows(5));
        assert_ne!(rows(5), rows(6));
        let mut tr = Tracer::new();
        let programs = lower_all(&mut tr, 0);
        assert_eq!(
            programs[2].refs_out, 205,
            "reduced applu-like inlines to 205 references"
        );
        let row = rows(5).into_iter().find(|r| r.program == 0).unwrap();
        let program = &programs[0].program;
        let (a, _, va) = analyse(&mut tr, 0, program, &row);
        let (b, _, vb) = analyse(&mut tr, 1, program, &row);
        assert_eq!(a.render(program), b.render(program));
        assert_eq!(va, vb);
        let sim = Simulator::new(row.config).run(program);
        let err = |r: &cme_analysis::Report| (r.miss_ratio() - sim.miss_ratio()).abs();
        assert_eq!(err(&a).to_bits(), err(&b).to_bits());
        let mut ops = Ops::default();
        let pin = pin_of(&row);
        check_row(&mut ops, &row, pin, &a);
        assert_eq!((ops.attempted, ops.failed), (1, 0));
        let mut corrupted = pin.unwrap();
        corrupted.3 += corrupted.2 / 50; // two points off
        check_row(&mut ops, &row, Some(corrupted), &a);
        check_row(&mut ops, &row, None, &a);
        assert_eq!((ops.attempted, ops.failed), (3, 2));
    }

    /// Every seed gives each program one 8K and one 16K row, one
    /// direct-mapped and one 2-way, and tomcatv-like and swim-like
    /// opposite associativities at each size.
    #[test]
    fn every_seed_deals_the_same_work() {
        for seed in 0..64 {
            let rows = rows(seed);
            let geometry = |p: usize, size: &str| {
                let g: Vec<String> = rows
                    .iter()
                    .filter(|r| r.program == p)
                    .map(|r| r.config.geometry_string())
                    .filter(|g| g.starts_with(size))
                    .collect();
                assert_eq!(g.len(), 1, "seed {seed}: {} at {size}", PROGRAMS[p]);
                g[0].clone()
            };
            assert_eq!(rows.len(), 2 * PROGRAMS.len());
            for p in 0..PROGRAMS.len() {
                let (small, large) = (geometry(p, "8K:"), geometry(p, "16K:"));
                assert_ne!(small[3..], large[4..], "seed {seed}: {small} and {large}");
            }
            assert_ne!(geometry(0, "8K:"), geometry(1, "8K:"), "seed {seed}");
        }
    }
}
