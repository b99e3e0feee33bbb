//! `kernels-exact`: `FindMisses` on the paper's three kernels (Table 3),
//! lowered from their FORTRAN text, at geometries drawn by the seed.
//!
//! One pass analyses 24 rows: every kernel at every (size, line) cell of
//! {8K,16K,32K,48K} × {32,64} B, with the cell order and, per cell, the
//! assignment of {1,2,4}-way associativity to the three kernels drawn by
//! the seed (a Latin design). Rows of different kernels interleave, and
//! every seed analyses the same amount of work, so the seed moves the
//! inputs without moving the cost.

use crate::lower::{self, Lowered};
use crate::pins;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{Host, Ops, Pass, Run, SIM_REPS};
use cme_analysis::{CancelToken, Classifier, FindMisses, Prepass, Threads};
use cme_cache::CacheConfig;
use cme_poly::rng::{derive_seed, Rng, SplitMix64};
use cme_reuse::ReuseAnalysis;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A kernel as the benchmark lowers it.
pub struct Kernel {
    pub name: &'static str,
    pub text: &'static str,
    pub params: &'static [(&'static str, i64)],
}

/// Table 3's kernels at the benchmark's sizes.
pub const KERNELS: [Kernel; 3] = [
    Kernel {
        name: "hydro",
        text: cme_workloads::HYDRO_SRC,
        params: &[("JN", 100), ("KN", 100)],
    },
    Kernel {
        name: "mgrid",
        text: cme_workloads::MGRID_SRC,
        params: &[("M", 48)],
    },
    Kernel {
        name: "mmt",
        text: cme_workloads::MMT_SRC,
        params: &[("N", 64), ("BJ", 32), ("BK", 16)],
    },
];

/// Per traced pass: points resolved by the pre-pass, points in all RISs,
/// reuse vectors, simulated accesses.
type Counts = (u64, u64, u64, u64);

/// One analysis row: a kernel (index into [`KERNELS`]) at a geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub kernel: usize,
    pub config: CacheConfig,
}

/// The seed's rows, in analysis order.
pub fn rows(seed: u64) -> Vec<Row> {
    let mut rng = SplitMix64::seed_from_u64(derive_seed(seed, 0x1000));
    let mut cells: Vec<(u64, u64)> = [8u64, 16, 32, 48]
        .iter()
        .flat_map(|&kib| [32u64, 64].map(|line| (kib, line)))
        .collect();
    shuffle(&mut cells, &mut rng);
    let mut out = Vec::with_capacity(cells.len() * KERNELS.len());
    for (kib, line) in cells {
        let mut assocs = [1u32, 2, 4];
        shuffle(&mut assocs, &mut rng);
        for (kernel, assoc) in assocs.into_iter().enumerate() {
            let config = CacheConfig::parse_geometry(&format!("{kib}K:{assoc}:{line}"))
                .expect("grid geometry is valid");
            out.push(Row { kernel, config });
        }
    }
    out
}

/// Fisher–Yates with the benchmark's seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Lowers every kernel once (the set-up the workload times).
fn lower_all(tr: &mut Tracer, op: u64) -> Vec<Lowered> {
    KERNELS
        .iter()
        .map(|k| lower::fortran(tr, op, k.text, k.params))
        .collect()
}

/// Per-reference tallies of a report, for comparing passes.
fn tallies(report: &cme_analysis::Report) -> Vec<(u64, u64, u64)> {
    report
        .references()
        .iter()
        .map(|r| (r.cold, r.replacement, r.hits))
        .collect()
}

/// The pinned simulated count of a row.
fn pin_of(row: &Row) -> Option<pins::Pin> {
    pins::kernel(KERNELS[row.kernel].name, &row.config.geometry_string())
}

/// Checks one analysed row against a pinned simulated count; a missing
/// pin or a mismatch is a failed op.
pub fn check_row(ops: &mut Ops, row: &Row, pin: Option<pins::Pin>, report: &cme_analysis::Report) {
    let kernel = KERNELS[row.kernel].name;
    let geometry = row.config.geometry_string();
    let verdict = match (pin, report.exact_misses()) {
        (None, _) => Err(format!("no pinned count for {kernel} {geometry}")),
        (Some(_), None) => Err(format!("{kernel} {geometry}: exact analysis gave no count")),
        (Some(pin), Some(misses)) => {
            pins::check_exact(kernel, pin, report.total_accesses(), misses)
        }
    };
    ops.record(verdict.map_err(|e| format!("kernels-exact {e}")));
}

/// One analysed row.
pub struct Analysed {
    pub report: cme_analysis::Report,
    /// Reuse generation plus `FindMisses::run`: the row's share of
    /// `analysis_s`.
    pub wall: Duration,
    pub vectors: u64,
    /// The standalone pre-pass of a traced row.
    pub prepass: Option<Prepass>,
}

/// Analyses one row: reuse vectors, then `FindMisses` on one thread, each
/// in a span. A traced row also runs the pre-pass alone, on a classifier
/// over the same vectors, so its time splits `FindMisses::run` into
/// pre-pass and walk.
pub fn analyse(tr: &mut Tracer, op: u64, program: &cme_ir::Program, cfg: CacheConfig) -> Analysed {
    let t0 = Instant::now();
    let reuse = tr.time("reuse.analyze", op, || {
        ReuseAnalysis::analyze(program, cfg.line_bytes())
    });
    let fm = FindMisses::with_reuse(program, cfg, reuse).threads(Threads::Fixed(1));
    let report = tr.time("find.run", op, || fm.run());
    let wall = t0.elapsed();
    let prepass = tr.enabled().then(|| {
        let cl = Classifier::new(program, fm.reuse(), cfg);
        tr.time("prepass.build", op, || {
            Prepass::build(&cl, &CancelToken::never())
        })
        .expect("a never-token pre-pass cannot be cancelled")
    });
    Analysed {
        report,
        wall,
        vectors: fm.reuse().vectors().len() as u64,
        prepass,
    }
}

pub fn run(
    run: &Run,
    tr: &mut Tracer,
    ops: &mut Ops,
    host: &mut Host,
) -> BTreeMap<&'static str, f64> {
    let rows = rows(run.seed);
    let mut m = BTreeMap::new();

    // Set-up: lower every kernel, several times before every pass; the
    // median is setup_s.
    tr.set_enabled(run.trace);
    let mut setups = crate::SetUps::default();
    let programs = crate::set_up(tr, &mut setups, host, lower_all);

    let mut passes: Vec<Pass> = Vec::new();
    let mut first: Vec<Option<Vec<(u64, u64, u64)>>> = vec![None; rows.len()];
    let mut traced_passes = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
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
        let (mut resolved, mut points, mut vectors, mut accesses) = (0u64, 0u64, 0u64, 0u64);
        for (i, row) in rows.iter().enumerate() {
            let op = pass * 1000 + i as u64;
            let program = &programs[row.kernel].program;
            let cfg = row.config;
            let name = KERNELS[row.kernel].name;
            let open = tr.enter("row", op);
            let Analysed {
                report,
                wall: w,
                vectors: v,
                prepass,
            } = analyse(tr, op, program, cfg);
            wall += w;
            if let Some(pre) = prepass {
                resolved += pre.resolved_points();
                points += pre.total_points();
                vectors += v;
                ops.record(
                    split_matches(&pre, &report)
                        .map_err(|e| format!("kernels-exact {name} {cfg}: {e}")),
                );
            }
            tr.exit(open);
            check_row(ops, row, pin_of(row), &report);
            // The simulator on the same row, right after the analysis, so
            // both sample the host over the same stretch of time.
            let (t, sim) = crate::simulate(tr, op, program, cfg, SIM_REPS);
            sim_wall += t;
            accesses += sim.total_accesses();
            ops.record(match pin_of(row) {
                Some(pin) => pins::check_simulated(pin, sim.total_accesses(), sim.total_misses())
                    .map_err(|e| format!("kernels-exact {name} {cfg} simulator: {e}")),
                None => Err(format!("no pinned count for {name} {cfg}")),
            });
            // Every pass, traced or not, must produce the same tallies.
            let t = tallies(&report);
            match &first[i] {
                None => first[i] = Some(t),
                Some(prev) => ops.record(if *prev == t {
                    Ok(())
                } else {
                    Err(format!(
                        "kernels-exact {name} {cfg}: pass {pass} tallies differ from pass 0"
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
            counts.push((resolved, points, vectors, accesses));
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
        m.insert("prepass.build_ms", span_ms("prepass.build"));
        m.insert(
            "find.walk_ms",
            span_ms("find.run") - span_ms("prepass.build"),
        );
        m.insert(
            "cache.simulate_ms",
            span_ms("cache.simulate") / SIM_REPS as f64,
        );
        let med = |f: &dyn Fn(&Counts) -> f64| median(&counts.iter().map(f).collect::<Vec<f64>>());
        m.insert(
            "prepass.resolved_pct",
            med(&|c| 100.0 * c.0 as f64 / c.1.max(1) as f64),
        );
        m.insert("find.walked_points", med(&|c| (c.1 - c.0) as f64));
        m.insert("reuse.vectors", med(&|c| c.2 as f64));
        m.insert("cache.accesses", med(&|c| c.3 as f64));
    }
    m
}

/// The standalone pre-pass must account for the same points as the run
/// it was split from.
fn split_matches(pre: &Prepass, report: &cme_analysis::Report) -> Result<(), String> {
    if pre.resolved_points() != report.prepass_resolved() {
        return Err(format!(
            "pre-pass resolved {} points alone but {} inside FindMisses::run",
            pre.resolved_points(),
            report.prepass_resolved()
        ));
    }
    if pre.total_points() != report.total_accesses() {
        return Err(format!(
            "pre-pass covers {} points, the report {}",
            pre.total_points(),
            report.total_accesses()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_analysis::parallel::Tally;
    use cme_analysis::Scratch;

    #[test]
    fn the_seed_draws_a_latin_design() {
        assert_eq!(rows(3), rows(3));
        assert_ne!(rows(3), rows(4));
        let rows = rows(3);
        assert_eq!(rows.len(), 24);
        for cell in rows.chunks(3) {
            let kernels: Vec<usize> = cell.iter().map(|r| r.kernel).collect();
            let mut assocs: Vec<u32> = cell.iter().map(|r| r.config.assoc()).collect();
            assocs.sort_unstable();
            assert_eq!(kernels, [0, 1, 2]);
            assert_eq!(assocs, [1, 2, 4]);
            assert!(cell
                .iter()
                .all(|r| r.config.size_bytes() == cell[0].config.size_bytes()
                    && r.config.line_bytes() == cell[0].config.line_bytes()));
        }
        for r in &rows {
            assert!(pin_of(r).is_some(), "{r:?} has a pinned count");
        }
    }

    /// The pre-pass run alone, plus a walk of the points it leaves
    /// unresolved, both through the public API, reproduce every
    /// reference's tallies in the report of `FindMisses::run`.
    #[test]
    fn prepass_plus_walk_reproduces_find_misses() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        let small: [(&str, &[(&str, i64)]); 3] = [
            (cme_workloads::HYDRO_SRC, &[("JN", 20), ("KN", 20)]),
            (cme_workloads::MGRID_SRC, &[("M", 10)]),
            (cme_workloads::MMT_SRC, &[("N", 16), ("BJ", 8), ("BK", 4)]),
        ];
        for (text, params) in small {
            let program = lower::fortran(&mut tr, 0, text, params).program;
            for g in ["1K:1:32", "2K:2:64", "3K:4:32"] {
                let cfg = CacheConfig::parse_geometry(g).unwrap();
                let a = analyse(&mut tr, 0, &program, cfg);
                let pre = a.prepass.expect("a traced row runs the pre-pass alone");
                assert_eq!(split_matches(&pre, &a.report), Ok(()));
                let reuse = ReuseAnalysis::analyze(&program, cfg.line_bytes());
                let cl = Classifier::new(&program, &reuse, cfg);
                let mut scratch = Scratch::new();
                for r in 0..program.references().len() {
                    let mut tally = Tally::default();
                    let mut cursor = 0;
                    program.ris(r).for_each_point(|p| {
                        match pre.reference(r).lookup(p, &mut cursor) {
                            Some(v) => tally.bump_verdict(v),
                            None => tally.bump(cl.classify_with_scratch(r, p, &mut scratch)),
                        }
                    });
                    let rr = a.report.reference(r);
                    assert_eq!(
                        (tally.cold, tally.replacement, tally.hits),
                        (rr.cold, rr.replacement, rr.hits),
                        "{} {g} reference {r}",
                        program.name()
                    );
                }
            }
        }
    }

    /// The same seed gives the same counts, and a corrupted or missing pin
    /// is a failed op, not a crash.
    #[test]
    fn counts_repeat_and_a_corrupted_pin_fails_an_op() {
        let mut tr = Tracer::new();
        let programs = lower_all(&mut tr, 0);
        tr.set_enabled(true);
        let row = rows(11).into_iter().find(|r| r.kernel == 0).unwrap();
        let a = analyse(&mut tr, 0, &programs[0].program, row.config);
        let b = analyse(&mut tr, 1, &programs[0].program, row.config);
        assert_eq!(tallies(&a.report), tallies(&b.report));
        assert_eq!(a.vectors, b.vectors);
        let (pa, pb) = (a.prepass.unwrap(), b.prepass.unwrap());
        assert_eq!(pa.resolved_points(), pb.resolved_points());
        let mut ops = Ops::default();
        let pin = pin_of(&row);
        check_row(&mut ops, &row, pin, &a.report);
        assert_eq!((ops.attempted, ops.failed), (1, 0));
        let mut corrupted = pin.unwrap();
        corrupted.3 += 1;
        check_row(&mut ops, &row, Some(corrupted), &a.report);
        check_row(&mut ops, &row, None, &a.report);
        assert_eq!((ops.attempted, ops.failed), (3, 2));
    }
}
