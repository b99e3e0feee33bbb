//! Normalisation fuzzing: a direct interpreter of the *source* program
//! must produce exactly the access sequence of the *normalised* program.
//!
//! This pins down the semantics of all five normalisation steps (step
//! rewriting, wrapping, padding, sinking, renaming) at once: any divergence
//! in order, multiplicity or address is a bug.
//!
//! (Formerly proptest-based; now a seeded random-program fuzzer over the
//! vendored PRNG, so it runs with zero external dependencies.)

use cme_ir::{
    normalize, LinExpr, LinRel, NormalizeOptions, Program, RelOp, SAssign, SCall, SIf, SLoop,
    SNode, SRef, SourceProgram, Subroutine, VarDecl,
};
use cme_poly::rng::{Rng, SeededRng};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Reference interpreter: walks the source AST directly.
fn interpret(sub: &Subroutine, program: &Program) -> Vec<i64> {
    // Map array name → (array id) in the normalised program for address
    // computation.
    let ids: HashMap<&str, usize> = program
        .arrays()
        .iter()
        .enumerate()
        .map(|(i, a)| (a.name.as_str(), i))
        .collect();
    let mut env: HashMap<String, i64> = HashMap::new();
    let mut out = Vec::new();
    run_nodes(&sub.body, &mut env, &ids, program, &mut out);
    out
}

fn eval(e: &LinExpr, env: &HashMap<String, i64>) -> i64 {
    e.eval(&|n| env.get(n).copied()).expect("closed expression")
}

fn holds(r: &LinRel, env: &HashMap<String, i64>) -> bool {
    r.op.holds(eval(&r.lhs, env), eval(&r.rhs, env))
}

fn run_nodes(
    nodes: &[SNode],
    env: &mut HashMap<String, i64>,
    ids: &HashMap<&str, usize>,
    program: &Program,
    out: &mut Vec<i64>,
) {
    for n in nodes {
        match n {
            SNode::Loop(SLoop {
                var,
                lb,
                ub,
                step,
                body,
            }) => {
                let (lo, hi, s) = (eval(lb, env), eval(ub, env), *step);
                let mut v = lo;
                loop {
                    if (s > 0 && v > hi) || (s < 0 && v < hi) {
                        break;
                    }
                    env.insert(var.clone(), v);
                    run_nodes(body, env, ids, program, out);
                    v += s;
                }
                env.remove(var);
            }
            SNode::If(SIf {
                conds,
                then_body,
                else_body,
            }) => {
                if conds.iter().all(|c| holds(c, env)) {
                    run_nodes(then_body, env, ids, program, out);
                } else {
                    run_nodes(else_body, env, ids, program, out);
                }
            }
            SNode::Assign(SAssign { reads, write, .. }) => {
                for r in reads.iter().chain(write.iter()) {
                    if let Some(addr) = address(r, env, ids, program) {
                        out.push(addr);
                    }
                }
            }
            SNode::Call(SCall { .. }) => panic!("no calls in these programs"),
        }
    }
}

fn address(
    r: &SRef,
    env: &HashMap<String, i64>,
    ids: &HashMap<&str, usize>,
    program: &Program,
) -> Option<i64> {
    let &id = ids.get(r.array.as_str())?; // scalars may be register-allocated
    let arr = &program.arrays()[id];
    let strides = arr.strides();
    let mut elem = 0i64;
    for (d, s) in r.subs.iter().enumerate() {
        elem += (eval(s, env) - 1) * strides[d];
    }
    Some(program.base_address(id) + elem * arr.elem_bytes as i64)
}

fn arb_subscript(rng: &mut SeededRng) -> LinExpr {
    let off = rng.gen_range(-2..=2);
    match rng.gen_below(3) {
        0 => LinExpr::var("I").offset(off),
        1 => LinExpr::var("J").offset(off),
        _ => LinExpr::constant(off.abs() + 1),
    }
}

fn arb_sref(rng: &mut SeededRng) -> SRef {
    let name = if rng.gen_bool() { "A" } else { "B" };
    SRef::new(name, vec![arb_subscript(rng)])
}

fn arb_stmt(rng: &mut SeededRng) -> SNode {
    let nrefs = rng.gen_range(1..=2) as usize;
    let mut refs: Vec<SRef> = (0..nrefs).map(|_| arb_sref(rng)).collect();
    let w = refs.pop().unwrap();
    let s = SNode::assign(w, refs);
    match rng.gen_below(4) {
        0 => SNode::if_(
            vec![LinRel::new(LinExpr::var("I"), RelOp::Eq, LinExpr::var("J"))],
            vec![s],
        ),
        1 => SNode::if_(
            vec![LinRel::new(
                LinExpr::var("J"),
                RelOp::Le,
                LinExpr::constant(4),
            )],
            vec![s],
        ),
        2 => SNode::if_else(
            vec![LinRel::new(
                LinExpr::var("I"),
                RelOp::Lt,
                LinExpr::constant(3),
            )],
            vec![s.clone()],
            vec![s],
        ),
        _ => s,
    }
}

/// Statements *between* loops may only reference J (I is out of scope
/// there; loop sinking will move them into the I loop with a guard).
fn arb_j_stmt(rng: &mut SeededRng) -> SNode {
    let subscript = |rng: &mut SeededRng| {
        let off = rng.gen_range(-2..=2);
        if rng.gen_bool() {
            LinExpr::var("J").offset(off)
        } else {
            LinExpr::constant(off.abs() + 1)
        }
    };
    let sref = |rng: &mut SeededRng| {
        let name = if rng.gen_bool() { "A" } else { "B" };
        let s = subscript(rng);
        SRef::new(name, vec![s])
    };
    let nrefs = rng.gen_range(1..=2) as usize;
    let mut refs: Vec<SRef> = (0..nrefs).map(|_| sref(rng)).collect();
    let w = refs.pop().unwrap();
    let s = SNode::assign(w, refs);
    match rng.gen_below(3) {
        0 => SNode::if_(
            vec![LinRel::new(
                LinExpr::var("J"),
                RelOp::Le,
                LinExpr::constant(4),
            )],
            vec![s],
        ),
        1 => SNode::if_(
            vec![LinRel::new(
                LinExpr::var("J"),
                RelOp::Ge,
                LinExpr::constant(4),
            )],
            vec![s],
        ),
        _ => s,
    }
}

/// A random program over two arrays with nested loops, optional guards,
/// optional steps, statements at every level.
fn arb_program(rng: &mut SeededRng) -> SourceProgram {
    let ninner = rng.gen_range(1..=2) as usize;
    let inner: Vec<SNode> = (0..ninner).map(|_| arb_stmt(rng)).collect();
    let nbetween = rng.gen_range(0..=1) as usize;
    let between: Vec<SNode> = (0..nbetween).map(|_| arb_j_stmt(rng)).collect();
    let ni = rng.gen_range(1..=6);
    let nj = rng.gen_range(1..=6);
    let step = [1i64, 2, -1][rng.gen_below(3) as usize];

    // DO J = 1..nj { [between...] DO I = lo..hi step { inner } }
    let (ilo, ihi) = if step < 0 { (ni, 1) } else { (1, ni) };
    let mut body = between;
    body.push(SNode::loop_step("I", ilo, ihi, step, inner));
    let outer = SNode::loop_("J", 1, nj, body);
    let mut sub = Subroutine::new("FUZZ");
    sub.decls = vec![VarDecl::array("A", &[24], 8), VarDecl::array("B", &[24], 8)];
    sub.body = vec![outer];
    SourceProgram::single("fuzz", sub)
}

/// The normalised program performs exactly the source program's
/// accesses, in order.
#[test]
fn normalisation_preserves_trace() {
    let mut rng = SeededRng::seed_from_u64(0xA11);
    for case in 0..128 {
        let src = arb_program(&mut rng);
        let program = match normalize(&src, &NormalizeOptions::default()) {
            Ok(p) => p,
            Err(e) => {
                // The only legal rejections for this grammar would be
                // data-dependent constructs, which it cannot produce.
                panic!("case {case}: normalise failed: {e}");
            }
        };
        let expected = interpret(src.entry_subroutine(), &program);
        let mut got = Vec::new();
        cme_ir::walk::for_each_access(&program, |a| {
            got.push(a.addr);
            ControlFlow::Continue(())
        });
        assert_eq!(got, expected, "case {case}: trace diverged");
    }
}

/// RIS volumes sum to the trace length (all guards accounted).
#[test]
fn ris_volumes_match_trace_length() {
    let mut rng = SeededRng::seed_from_u64(0xB22);
    for case in 0..128 {
        let src = arb_program(&mut rng);
        let program = normalize(&src, &NormalizeOptions::default()).unwrap();
        let expected = interpret(src.entry_subroutine(), &program).len() as u64;
        assert_eq!(program.total_accesses(), expected, "case {case}");
    }
}

/// The range walk agrees with filtering the full trace by the interval,
/// on random programs and random endpoints.
#[test]
fn range_walks_match_filtered_trace() {
    let mut rng = SeededRng::seed_from_u64(0xC33);
    for case in 0..64 {
        let src = arb_program(&mut rng);
        let sel_a = rng.gen_below(64) as usize;
        let sel_b = rng.gen_below(64) as usize;
        let program = normalize(&src, &NormalizeOptions::default()).unwrap();
        let mut all: Vec<(Vec<i64>, usize)> = Vec::new();
        cme_ir::walk::for_each_access(&program, |a| {
            all.push((program.iteration_vector(a.r, a.point), a.r));
            ControlFlow::Continue(())
        });
        if all.is_empty() {
            continue;
        }
        let mut from = all[sel_a % all.len()].0.clone();
        let mut to = all[sel_b % all.len()].0.clone();
        if cme_poly::lex::cmp(&from, &to) == std::cmp::Ordering::Greater {
            std::mem::swap(&mut from, &mut to);
        }
        let expect: Vec<(Vec<i64>, usize)> = all
            .iter()
            .filter(|(iv, _)| {
                cme_poly::lex::cmp(iv, &from) != std::cmp::Ordering::Less
                    && cme_poly::lex::cmp(iv, &to) != std::cmp::Ordering::Greater
            })
            .cloned()
            .collect();
        let mut fwd = Vec::new();
        cme_ir::walk::walk_range(&program, &from, &to, |a, _| {
            fwd.push((program.iteration_vector(a.r, a.point), a.r));
            ControlFlow::Continue(())
        });
        assert_eq!(&fwd, &expect, "case {case}: forward walk");
    }
}
