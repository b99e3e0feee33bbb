//! Program-order walkers over the memory accesses of a normalised program.
//!
//! Both consumers of the framework share these walkers (Fig. 7 of the
//! paper feeds the *same* reference/ordering information to the analytical
//! model and to the cache simulator):
//!
//! * [`for_each_access`] visits every memory access of the program in
//!   execution order — this *is* the simulator's trace;
//! * [`walk_range`] visits the accesses of all iteration points between two
//!   interleaved iteration vectors (inclusive), with boundary tagging — this
//!   enumerates the interference set `J_{R_i}` of the replacement equations
//!   (§4.1.2), where lexical positions decide the open/closed interval ends;
//! * [`walk_rows_rev`] visits the same interval one innermost row at a
//!   time, backward — the unit the replacement equations count in closed
//!   form, from the consumer back to the reused line's last touch.

use crate::program::{LoopNode, Program, RefId, StmtId};
use std::ops::ControlFlow;

/// One dynamic memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access<'a> {
    /// The static reference performing the access.
    pub r: RefId,
    /// The statement instance's index point `(I₁, …, I_n)`.
    pub point: &'a [i64],
    /// The byte address touched.
    pub addr: i64,
}

/// Where an iteration point sits relative to a [`walk_range`] interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryTag {
    /// The point equals the interval's `from` vector.
    pub at_start: bool,
    /// The point equals the interval's `to` vector.
    pub at_end: bool,
}

impl BoundaryTag {
    /// A strictly interior point.
    pub const INTERIOR: BoundaryTag = BoundaryTag {
        at_start: false,
        at_end: false,
    };
}

/// Visits every access of the program in execution order.
///
/// Guards are evaluated; accesses of guarded-off statement instances are
/// not visited. The callback may stop the walk early by returning
/// [`ControlFlow::Break`].
pub fn for_each_access<F>(program: &Program, mut f: F)
where
    F: FnMut(Access<'_>) -> ControlFlow<()>,
{
    let n = program.depth();
    let mut idx = vec![0i64; n];
    for root in program.roots() {
        if walk_all(program, root, 1, &mut idx, &mut f).is_break() {
            return;
        }
    }
}

/// Visits the byte address of every access in execution order — the
/// program's address trace, as a cache simulator (in-process or external,
/// via `cme-trace`'s binary format) consumes it. A thin wrapper over
/// [`for_each_access`] so the generated trace and the analytical model see
/// exactly the same stream.
pub fn for_each_address<F>(program: &Program, mut f: F)
where
    F: FnMut(i64),
{
    for_each_access(program, |a| {
        f(a.addr);
        ControlFlow::Continue(())
    });
}

/// The full byte-address trace of the program, materialised.
pub fn address_trace(program: &Program) -> Vec<i64> {
    let mut out = Vec::with_capacity(program.total_accesses() as usize);
    for_each_address(program, |addr| out.push(addr));
    out
}

fn walk_all<F>(
    program: &Program,
    node: &LoopNode,
    depth: usize,
    idx: &mut [i64],
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(Access<'_>) -> ControlFlow<()>,
{
    let lb = node.lb.eval(idx);
    let ub = node.ub.eval(idx);
    for v in lb..=ub {
        idx[depth - 1] = v;
        if node.inner.is_empty() {
            visit_stmts(program, &node.stmts, idx, f)?;
        } else {
            for inner in &node.inner {
                walk_all(program, inner, depth + 1, idx, f)?;
            }
        }
    }
    ControlFlow::Continue(())
}

fn visit_stmts<F>(program: &Program, stmts: &[StmtId], idx: &[i64], f: &mut F) -> ControlFlow<()>
where
    F: FnMut(Access<'_>) -> ControlFlow<()>,
{
    for &sid in stmts {
        let stmt = program.statement(sid);
        if !stmt.guard.iter().all(|c| c.holds(idx)) {
            continue;
        }
        for &rid in &stmt.refs {
            let addr = program.byte_address(rid, idx);
            f(Access {
                r: rid,
                point: idx,
                addr,
            })?;
        }
    }
    ControlFlow::Continue(())
}

/// Visits the accesses of every iteration point `p` with
/// `from ⪯ p ⪯ to` (interleaved vectors, inclusive at both ends), tagging
/// boundary points so the caller can apply the lexical open/closed rules of
/// the interference set.
///
/// Subtrees entirely outside the interval are pruned, so the cost is
/// proportional to the points actually visited.
///
/// # Panics
///
/// Panics if `from`/`to` do not have length `2 · depth`.
pub fn walk_range<F>(program: &Program, from: &[i64], to: &[i64], mut f: F)
where
    F: FnMut(Access<'_>, BoundaryTag) -> ControlFlow<()>,
{
    let n = program.depth();
    assert_eq!(from.len(), 2 * n, "`from` must be an interleaved vector");
    assert_eq!(to.len(), 2 * n, "`to` must be an interleaved vector");
    if cme_poly::lex::cmp(from, to) == std::cmp::Ordering::Greater {
        return;
    }
    let mut idx = vec![0i64; n];
    let roots = program.roots();
    for (pos, root) in roots.iter().enumerate() {
        let label = pos as i64 + 1;
        // Label component 1: prune against from[0] / to[0].
        if label < from[0] {
            continue;
        }
        if label > to[0] {
            break;
        }
        let tf = label == from[0];
        let tt = label == to[0];
        if walk_ranged(program, root, 1, &mut idx, from, to, tf, tt, &mut f).is_break() {
            return;
        }
    }
}

/// Recursive range walk. `tf` / `tt` record whether the interleaved prefix
/// chosen so far equals the corresponding prefix of `from` / `to` ("tight").
#[allow(clippy::too_many_arguments)]
fn walk_ranged<F>(
    program: &Program,
    node: &LoopNode,
    depth: usize,
    idx: &mut [i64],
    from: &[i64],
    to: &[i64],
    tf: bool,
    tt: bool,
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(Access<'_>, BoundaryTag) -> ControlFlow<()>,
{
    let mut lb = node.lb.eval(idx);
    let mut ub = node.ub.eval(idx);
    // Index component at this depth lives at interleaved position 2·depth−1.
    let fi = from[2 * depth - 1];
    let ti = to[2 * depth - 1];
    if tf {
        lb = lb.max(fi);
    }
    if tt {
        ub = ub.min(ti);
    }
    for v in lb..=ub {
        idx[depth - 1] = v;
        let tf2 = tf && v == fi;
        let tt2 = tt && v == ti;
        if node.inner.is_empty() {
            let tag = BoundaryTag {
                at_start: tf2,
                at_end: tt2,
            };
            visit_stmts_tagged(program, &node.stmts, idx, tag, f)?;
        } else {
            for (pos, inner) in node.inner.iter().enumerate() {
                let label = pos as i64 + 1;
                let fl = from[2 * depth];
                let tl = to[2 * depth];
                if tf2 && label < fl {
                    continue;
                }
                if tt2 && label > tl {
                    break;
                }
                let tf3 = tf2 && label == fl;
                let tt3 = tt2 && label == tl;
                walk_ranged(program, inner, depth + 1, idx, from, to, tf3, tt3, f)?;
            }
        }
    }
    ControlFlow::Continue(())
}

fn visit_stmts_tagged<F>(
    program: &Program,
    stmts: &[StmtId],
    idx: &[i64],
    tag: BoundaryTag,
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(Access<'_>, BoundaryTag) -> ControlFlow<()>,
{
    for &sid in stmts {
        let stmt = program.statement(sid);
        if !stmt.guard.iter().all(|c| c.holds(idx)) {
            continue;
        }
        for &rid in &stmt.refs {
            let addr = program.byte_address(rid, idx);
            f(
                Access {
                    r: rid,
                    point: idx,
                    addr,
                },
                tag,
            )?;
        }
    }
    ControlFlow::Continue(())
}

/// One innermost row of an interval, as [`walk_rows_rev`] visits it: the
/// statements of one innermost loop node at one outer-index prefix, over
/// the innermost indices `lo..=hi` that lie inside the interval.
#[derive(Debug, Clone, Copy)]
pub struct RowSpan<'a> {
    /// The innermost loop node whose statements execute in this row.
    pub node: &'a LoopNode,
    /// The outer indices `(I₁, …, I_{n−1})` of the row.
    pub prefix: &'a [i64],
    /// First innermost index inside the interval.
    pub lo: i64,
    /// Last innermost index inside the interval.
    pub hi: i64,
    /// Index `lo` is the interval's `from` point: its accesses carry the
    /// `at_start` tag.
    pub starts_at_from: bool,
    /// Index `hi` is the interval's `to` point: its accesses carry the
    /// `at_end` tag.
    pub ends_at_to: bool,
}

/// Visits the non-empty innermost rows of the interval `from ⪯ p ⪯ to`
/// in *reverse* program order: exactly the innermost loop rows whose
/// points [`walk_range`] visits, last row first, each once, with the
/// boundary tags reduced to the row's ends. Guards are not evaluated; a
/// row holds every statement of its loop node. `idx` is a reusable index
/// buffer.
///
/// # Panics
///
/// Panics if the program has depth 0 or `from`/`to` do not have length
/// `2 · depth`.
pub fn walk_rows_rev<F>(program: &Program, from: &[i64], to: &[i64], idx: &mut Vec<i64>, mut f: F)
where
    F: FnMut(RowSpan<'_>) -> ControlFlow<()>,
{
    let n = program.depth();
    assert!(n > 0, "a row needs an innermost loop");
    assert_eq!(from.len(), 2 * n, "`from` must be an interleaved vector");
    assert_eq!(to.len(), 2 * n, "`to` must be an interleaved vector");
    if cme_poly::lex::cmp(from, to) == std::cmp::Ordering::Greater {
        return;
    }
    idx.clear();
    idx.resize(n, 0);
    for (pos, root) in program.roots().iter().enumerate().rev() {
        let label = pos as i64 + 1;
        if label < from[0] {
            break;
        }
        if label > to[0] {
            continue;
        }
        let (tf, tt) = (label == from[0], label == to[0]);
        if rows_rev(root, 1, idx, from, to, tf, tt, &mut f).is_break() {
            return;
        }
    }
}

/// The outer levels of [`walk_rows_rev`]: `walk_ranged`'s descent, with
/// every level visited from its last index and loop node down.
#[allow(clippy::too_many_arguments)]
fn rows_rev<F>(
    node: &LoopNode,
    depth: usize,
    idx: &mut [i64],
    from: &[i64],
    to: &[i64],
    tf: bool,
    tt: bool,
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(RowSpan<'_>) -> ControlFlow<()>,
{
    let mut lb = node.lb.eval(idx);
    let mut ub = node.ub.eval(idx);
    let fi = from[2 * depth - 1];
    let ti = to[2 * depth - 1];
    if tf {
        lb = lb.max(fi);
    }
    if tt {
        ub = ub.min(ti);
    }
    if node.inner.is_empty() {
        if lb > ub {
            return ControlFlow::Continue(());
        }
        return f(RowSpan {
            node,
            prefix: &idx[..depth - 1],
            lo: lb,
            hi: ub,
            starts_at_from: tf && lb == fi,
            ends_at_to: tt && ub == ti,
        });
    }
    let mut v = ub;
    while v >= lb {
        idx[depth - 1] = v;
        let tf2 = tf && v == fi;
        let tt2 = tt && v == ti;
        for (pos, inner) in node.inner.iter().enumerate().rev() {
            let label = pos as i64 + 1;
            let fl = from[2 * depth];
            let tl = to[2 * depth];
            if tf2 && label < fl {
                break;
            }
            if tt2 && label > tl {
                continue;
            }
            rows_rev(
                inner,
                depth + 1,
                idx,
                from,
                to,
                tf2 && label == fl,
                tt2 && label == tl,
                f,
            )?;
        }
        v -= 1;
    }
    ControlFlow::Continue(())
}

/// Collects the full access trace as `(reference, byte address)` pairs.
/// Convenience for the simulator and for tests; large programs should use
/// [`for_each_access`] streaming instead.
pub fn trace(program: &Program) -> Vec<(RefId, i64)> {
    let mut out = Vec::new();
    for_each_access(program, |a| {
        out.push((a.r, a.addr));
        ControlFlow::Continue(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{SNode, SRef};
    use crate::builder::ProgramBuilder;
    use crate::expr::{LinExpr, LinRel, RelOp};

    /// DO I1 = 1,3 { A(I1)=…; DO I2=1,2 { B(I2,I1)=A(I2) } } ; DO I1=1,2 { A(I1)=… }
    fn two_nest_program() -> crate::program::Program {
        let mut b = ProgramBuilder::new("walker-test");
        b.array("A", &[4], 8);
        b.array("B", &[4, 4], 8);
        let i1 = LinExpr::var("I1");
        let i2 = LinExpr::var("I2");
        b.push(SNode::loop_(
            "I1",
            1,
            3,
            vec![
                SNode::assign(SRef::new("A", vec![i1.clone()]), vec![]).labelled("S1"),
                SNode::loop_(
                    "I2",
                    1,
                    2,
                    vec![SNode::assign(
                        SRef::new("B", vec![i2.clone(), i1.clone()]),
                        vec![SRef::new("A", vec![i2.clone()])],
                    )
                    .labelled("S2")],
                ),
            ],
        ));
        b.push(SNode::loop_(
            "I1",
            1,
            2,
            vec![SNode::assign(SRef::new("A", vec![i1.clone()]), vec![]).labelled("S3")],
        ));
        b.build().unwrap()
    }

    #[test]
    fn full_walk_is_program_order() {
        let p = two_nest_program();
        let t = trace(&p);
        // Nest 1: I1 = 1..3, each: S1 (1 access) + 2×S2 (2 accesses each)
        // Nest 2: I1 = 1..2, each: S3 (1 access)
        assert_eq!(t.len(), 3 * (1 + 2 * 2) + 2);
        // First accesses: S1 writes A(1) at byte 0; then S2 reads A(1),
        // writes B(1,1).
        let a_base = p.base_address(0);
        let b_base = p.base_address(1);
        assert_eq!(t[0].1, a_base);
        assert_eq!(t[1].1, a_base); // A(1) read by S2 at I2=1
        assert_eq!(t[2].1, b_base); // B(1,1)
    }

    #[test]
    fn guard_filters_accesses() {
        let mut b = ProgramBuilder::new("guarded");
        b.array("A", &[8], 8);
        let i = LinExpr::var("I");
        b.push(SNode::loop_(
            "I",
            1,
            8,
            vec![SNode::if_(
                vec![LinRel::new(i.clone(), RelOp::Eq, 8)],
                vec![SNode::assign(SRef::new("A", vec![i.clone()]), vec![])],
            )],
        ));
        let p = b.build().unwrap();
        let t = trace(&p);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].1, 7 * 8);
    }

    #[test]
    fn range_walk_matches_filtered_full_walk() {
        let p = two_nest_program();
        // Collect all (iteration vector, ref) in order via the full walk.
        let mut all: Vec<(Vec<i64>, RefId)> = Vec::new();
        for_each_access(&p, |a| {
            all.push((p.iteration_vector(a.r, a.point), a.r));
            ControlFlow::Continue(())
        });
        // Pick interval endpoints from existing points.
        let from = all[2].0.clone();
        let to = all[9].0.clone();
        let expect: Vec<(Vec<i64>, RefId)> = all
            .iter()
            .filter(|(iv, _)| {
                cme_poly::lex::cmp(iv, &from) != std::cmp::Ordering::Less
                    && cme_poly::lex::cmp(iv, &to) != std::cmp::Ordering::Greater
            })
            .cloned()
            .collect();
        let mut got: Vec<(Vec<i64>, RefId)> = Vec::new();
        walk_range(&p, &from, &to, |a, tag| {
            let iv = p.iteration_vector(a.r, a.point);
            assert_eq!(tag.at_start, iv == from, "at_start tag wrong for {iv:?}");
            assert_eq!(tag.at_end, iv == to, "at_end tag wrong for {iv:?}");
            got.push((iv, a.r));
            ControlFlow::Continue(())
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn range_walk_empty_when_from_after_to() {
        let p = two_nest_program();
        let from = vec![2, 1, 1, 1];
        let to = vec![1, 1, 1, 1];
        let mut count = 0;
        walk_range(&p, &from, &to, |_, _| {
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 0);
    }

    #[test]
    fn range_walk_single_point() {
        let p = two_nest_program();
        // Nest 1, I1=2, inner loop, I2=1. Normalisation sank S1 into the
        // inner loop under the guard I2 = 1, so this point carries S1's
        // write plus S2's read+write.
        let point = vec![1, 2, 1, 1];
        let mut got = Vec::new();
        walk_range(&p, &point, &point, |a, tag| {
            assert!(tag.at_start && tag.at_end);
            got.push(a.r);
            ControlFlow::Continue(())
        });
        assert_eq!(got.len(), 3);
        // And at I2=2 the guard filters S1 out.
        let point2 = vec![1, 2, 1, 2];
        let mut got2 = Vec::new();
        walk_range(&p, &point2, &point2, |a, _| {
            got2.push(a.r);
            ControlFlow::Continue(())
        });
        assert_eq!(got2.len(), 2);
    }

    #[test]
    fn range_walk_out_of_bounds_endpoints_clip() {
        let p = two_nest_program();
        // from before everything, to after everything: same as full trace.
        let from = vec![0, 0, 0, 0];
        let to = vec![9, 9, 9, 9];
        let mut count = 0;
        walk_range(&p, &from, &to, |_, _| {
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count as usize, trace(&p).len());
    }

    /// The row walk covers exactly the points of `walk_range`, backward:
    /// each access of the reversed forward walk lies in the row that the
    /// row walk reports for its prefix and loop node, rows come in the
    /// same order, and the boundary tags sit at the reported row ends.
    #[test]
    fn row_walk_groups_the_reverse_walk() {
        let p = two_nest_program();
        let endpoints = [
            (vec![1, 1, 1, 1], vec![2, 2, 1, 1]),
            (vec![1, 2, 1, 1], vec![2, 1, 1, 1]),
            (vec![1, 1, 1, 2], vec![1, 3, 1, 1]),
            (vec![1, 2, 1, 2], vec![1, 2, 1, 2]),
            (vec![0, 0, 0, 0], vec![9, 9, 9, 9]),
        ];
        let mut idx = Vec::new();
        for (from, to) in &endpoints {
            // (prefix, loop node, index, at_start, at_end), deduplicated
            // per point.
            type Seen = (Vec<i64>, *const LoopNode, i64, bool, bool);
            let mut forward: Vec<Seen> = Vec::new();
            walk_range(&p, from, to, |a, tag| {
                let label = &p.statement(p.reference(a.r).stmt).label;
                let node: *const LoopNode = *p.loop_path(label).last().unwrap();
                let seen = (
                    a.point[..1].to_vec(),
                    node,
                    a.point[1],
                    tag.at_start,
                    tag.at_end,
                );
                if forward.last() != Some(&seen) {
                    forward.push(seen);
                }
                ControlFlow::Continue(())
            });
            let expect: Vec<Seen> = forward.into_iter().rev().collect();
            let mut got: Vec<Seen> = Vec::new();
            walk_rows_rev(&p, from, to, &mut idx, |row| {
                for w in (row.lo..=row.hi).rev() {
                    got.push((
                        row.prefix.to_vec(),
                        row.node,
                        w,
                        row.starts_at_from && w == row.lo,
                        row.ends_at_to && w == row.hi,
                    ));
                }
                ControlFlow::Continue(())
            });
            assert_eq!(got, expect, "from={from:?} to={to:?}");
        }
    }

    /// A break from the callback stops the row walk.
    #[test]
    fn row_walk_early_break() {
        let p = two_nest_program();
        let mut rows = 0;
        walk_rows_rev(&p, &[0, 0, 0, 0], &[9, 9, 9, 9], &mut Vec::new(), |_| {
            rows += 1;
            if rows == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(rows, 2);
    }

    #[test]
    fn early_break_stops_walk() {
        let p = two_nest_program();
        let mut count = 0;
        for_each_access(&p, |_| {
            count += 1;
            if count == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(count, 3);
    }
}
