//! Point classification: the cold and replacement equations (§4.1).
//!
//! For a consumer reference `R_c` at iteration `i`, the reuse vectors of
//! `R_c` are tried in increasing lexicographic order. Along a vector `r`
//! from producer `R_p`:
//!
//! * the **cold equations** (§4.1.1) leave the point *indeterminate* when
//!   `i − r ∉ RIS_p` or the two accesses touch different memory lines —
//!   the next vector is tried;
//! * otherwise the **replacement equations** (§4.1.2) decide: the point is
//!   a hit unless `k` *distinct* memory lines mapping to the reused line's
//!   cache set are accessed in the interference interval between `i − r`
//!   and `i` (LRU in a `k`-way set needs `k` distinct contentions to evict).
//!
//! The interval's ends are open or closed per lexical position: an access at
//! `i − r` intervenes only if its reference is lexically *after* `R_p`; one
//! at `i` only if lexically *before* `R_c`.
//!
//! Points indeterminate after every vector are cold misses.
//!
//! The replacement equations are decided by counting, not walking
//! (`Classifier::count_evicted`): only what follows the reused line's
//! last touch in the interval can evict it, and within that stretch order
//! does not matter. So the interval's innermost rows are visited backward
//! ([`cme_ir::walk::walk_rows_rev`]), each row's guards reduce to intervals
//! of the innermost index, and per (row, reference) two closed forms give
//! where the reused line was last touched and which lines map to its set.
//! The count stops at the `k`-th distinct contender or at the row holding
//! the latest re-touch. The full interval scan survives as
//! [`WalkStrategy::LegacyScan`], the reference the evaluator is fuzzed
//! against.
//!
//! Per-reference invariants (producer bounding boxes, lexical ranks, the
//! vector list itself) are hoisted into [`Classifier::new`] so the per-point
//! loop touches only flat precomputed slices, and callers on hot paths can
//! supply a reusable [`Scratch`] via [`Classifier::classify_with_scratch`]
//! to avoid per-point allocation entirely.

use cme_cache::CacheConfig;
use cme_ir::walk::{walk_rows_rev, RowSpan};
use cme_ir::{Program, RefId};
use cme_poly::vector::{div_ceil, div_floor, gcd};
use cme_poly::{Constraint, ConstraintKind};
use cme_reuse::ReuseAnalysis;
use std::ops::ControlFlow;

/// How the replacement equations evaluate the interference interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalkStrategy {
    /// The counting evaluator: the interval's innermost rows are visited
    /// backward and each (row, reference) pair's conflicting lines are
    /// solved in closed form instead of enumerated. The default.
    #[default]
    SetSkip,
    /// The full interval scan (`walk_range_rev` over every access,
    /// filtering by set in the callback). Kept as the reference
    /// implementation; verdicts are bit-identical to [`WalkStrategy::SetSkip`].
    LegacyScan,
}

/// The verdict for one iteration point of one reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointClass {
    /// No reuse vector supplied the line: first touch of the memory line.
    Cold,
    /// Reuse existed along the vector at the given position in the sorted
    /// list, but ≥ k distinct set contentions evicted the line.
    ReplacementMiss {
        /// Index into the consumer's sorted vector list.
        vector_idx: usize,
    },
    /// The line survived: a cache hit.
    Hit {
        /// Index into the consumer's sorted vector list.
        vector_idx: usize,
    },
}

impl PointClass {
    /// Whether the point is a miss of either kind.
    pub fn is_miss(&self) -> bool {
        !matches!(self, PointClass::Hit { .. })
    }
}

/// Reusable per-worker buffers for [`Classifier::classify_with_scratch`].
///
/// `classify` allocates these afresh on every call; a hot loop (exact
/// analysis visits every iteration point) should construct one `Scratch`
/// per thread and pass it to `classify_with_scratch` instead. Buffers grow
/// on demand, so one scratch serves programs of any depth.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    /// The consumer's interleaved iteration vector (2n entries).
    i_vec: Vec<i64>,
    /// `i − r`, interleaved label/index form (2n entries).
    prev: Vec<i64>,
    /// Index part of `i − r` (n entries).
    prev_idx: Vec<i64>,
    /// The replacement equations' buffers.
    eval: EvalScratch,
}

/// Reusable buffers of the replacement equations, under either strategy.
#[derive(Debug, Default, Clone)]
pub(crate) struct EvalScratch {
    /// Distinct contending lines seen in the interference interval.
    lines: Vec<i64>,
    /// Index buffer of the row walk.
    row_idx: Vec<i64>,
    /// The current row's reference segments.
    segs: Vec<Segment>,
    /// `≠` holes of the current row's statements, sorted per statement.
    holes: Vec<i64>,
}

/// Reference segments of consecutive rows of an interval, in reverse
/// program order: row `i` holds `segs[ends[i − 1]..ends[i]]`.
#[derive(Debug, Default, Clone)]
pub(crate) struct WindowRows {
    segs: Vec<Segment>,
    ends: Vec<usize>,
    holes: Vec<i64>,
    /// Every row of the interval is stored, down to the one holding
    /// `from`.
    complete: bool,
}

impl WindowRows {
    /// Rows stored.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

/// One reference's accesses within one row of the counting evaluator:
/// byte address `base + stride·w` for `w ∈ [lo, hi]`, minus its
/// statement's holes.
#[derive(Debug, Clone, Copy)]
struct Segment {
    r: u32,
    /// Position of the access within one iteration, in program order.
    pos: u32,
    base: i64,
    lo: i64,
    hi: i64,
    /// The statement's holes: `holes[holes_at.0..holes_at.1]`.
    holes_at: (u32, u32),
    /// First and last line between the accesses at `lo` and `hi`: every
    /// line the segment touches lies in between, also after `lo` or `hi`
    /// is clipped.
    lines: (i64, i64),
}

impl Scratch {
    /// Creates an empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Precomputed per-vector invariants: everything the cold equations need
/// that does not depend on the iteration point. Shared with the pre-pass
/// (`crate::prepass`), which reduces the same screens to one dimension.
#[derive(Debug, Clone)]
pub(crate) struct VectorPlan<'p> {
    pub(crate) producer: RefId,
    /// The reuse vector in interleaved label/index form (2n entries).
    pub(crate) vector: &'p [i64],
    /// Bounding box of `RIS_p`, for the cheap containment pre-screen.
    pub(crate) producer_bbox: &'p [(i64, i64)],
    pub(crate) producer_rank: usize,
}

/// All vectors of one consumer, in lexicographic order, plus its rank.
#[derive(Debug, Clone)]
pub(crate) struct ConsumerPlan<'p> {
    pub(crate) vectors: Vec<VectorPlan<'p>>,
    pub(crate) consumer_rank: usize,
}

/// Per-reference invariants of the pre-pass's row-uniform contention
/// bound: everything needed to bound, in O(1) arithmetic per reference, how
/// many distinct memory lines the reference can map to one cache set inside
/// an interference interval.
#[derive(Debug, Clone)]
struct RefBoundPlan<'p> {
    /// The owning statement's loop label vector (n entries).
    label: &'p [i64],
    /// Bounding box of the reference's RIS (n dims).
    bbox: &'p [(i64, i64)],
    /// The reference's byte-address affine form.
    plan: &'p cme_poly::Affine,
}

/// The stride-only parts of one reference's closed-form line count: what
/// the congruence `Cache_Set(line(base + s·w)) = t` needs that depends on
/// the innermost byte stride `s` and the geometry, not on the row.
///
/// For `|s| ≥ L` the accesses split into `period` residue classes of `w`;
/// along each class the line advances by exactly `sigma` per step, so the
/// set-matching steps `q` solve `sigma·q ≡ t − l₀ (mod S)`: they exist iff
/// `g | (t − l₀)` and then form `q ≡ (t − l₀)/g · inv (mod m)`.
#[derive(Debug, Clone, Copy)]
struct RefCount {
    stride: i64,
    lex_rank: usize,
    /// `L / gcd(|s|, L)`: shifting `w` by it moves the address by whole
    /// lines.
    period: i64,
    /// Lines advanced per `period` steps of `w`: `s · period / L`.
    sigma: i64,
    /// `gcd(sigma mod S, S)`.
    g: i64,
    /// `S / g`.
    m: i64,
    /// `(sigma / g)⁻¹ mod m`.
    inv: i64,
}

impl RefCount {
    fn new(stride: i64, lex_rank: usize, config: &CacheConfig) -> RefCount {
        let (l, nsets) = (config.line_bytes() as i64, config.num_sets() as i64);
        let period = if stride == 0 { 1 } else { l / gcd(stride, l) };
        let sigma = stride * period / l;
        let g = gcd(sigma.rem_euclid(nsets), nsets);
        let m = nsets / g;
        RefCount {
            stride,
            lex_rank,
            period,
            sigma,
            g,
            m,
            inv: mod_inverse(sigma.rem_euclid(nsets) / g, m),
        }
    }
}

/// `x⁻¹ mod m` for coprime `x`, `m` (`m ≥ 1`), via extended Euclid.
fn mod_inverse(x: i64, m: i64) -> i64 {
    let (mut old_r, mut r) = (x.rem_euclid(m), m);
    let (mut old_t, mut t) = (1i64, 0i64);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_t, t) = (t, old_t - q * t);
    }
    debug_assert!(m == 1 || old_r == 1, "mod_inverse of non-coprime arguments");
    old_t.rem_euclid(m)
}

/// Shared state for classifying points of one program under one cache
/// geometry.
#[derive(Debug, Clone)]
pub struct Classifier<'p> {
    program: &'p Program,
    config: CacheConfig,
    /// One plan per reference, indexed by `RefId`.
    plans: Vec<ConsumerPlan<'p>>,
    /// One row-uniform bound plan per reference, indexed by `RefId`.
    bounds: Vec<RefBoundPlan<'p>>,
    /// One counting plan per reference, indexed by `RefId`.
    counts: Vec<RefCount>,
    walk: WalkStrategy,
}

impl<'p> Classifier<'p> {
    /// Creates a classifier; `reuse` must have been generated for the same
    /// program and the same line size as `config`.
    ///
    /// Construction hoists every per-reference invariant (producer bounding
    /// boxes, lexical ranks, vector slices) out of the per-point loop.
    pub fn new(program: &'p Program, reuse: &'p ReuseAnalysis, config: CacheConfig) -> Self {
        let plans = (0..program.references().len())
            .map(|r| ConsumerPlan {
                consumer_rank: program.reference(r).lex_rank,
                vectors: reuse
                    .for_consumer(r)
                    .map(|rv| VectorPlan {
                        producer: rv.producer,
                        vector: rv.vector.as_slice(),
                        producer_bbox: program.ris(rv.producer).bounding_box(),
                        producer_rank: program.reference(rv.producer).lex_rank,
                    })
                    .collect(),
            })
            .collect();
        let bounds = (0..program.references().len())
            .map(|r| RefBoundPlan {
                label: program
                    .statement(program.reference(r).stmt)
                    .label
                    .as_slice(),
                bbox: program.ris(r).bounding_box(),
                plan: program.addr_plan(r),
            })
            .collect();
        let counts = program
            .references()
            .iter()
            .enumerate()
            .map(|(r, rf)| {
                let stride = program.addr_plan(r).coeffs().last().copied().unwrap_or(0);
                RefCount::new(stride, rf.lex_rank, &config)
            })
            .collect();
        Classifier {
            program,
            config,
            plans,
            bounds,
            counts,
            walk: WalkStrategy::default(),
        }
    }

    /// Selects the interference-walk strategy (default
    /// [`WalkStrategy::SetSkip`]). Verdicts are bit-identical for every
    /// strategy; [`WalkStrategy::LegacyScan`] exists as the reference
    /// implementation for differential testing.
    pub fn with_strategy(mut self, walk: WalkStrategy) -> Self {
        self.walk = walk;
        self
    }

    /// The program under analysis.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The consumer plan of reference `r` (for the pre-pass, which walks
    /// the same vectors in the same order).
    pub(crate) fn plan(&self, r: RefId) -> &ConsumerPlan<'p> {
        &self.plans[r]
    }

    /// Classifies the access of reference `r` at index point `point`
    /// (which must lie in `RIS_r`).
    ///
    /// Allocates fresh scratch buffers; hot loops should hold a [`Scratch`]
    /// and call [`Classifier::classify_with_scratch`].
    pub fn classify(&self, r: RefId, point: &[i64]) -> PointClass {
        let mut scratch = Scratch::new();
        self.classify_with_scratch(r, point, &mut scratch)
    }

    /// Classifies the access of reference `r` at index point `point`,
    /// reusing the caller's buffers. Allocation-free after warm-up; the
    /// workhorse of both the serial and parallel exact analyses.
    pub fn classify_with_scratch(
        &self,
        r: RefId,
        point: &[i64],
        scratch: &mut Scratch,
    ) -> PointClass {
        let program = self.program;
        let config = &self.config;
        let n = program.depth();
        // Interleave the statement label with the index point, reusing the
        // scratch buffer (the legacy path allocated a vector per point).
        scratch.i_vec.resize(2 * n, 0);
        let label = &program.statement(program.reference(r).stmt).label;
        for d in 0..n {
            scratch.i_vec[2 * d] = label[d];
            scratch.i_vec[2 * d + 1] = point[d];
        }
        let line_c = config.mem_line(program.byte_address(r, point));
        let plan = &self.plans[r];

        scratch.prev.resize(2 * n, 0);
        scratch.prev_idx.resize(n, 0);
        let Scratch {
            i_vec,
            prev,
            prev_idx,
            eval,
        } = scratch;
        'vectors: for (vector_idx, vp) in plan.vectors.iter().enumerate() {
            // i − r, split back into label and index parts.
            for d in 0..2 * n {
                prev[d] = i_vec[d] - vp.vector[d];
            }
            for d in 0..n {
                prev_idx[d] = prev[2 * d + 1];
            }

            // Cold equations: producer instance must exist …
            for (d, &(lo, hi)) in vp.producer_bbox.iter().enumerate() {
                if prev_idx[d] < lo || prev_idx[d] > hi {
                    continue 'vectors; // cheap pre-screen
                }
            }
            if !program.ris(vp.producer).contains(prev_idx) {
                continue;
            }
            // … and touch the same memory line.
            let line_p = config.mem_line(program.byte_address(vp.producer, prev_idx));
            if line_p != line_c {
                continue;
            }

            // Replacement equations along this vector decide the point.
            let evicted = self.evicted_between(
                prev,
                i_vec,
                line_c,
                vp.producer_rank,
                plan.consumer_rank,
                eval,
            );
            return if evicted {
                PointClass::ReplacementMiss { vector_idx }
            } else {
                PointClass::Hit { vector_idx }
            };
        }
        PointClass::Cold
    }

    /// Whether the reused line is evicted before the consumer access: at
    /// least `k` distinct memory lines, none of them the reused line and
    /// all mapped to its cache set, are accessed in the interference
    /// interval after the reused line's last touch there. Any access to the
    /// reused line renews its LRU recency, so only what follows the latest
    /// one counts; the producer's own access at `from` is the final
    /// implicit touch.
    ///
    /// Interval ends honour the lexical rules of §4.1.2: an access at
    /// `from` intervenes only if lexically after `R_p`; one at `to` only if
    /// lexically before `R_c`.
    ///
    /// [`WalkStrategy::SetSkip`] counts ([`Classifier::count_evicted`]).
    /// [`WalkStrategy::LegacyScan`] walks every access backward from `to`,
    /// stopping at the first re-touch or the `k`-th distinct contention.
    /// Both decide the same predicate, so the verdicts are bit-identical.
    fn evicted_between(
        &self,
        from: &[i64],
        to: &[i64],
        reused_line: i64,
        producer_rank: usize,
        consumer_rank: usize,
        scratch: &mut EvalScratch,
    ) -> bool {
        let program = self.program;
        let config = &self.config;
        match self.walk {
            WalkStrategy::SetSkip => {
                self.count_evicted(from, to, reused_line, producer_rank, consumer_rank, scratch)
            }
            WalkStrategy::LegacyScan => {
                let k = config.assoc() as usize;
                let target_set = config.set_of_line(reused_line);
                // Distinct contending lines; associativities are small, a
                // linear scan beats hashing.
                let lines = &mut scratch.lines;
                lines.clear();
                let mut evicted = false;
                cme_ir::walk::walk_range_rev(program, from, to, |a, tag| {
                    let rank = program.reference(a.r).lex_rank;
                    if tag.at_start && rank <= producer_rank {
                        return ControlFlow::Continue(());
                    }
                    if tag.at_end && rank >= consumer_rank {
                        return ControlFlow::Continue(());
                    }
                    let line = config.mem_line(a.addr);
                    if line == reused_line {
                        // Re-touch: the line was resident here with the
                        // current contention count since; the verdict is
                        // already decided.
                        return ControlFlow::Break(());
                    }
                    if config.set_of_line(line) != target_set {
                        return ControlFlow::Continue(());
                    }
                    if !lines.contains(&line) {
                        lines.push(line);
                        if lines.len() >= k {
                            evicted = true;
                            return ControlFlow::Break(());
                        }
                    }
                    ControlFlow::Continue(())
                });
                evicted
            }
        }
    }

    /// The counting evaluator of the replacement equations: the verdict of
    /// [`WalkStrategy::LegacyScan`]'s walk, computed without enumerating
    /// accesses.
    ///
    /// The interval's innermost rows are visited backward from `to`. In
    /// each row every statement's guard reduces to an interval of `w` minus
    /// `≠` holes, and the boundary-rank rules trim a reference's range at
    /// the row ends. Per reference the `w` touching the reused line form
    /// one interval, so the row's latest re-touch is a maximum over
    /// references. The lines mapped to the target set after it are then
    /// solved per reference in closed form ([`Classifier::add_lines`]) into
    /// a `k`-slot set of distinct lines. A row holding a re-touch is the
    /// last one consulted: nothing before it counts.
    pub(crate) fn count_evicted(
        &self,
        from: &[i64],
        to: &[i64],
        reused_line: i64,
        producer_rank: usize,
        consumer_rank: usize,
        scratch: &mut EvalScratch,
    ) -> bool {
        let EvalScratch {
            lines,
            row_idx,
            segs,
            holes,
        } = scratch;
        lines.clear();
        let mut evicted = false;
        walk_rows_rev(self.program, from, to, row_idx, |row| {
            segs.clear();
            holes.clear();
            self.row_segments(&row, producer_rank, consumer_rank, segs, holes);
            match self.count_row(segs, holes, reused_line, lines) {
                Some(e) => {
                    evicted = e;
                    ControlFlow::Break(())
                }
                None => ControlFlow::Continue(()),
            }
        });
        evicted
    }

    /// The first `max_rows` rows of the interval `[from, to]`, backward,
    /// in full: the innermost indices of `from` and `to` are ignored, so
    /// the first row (the one holding `to`) and the last (holding `from`)
    /// span their whole loop range. The rows are the same for every point
    /// of a row that reaches its producer along one reuse vector, so
    /// [`Classifier::count_evicted_in`] can decide each such point from
    /// them without walking.
    pub(crate) fn window_rows(
        &self,
        from: &[i64],
        to: &[i64],
        max_rows: usize,
        rows: &mut WindowRows,
        scratch: &mut EvalScratch,
    ) {
        let (mut from, mut to) = (from.to_vec(), to.to_vec());
        *from.last_mut().expect("depth >= 1") = i64::MIN;
        *to.last_mut().expect("depth >= 1") = i64::MAX;
        rows.segs.clear();
        rows.ends.clear();
        rows.holes.clear();
        rows.complete = true;
        walk_rows_rev(self.program, &from, &to, &mut scratch.row_idx, |row| {
            if rows.ends.len() == max_rows {
                rows.complete = false;
                return ControlFlow::Break(());
            }
            self.row_segments(&row, 0, 0, &mut rows.segs, &mut rows.holes);
            rows.ends.push(rows.segs.len());
            ControlFlow::Continue(())
        });
    }

    /// [`Classifier::count_evicted`] over rows from
    /// [`Classifier::window_rows`], for the interval that ends at innermost
    /// index `to_w` of the first row and starts at `from_w` of the last:
    /// those two rows are clipped there, with the boundary-rank rules, and
    /// the rows between are counted as stored. `None` when the stored rows
    /// end before the verdict does.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn count_evicted_in(
        &self,
        rows: &WindowRows,
        from_w: i64,
        to_w: i64,
        reused_line: i64,
        producer_rank: usize,
        consumer_rank: usize,
        scratch: &mut EvalScratch,
    ) -> Option<bool> {
        let EvalScratch { lines, segs, .. } = scratch;
        lines.clear();
        // The row holding `from`, if stored.
        let last = if rows.complete {
            rows.ends.len() - 1
        } else {
            usize::MAX
        };
        let mut start = 0;
        for (i, &end) in rows.ends.iter().enumerate() {
            let row = &rows.segs[start..end];
            start = end;
            let decided = if i == 0 || i == last {
                segs.clear();
                segs.extend(row.iter().filter_map(|sg| {
                    let rank = self.counts[sg.r as usize].lex_rank;
                    let mut sg = *sg;
                    if i == 0 {
                        sg.hi = sg.hi.min(to_w);
                        if sg.hi == to_w && rank >= consumer_rank {
                            sg.hi -= 1;
                        }
                    }
                    if i == last {
                        sg.lo = sg.lo.max(from_w);
                        if sg.lo == from_w && rank <= producer_rank {
                            sg.lo += 1;
                        }
                    }
                    (sg.lo <= sg.hi).then_some(sg)
                }));
                self.count_row(segs, &rows.holes, reused_line, lines)
            } else {
                self.count_row(row, &rows.holes, reused_line, lines)
            };
            if decided.is_some() {
                return decided;
            }
        }
        rows.complete.then_some(false)
    }

    /// Counts one row's segments into `lines`: the row's latest re-touch of
    /// the reused line is a maximum over its segments, and only accesses
    /// after it, in program order, count. `Some(evicted)` once the verdict
    /// is decided — `k` lines, or a re-touch — and `None` when the walk
    /// goes on to the previous row.
    fn count_row(
        &self,
        segs: &[Segment],
        holes: &[i64],
        reused_line: i64,
        lines: &mut Vec<i64>,
    ) -> Option<bool> {
        let retouch = segs
            .iter()
            .filter(|sg| (sg.lines.0..=sg.lines.1).contains(&reused_line))
            .filter_map(|sg| Some((self.last_touch(sg, holes, reused_line)?, sg.pos)))
            .max();
        let target = self.config.set_of_line(reused_line);
        let nsets = self.config.num_sets() as i64;
        for sg in segs {
            // Fewer lines than sets between the segment's extremes, none
            // of them in the target set: nothing to count.
            let span = sg.lines.1 - sg.lines.0;
            if span < nsets && self.config.set_of_line(target - sg.lines.0) > span {
                continue;
            }
            let lo = match retouch {
                Some((w, pos)) if sg.pos > pos => sg.lo.max(w),
                Some((w, _)) => sg.lo.max(w + 1),
                None => sg.lo,
            };
            if self.add_lines(sg, lo, holes, reused_line, lines) {
                return Some(true);
            }
        }
        retouch.map(|_| false)
    }

    /// Appends one row's reference segments: each statement's guard at the
    /// row prefix becomes `[lo, hi]` minus holes, and the boundary ranks
    /// trim the row ends — at `from` only references lexically after the
    /// producer intervene, at `to` only those before the consumer.
    fn row_segments(
        &self,
        row: &RowSpan<'_>,
        producer_rank: usize,
        consumer_rank: usize,
        segs: &mut Vec<Segment>,
        holes: &mut Vec<i64>,
    ) {
        let mut pos = 0;
        for &sid in &row.node.stmts {
            let stmt = self.program.statement(sid);
            let first_hole = holes.len();
            let Some((glo, ghi)) = reduce_guard(&stmt.guard, row.prefix, row.lo, row.hi, holes)
            else {
                holes.truncate(first_hole);
                pos += stmt.refs.len();
                continue;
            };
            holes[first_hole..].sort_unstable();
            let holes_at = (first_hole as u32, holes.len() as u32);
            for &r in &stmt.refs {
                let rank = self.counts[r].lex_rank;
                let mut lo = glo;
                if row.starts_at_from && lo == row.lo && rank <= producer_rank {
                    lo += 1;
                }
                let mut hi = ghi;
                if row.ends_at_to && hi == row.hi && rank >= consumer_rank {
                    hi -= 1;
                }
                if lo <= hi {
                    let plan = self.program.addr_plan(r);
                    let base = plan.constant_term()
                        + plan
                            .coeffs()
                            .iter()
                            .zip(row.prefix)
                            .map(|(c, x)| c * x)
                            .sum::<i64>();
                    let s = self.counts[r].stride;
                    let (a, b) = (base + s * lo, base + s * hi);
                    segs.push(Segment {
                        r: r as u32,
                        pos: pos as u32,
                        base,
                        lo,
                        hi,
                        holes_at,
                        lines: (
                            self.config.mem_line(a.min(b)),
                            self.config.mem_line(a.max(b)),
                        ),
                    });
                }
                pos += 1;
            }
        }
    }

    /// The largest `w` of the segment whose access touches `line`.
    fn last_touch(&self, sg: &Segment, holes: &[i64], line: i64) -> Option<i64> {
        let s = self.counts[sg.r as usize].stride;
        let (lo, hi) = if s == 0 {
            if self.config.mem_line(sg.base) != line {
                return None;
            }
            (sg.lo, sg.hi)
        } else {
            // line·L ≤ base + s·w ≤ line·L + L − 1.
            let l = self.config.line_bytes() as i64;
            let (first, last) = (line * l - sg.base, line * l + l - 1 - sg.base);
            let (a, b) = if s > 0 {
                (div_ceil(first, s), div_floor(last, s))
            } else {
                (div_ceil(last, s), div_floor(first, s))
            };
            (a.max(sg.lo), b.min(sg.hi))
        };
        let holes = &holes[sg.holes_at.0 as usize..sg.holes_at.1 as usize];
        (lo..=hi).rev().find(|w| !holes.contains(w))
    }

    /// Adds the distinct lines mapped to the reused line's set that the
    /// segment touches at `w ∈ [lo, sg.hi]` to `lines`; `true` once `lines`
    /// holds `k`. The segment never touches the reused line there.
    fn add_lines(
        &self,
        sg: &Segment,
        lo: i64,
        holes: &[i64],
        reused_line: i64,
        lines: &mut Vec<i64>,
    ) -> bool {
        let mut start = lo;
        for &h in &holes[sg.holes_at.0 as usize..sg.holes_at.1 as usize] {
            if h < start || h > sg.hi {
                continue;
            }
            if self.add_run(sg, start, h - 1, reused_line, lines) {
                return true;
            }
            start = h + 1;
        }
        self.add_run(sg, start, sg.hi, reused_line, lines)
    }

    /// [`Classifier::add_lines`] over one hole-free run `[lo, hi]`, by
    /// stride: one line for `s = 0`; a contiguous line range for
    /// `|s| < L`; and for `|s| ≥ L` one arithmetic progression of matching
    /// `w` per residue class of `w` modulo the [`RefCount`] period.
    fn add_run(
        &self,
        sg: &Segment,
        lo: i64,
        hi: i64,
        reused_line: i64,
        lines: &mut Vec<i64>,
    ) -> bool {
        if lo > hi {
            return false;
        }
        let config = &self.config;
        let k = config.assoc() as usize;
        let nsets = config.num_sets() as i64;
        let target = config.set_of_line(reused_line);
        let mut add = |line: i64| {
            debug_assert_ne!(
                line, reused_line,
                "counted region re-touches the reused line"
            );
            if !lines.contains(&line) {
                lines.push(line);
            }
            lines.len() >= k
        };
        let rc = &self.counts[sg.r as usize];
        let s = rc.stride;
        if s == 0 {
            let line = config.mem_line(sg.base);
            return config.set_of_line(line) == target && add(line);
        }
        if s.abs() < config.line_bytes() as i64 {
            // Consecutive accesses are less than a line apart: every line
            // between the extremes is touched.
            let (a, b) = (sg.base + s * lo, sg.base + s * hi);
            let (first, last) = (config.mem_line(a.min(b)), config.mem_line(a.max(b)));
            let mut line = first + (target - first).rem_euclid(nsets);
            while line <= last {
                if add(line) {
                    return true;
                }
                line += nsets;
            }
            return false;
        }
        for w0 in lo..=hi.min(lo + rc.period - 1) {
            let l0 = config.mem_line(sg.base + s * w0);
            let delta = (target - l0).rem_euclid(nsets);
            if delta % rc.g != 0 {
                continue;
            }
            let qmax = (hi - w0) / rc.period;
            let mut q = delta / rc.g * rc.inv % rc.m;
            while q <= qmax {
                if add(l0 + rc.sigma * q) {
                    return true;
                }
                q += rc.m;
            }
        }
        false
    }

    /// The memory-line window one reference can touch within the
    /// lexicographic interval `[from, to]`, or `None` when the reference
    /// cannot execute in the interval at all. `diff` is the first position
    /// where the endpoints differ (precomputed by the caller): positions
    /// before it pin a label or index, the one at it gives a range, and
    /// deeper dimensions fall back to the RIS bounding box.
    fn ref_line_window(
        &self,
        bp: &RefBoundPlan<'_>,
        from: &[i64],
        to: &[i64],
        diff: usize,
    ) -> Option<(i64, i64)> {
        let n = self.program.depth();
        let mut w_min = bp.plan.constant_term();
        let mut w_max = w_min;
        for d in 0..n {
            // Interleaved positions: label at 2d, index at 2d + 1.
            let lpos = 2 * d;
            if lpos < diff {
                if bp.label[d] != from[lpos] {
                    return None;
                }
            } else if lpos == diff && (bp.label[d] < from[lpos] || bp.label[d] > to[lpos]) {
                return None;
            }
            let ipos = 2 * d + 1;
            let (mut lo, mut hi) = bp.bbox[d];
            if ipos < diff {
                lo = lo.max(from[ipos]);
                hi = hi.min(from[ipos]);
            } else if ipos == diff {
                lo = lo.max(from[ipos]);
                hi = hi.min(to[ipos]);
            }
            if lo > hi {
                return None;
            }
            let c = bp.plan.coeff(d);
            if c >= 0 {
                w_min += c * lo;
                w_max += c * hi;
            } else {
                w_min += c * hi;
                w_max += c * lo;
            }
        }
        Some((self.config.mem_line(w_min), self.config.mem_line(w_max)))
    }

    /// The pre-pass's row-uniform contention bound: the interval
    /// `[from, to]` covers a whole row's interference windows, each
    /// reference's box over it becomes a memory-line window
    /// ([`Classifier::ref_line_window`]), and any residue class of an
    /// interval of lines `[l_min, l_max]` has at most
    /// `⌊(l_max − l_min)/nsets⌋ + 1` members. The result is therefore an upper bound on the exact
    /// walk's distinct-contention count for *every* point of the row along
    /// the vector that produced `[from, to]`: `true` means each such point
    /// is a classifier hit.
    pub(crate) fn row_contention_hit(&self, from: &[i64], to: &[i64]) -> bool {
        let k = self.config.assoc() as i64;
        let nsets = self.config.num_sets() as i64;
        let n = self.program.depth();
        let diff = from
            .iter()
            .zip(to)
            .position(|(a, b)| a != b)
            .unwrap_or(2 * n);
        let mut sum: i64 = 0;
        for bp in &self.bounds {
            let Some((l_min, l_max)) = self.ref_line_window(bp, from, to, diff) else {
                continue;
            };
            sum += (l_max - l_min).div_euclid(nsets) + 1;
            if sum >= k {
                return false;
            }
        }
        sum < k
    }
}

/// A conjunction of constraints at a row prefix, as a 1-D system in the
/// innermost index `w`: the `w ∈ [lo, hi]` where every `≥`/`=` constraint
/// holds, with the `≠` holes pushed to `holes`; `None` when no `w`
/// survives.
pub(crate) fn reduce_guard(
    guard: &[Constraint],
    prefix: &[i64],
    lo: i64,
    hi: i64,
    holes: &mut Vec<i64>,
) -> Option<(i64, i64)> {
    let (mut lo, mut hi) = (lo, hi);
    for c in guard {
        let coeffs = c.expr.coeffs();
        let a = coeffs[prefix.len()];
        let rest =
            c.expr.constant_term() + coeffs.iter().zip(prefix).map(|(c, x)| c * x).sum::<i64>();
        // The constraint is `a·w + rest ⋈ 0` on the row.
        match c.kind {
            ConstraintKind::Ge if a > 0 => lo = lo.max(div_ceil(-rest, a)),
            ConstraintKind::Ge if a < 0 => hi = hi.min(div_floor(-rest, a)),
            ConstraintKind::Ge if rest < 0 => return None,
            ConstraintKind::Eq if a != 0 && rest % a == 0 => {
                lo = lo.max(-rest / a);
                hi = hi.min(-rest / a);
            }
            ConstraintKind::Eq if a != 0 || rest != 0 => return None,
            ConstraintKind::Ne if a != 0 && rest % a == 0 => holes.push(-rest / a),
            ConstraintKind::Ne if a == 0 && rest == 0 => return None,
            _ => {}
        }
    }
    (lo <= hi).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{LinExpr, ProgramBuilder, SNode, SRef};

    fn classify_all(program: &Program, config: CacheConfig) -> Vec<(RefId, Vec<i64>, PointClass)> {
        let reuse = ReuseAnalysis::analyze(program, config.line_bytes());
        let cl = Classifier::new(program, &reuse, config);
        let mut out = Vec::new();
        let mut scratch = Scratch::new();
        for r in 0..program.references().len() {
            program.ris(r).for_each_point(|p| {
                out.push((r, p.to_vec(), cl.classify_with_scratch(r, p, &mut scratch)));
            });
        }
        out
    }

    /// A sequential scan: one cold miss per line, spatial hits in between.
    #[test]
    fn stream_classification() {
        let mut b = ProgramBuilder::new("stream");
        b.array("A", &[32], 8);
        b.push(SNode::loop_(
            "I",
            1,
            32,
            vec![SNode::reads_only(vec![SRef::new(
                "A",
                vec![LinExpr::var("I")],
            )])],
        ));
        let p = b.build().unwrap();
        let cfg = CacheConfig::new(1024, 32, 1).unwrap();
        let verdicts = classify_all(&p, cfg);
        let cold = verdicts
            .iter()
            .filter(|(_, _, c)| matches!(c, PointClass::Cold))
            .count();
        let hits = verdicts
            .iter()
            .filter(|(_, _, c)| matches!(c, PointClass::Hit { .. }))
            .count();
        assert_eq!(cold, 8); // 32 elements × 8B / 32B lines
        assert_eq!(hits, 24);
    }

    /// Temporal reuse with an interfering conflicting line: direct-mapped
    /// evicts, 2-way keeps.
    #[test]
    fn conflict_sensitivity_to_associativity() {
        // Loop: read A(1); read B(1); A and B are 1024B apart so their first
        // lines conflict in a 1KB direct-mapped cache (32 sets).
        let mut b = ProgramBuilder::new("conflict");
        b.array("A", &[128], 8); // 1024 bytes
        b.array("B", &[128], 8);
        b.push(SNode::loop_(
            "I",
            1,
            4,
            vec![SNode::reads_only(vec![
                SRef::new("A", vec![LinExpr::constant(1)]),
                SRef::new("B", vec![LinExpr::constant(1)]),
            ])],
        ));
        let p = b.build().unwrap();
        assert_eq!(p.base_address(1) - p.base_address(0), 1024);

        let direct = CacheConfig::new(1024, 32, 1).unwrap();
        let verdicts = classify_all(&p, direct);
        // Every re-read of A(1) finds its line evicted by B(1) (and vice
        // versa): 2 cold + 6 replacement misses.
        let miss = verdicts.iter().filter(|(_, _, c)| c.is_miss()).count();
        assert_eq!(miss, 8);

        let twoway = CacheConfig::new(1024, 32, 2).unwrap();
        let verdicts = classify_all(&p, twoway);
        let miss = verdicts.iter().filter(|(_, _, c)| c.is_miss()).count();
        assert_eq!(miss, 2); // only the two cold misses
    }

    /// Classification agrees exactly with the LRU simulator on a program
    /// with mixed reuse (the ground-truth cross-check).
    #[test]
    fn agrees_with_simulator_on_small_kernel() {
        let n = 12i64;
        let mut b = ProgramBuilder::new("mix");
        b.array("A", &[n], 8);
        b.array("B", &[n, n], 8);
        let i1 = LinExpr::var("I1");
        let i2 = LinExpr::var("I2");
        b.push(SNode::loop_(
            "I1",
            2,
            n,
            vec![SNode::loop_(
                "I2",
                1,
                n,
                vec![SNode::assign(
                    SRef::new("B", vec![i2.clone(), i1.clone()]),
                    vec![
                        SRef::new("A", vec![i2.clone()]),
                        SRef::new("B", vec![i2.clone(), i1.offset(-1)]),
                    ],
                )],
            )],
        ));
        let p = b.build().unwrap();
        for assoc in [1u32, 2, 4] {
            let cfg = CacheConfig::new(512, 32, assoc).unwrap();
            let predicted: u64 = classify_all(&p, cfg)
                .iter()
                .filter(|(_, _, c)| c.is_miss())
                .count() as u64;
            let sim = cme_cache::Simulator::new(cfg).run(&p);
            assert_eq!(
                predicted,
                sim.total_misses(),
                "assoc {assoc}: prediction != simulation"
            );
        }
    }

    /// The counting evaluator decides arbitrary intervals, reused lines and
    /// boundary ranks exactly as the full walk does — not only the windows
    /// reuse vectors produce. The program crosses nests, guards rows with
    /// thresholds and `≠` holes, runs a row backward and reads at a stride
    /// of 40 B, neither a multiple nor a divisor of any line size drawn.
    #[test]
    fn counting_equals_walk_on_arbitrary_intervals() {
        use cme_ir::{LinRel, RelOp};
        use cme_poly::rng::{Rng, SeededRng};
        let n = 9i64;
        let mut b = ProgramBuilder::new("intervals");
        b.array("A", &[n, n], 8);
        b.array("B", &[2 * n, n], 20);
        b.array("C", &[n], 8);
        let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
        b.push(SNode::loop_(
            "J",
            1,
            n,
            vec![SNode::loop_(
                "I",
                1,
                n,
                vec![
                    SNode::assign(
                        SRef::new("A", vec![i.clone(), j.clone()]),
                        vec![SRef::new("C", vec![i.scale(-1).offset(n + 1)])],
                    ),
                    SNode::if_(
                        vec![
                            LinRel::new(i.clone(), RelOp::Ne, j.clone()),
                            LinRel::new(i.clone(), RelOp::Ge, LinExpr::constant(3)),
                        ],
                        vec![SNode::reads_only(vec![SRef::new(
                            "B",
                            vec![i.scale(2), j.clone()],
                        )])],
                    ),
                ],
            )],
        ));
        b.push(SNode::loop_(
            "I",
            1,
            n,
            vec![SNode::reads_only(vec![
                SRef::new("C", vec![i.clone()]),
                SRef::new("A", vec![LinExpr::constant(2), i.clone()]),
            ])],
        ));
        let p = b.build().unwrap();
        let mut points: Vec<Vec<i64>> = Vec::new();
        let mut addrs: Vec<i64> = Vec::new();
        cme_ir::walk::for_each_access(&p, |a| {
            points.push(p.iteration_vector(a.r, a.point));
            addrs.push(a.addr);
            ControlFlow::Continue(())
        });
        let nrefs = p.references().len();
        let mut rng = SeededRng::seed_from_u64(0xC0);
        let mut evictions = 0;
        for (line, sets) in [(16u64, 8u64), (24, 12), (32, 4), (32, 16)] {
            for assoc in [1u32, 2, 3] {
                let cfg = CacheConfig::with_geometry(line, sets, assoc).unwrap();
                let reuse = ReuseAnalysis::analyze(&p, cfg.line_bytes());
                let count = Classifier::new(&p, &reuse, cfg);
                let scan = Classifier::new(&p, &reuse, cfg).with_strategy(WalkStrategy::LegacyScan);
                let mut scratch = EvalScratch::default();
                for _ in 0..400 {
                    let a = rng.gen_below(points.len() as u64) as usize;
                    let b = rng.gen_below(points.len() as u64) as usize;
                    let (from, to) = (&points[a.min(b)], &points[a.max(b)]);
                    let reused = cfg.mem_line(addrs[rng.gen_below(addrs.len() as u64) as usize]);
                    let (pr, cr) = (
                        rng.gen_below(nrefs as u64 + 1),
                        rng.gen_below(nrefs as u64 + 1),
                    );
                    let (pr, cr) = (pr as usize, cr as usize);
                    let want = scan.evicted_between(from, to, reused, pr, cr, &mut scratch);
                    let got = count.count_evicted(from, to, reused, pr, cr, &mut scratch);
                    assert_eq!(
                        got, want,
                        "cfg {cfg}: [{from:?}, {to:?}] line {reused} ranks {pr}/{cr}"
                    );
                    evictions += u32::from(got);
                }
            }
        }
        assert!(evictions > 500, "only {evictions} evictions drawn");
    }

    /// `classify` and `classify_with_scratch` agree point-for-point, and a
    /// single scratch serves programs of different depths in sequence.
    #[test]
    fn scratch_path_matches_allocating_path() {
        let mut b = ProgramBuilder::new("mix3");
        b.array("A", &[16, 16], 8);
        let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
        b.push(SNode::loop_(
            "J",
            2,
            10,
            vec![SNode::loop_(
                "I",
                1,
                10,
                vec![SNode::assign(
                    SRef::new("A", vec![i.clone(), j.clone()]),
                    vec![SRef::new("A", vec![i.clone(), j.offset(-1)])],
                )],
            )],
        ));
        let deep = b.build().unwrap();

        let mut b = ProgramBuilder::new("flat");
        b.array("A", &[64], 8);
        b.push(SNode::loop_(
            "I",
            1,
            64,
            vec![SNode::reads_only(vec![SRef::new(
                "A",
                vec![LinExpr::var("I")],
            )])],
        ));
        let flat = b.build().unwrap();

        let cfg = CacheConfig::new(512, 32, 2).unwrap();
        let mut scratch = Scratch::new();
        // Deliberately alternate programs so buffer sizes change between
        // calls: 2-deep (n=2) then 1-deep (n=1).
        for program in [&deep, &flat, &deep] {
            let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());
            let cl = Classifier::new(program, &reuse, cfg);
            for r in 0..program.references().len() {
                program.ris(r).for_each_point(|p| {
                    assert_eq!(
                        cl.classify(r, p),
                        cl.classify_with_scratch(r, p, &mut scratch),
                        "r={r} p={p:?}"
                    );
                });
            }
        }
    }
}
