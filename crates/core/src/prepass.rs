//! The row engine: the definitely-hit/definitely-miss pre-pass
//! (DESIGN.md §12).
//!
//! Before the exact per-point walk runs, this module classifies as many
//! `(reference, iteration point)` pairs as it can by deciding whole *rows*
//! of the iteration space — in the spirit of the must/may LRU age analyses
//! of Touzeau, Maïza, Monniaux and Reineke ("Fast and exact analysis for
//! LRU caches") and of the residue-class counting of fully symbolic
//! locality analyses (both in PAPERS.md): prove the easy verdicts cheaply,
//! leave only an uncertain residue for the expensive exact machinery.
//!
//! A *row* is a maximal run of consecutive innermost-index values of one
//! reference's RIS at a fixed outer-index prefix. Rows are enumerated by
//! prefix descent (exact per-level intervals minus `≠` holes), so finding
//! them costs `O(rows)`, not `O(points)`. At a fixed prefix every quantity
//! the cold/replacement equations consult becomes affine in the one
//! remaining variable `v`, so each screen of the classifier collapses to
//! exact 1-D arithmetic:
//!
//! * **producer-exists** — every RIS constraint of the producer reduces to
//!   `a·v + b ⋈ 0`, i.e. a half-line, a point or an excluded value; their
//!   conjunction (plus the bounding box, which is what the classifier
//!   pre-screens with) is an interval with at most a few holes;
//! * **same-line** — consumer and producer addresses are `base + stride·v`,
//!   so the line match is one comparison per point;
//! * **replacement** — decided, in this order, by the static window size
//!   (a window that holds fewer than `k` accesses never evicts), by a
//!   row-uniform contention bound (computed once per `(row, vector)`: if
//!   even the widened whole-row interference window cannot supply `k`
//!   distinct conflicting lines, every point of the row is a hit along that
//!   vector), by enumerating the window backward from the consumer for
//!   vectors whose interval stays inside the innermost loop row and fits
//!   `WINDOW_BUDGET`, and otherwise by the classifier's counting
//!   evaluator, one point at a time.
//!   The first point of a row that counts along a vector walks the
//!   window's rows; later points share them, stored per `(row, vector)` as
//!   far as some point has needed them, so a window that crosses hundreds
//!   of rows is described once per row, not once per point.
//!
//! # Closure: one evaluation per residue class
//!
//! Points are evaluated in order, and the first applicable vector decides,
//! as in the classifier. Every address of a row shifts by a multiple of the
//! line size `L` when `v` grows by the row period `Q = L / gcd(L, s)`,
//! where `s` ranges over the consumer's, the leaf references' and the
//! producers' innermost strides. So once one point of each residue class
//! of `v mod Q` has been evaluated, each class's verdict extends up to the
//! first position where a condition consulted at any of those points can
//! change. Such positions are:
//!
//! * an applicability edge or `≠` hole of a consulted vector;
//! * a guard threshold inside a consulted window: the window's guard
//!   pattern is constant only while no leaf guard changes truth inside it;
//! * the point where a cross-stride vector's address gap stops clearing a
//!   line (while `|gap| ≥ L` the vector can never match; inside that band
//!   the line match is not residue-periodic and is decided point by point).
//!
//! Equal-stride line matches and the row-uniform bound repeat with `Q` by
//! construction. A window repeats only when every leaf reference shares the
//! consumer's innermost stride; a window over mixed leaf strides stays per
//! point, and so does every counted window.
//!
//! The resulting per-point verdicts — `AlwaysHit`, always-miss
//! ([`Verdict::Cold`] / [`Verdict::Replacement`]) or unknown — **equal the
//! classifier's verdicts wherever they are not unknown**. That is a stronger
//! property than soundness and it is what keeps every report byte-identical
//! to [`Classifier::classify_every_point`]'s: a resolved point contributes
//! exactly the tally increment the classifier would have produced.
//!
//! # Degradation rule (the Monniaux complexity-gap boundary)
//!
//! Anything the 1-D reduction cannot express *exactly* degrades to unknown,
//! never to a guess. Every window is decided exactly — within a row by
//! the window evaluation, across rows (all cross-nest and
//! inlined-call-boundary reuse) by counting — so only two things leave
//! points unknown: a row that needs more than `MAX_ROW_PIECES` pieces,
//! and a row partition that fails its check. Guards *within* the innermost
//! row are evaluated exactly (inlined straight-line code is handled
//! precisely).
//!
//! # Pieces
//!
//! Each row stores its verdicts as pieces `(last v, period, pattern)`: the
//! pattern repeats from the piece's first position, and a run is a piece
//! with period 1. A row needing more than `MAX_ROW_PIECES` (48) pieces stops
//! there and leaves its remainder unknown, so memory stays proportional to
//! the number of rows, not points. When no point of a reference is unknown
//! its cold/replacement/hit totals are known ([`RefVerdicts::totals`]) and
//! every caller skips that reference's walk.

use crate::cancel::{CancelToken, Cancelled};
use crate::classify::{reduce_guard, Classifier, ConsumerPlan, EvalScratch, WindowRows};
use crate::parallel::Tally;
use cme_cache::CacheConfig;
use cme_ir::{Program, RefId};
use cme_poly::vector::{div_ceil, div_floor, gcd};
use cme_poly::{Affine, Constraint, ConstraintKind, Space};

/// A resolved verdict for one iteration point: what the exact walk would
/// conclude, proven without running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The access definitely hits (`AlwaysHit`).
    Hit,
    /// The access definitely misses on a never-before-seen line.
    Cold,
    /// The access definitely misses by LRU replacement.
    Replacement,
}

/// Evaluations (points and rows) between cancellation checks.
const CANCEL_GRAIN: u64 = 4096;

/// Budget (window accesses) for the exact intra-row window evaluation; a
/// window of `(dv + 1) · row_accesses` beyond this is counted instead,
/// which costs more per call on a short window.
const WINDOW_BUDGET: usize = 1024;

/// Pieces stored per row; a row needing more leaves its remainder unknown.
const MAX_ROW_PIECES: usize = 48;

/// Verdict codes; `UNKNOWN` is "let the walk decide". Each code is also its
/// own offset in [`RefVerdicts::codes`], which starts with the four
/// one-code patterns every run shares.
const UNKNOWN: u8 = 0;
const HIT: u8 = 1;
const COLD: u8 = 2;
const REPL: u8 = 3;
const RUN_PATTERNS: [u8; 4] = [UNKNOWN, HIT, COLD, REPL];

fn decode(code: u8) -> Option<Verdict> {
    match code {
        HIT => Some(Verdict::Hit),
        COLD => Some(Verdict::Cold),
        REPL => Some(Verdict::Replacement),
        _ => None,
    }
}

/// One stretch of a row: `pattern` repeated from the piece's first
/// position, which follows the previous piece of its row (or is the row's
/// `lo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Piece {
    /// Last `v` covered.
    last: i64,
    /// Offset of the pattern in [`RefVerdicts::codes`].
    pat: u32,
    /// Pattern length.
    period: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    lo: i64,
    hi: i64,
    /// End (exclusive) of the row's pieces; they start where the previous
    /// row's end.
    end: u32,
}

/// The pre-pass verdict map of one reference: rows in lexicographic order,
/// each holding its verdicts as pieces over its contiguous `v` range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefVerdicts {
    /// Outer-prefix length (`depth − 1`).
    nprefix: usize,
    /// Row prefixes, `nprefix` entries per row, same order as `rows`.
    prefixes: Vec<i64>,
    rows: Vec<Row>,
    pieces: Vec<Piece>,
    codes: Vec<u8>,
    resolved: u64,
    total: u64,
    /// Verdict counts over the resolved points.
    counts: Tally,
}

impl RefVerdicts {
    /// A map that resolves nothing.
    fn unresolved(nprefix: usize, total: u64) -> RefVerdicts {
        RefVerdicts {
            nprefix,
            prefixes: Vec::new(),
            rows: Vec::new(),
            pieces: Vec::new(),
            codes: Vec::new(),
            resolved: 0,
            total,
            counts: Tally::default(),
        }
    }

    /// Points with a definite verdict.
    pub fn resolved(&self) -> u64 {
        self.resolved
    }

    /// Points in the reference's RIS.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The reference's cold/replacement/hit totals — exactly what the walk
    /// would tally — when no point of it is unknown.
    pub fn totals(&self) -> Option<Tally> {
        (self.resolved == self.total).then_some(self.counts)
    }

    fn prefix_of(&self, i: usize) -> &[i64] {
        &self.prefixes[i * self.nprefix..(i + 1) * self.nprefix]
    }

    /// Whether row `i` ends strictly before `(pfx, v)` in lex order.
    fn row_before(&self, i: usize, pfx: &[i64], v: i64) -> bool {
        match self.prefix_of(i).cmp(pfx) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.rows[i].hi < v,
        }
    }

    /// Positions a cursor at the first row not ending before `point` —
    /// the right starting cursor for a lex-ordered scan beginning there.
    pub fn cursor_at(&self, point: &[i64]) -> usize {
        if self.rows.is_empty() {
            return 0;
        }
        let (pfx, rest) = point.split_at(self.nprefix);
        let v = rest[0];
        let (mut lo, mut hi) = (0usize, self.rows.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.row_before(mid, pfx, v) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The verdict at `point`, or `None` when the exact walk must decide.
    ///
    /// `cursor` is advanced monotonically; feed points in lexicographic
    /// order (initialising the cursor with [`RefVerdicts::cursor_at`] when
    /// starting mid-stream) for amortised-constant lookups.
    pub fn lookup(&self, point: &[i64], cursor: &mut usize) -> Option<Verdict> {
        if self.rows.is_empty() {
            return None;
        }
        let (pfx, rest) = point.split_at(self.nprefix);
        let v = rest[0];
        while *cursor < self.rows.len() && self.row_before(*cursor, pfx, v) {
            *cursor += 1;
        }
        let i = *cursor;
        if i >= self.rows.len() {
            return None;
        }
        let row = &self.rows[i];
        if row.lo <= v && v <= row.hi && self.prefix_of(i) == pfx {
            decode(self.code_at(i, v))
        } else {
            None
        }
    }

    /// The code at `v` of row `i` (which must cover `v`).
    fn code_at(&self, i: usize, v: i64) -> u8 {
        let first = if i == 0 {
            0
        } else {
            self.rows[i - 1].end as usize
        };
        let pieces = &self.pieces[first..self.rows[i].end as usize];
        let j = pieces.partition_point(|p| p.last < v);
        let start = if j == 0 {
            self.rows[i].lo
        } else {
            pieces[j - 1].last + 1
        };
        let p = pieces[j];
        self.codes[p.pat as usize + ((v - start) as u64 % p.period as u64) as usize]
    }
}

/// The shortest period `p` dividing `block.len()` with
/// `block[j] == block[j − p]` throughout.
fn block_period(block: &[u8]) -> usize {
    let len = block.len();
    (1..len)
        .find(|&p| len.is_multiple_of(p) && block[p..].iter().zip(block).all(|(a, b)| a == b))
        .unwrap_or(len)
}

/// Static (row-independent) per-vector context.
struct VecStatic<'p> {
    vector: &'p [i64],
    producer_rank: usize,
    paddr: &'p Affine,
    pconstraints: &'p [Constraint],
    pbbox: &'p [(i64, i64)],
    p_empty: bool,
    /// Innermost component of the vector.
    dv: i64,
    /// The interference interval stays inside one row of the innermost
    /// loop and fits the window budget: windows are evaluated exactly.
    window: bool,
    /// A window of this vector holds fewer than `k` accesses even with
    /// every guard true, so it can never evict: every point it decides is
    /// a hit, whatever the strides.
    window_hits: bool,
}

/// Per-`(row, vector)` applicability: the exact set of `v` where the cold
/// equations leave this vector applicable, as an interval minus holes.
struct VecRow {
    excluded: bool,
    alo: i64,
    ahi: i64,
    /// `v` values excluded by `≠` constraints (rare; usually empty).
    ne: Vec<i64>,
    /// Producer byte address at consumer index `v`: `pbase + pstride·v`.
    pbase: i64,
    pstride: i64,
    /// Lazily computed row-uniform contention-bound result.
    bound: Option<bool>,
    /// A point of the row has counted along the vector.
    counted: bool,
    /// The slot of [`RowEngine::windows`] that stores the vector's window
    /// rows for this row.
    slot: Option<usize>,
}

const EXCLUDED: VecRow = VecRow {
    excluded: true,
    alo: 0,
    ahi: -1,
    ne: Vec::new(),
    pbase: 0,
    pstride: 0,
    bound: None,
    counted: false,
    slot: None,
};

/// One statement of the innermost loop node, pre-resolved for window
/// evaluation.
struct RowStmt<'p> {
    guard: &'p [Constraint],
    /// `(lex_rank, address plan)` per reference, in statement order.
    refs: Vec<(usize, &'p Affine)>,
}

/// Builds the static per-vector contexts of one consumer, in the
/// classifier's plan order. `leaf_ranks` are the lexical ranks of the
/// innermost loop node's references.
fn vec_statics<'p>(
    program: &'p Program,
    plan: &ConsumerPlan<'p>,
    n: usize,
    leaf_ranks: &[usize],
    k: usize,
) -> Vec<VecStatic<'p>> {
    let row_accesses = leaf_ranks.len().max(1);
    plan.vectors
        .iter()
        .map(|vp| {
            let pspace = program.ris(vp.producer);
            let dv = vp.vector[2 * n - 1];
            let intra_row = vp.vector[..2 * n - 1].iter().all(|&x| x == 0);
            let window = intra_row
                && dv >= 0
                && (dv as usize + 1).saturating_mul(row_accesses) <= WINDOW_BUDGET;
            // Accesses the window visits: the boundary iterations keep only
            // references after the producer / before the consumer.
            let (after_p, before_c) = (
                leaf_ranks.iter().filter(|&&r| r > vp.producer_rank),
                leaf_ranks.iter().filter(|&&r| r < plan.consumer_rank),
            );
            let contenders = if dv == 0 {
                after_p.filter(|&&r| r < plan.consumer_rank).count()
            } else {
                after_p.count() + before_c.count() + (dv.max(1) as usize - 1) * leaf_ranks.len()
            };
            VecStatic {
                vector: vp.vector,
                producer_rank: vp.producer_rank,
                paddr: program.addr_plan(vp.producer),
                pconstraints: pspace.system().constraints(),
                pbbox: vp.producer_bbox,
                p_empty: pspace.known_empty(),
                dv,
                window,
                window_hits: window && contenders < k,
            }
        })
        .collect()
}

/// Resolves the statements of the innermost loop node containing `label`,
/// for exact window evaluation.
fn leaf_row_stmts<'p>(program: &'p Program, label: &[i64]) -> Vec<RowStmt<'p>> {
    let leaf = *program
        .loop_path(label)
        .last()
        .expect("statement at depth >= 1 has a loop path");
    leaf.stmts
        .iter()
        .map(|&sid| {
            let s = program.statement(sid);
            RowStmt {
                guard: &s.guard,
                refs: s
                    .refs
                    .iter()
                    .map(|&rid| (program.reference(rid).lex_rank, program.addr_plan(rid)))
                    .collect(),
            }
        })
        .collect()
}

/// Reduces every producer-side screen to the 1-D domain of the row.
///
/// The reduction mirrors the classifier exactly: the bounding-box
/// pre-screen, then each RIS constraint evaluated with all variables but
/// the innermost fixed. `u = v − dv` is the producer's innermost index.
fn build_vec_row(
    vs: &VecStatic<'_>,
    prefix: &[i64],
    lo: i64,
    hi: i64,
    pprefix: &mut [i64],
) -> VecRow {
    if vs.p_empty {
        return EXCLUDED;
    }
    let nprefix = prefix.len();
    for (d, p) in pprefix.iter_mut().enumerate() {
        *p = prefix[d] - vs.vector[2 * d + 1];
    }
    let (mut ulo, mut uhi) = (lo - vs.dv, hi - vs.dv);
    for (d, &(blo, bhi)) in vs.pbbox.iter().enumerate() {
        if d < nprefix {
            if pprefix[d] < blo || pprefix[d] > bhi {
                return EXCLUDED;
            }
        } else {
            ulo = ulo.max(blo);
            uhi = uhi.min(bhi);
        }
    }
    let mut ne: Vec<i64> = Vec::new();
    let Some((ulo, uhi)) = reduce_guard(vs.pconstraints, pprefix, ulo, uhi, &mut ne) else {
        return EXCLUDED;
    };
    for h in &mut ne {
        *h += vs.dv;
    }
    let mut pbase = vs.paddr.constant_term();
    for (d, &pp) in pprefix.iter().enumerate().take(nprefix) {
        pbase += vs.paddr.coeff(d) * pp;
    }
    let pstride = vs.paddr.coeff(nprefix);
    pbase -= pstride * vs.dv;
    VecRow {
        excluded: false,
        alo: ulo + vs.dv,
        ahi: uhi + vs.dv,
        ne,
        pbase,
        pstride,
        bound: None,
        counted: false,
        slot: None,
    }
}

/// Evaluates one intra-row interference window exactly by enumerating it
/// backward from `v` (iterations descending, statements and references in
/// reverse, guards honoured, boundary ranks filtered) until the first
/// re-touch of the reused line or the `k`-th distinct contender: the code
/// the classifier's count returns.
#[allow(clippy::too_many_arguments)]
fn window_eval(
    config: &CacheConfig,
    row_stmts: &[RowStmt<'_>],
    idx: &mut [i64],
    v: i64,
    dv: i64,
    reused_line: i64,
    producer_rank: usize,
    consumer_rank: usize,
    k: usize,
    lines: &mut Vec<i64>,
) -> u8 {
    let n = idx.len();
    let target_set = config.set_of_line(reused_line);
    lines.clear();
    let mut w = v;
    loop {
        idx[n - 1] = w;
        let at_start = w == v - dv;
        let at_end = w == v;
        for s in row_stmts.iter().rev() {
            if !s.guard.iter().all(|c| c.holds(idx)) {
                continue;
            }
            for &(rank, plan) in s.refs.iter().rev() {
                if at_start && rank <= producer_rank {
                    continue;
                }
                if at_end && rank >= consumer_rank {
                    continue;
                }
                let line = config.mem_line(plan.eval(idx));
                if line == reused_line {
                    // Re-touch with fewer than k distinct contentions
                    // since: the line survived.
                    return HIT;
                }
                if config.set_of_line(line) != target_set {
                    continue;
                }
                if !lines.contains(&line) {
                    lines.push(line);
                    if lines.len() >= k {
                        return REPL;
                    }
                }
            }
        }
        if at_start {
            break;
        }
        w -= 1;
    }
    HIT
}

/// The row engine of one reference: static context, per-row scratch and
/// the verdict map under construction.
struct RowEngine<'a, 'p> {
    cl: &'a Classifier<'p>,
    config: CacheConfig,
    statics: Vec<VecStatic<'p>>,
    row_stmts: Vec<RowStmt<'p>>,
    consumer_rank: usize,
    label: &'p [i64],
    caddr: &'p Affine,
    cstride: i64,
    lbytes: i64,
    /// The row period `Q`: every address of the row shifts by a multiple
    /// of `L` when `v` grows by it.
    period: i64,
    k: usize,
    /// Every leaf reference shares the consumer's innermost stride, so
    /// windows repeat with the period.
    leaf_uniform: bool,
    n: usize,
    nprefix: usize,
    cancel: &'a CancelToken,
    /// Per level, the indices of the `≠` constraints whose highest variable
    /// it is (intervals do not see them).
    ne_by_level: Vec<Vec<usize>>,
    // Scratch, reused across rows.
    vrows: Vec<VecRow>,
    pprefix: Vec<i64>,
    /// The row's prefix followed by the window's innermost index.
    idx: Vec<i64>,
    lines: Vec<i64>,
    from_buf: Vec<i64>,
    to_buf: Vec<i64>,
    /// The counting evaluator's buffers.
    scratch: EvalScratch,
    /// Stored window rows, one slot per vector that shares them in the
    /// current row: every point of the row that counts along the vector
    /// reads them. Slots are reused row after row, so storage follows the
    /// vectors one row needs, not every vector of the reference.
    windows: Vec<WindowRows>,
    /// Slots taken in the current row.
    slots_used: usize,
    /// Leaf-guard change points of the current row, sorted; built by the
    /// first window that needs them.
    guard_cuts: Vec<i64>,
    guard_cuts_ready: bool,
    /// Codes of the block being evaluated.
    block: Vec<u8>,
    // Current row.
    cbase: i64,
    row_lo: i64,
    row_hi: i64,
    evals: u64,
    /// Points covered by the rows so far, for the partition check.
    covered: u64,
    out: RefVerdicts,
}

impl RowEngine<'_, '_> {
    fn bump_eval(&mut self) -> Result<(), Cancelled> {
        self.evals += 1;
        if self.evals.is_multiple_of(CANCEL_GRAIN) && self.cancel.is_cancelled() {
            return Err(Cancelled { points_done: 0 });
        }
        Ok(())
    }

    /// Recursive prefix descent, mirroring `cme_poly::count`'s walk: exact
    /// per-level intervals plus `≠` checks, with the innermost level
    /// decided per row instead of per point.
    fn enumerate(&mut self, space: &Space, prefix: &mut Vec<i64>) -> Result<(), Cancelled> {
        let d = prefix.len();
        if d == self.nprefix {
            return self.rows_at_prefix(space, prefix);
        }
        let Some((lo, hi)) = space.system().interval(prefix, d) else {
            return Ok(());
        };
        for v in lo..=hi {
            prefix.push(v);
            let ok = self.ne_by_level[d].iter().all(|&ci| {
                space.system().constraints()[ci]
                    .expr
                    .partial_eval_prefix(prefix)
                    .constant_term()
                    != 0
            });
            if ok {
                self.enumerate(space, prefix)?;
            }
            prefix.pop();
        }
        Ok(())
    }

    /// Splits the innermost interval at one prefix into maximal contiguous
    /// rows (`≠` holes cut) and decides each.
    fn rows_at_prefix(&mut self, space: &Space, prefix: &[i64]) -> Result<(), Cancelled> {
        let d = self.nprefix;
        let Some((lo, hi)) = space.system().interval(prefix, d) else {
            return Ok(());
        };
        let mut holes: Vec<i64> = Vec::new();
        for &ci in &self.ne_by_level[d] {
            let p = space.system().constraints()[ci]
                .expr
                .partial_eval_prefix(prefix);
            let a = p.coeff(0);
            let rest = p.constant_term();
            if a == 0 {
                if rest == 0 {
                    return Ok(()); // `0 ≠ 0`: no points at this prefix
                }
            } else if rest % a == 0 {
                holes.push(-rest / a);
            }
        }
        holes.sort_unstable();
        holes.dedup();
        let mut start = lo;
        for &h in &holes {
            if h < start || h > hi {
                continue;
            }
            if h > start {
                self.solve_row(prefix, start, h - 1)?;
            }
            start = h + 1;
        }
        if start <= hi {
            self.solve_row(prefix, start, hi)?;
        }
        Ok(())
    }

    /// Decides one row block by block: `Q` points are evaluated, then their
    /// verdicts extend periodically up to the horizon of the conditions
    /// they consulted, and the result is appended as pieces.
    fn solve_row(&mut self, prefix: &[i64], lo: i64, hi: i64) -> Result<(), Cancelled> {
        self.bump_eval()?;
        self.covered += (hi - lo + 1) as u64;
        let mut cbase = self.caddr.constant_term();
        for (d, &p) in prefix.iter().enumerate() {
            cbase += self.caddr.coeff(d) * p;
        }
        self.cbase = cbase;
        self.row_lo = lo;
        self.row_hi = hi;
        self.idx[..self.nprefix].copy_from_slice(prefix);
        // Vector rows are reduced lazily: most points decide at an early
        // vector, so later vectors' 1-D reductions are usually never built.
        self.vrows.clear();
        self.slots_used = 0;
        self.guard_cuts_ready = false;

        let first = self.out.pieces.len();
        let mut pos = lo;
        while pos <= hi {
            let bend = hi.min(pos + self.period - 1);
            let mut horizon = i64::MAX;
            self.block.clear();
            for v in pos..=bend {
                let (code, h) = self.eval_point(v)?;
                self.block.push(code);
                horizon = horizon.min(h);
            }
            let last = if bend < hi && horizon > bend + 1 {
                hi.min(horizon - 1)
            } else {
                bend
            };
            if !self.push_piece(first, pos, last) {
                // Piece cap: the rest of the row is left to the walk.
                self.out.pieces.push(Piece {
                    last: hi,
                    pat: UNKNOWN as u32,
                    period: 1,
                });
                break;
            }
            pos = last + 1;
        }
        self.out.prefixes.extend_from_slice(prefix);
        self.out.rows.push(Row {
            lo,
            hi,
            end: self.out.pieces.len() as u32,
        });
        self.count_row(first, lo);
        Ok(())
    }

    /// Appends the current block's codes, repeated over `[start, last]`,
    /// to the row whose pieces begin at `first`: extends the previous piece
    /// when it already predicts them, otherwise adds a piece. `false` when
    /// the row is at its piece cap.
    fn push_piece(&mut self, first: usize, start: i64, last: i64) -> bool {
        let p = block_period(&self.block);
        let len = (last - start + 1) as u64;
        let out = &mut self.out;
        if out.pieces.len() > first {
            let prev = out.pieces[out.pieces.len() - 1];
            let prev_start = if out.pieces.len() - 1 > first {
                out.pieces[out.pieces.len() - 2].last + 1
            } else {
                self.row_lo
            };
            // Both sides repeat with the lcm of their periods, so agreement
            // over that many positions is agreement everywhere.
            let lcm = prev.period as u64 / gcd(prev.period as i64, p as i64) as u64 * p as u64;
            let agrees = (0..len.min(lcm)).all(|j| {
                let off = (start - prev_start) as u64 + j;
                out.codes[prev.pat as usize + (off % prev.period as u64) as usize]
                    == self.block[j as usize % p]
            });
            if agrees {
                out.pieces.last_mut().expect("checked non-empty").last = last;
                return true;
            }
        }
        if out.pieces.len() - first >= MAX_ROW_PIECES {
            return false;
        }
        let pat = if p == 1 {
            self.block[0] as u32
        } else {
            let at = out.codes.len() as u32;
            out.codes.extend_from_slice(&self.block[..p]);
            at
        };
        out.pieces.push(Piece {
            last,
            pat,
            period: p as u32,
        });
        true
    }

    /// Adds the verdict counts of the row whose pieces begin at `first`.
    fn count_row(&mut self, first: usize, lo: i64) {
        let out = &mut self.out;
        let mut start = lo;
        for p in &out.pieces[first..] {
            let span = (p.last - start) as u64;
            let period = p.period as u64;
            for j in 0..period.min(span + 1) {
                let members = (span - j) / period + 1;
                match out.codes[p.pat as usize + j as usize] {
                    HIT => out.counts.hits += members,
                    COLD => out.counts.cold += members,
                    REPL => out.counts.replacement += members,
                    _ => continue,
                }
                out.resolved += members;
            }
            start = p.last + 1;
        }
    }

    /// Sorted positions where a leaf guard of the current row changes
    /// truth: truth is constant below and from each of them.
    fn build_guard_cuts(&mut self) {
        self.guard_cuts.clear();
        for s in &self.row_stmts {
            for c in s.guard {
                let a = c.expr.coeff(self.nprefix);
                if a == 0 {
                    continue; // row-uniform truth
                }
                let mut rest = c.expr.constant_term();
                for (d, &p) in self.idx[..self.nprefix].iter().enumerate() {
                    rest += c.expr.coeff(d) * p;
                }
                match c.kind {
                    // True from `t` on.
                    ConstraintKind::Ge if a > 0 => self.guard_cuts.push(div_ceil(-rest, a)),
                    // True up to `t`.
                    ConstraintKind::Ge => self.guard_cuts.push(div_floor(-rest, a) + 1),
                    // Flips at one point, if an integer one exists.
                    ConstraintKind::Eq | ConstraintKind::Ne => {
                        if rest % a == 0 {
                            self.guard_cuts.push(-rest / a);
                            self.guard_cuts.push(-rest / a + 1);
                        }
                    }
                }
            }
        }
        self.guard_cuts.sort_unstable();
        self.guard_cuts.dedup();
        self.guard_cuts_ready = true;
    }

    /// The first position past `v` whose window `[v' − dv, v']` may see a
    /// different guard pattern than `v`'s: `v + 1` when a guard changes
    /// truth inside `v`'s own window.
    fn guard_horizon(&mut self, v: i64, dv: i64) -> i64 {
        if !self.guard_cuts_ready {
            self.build_guard_cuts();
        }
        let i = self.guard_cuts.partition_point(|&c| c <= v - dv);
        match self.guard_cuts.get(i) {
            None => i64::MAX,
            Some(&c) if c <= v => v + 1,
            Some(&c) => c,
        }
    }

    /// First-match vector scan at one point, mirroring the classifier: the
    /// first applicable same-line vector decides, via the row-uniform bound
    /// or the exact window; no vector ⇒ cold. Returns the code and the
    /// horizon: the first position past `v` where a condition consulted
    /// here may change, so that every `v + j·Q` before it has the same code.
    fn eval_point(&mut self, v: i64) -> Result<(u8, i64), Cancelled> {
        self.bump_eval()?;
        let caddr = self.cbase + self.cstride * v;
        let line_c = self.config.mem_line(caddr);
        let mut horizon = i64::MAX;
        for vi in 0..self.statics.len() {
            if vi == self.vrows.len() {
                let vr = build_vec_row(
                    &self.statics[vi],
                    &self.idx[..self.nprefix],
                    self.row_lo,
                    self.row_hi,
                    &mut self.pprefix,
                );
                self.vrows.push(vr);
            }
            let vr = &self.vrows[vi];
            if vr.excluded || v > vr.ahi {
                continue;
            }
            if v < vr.alo {
                horizon = horizon.min(vr.alo);
                continue;
            }
            horizon = horizon.min(vr.ahi + 1);
            let mut hole = false;
            for &h in &vr.ne {
                if h == v {
                    hole = true;
                    horizon = horizon.min(v + 1);
                } else if h > v {
                    horizon = horizon.min(h);
                }
            }
            if hole {
                continue;
            }
            let paddr = vr.pbase + vr.pstride * v;
            if vr.pstride != self.cstride {
                // Cross-stride producer: while the address gap clears a
                // full line the vector cannot match; inside that band the
                // match is not residue-periodic.
                let gap = paddr - caddr;
                let slope = vr.pstride - self.cstride;
                if gap >= self.lbytes {
                    if slope < 0 {
                        horizon = horizon.min(v + div_ceil(gap - self.lbytes + 1, -slope));
                    }
                    continue;
                }
                if gap <= -self.lbytes {
                    if slope > 0 {
                        horizon = horizon.min(v + div_ceil(1 - self.lbytes - gap, slope));
                    }
                    continue;
                }
                horizon = horizon.min(v + 1);
            }
            if self.config.mem_line(paddr) != line_c {
                continue;
            }
            // This vector decides. Try the static window size and the O(1)
            // row-uniform bound first, then the exact window for intra-row
            // vectors.
            if self.statics[vi].window_hits {
                return Ok((HIT, horizon));
            }
            if vr.bound.is_none() {
                let vs = &self.statics[vi];
                for d in 0..self.n {
                    self.to_buf[2 * d] = self.label[d];
                    self.to_buf[2 * d + 1] = if d < self.nprefix {
                        self.idx[d]
                    } else {
                        self.row_hi
                    };
                }
                for (pos, f) in self.from_buf.iter_mut().enumerate() {
                    *f = self.to_buf[pos] - vs.vector[pos];
                }
                self.from_buf[2 * self.n - 1] = self.row_lo - vs.dv;
                let b = self.cl.row_contention_hit(&self.from_buf, &self.to_buf);
                self.vrows[vi].bound = Some(b);
            }
            if self.vrows[vi].bound == Some(true) {
                return Ok((HIT, horizon));
            }
            let (window, dv, producer_rank) = {
                let vs = &self.statics[vi];
                (vs.window, vs.dv, vs.producer_rank)
            };
            if !window {
                // A window that crosses rows, or outgrows the budget: count
                // it, for this point only.
                let evicted = self.count_point(vi, v, line_c);
                return Ok((if evicted { REPL } else { HIT }, v + 1));
            }
            horizon = horizon.min(if self.leaf_uniform {
                self.guard_horizon(v, dv)
            } else {
                v + 1
            });
            let code = window_eval(
                &self.config,
                &self.row_stmts,
                &mut self.idx,
                v,
                dv,
                line_c,
                producer_rank,
                self.consumer_rank,
                self.k,
                &mut self.lines,
            );
            return Ok((code, horizon));
        }
        Ok((COLD, horizon))
    }

    /// The counting evaluator's verdict for point `v` along vector `vi`:
    /// whether its window evicts the reused line `line_c`. The row's first
    /// point to count along the vector walks the window's rows; later
    /// points share them, stored as far as some point has needed them.
    fn count_point(&mut self, vi: usize, v: i64, line_c: i64) -> bool {
        for d in 0..self.n {
            self.to_buf[2 * d] = self.label[d];
            self.to_buf[2 * d + 1] = if d < self.nprefix { self.idx[d] } else { v };
        }
        let vs = &self.statics[vi];
        for (pos, f) in self.from_buf.iter_mut().enumerate() {
            *f = self.to_buf[pos] - vs.vector[pos];
        }
        let (dv, producer_rank) = (vs.dv, vs.producer_rank);
        if !self.vrows[vi].counted {
            self.vrows[vi].counted = true;
            return self.cl.count_evicted(
                &self.from_buf,
                &self.to_buf,
                line_c,
                producer_rank,
                self.consumer_rank,
                &mut self.scratch,
            );
        }
        let (slot, mut max_rows) = match self.vrows[vi].slot {
            Some(slot) => (slot, self.windows[slot].len()),
            None => {
                let slot = self.slots_used;
                self.slots_used += 1;
                if self.windows.len() == slot {
                    self.windows.push(WindowRows::default());
                }
                self.vrows[vi].slot = Some(slot);
                (slot, 0)
            }
        };
        loop {
            if max_rows > 0 {
                let counted = self.cl.count_evicted_in(
                    &self.windows[slot],
                    v - dv,
                    v,
                    line_c,
                    producer_rank,
                    self.consumer_rank,
                    &mut self.scratch,
                );
                if let Some(evicted) = counted {
                    return evicted;
                }
            }
            // The stored rows end before the verdict: store twice as many.
            max_rows = (2 * max_rows).max(4);
            self.cl.window_rows(
                &self.from_buf,
                &self.to_buf,
                max_rows,
                &mut self.windows[slot],
                &mut self.scratch,
            );
        }
    }
}

/// Runs the row engine for one reference: enumerates its rows, decides
/// them through the exact 1-D screens, and stores the verdicts as pieces.
/// Checked against `cancel` on entry and every `CANCEL_GRAIN` (4096)
/// evaluations.
pub fn analyze_reference(
    cl: &Classifier<'_>,
    r: RefId,
    cancel: &CancelToken,
) -> Result<RefVerdicts, Cancelled> {
    if cancel.is_cancelled() {
        return Err(Cancelled { points_done: 0 });
    }
    let program = cl.program();
    let config = *cl.config();
    let n = program.depth();
    let ris = program.ris(r);
    let total = ris.count();
    if n == 0 || total == 0 {
        return Ok(RefVerdicts::unresolved(n.saturating_sub(1), total));
    }
    let nprefix = n - 1;
    let plan = cl.plan(r);
    let label = program
        .statement(program.reference(r).stmt)
        .label
        .as_slice();
    let caddr = program.addr_plan(r);
    let cstride = caddr.coeff(nprefix);
    let lbytes = config.line_bytes() as i64;

    // The innermost loop node's statements, for exact window evaluation.
    let row_stmts = leaf_row_stmts(program, label);
    let leaf_ranks: Vec<usize> = row_stmts
        .iter()
        .flat_map(|s| s.refs.iter().map(|&(rank, _)| rank))
        .collect();
    let k = config.assoc() as usize;
    let statics = vec_statics(program, plan, n, &leaf_ranks, k);
    let leaf_strides = row_stmts
        .iter()
        .flat_map(|s| s.refs.iter().map(|&(_, p)| p.coeff(nprefix)));
    let leaf_uniform = leaf_strides.clone().all(|s| s == cstride);
    // One period for the whole row: shifting `v` by it moves the consumer,
    // every leaf reference and every producer by whole lines, so verdict
    // patterns over mixed strides still compress.
    let stride_gcd = leaf_strides
        .chain(statics.iter().map(|vs| vs.paddr.coeff(nprefix)))
        .fold(gcd(lbytes, cstride), gcd);
    let ne_by_level: Vec<Vec<usize>> = (0..n)
        .map(|d| {
            ris.system()
                .constraints()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.kind == ConstraintKind::Ne && c.expr.highest_var() == Some(d))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    let mut engine = RowEngine {
        cl,
        config,
        statics,
        row_stmts,
        consumer_rank: plan.consumer_rank,
        label,
        caddr,
        cstride,
        lbytes,
        period: lbytes / stride_gcd,
        k,
        leaf_uniform,
        n,
        nprefix,
        cancel,
        ne_by_level,
        vrows: Vec::new(),
        pprefix: vec![0; nprefix],
        idx: vec![0; n],
        lines: Vec::new(),
        from_buf: vec![0; 2 * n],
        to_buf: vec![0; 2 * n],
        scratch: EvalScratch::default(),
        windows: Vec::new(),
        slots_used: 0,
        guard_cuts: Vec::new(),
        guard_cuts_ready: false,
        block: Vec::new(),
        cbase: 0,
        row_lo: 0,
        row_hi: 0,
        evals: 0,
        covered: 0,
        out: RefVerdicts {
            codes: RUN_PATTERNS.to_vec(),
            ..RefVerdicts::unresolved(nprefix, total)
        },
    };
    let mut prefix = Vec::with_capacity(nprefix);
    engine.enumerate(ris, &mut prefix)?;
    if engine.covered != total {
        // The rows must partition the RIS exactly; if they do not, resolve
        // nothing and let the walk decide every point.
        debug_assert_eq!(engine.covered, total, "row partition mismatch, ref {r}");
        return Ok(RefVerdicts::unresolved(nprefix, total));
    }
    // The map lives as long as the analysis; drop the growth slack.
    let mut out = engine.out;
    out.prefixes.shrink_to_fit();
    out.rows.shrink_to_fit();
    out.pieces.shrink_to_fit();
    out.codes.shrink_to_fit();
    Ok(out)
}

/// The pre-pass for a whole program: one [`RefVerdicts`] per reference.
#[derive(Debug, Clone)]
pub struct Prepass {
    per_ref: Vec<RefVerdicts>,
}

impl Prepass {
    /// Runs [`analyze_reference`] for every reference of the classifier's
    /// program.
    pub fn build(cl: &Classifier<'_>, cancel: &CancelToken) -> Result<Prepass, Cancelled> {
        let nrefs = cl.program().references().len();
        let mut per_ref = Vec::with_capacity(nrefs);
        for r in 0..nrefs {
            per_ref.push(analyze_reference(cl, r, cancel)?);
        }
        Ok(Prepass { per_ref })
    }

    /// The verdict map of one reference.
    pub fn reference(&self, r: RefId) -> &RefVerdicts {
        &self.per_ref[r]
    }

    /// Points resolved across all references.
    pub fn resolved_points(&self) -> u64 {
        self.per_ref.iter().map(RefVerdicts::resolved).sum()
    }

    /// Points in all RISs.
    pub fn total_points(&self) -> u64 {
        self.per_ref.iter().map(RefVerdicts::total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{PointClass, Scratch};
    use cme_ir::{LinExpr, LinRel, Program, ProgramBuilder, RelOp, SNode, SRef};
    use cme_reuse::ReuseAnalysis;

    #[test]
    fn block_period_finds_minimal_divisor_periods() {
        assert_eq!(block_period(&[1, 2, 1, 2, 1, 2]), 2);
        assert_eq!(block_period(&[1, 1, 1, 1]), 1);
        assert_eq!(block_period(&[1, 2, 3, 4]), 4);
        // Only divisors of the length count: a border is not a period.
        assert_eq!(block_period(&[1, 2, 1]), 3);
        assert_eq!(block_period(&[2]), 1);
    }

    fn stream_program(len: i64) -> Program {
        let mut b = ProgramBuilder::new("stream");
        b.array("A", &[len], 8);
        b.push(SNode::loop_(
            "I",
            1,
            len,
            vec![SNode::reads_only(vec![SRef::new(
                "A",
                vec![LinExpr::var("I")],
            )])],
        ));
        b.build().unwrap()
    }

    /// The core contract: wherever the pre-pass resolves a point, its
    /// verdict equals the classifier's, and fully resolved references
    /// report the classifier's totals. Returns `(resolved, total)`.
    fn assert_matches_classifier(program: &Program, cfg: CacheConfig) -> (u64, u64) {
        let reuse = ReuseAnalysis::analyze(program, cfg.line_bytes());
        let cl = Classifier::new(program, &reuse, cfg);
        let mut scratch = Scratch::new();
        let (mut resolved, mut total) = (0u64, 0u64);
        for r in 0..program.references().len() {
            let vd = analyze_reference(&cl, r, &CancelToken::never()).unwrap();
            let mut cursor = 0usize;
            let mut tally = Tally::default();
            program.ris(r).for_each_point(|p| {
                total += 1;
                let class = cl.classify_with_scratch(r, p, &mut scratch);
                tally.bump(class);
                if let Some(v) = vd.lookup(p, &mut cursor) {
                    resolved += 1;
                    let want = match class {
                        PointClass::Hit { .. } => Verdict::Hit,
                        PointClass::Cold => Verdict::Cold,
                        PointClass::ReplacementMiss { .. } => Verdict::Replacement,
                    };
                    assert_eq!(v, want, "ref {r} point {p:?}");
                }
            });
            assert_eq!(vd.total(), program.ris(r).count());
            if let Some(t) = vd.totals() {
                assert_eq!(t, tally, "ref {r} totals");
            }
        }
        (resolved, total)
    }

    #[test]
    fn stream_fully_resolved_and_exact() {
        for len in [17i64, 64, 301] {
            let p = stream_program(len);
            for cfg in [
                CacheConfig::new(1024, 32, 1).unwrap(),
                CacheConfig::new(512, 32, 2).unwrap(),
                CacheConfig::with_geometry(24, 12, 2).unwrap(),
            ] {
                let (resolved, total) = assert_matches_classifier(&p, cfg);
                // A pure sequential scan is entirely decidable within rows.
                assert_eq!(resolved, total, "len {len} cfg {cfg}");
                assert_eq!(total, len as u64);
            }
        }
    }

    /// A long scan row is decided by one block per residue period, not
    /// point by point, and stored in a constant number of pieces.
    #[test]
    fn long_row_is_a_few_pieces() {
        let p = stream_program(64 * 1024);
        let cfg = CacheConfig::new(1024, 32, 1).unwrap();
        let reuse = ReuseAnalysis::analyze(&p, cfg.line_bytes());
        let cl = Classifier::new(&p, &reuse, cfg);
        let vd = analyze_reference(&cl, 0, &CancelToken::never()).unwrap();
        assert_eq!(vd.rows.len(), 1);
        assert!(vd.pieces.len() <= 3, "{} pieces", vd.pieces.len());
        let t = vd.totals().expect("scan fully resolved");
        assert_eq!((t.cold, t.replacement, t.hits), (16 * 1024, 0, 48 * 1024));
    }

    #[test]
    fn guarded_two_deep_nest_matches_classifier() {
        let n = 24i64;
        let mut b = ProgramBuilder::new("guarded");
        b.array("A", &[n, n], 8);
        b.array("B", &[n, n], 8);
        let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
        b.push(SNode::loop_(
            "J",
            2,
            n,
            vec![SNode::loop_(
                "I",
                1,
                n,
                vec![
                    SNode::assign(
                        SRef::new("A", vec![i.clone(), j.clone()]),
                        vec![SRef::new("A", vec![i.clone(), j.offset(-1)])],
                    ),
                    SNode::if_(
                        vec![LinRel::new(i.clone(), RelOp::Le, j.clone())],
                        vec![SNode::reads_only(vec![SRef::new(
                            "B",
                            vec![j.clone(), i.clone()],
                        )])],
                    ),
                ],
            )],
        ));
        let p = b.build().unwrap();
        for cfg in [
            CacheConfig::new(4096, 32, 2).unwrap(),
            CacheConfig::with_geometry(24, 12, 2).unwrap(),
        ] {
            let (resolved, total) = assert_matches_classifier(&p, cfg);
            assert!(resolved > 0, "cfg {cfg:?}: pre-pass resolved nothing");
            assert!(resolved <= total);
        }
    }

    /// Guards that flip inside a row, including a `≠` hole, change what a
    /// window holds: `Y` and `Z` map to `X`'s sets, so `X(I)`'s spatial
    /// reuse survives before `I = 21` and is evicted after it (once both
    /// contenders are present at two ways), except around the hole at 42.
    /// The residue-class extension must stop at every such threshold.
    #[test]
    fn guard_thresholds_and_holes_match_classifier() {
        let n = 64i64;
        let mut b = ProgramBuilder::new("bands");
        b.array("X", &[n], 8);
        b.array("Y", &[n], 8);
        b.array("Z", &[n], 8);
        let i = LinExpr::var("I");
        b.push(SNode::loop_(
            "I",
            1,
            n,
            vec![
                SNode::reads_only(vec![SRef::new("X", vec![i.clone()])]),
                SNode::if_(
                    vec![LinRel::new(i.clone(), RelOp::Ge, LinExpr::constant(21))],
                    vec![SNode::reads_only(vec![SRef::new("Y", vec![i.clone()])])],
                ),
                SNode::if_(
                    vec![LinRel::new(i.clone(), RelOp::Ne, LinExpr::constant(42))],
                    vec![SNode::reads_only(vec![SRef::new("Z", vec![i.clone()])])],
                ),
            ],
        ));
        let p = b.build().unwrap();
        assert_eq!(p.base_address(1) - p.base_address(0), 512);
        for cfg in [
            CacheConfig::new(512, 32, 1).unwrap(),
            CacheConfig::new(1024, 32, 2).unwrap(),
            CacheConfig::with_geometry(32, 8, 2).unwrap(),
        ] {
            let (resolved, total) = assert_matches_classifier(&p, cfg);
            assert_eq!(resolved, total, "cfg {cfg}: a uniform-stride leaf resolves");
        }
    }

    /// A producer's `≠` hole and a transposed (cross-stride) producer each
    /// change the deciding vector at single points inside a row: `X(29)`
    /// loses its same-iteration producer and starts a line, and `A(J,I)`
    /// shares `A(I,J)`'s line only on the diagonal. The extension must
    /// stop at both.
    #[test]
    fn producer_holes_and_cross_strides_match_classifier() {
        let mut b = ProgramBuilder::new("hole");
        b.array("X", &[64], 8);
        let i = LinExpr::var("I");
        b.push(SNode::loop_(
            "I",
            1,
            64,
            vec![
                SNode::if_(
                    vec![LinRel::new(i.clone(), RelOp::Ne, LinExpr::constant(29))],
                    vec![SNode::reads_only(vec![SRef::new("X", vec![i.clone()])])],
                ),
                SNode::reads_only(vec![SRef::new("X", vec![i.clone()])]),
            ],
        ));
        let hole = b.build().unwrap();

        let n = 16i64;
        let mut b = ProgramBuilder::new("transpose");
        b.array("A", &[n, n], 8);
        let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
        b.push(SNode::loop_(
            "J",
            1,
            n,
            vec![SNode::loop_(
                "I",
                1,
                n,
                vec![SNode::assign(
                    SRef::new("A", vec![i.clone(), j.clone()]),
                    vec![SRef::new("A", vec![j.clone(), i.clone()])],
                )],
            )],
        ));
        let transpose = b.build().unwrap();
        for p in [&hole, &transpose] {
            for cfg in [
                CacheConfig::new(512, 32, 1).unwrap(),
                CacheConfig::new(2048, 32, 2).unwrap(),
            ] {
                let (resolved, _) = assert_matches_classifier(p, cfg);
                assert!(resolved > 0, "{} cfg {cfg}", p.name());
            }
        }
    }

    #[test]
    fn cursor_lookup_matches_fresh_binary_search() {
        let p = stream_program(64);
        let cfg = CacheConfig::new(512, 32, 2).unwrap();
        let reuse = ReuseAnalysis::analyze(&p, cfg.line_bytes());
        let cl = Classifier::new(&p, &reuse, cfg);
        let vd = analyze_reference(&cl, 0, &CancelToken::never()).unwrap();
        let mut cursor = 0usize;
        p.ris(0).for_each_point(|pt| {
            let linear = vd.lookup(pt, &mut cursor);
            let mut fresh = vd.cursor_at(pt);
            assert_eq!(linear, vd.lookup(pt, &mut fresh), "point {pt:?}");
        });
    }

    /// A guard that never holds gives an empty RIS, whose totals are zero.
    #[test]
    fn empty_ris_totals_zero() {
        let mut b = ProgramBuilder::new("empty");
        b.array("A", &[8], 8);
        let i = LinExpr::var("I");
        b.push(SNode::loop_(
            "I",
            1,
            8,
            vec![SNode::if_(
                vec![LinRel::new(i.clone(), RelOp::Ge, LinExpr::constant(100))],
                vec![SNode::reads_only(vec![SRef::new("A", vec![i.clone()])])],
            )],
        ));
        let p = b.build().unwrap();
        let cfg = CacheConfig::new(1024, 32, 1).unwrap();
        let reuse = ReuseAnalysis::analyze(&p, cfg.line_bytes());
        let cl = Classifier::new(&p, &reuse, cfg);
        let vd = analyze_reference(&cl, 0, &CancelToken::never()).unwrap();
        assert_eq!(vd.totals(), Some(Tally::default()));
    }

    #[test]
    fn cancelled_token_aborts_prepass() {
        let p = stream_program(64);
        let cfg = CacheConfig::new(1024, 32, 1).unwrap();
        let reuse = ReuseAnalysis::analyze(&p, cfg.line_bytes());
        let cl = Classifier::new(&p, &reuse, cfg);
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(Prepass::build(&cl, &cancel).is_err());
        // A never token always succeeds.
        assert!(Prepass::build(&cl, &CancelToken::never()).is_ok());
    }
}
