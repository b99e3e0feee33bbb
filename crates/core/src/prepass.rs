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
//!   evaluator. Rows are held, their pieces unassembled, while points
//!   wait for a count; the waiting points of one vector, across the
//!   consecutive rows held until `COUNT_BATCH` codes wait, are decided in
//!   one backward walk. Their windows are translates of each other, so
//!   consecutive ones share all but their end rows, and a window that
//!   crosses hundreds of rows is walked once per batch, not once per point
//!   or per row.
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
//! change. The *vector choice* holds up to:
//!
//! * an applicability edge or `≠` hole of a consulted vector;
//! * the point where a cross-stride vector's address gap stops clearing a
//!   line (while `|gap| ≥ L` the vector can never match; inside that band
//!   the line match is not residue-periodic and is decided point by point).
//!
//! Equal-stride line matches and the row-uniform bound repeat with `Q` by
//! construction. Two more obligations hold for what the choice decides:
//!
//! * **Counted points.** A point whose deciding vector needs a count only
//!   needs the vector choice to hold: each later member `v + j·Q` of its
//!   class below the horizon takes the same deciding vector without a
//!   scan, and waits for its own count on its own reused line,
//!   `line(cbase + cstride·(v + j·Q))`.
//! * **Evaluated windows.** A window's guard pattern is constant only while
//!   no leaf guard changes truth inside it, so a guard threshold inside it
//!   is a horizon. And each leaf reference's lines drift against the
//!   reused line by `Δ = (s − s_c)·Q / L` lines per period (0 for the
//!   consumer's stride `s_c`). Below the first step `J` at which an
//!   enumerated access with `Δ ≠ 0` is in the reused line's set (`J = 1`
//!   when one already is), every access without drift keeps its relation
//!   to the reused line and to the others, and every drifting one stays
//!   outside the set, so it neither re-touches nor contends: the verdict
//!   holds up to `v + J·Q`. A leaf whose strides all equal the consumer's
//!   is the case without drift.
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
use crate::classify::{
    mod_inverse, reduce_guard, Classifier, ConsumerPlan, Divisor, EvalScratch, Window,
};
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

/// Evaluations (points, rows and counted window rows) between
/// cancellation checks.
const CANCEL_GRAIN: u64 = 4096;

/// Budget (window accesses) for the exact intra-row window evaluation; a
/// window of `(dv + 1) · row_accesses` beyond this is counted instead,
/// which costs more per call on a short window.
const WINDOW_BUDGET: usize = 1024;

/// Pieces stored per row; a row needing more leaves its remainder unknown.
const MAX_ROW_PIECES: usize = 48;

/// Codes the held rows hold back while some of them wait for a count, and
/// the most codes one block extends over when its counted points' class
/// members wait too: bounds the pending state, and the points decided past
/// a piece cap.
const COUNT_BATCH: usize = 256;

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
    /// Points decided by counting a window that leaves the row or the
    /// window budget, and the rows those counts walked.
    counted: u64,
    rows_walked: u64,
    /// Points whose vector scan ran: one per residue class and horizon.
    evaluated: u64,
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
            counted: 0,
            rows_walked: 0,
            evaluated: 0,
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

    /// Points whose window was counted across rows (or past the window
    /// budget) rather than decided within the row.
    pub fn counted_points(&self) -> u64 {
        self.counted
    }

    /// Rows the counting walks visited: a row shared by the points of one
    /// batch counts once.
    pub fn rows_walked(&self) -> u64 {
        self.rows_walked
    }

    /// Points whose vector scan ran; every other point took the verdict,
    /// or the deciding vector, of the member of its residue class that
    /// was evaluated.
    pub fn evaluated_points(&self) -> u64 {
        self.evaluated
    }

    /// Appends `block`, repeated over `[start, last]`, to the row whose
    /// pieces begin at `first` and whose `v` starts at `row_lo`: extends
    /// the previous piece when it already predicts the block, otherwise
    /// adds a piece. `false` when the row is at its piece cap.
    fn push_piece(
        &mut self,
        first: usize,
        row_lo: i64,
        block: &[u8],
        start: i64,
        last: i64,
    ) -> bool {
        let p = block_period(block);
        let len = (last - start + 1) as u64;
        if self.pieces.len() > first {
            let prev = self.pieces[self.pieces.len() - 1];
            let prev_start = if self.pieces.len() - 1 > first {
                self.pieces[self.pieces.len() - 2].last + 1
            } else {
                row_lo
            };
            // Both sides repeat with the lcm of their periods, so agreement
            // over that many positions is agreement everywhere.
            let lcm = prev.period as u64 / gcd(prev.period as i64, p as i64) as u64 * p as u64;
            let agrees = (0..len.min(lcm)).all(|j| {
                let off = (start - prev_start) as u64 + j;
                self.codes[prev.pat as usize + (off % prev.period as u64) as usize]
                    == block[j as usize % p]
            });
            if agrees {
                self.pieces.last_mut().expect("checked non-empty").last = last;
                return true;
            }
        }
        if self.pieces.len() - first >= MAX_ROW_PIECES {
            return false;
        }
        let pat = if p == 1 {
            block[0] as u32
        } else {
            let at = self.codes.len() as u32;
            self.codes.extend_from_slice(&block[..p]);
            at
        };
        self.pieces.push(Piece {
            last,
            pat,
            period: p as u32,
        });
        true
    }

    /// Adds the verdict counts of the row whose pieces begin at `first`
    /// and run to the end, and whose `v` starts at `lo`.
    fn count_row(&mut self, first: usize, lo: i64) {
        let mut start = lo;
        for p in &self.pieces[first..] {
            let span = (p.last - start) as u64;
            let period = p.period as u64;
            for j in 0..period.min(span + 1) {
                let members = (span - j) / period + 1;
                match self.codes[p.pat as usize + j as usize] {
                    HIT => self.counts.hits += members,
                    COLD => self.counts.cold += members,
                    REPL => self.counts.replacement += members,
                    _ => continue,
                }
                self.resolved += members;
            }
            start = p.last + 1;
        }
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
}

const EXCLUDED: VecRow = VecRow {
    excluded: true,
    alo: 0,
    ahi: -1,
    ne: Vec::new(),
    pbase: 0,
    pstride: 0,
    bound: None,
};

/// One statement of the innermost loop node, pre-resolved for window
/// evaluation.
struct RowStmt<'p> {
    guard: &'p [Constraint],
    /// Its references, in statement order.
    refs: Vec<LeafRef<'p>>,
}

/// One reference of the innermost loop node.
struct LeafRef<'p> {
    lex_rank: usize,
    plan: &'p Affine,
    drift: Drift,
}

/// How far a leaf reference's lines move against the consumer's when `v`
/// grows by the row period `Q`: `delta = (s − s_c)·Q / L` lines, 0 when it
/// shares the consumer's innermost stride. An access on line `l` that
/// drifts enters the set of the reused line `R` at the steps `j` solving
/// `(l − R) + delta·j ≡ 0 (mod S)`; `g`, `m` and `inv` solve that
/// congruence as the classifier's `RefCount` solves its own.
#[derive(Debug, Clone, Copy)]
struct Drift {
    delta: i64,
    /// `gcd(delta mod S, S)`.
    g: Divisor,
    /// `S / g`.
    m: Divisor,
    /// `(delta mod S / g)⁻¹ mod m`.
    inv: i64,
}

impl Drift {
    fn new(stride: i64, cstride: i64, period: i64, config: &CacheConfig) -> Drift {
        let nsets = config.num_sets() as i64;
        let delta = (stride - cstride) * period / config.line_bytes() as i64;
        let g = gcd(delta.rem_euclid(nsets), nsets);
        let m = nsets / g;
        Drift {
            delta,
            g: Divisor::new(g),
            m: Divisor::new(m),
            inv: mod_inverse(delta.rem_euclid(nsets) / g, m),
        }
    }

    /// The first `j ≥ 1` at which an access `gap` sets behind the reused
    /// line's set (`gap = (R − l) mod S`) is in that set: 1 when it already
    /// is, `i64::MAX` when it never enters.
    fn entering_step(&self, gap: i64) -> i64 {
        if gap == 0 {
            1
        } else if self.g.rem(gap) != 0 {
            i64::MAX
        } else {
            // Nonzero, as `gap` is: `j ≡ 0 (mod m)` would need `S | gap`.
            self.m.rem(self.g.floor(gap) * self.inv)
        }
    }
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
/// for exact window evaluation, and the row period `Q = L / gcd(L, s…)`
/// over the consumer's, the leaf references' and the producers' innermost
/// strides `s`: shifting `v` by it moves each of them by whole lines, so
/// verdict patterns over mixed strides still compress. Each leaf reference
/// carries its drift against the consumer over one period.
fn leaf_row_stmts<'p>(
    program: &'p Program,
    label: &[i64],
    plan: &ConsumerPlan<'p>,
    cstride: i64,
    config: &CacheConfig,
) -> (Vec<RowStmt<'p>>, i64) {
    let inner = label.len() - 1;
    let leaf = *program
        .loop_path(label)
        .last()
        .expect("statement at depth >= 1 has a loop path");
    let lbytes = config.line_bytes() as i64;
    let stride_gcd = leaf
        .stmts
        .iter()
        .flat_map(|&sid| &program.statement(sid).refs)
        .chain(plan.vectors.iter().map(|vp| &vp.producer))
        .map(|&r| program.addr_plan(r).coeff(inner))
        .fold(gcd(lbytes, cstride), gcd);
    let period = lbytes / stride_gcd;
    let stmts = leaf
        .stmts
        .iter()
        .map(|&sid| {
            let s = program.statement(sid);
            RowStmt {
                guard: &s.guard,
                refs: s
                    .refs
                    .iter()
                    .map(|&rid| {
                        let plan = program.addr_plan(rid);
                        LeafRef {
                            lex_rank: program.reference(rid).lex_rank,
                            plan,
                            drift: Drift::new(plan.coeff(inner), cstride, period, config),
                        }
                    })
                    .collect(),
            }
        })
        .collect();
    (stmts, period)
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
    }
}

/// Evaluates one intra-row interference window exactly by enumerating it
/// backward from `v` (iterations descending, statements and references in
/// reverse, guards honoured, boundary ranks filtered) until the first
/// re-touch of the reused line or the `k`-th distinct contender: the code
/// the classifier's count returns.
///
/// Also returns how many periods the code holds for: the first `j ≥ 1`,
/// below `steps`, at which an enumerated access that drifts against the
/// consumer ([`Drift`]) is in the reused line's set, or `steps` when none
/// is before it. Up to there, the class members `v + j·Q` see the same
/// window (given the same guard pattern): each access that does not drift
/// keeps its line's offset from the reused line, and each that does stays
/// outside its set, so it neither re-touches it nor contends.
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
    mut steps: i64,
) -> (u8, i64) {
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
            for r in s.refs.iter().rev() {
                if at_start && r.lex_rank <= producer_rank {
                    continue;
                }
                if at_end && r.lex_rank >= consumer_rank {
                    continue;
                }
                let line = config.mem_line(r.plan.eval(idx));
                if r.drift.delta != 0 && steps > 1 {
                    let gap = config.set_of_line(reused_line - line);
                    steps = steps.min(r.drift.entering_step(gap));
                }
                if line == reused_line {
                    // Re-touch with fewer than k distinct contentions
                    // since: the line survived.
                    return (HIT, steps);
                }
                if config.set_of_line(line) != target_set {
                    continue;
                }
                if !lines.contains(&line) {
                    lines.push(line);
                    if lines.len() >= k {
                        return (REPL, steps);
                    }
                }
            }
        }
        if at_start {
            break;
        }
        w -= 1;
    }
    (HIT, steps)
}

/// A point whose deciding vector needs a count: decided with the other
/// pending points of its vector, across the held rows, at the next flush.
#[derive(Clone, Copy)]
struct Pending {
    /// Index of the deciding vector.
    vi: u32,
    /// Its row, an index into [`RowEngine::held`].
    row: u32,
    /// Where its code goes in [`RowEngine::row_codes`].
    slot: u32,
    v: i64,
    reused_line: i64,
}

/// An evaluated block of a held row, waiting for its counted points: its
/// `len` codes, next in [`RowEngine::row_codes`], repeat over
/// `[start, last]`.
struct Block {
    start: i64,
    last: i64,
    len: usize,
}

/// A row whose blocks are not yet all assembled into pieces.
struct Held {
    lo: i64,
    hi: i64,
    /// End (exclusive) of its blocks in [`RowEngine::blocks`]; they start
    /// where the previous held row's end.
    blocks: usize,
    /// Every block of the row is evaluated: it is complete once they are
    /// assembled.
    done: bool,
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
    /// Each pending point's window, its `to` then its `from` (interleaved,
    /// `2n` entries each).
    ends: Vec<i64>,
    /// Leaf-guard change points of the current row, sorted; built by the
    /// first window that needs them.
    guard_cuts: Vec<i64>,
    guard_cuts_ready: bool,
    /// The rows evaluated but not yet assembled, in row order (the last
    /// may be the row being solved), their prefixes, their evaluated
    /// blocks, the blocks' codes, and the points among them still to count.
    held: Vec<Held>,
    held_prefixes: Vec<i64>,
    blocks: Vec<Block>,
    row_codes: Vec<u8>,
    pending: Vec<Pending>,
    /// The verdicts of one vector's batch of windows.
    evicted: Vec<bool>,
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
    /// Adds `n` evaluations, checking the token each time the count
    /// crosses a multiple of `CANCEL_GRAIN`.
    fn tick(&mut self, n: u64) -> Result<(), Cancelled> {
        let before = self.evals;
        self.evals += n;
        if before / CANCEL_GRAIN != self.evals / CANCEL_GRAIN && self.cancel.is_cancelled() {
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
    /// they consulted. A member of a counted point's class below the
    /// horizon takes the same deciding vector and waits for its own count,
    /// so a block with counted points extends as explicit `Q`-blocks, at
    /// most `COUNT_BATCH` codes of them, each starting where the block
    /// would have been evaluated: the pieces are those of evaluating every
    /// block. The row is held until its blocks are assembled: points that
    /// need a count wait, with those of the rows held before it, until
    /// `COUNT_BATCH` codes are held or nothing waits.
    fn solve_row(&mut self, prefix: &[i64], lo: i64, hi: i64) -> Result<(), Cancelled> {
        self.tick(1)?;
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
        self.guard_cuts_ready = false;
        self.held_prefixes.extend_from_slice(prefix);
        self.held.push(Held {
            lo,
            hi,
            blocks: self.blocks.len(),
            done: false,
        });

        let q = self.period;
        let mut pos = lo;
        while pos <= hi {
            let bend = hi.min(pos + q - 1);
            let (codes_at, waiting) = (self.row_codes.len(), self.pending.len());
            let mut horizon = i64::MAX;
            for v in pos..=bend {
                let (code, h) = self.eval_point(v)?;
                self.row_codes.push(code);
                horizon = horizon.min(h);
            }
            let len = (bend - pos + 1) as usize;
            if self.pending.len() == waiting {
                let last = if bend < hi && horizon > bend + 1 {
                    hi.min(horizon - 1)
                } else {
                    bend
                };
                self.blocks.push(Block {
                    start: pos,
                    last,
                    len,
                });
                pos = last + 1;
            } else {
                // Each class member below the horizon takes the block's code
                // or waits for its own count on its own line: the block
                // repeats as the `Q`-blocks evaluating the members would
                // give, over at most `COUNT_BATCH` codes.
                let heads = waiting..self.pending.len();
                let reps =
                    (horizon.saturating_sub(pos) / q).clamp(1, (COUNT_BATCH as i64 / q).max(1));
                for t in 0..reps {
                    let start = pos + t * q;
                    if start > hi {
                        break;
                    }
                    let len = len.min((hi - start + 1) as usize);
                    if t > 0 {
                        let slots = self.row_codes.len();
                        self.row_codes.extend_from_within(codes_at..codes_at + len);
                        for i in heads.clone() {
                            let head = self.pending[i];
                            let off = head.v - pos;
                            if off >= len as i64 {
                                break;
                            }
                            let v = head.v + t * q;
                            self.pending.push(Pending {
                                slot: (slots + off as usize) as u32,
                                v,
                                reused_line: self.config.mem_line(self.cbase + self.cstride * v),
                                ..head
                            });
                        }
                    }
                    self.blocks.push(Block {
                        start,
                        last: start + len as i64 - 1,
                        len,
                    });
                }
                pos = self.blocks.last().expect("just pushed").last + 1;
            }
            let row = self.held.last_mut().expect("the row is held");
            row.blocks = self.blocks.len();
            row.done = pos > hi;
            let flush = self.pending.is_empty() || self.row_codes.len() >= COUNT_BATCH;
            if flush && !self.flush()? {
                // Piece cap: the rest of the row is left to the walk.
                break;
            }
        }
        Ok(())
    }

    /// Counts the pending points, then assembles the held rows in row
    /// order: each appends its blocks as pieces and, once complete, its
    /// prefix, its `Row` record and its counts. A row at its piece cap
    /// drops the blocks from there on and leaves the rest of it unknown.
    /// `false` when that befell the row still being solved.
    fn flush(&mut self) -> Result<bool, Cancelled> {
        self.count_pending()?;
        let mut held = std::mem::take(&mut self.held);
        let (mut block, mut at) = (0, 0);
        let mut solving_fits = true;
        for (i, h) in held.iter().enumerate() {
            let out = &mut self.out;
            let first = out.rows.last().map_or(0, |r| r.end as usize);
            let mut fits = true;
            for b in &self.blocks[block..h.blocks] {
                let codes = &self.row_codes[at..at + b.len];
                at += b.len;
                fits = fits && out.push_piece(first, h.lo, codes, b.start, b.last);
            }
            block = h.blocks;
            if !fits {
                out.pieces.push(Piece {
                    last: h.hi,
                    pat: UNKNOWN as u32,
                    period: 1,
                });
                solving_fits &= h.done;
            }
            if h.done || !fits {
                let nprefix = self.nprefix;
                out.prefixes
                    .extend_from_slice(&self.held_prefixes[i * nprefix..(i + 1) * nprefix]);
                out.rows.push(Row {
                    lo: h.lo,
                    hi: h.hi,
                    end: out.pieces.len() as u32,
                });
                out.count_row(first, h.lo);
            }
        }
        // The row being solved, if it goes on, stays held with no blocks.
        let going_on = held.pop().filter(|h| !h.done && solving_fits);
        held.clear();
        let assembled = self.held_prefixes.len() - going_on.as_ref().map_or(0, |_| self.nprefix);
        self.held_prefixes.drain(..assembled);
        held.extend(going_on.map(|h| Held { blocks: 0, ..h }));
        self.held = held;
        self.blocks.clear();
        self.row_codes.clear();
        Ok(solving_fits)
    }

    /// Decides every pending point, one batch per deciding vector: the
    /// windows of one vector are translates of each other, so consecutive
    /// ones share all but a few rows, and one walk counts them all.
    fn count_pending(&mut self) -> Result<(), Cancelled> {
        let mut pending = std::mem::take(&mut self.pending);
        // Stable, so each vector's points stay in row order, as the batch
        // wants its windows.
        pending.sort_by_key(|p| p.vi);
        let width = 2 * self.n;
        let mut ends = std::mem::take(&mut self.ends);
        ends.clear();
        for p in &pending {
            let vector = self.statics[p.vi as usize].vector;
            let row = p.row as usize * self.nprefix;
            let prefix = &self.held_prefixes[row..row + self.nprefix];
            let to = ends.len();
            for (&l, &i) in self.label.iter().zip(prefix.iter().chain([&p.v])) {
                ends.extend([l, i]);
            }
            for (pos, &x) in vector.iter().enumerate() {
                ends.push(ends[to + pos] - x);
            }
        }
        let windows: Vec<Window<'_>> = ends
            .chunks_exact(2 * width)
            .zip(&pending)
            .map(|(e, p)| Window {
                to: &e[..width],
                from: &e[width..],
                line: p.reused_line,
            })
            .collect();
        let mut at = 0;
        for group in pending.chunk_by(|a, b| a.vi == b.vi) {
            let batch = &windows[at..at + group.len()];
            at += group.len();
            self.evicted.resize(group.len(), false);
            let rows = self.cl.count_batch(
                batch,
                self.statics[group[0].vi as usize].producer_rank,
                self.consumer_rank,
                &mut self.scratch,
                &mut self.evicted,
            );
            for (p, &evicted) in group.iter().zip(&self.evicted) {
                self.row_codes[p.slot as usize] = if evicted { REPL } else { HIT };
            }
            self.out.counted += group.len() as u64;
            self.out.rows_walked += rows;
            self.tick(rows)?;
        }
        drop(windows);
        self.ends = ends;
        pending.clear();
        self.pending = pending;
        Ok(())
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
    /// or the exact window, or waits for a count; no vector ⇒ cold. Returns
    /// the code and the horizon: the first position past `v` where a
    /// condition consulted here may change, so that every `v + j·Q` before
    /// it has the same code, or, for a counted point, the same deciding
    /// vector.
    fn eval_point(&mut self, v: i64) -> Result<(u8, i64), Cancelled> {
        self.tick(1)?;
        self.out.evaluated += 1;
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
                // it with the held points along the vector. Its code is the
                // next one of the row.
                self.pending.push(Pending {
                    vi: vi as u32,
                    row: (self.held.len() - 1) as u32,
                    slot: self.row_codes.len() as u32,
                    v,
                    reused_line: line_c,
                });
                return Ok((UNKNOWN, horizon));
            }
            horizon = horizon.min(self.guard_horizon(v, dv));
            // The class members below the horizon, in periods.
            let steps = div_ceil(horizon.saturating_sub(v), self.period);
            let (code, drift) = window_eval(
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
                steps,
            );
            if drift < steps {
                horizon = v + drift * self.period;
            }
            return Ok((code, horizon));
        }
        Ok((COLD, horizon))
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

    // The innermost loop node's statements, for exact window evaluation.
    let (row_stmts, period) = leaf_row_stmts(program, label, plan, cstride, &config);
    let leaf_ranks: Vec<usize> = row_stmts
        .iter()
        .flat_map(|s| s.refs.iter().map(|r| r.lex_rank))
        .collect();
    let k = config.assoc() as usize;
    let statics = vec_statics(program, plan, n, &leaf_ranks, k);
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
        lbytes: config.line_bytes() as i64,
        period,
        k,
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
        ends: Vec::new(),
        guard_cuts: Vec::new(),
        guard_cuts_ready: false,
        held: Vec::new(),
        held_prefixes: Vec::new(),
        blocks: Vec::new(),
        row_codes: Vec::new(),
        pending: Vec::new(),
        evicted: Vec::new(),
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
    if !engine.held.is_empty() {
        engine.flush()?;
    }
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

    /// Points decided by counting, across all references.
    pub fn counted_points(&self) -> u64 {
        self.per_ref.iter().map(RefVerdicts::counted_points).sum()
    }

    /// Rows the counting walks visited, across all references.
    pub fn rows_walked(&self) -> u64 {
        self.per_ref.iter().map(RefVerdicts::rows_walked).sum()
    }

    /// Points whose vector scan ran, across all references.
    pub fn evaluated_points(&self) -> u64 {
        self.per_ref.iter().map(RefVerdicts::evaluated_points).sum()
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

    /// Rows longer than `COUNT_BATCH` count their points in several
    /// batches: `A(I)` and `B(I)` reuse their lines from the previous `J`
    /// row, so the first point of each line is counted, and each row is
    /// flushed before its end. The verdicts must not depend on where a row
    /// was flushed.
    #[test]
    fn long_rows_count_in_several_batches() {
        let n = 700i64;
        let mut b = ProgramBuilder::new("long-rows");
        b.array("A", &[n], 8);
        b.array("B", &[n], 8);
        let i = LinExpr::var("I");
        b.push(SNode::loop_(
            "J",
            1,
            3,
            vec![SNode::loop_(
                "I",
                1,
                n,
                vec![SNode::reads_only(vec![
                    SRef::new("A", vec![i.clone()]),
                    SRef::new("B", vec![i.clone()]),
                ])],
            )],
        ));
        let p = b.build().unwrap();
        let big = CacheConfig::new(16384, 32, 2).unwrap();
        for cfg in [
            CacheConfig::new(1024, 32, 1).unwrap(),
            big,
            CacheConfig::with_geometry(24, 12, 2).unwrap(),
        ] {
            let (resolved, total) = assert_matches_classifier(&p, cfg);
            assert_eq!(resolved, total, "cfg {cfg}");
        }
        // At 16 KB every window survives, so each batch walks the rows from
        // its last window's consumer down to its first window's producer.
        // Per reference, rows J = 2 and 3 each hold 175 counted points, the
        // first of each line, one per four-code block. In each row the
        // block at I = 1 extends nowhere (the spatial vector applies from
        // I = 2 on); the block at 5 extends over `COUNT_BATCH` = 256 codes,
        // 64 counted members, and so does the block at 261; the block at
        // 517 extends to the row's end, 46 members. A flush follows the
        // first block that brings the held codes to 256, so the 350 points
        // count as 1 + 64, 64, 46 + 1 + 64 (J = 2 and 3), 64 and 46: four
        // walk a counted row and the one before it, and the straddling one
        // walks J = 3, 2 and 1.
        let reuse = ReuseAnalysis::analyze(&p, big.line_bytes());
        let cl = Classifier::new(&p, &reuse, big);
        let pre = Prepass::build(&cl, &CancelToken::never()).unwrap();
        assert_eq!(pre.counted_points(), 2 * 2 * 700 * 8 / 32);
        assert_eq!(pre.rows_walked(), 2 * (4 * 2 + 3));
    }

    /// A statement outside the innermost loop, shaped like MMT's
    /// `RA = A(I,K)`: normalisation sinks it into the `J` loop under
    /// `J = 1`, so each of its rows holds one point, and its spatial reuse
    /// along `I` crosses the `K` rows in between. The windows of
    /// consecutive rows are translates, so the held rows count them in one
    /// walk per batch instead of one walk per point.
    #[test]
    fn one_point_rows_count_across_rows() {
        let (n, bk, bj) = (64i64, 8i64, 4i64);
        let mut b = ProgramBuilder::new("one-point-rows");
        b.array("A", &[n, bk], 8);
        b.array("D", &[n, bj], 8);
        b.array("W", &[bj, bk], 8);
        let (i, k, j) = (LinExpr::var("I"), LinExpr::var("K"), LinExpr::var("J"));
        b.push(SNode::loop_(
            "I",
            1,
            n,
            vec![SNode::loop_(
                "K",
                1,
                bk,
                vec![
                    SNode::reads_only(vec![SRef::new("A", vec![i.clone(), k.clone()])]),
                    SNode::loop_(
                        "J",
                        1,
                        bj,
                        vec![SNode::assign(
                            SRef::new("D", vec![i.clone(), j.clone()]),
                            vec![
                                SRef::new("D", vec![i.clone(), j.clone()]),
                                SRef::new("W", vec![j.clone(), k.clone()]),
                            ],
                        )],
                    ),
                ],
            )],
        ));
        let p = b.build().unwrap();
        let a = ref_named(&p, "A(I,K)");
        assert_eq!(p.ris(a).count(), (n * bk) as u64, "one point per row");
        let big = CacheConfig::new(65536, 32, 2).unwrap();
        for cfg in [
            CacheConfig::new(1024, 32, 1).unwrap(),
            CacheConfig::with_geometry(24, 12, 2).unwrap(),
            big,
        ] {
            let (resolved, total) = assert_matches_classifier(&p, cfg);
            assert_eq!(resolved, total, "cfg {cfg}");
        }
        // At 64 KB every window survives. `A(I,K)` counts the three points
        // of each line after its first, each window crossing `BK + 1` = 9
        // rows; its 512 rows hold one code each, so the first batch holds
        // rows I = 1..32 and the second I = 33..64, and as both start on a
        // line, each walks its own 256 rows once (counted one window at a
        // time, it would be 384 × 9).
        let reuse = ReuseAnalysis::analyze(&p, big.line_bytes());
        let cl = Classifier::new(&p, &reuse, big);
        let vd = analyze_reference(&cl, a, &CancelToken::never()).unwrap();
        assert_eq!(vd.counted_points(), (n * bk * 3 / 4) as u64);
        assert_eq!(vd.rows_walked(), 2 * 256);
    }

    fn ref_named(p: &Program, display: &str) -> RefId {
        (0..p.references().len())
            .find(|&r| p.reference(r).display == display)
            .unwrap_or_else(|| panic!("{display}"))
    }

    /// Shaped like MMT's `D(I,J)` along `K`: `D`'s column stride (128 B)
    /// clears a line, so each point of a row reuses its line from the
    /// previous `K` row, or at `K = 1` from the previous `I`, and waits for
    /// a count in every residue class. A counted point's class members
    /// below its horizon take its deciding vector without a scan, each
    /// counted on its own line.
    #[test]
    fn counted_rows_evaluate_one_block() {
        let (n, bk, bj) = (16i64, 4i64, 24i64);
        let mut b = ProgramBuilder::new("counted-rows");
        b.array("D", &[n, bj], 8);
        b.array("W", &[bj, bk], 8);
        let (i, k, j) = (LinExpr::var("I"), LinExpr::var("K"), LinExpr::var("J"));
        b.push(SNode::loop_(
            "I",
            1,
            n,
            vec![SNode::loop_(
                "K",
                1,
                bk,
                vec![SNode::loop_(
                    "J",
                    1,
                    bj,
                    vec![SNode::assign(
                        SRef::new("D", vec![i.clone(), j.clone()]),
                        vec![
                            SRef::new("D", vec![i.clone(), j.clone()]),
                            SRef::new("W", vec![j.clone(), k.clone()]),
                        ],
                    )],
                )],
            )],
        ));
        let p = b.build().unwrap();
        let direct = CacheConfig::new(1024, 32, 1).unwrap();
        for cfg in [
            direct,
            CacheConfig::new(2048, 32, 2).unwrap(),
            CacheConfig::with_geometry(24, 12, 2).unwrap(),
        ] {
            let (resolved, total) = assert_matches_classifier(&p, cfg);
            assert_eq!(resolved, total, "cfg {cfg}");
        }
        // `Q = 32 / gcd(32, 128, 8) = 4`. Of the 64 rows of the read
        // `D(I,J)`, the 60 that reuse a line count all 24 points; the four
        // at `K = 1`, `I ≡ 1 (mod 4)` are cold throughout. Either way each
        // row evaluates its first block of 4 points and extends it to the
        // row's end (counted, one point per row would wait per point).
        let reuse = ReuseAnalysis::analyze(&p, direct.line_bytes());
        let cl = Classifier::new(&p, &reuse, direct);
        let vd = analyze_reference(&cl, ref_named(&p, "D(I,J)"), &CancelToken::never()).unwrap();
        assert_eq!(vd.counted_points(), (60 * bj) as u64);
        assert_eq!(vd.evaluated_points(), (n * bk * 4) as u64);
    }

    /// A window over mixed strides: `X(I-1)` reuses the line `X(I)`
    /// touched one iteration before, and between the two only `Y(2*I)`
    /// accesses, whose stride is twice `X`'s. So per period `Q = 4` its
    /// line drifts one line further from `X`'s, and the window's verdict
    /// holds until `Y` enters the reused line's set.
    #[test]
    fn drifting_windows_extend_until_they_enter_the_set() {
        let n = 64i64;
        let mut b = ProgramBuilder::new("drift");
        b.array("X", &[n], 8);
        b.array("Y", &[2 * n], 8);
        let i = LinExpr::var("I");
        b.push(SNode::loop_(
            "I",
            2,
            n,
            vec![SNode::reads_only(vec![
                SRef::new("X", vec![i.offset(-1)]),
                SRef::new("X", vec![i.clone()]),
                SRef::new("Y", vec![i.scale(2)]),
            ])],
        ));
        let p = b.build().unwrap();
        assert_eq!(p.base_address(1) - p.base_address(0), 512);
        let sets24 = CacheConfig::with_geometry(32, 24, 1).unwrap();
        for cfg in [
            sets24,
            CacheConfig::new(512, 32, 1).unwrap(),
            CacheConfig::new(2048, 32, 2).unwrap(),
        ] {
            let (resolved, total) = assert_matches_classifier(&p, cfg);
            assert_eq!(resolved, total, "cfg {cfg}");
        }
        // At `I = v`, `Y(2v-2)`'s line leads `X(v-1)`'s by
        // `16 + ⌊(2v-3)/4⌋ - ⌊(v-2)/4⌋`, which is 24 for `v = 32..35`: at
        // 24 sets those four points are replacement misses, the rest of
        // the row hits. The block at 2 has no producer at its first point
        // (`I - 1 = 1` precedes the loop), so it extends nowhere; the
        // block at 6 extends to 31, where `Y` enters; the block at 32
        // holds `Y` in the set, so it extends nowhere; and the block at
        // 36 extends to the row's end, as `Y` enters again only 24
        // periods later. Four blocks of four points, of the row's 63.
        let reuse = ReuseAnalysis::analyze(&p, sets24.line_bytes());
        let cl = Classifier::new(&p, &reuse, sets24);
        let vd = analyze_reference(&cl, ref_named(&p, "X(I - 1)"), &CancelToken::never()).unwrap();
        let repl: Vec<i64> = (2..=n)
            .filter(|&v| vd.lookup(&[v], &mut 0) == Some(Verdict::Replacement))
            .collect();
        assert_eq!(repl, (32..=35).collect::<Vec<_>>());
        assert_eq!(vd.evaluated_points(), 4 * 4);
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
