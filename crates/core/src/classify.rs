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
//! the latest re-touch. One routine counts (`Classifier::count_batch`):
//! it decides a batch of intervals, each with its own ends, in one walk
//! that builds each row some interval needs once, and a single interval
//! is its one-window case. The tests check it against scans that enumerate
//! every access of the interval.
//!
//! Per-reference invariants (producer bounding boxes, lexical ranks, the
//! vector list itself) are hoisted into [`Classifier::new`] so the per-point
//! loop touches only flat precomputed slices, and callers on hot paths can
//! supply a reusable [`Scratch`] via [`Classifier::classify_with_scratch`]
//! to avoid per-point allocation entirely.
//!
//! [`crate::FindMisses`], and [`crate::EstimateMisses`] on exhaustively
//! planned references, classify only the points the row engine
//! ([`crate::prepass`]) leaves undecided.
//! [`Classifier::classify_every_point`] runs the classifier alone over
//! every point: the reference their reports are checked against.

use crate::parallel::Tally;
use crate::report::{RefReport, Report};
use cme_cache::CacheConfig;
use cme_ir::walk::{walk_rows_rev, RowSpan};
use cme_ir::{Program, RefId};
use cme_poly::vector::{div_ceil, div_floor, gcd};
use cme_poly::{Constraint, ConstraintKind};
use cme_reuse::ReuseAnalysis;
use std::cmp::Ordering;
use std::ops::ControlFlow;
use std::time::Instant;

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

/// Reusable buffers of the replacement equations.
#[derive(Debug, Default, Clone)]
pub(crate) struct EvalScratch {
    /// Index buffer of the row walk.
    row_idx: Vec<i64>,
    /// The current row's reference segments, over the whole row.
    segs: Vec<Segment>,
    /// `≠` holes of the current row's statements, sorted per statement.
    holes: Vec<i64>,
    /// The segments of the current row that one window counts: those
    /// that reach its target set, clipped to its ends.
    reach: Vec<Segment>,
    /// The open windows of the batch, latest `from` row first.
    open: Vec<Open>,
    /// Per window `j`, `k` slots from `j·k` for the distinct contending
    /// lines it has counted.
    lines: Vec<i64>,
}

/// A window of a counting batch that is not yet decided.
#[derive(Debug, Clone, Copy)]
struct Open {
    /// Index of the window in its batch.
    j: u32,
    /// Distinct contending lines counted so far.
    counted: u32,
    /// The cache set of the window's reused line.
    set: i64,
}

/// One interference interval of a counting batch
/// ([`Classifier::count_batch`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window<'a> {
    /// The producer's access, where the interval starts (interleaved).
    pub(crate) from: &'a [i64],
    /// The consumer's access, where it ends.
    pub(crate) to: &'a [i64],
    /// The reused line.
    pub(crate) line: i64,
}

/// Where one window ends inside a row: at `to`'s innermost index in the
/// row holding `to`, at `from`'s in the row holding `from`, each with the
/// lexical rank that trims the accesses at that index (§4.1.2). Neither,
/// between them.
#[derive(Debug, Clone, Copy)]
struct Ends {
    /// `from`'s innermost index and the producer's rank.
    from: Option<(i64, usize)>,
    /// `to`'s innermost index and the consumer's rank.
    to: Option<(i64, usize)>,
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
    /// The cache set of `lines.0`, and the reference's [`RefCount`] step:
    /// the segment touches set `t` only if `t` lies within
    /// `lines.1 − lines.0` sets after `set` and in its class modulo `step`.
    set: i64,
    step: Divisor,
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
    /// `|s|`, or 1 for `s = 0`.
    magnitude: Divisor,
    lex_rank: usize,
    /// `L / gcd(|s|, L)`: shifting `w` by it moves the address by whole
    /// lines.
    period: Divisor,
    /// Lines advanced per `period` steps of `w`: `s · period / L`.
    sigma: i64,
    /// `gcd(sigma mod S, S)`.
    g: Divisor,
    /// `S / g`.
    m: Divisor,
    /// `(sigma / g)⁻¹ mod m`.
    inv: i64,
    /// Within one row, every line the reference touches lies in one
    /// residue class of sets modulo `step`: `g` when one residue class of
    /// `w` holds every access (`period = 1`), else 1.
    step: Divisor,
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
            magnitude: Divisor::new(stride.abs().max(1)),
            lex_rank,
            period: Divisor::new(period),
            sigma,
            g: Divisor::new(g),
            m: Divisor::new(m),
            inv: mod_inverse(sigma.rem_euclid(nsets) / g, m),
            step: Divisor::new(if period == 1 { g } else { 1 }),
        }
    }
}

/// A positive divisor, applied by shift and mask when it is a power of
/// two: the count divides by a few per-reference constants per row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    d: i64,
    /// `log2 d` when `d` is a power of two, else `u32::MAX`.
    shift: u32,
}

impl Divisor {
    pub(crate) fn new(d: i64) -> Divisor {
        debug_assert!(d > 0, "divisor {d}");
        let shift = if d & (d - 1) == 0 {
            d.trailing_zeros()
        } else {
            u32::MAX
        };
        Divisor { d, shift }
    }

    /// `⌊x / d⌋`.
    pub(crate) fn floor(self, x: i64) -> i64 {
        if self.shift == u32::MAX {
            x.div_euclid(self.d)
        } else {
            x >> self.shift
        }
    }

    /// `⌈x / d⌉`.
    fn ceil(self, x: i64) -> i64 {
        -self.floor(-x)
    }

    /// `x mod d`, in `[0, d)`.
    pub(crate) fn rem(self, x: i64) -> i64 {
        if self.shift == u32::MAX {
            x.rem_euclid(self.d)
        } else {
            x & (self.d - 1)
        }
    }
}

/// `x⁻¹ mod m` for coprime `x`, `m` (`m ≥ 1`), via extended Euclid.
pub(crate) fn mod_inverse(x: i64, m: i64) -> i64 {
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
                        vector: rv.vector,
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
        }
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
            let evicted = self.count_evicted(
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

    /// Classifies every point of every reference, serially and without
    /// the row engine: the reference path the reports of
    /// [`crate::FindMisses`] and exhaustively planned
    /// [`crate::EstimateMisses`] references are checked against. The
    /// report's [`Report::prepass_resolved`] is 0.
    pub fn classify_every_point(&self) -> Report {
        let start = Instant::now();
        let mut scratch = Scratch::new();
        let reports = (0..self.program.references().len())
            .map(|r| {
                let mut tally = Tally::default();
                self.program.ris(r).for_each_point(|point| {
                    tally.bump(self.classify_with_scratch(r, point, &mut scratch));
                });
                RefReport::exhaustive(r, tally)
            })
            .collect();
        Report::new(reports, start.elapsed())
    }

    /// Whether the reused line is evicted before the consumer access: at
    /// least `k` distinct memory lines, none of them the reused line and
    /// all mapped to its cache set, are accessed in the interference
    /// interval `[from, to]` after the reused line's last touch there. Any
    /// access to the reused line renews its LRU recency, so only what
    /// follows the latest one counts; the producer's own access at `from`
    /// is the final implicit touch. Interval ends honour the lexical rules
    /// of §4.1.2: an access at `from` intervenes only if lexically after
    /// `R_p`; one at `to` only if lexically before `R_c`.
    ///
    /// The one-window case of [`Classifier::count_batch`], which counts
    /// the verdict instead of walking the interval.
    pub(crate) fn count_evicted(
        &self,
        from: &[i64],
        to: &[i64],
        reused_line: i64,
        producer_rank: usize,
        consumer_rank: usize,
        scratch: &mut EvalScratch,
    ) -> bool {
        let window = Window {
            from,
            to,
            line: reused_line,
        };
        let mut evicted = [false];
        self.count_batch(
            &[window],
            producer_rank,
            consumer_rank,
            scratch,
            &mut evicted,
        );
        evicted[0]
    }

    /// [`Classifier::count_evicted`] for a batch of intervals: `evicted[j]`
    /// receives whether window `j`, from `windows[j].from` to
    /// `windows[j].to`, evicts `windows[j].line`. Every `from` is an access
    /// of a producer of rank `producer_rank` and every `to` one of a
    /// consumer of rank `consumer_rank`, both at points the program
    /// executes; the windows are sorted by `to`, and their `from` rows lie
    /// in the same order (as they do along one reuse vector). Returns the
    /// rows walked.
    ///
    /// One backward walk ([`walk_rows_rev`]) visits the rows the windows
    /// need, each built once: every statement's guard reduces to an
    /// interval of `w` minus `≠` holes, and each reference becomes a
    /// segment. A window opens when the walk reaches its `to` row and
    /// closes after its `from` row, and is clipped in those two rows at its
    /// own innermost indices, with the boundary-rank rules; the rows
    /// between serve every open window as built. When no window is open,
    /// the walk restarts at the next window's `to`, so it builds no row
    /// that no window needs. Per window and segment the `w` touching the
    /// reused line form one interval, so a row's latest re-touch is a
    /// maximum over segments. The lines mapped to the target set after it
    /// are then solved per segment in closed form
    /// ([`Classifier::add_lines`]) into the window's `k` slots of distinct
    /// lines. A window leaves the batch at its `k`-th distinct contender
    /// (evicted) or in the row holding its latest re-touch (not evicted),
    /// and one still open after its `from` row is not evicted.
    pub(crate) fn count_batch(
        &self,
        windows: &[Window<'_>],
        producer_rank: usize,
        consumer_rank: usize,
        scratch: &mut EvalScratch,
        evicted: &mut [bool],
    ) -> u64 {
        // A row's key: the interleaved position of its points, less `w`.
        let key = 2 * self.program.depth() - 1;
        debug_assert!(
            windows
                .windows(2)
                .all(|p| p[0].to <= p[1].to && p[0].from[..key] <= p[1].from[..key]),
            "windows sorted by `to`, their `from` rows alike"
        );
        let Some(first) = windows.first() else {
            return 0;
        };
        // The windows whose `from` row comes first: where the walk itself
        // starts, so its `starts_at_from` marks theirs.
        let m = windows
            .iter()
            .take_while(|w| w.from[..key] == first.from[..key])
            .count();
        let from = windows[..m]
            .iter()
            .map(|w| w.from)
            .min()
            .expect("at least one window");
        let k = self.config.assoc() as usize;
        let EvalScratch {
            row_idx,
            segs,
            holes,
            reach,
            open,
            lines,
        } = scratch;
        open.clear();
        evicted.fill(false);
        if lines.len() < windows.len() * k {
            lines.resize(windows.len() * k, 0);
        }
        // `windows[..next]` are still to open.
        let mut next = windows.len();
        let mut rows = 0u64;
        while next > 0 {
            let start = next;
            walk_rows_rev(self.program, from, windows[next - 1].to, row_idx, |row| {
                // Open the windows whose `to` row the walk has reached;
                // `open[at_to..]` end in this row.
                let mut at_to = open.len();
                while next > 0 {
                    let w = &windows[next - 1];
                    match row.key.cmp(&w.to[..key]) {
                        Ordering::Greater => break,
                        Ordering::Less => at_to = open.len() + 1,
                        Ordering::Equal => {}
                    }
                    next -= 1;
                    open.push(Open {
                        j: next as u32,
                        counted: 0,
                        set: self.config.set_of_line(w.line),
                    });
                }
                if open.is_empty() {
                    // No window needs this row: restart at the next `to`.
                    return ControlFlow::Break(());
                }
                rows += 1;
                segs.clear();
                holes.clear();
                self.row_segments(&row, segs, holes);
                // `open` runs from the latest `from` row down, so the
                // windows that start in this row lead it.
                let at_from = if row.starts_at_from {
                    open.len()
                } else {
                    open.iter()
                        .take_while(|o| {
                            o.j as usize >= m && *row.key == windows[o.j as usize].from[..key]
                        })
                        .count()
                };
                let mut kept = 0;
                for i in 0..open.len() {
                    let mut o = open[i];
                    let j = o.j as usize;
                    let w = &windows[j];
                    // Only a segment that reaches the target set can touch
                    // the reused line or count; in most rows none does.
                    let decided = if !segs.iter().any(|sg| self.reaches(sg, o.set)) {
                        None
                    } else {
                        let ends = Ends {
                            from: (i < at_from).then_some((w.from[key], producer_rank)),
                            to: (i >= at_to).then_some((w.to[key], consumer_rank)),
                        };
                        reach.clear();
                        reach.extend(
                            segs.iter()
                                .filter(|sg| self.reaches(sg, o.set))
                                .filter_map(|sg| self.clip(sg, ends)),
                        );
                        let slots = &mut lines[j * k..(j + 1) * k];
                        if reach.is_empty() {
                            None
                        } else {
                            self.count_row(reach, holes, w.line, o.set, slots, &mut o.counted)
                        }
                    };
                    match decided {
                        Some(e) => evicted[j] = e,
                        // Past its `from` row, an open window is a hit.
                        None if i < at_from => {}
                        None => {
                            open[kept] = o;
                            kept += 1;
                        }
                    }
                }
                open.truncate(kept);
                if open.is_empty() && next == 0 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            if next == start {
                // Only a window whose ends are not executed points can
                // leave nothing to walk; it stays a hit.
                break;
            }
        }
        rows
    }

    /// Counts one row's segments of one window into its distinct lines of
    /// the target set, `lines[..*counted]`: the row's latest re-touch of the
    /// reused line is a maximum over its segments, and only accesses after
    /// it, in program order, count. `Some(evicted)` once the verdict is
    /// decided — `k` lines, or a re-touch — and `None` when the walk goes
    /// on to the previous row.
    fn count_row(
        &self,
        segs: &[Segment],
        holes: &[i64],
        reused_line: i64,
        target: i64,
        lines: &mut [i64],
        counted: &mut u32,
    ) -> Option<bool> {
        let retouch = segs
            .iter()
            .filter(|sg| sg.lines.0 <= reused_line && reused_line <= sg.lines.1)
            .filter_map(|sg| Some((self.last_touch(sg, holes, reused_line)?, sg.pos)))
            .max();
        for sg in segs {
            let lo = match retouch {
                Some((w, pos)) if sg.pos > pos => sg.lo.max(w),
                Some((w, _)) => sg.lo.max(w + 1),
                None => sg.lo,
            };
            if self.add_lines(sg, lo, holes, reused_line, target, lines, counted) {
                return Some(true);
            }
        }
        retouch.map(|_| false)
    }

    /// The part of a segment inside one window: cut at the window's `ends`,
    /// where an access intervenes only by the lexical rules of §4.1.2.
    /// `None` when nothing is left.
    fn clip(&self, sg: &Segment, ends: Ends) -> Option<Segment> {
        let rank = self.counts[sg.r as usize].lex_rank;
        let mut sg = *sg;
        if let Some((to_w, consumer_rank)) = ends.to {
            sg.hi = sg.hi.min(to_w);
            if sg.hi == to_w && rank >= consumer_rank {
                sg.hi -= 1;
            }
        }
        if let Some((from_w, producer_rank)) = ends.from {
            sg.lo = sg.lo.max(from_w);
            if sg.lo == from_w && rank <= producer_rank {
                sg.lo += 1;
            }
        }
        (sg.lo <= sg.hi).then_some(sg)
    }

    /// Whether the segment can touch a line of set `target`: the set lies
    /// among the sets its line range spans, in its residue class.
    fn reaches(&self, sg: &Segment, target: i64) -> bool {
        let ahead = target - sg.set;
        let ahead = if ahead < 0 {
            ahead + self.config.num_sets() as i64
        } else {
            ahead
        };
        ahead <= sg.lines.1 - sg.lines.0 && sg.step.rem(ahead) == 0
    }

    /// Appends one row's reference segments, over the whole row: each
    /// statement's guard at the row prefix becomes `[lo, hi]` minus holes.
    fn row_segments(&self, row: &RowSpan<'_>, segs: &mut Vec<Segment>, holes: &mut Vec<i64>) {
        let mut pos = 0;
        for &sid in &row.node.stmts {
            let stmt = self.program.statement(sid);
            let first_hole = holes.len();
            let Some((lo, hi)) = reduce_guard(&stmt.guard, row.prefix, row.lo, row.hi, holes)
            else {
                holes.truncate(first_hole);
                pos += stmt.refs.len();
                continue;
            };
            holes[first_hole..].sort_unstable();
            let holes_at = (first_hole as u32, holes.len() as u32);
            for &r in &stmt.refs {
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
                let lines = (
                    self.config.mem_line(a.min(b)),
                    self.config.mem_line(a.max(b)),
                );
                segs.push(Segment {
                    r: r as u32,
                    pos: pos as u32,
                    base,
                    lo,
                    hi,
                    holes_at,
                    lines,
                    set: self.config.set_of_line(lines.0),
                    step: self.counts[r].step,
                });
                pos += 1;
            }
        }
    }

    /// The largest `w` of the segment whose access touches `line`.
    fn last_touch(&self, sg: &Segment, holes: &[i64], line: i64) -> Option<i64> {
        let rc = &self.counts[sg.r as usize];
        let (s, by) = (rc.stride, rc.magnitude);
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
                (by.ceil(first), by.floor(last))
            } else {
                (-by.floor(last), -by.ceil(first))
            };
            (a.max(sg.lo), b.min(sg.hi))
        };
        let holes = &holes[sg.holes_at.0 as usize..sg.holes_at.1 as usize];
        (lo..=hi).rev().find(|w| !holes.contains(w))
    }

    /// Adds the distinct lines of set `target` that the segment touches at
    /// `w ∈ [lo, sg.hi]` to `lines[..*counted]`; `true` once `k` are
    /// counted. The segment never touches the reused line there.
    #[allow(clippy::too_many_arguments)]
    fn add_lines(
        &self,
        sg: &Segment,
        lo: i64,
        holes: &[i64],
        reused_line: i64,
        target: i64,
        lines: &mut [i64],
        counted: &mut u32,
    ) -> bool {
        let mut add = |line: i64| {
            debug_assert_ne!(
                line, reused_line,
                "counted region re-touches the reused line"
            );
            let n = *counted as usize;
            if !lines[..n].contains(&line) {
                lines[n] = line;
                *counted += 1;
            }
            *counted as usize >= lines.len()
        };
        let mut start = lo;
        for &h in &holes[sg.holes_at.0 as usize..sg.holes_at.1 as usize] {
            if h < start || h > sg.hi {
                continue;
            }
            if self.add_run(sg, start, h - 1, target, &mut add) {
                return true;
            }
            start = h + 1;
        }
        self.add_run(sg, start, sg.hi, target, &mut add)
    }

    /// [`Classifier::add_lines`] over one hole-free run `[lo, hi]`, by
    /// stride: one line for `s = 0`; a contiguous line range for
    /// `|s| < L`; and for `|s| ≥ L` one arithmetic progression of matching
    /// `w` per residue class of `w` modulo the [`RefCount`] period. `add`
    /// counts a line and says whether `k` are counted.
    fn add_run(
        &self,
        sg: &Segment,
        lo: i64,
        hi: i64,
        target: i64,
        add: &mut impl FnMut(i64) -> bool,
    ) -> bool {
        if lo > hi {
            return false;
        }
        let config = &self.config;
        let nsets = config.num_sets() as i64;
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
            let mut line = first + config.set_of_line(target - first);
            while line <= last {
                if add(line) {
                    return true;
                }
                line += nsets;
            }
            return false;
        }
        for w0 in lo..=hi.min(lo + rc.period.d - 1) {
            let l0 = config.mem_line(sg.base + s * w0);
            let delta = config.set_of_line(target - l0);
            if rc.g.rem(delta) != 0 {
                continue;
            }
            let qmax = rc.period.floor(hi - w0);
            let mut q = rc.m.rem(rc.g.floor(delta) * rc.inv);
            while q <= qmax {
                if add(l0 + rc.sigma * q) {
                    return true;
                }
                q += rc.m.d;
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

    /// The replacement equations by enumeration: every access of
    /// `[from, to]` in program order, boundary ranks honoured. A touch of
    /// the reused line renews it, so it clears the contenders: only the
    /// lines after its last touch count.
    fn scan_evicted(
        cl: &Classifier<'_>,
        from: &[i64],
        to: &[i64],
        reused_line: i64,
        producer_rank: usize,
        consumer_rank: usize,
    ) -> bool {
        let (program, config) = (cl.program, &cl.config);
        let target_set = config.set_of_line(reused_line);
        let mut lines: Vec<i64> = Vec::new();
        cme_ir::walk::walk_range(program, from, to, |a, tag| {
            let rank = program.reference(a.r).lex_rank;
            if (tag.at_start && rank <= producer_rank) || (tag.at_end && rank >= consumer_rank) {
                return ControlFlow::Continue(());
            }
            let line = config.mem_line(a.addr);
            if line == reused_line {
                lines.clear();
            } else if config.set_of_line(line) == target_set && !lines.contains(&line) {
                lines.push(line);
            }
            ControlFlow::Continue(())
        });
        lines.len() >= config.assoc() as usize
    }

    /// Counts `windows` (`(from, to, reused line)`) as one batch, sorted by
    /// `to`, and checks each verdict against [`scan_evicted`]. Returns the
    /// windows counted and how many of them evict.
    fn check_batch(
        cl: &Classifier<'_>,
        mut windows: Vec<(Vec<i64>, Vec<i64>, i64)>,
        pr: usize,
        cr: usize,
        scratch: &mut EvalScratch,
        what: &str,
    ) -> (u32, u32) {
        windows.sort_by(|a, b| a.1.cmp(&b.1));
        let batch: Vec<Window<'_>> = windows
            .iter()
            .map(|(from, to, line)| Window {
                from,
                to,
                line: *line,
            })
            .collect();
        let mut got = vec![true; batch.len()];
        cl.count_batch(&batch, pr, cr, scratch, &mut got);
        let mut evictions = 0;
        for ((from, to, line), &got) in windows.iter().zip(&got) {
            let want = scan_evicted(cl, from, to, *line, pr, cr);
            assert_eq!(
                got, want,
                "cfg {}: {what} window [{from:?}, {to:?}] line {line} ranks {pr}/{cr}",
                cl.config
            );
            evictions += u32::from(got);
        }
        (windows.len() as u32, evictions)
    }

    /// The counting evaluator decides arbitrary intervals, reused lines and
    /// boundary ranks exactly as the full scan does — not only the windows
    /// reuse vectors produce. The program crosses nests, guards rows with
    /// thresholds and `≠` holes, runs a row backward and reads at a stride
    /// of 40 B, neither a multiple nor a divisor of any line size drawn.
    /// Each drawn pair of rows is also counted as one batch of windows, at
    /// several producer and consumer positions in those rows, each with
    /// its own reused line; and the drawn interval's offset gives a batch
    /// along it from several consecutive rows, some skipped, so windows
    /// open rows apart and the walk restarts after gaps.
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
        // The innermost indices each row executes, and the rows in program
        // order.
        let last = points[0].len() - 1;
        let mut rows: std::collections::HashMap<&[i64], Vec<i64>> = Default::default();
        for pt in &points {
            rows.entry(&pt[..last]).or_default().push(pt[last]);
        }
        for ws in rows.values_mut() {
            ws.sort_unstable();
            ws.dedup();
        }
        let mut row_keys: Vec<&[i64]> = rows.keys().copied().collect();
        row_keys.sort_unstable();
        let executed: std::collections::HashSet<&[i64]> =
            points.iter().map(Vec::as_slice).collect();
        let nrefs = p.references().len();
        let mut rng = SeededRng::seed_from_u64(0xC0);
        let mut batch_rng = SeededRng::seed_from_u64(0xC1);
        let mut evictions = 0;
        let (mut batched, mut batch_evictions) = (0, 0);
        let (mut strided, mut strided_evictions) = (0, 0);
        for (line, sets) in [(16u64, 8u64), (24, 12), (32, 4), (32, 16)] {
            for assoc in [1u32, 2, 3] {
                let cfg = CacheConfig::with_geometry(line, sets, assoc).unwrap();
                let reuse = ReuseAnalysis::analyze(&p, cfg.line_bytes());
                let count = Classifier::new(&p, &reuse, cfg);
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
                    let want = scan_evicted(&count, from, to, reused, pr, cr);
                    let got = count.count_evicted(from, to, reused, pr, cr, &mut scratch);
                    assert_eq!(
                        got, want,
                        "cfg {cfg}: [{from:?}, {to:?}] line {reused} ranks {pr}/{cr}"
                    );
                    evictions += u32::from(got);

                    let mut at = |n: usize| batch_rng.gen_below(n as u64) as usize;
                    let (from_ws, to_ws) = (&rows[&from[..last]], &rows[&to[..last]]);
                    let windows = (0..6)
                        .map(|_| {
                            let (mut from, mut to) = (from.clone(), to.clone());
                            from[last] = from_ws[at(from_ws.len())];
                            to[last] = to_ws[at(to_ws.len())];
                            if from[..last] == to[..last] && from[last] > to[last] {
                                std::mem::swap(&mut from[last], &mut to[last]);
                            }
                            (from, to, cfg.mem_line(addrs[at(addrs.len())]))
                        })
                        .collect();
                    let (w, e) = check_batch(&count, windows, pr, cr, &mut scratch, "batch");
                    (batched, batch_evictions) = (batched + w, batch_evictions + e);

                    // Along the interval's offset: one or two consumer
                    // points in each of several consecutive rows, a row or
                    // two skipped at times, each window's producer where
                    // the offset puts it (when that point executes).
                    let offset: Vec<i64> = to.iter().zip(from).map(|(t, f)| t - f).collect();
                    let mut windows = Vec::new();
                    let mut r = at(row_keys.len());
                    while r < row_keys.len() && windows.len() < 12 {
                        let ws = &rows[row_keys[r]];
                        for _ in 0..1 + at(2) {
                            let to = [row_keys[r], &[ws[at(ws.len())]]].concat();
                            let from: Vec<i64> =
                                to.iter().zip(&offset).map(|(t, o)| t - o).collect();
                            if executed.contains(from.as_slice()) {
                                windows.push((from, to, cfg.mem_line(addrs[at(addrs.len())])));
                            }
                        }
                        r += if at(3) == 0 { 2 + at(2) } else { 1 };
                    }
                    let (w, e) = check_batch(&count, windows, pr, cr, &mut scratch, "strided");
                    (strided, strided_evictions) = (strided + w, strided_evictions + e);
                }
            }
        }
        assert!(evictions > 500, "only {evictions} evictions drawn");
        for (what, windows, evicted) in [
            ("batched", batched, batch_evictions),
            ("strided", strided, strided_evictions),
        ] {
            assert!(
                evicted > windows / 10,
                "only {evicted} of {windows} {what} windows evicted"
            );
        }
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
