//! Reuse vector generation (§3.5 of the paper).
//!
//! For every ordered pair of uniformly generated references `(R_p, R_c)`
//! (including `R_p = R_c`), three kinds of candidate reuse vectors are
//! derived:
//!
//! * **temporal** — integer solutions of `M x = m_p − m_c` (eq. 1);
//! * **spatial within a column** — integer solutions of `M' y = m'_p − m'_c`
//!   whose first-subscript distance stays inside one memory line (eq. 2);
//! * **cross-column spatial** — solutions that step exactly one column while
//!   landing within a line of the column boundary (Fig. 3).
//!
//! A generated vector is a *candidate*: the cold equations re-verify the
//! memory-line equality pointwise during analysis, so a superset of the
//! paper's vectors is sound (it can only sharpen the prediction), while a
//! missing vector merely overestimates misses — the same conservative
//! stance the paper takes for group reuse across RIS facets.
//!
//! When the solution set has a non-trivial lattice, candidates are taken
//! from the size-reduced particular solution and single basis steps around
//! it (enumerated exhaustively where a line-window bounds them). Multi-basis
//! combinations are not explored; this matches the "usually self reuse
//! covers the facets" observation in §3.5.
//!
//! A pair's candidates depend only on its statements' shape (label
//! distance, feasibility window, difference constraints), the line size in
//! elements, the array's fixed first dimension, the subscript matrix and
//! the offset delta. Each distinct combination is solved once per program —
//! abstract inlining and stencils repeat them across thousands of pairs —
//! and every consumer merges its pairs' sets straight into one flat arena.

use crate::ugr::subscript_parts;
use crate::vector::{ReuseClass, ReuseKind, ReuseVector};
use cme_ir::{DimSize, Program, RefId, StmtId};
use cme_poly::{lex, linear::SmithSolver, vector as vecs, ConstraintKind, IMat};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// All reuse vectors of a program, stored flat and indexed by consumer.
///
/// Vector `i` is components `i·2n .. (i+1)·2n` of one arena, with its
/// producer and kind in two parallel arrays; consumer `r` owns vectors
/// `starts[r] .. starts[r+1]`, consumers in `RefId` order. Readers get
/// borrowed [`ReuseVector`] views, so a vector costs `16n + 5` bytes and
/// no allocation of its own.
#[derive(Debug, Clone)]
pub struct ReuseAnalysis {
    /// Components per vector: `2n`.
    width: usize,
    comps: Vec<i64>,
    producers: Vec<u32>,
    kinds: Vec<ReuseKind>,
    starts: Vec<usize>,
}

impl ReuseAnalysis {
    /// Generates reuse vectors for every reference of the program, for a
    /// given cache line size in bytes.
    pub fn analyze(program: &Program, line_bytes: u64) -> Self {
        Self::analyze_capped(program, line_bytes, usize::MAX)
    }

    /// Like [`ReuseAnalysis::analyze`], but keeps only the
    /// `max_per_consumer` lexicographically smallest vectors per consumer
    /// (the nearest producers). Distant vectors almost never decide a
    /// point — a nearer same-line access shadows them — so capping trades
    /// a bounded amount of conservative overestimation for analysis speed
    /// on reference-dense programs. A cap of 0 keeps no vector, so every
    /// point is cold.
    pub fn analyze_capped(program: &Program, line_bytes: u64, max_per_consumer: usize) -> Self {
        let gen = Generator::new(program, line_bytes);
        gen.run(max_per_consumer)
    }

    /// Every generated vector, consumer by consumer in `RefId` order.
    pub fn vectors(&self) -> Vectors<'_> {
        Vectors {
            analysis: self,
            consumer: 0,
            next: 0,
            end: self.producers.len(),
        }
    }

    /// The vectors consumed by `r`, sorted by increasing lexicographic
    /// order of the interleaved vector (the order `FindMisses` and
    /// `EstimateMisses` must try them in).
    pub fn for_consumer(&self, r: RefId) -> Vectors<'_> {
        Vectors {
            analysis: self,
            consumer: r,
            next: self.starts[r],
            end: self.starts[r + 1],
        }
    }

    /// Number of vectors for a consumer.
    pub fn consumer_len(&self, r: RefId) -> usize {
        self.starts[r + 1] - self.starts[r]
    }

    /// Bytes this analysis holds on the heap: the capacity of its four
    /// buffers, which are all it allocates.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.comps.capacity() * size_of::<i64>()
            + self.producers.capacity() * size_of::<u32>()
            + self.kinds.capacity() * size_of::<ReuseKind>()
            + self.starts.capacity() * size_of::<usize>()
    }

    /// The view of vector `i`, which `consumer` owns.
    fn view(&self, consumer: RefId, i: usize) -> ReuseVector<'_> {
        let producer = self.producers[i] as RefId;
        ReuseVector {
            producer,
            consumer,
            vector: &self.comps[i * self.width..(i + 1) * self.width],
            kind: self.kinds[i],
            class: if producer == consumer {
                ReuseClass::SelfReuse
            } else {
                ReuseClass::Group
            },
        }
    }
}

/// An iterator over the vectors of a [`ReuseAnalysis`] in consumer order,
/// yielding borrowed views.
#[derive(Debug, Clone)]
pub struct Vectors<'a> {
    analysis: &'a ReuseAnalysis,
    /// The consumer owning vector `next` (or an earlier one, when the
    /// consumers in between own none).
    consumer: RefId,
    next: usize,
    end: usize,
}

impl<'a> Iterator for Vectors<'a> {
    type Item = ReuseVector<'a>;

    fn next(&mut self) -> Option<ReuseVector<'a>> {
        if self.next == self.end {
            return None;
        }
        let i = self.next;
        self.next += 1;
        while self.analysis.starts[self.consumer + 1] <= i {
            self.consumer += 1;
        }
        Some(self.analysis.view(self.consumer, i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Vectors<'_> {}

struct Generator<'p> {
    program: &'p Program,
    line_bytes: u64,
}

impl<'p> Generator<'p> {
    fn new(program: &'p Program, line_bytes: u64) -> Self {
        Generator {
            program,
            line_bytes,
        }
    }

    /// Solves every distinct candidate set once (pass 1), then merges each
    /// consumer's candidates straight into the flat arena (pass 2).
    fn run(self, max_per_consumer: usize) -> ReuseAnalysis {
        let program = self.program;
        let nrefs = program.references().len();

        // Guard-substituted subscript variants per reference: two references
        // pair up when *any* variant matrices coincide — i.e. they are
        // uniformly generated once their RIS equalities are substituted in.
        // Matrices are interned, so matching compares two ids.
        let mut form_ids: HashMap<IMat, u32> = HashMap::new();
        let mut forms: Vec<IMat> = Vec::new();
        let mut variants: Vec<Vec<(u32, Vec<i64>)>> = Vec::with_capacity(nrefs);
        for r in 0..nrefs {
            let mut mine = Vec::new();
            for (m, off) in self.ref_variants(r) {
                let form = *form_ids.entry(m).or_insert_with_key(|m| {
                    forms.push(m.clone());
                    id(forms.len() - 1)
                });
                mine.push((form, off));
            }
            variants.push(mine);
        }
        let mut by_array: Vec<Vec<RefId>> = vec![Vec::new(); program.arrays().len()];
        for r in 0..nrefs {
            by_array[program.reference(r).array].push(r);
        }

        // Pass 1: per consumer, the (producer, candidate set) pairs it
        // merges, consumer-major. A candidate set depends only on its
        // `CandKey`, so each distinct key is solved once per program, however
        // many reference pairs (inlined copies, stencil neighbours) share it.
        let mut shapes = Shapes::default();
        let mut deltas: HashMap<Vec<i64>, u32> = HashMap::new();
        let mut set_ids: HashMap<CandKey, u32> = HashMap::new();
        let mut sets = CandidateSets::new(2 * program.depth());
        let mut solvers: SolverMap = HashMap::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut pair_starts: Vec<usize> = Vec::with_capacity(nrefs + 1);
        pair_starts.push(0);
        // An upper bound on the vectors pass 2 keeps (it ignores dedup), so
        // the arena is allocated once instead of growing by doubling.
        let mut bound = 0usize;
        let mut delta: Vec<i64> = Vec::new();
        for c in 0..nrefs {
            let rc = program.reference(c);
            let arr = program.array(rc.array);
            let ls_elems = (self.line_bytes / arr.elem_bytes as u64).max(1) as i64;
            let d1 = match arr.dims.first() {
                Some(DimSize::Fixed(d1)) => Some(*d1),
                _ => None,
            };
            let mut admitted = 0usize;
            for &p in &by_array[rc.array] {
                let shape = shapes.of(&self, p, c);
                let zero_ok = self.zero_admitted(p, c);
                let first = pairs.len();
                for (fp, off_p) in &variants[p] {
                    for (fc, off_c) in &variants[c] {
                        if fp != fc {
                            continue;
                        }
                        delta.clear();
                        delta.extend(off_p.iter().zip(off_c).map(|(a, b)| a - b));
                        let delta_id = match deltas.get(delta.as_slice()) {
                            Some(&id) => id,
                            None => {
                                let next = id(deltas.len());
                                deltas.insert(delta.clone(), next);
                                next
                            }
                        };
                        let key = CandKey {
                            shape,
                            ls_elems,
                            d1,
                            form: *fp,
                            delta: delta_id,
                        };
                        let set = match set_ids.get(&key) {
                            Some(&set) => set,
                            None => {
                                let cands = self.pair_candidates(
                                    shapes.get(shape),
                                    &forms[*fp as usize],
                                    &delta,
                                    ls_elems,
                                    d1,
                                    &mut solvers,
                                );
                                let set = sets.push(cands);
                                set_ids.insert(key, set);
                                set
                            }
                        };
                        // Matched forms are deduped per pair: a set counts
                        // once in this consumer's multiset.
                        if pairs[first..].iter().any(|&(_, s)| s == set) {
                            continue;
                        }
                        pairs.push((id(p), set));
                        admitted += sets.admitted_len(set, zero_ok);
                    }
                }
            }
            bound += admitted.min(max_per_consumer);
            pair_starts.push(pairs.len());
        }

        // Pass 2: each consumer keeps the `max_per_consumer` smallest
        // (vector, producer, kind) entries of its candidate multiset, then
        // drops duplicates — sorted borrowed entries, no per-entry copy.
        let width = sets.width;
        let mut out = ReuseAnalysis {
            width,
            comps: Vec::with_capacity(bound * width),
            producers: Vec::with_capacity(bound),
            kinds: Vec::with_capacity(bound),
            starts: Vec::with_capacity(nrefs + 1),
        };
        out.starts.push(0);
        let mut merged: Vec<(&[i64], u32, ReuseKind)> = Vec::new();
        for c in 0..nrefs {
            merged.clear();
            for &(p, set) in &pairs[pair_starts[c]..pair_starts[c + 1]] {
                let zero_ok = self.zero_admitted(p as RefId, c);
                merged.extend(sets.admitted(set, zero_ok).map(|(v, k)| (v, p, k)));
            }
            if merged.len() > max_per_consumer {
                merged.select_nth_unstable(max_per_consumer);
                merged.truncate(max_per_consumer);
            }
            merged.sort_unstable();
            merged.dedup();
            for &(vector, p, kind) in &merged {
                out.comps.extend_from_slice(vector);
                out.producers.push(p);
                out.kinds.push(kind);
            }
            out.starts.push(out.producers.len());
        }
        out
    }

    /// Subscript-form variants of a reference: the original `(M, m)` plus
    /// every form obtainable by substituting RIS equality guards that pin a
    /// variable with a ±1 coefficient (e.g. `I₂ = I₁` from loop sinking).
    /// Each variant equals the original on the reference's RIS, so pairing
    /// through variants is sound — cold equations re-verify addresses with
    /// the *original* subscripts anyway.
    fn ref_variants(&self, r: RefId) -> Vec<(IMat, Vec<i64>)> {
        let program = self.program;
        let mut out = vec![subscript_parts(program, r)];
        // Substitutions from equality constraints of the RIS.
        let subs: Vec<(usize, Vec<i64>, i64)> = program
            .ris(r)
            .system()
            .constraints()
            .iter()
            .filter(|cst| cst.kind == ConstraintKind::Eq)
            .flat_map(|cst| {
                let e = cst.expr.coeffs().to_vec();
                let k = cst.expr.constant_term();
                let mut subs = Vec::new();
                for d in 0..e.len() {
                    if e[d].abs() != 1 {
                        continue;
                    }
                    // e·x + k = 0  ⇒  x_d = (−k − Σ_{j≠d} e_j x_j) / e_d
                    let s = e[d];
                    let mut repl: Vec<i64> = e.iter().map(|&ej| -ej * s).collect();
                    repl[d] = 0;
                    subs.push((d, repl, -k * s));
                }
                subs
            })
            .collect();
        // Closure under single substitutions, capped to keep things tiny.
        let mut frontier = 0;
        while frontier < out.len() && out.len() < 8 {
            let (m, off) = out[frontier].clone();
            frontier += 1;
            for (d, repl, k) in &subs {
                let mut rows: Vec<Vec<i64>> = Vec::with_capacity(m.rows());
                let mut offs = off.clone();
                let mut changed = false;
                for (row_i, off_i) in (0..m.rows()).zip(0..) {
                    let row = m.row(row_i);
                    let cd = row[*d];
                    let mut nr = row.to_vec();
                    if cd != 0 {
                        changed = true;
                        nr[*d] = 0;
                        for (j, rv) in repl.iter().enumerate() {
                            nr[j] += cd * rv;
                        }
                        offs[off_i] += cd * k;
                    }
                    rows.push(nr);
                }
                if changed {
                    let cand = (IMat::from_row_vecs(rows), offs);
                    if !out.contains(&cand) && out.len() < 8 {
                        out.push(cand);
                    }
                }
            }
        }
        out
    }

    /// Point-independent constraints on the reuse index part `y` implied by
    /// the two RISs: dimensions pinned to constants on both sides, and
    /// equality guards with identical coefficient shapes. Appended to every
    /// reuse equation so lattice solutions land where the producer instance
    /// actually exists.
    fn difference_constraints(&self, p: RefId, c: RefId) -> Vec<(Vec<i64>, i64)> {
        let program = self.program;
        let n = program.depth();
        let mut out: Vec<(Vec<i64>, i64)> = Vec::new();
        // Dimensions pinned by the bounding boxes on both sides.
        let bp = program.ris(p).bounding_box();
        let bc = program.ris(c).bounding_box();
        for d in 0..n {
            if bp[d].0 == bp[d].1 && bc[d].0 == bc[d].1 {
                let mut e = vec![0i64; n];
                e[d] = 1;
                out.push((e, bc[d].0 - bp[d].0));
            }
        }
        // Equality guards with matching coefficient vectors (sign-normalised).
        let eqs = |r: RefId| -> Vec<(Vec<i64>, i64)> {
            program
                .ris(r)
                .system()
                .constraints()
                .iter()
                .filter(|cst| cst.kind == ConstraintKind::Eq)
                .filter_map(|cst| {
                    let mut e = cst.expr.coeffs().to_vec();
                    let mut k = cst.expr.constant_term();
                    let lead = e.iter().find(|&&x| x != 0)?;
                    if *lead < 0 {
                        e = vecs::scale(&e, -1);
                        k = -k;
                    }
                    Some((e, k))
                })
                .collect()
        };
        let pe = eqs(p);
        for (ec, kc) in eqs(c) {
            for (ep, kp) in &pe {
                if *ep == ec {
                    // e·i = −k_c (consumer), e·(i−y) = −k_p (producer)
                    // ⇒ e·y = k_p − k_c.
                    out.push((ec.clone(), kp - kc));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All candidate vectors for one matched subscript form
    /// `(M, δ = m_p − m_c)` of a pair with the given shape, sorted and
    /// deduplicated. It reads nothing else — the line size in elements and
    /// the array's fixed first dimension aside — which is what lets callers
    /// memoise it per [`CandKey`]; the per-reference zero-vector rule is
    /// applied separately ([`Generator::zero_admitted`]).
    fn pair_candidates(
        &self,
        shape: &Shape,
        m: &IMat,
        delta: &[i64],
        ls_elems: i64,
        d1: Option<i64>,
        solvers: &mut SolverMap,
    ) -> Vec<(Vec<i64>, ReuseKind)> {
        let Shape { ld, feas, diff } = shape;
        let mut out = Vec::new();
        let mut push = |xs: Vec<Vec<i64>>, kind: ReuseKind| {
            for x in xs {
                let r = lex::interleave(ld, &x);
                if vecs::lex_nonneg(&r) && in_bounds(&x, feas) {
                    out.push((r, kind));
                }
            }
        };

        push(
            self.temporal_candidates(m, delta, diff, feas, solvers),
            ReuseKind::Temporal,
        );

        if ls_elems > 1 && m.rows() >= 1 {
            push(
                self.spatial_candidates(m, delta, ls_elems, diff, feas, solvers),
                ReuseKind::Spatial,
            );
            if m.rows() >= 2 {
                if let Some(d1) = d1 {
                    push(
                        self.cross_column_candidates(m, delta, ls_elems, d1, diff, feas, solvers),
                        ReuseKind::CrossColumnSpatial,
                    );
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Per-dimension feasibility window of the index part `x`: the shifted
    /// producer box must overlap the consumer box, so
    /// `x_d ∈ [c_lo − p_hi, c_hi − p_lo]`. Dimensions whose constraints are
    /// all single-variable on *both* sides are marked **uniform**: along
    /// such dimensions the feasible producer steps for any fixed consumer
    /// point form a contiguous interval, so the nearest step shadows the
    /// rest and deep enumeration is wasted work.
    fn pair_feasibility(&self, p: RefId, c: RefId) -> Feas {
        let pc = self.program.ris(c).bounding_box();
        let pp = self.program.ris(p).bounding_box();
        let bounds: Vec<(i64, i64)> = pc
            .iter()
            .zip(pp)
            .map(|(&(clo, chi), &(plo, phi))| (clo - phi, chi - plo))
            .collect();
        let n = bounds.len();
        let single_var = |r: RefId, d: usize| {
            self.program
                .ris(r)
                .system()
                .constraints()
                .iter()
                .all(|cst| {
                    cst.expr.coeff(d) == 0 || (0..n).all(|o| o == d || cst.expr.coeff(o) == 0)
                })
        };
        let uniform: Vec<bool> = (0..n)
            .map(|d| single_var(p, d) && single_var(c, d))
            .collect();
        Feas { bounds, uniform }
    }

    /// Whether the pair admits the zero vector. It denotes
    /// loop-independent reuse within one iteration point, which is only
    /// real when the producer executes lexically before the consumer.
    fn zero_admitted(&self, p: RefId, c: RefId) -> bool {
        self.program.reference(p).lex_rank < self.program.reference(c).lex_rank
    }

    /// Solutions of `M x = δ` (eq. 1) plus the pair's difference
    /// constraints: the solution lattice enumerated within the feasibility
    /// window (up to two simultaneous basis directions).
    fn temporal_candidates(
        &self,
        m: &IMat,
        delta: &[i64],
        diff: &[(Vec<i64>, i64)],
        bounds: &Feas,
        solvers: &mut SolverMap,
    ) -> Vec<Vec<i64>> {
        let (m, delta) = augment(m, delta, diff);
        let solver = solver_for(solvers, &m);
        let Some(sol) = solver.solve(&delta) else {
            return Vec::new();
        };
        let p0 = size_reduce(sol.particular.clone(), &sol.lattice);
        enumerate_lattice(&p0, &sol.lattice, bounds, CAND_CAP)
    }

    /// Solutions of eq. 2: `M' y = δ'` with the first-subscript distance
    /// `|M₁y − δ₁|` inside the line, excluding temporal solutions
    /// (`M₁y = δ₁`).
    fn spatial_candidates(
        &self,
        m: &IMat,
        delta: &[i64],
        ls_elems: i64,
        diff: &[(Vec<i64>, i64)],
        bounds: &Feas,
        solvers: &mut SolverMap,
    ) -> Vec<Vec<i64>> {
        let m_prime = m.without_row(0);
        let delta_prime = &delta[1..];
        let (m_prime, rhs) = augment(&m_prime, delta_prime, diff);
        let solver = solver_for(solvers, &m_prime);
        let w: Vec<i64> = m.row(0).to_vec();
        window_solutions(&solver, &rhs, &w, delta[0], ls_elems, true, bounds)
    }

    /// Cross-column candidates (Fig. 3): the producer's element sits in the
    /// adjacent column (`diff₂ = ±1`) within one line of the boundary:
    /// `|M₁y − (δ₁ + D₁·diff₂)| < L_s`, all other subscripts equal.
    #[allow(clippy::too_many_arguments)]
    fn cross_column_candidates(
        &self,
        m: &IMat,
        delta: &[i64],
        ls_elems: i64,
        d1: i64,
        diff: &[(Vec<i64>, i64)],
        bounds: &Feas,
        solvers: &mut SolverMap,
    ) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        for cdiff in [-1i64, 1] {
            // Exact rows: subscript 2 steps by cdiff, subscripts ≥ 3 equal.
            let mut rows: Vec<&[i64]> = Vec::with_capacity(m.rows() - 1);
            let mut rhs: Vec<i64> = Vec::with_capacity(m.rows() - 1);
            for d in 1..m.rows() {
                rows.push(m.row(d));
                rhs.push(if d == 1 { delta[1] - cdiff } else { delta[d] });
            }
            let m_sub = IMat::from_rows(&rows);
            let (m_sub, rhs) = augment(&m_sub, &rhs, diff);
            let solver = solver_for(solvers, &m_sub);
            let w: Vec<i64> = m.row(0).to_vec();
            let center = delta[0] + d1 * cdiff;
            out.extend(window_solutions(
                &solver, &rhs, &w, center, ls_elems, false, bounds,
            ));
        }
        out
    }
}

/// Cap on candidates per (pair, kind): a runaway lattice enumeration is a
/// symptom, not useful reuse.
const CAND_CAP: usize = 512;

/// Memoised Smith factorisations keyed by matrix shape + content: the same
/// (augmented) subscript matrix recurs for every reference pair of a
/// uniformly generated set, so the expensive decomposition runs once.
type SolverMap = HashMap<(usize, usize, Vec<i64>), Rc<SmithSolver>>;

/// A `u32` id for the `i`-th reference or interned item. Ids halve the
/// memo keys and the arena's producer column; nothing that fits in memory
/// comes near 2³² of them.
fn id(i: usize) -> u32 {
    u32::try_from(i).expect("fewer than 2^32 ids")
}

/// Everything a candidate set depends on, as interned ids: it is a pure
/// function of this key ([`Generator::pair_candidates`] reads nothing
/// else), so one solve serves every reference pair with the same key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CandKey {
    /// The statement pair's [`Shape`].
    shape: u32,
    /// The line size in elements (the only way the element size enters).
    ls_elems: i64,
    /// The array's fixed first dimension, if it has one.
    d1: Option<i64>,
    /// The matched subscript matrix `M`.
    form: u32,
    /// The offset delta `m_p − m_c`.
    delta: u32,
}

/// What a candidate set takes from its statement pair: the label distance
/// `ℓ_c − ℓ_p`, the feasibility window with its uniform flags, and the
/// difference constraints. Each depends on the two statements alone (a
/// reference's RIS is its statement's), so it is computed and interned
/// once per statement pair.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Shape {
    ld: Vec<i64>,
    feas: Feas,
    diff: Vec<(Vec<i64>, i64)>,
}

/// Interned [`Shape`]s, with the id of every statement pair seen.
#[derive(Default)]
struct Shapes {
    by_stmts: HashMap<(StmtId, StmtId), u32>,
    ids: HashMap<Shape, u32>,
    shapes: Vec<Shape>,
}

impl Shapes {
    /// The shape id of the pair `(p, c)`'s statements.
    fn of(&mut self, gen: &Generator<'_>, p: RefId, c: RefId) -> u32 {
        let program = gen.program;
        let stmts = (program.reference(p).stmt, program.reference(c).stmt);
        if let Some(&known) = self.by_stmts.get(&stmts) {
            return known;
        }
        let shape = Shape {
            ld: vecs::sub(
                &program.statement(stmts.1).label,
                &program.statement(stmts.0).label,
            ),
            feas: gen.pair_feasibility(p, c),
            diff: gen.difference_constraints(p, c),
        };
        let next = id(self.shapes.len());
        let interned = *self.ids.entry(shape).or_insert_with_key(|shape| {
            self.shapes.push(shape.clone());
            next
        });
        self.by_stmts.insert(stmts, interned);
        interned
    }

    fn get(&self, id: u32) -> &Shape {
        &self.shapes[id as usize]
    }
}

/// Every solved candidate set, stored flat: set `s` is vectors
/// `first .. first + len` of `sets[s]`, `2n` components each, sorted, its
/// `zeros` all-zero vectors (if any) first.
struct CandidateSets {
    width: usize,
    comps: Vec<i64>,
    kinds: Vec<ReuseKind>,
    /// Per set: `(first, len, zeros)`.
    sets: Vec<(usize, usize, usize)>,
}

impl CandidateSets {
    fn new(width: usize) -> Self {
        CandidateSets {
            width,
            comps: Vec::new(),
            kinds: Vec::new(),
            sets: Vec::new(),
        }
    }

    /// Stores one sorted candidate list and returns its id.
    fn push(&mut self, cands: Vec<(Vec<i64>, ReuseKind)>) -> u32 {
        let first = self.kinds.len();
        // Lex-non-negative vectors sort after the zero vector.
        let zeros = cands.iter().take_while(|(v, _)| vecs::is_zero(v)).count();
        for (v, kind) in &cands {
            self.comps.extend_from_slice(v);
            self.kinds.push(*kind);
        }
        self.sets.push((first, cands.len(), zeros));
        id(self.sets.len() - 1)
    }

    /// The vectors of `set` a pair keeps: all, or all but the zero vectors.
    fn admitted(&self, set: u32, zero_ok: bool) -> impl Iterator<Item = (&[i64], ReuseKind)> {
        let (first, len, zeros) = self.sets[set as usize];
        let skip = if zero_ok { 0 } else { zeros };
        (first + skip..first + len).map(|i| {
            (
                &self.comps[i * self.width..(i + 1) * self.width],
                self.kinds[i],
            )
        })
    }

    fn admitted_len(&self, set: u32, zero_ok: bool) -> usize {
        let (_, len, zeros) = self.sets[set as usize];
        if zero_ok {
            len
        } else {
            len - zeros
        }
    }
}

fn solver_for(cache: &mut SolverMap, m: &IMat) -> Rc<SmithSolver> {
    let mut flat = Vec::with_capacity(m.rows() * m.cols());
    for r in 0..m.rows() {
        flat.extend_from_slice(m.row(r));
    }
    cache
        .entry((m.rows(), m.cols(), flat))
        .or_insert_with(|| Rc::new(SmithSolver::new(m)))
        .clone()
}

/// The per-pair feasibility window: per-dimension step bounds plus the
/// box-uniformity flags (see `pair_feasibility`).
#[derive(Clone, PartialEq, Eq, Hash)]
struct Feas {
    bounds: Vec<(i64, i64)>,
    uniform: Vec<bool>,
}

/// Whether every component of `x` lies within the per-dimension window.
fn in_bounds(x: &[i64], feas: &Feas) -> bool {
    x.iter()
        .zip(&feas.bounds)
        .all(|(&v, &(lo, hi))| lo <= v && v <= hi)
}

/// The integer range of `k` keeping `base + k·b` inside `bounds` on every
/// dimension `b` touches; `None` when empty (or `b` is the zero vector,
/// which spans no range).
fn step_range(base: &[i64], b: &[i64], feas: &Feas) -> Option<(i64, i64)> {
    let mut lo = i64::MIN;
    let mut hi = i64::MAX;
    let mut touched = false;
    let mut all_uniform = true;
    for d in 0..b.len() {
        if b[d] == 0 {
            continue;
        }
        touched = true;
        all_uniform &= feas.uniform[d];
        let (blo, bhi) = feas.bounds[d];
        let (a, z) = (
            cme_poly::vector::div_ceil(blo - base[d], b[d]),
            cme_poly::vector::div_floor(bhi - base[d], b[d]),
        );
        let (a, z) = if a <= z { (a, z) } else { (z, a) };
        lo = lo.max(a);
        hi = hi.min(z);
    }
    if !touched || lo > hi {
        return None;
    }
    // Box-uniform directions: the nearest feasible step shadows deeper
    // ones (contiguous feasibility for any fixed consumer point), so a
    // small neighbourhood suffices.
    let clamp = if all_uniform { UNIFORM_STEP } else { MAX_STEP };
    let (lo, hi) = (lo.max(-clamp), hi.min(clamp));
    if lo > hi {
        None
    } else {
        Some((lo, hi))
    }
}

/// Step clamp along box-uniform direction combinations.
const UNIFORM_STEP: i64 = 2;

/// Safety clamp on lattice steps (beyond any realistic loop extent).
const MAX_STEP: i64 = 4096;

/// Enumerates lattice points `p0 + k₁·bᵢ (+ k₂·bⱼ)` inside `bounds`: the
/// base point, bounded single-direction steps, and bounded two-direction
/// combinations. Steps are explored small-|k| first so a budget cut keeps
/// the useful (small) candidates; the result is then sorted by L1 norm and
/// truncated to `cap`.
fn enumerate_lattice(p0: &[i64], basis: &[Vec<i64>], bounds: &Feas, cap: usize) -> Vec<Vec<i64>> {
    let budget = cap.saturating_mul(2);
    // Bound the raw exploration too: wide feasibility windows would
    // otherwise make each call O(range²) regardless of how many distinct
    // points it finds.
    let mut trials = 8_192usize;
    let mut out: HashSet<Vec<i64>> = HashSet::new();
    if in_bounds(p0, bounds) {
        out.insert(p0.to_vec());
    }
    'outer: for (i, bi) in basis.iter().enumerate() {
        let Some((lo, hi)) = step_range(p0, bi, bounds) else {
            continue;
        };
        for k1 in ordered_ks(lo, hi) {
            let x1 = vecs::add(p0, &vecs::scale(bi, k1));
            trials = match trials.checked_sub(1) {
                Some(t) => t,
                None => break 'outer,
            };
            if in_bounds(&x1, bounds) {
                out.insert(x1.clone());
                if out.len() >= budget {
                    break 'outer;
                }
            }
            for bj in basis.iter().skip(i + 1) {
                let Some((lo2, hi2)) = step_range(&x1, bj, bounds) else {
                    continue;
                };
                for k2 in ordered_ks(lo2, hi2) {
                    let x2 = vecs::add(&x1, &vecs::scale(bj, k2));
                    trials = match trials.checked_sub(1) {
                        Some(t) => t,
                        None => break 'outer,
                    };
                    if in_bounds(&x2, bounds) {
                        out.insert(x2);
                        if out.len() >= budget {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    let mut out: Vec<Vec<i64>> = out.into_iter().collect();
    out.sort_by(|a, b| l1(a).cmp(&l1(b)).then_with(|| a.cmp(b)));
    out.truncate(cap);
    out
}

/// Yields the non-zero integers of `[lo, hi]` in increasing |k| order:
/// 1, −1, 2, −2, … (clipped to the interval).
fn ordered_ks(lo: i64, hi: i64) -> impl Iterator<Item = i64> {
    let radius = lo.abs().max(hi.abs());
    (1..=radius)
        .flat_map(|m| [m, -m])
        .filter(move |&k| k >= lo && k <= hi && k != 0)
}

fn l1(x: &[i64]) -> i64 {
    x.iter().map(|v| v.abs()).sum()
}

fn finish(mut out: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
    out.sort_unstable();
    out.dedup();
    out
}

/// Stacks difference-constraint rows under a system.
fn augment(m: &IMat, rhs: &[i64], diff: &[(Vec<i64>, i64)]) -> (IMat, Vec<i64>) {
    if diff.is_empty() {
        return (m.clone(), rhs.to_vec());
    }
    let mut rows: Vec<&[i64]> = (0..m.rows()).map(|r| m.row(r)).collect();
    let mut out_rhs = rhs.to_vec();
    for (e, k) in diff {
        rows.push(e);
        out_rhs.push(*k);
    }
    (IMat::from_rows(&rows), out_rhs)
}

/// Size-reduces a particular solution against a lattice basis (a few passes
/// of integer Gram-Schmidt rounding) so candidate vectors stay small.
fn size_reduce(mut p: Vec<i64>, basis: &[Vec<i64>]) -> Vec<i64> {
    for _ in 0..4 {
        let mut changed = false;
        for b in basis {
            let bb = vecs::dot(b, b);
            if bb == 0 {
                continue;
            }
            let pb = vecs::dot(&p, b);
            // round(pb / bb)
            let k = {
                let q = pb / bb;
                let r = pb - q * bb;
                if 2 * r.abs() > bb {
                    q + r.signum()
                } else {
                    q
                }
            };
            if k != 0 {
                p = vecs::sub(&p, &vecs::scale(b, k));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    p
}

/// Integer `y` with `M y = rhs`, `|w·y − center| < radius` and every
/// component inside `bounds`; when `exclude_center` is set, solutions with
/// `w·y = center` exactly are dropped (they are temporal, not spatial).
///
/// Basis directions with `w·b ≠ 0` are enumerated inside the window; the
/// remaining directions are enumerated inside the feasibility bounds, and
/// one direction of each kind may combine.
#[allow(clippy::too_many_arguments)]
fn window_solutions(
    solver: &SmithSolver,
    rhs: &[i64],
    w: &[i64],
    center: i64,
    radius: i64,
    exclude_center: bool,
    bounds: &Feas,
) -> Vec<Vec<i64>> {
    let Some(sol) = solver.solve(rhs) else {
        return Vec::new();
    };
    let p0 = size_reduce(sol.particular.clone(), &sol.lattice);
    let in_window = |y: &[i64]| {
        let v = vecs::dot(w, y);
        (v - center).abs() < radius && !(exclude_center && v == center)
    };
    let (w_zero, w_active): (Vec<&Vec<i64>>, Vec<&Vec<i64>>) =
        sol.lattice.iter().partition(|b| vecs::dot(w, b) == 0);

    // Seeds: p0 plus bounded steps along the window-neutral directions,
    // in increasing L1 order so small (useful) candidates come first.
    let zero_basis: Vec<Vec<i64>> = w_zero.into_iter().cloned().collect();
    let mut seeds = enumerate_lattice(&p0, &zero_basis, bounds, 64);
    if seeds.is_empty() {
        // p0 itself may be out of bounds, yet a window step can re-enter.
        seeds.push(p0.clone());
    }

    let mut out: Vec<Vec<i64>> = Vec::new();
    for seed in &seeds {
        if in_window(seed) && in_bounds(seed, bounds) {
            out.push(seed.clone());
        }
        for b in &w_active {
            let a = vecs::dot(w, b);
            let base = vecs::dot(w, seed);
            // |base + k·a − center| < radius
            let lo = vecs::div_ceil(center - radius + 1 - base, a);
            let hi = vecs::div_floor(center + radius - 1 - base, a);
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            for k in lo.max(-MAX_STEP)..=hi.min(MAX_STEP) {
                if k == 0 {
                    continue;
                }
                let y = vecs::add(seed, &vecs::scale(b, k));
                if in_window(&y) && in_bounds(&y, bounds) {
                    out.push(y);
                    if out.len() >= CAND_CAP {
                        return finish(out);
                    }
                }
            }
        }
        if out.len() >= CAND_CAP {
            break;
        }
    }
    finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{LinExpr, LinRel, ProgramBuilder, RelOp, SNode, SRef};

    /// The Figure 1/2 program (N parametric), with its five statements.
    fn figure2_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new("fig2");
        b.array("A", &[n], 8);
        b.array("B", &[n, n], 8);
        let i1 = LinExpr::var("I1");
        let i2 = LinExpr::var("I2");
        b.push(SNode::loop_(
            "I1",
            2,
            n,
            vec![
                SNode::assign(SRef::new("A", vec![i1.offset(-1)]), vec![]).labelled("S1"),
                SNode::loop_(
                    "I2",
                    i1.clone(),
                    n,
                    vec![SNode::assign(
                        SRef::new("B", vec![i2.offset(-1), i1.clone()]),
                        vec![SRef::new("A", vec![i2.offset(-1)])],
                    )
                    .labelled("S2")],
                ),
                SNode::loop_(
                    "I2",
                    1,
                    n,
                    vec![
                        SNode::reads_only(vec![SRef::new("B", vec![i2.clone(), i1.clone()])])
                            .labelled("S3"),
                        SNode::if_(
                            vec![LinRel::new(i2.clone(), RelOp::Eq, LinExpr::constant(n))],
                            vec![SNode::reads_only(vec![SRef::new("A", vec![i1.clone()])])
                                .labelled("S4")],
                        ),
                    ],
                ),
            ],
        ));
        b.push(SNode::loop_(
            "I1",
            1,
            n - 1,
            vec![SNode::assign(SRef::new("A", vec![i1.offset(1)]), vec![]).labelled("S5")],
        ));
        b.build().unwrap()
    }

    fn find_ref(p: &Program, display: &str) -> RefId {
        (0..p.references().len())
            .find(|&r| p.reference(r).display == display)
            .unwrap_or_else(|| panic!("no reference {display}"))
    }

    /// §3.5 worked example: the unique temporal reuse vector from
    /// B(I2−1,I1) to B(I2,I1) is (0,0,1,−1).
    #[test]
    fn paper_temporal_vector_for_b() {
        let p = figure2_program(10);
        let ra = ReuseAnalysis::analyze(&p, 32); // Ls = 4 elements
        let prod = find_ref(&p, "B(I2 - 1,I1)");
        let cons = find_ref(&p, "B(I2,I1)");
        let vecs: Vec<_> = ra
            .for_consumer(cons)
            .filter(|v| v.producer == prod && v.kind == ReuseKind::Temporal)
            .collect();
        assert_eq!(vecs.len(), 1);
        assert_eq!(vecs[0].vector, vec![0, 0, 1, -1]);
        assert_eq!(vecs[0].class, ReuseClass::Group);
    }

    /// §3.5: spatial vectors (0,0,1,−2), (0,0,1,−3) for Ls = 4 (our
    /// generator may add same-line candidates on the other side; the paper's
    /// must be present).
    #[test]
    fn paper_spatial_family_for_b() {
        let p = figure2_program(10);
        let ra = ReuseAnalysis::analyze(&p, 32);
        let prod = find_ref(&p, "B(I2 - 1,I1)");
        let cons = find_ref(&p, "B(I2,I1)");
        let spatial: Vec<Vec<i64>> = ra
            .for_consumer(cons)
            .filter(|v| v.producer == prod && v.kind == ReuseKind::Spatial)
            .map(|v| v.vector.to_vec())
            .collect();
        assert!(spatial.contains(&vec![0, 0, 1, -2]), "{spatial:?}");
        assert!(spatial.contains(&vec![0, 0, 1, -3]), "{spatial:?}");
        // The temporal solution must not reappear as spatial.
        assert!(!spatial.contains(&vec![0, 0, 1, -1]), "{spatial:?}");
    }

    /// §3.5 / Fig. 3: the cross-column self-reuse vector (0,1,0,1−N).
    #[test]
    fn paper_cross_column_vector() {
        let n = 10;
        let p = figure2_program(n);
        let ra = ReuseAnalysis::analyze(&p, 32);
        let b_cons = find_ref(&p, "B(I2,I1)");
        let cross: Vec<Vec<i64>> = ra
            .for_consumer(b_cons)
            .filter(|v| v.kind == ReuseKind::CrossColumnSpatial && v.class == ReuseClass::SelfReuse)
            .map(|v| v.vector.to_vec())
            .collect();
        assert!(
            cross.contains(&vec![0, 1, 0, 1 - n]),
            "expected (0,1,0,{}) in {cross:?}",
            1 - n
        );
    }

    /// Group temporal reuse across nests in the A set: S1's A(I1−1) write is
    /// reused by S5's A(I1+1) two outer iterations later, one nest over:
    /// r = (1, −2, …).
    #[test]
    fn cross_nest_group_temporal() {
        let p = figure2_program(10);
        let ra = ReuseAnalysis::analyze(&p, 32);
        let prod = find_ref(&p, "A(I1 - 1)");
        let cons = find_ref(&p, "A(I1 + 1)");
        let vs: Vec<Vec<i64>> = ra
            .for_consumer(cons)
            .filter(|v| v.producer == prod && v.kind == ReuseKind::Temporal)
            .map(|v| v.vector.to_vec())
            .collect();
        assert!(
            vs.iter().any(|v| v[0] == 1 && v[1] == -2),
            "expected (1,-2,·,·) in {vs:?}"
        );
    }

    /// Self-temporal reuse of A(I2−1) in S2 along the outer loop: the
    /// subscript ignores I1, so (0,1,0,0) is a self reuse direction.
    #[test]
    fn self_temporal_from_null_space() {
        let p = figure2_program(10);
        let ra = ReuseAnalysis::analyze(&p, 32);
        let r = find_ref(&p, "A(I2 - 1)");
        let vs: Vec<Vec<i64>> = ra
            .for_consumer(r)
            .filter(|v| v.class == ReuseClass::SelfReuse && v.kind == ReuseKind::Temporal)
            .map(|v| v.vector.to_vec())
            .collect();
        assert!(vs.contains(&vec![0, 1, 0, 0]), "{vs:?}");
    }

    /// Vectors for each consumer come out sorted by lexicographic order.
    #[test]
    fn consumer_lists_sorted() {
        let p = figure2_program(8);
        let ra = ReuseAnalysis::analyze(&p, 32);
        for r in 0..p.references().len() {
            let vs: Vec<ReuseVector> = ra.for_consumer(r).collect();
            for w in vs.windows(2) {
                assert_ne!(
                    vecs::lex_cmp(w[0].vector, w[1].vector),
                    std::cmp::Ordering::Greater
                );
            }
            // All lex-nonnegative.
            for v in &vs {
                assert!(vecs::lex_nonneg(v.vector), "{:?}", v.vector);
            }
        }
    }

    /// Zero vectors only appear with a lexically earlier producer.
    #[test]
    fn zero_vector_requires_lexical_order() {
        // A(I) read then written in one statement: read (producer, rank 0)
        // → write (consumer, rank 1) gets r = 0; the reverse must not.
        let mut b = ProgramBuilder::new("rw");
        b.array("A", &[8], 8);
        let i = LinExpr::var("I");
        b.push(SNode::loop_(
            "I",
            1,
            8,
            vec![SNode::assign(
                SRef::new("A", vec![i.clone()]),
                vec![SRef::new("A", vec![i.clone()])],
            )],
        ));
        let p = b.build().unwrap();
        let ra = ReuseAnalysis::analyze(&p, 32);
        let zero_to_write: Vec<_> = ra.for_consumer(1).filter(|v| v.is_zero()).collect();
        assert_eq!(zero_to_write.len(), 1);
        assert_eq!(zero_to_write[0].producer, 0);
        let zero_to_read: Vec<_> = ra.for_consumer(0).filter(|v| v.is_zero()).collect();
        assert!(zero_to_read.is_empty());
    }

    /// Scalar self reuse: unit steps at every depth are generated.
    #[test]
    fn scalar_reuse_directions() {
        let mut b = ProgramBuilder::new("scalar");
        b.scalar("X", 8);
        b.scalars_in_memory();
        b.push(SNode::loop_(
            "I",
            1,
            4,
            vec![SNode::loop_(
                "J",
                1,
                4,
                vec![SNode::reads_only(vec![SRef::scalar("X")])],
            )],
        ));
        let p = b.build().unwrap();
        let ra = ReuseAnalysis::analyze(&p, 32);
        let vs: Vec<Vec<i64>> = ra.for_consumer(0).map(|v| v.vector.to_vec()).collect();
        // Innermost step (0,0,0,1) must be first in lex order.
        assert_eq!(vs[0], vec![0, 0, 0, 1]);
        assert!(vs.contains(&vec![0, 1, 0, 0]) || vs.contains(&vec![0, 1, 0, -1]));
    }

    /// A cap keeps each consumer's nearest vectors: its list is a prefix of
    /// the uncapped one, and a cap of 0 keeps none (every point is cold).
    #[test]
    fn capped_lists_are_prefixes_of_the_uncapped_ones() {
        let p = cme_workloads::hydro(10, 10);
        let full = ReuseAnalysis::analyze(&p, 32);
        for cap in [0, 1, 4, 16, 128] {
            let capped = ReuseAnalysis::analyze_capped(&p, 32, cap);
            let mut total = 0;
            for r in 0..p.references().len() {
                let kept: Vec<ReuseVector> = capped.for_consumer(r).collect();
                let all: Vec<ReuseVector> = full.for_consumer(r).collect();
                assert!(kept.len() <= cap, "cap {cap}, R{r}: {} kept", kept.len());
                assert_eq!(kept[..], all[..kept.len()], "cap {cap}, R{r}");
                // Dedup runs after the cap, so duplicates may leave fewer
                // than `cap`, but any positive cap keeps the nearest vector.
                assert_eq!(
                    kept.is_empty(),
                    cap == 0 || all.is_empty(),
                    "cap {cap}, R{r}"
                );
                total += kept.len();
            }
            assert_eq!(capped.vectors().len(), total);
        }
        assert_eq!(ReuseAnalysis::analyze_capped(&p, 32, 0).vectors().len(), 0);
    }

    /// The view iterators agree with the per-consumer counts, and the
    /// analysis reports its flat buffers' bytes.
    #[test]
    fn flat_storage_views_and_bytes() {
        let p = figure2_program(10);
        let ra = ReuseAnalysis::analyze(&p, 32);
        let mut seen = 0;
        for r in 0..p.references().len() {
            assert_eq!(ra.for_consumer(r).len(), ra.consumer_len(r));
            for v in ra.for_consumer(r) {
                assert_eq!(v.consumer, r);
                assert_eq!(v.vector.len(), 2 * p.depth());
                assert_eq!(Some(v), ra.vectors().nth(seen));
                seen += 1;
            }
        }
        assert_eq!(ra.vectors().len(), seen);
        assert!(ra.heap_bytes() >= seen * (16 * p.depth() + 5));
    }

    /// MMT situation: references to the same array with *different*
    /// matrices (B(K,J) vs WB(J−J2+1,K−K2+1)) are not uniformly generated —
    /// no group vectors between them.
    #[test]
    fn non_uniform_refs_get_no_group_vectors() {
        let mut b = ProgramBuilder::new("nonuni");
        b.array("B", &[8, 8], 8);
        let i = LinExpr::var("I");
        let j = LinExpr::var("J");
        b.push(SNode::loop_(
            "I",
            1,
            8,
            vec![SNode::loop_(
                "J",
                1,
                8,
                vec![SNode::reads_only(vec![
                    SRef::new("B", vec![i.clone(), j.clone()]),
                    SRef::new("B", vec![j.clone(), i.clone()]),
                ])],
            )],
        ));
        let p = b.build().unwrap();
        let ra = ReuseAnalysis::analyze(&p, 32);
        for v in ra.vectors() {
            assert_eq!(
                v.producer == 0,
                v.consumer == 0,
                "group vector between non-uniform refs: {v}"
            );
        }
    }
}
