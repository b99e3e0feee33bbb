//! The normalised, analysis-ready program representation.
//!
//! After the five normalisation steps of §3.1 a program is a *forest* of
//! `n`-deep loop nests: every loop has unit step, every statement sits at
//! depth `n`, and the loop variable at depth `k` is canonically `I_k`
//! (variable index `k − 1` in the [`cme_poly::Affine`] encodings). Statement
//! instances are identified by the interleaved iteration vectors of §3.2 and
//! the set of instances at which a reference is accessed is its *reference
//! iteration space* (RIS, §3.3), materialised here as a
//! [`cme_poly::Space`].

use crate::ast::DimSize;
use crate::error::IrError;
use cme_poly::{lex, Affine, Constraint, ConstraintSystem, Space};

/// Index of an array in a [`Program`].
pub type ArrayId = usize;
/// Index of a statement in a [`Program`].
pub type StmtId = usize;
/// Index of a reference in a [`Program`].
pub type RefId = usize;

/// Where an array's storage lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// The array owns storage; the layout assigns it a base address.
    Owned,
    /// The array is an alias created by abstract inlining's *renaming*
    /// (Fig. 5 of the paper: `@B = @B1 = @B2`); it shares the base address
    /// of the referenced array.
    AliasOf(ArrayId),
}

/// An array (or scalar: zero dimensions) of the normalised program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Array {
    /// Name (unique in the program).
    pub name: String,
    /// Element size in bytes.
    pub elem_bytes: u32,
    /// Column-major dimensions. Only the last may be [`DimSize::Assumed`].
    pub dims: Vec<DimSize>,
    /// Owned storage or alias.
    pub storage: Storage,
}

impl Array {
    /// Column-major strides in elements (`stride[0] = 1`).
    ///
    /// The last dimension never contributes to a stride, so assumed-size
    /// arrays still have well-defined addressing.
    ///
    /// # Panics
    ///
    /// Panics if a non-last dimension is assumed-size (rejected earlier by
    /// construction).
    pub fn strides(&self) -> Vec<i64> {
        let mut strides = Vec::with_capacity(self.dims.len());
        let mut acc = 1i64;
        for (i, d) in self.dims.iter().enumerate() {
            strides.push(acc);
            if i + 1 < self.dims.len() {
                acc *= d
                    .fixed()
                    .expect("non-last dimension must have a fixed size");
            }
        }
        strides
    }

    /// Total size in elements; `None` for assumed-size arrays.
    pub fn total_elems(&self) -> Option<i64> {
        let mut total = 1i64;
        for d in &self.dims {
            total = total.checked_mul(d.fixed()?)?;
        }
        Some(total)
    }

    /// Total size in bytes; `None` for assumed-size arrays.
    pub fn total_bytes(&self) -> Option<i64> {
        self.total_elems().map(|e| e * self.elem_bytes as i64)
    }
}

/// A loop of the normalised forest. The loop's *label component* is its
/// 1-based position among its siblings; its depth is its distance from the
/// root plus one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNode {
    /// Lower bound; an affine expression over the `n` canonical variables
    /// that may only use variables of strictly shallower depths.
    pub lb: Affine,
    /// Upper bound; same variable discipline as `lb`.
    pub ub: Affine,
    /// Loops at the next depth (empty exactly at depth `n`).
    pub inner: Vec<LoopNode>,
    /// Statements directly inside this loop (non-empty only at depth `n`).
    pub stmts: Vec<StmtId>,
}

/// A statement of the normalised program: all its references execute at the
/// same iteration points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// The loop label vector `(ℓ₁, …, ℓ_n)` of the innermost loop containing
    /// the statement.
    pub label: Vec<i64>,
    /// Guard: conjunction of affine constraints over the canonical index
    /// variables; the statement executes only where all hold.
    pub guard: Vec<Constraint>,
    /// The statement's references in access order (reads before the write).
    pub refs: Vec<RefId>,
    /// Optional debugging name (`"S1"`).
    pub name: Option<String>,
}

/// Whether a reference reads or writes memory. With the fetch-on-write
/// policy of §2, reads and writes are *modelled* identically; the
/// distinction is kept for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (fetch-on-write: misses fetch the line like a load).
    Write,
}

/// A static memory reference of the normalised program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// The accessed array.
    pub array: ArrayId,
    /// Affine subscripts over the canonical variables, one per dimension
    /// (empty for scalars).
    pub subs: Vec<Affine>,
    /// Read or write.
    pub kind: AccessKind,
    /// Owning statement.
    pub stmt: StmtId,
    /// Global lexical rank: the position of this reference in program text
    /// order. Determines the open/closed ends of interference intervals
    /// (§4.1.2).
    pub lex_rank: usize,
    /// Human-readable form, e.g. `"B(I2-1,I1)"`.
    pub display: String,
}

/// A normalised program: the unit of cache-behaviour analysis.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    depth: usize,
    arrays: Vec<Array>,
    roots: Vec<LoopNode>,
    stmts: Vec<Statement>,
    refs: Vec<Reference>,
    /// Byte base address per array (aliases share their target's).
    layout: Vec<i64>,
    /// RIS per reference.
    ris: Vec<Space>,
    /// Per-reference byte address as one affine form over the `n` index
    /// variables: base + column-major subscript linearisation folded into a
    /// single coefficient vector. Evaluating this is the whole address
    /// computation — no stride recomputation per access.
    addr_plans: Vec<Affine>,
}

impl Program {
    /// Assembles a program from normalised parts, assigning the memory
    /// layout and materialising every reference iteration space.
    ///
    /// `layout_base` is the byte address of the first owned array.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] if a RIS is unbounded, a subscript arity is
    /// wrong, a bound uses a variable of its own or a deeper depth, or an
    /// alias chain is broken.
    pub fn from_parts(
        name: impl Into<String>,
        depth: usize,
        arrays: Vec<Array>,
        roots: Vec<LoopNode>,
        stmts: Vec<Statement>,
        refs: Vec<Reference>,
        layout_base: i64,
    ) -> Result<Self, IrError> {
        let mut prog = Program {
            name: name.into(),
            depth,
            arrays,
            roots,
            stmts,
            refs,
            layout: Vec::new(),
            ris: Vec::new(),
            addr_plans: Vec::new(),
        };
        prog.validate()?;
        prog.layout = assign_layout(&prog.arrays, layout_base)?;
        prog.ris = prog
            .refs
            .iter()
            .map(|r| prog.build_ris(r))
            .collect::<Result<Vec<_>, _>>()?;
        prog.rebuild_addr_plans();
        Ok(prog)
    }

    /// Folds layout, strides and subscripts into one affine form per
    /// reference. Must be re-run whenever `layout` changes.
    fn rebuild_addr_plans(&mut self) {
        self.addr_plans = self
            .refs
            .iter()
            .map(|rf| {
                let arr = &self.arrays[rf.array];
                let strides = arr.strides();
                let mut plan = Affine::constant(self.depth, self.layout[rf.array]);
                for (d, sub) in rf.subs.iter().enumerate() {
                    let byte_stride = strides[d] * arr.elem_bytes as i64;
                    plan = plan.add(&sub.offset(-1).scale(byte_stride));
                }
                plan
            })
            .collect();
    }

    fn validate(&self) -> Result<(), IrError> {
        // Bounds discipline + forest depth.
        fn check_loop(l: &LoopNode, depth: usize, n: usize) -> Result<(), IrError> {
            for b in [&l.lb, &l.ub] {
                if b.nvars() != n {
                    return Err(IrError::Invalid {
                        message: format!("loop bound over {} vars, expected {n}", b.nvars()),
                    });
                }
                if let Some(h) = b.highest_var() {
                    if h + 1 >= depth {
                        return Err(IrError::Invalid {
                            message: format!(
                                "bound at depth {depth} uses variable I{} (must be outer)",
                                h + 1
                            ),
                        });
                    }
                }
            }
            if depth == n {
                if !l.inner.is_empty() {
                    return Err(IrError::Invalid {
                        message: "loop at maximal depth has inner loops".into(),
                    });
                }
            } else {
                if !l.stmts.is_empty() {
                    return Err(IrError::Invalid {
                        message: "statement above maximal depth (normalise first)".into(),
                    });
                }
                if l.inner.is_empty() {
                    return Err(IrError::Invalid {
                        message: format!("loop at depth {depth} has no inner loops"),
                    });
                }
                for inner in &l.inner {
                    check_loop(inner, depth + 1, n)?;
                }
            }
            Ok(())
        }
        for root in &self.roots {
            check_loop(root, 1, self.depth)?;
        }
        // References.
        for r in &self.refs {
            let arr = self.arrays.get(r.array).ok_or_else(|| IrError::Invalid {
                message: format!("reference to unknown array id {}", r.array),
            })?;
            if r.subs.len() != arr.dims.len() {
                return Err(IrError::SubscriptArity {
                    array: arr.name.clone(),
                    found: r.subs.len(),
                    declared: arr.dims.len(),
                });
            }
            if self.stmts.get(r.stmt).is_none() {
                return Err(IrError::Invalid {
                    message: "reference points at unknown statement".into(),
                });
            }
        }
        // Statements.
        for s in &self.stmts {
            if s.label.len() != self.depth {
                return Err(IrError::Invalid {
                    message: "statement label length differs from program depth".into(),
                });
            }
        }
        // Alias chains resolve to owned arrays in one hop.
        for a in &self.arrays {
            if let Storage::AliasOf(t) = a.storage {
                match self.arrays.get(t).map(|x| x.storage) {
                    Some(Storage::Owned) => {}
                    _ => {
                        return Err(IrError::Invalid {
                            message: format!("array `{}` aliases a non-owned array", a.name),
                        })
                    }
                }
            }
        }
        Ok(())
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Normalised loop depth `n`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// All arrays.
    pub fn arrays(&self) -> &[Array] {
        &self.arrays
    }

    /// One array.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn array(&self, id: ArrayId) -> &Array {
        &self.arrays[id]
    }

    /// The top-level loops (label component `ℓ₁` = 1-based position).
    pub fn roots(&self) -> &[LoopNode] {
        &self.roots
    }

    /// All statements.
    pub fn statements(&self) -> &[Statement] {
        &self.stmts
    }

    /// One statement.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn statement(&self, id: StmtId) -> &Statement {
        &self.stmts[id]
    }

    /// All references.
    pub fn references(&self) -> &[Reference] {
        &self.refs
    }

    /// One reference.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn reference(&self, id: RefId) -> &Reference {
        &self.refs[id]
    }

    /// The byte base address of an array (aliases resolve to their target).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn base_address(&self, id: ArrayId) -> i64 {
        self.layout[id]
    }

    /// The reference iteration space of `r` over the `n` index variables.
    /// The loop-label part of the iteration vector is constant per
    /// statement and kept in [`Statement::label`].
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn ris(&self, r: RefId) -> &Space {
        &self.ris[r]
    }

    /// Materialises `RIS_r` as one contiguous row-major buffer
    /// ([`Program::depth`] entries per point, lexicographic order) and
    /// returns it with the point count. This is the segmentation every
    /// chunked classification engine indexes by fixed-size windows.
    /// Zero-depth programs return an empty buffer and zero points.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn flat_ris(&self, r: RefId) -> (Vec<i64>, usize) {
        let dim = self.depth();
        let mut flat = Vec::new();
        self.ris(r).for_each_point(|p| flat.extend_from_slice(p));
        let npoints = flat.len().checked_div(dim).unwrap_or(0);
        (flat, npoints)
    }

    /// The loop chain for a statement label, outermost first.
    ///
    /// # Panics
    ///
    /// Panics if the label does not name a loop path of this program.
    pub fn loop_path(&self, label: &[i64]) -> Vec<&LoopNode> {
        let mut path = Vec::with_capacity(label.len());
        let mut level = &self.roots;
        for &l in label {
            let node = &level[(l - 1) as usize];
            path.push(node);
            level = &node.inner;
        }
        path
    }

    /// The linear element index (0-based, column-major) accessed by `r` at
    /// index point `point`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.depth()`.
    pub fn elem_index(&self, r: RefId, point: &[i64]) -> i64 {
        let rf = &self.refs[r];
        let arr = &self.arrays[rf.array];
        let strides = arr.strides();
        let mut idx = 0i64;
        for (d, sub) in rf.subs.iter().enumerate() {
            idx += (sub.eval(point) - 1) * strides[d];
        }
        idx
    }

    /// The byte address accessed by `r` at index point `point`. One affine
    /// evaluation over the precomputed [`Program::addr_plan`].
    #[inline]
    pub fn byte_address(&self, r: RefId, point: &[i64]) -> i64 {
        self.addr_plans[r].eval(point)
    }

    /// The precomputed byte-address affine form of reference `r`: constant
    /// term is the address at the all-zero index point, coefficient `d` is
    /// the byte stride per unit of `I_{d+1}`. The walkers and the classifier
    /// use this for incremental line computation along the innermost
    /// dimension.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn addr_plan(&self, r: RefId) -> &Affine {
        &self.addr_plans[r]
    }

    /// `Mem_Line_R(i)`: the memory line touched by `r` at `point` for a
    /// given line size in bytes.
    pub fn mem_line(&self, r: RefId, point: &[i64], line_bytes: i64) -> i64 {
        cme_poly::vector::div_floor(self.byte_address(r, point), line_bytes)
    }

    /// The interleaved iteration vector `(ℓ₁, I₁, …, ℓ_n, I_n)` of the
    /// statement owning `r` at `point`.
    pub fn iteration_vector(&self, r: RefId, point: &[i64]) -> Vec<i64> {
        let stmt = &self.stmts[self.refs[r].stmt];
        lex::interleave(&stmt.label, point)
    }

    /// Builds the RIS of a reference: the loop bounds along its statement's
    /// label path plus the statement guard.
    fn build_ris(&self, r: &Reference) -> Result<Space, IrError> {
        let stmt = &self.stmts[r.stmt];
        let n = self.depth;
        let mut sys = ConstraintSystem::new(n);
        for (k, node) in self.loop_path(&stmt.label).iter().enumerate() {
            // lb ≤ I_{k+1}  and  I_{k+1} ≤ ub
            let var = Affine::var(n, k);
            sys.push(Constraint::ge(var.sub(&node.lb)));
            sys.push(Constraint::ge(node.ub.sub(&var)));
        }
        for c in &stmt.guard {
            sys.push(c.clone());
        }
        Space::new(sys).map_err(|e| IrError::Unbounded {
            what: format!("reference {} ({e})", r.display),
        })
    }

    /// Sum of RIS volumes over all references — the denominator of the
    /// loop-nest miss ratio in Fig. 6.
    pub fn total_accesses(&self) -> u64 {
        (0..self.refs.len()).map(|r| self.ris[r].count()).sum()
    }

    /// A copy of the program with `padding[i]` extra bytes inserted
    /// *before* owned array `i` in the layout (aliases follow their
    /// targets). This is the hook for inter-array padding optimisation:
    /// iteration spaces and reuse vectors are layout-independent, only
    /// addresses change.
    ///
    /// # Panics
    ///
    /// Panics if `padding.len() != self.arrays().len()` or any padding is
    /// negative.
    pub fn with_padding(&self, padding: &[i64]) -> Program {
        assert_eq!(padding.len(), self.arrays.len(), "one padding per array");
        assert!(padding.iter().all(|&p| p >= 0), "padding must be >= 0");
        let base = self
            .arrays
            .iter()
            .zip(&self.layout)
            .find(|(a, _)| matches!(a.storage, Storage::Owned))
            .map_or(0, |(_, &b)| b);
        let mut out = self.clone();
        let mut cursor = base;
        for (i, a) in self.arrays.iter().enumerate() {
            if let Storage::Owned = a.storage {
                cursor += padding[i];
                let align = a.elem_bytes as i64;
                if cursor % align != 0 {
                    cursor += align - cursor % align;
                }
                out.layout[i] = cursor;
                cursor += a.total_bytes().expect("owned arrays have fixed size");
            }
        }
        for (i, a) in self.arrays.iter().enumerate() {
            if let Storage::AliasOf(t) = a.storage {
                out.layout[i] = out.layout[t];
            }
        }
        out.rebuild_addr_plans();
        out
    }
}

/// Sequentially packs owned arrays from `base`, aligning each to its
/// element size; aliases inherit their target's address.
fn assign_layout(arrays: &[Array], base: i64) -> Result<Vec<i64>, IrError> {
    let mut layout = vec![0i64; arrays.len()];
    let mut cursor = base;
    for (i, a) in arrays.iter().enumerate() {
        if let Storage::Owned = a.storage {
            let align = a.elem_bytes as i64;
            if cursor % align != 0 {
                cursor += align - cursor % align;
            }
            layout[i] = cursor;
            let size = a.total_bytes().ok_or_else(|| IrError::Invalid {
                message: format!("array `{}` needs a fixed size for layout", a.name),
            })?;
            cursor += size;
        }
    }
    for (i, a) in arrays.iter().enumerate() {
        if let Storage::AliasOf(t) = a.storage {
            layout[i] = layout[t];
        }
    }
    Ok(layout)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> Program {
        // DO I1 = 1,4 / DO I2 = I1,4 { A(I2) = B(I2,I1) } with guard-free S.
        let n = 2;
        let arrays = vec![
            Array {
                name: "A".into(),
                elem_bytes: 8,
                dims: vec![DimSize::Fixed(4)],
                storage: Storage::Owned,
            },
            Array {
                name: "B".into(),
                elem_bytes: 8,
                dims: vec![DimSize::Fixed(4), DimSize::Fixed(4)],
                storage: Storage::Owned,
            },
        ];
        let roots = vec![LoopNode {
            lb: Affine::constant(n, 1),
            ub: Affine::constant(n, 4),
            inner: vec![LoopNode {
                lb: Affine::var(n, 0),
                ub: Affine::constant(n, 4),
                inner: vec![],
                stmts: vec![0],
            }],
            stmts: vec![],
        }];
        let stmts = vec![Statement {
            label: vec![1, 1],
            guard: vec![],
            refs: vec![0, 1],
            name: Some("S1".into()),
        }];
        let refs = vec![
            Reference {
                array: 1,
                subs: vec![Affine::var(n, 1), Affine::var(n, 0)],
                kind: AccessKind::Read,
                stmt: 0,
                lex_rank: 0,
                display: "B(I2,I1)".into(),
            },
            Reference {
                array: 0,
                subs: vec![Affine::var(n, 1)],
                kind: AccessKind::Write,
                stmt: 0,
                lex_rank: 1,
                display: "A(I2)".into(),
            },
        ];
        Program::from_parts("tiny", n, arrays, roots, stmts, refs, 0).unwrap()
    }

    #[test]
    fn layout_is_sequential_and_aligned() {
        let p = tiny_program();
        assert_eq!(p.base_address(0), 0);
        assert_eq!(p.base_address(1), 4 * 8); // A occupies 32 bytes
    }

    #[test]
    fn addresses_are_column_major() {
        let p = tiny_program();
        // B(2,3) → elem (2-1) + (3-1)*4 = 9 → byte 32 + 72 = 104.
        assert_eq!(p.byte_address(0, &[3, 2]), 32 + 9 * 8);
        // A(2) → byte 8.
        assert_eq!(p.byte_address(1, &[3, 2]), 8);
        assert_eq!(p.mem_line(1, &[3, 2], 32), 0);
        assert_eq!(p.mem_line(0, &[3, 2], 32), (32 + 72) / 32);
    }

    #[test]
    fn ris_counts_triangle() {
        let p = tiny_program();
        assert_eq!(p.ris(0).count(), 10); // 4+3+2+1
        assert_eq!(p.total_accesses(), 20);
    }

    /// The folded address plan equals the explicit
    /// layout + strides + subscript computation, before and after padding.
    #[test]
    fn addr_plan_matches_explicit_addressing() {
        let p = tiny_program();
        let explicit = |p: &Program, r: RefId, point: &[i64]| {
            let rf = &p.refs[r];
            let arr = &p.arrays[rf.array];
            p.layout[rf.array] + p.elem_index(r, point) * arr.elem_bytes as i64
        };
        for prog in [&p, &p.with_padding(&[64, 8])] {
            for r in 0..prog.references().len() {
                prog.ris(r).for_each_point(|pt| {
                    assert_eq!(
                        prog.byte_address(r, pt),
                        explicit(prog, r, pt),
                        "r={r} pt={pt:?}"
                    );
                    assert_eq!(prog.addr_plan(r).eval(pt), prog.byte_address(r, pt));
                });
            }
        }
    }

    #[test]
    fn iteration_vector_interleaves() {
        let p = tiny_program();
        assert_eq!(p.iteration_vector(0, &[2, 3]), vec![1, 2, 1, 3]);
    }

    #[test]
    fn alias_shares_base() {
        let arrays = vec![
            Array {
                name: "B".into(),
                elem_bytes: 8,
                dims: vec![DimSize::Fixed(10)],
                storage: Storage::Owned,
            },
            Array {
                name: "B1".into(),
                elem_bytes: 8,
                dims: vec![DimSize::Fixed(5), DimSize::Assumed],
                storage: Storage::AliasOf(0),
            },
        ];
        let p = Program::from_parts("alias", 1, arrays, vec![], vec![], vec![], 64).unwrap();
        assert_eq!(p.base_address(0), 64);
        assert_eq!(p.base_address(1), 64);
        assert_eq!(p.array(1).strides(), vec![1, 5]);
    }

    #[test]
    fn validation_rejects_bad_bounds() {
        // Bound of depth-1 loop uses I1 itself.
        let roots = vec![LoopNode {
            lb: Affine::var(1, 0),
            ub: Affine::constant(1, 4),
            inner: vec![],
            stmts: vec![],
        }];
        let err = Program::from_parts("bad", 1, vec![], roots, vec![], vec![], 0).unwrap_err();
        assert!(err.to_string().contains("must be outer"));
    }

    #[test]
    fn validation_rejects_subscript_arity() {
        let arrays = vec![Array {
            name: "A".into(),
            elem_bytes: 8,
            dims: vec![DimSize::Fixed(4), DimSize::Fixed(4)],
            storage: Storage::Owned,
        }];
        let roots = vec![LoopNode {
            lb: Affine::constant(1, 1),
            ub: Affine::constant(1, 4),
            inner: vec![],
            stmts: vec![0],
        }];
        let stmts = vec![Statement {
            label: vec![1],
            guard: vec![],
            refs: vec![0],
            name: None,
        }];
        let refs = vec![Reference {
            array: 0,
            subs: vec![Affine::var(1, 0)],
            kind: AccessKind::Read,
            stmt: 0,
            lex_rank: 0,
            display: "A(I1)".into(),
        }];
        let err = Program::from_parts("bad", 1, arrays, roots, stmts, refs, 0).unwrap_err();
        assert!(matches!(err, IrError::SubscriptArity { .. }));
    }

    #[test]
    fn guarded_ris_is_smaller() {
        let mut p = tiny_program();
        // Rebuild with a guard I2 == 4 on the statement.
        let n = 2;
        let mut stmts = p.stmts.clone();
        stmts[0].guard = vec![Constraint::eq(Affine::new(vec![0, 1], -4))];
        p = Program::from_parts(
            "tiny-guarded",
            n,
            p.arrays.clone(),
            p.roots.clone(),
            stmts,
            p.refs.clone(),
            0,
        )
        .unwrap();
        assert_eq!(p.ris(0).count(), 4); // I2 = 4, I1 ∈ 1..4
    }
}
