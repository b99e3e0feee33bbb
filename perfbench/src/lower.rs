//! Lowering with a span around each layer: `cme_fortran` parses the text,
//! `cme_inline` inlines the calls, `cme_ir::normalize` builds the program.

use crate::spans::Tracer;
use cme_ir::{NormalizeOptions, Program, SourceProgram};

/// A lowered program and the number of references inlining produced.
pub struct Lowered {
    pub program: Program,
    pub refs_out: usize,
}

/// FORTRAN text → normalised program.
pub fn fortran(tr: &mut Tracer, op: u64, text: &str, params: &[(&str, i64)]) -> Lowered {
    let source = tr
        .time("fortran.parse", op, || {
            cme_fortran::parse_with_params(text, params)
        })
        .expect("bundled FORTRAN text parses");
    source_program(tr, op, &source)
}

/// Source program → normalised program.
pub fn source_program(tr: &mut Tracer, op: u64, source: &SourceProgram) -> Lowered {
    let inlined = tr
        .time("inline.inline", op, || {
            cme_inline::Inliner::new().inline(source)
        })
        .expect("bundled program inlines");
    let refs_out = inlined.stats().references;
    let program = tr
        .time("ir.normalize", op, || {
            cme_ir::normalize(&inlined, &NormalizeOptions::default())
        })
        .expect("bundled program normalises");
    Lowered { program, refs_out }
}
