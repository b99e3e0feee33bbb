//! Satellite: the canonical fingerprint is front-end independent — the same
//! kernel assembled through `cme_ir::ProgramBuilder` and lowered from
//! FORTRAN source reaches the same digest — while every analysis-relevant
//! change (subscripts, geometry, sampling options) changes the job key.

use cme_analysis::SamplingOptions;
use cme_cache::CacheConfig;
use cme_ir::{
    fingerprint_program, normalize, structural_fingerprint, LinExpr, Program, ProgramBuilder,
    SNode, SRef,
};
use cme_serve::engine::{job_fingerprint, AnalysisMode};
use cme_serve::protocol::ProgramSpec;

const N: i64 = 32;

fn stencil_fortran(shift: i64) -> Program {
    let src = format!(
        "
      PROGRAM STENCIL
      REAL*8 A, B
      DIMENSION A(N,N), B(N,N)
      DO J = 2, N-1
        DO I = 2, N-1
          B(I,J) = A(I{shift:+},J) + A(I,J)
        ENDDO
      ENDDO
      END
"
    );
    let source = cme_fortran::parse_with_params(&src, &[("N", N)]).expect("parses");
    normalize(&source, &Default::default()).expect("normalises")
}

fn stencil_builder(shift: i64) -> Program {
    let mut b = ProgramBuilder::new("HANDMADE"); // name differs on purpose
    b.array("A", &[N, N], 8);
    b.array("B", &[N, N], 8);
    let (i, j) = (LinExpr::var("I"), LinExpr::var("J"));
    b.push(SNode::loop_(
        "J",
        2,
        N - 1,
        vec![SNode::loop_(
            "I",
            2,
            N - 1,
            vec![SNode::assign(
                SRef::new("B", vec![i.clone(), j.clone()]),
                vec![
                    SRef::new("A", vec![i.offset(shift), j.clone()]),
                    SRef::new("A", vec![i.clone(), j.clone()]),
                ],
            )],
        )],
    ));
    b.build().unwrap()
}

#[test]
fn builder_and_fortran_agree() {
    let from_source = stencil_fortran(-1);
    let from_builder = stencil_builder(-1);
    assert_eq!(
        fingerprint_program(&from_source),
        fingerprint_program(&from_builder),
        "front ends disagree:\n  fortran: {}\n  builder: {}",
        cme_ir::pretty::render(&from_source),
        cme_ir::pretty::render(&from_builder),
    );
    assert_eq!(
        structural_fingerprint(&from_source),
        structural_fingerprint(&from_builder)
    );
}

#[test]
fn subscript_change_changes_job_key() {
    let cfg = CacheConfig::new(32 * 1024, 32, 2).unwrap();
    let mode = AnalysisMode::Exact;
    let a = job_fingerprint(&stencil_fortran(-1), cfg, &mode, None);
    let b = job_fingerprint(&stencil_fortran(1), cfg, &mode, None);
    assert_ne!(a, b);
}

#[test]
fn geometry_and_options_change_job_key() {
    let p = stencil_builder(-1);
    let base_cfg = CacheConfig::new(32 * 1024, 32, 2).unwrap();
    let mode = AnalysisMode::Estimate(SamplingOptions::paper_default());
    let base = job_fingerprint(&p, base_cfg, &mode, None);

    for cfg in [
        CacheConfig::new(64 * 1024, 32, 2).unwrap(), // size
        CacheConfig::new(32 * 1024, 64, 2).unwrap(), // line
        CacheConfig::new(32 * 1024, 32, 4).unwrap(), // associativity
    ] {
        assert_ne!(base, job_fingerprint(&p, cfg, &mode, None), "{cfg}");
    }

    let mut seeded = SamplingOptions::paper_default();
    seeded.seed ^= 1;
    let mut wider = SamplingOptions::paper_default();
    wider.width *= 2.0;
    for options in [seeded, wider] {
        assert_ne!(
            base,
            job_fingerprint(&p, base_cfg, &AnalysisMode::Estimate(options), None)
        );
    }
    assert_ne!(
        base,
        job_fingerprint(&p, base_cfg, &AnalysisMode::Exact, None)
    );
    assert_ne!(base, job_fingerprint(&p, base_cfg, &mode, Some(16)));
}

/// The protocol's `source` path (parse → inline → normalise) also lands on
/// the front-end-independent digest.
#[test]
fn protocol_source_spec_agrees_with_builder() {
    let src = format!(
        "
      SUBROUTINE STENCIL
      REAL*8 A, B
      DIMENSION A({N},{N}), B({N},{N})
      DO J = 2, {}
        DO I = 2, {}
          B(I,J) = A(I-1,J) + A(I,J)
        ENDDO
      ENDDO
      END
",
        N - 1,
        N - 1
    );
    let spec = ProgramSpec::Source {
        text: src,
        params: vec![],
    };
    let p = spec.build().expect("source spec builds");
    assert_eq!(
        fingerprint_program(&p),
        fingerprint_program(&stencil_builder(-1))
    );
}

/// Store keys are on-disk addresses: a change to the canonical encoding
/// silently turns every existing store into misses. These digests may
/// only move together with a deliberate bump of the `cme-job-v1` /
/// `cme-program-v1` tags.
#[test]
fn job_keys_are_pinned() {
    let p = cme_workloads::hydro(32, 32);
    let cfg = CacheConfig::parse_geometry("32K:2:32").unwrap();
    assert_eq!(
        job_fingerprint(&p, cfg, &AnalysisMode::Exact, None).to_string(),
        "c6f4a65ca2a624c76c423cce20bbc4bc"
    );
    let estimate = AnalysisMode::Estimate(SamplingOptions::paper_default());
    assert_eq!(
        job_fingerprint(&p, cfg, &estimate, None).to_string(),
        "8aec479dec3752cb579c8734e70ab8a6"
    );
    // The reuse-cache key, which is in-memory only but shares the encoding.
    assert_eq!(
        structural_fingerprint(&p).to_string(),
        "a239673f97a60c6245edb6cf8fc838ba"
    );
}
