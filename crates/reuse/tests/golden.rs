//! Golden digests of reuse-vector generation.
//!
//! Each case pins one digest of every consumer's ordered
//! `(producer, vector, kind, class)` list, consumers in `RefId` order, so
//! any change to which vectors are generated, or to the order a consumer
//! receives them in, fails here. The values were pinned from a generator
//! that solved candidates once per reference pair, so they also show that
//! solving once per candidate key changed no vector.
//!
//! On a mismatch the test prints every case's actual line. Re-pin only a
//! change that is meant to change the vectors.

use cme_inline::Inliner;
use cme_ir::{normalize, FpHasher, NormalizeOptions, Program, SourceProgram};
use cme_reuse::{ReuseAnalysis, ReuseClass, ReuseKind};

/// The line sizes every program is pinned at.
const LINES: [u64; 4] = [16, 32, 64, 128];

/// The vector count and digest of one analysis.
fn digest(program: &Program, reuse: &ReuseAnalysis) -> (usize, String) {
    let mut h = FpHasher::new();
    let mut total = 0;
    for c in 0..program.references().len() {
        h.write_u64(c as u64);
        h.write_u64(reuse.consumer_len(c) as u64);
        for v in reuse.for_consumer(c) {
            h.write_u64(v.producer as u64);
            h.write_i64s(v.vector);
            h.write_u8(match v.kind {
                ReuseKind::Temporal => 0,
                ReuseKind::Spatial => 1,
                ReuseKind::CrossColumnSpatial => 2,
            });
            h.write_u8(match v.class {
                ReuseClass::SelfReuse => 0,
                ReuseClass::Group => 1,
            });
            total += 1;
        }
    }
    (total, h.finish().to_string())
}

fn lower(source: &SourceProgram) -> Program {
    let inlined = Inliner::new().inline(source).expect("inlines");
    normalize(&inlined, &NormalizeOptions::default()).expect("normalises")
}

fn table2(name: &str) -> Program {
    let (_, source) = cme_workloads::table2_suite()
        .into_iter()
        .find(|(row, _)| row.name == name)
        .expect("a Table 2 row");
    lower(&source)
}

/// Statement pairs that agree on everything a candidate set depends on
/// except one input each, so a candidate memo that ignored that input would
/// hand one pair the other's candidates:
///
/// * the three nests share bounding boxes and, for every self pair, the
///   label distance; nest 1 is rectangular (box-uniform), nest 2
///   triangular (not box-uniform), nest 3 rectangular under the equality
///   guard `I = J` (not box-uniform, and a difference constraint);
/// * `A` and `B` differ only in element size, `X` and `Y` only in their
///   first dimension.
const SHAPES_SRC: &str = "
      PROGRAM SHAPES
      REAL*8 A, X, Y
      REAL*4 B
      DIMENSION A(N), B(N), X(N, N), Y(N+3, N)
      DO I = 1, N
        DO J = 1, N
          X(J, I) = A(I) + B(I) + Y(J, I)
        ENDDO
      ENDDO
      DO I = 1, N
        DO J = I, N
          X(J, I) = A(I) + B(I) + Y(J, I)
        ENDDO
      ENDDO
      DO I = 1, N
        DO J = 1, N
          IF (I .EQ. J) THEN
            X(J, I) = A(I) + B(I) + Y(J, I)
          ENDIF
        ENDDO
      ENDDO
      END
";

fn shapes() -> Program {
    lower(&cme_fortran::parse_with_params(SHAPES_SRC, &[("N", 12)]).expect("parses"))
}

/// `(program, line bytes, per-consumer cap, vector count, digest)`.
type Case = (&'static str, u64, Option<usize>, usize, &'static str);

#[rustfmt::skip]
const GOLDEN: &[Case] = &[
    ("hydro", 16, None, 595, "6a93c59037e9a16580abf2c4bb2b68c7"),
    ("hydro", 32, None, 1831, "0b8ec4a0e7e5f5ea4f0e21d6e653bfdc"),
    ("hydro", 64, None, 5124, "45596411f030659185e2a753fa975808"),
    ("hydro", 128, None, 9656, "626c7ab5d2144d6bda5b9b8db4024f5c"),
    ("mgrid", 16, None, 137, "52cfd4ad8644d90a39a7342188068182"),
    ("mgrid", 32, None, 412, "8ca2fcae2b9a4c5a827d4821cfc4b8ca"),
    ("mgrid", 64, None, 1018, "826f6bc24f7d7fd3e5f1d0f190e57a0c"),
    ("mgrid", 128, None, 1688, "e37cfb6b65764b0e04830da19a806acf"),
    ("mmt", 16, None, 995, "e6220d2a0a293284d800be667685ae4d"),
    ("mmt", 32, None, 2227, "806bdce490e53e6dc17091c86895eeb9"),
    ("mmt", 64, None, 3971, "e6d5af66c3e5f5fb581cca5db84bd5ba"),
    ("mmt", 128, None, 4632, "1dc6aa4eefd14fdde9c818779f396b8d"),
    ("tomcatv", 16, None, 2856, "d6facb3fe9d4617dd88545431e0b0ca7"),
    ("tomcatv", 32, None, 8382, "81754b77a7dace291734aefc0c42d2e7"),
    ("tomcatv", 64, None, 23154, "80c736002fdc67bcc94edbec65b50537"),
    ("tomcatv", 128, None, 41688, "952d1096973b3ed456636a6e189a2015"),
    ("swim", 16, None, 3098, "64315dae72105dee3edc8d10b7768aed"),
    ("swim", 32, None, 9614, "da05cecc112114dbcbf2f29ffee6e967"),
    ("swim", 64, None, 23030, "f24234010e8d57d7815b13f24bd9bed5"),
    ("swim", 128, None, 41912, "e815bc5a59ba78f831a6dedecb795176"),
    ("dgefa", 16, None, 164, "a278fba7582e29904a6f385f64979778"),
    ("dgefa", 32, None, 588, "855b77dbce57abd9f5de02029b70f80e"),
    ("dgefa", 64, None, 1436, "57217878679d6e738f84a44c3b4cbdfe"),
    ("dgefa", 128, None, 2407, "023f792b088bec5af6e463205803f518"),
    ("hydro2d", 16, None, 22266, "e06b22175e64aa0cf719a9bc697232ed"),
    ("hydro2d", 32, None, 52036, "1baaa4266e3ecdbab987b0c5a9d00897"),
    ("hydro2d", 64, None, 111576, "a3d359148002bc699442c22e4a0ef17b"),
    ("hydro2d", 128, None, 141346, "28ee0cec6e3452e04d20672df07bdc8c"),
    ("applu", 16, None, 9323, "90ab2e1af1974264c9968b540464d6c2"),
    ("applu", 32, None, 21807, "69fe2c4e66a6551bc7f1315db7d4d6fd"),
    ("applu", 64, None, 46775, "35eaed1f92b9063e19a14512afa67b3f"),
    ("applu", 128, None, 59259, "9bc62a87325c3356705f7577a9e64d9f"),
    ("MTSI", 16, None, 51802, "a510279474e0660a5bcf36d63fc5ab3f"),
    ("MTSI", 32, None, 120996, "61622a1121714a985a4dba3d94e84e34"),
    ("MTSI", 64, None, 259384, "38be89b00535f46c9697e6945564c9b2"),
    ("MTSI", 128, None, 328578, "9ac0da390b3ca7996117d9fa9887d808"),
    ("shapes", 16, None, 862, "9e44cd49bf453bff0478e379a30a3e16"),
    ("shapes", 32, None, 1912, "634633c6a8c40991db2c61ca6e5d2b70"),
    ("shapes", 64, None, 3376, "2090a4e1102c44ce29df96a6aa8f9be2"),
    ("shapes", 128, None, 4237, "029b83d6ba5404f071f67456e0362c23"),
    ("tomcatv", 32, Some(128), 5486, "68c234392d770f2846db2c736503299e"),
    ("shapes", 32, Some(4), 43, "c9f80f2f13aaa043fc836461f5f4b19e"),
];

fn program(name: &str) -> Program {
    match name {
        "hydro" => cme_workloads::hydro(12, 12),
        "mgrid" => cme_workloads::mgrid(8),
        "mmt" => cme_workloads::mmt(12, 6, 4),
        "tomcatv" => cme_workloads::tomcatv_like(12, 2),
        "swim" => cme_workloads::swim_like(12, 2),
        "dgefa" => cme_workloads::dgefa(10),
        "hydro2d" | "applu" | "MTSI" => table2(name),
        "shapes" => shapes(),
        other => panic!("no program {other}"),
    }
}

const PROGRAMS: [&str; 10] = [
    "hydro", "mgrid", "mmt", "tomcatv", "swim", "dgefa", "hydro2d", "applu", "MTSI", "shapes",
];

/// The pinned cases plus one capped analysis.
fn cases() -> Vec<(&'static str, u64, Option<usize>)> {
    let mut out: Vec<_> = PROGRAMS
        .iter()
        .flat_map(|&p| LINES.map(|l| (p, l, None)))
        .collect();
    out.push(("tomcatv", 32, Some(128)));
    out.push(("shapes", 32, Some(4)));
    out
}

#[test]
fn reuse_vectors_match_their_golden_digests() {
    let mut actual: Vec<String> = Vec::new();
    let mut bad = 0;
    let mut built: Vec<(&str, Program)> = Vec::new();
    for (name, line, cap) in cases() {
        if !built.iter().any(|(n, _)| *n == name) {
            built.push((name, program(name)));
        }
        let p = &built.iter().find(|(n, _)| *n == name).expect("built").1;
        let reuse = match cap {
            Some(cap) => ReuseAnalysis::analyze_capped(p, line, cap),
            None => ReuseAnalysis::analyze(p, line),
        };
        let (count, dg) = digest(p, &reuse);
        let pinned = GOLDEN
            .iter()
            .find(|g| g.0 == name && g.1 == line && g.2 == cap);
        if pinned.map(|g| (g.3, g.4)) != Some((count, dg.as_str())) {
            bad += 1;
        }
        actual.push(format!(
            "    (\"{name}\", {line}, {cap:?}, {count}, \"{dg}\"),"
        ));
    }
    assert!(
        bad == 0 && GOLDEN.len() == actual.len(),
        "{bad} of {} digests differ; actual:\n{}",
        actual.len(),
        actual.join("\n")
    );
}
