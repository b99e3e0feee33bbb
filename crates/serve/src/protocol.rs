//! The NDJSON wire protocol: one JSON object per line, request then
//! response, over a plain TCP stream.
//!
//! Requests (`"cmd"` selects the verb):
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"stats"}
//! {"cmd":"compact"}
//! {"cmd":"shutdown"}
//! {"cmd":"analyze", <program>, <cache>, <mode/options>}
//! ```
//!
//! `ping` answers with liveness plus queue/store gauges; `compact` rewrites
//! the on-disk result log down to its live frames and reports the byte
//! counts.
//!
//! The program is either a bundled workload —
//! `"workload":"mmt","n":64` (plus `"iters"`, `"bj"`, `"bk"` where
//! applicable) — or inline FORTRAN source: `"source":"      DO 10 ...",
//! "params":{"N":64}`. The cache geometry is `"cache":32768,"line":32,
//! "assoc":2`. The mode is `"mode":"exact"` or `"mode":"estimate"` with
//! optional `"confidence"`, `"width"`, `"seed"`. The one optional knob is
//! `"timeout_ms"`. Every job reads the result store first, classifies on
//! one thread with the counting evaluator and the hit/miss pre-pass on,
//! and stores its answer, so a kernel the pre-pass resolves in full
//! answers any problem size without walking a point. Unknown keys —
//! among them the retired `"threads"` and `"store"` — are ignored.
//!
//! The cache geometry may also be given as a single
//! `"geometry":"SIZE:ASSOC:LINE"` string (e.g. `"32K:2:32"`), which
//! overrides `cache`/`line`/`assoc` and — unlike them — accepts
//! non-power-of-two set counts.
//!
//! `{"cmd":"sweep", ...}` evaluates a whole geometry *grid* over one
//! program as a loop of exact single queries, returning a ranked
//! miss-count table. The grid is `"grid":"8K,16K,32K:1,2:16,32"`
//! (comma-lists per `SIZE:ASSOC:LINE` field, cartesian product) and/or an
//! explicit `"geometries":["32K:2:32", ...]` array. Program spec and
//! `"timeout_ms"` match `analyze`; each cell is content-addressed by its
//! ordinary single-geometry fingerprint, so sweeps and lone queries share
//! the store in both directions.
//! `"reports":true` embeds each cell's full canonical report.
//!
//! `{"cmd":"trace", ...}` replays an address trace through the streaming
//! LRU simulator. The trace is named either by `"file":"/path"` (a raw or
//! framed binary trace on the server's filesystem) or by the same program
//! spec fields as `analyze` (the server generates the program's access
//! stream). Optional: `"geometry"` (overrides a framed trace's embedded
//! geometry; required semantics match `analyze`) and `"timeout_ms"`.
//!
//! Responses always carry `"ok"`. Successful `analyze` responses embed the
//! canonical report under `"report"` plus `"fingerprint"` and a
//! per-request `"metrics"` object; failures carry `"error"` (message) and
//! `"kind"` (`"bad_request"`, `"timeout"`, `"cancelled"`, `"retry_after"`
//! with a `"retry_after_ms"` hint, `"internal_error"` for a caught worker
//! panic, `"line_too_long"`, `"store_error"`). Retryable failures also
//! carry `"retryable":true` — the job is content-addressed, so replaying
//! it is always safe.

use crate::json::{obj, Json};
use cme_analysis::SamplingOptions;
use cme_cache::CacheConfig;
use cme_ir::Program;
use std::collections::HashMap;

/// How the client names the program to analyse.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramSpec {
    /// A bundled `cme-workloads` kernel.
    Workload {
        name: String,
        n: i64,
        iters: i64,
        bj: Option<i64>,
        bk: Option<i64>,
    },
    /// Inline FORTRAN source, lowered through parse → inline → normalise.
    Source {
        text: String,
        params: Vec<(String, i64)>,
    },
}

impl ProgramSpec {
    /// Builds the normalised program, with a client-facing error message on
    /// failure (`file:line`-style diagnostics for FORTRAN source).
    pub fn build(&self) -> Result<Program, String> {
        match self {
            ProgramSpec::Workload {
                name,
                n,
                iters,
                bj,
                bk,
            } => {
                let (n, iters) = (*n, *iters);
                Ok(match name.as_str() {
                    "hydro" => cme_workloads::hydro(n, n),
                    "mgrid" => cme_workloads::mgrid(n),
                    "mmt" => cme_workloads::mmt(
                        n,
                        bj.unwrap_or((n / 2).max(1)),
                        bk.unwrap_or((n / 4).max(1)),
                    ),
                    "tomcatv" => cme_workloads::tomcatv_like(n, iters),
                    "swim" => cme_workloads::swim_like(n, iters),
                    "applu" => cme_workloads::applu_like(n, iters),
                    "livermore1" => cme_workloads::livermore1(n * n),
                    "livermore5" => cme_workloads::livermore5(n * n),
                    "dgefa" => cme_workloads::dgefa(n),
                    "mxm" => cme_workloads::mxm(n),
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            ProgramSpec::Source { text, params } => {
                let params: HashMap<String, i64> = params.iter().cloned().collect();
                let source =
                    cme_fortran::parse_program(text, &params).map_err(|e| format!("parse: {e}"))?;
                let inlined = cme_inline::Inliner::new()
                    .inline(&source)
                    .map_err(|e| format!("inline: {e}"))?;
                cme_ir::normalize(&inlined, &Default::default())
                    .map_err(|e| format!("normalise: {e}"))
            }
        }
    }
}

/// Exact or sampled analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    Exact,
    Estimate {
        confidence: f64,
        width: f64,
        seed: u64,
    },
}

impl Mode {
    /// The sampling options for `Estimate` (the engine runs them on one
    /// thread); `None` for `Exact`.
    pub fn sampling(&self) -> Option<SamplingOptions> {
        match *self {
            Mode::Exact => None,
            Mode::Estimate {
                confidence,
                width,
                seed,
            } => Some(SamplingOptions {
                confidence,
                width,
                seed,
                ..SamplingOptions::paper_default()
            }),
        }
    }
}

/// A fully parsed `analyze` request.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    pub spec: ProgramSpec,
    pub size_bytes: u64,
    pub line_bytes: u64,
    pub assoc: u32,
    /// A `"geometry":"SIZE:ASSOC:LINE"` string, pre-parsed; overrides the
    /// three scalar fields and admits non-power-of-two set counts.
    pub geometry: Option<CacheConfig>,
    pub mode: Mode,
    pub timeout_ms: Option<u64>,
}

/// Where a `trace` request's address stream comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSource {
    /// A binary trace file (raw or framed) on the server's filesystem.
    File(String),
    /// Generate the access stream of a program spec.
    Spec(ProgramSpec),
}

/// A fully parsed `trace` request.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRequest {
    pub source: TraceSource,
    /// Explicit replay geometry; `None` defers to a framed trace's embedded
    /// geometry (or the default for raw traces and generated streams).
    pub geometry: Option<CacheConfig>,
    pub timeout_ms: Option<u64>,
}

/// A fully parsed `sweep` request: one program, a grid of geometries.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    pub spec: ProgramSpec,
    /// The grid, expanded and validated (from `"grid"` and/or
    /// `"geometries"`), in request order.
    pub geometries: Vec<CacheConfig>,
    pub timeout_ms: Option<u64>,
    /// Embed each cell's full report payload in the response (off by
    /// default: the ranked table alone is much smaller).
    pub include_reports: bool,
}

/// Cells per sweep request; a guard against accidental
/// million-combination grids, not a scaling limit.
pub const MAX_SWEEP_CELLS: usize = 1024;

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Ping,
    Stats,
    Compact,
    Shutdown,
    Analyze(Box<AnalyzeRequest>),
    Trace(Box<TraceRequest>),
    Sweep(Box<SweepRequest>),
}

impl Request {
    /// Parses a request object; errors become `bad_request` responses.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing `cmd` field")?;
        match cmd {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "compact" => Ok(Request::Compact),
            "shutdown" => Ok(Request::Shutdown),
            "analyze" => Ok(Request::Analyze(Box::new(Self::analyze_from(v)?))),
            "trace" => Ok(Request::Trace(Box::new(Self::trace_from(v)?))),
            "sweep" => Ok(Request::Sweep(Box::new(Self::sweep_from(v)?))),
            other => Err(format!("unknown cmd `{other}`")),
        }
    }

    fn spec_from(v: &Json) -> Result<Option<ProgramSpec>, String> {
        let spec = if let Some(text) = v.get("source").and_then(Json::as_str) {
            let mut params = Vec::new();
            if let Some(Json::Obj(pairs)) = v.get("params") {
                for (k, val) in pairs {
                    let val = val
                        .as_i64()
                        .ok_or_else(|| format!("param `{k}` must be an integer"))?;
                    params.push((k.to_uppercase(), val));
                }
            }
            ProgramSpec::Source {
                text: text.to_string(),
                params,
            }
        } else if let Some(name) = v.get("workload").and_then(Json::as_str) {
            ProgramSpec::Workload {
                name: name.to_string(),
                n: v.get("n").and_then(Json::as_i64).unwrap_or(32),
                iters: v.get("iters").and_then(Json::as_i64).unwrap_or(2),
                bj: v.get("bj").and_then(Json::as_i64),
                bk: v.get("bk").and_then(Json::as_i64),
            }
        } else {
            return Ok(None);
        };
        Ok(Some(spec))
    }

    fn geometry_from(v: &Json) -> Result<Option<CacheConfig>, String> {
        match v.get("geometry").and_then(Json::as_str) {
            Some(s) => CacheConfig::parse_geometry(s)
                .map(Some)
                .map_err(|e| e.to_string()),
            None => Ok(None),
        }
    }

    fn trace_from(v: &Json) -> Result<TraceRequest, String> {
        let source = if let Some(path) = v.get("file").and_then(Json::as_str) {
            TraceSource::File(path.to_string())
        } else if let Some(spec) = Self::spec_from(v)? {
            TraceSource::Spec(spec)
        } else {
            return Err("trace needs `file`, `workload` or `source`".to_string());
        };
        Ok(TraceRequest {
            source,
            geometry: Self::geometry_from(v)?,
            timeout_ms: v.get("timeout_ms").and_then(Json::as_u64),
        })
    }

    fn sweep_from(v: &Json) -> Result<SweepRequest, String> {
        let spec =
            Self::spec_from(v)?.ok_or_else(|| "sweep needs `workload` or `source`".to_string())?;
        let mut geometries: Vec<CacheConfig> = Vec::new();
        if let Some(grid) = v.get("grid").and_then(Json::as_str) {
            geometries.extend(CacheConfig::parse_geometry_grid(grid).map_err(|e| e.to_string())?);
        }
        if let Some(items) = v.get("geometries") {
            let items = items
                .as_arr()
                .ok_or("`geometries` must be an array of geometry strings")?;
            for item in items {
                let s = item
                    .as_str()
                    .ok_or("`geometries` must be an array of geometry strings")?;
                geometries.push(CacheConfig::parse_geometry(s).map_err(|e| e.to_string())?);
            }
        }
        if geometries.is_empty() {
            return Err("sweep needs a `grid` string or non-empty `geometries` array".to_string());
        }
        if geometries.len() > MAX_SWEEP_CELLS {
            return Err(format!(
                "sweep grid has {} cells; the limit is {MAX_SWEEP_CELLS}",
                geometries.len()
            ));
        }
        Ok(SweepRequest {
            spec,
            geometries,
            timeout_ms: v.get("timeout_ms").and_then(Json::as_u64),
            include_reports: v.get("reports").and_then(Json::as_bool).unwrap_or(false),
        })
    }

    fn analyze_from(v: &Json) -> Result<AnalyzeRequest, String> {
        let spec = Self::spec_from(v)?
            .ok_or_else(|| "analyze needs `workload` or `source`".to_string())?;

        let mode = match v.get("mode").and_then(Json::as_str).unwrap_or("estimate") {
            "exact" => Mode::Exact,
            "estimate" => {
                let defaults = SamplingOptions::paper_default();
                Mode::Estimate {
                    confidence: v
                        .get("confidence")
                        .and_then(Json::as_f64)
                        .unwrap_or(defaults.confidence),
                    width: v
                        .get("width")
                        .and_then(Json::as_f64)
                        .unwrap_or(defaults.width),
                    seed: v
                        .get("seed")
                        .and_then(Json::as_u64)
                        .unwrap_or(defaults.seed),
                }
            }
            other => return Err(format!("unknown mode `{other}`")),
        };

        Ok(AnalyzeRequest {
            spec,
            size_bytes: v.get("cache").and_then(Json::as_u64).unwrap_or(32 * 1024),
            line_bytes: v.get("line").and_then(Json::as_u64).unwrap_or(32),
            assoc: v
                .get("assoc")
                .and_then(Json::as_u64)
                .map(|a| a as u32)
                .unwrap_or(2),
            geometry: Self::geometry_from(v)?,
            mode,
            timeout_ms: v.get("timeout_ms").and_then(Json::as_u64),
        })
    }
}

/// Builds an error response.
pub fn error_response(kind: &str, message: &str) -> Json {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("kind", Json::Str(kind.to_string())),
        ("error", Json::Str(message.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_analyze() {
        let v = Json::parse(r#"{"cmd":"analyze","workload":"mmt","n":8}"#).unwrap();
        let Request::Analyze(req) = Request::from_json(&v).unwrap() else {
            panic!("expected analyze");
        };
        assert_eq!(req.size_bytes, 32 * 1024);
        assert_eq!(req.assoc, 2);
        assert!(matches!(req.mode, Mode::Estimate { .. }));
        assert!(req.spec.build().is_ok());
    }

    #[test]
    fn parses_exact_with_geometry() {
        let v = Json::parse(
            r#"{"cmd":"analyze","workload":"hydro","n":10,"cache":1024,"line":16,"assoc":1,"mode":"exact","timeout_ms":250}"#,
        )
        .unwrap();
        let Request::Analyze(req) = Request::from_json(&v).unwrap() else {
            panic!("expected analyze");
        };
        assert_eq!(req.mode, Mode::Exact);
        assert_eq!(req.timeout_ms, Some(250));
    }

    /// Keys the protocol does not know are ignored: the request parses as
    /// if they were absent. That includes the retired `"threads"` and
    /// `"store"` knobs on every job verb.
    #[test]
    fn unknown_keys_are_ignored() {
        let analyze = r#"{"cmd":"analyze","workload":"mmt","n":8,"mode":"exact"}"#;
        for (plain, text) in [
            (
                analyze,
                r#"{"cmd":"analyze","workload":"mmt","n":8,"mode":"exact","frobnicate":1}"#,
            ),
            (
                analyze,
                r#"{"cmd":"analyze","workload":"mmt","n":8,"mode":"exact","walk":"scan","x":{"y":true}}"#,
            ),
            (
                analyze,
                r#"{"cmd":"analyze","workload":"mmt","n":8,"mode":"exact","threads":4,"store":false}"#,
            ),
            (
                r#"{"cmd":"sweep","workload":"mmt","n":8,"grid":"8K:1:32"}"#,
                r#"{"cmd":"sweep","workload":"mmt","n":8,"grid":"8K:1:32","threads":4,"store":false}"#,
            ),
            (
                r#"{"cmd":"trace","workload":"mmt","n":8}"#,
                r#"{"cmd":"trace","workload":"mmt","n":8,"threads":4,"store":false}"#,
            ),
        ] {
            let want = Request::from_json(&Json::parse(plain).unwrap()).unwrap();
            let got = Request::from_json(&Json::parse(text).unwrap()).unwrap();
            assert_eq!(got, want, "{text}");
        }
    }

    #[test]
    fn parses_source_spec() {
        let src = "      SUBROUTINE S\n      REAL*8 A(N)\n      DO 10 I = 1, N\n      A(I) = 0.0\n10    CONTINUE\n      END\n";
        let v = obj(vec![
            ("cmd", Json::Str("analyze".into())),
            ("source", Json::Str(src.into())),
            ("params", obj(vec![("n", Json::Int(16))])),
        ]);
        let Request::Analyze(req) = Request::from_json(&v).unwrap() else {
            panic!("expected analyze");
        };
        let p = req.spec.build().expect("source builds");
        assert_eq!(p.references().len(), 1);
    }

    #[test]
    fn rejects_bad_requests() {
        for text in [
            r#"{"nope":1}"#,
            r#"{"cmd":"analyze"}"#,
            r#"{"cmd":"analyze","workload":"mmt","mode":"wat"}"#,
            r#"{"cmd":"frobnicate"}"#,
        ] {
            let v = Json::parse(text).unwrap();
            assert!(Request::from_json(&v).is_err(), "{text}");
        }
    }

    #[test]
    fn parses_geometry_string() {
        let v = Json::parse(
            r#"{"cmd":"analyze","workload":"mmt","n":8,"geometry":"48K:2:32","mode":"exact"}"#,
        )
        .unwrap();
        let Request::Analyze(req) = Request::from_json(&v).unwrap() else {
            panic!("expected analyze");
        };
        let geo = req.geometry.expect("geometry parsed");
        assert_eq!(geo.num_sets(), 768, "non-power-of-two accepted");
        assert_eq!(geo.assoc(), 2);

        let v = Json::parse(r#"{"cmd":"analyze","workload":"mmt","geometry":"zz"}"#).unwrap();
        assert!(Request::from_json(&v).is_err());
    }

    #[test]
    fn parses_trace_requests() {
        let v = Json::parse(r#"{"cmd":"trace","file":"/tmp/t.cmet"}"#).unwrap();
        let Request::Trace(req) = Request::from_json(&v).unwrap() else {
            panic!("expected trace");
        };
        assert_eq!(req.source, TraceSource::File("/tmp/t.cmet".to_string()));
        assert_eq!(req.geometry, None);

        let v =
            Json::parse(r#"{"cmd":"trace","workload":"mmt","n":8,"geometry":"32K:2:32"}"#).unwrap();
        let Request::Trace(req) = Request::from_json(&v).unwrap() else {
            panic!("expected trace");
        };
        assert!(matches!(req.source, TraceSource::Spec(_)));
        assert_eq!(req.geometry.unwrap().size_bytes(), 32 * 1024);

        // No source at all is rejected.
        let v = Json::parse(r#"{"cmd":"trace"}"#).unwrap();
        assert!(Request::from_json(&v).is_err());
    }

    #[test]
    fn parses_sweep_requests() {
        let v = Json::parse(r#"{"cmd":"sweep","workload":"mmt","n":8,"grid":"8K,16K:1,2:32"}"#)
            .unwrap();
        let Request::Sweep(req) = Request::from_json(&v).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(req.geometries.len(), 4);
        assert_eq!(
            req.geometries[0],
            CacheConfig::parse_geometry("8K:1:32").unwrap()
        );
        assert!(!req.include_reports);

        // An explicit geometries array appends after the grid, knobs parse
        // like analyze's, and unknown keys are ignored.
        let v = Json::parse(
            r#"{"cmd":"sweep","workload":"mmt","n":8,"grid":"8K:1:32","geometries":["48K:2:32"],"tier":"off","reports":true,"timeout_ms":99}"#,
        )
        .unwrap();
        let Request::Sweep(req) = Request::from_json(&v).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(req.geometries.len(), 2);
        assert_eq!(req.geometries[1].num_sets(), 768);
        assert!(req.include_reports);
        assert_eq!(req.timeout_ms, Some(99));
    }

    #[test]
    fn rejects_bad_sweeps() {
        for text in [
            // No grid and no geometries.
            r#"{"cmd":"sweep","workload":"mmt","n":8}"#,
            // Empty geometries array.
            r#"{"cmd":"sweep","workload":"mmt","n":8,"geometries":[]}"#,
            // A degenerate combination inside the grid.
            r#"{"cmd":"sweep","workload":"mmt","n":8,"grid":"8K,0:1:32"}"#,
            // Non-string geometry entries.
            r#"{"cmd":"sweep","workload":"mmt","n":8,"geometries":[32768]}"#,
            // No program.
            r#"{"cmd":"sweep","grid":"8K:1:32"}"#,
        ] {
            let v = Json::parse(text).unwrap();
            assert!(Request::from_json(&v).is_err(), "{text}");
        }
        // The cell cap rejects runaway grids (600 x 2 x 1 = 1200 cells,
        // each individually valid).
        let sizes: Vec<String> = (1..=600).map(|i| (i * 64).to_string()).collect();
        let text = format!(
            r#"{{"cmd":"sweep","workload":"mmt","n":8,"grid":"{}:1,2:32"}}"#,
            sizes.join(",")
        );
        let v = Json::parse(&text).unwrap();
        let err = Request::from_json(&v).unwrap_err();
        assert!(err.contains("limit"), "{err}");
    }

    #[test]
    fn unknown_workload_fails_at_build() {
        let v = Json::parse(r#"{"cmd":"analyze","workload":"doom"}"#).unwrap();
        let Request::Analyze(req) = Request::from_json(&v).unwrap() else {
            panic!()
        };
        assert!(req.spec.build().is_err());
    }
}
