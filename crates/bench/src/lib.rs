//! Shared plumbing for the table-regeneration binaries.
//!
//! Every binary accepts `--scale small|medium|paper` (default `small`):
//!
//! * `small` — reduced problem sizes so a full table regenerates in
//!   seconds; the qualitative shape (who wins, error magnitudes, speedups)
//!   is preserved;
//! * `medium` — intermediate sizes;
//! * `paper` — the paper's exact problem sizes (Hydro 100×100, MGRID 100,
//!   MMT 100/100/50 and the N=200/400 sweep). Simulation columns can take
//!   a long time at this scale, exactly as the paper reports.

use cme_analysis::Threads;
use cme_cache::CacheConfig;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Problem-size scale for the table binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast CI-friendly sizes.
    Small,
    /// Intermediate sizes.
    Medium,
    /// The paper's sizes.
    Paper,
}

impl Scale {
    /// Parses `--scale <s>` from the process arguments (default `small`);
    /// an unknown scale exits through [`usage_error`].
    pub fn from_args() -> Scale {
        match flag_value("--scale").as_deref() {
            None | Some("small") => Scale::Small,
            Some("medium") => Scale::Medium,
            Some("paper") => Scale::Paper,
            Some(other) => usage_error(&format!(
                "--scale wants small, medium or paper, got `{other}`"
            )),
        }
    }

    /// A human-readable suffix for table captions.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }
}

/// Parses `--threads <n>` from the process arguments: `0` or absent means
/// one worker per hardware thread, `1` forces the serial path. Reports are
/// byte-identical for every value — the knob only changes wall-clock time.
pub fn threads_from_args() -> Threads {
    Threads::from_flag(int_flag("--threads").unwrap_or(0))
}

/// The value after the first `flag` in the process arguments: `None` when
/// the flag is absent, empty when nothing follows it.
pub fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip_while(|a| a != flag);
    args.next()?;
    Some(args.next().unwrap_or_default())
}

/// The integer value of `flag` in the process arguments (`None` when the
/// flag is absent); a malformed value exits through [`usage_error`].
pub fn int_flag<T: std::str::FromStr>(flag: &str) -> Option<T> {
    let value = flag_value(flag)?;
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => usage_error(&format!("{flag} wants an integer, got `{value}`")),
    }
}

/// Prints `<binary>: <message>` on stderr and exits with status 2 —
/// malformed command-line input is a user error, never a panic.
pub fn usage_error(message: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let binary = std::path::Path::new(&argv0)
        .file_name()
        .map_or("cme-bench".into(), |n| n.to_string_lossy());
    eprintln!("{binary}: {message}");
    std::process::exit(2)
}

/// The paper's three cache configurations: 32KB, 32B lines,
/// direct/2-way/4-way.
pub fn paper_caches() -> Vec<(&'static str, CacheConfig)> {
    vec![
        ("direct", CacheConfig::new(32 * 1024, 32, 1).expect("valid")),
        ("2-way", CacheConfig::new(32 * 1024, 32, 2).expect("valid")),
        ("4-way", CacheConfig::new(32 * 1024, 32, 4).expect("valid")),
    ]
}

/// Scaled-down caches keeping the sets×ways shape for small problem sizes
/// (a 32KB cache trivialises tiny working sets).
pub fn scaled_caches(kb: u64) -> Vec<(&'static str, CacheConfig)> {
    vec![
        ("direct", CacheConfig::new(kb * 1024, 32, 1).expect("valid")),
        ("2-way", CacheConfig::new(kb * 1024, 32, 2).expect("valid")),
        ("4-way", CacheConfig::new(kb * 1024, 32, 4).expect("valid")),
    ]
}

/// Loads a FORTRAN file and lowers it to a normalised [`cme_ir::Program`]
/// (parse → inline → normalise), turning every failure into a
/// `path:line: message` diagnostic suitable for a CLI to print and exit
/// nonzero with — malformed input is a user error, not a panic.
pub fn load_fortran(path: &str, params: &HashMap<String, i64>) -> Result<cme_ir::Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let source = cme_fortran::parse_program(&text, params)
        .map_err(|e| format!("{path}:{}: {}", e.line, e.kind))?;
    let inlined = cme_inline::Inliner::new()
        .inline(&source)
        .map_err(|e| format!("{path}: inline: {e}"))?;
    cme_ir::normalize(&inlined, &Default::default()).map_err(|e| format!("{path}: normalise: {e}"))
}

/// The host's available hardware parallelism — recorded in every
/// `BENCH_*.json` so numbers from different machines stay comparable.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Times a closure, returning its value and the wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Three equal streaming arrays, `C(I) = A(I) + B(I)`: every reference is
/// resolved in full by the pre-pass, so analysis never walks a point.
pub fn stream3(elems: i64) -> cme_ir::Program {
    use cme_ir::{LinExpr, ProgramBuilder, SNode, SRef};
    let mut b = ProgramBuilder::new("stream3");
    b.array("A", &[elems], 8);
    b.array("B", &[elems], 8);
    b.array("C", &[elems], 8);
    let i = LinExpr::var("I");
    b.push(SNode::loop_(
        "I",
        1,
        elems,
        vec![SNode::assign(
            SRef::new("C", vec![i.clone()]),
            vec![
                SRef::new("A", vec![i.clone()]),
                SRef::new("B", vec![i.clone()]),
            ],
        )],
    ));
    b.build().expect("stream3 normalises")
}

/// Formats a duration in seconds with sensible precision.
pub fn secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.01 {
        format!("{:.4}", s)
    } else if s < 10.0 {
        format!("{:.2}", s)
    } else {
        format!("{:.1}", s)
    }
}

/// Minimal fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:>width$}  ", c, width = widths[i]));
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec!["123".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("123"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn caches_are_valid() {
        assert_eq!(paper_caches().len(), 3);
        assert_eq!(scaled_caches(4)[2].1.assoc(), 4);
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(Duration::from_millis(1)), "0.0010");
        assert_eq!(secs(Duration::from_secs(5)), "5.00");
        assert_eq!(secs(Duration::from_secs(100)), "100.0");
    }
}
