//! Analysis reports: per-reference and whole-program miss statistics.

use cme_ir::RefId;

/// How a reference was analysed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Every iteration point of the RIS was classified (`FindMisses`, or
    /// `EstimateMisses` on a small RIS).
    Exhaustive,
    /// A uniform sample was classified.
    Sampled {
        /// Number of points sampled.
        samples: u64,
    },
}

/// Per-reference analysis outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RefReport {
    /// The reference.
    pub r: RefId,
    /// RIS volume (total dynamic accesses of this reference).
    pub ris_size: u64,
    /// Points analysed.
    pub analyzed: u64,
    /// Of which classified cold misses.
    pub cold: u64,
    /// Of which classified replacement misses.
    pub replacement: u64,
    /// Of which hits.
    pub hits: u64,
    /// Exhaustive or sampled.
    pub coverage: Coverage,
}

impl RefReport {
    /// Miss ratio among analysed points (`0` when nothing was analysed).
    pub fn miss_ratio(&self) -> f64 {
        if self.analyzed == 0 {
            0.0
        } else {
            (self.cold + self.replacement) as f64 / self.analyzed as f64
        }
    }

    /// Estimated dynamic misses: `ris_size × miss_ratio`. Exact for
    /// exhaustive coverage.
    pub fn estimated_misses(&self) -> f64 {
        self.miss_ratio() * self.ris_size as f64
    }
}

/// Whole-program analysis outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    per_ref: Vec<RefReport>,
    elapsed: std::time::Duration,
    /// Points resolved by the hit/miss pre-pass (0 when it was off).
    /// Diagnostic only: deliberately absent from [`Report::render`], whose
    /// bytes must not depend on how points were classified.
    prepass_resolved: u64,
}

impl Report {
    pub(crate) fn new(per_ref: Vec<RefReport>, elapsed: std::time::Duration) -> Self {
        Report {
            per_ref,
            elapsed,
            prepass_resolved: 0,
        }
    }

    pub(crate) fn with_prepass_resolved(mut self, n: u64) -> Self {
        self.prepass_resolved = n;
        self
    }

    /// Points the hit/miss pre-pass resolved without an interference walk
    /// (0 when the pre-pass was off or resolved nothing).
    pub fn prepass_resolved(&self) -> u64 {
        self.prepass_resolved
    }

    /// Per-reference reports, indexed by [`RefId`].
    pub fn references(&self) -> &[RefReport] {
        &self.per_ref
    }

    /// One reference's report.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn reference(&self, r: RefId) -> &RefReport {
        &self.per_ref[r]
    }

    /// Total dynamic accesses (Σ RIS volumes).
    pub fn total_accesses(&self) -> u64 {
        self.per_ref.iter().map(|r| r.ris_size).sum()
    }

    /// Estimated total misses: `Σ |RIS_R| × miss_ratio(R)`. Exact when every
    /// reference was analysed exhaustively.
    pub fn estimated_misses(&self) -> f64 {
        self.per_ref.iter().map(RefReport::estimated_misses).sum()
    }

    /// The loop-nest miss ratio of Fig. 6:
    /// `Σ |RIS_R| × miss_ratio(R) / Σ |RIS_R|`.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.estimated_misses() / total as f64
        }
    }

    /// Exact total misses; available only when every reference was analysed
    /// exhaustively.
    pub fn exact_misses(&self) -> Option<u64> {
        if self
            .per_ref
            .iter()
            .all(|r| r.coverage == Coverage::Exhaustive)
        {
            Some(self.per_ref.iter().map(|r| r.cold + r.replacement).sum())
        } else {
            None
        }
    }

    /// Total cold misses among analysed points (scaled estimates are per
    /// reference via [`RefReport`]).
    pub fn analyzed_cold(&self) -> u64 {
        self.per_ref.iter().map(|r| r.cold).sum()
    }

    /// Total replacement misses among analysed points.
    pub fn analyzed_replacement(&self) -> u64 {
        self.per_ref.iter().map(|r| r.replacement).sum()
    }

    /// Wall-clock time of the analysis.
    pub fn elapsed(&self) -> std::time::Duration {
        self.elapsed
    }

    /// Renders a per-reference breakdown table (reference text, RIS volume,
    /// coverage, cold/replacement/hit splits and the miss ratio) — the
    /// per-reference diagnosis view miss-equation tooling is used for.
    pub fn render(&self, program: &cme_ir::Program) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
            "reference", "accesses", "analyzed", "cold", "repl", "hits", "miss %"
        );
        for rr in &self.per_ref {
            let name = &program.reference(rr.r).display;
            let cov = match rr.coverage {
                Coverage::Exhaustive => rr.analyzed.to_string(),
                Coverage::Sampled { samples } => format!("~{samples}"),
            };
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8.2}",
                name,
                rr.ris_size,
                cov,
                rr.cold,
                rr.replacement,
                rr.hits,
                100.0 * rr.miss_ratio()
            );
        }
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8.2}",
            "TOTAL",
            self.total_accesses(),
            "",
            self.analyzed_cold(),
            self.analyzed_replacement(),
            "",
            100.0 * self.miss_ratio()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rr(ris: u64, analyzed: u64, cold: u64, repl: u64, coverage: Coverage) -> RefReport {
        RefReport {
            r: 0,
            ris_size: ris,
            analyzed,
            cold,
            replacement: repl,
            hits: analyzed - cold - repl,
            coverage,
        }
    }

    #[test]
    fn ratios_weight_by_ris_volume() {
        let report = Report::new(
            vec![
                rr(100, 100, 10, 0, Coverage::Exhaustive),
                rr(300, 300, 0, 60, Coverage::Exhaustive),
            ],
            std::time::Duration::ZERO,
        );
        assert_eq!(report.total_accesses(), 400);
        assert_eq!(report.exact_misses(), Some(70));
        assert!((report.miss_ratio() - 70.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_reports_scale() {
        let report = Report::new(
            vec![rr(1000, 100, 10, 10, Coverage::Sampled { samples: 100 })],
            std::time::Duration::ZERO,
        );
        assert_eq!(report.exact_misses(), None);
        assert!((report.estimated_misses() - 200.0).abs() < 1e-9);
        assert!((report.miss_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_report() {
        let report = Report::new(vec![], std::time::Duration::ZERO);
        assert_eq!(report.miss_ratio(), 0.0);
        assert_eq!(report.exact_misses(), Some(0));
    }
}
