//! Analysis options.

/// Worker-thread count for the parallel point-classification engine.
///
/// The engine's reduction is deterministic, so the *results* are identical
/// for every setting — this knob only trades wall-clock time for CPU use.
/// `Fixed(1)` runs the exact legacy serial path with no worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// One worker per available hardware thread
    /// (`std::thread::available_parallelism`).
    #[default]
    Auto,
    /// Exactly this many workers; `Fixed(1)` (or `Fixed(0)`) is serial.
    Fixed(usize),
}

impl Threads {
    /// Resolves to a concrete worker count (≥ 1).
    pub fn count(&self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Threads::Fixed(n) => (*n).max(1),
        }
    }

    /// Parses a CLI-style value: `0` means auto, anything else is fixed.
    pub fn from_flag(n: usize) -> Threads {
        if n == 0 {
            Threads::Auto
        } else {
            Threads::Fixed(n)
        }
    }
}

/// Statistical sampling parameters for `EstimateMisses` (Fig. 6).
///
/// The sample size per reference comes from the normal approximation to the
/// binomial: estimating a proportion to within `±width` at `confidence`
/// requires `n₀ = z²·p(1−p)/w²` points, maximised at `p = ½`, then shrunk by
/// the finite-population correction for the actual RIS volume. References
/// whose RIS is no larger than the required sample are analysed
/// exhaustively.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingOptions {
    /// Two-sided confidence level `c`, e.g. `0.95`.
    pub confidence: f64,
    /// Half-width `w` of the confidence interval on each reference's miss
    /// ratio, e.g. `0.05`.
    pub width: f64,
    /// RNG seed; equal seeds reproduce identical estimates.
    pub seed: u64,
    /// Fig. 6's fallback tier: when a RIS is too small to support `(c, w)`
    /// but large enough for this coarser `(c', w')`, sample with the
    /// coarser guarantee instead of analysing every point. `None` (the
    /// default) analyses small RISs exhaustively — never less accurate,
    /// and usually just as fast at these sizes.
    pub fallback: Option<(f64, f64)>,
    /// Worker threads for point classification. Results are identical for
    /// every setting (the sample set and the reduction are both
    /// deterministic); only wall-clock time changes.
    pub threads: Threads,
}

/// How a reference's iteration space will be analysed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplePlan {
    /// Every point.
    Exhaustive,
    /// A uniform sample of this many points.
    Sample(u64),
}

impl SamplingOptions {
    /// The paper's evaluation setting: `c = 95 %`, `w = 0.05`, small RISs
    /// analysed exhaustively.
    pub fn paper_default() -> Self {
        SamplingOptions {
            confidence: 0.95,
            width: 0.05,
            seed: 0xC0FFEE,
            fallback: None,
            threads: Threads::Auto,
        }
    }

    /// Fig. 6 verbatim: `(c, w) = (95 %, 0.05)` with the `(90 %, 0.15)`
    /// fallback tier for mid-size iteration spaces.
    pub fn paper_faithful() -> Self {
        SamplingOptions {
            fallback: Some((0.90, 0.15)),
            ..SamplingOptions::paper_default()
        }
    }

    /// Decides how a RIS of `population` points is analysed.
    pub fn plan(&self, population: u64) -> SamplePlan {
        match self.sample_size(population) {
            Some(n) => SamplePlan::Sample(n),
            None => {
                if let Some((c, w)) = self.fallback {
                    let coarse = SamplingOptions {
                        confidence: c,
                        width: w,
                        seed: self.seed,
                        fallback: None,
                        threads: self.threads,
                    };
                    if let Some(n) = coarse.sample_size(population) {
                        return SamplePlan::Sample(n);
                    }
                }
                SamplePlan::Exhaustive
            }
        }
    }

    /// The two-sided normal quantile `z` for this confidence level.
    ///
    /// Uses Acklam's rational approximation of the inverse normal CDF —
    /// accurate to ~1e-9, far below the sampling noise it feeds.
    pub fn z_value(&self) -> f64 {
        let c = self.confidence.clamp(0.5, 0.999_999);
        inverse_normal_cdf(0.5 + c / 2.0)
    }

    /// Required sample size before finite-population correction.
    pub fn base_sample_size(&self) -> u64 {
        let z = self.z_value();
        let n0 = z * z / (4.0 * self.width * self.width);
        n0.ceil() as u64
    }

    /// Sample size for a RIS of `population` points, or `None` when the
    /// whole RIS should be analysed (population within the base sample).
    pub fn sample_size(&self, population: u64) -> Option<u64> {
        let n0 = self.base_sample_size();
        if population <= n0 {
            return None;
        }
        let n0f = n0 as f64;
        let nf = n0f / (1.0 + (n0f - 1.0) / population as f64);
        Some(nf.ceil() as u64)
    }
}

impl Default for SamplingOptions {
    fn default() -> Self {
        SamplingOptions::paper_default()
    }
}

/// Inverse standard-normal CDF (Acklam's algorithm).
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459238e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let plow = 0.02425;
    if p < plow {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - plow {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(c: f64, w: f64) -> SamplingOptions {
        SamplingOptions {
            confidence: c,
            width: w,
            seed: 0,
            fallback: None,
            threads: Threads::default(),
        }
    }

    #[test]
    fn z_values_match_tables() {
        assert!((opts(0.95, 0.05).z_value() - 1.959964).abs() < 1e-4);
        assert!((opts(0.90, 0.15).z_value() - 1.644854).abs() < 1e-4);
        assert!((opts(0.99, 0.05).z_value() - 2.575829).abs() < 1e-4);
    }

    #[test]
    fn fallback_tier_matches_fig6() {
        let faithful = SamplingOptions::paper_faithful();
        // Large RIS: primary tier.
        assert!(matches!(faithful.plan(10_000), SamplePlan::Sample(n) if n > 300));
        // Mid-size RIS (between n₀(90%,0.15)=31 and n₀(95%,0.05)=385):
        // sampled with the coarse tier.
        match faithful.plan(200) {
            SamplePlan::Sample(n) => assert!(n < 40, "coarse tier size {n}"),
            SamplePlan::Exhaustive => panic!("expected the fallback tier"),
        }
        // Tiny RIS: exhaustive.
        assert_eq!(faithful.plan(20), SamplePlan::Exhaustive);
        // The default has no fallback tier: mid-size goes exhaustive.
        assert_eq!(
            SamplingOptions::paper_default().plan(200),
            SamplePlan::Exhaustive
        );
    }

    #[test]
    fn paper_sample_sizes() {
        // c = 95%, w = 0.05 ⇒ n₀ = 1.96²/(4·0.0025) ≈ 385.
        let o = SamplingOptions::paper_default();
        assert_eq!(o.base_sample_size(), 385);
        // Small RIS: analyse everything.
        assert_eq!(o.sample_size(300), None);
        assert_eq!(o.sample_size(385), None);
        // Large RIS: FPC shrinks but stays near n₀.
        let n = o.sample_size(1_000_000).unwrap();
        assert!((380..=385).contains(&n), "{n}");
        // Mid-size RIS: noticeably smaller.
        let n = o.sample_size(1000).unwrap();
        assert!((270..=290).contains(&n), "{n}");
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(SamplingOptions::default(), SamplingOptions::paper_default());
    }

    #[test]
    fn inverse_cdf_roundtrip() {
        // Φ(Φ⁻¹(p)) ≈ p via the error function identity on a few points.
        for &p in &[0.6, 0.75, 0.9, 0.95, 0.975, 0.995] {
            let z = inverse_normal_cdf(p);
            // Numerical CDF via erf approximation (Abramowitz–Stegun 7.1.26).
            let t = 1.0 / (1.0 + 0.3275911 * (z / std::f64::consts::SQRT_2).abs());
            let erf = 1.0
                - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
                    + 0.254829592)
                    * t
                    * (-(z / std::f64::consts::SQRT_2).powi(2)).exp();
            let cdf = 0.5 * (1.0 + erf.copysign(z));
            assert!((cdf - p).abs() < 1e-4, "p={p} z={z} cdf={cdf}");
        }
    }
}
