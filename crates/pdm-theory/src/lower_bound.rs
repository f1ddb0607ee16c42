//! The I/O lower bound of Lemma 2.1 (via Arge–Knudsen–Larsen).
//!
//! The comparison-based external sorting bound used by the paper:
//!
//! ```text
//!   log(N!) ≤ N·log B + I · (B·log((M − B)/B) + 3B)
//! ```
//!
//! where `I` is the number of I/O operations any single-disk comparison
//! sorting algorithm must perform (logs base 2). Solving for `I` and
//! dividing by the `N/B` I/Os in one pass yields the minimum pass count.
//! Substituting `N = M√M`, `B = √M` gives the paper's "at least two passes";
//! `N = M²` gives three.

/// `ln Γ(x)` by the Lanczos approximation (g = 7, n = 9), accurate to
/// ~1e-13 for `x > 0` — std Rust has no `lgamma`.
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // reflection formula
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `log₂(n!)`.
pub fn log2_factorial(n: f64) -> f64 {
    ln_gamma(n + 1.0) / std::f64::consts::LN_2
}

/// Minimum I/O operations to sort `n` keys with memory `m` and block size
/// `b` on one disk (Arge–Knudsen–Larsen). Returns 0 if the input fits in
/// memory trivially (`m ≥ n`) only in the sense the bound goes non-positive.
pub fn min_io_ops(n: usize, m: usize, b: usize) -> f64 {
    assert!(m > b, "bound requires M > B");
    let nf = n as f64;
    let bf = b as f64;
    let mf = m as f64;
    let numer = log2_factorial(nf) - nf * bf.log2();
    let denom = bf * ((mf - bf) / bf).log2() + 3.0 * bf;
    (numer / denom).max(0.0)
}

/// Minimum *passes* over the data: `min_io_ops / (N/B)` (one pass reads
/// every block once). The paper notes the single-disk bound carries over to
/// the PDM pass count unchanged.
pub fn min_passes(n: usize, m: usize, b: usize) -> f64 {
    min_io_ops(n, m, b) * b as f64 / n as f64
}

/// Integral pass lower bound: any algorithm takes at least
/// `⌈min_passes⌉` full passes... conservatively reported as the ceiling of
/// the fractional bound minus a hair of float slack.
pub fn min_passes_ceil(n: usize, m: usize, b: usize) -> usize {
    (min_passes(n, m, b) - 1e-9).ceil().max(0.0) as usize
}

/// The idealized Aggarwal–Vitter pass bound `log(N/B) / log(M/B)`:
/// the form behind the paper's "§8: Lemma 2.1 yields a lower bound of 1.75
/// passes when `B = M^{1/3}` and 2 passes when `B = √M`" (it drops the
/// additive `3B` slack of the AKL inequality, so it is the asymptotic
/// limit the AKL bound converges to from below).
pub fn av_min_passes(n: usize, m: usize, b: usize) -> f64 {
    assert!(m > b, "bound requires M > B");
    ((n as f64 / b as f64).log2() / (m as f64 / b as f64).log2()).max(0.0)
}

/// The paper's closed-form for `N = M√M`, `B = √M` (proof of Lemma 2.1):
/// `I ≥ 2M·(1 − 1.45/log M)/(1 + 6/log M)`, in I/O operations.
pub fn paper_closed_form_io(m: usize) -> f64 {
    let mf = m as f64;
    let lg = mf.log2();
    2.0 * mf * (1.0 - 1.45 / lg) / (1.0 + 6.0 / lg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_factorial_matches_direct_computation() {
        let mut acc = 0f64;
        for i in 1..=170u32 {
            acc += (i as f64).log2();
            let est = log2_factorial(i as f64);
            assert!(
                (est - acc).abs() < 1e-6 * acc.max(1.0),
                "n={i}: {est} vs {acc}"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        let expect = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expect).abs() < 1e-10);
    }

    #[test]
    fn lemma_2_1_two_passes_for_m_sqrt_m() {
        // N = M^1.5, B = √M ⇒ at least 2 passes, for a range of M.
        for log_m in [10u32, 14, 16, 20, 26] {
            let m = 1usize << log_m;
            let b = 1usize << (log_m / 2);
            let n = m * b;
            let p = min_passes(n, m, b);
            assert!(p > 1.0, "M=2^{log_m}: fractional bound {p}");
            assert_eq!(min_passes_ceil(n, m, b), 2, "M=2^{log_m}: bound {p}");
        }
    }

    #[test]
    fn lemma_2_1_three_passes_for_m_squared() {
        // The AKL bound carries an additive 3B slack, so "≥ 3 passes for M²"
        // needs M ≳ 2^15 before the fractional bound crosses 2.0; the
        // idealized AV form sits at exactly 3 for every M.
        for log_m in [16u32, 20, 26] {
            let m = 1usize << log_m;
            let b = 1usize << (log_m / 2);
            let n = m * m;
            let p = min_passes(n, m, b);
            assert!(p > 2.0, "M=2^{log_m}: fractional bound {p}");
            assert_eq!(min_passes_ceil(n, m, b), 3, "M=2^{log_m}");
            assert!((av_min_passes(n, m, b) - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn av_bound_dominates_akl_and_is_its_limit() {
        // AKL ≤ AV everywhere, converging as M grows.
        let mut prev_gap = f64::INFINITY;
        for log_m in [12u32, 16, 20, 24, 30] {
            let m = 1usize << log_m;
            let b = 1usize << (log_m / 2);
            let n = m * b;
            let akl = min_passes(n, m, b);
            let av = av_min_passes(n, m, b);
            assert!(akl <= av + 1e-9, "M=2^{log_m}: AKL {akl} > AV {av}");
            let gap = av - akl;
            assert!(gap < prev_gap + 1e-9, "gap not shrinking at M=2^{log_m}");
            prev_gap = gap;
        }
    }

    #[test]
    fn closed_form_agrees_with_general_bound() {
        // The paper's closed form approximates the general formula for
        // N = M√M, B = √M; they should agree within a few percent at
        // practical M.
        for log_m in [16u32, 20, 24] {
            let m = 1usize << log_m;
            let b = 1usize << (log_m / 2);
            let n = m * b;
            let general = min_io_ops(n, m, b);
            let closed = paper_closed_form_io(m);
            let rel = (general - closed).abs() / closed;
            assert!(
                rel < 0.05,
                "M=2^{log_m}: general {general}, closed {closed}"
            );
        }
    }

    #[test]
    fn conclusions_bound_for_cc_block_size() {
        // §8: with B = M^{1/3} and N = M√M the (idealized) lower bound is
        // exactly 1.75 passes, vs 2 passes at B = √M — the AV form
        // reproduces both numbers for any M where the exponents are exact.
        let log_m = 18u32; // M = 2^18 → B = 2^6 = M^{1/3}, √M = 2^9
        let m = 1usize << log_m;
        let n = m * (1usize << (log_m / 2)); // M^1.5
        let p_cc = av_min_passes(n, m, 1usize << (log_m / 3));
        assert!((p_cc - 1.75).abs() < 1e-12, "B=M^(1/3): {p_cc}");
        let p_sqrt = av_min_passes(n, m, 1usize << (log_m / 2));
        assert!((p_sqrt - 2.0).abs() < 1e-12, "B=√M: {p_sqrt}");
        // the finite-M AKL bound sits below both
        assert!(min_passes(n, m, 1usize << (log_m / 3)) < p_cc);
    }

    #[test]
    fn bound_is_zero_when_input_fits_in_memory() {
        // Tiny n relative to B·log term → non-positive numerator clamps to 0
        assert_eq!(min_io_ops(8, 1024, 32), 0.0);
        assert_eq!(min_passes_ceil(8, 1024, 32), 0);
    }

    #[test]
    fn more_memory_weakens_the_bound() {
        let n = 1 << 24;
        let b = 1 << 8;
        let p_small = min_passes(n, 1 << 16, b);
        let p_big = min_passes(n, 1 << 20, b);
        assert!(p_big < p_small);
    }
}
