//! The shuffling lemma (paper §4.1, Lemma 4.2): bound and measurement.
//!
//! Take a random permutation of `n` keys, cut it into `m = n/q` parts of `q`
//! keys, sort each part, then *shuffle* (perfectly interleave) the sorted
//! parts. Lemma 4.2: with probability `≥ 1 − n^{−α}`, every key lands
//! within
//!
//! ```text
//!   d(n, q, α) = (n/√q)·√((α+2)·ln n + 1) + n/q
//! ```
//!
//! of its final sorted position. This displacement bound is what makes the
//! expected-2/3/6-pass algorithms work: a cleanup phase with window `≥ d`
//! finishes the sort in one more pass.

use pdm_model::rng::SplitMix64;

/// The Lemma 4.2 displacement bound `d(n, q, α)` (exact form).
pub fn displacement_bound(n: usize, q: usize, alpha: f64) -> f64 {
    let nf = n as f64;
    let qf = q as f64;
    nf / qf.sqrt() * ((alpha + 2.0) * nf.ln() + 1.0).sqrt() + nf / qf
}

/// The simplified bound from the lemma statement:
/// `(n/√q)·√((α+2)·ln n + 2)`.
pub fn displacement_bound_simple(n: usize, q: usize, alpha: f64) -> f64 {
    let nf = n as f64;
    let qf = q as f64;
    nf / qf.sqrt() * ((alpha + 2.0) * nf.ln() + 2.0).sqrt()
}

/// Perfectly shuffle (interleave) `m` equal-length parts: the element at
/// position `k` of part `i` goes to position `k·m + i` of the output.
pub fn shuffle_parts<K: Copy>(parts: &[Vec<K>]) -> Vec<K> {
    let m = parts.len();
    if m == 0 {
        return Vec::new();
    }
    let q = parts[0].len();
    assert!(
        parts.iter().all(|p| p.len() == q),
        "shuffle requires equal-length parts"
    );
    let mut out = Vec::with_capacity(m * q);
    for k in 0..q {
        for part in parts {
            out.push(part[k]);
        }
    }
    out
}

/// Inverse of [`shuffle_parts`]: unshuffle a sequence into `m` parts, part
/// `i` receiving positions `i, i+m, i+2m, …`.
pub fn unshuffle<K: Copy>(xs: &[K], m: usize) -> Vec<Vec<K>> {
    assert!(
        m > 0 && xs.len() % m == 0,
        "length must divide into m parts"
    );
    let q = xs.len() / m;
    let mut parts = vec![Vec::with_capacity(q); m];
    for (j, &x) in xs.iter().enumerate() {
        parts[j % m].push(x);
    }
    parts
}

/// Maximum displacement of any element from its sorted position (stable
/// ranks for duplicates).
pub fn max_displacement<K: Ord + Copy>(xs: &[K]) -> usize {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by_key(|&i| (xs[i], i));
    idx.iter()
        .enumerate()
        .map(|(sorted_pos, &orig_pos)| sorted_pos.abs_diff(orig_pos))
        .max()
        .unwrap_or(0)
}

/// One experimental trial of the lemma's process: random permutation of
/// `0..n`, cut into parts of size `q`, sort parts, shuffle, and return the
/// measured maximum displacement.
pub fn trial_max_displacement(n: usize, q: usize, rng: &mut SplitMix64) -> usize {
    assert!(q > 0 && n % q == 0, "q must divide n");
    let mut xs: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut xs);
    let parts: Vec<Vec<u64>> = xs
        .chunks(q)
        .map(|c| {
            let mut v = c.to_vec();
            v.sort_unstable();
            v
        })
        .collect();
    let z = shuffle_parts(&parts);
    max_displacement(&z)
}

/// Outcome of a batch of shuffling-lemma trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShuffleTrials {
    /// Keys per trial.
    pub n: usize,
    /// Part size.
    pub q: usize,
    /// Trials run.
    pub trials: usize,
    /// Largest displacement observed over all trials.
    pub worst: usize,
    /// Mean of per-trial maximum displacements.
    pub mean: f64,
    /// The analytic bound `d(n, q, α)`.
    pub bound: f64,
    /// Number of trials exceeding the bound (Lemma 4.2 predicts a
    /// `≤ n^{−α}` fraction).
    pub violations: usize,
}

/// Run `trials` independent trials and compare against the `α` bound.
///
/// # Example
///
/// ```
/// let mut rng = pdm_model::rng::SplitMix64::seed_from_u64(1);
/// let r = pdm_theory::shuffling::run_trials(4096, 64, 2.0, 5, &mut rng);
/// assert_eq!(r.violations, 0); // Lemma 4.2 holds
/// assert!((r.worst as f64) <= r.bound);
/// ```
pub fn run_trials(
    n: usize,
    q: usize,
    alpha: f64,
    trials: usize,
    rng: &mut SplitMix64,
) -> ShuffleTrials {
    let bound = displacement_bound(n, q, alpha);
    let mut worst = 0usize;
    let mut sum = 0f64;
    let mut violations = 0usize;
    for _ in 0..trials {
        let d = trial_max_displacement(n, q, rng);
        worst = worst.max(d);
        sum += d as f64;
        violations += usize::from((d as f64) > bound);
    }
    ShuffleTrials {
        n,
        q,
        trials,
        worst,
        mean: sum / trials as f64,
        bound,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_interleaves() {
        let parts = vec![vec![1u32, 4], vec![2, 5], vec![3, 6]];
        assert_eq!(shuffle_parts(&parts), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(shuffle_parts::<u32>(&[]), Vec::<u32>::new());
    }

    #[test]
    fn unshuffle_inverts_shuffle() {
        let parts = vec![vec![10u32, 13], vec![11, 14], vec![12, 15]];
        let z = shuffle_parts(&parts);
        assert_eq!(unshuffle(&z, 3), parts);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn shuffle_rejects_ragged_parts() {
        let _ = shuffle_parts(&[vec![1u32], vec![2, 3]]);
    }

    #[test]
    fn displacement_bound_monotone_in_alpha_and_decreasing_in_q() {
        let b1 = displacement_bound(1 << 16, 1 << 8, 1.0);
        let b2 = displacement_bound(1 << 16, 1 << 8, 3.0);
        assert!(b2 > b1);
        let b3 = displacement_bound(1 << 16, 1 << 10, 1.0);
        assert!(b3 < b1);
        // simple form dominates exact form's first term structure
        let simple = displacement_bound_simple(1 << 16, 1 << 8, 1.0);
        assert!(simple > 0.0);
    }

    #[test]
    fn trials_respect_the_bound_overwhelmingly() {
        // n = 4096, q = 256, α = 1: violations should essentially never
        // happen across 50 seeded trials (predicted fraction ≤ 1/4096 per
        // trial).
        let mut rng = SplitMix64::seed_from_u64(2024);
        let res = run_trials(4096, 256, 1.0, 50, &mut rng);
        assert_eq!(res.violations, 0, "bound violated: {res:?}");
        assert!(res.worst > 0);
        assert!((res.mean as usize) <= res.worst);
        assert!(res.bound < 4096.0, "bound not informative: {}", res.bound);
    }

    #[test]
    fn shuffled_sorted_parts_are_much_tidier_than_random() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let n = 4096;
        let d_shuffled = trial_max_displacement(n, 256, &mut rng);
        // a raw random permutation has expected max displacement ~ n
        let mut raw: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut raw);
        let d_raw = max_displacement(&raw);
        assert!(
            d_shuffled * 2 < d_raw,
            "shuffled {d_shuffled} vs raw {d_raw}"
        );
    }

    #[test]
    fn degenerate_part_sizes() {
        let mut rng = SplitMix64::seed_from_u64(3);
        // q = n: one part, fully sorted, zero displacement
        assert_eq!(trial_max_displacement(512, 512, &mut rng), 0);
        // q = 1: parts are single keys; shuffle is the identity permutation
        // of the random input, displacement ~ n
        let d = trial_max_displacement(512, 1, &mut rng);
        assert!(d > 100);
    }
}
