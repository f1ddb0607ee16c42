//! Workload generators: seeded, reproducible inputs for every experiment.

use pdm_model::rng::SplitMix64;

/// A uniform random permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut v: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut v);
    v
}

/// `n` uniform keys in `[0, range)`.
pub fn uniform(n: usize, range: u64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..range)).collect()
}

/// A shuffled 0-1 input with exactly `k` zeros.
pub fn binary_threshold(n: usize, k: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut v: Vec<u64> = (0..n).map(|i| u64::from(i >= k)).collect();
    rng.shuffle(&mut v);
    v
}

/// Reverse-sorted input — the adversarial case for the expected-pass
/// algorithms' shuffle analyses.
pub fn reversed(n: usize) -> Vec<u64> {
    (0..n as u64).rev().collect()
}

/// Nearly-sorted input: a sorted sequence with `swaps` random transpositions.
pub fn nearly_sorted(n: usize, swaps: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut v: Vec<u64> = (0..n as u64).collect();
    for _ in 0..swaps {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        v.swap(i, j);
    }
    v
}

/// Zipf-ish skewed keys in `[0, range)` (80% of mass on 20% of values).
pub fn skewed(n: usize, range: u64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.8) {
                rng.gen_range(0..(range / 5).max(1))
            } else {
                rng.gen_range(0..range)
            }
        })
        .collect()
}

/// Duplicate-heavy input: `n` keys drawn uniformly from only `distinct`
/// values, so long equal-key plateaus dominate and replacement selection
/// can grow runs well past memory.
pub fn duplicate_heavy(n: usize, distinct: u64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let distinct = distinct.max(1);
    (0..n).map(|_| rng.gen_range(0..distinct)).collect()
}

/// Check a slice is sorted non-decreasingly.
pub fn is_sorted<K: Ord>(xs: &[K]) -> bool {
    xs.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(permutation(100, 7), permutation(100, 7));
        assert_ne!(permutation(100, 7), permutation(100, 8));
        assert_eq!(uniform(50, 10, 3), uniform(50, 10, 3));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(1000, 1);
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn binary_threshold_has_k_zeros() {
        let v = binary_threshold(100, 37, 5);
        assert_eq!(v.iter().filter(|&&x| x == 0).count(), 37);
        assert!(v.iter().all(|&x| x <= 1));
    }

    #[test]
    fn uniform_respects_range() {
        assert!(uniform(1000, 16, 2).iter().all(|&x| x < 16));
    }

    #[test]
    fn helpers_behave() {
        assert!(is_sorted(&[1, 2, 2, 3]));
        assert!(!is_sorted(&[2, 1]));
        assert_eq!(reversed(3), vec![2, 1, 0]);
        let ns = nearly_sorted(100, 0, 1);
        assert!(is_sorted(&ns));
        let sk = skewed(1000, 100, 4);
        assert!(sk.iter().all(|&x| x < 100));
    }

    #[test]
    fn duplicate_heavy_uses_few_distinct_values() {
        let v = duplicate_heavy(4096, 16, 9);
        assert_eq!(v.len(), 4096);
        let mut d = v.clone();
        d.sort_unstable();
        d.dedup();
        assert!(
            d.len() <= 16,
            "expected at most 16 distinct, got {}",
            d.len()
        );
        assert_eq!(duplicate_heavy(4096, 16, 9), v);
    }
}
