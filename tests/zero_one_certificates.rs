//! Exhaustive 0-1 correctness certificates.
//!
//! The deterministic algorithms here are *oblivious*: their I/O schedule
//! and sort-block structure depend only on `N`, never on key values. The
//! classic 0-1 principle (which the paper generalizes in §3) therefore
//! applies: **if the algorithm sorts every binary input of length `N`, it
//! sorts every input of length `N`.** At the smallest legal geometry
//! (`b = √M = 2`, `M = 4`) the full `2^N` enumeration is feasible, giving a
//! machine-checked total-correctness certificate for the exact code paths
//! (padding, boundary `l = √M`, window warm-up/flush) that random testing
//! only samples.
//!
//! Additionally the permutation space at `N = 8` (40 320 inputs) is swept
//! directly — a certificate that does not even rely on the principle.

use pdm_model::prelude::*;

fn machine() -> Pdm<u64> {
    Pdm::new(PdmConfig::square(2, 2)).unwrap() // D = 2, B = 2, M = 4
}

fn run_sorted(algo: &str, data: &[u64]) -> Vec<u64> {
    let mut pdm = machine();
    let input = pdm.alloc_region_for_keys(data.len()).unwrap();
    pdm.ingest(&input, data).unwrap();
    let out = match algo {
        "three_pass1" => {
            pdm_sort::three_pass1(&mut pdm, &input, data.len())
                .unwrap()
                .output
        }
        "three_pass2" => {
            pdm_sort::three_pass2(&mut pdm, &input, data.len())
                .unwrap()
                .output
        }
        "expected_two_pass" => {
            pdm_sort::expected_two_pass(&mut pdm, &input, data.len())
                .unwrap()
                .output
        }
        "seven_pass" => {
            pdm_sort::seven_pass(&mut pdm, &input, data.len())
                .unwrap()
                .output
        }
        other => panic!("unknown algo {other}"),
    };
    pdm.inspect_prefix(&out, data.len()).unwrap()
}

fn certify_binary(algo: &str, n: usize) {
    assert!(n <= 20);
    let mut buf = vec![0u64; n];
    for mask in 0u64..(1u64 << n) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (mask >> i) & 1;
        }
        let got = run_sorted(algo, &buf);
        let zeros = n - mask.count_ones() as usize;
        let sorted = got[..zeros].iter().all(|&k| k == 0) && got[zeros..].iter().all(|&k| k == 1);
        assert!(sorted, "{algo} failed on binary input {mask:#x} (n = {n})");
    }
}

fn certify_permutations(algo: &str, n: usize) {
    // Heap's algorithm over n! permutations
    assert!(n <= 8);
    let mut perm: Vec<u64> = (0..n as u64).collect();
    let want: Vec<u64> = (0..n as u64).collect();
    let mut c = vec![0usize; n];
    assert_eq!(run_sorted(algo, &perm), want);
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            assert_eq!(run_sorted(algo, &perm), want, "{algo} failed on {perm:?}");
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

/// `N = M√M = 8` at the minimal geometry: every one of the 2^8 binary
/// inputs — by the 0-1 principle, a total-correctness certificate for the
/// oblivious three-pass algorithms at this size.
#[test]
fn three_pass_algorithms_certified_at_full_capacity() {
    certify_binary("three_pass1", 8);
    certify_binary("three_pass2", 8);
}

/// Direct enumeration of all 8! = 40 320 permutations (no principle
/// needed) for both three-pass algorithms.
#[test]
fn three_pass_algorithms_certified_on_all_permutations() {
    certify_permutations("three_pass1", 8);
    certify_permutations("three_pass2", 8);
}

/// The expected algorithm's correctness is unconditional (abort + fallback)
/// — still, certify all binary inputs and all permutations at N = 8.
#[test]
fn expected_two_pass_certified() {
    certify_binary("expected_two_pass", 8);
    certify_permutations("expected_two_pass", 8);
}

/// Ragged sizes exercise the padding paths: all binary inputs for every
/// N in 1..=8 (three_pass2).
#[test]
fn ragged_sizes_certified_binary() {
    for n in 1..=8usize {
        certify_binary("three_pass2", n);
        certify_binary("three_pass1", n);
    }
}

/// `N = M² = 16` at the minimal geometry: all 2^16 binary inputs through
/// the full seven-pass pipeline (runs in ~seconds in release; the 0-1
/// principle then certifies all 16-key inputs).
#[test]
#[ignore = "65 536 SevenPass runs — use --release"]
fn seven_pass_certified_at_m_squared() {
    certify_binary("seven_pass", 16);
}

/// Smaller but unignored: all binary inputs of the seven-pass pipeline at
/// N = 12 (ragged: 1.5 runs) and N = 8.
#[test]
fn seven_pass_certified_binary_small() {
    certify_binary("seven_pass", 8);
    certify_binary("seven_pass", 12);
}
