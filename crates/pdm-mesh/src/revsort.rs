//! Revsort-style rotation rounds (Schnorr & Shamir).
//!
//! Revsort's key idea: between column sorts, cyclically rotate row `i` by
//! the *bit-reversal* of `i`. Bit-reversed rotations spread each column's
//! content nearly uniformly over the columns, so the 0-1 dirty region
//! contracts superlinearly fast (from `k` dirty rows to roughly `k/s + s`
//! per round on an `r × s` mesh), which is what lets subblock columnsort
//! (paper Observation 6.1) push capacity to `M^{5/3}`.
//!
//! This module implements the rotation rounds and measures their
//! dirty-region contraction; it finishes with Shearsort phases for a
//! guaranteed sort (the experiments use the rounds, not the finish).

use crate::mesh::{Direction, Mesh};
use crate::shearsort;

/// Bit-reversal of `i` within `bits` bits.
pub fn bit_reverse(i: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    (i.reverse_bits()) >> (usize::BITS - bits)
}

/// Cyclically rotate row `i` left by `rev(i) mod s` where `rev` is the
/// bit-reversal over `⌈log₂ r⌉` bits.
pub fn rev_rotate_rows<K: Ord + Copy>(mesh: &mut Mesh<K>) {
    let s = mesh.cols();
    let r = mesh.rows();
    let bits = if r <= 1 {
        0
    } else {
        usize::BITS - (r - 1).leading_zeros()
    };
    for i in 0..r {
        let shift = bit_reverse(i, bits) % s;
        mesh.row_mut(i).rotate_left(shift);
    }
}

/// One Revsort round: sort columns, sort rows (snake), rev-rotate.
pub fn rev_round<K: Ord + Copy>(mesh: &mut Mesh<K>) {
    mesh.sort_columns();
    mesh.sort_rows_snake();
    rev_rotate_rows(mesh);
}

/// Run `rounds` Revsort rounds, then finish deterministically with
/// Shearsort so the mesh ends snake-sorted regardless of the round count.
pub fn revsort<K: Ord + Copy>(mesh: &mut Mesh<K>, rounds: usize) {
    for _ in 0..rounds {
        rev_round(mesh);
    }
    shearsort::shearsort(mesh);
}

/// Sort each row ascending then rev-rotate — the "spread" prefix used when
/// measuring contraction without the snake interaction.
pub fn spread_step<K: Ord + Copy>(mesh: &mut Mesh<K>) {
    mesh.sort_all_rows(Direction::Asc);
    rev_rotate_rows(mesh);
    mesh.sort_columns();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirty::dirty_row_count;

    fn rng_vec(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                s.wrapping_mul(0x2545_F491_4F6C_DD1D)
            })
            .collect()
    }

    #[test]
    fn bit_reverse_basic() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(5, 0), 0);
        assert_eq!(bit_reverse(1, 1), 1);
    }

    #[test]
    fn rotations_preserve_multiset() {
        let data = rng_vec(64, 9);
        let mut m = Mesh::from_vec(8, 8, data.clone());
        rev_rotate_rows(&mut m);
        let mut got = m.into_vec();
        let mut want = data;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn revsort_sorts_random_meshes() {
        for seed in 1..6u64 {
            let data = rng_vec(16 * 16, seed);
            let mut expect = data.clone();
            expect.sort_unstable();
            let mut m = Mesh::from_vec(16, 16, data);
            revsort(&mut m, 2);
            assert!(m.is_sorted_snake());
            assert_eq!(m.snake_vec(), expect);
        }
    }

    #[test]
    fn rounds_contract_dirty_region_on_binary_input() {
        // Measure: after a spread step the dirty-row count of a random 0-1
        // mesh should contract well below the trivial bound (#rows).
        let (r, s) = (64usize, 8usize);
        let mut worst_after = 0usize;
        for seed in 1..=10u64 {
            let data: Vec<u8> = rng_vec(r * s, seed)
                .iter()
                .map(|&x| (x & 1) as u8)
                .collect();
            let mut m = Mesh::from_vec(r, s, data);
            m.sort_columns();
            let before = dirty_row_count(&m, 0, 1);
            spread_step(&mut m);
            let after = dirty_row_count(&m, 0, 1);
            worst_after = worst_after.max(after);
            assert!(
                after <= before.max(1),
                "dirty rows grew: {before} -> {after}"
            );
        }
        // contraction target: ~ s + small constant, far below r
        assert!(
            worst_after <= 2 * s,
            "dirty rows after spread: {worst_after}"
        );
    }
}
