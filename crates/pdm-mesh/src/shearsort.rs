//! Shearsort (Scherson–Sen–Shamir): alternate snake-row sorts and column
//! sorts; `⌈log₂ r⌉ + 1` phases sort an `r × c` mesh into snake order.
//!
//! The paper's `ThreePass1` proof leans on the *Shearsort principle*: one
//! (row-sort, column-sort) phase halves the number of dirty rows of a 0-1
//! input. [`shearsort_phases`] exposes individual phases so experiments can
//! verify the halving directly.

use crate::mesh::Mesh;

/// Number of phases Shearsort needs for `rows` rows: `⌈log₂ rows⌉ + 1`.
pub fn phases_needed(rows: usize) -> usize {
    if rows <= 1 {
        1
    } else {
        (usize::BITS - (rows - 1).leading_zeros()) as usize + 1
    }
}

/// One Shearsort phase: sort rows in snake order, then sort columns.
pub fn shear_phase<K: Ord + Copy>(mesh: &mut Mesh<K>) {
    mesh.sort_rows_snake();
    mesh.sort_columns();
}

/// Run `n` Shearsort phases.
pub fn shearsort_phases<K: Ord + Copy>(mesh: &mut Mesh<K>, n: usize) {
    for _ in 0..n {
        shear_phase(mesh);
    }
}

/// Sort the mesh into snake order with full Shearsort
/// (`⌈log₂ r⌉ + 1` phases followed by a final snake-row sort).
///
/// # Example
///
/// ```
/// use pdm_mesh::Mesh;
/// let mut m = Mesh::from_vec(4, 4, (0..16u32).rev().collect());
/// pdm_mesh::shearsort::shearsort(&mut m);
/// assert!(m.is_sorted_snake());
/// ```
pub fn shearsort<K: Ord + Copy>(mesh: &mut Mesh<K>) {
    shearsort_phases(mesh, phases_needed(mesh.rows()));
    mesh.sort_rows_snake();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirty::dirty_row_count;

    fn rng_vec(n: usize, seed: u64) -> Vec<u64> {
        // xorshift64* — deterministic, dependency-free
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
    fn phases_needed_formula() {
        assert_eq!(phases_needed(1), 1);
        assert_eq!(phases_needed(2), 2);
        assert_eq!(phases_needed(4), 3);
        assert_eq!(phases_needed(5), 4);
        assert_eq!(phases_needed(8), 4);
    }

    #[test]
    fn sorts_random_meshes_into_snake_order() {
        for (r, c, seed) in [(4usize, 4usize, 1u64), (8, 8, 2), (16, 4, 3), (5, 7, 4)] {
            let data = rng_vec(r * c, seed);
            let mut expect = data.clone();
            expect.sort_unstable();
            let mut m = Mesh::from_vec(r, c, data);
            shearsort(&mut m);
            assert!(m.is_sorted_snake(), "{r}x{c} not snake-sorted");
            assert_eq!(m.snake_vec(), expect);
        }
    }

    #[test]
    fn sorts_all_small_binary_meshes() {
        // exhaustive 0-1 check on a 4x4 mesh: 2^16 inputs
        for bits in 0u32..(1 << 16) {
            let data: Vec<u8> = (0..16).map(|i| ((bits >> i) & 1) as u8).collect();
            let mut m = Mesh::from_vec(4, 4, data);
            shearsort(&mut m);
            assert!(m.is_sorted_snake(), "failed on bits {bits:#x}");
        }
    }

    #[test]
    fn phase_halves_dirty_rows_on_binary_input() {
        // Shearsort principle: after one (row, column) phase, the number of
        // dirty rows at most halves (+1 for odd counts).
        for seed in 1..20u64 {
            let r = 16;
            let c = 16;
            let data: Vec<u8> = rng_vec(r * c, seed)
                .iter()
                .map(|&x| (x & 1) as u8)
                .collect();
            let mut m = Mesh::from_vec(r, c, data);
            // establish a baseline dirtiness after one column sort
            m.sort_columns();
            let mut dirty = dirty_row_count(&m, 0, 1);
            while dirty > 1 {
                shear_phase(&mut m);
                let new_dirty = dirty_row_count(&m, 0, 1);
                assert!(
                    new_dirty <= dirty / 2 + 1,
                    "dirty rows went {dirty} -> {new_dirty}"
                );
                if new_dirty == dirty {
                    break; // already stable at ≤1 effective band
                }
                dirty = new_dirty;
            }
        }
    }

    #[test]
    fn already_sorted_input_is_stable() {
        let data: Vec<u64> = (0..64).collect();
        let snake = crate::mesh::layout_sorted_rows(&data, 8, crate::mesh::Direction::snake);
        let mut m = Mesh::from_vec(8, 8, snake);
        shearsort(&mut m);
        assert!(m.is_sorted_snake());
        assert_eq!(m.snake_vec(), data);
    }
}
