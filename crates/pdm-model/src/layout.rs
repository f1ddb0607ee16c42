//! Disk-block addressing and striped regions.
//!
//! A [`Region`] is a logical array of blocks laid out round-robin ("striped")
//! across the `D` disks: logical block `i` lives on disk
//! `(start_disk + i) mod D`. Reading or writing `D` consecutive logical
//! blocks therefore touches every disk exactly once — one parallel I/O step —
//! which is how the paper's algorithms achieve full parallelism.

use crate::error::{PdmError, Result};

/// Physical address of one block: disk index and slot on that disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockAddr {
    /// Disk index in `0..D`.
    pub disk: usize,
    /// Slot index on that disk.
    pub slot: usize,
}

/// A logical sequence of blocks striped round-robin over the disks.
///
/// Regions are allocated in *levels*: the machine allocates every disk's
/// slots in lockstep, so a region of `n` blocks occupies slots
/// `base .. base + ceil(n/D)` on each disk, with logical block `i` at disk
/// `(start_disk + i) mod D`, slot `base + (offset + i) / D` where `offset`
/// accounts for sub-regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base_slot: usize,
    start_disk: usize,
    /// Offset (in blocks) of this region's block 0 within its allocation.
    block_off: usize,
    num_blocks: usize,
    num_disks: usize,
    block_size: usize,
}

impl Region {
    /// Construct a region rooted at allocation level `base_slot`. Intended
    /// for the machine's allocator; algorithms obtain regions from
    /// [`crate::machine::Pdm::alloc_region`].
    pub fn new(
        base_slot: usize,
        start_disk: usize,
        num_blocks: usize,
        num_disks: usize,
        block_size: usize,
    ) -> Self {
        Self {
            base_slot,
            start_disk,
            block_off: 0,
            num_blocks,
            num_disks,
            block_size,
        }
    }

    /// Length in blocks.
    pub fn len_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Length in keys.
    pub fn len_keys(&self) -> usize {
        self.num_blocks * self.block_size
    }

    /// Block size in keys.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of disks the region is striped over.
    pub fn num_disks(&self) -> usize {
        self.num_disks
    }

    /// First slot level of the allocation this region lies in.
    pub fn base_slot(&self) -> usize {
        self.base_slot
    }

    /// Highest slot index used on any disk (for capacity pre-allocation).
    pub fn max_slot(&self) -> usize {
        if self.num_blocks == 0 {
            return self.base_slot;
        }
        let last = self.block_off + self.num_blocks - 1;
        self.base_slot + last / self.num_disks
    }

    /// Physical address of logical block `i`.
    pub fn addr(&self, i: usize) -> Result<BlockAddr> {
        if i >= self.num_blocks {
            return Err(PdmError::RegionOutOfBounds {
                index: i,
                len: self.num_blocks,
            });
        }
        let abs = self.block_off + i;
        Ok(BlockAddr {
            disk: (self.start_disk + abs) % self.num_disks,
            slot: self.base_slot + abs / self.num_disks,
        })
    }

    /// Contiguous sub-region of `len` blocks starting at logical block
    /// `start` — shares the parent's physical layout.
    pub fn sub(&self, start: usize, len: usize) -> Result<Region> {
        if start + len > self.num_blocks {
            return Err(PdmError::RegionOutOfBounds {
                index: start + len,
                len: self.num_blocks,
            });
        }
        Ok(Region {
            base_slot: self.base_slot,
            start_disk: self.start_disk,
            block_off: self.block_off + start,
            num_blocks: len,
            num_disks: self.num_disks,
            block_size: self.block_size,
        })
    }

    /// Split the region into `parts` equal sub-regions (errors if the block
    /// count is not divisible).
    pub fn split(&self, parts: usize) -> Result<Vec<Region>> {
        if parts == 0 || self.num_blocks % parts != 0 {
            return Err(PdmError::BadConfig(format!(
                "cannot split {} blocks into {} equal parts",
                self.num_blocks, parts
            )));
        }
        let each = self.num_blocks / parts;
        (0..parts).map(|p| self.sub(p * each, each)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_is_round_robin() {
        let r = Region::new(10, 1, 8, 4, 16);
        // block 0 → disk 1, slot 10; block 3 → disk 0 (wrap), slot 10
        assert_eq!(r.addr(0).unwrap(), BlockAddr { disk: 1, slot: 10 });
        assert_eq!(r.addr(1).unwrap(), BlockAddr { disk: 2, slot: 10 });
        assert_eq!(r.addr(3).unwrap(), BlockAddr { disk: 0, slot: 10 });
        assert_eq!(r.addr(4).unwrap(), BlockAddr { disk: 1, slot: 11 });
        assert_eq!(r.addr(7).unwrap(), BlockAddr { disk: 0, slot: 11 });
        assert!(r.addr(8).is_err());
    }

    #[test]
    fn consecutive_stripe_hits_all_disks_once() {
        let d = 4;
        let r = Region::new(0, 0, 16, d, 8);
        for stripe in 0..4 {
            let mut disks: Vec<usize> = (0..d)
                .map(|i| r.addr(stripe * d + i).unwrap().disk)
                .collect();
            disks.sort_unstable();
            assert_eq!(disks, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn sub_region_preserves_physical_addresses() {
        let r = Region::new(5, 2, 12, 3, 4);
        let s = r.sub(4, 6).unwrap();
        for i in 0..6 {
            assert_eq!(s.addr(i).unwrap(), r.addr(4 + i).unwrap());
        }
        assert!(r.sub(8, 5).is_err());
    }

    #[test]
    fn nested_sub_regions_compose() {
        let r = Region::new(0, 0, 24, 4, 2);
        let s = r.sub(6, 12).unwrap();
        let t = s.sub(3, 4).unwrap();
        for i in 0..4 {
            assert_eq!(t.addr(i).unwrap(), r.addr(9 + i).unwrap());
        }
    }

    #[test]
    fn split_into_equal_parts() {
        let r = Region::new(0, 0, 12, 4, 2);
        let parts = r.split(3).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[1].addr(0).unwrap(), r.addr(4).unwrap());
        assert!(r.split(5).is_err());
        assert!(r.split(0).is_err());
    }

    #[test]
    fn max_slot_covers_region() {
        let r = Region::new(3, 0, 9, 4, 2);
        // blocks 0..9, last abs block 8 → slot 3 + 8/4 = 5
        assert_eq!(r.max_slot(), 5);
        let empty = Region::new(3, 0, 0, 4, 2);
        assert_eq!(empty.max_slot(), 3);
    }

    #[test]
    fn len_keys_is_blocks_times_b() {
        let r = Region::new(0, 0, 7, 2, 16);
        assert_eq!(r.len_keys(), 112);
        assert_eq!(r.len_blocks(), 7);
    }
}
