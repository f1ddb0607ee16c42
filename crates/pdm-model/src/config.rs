//! Machine configuration for the Parallel Disk Model.
//!
//! A PDM machine is characterized by three parameters (Vitter–Shriver):
//!
//! * `D` — the number of independent disks; one parallel I/O step can move
//!   at most one block per disk,
//! * `B` — the block size in keys (records),
//! * `M` — the internal memory size in keys, typically a small constant
//!   multiple of `D·B`.
//!
//! The paper's algorithms all use `B = √M`, so [`PdmConfig::square`] is the
//! configuration constructor used throughout the reproduction.

use crate::error::{PdmError, Result};

/// Static description of a PDM machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdmConfig {
    /// Number of independent disks `D`.
    pub num_disks: usize,
    /// Block size `B`, in keys.
    pub block_size: usize,
    /// Internal memory capacity `M`, in keys.
    pub mem_capacity: usize,
    /// Constant-factor workspace slack: the enforced in-memory limit is
    /// `workspace_factor × mem_capacity` keys.
    ///
    /// The PDM literature treats `M` as defined up to a small constant
    /// (`M = c·DB`); the paper's cleanup phases explicitly hold two
    /// `M`-sized windows at once (§5 of the paper), so the default is 2.
    pub workspace_factor: usize,
}

impl PdmConfig {
    /// Build a configuration with explicit `D`, `B`, `M` and the default
    /// workspace factor of 2.
    pub fn new(num_disks: usize, block_size: usize, mem_capacity: usize) -> Self {
        Self {
            num_disks,
            block_size,
            mem_capacity,
            workspace_factor: 2,
        }
    }

    /// The paper's canonical configuration: internal memory `M = b²` keys
    /// and block size `B = √M = b`, spread over `num_disks` disks.
    ///
    /// `b` is the square root of the memory size; e.g. `square(4, 64)` gives
    /// `M = 4096`, `B = 64`, `D = 4`.
    pub fn square(num_disks: usize, b: usize) -> Self {
        Self::new(num_disks, b, b * b)
    }

    /// Override the workspace slack factor (see [`PdmConfig::workspace_factor`]).
    pub fn with_workspace_factor(mut self, factor: usize) -> Self {
        self.workspace_factor = factor;
        self
    }

    /// `√M`, when `M` is a perfect square. The paper's algorithms require
    /// this; returns an error otherwise.
    pub fn sqrt_m(&self) -> Result<usize> {
        let m = self.mem_capacity;
        let r = (m as f64).sqrt().round() as usize;
        if r * r == m {
            Ok(r)
        } else {
            Err(PdmError::BadConfig(format!(
                "M = {m} is not a perfect square"
            )))
        }
    }

    /// The enforced internal-memory limit in keys:
    /// `workspace_factor × M` plus a two-stripe (`2·D·B`) I/O staging
    /// allowance. The PDM assumes `M ≥ D·B`, so the allowance is a constant
    /// fraction of `M`; it lets an algorithm whose working set is exactly
    /// `2M` (e.g. the paper's "two `Z_i` windows in memory") still stage
    /// one stripe of blocks for its next parallel write.
    pub fn mem_limit(&self) -> usize {
        self.workspace_factor * self.mem_capacity + 2 * self.num_disks * self.block_size
    }

    /// Number of parallel I/O steps constituting one *pass* over `n` keys:
    /// `⌈n / (D·B)⌉` (the paper defines a pass as `N/DB` read I/Os plus the
    /// same number of writes).
    pub fn steps_per_pass(&self, n: usize) -> usize {
        n.div_ceil(self.num_disks * self.block_size)
    }

    /// Number of blocks needed to hold `n` keys.
    pub fn blocks_for(&self, n: usize) -> usize {
        n.div_ceil(self.block_size)
    }

    /// Validate internal consistency: all parameters positive, the memory at
    /// least one stripe (`D·B`), and the block size at most `M`.
    pub fn validate(&self) -> Result<()> {
        if self.num_disks == 0 {
            return Err(PdmError::BadConfig("D must be positive".into()));
        }
        if self.block_size == 0 {
            return Err(PdmError::BadConfig("B must be positive".into()));
        }
        if self.mem_capacity == 0 {
            return Err(PdmError::BadConfig("M must be positive".into()));
        }
        if self.workspace_factor == 0 {
            return Err(PdmError::BadConfig(
                "workspace_factor must be positive".into(),
            ));
        }
        if self.block_size > self.mem_capacity {
            return Err(PdmError::BadConfig(format!(
                "B = {} exceeds M = {}",
                self.block_size, self.mem_capacity
            )));
        }
        if self.num_disks * self.block_size > self.mem_capacity {
            return Err(PdmError::BadConfig(format!(
                "one stripe D·B = {} exceeds M = {}; PDM assumes M ≥ D·B",
                self.num_disks * self.block_size,
                self.mem_capacity
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_config_has_b_eq_sqrt_m() {
        let cfg = PdmConfig::square(4, 64);
        assert_eq!(cfg.block_size, 64);
        assert_eq!(cfg.mem_capacity, 4096);
        assert_eq!(cfg.sqrt_m().unwrap(), 64);
        cfg.validate().unwrap();
    }

    #[test]
    fn sqrt_m_rejects_non_square() {
        let cfg = PdmConfig::new(2, 10, 1000);
        assert!(cfg.sqrt_m().is_err());
    }

    #[test]
    fn steps_per_pass_rounds_up() {
        let cfg = PdmConfig::new(4, 16, 256);
        // one stripe = 64 keys
        assert_eq!(cfg.steps_per_pass(64), 1);
        assert_eq!(cfg.steps_per_pass(65), 2);
        assert_eq!(cfg.steps_per_pass(256), 4);
    }

    #[test]
    fn validate_rejects_degenerate() {
        assert!(PdmConfig::new(0, 8, 64).validate().is_err());
        assert!(PdmConfig::new(2, 0, 64).validate().is_err());
        assert!(PdmConfig::new(2, 8, 0).validate().is_err());
        // B > M
        assert!(PdmConfig::new(1, 128, 64).validate().is_err());
        // D*B > M
        assert!(PdmConfig::new(16, 8, 64).validate().is_err());
        // workspace_factor = 0
        assert!(PdmConfig::new(2, 8, 64)
            .with_workspace_factor(0)
            .validate()
            .is_err());
    }

    #[test]
    fn mem_limit_uses_workspace_factor_plus_staging() {
        let cfg = PdmConfig::new(2, 8, 64).with_workspace_factor(3);
        // 3*64 + 2*2*8 = 224
        assert_eq!(cfg.mem_limit(), 224);
    }

    #[test]
    fn blocks_for_rounds_up() {
        let cfg = PdmConfig::new(2, 8, 64);
        assert_eq!(cfg.blocks_for(0), 0);
        assert_eq!(cfg.blocks_for(8), 1);
        assert_eq!(cfg.blocks_for(9), 2);
    }
}
