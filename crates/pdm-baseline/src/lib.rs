//! # pdm-baseline — comparison baselines
//!
//! The systems the paper compares against, re-implemented on the same PDM
//! simulator so capacity/pass comparisons are apples-to-apples:
//!
//! * [`cc_columnsort`](mod@cc_columnsort) — Chaudhry–Cormen three-pass
//!   out-of-core columnsort (Observation 4.1 comparator; capacity
//!   `≈ M√M/√2`), plus the skip-steps-1-2 expected two-pass variant of
//!   Observation 5.1;
//! * [`subblock`] — subblock columnsort (Observation 6.1: four passes,
//!   `≈ M^{5/3}/4^{2/3}` keys);
//! * [`srm`] — Simple Randomized Mergesort (Barve–Grove–Vitter, the
//!   paper's \[5\]): memory-frugal merging whose disk parallelism comes from
//!   randomized striping + forecasting.
//!
//! The general multiway external merge sort — the asymptotically optimal
//! yardstick for arbitrary `N` — lives in the sorter table as
//! `pdm_sort::Algorithm::MergeSort` (and `UpDownMergeSort`), so the
//! dispatcher can weigh it against the paper's sorters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cc_columnsort;
pub mod srm;
pub mod subblock;

pub use cc_columnsort::{cc_columnsort, cc_columnsort_skip12, CcReport};
pub use srm::{srm_merge_sort, SrmReport, Striping};
pub use subblock::subblock_columnsort;
