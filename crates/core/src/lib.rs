//! # pdm-sort — PDM sorting in a small number of passes
//!
//! The primary contribution of *Rajasekaran & Sen, "PDM Sorting Algorithms
//! That Take A Small Number Of Passes" (IPPS 2005)*: out-of-core sorting
//! algorithms for the Parallel Disk Model that finish in 2–7 passes for
//! inputs up to `M²` keys with block size `B = √M`, implemented over the
//! [`pdm_model`] simulator with exact pass accounting and tracked internal
//! memory.
//!
//! | Algorithm | Paper | Passes | Capacity |
//! |---|---|---|---|
//! | [`three_pass1`](mod@three_pass1) | §3.1, Thm 3.1 | 3 (worst case) | `M√M` |
//! | [`exp_two_pass_mesh`](mod@exp_two_pass_mesh) | §3.2, Thm 3.2 | 2 expected | `≈ M√M / (c·α·ln M)` |
//! | [`three_pass2`](mod@three_pass2) | §4, Lemma 4.1 | 3 (worst case) | `M√M` |
//! | [`expected_two_pass`](mod@expected_two_pass) | §5, Thm 5.1 | 2 expected | `M√M/√((α+2)ln M+2)` |
//! | [`expected_three_pass`](mod@expected_three_pass) | §6, Thm 6.1 | 3 expected | `≈ M^{1.75}` |
//! | [`seven_pass`](mod@seven_pass) | §6.1, Thm 6.2 | 7 (worst case) | `M²` |
//! | [`expected_six_pass`] | §6.2, Thm 6.3 | 6 expected | `M²/√((α+2)ln M+2)` |
//! | [`integer_sort`](mod@integer_sort) | §7, Thm 7.1 | `2(1+µ)` | any `N`, keys in `[0, M/B)` |
//! | [`radix_sort`](mod@radix_sort) | §7, Thm 7.2 | `(1+ν)·log(N/M)/log(M/B)+1` | any `N`, integer keys |
//! | [`merge_sort`](mod@merge_sort) | baseline | `1 + ⌈log_f⌈N/M⌉⌉`, `f = M/(DB) − 1` | any `N` |
//! | [`updown_merge_sort`] | baseline | as `merge_sort`, fewer on presorted input | any `N` |
//!
//! [`pdm_sort`] runs the candidate with the fewest predicted passes at
//! `N` — the paper's ladder (in-memory,
//! [`expected_two_pass`](mod@expected_two_pass),
//! [`three_pass2`](mod@three_pass2),
//! [`expected_three_pass`](mod@expected_three_pass),
//! [`expected_six_pass`], [`seven_pass`](mod@seven_pass)) and
//! [`merge_sort`](mod@merge_sort) — preferring, on a tie, a bound that
//! holds on every input, then the paper's sorter ([`dispatch`]).
//!
//! "Expected" algorithms take the stated passes on a `≥ 1 − M^{−α}`
//! fraction of inputs; they carry the paper's online abort check (the
//! output stream is verified as it is written) and fall back to their
//! deterministic alternative on the rare bad input. The paper's
//! comparison-based algorithms are *oblivious* — their I/O schedule is input
//! independent — which is what makes its generalized 0-1 analysis (see
//! `pdm-theory`) applicable. The two merge sorts are the yardstick, and
//! their I/O depends on the data.
//!
//! ## Quickstart
//!
//! ```
//! use pdm_model::prelude::*;
//! use pdm_sort::pdm_sort;
//!
//! // D = 4 disks, B = √M = 16, M = 256 keys of internal memory.
//! let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, 16)).unwrap();
//!
//! // N = M√M = 4096 keys already residing on the disks.
//! let input: Vec<u64> = (0..4096u64).rev().collect();
//! let region = pdm.alloc_region_for_keys(input.len()).unwrap();
//! pdm.ingest(&region, &input).unwrap();
//!
//! let report = pdm_sort(&mut pdm, &region, input.len()).unwrap();
//! assert_eq!(report.read_passes, 3.0); // Lemma 4.1: three passes
//! let sorted = pdm.inspect_prefix(&report.output, input.len()).unwrap();
//! assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod common;
pub mod dispatch;
pub mod exp_two_pass_mesh;
pub mod expected_three_pass;
pub mod expected_two_pass;
pub mod integer_sort;
pub mod kernels;
pub mod merge;
pub mod merge_sort;
pub mod radix_sort;
pub mod seven_pass;
pub mod three_pass1;
pub mod three_pass2;

pub use common::{Algorithm, PassBound, SortReport};
pub use dispatch::{choose, pdm_sort, pdm_sort_with_alpha, rank};
pub use exp_two_pass_mesh::exp_two_pass_mesh;
pub use expected_three_pass::expected_three_pass;
pub use expected_two_pass::expected_two_pass;
pub use integer_sort::{integer_sort, FlushMode};
pub use merge_sort::{merge_sort, updown_merge_sort};
pub use radix_sort::{radix_sort, RadixReport};
pub use seven_pass::{expected_six_pass, seven_pass};
pub use three_pass1::three_pass1;
pub use three_pass2::three_pass2;
