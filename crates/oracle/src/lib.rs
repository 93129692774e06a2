//! Reference implementations the fast kernels are pinned against.
//!
//! Every fast kernel in the simulator and the decode pipeline is trusted
//! because a test shows it equal, byte for byte, to a slow and obvious
//! version of the same computation. Those slow versions live here, each
//! exactly once:
//!
//! - [`run_pcr`] — the dense multiplex PCR engine (every species against
//!   every primer, every cycle, no caches) that
//!   `MultiplexPcrReaction::run` must match to the last f64 bit;
//! - [`corrupt`] — the IDS channel as three `gen_bool` trials per base,
//!   which `IdsChannel::corrupt` must match draw for draw;
//! - [`cluster_reads`] — MinHash clustering with one freshly packed k-mer
//!   per window and a linear candidate de-dup, which
//!   `dna_pipeline::cluster_reads` must match cluster for cluster;
//! - [`extract`] — the per-window primer scan, which
//!   `ReadFilter::extract` and `ReadRouter::route` must match;
//! - [`levenshtein_bounded`] — the scalar banded edit distance both the
//!   clustering and the window-scan references confirm on.
//!
//! No reference calls a kernel it checks: the edit distance is this
//! crate's own scalar DP, and the PCR engine reads only `dna-sim`'s public
//! annealing model and pool. The crate is not published and no library
//! crate depends on it: the equivalence suites take it as a
//! dev-dependency, and only `dna-bench`'s `wetlab_hotpath` links it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod distance;
mod filter;
mod pcr;
mod sequencing;

pub use cluster::cluster_reads;
pub use distance::levenshtein_bounded;
pub use filter::extract;
pub use pcr::{one_channel, run_pcr};
pub use sequencing::corrupt;
