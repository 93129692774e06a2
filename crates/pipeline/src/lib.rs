//! Read-recovery pipeline: from noisy sequencer reads back to block bytes.
//!
//! Implements the paper's §6.6/§8 decoding procedure:
//!
//! 1. **Filter** ([`ReadFilter`]): find the elongated forward primer and the
//!    reverse primer in each read and extract the interior;
//! 2. **Cluster** ([`cluster_reads`]): group interiors so each cluster holds
//!    the noisy copies of one original strand (Rashtchian et al. style:
//!    MinHash bucketing + bounded edit-distance confirmation);
//! 3. **Reconstruct** ([`double_sided_bma`]): two-sided Bitwise Majority
//!    Alignment (Lin et al.) per cluster, largest clusters first;
//! 4. **Decode** ([`decode_block`]): place reconstructed strands into
//!    encoding-unit matrices by their (version, intra-unit) address, discard
//!    duplicate addresses, Reed-Solomon-decode each version, and — when
//!    mispriming poisons an address (§8.1) — retry with alternate candidate
//!    strands in descending cluster-size order;
//! 5. **Fan out** ([`decode_jobs_parallel_into`]): demultiplex a multiplexed
//!    round's shared read pool into per-block [`DecodeJob`]s and decode them
//!    on parallel OS threads.
//!
//! # Examples
//!
//! See `decode_block`'s documentation and the crate's integration tests for
//! end-to-end usage with the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bma;
mod cluster;
mod decode;
mod demux;
mod filter;
mod parallel;

pub use bma::{bma, double_sided_bma};
pub use cluster::{cluster_reads, Cluster, ClusterConfig};
pub use decode::{
    decode_block, decode_block_validated, BlockDecodeConfig, BlockDecodeOutcome, RecoveredVersion,
};
pub use demux::{demux_reads, ChannelPrimer};
pub use filter::ReadFilter;
pub use parallel::{decode_jobs_parallel_into, thread_share, DecodeJob};
