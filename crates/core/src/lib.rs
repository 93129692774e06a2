//! **dna-block-store** — the MICRO'23 paper's contribution: block-storage
//! semantics and versioned data updates for PCR-based DNA storage.
//!
//! A [`Partition`] is the unit the chemistry addresses: one primer pair of
//! length 20. Internally it is *blocked*: a PCR-navigable index tree
//! (`dna-index`) maps fixed-size 256-byte blocks to sparse, GC-balanced
//! 10-base indexes, so the forward primer can be elongated to address one
//! block — or partially elongated to address a range (sequential access).
//!
//! Updates are *versioned*, not edited (§5): an update is synthesized as a
//! small DNA patch whose address shares the target block's prefix and
//! differs only in the final version base (§5.3, Fig. 8), so one PCR
//! retrieves a block together with all its updates, and the patches are
//! applied in software at decode time.
//!
//! [`BlockStore`] ties the full system together over the `dna-sim` wetlab:
//! write files, read blocks and ranges back through
//! PCR → sequencing → clustering → trace reconstruction → RS decoding →
//! patch application, and update blocks by synthesizing and mixing patches.
//! Multi-block workloads go through [`BlockStore::read_blocks_batch`]: the
//! [`batch::BatchPlanner`] packs primer-compatible partitions into
//! multiplex PCR rounds and each round's reads are demultiplexed and
//! decoded in parallel.
//!
//! The store is **sharded** (see the `store` module docs): each partition
//! keeps its own tube behind its own lock, every serving operation takes
//! `&self`, the expensive wetlab/decode phases run against shard
//! snapshots with no locks held, and the multiplex rounds of one batch
//! execute concurrently on scoped threads.
//!
//! Concurrent traffic goes through the serving layer
//! ([`service::StoreServer`]): many client threads issue
//! `read_block`/`read_range`/`update_block` against one shared server,
//! which coalesces reads arriving within a bounded batching window into
//! multiplex rounds *across requests* and serves repeated hot-block reads
//! from an update-aware decoded-block cache ([`cache::BlockCache`]) at
//! zero wetlab cost.
//!
//! Long-lived stores stay writable through the [`compaction`] subsystem:
//! a [`compaction::Compactor`] folds accumulated patch chains back into
//! fresh base units — retiring the stale molecules from the pool and
//! re-synthesizing merged blocks — so update capacity and single-unit
//! read scopes are both reclaimed instead of degrading monotonically.
//!
//! Stores survive the process through the [`persist`] subsystem: a
//! versioned, checksummed snapshot image plus an epoch-keyed write-ahead
//! journal. [`persist::open_or_recover_store`] (or
//! [`service::StoreServer::open_or_recover`]) restores the pre-crash
//! committed prefix byte-identically, truncating any torn journal tail.
//!
//! # Examples
//!
//! ```
//! use dna_block_store::{BlockStore, PartitionConfig};
//!
//! let mut store = BlockStore::new(42);
//! let pid = store.create_partition(PartitionConfig::paper_default(7)).unwrap();
//! let data = vec![7u8; 1000]; // ~4 blocks
//! let written = store.write_file(pid, &data).unwrap();
//! assert_eq!(written, 4);
//! let block0 = store.read_block(pid, 0).unwrap();
//! assert_eq!(&block0.block.data[..], &data[..256]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod error;
mod partition;
mod store;
mod update;

pub mod batch;
pub mod cache;
pub mod capacity;
pub mod compaction;
pub mod cost;
pub mod layout;
pub mod persist;
pub mod planner;
pub mod service;
pub mod sync;
pub mod workload;

pub use batch::{BatchPlan, BatchPlanner, BatchStats, PlanItem, PlannedRound};
pub use block::{checksum64, unit_checksum_ok, Block, BLOCK_SIZE, UNIT_BYTES};
pub use cache::BlockCache;
pub use compaction::{CompactionPolicy, CompactionReport, Compactor};
pub use error::StoreError;
pub use layout::UpdateLayout;
pub use partition::{
    parse_pointer_block, pointer_block, Partition, PartitionBookkeeping, PartitionConfig,
    ReclaimedUpdates, VersionSlot,
};
pub use persist::{open_or_recover_store, PersistPaths};
pub use service::{BatchWindow, ServedRead, ServerConfig, ServerStats, StoreServer};
pub use store::{
    BatchReadOutcome, BlockReadOutcome, BlockStore, CommittedUpdate, PartitionId, PartitionShard,
    ReadProtocolStats,
};
pub use update::UpdatePatch;
