//! The end-to-end block store over the simulated wetlab — sharded.
//!
//! # Shard model
//!
//! The paper's core premise (§4–§6) is that each partition is an
//! *independently addressable unit* with its own primer pair; physically,
//! per-address reactions are independent (Yazdi et al. 2015). The store
//! mirrors that: instead of one monolithic pool behind one lock, state is
//! split into
//!
//! - **shared immutable instruments** ([`Instruments`]: vendors, sequencer,
//!   nanodrop, coverage) — read freely by every operation; mutated only by
//!   `&mut self` setup methods, which the borrow checker makes exclusive;
//! - **per-partition shards** ([`PartitionShard`]): the partition's
//!   placement bookkeeping, its own tube ([`dna_sim::Pool`]; the store's
//!   tubes together form the [`dna_sim::TubeRack`] view returned by
//!   [`BlockStore::tube_rack`]), the digital front-end image of its
//!   blocks, a commit **epoch**, and a deterministic per-shard RNG — each
//!   behind its own mutex;
//! - the **shared DedicatedLog shard** — one partition/tube like any
//!   other, but explicitly cross-shard: every DedicatedLog read scopes the
//!   whole log (§5.3), and every DedicatedLog update appends to it.
//!
//! # Lock order
//!
//! Deadlock freedom comes from one global order. Locks are always taken
//! in this sequence (any prefix may be skipped, never reordered):
//!
//! 1. the **directory** `RwLock` (shard list + log registry);
//! 2. the **primer allocator** mutex;
//! 3. **data-shard** mutexes in ascending partition id;
//! 4. the **log shard** mutex (always last among shards, whatever its id).
//!
//! Most operations hold exactly one shard lock at a time. The exceptions:
//! a DedicatedLog update commit holds its target shard, then the log
//! shard; [`BlockStore::compact_log`] holds every DedicatedLog shard
//! (ascending), then the log shard.
//!
//! This order is *enforced*, not just documented: every store lock is a
//! [`crate::sync::RankedMutex`] / [`crate::sync::RankedRwLock`] (directory
//! = rank 0, primer alloc = 1, data shard = 2 + pid, log shard last), so a
//! violating acquisition panics in debug/test builds naming both sites,
//! and `cargo run -p xtask -- lint` statically checks the companion rules.
//! See README § "Lock discipline & static checks" for the rank table and
//! the lint catalog.
//!
//! # Snapshot → wetlab → validate-and-commit
//!
//! No lock is ever held across amplification, sequencing, synthesis
//! skew simulation, or decoding:
//!
//! 1. **snapshot** — briefly lock the shard(s); clone the `Arc`s for the
//!    partition metadata and the tube, record the epoch, split a
//!    deterministic RNG stream;
//! 2. **wetlab** — run PCR + sequencing + cluster/BMA/RS decode (reads),
//!    or vendor synthesis (updates, compaction rewrites) against the
//!    snapshot, lock-free — so the expensive phase for shard A runs
//!    concurrently with commits to shard B, and a panic inside the
//!    fallible wetlab/decode code can never poison a shard lock;
//! 3. **validate and commit** — re-lock, compare the epoch; if unchanged,
//!    apply the in-place mutations ([`dna_sim::Pool::mix_in`],
//!    `commit_placement`, epoch bump); if another writer won, retry from a
//!    fresh snapshot (every failed validation implies another commit
//!    landed, so the system as a whole always makes progress).
//!
//! Reads need no commit: their result is linearized at snapshot time, and
//! the snapshot epoch travels with the outcome
//! ([`BatchReadOutcome::shard_epochs`]) so a serving layer can order cache
//! fills against concurrent updates without holding store locks.

use crate::batch::{BatchPlan, BatchPlanner, BatchStats, PlanItem};
use crate::block::{unit_checksum_ok, Block, BLOCK_SIZE};
use crate::compaction::CompactionReport;
use crate::layout::UpdateLayout;
use crate::partition::{parse_pointer_block, Partition, PartitionConfig, VersionSlot};
use crate::persist::{
    write_image_atomic_with_crash, Journal, JournalRecord, PersistPaths, ShardImage, StoreImage,
};
use crate::sync::{LockRank, RankedMutex, RankedMutexGuard, RankedRwLock, RankedRwLockReadGuard};
use crate::update::UpdatePatch;
use crate::StoreError;
use dna_pipeline::{
    decode_jobs_parallel_into, demux_reads, thread_share, BlockDecodeOutcome, ChannelPrimer,
    DecodeJob,
};
use dna_primers::{PrimerConstraints, PrimerLibrary, PrimerPair};
use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::{
    IdsChannel, Molecule, MultiplexPcrReaction, Nanodrop, PcrPrimer, PcrProtocol, Pool,
    PrimerChannel, Sequencer, SynthesisVendor, TubeRack,
};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

/// Handle to a partition within a [`BlockStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub usize);

/// Wetlab statistics of one block read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadProtocolStats {
    /// PCR + sequencing round-trips. A batched read pays its one
    /// multiplex round. A sequential [`BlockStore::read_block`] pays one
    /// per Interleaved chain hop (1 + hops), 1 for TwoStacks, and 2 for
    /// DedicatedLog once the shared log holds entries (data, then log).
    pub pcr_rounds: usize,
    /// Total reads sequenced.
    pub reads_sequenced: usize,
    /// Reads whose primer regions matched a leaf this read decoded.
    pub reads_matched: usize,
    /// Clusters reconstructed for the requested block's own leaf.
    pub clusters_used: usize,
}

/// Result of reading one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockReadOutcome {
    /// The block content with all updates applied.
    pub block: Block,
    /// Number of update patches applied on top of the original.
    pub patches_applied: usize,
    /// Wetlab statistics.
    pub stats: ReadProtocolStats,
}

/// Receipt of one committed update: the post-update logical image and the
/// shard epoch the commit was assigned. Epochs are strictly monotonic per
/// shard, so a serving layer can order its cache / staleness-oracle writes
/// by them instead of holding a store-wide lock across the commit.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedUpdate {
    /// The block's logical content after the update.
    pub image: Block,
    /// The target shard's epoch after the commit.
    pub epoch: u64,
}

/// Result of a batched multi-block retrieval
/// ([`BlockStore::read_blocks_batch`]).
#[derive(Debug, Clone)]
pub struct BatchReadOutcome {
    /// Per-request outcomes, in request order. A failed block does not
    /// poison the rest of the batch.
    pub outcomes: Vec<Result<BlockReadOutcome, StoreError>>,
    /// Aggregate wetlab statistics across all multiplex rounds.
    pub stats: BatchStats,
    /// Each touched shard's epoch at snapshot time. A cache layer may
    /// install an outcome for `(pid, block)` only if no update with a
    /// higher epoch has been recorded for that key since — the
    /// validate-half of the snapshot protocol, exported to the caller.
    pub shard_epochs: BTreeMap<PartitionId, u64>,
}

/// The shared wetlab instruments and knobs: synthesis vendors, the
/// sequencer, the nanodrop, and the coverage setting. Immutable during
/// serving (`&self` operations only read them); the `&mut self` setters on
/// [`BlockStore`] are exclusive by construction.
#[derive(Debug, Clone)]
struct Instruments {
    twist: SynthesisVendor,
    idt: SynthesisVendor,
    sequencer: Sequencer,
    nanodrop: Nanodrop,
    /// Reads sampled per expected strand during retrieval.
    coverage: usize,
}

/// One shard of the store: a partition's bookkeeping, its own tube in the
/// rack, the digital front-end image of its blocks, and the state that
/// makes lock-free wetlab execution safe — a commit **epoch** (bumped by
/// every content mutation; snapshot validation compares it) and a
/// deterministic per-shard RNG (split per operation, so wetlab draws are
/// reproducible from the shard's operation order alone, independent of
/// cross-shard interleaving).
///
/// Shards are held behind per-shard mutexes in the store's directory; the
/// lock-order and snapshot protocol are documented at the
/// [module level](self).
#[derive(Debug)]
pub struct PartitionShard {
    /// Placement bookkeeping and encode/decode metadata. `Arc` so
    /// snapshots are O(1); mutators go through `Arc::make_mut`.
    partition: Arc<Partition>,
    /// This shard's tube. `Arc` so snapshots are O(1): writers mutate in
    /// place via `Arc::make_mut` + [`Pool::mix_in`] when no snapshot is
    /// outstanding, and copy-on-write only when one is.
    tube: Arc<Pool>,
    /// §5.4 digital front-end: the current logical content per block.
    logical: BTreeMap<u64, Block>,
    /// Commit epoch: strictly monotonic, bumped by every mutation that
    /// changes logical content or placement state.
    epoch: u64,
    /// Per-shard deterministic RNG; operations split private streams off
    /// it under the shard lock.
    rng: DetRng,
    /// Next free leaf in the shared update log (log shard only).
    log_head: u64,
    /// Monotonic sequence number for log entries (log shard only).
    log_seq: u32,
}

impl PartitionShard {
    fn new(partition: Partition, rng: DetRng) -> PartitionShard {
        PartitionShard {
            partition: Arc::new(partition),
            tube: Arc::new(Pool::new()),
            logical: BTreeMap::new(),
            epoch: 0,
            rng,
            log_head: 0,
            log_seq: 0,
        }
    }

    /// Splits a private RNG stream for one operation's wetlab draws.
    fn split_rng(&mut self) -> DetRng {
        DetRng::seed_from_u64(self.rng.next_u64())
    }

    /// A consistent point-in-time view of this shard (see
    /// [`ShardSnapshot`]), splitting an RNG stream for the operation.
    fn snapshot_state(&mut self, pid: usize) -> ShardSnapshot {
        ShardSnapshot {
            pid,
            partition: Arc::clone(&self.partition),
            tube: Arc::clone(&self.tube),
            epoch: self.epoch,
            rng: self.split_rng(),
        }
    }

    /// A read-only view of this shard in its shared-log role.
    fn log_state(&self, pid: usize) -> LogSnapshot {
        LogSnapshot {
            pid,
            partition: Arc::clone(&self.partition),
            tube: Arc::clone(&self.tube),
            head: self.log_head,
        }
    }
}

/// A consistent point-in-time view of one shard, taken under its lock and
/// used lock-free afterwards.
struct ShardSnapshot {
    pid: usize,
    partition: Arc<Partition>,
    tube: Arc<Pool>,
    epoch: u64,
    rng: DetRng,
}

/// A read-only view of the shared log shard (no RNG split: reads do not
/// disturb the log shard's stream).
#[derive(Clone)]
struct LogSnapshot {
    pid: usize,
    partition: Arc<Partition>,
    tube: Arc<Pool>,
    head: u64,
}

/// The partition directory: the shard list plus the shared-log registry.
/// Write-locked only by partition creation; everything else takes brief
/// read locks to clone shard handles.
#[derive(Debug)]
struct Directory {
    // lock-rank: 2+pid
    shards: Vec<Arc<RankedMutex<PartitionShard>>>,
    /// The shared update-log shard (created on demand for
    /// [`UpdateLayout::DedicatedLog`]).
    log_pid: Option<usize>,
    /// Configuration template for the log partition (its tag is forced to
    /// [`LOG_PARTITION_TAG`] at creation).
    log_config: PartitionConfig,
    /// Store seed; shard RNGs derive from it by partition id.
    seed: u64,
}

/// Primer-pair allocation state.
#[derive(Debug)]
struct PrimerAlloc {
    library: PrimerLibrary,
    handed_out: usize,
}

/// The attached durability sink: the open write-ahead journal plus the
/// paths the next checkpoint writes. Absent on stores opened with
/// [`BlockStore::new`] — those are ephemeral, exactly as before the
/// persist subsystem existed.
#[derive(Debug)]
struct DurableSink {
    journal: Journal,
    paths: PersistPaths,
}

/// The full system: partitions, the per-partition archival tubes, and the
/// simulated instruments — sharded for concurrency as documented at the
/// [module level](self).
///
/// Every serving operation takes `&self`: the store is `Sync`, and callers
/// share it across threads directly (no external mutex). The digital
/// front-end cache of logical block contents (§5.4) lives inside each
/// shard; all read paths go through the wetlab.
#[derive(Debug)]
pub struct BlockStore {
    instruments: Instruments,
    // lock-rank: 0
    directory: RankedRwLock<Directory>,
    // lock-rank: 1
    alloc: RankedMutex<PrimerAlloc>,
    /// Write-ahead journal, appended inside commit critical sections.
    /// Its rank is last of all, so a commit may journal while holding any
    /// store lock; nothing is ever acquired under it.
    // lock-rank: journal
    journal: RankedMutex<Option<DurableSink>>,
}

/// Ground-truth tag distinguishing shared-log strands in the simulator.
const LOG_PARTITION_TAG: u32 = 1000;

impl BlockStore {
    /// Creates a store with a deterministic seed. The seed drives primer
    /// library generation, synthesis skew and read sampling — two stores
    /// with the same seed and per-shard call sequence behave identically.
    pub fn new(seed: u64) -> BlockStore {
        let constraints = PrimerConstraints::paper_default(20);
        let library =
            PrimerLibrary::generate_with_distance(&constraints, 8, 64, 400_000, seed ^ 0x9121);
        BlockStore {
            instruments: Instruments {
                twist: SynthesisVendor::twist(),
                idt: SynthesisVendor::idt(),
                sequencer: Sequencer::new(IdsChannel::illumina()),
                nanodrop: Nanodrop::benchtop(),
                coverage: 12,
            },
            directory: RankedRwLock::new(
                LockRank::DIRECTORY,
                "store-directory",
                Directory {
                    shards: Vec::new(),
                    log_pid: None,
                    log_config: PartitionConfig::paper_default(0x106),
                    seed,
                },
            ),
            alloc: RankedMutex::new(
                LockRank::PRIMER_ALLOC,
                "primer-alloc",
                PrimerAlloc {
                    library,
                    handed_out: 0,
                },
            ),
            journal: RankedMutex::new(LockRank::JOURNAL, "journal", None),
        }
    }

    // ----- locking primitives ----------------------------------------------
    //
    // Shard critical sections contain no panic sources (pure map/arithmetic
    // mutations; the fallible wetlab/decode phases run outside all locks by
    // construction), so a poisoned store lock indicates a store bug and we
    // fail fast. The serving layer's own locks recover from poisoning —
    // see `service`.

    fn dir_read(&self) -> RankedRwLockReadGuard<'_, Directory> {
        self.directory.read().expect("directory lock")
    }

    fn shard_cell(&self, pid: usize) -> Result<Arc<RankedMutex<PartitionShard>>, StoreError> {
        self.dir_read()
            .shards
            .get(pid)
            .cloned()
            .ok_or(StoreError::UnknownPartition(pid))
    }

    fn log_cell(&self) -> Option<(usize, Arc<RankedMutex<PartitionShard>>)> {
        let dir = self.dir_read();
        dir.log_pid.map(|pid| (pid, Arc::clone(&dir.shards[pid])))
    }

    fn lock_shard(cell: &Arc<RankedMutex<PartitionShard>>) -> RankedMutexGuard<'_, PartitionShard> {
        cell.lock().expect("shard lock")
    }

    /// Read-only snapshot of the shared log shard, if it exists.
    fn log_snapshot(&self) -> Option<LogSnapshot> {
        let (pid, cell) = self.log_cell()?;
        let shard = Self::lock_shard(&cell);
        Some(shard.log_state(pid))
    }

    /// Snapshots the shards `pids` for a read: one consistent cut per
    /// shard, taken in ascending pid order, plus the shared log — last —
    /// when any of them uses the DedicatedLog layout. DedicatedLog shards
    /// stay locked until the log is snapshotted, so every (shard, log)
    /// pair is atomic: an update holds its target shard across its whole
    /// log append, so a pair taken under the shard lock is either entirely
    /// pre-update or entirely post-update (never post-update bytes stamped
    /// with a pre-update epoch, which would confuse the serving layer's
    /// epoch-ordered cache coherence). Everything after runs lock-free.
    fn snapshot_reads(
        &self,
        pids: &BTreeSet<usize>,
    ) -> Result<(BTreeMap<usize, ShardSnapshot>, Option<LogSnapshot>), StoreError> {
        let mut cells = Vec::with_capacity(pids.len());
        for &pid in pids {
            cells.push((pid, self.shard_cell(pid)?));
        }
        // Resolve the log cell before taking any shard lock (the directory
        // always comes first in the lock order). A log created concurrently
        // with this resolution holds only entries from updates concurrent
        // with this read — returning the pre-update image is linearizable.
        let log = self.log_cell();
        let mut snaps: BTreeMap<usize, ShardSnapshot> = BTreeMap::new();
        let mut log_needed = false;
        let mut dl_guards: Vec<RankedMutexGuard<'_, PartitionShard>> = Vec::new();
        for (pid, cell) in &cells {
            let mut shard = Self::lock_shard(cell);
            snaps.insert(*pid, shard.snapshot_state(*pid));
            if shard.partition.config().layout == UpdateLayout::DedicatedLog {
                log_needed = true;
                if log.as_ref().is_some_and(|&(log_pid, _)| log_pid != *pid) {
                    dl_guards.push(shard); // hold until the log snapshot
                }
            }
        }
        let log_snap = if log_needed {
            log.as_ref()
                .map(|(log_pid, log_cell)| Self::lock_shard(log_cell).log_state(*log_pid))
        } else {
            None
        };
        drop(dl_guards);
        Ok((snaps, log_snap))
    }

    // ----- setup (&mut self: exclusive by construction) --------------------

    /// Replaces the configuration template for the shared DedicatedLog
    /// partition (e.g. a smaller address space for exhaustion tests).
    ///
    /// # Errors
    ///
    /// Rejected once the log partition exists — its geometry is baked into
    /// every synthesized entry.
    pub fn set_log_partition_config(&mut self, config: PartitionConfig) -> Result<(), StoreError> {
        let dir = self.directory.get_mut().expect("directory lock");
        if dir.log_pid.is_some() {
            return Err(StoreError::InvalidPatch(
                "log partition already created; configure before the first log update".to_string(),
            ));
        }
        dir.log_config = config;
        self.journal_append(JournalRecord::SetLogConfig { config })
    }

    /// Sets the sequencing coverage (reads per expected strand).
    pub fn set_coverage(&mut self, coverage: usize) {
        assert!(coverage > 0, "coverage must be positive");
        self.instruments.coverage = coverage;
    }

    /// Replaces the sequencer (e.g. to inject nanopore-grade noise).
    pub fn set_sequencer(&mut self, sequencer: Sequencer) {
        self.instruments.sequencer = sequencer;
    }

    // ----- inspection ------------------------------------------------------

    /// A snapshot of every shard's tube, keyed by partition tag — the
    /// monolithic [`TubeRack`] view of the sharded archive, for benches
    /// and inspection.
    pub fn tube_rack(&self) -> TubeRack {
        let cells: Vec<Arc<RankedMutex<PartitionShard>>> = self.dir_read().shards.to_vec();
        cells
            .iter()
            .map(|cell| {
                let shard = Self::lock_shard(cell);
                (
                    shard.partition.config().partition_tag,
                    (*shard.tube).clone(),
                )
            })
            .collect()
    }

    /// This partition's tube (a cheap `Arc` snapshot).
    ///
    /// # Errors
    ///
    /// Unknown ids are rejected.
    pub fn tube(&self, pid: PartitionId) -> Result<Arc<Pool>, StoreError> {
        let cell = self.shard_cell(pid.0)?;
        let shard = Self::lock_shard(&cell);
        Ok(Arc::clone(&shard.tube))
    }

    /// The digital front-end's view of a block's current logical content
    /// (§5.4: the original plus every applied update), or `None` if the
    /// block was never written through this store. No wetlab work is
    /// performed — this is the oracle a serving layer checks cached reads
    /// against.
    pub fn logical_block(&self, pid: PartitionId, block: u64) -> Option<Block> {
        self.logical_versioned(pid, block).map(|(image, _)| image)
    }

    /// As [`BlockStore::logical_block`], additionally returning the
    /// shard's current epoch — read atomically under the shard lock, so a
    /// serving layer can order the pair against concurrent commits.
    pub fn logical_versioned(&self, pid: PartitionId, block: u64) -> Option<(Block, u64)> {
        let cell = self.shard_cell(pid.0).ok()?;
        let shard = Self::lock_shard(&cell);
        shard
            .logical
            .get(&block)
            .cloned()
            .map(|image| (image, shard.epoch))
    }

    /// The digital front-end's logical contents in `(partition, block)`
    /// order — the snapshot a serving layer seeds its staleness oracle
    /// from when wrapping an already-loaded store.
    pub fn logical_contents(&self) -> Vec<((PartitionId, u64), Block)> {
        let cells: Vec<Arc<RankedMutex<PartitionShard>>> = self.dir_read().shards.to_vec();
        let mut out = Vec::new();
        for (pid, cell) in cells.iter().enumerate() {
            let shard = Self::lock_shard(cell);
            for (&block, image) in &shard.logical {
                out.push(((PartitionId(pid), block), image.clone()));
            }
        }
        out
    }

    /// This shard's current commit epoch.
    ///
    /// # Errors
    ///
    /// Unknown ids are rejected.
    pub fn shard_epoch(&self, pid: PartitionId) -> Result<u64, StoreError> {
        let cell = self.shard_cell(pid.0)?;
        let epoch = Self::lock_shard(&cell).epoch;
        Ok(epoch)
    }

    /// A snapshot of a partition's metadata (config, primers, placement
    /// bookkeeping). Cheap: the metadata is `Arc`-shared with the shard
    /// and copied only when a writer commits concurrently.
    ///
    /// # Errors
    ///
    /// Unknown ids are rejected.
    pub fn partition(&self, pid: PartitionId) -> Result<Arc<Partition>, StoreError> {
        let cell = self.shard_cell(pid.0)?;
        let shard = Self::lock_shard(&cell);
        Ok(Arc::clone(&shard.partition))
    }

    // ----- partition creation ----------------------------------------------

    /// Creates a partition, assigning the next compatible primer pair.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoPrimerPairAvailable`] when the primer library is
    /// exhausted (§1: only ~1000–3000 compatible primers exist at length
    /// 20 — the scarcity that motivates this whole design).
    pub fn create_partition(&self, config: PartitionConfig) -> Result<PartitionId, StoreError> {
        let mut dir = self.directory.write().expect("directory lock");
        let pair = self.next_primer_pair()?;
        let mut config = config;
        let pid = dir.shards.len();
        config.partition_tag =
            u32::try_from(pid).map_err(|_| StoreError::TooManyPartitions(pid))?;
        let rng = DetRng::seed_from_u64(dir.seed ^ 0xA11C).derive(pid as u64);
        dir.shards.push(Arc::new(RankedMutex::new(
            LockRank::shard(pid),
            "data-shard",
            PartitionShard::new(Partition::new(config, pair), rng),
        )));
        self.journal_append(JournalRecord::CreatePartition {
            pid: pid as u64,
            config,
        })?;
        Ok(PartitionId(pid))
    }

    /// The shared log shard's id, creating it (with the configured
    /// template) on first use.
    fn ensure_log_partition(&self) -> Result<usize, StoreError> {
        if let Some(pid) = self.dir_read().log_pid {
            return Ok(pid);
        }
        let mut dir = self.directory.write().expect("directory lock");
        if let Some(pid) = dir.log_pid {
            return Ok(pid); // raced another creator
        }
        let pair = self.next_primer_pair()?;
        let mut cfg = dir.log_config;
        cfg.partition_tag = LOG_PARTITION_TAG; // distinguish log strands in tags
        dir.log_config = cfg; // canonical: the template matches the journaled creation
        let pid = dir.shards.len();
        let rng = DetRng::seed_from_u64(dir.seed ^ 0xA11C).derive(pid as u64);
        dir.shards.push(Arc::new(RankedMutex::new(
            LockRank::LOG_SHARD,
            "log-shard",
            PartitionShard::new(Partition::new(cfg, pair), rng),
        )));
        dir.log_pid = Some(pid);
        self.journal_append(JournalRecord::CreateLogPartition {
            pid: pid as u64,
            config: cfg,
        })?;
        Ok(pid)
    }

    fn next_primer_pair(&self) -> Result<PrimerPair, StoreError> {
        let mut alloc = self.alloc.lock().expect("primer alloc lock");
        if alloc.handed_out + 2 > alloc.library.len() {
            return Err(StoreError::NoPrimerPairAvailable);
        }
        let fwd = alloc.library.primer(alloc.handed_out).clone();
        let rev = alloc.library.primer(alloc.handed_out + 1).clone();
        alloc.handed_out += 2;
        Ok(PrimerPair::new(fwd, rev))
    }

    // ----- durability ------------------------------------------------------

    /// Appends `record` to the write-ahead journal, if one is attached.
    ///
    /// Called inside commit critical sections, after the epoch bump and
    /// before the caller observes success — the journal rank is last, so
    /// appending under any held store lock respects the global order. A
    /// failed append surfaces as [`StoreError::Persist`]: the in-memory
    /// commit has already happened (the store stays internally consistent)
    /// but its durability is unknown, the standard ambiguous-outcome
    /// contract of a write-ahead log.
    fn journal_append(&self, record: JournalRecord) -> Result<(), StoreError> {
        let mut sink = self.journal.lock().expect("journal lock");
        match sink.as_mut() {
            Some(sink) => sink.journal.append(&record),
            None => Ok(()),
        }
    }

    /// Attaches the durability sink: every subsequent commit journals
    /// through `journal`, and [`BlockStore::checkpoint`] writes to
    /// `paths`. Called by the recovery path once replay is complete.
    pub(crate) fn attach_durability(&self, journal: Journal, paths: PersistPaths) {
        let mut sink = self.journal.lock().expect("journal lock");
        *sink = Some(DurableSink { journal, paths });
    }

    /// Bytes currently in the attached journal (header included), or
    /// `None` when the store is ephemeral. Crash-injection tests use this
    /// to aim their abort offsets.
    pub fn journal_bytes(&self) -> Option<u64> {
        let sink = self.journal.lock().expect("journal lock");
        sink.as_ref().map(|s| s.journal.bytes_written())
    }

    /// Arms the attached journal's crash-injection knob (see
    /// [`Journal::set_crash_after_bytes`]): the process aborts mid-append
    /// once the journal file would grow past `limit` absolute bytes.
    /// Testing only; no-op on an ephemeral store.
    pub fn set_journal_crash_after_bytes(&self, limit: Option<u64>) {
        let mut sink = self.journal.lock().expect("journal lock");
        if let Some(sink) = sink.as_mut() {
            sink.journal.set_crash_after_bytes(limit);
        }
    }

    /// Captures a consistent full-store image. Takes every lock in the
    /// documented global order — directory, primer allocator, data shards
    /// ascending, log shard last — and holds them for the duration, so the
    /// image is a true point-in-time snapshot.
    pub fn capture_image(&self) -> StoreImage {
        let dir = self.dir_read();
        let alloc = self.alloc.lock().expect("primer alloc lock");
        let guards = Self::lock_all_shards(&dir);
        Self::image_of(
            &dir,
            alloc.handed_out,
            self.instruments.coverage as u64,
            &guards,
        )
    }

    /// Locks every shard in the global order (data shards ascending pid,
    /// log shard last), returning the guards indexed by pid.
    fn lock_all_shards<'a>(dir: &'a Directory) -> Vec<RankedMutexGuard<'a, PartitionShard>> {
        let mut slots: Vec<Option<RankedMutexGuard<'a, PartitionShard>>> =
            (0..dir.shards.len()).map(|_| None).collect();
        for (pid, cell) in dir.shards.iter().enumerate() {
            if Some(pid) == dir.log_pid {
                continue;
            }
            slots[pid] = Some(cell.lock().expect("shard lock"));
        }
        if let Some(log_pid) = dir.log_pid {
            slots[log_pid] = Some(dir.shards[log_pid].lock().expect("shard lock"));
        }
        slots
            .into_iter()
            .map(|g| g.expect("every shard locked"))
            .collect()
    }

    fn image_of(
        dir: &Directory,
        handed_out: usize,
        coverage: u64,
        guards: &[RankedMutexGuard<'_, PartitionShard>],
    ) -> StoreImage {
        let shards = guards
            .iter()
            .map(|shard| ShardImage {
                config: *shard.partition.config(),
                forward: shard.partition.primers().forward().clone(),
                reverse: shard.partition.primers().reverse().clone(),
                bookkeeping: shard.partition.bookkeeping(),
                species: shard
                    .tube
                    .iter()
                    .map(|(seq, sp)| (seq.clone(), sp.abundance, sp.tag))
                    .collect(),
                logical: shard
                    .logical
                    .iter()
                    .map(|(&b, img)| (b, img.data.clone()))
                    .collect(),
                epoch: shard.epoch,
                rng_state: shard.rng.state(),
                log_head: shard.log_head,
                log_seq: shard.log_seq,
            })
            .collect();
        StoreImage {
            seed: dir.seed,
            coverage,
            handed_out: handed_out as u64,
            log_pid: dir.log_pid.map(|p| p as u64),
            log_config: dir.log_config,
            shards,
        }
    }

    /// Checkpoints the store: atomically writes a fresh image and resets
    /// the journal to just its header, all while holding every store lock —
    /// no commit can land between the image capture and the journal reset,
    /// so image + journal always describe one consistent history.
    ///
    /// # Errors
    ///
    /// [`StoreError::Persist`] if no durability sink is attached (open the
    /// store through recovery first) or on any I/O failure.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        self.checkpoint_with_crash(None)
    }

    /// As [`BlockStore::checkpoint`], aborting the process after
    /// `crash_after_bytes` of the new image have reached the temporary
    /// file (see [`write_image_atomic_with_crash`]). Testing only.
    pub fn checkpoint_with_crash(&self, crash_after_bytes: Option<u64>) -> Result<(), StoreError> {
        let dir = self.dir_read();
        let alloc = self.alloc.lock().expect("primer alloc lock");
        let guards = Self::lock_all_shards(&dir);
        let mut sink = self.journal.lock().expect("journal lock");
        let Some(sink) = sink.as_mut() else {
            return Err(StoreError::Persist(
                "no durability sink attached; open the store through open_or_recover".to_string(),
            ));
        };
        let image = Self::image_of(
            &dir,
            alloc.handed_out,
            self.instruments.coverage as u64,
            &guards,
        );
        write_image_atomic_with_crash(&sink.paths.image(), &image, crash_after_bytes)?;
        sink.journal.truncate_to_header()
    }

    /// Rebuilds a store from a decoded image: regenerates the primer
    /// library from the persisted seed (§4.4 — the index trees, payload
    /// codecs and primer library all re-derive from seeds; only live state
    /// is stored) and restores every shard verbatim.
    ///
    /// # Errors
    ///
    /// [`StoreError::Persist`] when the image is internally inconsistent
    /// (out-of-range log pid, oversized blocks, primer over-allocation) —
    /// possible only for a hand-built image, since the checksum already
    /// vetted the bytes.
    pub fn from_image(image: &StoreImage) -> Result<BlockStore, StoreError> {
        let mut store = BlockStore::new(image.seed);
        if image.coverage == 0 {
            return Err(StoreError::Persist(
                "image records zero sequencing coverage".to_string(),
            ));
        }
        store.instruments.coverage = image.coverage as usize;
        let log_pid = match image.log_pid {
            Some(p) if p as usize >= image.shards.len() => {
                return Err(StoreError::Persist(format!(
                    "image log pid {p} out of range ({} shards)",
                    image.shards.len()
                )));
            }
            other => other.map(|p| p as usize),
        };
        {
            let mut dir = store.directory.write().expect("directory lock");
            dir.log_pid = log_pid;
            dir.log_config = image.log_config;
            for (pid, s) in image.shards.iter().enumerate() {
                let partition = Partition::restore(
                    s.config,
                    PrimerPair::new(s.forward.clone(), s.reverse.clone()),
                    s.bookkeeping.clone(),
                );
                let mut tube = Pool::new();
                for (seq, abundance, tag) in &s.species {
                    tube.add(seq.clone(), *abundance, *tag);
                }
                let mut logical = BTreeMap::new();
                for (block, data) in &s.logical {
                    if data.len() != BLOCK_SIZE {
                        return Err(StoreError::Persist(format!(
                            "image block {block} has {} bytes, expected {BLOCK_SIZE}",
                            data.len()
                        )));
                    }
                    logical.insert(*block, Block::from_bytes(data)?);
                }
                let (rank, name) = if Some(pid) == log_pid {
                    (LockRank::LOG_SHARD, "log-shard")
                } else {
                    (LockRank::shard(pid), "data-shard")
                };
                dir.shards.push(Arc::new(RankedMutex::new(
                    rank,
                    name,
                    PartitionShard {
                        partition: Arc::new(partition),
                        tube: Arc::new(tube),
                        logical,
                        epoch: s.epoch,
                        rng: DetRng::from_state(s.rng_state),
                        log_head: s.log_head,
                        log_seq: s.log_seq,
                    },
                )));
            }
        }
        {
            let mut alloc = store.alloc.lock().expect("primer alloc lock");
            let handed_out = image.handed_out as usize;
            if handed_out > alloc.library.len() {
                return Err(StoreError::Persist(format!(
                    "image hands out {handed_out} primers but the library holds {}",
                    alloc.library.len()
                )));
            }
            alloc.handed_out = handed_out;
        }
        Ok(store)
    }

    /// Replays one journal record during recovery (the journal is not yet
    /// attached, so replayed commits do not re-journal themselves).
    ///
    /// Records already covered by the image — epoch at or below the
    /// shard's current epoch, partitions that already exist — are skipped,
    /// making replay idempotent. Every applied record must land exactly on
    /// its recorded epoch; a mismatch means the journal does not describe
    /// this store and recovery fails detectably.
    ///
    /// # Errors
    ///
    /// [`StoreError::Persist`] on any divergence between the record and
    /// the store; the record's own replayed operation may also fail.
    pub(crate) fn replay_record(&self, record: &JournalRecord) -> Result<(), StoreError> {
        match record {
            JournalRecord::CreatePartition { pid, config } => {
                let existing = self.dir_read().shards.len() as u64;
                if *pid < existing {
                    return Ok(()); // already in the image
                }
                if *pid > existing {
                    return Err(StoreError::Persist(format!(
                        "journal creates partition {pid} but only {existing} exist"
                    )));
                }
                let got = self.create_partition(*config)?;
                if got.0 as u64 != *pid {
                    return Err(StoreError::Persist(format!(
                        "replayed partition creation produced pid {} instead of {pid}",
                        got.0
                    )));
                }
                Ok(())
            }
            JournalRecord::CreateLogPartition { pid, config } => {
                if let Some(existing) = self.dir_read().log_pid {
                    if existing as u64 != *pid {
                        return Err(StoreError::Persist(format!(
                            "journal places the log at pid {pid} but the image has it at {existing}"
                        )));
                    }
                    return Ok(()); // already in the image
                }
                {
                    let mut dir = self.directory.write().expect("directory lock");
                    dir.log_config = *config;
                }
                let got = self.ensure_log_partition()?;
                if got as u64 != *pid {
                    return Err(StoreError::Persist(format!(
                        "replayed log creation produced pid {got} instead of {pid}"
                    )));
                }
                Ok(())
            }
            JournalRecord::WriteFile {
                pid,
                first_block,
                data,
                epoch,
            } => {
                let pid = PartitionId(*pid as usize);
                if *epoch <= self.shard_epoch(pid)? {
                    return Ok(()); // already in the image
                }
                self.write_file_at(pid, *first_block, data)?;
                self.check_replay_epoch(pid, *epoch)
            }
            JournalRecord::Update {
                pid,
                block,
                content,
                epoch,
            } => {
                let pid = PartitionId(*pid as usize);
                if *epoch <= self.shard_epoch(pid)? {
                    return Ok(());
                }
                self.update_block(pid, *block, content)?;
                self.check_replay_epoch(pid, *epoch)
            }
            JournalRecord::Compact { pid, epoch } => {
                let pid = PartitionId(*pid as usize);
                if *epoch <= self.shard_epoch(pid)? {
                    return Ok(());
                }
                self.compact_partition(pid)?;
                self.check_replay_epoch(pid, *epoch)
            }
            JournalRecord::CompactLog { epoch } => {
                let log_pid = self.log_partition_id().ok_or_else(|| {
                    StoreError::Persist(
                        "journal compacts the log but no log partition exists".to_string(),
                    )
                })?;
                if *epoch <= self.shard_epoch(log_pid)? {
                    return Ok(());
                }
                self.compact_log()?;
                self.check_replay_epoch(log_pid, *epoch)
            }
            JournalRecord::SetLogConfig { config } => {
                if self.dir_read().log_pid.is_some() {
                    return Ok(()); // image already holds the created log
                }
                let mut dir = self.directory.write().expect("directory lock");
                dir.log_config = *config;
                Ok(())
            }
        }
    }

    fn check_replay_epoch(&self, pid: PartitionId, expected: u64) -> Result<(), StoreError> {
        let got = self.shard_epoch(pid)?;
        if got == expected {
            Ok(())
        } else {
            Err(StoreError::Persist(format!(
                "replay left partition {} at epoch {got}, journal recorded {expected}",
                pid.0
            )))
        }
    }

    // ----- writes ----------------------------------------------------------

    /// Writes `data` as consecutive blocks starting at block 0, synthesizes
    /// the strands (Twist vendor model) and adds them to the partition's
    /// tube. Returns the number of blocks written.
    ///
    /// # Errors
    ///
    /// Propagates partition errors (range, double write).
    pub fn write_file(&self, pid: PartitionId, data: &[u8]) -> Result<u64, StoreError> {
        self.write_file_at(pid, 0, data)
    }

    /// Writes `data` as consecutive blocks starting at `first_block`.
    ///
    /// Held under the shard lock end to end: bulk loading is a setup-time
    /// operation, and only this shard is blocked.
    ///
    /// # Errors
    ///
    /// Propagates partition errors (range, double write).
    pub fn write_file_at(
        &self,
        pid: PartitionId,
        first_block: u64,
        data: &[u8],
    ) -> Result<u64, StoreError> {
        let cell = self.shard_cell(pid.0)?;
        let mut shard = Self::lock_shard(&cell);
        let blocks = data.chunks(BLOCK_SIZE).collect::<Vec<_>>();
        let mut designs = Vec::new();
        let partition = Arc::make_mut(&mut shard.partition);
        let mut images = Vec::new();
        for (i, chunk) in blocks.iter().enumerate() {
            let block_id = first_block + i as u64;
            let block = Block::from_bytes(chunk)?;
            designs.extend(partition.encode_block(block_id, &block)?);
            images.push((block_id, block));
        }
        for (block_id, block) in images {
            shard.logical.insert(block_id, block);
        }
        let mut rng = shard.split_rng();
        // lint: allow(wetlab-under-lock): bulk load is a documented setup-time exception — it holds only this shard end to end
        let synthesized = self.instruments.twist.synthesize(&designs, &mut rng);
        // lint: allow(wetlab-under-lock): commit-phase merge of already-synthesized molecules; no wetlab simulation runs here
        Arc::make_mut(&mut shard.tube).mix_in(&synthesized, 1.0, 1.0);
        shard.epoch += 1;
        self.journal_append(JournalRecord::WriteFile {
            pid: pid.0 as u64,
            first_block,
            data: data.to_vec(),
            epoch: shard.epoch,
        })?;
        Ok(blocks.len() as u64)
    }

    /// Updates a block to `new_content`: computes a §6.4 diff patch against
    /// the logical cache, synthesizes it (IDT vendor model, 50000× more
    /// concentrated), and mixes it into the target tube at matched
    /// per-oligo concentration (§6.4.2).
    ///
    /// Runs the snapshot → synthesize → validate-and-commit protocol: the
    /// synthesis happens with no locks held, and the commit retries from a
    /// fresh snapshot if a concurrent writer won the shard meanwhile.
    ///
    /// # Errors
    ///
    /// Fails when the block was never written, the change cannot fit one
    /// patch, or the address space is exhausted.
    pub fn update_block(
        &self,
        pid: PartitionId,
        block: u64,
        new_content: &[u8],
    ) -> Result<(), StoreError> {
        self.update_block_committed(pid, block, new_content)
            .map(|_| ())
    }

    /// As [`BlockStore::update_block`], returning the commit receipt
    /// (post-update image + shard epoch) a serving layer orders its cache
    /// coherence by.
    ///
    /// # Errors
    ///
    /// See [`BlockStore::update_block`].
    pub fn update_block_committed(
        &self,
        pid: PartitionId,
        block: u64,
        new_content: &[u8],
    ) -> Result<CommittedUpdate, StoreError> {
        let new = Block::from_bytes(new_content)?;
        loop {
            // Snapshot: shard state + the target block's current image.
            let cell = self.shard_cell(pid.0)?;
            let (snap, old) = {
                let mut shard = Self::lock_shard(&cell);
                let old = shard.logical.get(&block).cloned();
                (
                    ShardSnapshot {
                        pid: pid.0,
                        partition: Arc::clone(&shard.partition),
                        tube: Arc::clone(&shard.tube),
                        epoch: shard.epoch,
                        rng: shard.split_rng(),
                    },
                    old,
                )
            };
            let old = old.ok_or(StoreError::BlockNotWritten(block))?;
            let patch = UpdatePatch::diff(&old, &new).ok_or_else(|| {
                StoreError::InvalidPatch("change too large for one patch".to_string())
            })?;
            if snap.partition.config().layout == UpdateLayout::DedicatedLog {
                match self.try_log_update(&cell, &snap, block, &new, &patch)? {
                    Some(receipt) => return Ok(receipt),
                    None => continue, // lost a race; retry from a fresh snapshot
                }
            }
            // Plan + encode + synthesize against the snapshot, lock-free.
            let mut rng = snap.rng;
            let placement = snap.partition.plan_update(block)?;
            let designs = snap.partition.encode_placement(&placement, &patch);
            let (rewrites, cost) = self.instruments.synthesize_rewrites(&designs, &mut rng);
            debug_assert!(cost >= 0.0);
            // Validate and commit.
            let mut shard = Self::lock_shard(&cell);
            if shard.epoch != snap.epoch {
                continue; // another writer committed; re-plan
            }
            Arc::make_mut(&mut shard.partition).commit_placement(block, &placement);
            // §6.4.2: the patch lands at the data tube's own per-oligo
            // concentration.
            let dilution = self
                .instruments
                .rewrite_dilution(&shard.tube, &rewrites, &mut rng);
            // lint: allow(wetlab-under-lock): commit-phase merge of pre-synthesized rewrites; synthesis ran lock-free above
            Arc::make_mut(&mut shard.tube).mix_in(&rewrites, 1.0, dilution);
            shard.logical.insert(block, new.clone());
            shard.epoch += 1;
            self.journal_append(JournalRecord::Update {
                pid: pid.0 as u64,
                block,
                content: new.data.clone(),
                epoch: shard.epoch,
            })?;
            return Ok(CommittedUpdate {
                image: new,
                epoch: shard.epoch,
            });
        }
    }

    /// One attempt at a DedicatedLog-layout update: append a log entry for
    /// `(pid, block)`. Returns `Ok(None)` when a concurrent commit
    /// invalidated the snapshot (caller retries).
    fn try_log_update(
        &self,
        target_cell: &Arc<RankedMutex<PartitionShard>>,
        target: &ShardSnapshot,
        block: u64,
        new: &Block,
        patch: &UpdatePatch,
    ) -> Result<Option<CommittedUpdate>, StoreError> {
        let log_pid = self.ensure_log_partition()?;
        let log_cell = self.shard_cell(log_pid)?;
        // Snapshot the log shard: head/seq reservation candidates, the
        // entry geometry, and a synthesis RNG stream.
        let (log_partition, log_epoch, head, seq, mut rng) = {
            let mut log = Self::lock_shard(&log_cell);
            (
                Arc::clone(&log.partition),
                log.epoch,
                log.log_head,
                log.log_seq,
                log.split_rng(),
            )
        };
        let capacity = log_partition.num_leaves() - 1;
        if head >= capacity {
            return Err(StoreError::UpdateSlotsExhausted {
                block,
                layout: UpdateLayout::DedicatedLog,
                chain_len: head as usize,
                headroom: 0,
            });
        }
        // Encode + synthesize the entry with no locks held.
        let target_tag =
            u32::try_from(target.pid).expect("pid fits u32: enforced at partition creation");
        let entry = log_entry_block(target_tag, block, seq, patch);
        let designs = log_partition.encode_unit(head, VersionSlot(0), &entry);
        let (rewrites, cost) = self.instruments.synthesize_rewrites(&designs, &mut rng);
        debug_assert!(cost >= 0.0);
        // Validate and commit, target shard first, log shard last (the
        // global lock order: data shards before the log shard).
        let mut shard = Self::lock_shard(target_cell);
        if shard.epoch != target.epoch {
            return Ok(None);
        }
        let mut log = Self::lock_shard(&log_cell);
        if log.epoch != log_epoch {
            return Ok(None);
        }
        // Epoch validated ⇒ head/seq unchanged ⇒ the reserved leaf is
        // still free. Record first (the only fallible step), then mutate.
        Arc::make_mut(&mut log.partition).record_block_write(head)?;
        // §6.4.2 with a sharded rack: the log tube starts *empty*, so the
        // dilution reference is the updated block's own data tube — the
        // log must operate at the archive's per-oligo concentration, or
        // its entries would swamp every multiplexed round they ride in.
        let dilution = self
            .instruments
            .rewrite_dilution(&shard.tube, &rewrites, &mut rng);
        // lint: allow(wetlab-under-lock): commit-phase merge of pre-synthesized log entry; synthesis ran lock-free above
        Arc::make_mut(&mut log.tube).mix_in(&rewrites, 1.0, dilution);
        log.log_head += 1;
        log.log_seq += 1;
        log.epoch += 1;
        drop(log);
        Arc::make_mut(&mut shard.partition).note_external_update(block);
        shard.logical.insert(block, new.clone());
        shard.epoch += 1;
        self.journal_append(JournalRecord::Update {
            pid: target.pid as u64,
            block,
            content: new.data.clone(),
            epoch: shard.epoch,
        })?;
        Ok(Some(CommittedUpdate {
            image: new.clone(),
            epoch: shard.epoch,
        }))
    }

    // ----- maintenance / compaction ----------------------------------------

    /// Every partition handle, the shared log partition included (it
    /// reports [`UpdateLayout`]-independent zero update state, so policy
    /// scans skip it naturally).
    pub fn partition_ids(&self) -> Vec<PartitionId> {
        (0..self.dir_read().shards.len()).map(PartitionId).collect()
    }

    /// The shared DedicatedLog partition, if any log update was committed.
    pub fn log_partition_id(&self) -> Option<PartitionId> {
        self.dir_read().log_pid.map(PartitionId)
    }

    /// Entries currently in the shared update log.
    pub fn log_entries(&self) -> u64 {
        self.log_snapshot().map_or(0, |log| log.head)
    }

    /// Entries the shared log can still accept before
    /// [`StoreError::UpdateSlotsExhausted`].
    pub fn log_headroom(&self) -> u64 {
        match self.log_snapshot() {
            Some(log) => (log.partition.num_leaves() - 1).saturating_sub(log.head),
            None => {
                let dir = self.dir_read();
                (1u64 << (2 * dir.log_config.tree_depth)) - 1
            }
        }
    }

    /// Predicts how many more updates of `block` can be committed before
    /// [`StoreError::UpdateSlotsExhausted`] — [`Partition::update_headroom`]
    /// for in-partition layouts, remaining shared-log capacity for
    /// [`UpdateLayout::DedicatedLog`]. Callers (notably the serving layer's
    /// maintenance path) compact when this runs low instead of probing with
    /// writes.
    ///
    /// # Errors
    ///
    /// Unknown partitions are rejected.
    pub fn update_headroom(&self, pid: PartitionId, block: u64) -> Result<u64, StoreError> {
        let partition = self.partition(pid)?;
        match partition.config().layout {
            UpdateLayout::DedicatedLog => {
                if partition.writes_of(block) == 0 {
                    return Ok(0);
                }
                Ok(self.log_headroom())
            }
            _ => Ok(partition.update_headroom(block)),
        }
    }

    /// Projects the §5.3 analytical retrieval scope of one block from the
    /// store's current update metadata: how many encoding units a read of
    /// `block` must amplify and sequence right now. Compaction policies
    /// threshold on this; compaction itself collapses it back to 1.
    ///
    /// # Errors
    ///
    /// Unknown partitions are rejected.
    pub fn retrieval_scope_units(&self, pid: PartitionId, block: u64) -> Result<u64, StoreError> {
        let partition = self.partition(pid)?;
        let layout = partition.config().layout;
        let block_updates = u64::from(partition.writes_of(block).saturating_sub(1));
        let partition_updates = match layout {
            UpdateLayout::TwoStacks => partition.stack_update_count(),
            _ => partition.total_updates(),
        };
        Ok(layout.retrieval_scope_units(block_updates, partition_updates, self.log_entries()))
    }

    /// Compacts one partition: folds every updated block's patch chain into
    /// its current logical image (the §5.4 digital front-end maintains it —
    /// no wetlab read is needed), retires the stale version / overflow /
    /// pointer molecules from the shard's tube, re-synthesizes a fresh base
    /// unit at [`VersionSlot`] 0 per rebased block (IDT vendor, §6.4.2
    /// concentration-matched mixing), and resets the partition's placement
    /// bookkeeping through [`Partition::reclaim_updates`]. Afterwards the
    /// partition has full update headroom again and every rebased block
    /// reads back in a single-unit scope.
    ///
    /// Follows the snapshot → synthesize → validate-and-commit protocol:
    /// re-encoding and synthesis run with no locks held (so serving other
    /// shards is never blocked), and the commit retries if an update
    /// committed to this shard meanwhile. Since every fresh base unit is
    /// synthesized *before* anything is retired, a failure at any point
    /// leaves partition and tube untouched.
    ///
    /// A [`UpdateLayout::DedicatedLog`] partition keeps its patches in the
    /// shared log, whose entries cannot be retired per partition — so
    /// compacting one delegates to [`BlockStore::compact_log`], folding the
    /// whole log.
    ///
    /// # Errors
    ///
    /// Unknown partitions are rejected; a rebased block missing its logical
    /// image (impossible through the store's own write paths) surfaces as
    /// [`StoreError::BlockNotWritten`].
    pub fn compact_partition(&self, pid: PartitionId) -> Result<CompactionReport, StoreError> {
        let cell = self.shard_cell(pid.0)?;
        loop {
            // Snapshot: metadata + the images of every updated block.
            let (snap, images) = {
                let mut shard = Self::lock_shard(&cell);
                let images: BTreeMap<u64, Block> = shard
                    .partition
                    .updated_blocks()
                    .iter()
                    .filter_map(|&(b, _)| shard.logical.get(&b).map(|img| (b, img.clone())))
                    .collect();
                (
                    ShardSnapshot {
                        pid: pid.0,
                        partition: Arc::clone(&shard.partition),
                        tube: Arc::clone(&shard.tube),
                        epoch: shard.epoch,
                        rng: shard.split_rng(),
                    },
                    images,
                )
            };
            let layout = snap.partition.config().layout;
            if layout == UpdateLayout::DedicatedLog {
                return self.compact_log();
            }
            let updated = snap.partition.updated_blocks();
            if updated.is_empty() {
                return Ok(CompactionReport::default());
            }
            // Stale units, counted from metadata before the reclaim: every
            // patch, every chain pointer, and the superseded base unit of
            // each rebased block. Re-encode every fresh base unit FIRST —
            // the only fallible step — so an error leaves partition and
            // tube untouched.
            let mut units_reclaimed = 0u64;
            let mut designs = Vec::new();
            let mut rebased = Vec::new();
            for &(block, writes) in &updated {
                let pointers = match layout {
                    UpdateLayout::Interleaved { .. } => snap.partition.chain_of(block).len() as u64,
                    _ => 0,
                };
                units_reclaimed += u64::from(writes - 1) + pointers + 1;
                let image = images
                    .get(&block)
                    .ok_or(StoreError::BlockNotWritten(block))?;
                designs.extend(snap.partition.encode_unit(block, VersionSlot(0), image));
                rebased.push((pid, block));
            }
            let mut rng = snap.rng;
            let (rewrites, synthesis_cost) =
                self.instruments.synthesize_rewrites(&designs, &mut rng);
            // Validate and commit.
            let mut shard = Self::lock_shard(&cell);
            if shard.epoch != snap.epoch {
                continue; // an update landed; fold it in on the next pass
            }
            let reclaimed = Arc::make_mut(&mut shard.partition).reclaim_updates();
            let stale: BTreeSet<u64> = reclaimed
                .rebased_blocks
                .iter()
                .map(|&(b, _)| b)
                .chain(reclaimed.freed_leaves.iter().copied())
                .collect();
            let tag = shard.partition.config().partition_tag;
            // Dilution reference is the tube *before* retirement: the
            // rewrites must land at the archive's concentration even when
            // every live species of this shard is about to be retired.
            let dilution = self
                .instruments
                .rewrite_dilution(&shard.tube, &rewrites, &mut rng);
            let tube = Arc::make_mut(&mut shard.tube);
            let species_retired =
                tube.retire_where(|t| t.partition == tag && stale.contains(&t.unit));
            // lint: allow(wetlab-under-lock): commit-phase merge of pre-synthesized rewrites; synthesis ran lock-free above
            tube.mix_in(&rewrites, 1.0, dilution);
            shard.epoch += 1;
            self.journal_append(JournalRecord::Compact {
                pid: pid.0 as u64,
                epoch: shard.epoch,
            })?;
            return Ok(CompactionReport {
                partitions_compacted: 1,
                blocks_rebased: reclaimed.rebased_blocks.len(),
                units_reclaimed,
                species_retired,
                rewrites_synthesized: reclaimed.rebased_blocks.len() as u64,
                synthesis_cost,
                rebased,
            });
        }
    }

    /// Compacts the shared DedicatedLog partition: folds every logged patch
    /// into its target block's logical image across *all* DedicatedLog
    /// partitions, rebases those blocks with fresh base units, retires the
    /// entire log (plus the superseded base units) from the tubes, and
    /// resets the log to empty. Reads of any DedicatedLog block afterwards
    /// skip the whole-log round entirely.
    ///
    /// This is the one deliberately cross-shard operation: it locks every
    /// DedicatedLog shard (ascending id) and then the log shard — the
    /// documented global lock order — and holds them for the duration, so
    /// the fold is atomic with respect to every reader and writer it
    /// affects. Shards on other layouts are never touched.
    ///
    /// No-op (empty report) when no log exists or it has no entries.
    ///
    /// # Errors
    ///
    /// See [`BlockStore::compact_partition`].
    pub fn compact_log(&self) -> Result<CompactionReport, StoreError> {
        let dir = self.dir_read();
        let Some(log_pid) = dir.log_pid else {
            return Ok(CompactionReport::default());
        };
        // Lock order: DedicatedLog data shards ascending, log shard last.
        let mut guards: Vec<(usize, RankedMutexGuard<'_, PartitionShard>)> = Vec::new();
        for (pid, cell) in dir.shards.iter().enumerate() {
            if pid == log_pid {
                continue;
            }
            let shard = cell.lock().expect("shard lock");
            if shard.partition.config().layout == UpdateLayout::DedicatedLog {
                guards.push((pid, shard));
            }
        }
        let mut log = dir.shards[log_pid].lock().expect("shard lock");
        if log.log_head == 0 {
            return Ok(CompactionReport::default());
        }
        let log_tag = log.partition.config().partition_tag;
        let mut report = CompactionReport {
            partitions_compacted: 1, // the log itself
            units_reclaimed: log.log_head,
            ..CompactionReport::default()
        };
        // Phase 1 — re-encode every fresh base unit first, the only
        // fallible step, so an error leaves every shard untouched (no data
        // is destroyed before its replacement exists).
        let mut designs_per_shard: Vec<Vec<Molecule>> = Vec::with_capacity(guards.len());
        for (pid, shard) in &guards {
            let mut designs = Vec::new();
            for (block, _) in shard.partition.updated_blocks() {
                let image = shard
                    .logical
                    .get(&block)
                    .ok_or(StoreError::BlockNotWritten(block))?;
                designs.extend(shard.partition.encode_unit(block, VersionSlot(0), image));
                report.rebased.push((PartitionId(*pid), block));
            }
            designs_per_shard.push(designs);
        }
        // Phase 2 — infallible from here: fold bookkeeping, retire the
        // superseded molecules from each shard's tube, and mix the fresh
        // base units into their home tubes.
        for ((_, shard), designs) in guards.iter_mut().zip(&designs_per_shard) {
            let tag = shard.partition.config().partition_tag;
            let reclaimed = Arc::make_mut(&mut shard.partition).reclaim_updates();
            if reclaimed.rebased_blocks.is_empty() {
                continue;
            }
            report.partitions_compacted += 1;
            let stale: BTreeSet<u64> = reclaimed.rebased_blocks.iter().map(|&(b, _)| b).collect();
            let mut rng = shard.split_rng();
            // lint: allow(wetlab-under-lock): compact_log is the one documented cross-shard exception — it deliberately holds every affected shard for an atomic fold
            let (rewrites, cost) = self.instruments.synthesize_rewrites(designs, &mut rng);
            // Dilution reference: this shard's tube before retirement.
            let dilution = self
                .instruments
                .rewrite_dilution(&shard.tube, &rewrites, &mut rng);
            let tube = Arc::make_mut(&mut shard.tube);
            report.species_retired +=
                tube.retire_where(|t| t.partition == tag && stale.contains(&t.unit));
            report.units_reclaimed += stale.len() as u64; // superseded bases
            report.blocks_rebased += reclaimed.rebased_blocks.len();
            // lint: allow(wetlab-under-lock): atomic cross-shard fold (see above); merge of pre-synthesized molecules
            tube.mix_in(&rewrites, 1.0, dilution);
            report.synthesis_cost += cost;
            shard.epoch += 1;
        }
        report.species_retired +=
            Arc::make_mut(&mut log.tube).retire_where(|t| t.partition == log_tag);
        Arc::make_mut(&mut log.partition).reclaim_all();
        log.log_head = 0;
        log.log_seq = 0;
        log.epoch += 1;
        self.journal_append(JournalRecord::CompactLog { epoch: log.epoch })?;
        report.rewrites_synthesized = report.blocks_rebased as u64;
        Ok(report)
    }

    // ----- sequential reads ------------------------------------------------

    /// Reads one block with the paper's sequential protocol, driven round
    /// by round over the store's one retrieval-round executor (the engine
    /// batched reads use too). Each step plans one round from what the
    /// reader knows so far, executes it — precise PCR, sequencing,
    /// clustering, trace reconstruction, RS decoding — and hands the
    /// decoded leaves to the layout's interpreter, which either returns the
    /// patched block or names the leaf or log round it still needs:
    ///
    /// - Interleaved (Fig. 8): the block's leaf, then one more round per
    ///   overflow pointer it decodes (1 + hops rounds);
    /// - TwoStacks (Fig. 7): the block plus the whole used update region,
    ///   in one round;
    /// - DedicatedLog (Fig. 6): the block, then the entire shared log in a
    ///   second round (skipped while the log is empty).
    ///
    /// The whole wetlab/decode phase runs against a shard snapshot with no
    /// locks held; the result is linearized at snapshot time.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownPartition`] or [`StoreError::BlockOutOfRange`]
    /// for a bad address; [`StoreError::DecodeFailed`] if any required
    /// unit cannot be recovered.
    pub fn read_block(&self, pid: PartitionId, block: u64) -> Result<BlockReadOutcome, StoreError> {
        let (mut snaps, log) = self.snapshot_reads(&BTreeSet::from([pid.0]))?;
        let mut snap = snaps.remove(&pid.0).expect("requested shard snapshotted");
        let capacity = snap.partition.num_leaves();
        if block >= capacity {
            return Err(StoreError::BlockOutOfRange { block, capacity });
        }
        let mut decoded = Decoded::default();
        let mut stats = ReadProtocolStats {
            pcr_rounds: 0,
            reads_sequenced: 0,
            reads_matched: 0,
            clusters_used: 0,
        };
        loop {
            let request = (pid.0, &*snap.partition, block);
            let (plan, tube) = match interpret(request, log.as_ref(), &decoded, None, stats)? {
                Step::Done(outcome) => return Ok(outcome),
                Step::Leaf(leaf) => (plan_sequential_round(request, leaf), Arc::clone(&snap.tube)),
                Step::Log => {
                    let log = log
                        .as_ref()
                        .expect("the log is needed only when it has entries");
                    let mut plan = RoundPlan::default();
                    plan.log_channel(log);
                    (plan, Arc::clone(&log.tube))
                }
            };
            // One decode thread: the sequential reader's cost model.
            let out = execute_round(&self.instruments, &[tube], plan, &mut snap.rng, 1);
            stats.pcr_rounds += 1;
            stats.reads_sequenced += out.reads_sequenced;
            decoded.merge(stats.pcr_rounds, out);
        }
    }

    /// Reads a contiguous block range via one multiplexed precise PCR
    /// (§3.1 prefix cover). Updates are applied per block.
    ///
    /// Implemented on top of [`BlockStore::read_blocks_batch`]: the batch
    /// planner recognizes the contiguous run and covers it with weighted
    /// range prefixes in a single multiplex round, then decodes every block
    /// in parallel.
    ///
    /// # Errors
    ///
    /// [`StoreError::BlockOutOfRange`] for the first block past the
    /// partition's end (checked before any wetlab work); otherwise fails
    /// if any block in the range cannot be decoded.
    pub fn read_range(&self, pid: PartitionId, lo: u64, hi: u64) -> Result<Vec<Block>, StoreError> {
        let requests = self.range_requests(pid, lo, hi)?;
        let batch = self.read_blocks_batch(&requests)?;
        batch
            .outcomes
            .into_iter()
            .map(|r| r.map(|o| o.block))
            .collect()
    }

    /// The per-block requests of the inclusive range `lo..=hi`, with `hi`
    /// checked against the partition's capacity *before* the request list
    /// is built — an unbounded `hi` would otherwise allocate without
    /// limit. The error names the first out-of-range block, exactly as the
    /// per-block path reports it.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownPartition`] or [`StoreError::BlockOutOfRange`].
    pub(crate) fn range_requests(
        &self,
        pid: PartitionId,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(PartitionId, u64)>, StoreError> {
        let capacity = self.partition(pid)?.num_leaves();
        if lo <= hi && hi >= capacity {
            return Err(StoreError::BlockOutOfRange {
                block: lo.max(capacity),
                capacity,
            });
        }
        Ok((lo..=hi).map(|b| (pid, b)).collect())
    }
}

impl Instruments {
    /// Synthesizes small-batch designs with the IDT vendor model (the
    /// update / compaction-rewrite path). Lock-free: callers run this
    /// against a snapshot RNG stream. Returns the raw synthesis pool and
    /// the synthesis cost in dollars.
    fn synthesize_rewrites(&self, designs: &[Molecule], rng: &mut DetRng) -> (Pool, f64) {
        if designs.is_empty() {
            return (Pool::new(), 0.0);
        }
        let pool = self.idt.synthesize(designs, rng);
        let cost = self.idt.synthesis_cost(designs.len(), designs[0].seq.len());
        (pool, cost)
    }

    /// The §6.4.2 dilution that brings a synthesized rewrite pool down to
    /// `reference`'s per-oligo concentration. The reference must be a
    /// *data* pool — in a sharded rack that is the target partition's tube
    /// for an in-partition rewrite, and the *updated block's* data tube
    /// for a shared-log append (the log tube itself starts empty, and an
    /// empty reference would admit raw small-batch concentrate at ~50000×
    /// the archive — exactly the §5.5 skew that starves every co-channel
    /// of a multiplexed round of sequencing output).
    ///
    /// Falls back to no dilution only when the reference holds nothing at
    /// all (then the rewrites *are* the tube).
    fn rewrite_dilution(&self, reference: &Pool, rewrites: &Pool, rng: &mut DetRng) -> f64 {
        if rewrites.is_empty() {
            return 1.0;
        }
        let data_per_oligo =
            self.nanodrop
                .measure_per_oligo(reference, reference.distinct().max(1), rng);
        let rewrite_per_oligo =
            self.nanodrop
                .measure_per_oligo(rewrites, rewrites.distinct().max(1), rng);
        if data_per_oligo > 0.0 {
            (data_per_oligo / rewrite_per_oligo).min(1.0)
        } else {
            1.0
        }
    }
}

/// Parses a decoded log-entry unit, returning `(seq, patch)` when the entry
/// targets `(pid, block)`.
fn log_patch_for(content: &Block, pid: u32, block: u64) -> Option<(u32, UpdatePatch)> {
    let (epid, eblock, seq, patch) = parse_log_entry(content)?;
    (epid == pid && eblock == block).then_some((seq, patch))
}

/// Fails a read when any version slot the partition metadata says is live
/// at `leaf` was not decoded — whether it was observed-but-unrecoverable
/// (also reported in `failed_versions`) or never observed at all (e.g.
/// coverage starvation sampled zero surviving reads for that slot).
/// Serving the block without it would silently return stale bytes.
fn require_live_versions(
    outcome: &BlockDecodeOutcome,
    live: &[VersionSlot],
    block: u64,
    leaf: u64,
) -> Result<(), StoreError> {
    for slot in live {
        if !outcome.versions.contains_key(&slot.base()) {
            return Err(StoreError::DecodeFailed {
                block,
                reason: format!("version slot {} at leaf {leaf} unrecovered", slot.0),
            });
        }
    }
    Ok(())
}

/// Decodes the original (slot 0) of `block` from its own leaf's outcome.
/// Layouts whose data leaves hold only the base version pin that decode
/// to slot 0, so any other version there is noise.
fn decode_original(outcome: &BlockDecodeOutcome, block: u64) -> Result<Block, StoreError> {
    let v = outcome
        .versions
        .get(&Base::A)
        .ok_or(StoreError::DecodeFailed {
            block,
            reason: "original version missing".to_string(),
        })?;
    Block::from_unit_bytes(&v.unit_bytes).map_err(|_| StoreError::DecodeFailed {
        block,
        reason: "unit checksum".to_string(),
    })
}

/// Serializes a DedicatedLog entry: marker, partition, block, sequence
/// number, then the patch wire format.
fn log_entry_block(pid: u32, block: u64, seq: u32, patch: &UpdatePatch) -> Block {
    let mut bytes = vec![0xFEu8];
    bytes.extend_from_slice(&pid.to_le_bytes());
    bytes.extend_from_slice(&block.to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    let wire = patch.to_block();
    bytes.push(wire.data[0]);
    bytes.push(wire.data[1]);
    bytes.push(wire.data[2]);
    bytes.push(wire.data[3]);
    bytes.extend_from_slice(&patch.ins_bytes);
    Block::from_bytes(&bytes).expect("log entry fits")
}

/// Parses a DedicatedLog entry.
fn parse_log_entry(block: &Block) -> Option<(u32, u64, u32, UpdatePatch)> {
    let d = &block.data;
    if d[0] != 0xFE {
        return None;
    }
    let pid = u32::from_le_bytes(d[1..5].try_into().ok()?);
    let target = u64::from_le_bytes(d[5..13].try_into().ok()?);
    let seq = u32::from_le_bytes(d[13..17].try_into().ok()?);
    let ins_len = usize::from(d[20]);
    if 21 + ins_len > d.len() {
        return None;
    }
    let patch = UpdatePatch::new(d[17], d[18], d[19], d[21..21 + ins_len].to_vec()).ok()?;
    Some((pid, target, seq, patch))
}

// ----- batched retrieval ---------------------------------------------------

/// Everything one batched multiplex round needs, captured from shard
/// snapshots so the round can execute with no locks held (and concurrently
/// with other rounds — rounds never share a data shard by construction).
struct RoundInput {
    /// Snapshots of this round's partitions, ascending pid.
    shards: Vec<ShardSnapshot>,
    /// The shared log, present only in the designated carrier round (the
    /// first round containing a DedicatedLog partition): the log is
    /// amplified and decoded at most once per batch call.
    log: Option<LogSnapshot>,
}

impl BlockStore {
    /// Reads many blocks — across any number of partitions — in as few PCR
    /// + sequencing round-trips as primer chemistry allows.
    ///
    /// The [`BatchPlanner`] groups the touched partitions into multiplex
    /// rounds subject to cross-dimer/Tm compatibility
    /// ([`dna_primers::MultiplexCompat`]); each round pipettes exactly its
    /// partitions' tubes into one reaction, runs one
    /// [`dna_sim::MultiplexPcrReaction`] with per-pair primer budgets, one
    /// sequencing pass, and a parallel software demultiplex + decode
    /// ([`dna_pipeline::decode_jobs_parallel_into`]). Rounds touch disjoint
    /// shard sets, so they execute **concurrently** on scoped threads,
    /// each against its own snapshot — with the per-round decode fan-out
    /// sized by [`dna_pipeline::thread_share`] so rounds share the cores.
    /// Contiguous runs of requested blocks are covered by §3.1 prefix
    /// primers; committed overflow-chain leaves, the TwoStacks update
    /// region, and the shared DedicatedLog partition ride in the same
    /// tube, so every block's updates arrive with it.
    ///
    /// Per-block failures are reported in
    /// [`BatchReadOutcome::outcomes`] without failing the batch.
    ///
    /// # Errors
    ///
    /// Fails as a whole only for requests naming an unknown partition.
    pub fn read_blocks_batch(
        &self,
        requests: &[(PartitionId, u64)],
    ) -> Result<BatchReadOutcome, StoreError> {
        self.read_blocks_batch_planned(requests, &BatchPlanner::paper_default())
    }

    /// As [`BlockStore::read_blocks_batch`], with an explicit planner
    /// (custom compatibility rules or per-round pair caps).
    ///
    /// # Errors
    ///
    /// Fails as a whole only for requests naming an unknown partition.
    pub fn read_blocks_batch_planned(
        &self,
        requests: &[(PartitionId, u64)],
        planner: &BatchPlanner,
    ) -> Result<BatchReadOutcome, StoreError> {
        let pids: BTreeSet<usize> = requests.iter().map(|&(pid, _)| pid.0).collect();
        let (mut snaps, log_snap) = self.snapshot_reads(&pids)?;
        let shard_epochs: BTreeMap<PartitionId, u64> = snaps
            .iter()
            .map(|(&pid, snap)| (PartitionId(pid), snap.epoch))
            .collect();

        // Group in-range requests by partition; out-of-range requests get
        // their error outcome immediately.
        let mut outcomes: Vec<Option<Result<BlockReadOutcome, StoreError>>> =
            vec![None; requests.len()];
        let mut by_partition: BTreeMap<usize, Vec<(usize, u64)>> = BTreeMap::new();
        for (i, &(pid, block)) in requests.iter().enumerate() {
            let capacity = snaps[&pid.0].partition.num_leaves();
            if block >= capacity {
                outcomes[i] = Some(Err(StoreError::BlockOutOfRange { block, capacity }));
            } else {
                by_partition.entry(pid.0).or_default().push((i, block));
            }
        }

        // Plan the rounds. Interpretation metadata is captured before the
        // snapshots move into rounds.
        let partitions: BTreeMap<usize, Arc<Partition>> = snaps
            .iter()
            .map(|(&pid, s)| (pid, Arc::clone(&s.partition)))
            .collect();
        let log_pair = log_snap.as_ref().map(|l| l.partition.primers().clone());
        let plan = planner.plan(&plan_items_from(
            &by_partition,
            &partitions,
            log_pair.as_ref(),
        ));
        let mut stats = BatchStats {
            rounds: plan.num_rounds(),
            ..BatchStats::default()
        };
        let round_of: BTreeMap<usize, usize> = plan
            .rounds
            .iter()
            .enumerate()
            .flat_map(|(r, round)| round.items.iter().map(move |&p| (p, r)))
            .collect();

        // The shared log rides in at most one reaction per batch call: the
        // first round containing a DedicatedLog partition carries it;
        // later rounds reuse its decoded entries at interpretation. A log
        // that compaction folded back to empty never enters any tube.
        let carrier = plan.rounds.iter().position(|round| {
            round
                .items
                .iter()
                .any(|p| partitions[p].config().layout == UpdateLayout::DedicatedLog)
        });
        let mut inputs: Vec<RoundInput> = Vec::with_capacity(plan.rounds.len());
        for (r, round) in plan.rounds.iter().enumerate() {
            let shards: Vec<ShardSnapshot> = round
                .items
                .iter()
                .map(|p| snaps.remove(p).expect("each pid in exactly one round"))
                .collect();
            let log = log_snap
                .as_ref()
                .filter(|l| carrier == Some(r) && l.head > 0)
                .cloned();
            inputs.push(RoundInput { shards, log });
        }

        // Execute: rounds touch disjoint shards, so they run concurrently
        // (one scoped thread each), sharing the decode cores fairly.
        let decode_threads = thread_share(inputs.len());
        let instruments = &self.instruments;
        let outputs: Vec<RoundOutput> = if inputs.len() <= 1 {
            inputs
                .into_iter()
                .map(|input| run_round(instruments, input, &by_partition, decode_threads))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let by_partition = &by_partition;
                let handles: Vec<_> = inputs
                    .into_iter()
                    .map(|input| {
                        scope.spawn(move || {
                            run_round(instruments, input, by_partition, decode_threads)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("round worker panicked"))
                    .collect()
            })
        };

        // Merge in round order (deterministic regardless of scheduling).
        let mut decoded = Decoded::default();
        let mut round_reads = Vec::with_capacity(outputs.len());
        for (r, out) in outputs.into_iter().enumerate() {
            stats.primer_pairs += out.primer_pairs;
            stats.reads_sequenced += out.reads_sequenced;
            stats.decode_jobs += out.keys.len();
            stats.reads_matched += out.outcomes.iter().map(|o| o.reads_matched).sum::<usize>();
            round_reads.push(out.reads_sequenced);
            decoded.merge(r, out);
        }

        // Interpret every request against the merged decode state. The
        // plan scheduled everything metadata knows, so a request that
        // still needs a leaf (a decoded pointer naming a leaf nobody
        // scheduled) or the log fails loudly instead of taking a round.
        // Per-request statistics count only the request's own round.
        for (&p, wants) in &by_partition {
            let my_round = round_of[&p];
            let round_stats = ReadProtocolStats {
                pcr_rounds: 1,
                reads_sequenced: round_reads[my_round],
                reads_matched: 0,
                clusters_used: 0,
            };
            for &(req_idx, block) in wants {
                let request = (p, &*partitions[&p], block);
                let step = interpret(
                    request,
                    log_snap.as_ref(),
                    &decoded,
                    Some(my_round),
                    round_stats,
                );
                outcomes[req_idx] = Some(step.and_then(|step| match step {
                    Step::Done(outcome) => Ok(outcome),
                    Step::Leaf(leaf) => Err(StoreError::DecodeFailed {
                        block,
                        reason: format!("leaf {leaf} was not decoded in this batch"),
                    }),
                    Step::Log => Err(StoreError::DecodeFailed {
                        block,
                        reason: "shared log was not decoded in this batch".to_string(),
                    }),
                }));
            }
        }
        stats.wasted_reads = stats.reads_sequenced.saturating_sub(stats.reads_matched);
        Ok(BatchReadOutcome {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every request resolved"))
                .collect(),
            stats,
            shard_epochs,
        })
    }

    /// Plans — without executing — the multiplex rounds a batch of
    /// requests would take under `planner`. A serving layer uses this to
    /// predict wetlab cost (e.g. rounds per coalesced batch) before
    /// committing a tube. Performs no wetlab work and does not advance any
    /// shard's RNG stream: planning twice gives the same rounds.
    ///
    /// # Errors
    ///
    /// Fails for requests naming an unknown partition (out-of-range block
    /// ids are simply absent from the plan, matching
    /// [`BlockStore::read_blocks_batch`]'s per-request error reporting).
    pub fn plan_batch(
        &self,
        requests: &[(PartitionId, u64)],
        planner: &BatchPlanner,
    ) -> Result<BatchPlan, StoreError> {
        let pids: BTreeSet<usize> = requests.iter().map(|&(pid, _)| pid.0).collect();
        let mut partitions: BTreeMap<usize, Arc<Partition>> = BTreeMap::new();
        for &pid in &pids {
            partitions.insert(pid, self.partition(PartitionId(pid))?);
        }
        let mut by_partition: BTreeMap<usize, Vec<(usize, u64)>> = BTreeMap::new();
        for (i, &(pid, block)) in requests.iter().enumerate() {
            if block < partitions[&pid.0].num_leaves() {
                by_partition.entry(pid.0).or_default().push((i, block));
            }
        }
        // Only DedicatedLog items take the log pair (see `plan_items_from`).
        let log_pair = self.log_snapshot().map(|l| l.partition.primers().clone());
        Ok(planner.plan(&plan_items_from(
            &by_partition,
            &partitions,
            log_pair.as_ref(),
        )))
    }
}

/// One [`PlanItem`] per touched partition (a DedicatedLog partition drags
/// the shared log pair into its item).
fn plan_items_from(
    by_partition: &BTreeMap<usize, Vec<(usize, u64)>>,
    partitions: &BTreeMap<usize, Arc<Partition>>,
    log_pair: Option<&PrimerPair>,
) -> Vec<PlanItem> {
    by_partition
        .keys()
        .map(|&p| {
            let mut pairs = vec![partitions[&p].primers().clone()];
            if partitions[&p].config().layout == UpdateLayout::DedicatedLog {
                if let Some(pair) = log_pair {
                    pairs.push(pair.clone());
                }
            }
            PlanItem { id: p, pairs }
        })
        .collect()
}

/// Runs one batched round: plans it from metadata, then executes it
/// against the round's snapshot tubes with the first shard's RNG stream.
fn run_round(
    instruments: &Instruments,
    mut input: RoundInput,
    by_partition: &BTreeMap<usize, Vec<(usize, u64)>>,
    decode_threads: usize,
) -> RoundOutput {
    let plan = plan_batch_round(&input, by_partition);
    let tubes: Vec<Arc<Pool>> = input
        .shards
        .iter()
        .map(|s| Arc::clone(&s.tube))
        .chain(input.log.as_ref().map(|l| Arc::clone(&l.tube)))
        .collect();
    execute_round(
        instruments,
        &tubes,
        plan,
        &mut input.shards[0].rng,
        decode_threads,
    )
}

/// Plans one batched round from metadata alone, so a single pass always
/// suffices: each partition's requested blocks (contiguous runs covered by
/// §3.1 prefix primers), every committed chain leaf, the TwoStacks update
/// region, and — in the carrier round — the whole shared log.
///
/// Sequencing depth is provisioned per encoding unit, counted from the
/// update metadata rather than a flat per-block constant, so
/// heavily-updated blocks keep their per-unit coverage.
fn plan_batch_round(
    input: &RoundInput,
    by_partition: &BTreeMap<usize, Vec<(usize, u64)>>,
) -> RoundPlan {
    let mut plan = RoundPlan::default();
    for snap in &input.shards {
        let (p, partition) = (snap.pid, &*snap.partition);
        let mut blocks: Vec<u64> = by_partition[&p].iter().map(|&(_, b)| b).collect();
        blocks.sort_unstable();
        blocks.dedup();
        // Cover contiguous runs with §3.1 prefix primers, weighted by
        // covered leaf count so the whole run amplifies evenly.
        let mut scope: Vec<(DnaSeq, f64)> = Vec::new();
        let mut run_start = blocks[0];
        let mut prev = blocks[0];
        for &b in &blocks[1..] {
            if b != prev + 1 {
                scope.extend(partition.range_prefixes_weighted(run_start, prev));
                run_start = b;
            }
            prev = b;
        }
        scope.extend(partition.range_prefixes_weighted(run_start, prev));
        for &b in &blocks {
            plan.decode_live(p, partition, b);
        }
        let chain_leaves = || {
            let mut leaves: Vec<u64> = blocks
                .iter()
                .flat_map(|&b| partition.chain_of(b).iter().copied())
                .collect();
            leaves.sort_unstable();
            leaves.dedup();
            leaves
        };
        let units = match partition.config().layout {
            UpdateLayout::Interleaved { .. } => {
                // The original plus every patch (`writes_of`) plus one
                // pointer unit per chain hop, floored at the 2 units/block
                // the range path budgets; chain leaves ride along.
                for leaf in chain_leaves() {
                    scope.push((partition.elongated_primer(leaf), 1.0));
                    plan.decode_live(p, partition, leaf);
                }
                blocks
                    .iter()
                    .map(|&b| {
                        (partition.writes_of(b) as usize + partition.chain_of(b).len()).max(2)
                    })
                    .sum::<usize>()
            }
            UpdateLayout::TwoStacks => {
                let stack = partition.stack_update_count() as usize;
                if stack > 0 {
                    scope.extend(update_region(partition));
                    for leaf in chain_leaves() {
                        plan.decode_live(p, partition, leaf);
                    }
                }
                blocks.len() * 2 + stack
            }
            // Patches live in the shared log, scheduled once per batch.
            UpdateLayout::DedicatedLog => blocks.len() * 2,
        };
        plan.channel(partition, scope, units);
    }
    if let Some(log) = &input.log {
        plan.log_channel(log);
    }
    plan
}

// ----- the retrieval-round executor ----------------------------------------

/// One channel of a planned round: the pair's main forward primer (its
/// software demultiplex key), the weighted forward scope, the reverse
/// primer, the encoding units it covers, and its slice of the round's
/// decode jobs.
struct ChannelSpec {
    forward: DnaSeq,
    scope: Vec<(DnaSeq, f64)>,
    reverse: DnaSeq,
    units: usize,
    jobs: Range<usize>,
}

/// One planned multiplex round: its channels and the leaves to decode from
/// its reads, keyed by `(pid, leaf)`. A leaf is scheduled at most once per
/// round, by whichever channel asks first.
#[derive(Default)]
struct RoundPlan {
    channels: Vec<ChannelSpec>,
    jobs: Vec<DecodeJob>,
    keys: Vec<(usize, u64)>,
    scheduled: BTreeSet<(usize, u64)>,
}

impl RoundPlan {
    /// Schedules a decode of `leaf` pinned to `slots`: noise claiming any
    /// other version base never decodes into a phantom patch.
    fn decode(&mut self, pid: usize, partition: &Partition, leaf: u64, slots: &[VersionSlot]) {
        if self.scheduled.insert((pid, leaf)) {
            self.jobs.push(DecodeJob {
                prefix: partition.elongated_primer(leaf),
                reverse: partition.primers().reverse().clone(),
                config: partition.decode_config_versions(leaf, slots),
            });
            self.keys.push((pid, leaf));
        }
    }

    /// Schedules a decode of `leaf` pinned to the version slots the
    /// metadata says are live there ([`Partition::live_version_slots`]),
    /// so a live slot that fails to decode is a reportable hole.
    fn decode_live(&mut self, pid: usize, partition: &Partition, leaf: u64) {
        self.decode(pid, partition, leaf, &partition.live_version_slots(leaf));
    }

    /// Schedules every shared-log entry and closes the log's channel: the
    /// whole log is amplified from its scope primer (§5.3, Fig. 6).
    fn log_channel(&mut self, log: &LogSnapshot) {
        for leaf in 0..log.head {
            self.decode(log.pid, &log.partition, leaf, &[VersionSlot(0)]);
        }
        let units = log.head as usize + 1;
        let scope = vec![(log.partition.scope_primer(), units as f64)];
        self.channel(&log.partition, scope, units);
    }

    /// Closes a channel on `partition`'s primer pair over the jobs
    /// scheduled since the previous channel.
    fn channel(&mut self, partition: &Partition, scope: Vec<(DnaSeq, f64)>, units: usize) {
        let start = self.channels.last().map_or(0, |c| c.jobs.end);
        self.channels.push(ChannelSpec {
            forward: partition.primers().forward().clone(),
            scope,
            reverse: partition.primers().reverse().clone(),
            units,
            jobs: start..self.jobs.len(),
        });
    }
}

/// What one executed round hands back: decode outcomes in submission
/// order with their `(pid, leaf)` keys, plus round-level counts.
struct RoundOutput {
    keys: Vec<(usize, u64)>,
    outcomes: Vec<BlockDecodeOutcome>,
    reads_sequenced: usize,
    primer_pairs: usize,
}

/// Splits one reaction's forward-primer budget across a weighted scope so
/// every covered leaf amplifies evenly (§3.2's concentration invariant).
fn weighted_forward_primers(scope: &[(DnaSeq, f64)], budget: f64) -> Vec<PcrPrimer> {
    let total_weight: f64 = scope.iter().map(|(_, w)| w.max(1e-9)).sum();
    scope
        .iter()
        .map(|(p, w)| PcrPrimer::with_budget(p.clone(), budget * w.max(1e-9) / total_weight))
        .collect()
}

/// The store's one retrieval engine: executes a planned round against
/// snapshot tubes, lock-free. It pipettes undiluted aliquots of `tubes`
/// into one reaction, runs one multiplex PCR, sequences the product once
/// from `rng`, routes the reads to their channels and decodes every
/// scheduled leaf on up to `decode_threads` threads.
fn execute_round(
    instruments: &Instruments,
    tubes: &[Arc<Pool>],
    plan: RoundPlan,
    rng: &mut DetRng,
    decode_threads: usize,
) -> RoundOutput {
    let RoundPlan {
        channels: specs,
        jobs,
        keys,
        ..
    } = plan;
    let mut reaction = Pool::new();
    for tube in tubes {
        reaction.mix_in(tube, 1.0, 1.0);
    }
    // The primer budget is 20× the reaction's template count, so cycles
    // end in template competition rather than primer exhaustion. Each
    // channel's share is proportional to its share of the units in scope
    // (scaled so a single-channel round gets the whole budget): the
    // sequencing pass samples the tube by abundance, so equal budgets
    // would starve large-scope channels of per-unit read depth.
    let budget = reaction.total_copies() * 20.0;
    let expected_units: usize = specs.iter().map(|spec| spec.units).sum();
    let total_units = expected_units.max(1) as f64;
    let channels: Vec<PrimerChannel> = specs
        .iter()
        .map(|spec| {
            let channel_budget = budget * (spec.units as f64) * (specs.len() as f64) / total_units;
            PrimerChannel {
                forward_primers: weighted_forward_primers(&spec.scope, channel_budget),
                reverse_primer: PcrPrimer::with_budget(spec.reverse.clone(), channel_budget),
            }
        })
        .collect();
    let primer_pairs = channels.len();
    let rxn = MultiplexPcrReaction {
        channels,
        protocol: PcrProtocol::paper_block_access(),
    };
    let amplified = rxn.run(&reaction);
    // 15 strands per unit in scope, each at the configured coverage.
    let n_reads = expected_units.max(1) * 15 * instruments.coverage;
    let reads = instruments
        .sequencer
        .sequence(&amplified.pool, n_reads, rng);

    // Software demultiplex (one routing pass over the round's reads per
    // channel primer), then decode each channel's jobs against only its
    // own bucket — the per-round routing that keeps a multi-shard round's
    // decode cost linear instead of jobs × all-reads. A single-channel
    // round skips the routing pass outright. Routing is a superset of
    // every job's own prefix filter, so outcomes are bit-identical to the
    // unrouted path.
    let mut outcomes = Vec::with_capacity(jobs.len());
    if specs.len() <= 1 {
        decode_jobs_parallel_into(
            &reads,
            &jobs,
            unit_checksum_ok,
            decode_threads,
            &mut outcomes,
        );
    } else {
        let routes: Vec<ChannelPrimer> = specs
            .iter()
            .map(|spec| {
                // A channel's job range can be empty: the log channel
                // dedups against jobs already registered by a data
                // channel (a caller batch-reading the log partition's own
                // leaves alongside a DedicatedLog partition). Its bucket
                // is then simply never decoded — any tolerance works.
                let tolerance = jobs
                    .get(spec.jobs.start)
                    .map_or(0, |job| job.config.filter_max_edit);
                ChannelPrimer::new(&spec.forward, tolerance)
            })
            .collect();
        let buckets = demux_reads(&reads, &routes);
        for (spec, bucket) in specs.iter().zip(&buckets) {
            decode_jobs_parallel_into(
                bucket,
                &jobs[spec.jobs.clone()],
                unit_checksum_ok,
                decode_threads,
                &mut outcomes,
            );
        }
    }
    RoundOutput {
        keys,
        outcomes,
        reads_sequenced: reads.len(),
        primer_pairs,
    }
}

// ----- per-layout planning and interpretation ------------------------------

/// One requested block: `(pid, partition, block)`.
type Request<'a> = (usize, &'a Partition, u64);

/// Plans the sequential reader's next data round for a request, from
/// what the paper's reader knows before decoding anything (§5.3):
/// Interleaved amplifies just `leaf` — the block, then each leaf a decoded
/// pointer names — at 4 units per hop; TwoStacks amplifies the block plus
/// the whole used update region (Fig. 7's cost), its own update leaves
/// known from metadata; DedicatedLog amplifies the block alone at 2 units,
/// its patches coming from a separate log round.
fn plan_sequential_round((p, partition, block): Request<'_>, leaf: u64) -> RoundPlan {
    let mut plan = RoundPlan::default();
    plan.decode_live(p, partition, leaf);
    let mut scope = vec![(partition.elongated_primer(leaf), 1.0)];
    let units = match partition.config().layout {
        UpdateLayout::Interleaved { .. } => 4,
        UpdateLayout::TwoStacks => {
            for &update_leaf in partition.chain_of(block) {
                plan.decode_live(p, partition, update_leaf);
            }
            scope.extend(update_region(partition));
            1 + partition.stack_update_count() as usize
        }
        UpdateLayout::DedicatedLog => 2,
    };
    plan.channel(partition, scope, units);
    plan
}

/// Weighted §3.1 prefixes covering the TwoStacks update region in use
/// (none while the stack is empty).
fn update_region(partition: &Partition) -> Vec<(DnaSeq, f64)> {
    let stack = partition.stack_update_count();
    if stack == 0 {
        return Vec::new();
    }
    let end = partition.num_leaves();
    partition.range_prefixes_weighted(end - stack, end - 1)
}

/// Decoded leaves merged across executed rounds, keyed by `(pid, leaf)`,
/// each with the round that produced it. A leaf decoded again by a later
/// round keeps the later outcome.
#[derive(Default)]
struct Decoded(BTreeMap<(usize, u64), (usize, BlockDecodeOutcome)>);

impl Decoded {
    fn merge(&mut self, round: usize, out: RoundOutput) {
        for (key, outcome) in out.keys.into_iter().zip(out.outcomes) {
            self.0.insert(key, (round, outcome));
        }
    }

    /// The decoded leaf `key`, if any round decoded it. Its matched reads
    /// are added to `matched` when it came from `own_round` (from any
    /// round when `None`).
    fn leaf(
        &self,
        key: (usize, u64),
        own_round: Option<usize>,
        matched: &mut usize,
    ) -> Option<&BlockDecodeOutcome> {
        let (round, outcome) = self.0.get(&key)?;
        if own_round.is_none_or(|r| r == *round) {
            *matched += outcome.reads_matched;
        }
        Some(outcome)
    }
}

/// What the decoded leaves say about one requested block.
enum Step {
    /// Every unit the block needs has decoded: the patched block.
    Done(BlockReadOutcome),
    /// This leaf of the block's own partition must be decoded next.
    Leaf(u64),
    /// The shared log must be decoded next.
    Log,
}

/// The per-layout interpreter both read drivers share. It walks the
/// decoded leaves of a request and either assembles the block — the
/// original plus every patch, in commit order — or names the leaf or log
/// round still missing:
///
/// - Interleaved follows decoded pointers hop by hop, requiring every
///   version slot the metadata says is live at each leaf;
/// - TwoStacks takes the block's update leaves from metadata;
/// - DedicatedLog scans the whole shared log once it holds entries.
///
/// `stats` arrives with the driver's round and read counts. The
/// interpreter adds the matched reads of every leaf it uses (only those
/// decoded in `own_round`, when given) and the block leaf's cluster count.
fn interpret(
    (p, partition, block): Request<'_>,
    log: Option<&LogSnapshot>,
    decoded: &Decoded,
    own_round: Option<usize>,
    mut stats: ReadProtocolStats,
) -> Result<Step, StoreError> {
    let mut matched = 0;
    let Some(origin) = decoded.leaf((p, block), own_round, &mut matched) else {
        return Ok(Step::Leaf(block));
    };
    let failed = |reason: String| StoreError::DecodeFailed { block, reason };
    let (original, patches) = match partition.config().layout {
        UpdateLayout::Interleaved { update_slots } => {
            let mut original = None;
            let mut patches = Vec::new();
            let mut visited = vec![block];
            let (mut leaf, mut outcome) = (block, origin);
            loop {
                require_live_versions(outcome, &partition.live_version_slots(leaf), block, leaf)?;
                let mut next = None;
                for (base, v) in &outcome.versions {
                    let slot = VersionSlot::from_base(*base);
                    let content = Block::from_unit_bytes(&v.unit_bytes).map_err(|_| {
                        failed(format!("unit checksum at leaf {leaf} slot {}", slot.0))
                    })?;
                    if leaf == block && slot.0 == 0 {
                        original = Some(content);
                    } else if slot.0 == update_slots {
                        next =
                            Some(parse_pointer_block(&content).ok_or_else(|| {
                                failed(format!("malformed pointer at leaf {leaf}"))
                            })?);
                    } else {
                        patches.push(UpdatePatch::from_block(&content)?);
                    }
                }
                let Some(target) = next else { break };
                if visited.contains(&target) {
                    return Err(failed(format!("pointer cycle at leaf {leaf}")));
                }
                visited.push(target);
                leaf = target;
                outcome = match decoded.leaf((p, leaf), own_round, &mut matched) {
                    Some(outcome) => outcome,
                    None => return Ok(Step::Leaf(leaf)),
                };
            }
            let original =
                original.ok_or_else(|| failed("original version missing".to_string()))?;
            (original, patches)
        }
        UpdateLayout::TwoStacks => {
            let original = decode_original(origin, block)?;
            let mut patches = Vec::new();
            for &leaf in partition.chain_of(block) {
                let Some(outcome) = decoded.leaf((p, leaf), own_round, &mut matched) else {
                    return Ok(Step::Leaf(leaf));
                };
                let v = outcome
                    .versions
                    .get(&Base::A)
                    .ok_or_else(|| failed(format!("update leaf {leaf} unrecovered")))?;
                let content = Block::from_unit_bytes(&v.unit_bytes)
                    .map_err(|_| failed(format!("update unit at leaf {leaf}")))?;
                patches.push(UpdatePatch::from_block(&content)?);
            }
            (original, patches)
        }
        UpdateLayout::DedicatedLog => {
            let original = decode_original(origin, block)?;
            let mut found: Vec<(u32, UpdatePatch)> = Vec::new();
            let (log_pid, entries) = log.map_or((0, 0), |l| (l.pid, l.head));
            for leaf in 0..entries {
                let Some(outcome) = decoded.leaf((log_pid, leaf), own_round, &mut matched) else {
                    return Ok(Step::Log);
                };
                // An unrecovered log entry could hold a patch for this
                // very block: failing is the only answer that never
                // serves stale bytes.
                let v = outcome
                    .versions
                    .get(&Base::A)
                    .ok_or_else(|| failed(format!("log entry {leaf} unrecovered")))?;
                if let Ok(content) = Block::from_unit_bytes(&v.unit_bytes) {
                    found.extend(log_patch_for(&content, p as u32, block));
                }
            }
            found.sort_by_key(|&(seq, _)| seq);
            (
                original,
                found.into_iter().map(|(_, patch)| patch).collect(),
            )
        }
    };
    stats.reads_matched += matched;
    stats.clusters_used = origin.clusters_used;
    let patches_applied = patches.len();
    let mut current = original;
    for patch in patches {
        current = patch.apply(&current)?;
    }
    Ok(Step::Done(BlockReadOutcome {
        block: current,
        patches_applied,
        stats,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trip() {
        let store = BlockStore::new(1);
        let pid = store
            .create_partition(PartitionConfig::paper_default(11))
            .unwrap();
        let data = crate::workload::deterministic_text(3 * BLOCK_SIZE, 5);
        assert_eq!(store.write_file(pid, &data).unwrap(), 3);
        for b in 0..3u64 {
            let out = store.read_block(pid, b).unwrap();
            assert_eq!(
                out.block.data,
                &data[b as usize * BLOCK_SIZE..(b as usize + 1) * BLOCK_SIZE],
                "block {b}"
            );
            assert_eq!(out.patches_applied, 0);
            assert_eq!(out.stats.pcr_rounds, 1);
        }
    }

    #[test]
    fn update_then_read_applies_patch() {
        let store = BlockStore::new(2);
        let pid = store
            .create_partition(PartitionConfig::paper_default(12))
            .unwrap();
        let mut data = crate::workload::deterministic_text(2 * BLOCK_SIZE, 6);
        store.write_file(pid, &data).unwrap();
        // Edit a few bytes of block 1.
        data[BLOCK_SIZE + 10..BLOCK_SIZE + 15].copy_from_slice(b"EDIT!");
        store
            .update_block(pid, 1, &data[BLOCK_SIZE..2 * BLOCK_SIZE])
            .unwrap();
        let out = store.read_block(pid, 1).unwrap();
        assert_eq!(out.block.data, &data[BLOCK_SIZE..2 * BLOCK_SIZE]);
        assert_eq!(out.patches_applied, 1);
        // Unupdated block unaffected.
        let out0 = store.read_block(pid, 0).unwrap();
        assert_eq!(out0.block.data, &data[..BLOCK_SIZE]);
        assert_eq!(out0.patches_applied, 0);
    }

    #[test]
    fn multiple_updates_apply_in_order() {
        let store = BlockStore::new(3);
        let pid = store
            .create_partition(PartitionConfig::paper_default(13))
            .unwrap();
        let data = crate::workload::deterministic_text(BLOCK_SIZE, 7);
        store.write_file(pid, &data).unwrap();
        let mut current = data.clone();
        current[0..3].copy_from_slice(b"one");
        store.update_block(pid, 0, &current).unwrap();
        current[4..7].copy_from_slice(b"two");
        store.update_block(pid, 0, &current).unwrap();
        let out = store.read_block(pid, 0).unwrap();
        assert_eq!(out.block.data, current);
        assert_eq!(out.patches_applied, 2);
        assert_eq!(out.stats.pcr_rounds, 1, "direct slots need one round-trip");
    }

    #[test]
    fn overflow_chain_follows_pointers() {
        let store = BlockStore::new(4);
        let pid = store
            .create_partition(PartitionConfig::paper_default(14))
            .unwrap();
        let data = crate::workload::deterministic_text(BLOCK_SIZE, 8);
        store.write_file(pid, &data).unwrap();
        let mut current = data.clone();
        for i in 0..4u8 {
            current[i as usize] = b'A' + i;
            store.update_block(pid, 0, &current).unwrap();
        }
        let out = store.read_block(pid, 0).unwrap();
        assert_eq!(out.block.data, current);
        assert_eq!(out.patches_applied, 4);
        assert!(
            out.stats.pcr_rounds >= 2,
            "chain requires a second round-trip"
        );
    }

    #[test]
    fn read_range_returns_consecutive_blocks() {
        let store = BlockStore::new(5);
        let pid = store
            .create_partition(PartitionConfig::paper_default(15))
            .unwrap();
        let data = crate::workload::deterministic_text(5 * BLOCK_SIZE, 9);
        store.write_file(pid, &data).unwrap();
        let blocks = store.read_range(pid, 1, 3).unwrap();
        assert_eq!(blocks.len(), 3);
        for (i, b) in blocks.iter().enumerate() {
            let off = (i + 1) * BLOCK_SIZE;
            assert_eq!(b.data, &data[off..off + BLOCK_SIZE]);
        }
    }

    #[test]
    fn unknown_partition_and_block_errors() {
        let store = BlockStore::new(6);
        assert!(matches!(
            store.read_block(PartitionId(0), 0),
            Err(StoreError::UnknownPartition(0))
        ));
        let pid = store
            .create_partition(PartitionConfig::paper_default(16))
            .unwrap();
        assert!(matches!(
            store.update_block(pid, 0, &[0u8; 10]),
            Err(StoreError::BlockNotWritten(0))
        ));
        let capacity = store.partition(pid).unwrap().num_leaves();
        assert_eq!(
            store.read_block(pid, capacity).unwrap_err(),
            StoreError::BlockOutOfRange {
                block: capacity,
                capacity
            }
        );
    }

    #[test]
    fn read_range_rejects_blocks_past_the_end_before_allocating() {
        // An unbounded range must fail with the typed per-block error
        // instead of materializing 2^64 requests.
        let store = BlockStore::new(6);
        let pid = store
            .create_partition(PartitionConfig::paper_default(16))
            .unwrap();
        let capacity = store.partition(pid).unwrap().num_leaves();
        for (lo, first_bad) in [(0, capacity), (capacity + 5, capacity + 5)] {
            assert_eq!(
                store.read_range(pid, lo, u64::MAX).unwrap_err(),
                StoreError::BlockOutOfRange {
                    block: first_bad,
                    capacity
                }
            );
        }
        assert_eq!(store.read_range(pid, 5, 4).unwrap(), Vec::<Block>::new());
        assert!(matches!(
            store.read_range(PartitionId(9), 0, u64::MAX),
            Err(StoreError::UnknownPartition(9))
        ));
    }

    #[test]
    fn batch_read_uses_one_round_for_one_partition() {
        // The acceptance bar: 8 blocks from one partition must cost
        // strictly fewer PCR rounds than 8 sequential reads, with
        // byte-identical contents.
        let store = BlockStore::new(7);
        let pid = store
            .create_partition(PartitionConfig::paper_default(17))
            .unwrap();
        let data = crate::workload::deterministic_text(8 * BLOCK_SIZE, 11);
        store.write_file(pid, &data).unwrap();
        let sequential: Vec<Block> = (0..8u64)
            .map(|b| store.read_block(pid, b).unwrap().block)
            .collect();
        let sequential_rounds: usize = 8; // one per read_block call
        let requests: Vec<(PartitionId, u64)> = (0..8u64).map(|b| (pid, b)).collect();
        let batch = store.read_blocks_batch(&requests).unwrap();
        assert!(
            batch.stats.rounds < sequential_rounds,
            "batch used {} rounds",
            batch.stats.rounds
        );
        assert_eq!(batch.stats.rounds, 1);
        assert_eq!(batch.stats.primer_pairs, 1);
        assert!(batch.stats.reads_sequenced > 0);
        for (i, outcome) in batch.outcomes.iter().enumerate() {
            let got = outcome.as_ref().unwrap();
            assert_eq!(got.block, sequential[i], "block {i} differs");
            assert_eq!(got.stats.pcr_rounds, 1);
        }
    }

    #[test]
    fn batch_read_spans_partitions_and_sees_updates() {
        let store = BlockStore::new(8);
        let a = store
            .create_partition(PartitionConfig::paper_default(18))
            .unwrap();
        let b = store
            .create_partition(PartitionConfig::paper_default(19))
            .unwrap();
        let data_a = crate::workload::deterministic_text(2 * BLOCK_SIZE, 21);
        let mut data_b = crate::workload::deterministic_text(2 * BLOCK_SIZE, 22);
        store.write_file(a, &data_a).unwrap();
        store.write_file(b, &data_b).unwrap();
        data_b[5..10].copy_from_slice(b"PATCH");
        store.update_block(b, 0, &data_b[..BLOCK_SIZE]).unwrap();
        let batch = store
            .read_blocks_batch(&[(a, 0), (b, 0), (a, 1), (b, 1)])
            .unwrap();
        assert!(batch.stats.rounds <= 2, "rounds {}", batch.stats.rounds);
        let blocks: Vec<&Block> = batch
            .outcomes
            .iter()
            .map(|o| &o.as_ref().unwrap().block)
            .collect();
        assert_eq!(blocks[0].data, &data_a[..BLOCK_SIZE]);
        assert_eq!(blocks[1].data, &data_b[..BLOCK_SIZE]);
        assert_eq!(blocks[2].data, &data_a[BLOCK_SIZE..]);
        assert_eq!(blocks[3].data, &data_b[BLOCK_SIZE..]);
        assert_eq!(batch.outcomes[1].as_ref().unwrap().patches_applied, 1);
        assert_eq!(
            batch.stats.wasted_reads,
            batch.stats.reads_sequenced - batch.stats.reads_matched
        );
    }

    #[test]
    fn batch_read_covers_overflow_chains_in_one_round() {
        // A heavily-updated block (direct slots full + overflow chain)
        // must batch-decode byte-exactly: sequencing depth is provisioned
        // per encoding unit from the update metadata, so the extra
        // versions don't starve the per-unit coverage.
        let store = BlockStore::new(11);
        let pid = store
            .create_partition(PartitionConfig::paper_default(26))
            .unwrap();
        let data = crate::workload::deterministic_text(2 * BLOCK_SIZE, 33);
        store.write_file(pid, &data).unwrap();
        let mut current = data.clone();
        for i in 0..4u8 {
            current[i as usize] = b'A' + i;
            store.update_block(pid, 0, &current[..BLOCK_SIZE]).unwrap();
        }
        let batch = store.read_blocks_batch(&[(pid, 0), (pid, 1)]).unwrap();
        assert_eq!(batch.stats.rounds, 1, "chain leaves ride the same tube");
        let updated = batch.outcomes[0].as_ref().unwrap();
        assert_eq!(updated.block.data, &current[..BLOCK_SIZE]);
        assert_eq!(updated.patches_applied, 4);
        let clean = batch.outcomes[1].as_ref().unwrap();
        assert_eq!(clean.block.data, &current[BLOCK_SIZE..]);
    }

    #[test]
    fn batch_read_reports_per_block_errors_without_failing() {
        let store = BlockStore::new(9);
        let pid = store
            .create_partition(PartitionConfig::paper_default(20))
            .unwrap();
        let data = crate::workload::deterministic_text(BLOCK_SIZE, 23);
        store.write_file(pid, &data).unwrap();
        // Block 0 exists; block 9999 is out of range; block 5 was never
        // written (decode failure).
        let batch = store
            .read_blocks_batch(&[(pid, 0), (pid, 9999), (pid, 5)])
            .unwrap();
        assert_eq!(
            batch.outcomes[0].as_ref().unwrap().block.data,
            &data[..BLOCK_SIZE]
        );
        assert!(matches!(
            batch.outcomes[1],
            Err(StoreError::BlockOutOfRange { block: 9999, .. })
        ));
        assert!(matches!(
            batch.outcomes[2],
            Err(StoreError::DecodeFailed { block: 5, .. })
        ));
        // Unknown partitions still fail the whole call.
        assert!(store.read_blocks_batch(&[(PartitionId(99), 0)]).is_err());
        // Empty batches are free.
        let empty = store.read_blocks_batch(&[]).unwrap();
        assert!(empty.outcomes.is_empty());
        assert_eq!(empty.stats.rounds, 0);
    }

    #[test]
    fn batch_matches_sequential_under_forced_round_split() {
        // A planner capped at one pair per round degenerates into
        // sequential-style rounds but must return the same bytes.
        let store = BlockStore::new(10);
        let a = store
            .create_partition(PartitionConfig::paper_default(24))
            .unwrap();
        let b = store
            .create_partition(PartitionConfig::paper_default(25))
            .unwrap();
        let data_a = crate::workload::deterministic_text(BLOCK_SIZE, 31);
        let data_b = crate::workload::deterministic_text(BLOCK_SIZE, 32);
        store.write_file(a, &data_a).unwrap();
        store.write_file(b, &data_b).unwrap();
        let planner = BatchPlanner {
            max_pairs_per_round: 1,
            ..BatchPlanner::paper_default()
        };
        let batch = store
            .read_blocks_batch_planned(&[(a, 0), (b, 0)], &planner)
            .unwrap();
        assert_eq!(batch.stats.rounds, 2);
        assert_eq!(
            batch.outcomes[0].as_ref().unwrap().block.data,
            &data_a[..BLOCK_SIZE]
        );
        assert_eq!(
            batch.outcomes[1].as_ref().unwrap().block.data,
            &data_b[..BLOCK_SIZE]
        );
    }

    #[test]
    fn overlapping_requests_decode_each_leaf_once() {
        // Regression: duplicate / overlapping requests (the shape produced
        // by overlapping read_range windows) must not re-decode a block
        // already fetched earlier in the same call.
        let store = BlockStore::new(12);
        let pid = store
            .create_partition(PartitionConfig::paper_default(27))
            .unwrap();
        let data = crate::workload::deterministic_text(4 * BLOCK_SIZE, 34);
        store.write_file(pid, &data).unwrap();
        // Ranges 0..=2 and 1..=3 overlap on blocks 1 and 2.
        let requests = [
            (pid, 0u64),
            (pid, 1),
            (pid, 2),
            (pid, 1),
            (pid, 2),
            (pid, 3),
        ];
        let batch = store.read_blocks_batch(&requests).unwrap();
        assert_eq!(batch.stats.decode_jobs, 4, "4 distinct leaves, 6 requests");
        assert_eq!(batch.stats.rounds, 1);
        for (i, &(_, b)) in requests.iter().enumerate() {
            let got = batch.outcomes[i].as_ref().unwrap();
            let off = b as usize * BLOCK_SIZE;
            assert_eq!(got.block.data, &data[off..off + BLOCK_SIZE], "request {i}");
        }
    }

    #[test]
    fn shared_log_decoded_once_across_rounds() {
        // Two DedicatedLog partitions forced into separate rounds both
        // need the shared log; it must be amplified and decoded in the
        // first round only, with the second round reusing the outcomes.
        let store = BlockStore::new(13);
        let mut cfg_a = PartitionConfig::paper_default(28);
        cfg_a.layout = UpdateLayout::DedicatedLog;
        let mut cfg_b = PartitionConfig::paper_default(29);
        cfg_b.layout = UpdateLayout::DedicatedLog;
        let a = store.create_partition(cfg_a).unwrap();
        let b = store.create_partition(cfg_b).unwrap();
        let mut data_a = crate::workload::deterministic_text(BLOCK_SIZE, 35);
        let mut data_b = crate::workload::deterministic_text(BLOCK_SIZE, 36);
        store.write_file(a, &data_a).unwrap();
        store.write_file(b, &data_b).unwrap();
        data_a[3..7].copy_from_slice(b"EDTA");
        store.update_block(a, 0, &data_a).unwrap();
        data_b[9..13].copy_from_slice(b"EDTB");
        store.update_block(b, 0, &data_b).unwrap();
        // Cap rounds at 2 pairs: partition + log fill a tube, so the two
        // partitions split into two rounds, both dragging the log pair.
        let planner = BatchPlanner {
            max_pairs_per_round: 2,
            ..BatchPlanner::paper_default()
        };
        let plan = store.plan_batch(&[(a, 0), (b, 0)], &planner).unwrap();
        assert_eq!(plan.num_rounds(), 2, "forced split: {plan:?}");
        let batch = store
            .read_blocks_batch_planned(&[(a, 0), (b, 0)], &planner)
            .unwrap();
        assert_eq!(batch.stats.rounds, 2);
        // 1 leaf per partition + 2 log entries decoded exactly once.
        assert_eq!(batch.stats.decode_jobs, 4, "{:?}", batch.stats);
        let got_a = batch.outcomes[0].as_ref().unwrap();
        assert_eq!(got_a.block.data, data_a);
        assert_eq!(got_a.patches_applied, 1);
        // The second round's partition still sees its log patch even
        // though its tube never amplified the log — and its per-request
        // stats stay self-consistent: matched reads never exceed the
        // reads its own round sequenced.
        let got_b = batch.outcomes[1].as_ref().unwrap();
        assert_eq!(got_b.block.data, data_b);
        assert_eq!(got_b.patches_applied, 1);
        for outcome in batch.outcomes.iter().map(|o| o.as_ref().unwrap()) {
            assert!(
                outcome.stats.reads_matched <= outcome.stats.reads_sequenced,
                "matched {} > sequenced {}",
                outcome.stats.reads_matched,
                outcome.stats.reads_sequenced
            );
        }
    }

    #[test]
    fn plan_batch_matches_executed_rounds() {
        let store = BlockStore::new(14);
        let a = store
            .create_partition(PartitionConfig::paper_default(37))
            .unwrap();
        let b = store
            .create_partition(PartitionConfig::paper_default(38))
            .unwrap();
        let data = crate::workload::deterministic_text(BLOCK_SIZE, 39);
        store.write_file(a, &data).unwrap();
        store.write_file(b, &data).unwrap();
        let planner = BatchPlanner::paper_default();
        let requests = [(a, 0u64), (b, 0u64)];
        let plan = store.plan_batch(&requests, &planner).unwrap();
        let batch = store
            .read_blocks_batch_planned(&requests, &planner)
            .unwrap();
        assert_eq!(plan.num_rounds(), batch.stats.rounds);
        // Planning performs no wetlab work: the store is immutable-borrow
        // only, and planning twice gives the same rounds.
        assert_eq!(plan, store.plan_batch(&requests, &planner).unwrap());
    }

    #[test]
    fn logical_contents_mirror_writes_and_updates() {
        let store = BlockStore::new(15);
        let pid = store
            .create_partition(PartitionConfig::paper_default(40))
            .unwrap();
        assert!(store.logical_block(pid, 0).is_none());
        let mut data = crate::workload::deterministic_text(2 * BLOCK_SIZE, 41);
        store.write_file(pid, &data).unwrap();
        assert_eq!(
            store.logical_block(pid, 0).unwrap().data,
            &data[..BLOCK_SIZE]
        );
        data[5..8].copy_from_slice(b"new");
        store.update_block(pid, 0, &data[..BLOCK_SIZE]).unwrap();
        assert_eq!(
            store.logical_block(pid, 0).unwrap().data,
            &data[..BLOCK_SIZE]
        );
        let all = store.logical_contents();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, (pid, 0));
        assert_eq!(all[1].0, (pid, 1));
    }

    #[test]
    fn compaction_round_trips_and_restores_headroom() {
        // Exhaust a small Interleaved partition's chain space, compact,
        // and verify the wetlab read path returns byte-identical content
        // from the rebased base unit — with the chain gone from the scope.
        let store = BlockStore::new(21);
        let pid = store
            .create_partition(PartitionConfig::small(
                0x91,
                3,
                UpdateLayout::paper_default(),
            ))
            .unwrap();
        let mut data = crate::workload::deterministic_text(2 * BLOCK_SIZE, 51);
        store.write_file(pid, &data).unwrap();
        for i in 0..6u8 {
            data[usize::from(i)] = b'A' + i;
            store.update_block(pid, 0, &data[..BLOCK_SIZE]).unwrap();
        }
        assert_eq!(store.retrieval_scope_units(pid, 0).unwrap(), 7);
        let before = store.read_block(pid, 0).unwrap();
        assert_eq!(before.block.data, &data[..BLOCK_SIZE]);
        assert!(before.stats.pcr_rounds > 1, "chain hops cost round-trips");

        let report = store.compact_partition(pid).unwrap();
        assert_eq!(report.blocks_rebased, 1);
        assert!(report.species_retired > 0);
        assert_eq!(store.retrieval_scope_units(pid, 0).unwrap(), 1);
        assert_eq!(
            store.update_headroom(pid, 0).unwrap(),
            2 + 62 * 3,
            "only blocks 0..=1 written: leaves 63..=2 are free again"
        );
        let after = store.read_block(pid, 0).unwrap();
        assert_eq!(after.block.data, &data[..BLOCK_SIZE], "rebased bytes");
        assert_eq!(after.patches_applied, 0);
        assert_eq!(after.stats.pcr_rounds, 1, "no chain to follow");
        assert!(after.stats.reads_sequenced < before.stats.reads_sequenced);
        // The untouched sibling block is unaffected.
        let sibling = store.read_block(pid, 1).unwrap();
        assert_eq!(sibling.block.data, &data[BLOCK_SIZE..]);
        // And updates flow again after the reclaim.
        data[9] = b'!';
        store.update_block(pid, 0, &data[..BLOCK_SIZE]).unwrap();
        let again = store.read_block(pid, 0).unwrap();
        assert_eq!(again.block.data, &data[..BLOCK_SIZE]);
        assert_eq!(again.patches_applied, 1);
    }

    #[test]
    fn compact_log_folds_all_dedicated_log_partitions() {
        let mut store = BlockStore::new(22);
        store
            .set_log_partition_config(PartitionConfig::small(
                0x92,
                2,
                UpdateLayout::paper_default(),
            ))
            .unwrap();
        let a = store
            .create_partition(PartitionConfig::small(0x93, 2, UpdateLayout::DedicatedLog))
            .unwrap();
        let b = store
            .create_partition(PartitionConfig::small(0x94, 2, UpdateLayout::DedicatedLog))
            .unwrap();
        let mut data_a = crate::workload::deterministic_text(BLOCK_SIZE, 52);
        let mut data_b = crate::workload::deterministic_text(BLOCK_SIZE, 53);
        store.write_file(a, &data_a).unwrap();
        store.write_file(b, &data_b).unwrap();
        for i in 0..3u8 {
            data_a[usize::from(i)] = b'a' + i;
            store.update_block(a, 0, &data_a).unwrap();
            data_b[usize::from(i)] = b'x' + i;
            store.update_block(b, 0, &data_b).unwrap();
        }
        assert_eq!(store.log_entries(), 6);
        assert_eq!(store.log_headroom(), 15 - 6);
        let before = store.read_block(a, 0).unwrap();
        assert_eq!(before.block.data, data_a);
        assert_eq!(before.stats.pcr_rounds, 2, "whole-log round");

        let report = store.compact_log().unwrap();
        assert_eq!(report.blocks_rebased, 2);
        assert_eq!(report.partitions_compacted, 3, "log + both partitions");
        // 6 log entries + 2 superseded base units.
        assert_eq!(report.units_reclaimed, 8);
        assert_eq!(store.log_entries(), 0);
        assert_eq!(store.log_headroom(), 15);

        let after_a = store.read_block(a, 0).unwrap();
        assert_eq!(after_a.block.data, data_a);
        assert_eq!(after_a.patches_applied, 0);
        assert_eq!(after_a.stats.pcr_rounds, 1, "empty log round skipped");
        assert!(after_a.stats.reads_sequenced < before.stats.reads_sequenced);
        let after_b = store.read_block(b, 0).unwrap();
        assert_eq!(after_b.block.data, data_b);
        // The log accepts fresh entries from leaf 0 again.
        data_a[9] = b'!';
        store.update_block(a, 0, &data_a).unwrap();
        assert_eq!(store.log_entries(), 1);
        let read = store.read_block(a, 0).unwrap();
        assert_eq!(read.block.data, data_a);
        assert_eq!(read.patches_applied, 1);
    }

    #[test]
    fn log_exhaustion_carries_context_and_headroom_predicts_it() {
        let mut store = BlockStore::new(23);
        store
            .set_log_partition_config(PartitionConfig::small(
                0x95,
                2,
                UpdateLayout::paper_default(),
            ))
            .unwrap();
        let pid = store
            .create_partition(PartitionConfig::small(0x96, 2, UpdateLayout::DedicatedLog))
            .unwrap();
        let mut data = crate::workload::deterministic_text(BLOCK_SIZE, 54);
        store.write_file(pid, &data).unwrap();
        for i in 0..15u8 {
            assert_eq!(store.update_headroom(pid, 0).unwrap(), u64::from(15 - i));
            data[usize::from(i)] = b'a' + i;
            store.update_block(pid, 0, &data).unwrap();
        }
        assert_eq!(store.update_headroom(pid, 0).unwrap(), 0);
        data[20] = b'!';
        let err = store.update_block(pid, 0, &data).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::UpdateSlotsExhausted {
                    block: 0,
                    layout: UpdateLayout::DedicatedLog,
                    chain_len: 15,
                    headroom: 0,
                }
            ),
            "unexpected error {err:?}"
        );
        // set_log_partition_config is rejected once the log exists.
        assert!(store
            .set_log_partition_config(PartitionConfig::paper_default(1))
            .is_err());
    }

    #[test]
    fn batch_reads_log_partition_leaves_alongside_dedicated_log_blocks() {
        // Regression: the shared log partition's pid is public
        // (partition_ids / log_partition_id), so a batch may request its
        // leaves directly *alongside* a DedicatedLog data block. The
        // log-duty channel then dedups every log job against the data
        // channel that already registered them, leaving an empty job
        // range — which must not panic the round (the demux key for an
        // empty range is never used).
        let mut store = BlockStore::new(31);
        store
            .set_log_partition_config(PartitionConfig::small(
                0x97,
                2,
                UpdateLayout::paper_default(),
            ))
            .unwrap();
        let pid = store
            .create_partition(PartitionConfig::small(0x98, 2, UpdateLayout::DedicatedLog))
            .unwrap();
        let mut data = crate::workload::deterministic_text(BLOCK_SIZE, 0x99);
        store.write_file(pid, &data).unwrap();
        data[0..4].copy_from_slice(b"EDIT");
        store.update_block(pid, 0, &data).unwrap(); // creates the log, 1 entry
        let log_pid = store.log_partition_id().unwrap();
        let batch = store.read_blocks_batch(&[(pid, 0), (log_pid, 0)]).unwrap();
        let dl = batch.outcomes[0].as_ref().unwrap();
        assert_eq!(dl.block.data, data);
        assert_eq!(dl.patches_applied, 1);
        // The log leaf itself decodes as a raw block: a serialized entry.
        let raw = batch.outcomes[1].as_ref().unwrap();
        assert!(parse_log_entry(&raw.block).is_some(), "entry wire format");
    }

    #[test]
    fn log_entry_round_trip() {
        let patch = UpdatePatch::new(3, 4, 5, b"body".to_vec()).unwrap();
        let blk = log_entry_block(7, 99, 12, &patch);
        let (pid, block, seq, got) = parse_log_entry(&blk).unwrap();
        assert_eq!((pid, block, seq), (7, 99, 12));
        assert_eq!(got, patch);
        // Non-entries rejected.
        assert!(parse_log_entry(&Block::zeroed()).is_none());
    }
}
