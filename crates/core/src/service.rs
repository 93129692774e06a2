//! The concurrent store frontend: a thread-safe server over the sharded
//! [`BlockStore`] with cross-request read coalescing and an update-aware
//! decoded-block cache.
//!
//! The paper's cost model wins by *amortizing* wetlab work (§7): one
//! multiplex PCR round serves many primer-addressed targets.
//! [`BlockStore::read_blocks_batch`] realizes that for a single caller;
//! [`StoreServer`] realizes it *across callers*. Read requests arriving
//! from many client threads are held in a bounded batching window
//! ([`BatchWindow`]) and coalesced into one batched retrieval — the
//! [`crate::batch::BatchPlanner`] packs the touched partitions into
//! primer-compatible multiplex rounds, the store dispatches those rounds
//! (disjoint shard sets) concurrently on scoped threads, and each round's
//! read pool is demultiplexed and decoded in parallel
//! ([`dna_pipeline::decode_jobs_parallel_into`]). On top of that, a
//! [`BlockCache`] serves repeated reads of hot blocks with **zero**
//! simulated wetlab cost (the read-mostly access pattern of rewritable
//! DNA systems, Yazdi et al. 2015), and [`StoreServer::update_block`]
//! keeps it coherent through shard **epochs** rather than a store-wide
//! lock.
//!
//! # Concurrency protocol
//!
//! The store is internally sharded (see [`crate::store`] for its lock
//! order); the server never holds a store lock — store operations take
//! `&self` and synchronize internally. On top of the store sit two
//! service locks and a bank of counters:
//!
//! 1. **front end** (cache + staleness oracle) — every entry carries the
//!    shard epoch of the commit that produced it. A mutation with an
//!    older epoch than the entry's is discarded, so cache and oracle
//!    converge to store commit order no matter how threads interleave
//!    between a store commit and its front-end publication. Cache *hits*
//!    take only this lock, which is why a warm read never waits behind an
//!    executing wetlab round — and with the store unlocked too, a cold
//!    read of shard A never waits behind an update writing shard B.
//! 2. **scheduler** (pending queue + tickets) — the first thread to queue
//!    a miss becomes the *leader*: it waits out the batching window,
//!    drains every read queued meanwhile, executes them as one batch, and
//!    publishes per-ticket results. Followers just block on their ticket.
//! 3. **stats** — lock-free atomics ([`ServerStats`] is a consistent
//!    snapshot: each counter is a point-in-time atomic load, and
//!    `reads_served` is *derived* as `cache_hits + cache_misses` so that
//!    invariant holds exactly in every snapshot).
//!
//! Service locks never nest with store locks (neither is held while the
//! other layer is called), so the global lock order is simply the store's
//! own, followed by front end, followed by scheduler. Both service locks
//! are [`crate::sync::RankedMutex`]es ranked after every store lock, so
//! the runtime lockdep enforces exactly that on every debug/test run: a
//! path that calls into the store while holding the front or scheduler
//! lock panics naming both acquisition sites (see README § "Lock
//! discipline & static checks").
//!
//! # Panic containment
//!
//! A panicking client thread must not brick the server. Three layers
//! enforce that: the store runs its fallible wetlab/decode phases outside
//! all locks (a panic there poisons nothing); the service locks recover
//! from poisoning (their critical sections are pure map/counter updates,
//! so a poisoned guard still holds consistent state); and a leader that
//! panicks mid-batch publishes [`StoreError::ServerPanicked`] to every
//! ticket it had drained (via a drop guard), so followers fail fast
//! instead of hanging.
//!
//! The observable contract is [`ServerStats`]: `stale_serves` (cache hits
//! that disagreed with the store's §5.4 digital front-end oracle) must be
//! zero under any interleaving, `cache_hits + cache_misses` always equals
//! `reads_served`, and `reads_coalesced` counts the requests that shared
//! another request's round-trip. The stress suite (`tests/stress.rs`)
//! pins all three under seeded multi-threaded read/update mixes.

use crate::block::{checksum64, Block};
use crate::cache::{BlockCache, CacheKey};
use crate::compaction::{CompactionPolicy, CompactionReport, Compactor};
use crate::partition::PartitionConfig;
use crate::store::{BlockReadOutcome, BlockStore, PartitionId};
use crate::sync::{LockRank, RankedMutex, RankedMutexGuard};
use crate::StoreError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, PoisonError};
use std::time::{Duration, Instant};

/// How long the scheduler leader holds a round open for co-arriving reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchWindow {
    /// Wait up to this long (or until `max_batch` reads are pending) before
    /// executing — the bounded batching window that trades a little
    /// latency for fewer wetlab rounds. `Duration::ZERO` executes at once
    /// with whatever is queued.
    Window(Duration),
    /// Wait until [`StoreServer::release_batch`] is called. Deterministic
    /// coalescing for tests: queue exactly the requests you want in one
    /// round, then open the gate.
    Gate,
}

/// The leader's per-wakeup decision inside a [`BatchWindow::Window`]:
/// execute the batch now, or park again for the remaining window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WindowPoll {
    /// Drain and execute the queued reads now.
    Execute,
    /// Park on the arrivals condvar for at most this long.
    Wait(Duration),
}

/// Pure decision core of the [`BatchWindow::Window`] leader loop, factored
/// out so its behavior under *spurious* condvar wakeups is provable without
/// a clock: a wakeup that changed nothing (same pending count, deadline not
/// reached) yields `Wait(remaining)` again — never an early `Execute`, and
/// never a zero-duration wait that would busy-spin — while a reached
/// deadline or a filled batch yields `Execute` regardless of how the
/// wakeup happened.
fn window_poll(remaining: Duration, pending: usize, max_batch: usize) -> WindowPoll {
    if max_batch != 0 && pending >= max_batch {
        return WindowPoll::Execute; // early trigger: the window is full
    }
    if remaining.is_zero() {
        return WindowPoll::Execute; // deadline reached
    }
    WindowPoll::Wait(remaining)
}

/// Configuration for a [`StoreServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Decoded-block cache capacity in blocks (`0` disables caching). A
    /// committed update drops the updated key; the next read re-pays one
    /// wetlab round and re-populates it.
    pub cache_capacity: usize,
    /// The read-coalescing batching window.
    pub window: BatchWindow,
    /// Execute early once this many reads are pending (`0` = no early
    /// trigger). Only meaningful for [`BatchWindow::Window`].
    pub max_batch: usize,
    /// Compaction policy for the maintenance path (`None` disables
    /// maintenance). With a policy set, the server compacts a partition
    /// *before* committing an update that would leave it under
    /// [`CompactionPolicy::min_headroom`] — so sustained update traffic
    /// whose exhaustion pressure comes from *accumulated updates* never
    /// hits [`StoreError::UpdateSlotsExhausted`]. (Compaction reclaims
    /// only previously-consumed update capacity: a partition whose address
    /// space is packed solid with data has nothing to fold and still
    /// exhausts — that is a provisioning problem, not a maintenance one.)
    /// The server also runs a threshold-driven [`Compactor`] pass between
    /// coalesced batches to fold hot blocks' patch chains back into cheap
    /// single-unit reads.
    pub compaction: Option<CompactionPolicy>,
}

impl ServerConfig {
    /// Serving defaults: a 1024-block cache with invalidate-on-update, a
    /// 2 ms batching window triggered early at 64 pending reads, and no
    /// maintenance. Coalesced batches use the paper-grade batch planner.
    pub fn paper_default() -> ServerConfig {
        ServerConfig {
            cache_capacity: 1024,
            window: BatchWindow::Window(Duration::from_millis(2)),
            max_batch: 64,
            compaction: None,
        }
    }
}

/// Aggregate serving statistics — the observable contract the stress and
/// scenario suites assert on. All counters are cumulative since server
/// construction.
///
/// Produced by [`StoreServer::stats`] as a consistent snapshot of the
/// server's lock-free counters: every field is a point-in-time atomic
/// load, every counter is monotonic, and `reads_served` is derived as
/// `cache_hits + cache_misses` at snapshot time so that identity holds
/// exactly in every snapshot (not just at quiescence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Client calls accepted (each `read_block`, `read_range`, and
    /// `update_block` counts once, successful or not).
    pub requests: u64,
    /// Block reads served (a range read counts once per block). Always
    /// equals `cache_hits + cache_misses`.
    pub reads_served: u64,
    /// Reads answered from the decoded-block cache — zero wetlab cost.
    pub cache_hits: u64,
    /// Reads that had to go to the wetlab.
    pub cache_misses: u64,
    /// Coalesced batches executed against the store.
    pub batches_executed: u64,
    /// Multiplex PCR + sequencing rounds executed — the paper's unit of
    /// wetlab cost.
    pub rounds_executed: u64,
    /// Reads drained into a coalesced batch from a client call other than
    /// the batch leader's — the cross-request amortization the scheduler
    /// exists for. Every such read counts, whatever its outcome (a bad
    /// address fails only its own request inside the batch). A
    /// multi-block `read_range` batching with itself does not count.
    pub reads_coalesced: u64,
    /// Updates committed.
    pub updates_applied: u64,
    /// Cache hits whose bytes disagreed with the store's digital
    /// front-end oracle (§5.4). The coherence protocol makes this
    /// impossible: it must be 0 under any interleaving.
    pub stale_serves: u64,
    /// Maintenance compaction passes that reclaimed anything.
    pub compactions: u64,
    /// Stale encoding units (patches, pointers, log entries, superseded
    /// bases) reclaimed by maintenance compaction.
    pub units_reclaimed: u64,
    /// Fresh base units re-synthesized by maintenance compaction.
    pub rewrites_synthesized: u64,
    /// Wetlab fast path: PCR `binding_site` alignments, one per (primer,
    /// distinct site window) per reaction (process-global, from
    /// [`dna_sim::WetlabStats`]).
    pub wetlab_species_scanned: u64,
    /// Always 0 since the k-mer annealing prefilter was removed; kept
    /// because `/v1/stats` and perfbench read the name.
    pub wetlab_species_skipped: u64,
    /// Wetlab fast path: binding lookups answered from a reaction's window
    /// memo.
    pub wetlab_binding_cache_hits: u64,
    /// Wetlab fast path: full annealing-model evaluations.
    pub wetlab_anneal_calls: u64,
    /// Wetlab fast path: sequencer reads materialized.
    pub wetlab_reads_materialized: u64,
    /// Wetlab fast path: sequencer weight-table reuses. The generic
    /// `scratch` name is kept for wire compatibility.
    pub wetlab_scratch_reuses: u64,
}

impl ServerStats {
    /// Every counter as a `(name, value)` pair, in declaration order — the
    /// introspection surface wire frontends and bench reporters serialize
    /// from, so adding a counter here automatically reaches every
    /// exporter (and the doctest below keeps the list in sync with the
    /// struct: it must name every public field exactly once).
    ///
    /// # Examples
    ///
    /// ```
    /// let stats = dna_block_store::ServerStats::default();
    /// let names: Vec<&str> = stats.fields().iter().map(|(n, _)| *n).collect();
    /// assert_eq!(names.len(), 18);
    /// assert!(names.contains(&"stale_serves"));
    /// assert!(names.contains(&"wetlab_species_skipped"));
    /// ```
    pub fn fields(&self) -> [(&'static str, u64); 18] {
        [
            ("requests", self.requests),
            ("reads_served", self.reads_served),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("batches_executed", self.batches_executed),
            ("rounds_executed", self.rounds_executed),
            ("reads_coalesced", self.reads_coalesced),
            ("updates_applied", self.updates_applied),
            ("stale_serves", self.stale_serves),
            ("compactions", self.compactions),
            ("units_reclaimed", self.units_reclaimed),
            ("rewrites_synthesized", self.rewrites_synthesized),
            ("wetlab_species_scanned", self.wetlab_species_scanned),
            ("wetlab_species_skipped", self.wetlab_species_skipped),
            ("wetlab_binding_cache_hits", self.wetlab_binding_cache_hits),
            ("wetlab_anneal_calls", self.wetlab_anneal_calls),
            ("wetlab_reads_materialized", self.wetlab_reads_materialized),
            ("wetlab_scratch_reuses", self.wetlab_scratch_reuses),
        ]
    }

    /// Looks one counter up by its [`ServerStats::fields`] name.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// The server's lock-free counter bank. `Relaxed` ordering throughout:
/// each counter is independently monotonic, and no control flow depends
/// on cross-counter ordering (the one exact invariant, `reads_served ==
/// cache_hits + cache_misses`, is derived at snapshot time).
#[derive(Default)]
struct AtomicStats {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    batches_executed: AtomicU64,
    rounds_executed: AtomicU64,
    reads_coalesced: AtomicU64,
    updates_applied: AtomicU64,
    stale_serves: AtomicU64,
    compactions: AtomicU64,
    units_reclaimed: AtomicU64,
    rewrites_synthesized: AtomicU64,
}

impl AtomicStats {
    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServerStats {
        let cache_hits = self.cache_hits.load(Ordering::Relaxed);
        let cache_misses = self.cache_misses.load(Ordering::Relaxed);
        // The simulator's fast-path counters are process-global (flushed
        // from thread-local banks at wetlab entry-point boundaries), so
        // the snapshot folds them in alongside the server's own atomics.
        let wetlab = dna_sim::stats::global_totals();
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            reads_served: cache_hits + cache_misses,
            cache_hits,
            cache_misses,
            batches_executed: self.batches_executed.load(Ordering::Relaxed),
            rounds_executed: self.rounds_executed.load(Ordering::Relaxed),
            reads_coalesced: self.reads_coalesced.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            stale_serves: self.stale_serves.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            units_reclaimed: self.units_reclaimed.load(Ordering::Relaxed),
            rewrites_synthesized: self.rewrites_synthesized.load(Ordering::Relaxed),
            wetlab_species_scanned: wetlab.species_scanned,
            wetlab_species_skipped: wetlab.species_skipped,
            wetlab_binding_cache_hits: wetlab.binding_cache_hits,
            wetlab_anneal_calls: wetlab.anneal_calls,
            wetlab_reads_materialized: wetlab.reads_materialized,
            wetlab_scratch_reuses: wetlab.scratch_reuses,
        }
    }
}

/// One served block read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedRead {
    /// The block content, updates applied.
    pub block: Block,
    /// Whether the read was a cache hit (zero wetlab work).
    pub from_cache: bool,
    /// Update patches applied during decode (0 for cache hits — patches
    /// were already folded in when the cached copy was produced).
    pub patches_applied: usize,
}

/// What the staleness oracle remembers per block: the checksum of the
/// committed logical content and the shard epoch of the commit that
/// produced it. Epochs order front-end writes against each other without
/// a store-wide lock: a publication carrying an older epoch than the
/// entry's is a late-arriving loser of a commit race and is discarded.
#[derive(Debug, Clone, Copy)]
struct ShadowEntry {
    epoch: u64,
    checksum: u64,
}

/// Front-end state: the decoded-block cache and the staleness oracle,
/// both epoch-ordered. Per-shard coherence: entries for shard A are only
/// ever ordered against commits to shard A.
struct FrontEnd {
    cache: BlockCache,
    /// `(partition, block)` → the §5.4 digital front-end oracle entry that
    /// cache hits are audited against.
    shadow: BTreeMap<CacheKey, ShadowEntry>,
}

impl FrontEnd {
    /// Publishes a committed update (or write) for `key`: refreshes the
    /// oracle and drops the cached copy — unless a newer commit for the
    /// same key already published.
    fn publish_commit(&mut self, key: CacheKey, epoch: u64, image: &Block) {
        if self.shadow.get(&key).is_some_and(|e| e.epoch > epoch) {
            return; // a newer commit already published
        }
        self.shadow.insert(
            key,
            ShadowEntry {
                epoch,
                checksum: checksum64(&image.data),
            },
        );
        self.cache.invalidate(&key);
    }

    /// Installs a wetlab-decoded block into the cache, unless an update
    /// newer than the read's shard snapshot has been published for the
    /// key (in which case the decoded image is already superseded).
    fn fill_cache(&mut self, key: CacheKey, snapshot_epoch: u64, image: &Block) {
        if self
            .shadow
            .get(&key)
            .is_some_and(|e| e.epoch > snapshot_epoch)
        {
            return;
        }
        self.cache.insert(key, image.clone());
    }
}

/// A read waiting for (or holding) its batch result.
type Ticket = u64;

/// A queued block read: its ticket, the client call it came from, and
/// its address. The call id distinguishes cross-request coalescing (two
/// calls sharing a round) from intra-call batching (one `read_range`
/// spanning several blocks).
struct PendingRead {
    ticket: Ticket,
    call: u64,
    pid: PartitionId,
    block: u64,
}

/// Scheduler state: the pending-read queue and published results.
struct SchedState {
    next_ticket: Ticket,
    /// Client calls that have queued reads (one id per `serve_reads` call).
    next_call: u64,
    /// Reads queued for the next coalesced batch.
    pending: Vec<PendingRead>,
    /// Results published by a leader, keyed by ticket; each waiter removes
    /// its own.
    results: BTreeMap<Ticket, Result<BlockReadOutcome, StoreError>>,
    /// Whether a leader is currently collecting (windowing) the queue.
    leader_active: bool,
    /// [`BatchWindow::Gate`] latch, consumed by the leader per release.
    gate_open: bool,
}

/// A thread-safe serving frontend over one sharded [`BlockStore`]:
/// concurrent `read_block` / `read_range` / `update_block` from any number
/// of client threads, with cross-request read coalescing and an
/// update-aware decoded-block cache.
///
/// Construct it around a store (pre-loaded or empty), share it via
/// [`std::sync::Arc`] (or `std::thread::scope` borrows), and drive it from
/// many threads.
///
/// # Examples
///
/// ```
/// use dna_block_store::service::{ServerConfig, StoreServer};
/// use dna_block_store::{BlockStore, PartitionConfig, BLOCK_SIZE};
///
/// let server = StoreServer::new(BlockStore::new(42), ServerConfig::paper_default());
/// let pid = server.create_partition(PartitionConfig::paper_default(7)).unwrap();
/// server.write_file(pid, &vec![7u8; BLOCK_SIZE]).unwrap();
///
/// let cold = server.read_block(pid, 0).unwrap();   // pays a wetlab round
/// let warm = server.read_block(pid, 0).unwrap();   // served from cache
/// assert!(!cold.from_cache);
/// assert!(warm.from_cache);
/// assert_eq!(warm.block, cold.block);
/// let stats = server.stats();
/// assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
/// assert_eq!(stats.stale_serves, 0);
/// ```
pub struct StoreServer {
    store: BlockStore,
    // lock-rank: front
    front: RankedMutex<FrontEnd>,
    // lock-rank: sched
    sched: RankedMutex<SchedState>,
    stats: AtomicStats,
    /// Wakes a windowing leader (new arrival, or gate release).
    arrivals: Condvar,
    /// Wakes ticket holders when results are published.
    done: Condvar,
    config: ServerConfig,
}

impl StoreServer {
    /// Wraps `store` in a server. The staleness oracle is seeded from the
    /// store's current logical contents, so pre-loaded stores serve
    /// correctly from the first request.
    pub fn new(store: BlockStore, config: ServerConfig) -> StoreServer {
        let shadow = store
            .logical_contents()
            .into_iter()
            .map(|(key, block)| {
                (
                    key,
                    ShadowEntry {
                        // Pre-load epoch 0: every server-side commit gets a
                        // strictly positive epoch, so the first update of a
                        // pre-loaded key always supersedes this seed.
                        epoch: 0,
                        checksum: checksum64(&block.data),
                    },
                )
            })
            .collect();
        StoreServer {
            front: RankedMutex::new(
                LockRank::SERVICE_FRONT,
                "service-front",
                FrontEnd {
                    cache: BlockCache::new(config.cache_capacity),
                    shadow,
                },
            ),
            store,
            sched: RankedMutex::new(
                LockRank::SERVICE_SCHED,
                "service-sched",
                SchedState {
                    next_ticket: 0,
                    next_call: 0,
                    pending: Vec::new(),
                    results: BTreeMap::new(),
                    leader_active: false,
                    gate_open: false,
                },
            ),
            stats: AtomicStats::default(),
            arrivals: Condvar::new(),
            done: Condvar::new(),
            config,
        }
    }

    /// Opens (or creates) the durable store rooted at `dir` — recovering
    /// the pre-crash committed prefix, see
    /// [`open_or_recover_store`](crate::persist::open_or_recover_store) —
    /// and wraps it in a server. The staleness oracle seeds from the
    /// recovered logical contents exactly as [`StoreServer::new`] does, so
    /// a recovered server serves byte-identically from the first request.
    ///
    /// # Errors
    ///
    /// See [`open_or_recover_store`](crate::persist::open_or_recover_store).
    pub fn open_or_recover(
        dir: &std::path::Path,
        seed: u64,
        config: ServerConfig,
    ) -> Result<StoreServer, StoreError> {
        let store = crate::persist::open_or_recover_store(dir, seed)?;
        Ok(StoreServer::new(store, config))
    }

    /// Checkpoints the underlying store: writes a fresh snapshot image and
    /// resets the journal (see [`BlockStore::checkpoint`]). Safe to call
    /// concurrently with serving — the store takes its own locks; the
    /// server's cache and oracle are unaffected.
    ///
    /// # Errors
    ///
    /// See [`BlockStore::checkpoint`].
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        self.store.checkpoint()
    }

    // ----- poison-recovering lock helpers ----------------------------------
    //
    // A client thread that panicks while holding a service lock poisons
    // it; recovering is safe because every critical section on these locks
    // is a sequence of individually consistent map/queue operations (no
    // multi-step invariant is ever left half-applied at a panic point —
    // the fallible store work happens outside the locks). The regression
    // test `poisoned_locks_recover` pins this.

    fn lock_front(&self) -> RankedMutexGuard<'_, FrontEnd> {
        self.front.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_sched(&self) -> RankedMutexGuard<'_, SchedState> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Unwraps the server, returning the inner store.
    pub fn into_store(self) -> BlockStore {
        self.store
    }

    /// Read-only access to the underlying sharded store (safe to use
    /// concurrently with serving: the store synchronizes internally).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// A consistent snapshot of the cumulative serving statistics.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// Blocks currently held by the decoded-block cache.
    pub fn cached_blocks(&self) -> usize {
        self.lock_front().cache.len()
    }

    /// Reads currently queued for the next coalesced batch (tests use this
    /// with [`BatchWindow::Gate`] to release a round deterministically).
    pub fn pending_reads(&self) -> usize {
        self.lock_sched().pending.len()
    }

    /// Opens the [`BatchWindow::Gate`]: the waiting leader (if any) drains
    /// everything pending and executes it as one batch. No-op latch under a
    /// [`BatchWindow::Window`].
    pub fn release_batch(&self) {
        let mut sched = self.lock_sched();
        sched.gate_open = true;
        drop(sched);
        self.arrivals.notify_all();
    }

    /// Creates a partition (the store serializes creation internally).
    ///
    /// # Errors
    ///
    /// Propagates [`BlockStore::create_partition`] errors.
    pub fn create_partition(&self, config: PartitionConfig) -> Result<PartitionId, StoreError> {
        self.store.create_partition(config)
    }

    /// Writes `data` as consecutive blocks starting at block 0 and seeds
    /// the staleness oracle for the written range.
    ///
    /// # Errors
    ///
    /// Propagates [`BlockStore::write_file`] errors.
    pub fn write_file(&self, pid: PartitionId, data: &[u8]) -> Result<u64, StoreError> {
        let written = self.store.write_file(pid, data)?;
        // Collect the committed images *before* taking the front lock: the
        // global order is store locks → front, so the front lock is never
        // held across a store call (`logical_versioned` takes directory +
        // shard locks). The per-key epochs keep publication race-correct.
        let seeded: Vec<(u64, (Block, u64))> = (0..written)
            .map(|block| {
                let versioned = self
                    .store
                    .logical_versioned(pid, block)
                    .expect("just written");
                (block, versioned)
            })
            .collect();
        let mut front = self.lock_front();
        for (block, (image, epoch)) in seeded {
            front.publish_commit((pid, block), epoch, &image);
        }
        Ok(written)
    }

    /// Updates a block and keeps the cache coherent: the commit receipt's
    /// shard epoch orders the oracle/cache publication against every other
    /// publication for the same key, so a read issued after this call
    /// returns can never observe the pre-update image
    /// ([`ServerStats::stale_serves`] stays 0).
    ///
    /// # Errors
    ///
    /// Propagates [`BlockStore::update_block`] errors; on error the cache
    /// is untouched.
    pub fn update_block(
        &self,
        pid: PartitionId,
        block: u64,
        new_content: &[u8],
    ) -> Result<(), StoreError> {
        AtomicStats::bump(&self.stats.requests, 1);
        // Maintenance, first half: an update that would leave the block
        // under the configured headroom floor compacts its partition
        // *before* committing — so with `min_headroom >= 1`, exhaustion
        // from accumulated updates is unreachable on this path (a
        // partition with nothing to fold — e.g. packed solid with data —
        // still surfaces `UpdateSlotsExhausted`: that is under-provisioned
        // capacity, which no amount of folding can recover).
        if let Some(policy) = &self.config.compaction {
            // Only a valid update target can be starving: an unwritten
            // block also reports 0 headroom, but compacting for it would
            // pay real synthesis cost before the request fails anyway.
            let starving = policy.min_headroom > 0
                && self
                    .store
                    .partition(pid)
                    .is_ok_and(|p| p.writes_of(block) > 0)
                && self
                    .store
                    .update_headroom(pid, block)
                    .is_ok_and(|headroom| headroom < policy.min_headroom);
            if starving {
                let report = self.store.compact_partition(pid)?;
                self.apply_compaction(&report);
            }
        }
        let receipt = self.store.update_block_committed(pid, block, new_content)?;
        self.lock_front()
            .publish_commit((pid, block), receipt.epoch, &receipt.image);
        AtomicStats::bump(&self.stats.updates_applied, 1);
        Ok(())
    }

    /// Reads one block: from the cache when warm (zero wetlab work),
    /// otherwise queued into the batching window and served by a coalesced
    /// multiplex round.
    ///
    /// # Errors
    ///
    /// Propagates per-block read errors ([`StoreError::DecodeFailed`],
    /// range and unknown-partition errors). A failing request never
    /// poisons reads coalesced into the same round.
    pub fn read_block(&self, pid: PartitionId, block: u64) -> Result<ServedRead, StoreError> {
        self.serve_reads(&[(pid, block)])
            .pop()
            .expect("one result per request")
    }

    /// Reads a contiguous block range. Cached blocks are served from the
    /// cache; the misses ride one coalesced batch (together with any other
    /// pending reads).
    ///
    /// # Errors
    ///
    /// [`StoreError::BlockOutOfRange`] for the first block past the
    /// partition's end (checked before anything is queued); otherwise
    /// fails on the first per-block error in the range.
    pub fn read_range(
        &self,
        pid: PartitionId,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<ServedRead>, StoreError> {
        let wants = self.store.range_requests(pid, lo, hi)?;
        self.serve_reads(&wants).into_iter().collect()
    }

    /// The shared read path: cache lookups, then ticketed scheduling for
    /// the misses. Returns one result per requested block, in request
    /// order.
    fn serve_reads(&self, wants: &[(PartitionId, u64)]) -> Vec<Result<ServedRead, StoreError>> {
        AtomicStats::bump(&self.stats.requests, 1);
        let mut results: Vec<Option<Result<ServedRead, StoreError>>> = vec![None; wants.len()];
        let mut misses: Vec<(usize, PartitionId, u64)> = Vec::new();
        {
            let mut front = self.lock_front();
            for (i, &(pid, block)) in wants.iter().enumerate() {
                if let Some(cached) = front.cache.get(&(pid, block)) {
                    let served = ServedRead {
                        block: cached.clone(),
                        from_cache: true,
                        patches_applied: 0,
                    };
                    AtomicStats::bump(&self.stats.cache_hits, 1);
                    // Audit against the §5.4 oracle: a coherent cache can
                    // never disagree with the committed logical content.
                    let fresh = front.shadow.get(&(pid, block)).map(|e| e.checksum);
                    if fresh != Some(checksum64(&served.block.data)) {
                        AtomicStats::bump(&self.stats.stale_serves, 1);
                    }
                    results[i] = Some(Ok(served));
                } else {
                    AtomicStats::bump(&self.stats.cache_misses, 1);
                    misses.push((i, pid, block));
                }
            }
        }
        if !misses.is_empty() {
            // Queue tickets; the first queued miss elects this thread
            // leader of the next batch.
            let mut tickets: Vec<(Ticket, usize)> = Vec::with_capacity(misses.len());
            let lead = {
                let mut sched = self.lock_sched();
                let call = sched.next_call;
                sched.next_call += 1;
                for &(slot, pid, block) in &misses {
                    let ticket = sched.next_ticket;
                    sched.next_ticket += 1;
                    sched.pending.push(PendingRead {
                        ticket,
                        call,
                        pid,
                        block,
                    });
                    tickets.push((ticket, slot));
                }
                let lead = !sched.leader_active;
                sched.leader_active = true;
                lead
            };
            // Wake a windowing leader so an early `max_batch` trigger can
            // fire.
            self.arrivals.notify_all();
            if lead {
                self.lead_batch();
            }
            // Collect this call's tickets (the leader published its own
            // along with everyone else's).
            let mut sched = self.lock_sched();
            loop {
                let mut missing = false;
                for &(ticket, slot) in &tickets {
                    if results[slot].is_none() {
                        match sched.results.remove(&ticket) {
                            Some(outcome) => {
                                results[slot] = Some(outcome.map(|o| ServedRead {
                                    block: o.block,
                                    from_cache: false,
                                    patches_applied: o.patches_applied,
                                }));
                            }
                            None => missing = true,
                        }
                    }
                }
                if !missing {
                    break;
                }
                sched = sched
                    .wait_on(&self.done)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every request resolved"))
            .collect()
    }

    /// Runs one policy-driven compaction pass immediately — the same pass
    /// the serving loop runs between coalesced batches — and returns its
    /// report. Uses the configured policy, or
    /// [`CompactionPolicy::paper_default`] when the server was built
    /// without one (manual maintenance on an otherwise unmanaged store).
    ///
    /// # Errors
    ///
    /// Propagates [`BlockStore::compact_partition`] /
    /// [`BlockStore::compact_log`] errors.
    pub fn run_maintenance(&self) -> Result<CompactionReport, StoreError> {
        let policy = self
            .config
            .compaction
            .unwrap_or_else(CompactionPolicy::paper_default);
        let report = Compactor::new(policy).run(&self.store)?;
        self.apply_compaction(&report);
        Ok(report)
    }

    /// Publishes a compaction's effects to the front end: bumps the
    /// compaction counters and drops every rebased block from the cache.
    /// Compaction never changes logical bytes — cached entries stay
    /// *correct* and the staleness oracle needs no adjustment — but
    /// invalidating keeps cache behavior uniform with updates.
    fn apply_compaction(&self, report: &CompactionReport) {
        if report.is_empty() {
            return;
        }
        AtomicStats::bump(&self.stats.compactions, 1);
        AtomicStats::bump(&self.stats.units_reclaimed, report.units_reclaimed);
        AtomicStats::bump(
            &self.stats.rewrites_synthesized,
            report.rewrites_synthesized,
        );
        let mut front = self.lock_front();
        for key in &report.rebased {
            front.cache.invalidate(key);
        }
    }

    /// Leader duty: wait out the batching window, drain the queue, execute
    /// the batch against the sharded store (no service lock held), install
    /// fresh blocks into the cache epoch-guarded, and publish per-ticket
    /// results. If the leader panicks after draining, its drop guard
    /// publishes [`StoreError::ServerPanicked`] to every drained ticket so
    /// followers never hang.
    fn lead_batch(&self) {
        let mut sched = self.lock_sched();
        match self.config.window {
            BatchWindow::Window(window) => {
                // lint: allow(determinism): batching-window deadline only — bounds the coalescing wait, never reaches commit/epoch state
                let deadline = Instant::now() + window;
                loop {
                    // `saturating_duration_since` clamps a passed deadline
                    // to zero, which `window_poll` maps to `Execute` — the
                    // leader can neither wait past its deadline nor feed a
                    // negative remainder into the condvar.
                    // lint: allow(determinism): batching-window deadline only — bounds the coalescing wait, never reaches commit/epoch state
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    match window_poll(remaining, sched.pending.len(), self.config.max_batch) {
                        WindowPoll::Execute => break,
                        WindowPoll::Wait(wait) => {
                            let (guard, _) = sched
                                .wait_timeout_on(&self.arrivals, wait)
                                .unwrap_or_else(PoisonError::into_inner);
                            sched = guard;
                        }
                    }
                }
            }
            BatchWindow::Gate => {
                while !sched.gate_open {
                    sched = sched
                        .wait_on(&self.arrivals)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                sched.gate_open = false;
            }
        }
        let batch = std::mem::take(&mut sched.pending);
        // Handing leadership back in the same critical section as the
        // drain guarantees every queued read is owned by exactly one
        // leader.
        sched.leader_active = false;
        drop(sched);
        if batch.is_empty() {
            return;
        }
        // From here on this thread owes every drained ticket a result —
        // even if the store panicks under it.
        let guard = TicketGuard {
            server: self,
            tickets: batch.iter().map(|read| read.ticket).collect(),
        };

        let requests: Vec<(PartitionId, u64)> =
            batch.iter().map(|read| (read.pid, read.block)).collect();
        // Reads from a call other than the leader's shared a round-trip
        // they would not have had alone — that is the cross-request
        // amortization `reads_coalesced` measures (a multi-block
        // `read_range` batching with itself does not count).
        let leader_call = batch[0].call;
        // lossless: usize → u64 widens on every supported target.
        let piggybacked = batch.iter().filter(|r| r.call != leader_call).count() as u64;
        let executed = self.store.read_blocks_batch(&requests);
        let published: Vec<(Ticket, Result<BlockReadOutcome, StoreError>)> = {
            let mut front = self.lock_front();
            batch
                .iter()
                .zip(executed.outcomes)
                .map(|(read, outcome)| {
                    if let Ok(ok) = &outcome {
                        // Epoch-guarded: the fill is dropped if an update
                        // newer than the read's shard snapshot has already
                        // published for this key.
                        let epoch = executed.shard_epochs[&read.pid];
                        front.fill_cache((read.pid, read.block), epoch, &ok.block);
                    }
                    (read.ticket, outcome)
                })
                .collect()
        };
        AtomicStats::bump(&self.stats.batches_executed, 1);
        // lossless: usize → u64 widens on every supported target.
        AtomicStats::bump(&self.stats.rounds_executed, executed.stats.rounds as u64);
        AtomicStats::bump(&self.stats.reads_coalesced, piggybacked);
        // Maintenance, second half: between coalesced batches, fold
        // whatever crossed the policy's thresholds. Compaction re-encodes
        // every rewrite before retiring anything and commits per shard
        // under the shard's own lock, so an error here simply skips the
        // pass.
        if let Some(policy) = &self.config.compaction {
            if let Ok(report) = Compactor::new(*policy).run(&self.store) {
                self.apply_compaction(&report);
            }
        }
        guard.publish(published);
    }
}

/// Owes the drained tickets a published result. Normal path:
/// [`TicketGuard::publish`] hands every ticket its real outcome. Unwind
/// path (the leader panicked executing the batch): `Drop` publishes
/// [`StoreError::ServerPanicked`] to all of them, so followers error out
/// instead of waiting forever — and the panic stays contained to the
/// leader's own request.
struct TicketGuard<'a> {
    server: &'a StoreServer,
    tickets: Vec<Ticket>,
}

impl TicketGuard<'_> {
    fn publish(mut self, results: Vec<(Ticket, Result<BlockReadOutcome, StoreError>)>) {
        let mut sched = self.server.lock_sched();
        sched.results.extend(results);
        drop(sched);
        self.tickets.clear();
        self.server.done.notify_all();
    }
}

impl Drop for TicketGuard<'_> {
    fn drop(&mut self) {
        if self.tickets.is_empty() {
            return;
        }
        let mut sched = self.server.lock_sched();
        for &ticket in &self.tickets {
            sched
                .results
                .entry(ticket)
                .or_insert(Err(StoreError::ServerPanicked));
        }
        drop(sched);
        self.server.done.notify_all();
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BLOCK_SIZE;
    use crate::workload::deterministic_text;

    fn immediate_config(cache_capacity: usize) -> ServerConfig {
        ServerConfig {
            cache_capacity,
            window: BatchWindow::Window(Duration::ZERO),
            ..ServerConfig::paper_default()
        }
    }

    fn server_with_blocks(
        seed: u64,
        blocks: usize,
        config: ServerConfig,
    ) -> (StoreServer, PartitionId, Vec<u8>) {
        let server = StoreServer::new(BlockStore::new(seed), config);
        let pid = server
            .create_partition(PartitionConfig::paper_default(seed ^ 0x51))
            .unwrap();
        let data = deterministic_text(blocks * BLOCK_SIZE, seed ^ 0x52);
        server.write_file(pid, &data).unwrap();
        (server, pid, data)
    }

    #[test]
    fn read_range_past_the_end_fails_before_queueing() {
        let (server, pid, _) = server_with_blocks(301, 1, immediate_config(8));
        let capacity = server.store().partition(pid).unwrap().num_leaves();
        assert_eq!(
            server.read_range(pid, 0, u64::MAX).unwrap_err(),
            StoreError::BlockOutOfRange {
                block: capacity,
                capacity
            }
        );
        assert_eq!(server.stats().rounds_executed, 0);
    }

    #[test]
    fn warm_cache_reread_executes_zero_wetlab_rounds() {
        let (server, pid, data) = server_with_blocks(300, 2, immediate_config(8));
        let cold = server.read_block(pid, 0).unwrap();
        assert!(!cold.from_cache);
        assert_eq!(cold.block.data, &data[..BLOCK_SIZE]);
        let rounds_after_cold = server.stats().rounds_executed;
        assert!(rounds_after_cold > 0);

        let warm = server.read_block(pid, 0).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.block, cold.block);
        let stats = server.stats();
        assert_eq!(
            stats.rounds_executed, rounds_after_cold,
            "warm re-read must execute 0 wetlab rounds"
        );
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(stats.stale_serves, 0);
        assert_eq!(stats.reads_served, stats.cache_hits + stats.cache_misses);
    }

    #[test]
    fn update_invalidates_cached_block() {
        let (server, pid, mut data) = server_with_blocks(301, 2, immediate_config(8));
        let before = server.read_block(pid, 0).unwrap();
        assert_eq!(before.block.data, &data[..BLOCK_SIZE]);
        assert!(server.read_block(pid, 0).unwrap().from_cache);

        data[10..14].copy_from_slice(b"EDIT");
        server.update_block(pid, 0, &data[..BLOCK_SIZE]).unwrap();
        let after = server.read_block(pid, 0).unwrap();
        assert!(!after.from_cache, "the update dropped the cached copy");
        assert_eq!(after.block.data, &data[..BLOCK_SIZE]);
        assert_eq!(after.patches_applied, 1);
        // And the re-read repopulated the cache with the new image.
        let warm = server.read_block(pid, 0).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.block.data, &data[..BLOCK_SIZE]);
        assert_eq!(server.stats().stale_serves, 0);
    }

    #[test]
    fn read_range_mixes_cache_hits_and_wetlab_misses() {
        let (server, pid, data) = server_with_blocks(303, 3, immediate_config(8));
        assert!(!server.read_block(pid, 1).unwrap().from_cache);
        let range = server.read_range(pid, 0, 2).unwrap();
        assert_eq!(range.len(), 3);
        for (b, read) in range.iter().enumerate() {
            assert_eq!(
                read.block.data,
                &data[b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE],
                "range block {b}"
            );
        }
        assert!(!range[0].from_cache);
        assert!(range[1].from_cache, "block 1 was already decoded");
        assert!(!range[2].from_cache);
        let stats = server.stats();
        assert_eq!(stats.reads_served, 4);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 3);
    }

    #[test]
    fn gate_window_coalesces_concurrent_reads_into_one_batch() {
        let config = ServerConfig {
            window: BatchWindow::Gate,
            ..immediate_config(8)
        };
        let (server, pid, data) = server_with_blocks(304, 3, config);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3u64)
                .map(|b| {
                    let server = &server;
                    scope.spawn(move || server.read_block(pid, b).unwrap())
                })
                .collect();
            // Deterministic: wait until all three reads are queued, then
            // release them as one batch.
            while server.pending_reads() < 3 {
                std::thread::yield_now();
            }
            server.release_batch();
            for (b, handle) in handles.into_iter().enumerate() {
                let read = handle.join().unwrap();
                assert_eq!(
                    read.block.data,
                    &data[b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE],
                    "thread {b}"
                );
            }
        });
        let stats = server.stats();
        assert_eq!(stats.batches_executed, 1, "one coalesced batch");
        assert_eq!(stats.rounds_executed, 1, "one partition, one tube");
        assert_eq!(
            stats.reads_coalesced, 2,
            "two reads rode the leader's round"
        );
    }

    #[test]
    fn bad_request_does_not_poison_coalesced_neighbors() {
        let config = ServerConfig {
            window: BatchWindow::Gate,
            ..immediate_config(8)
        };
        let (server, pid, data) = server_with_blocks(305, 1, config);
        std::thread::scope(|scope| {
            let good = scope.spawn(|| server.read_block(pid, 0));
            let bad = scope.spawn(|| server.read_block(PartitionId(99), 0));
            while server.pending_reads() < 2 {
                std::thread::yield_now();
            }
            server.release_batch();
            let good = good.join().unwrap().expect("good read survives");
            assert_eq!(good.block.data, &data[..BLOCK_SIZE]);
            assert!(matches!(
                bad.join().unwrap(),
                Err(StoreError::UnknownPartition(99))
            ));
        });
        let stats = server.stats();
        assert_eq!(stats.stale_serves, 0);
        // Whichever read queued second came from a call other than the
        // leader's, so it counts as coalesced whatever its outcome.
        assert_eq!(stats.reads_coalesced, 1);
        assert_eq!(stats.batches_executed, 1, "one coalesced batch");
        assert_eq!(stats.rounds_executed, 1, "the bad read takes no round");
    }

    #[test]
    fn update_path_compacts_before_exhaustion() {
        // A nearly-full Interleaved partition: 52 data blocks in 64 leaves
        // leave 12 overflow leaves, so ~38 updates of one block exhaust
        // it. With a headroom policy the server compacts just-in-time and
        // the same workload keeps going well past that bound.
        use crate::compaction::CompactionPolicy;
        use crate::UpdateLayout;
        let config = ServerConfig {
            compaction: Some(CompactionPolicy::headroom_only(2)),
            ..immediate_config(8)
        };
        let server = StoreServer::new(BlockStore::new(310), config);
        let pid = server
            .create_partition(PartitionConfig::small(
                0x61,
                3,
                UpdateLayout::paper_default(),
            ))
            .unwrap();
        let mut data = deterministic_text(52 * BLOCK_SIZE, 0x62);
        server.write_file(pid, &data).unwrap();
        // 45 updates: past the 38-update exhaustion bound, with a few
        // post-compaction patches left to read back through the wetlab.
        for round in 0..45u8 {
            data[usize::from(round % 8)] = b'a' + (round % 26);
            server
                .update_block(pid, 0, &data[..BLOCK_SIZE])
                .unwrap_or_else(|e| panic!("update {round}: {e}"));
        }
        let stats = server.stats();
        assert!(stats.compactions >= 1, "{stats:?}");
        assert!(stats.units_reclaimed > 0);
        assert!(stats.rewrites_synthesized >= 1);
        assert_eq!(stats.updates_applied, 45);
        let read = server.read_block(pid, 0).unwrap();
        assert_eq!(read.block.data, &data[..BLOCK_SIZE]);
        assert_eq!(server.stats().stale_serves, 0);
    }

    #[test]
    fn batch_maintenance_folds_hot_chains_and_keeps_cache_coherent() {
        use crate::compaction::CompactionPolicy;
        use crate::UpdateLayout;
        let policy = CompactionPolicy {
            max_chain_len: 1,
            max_stack_updates: 0,
            max_log_entries: 0,
            max_scope_units: 0,
            min_headroom: 0,
        };
        let config = ServerConfig {
            compaction: Some(policy),
            ..immediate_config(8)
        };
        let server = StoreServer::new(BlockStore::new(311), config);
        let pid = server
            .create_partition(PartitionConfig::small(
                0x63,
                3,
                UpdateLayout::paper_default(),
            ))
            .unwrap();
        let mut data = deterministic_text(2 * BLOCK_SIZE, 0x64);
        server.write_file(pid, &data).unwrap();
        // 4 updates: 2 direct slots + a chain leaf → over max_chain_len 1.
        for i in 0..4u8 {
            data[usize::from(i)] = b'A' + i;
            server.update_block(pid, 0, &data[..BLOCK_SIZE]).unwrap();
        }
        assert_eq!(server.stats().compactions, 0, "no batch has run yet");
        // This miss executes a batch; the maintenance pass after it folds
        // the chain — and drops the rebased key that the batch had just
        // cached.
        let read = server.read_block(pid, 0).unwrap();
        assert!(!read.from_cache);
        assert_eq!(read.block.data, &data[..BLOCK_SIZE]);
        assert_eq!(read.patches_applied, 4, "read preceded the fold");
        let stats = server.stats();
        assert_eq!(stats.compactions, 1, "{stats:?}");
        assert!(stats.units_reclaimed >= 6, "{stats:?}");
        // The invalidated key re-reads cold — now from the rebased base
        // unit, zero patches — then stays warm.
        let rebased = server.read_block(pid, 0).unwrap();
        assert!(!rebased.from_cache, "compaction invalidated the key");
        assert_eq!(rebased.block.data, &data[..BLOCK_SIZE]);
        assert_eq!(rebased.patches_applied, 0);
        let warm = server.read_block(pid, 0).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.block.data, &data[..BLOCK_SIZE]);
        assert_eq!(server.stats().stale_serves, 0);
    }

    #[test]
    fn run_maintenance_reports_reclaims_on_demand() {
        use crate::UpdateLayout;
        // No policy configured: manual maintenance uses the paper default.
        let (server, _, _) = server_with_blocks(312, 1, immediate_config(8));
        let pid = server
            .create_partition(PartitionConfig::small(0x65, 3, UpdateLayout::TwoStacks))
            .unwrap();
        let mut data = deterministic_text(BLOCK_SIZE, 0x66);
        server.write_file(pid, &data).unwrap();
        for i in 0..3u8 {
            data[usize::from(i)] = b'0' + i;
            server.update_block(pid, 0, &data).unwrap();
        }
        // Below every threshold: nothing to do.
        assert!(server.run_maintenance().unwrap().is_empty());
        for i in 3..12u8 {
            data[usize::from(i % 8)] = b'0' + i;
            server.update_block(pid, 0, &data).unwrap();
        }
        // 12 stacked updates → projected scope 13 ≥ the default 12.
        let report = server.run_maintenance().unwrap();
        assert_eq!(report.blocks_rebased, 1);
        assert_eq!(report.units_reclaimed, 13, "12 patches + 1 old base");
        let read = server.read_block(pid, 0).unwrap();
        assert_eq!(read.block.data, data);
        assert_eq!(read.patches_applied, 0);
    }

    #[test]
    fn stats_account_requests_and_updates() {
        let (server, pid, data) = server_with_blocks(306, 2, immediate_config(0));
        // Cache disabled: every read is a miss and nothing is ever cached.
        server.read_block(pid, 0).unwrap();
        server.read_block(pid, 0).unwrap();
        server.update_block(pid, 1, &data[BLOCK_SIZE..]).unwrap();
        let stats = server.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.reads_served, 2);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.updates_applied, 1);
        assert_eq!(server.cached_blocks(), 0);
        let store = server.into_store();
        assert_eq!(
            store.logical_block(pid, 1).unwrap().data,
            &data[BLOCK_SIZE..]
        );
    }

    #[test]
    fn poisoned_locks_recover_and_serve() {
        // Regression for the lock-poisoning fragility: a client thread
        // that panicks while holding a service lock must not brick the
        // server. Poison both service locks from a doomed thread, then
        // verify every serving path still works.
        let (server, pid, data) = server_with_blocks(313, 2, immediate_config(8));
        server.read_block(pid, 0).unwrap(); // warm one key
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let handle = scope.spawn(|| {
                    // lint: allow(lock-unwrap): this doomed thread deliberately panics while holding the lock to poison it
                    let _front = server.front.lock().unwrap();
                    panic!("poison the front lock");
                });
                assert!(handle.join().is_err());
                let handle = scope.spawn(|| {
                    // lint: allow(lock-unwrap): this doomed thread deliberately panics while holding the lock to poison it
                    let _sched = server.sched.lock().unwrap();
                    panic!("poison the sched lock");
                });
                assert!(handle.join().is_err());
            }
        });
        assert!(server.front.is_poisoned());
        assert!(server.sched.is_poisoned());
        // Every path recovers: warm hit, cold miss, update, stats.
        let warm = server.read_block(pid, 0).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.block.data, &data[..BLOCK_SIZE]);
        let cold = server.read_block(pid, 1).unwrap();
        assert_eq!(cold.block.data, &data[BLOCK_SIZE..]);
        let mut edited = data[..BLOCK_SIZE].to_vec();
        edited[0] ^= 0xFF;
        server.update_block(pid, 0, &edited).unwrap();
        let after = server.read_block(pid, 0).unwrap();
        assert_eq!(after.block.data, edited);
        let stats = server.stats();
        assert_eq!(stats.stale_serves, 0);
        assert_eq!(stats.reads_served, stats.cache_hits + stats.cache_misses);
    }

    #[test]
    fn panicking_leader_fails_its_tickets_without_hanging_followers() {
        // The TicketGuard containment story: if the leader dies after
        // draining the queue, every drained ticket gets ServerPanicked
        // instead of hanging forever. Simulate the drained state directly:
        // queue tickets, steal them like a crashing leader would, and let
        // the guard's drop path publish.
        let (server, pid, _) = server_with_blocks(314, 1, immediate_config(8));
        let t = std::thread::scope(|scope| {
            let reader = scope.spawn(|| server.read_block(pid, 0));
            // The reader elects itself leader and executes normally; a
            // second reader coalesced behind a leader that panicks is
            // exercised via the guard directly:
            reader.join().unwrap()
        });
        t.unwrap();
        // Drive the guard's unwind path explicitly.
        let ticket = {
            let mut sched = server.lock_sched();
            let ticket = sched.next_ticket;
            sched.next_ticket += 1;
            ticket
        };
        let guard = TicketGuard {
            server: &server,
            tickets: vec![ticket],
        };
        drop(guard); // unwind path: publishes ServerPanicked
        let mut sched = server.lock_sched();
        assert!(matches!(
            sched.results.remove(&ticket),
            Some(Err(StoreError::ServerPanicked))
        ));
    }

    #[test]
    fn window_poll_never_releases_early_on_spurious_wakeups() {
        // A spurious wakeup changes neither the pending count nor the
        // deadline: the decision must be to park again for exactly the
        // remaining window — never Execute, never a zero wait (busy-spin).
        let window = Duration::from_millis(2);
        let mut remaining = window;
        let mut parks = 0;
        // Model a storm of spurious wakeups, each consuming some of the
        // window: the decision sequence must be monotone Waits (shrinking
        // with the clock) followed by exactly one Execute at zero.
        while remaining > Duration::ZERO {
            match window_poll(remaining, 1, 64) {
                WindowPoll::Execute => panic!("released a 1-read batch before the deadline"),
                WindowPoll::Wait(wait) => {
                    assert_eq!(wait, remaining, "leader must park for the full remainder");
                    parks += 1;
                }
            }
            remaining = remaining.saturating_sub(Duration::from_nanos(200_000));
        }
        assert_eq!(parks, 10);
        assert_eq!(
            window_poll(Duration::ZERO, 1, 64),
            WindowPoll::Execute,
            "a reached deadline releases the batch no matter how the wakeup happened"
        );
    }

    #[test]
    fn window_poll_early_trigger_and_unbounded_batch() {
        // max_batch reached → execute even with the whole window left.
        assert_eq!(
            window_poll(Duration::from_secs(60), 64, 64),
            WindowPoll::Execute
        );
        assert_eq!(
            window_poll(Duration::from_secs(60), 65, 64),
            WindowPoll::Execute
        );
        // max_batch == 0 disables the early trigger entirely.
        assert_eq!(
            window_poll(Duration::from_secs(60), 1_000_000, 0),
            WindowPoll::Wait(Duration::from_secs(60))
        );
    }

    #[test]
    fn window_leader_survives_a_spurious_wakeup_storm() {
        // End-to-end audit of the Window leader loop: with a 60 s window
        // and max_batch = 2, a leader holding one read is stormed with
        // spurious arrivals-condvar wakeups. It must keep windowing (no
        // premature 1-read batch), then release promptly — long before the
        // deadline — once a second read fills the batch.
        let config = ServerConfig {
            window: BatchWindow::Window(Duration::from_secs(60)),
            max_batch: 2,
            ..immediate_config(8)
        };
        let (server, pid, data) = server_with_blocks(315, 2, config);
        std::thread::scope(|scope| {
            let server = &server;
            let leader = scope.spawn(move || server.read_block(pid, 0).unwrap());
            // Wait until the leader has queued its read and begun windowing.
            loop {
                let sched = server.lock_sched();
                if sched.leader_active && sched.pending.len() == 1 {
                    break;
                }
                drop(sched);
                std::thread::yield_now();
            }
            // Spurious storm: wake the leader repeatedly with nothing new.
            for _ in 0..64 {
                server.arrivals.notify_all();
                std::thread::yield_now();
            }
            assert_eq!(
                server.stats().batches_executed,
                0,
                "spurious wakeups must not release the batch before the deadline"
            );
            // The second read reaches max_batch: both must now complete
            // promptly (the test would time out on a 60 s deadline wait).
            let follower = scope.spawn(move || server.read_block(pid, 1).unwrap());
            let a = leader.join().unwrap();
            let b = follower.join().unwrap();
            assert_eq!(a.block.data, &data[..BLOCK_SIZE]);
            assert_eq!(b.block.data, &data[BLOCK_SIZE..]);
        });
        let stats = server.stats();
        assert_eq!(stats.batches_executed, 1, "one coalesced batch, not two");
        assert_eq!(stats.reads_coalesced, 1, "the follower shared the round");
        assert_eq!(stats.stale_serves, 0);
    }

    #[test]
    fn stats_fields_cover_every_counter() {
        let stats = ServerStats {
            requests: 1,
            reads_served: 5,
            cache_hits: 2,
            cache_misses: 3,
            batches_executed: 4,
            rounds_executed: 5,
            reads_coalesced: 6,
            updates_applied: 7,
            stale_serves: 8,
            compactions: 9,
            units_reclaimed: 10,
            rewrites_synthesized: 11,
            wetlab_species_scanned: 12,
            wetlab_species_skipped: 13,
            wetlab_binding_cache_hits: 14,
            wetlab_anneal_calls: 15,
            wetlab_reads_materialized: 16,
            wetlab_scratch_reuses: 17,
        };
        let fields = stats.fields();
        assert_eq!(fields.len(), 18);
        // Every name unique, every value the struct's own.
        let names: std::collections::BTreeSet<&str> = fields.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), fields.len());
        assert_eq!(stats.field("reads_served"), Some(5));
        assert_eq!(stats.field("stale_serves"), Some(8));
        assert_eq!(stats.field("wetlab_species_skipped"), Some(13));
        assert_eq!(stats.field("nonsense"), None);
    }
}
