//! Deterministic multi-threaded stress/soak suite for the serving layer.
//!
//! N client threads drive one shared [`StoreServer`] with seeded
//! read/update mixes. The harness is built so every assertion is
//! *interleaving-independent* while the workload itself is a pure function
//! of the seed:
//!
//! - **Single writer per block**: thread `t` updates only its own
//!   partition, round-robin over its blocks, so each block's version
//!   sequence (and therefore the final image) is deterministic for a fixed
//!   seed no matter how the threads interleave.
//! - **Versioned images**: every block content embeds
//!   `(partition, block, version)` plus seeded filler, so a read can be
//!   checked byte-for-byte against the exact image of the version it
//!   claims to be — a torn or stale read cannot pass.
//! - **Started/completed clocks**: writers publish a version's number
//!   before and after committing it; a reader brackets its request with
//!   both counters and asserts the observed version lies in
//!   `[completed-before, started-after]` — i.e. every read observes either
//!   the pre- or the post-update image of any concurrent update, never a
//!   torn or stale one.
//!
//! The suite runs the same harness across three seeds (the acceptance
//! bar), checks the server's stats contract (`stale_serves == 0`,
//! `cache_hits + cache_misses == reads_served`, update accounting), proves
//! reproducibility by replaying the op plans digitally and comparing final
//! images, and pins the warm-cache guarantee: re-reading a cached block
//! executes zero wetlab rounds.

use dna_storage::block_store::{
    workload, BatchWindow, BlockStore, PartitionConfig, PartitionId, ServerConfig, StoreServer,
    BLOCK_SIZE,
};
use dna_storage::seq::rng::DetRng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// Client threads (= partitions; thread `t` is the single writer of
/// partition `t`). CI runs this suite in release with this fixed count.
const CLIENT_THREADS: usize = 4;
/// Blocks per partition.
const BLOCKS: u64 = 3;
/// Operations per client thread (smaller in debug so the tier-1 run stays
/// fast; CI exercises the full mix in release).
#[cfg(debug_assertions)]
const OPS_PER_THREAD: usize = 6;
#[cfg(not(debug_assertions))]
const OPS_PER_THREAD: usize = 14;

/// One client operation. Plans are pure functions of `(seed, thread)` so
/// the digital replay can recompute exactly what each thread did.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Read one block (any partition).
    Read { part: usize, block: u64 },
    /// Update the next round-robin block of the thread's own partition.
    Update,
    /// Read a whole partition as a range.
    ReadRange { part: usize },
}

fn plan_ops(seed: u64, thread: usize) -> Vec<Op> {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x57E5).derive(thread as u64);
    (0..OPS_PER_THREAD)
        .map(|_| {
            // Draw in fixed order so the plan is reproducible.
            let part = rng.gen_range(CLIENT_THREADS);
            let block = rng.gen_range(BLOCKS as usize) as u64;
            match rng.gen_range(100) {
                0..=54 => Op::Read { part, block },
                55..=79 => Op::Update,
                _ => Op::ReadRange { part },
            }
        })
        .collect()
}

/// The unique byte image of `(part, block)` at `version`: a sentinel +
/// address + version stamp over seeded filler. Successive versions differ
/// only in the 4 version bytes, so each update is one small patch.
fn block_image(seed: u64, part: usize, block: u64, version: u32) -> Vec<u8> {
    let mut data =
        workload::deterministic_text(BLOCK_SIZE, seed ^ (part as u64 * 131 + block * 17 + 0xCAFE));
    data[0] = 0xB5;
    data[1] = part as u8;
    data[2] = block as u8;
    data[3..7].copy_from_slice(&version.to_le_bytes());
    data
}

/// Extracts the version stamp, verifying the address bytes.
fn parse_version(part: usize, block: u64, data: &[u8]) -> u32 {
    assert_eq!(data[0], 0xB5, "sentinel byte");
    assert_eq!(data[1], part as u8, "partition stamp");
    assert_eq!(data[2], block as u8, "block stamp");
    u32::from_le_bytes(data[3..7].try_into().unwrap())
}

/// Per-block version clocks: a writer stores `version` into `started`
/// before committing the update and into `completed` after.
#[derive(Default)]
struct VersionClock {
    started: AtomicU32,
    completed: AtomicU32,
}

/// Reads one block through the server and asserts it observes a
/// consistent, untorn image: version within `[completed-before,
/// started-after]` and bytes exactly equal to that version's image.
fn check_read(
    server: &StoreServer,
    clocks: &[Vec<VersionClock>],
    pids: &[PartitionId],
    seed: u64,
    part: usize,
    block: u64,
) {
    let clock = &clocks[part][block as usize];
    let lo = clock.completed.load(Ordering::SeqCst);
    let served = server.read_block(pids[part], block).unwrap();
    let hi = clock.started.load(Ordering::SeqCst);
    let version = parse_version(part, block, &served.block.data);
    assert!(
        (lo..=hi).contains(&version),
        "stale or future read: part {part} block {block} observed v{version}, \
         committed-before v{lo}, started-after v{hi}"
    );
    assert_eq!(
        served.block.data,
        block_image(seed, part, block, version),
        "torn read: part {part} block {block} does not match image v{version}"
    );
}

/// Final version of each block after a plan completes: update `n`
/// (0-based) targets block `n % BLOCKS` with version `n / BLOCKS + 1`.
fn expected_final_versions(plans: &[Vec<Op>]) -> Vec<Vec<u32>> {
    plans
        .iter()
        .map(|plan| {
            let updates = plan.iter().filter(|op| matches!(op, Op::Update)).count() as u32;
            (0..BLOCKS as u32)
                .map(|b| {
                    if updates > b {
                        (updates - b - 1) / BLOCKS as u32 + 1
                    } else {
                        0
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs the full stress harness for one seed and returns the final block
/// images observed through the server.
fn run_stress(seed: u64) -> Vec<Vec<Vec<u8>>> {
    let config = ServerConfig {
        cache_capacity: 64,
        window: BatchWindow::Window(Duration::from_millis(1)),
        ..ServerConfig::paper_default()
    };
    let server = StoreServer::new(BlockStore::new(seed), config);
    let mut pids = Vec::new();
    for part in 0..CLIENT_THREADS {
        let pid = server
            .create_partition(PartitionConfig::paper_default(seed ^ (0x600 + part as u64)))
            .unwrap();
        let mut initial = Vec::new();
        for block in 0..BLOCKS {
            initial.extend_from_slice(&block_image(seed, part, block, 0));
        }
        server.write_file(pid, &initial).unwrap();
        pids.push(pid);
    }
    let clocks: Vec<Vec<VersionClock>> = (0..CLIENT_THREADS)
        .map(|_| (0..BLOCKS).map(|_| VersionClock::default()).collect())
        .collect();
    let plans: Vec<Vec<Op>> = (0..CLIENT_THREADS).map(|t| plan_ops(seed, t)).collect();

    std::thread::scope(|scope| {
        for (thread, plan) in plans.iter().enumerate() {
            let (server, clocks, pids) = (&server, &clocks, &pids);
            scope.spawn(move || {
                let mut own_updates = 0u32;
                for op in plan {
                    match *op {
                        Op::Read { part, block } => {
                            check_read(server, clocks, pids, seed, part, block);
                        }
                        Op::Update => {
                            let block = u64::from(own_updates) % BLOCKS;
                            let version = own_updates / BLOCKS as u32 + 1;
                            let clock = &clocks[thread][block as usize];
                            clock.started.store(version, Ordering::SeqCst);
                            server
                                .update_block(
                                    pids[thread],
                                    block,
                                    &block_image(seed, thread, block, version),
                                )
                                .unwrap();
                            clock.completed.store(version, Ordering::SeqCst);
                            own_updates += 1;
                        }
                        Op::ReadRange { part } => {
                            let lows: Vec<u32> = (0..BLOCKS as usize)
                                .map(|b| clocks[part][b].completed.load(Ordering::SeqCst))
                                .collect();
                            let range = server.read_range(pids[part], 0, BLOCKS - 1).unwrap();
                            assert_eq!(range.len(), BLOCKS as usize);
                            for (b, served) in range.iter().enumerate() {
                                let hi = clocks[part][b].started.load(Ordering::SeqCst);
                                let version = parse_version(part, b as u64, &served.block.data);
                                assert!(
                                    (lows[b]..=hi).contains(&version),
                                    "range read part {part} block {b}: v{version} outside \
                                     [{}, {hi}]",
                                    lows[b]
                                );
                                assert_eq!(
                                    served.block.data,
                                    block_image(seed, part, b as u64, version),
                                    "torn range read part {part} block {b}"
                                );
                            }
                        }
                    }
                }
            });
        }
    });

    // ---- stats contract -------------------------------------------------
    let stats = server.stats();
    let reads_issued: u64 = plans
        .iter()
        .flatten()
        .map(|op| match op {
            Op::Read { .. } => 1,
            Op::ReadRange { .. } => BLOCKS,
            Op::Update => 0,
        })
        .sum();
    let updates_issued = plans
        .iter()
        .flatten()
        .filter(|op| matches!(op, Op::Update))
        .count() as u64;
    assert_eq!(stats.stale_serves, 0, "stale serves: {stats:?}");
    assert_eq!(stats.reads_served, reads_issued, "{stats:?}");
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.reads_served,
        "hit/miss accounting: {stats:?}"
    );
    assert_eq!(stats.updates_applied, updates_issued, "{stats:?}");
    if stats.cache_misses > 0 {
        assert!(stats.batches_executed > 0);
        assert!(stats.rounds_executed > 0);
    }

    // ---- reproducibility: digital replay --------------------------------
    // The final version of every block is a pure function of the seed;
    // the clocks (what the writers actually did) must match the replay,
    // and the server must serve exactly those images.
    let expected = expected_final_versions(&plans);
    let mut finals = Vec::new();
    for part in 0..CLIENT_THREADS {
        let mut images = Vec::new();
        for block in 0..BLOCKS {
            let version = expected[part][block as usize];
            assert_eq!(
                clocks[part][block as usize]
                    .completed
                    .load(Ordering::SeqCst),
                version,
                "writer clock diverged from digital replay (part {part} block {block})"
            );
            let served = server.read_block(pids[part], block).unwrap();
            let image = block_image(seed, part, block, version);
            assert_eq!(
                served.block.data, image,
                "final image part {part} block {block} not reproducible"
            );
            images.push(image);
        }
        finals.push(images);
    }

    // ---- warm-cache guarantee -------------------------------------------
    // Every block is now cached (12 blocks <= capacity 64); re-reading the
    // whole store must execute zero additional wetlab rounds.
    let warm_before = server.stats();
    for (part, &pid) in pids.iter().enumerate() {
        for block in 0..BLOCKS {
            let served = server.read_block(pid, block).unwrap();
            assert!(served.from_cache, "part {part} block {block} not cached");
        }
    }
    let warm_after = server.stats();
    assert_eq!(
        warm_after.rounds_executed, warm_before.rounds_executed,
        "warm re-reads must execute 0 wetlab rounds"
    );
    assert_eq!(
        warm_after.cache_misses, warm_before.cache_misses,
        "warm re-reads must not miss"
    );
    assert_eq!(warm_after.stale_serves, 0);

    finals
}

#[test]
fn stress_mixed_traffic_seed_1() {
    run_stress(0xA1);
}

#[test]
fn stress_mixed_traffic_seed_2() {
    run_stress(0xB2);
}

#[test]
fn stress_mixed_traffic_seed_3() {
    run_stress(0xC3);
}

/// Soak: a hot-block read storm from every thread against one partition.
/// After the first decode the block is warm — the server must serve the
/// storm almost entirely from cache, never stale, and the wetlab round
/// count must stay bounded by the misses (not the requests).
#[test]
fn soak_hot_block_storm_is_cache_bound() {
    let seed = 0xD4;
    let config = ServerConfig {
        cache_capacity: 8,
        window: BatchWindow::Window(Duration::from_millis(1)),
        ..ServerConfig::paper_default()
    };
    let server = StoreServer::new(BlockStore::new(seed), config);
    let pid = server
        .create_partition(PartitionConfig::paper_default(0x700))
        .unwrap();
    server.write_file(pid, &block_image(seed, 0, 0, 0)).unwrap();

    let storm = OPS_PER_THREAD * 4;
    std::thread::scope(|scope| {
        for _ in 0..CLIENT_THREADS {
            let server = &server;
            scope.spawn(move || {
                for _ in 0..storm {
                    let served = server.read_block(pid, 0).unwrap();
                    assert_eq!(parse_version(0, 0, &served.block.data), 0);
                    assert_eq!(served.block.data, block_image(seed, 0, 0, 0));
                }
            });
        }
    });
    let stats = server.stats();
    let total = (CLIENT_THREADS * storm) as u64;
    assert_eq!(stats.reads_served, total);
    assert_eq!(stats.stale_serves, 0);
    assert_eq!(stats.cache_hits + stats.cache_misses, total);
    // Every miss happened before the first decode landed in the cache:
    // misses are bounded by the thread count, not the request count.
    assert!(
        stats.cache_misses <= CLIENT_THREADS as u64,
        "hot block missed {} times",
        stats.cache_misses
    );
    assert!(stats.cache_hits >= total - CLIENT_THREADS as u64);
    // Wetlab cost follows misses (coalesced into at most `misses` rounds).
    assert!(
        stats.rounds_executed <= stats.cache_misses,
        "rounds {} exceed misses {}",
        stats.rounds_executed,
        stats.cache_misses
    );
}

// ---------------------------------------------------------------------------
// Sharded-store lock-order stress: every layout, cross-shard maintenance,
// ≥8 threads.
// ---------------------------------------------------------------------------

/// Partition layouts for the shard storm: two of each §5.3 layout, so the
/// storm exercises in-shard commits (Interleaved), region reads
/// (TwoStacks) and the cross-shard shared log (DedicatedLog) at once.
const STORM_LAYOUTS: [dna_storage::block_store::UpdateLayout; 6] = {
    use dna_storage::block_store::UpdateLayout;
    [
        UpdateLayout::Interleaved { update_slots: 3 },
        UpdateLayout::TwoStacks,
        UpdateLayout::DedicatedLog,
        UpdateLayout::Interleaved { update_slots: 2 },
        UpdateLayout::TwoStacks,
        UpdateLayout::DedicatedLog,
    ]
};
const STORM_THREADS: usize = 8;
const STORM_BLOCKS: u64 = 2;
#[cfg(debug_assertions)]
const STORM_OPS: usize = 4;
#[cfg(not(debug_assertions))]
const STORM_OPS: usize = 10;

/// Deadlock-freedom and coherence storm for the sharded store: 8 client
/// threads fire a seeded mix of single reads, range reads, single-writer
/// updates and store-wide maintenance passes (which take the documented
/// multi-shard lock order: DedicatedLog shards ascending, log shard last)
/// at one server over six partitions spanning all three layouts.
///
/// The assertions are interleaving-independent:
/// - the storm *finishes* (no deadlock under the global lock order);
/// - every operation succeeds (compaction never tears a read; a read
///   never observes a half-committed update);
/// - `stale_serves == 0` and the stats identities hold;
/// - afterwards, every block's wetlab read equals the store's §5.4
///   digital oracle byte for byte.
#[test]
fn shard_storm_mixed_ops_all_layouts() {
    let seed = 0x51A6;
    let config = ServerConfig {
        cache_capacity: 16,
        window: BatchWindow::Window(Duration::from_micros(300)),
        ..ServerConfig::paper_default()
    };
    let server = StoreServer::new(BlockStore::new(seed), config);
    let mut pids = Vec::new();
    for (i, layout) in STORM_LAYOUTS.into_iter().enumerate() {
        let pid = server
            .create_partition(PartitionConfig::small(seed ^ (0x60 + i as u64), 3, layout))
            .unwrap();
        let data = workload::deterministic_text(
            STORM_BLOCKS as usize * BLOCK_SIZE,
            seed ^ (0x70 + i as u64),
        );
        server.write_file(pid, &data).unwrap();
        pids.push(pid);
    }
    let parts = pids.len();
    std::thread::scope(|scope| {
        for t in 0..STORM_THREADS {
            let server = &server;
            let pids = &pids;
            scope.spawn(move || {
                let mut rng = DetRng::seed_from_u64(0x5702 + seed).derive(t as u64);
                // Threads 0..parts are the single writers of their own
                // partition; the rest only read / run maintenance.
                let own = (t < parts).then_some(t);
                let mut edit = 0u8;
                for op in 0..STORM_OPS {
                    let p = rng.gen_range(parts);
                    let b = rng.gen_range(STORM_BLOCKS as usize) as u64;
                    match (rng.gen_range(100), own) {
                        (0..=44, _) => {
                            server.read_block(pids[p], b).unwrap_or_else(|e| {
                                panic!("thread {t} op {op}: read({p},{b}): {e}")
                            });
                        }
                        (45..=64, _) => {
                            server
                                .read_range(pids[p], 0, STORM_BLOCKS - 1)
                                .unwrap_or_else(|e| panic!("thread {t} op {op}: range({p}): {e}"));
                        }
                        (65..=89, Some(own)) => {
                            // Single writer: recompute this partition's
                            // current image from the oracle, flip a byte.
                            let current = server
                                .store()
                                .logical_block(pids[own], b)
                                .expect("own block written");
                            let mut next = current.data.to_vec();
                            edit = edit.wrapping_add(1);
                            next[usize::from(edit % 8)] = b'a' + (edit % 26);
                            server
                                .update_block(pids[own], b, &next)
                                .unwrap_or_else(|e| {
                                    panic!("thread {t} op {op}: update({own},{b}): {e}")
                                });
                        }
                        _ => {
                            // Cross-shard maintenance under load: takes
                            // the multi-shard lock order (data shards
                            // ascending, log last).
                            server
                                .run_maintenance()
                                .unwrap_or_else(|e| panic!("thread {t} op {op}: maintenance: {e}"));
                        }
                    }
                }
            });
        }
    });
    // Stats contract under arbitrary interleavings.
    let stats = server.stats();
    assert_eq!(stats.stale_serves, 0, "{stats:?}");
    assert_eq!(
        stats.reads_served,
        stats.cache_hits + stats.cache_misses,
        "{stats:?}"
    );
    // Every block still reads back byte-identical to the digital oracle —
    // through the wetlab, after all concurrent updates and compactions.
    for &pid in &pids {
        for b in 0..STORM_BLOCKS {
            let oracle = server.store().logical_block(pid, b).unwrap();
            let read = server.read_block(pid, b).unwrap();
            assert_eq!(
                read.block.data, oracle.data,
                "partition {pid:?} block {b} diverged from the oracle"
            );
        }
    }
    assert_eq!(server.stats().stale_serves, 0);
}
