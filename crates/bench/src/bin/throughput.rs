//! Serving-layer throughput: the sharded concurrency architecture vs the
//! serialized global-lock baseline, plus the coalescing/caching profile.
//!
//! Three effects compose in the sharded path:
//!
//! - **Sharding**: per-partition tubes behind per-shard locks, with the
//!   wetlab/decode phase running outside all locks — reads of shard A
//!   proceed concurrently with traffic on shard B, and the multiplex
//!   rounds of one batch execute on scoped threads.
//! - **Coalescing**: concurrent cold reads arriving within the batching
//!   window share multiplex PCR rounds, so wetlab rounds per request
//!   *falls* as client concurrency rises.
//! - **Caching**: a warm re-read of a decoded block costs zero wetlab
//!   rounds and never waits behind an executing wetlab batch.
//!
//! The baseline models the pre-sharding architecture the refactor
//! removed: one global `Mutex` around the whole store, every request
//! taking it for its full wetlab round-trip — amplification, sequencing
//! and decode of *unrelated* partitions fully serialized.
//!
//! Besides the human-readable report, the scaling sweep is emitted as
//! machine-readable `BENCH_throughput.json` (threads × shards →
//! wall-clock per path, rounds/request, speedup) — CI archives it as the
//! start of the serving-layer perf trajectory.

use dna_bench::report;
use dna_block_store::{
    BatchWindow, BlockStore, PartitionConfig, PartitionId, ServerConfig, ServerStats, StoreServer,
    BLOCK_SIZE,
};
use dna_seq::rng::DetRng;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Reads each client thread fires per phase. Sized so the sweep measures
/// the architectures, not the serving path's fixed per-batch window: with
/// the wetlab fast path a multiplex round is cheap enough that a short
/// request storm is dominated by the 500us batching windows, which would
/// understate the serialized baseline's per-request wetlab cost.
const READS_PER_THREAD: usize = 16;
/// Blocks written per partition.
const BLOCKS_PER: u64 = 4;
/// Floor on `serialized / sharded-cache-off` wall clock for qualifying
/// cells. The cache-off column isolates the concurrency layer; with no
/// spare cores the wetlab rounds serialize anyway and the batching window
/// adds latency, so a bounded slowdown is tolerated — but a genuine
/// concurrency regression (lock contention, lost round parallelism)
/// produces ratios far below this. Previously this column was measured
/// but never gated, so a cache-off regression could hide behind the
/// cached headline speedup.
const NOCACHE_FLOOR: f64 = 0.7;

// ---------------------------------------------------------------------------
// workload
// ---------------------------------------------------------------------------

/// The seeded read plan of one client thread: `(shard, block)` pairs
/// spread round-robin over the shards so every cell of the sweep touches
/// all of its partitions.
fn plan(threads: usize, thread: usize, shards: usize, phase: u64) -> Vec<(usize, u64)> {
    let mut rng = DetRng::seed_from_u64(0x7900 + phase).derive(thread as u64);
    (0..READS_PER_THREAD)
        .map(|i| {
            let s = (thread + i * threads) % shards;
            let b = rng.gen_range(BLOCKS_PER as usize) as u64;
            (s, b)
        })
        .collect()
}

fn build_store(seed: u64, shards: usize) -> (BlockStore, Vec<PartitionId>) {
    let store = BlockStore::new(seed);
    let mut pids = Vec::new();
    for p in 0..shards {
        let pid = store
            .create_partition(PartitionConfig::paper_default(0x400 + p as u64))
            .expect("primer library has room");
        let data = dna_block_store::workload::deterministic_text(
            BLOCKS_PER as usize * BLOCK_SIZE,
            50 + p as u64,
        );
        store.write_file(pid, &data).expect("write");
        pids.push(pid);
    }
    (store, pids)
}

// ---------------------------------------------------------------------------
// the two architectures under test
// ---------------------------------------------------------------------------

/// Pre-sharding baseline: one global mutex, every request holds it for
/// its entire wetlab round-trip.
fn run_serialized(seed: u64, threads: usize, shards: usize) -> Duration {
    let (store, pids) = build_store(seed, shards);
    let store = Mutex::new(store);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = &store;
            let pids = &pids;
            scope.spawn(move || {
                for (s, b) in plan(threads, t, shards, 0) {
                    // The store is read-only here: a poisoned lock (a
                    // panicked sibling worker) leaves nothing half-written,
                    // so recover and keep measuring.
                    let guard = store.lock().unwrap_or_else(PoisonError::into_inner);
                    guard.read_block(pids[s], b).expect("read");
                    drop(guard);
                }
            });
        }
    });
    start.elapsed()
}

/// The sharded serving path, cold-started: per-shard tubes, coalesced
/// multiplex rounds, request dedup, and (when `cache_blocks > 0`) the
/// update-aware decoded-block cache — the full serving architecture the
/// refactor enables. `cache_blocks = 0` measures the concurrency layer
/// alone.
fn run_sharded(
    seed: u64,
    threads: usize,
    shards: usize,
    cache_blocks: usize,
) -> (Duration, ServerStats) {
    let (store, pids) = build_store(seed, shards);
    let config = ServerConfig {
        cache_capacity: cache_blocks,
        window: BatchWindow::Window(Duration::from_micros(500)),
        ..ServerConfig::paper_default()
    };
    let server = StoreServer::new(store, config);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let server = &server;
            let pids = &pids;
            scope.spawn(move || {
                for (s, b) in plan(threads, t, shards, 0) {
                    server.read_block(pids[s], b).expect("read");
                }
            });
        }
    });
    (start.elapsed(), server.stats())
}

// ---------------------------------------------------------------------------
// scaling sweep + JSON
// ---------------------------------------------------------------------------

struct Cell {
    threads: usize,
    shards: usize,
    requests: u64,
    serialized_ms: f64,
    sharded_ms: f64,
    sharded_nocache_ms: f64,
    speedup: f64,
    nocache_speedup: f64,
    rounds: u64,
    rounds_per_request: f64,
    coalesced: u64,
    cache_hits: u64,
    stale_serves: u64,
}

fn run_cell(threads: usize, shards: usize) -> Cell {
    let seed = 21;
    let serialized = run_serialized(seed, threads, shards);
    let cache = shards * BLOCKS_PER as usize * 2;
    let (sharded, stats) = run_sharded(seed, threads, shards, cache);
    let (nocache, nocache_stats) = run_sharded(seed, threads, shards, 0);
    let requests = (threads * READS_PER_THREAD) as u64;
    assert_eq!(nocache_stats.stale_serves, 0);
    Cell {
        threads,
        shards,
        requests,
        serialized_ms: serialized.as_secs_f64() * 1e3,
        sharded_ms: sharded.as_secs_f64() * 1e3,
        sharded_nocache_ms: nocache.as_secs_f64() * 1e3,
        speedup: serialized.as_secs_f64() / sharded.as_secs_f64().max(1e-9),
        nocache_speedup: serialized.as_secs_f64() / nocache.as_secs_f64().max(1e-9),
        rounds: stats.rounds_executed,
        rounds_per_request: nocache_stats.rounds_executed as f64 / requests.max(1) as f64,
        coalesced: nocache_stats.reads_coalesced,
        cache_hits: stats.cache_hits,
        stale_serves: stats.stale_serves,
    }
}

fn write_json(cells: &[Cell]) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"throughput\",\n  \"reads_per_thread\": {READS_PER_THREAD},\n  \"blocks_per_shard\": {BLOCKS_PER},\n  \"available_parallelism\": {cores},\n  \"nocache_gate\": {{\"floor\": {NOCACHE_FLOOR}, \"rationale\": \"cache-off isolates the concurrency layer; on a host without spare cores the wetlab rounds serialize anyway and the 500us batching window adds latency per round, so the floor tolerates a bounded slowdown instead of demanding parity — a real concurrency regression (contention, lost round parallelism) lands far below it\"}},\n  \"cells\": [\n"
    ));
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"shards\": {}, \"requests\": {}, \
             \"serialized_wall_ms\": {:.3}, \"sharded_wall_ms\": {:.3}, \
             \"sharded_nocache_wall_ms\": {:.3}, \
             \"speedup\": {:.3}, \"nocache_speedup\": {:.3}, \
             \"rounds\": {}, \"rounds_per_request\": {:.4}, \
             \"reads_coalesced\": {}, \"cache_hits\": {}, \"stale_serves\": {}}}{}\n",
            c.threads,
            c.shards,
            c.requests,
            c.serialized_ms,
            c.sharded_ms,
            c.sharded_nocache_ms,
            c.speedup,
            c.nocache_speedup,
            c.rounds,
            c.rounds_per_request,
            c.coalesced,
            c.cache_hits,
            c.stale_serves,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = "BENCH_throughput.json";
    std::fs::write(path, out).expect("write BENCH_throughput.json");
    report::row("machine-readable sweep", path);
}

// ---------------------------------------------------------------------------
// coalescing/caching profile (cold vs warm) — the PR3 view, kept
// ---------------------------------------------------------------------------

fn per_request(value: u64, requests: u64) -> f64 {
    value as f64 / requests.max(1) as f64
}

fn run_profile(threads: usize) {
    let (store, pids) = build_store(21, 4);
    let config = ServerConfig {
        cache_capacity: 4 * BLOCKS_PER as usize * 2,
        window: BatchWindow::Window(Duration::from_micros(500)),
        ..ServerConfig::paper_default()
    };
    let server = StoreServer::new(store, config);
    let requests = (threads * READS_PER_THREAD) as u64;
    let drive = |phase: u64| {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let server = &server;
                let pids = &pids;
                scope.spawn(move || {
                    let mut rng = DetRng::seed_from_u64(0x7900 + phase).derive(t as u64);
                    for _ in 0..READS_PER_THREAD {
                        let p = rng.gen_range(pids.len());
                        let b = rng.gen_range(BLOCKS_PER as usize) as u64;
                        server.read_block(pids[p], b).expect("read");
                    }
                });
            }
        });
        start.elapsed()
    };

    // Cold: empty cache, every distinct block pays wetlab work once.
    let cold_wall = drive(0);
    let cold: ServerStats = server.stats();
    // Warm: the identical storm again — the working set is cached.
    let warm_wall = drive(0);
    let warm = server.stats();
    let warm_rounds = warm.rounds_executed - cold.rounds_executed;
    let warm_hits = warm.cache_hits - cold.cache_hits;

    report::section(&format!(
        "{threads} client thread(s), {requests} reads per phase"
    ));
    report::row(
        "requests/sec (cold -> warm)",
        format!(
            "{:.0} -> {:.0}",
            requests as f64 / cold_wall.as_secs_f64().max(1e-9),
            requests as f64 / warm_wall.as_secs_f64().max(1e-9)
        ),
    );
    report::row(
        "wetlab rounds per request (cold -> warm)",
        format!(
            "{:.2} -> {:.2}",
            per_request(cold.rounds_executed, requests),
            per_request(warm_rounds, requests)
        ),
    );
    report::row(
        "cold misses / coalesced / rounds",
        format!(
            "{} / {} / {}",
            cold.cache_misses, cold.reads_coalesced, cold.rounds_executed
        ),
    );
    report::row(
        "warm hit rate",
        format!("{:.0}%", 100.0 * per_request(warm_hits, requests)),
    );
    report::row("stale serves", warm.stale_serves);
    assert_eq!(warm.stale_serves, 0, "coherence contract");
    assert_eq!(
        warm_rounds, 0,
        "a fully warm working set must execute 0 wetlab rounds"
    );
}

fn main() {
    report::section("multi-shard scaling: sharded server vs serialized global lock");
    report::row(
        "baseline",
        "Mutex<BlockStore>: each request holds the global lock for its wetlab round-trip",
    );
    report::row(
        "sharded",
        "StoreServer (500us window): coalesced rounds over per-shard tubes + decoded-block cache",
    );
    report::row(
        "workload",
        format!("{READS_PER_THREAD} seeded reads/thread, {BLOCKS_PER} blocks/shard"),
    );
    let mut cells = Vec::new();
    for &shards in &[1usize, 2, 4] {
        for &threads in &[1usize, 2, 4, 8, 16] {
            let cell = run_cell(threads, shards);
            report::row(
                &format!("threads={threads:<2} shards={shards}"),
                format!(
                    "{:>7.1}ms serialized | {:>7.1}ms sharded ({:>7.1}ms cache-off) | {:>5.2}x | {:.2} rounds/req",
                    cell.serialized_ms,
                    cell.sharded_ms,
                    cell.sharded_nocache_ms,
                    cell.speedup,
                    cell.rounds_per_request
                ),
            );
            assert_eq!(cell.stale_serves, 0, "coherence contract");
            cells.push(cell);
        }
    }
    write_json(&cells);
    // The acceptance bar: with >=4 client threads over >=4 partitions the
    // serving architecture must beat the serialized global-lock baseline
    // by >=10x wall-clock. The baseline is the architecture the refactor
    // removed — every request holding one global `Mutex<BlockStore>` for
    // its full wetlab round-trip; the serving path wins through
    // coalesced/deduplicated multiplex rounds over per-shard tubes plus
    // the decoded-block cache (the cache-off column above isolates the
    // concurrency layer, and on multi-core hosts the scoped-thread round
    // dispatch adds wall-clock parallelism on top). The bar was raised
    // from 2x when the wetlab fast path (binding caches, sparse
    // amplification, sequencing scratch reuse) cut per-round
    // simulation cost and the sweep's workload was scaled to amortize the
    // serving path's fixed batching windows. Every qualifying cell must
    // also clear a 1.2x sanity floor so a concurrency regression in one
    // cell cannot hide behind another cell's headline number.
    let qualifying: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.threads >= 4 && c.shards >= 4)
        .collect();
    let best = qualifying
        .iter()
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        .expect("sweep covers the acceptance cells");
    report::section("acceptance");
    report::row(
        "threads>=4, shards>=4 best speedup vs global lock",
        format!(
            "{:.2}x (threads={}, shards={})",
            best.speedup, best.threads, best.shards
        ),
    );
    let worst_nocache = qualifying
        .iter()
        .min_by(|a, b| a.nocache_speedup.total_cmp(&b.nocache_speedup))
        .expect("sweep covers the acceptance cells");
    report::row(
        "threads>=4, shards>=4 worst cache-off speedup vs global lock",
        format!(
            "{:.2}x (threads={}, shards={}, floor {NOCACHE_FLOOR}x)",
            worst_nocache.nocache_speedup, worst_nocache.threads, worst_nocache.shards
        ),
    );
    for cell in &qualifying {
        assert!(
            cell.speedup >= 1.2,
            "qualifying cell threads={} shards={} regressed below the 1.2x floor ({:.2}x)",
            cell.threads,
            cell.shards,
            cell.speedup
        );
        assert!(
            cell.nocache_speedup >= NOCACHE_FLOOR,
            "qualifying cell threads={} shards={} cache-off path fell below the \
             {NOCACHE_FLOOR}x floor vs the serialized baseline ({:.2}x): the \
             concurrency layer itself has regressed, independent of the cache",
            cell.threads,
            cell.shards,
            cell.nocache_speedup
        );
    }
    assert!(
        best.speedup >= 10.0,
        "sharded serving must beat the serialized global-lock baseline by >=10x \
         at threads={} shards={} (got {:.2}x)",
        best.threads,
        best.shards,
        best.speedup
    );

    report::section("serving-layer profile: coalescing + caching");
    report::row(
        "model",
        "N client threads -> one StoreServer (500us batching window, LRU cache)",
    );
    for threads in [1usize, 2, 4, 8, 16, 32] {
        run_profile(threads);
    }
}
