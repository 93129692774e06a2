//! End-to-end scenario suite: the store driven the way real workloads
//! drive it — noise sweeps, starved coverage, and mixed read/update/batch
//! traffic over multiple partitions — asserting byte-exact round-trips
//! throughout.

use dna_storage::block_store::{
    batch::BatchPlanner, workload, BatchWindow, BlockStore, CompactionPolicy, PartitionConfig,
    PartitionId, ServerConfig, StoreError, StoreServer, UpdateLayout, BLOCK_SIZE,
};
use dna_storage::sim::{IdsChannel, Sequencer};
use std::time::Duration;

/// Scales the Illumina error profile by an integer factor.
fn illumina_scaled(factor: u32) -> IdsChannel {
    let base = IdsChannel::illumina();
    IdsChannel {
        sub_rate: base.sub_rate * f64::from(factor),
        ins_rate: base.ins_rate * f64::from(factor),
        del_rate: base.del_rate * f64::from(factor),
    }
}

#[test]
fn noisy_sequencer_sweep_round_trips() {
    // IDS error sweep: noiseless, Illumina (the paper's wetlab, §6.6),
    // and 2x/4x Illumina failure injection. Coverage grows with the noise
    // level, as a real operator would provision it.
    for (factor, coverage) in [(0u32, 8usize), (1, 12), (2, 16), (4, 24)] {
        let mut store = BlockStore::new(200 + u64::from(factor));
        store.set_sequencer(Sequencer::new(illumina_scaled(factor)));
        store.set_coverage(coverage);
        let pid = store
            .create_partition(PartitionConfig::paper_default(60 + u64::from(factor)))
            .unwrap();
        let data = workload::deterministic_text(3 * BLOCK_SIZE, 90 + u64::from(factor));
        store.write_file(pid, &data).unwrap();
        for b in 0..3u64 {
            let out = store
                .read_block(pid, b)
                .unwrap_or_else(|e| panic!("factor {factor} block {b}: {e}"));
            assert_eq!(
                out.block.data,
                &data[b as usize * BLOCK_SIZE..(b as usize + 1) * BLOCK_SIZE],
                "factor {factor} block {b} not byte-exact"
            );
        }
    }
}

#[test]
fn coverage_starvation_fails_then_recovers() {
    // Starve the sequencer: heavy noise at coverage 1 cannot support
    // trace reconstruction. Reads are non-destructive (PCR amplifies a
    // sample of the archival tube), so re-provisioning coverage on the
    // SAME store recovers the data byte-exactly.
    let mut store = BlockStore::new(205);
    store.set_sequencer(Sequencer::new(illumina_scaled(4)));
    let pid = store
        .create_partition(PartitionConfig::paper_default(61))
        .unwrap();
    let data = workload::deterministic_text(2 * BLOCK_SIZE, 95);
    store.write_file(pid, &data).unwrap();

    store.set_coverage(1);
    let starved = store.read_block(pid, 0);
    assert!(
        matches!(starved, Err(StoreError::DecodeFailed { .. })),
        "starved read should fail cleanly, got {starved:?}"
    );

    store.set_coverage(24);
    let recovered = store.read_block(pid, 0).expect("recovery read");
    assert_eq!(recovered.block.data, &data[..BLOCK_SIZE]);
    // The failed attempt burned a round but corrupted nothing.
    let other = store.read_block(pid, 1).expect("sibling block intact");
    assert_eq!(other.block.data, &data[BLOCK_SIZE..]);
}

#[test]
fn batch_read_beats_sequential_rounds_with_identical_bytes() {
    // The batching acceptance bar, end to end: 8 blocks in one partition
    // in strictly fewer PCR rounds than 8 sequential reads.
    let store = BlockStore::new(206);
    let pid = store
        .create_partition(PartitionConfig::paper_default(62))
        .unwrap();
    let data = workload::deterministic_text(8 * BLOCK_SIZE, 96);
    store.write_file(pid, &data).unwrap();
    let mut sequential_rounds = 0usize;
    let mut sequential = Vec::new();
    for b in 0..8u64 {
        let out = store.read_block(pid, b).unwrap();
        sequential_rounds += out.stats.pcr_rounds;
        sequential.push(out.block);
    }
    let requests: Vec<(PartitionId, u64)> = (0..8u64).map(|b| (pid, b)).collect();
    let batch = store.read_blocks_batch(&requests);
    assert!(
        batch.stats.rounds < sequential_rounds,
        "batch {} rounds vs sequential {sequential_rounds}",
        batch.stats.rounds
    );
    for (i, outcome) in batch.outcomes.iter().enumerate() {
        assert_eq!(outcome.as_ref().unwrap().block, sequential[i], "block {i}");
    }
}

#[test]
fn mixed_read_update_batch_interleaving_over_partitions() {
    // Three partitions under three different update layouts, driven by an
    // interleaved stream of writes, updates, single reads, range reads and
    // cross-partition batch reads. Every observation is checked against a
    // shadow model of the logical contents.
    let store = BlockStore::new(207);
    let layouts = [
        UpdateLayout::paper_default(),
        UpdateLayout::TwoStacks,
        UpdateLayout::DedicatedLog,
    ];
    let mut pids = Vec::new();
    let mut shadow: Vec<Vec<u8>> = Vec::new();
    for (i, layout) in layouts.iter().enumerate() {
        let mut cfg = PartitionConfig::paper_default(70 + i as u64);
        cfg.layout = *layout;
        let pid = store.create_partition(cfg).unwrap();
        let data = workload::deterministic_text(3 * BLOCK_SIZE, 100 + i as u64);
        store.write_file(pid, &data).unwrap();
        pids.push(pid);
        shadow.push(data);
    }

    // Update block 1 of each partition (different edit per layout).
    for (i, &pid) in pids.iter().enumerate() {
        let tag = [b'a' + i as u8; 4];
        shadow[i][BLOCK_SIZE + 7..BLOCK_SIZE + 11].copy_from_slice(&tag);
        store
            .update_block(pid, 1, &shadow[i][BLOCK_SIZE..2 * BLOCK_SIZE])
            .unwrap();
    }

    // Single reads observe the updates.
    for (i, &pid) in pids.iter().enumerate() {
        let out = store.read_block(pid, 1).unwrap();
        assert_eq!(
            out.block.data,
            &shadow[i][BLOCK_SIZE..2 * BLOCK_SIZE],
            "layout {i} single read"
        );
        assert_eq!(out.patches_applied, 1);
    }

    // Second round of updates on block 0 of the first partition.
    shadow[0][0..6].copy_from_slice(b"MIXED!");
    store
        .update_block(pids[0], 0, &shadow[0][..BLOCK_SIZE])
        .unwrap();

    // A cross-partition batch read sees every layout's updates at once.
    let requests: Vec<(PartitionId, u64)> = pids
        .iter()
        .flat_map(|&pid| (0..3u64).map(move |b| (pid, b)))
        .collect();
    let batch = store.read_blocks_batch(&requests);
    assert!(batch.stats.rounds <= pids.len(), "{:?}", batch.stats);
    for (r, outcome) in batch.outcomes.iter().enumerate() {
        let (p, b) = (r / 3, r % 3);
        let got = outcome.as_ref().unwrap_or_else(|e| panic!("req {r}: {e}"));
        assert_eq!(
            got.block.data,
            &shadow[p][b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE],
            "partition {p} block {b} in batch"
        );
    }

    // Range reads agree with the shadow afterwards (reads perturb nothing).
    for (i, &pid) in pids.iter().enumerate() {
        let blocks = store.read_range(pid, 0, 2).unwrap();
        for (b, block) in blocks.iter().enumerate() {
            assert_eq!(
                block.data,
                &shadow[i][b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE],
                "layout {i} range block {b}"
            );
        }
    }
}

#[test]
fn concurrent_coalescing_beats_sequential_rounds() {
    // PR 2's batch acceptance check, lifted to the serving layer: K
    // concurrent single-block reads from K client threads — spread across
    // primer-compatible partitions — must execute in strictly fewer
    // multiplex rounds than the same K reads issued sequentially, with
    // byte-identical results. The Gate window makes the coalescing
    // deterministic: all K reads are queued before the round is released.
    const K: usize = 6;
    let partitions = 3usize;
    let blocks_per = (K / partitions) as u64;

    // Sequential baseline on a plain store.
    let store = BlockStore::new(209);
    let mut pids = Vec::new();
    let mut shadow = Vec::new();
    for p in 0..partitions {
        let pid = store
            .create_partition(PartitionConfig::paper_default(82 + p as u64))
            .unwrap();
        let data = workload::deterministic_text(blocks_per as usize * BLOCK_SIZE, 120 + p as u64);
        store.write_file(pid, &data).unwrap();
        pids.push(pid);
        shadow.push(data);
    }
    let mut sequential_rounds = 0usize;
    let mut sequential = Vec::new();
    for &pid in &pids {
        for b in 0..blocks_per {
            let out = store.read_block(pid, b).unwrap();
            sequential_rounds += out.stats.pcr_rounds;
            sequential.push(out.block);
        }
    }
    assert_eq!(sequential_rounds, K, "baseline: one round per read");

    // The same store, served concurrently with a gated batching window.
    let server = StoreServer::new(
        store,
        ServerConfig {
            window: BatchWindow::Gate,
            ..ServerConfig::paper_default()
        },
    );
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K)
            .map(|i| {
                let (server, pids) = (&server, &pids);
                scope.spawn(move || {
                    let (p, b) = (i / blocks_per as usize, (i % blocks_per as usize) as u64);
                    (i, server.read_block(pids[p], b).unwrap())
                })
            })
            .collect();
        // Deterministic coalescing: release the round only once all K
        // reads are queued.
        while server.pending_reads() < K {
            std::thread::yield_now();
        }
        server.release_batch();
        for handle in handles {
            let (i, read) = handle.join().unwrap();
            assert!(!read.from_cache, "first read of each block pays wetlab");
            assert_eq!(read.block, sequential[i], "request {i} content differs");
        }
    });
    let stats = server.stats();
    assert!(
        (stats.rounds_executed as usize) < sequential_rounds,
        "coalesced {} rounds vs sequential {sequential_rounds}",
        stats.rounds_executed
    );
    assert_eq!(stats.batches_executed, 1, "one gated batch");
    assert_eq!(stats.reads_coalesced as usize, K - 1);
    assert_eq!(stats.stale_serves, 0);
}

#[test]
fn forced_single_pair_rounds_still_round_trip() {
    // A planner restricted to one primer pair per tube degenerates to
    // per-partition rounds; contents must not change, only the round count.
    let store = BlockStore::new(208);
    let a = store
        .create_partition(PartitionConfig::paper_default(80))
        .unwrap();
    let b = store
        .create_partition(PartitionConfig::paper_default(81))
        .unwrap();
    let data_a = workload::deterministic_text(2 * BLOCK_SIZE, 110);
    let data_b = workload::deterministic_text(2 * BLOCK_SIZE, 111);
    store.write_file(a, &data_a).unwrap();
    store.write_file(b, &data_b).unwrap();
    let planner = BatchPlanner {
        max_pairs_per_round: 1,
        ..BatchPlanner::paper_default()
    };
    let requests = [(a, 0u64), (a, 1), (b, 0), (b, 1)];
    let strict = store.read_blocks_batch_planned(&requests, &planner);
    assert_eq!(strict.stats.rounds, 2);
    let relaxed = store.read_blocks_batch(&requests);
    assert!(relaxed.stats.rounds <= strict.stats.rounds);
    for (s, r) in strict.outcomes.iter().zip(&relaxed.outcomes) {
        assert_eq!(
            s.as_ref().unwrap().block,
            r.as_ref().unwrap().block,
            "round packing must not change contents"
        );
    }
    assert_eq!(
        strict.outcomes[0].as_ref().unwrap().block.data,
        &data_a[..BLOCK_SIZE]
    );
    assert_eq!(
        strict.outcomes[3].as_ref().unwrap().block.data,
        &data_b[BLOCK_SIZE..]
    );
}

// ----- compaction & consolidation lifecycle --------------------------------

/// The three layouts under sustained-update pressure, small enough to
/// exhaust within a test budget: 64-leaf partitions with a 16-leaf shared
/// log. Depth 3 keeps the 6-base leaf indexes discriminating — at depth 2
/// the 4-base indexes alias across subtrees under sequencing indels — and
/// the data population is kept moderate (20 of 64 leaves), matching the
/// sparse occupancy real deployments provision: a densely packed address
/// space multiplies the §8.1 chimera families a precise read must defeat.
const COMPACTION_LAYOUTS: [UpdateLayout; 3] = [
    UpdateLayout::Interleaved { update_slots: 3 },
    UpdateLayout::TwoStacks,
    UpdateLayout::DedicatedLog,
];

/// Data blocks written into each compaction-scenario partition.
const DATA_BLOCKS: usize = 20;

fn small_update_store(seed: u64, layout: UpdateLayout) -> (BlockStore, PartitionId, Vec<u8>) {
    let mut store = BlockStore::new(seed);
    // A fully-saturated update region (the exhaustion scenarios read at
    // max patch depth) needs real-operator coverage provisioning.
    store.set_coverage(28);
    store
        .set_log_partition_config(PartitionConfig::small(
            seed ^ 0x10,
            2,
            UpdateLayout::paper_default(),
        ))
        .unwrap();
    let pid = store
        .create_partition(PartitionConfig::small(seed ^ 0x11, 3, layout))
        .unwrap();
    let data = workload::deterministic_text(DATA_BLOCKS * BLOCK_SIZE, seed ^ 0x12);
    store.write_file(pid, &data).unwrap();
    (store, pid, data)
}

/// Mutates one byte of `data`'s block 0 per round so every update carries a
/// real (non-identity) patch.
fn next_edit(data: &mut [u8], round: u32) {
    data[(round % 8) as usize] = b'a' + (round % 26) as u8;
}

/// Drives updates of block 0 until the store refuses, returning how many
/// committed.
fn updates_until_exhaustion(
    store: &mut BlockStore,
    pid: PartitionId,
    data: &mut [u8],
) -> (u32, StoreError) {
    for round in 0..200u32 {
        next_edit(data, round);
        if let Err(err) = store.update_block(pid, 0, &data[..BLOCK_SIZE]) {
            return (round, err);
        }
    }
    panic!("no exhaustion within 200 updates");
}

#[test]
fn sustained_updates_exhaust_every_layout_without_compaction() {
    // ISSUE acceptance (a): without compaction, a sustained update workload
    // hits UpdateSlotsExhausted on all three layouts — and the error now
    // says which layout, how long the chain grew, and that headroom is 0.
    for (i, layout) in COMPACTION_LAYOUTS.into_iter().enumerate() {
        let (mut store, pid, mut data) = small_update_store(0x300 + i as u64, layout);
        let predicted = store.update_headroom(pid, 0).unwrap();
        let (committed, err) = updates_until_exhaustion(&mut store, pid, &mut data);
        assert_eq!(
            u64::from(committed),
            predicted,
            "{layout}: update_headroom must predict exhaustion exactly"
        );
        match err {
            StoreError::UpdateSlotsExhausted {
                block: 0,
                layout: err_layout,
                chain_len,
                headroom: 0,
            } => {
                assert_eq!(err_layout, layout);
                assert!(chain_len > 0, "{layout}: some chain/stack/log context");
            }
            other => panic!("{layout}: expected UpdateSlotsExhausted, got {other}"),
        }
        // The store is read-only for updates but still serves correct bytes.
        let out = store.read_block(pid, 0).unwrap();
        assert_eq!(out.block.data, store.logical_block(pid, 0).unwrap().data);
    }
}

#[test]
fn compaction_policy_keeps_the_same_workload_alive_through_the_server() {
    // ISSUE acceptance (b), serving layer: the workload that exhausted
    // every layout above now runs past that bound — the server compacts
    // before any update would starve — and every read stays byte-identical
    // to the digital oracle (stale_serves == 0).
    for (i, layout) in COMPACTION_LAYOUTS.into_iter().enumerate() {
        let seed = 0x310 + i as u64;
        // Measure the no-compaction exhaustion bound on a twin store.
        let (mut twin, twin_pid, mut twin_data) = small_update_store(seed, layout);
        let (exhausted_at, _) = updates_until_exhaustion(&mut twin, twin_pid, &mut twin_data);

        let (store, pid, mut data) = small_update_store(seed, layout);
        let config = ServerConfig {
            window: BatchWindow::Window(Duration::ZERO),
            compaction: Some(CompactionPolicy::headroom_only(2)),
            ..ServerConfig::paper_default()
        };
        let server = StoreServer::new(store, config);
        for round in 0..exhausted_at + 5 {
            next_edit(&mut data, round);
            server
                .update_block(pid, 0, &data[..BLOCK_SIZE])
                .unwrap_or_else(|e| panic!("{layout}: update {round} failed: {e}"));
        }
        let stats = server.stats();
        assert!(
            stats.compactions >= 1,
            "{layout}: the workload must have forced maintenance: {stats:?}"
        );
        assert!(stats.units_reclaimed > 0, "{layout}: {stats:?}");
        assert_eq!(
            stats.updates_applied,
            u64::from(exhausted_at + 5),
            "{layout}: every update past the exhaustion bound must commit"
        );
        // Cold read, then warm read, of every block: byte-identical to the
        // oracle, never stale.
        let store_oracle: Vec<Vec<u8>> = {
            let mut expected = workload::deterministic_text(DATA_BLOCKS * BLOCK_SIZE, seed ^ 0x12);
            expected[..BLOCK_SIZE].copy_from_slice(&data[..BLOCK_SIZE]);
            expected.chunks(BLOCK_SIZE).map(<[u8]>::to_vec).collect()
        };
        for pass in 0..2 {
            for b in 0..4u64 {
                let read = server
                    .read_block(pid, b)
                    .unwrap_or_else(|e| panic!("{layout}: pass {pass} block {b}: {e}"));
                assert_eq!(
                    read.block.data, store_oracle[b as usize],
                    "{layout}: pass {pass} block {b} differs from the oracle"
                );
            }
        }
        let stats = server.stats();
        assert_eq!(stats.stale_serves, 0, "{layout}: {stats:?}");
        assert_eq!(stats.reads_served, stats.cache_hits + stats.cache_misses);
    }
}

#[test]
fn compaction_lowers_hot_block_batch_read_cost() {
    // ISSUE acceptance (b), cost half: immediately before compaction a hot
    // block's batched read pays for its accumulated update scope; right
    // after compaction the same read sequences strictly fewer reads, with
    // identical bytes.
    for (i, layout) in COMPACTION_LAYOUTS.into_iter().enumerate() {
        let (store, pid, mut data) = small_update_store(0x320 + i as u64, layout);
        for round in 0..8u32 {
            next_edit(&mut data, round);
            store.update_block(pid, 0, &data[..BLOCK_SIZE]).unwrap();
        }
        let requests = [(pid, 0u64)];
        let pre = store.read_blocks_batch(&requests);
        let pre_block = pre.outcomes[0].as_ref().unwrap();
        assert_eq!(pre_block.block.data, &data[..BLOCK_SIZE]);
        assert_eq!(pre_block.patches_applied, 8, "{layout}");

        let report = store.compact_partition(pid).unwrap();
        assert!(report.units_reclaimed >= 8, "{layout}: {report:?}");
        assert!(report.rewrites_synthesized >= 1, "{layout}");

        let post = store.read_blocks_batch(&requests);
        let post_block = post.outcomes[0].as_ref().unwrap();
        assert_eq!(
            post_block.block.data,
            &data[..BLOCK_SIZE],
            "{layout}: rebased bytes must match"
        );
        assert_eq!(post_block.patches_applied, 0, "{layout}: chain folded");
        assert!(
            post.stats.reads_sequenced < pre.stats.reads_sequenced,
            "{layout}: post-compaction read must sequence fewer reads \
             ({} vs {})",
            post.stats.reads_sequenced,
            pre.stats.reads_sequenced
        );
        assert!(
            post.stats.rounds <= pre.stats.rounds,
            "{layout}: never more rounds after compaction"
        );
    }
}
