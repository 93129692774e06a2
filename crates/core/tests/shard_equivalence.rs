//! Equivalence properties for the sharded store.
//!
//! The refactor from one monolithic pool/lock to per-partition shards
//! must be *semantically invisible*: the correctness anchor is the §5.4
//! digital front-end (the monolithic store's semantics — original bytes
//! plus every committed patch, in order), and the planner's round
//! arithmetic. Two properties pin it:
//!
//! 1. **Oracle equivalence** — under arbitrary interleavings of updates,
//!    sequential reads, batched reads and compactions, every wetlab read
//!    returns byte-identical images to the digital oracle, and every
//!    batch executes exactly the round count its plan predicted, on all
//!    three update layouts.
//! 2. **Serial/concurrent equivalence** — the same per-shard operation
//!    scripts executed sequentially on one store and concurrently (one
//!    thread per shard) on another produce byte-identical read outcomes,
//!    identical wetlab statistics, and identical final logical images:
//!    per-shard determinism is independent of cross-shard interleaving.
//!
//! Wetlab reads are expensive, so case counts are small; the seeds still
//! vary layouts, targets and edit bytes.

use dna_block_store::{
    BlockStore, PartitionConfig, PartitionId, ReadProtocolStats, UpdateLayout, BLOCK_SIZE,
};
use proptest::prelude::*;

const LAYOUTS: [UpdateLayout; 3] = [
    UpdateLayout::Interleaved { update_slots: 3 },
    UpdateLayout::TwoStacks,
    UpdateLayout::DedicatedLog,
];

const BLOCKS: u64 = 4;

fn build_store(seed: u64, layout: UpdateLayout) -> (BlockStore, PartitionId, Vec<u8>) {
    let mut store = BlockStore::new(seed);
    store
        .set_log_partition_config(PartitionConfig::small(
            seed ^ 0x31,
            2,
            UpdateLayout::paper_default(),
        ))
        .unwrap();
    let pid = store
        .create_partition(PartitionConfig::small(seed ^ 0x32, 3, layout))
        .unwrap();
    let data =
        dna_block_store::workload::deterministic_text(BLOCKS as usize * BLOCK_SIZE, seed ^ 0x33);
    store.write_file(pid, &data).unwrap();
    (store, pid, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Property 1: arbitrary read/update/batch/compaction interleavings
    /// stay byte-identical to the digital oracle, and batches execute the
    /// planned round count.
    #[test]
    fn sharded_store_matches_digital_oracle(
        seed in 0u64..1_000,
        // (op selector, block, edit position, edit byte); short enough
        // that no layout exhausts (the small shared log holds 15).
        ops in prop::collection::vec(
            (0u8..4, 0u64..BLOCKS, 0usize..BLOCK_SIZE, any::<u8>()),
            1..8,
        ),
    ) {
        for layout in LAYOUTS {
            let (store, pid, mut oracle) = build_store(seed, layout);
            for &(op, block, pos, byte) in &ops {
                let off = block as usize * BLOCK_SIZE;
                match op {
                    // Update: oracle and store move in lockstep.
                    0 | 1 => {
                        oracle[off + pos] = byte;
                        store
                            .update_block(pid, block, &oracle[off..off + BLOCK_SIZE])
                            .unwrap();
                    }
                    // Sequential wetlab read equals the oracle.
                    2 => {
                        let out = store.read_block(pid, block).unwrap();
                        prop_assert_eq!(
                            &out.block.data, &oracle[off..off + BLOCK_SIZE],
                            "{}: sequential read of block {}", layout, block
                        );
                    }
                    // Batched read: bytes equal the oracle, in exactly one
                    // round (one partition, well under the planner's 16
                    // pairs per round).
                    _ => {
                        let requests: Vec<(PartitionId, u64)> =
                            (0..BLOCKS).map(|b| (pid, b)).collect();
                        let batch = store.read_blocks_batch(&requests);
                        prop_assert_eq!(
                            batch.stats.rounds, 1,
                            "{}: a one-partition batch took more than one round", layout
                        );
                        for (b, outcome) in batch.outcomes.iter().enumerate() {
                            let off = b * BLOCK_SIZE;
                            prop_assert_eq!(
                                &outcome.as_ref().unwrap().block.data,
                                &oracle[off..off + BLOCK_SIZE],
                                "{}: batched read of block {}", layout, b
                            );
                        }
                    }
                }
            }
            // Compaction folds everything; bytes must survive the rebase
            // through the wetlab on every block.
            store.compact_partition(pid).unwrap();
            for b in 0..BLOCKS {
                let off = b as usize * BLOCK_SIZE;
                let out = store.read_block(pid, b).unwrap();
                prop_assert_eq!(
                    &out.block.data, &oracle[off..off + BLOCK_SIZE],
                    "{}: post-compaction read of block {}", layout, b
                );
                prop_assert_eq!(
                    &store.logical_block(pid, b).unwrap().data,
                    &oracle[off..off + BLOCK_SIZE]
                );
            }
        }
    }
}

/// One scripted per-shard operation for the serial/concurrent property.
#[derive(Debug, Clone, Copy)]
enum ShardOp {
    Update { block: u64, pos: usize, byte: u8 },
    Read { block: u64 },
    ReadRange,
    Compact,
}

/// Executes one shard's script against the store, returning every read
/// outcome (bytes + wetlab statistics) in script order.
fn run_script(
    store: &BlockStore,
    pid: PartitionId,
    data: &mut [u8],
    script: &[ShardOp],
) -> Vec<(Vec<u8>, ReadProtocolStats)> {
    let mut observed = Vec::new();
    for &op in script {
        match op {
            ShardOp::Update { block, pos, byte } => {
                let off = block as usize * BLOCK_SIZE;
                data[off + pos] = byte;
                store
                    .update_block(pid, block, &data[off..off + BLOCK_SIZE])
                    .unwrap();
            }
            ShardOp::Read { block } => {
                let out = store.read_block(pid, block).unwrap();
                observed.push((out.block.data.to_vec(), out.stats));
            }
            ShardOp::ReadRange => {
                let batch =
                    store.read_blocks_batch(&(0..BLOCKS).map(|b| (pid, b)).collect::<Vec<_>>());
                for outcome in batch.outcomes {
                    let o = outcome.unwrap();
                    observed.push((o.block.data.to_vec(), o.stats));
                }
            }
            ShardOp::Compact => {
                store.compact_partition(pid).unwrap();
            }
        }
    }
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Property 2: per-shard scripts produce identical results whether the
    /// shards run one after another or all at once on separate threads —
    /// per-shard RNG streams and epochs make results a pure function of
    /// the shard's own operation order. (In-partition layouts only: the
    /// shared log is a deliberately cross-shard resource, so DedicatedLog
    /// results depend on cross-shard log order by design.)
    #[test]
    fn concurrent_shards_match_serial_execution(
        seed in 0u64..1_000,
        raw in prop::collection::vec(
            prop::collection::vec((0u8..5, 0u64..BLOCKS, 0usize..BLOCK_SIZE, any::<u8>()), 1..5),
            3..4, // 3 shards
        ),
    ) {
        let layouts = [
            UpdateLayout::Interleaved { update_slots: 3 },
            UpdateLayout::TwoStacks,
            UpdateLayout::Interleaved { update_slots: 2 },
        ];
        let scripts: Vec<Vec<ShardOp>> = raw
            .iter()
            .map(|shard_ops| {
                shard_ops
                    .iter()
                    .map(|&(op, block, pos, byte)| match op {
                        0 | 1 => ShardOp::Update { block, pos, byte },
                        2 => ShardOp::Read { block },
                        3 => ShardOp::ReadRange,
                        _ => ShardOp::Compact,
                    })
                    .collect()
            })
            .collect();

        // Build two identically-seeded stores with identical shards.
        let build = || {
            let store = BlockStore::new(seed);
            let mut pids = Vec::new();
            let mut datas = Vec::new();
            for (i, layout) in layouts.iter().enumerate() {
                let pid = store
                    .create_partition(PartitionConfig::small(
                        seed ^ (0x41 + i as u64),
                        3,
                        *layout,
                    ))
                    .unwrap();
                let data = dna_block_store::workload::deterministic_text(
                    BLOCKS as usize * BLOCK_SIZE,
                    seed ^ (0x51 + i as u64),
                );
                store.write_file(pid, &data).unwrap();
                pids.push(pid);
                datas.push(data);
            }
            (store, pids, datas)
        };

        // Serial: shard scripts back to back.
        let (serial_store, pids, mut datas) = build();
        let mut serial_results = Vec::new();
        for (i, script) in scripts.iter().enumerate() {
            serial_results.push(run_script(&serial_store, pids[i], &mut datas[i], script));
        }
        let serial_images: Vec<Vec<u8>> = pids
            .iter()
            .flat_map(|&pid| {
                (0..BLOCKS).map(move |b| (pid, b))
            })
            .map(|(pid, b)| serial_store.logical_block(pid, b).unwrap().data.to_vec())
            .collect();

        // Concurrent: one thread per shard, same scripts.
        let (conc_store, pids2, mut datas2) = build();
        prop_assert_eq!(&pids, &pids2);
        let conc_results: Vec<Vec<(Vec<u8>, ReadProtocolStats)>> =
            std::thread::scope(|scope| {
                let conc_store = &conc_store;
                let handles: Vec<_> = scripts
                    .iter()
                    .zip(pids2.iter().copied())
                    .zip(datas2.iter_mut())
                    .map(|((script, pid), data)| {
                        scope.spawn(move || run_script(conc_store, pid, data, script))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        let conc_images: Vec<Vec<u8>> = pids2
            .iter()
            .flat_map(|&pid| (0..BLOCKS).map(move |b| (pid, b)))
            .map(|(pid, b)| conc_store.logical_block(pid, b).unwrap().data.to_vec())
            .collect();

        // Byte-identical reads, identical wetlab stats, identical final
        // images — shard by shard, op by op.
        prop_assert_eq!(serial_results, conc_results);
        prop_assert_eq!(serial_images, conc_images);
    }
}
