//! Golden pin of the store's two read drivers on a fixed seed.
//!
//! One store holds all three §5.3 update layouts with non-trivial update
//! state: an Interleaved block whose overflow chain is two hops deep, a
//! TwoStacks partition with a non-empty update stack, and a DedicatedLog
//! partition with a non-empty shared log. The batched reader runs under a
//! two-pairs-per-round planner, forcing a multi-round split.
//!
//! - The batched half pins every outcome's bytes (against the §5.4
//!   digital oracle), patch count and full [`ReadProtocolStats`], plus the
//!   batch-level [`BatchStats`], bit for bit.
//! - The sequential half pins `read_block`'s bytes, patch count, PCR
//!   rounds (1 + hops for Interleaved, 1 for TwoStacks, 2 for
//!   DedicatedLog) and reads sequenced — the paper's sequential cost
//!   model.
//!
//! A second scenario pins a known TwoStacks read failure: on a small
//! partition, one update of block 0 makes reads of the unchanged block 2
//! fail in two of three tries.

use dna_block_store::{
    BatchPlanner, BatchStats, BlockStore, PartitionConfig, PartitionId, ReadProtocolStats,
    UpdateLayout, BLOCK_SIZE,
};

const SEED: u64 = 0x601D;
const BLOCKS: u64 = 4;

/// (layout, updates as (block, count)) per partition, in creation order.
const SCENARIO: [(UpdateLayout, &[(u64, usize)]); 3] = [
    // Block 1: 2 direct slots + 3 patches in chain leaf 1 + 1 in chain
    // leaf 2 — a two-hop overflow chain. Block 2: a one-hop chain.
    (
        UpdateLayout::Interleaved { update_slots: 3 },
        &[(1, 6), (2, 3)],
    ),
    (UpdateLayout::TwoStacks, &[(0, 2), (3, 1)]),
    (UpdateLayout::DedicatedLog, &[(2, 2), (0, 1)]),
];

/// Builds the store and returns it with each partition's id and oracle
/// image (original bytes plus every committed patch).
fn build() -> (BlockStore, Vec<(PartitionId, Vec<u8>)>) {
    let mut store = BlockStore::new(SEED);
    store
        .set_log_partition_config(PartitionConfig::small(
            SEED ^ 0x31,
            2,
            UpdateLayout::paper_default(),
        ))
        .unwrap();
    let mut parts = Vec::new();
    for (i, (layout, updates)) in SCENARIO.iter().enumerate() {
        let pid = store
            .create_partition(PartitionConfig::small(SEED ^ (0x40 + i as u64), 3, *layout))
            .unwrap();
        let mut oracle = dna_block_store::workload::deterministic_text(
            BLOCKS as usize * BLOCK_SIZE,
            SEED ^ (0x50 + i as u64),
        );
        store.write_file(pid, &oracle).unwrap();
        for &(block, count) in *updates {
            let off = block as usize * BLOCK_SIZE;
            for u in 0..count {
                oracle[off + 3 * u] = b'a' + u as u8;
                store
                    .update_block(pid, block, &oracle[off..off + BLOCK_SIZE])
                    .unwrap();
            }
        }
        parts.push((pid, oracle));
    }
    (store, parts)
}

fn oracle_block(oracle: &[u8], block: u64) -> &[u8] {
    &oracle[block as usize * BLOCK_SIZE..][..BLOCK_SIZE]
}

fn stats(s: ReadProtocolStats) -> [usize; 4] {
    [
        s.pcr_rounds,
        s.reads_sequenced,
        s.reads_matched,
        s.clusters_used,
    ]
}

/// One batched outcome: `(patches_applied, [pcr_rounds, reads_sequenced,
/// reads_matched, clusters_used])`, or the error's debug text.
type Pinned = Result<(usize, [usize; 4]), String>;

/// Runs one batch, checks every decoded block against the oracle, and
/// returns the pinned outcomes plus the batch statistics.
fn run_batch(
    store: &BlockStore,
    parts: &[(PartitionId, Vec<u8>)],
    requests: &[(PartitionId, u64)],
    planner: &BatchPlanner,
) -> (Vec<Pinned>, BatchStats) {
    let batch = store.read_blocks_batch_planned(requests, planner);
    let pinned = requests
        .iter()
        .zip(&batch.outcomes)
        .map(|(&(pid, block), outcome)| match outcome {
            Ok(out) => {
                assert_eq!(
                    out.block.data,
                    oracle_block(&parts[pid.0].1, block),
                    "batched bytes of ({pid:?}, {block})"
                );
                Ok((out.patches_applied, stats(out.stats)))
            }
            Err(e) => Err(format!("{e:?}")),
        })
        .collect();
    (pinned, batch.stats)
}

fn golden(pinned: &[Result<(usize, [usize; 4]), &str>]) -> Vec<Pinned> {
    pinned.iter().map(|r| r.map_err(str::to_string)).collect()
}

#[test]
fn batched_and_sequential_reads_match_golden() {
    let (store, parts) = build();
    let planner = BatchPlanner {
        max_pairs_per_round: 2,
        ..BatchPlanner::paper_default()
    };

    // Batched half, first batch: every block of every partition, forced
    // into several rounds by the two-pairs-per-round cap (the
    // DedicatedLog partition drags the shared log pair into its round).
    let requests: Vec<(PartitionId, u64)> = parts
        .iter()
        .flat_map(|&(pid, _)| (0..BLOCKS).map(move |b| (pid, b)))
        .collect();
    let (pinned, batch_stats) = run_batch(&store, &parts, &requests, &planner);
    assert_eq!(pinned, golden(&GOLDEN_FULL_BATCH));
    assert_eq!(batch_stats, GOLDEN_FULL_BATCH_STATS);

    // Second batch: the one-hop chain block alone.
    let (pinned, batch_stats) = run_batch(&store, &parts, &[(parts[0].0, 2)], &planner);
    assert_eq!(pinned, golden(&GOLDEN_CHAIN_BATCH));
    assert_eq!(batch_stats, GOLDEN_CHAIN_BATCH_STATS);

    // Sequential half: one updated block per layout.
    let mut got = Vec::new();
    for (&(pid, ref oracle), (_, updates)) in parts.iter().zip(&SCENARIO) {
        let block = updates[0].0;
        let out = store.read_block(pid, block).unwrap();
        assert_eq!(
            out.block.data,
            oracle_block(oracle, block),
            "sequential bytes of ({pid:?}, {block})"
        );
        got.push((
            out.patches_applied,
            out.stats.pcr_rounds,
            out.stats.reads_sequenced,
        ));
    }
    assert_eq!(got, GOLDEN_SEQUENTIAL);
}

/// The full batch, in request order. Block 1 of the Interleaved partition
/// fails: in a round with its partition's other blocks, its chain leaves
/// are amplified per leaf, not per unit, and the pointer unit at the first
/// chain leaf starves.
const GOLDEN_FULL_BATCH: [Result<(usize, [usize; 4]), &str>; 12] = [
    Ok((0, [1, 3240, 202, 34])),
    Err("DecodeFailed { block: 1, reason: \"version slot 3 at leaf 63 unrecovered\" }"),
    Ok((3, [1, 3240, 1175, 60])),
    Ok((0, [1, 3240, 224, 37])),
    Ok((2, [1, 1980, 864, 15])),
    Ok((0, [1, 1980, 249, 17])),
    Ok((0, [1, 1980, 293, 17])),
    Ok((1, [1, 1980, 594, 18])),
    Ok((1, [1, 2160, 1128, 15])),
    Ok((0, [1, 2160, 1090, 24])),
    Ok((2, [1, 2160, 1042, 15])),
    Ok((0, [1, 2160, 1091, 19])),
];

const GOLDEN_FULL_BATCH_STATS: BatchStats = BatchStats {
    rounds: 3,
    primer_pairs: 4,
    reads_sequenced: 7380,
    reads_matched: 8194,
    wasted_reads: 0,
    decode_jobs: 21,
};

/// The one-hop chain block alone: its data leaf's pointer names the chain
/// leaf, decoded in the same round.
const GOLDEN_CHAIN_BATCH: [Result<(usize, [usize; 4]), &str>; 1] = [Ok((3, [1, 900, 858, 63]))];

const GOLDEN_CHAIN_BATCH_STATS: BatchStats = BatchStats {
    rounds: 1,
    primer_pairs: 1,
    reads_sequenced: 900,
    reads_matched: 858,
    wasted_reads: 42,
    decode_jobs: 2,
};

/// `(patches_applied, pcr_rounds, reads_sequenced)` per layout: 1 + two
/// hops for Interleaved, one round for TwoStacks, data then log for
/// DedicatedLog.
const GOLDEN_SEQUENTIAL: [(usize, usize, usize); 3] = [(6, 3, 2160), (2, 1, 720), (2, 2, 1080)];

/// Reads `block` once, checking decoded bytes against `oracle`.
fn read_pinned(store: &BlockStore, pid: PartitionId, oracle: &[u8], block: u64) -> Pinned {
    match store.read_block(pid, block) {
        Ok(out) => {
            assert_eq!(
                out.block.data,
                oracle_block(oracle, block),
                "bytes of block {block}"
            );
            Ok((out.patches_applied, stats(out.stats)))
        }
        Err(e) => Err(format!("{e:?}")),
    }
}

/// A depth-3 TwoStacks partition of 4 blocks. Block 2 reads back three
/// times in a row; after one update of block 0 its reads fail in two of
/// three tries, with "original version missing". The same history on
/// Interleaved reads fine. The likely cause, not yet confirmed, is the
/// one behind `GOLDEN_FULL_BATCH`'s failure: the read scope adds the
/// update region's prefix cover, which in a depth-3 tree amplifies much
/// of the partition, so block 2's original unit gets too few reads.
#[test]
fn two_stacks_reads_after_one_update_match_golden() {
    let store = BlockStore::new(741);
    let pid = store
        .create_partition(PartitionConfig::small(
            741 ^ 0x32,
            3,
            UpdateLayout::TwoStacks,
        ))
        .unwrap();
    let mut oracle =
        dna_block_store::workload::deterministic_text(BLOCKS as usize * BLOCK_SIZE, 741 ^ 0x33);
    store.write_file(pid, &oracle).unwrap();
    let before: Vec<Pinned> = (0..3)
        .map(|_| read_pinned(&store, pid, &oracle, 2))
        .collect();
    oracle[220] = 40;
    store.update_block(pid, 0, &oracle[..BLOCK_SIZE]).unwrap();
    let after: Vec<Pinned> = (0..3)
        .map(|_| read_pinned(&store, pid, &oracle, 2))
        .collect();
    assert_eq!(
        (before, after),
        (
            golden(&GOLDEN_TWO_STACKS_BEFORE),
            golden(&GOLDEN_TWO_STACKS_AFTER)
        )
    );
}

/// Block 2's three reads before the update of block 0.
const GOLDEN_TWO_STACKS_BEFORE: [Result<(usize, [usize; 4]), &str>; 3] = [
    Ok((0, [1, 180, 173, 15])),
    Ok((0, [1, 180, 176, 15])),
    Ok((0, [1, 180, 172, 15])),
];

/// Block 2's three reads after it: fail, succeed, fail. Each read now
/// sequences the update region too (360 reads once it succeeds), yet
/// block 2's original unit is not recovered in two of three.
const GOLDEN_TWO_STACKS_AFTER: [Result<(usize, [usize; 4]), &str>; 3] = [
    Err("DecodeFailed { block: 2, reason: \"original version missing\" }"),
    Ok((0, [1, 360, 343, 30])),
    Err("DecodeFailed { block: 2, reason: \"original version missing\" }"),
];
