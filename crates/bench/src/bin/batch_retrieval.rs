//! Batched vs sequential multi-block retrieval: wall-clock and simulated
//! wetlab cost (PCR rounds, reads sequenced).
//!
//! The paper's cost lever is amortization: one multiplex PCR amplifies many
//! primer-addressed targets, so a batched access pays one round-trip where
//! sequential access pays one per block. This binary measures both paths on
//! identical stores (same seed, same archive) and prints the reduction.

use dna_bench::report;
use dna_block_store::{BlockStore, PartitionConfig, PartitionId, BLOCK_SIZE};
use std::time::Instant;

/// Builds a store with `partitions` partitions × `blocks_per` blocks each.
fn build_store(seed: u64, partitions: usize, blocks_per: usize) -> (BlockStore, Vec<PartitionId>) {
    let store = BlockStore::new(seed);
    let mut pids = Vec::new();
    for p in 0..partitions {
        let pid = store
            .create_partition(PartitionConfig::paper_default(0x300 + p as u64))
            .expect("primer library has room");
        let data =
            dna_block_store::workload::deterministic_text(blocks_per * BLOCK_SIZE, 40 + p as u64);
        store.write_file(pid, &data).expect("write");
        pids.push(pid);
    }
    (store, pids)
}

fn run_comparison(partitions: usize, blocks_per: usize) {
    let requests: Vec<(PartitionId, u64)> = (0..partitions)
        .flat_map(|p| (0..blocks_per as u64).map(move |b| (PartitionId(p), b)))
        .collect();

    // Sequential: one read_block (one PCR round) per request.
    let (store, _) = build_store(11, partitions, blocks_per);
    let t0 = Instant::now();
    let mut seq_rounds = 0usize;
    let mut seq_reads = 0usize;
    let mut seq_blocks = Vec::new();
    for &(pid, b) in &requests {
        let out = store.read_block(pid, b).expect("sequential read");
        seq_rounds += out.stats.pcr_rounds;
        seq_reads += out.stats.reads_sequenced;
        seq_blocks.push(out.block);
    }
    let seq_wall = t0.elapsed();

    // Batched: identical fresh store, one multiplexed call.
    let (store, _) = build_store(11, partitions, blocks_per);
    let t0 = Instant::now();
    let batch = store.read_blocks_batch(&requests);
    let batch_wall = t0.elapsed();
    for (i, outcome) in batch.outcomes.iter().enumerate() {
        let got = outcome.as_ref().expect("batched block decodes");
        assert_eq!(
            got.block, seq_blocks[i],
            "batched content diverged at request {i}"
        );
    }

    report::section(&format!(
        "{} blocks ({} partitions x {})",
        requests.len(),
        partitions,
        blocks_per
    ));
    report::row(
        "PCR+sequencing rounds (sequential -> batched)",
        format!(
            "{seq_rounds} -> {} ({:.1}x fewer)",
            batch.stats.rounds,
            seq_rounds as f64 / batch.stats.rounds as f64
        ),
    );
    report::row(
        "reads sequenced (sequential -> batched)",
        format!(
            "{seq_reads} -> {} ({:.1}x fewer)",
            batch.stats.reads_sequenced,
            seq_reads as f64 / batch.stats.reads_sequenced.max(1) as f64
        ),
    );
    report::row(
        "batched reads matched / wasted",
        format!(
            "{} / {}",
            batch.stats.reads_matched, batch.stats.wasted_reads
        ),
    );
    report::row("primer pairs multiplexed", batch.stats.primer_pairs);
    report::row(
        "wall clock (sequential -> batched)",
        format!("{seq_wall:.2?} -> {batch_wall:.2?}"),
    );
    report::row(
        "contents",
        format!("byte-identical across all {} blocks", requests.len()),
    );
}

fn main() {
    report::section("batched retrieval: multiplex rounds amortize wetlab work");
    report::row(
        "model",
        "one multiplex PCR + one sequencing pass per compatible primer group",
    );
    // The acceptance shape: 8 blocks in one partition.
    run_comparison(1, 8);
    // Cross-partition batches: compatibility-grouped multiplex rounds.
    run_comparison(4, 2);
    run_comparison(2, 6);
}
