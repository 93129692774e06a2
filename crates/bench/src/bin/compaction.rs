//! Compaction bench: updates-until-exhaustion vs. updates-with-policy,
//! per layout — how many updates a tight partition survives, what a
//! maintenance policy reclaims, and what a hot-block read costs
//! immediately before vs. after consolidation.

use dna_bench::report;
use dna_block_store::{
    BlockStore, CompactionPolicy, Compactor, PartitionConfig, PartitionId, UpdateLayout, BLOCK_SIZE,
};

// Nearly-full partitions (56 of 64 leaves) keep the free update region —
// and therefore the updates-until-exhaustion baseline — small enough to
// bench in seconds.
const DATA_BLOCKS: usize = 56;

fn build(seed: u64, layout: UpdateLayout) -> (BlockStore, PartitionId, Vec<u8>) {
    let mut store = BlockStore::new(seed);
    store.set_coverage(24);
    store
        .set_log_partition_config(PartitionConfig::small(
            seed ^ 0x31,
            2,
            UpdateLayout::paper_default(),
        ))
        .expect("log not yet created");
    let pid = store
        .create_partition(PartitionConfig::small(seed ^ 0x32, 3, layout))
        .expect("primer library has room");
    let data = dna_block_store::workload::deterministic_text(DATA_BLOCKS * BLOCK_SIZE, seed ^ 0x33);
    store.write_file(pid, &data).expect("write");
    (store, pid, data)
}

fn edit(data: &mut [u8], round: u32) {
    data[(round % 8) as usize] = b'a' + (round % 26) as u8;
}

fn main() {
    let layouts = [
        UpdateLayout::Interleaved { update_slots: 3 },
        UpdateLayout::TwoStacks,
        UpdateLayout::DedicatedLog,
    ];
    report::section("Compaction: update capacity and read-cost reclaim per layout");
    println!(
        "  {:<16} | {:>12} | {:>12} | {:>11} | {:>9} | {:>14} | {:>15}",
        "layout",
        "no-policy cap",
        "with policy",
        "compactions",
        "reclaimed",
        "read pre/post",
        "synthesis $"
    );
    for (i, layout) in layouts.into_iter().enumerate() {
        let seed = 0x7C0 + i as u64;
        // Baseline: drive updates until the layout refuses.
        let (bare, bare_pid, mut bare_data) = build(seed, layout);
        let mut exhausted_at = 0u32;
        for round in 0..400u32 {
            edit(&mut bare_data, round);
            if bare
                .update_block(bare_pid, 0, &bare_data[..BLOCK_SIZE])
                .is_err()
            {
                exhausted_at = round;
                break;
            }
        }

        // Policy run: the same workload driven 20 updates PAST the bound
        // that just went read-only, kept alive by maintenance.
        let policy_updates = exhausted_at + 20;
        let (store, pid, mut data) = build(seed, layout);
        let compactor = Compactor::new(CompactionPolicy::headroom_only(2));
        let mut compactions = 0u32;
        let mut reclaimed = 0u64;
        let mut synthesis = 0.0f64;
        let mut pre_reads = 0usize;
        let mut post_reads = 0usize;
        for round in 0..policy_updates {
            edit(&mut data, round);
            if compactor.should_compact_partition(&store, pid)
                || compactor.should_compact_log(&store)
            {
                // Hot-block read cost immediately before the fold...
                let pre = store.read_blocks_batch(&[(pid, 0)]);
                pre_reads = pre.stats.reads_sequenced;
                let report = compactor.run(&store).expect("maintenance pass");
                assert!(!report.is_empty(), "thresholds fired, pass must fold");
                compactions += 1;
                reclaimed += report.units_reclaimed;
                synthesis += report.synthesis_cost;
                // ...and right after.
                let post = store.read_blocks_batch(&[(pid, 0)]);
                post_reads = post.stats.reads_sequenced;
            }
            store
                .update_block(pid, 0, &data[..BLOCK_SIZE])
                .expect("policy keeps updates flowing");
        }
        assert!(compactions > 0, "running past the bound forces maintenance");
        assert!(
            post_reads < pre_reads,
            "post-compaction hot read must sequence fewer reads"
        );
        println!(
            "  {:<16} | {:>12} | {:>12} | {:>11} | {:>9} | {:>6}/{:<7} | {:>15.2}",
            layout.to_string(),
            exhausted_at,
            policy_updates,
            compactions,
            reclaimed,
            pre_reads,
            post_reads,
            synthesis
        );
    }
    report::row(
        "interpretation",
        "a headroom policy converts a hard write ceiling into periodic synthesis cost",
    );
}
