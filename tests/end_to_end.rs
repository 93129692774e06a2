//! Cross-crate integration tests: the full write → wetlab → decode paths.

use dna_storage::block_store::{
    workload, BlockStore, PartitionConfig, StoreError, UpdateLayout, BLOCK_SIZE,
};
use dna_storage::sim::{IdsChannel, Sequencer};

#[test]
fn multi_partition_isolation() {
    // Two partitions in one tube: reading from one never returns the
    // other's content (the primer pair is the chemical namespace).
    let store = BlockStore::new(100);
    let a = store
        .create_partition(PartitionConfig::paper_default(1))
        .unwrap();
    let b = store
        .create_partition(PartitionConfig::paper_default(2))
        .unwrap();
    let data_a = workload::deterministic_text(2 * BLOCK_SIZE, 10);
    let data_b = workload::deterministic_text(2 * BLOCK_SIZE, 20);
    store.write_file(a, &data_a).unwrap();
    store.write_file(b, &data_b).unwrap();
    let ra = store.read_block(a, 0).unwrap();
    let rb = store.read_block(b, 0).unwrap();
    assert_eq!(ra.block.data, &data_a[..BLOCK_SIZE]);
    assert_eq!(rb.block.data, &data_b[..BLOCK_SIZE]);
    assert_ne!(ra.block.data, rb.block.data);
}

#[test]
fn update_history_survives_many_edits() {
    // Seven updates: 2 direct slots, then the overflow chain (§5.3).
    let store = BlockStore::new(101);
    let pid = store
        .create_partition(PartitionConfig::paper_default(3))
        .unwrap();
    let data = workload::deterministic_text(BLOCK_SIZE, 30);
    store.write_file(pid, &data).unwrap();
    let mut current = data.clone();
    for i in 0..7u8 {
        current[i as usize] = b'0' + i;
        store.update_block(pid, 0, &current).unwrap();
    }
    let out = store.read_block(pid, 0).unwrap();
    assert_eq!(out.block.data, current);
    assert_eq!(out.patches_applied, 7);
    assert!(
        out.stats.pcr_rounds >= 2,
        "overflow chain needs extra rounds"
    );
}

#[test]
fn noisy_sequencer_still_round_trips() {
    // Failure injection: 4x the Illumina error rates.
    let mut store = BlockStore::new(102);
    store.set_sequencer(Sequencer::new(IdsChannel {
        sub_rate: 0.016,
        ins_rate: 0.002,
        del_rate: 0.004,
    }));
    store.set_coverage(20);
    let pid = store
        .create_partition(PartitionConfig::paper_default(4))
        .unwrap();
    let data = workload::deterministic_text(2 * BLOCK_SIZE, 40);
    store.write_file(pid, &data).unwrap();
    let out = store.read_block(pid, 1).unwrap();
    assert_eq!(out.block.data, &data[BLOCK_SIZE..]);
}

#[test]
fn all_layouts_round_trip_updates() {
    for layout in [
        UpdateLayout::paper_default(),
        UpdateLayout::TwoStacks,
        UpdateLayout::DedicatedLog,
    ] {
        let store = BlockStore::new(103);
        let mut cfg = PartitionConfig::paper_default(5);
        cfg.layout = layout;
        let pid = store.create_partition(cfg).unwrap();
        let data = workload::deterministic_text(3 * BLOCK_SIZE, 50);
        store.write_file(pid, &data).unwrap();
        let mut current = data.clone();
        current[BLOCK_SIZE] = b'X';
        store
            .update_block(pid, 1, &current[BLOCK_SIZE..2 * BLOCK_SIZE])
            .unwrap();
        let out = store.read_block(pid, 1).unwrap();
        assert_eq!(
            out.block.data,
            &current[BLOCK_SIZE..2 * BLOCK_SIZE],
            "layout {layout:?}"
        );
        assert_eq!(out.patches_applied, 1, "layout {layout:?}");
    }
}

#[test]
fn range_reads_see_updates() {
    let store = BlockStore::new(104);
    let pid = store
        .create_partition(PartitionConfig::paper_default(6))
        .unwrap();
    let data = workload::deterministic_text(6 * BLOCK_SIZE, 60);
    store.write_file(pid, &data).unwrap();
    let mut current = data.clone();
    current[3 * BLOCK_SIZE..3 * BLOCK_SIZE + 4].copy_from_slice(b"EDIT");
    store
        .update_block(pid, 3, &current[3 * BLOCK_SIZE..4 * BLOCK_SIZE])
        .unwrap();
    let blocks = store.read_range(pid, 2, 4).unwrap();
    assert_eq!(blocks[0].data, &current[2 * BLOCK_SIZE..3 * BLOCK_SIZE]);
    assert_eq!(blocks[1].data, &current[3 * BLOCK_SIZE..4 * BLOCK_SIZE]);
    assert_eq!(blocks[2].data, &current[4 * BLOCK_SIZE..5 * BLOCK_SIZE]);
}

#[test]
fn errors_are_reported_not_panicked() {
    let store = BlockStore::new(105);
    let pid = store
        .create_partition(PartitionConfig::paper_default(7))
        .unwrap();
    // Reading an unwritten block fails cleanly with a typed error before
    // any wetlab work (there is nothing in the tube to amplify).
    store
        .write_file(pid, &workload::deterministic_text(BLOCK_SIZE, 70))
        .unwrap();
    let err = store.read_block(pid, 9).unwrap_err();
    assert_eq!(err, StoreError::BlockNotWritten(9));
    // Updating an unwritten block is a caller error.
    assert!(matches!(
        store.update_block(pid, 9, &[1, 2, 3]),
        Err(StoreError::BlockNotWritten(9))
    ));
}

#[test]
fn deterministic_replay() {
    // Identical seeds and call sequences produce identical wetlab outcomes.
    let run = || {
        let store = BlockStore::new(106);
        let pid = store
            .create_partition(PartitionConfig::paper_default(8))
            .unwrap();
        let data = workload::deterministic_text(2 * BLOCK_SIZE, 80);
        store.write_file(pid, &data).unwrap();
        let out = store.read_block(pid, 0).unwrap();
        (out.block, out.stats.reads_matched)
    };
    assert_eq!(run(), run());
}
