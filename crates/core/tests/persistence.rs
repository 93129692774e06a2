//! Durability properties: snapshot → journal replay → resumed store.
//!
//! The acceptance bar for the persist subsystem (ROADMAP item 1):
//!
//! 1. **Recovery equivalence** — a store reopened from its image + journal
//!    is *byte-identical* to the one that wrote them: same logical images
//!    (the §5.4 digital oracle), same tube contents, same epochs, same RNG
//!    streams — on all three update layouts, over every journal record
//!    kind and around refused commits, with checkpoints landing at
//!    arbitrary points in the history.
//! 2. **Serving equivalence** — a [`StoreServer`] resumed on the recovered
//!    store serves the exact oracle bytes, and the [`ServerStats`]
//!    identities (`reads_served == cache_hits + cache_misses`,
//!    `stale_serves == 0`) survive recover-and-resume.
//! 3. **Format stability** — the on-disk image and journal encodings are
//!    pinned by golden checksums; any layout change must bump
//!    [`dna_block_store::persist::FORMAT_VERSION`] and add a migration
//!    note (the CI format gate runs these tests).

use dna_block_store::persist::{open_or_recover_store, Journal, JournalRecord, FORMAT_VERSION};
use dna_block_store::{
    checksum64, BlockStore, PartitionConfig, PartitionId, ServerConfig, StoreServer, UpdateLayout,
    BLOCK_SIZE,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

const LAYOUTS: [UpdateLayout; 3] = [
    UpdateLayout::Interleaved { update_slots: 3 },
    UpdateLayout::TwoStacks,
    UpdateLayout::DedicatedLog,
];

const BLOCKS: u64 = 4;
const PARTITIONS: usize = 2;

/// A unique scratch directory per test case (removed on success; leftovers
/// from failed runs land under the system temp dir).
fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dna-persist-{}-{tag}-{n}", std::process::id()))
}

fn layout_tag(layout: UpdateLayout) -> &'static str {
    match layout {
        UpdateLayout::Interleaved { .. } => "interleaved",
        UpdateLayout::TwoStacks => "twostacks",
        UpdateLayout::DedicatedLog => "log",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Property 1 + 2: build a durable store with two partitions, run a
    /// random history of every record kind — updates, compactions of one
    /// partition and of the shared log — interleaved with commits the
    /// store must refuse without a trace (an oversized write, a double
    /// write, an update of an unwritten block), with a checkpoint landing
    /// at a random point; reopen — the recovered store's captured image
    /// must equal the original's exactly (logical oracle, tubes, epochs,
    /// RNG streams), and a resumed server must serve the oracle bytes with
    /// clean stats.
    #[test]
    fn recovered_store_is_byte_identical(
        seed in 0u64..1_000,
        // (op, partition, block, edit position, edit byte): ops 0..=3
        // update, 4 compacts the partition, 5 compacts the shared log, and
        // 6..=8 are refused commits.
        ops in prop::collection::vec(
            (0u8..9, 0usize..PARTITIONS, 0u64..BLOCKS, 0usize..BLOCK_SIZE, any::<u8>()),
            1..10,
        ),
        checkpoint_at in 0usize..10,
    ) {
        for layout in LAYOUTS {
            let dir = scratch(layout_tag(layout));
            let mut oracle = Vec::new();
            let original_image;
            {
                let mut store = open_or_recover_store(&dir, seed).unwrap();
                store
                    .set_log_partition_config(PartitionConfig::small(
                        seed ^ 0x31,
                        2,
                        UpdateLayout::paper_default(),
                    ))
                    .unwrap();
                for part in 0..PARTITIONS {
                    let pid = store
                        .create_partition(PartitionConfig::small(seed ^ 0x32 ^ part as u64, 3, layout))
                        .unwrap();
                    let data = dna_block_store::workload::deterministic_text(
                        BLOCKS as usize * BLOCK_SIZE,
                        seed ^ 0x33 ^ part as u64,
                    );
                    store.write_file(pid, &data).unwrap();
                    oracle.push(data);
                }
                for (i, &(op, part, block, pos, byte)) in ops.iter().enumerate() {
                    if i == checkpoint_at {
                        // A snapshot mid-history: recovery must combine it
                        // with the journal suffix.
                        store.checkpoint().unwrap();
                    }
                    let pid = PartitionId(part);
                    let off = block as usize * BLOCK_SIZE;
                    match op {
                        0..=3 => {
                            oracle[part][off + pos] = byte;
                            store
                                .update_block(pid, block, &oracle[part][off..off + BLOCK_SIZE])
                                .unwrap();
                        }
                        4 => {
                            store.compact_partition(pid).unwrap();
                        }
                        5 => {
                            store.compact_log().unwrap();
                        }
                        _ => {
                            let before = store.capture_image();
                            let refused = match op {
                                // 64 leaves, the top one reserved for
                                // overflow: blocks BLOCKS..BLOCKS + 64
                                // cannot all fit.
                                6 => store
                                    .write_file_at(pid, BLOCKS, &vec![byte; 64 * BLOCK_SIZE])
                                    .map(|_| ()),
                                7 => store.write_file_at(pid, block, &[byte]).map(|_| ()),
                                _ => store.update_block(pid, BLOCKS, &[byte; BLOCK_SIZE]),
                            };
                            prop_assert!(refused.is_err(), "{}: op {} must be refused", layout, op);
                            prop_assert_eq!(
                                store.capture_image(),
                                before,
                                "{}: refused op {} must leave no trace",
                                layout,
                                op
                            );
                        }
                    }
                }
                original_image = store.capture_image();
            } // drop without a final checkpoint: reopen must replay the journal

            let recovered = open_or_recover_store(&dir, seed).unwrap();
            // The strongest possible equivalence: every persisted facet of
            // the store — oracle, tube species and abundances, bookkeeping,
            // epochs, RNG state, primer allocation — is byte-identical.
            prop_assert_eq!(
                recovered.capture_image(),
                original_image,
                "{}: recovery must reproduce the store exactly",
                layout
            );

            // A resumed server serves the oracle through the wetlab path.
            let server =
                StoreServer::new(recovered, ServerConfig::paper_default());
            for (part, data) in oracle.iter().enumerate() {
                for b in 0..BLOCKS {
                    let off = b as usize * BLOCK_SIZE;
                    let out = server.read_block(PartitionId(part), b).unwrap();
                    prop_assert_eq!(
                        &out.block.data[..],
                        &data[off..off + BLOCK_SIZE],
                        "{}: recovered read of partition {} block {}",
                        layout,
                        part,
                        b
                    );
                }
            }
            let stats = server.stats();
            prop_assert_eq!(stats.reads_served, stats.cache_hits + stats.cache_misses);
            prop_assert_eq!(stats.stale_serves, 0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Satellite: the `ServerStats` identities survive recover-and-resume
/// under a cold/warm read mix with interleaved updates — the oracle is
/// reseeded from recovered state, so a stale cache can never be blamed on
/// recovery.
#[test]
fn server_stats_identities_survive_recovery() {
    let dir = scratch("stats");
    let seed = 0xD00D;
    let mut data;
    {
        let store = open_or_recover_store(&dir, seed).unwrap();
        let pid = store
            .create_partition(PartitionConfig::small(
                seed ^ 0x32,
                3,
                UpdateLayout::Interleaved { update_slots: 3 },
            ))
            .unwrap();
        data = dna_block_store::workload::deterministic_text(BLOCKS as usize * BLOCK_SIZE, seed);
        store.write_file(pid, &data).unwrap();
        data[0] = !data[0];
        store.update_block(pid, 0, &data[..BLOCK_SIZE]).unwrap();
    } // crash-equivalent drop: journal holds the update

    let server = StoreServer::open_or_recover(&dir, seed, ServerConfig::paper_default()).unwrap();
    let pid = PartitionId(0);
    // Cold reads, warm re-reads, an update, and a post-update re-read.
    for b in 0..BLOCKS {
        let out = server.read_block(pid, b).unwrap();
        assert_eq!(
            &out.block.data[..],
            &data[b as usize * BLOCK_SIZE..(b as usize + 1) * BLOCK_SIZE]
        );
    }
    for b in 0..BLOCKS {
        let out = server.read_block(pid, b).unwrap();
        assert!(out.from_cache, "warm re-read of block {b} must hit");
    }
    data[BLOCK_SIZE] = !data[BLOCK_SIZE];
    server
        .update_block(pid, 1, &data[BLOCK_SIZE..2 * BLOCK_SIZE])
        .unwrap();
    let post = server.read_block(pid, 1).unwrap();
    assert_eq!(&post.block.data[..], &data[BLOCK_SIZE..2 * BLOCK_SIZE]);

    let stats = server.stats();
    assert_eq!(
        stats.reads_served,
        stats.cache_hits + stats.cache_misses,
        "reads_served identity must hold after recover-and-resume"
    );
    assert_eq!(stats.stale_serves, 0, "no stale serve may follow recovery");
    assert_eq!(stats.reads_served, 2 * BLOCKS + 1);

    // The resumed state is itself recoverable. Server reads advance shard
    // RNG streams without journaling them (reads are not mutations), so a
    // checkpoint is required before image equality can be asserted.
    let store = server.into_store();
    store.checkpoint().unwrap();
    let final_image = store.capture_image();
    drop(store);
    let again = open_or_recover_store(&dir, seed).unwrap();
    assert_eq!(again.capture_image(), final_image);
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery refuses a journal from a different archive instead of
/// replaying it into the wrong store.
#[test]
fn recovery_rejects_foreign_journal() {
    let dir = scratch("foreign");
    {
        let store = open_or_recover_store(&dir, 1).unwrap();
        drop(store);
    }
    let err = open_or_recover_store(&dir, 2).unwrap_err();
    assert!(
        err.to_string().contains("seed"),
        "foreign archive must be detected, got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// format golden pins
// ---------------------------------------------------------------------------

/// Golden checksum of a scripted store's encoded image. If this pin moves,
/// the on-disk image format (or the state that feeds it) changed: bump
/// `persist::FORMAT_VERSION` and add a migration note to the README's
/// "Durability & crash recovery" section, then update the pin.
#[test]
fn format_golden_pin_image() {
    assert_eq!(
        FORMAT_VERSION, 1,
        "FORMAT_VERSION moved: refresh both golden pins alongside the bump"
    );
    let mut store = BlockStore::new(7);
    store
        .set_log_partition_config(PartitionConfig::small(3, 2, UpdateLayout::paper_default()))
        .unwrap();
    let pid = store
        .create_partition(PartitionConfig::small(
            5,
            2,
            UpdateLayout::Interleaved { update_slots: 3 },
        ))
        .unwrap();
    let data = dna_block_store::workload::deterministic_text(2 * BLOCK_SIZE, 9);
    store.write_file(pid, &data).unwrap();
    let mut edit = data[..BLOCK_SIZE].to_vec();
    edit[17] ^= 0x5A;
    store.update_block(pid, 0, &edit).unwrap();
    let encoded = store.capture_image().encode();
    assert_eq!(
        checksum64(&encoded),
        GOLDEN_IMAGE_CHECKSUM,
        "encoded store image changed ({} bytes, checksum {:#018x}): this is \
         an on-disk format change — bump persist::FORMAT_VERSION, document \
         the migration, and refresh this pin",
        encoded.len(),
        checksum64(&encoded)
    );
}

/// Golden checksum of a journal file holding one record of every kind.
/// Same contract as [`format_golden_pin_image`].
#[test]
fn format_golden_pin_journal() {
    let dir = scratch("golden-journal");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.journal");
    let config = PartitionConfig::small(11, 2, UpdateLayout::TwoStacks);
    let mut journal = Journal::create(&path, 0xFEED).unwrap();
    for record in [
        JournalRecord::CreatePartition { pid: 0, config },
        JournalRecord::CreateLogPartition { pid: 1, config },
        JournalRecord::WriteFile {
            pid: 0,
            first_block: 2,
            data: vec![0xAB; 300],
            epoch: 1,
        },
        JournalRecord::Update {
            pid: 0,
            block: 2,
            content: vec![0xCD; BLOCK_SIZE],
            epoch: 2,
        },
        JournalRecord::Compact { pid: 0, epoch: 3 },
        JournalRecord::CompactLog { epoch: 4 },
        JournalRecord::SetLogConfig { config },
    ] {
        journal.append(&record).unwrap();
    }
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        checksum64(&bytes),
        GOLDEN_JOURNAL_CHECKSUM,
        "encoded journal changed ({} bytes, checksum {:#018x}): this is \
         an on-disk format change — bump persist::FORMAT_VERSION, document \
         the migration, and refresh this pin",
        bytes.len(),
        checksum64(&bytes)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Pinned by `format_golden_pin_image`.
const GOLDEN_IMAGE_CHECKSUM: u64 = 0xd8e5_8a81_82b0_45ee;
/// Pinned by `format_golden_pin_journal`.
const GOLDEN_JOURNAL_CHECKSUM: u64 = 0xa2e1_6dee_9772_de44;

/// The recovered oracle helper used by several tests: all logical blocks
/// of partition 0, concatenated.
#[allow(dead_code)]
fn oracle_of(store: &BlockStore) -> BTreeMap<u64, Vec<u8>> {
    store
        .logical_contents()
        .into_iter()
        .filter(|((pid, _), _)| *pid == PartitionId(0))
        .map(|((_, block), image)| (block, image.data.clone()))
        .collect()
}
