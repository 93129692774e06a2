//! Property tests for the decoded-block cache: LRU behavior against a
//! reference model, and byte-equivalence of cache-enabled vs
//! cache-disabled serving under arbitrary read/update interleavings.

use dna_block_store::cache::{BlockCache, CacheKey};
use dna_block_store::{
    BatchWindow, Block, BlockStore, PartitionConfig, PartitionId, ServerConfig, StoreServer,
    BLOCK_SIZE,
};
use proptest::prelude::*;
use std::time::Duration;

/// A straightforward reference LRU: `Vec` ordered least- to most-recently
/// used.
struct ModelLru {
    capacity: usize,
    entries: Vec<(CacheKey, u8)>,
}

impl ModelLru {
    fn new(capacity: usize) -> ModelLru {
        ModelLru {
            capacity,
            entries: Vec::new(),
        }
    }

    fn insert(&mut self, key: CacheKey, tag: u8) -> Option<CacheKey> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(pos) = self.entries.iter().position(|&(k, _)| k == key) {
            self.entries.remove(pos);
            self.entries.push((key, tag));
            return None;
        }
        let evicted = if self.entries.len() == self.capacity {
            Some(self.entries.remove(0).0)
        } else {
            None
        };
        self.entries.push((key, tag));
        evicted
    }

    fn get(&mut self, key: CacheKey) -> Option<u8> {
        let pos = self.entries.iter().position(|&(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        self.entries.push(entry);
        Some(entry.1)
    }

    fn invalidate(&mut self, key: CacheKey) -> bool {
        match self.entries.iter().position(|&(k, _)| k == key) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    fn keys(&self) -> Vec<CacheKey> {
        self.entries.iter().map(|&(k, _)| k).collect()
    }
}

fn tagged_block(tag: u8) -> Block {
    Block::from_bytes(&[tag; 8]).expect("tiny block fits")
}

proptest! {
    /// The cache agrees with the reference model on every observable —
    /// hit/miss, returned bytes, eviction victim, LRU order, and the
    /// capacity bound — after every operation of an arbitrary sequence.
    #[test]
    fn cache_matches_reference_lru_model(
        capacity in 0usize..6,
        raw_ops in prop::collection::vec(0u32..1000, 0..60),
    ) {
        let mut cache = BlockCache::new(capacity);
        let mut model = ModelLru::new(capacity);
        for (step, raw) in raw_ops.iter().enumerate() {
            // Decode one op from the raw draw: 8 keys x 3 op kinds.
            let key: CacheKey = (PartitionId((raw / 3 % 2) as usize), u64::from(raw / 6 % 4));
            let tag = (raw % 251) as u8;
            match raw % 3 {
                0 => {
                    let got = cache.get(&key).map(|b| b.data[0]);
                    prop_assert_eq!(got, model.get(key), "get at step {}", step);
                }
                1 => {
                    let evicted = cache.insert(key, tagged_block(tag));
                    prop_assert_eq!(evicted, model.insert(key, tag), "evict at step {}", step);
                }
                _ => {
                    prop_assert_eq!(
                        cache.invalidate(&key),
                        model.invalidate(key),
                        "invalidate at step {}",
                        step
                    );
                }
            }
            prop_assert!(cache.len() <= capacity, "capacity exceeded at step {}", step);
            prop_assert_eq!(cache.len(), model.entries.len());
            prop_assert_eq!(cache.keys_lru_order(), model.keys(), "LRU order at step {}", step);
        }
    }

    /// Invalidation removes exactly the named key: every other entry keeps
    /// its bytes and its position in the eviction order.
    #[test]
    fn invalidate_removes_exactly_the_updated_block(
        populate in prop::collection::vec(0u64..12, 1..12),
        victim in 0u64..12,
    ) {
        let mut cache = BlockCache::new(12);
        for &b in &populate {
            cache.insert((PartitionId(0), b), tagged_block(b as u8));
        }
        let before = cache.keys_lru_order();
        let was_present = cache.peek(&(PartitionId(0), victim)).is_some();
        prop_assert_eq!(cache.invalidate(&(PartitionId(0), victim)), was_present);
        let expected: Vec<CacheKey> = before
            .iter()
            .copied()
            .filter(|&(_, b)| b != victim)
            .collect();
        prop_assert_eq!(cache.keys_lru_order(), expected);
        for &(_, b) in &expected {
            prop_assert_eq!(
                cache.peek(&(PartitionId(0), b)).map(|blk| blk.data[0]),
                Some(b as u8)
            );
        }
    }
}

proptest! {
    // Wetlab-backed equivalence: keep the case count small — every case
    // drives two full PCR/sequencing/decode servers.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A cache-enabled read sequence is byte-identical to the
    /// cache-disabled sequence under arbitrary read/update interleavings,
    /// and both agree with a digital shadow of the logical contents.
    #[test]
    fn cached_and_uncached_serving_are_byte_identical(
        seed in 400u64..500,
        raw_ops in prop::collection::vec(0u32..1000, 3..9),
    ) {
        let blocks = 3usize;
        let build = |cache_capacity: usize| {
            let config = ServerConfig {
                cache_capacity,
                window: BatchWindow::Window(Duration::ZERO),
                ..ServerConfig::paper_default()
            };
            let server = StoreServer::new(BlockStore::new(seed), config);
            let pid = server
                .create_partition(PartitionConfig::paper_default(seed ^ 0x77))
                .unwrap();
            let data = dna_block_store::workload::deterministic_text(blocks * BLOCK_SIZE, seed);
            server.write_file(pid, &data).unwrap();
            (server, pid, data)
        };
        let (cached, pid_c, mut shadow) = build(4);
        let (uncached, pid_u, _) = build(0);

        for (step, raw) in raw_ops.iter().enumerate() {
            let block = u64::from(raw / 4) % blocks as u64;
            let off = (raw / 16) as usize % (BLOCK_SIZE - 4);
            match raw % 4 {
                // Update: same edit applied to both servers and the shadow.
                0 => {
                    let lo = block as usize * BLOCK_SIZE;
                    shadow[lo + off..lo + off + 3].copy_from_slice(b"upd");
                    let content = &shadow[lo..lo + BLOCK_SIZE];
                    cached.update_block(pid_c, block, content).unwrap();
                    uncached.update_block(pid_u, block, content).unwrap();
                }
                // Range read over everything.
                1 => {
                    let a = cached.read_range(pid_c, 0, blocks as u64 - 1).unwrap();
                    let b = uncached.read_range(pid_u, 0, blocks as u64 - 1).unwrap();
                    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                        prop_assert_eq!(&x.block, &y.block, "step {} range block {}", step, i);
                        prop_assert_eq!(
                            &x.block.data[..],
                            &shadow[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE],
                            "step {} shadow range block {}",
                            step,
                            i
                        );
                    }
                }
                // Single-block read.
                _ => {
                    let a = cached.read_block(pid_c, block).unwrap();
                    let b = uncached.read_block(pid_u, block).unwrap();
                    prop_assert_eq!(&a.block, &b.block, "step {} block {}", step, block);
                    let lo = block as usize * BLOCK_SIZE;
                    prop_assert_eq!(
                        &a.block.data[..],
                        &shadow[lo..lo + BLOCK_SIZE],
                        "step {} shadow block {}",
                        step,
                        block
                    );
                }
            }
        }
        // The uncached server never hit; the cached one never served stale.
        let s_cached = cached.stats();
        let s_uncached = uncached.stats();
        prop_assert_eq!(s_uncached.cache_hits, 0);
        prop_assert_eq!(s_cached.stale_serves, 0);
        prop_assert_eq!(s_uncached.stale_serves, 0);
        prop_assert_eq!(
            s_cached.cache_hits + s_cached.cache_misses,
            s_cached.reads_served
        );
        // Fewer (or equal) wetlab rounds with the cache on, never more.
        prop_assert!(s_cached.rounds_executed <= s_uncached.rounds_executed);
    }
}
