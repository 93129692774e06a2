//! An update-aware LRU cache over *decoded* blocks.
//!
//! The paper's read path pays real wetlab work — PCR, sequencing, and a
//! software decode — for every block retrieval. The rewritable-system line
//! of work (Yazdi et al. 2015) observes that archival DNA traffic is
//! read-mostly with hot spots, so a serving layer should never re-pay that
//! cost for a block it already decoded. [`BlockCache`] holds fully decoded
//! logical blocks (updates applied) keyed by `(partition, block)`, with a
//! capacity counted in blocks and deterministic least-recently-used
//! eviction.
//!
//! The cache is *update-aware* by construction: it has no link to the
//! wetlab, so the serving layer ([`crate::service::StoreServer`]) is
//! responsible for invalidating the affected key whenever an update or a
//! compaction commits. All operations are deterministic: the
//! same call sequence always leaves the same contents and eviction order,
//! which the stress and property suites rely on.

use crate::block::Block;
use crate::store::PartitionId;
use std::collections::BTreeMap;

/// Cache key: a block's global address.
pub type CacheKey = (PartitionId, u64);

#[derive(Debug, Clone)]
struct CacheEntry {
    block: Block,
    /// Logical timestamp of the last touch (insert or hit); the entry with
    /// the smallest stamp is the LRU victim.
    stamp: u64,
}

/// A deterministic LRU cache of decoded blocks, capacity counted in
/// blocks.
///
/// A `capacity` of `0` disables the cache entirely: every lookup misses
/// and every insert is dropped.
///
/// # Examples
///
/// ```
/// use dna_block_store::{cache::BlockCache, Block, PartitionId};
///
/// let mut cache = BlockCache::new(2);
/// let k0 = (PartitionId(0), 0u64);
/// let k1 = (PartitionId(0), 1u64);
/// let k2 = (PartitionId(0), 2u64);
/// cache.insert(k0, Block::from_bytes(b"zero").unwrap());
/// cache.insert(k1, Block::from_bytes(b"one").unwrap());
/// assert!(cache.get(&k0).is_some()); // touch k0: k1 becomes LRU
/// let evicted = cache.insert(k2, Block::from_bytes(b"two").unwrap());
/// assert_eq!(evicted, Some(k1));     // capacity 2: LRU k1 evicted
/// assert_eq!(cache.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BlockCache {
    capacity: usize,
    entries: BTreeMap<CacheKey, CacheEntry>,
    /// Recency index: stamp → key (stamps are unique), so the LRU victim
    /// is the first entry — O(log n) per touch instead of a full scan.
    order: BTreeMap<u64, CacheKey>,
    clock: u64,
}

impl BlockCache {
    /// Creates a cache holding at most `capacity` decoded blocks
    /// (`0` disables caching).
    pub fn new(capacity: usize) -> BlockCache {
        BlockCache {
            capacity,
            entries: BTreeMap::new(),
            order: BTreeMap::new(),
            clock: 0,
        }
    }

    /// The configured capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of blocks currently cached (always `<= capacity`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a block up and — on a hit — marks it most recently used.
    pub fn get(&mut self, key: &CacheKey) -> Option<&Block> {
        self.clock += 1;
        let clock = self.clock;
        let order = &mut self.order;
        self.entries.get_mut(key).map(|e| {
            order.remove(&e.stamp);
            order.insert(clock, *key);
            e.stamp = clock;
            &e.block
        })
    }

    /// Looks a block up *without* touching its recency (inspection only).
    pub fn peek(&self, key: &CacheKey) -> Option<&Block> {
        self.entries.get(key).map(|e| &e.block)
    }

    /// Inserts (or replaces) a decoded block, marking it most recently
    /// used. Returns the key evicted to make room, if any. With capacity
    /// `0` the insert is dropped and nothing is evicted.
    pub fn insert(&mut self, key: CacheKey, block: Block) -> Option<CacheKey> {
        if self.capacity == 0 {
            return None;
        }
        self.clock += 1;
        let stamp = self.clock;
        let mut evicted = None;
        match self.entries.get(&key) {
            Some(existing) => {
                self.order.remove(&existing.stamp);
            }
            None if self.entries.len() == self.capacity => {
                let victim = self
                    .order
                    .pop_first()
                    .map(|(_, k)| k)
                    .expect("non-empty at capacity");
                self.entries.remove(&victim);
                evicted = Some(victim);
            }
            None => {}
        }
        self.order.insert(stamp, key);
        self.entries.insert(key, CacheEntry { block, stamp });
        evicted
    }

    /// Removes exactly `key` (the update-invalidation hook). Returns
    /// whether the key was present. No other entry is touched.
    pub fn invalidate(&mut self, key: &CacheKey) -> bool {
        match self.entries.remove(key) {
            Some(entry) => {
                self.order.remove(&entry.stamp);
                true
            }
            None => false,
        }
    }

    /// Drops every entry (recency clock keeps advancing, so later inserts
    /// still order after earlier ones).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Current keys from least- to most-recently used — the exact eviction
    /// order future inserts will follow. Exposed for tests and stats.
    pub fn keys_lru_order(&self) -> Vec<CacheKey> {
        self.order.values().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u64) -> CacheKey {
        (PartitionId(0), b)
    }

    fn blk(tag: u8) -> Block {
        Block::from_bytes(&[tag; 16]).unwrap()
    }

    #[test]
    fn lru_eviction_follows_touch_order() {
        let mut c = BlockCache::new(3);
        for b in 0..3u8 {
            assert_eq!(c.insert(key(b.into()), blk(b)), None);
        }
        assert_eq!(c.keys_lru_order(), vec![key(0), key(1), key(2)]);
        // Touch 0: order becomes 1, 2, 0.
        assert!(c.get(&key(0)).is_some());
        assert_eq!(c.keys_lru_order(), vec![key(1), key(2), key(0)]);
        // Insert over capacity: 1 is the victim.
        assert_eq!(c.insert(key(3), blk(3)), Some(key(1)));
        assert_eq!(c.keys_lru_order(), vec![key(2), key(0), key(3)]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn replacing_an_entry_does_not_evict() {
        let mut c = BlockCache::new(2);
        c.insert(key(0), blk(1));
        c.insert(key(1), blk(2));
        assert_eq!(c.insert(key(0), blk(9)), None, "replacement, not growth");
        assert_eq!(c.peek(&key(0)).unwrap().data[0], 9);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_removes_exactly_one_key() {
        let mut c = BlockCache::new(4);
        for b in 0..4u8 {
            c.insert(key(b.into()), blk(b));
        }
        assert!(c.invalidate(&key(2)));
        assert!(!c.invalidate(&key(2)), "already gone");
        assert_eq!(c.len(), 3);
        assert!(c.peek(&key(2)).is_none());
        for b in [0u64, 1, 3] {
            assert!(c.peek(&key(b)).is_some(), "block {b} untouched");
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = BlockCache::new(0);
        assert_eq!(c.insert(key(0), blk(1)), None);
        assert!(c.get(&key(0)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_disturb_recency() {
        let mut c = BlockCache::new(2);
        c.insert(key(0), blk(0));
        c.insert(key(1), blk(1));
        assert!(c.peek(&key(0)).is_some());
        // 0 is still LRU despite the peek.
        assert_eq!(c.insert(key(2), blk(2)), Some(key(0)));
    }
}
