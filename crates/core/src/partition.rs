//! Partitions: one primer pair, an internally blocked address space.

use crate::block::Block;
use crate::layout::UpdateLayout;
use crate::update::UpdatePatch;
use crate::StoreError;
use dna_codec::{intra, PayloadCodec, StrandGeometry};
use dna_ecc::{EncodingUnit, UnitConfig};
use dna_index::{IndexTree, LeafId};
use dna_pipeline::BlockDecodeConfig;
use dna_primers::PrimerPair;
use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::{Molecule, StrandTag};
use std::collections::BTreeMap;

/// A version slot within a block's address: 0 is the original data, 1..
/// are updates (§5.3: "the original object as ACGTA, the first update as
/// ACGTC, second update as ACGTG").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct VersionSlot(pub u8);

impl VersionSlot {
    /// The version base encoding this slot (slot i → i-th base).
    pub fn base(self) -> Base {
        Base::from_code(self.0)
    }

    /// Slot of a version base.
    pub fn from_base(b: Base) -> VersionSlot {
        VersionSlot(b.code())
    }
}

/// Static configuration of a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Strand geometry (paper: 150-base strands).
    pub geometry: StrandGeometry,
    /// Encoding-unit geometry (paper: RS(15,11) over GF(16)).
    pub unit: UnitConfig,
    /// Index-tree depth (paper: 5 → 1024 leaves).
    pub tree_depth: usize,
    /// Master seed; the tree seed and payload-randomizer seed derive from
    /// it (§4.4: only seeds are stored as metadata).
    pub master_seed: u64,
    /// Update placement policy.
    pub layout: UpdateLayout,
    /// Ground-truth tag for simulator provenance (file number).
    pub partition_tag: u32,
}

impl PartitionConfig {
    /// The paper's wetlab configuration.
    pub fn paper_default(master_seed: u64) -> PartitionConfig {
        PartitionConfig {
            geometry: StrandGeometry::paper_default(),
            unit: UnitConfig::paper_default(),
            tree_depth: 5,
            master_seed,
            layout: UpdateLayout::paper_default(),
            partition_tag: 0,
        }
    }

    /// A reduced address space: `tree_depth` levels (`4^depth` leaves) with
    /// a matching sparse unit index (2 bases per level); everything else as
    /// the paper wetlab. Small partitions reach update-slot exhaustion
    /// within a test budget, which is what the compaction scenarios, bench
    /// and example drive.
    pub fn small(master_seed: u64, tree_depth: usize, layout: UpdateLayout) -> PartitionConfig {
        let mut config = PartitionConfig::paper_default(master_seed);
        config.geometry.unit_index_len = 2 * tree_depth;
        config.tree_depth = tree_depth;
        config.layout = layout;
        config
    }
}

/// Where one write (original or update) lands in the address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatePlacement {
    /// Leaf holding the unit.
    pub leaf: u64,
    /// Version slot at that leaf.
    pub slot: VersionSlot,
    /// Pointer units that must be synthesized alongside:
    /// `(leaf, slot, target_leaf)`.
    pub pointers: Vec<(u64, VersionSlot, u64)>,
}

/// Summary of a partition-wide update reclaim
/// ([`Partition::reclaim_updates`]): everything the store needs to retire
/// stale molecules and re-synthesize fresh base units.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReclaimedUpdates {
    /// Blocks whose patch chains were folded, with the write count each
    /// carried before the reclaim (`writes >= 2`).
    pub rebased_blocks: Vec<(u64, u32)>,
    /// Overflow / stack leaves returned to the free region, in ascending
    /// order. Every molecule addressed at these leaves is now stale.
    pub freed_leaves: Vec<u64>,
}

/// The write-state counters a store image must carry for one partition:
/// everything [`Partition::new`] cannot re-derive from the config. The
/// index tree and payload seed regenerate from `master_seed` (§4.4 — only
/// seeds are metadata); these counters, by contrast, advance with every
/// write and exist nowhere else.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionBookkeeping {
    /// Per block: number of writes so far (1 = original only).
    pub write_counts: BTreeMap<u64, u32>,
    /// Per block: overflow chain leaves, in order.
    pub chains: BTreeMap<u64, Vec<u64>>,
    /// Next free overflow leaf.
    pub overflow_next: u64,
    /// Highest data block written.
    pub max_block_written: u64,
    /// TwoStacks: number of updates placed so far.
    pub stack_updates: u64,
}

/// A storage partition: one primer pair + PCR-navigable index tree +
/// versioned block address space.
#[derive(Debug, Clone)]
pub struct Partition {
    config: PartitionConfig,
    primers: PrimerPair,
    tree: IndexTree,
    payload_seed: u64,
    /// Per block: number of writes so far (1 = original only).
    write_counts: BTreeMap<u64, u32>,
    /// Per block: overflow chain leaves, in order.
    chains: BTreeMap<u64, Vec<u64>>,
    /// Next free overflow leaf (allocated downward from the top).
    overflow_next: u64,
    /// Highest data block written (collision guard for the overflow stack).
    max_block_written: u64,
    /// TwoStacks: number of updates placed so far.
    stack_updates: u64,
}

impl Partition {
    /// Creates a partition with the given config and main primer pair.
    pub fn new(config: PartitionConfig, primers: PrimerPair) -> Partition {
        let root = DetRng::seed_from_u64(config.master_seed);
        let mut tree_stream = root.derive(0);
        let mut payload_stream = root.derive(1);
        let tree = IndexTree::new(tree_stream.next_u64(), config.tree_depth);
        let payload_seed = payload_stream.next_u64();
        let overflow_next = tree.num_leaves() - 1;
        Partition {
            config,
            primers,
            tree,
            payload_seed,
            write_counts: BTreeMap::new(),
            chains: BTreeMap::new(),
            overflow_next,
            max_block_written: 0,
            stack_updates: 0,
        }
    }

    /// Rebuilds a partition from its config, primers, and the write-state
    /// counters captured by [`Partition::bookkeeping`]. The tree and
    /// payload seed are re-derived from `config.master_seed`, so the result
    /// is structurally identical to the partition the bookkeeping came
    /// from.
    pub fn restore(
        config: PartitionConfig,
        primers: PrimerPair,
        bookkeeping: PartitionBookkeeping,
    ) -> Partition {
        let mut p = Partition::new(config, primers);
        p.write_counts = bookkeeping.write_counts;
        p.chains = bookkeeping.chains;
        p.overflow_next = bookkeeping.overflow_next;
        p.max_block_written = bookkeeping.max_block_written;
        p.stack_updates = bookkeeping.stack_updates;
        p
    }

    /// Captures the write-state counters for a store image (see
    /// [`PartitionBookkeeping`]).
    pub fn bookkeeping(&self) -> PartitionBookkeeping {
        PartitionBookkeeping {
            write_counts: self.write_counts.clone(),
            chains: self.chains.clone(),
            overflow_next: self.overflow_next,
            max_block_written: self.max_block_written,
            stack_updates: self.stack_updates,
        }
    }

    /// The partition configuration.
    pub fn config(&self) -> &PartitionConfig {
        &self.config
    }

    /// The main primer pair.
    pub fn primers(&self) -> &PrimerPair {
        &self.primers
    }

    /// The index tree.
    pub fn tree(&self) -> &IndexTree {
        &self.tree
    }

    /// The payload-randomizer seed (partition metadata, §4.4).
    pub fn payload_seed(&self) -> u64 {
        self.payload_seed
    }

    /// Number of addressable leaves.
    pub fn num_leaves(&self) -> u64 {
        self.tree.num_leaves()
    }

    /// Number of writes (original + updates) recorded for `block`.
    pub fn writes_of(&self, block: u64) -> u32 {
        self.write_counts.get(&block).copied().unwrap_or(0)
    }

    /// Overflow chain leaves of `block`, if any.
    pub fn chain_of(&self, block: u64) -> &[u64] {
        self.chains.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Molecules per encoding unit.
    pub fn strands_per_unit(&self) -> usize {
        self.config.unit.total_cols
    }

    // ----- addressing ------------------------------------------------------

    /// The zero-elongation scope primer: main forward primer + sync bases,
    /// the §3.1 empty prefix that amplifies every leaf of the partition.
    /// Per-leaf and per-range primers extend it with index bases.
    pub fn scope_primer(&self) -> DnaSeq {
        let mut p = self.primers.forward().clone();
        for _ in 0..self.config.geometry.sync_len {
            p.push(Base::A);
        }
        p
    }

    /// The fully elongated forward primer for a leaf: main primer + sync +
    /// 10-base sparse index (31 bases in the paper's geometry, §6.5).
    pub fn elongated_primer(&self, leaf: u64) -> DnaSeq {
        let mut p = self.scope_primer();
        p.extend(self.tree.leaf_index(LeafId(leaf)).iter());
        p
    }

    /// A version-scoped primer: elongated primer + version base (targets a
    /// single version slot).
    pub fn version_primer(&self, leaf: u64, slot: VersionSlot) -> DnaSeq {
        let mut p = self.elongated_primer(leaf);
        p.push(slot.base());
        p
    }

    /// Partially elongated primers covering the leaf range `lo..=hi`
    /// exactly (§3.1 prefix covers; one multiplex PCR retrieves the range).
    pub fn range_prefixes(&self, lo: u64, hi: u64) -> Vec<DnaSeq> {
        self.range_prefixes_weighted(lo, hi)
            .into_iter()
            .map(|(p, _)| p)
            .collect()
    }

    /// As [`Partition::range_prefixes`], with each prefix's covered leaf
    /// count — the weight its primer concentration should get in a
    /// multiplex reaction so that all covered leaves amplify evenly
    /// (§3.2's uniform-concentration requirement).
    pub fn range_prefixes_weighted(&self, lo: u64, hi: u64) -> Vec<(DnaSeq, f64)> {
        self.tree
            .cover_range(LeafId(lo), LeafId(hi))
            .into_iter()
            .map(|node| {
                let mut p = self.scope_primer();
                p.extend(node.prefix(&self.tree).iter());
                (p, node.leaf_count as f64)
            })
            .collect()
    }

    /// Number of updates placed in the TwoStacks update region.
    pub fn stack_update_count(&self) -> u64 {
        self.stack_updates
    }

    // ----- encoding --------------------------------------------------------

    /// Encodes one unit (a block or a patch) at `(leaf, slot)` into its
    /// strand set.
    pub fn encode_unit(&self, leaf: u64, slot: VersionSlot, content: &Block) -> Vec<Molecule> {
        let unit = EncodingUnit::new(self.config.unit);
        let columns = unit
            .encode(&content.to_unit_bytes())
            .expect("unit geometry is consistent");
        let geometry = &self.config.geometry;
        columns
            .iter()
            .enumerate()
            .map(|(col, bytes)| {
                // Unit geometry caps columns at total_cols (15 in the
                // paper); a config that overflowed u8 here would already
                // have broken the intra-index encoding below.
                let col_u8 = u8::try_from(col).expect("column index fits u8");
                let codec =
                    PayloadCodec::for_column(self.payload_seed, leaf, slot.base().code(), col_u8);
                let payload = codec.encode(bytes);
                let strand = geometry
                    .assemble(
                        self.primers.forward(),
                        &self.tree.leaf_index(LeafId(leaf)),
                        slot.base(),
                        &intra::encode(col, geometry.intra_index_len)
                            .expect("column fits intra index"),
                        &payload,
                        self.primers.reverse(),
                    )
                    .expect("strand geometry is consistent");
                Molecule::new(
                    strand,
                    StrandTag::new(self.config.partition_tag, leaf, slot.0, col_u8),
                )
            })
            .collect()
    }

    /// Writes the original content of `block`.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range blocks and double writes (blocks are
    /// write-once; changes go through updates).
    pub fn encode_block(
        &mut self,
        block: u64,
        content: &Block,
    ) -> Result<Vec<Molecule>, StoreError> {
        self.check_block_write(block)?;
        self.record_block_write(block);
        Ok(self.encode_unit(block, VersionSlot(0), content))
    }

    /// Validates the bookkeeping half of [`Partition::encode_block`]
    /// without recording anything. A sharded store validates every block
    /// of a write with this before it records any of them through
    /// [`Partition::record_block_write`].
    ///
    /// # Errors
    ///
    /// Rejects out-of-range blocks, blocks colliding with the overflow
    /// leaves or the TwoStacks update stack, and double writes.
    pub fn check_block_write(&self, block: u64) -> Result<(), StoreError> {
        if block >= self.num_leaves() {
            return Err(StoreError::BlockOutOfRange {
                block,
                capacity: self.num_leaves(),
            });
        }
        // Data grows up from leaf 0; Interleaved overflow leaves and the
        // TwoStacks update stack grow down from the top.
        let available = self
            .overflow_next
            .min(self.num_leaves() - self.stack_updates);
        if block >= available {
            return Err(StoreError::FileTooLarge {
                needed: block + 1,
                available,
            });
        }
        if self.writes_of(block) > 0 {
            return Err(StoreError::InvalidPatch(format!(
                "block {block} already written; use updates"
            )));
        }
        Ok(())
    }

    /// Records the original write of `block`, which
    /// [`Partition::check_block_write`] must have accepted.
    pub fn record_block_write(&mut self, block: u64) {
        self.write_counts.insert(block, 1);
        self.max_block_written = self.max_block_written.max(block);
    }

    /// Plans where the next update of `block` goes (see
    /// [`UpdateLayout`]). Advances no state; [`Partition::encode_update`]
    /// commits.
    ///
    /// # Errors
    ///
    /// Fails when the block was never written, the address space is
    /// exhausted, or the layout cannot accept updates here.
    pub fn plan_update(&self, block: u64) -> Result<UpdatePlacement, StoreError> {
        let writes = self.writes_of(block);
        if writes == 0 {
            return Err(StoreError::BlockNotWritten(block));
        }
        let update_index = writes; // 1-based: first update has index 1
        match self.config.layout {
            UpdateLayout::Interleaved { update_slots } => {
                let direct = u32::from(update_slots) - 1; // last slot = pointer
                if update_index <= direct {
                    // update_index <= direct = update_slots - 1 < 256.
                    let slot = u8::try_from(update_index).expect("direct slot index fits u8");
                    return Ok(UpdatePlacement {
                        leaf: block,
                        slot: VersionSlot(slot),
                        pointers: Vec::new(),
                    });
                }
                // Overflow chain: each chain leaf holds `update_slots`
                // patches (slots 0..update_slots) and one pointer slot.
                let per_leaf = u32::from(update_slots);
                let j = update_index - direct - 1; // 0-based overflow index
                let chain_idx = (j / per_leaf) as usize;
                // The remainder is < per_leaf = update_slots, itself a u8.
                let slot_in_leaf = u8::try_from(j % per_leaf).expect("in-leaf slot fits u8");
                let chain = self.chain_of(block);
                let mut pointers = Vec::new();
                let leaf = if chain_idx < chain.len() {
                    chain[chain_idx]
                } else {
                    // Allocate a new chain leaf and a pointer from the
                    // previous tail.
                    let new_leaf = self.overflow_next;
                    if new_leaf <= self.max_block_written {
                        return Err(StoreError::UpdateSlotsExhausted {
                            block,
                            layout: self.config.layout,
                            chain_len: chain.len(),
                            headroom: 0,
                        });
                    }
                    let pointer_slot = VersionSlot(update_slots);
                    let pointer_from = if chain_idx == 0 {
                        (block, pointer_slot)
                    } else {
                        (chain[chain_idx - 1], pointer_slot)
                    };
                    pointers.push((pointer_from.0, pointer_from.1, new_leaf));
                    new_leaf
                };
                Ok(UpdatePlacement {
                    leaf,
                    slot: VersionSlot(slot_in_leaf),
                    pointers,
                })
            }
            UpdateLayout::TwoStacks => {
                let leaf = self
                    .num_leaves()
                    .checked_sub(1 + self.stack_updates)
                    .filter(|&l| l > self.max_block_written)
                    .ok_or(StoreError::UpdateSlotsExhausted {
                        block,
                        layout: self.config.layout,
                        chain_len: self.chain_of(block).len(),
                        headroom: 0,
                    })?;
                Ok(UpdatePlacement {
                    leaf,
                    slot: VersionSlot(0),
                    pointers: Vec::new(),
                })
            }
            UpdateLayout::DedicatedLog => {
                // Updates do not live in data partitions under this layout;
                // the store routes them to the shared log partition.
                Err(StoreError::InvalidPatch(
                    "DedicatedLog places updates in the shared log partition".to_string(),
                ))
            }
        }
    }

    /// Encodes the next update of `block`, committing the placement.
    /// Returns the patch strands plus any pointer-unit strands.
    ///
    /// # Errors
    ///
    /// See [`Partition::plan_update`].
    pub fn encode_update(
        &mut self,
        block: u64,
        patch: &UpdatePatch,
    ) -> Result<(UpdatePlacement, Vec<Molecule>), StoreError> {
        let placement = self.plan_update(block)?;
        let molecules = self.encode_placement(&placement, patch);
        self.commit_placement(block, &placement);
        Ok((placement, molecules))
    }

    /// Encodes the strands a planned update placement will synthesize —
    /// the patch unit plus any pointer units — without committing
    /// anything. Pure with respect to the partition: a sharded store
    /// encodes from a snapshot while holding no locks, then commits via
    /// [`Partition::commit_placement`] once the snapshot validates.
    pub fn encode_placement(
        &self,
        placement: &UpdatePlacement,
        patch: &UpdatePatch,
    ) -> Vec<Molecule> {
        let mut molecules = self.encode_unit(placement.leaf, placement.slot, &patch.to_block());
        for &(ptr_leaf, ptr_slot, target) in &placement.pointers {
            let ptr_block = pointer_block(target);
            molecules.extend(self.encode_unit(ptr_leaf, ptr_slot, &ptr_block));
        }
        molecules
    }

    /// Commits a placement produced by [`Partition::plan_update`]: records
    /// the write, extends the overflow chain, and advances the allocator
    /// state the layout uses. This is the *single* mutation point for
    /// update bookkeeping — [`Partition::encode_update`] goes through it,
    /// and [`Partition::reclaim_updates`] is its inverse — so no caller
    /// ever re-derives the commit by re-matching on the layout.
    pub fn commit_placement(&mut self, block: u64, placement: &UpdatePlacement) {
        match self.config.layout {
            UpdateLayout::Interleaved { .. } => {
                if !placement.pointers.is_empty() {
                    self.chains.entry(block).or_default().push(placement.leaf);
                    self.overflow_next -= 1;
                }
            }
            UpdateLayout::TwoStacks => {
                self.stack_updates += 1;
                self.chains.entry(block).or_default().push(placement.leaf);
            }
            UpdateLayout::DedicatedLog => {
                unreachable!("DedicatedLog updates are placed in the shared log partition")
            }
        }
        *self.write_counts.entry(block).or_insert(0) += 1;
    }

    /// Registers an externally placed update (used by the store for the
    /// DedicatedLog layout, where patches live in the log partition).
    pub fn note_external_update(&mut self, block: u64) {
        *self.write_counts.entry(block).or_insert(0) += 1;
    }

    // ----- maintenance / compaction ----------------------------------------

    /// Predicts how many more updates can be placed before
    /// [`crate::StoreError::UpdateSlotsExhausted`], assuming no other block
    /// consumes shared overflow space in the meantime. Callers use this to
    /// schedule compaction *before* a write fails instead of probing with
    /// writes. Returns 0 for blocks that were never written;
    /// [`u64::MAX`] for the DedicatedLog layout, whose updates live in the
    /// shared log partition (see `BlockStore::update_headroom` for the
    /// store-level prediction that accounts for log capacity).
    pub fn update_headroom(&self, block: u64) -> u64 {
        let writes = self.writes_of(block);
        if writes == 0 {
            return 0;
        }
        let updates = u64::from(writes - 1);
        match self.config.layout {
            UpdateLayout::Interleaved { update_slots } => {
                let direct = u64::from(update_slots) - 1;
                let per_leaf = u64::from(update_slots);
                let direct_free = direct.saturating_sub(updates);
                let overflow_used = updates.saturating_sub(direct);
                let chain_cap = self.chain_of(block).len() as u64 * per_leaf;
                let in_chain_free = chain_cap.saturating_sub(overflow_used);
                let free_leaves = self.overflow_next.saturating_sub(self.max_block_written);
                direct_free + in_chain_free + free_leaves * per_leaf
            }
            UpdateLayout::TwoStacks => self
                .num_leaves()
                .saturating_sub(self.stack_updates)
                .saturating_sub(self.max_block_written + 1),
            UpdateLayout::DedicatedLog => u64::MAX,
        }
    }

    /// Length of the longest committed overflow chain (0 when no block has
    /// chained) — one of the signals a `CompactionPolicy` thresholds on.
    pub fn max_chain_len(&self) -> usize {
        self.chains.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Total updates recorded across all blocks (externally placed
    /// DedicatedLog updates included).
    pub fn total_updates(&self) -> u64 {
        self.write_counts
            .values()
            .map(|&w| u64::from(w.saturating_sub(1)))
            .sum()
    }

    /// Blocks carrying at least one update, with their write counts — the
    /// candidates a compaction pass will fold and rebase.
    pub fn updated_blocks(&self) -> Vec<(u64, u32)> {
        self.write_counts
            .iter()
            .filter(|&(_, &w)| w > 1)
            .map(|(&b, &w)| (b, w))
            .collect()
    }

    /// Folds all update bookkeeping back to the freshly-written state: every
    /// committed overflow chain is released, the overflow allocator returns
    /// to the top of the address space, the TwoStacks update region empties,
    /// and each written block's write count resets to 1 (original only).
    ///
    /// This is the partition half of compaction. The caller (the store's
    /// `compact_partition`) is responsible for the pool half: retiring the
    /// stale molecules at the returned leaves and re-synthesizing a fresh
    /// base unit — [`Partition::encode_unit`] at `VersionSlot(0)` — for
    /// every rebased block from its current logical image, so the DNA and
    /// the metadata agree again.
    pub fn reclaim_updates(&mut self) -> ReclaimedUpdates {
        let rebased_blocks = self.updated_blocks();
        let mut freed_leaves: Vec<u64> = self.chains.values().flatten().copied().collect();
        freed_leaves.sort_unstable();
        freed_leaves.dedup();
        self.chains.clear();
        self.overflow_next = self.tree.num_leaves() - 1;
        self.stack_updates = 0;
        for w in self.write_counts.values_mut() {
            *w = 1;
        }
        ReclaimedUpdates {
            rebased_blocks,
            freed_leaves,
        }
    }

    /// Erases *all* write state — every block becomes writable again. Only
    /// meaningful for the shared DedicatedLog partition, whose entries are
    /// wholesale superseded when the log is folded into rebased data blocks;
    /// the caller must retire the corresponding molecules from the pool.
    /// Returns the number of blocks cleared.
    pub fn reclaim_all(&mut self) -> usize {
        let cleared = self.write_counts.len();
        self.write_counts.clear();
        self.chains.clear();
        self.overflow_next = self.tree.num_leaves() - 1;
        self.max_block_written = 0;
        self.stack_updates = 0;
        cleared
    }

    /// The PCR prefixes needed to read `block` with all its updates in one
    /// round-trip: the block's elongated primer, plus chain-leaf primers
    /// for committed overflow, plus (TwoStacks) the update region's cover.
    pub fn read_scope(&self, block: u64) -> Vec<DnaSeq> {
        let mut scope = vec![self.elongated_primer(block)];
        match self.config.layout {
            UpdateLayout::Interleaved { .. } => {
                for &leaf in self.chain_of(block) {
                    scope.push(self.elongated_primer(leaf));
                }
            }
            UpdateLayout::TwoStacks => {
                if self.stack_updates > 0 {
                    let lo = self.num_leaves() - self.stack_updates;
                    let hi = self.num_leaves() - 1;
                    scope.extend(self.range_prefixes(lo, hi));
                }
            }
            UpdateLayout::DedicatedLog => {}
        }
        scope
    }

    /// The pipeline decode configuration for a unit at `leaf`.
    pub fn decode_config(&self, leaf: u64) -> BlockDecodeConfig {
        BlockDecodeConfig {
            geometry: self.config.geometry,
            unit: self.config.unit,
            payload_seed: self.payload_seed,
            unit_id: leaf,
            cluster: dna_pipeline::ClusterConfig::default(),
            filter_max_edit: 3,
            max_clusters: 0,
            // Deep enough that the true strand stays in the candidate list
            // even when chimera products from several misprimed foreign
            // units out-cluster it on the same address (the flood regime
            // of partial-prefix range PCR); the decoder's uniform-rank
            // passes then recover it without a combinatorial search.
            max_alternates: 4,
            // Room for the decoder's popcount-ordered flip search to cover
            // an equal-abundance impostor on every column (~2^15 for the
            // paper's 15-column units); clean decodes still exit on the
            // first attempt.
            max_decode_attempts: 65536,
            index_tail_tolerance: Some(1),
            version_allowlist: None,
        }
    }

    /// As [`Partition::decode_config`], restricted to the version slots the
    /// caller knows are live at `leaf`. The store uses this wherever its
    /// metadata is exact — freshly rebased base units, TwoStacks /
    /// DedicatedLog data blocks, stack leaves and log entries all hold only
    /// `VersionSlot(0)` — so wetlab noise claiming another version base can
    /// never be decoded into a phantom patch.
    pub fn decode_config_versions(&self, leaf: u64, slots: &[VersionSlot]) -> BlockDecodeConfig {
        let mut cfg = self.decode_config(leaf);
        cfg.version_allowlist = Some(slots.iter().map(|s| s.base()).collect());
        cfg
    }

    /// The version slots live at `leaf` according to the partition's
    /// update metadata — exactly the slots a decode of that leaf must
    /// recover, no more. Pinning decodes to this set makes the read paths
    /// sound in both directions: noise claiming a dead version base is
    /// never decoded into a phantom patch, and a live slot that fails to
    /// decode is a *hole in the patch chain* the read can refuse to paper
    /// over.
    pub fn live_version_slots(&self, leaf: u64) -> Vec<VersionSlot> {
        let UpdateLayout::Interleaved { update_slots } = self.config.layout else {
            // TwoStacks and DedicatedLog place everything at slot 0.
            return vec![VersionSlot(0)];
        };
        let direct = u32::from(update_slots) - 1;
        let per_leaf = u32::from(update_slots);
        // Committed chain leaf: patches fill slots 0.. in allocation
        // order; the pointer slot is live when a later chain leaf exists.
        for (&block, chain) in &self.chains {
            if let Some(i) = chain.iter().position(|&l| l == leaf) {
                let updates = self.writes_of(block).saturating_sub(1);
                let overflow_used = updates.saturating_sub(direct);
                let here = overflow_used
                    .saturating_sub(i as u32 * per_leaf)
                    .min(per_leaf);
                // here <= per_leaf = update_slots, a u8.
                let here = u8::try_from(here).expect("per-leaf patch count fits u8");
                let mut slots: Vec<VersionSlot> = (0..here).map(VersionSlot).collect();
                if i + 1 < chain.len() {
                    slots.push(VersionSlot(update_slots));
                }
                return slots;
            }
        }
        // Data leaf: the base, the direct update slots in use, and the
        // pointer slot once the block has overflowed.
        let updates = self.writes_of(leaf).saturating_sub(1);
        let mut slots = vec![VersionSlot(0)];
        // Capped at direct = update_slots - 1 < 256.
        slots.extend(
            (1..=updates.min(direct))
                .map(|s| VersionSlot(u8::try_from(s).expect("direct slot index fits u8"))),
        );
        if !self.chain_of(leaf).is_empty() {
            slots.push(VersionSlot(update_slots));
        }
        slots
    }
}

/// Encodes a pointer unit: an impossible patch header (`0xFF, 0xFF`) marks
/// the block as a pointer; bytes 4..12 hold the target leaf.
///
/// Public so integration/property tests can assert that the patch wire
/// format and the pointer encoding never collide.
pub fn pointer_block(target_leaf: u64) -> Block {
    let mut bytes = vec![0xFFu8, 0xFF, 0, 8];
    bytes.extend_from_slice(&target_leaf.to_le_bytes());
    Block::from_bytes(&bytes).expect("pointer block fits")
}

/// Parses a pointer unit, returning the target leaf (`None` when `block`
/// is not a pointer — e.g. any valid patch).
pub fn parse_pointer_block(block: &Block) -> Option<u64> {
    if block.data[0] == 0xFF && block.data[1] == 0xFF && block.data[3] == 8 {
        let mut le = [0u8; 8];
        le.copy_from_slice(&block.data[4..12]);
        Some(u64::from_le_bytes(le))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn primers() -> PrimerPair {
        PrimerPair::new(
            "AACCGGTTAACCGGTTAACC".parse().unwrap(),
            "AAGGCCTTAAGGCCTTAAGG".parse().unwrap(),
        )
    }

    fn partition() -> Partition {
        Partition::new(PartitionConfig::paper_default(77), primers())
    }

    #[test]
    fn paper_dimensions() {
        let p = partition();
        assert_eq!(p.num_leaves(), 1024);
        assert_eq!(p.strands_per_unit(), 15);
        assert_eq!(p.elongated_primer(531).len(), 31);
        assert_eq!(p.version_primer(531, VersionSlot(1)).len(), 32);
    }

    #[test]
    fn encode_block_produces_15_tagged_strands() {
        let mut p = partition();
        let mols = p
            .encode_block(531, &Block::from_bytes(b"paragraph text").unwrap())
            .unwrap();
        assert_eq!(mols.len(), 15);
        for (col, m) in mols.iter().enumerate() {
            assert_eq!(m.seq.len(), 150);
            let tag = m.tag.unwrap();
            assert_eq!(tag.unit, 531);
            assert_eq!(tag.version, 0);
            assert_eq!(tag.column, col as u8);
            // Strand starts with the elongated primer (address prefix).
            assert!(m.seq.starts_with(&p.elongated_primer(531)));
        }
    }

    #[test]
    fn double_write_rejected() {
        let mut p = partition();
        let b = Block::zeroed();
        p.encode_block(3, &b).unwrap();
        assert!(p.encode_block(3, &b).is_err());
    }

    #[test]
    fn updates_fill_direct_slots_then_chain() {
        let mut p = partition();
        p.encode_block(10, &Block::zeroed()).unwrap();
        let patch = UpdatePatch::new(0, 1, 0, b"x".to_vec()).unwrap();
        // Updates 1 and 2 are direct (version bases C and G).
        let (pl1, mols1) = p.encode_update(10, &patch).unwrap();
        assert_eq!((pl1.leaf, pl1.slot), (10, VersionSlot(1)));
        assert_eq!(mols1.len(), 15);
        let (pl2, _) = p.encode_update(10, &patch).unwrap();
        assert_eq!((pl2.leaf, pl2.slot), (10, VersionSlot(2)));
        // Update 3 overflows: pointer at slot 3 + patch in a chain leaf.
        let (pl3, mols3) = p.encode_update(10, &patch).unwrap();
        assert_eq!(pl3.leaf, 1023);
        assert_eq!(pl3.slot, VersionSlot(0));
        assert_eq!(pl3.pointers, vec![(10, VersionSlot(3), 1023)]);
        assert_eq!(mols3.len(), 30); // patch unit + pointer unit
        assert_eq!(p.chain_of(10), &[1023]);
        // Updates 4 and 5 fill the chain leaf's remaining slots.
        let (pl4, _) = p.encode_update(10, &patch).unwrap();
        assert_eq!((pl4.leaf, pl4.slot), (1023, VersionSlot(1)));
        let (pl5, _) = p.encode_update(10, &patch).unwrap();
        assert_eq!((pl5.leaf, pl5.slot), (1023, VersionSlot(2)));
        // Update 6 chains again.
        let (pl6, _) = p.encode_update(10, &patch).unwrap();
        assert_eq!(pl6.leaf, 1022);
        assert_eq!(pl6.pointers, vec![(1023, VersionSlot(3), 1022)]);
        assert_eq!(p.chain_of(10), &[1023, 1022]);
        assert_eq!(p.writes_of(10), 7);
    }

    #[test]
    fn read_scope_includes_chain_leaves() {
        let mut p = partition();
        p.encode_block(10, &Block::zeroed()).unwrap();
        let patch = UpdatePatch::identity();
        for _ in 0..4 {
            p.encode_update(10, &patch).unwrap();
        }
        let scope = p.read_scope(10);
        assert_eq!(scope.len(), 2);
        assert_eq!(scope[0], p.elongated_primer(10));
        assert_eq!(scope[1], p.elongated_primer(1023));
    }

    #[test]
    fn pointer_blocks_round_trip_and_cannot_be_patches() {
        let b = pointer_block(987654);
        assert_eq!(parse_pointer_block(&b), Some(987654));
        // The sentinel header is an impossible patch.
        assert!(UpdatePatch::from_block(&b).is_err());
        // Regular patches never parse as pointers.
        let patch = UpdatePatch::new(1, 2, 3, b"abc".to_vec()).unwrap();
        assert_eq!(parse_pointer_block(&patch.to_block()), None);
    }

    #[test]
    fn two_stacks_places_updates_from_the_top() {
        let cfg = PartitionConfig {
            layout: UpdateLayout::TwoStacks,
            ..PartitionConfig::paper_default(5)
        };
        let mut p = Partition::new(cfg, primers());
        p.encode_block(0, &Block::zeroed()).unwrap();
        p.encode_block(1, &Block::zeroed()).unwrap();
        let patch = UpdatePatch::identity();
        let (pl1, _) = p.encode_update(0, &patch).unwrap();
        assert_eq!(pl1.leaf, 1023);
        let (pl2, _) = p.encode_update(1, &patch).unwrap();
        assert_eq!(pl2.leaf, 1022);
        // Read scope covers the whole used update region.
        let scope = p.read_scope(0);
        assert!(scope.len() >= 2);
    }

    #[test]
    fn update_before_write_rejected() {
        let mut p = partition();
        assert_eq!(
            p.encode_update(5, &UpdatePatch::identity()),
            Err(StoreError::BlockNotWritten(5))
        );
    }

    fn small(layout: UpdateLayout) -> Partition {
        // 16 leaves: exhaustion within test budget.
        Partition::new(PartitionConfig::small(9, 2, layout), primers())
    }

    #[test]
    fn headroom_counts_down_to_exhaustion_interleaved() {
        let mut p = small(UpdateLayout::paper_default());
        assert_eq!(p.update_headroom(0), 0, "never written");
        for b in 0..4u64 {
            p.encode_block(b, &Block::zeroed()).unwrap();
        }
        // 2 direct slots + 12 free overflow leaves x 3 slots each.
        assert_eq!(p.update_headroom(0), 2 + 12 * 3);
        let patch = UpdatePatch::identity();
        let mut predicted = p.update_headroom(0);
        while predicted > 0 {
            p.encode_update(0, &patch).unwrap();
            let next = p.update_headroom(0);
            assert!(next < predicted, "headroom must strictly decrease");
            predicted = next;
        }
        let err = p.encode_update(0, &patch).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::UpdateSlotsExhausted {
                    block: 0,
                    layout: UpdateLayout::Interleaved { .. },
                    chain_len: 12,
                    headroom: 0,
                }
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn headroom_counts_down_to_exhaustion_two_stacks() {
        let mut p = small(UpdateLayout::TwoStacks);
        for b in 0..4u64 {
            p.encode_block(b, &Block::zeroed()).unwrap();
        }
        // Leaves 15 down to 4 are above the data high-water mark.
        assert_eq!(p.update_headroom(0), 12);
        let patch = UpdatePatch::identity();
        for expected in (0..12u64).rev() {
            p.encode_update(0, &patch).unwrap();
            assert_eq!(p.update_headroom(1), expected, "shared stack headroom");
        }
        assert!(matches!(
            p.encode_update(0, &patch),
            Err(StoreError::UpdateSlotsExhausted {
                block: 0,
                layout: UpdateLayout::TwoStacks,
                ..
            })
        ));
    }

    #[test]
    fn reclaim_updates_restores_fresh_capacity_and_read_scope() {
        let mut p = small(UpdateLayout::paper_default());
        for b in 0..4u64 {
            p.encode_block(b, &Block::zeroed()).unwrap();
        }
        let patch = UpdatePatch::identity();
        for _ in 0..8 {
            p.encode_update(0, &patch).unwrap();
        }
        p.encode_update(1, &patch).unwrap();
        assert_eq!(p.max_chain_len(), 2);
        assert_eq!(p.total_updates(), 9);
        assert_eq!(p.updated_blocks(), vec![(0, 9), (1, 2)]);

        let reclaimed = p.reclaim_updates();
        assert_eq!(reclaimed.rebased_blocks, vec![(0, 9), (1, 2)]);
        assert_eq!(reclaimed.freed_leaves, vec![14, 15]);
        // Bookkeeping is back to the freshly-written state...
        assert_eq!(p.writes_of(0), 1);
        assert_eq!(p.chain_of(0), &[] as &[u64]);
        assert_eq!(p.total_updates(), 0);
        assert_eq!(p.read_scope(0).len(), 1, "no chain leaves in scope");
        // ...and the full update capacity is available again.
        assert_eq!(p.update_headroom(0), 2 + 12 * 3);
        let (pl, _) = p.encode_update(0, &patch).unwrap();
        assert_eq!((pl.leaf, pl.slot), (0, VersionSlot(1)));
    }

    #[test]
    fn reclaim_all_resets_the_log_partition() {
        let mut p = small(UpdateLayout::paper_default());
        for b in 0..5u64 {
            p.encode_block(b, &Block::zeroed()).unwrap();
        }
        assert_eq!(p.reclaim_all(), 5);
        assert_eq!(p.writes_of(0), 0);
        // Every leaf is writable again, from the bottom.
        p.encode_block(0, &Block::zeroed()).unwrap();
    }

    #[test]
    fn two_stacks_writes_stop_below_the_update_stack() {
        let config = PartitionConfig::small(9, 2, UpdateLayout::TwoStacks);
        let mut p = Partition::new(config, primers());
        p.record_block_write(0);
        for _ in 0..3 {
            let placement = p.plan_update(0).unwrap();
            p.commit_placement(0, &placement);
        }
        // The stack holds leaves 15, 14 and 13, so block 13 is taken.
        assert!(matches!(
            p.check_block_write(13),
            Err(StoreError::FileTooLarge {
                needed: 14,
                available: 13
            })
        ));
        assert!(p.check_block_write(12).is_ok());
    }

    #[test]
    fn slot_math_survives_the_255_boundary() {
        // update_slots at the u8 maximum: direct slots 1..=254, the pointer
        // at slot 255, chain leaves carrying 255 patches each. Only the
        // bookkeeping half runs — real strands stop at 4 version bases —
        // but none of the slot counters may truncate on the way.
        let cfg = PartitionConfig {
            layout: UpdateLayout::Interleaved { update_slots: 255 },
            ..PartitionConfig::paper_default(21)
        };
        let mut p = Partition::new(cfg, primers());
        p.record_block_write(0);
        // Fill all 254 direct slots.
        for i in 1..=254u8 {
            let pl = p.plan_update(0).unwrap();
            assert_eq!((pl.leaf, pl.slot), (0, VersionSlot(i)));
            assert!(pl.pointers.is_empty());
            p.commit_placement(0, &pl);
        }
        assert_eq!(p.writes_of(0), 255);
        // Update 255 crosses into the first chain leaf; the pointer hangs
        // off the data leaf's slot 255 (the 255/256 boundary itself).
        let pl = p.plan_update(0).unwrap();
        assert_eq!((pl.leaf, pl.slot), (1023, VersionSlot(0)));
        assert_eq!(pl.pointers, vec![(0, VersionSlot(255), 1023)]);
        p.commit_placement(0, &pl);
        // The chain leaf fills all 255 of its patch slots without wrapping.
        for s in 1..255u8 {
            let pl = p.plan_update(0).unwrap();
            assert_eq!((pl.leaf, pl.slot), (1023, VersionSlot(s)));
            p.commit_placement(0, &pl);
        }
        let live = p.live_version_slots(1023);
        assert_eq!(live.len(), 255);
        assert_eq!(live.last(), Some(&VersionSlot(254)));
        // Data leaf: base + 254 direct slots + the pointer slot.
        let live0 = p.live_version_slots(0);
        assert_eq!(live0.len(), 256);
        assert_eq!(live0.last(), Some(&VersionSlot(255)));
    }

    #[test]
    fn bookkeeping_roundtrip_restores_identical_state() {
        let mut p = small(UpdateLayout::paper_default());
        for b in 0..4u64 {
            p.encode_block(b, &Block::zeroed()).unwrap();
        }
        let patch = UpdatePatch::identity();
        for _ in 0..8 {
            p.encode_update(0, &patch).unwrap();
        }
        let restored = Partition::restore(*p.config(), p.primers().clone(), p.bookkeeping());
        assert_eq!(restored.bookkeeping(), p.bookkeeping());
        assert_eq!(restored.writes_of(0), p.writes_of(0));
        assert_eq!(restored.chain_of(0), p.chain_of(0));
        assert_eq!(restored.update_headroom(0), p.update_headroom(0));
        // The re-derived tree gives byte-identical addressing.
        assert_eq!(restored.elongated_primer(3), p.elongated_primer(3));
        // And the next planned update lands in the same place.
        assert_eq!(restored.plan_update(0), p.plan_update(0));
    }

    #[test]
    fn same_seed_reproduces_identical_strands() {
        let mut a = partition();
        let mut b = partition();
        let blk = Block::from_bytes(b"determinism").unwrap();
        assert_eq!(
            a.encode_block(7, &blk).unwrap(),
            b.encode_block(7, &blk).unwrap()
        );
    }

    #[test]
    fn different_seeds_give_different_trees_and_strands() {
        let mut a = Partition::new(PartitionConfig::paper_default(1), primers());
        let mut b = Partition::new(PartitionConfig::paper_default(2), primers());
        let blk = Block::zeroed();
        assert_ne!(
            a.encode_block(7, &blk).unwrap(),
            b.encode_block(7, &blk).unwrap()
        );
    }
}
