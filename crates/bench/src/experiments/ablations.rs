//! Ablations of the design choices DESIGN.md calls out.
//!
//! - `sparse_vs_dense`: what the §4.3 sparse construction buys over the
//!   maximum-density baseline index;
//! - `elongation_sweep`: precision vs elongation depth (§3.1/§4 partial
//!   elongation = sequential access);
//! - `layout_comparison`: the §5.3 ladder (Figs. 6/7/8) measured end to end.

use dna_block_store::{planner, workload, BlockStore, PartitionConfig, UpdateLayout, BLOCK_SIZE};
use dna_index::{analysis, IndexTree, LeafId};
use dna_primers::{ElongatedPrimer, PrimerConstraints};
use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::{IdsChannel, PcrPrimer, PcrProtocol, PcrReaction, Pool, Sequencer, StrandTag};

/// Sparse-vs-dense index comparison.
#[derive(Debug, Clone)]
pub struct SparseVsDense {
    /// Quality metrics of the sparse tree.
    pub sparse_quality: analysis::IndexQuality,
    /// Quality metrics of the dense baseline.
    pub dense_quality: analysis::IndexQuality,
    /// Mean pairwise Hamming distance, sparse (paper claims ≥ 2× dense).
    pub sparse_mean_distance: f64,
    /// Mean pairwise Hamming distance, dense.
    pub dense_mean_distance: f64,
    /// Fraction of leaves whose elongated primer fails PCR validation,
    /// sparse (expected 0).
    pub sparse_invalid_primers: f64,
    /// Same for dense (expected large).
    pub dense_invalid_primers: f64,
    /// On-target read fraction in a precise-access simulation, sparse tree.
    pub sparse_on_target: f64,
    /// Same for the dense tree.
    pub dense_on_target: f64,
}

/// Runs the sparse-vs-dense ablation on `blocks`-leaf mini-partitions.
pub fn sparse_vs_dense(seed: u64) -> SparseVsDense {
    let sparse = IndexTree::new(seed, 5);
    let dense = IndexTree::dense(5);
    let sample = 256;
    let constraints = PrimerConstraints::paper_default(20);
    let main: DnaSeq = "AACCGGTTAACCGGTTAACC".parse().unwrap();

    let invalid_fraction = |tree: &IndexTree| {
        let mut bad = 0usize;
        for leaf in 0..sample as u64 {
            let mut tail = DnaSeq::new();
            tail.push(Base::A);
            tail.extend(tree.leaf_index(LeafId(leaf)).iter());
            if ElongatedPrimer::new(main.clone(), tail)
                .validate(&constraints)
                .is_err()
            {
                bad += 1;
            }
        }
        bad as f64 / sample as f64
    };

    SparseVsDense {
        sparse_quality: analysis::index_quality(&sparse, sample),
        dense_quality: analysis::index_quality(&dense, sample),
        sparse_mean_distance: analysis::pairwise_hamming_stats(&sparse, 96).mean,
        dense_mean_distance: analysis::pairwise_hamming_stats(&dense, 96).mean,
        sparse_invalid_primers: invalid_fraction(&sparse),
        dense_invalid_primers: invalid_fraction(&dense),
        sparse_on_target: on_target_fraction(&sparse, &main, seed),
        dense_on_target: on_target_fraction(&dense, &main, seed),
    }
}

/// Precise-access simulation over a mini-pool built from `tree`'s indexes:
/// 64 blocks, one strand each, retrieve block 21.
fn on_target_fraction(tree: &IndexTree, main: &DnaSeq, seed: u64) -> f64 {
    let rev: DnaSeq = "AAGGCCTTAAGGCCTTAAGG".parse().unwrap();
    let mut pool = Pool::new();
    for leaf in 0..64u64 {
        let mut strand = main.clone();
        strand.push(Base::A);
        strand.extend(tree.leaf_index(LeafId(leaf)).iter());
        // distinct payload per leaf
        for j in 0..60 {
            strand.push(Base::from_code(
                (((leaf as usize) >> (2 * (j % 5))) as u8 + j as u8) & 3,
            ));
        }
        strand.extend(rev.reverse_complement().iter());
        pool.add(strand, 1.0e6, Some(StrandTag::new(0, leaf, 0, 0)));
    }
    let target = 21u64;
    let mut primer = main.clone();
    primer.push(Base::A);
    primer.extend(tree.leaf_index(LeafId(target)).iter());
    let budget = pool.total_copies() * 30.0;
    let rxn = PcrReaction {
        forward_primers: vec![PcrPrimer::with_budget(primer, budget)],
        reverse_primer: PcrPrimer::with_budget(rev, budget),
        protocol: PcrProtocol::paper_block_access(),
    };
    let out = rxn.run(&pool);
    let mut rng = DetRng::seed_from_u64(seed ^ 0xAB1);
    let reads = Sequencer::new(IdsChannel::illumina()).sequence(&out.pool, 10_000, &mut rng);
    let on_target = reads
        .iter()
        .filter(|r| r.truth.map(|t| t.unit == target).unwrap_or(false))
        .count();
    on_target as f64 / reads.len() as f64
}

/// One point of the elongation sweep.
#[derive(Debug, Clone, Copy)]
pub struct ElongationPoint {
    /// Tree levels included in the primer (0 = bare main primer).
    pub levels: usize,
    /// Primer length in bases.
    pub primer_len: usize,
    /// Leaves amplified (scope).
    pub amplified_leaves: u64,
    /// Expected useful fraction for a single-block read.
    pub expected_useful: f64,
}

/// The §3.1/§4 elongation-depth sweep (analytic; the wetlab-scale
/// measurement lives in the fig9 experiment at level 5).
pub fn elongation_sweep(seed: u64) -> Vec<ElongationPoint> {
    let store_cfg = PartitionConfig::paper_default(seed);
    let partition = dna_block_store::Partition::new(
        store_cfg,
        dna_primers::PrimerPair::new(
            "AACCGGTTAACCGGTTAACC".parse().unwrap(),
            "AAGGCCTTAAGGCCTTAAGG".parse().unwrap(),
        ),
    );
    (0..=5)
        .map(|levels| {
            let plan = planner::plan_partial(&partition, 531, levels);
            ElongationPoint {
                levels,
                primer_len: plan.primers[0].len(),
                amplified_leaves: plan.amplified_leaves,
                expected_useful: plan.expected_useful_fraction(),
            }
        })
        .collect()
}

/// One row of the layout comparison.
#[derive(Debug, Clone)]
pub struct LayoutRow {
    /// Layout name.
    pub name: &'static str,
    /// Analytic retrieval scope in encoding units (block + co-retrieved
    /// updates) for the scenario.
    pub analytic_scope_units: u64,
    /// Measured reads sequenced by the store to return the block.
    pub measured_reads: usize,
    /// Measured PCR round-trips.
    pub measured_rounds: usize,
    /// The read returned the correct content.
    pub correct: bool,
}

/// End-to-end layout comparison: a small store per layout, several updates
/// spread across blocks, then one updated-block read.
pub fn layout_comparison(seed: u64) -> Vec<LayoutRow> {
    let scenarios: [(&'static str, UpdateLayout); 3] = [
        ("Interleaved (Fig. 8)", UpdateLayout::paper_default()),
        ("TwoStacks (Fig. 7)", UpdateLayout::TwoStacks),
        ("DedicatedLog (Fig. 6)", UpdateLayout::DedicatedLog),
    ];
    let blocks = 8usize;
    let updates_per_block = 2usize;
    scenarios
        .into_iter()
        .map(|(name, layout)| {
            let store = BlockStore::new(seed);
            let mut cfg = PartitionConfig::paper_default(seed ^ 0x1A1);
            cfg.layout = layout;
            let pid = store.create_partition(cfg).unwrap();
            let data = workload::deterministic_text(blocks * BLOCK_SIZE, seed ^ 0x77);
            store.write_file(pid, &data).unwrap();
            let mut current = data.clone();
            for b in 0..blocks as u64 {
                for u in 0..updates_per_block {
                    let off = b as usize * BLOCK_SIZE + u;
                    current[off] = b'A' + (u as u8);
                    store
                        .update_block(pid, b, &current[b as usize * BLOCK_SIZE..][..BLOCK_SIZE])
                        .unwrap();
                }
            }
            let target = 3u64;
            let outcome = store.read_block(pid, target).unwrap();
            let expected = &current[target as usize * BLOCK_SIZE..][..BLOCK_SIZE];
            let partition_updates = (blocks * updates_per_block) as u64;
            LayoutRow {
                name,
                analytic_scope_units: layout.retrieval_scope_units(
                    updates_per_block as u64,
                    partition_updates,
                    partition_updates,
                ),
                measured_reads: outcome.stats.reads_sequenced,
                measured_rounds: outcome.stats.pcr_rounds,
                correct: outcome.block.data == expected,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_beats_dense_everywhere() {
        let r = sparse_vs_dense(42);
        assert!(r.sparse_quality.max_homopolymer <= 2);
        assert!(r.dense_quality.max_homopolymer >= 5);
        assert!(r.sparse_mean_distance >= 2.0 * r.dense_mean_distance);
        assert_eq!(r.sparse_invalid_primers, 0.0);
        assert!(r.dense_invalid_primers > 0.05);
        assert!(
            r.sparse_on_target > r.dense_on_target,
            "sparse {} vs dense {}",
            r.sparse_on_target,
            r.dense_on_target
        );
    }

    #[test]
    fn elongation_sweep_shape() {
        let sweep = elongation_sweep(7);
        assert_eq!(sweep.len(), 6);
        assert_eq!(sweep[0].amplified_leaves, 1024);
        assert_eq!(sweep[5].amplified_leaves, 1);
        for w in sweep.windows(2) {
            assert!(w[1].amplified_leaves < w[0].amplified_leaves);
            assert!(w[1].expected_useful > w[0].expected_useful);
        }
        assert_eq!(sweep[5].primer_len, 31);
    }

    #[test]
    fn layout_ladder_costs_are_pinned() {
        // The §5.3 ladder as `ablation_layout` prints it: only Fig. 8
        // keeps the read at the block's own leaf; Fig. 7 pays the whole
        // update region; Fig. 6 pays it too, plus a second (log) round.
        let rows = layout_comparison(0x1A9);
        let costs: Vec<(usize, usize, bool)> = rows
            .iter()
            .map(|r| (r.measured_reads, r.measured_rounds, r.correct))
            .collect();
        assert_eq!(
            costs,
            [(720, 1, true), (3060, 1, true), (3420, 2, true)],
            "reads used / PCR rounds / correct per layout"
        );
    }
}
