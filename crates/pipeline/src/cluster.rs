//! Read clustering (§2.1.2, §6.6).
//!
//! Groups read interiors so that each cluster ideally contains all noisy
//! copies of one original strand. Follows the shape of Rashtchian et al.'s
//! hashing-based clustering: cheap MinHash signature buckets propose
//! candidate clusters, bounded edit distance against the cluster
//! representative confirms membership.
//!
//! Confirmation runs on `levenshtein_bounded`'s banded bit-vector kernel,
//! one word step per base. Once a candidate confirms at distance `d`, the
//! later candidates are checked with bound `d − 1`, because only a strictly
//! closer one can take the read, and a distance of 0 ends the search. The
//! signatures, now the larger cost, are computed once per distinct read.

use dna_seq::distance::levenshtein_bounded;
use dna_seq::kmer::MinHashSignature;
use dna_seq::DnaSeq;
use std::collections::HashMap;

/// Clustering parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// k-mer length for signatures.
    pub kmer: usize,
    /// Number of MinHash slots per signature.
    pub slots: usize,
    /// Maximum edit distance between a read and its cluster representative.
    pub max_edit: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            kmer: 8,
            slots: 8,
            max_edit: 10,
        }
    }
}

/// One cluster of read interiors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Indices into the input slice, in arrival order. The first member is
    /// the cluster representative.
    pub members: Vec<usize>,
}

impl Cluster {
    /// Number of reads in the cluster.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The member sequences, borrowed from the input slice.
    pub fn sequences<'a>(&self, reads: &'a [DnaSeq]) -> Vec<&'a DnaSeq> {
        self.members.iter().map(|&i| &reads[i]).collect()
    }
}

/// Clusters `reads` and returns clusters sorted by size, largest first
/// (ties broken by first appearance, so the result is deterministic).
///
/// §8 step 2: "We then cluster these payloads as per Rashtchian et al. so
/// that the payloads from the reads of the same original strand are
/// clustered together."
pub fn cluster_reads(reads: &[DnaSeq], config: &ClusterConfig) -> Vec<Cluster> {
    let mut clusters: Vec<Cluster> = Vec::new();
    // Bucket index: (slot index, slot value) → cluster ids.
    let mut buckets: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    let mut candidates: Vec<usize> = Vec::new();
    // `seen[c] == i + 1` once cluster `c` is a candidate for read `i`.
    let mut seen: Vec<usize> = Vec::new();
    // Signature of each distinct read, keyed by (length, packed bases). A
    // read equal to an earlier one reuses its signature: error-free copies
    // of one strand are about half of a job's Illumina interiors.
    let mut signed: HashMap<(usize, Vec<u8>), usize> = HashMap::new();
    let mut sigs: Vec<MinHashSignature> = Vec::new();

    for (i, read) in reads.iter().enumerate() {
        let key = (read.len(), read.to_packed_bytes());
        let sig_idx = *signed.entry(key).or_insert_with(|| {
            sigs.push(MinHashSignature::new(read, config.kmer, config.slots));
            sigs.len() - 1
        });
        let sig = &sigs[sig_idx];
        // Collect candidate clusters from matching buckets, preserving
        // discovery order for determinism.
        candidates.clear();
        for (s, &v) in sig.slots().iter().enumerate() {
            if let Some(ids) = buckets.get(&(s, v)) {
                for &c in ids {
                    if seen[c] != i + 1 {
                        seen[c] = i + 1;
                        candidates.push(c);
                    }
                }
            }
        }
        // Confirm with bounded edit distance to the representative; take the
        // closest match, the first one on a tie.
        let mut best: Option<(usize, usize)> = None; // (dist, cluster)
        for &c in candidates.iter() {
            let bound = match best {
                Some((0, _)) => break,
                Some((bd, _)) => bd - 1,
                None => config.max_edit,
            };
            let rep_idx = clusters[c].members[0];
            if let Some(d) = levenshtein_bounded(read.as_slice(), reads[rep_idx].as_slice(), bound)
            {
                best = Some((d, c));
            }
        }
        match best {
            Some((_, c)) => clusters[c].members.push(i),
            None => {
                let id = clusters.len();
                clusters.push(Cluster { members: vec![i] });
                seen.push(0);
                for (s, &v) in sig.slots().iter().enumerate() {
                    buckets.entry((s, v)).or_default().push(id);
                }
            }
        }
    }
    // Largest first; stable on first-appearance order.
    clusters.sort_by(|a, b| {
        b.size()
            .cmp(&a.size())
            .then(a.members[0].cmp(&b.members[0]))
    });
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_seq::rng::DetRng;
    use dna_seq::Base;
    use dna_sim::IdsChannel;

    fn originals(n: usize, len: usize, rng: &mut DetRng) -> Vec<DnaSeq> {
        (0..n)
            .map(|_| DnaSeq::from_bases((0..len).map(|_| Base::from_code(rng.gen_range(4) as u8))))
            .collect()
    }

    #[test]
    fn noiseless_copies_cluster_perfectly() {
        let mut rng = DetRng::seed_from_u64(1);
        let origs = originals(10, 99, &mut rng);
        let mut reads = Vec::new();
        for (i, o) in origs.iter().enumerate() {
            for _ in 0..(5 + i) {
                reads.push(o.clone());
            }
        }
        let clusters = cluster_reads(&reads, &ClusterConfig::default());
        assert_eq!(clusters.len(), 10);
        // Sorted descending: the last original got the most copies.
        assert_eq!(clusters[0].size(), 14);
        assert_eq!(clusters[9].size(), 5);
    }

    #[test]
    fn noisy_copies_cluster_by_origin() {
        let mut rng = DetRng::seed_from_u64(2);
        let origs = originals(20, 99, &mut rng);
        let ch = IdsChannel::illumina();
        let mut reads = Vec::new();
        let mut truth = Vec::new();
        for (i, o) in origs.iter().enumerate() {
            for _ in 0..20 {
                reads.push(ch.corrupt(o, &mut rng));
                truth.push(i);
            }
        }
        let clusters = cluster_reads(&reads, &ClusterConfig::default());
        // Every cluster must be pure (all members from one original).
        let mut clustered_reads = 0;
        for c in &clusters {
            let first = truth[c.members[0]];
            for &m in &c.members {
                assert_eq!(truth[m], first, "impure cluster");
            }
            clustered_reads += c.size();
        }
        assert_eq!(clustered_reads, reads.len());
        // Nearly all reads should land in the 20 main clusters.
        let main: usize = clusters.iter().take(20).map(|c| c.size()).sum();
        assert!(main as f64 >= reads.len() as f64 * 0.97, "main {main}");
    }

    #[test]
    fn empty_input_yields_no_clusters() {
        assert!(cluster_reads(&[], &ClusterConfig::default()).is_empty());
    }

    #[test]
    fn clustering_is_deterministic() {
        let mut rng = DetRng::seed_from_u64(3);
        let origs = originals(5, 60, &mut rng);
        let ch = IdsChannel::illumina();
        let reads: Vec<DnaSeq> = origs
            .iter()
            .flat_map(|o| (0..8).map(|_| ch.corrupt(o, &mut rng)).collect::<Vec<_>>())
            .collect();
        let a = cluster_reads(&reads, &ClusterConfig::default());
        let b = cluster_reads(&reads, &ClusterConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn distant_sequences_never_merge() {
        // Two sequences at edit distance far beyond max_edit.
        let a = DnaSeq::from_bases((0..80).map(|i| Base::from_code((i % 4) as u8)));
        let b = DnaSeq::from_bases((0..80).map(|i| Base::from_code(((i / 7 + 2) % 4) as u8)));
        let reads = vec![a.clone(), b.clone(), a, b];
        let clusters = cluster_reads(&reads, &ClusterConfig::default());
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].size(), 2);
    }
}
