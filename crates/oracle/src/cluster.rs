//! MinHash clustering, one freshly packed k-mer per window.

use crate::levenshtein_bounded;
use dna_pipeline::{Cluster, ClusterConfig};
use dna_seq::kmer::Kmer;
use dna_seq::DnaSeq;
use std::collections::HashMap;

/// The SplitMix64 avalanche the MinHash slots hash with.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The MinHash signature of `read`: per slot, the least hash of any of its
/// `k`-mers, each packed afresh with `Kmer::from_bases`. All slots stay
/// `u64::MAX` when `k` is outside `1..=32` or the read is shorter than `k`.
fn signature(read: &DnaSeq, k: usize, slots: usize) -> Vec<u64> {
    let mut sig = vec![u64::MAX; slots];
    if !(1..=32).contains(&k) {
        return sig;
    }
    for window in read.as_slice().windows(k) {
        let packed = Kmer::from_bases(window).expect("k-mer window").packed();
        for (s, slot) in sig.iter_mut().enumerate() {
            let h = mix(packed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(s as u64 + 1));
            *slot = (*slot).min(h);
        }
    }
    sig
}

/// `cluster_reads` before its kernel: each read is signed, its candidates
/// are the clusters sharing a bucket with it (de-duplicated by a linear
/// `contains`, in bucket order), and every candidate is confirmed against
/// its representative on [`levenshtein_bounded`] at the full bound. The
/// read joins the closest (the first on ties) or founds a cluster. Returns
/// the clusters, largest first, and the number of confirmations run.
pub fn cluster_reads(reads: &[DnaSeq], config: &ClusterConfig) -> (Vec<Cluster>, u64) {
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut buckets: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    let mut candidates: Vec<usize> = Vec::new();
    let mut confirmations = 0u64;
    for (i, read) in reads.iter().enumerate() {
        let sig = signature(read, config.kmer, config.slots);
        candidates.clear();
        for (s, &v) in sig.iter().enumerate() {
            for &c in buckets.get(&(s, v)).into_iter().flatten() {
                if !candidates.contains(&c) {
                    candidates.push(c);
                }
            }
        }
        let mut best: Option<(usize, usize)> = None; // (dist, cluster)
        for &c in &candidates {
            let rep = &reads[clusters[c].members[0]];
            confirmations += 1;
            if let Some(d) = levenshtein_bounded(read.as_slice(), rep.as_slice(), config.max_edit) {
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, c));
                }
            }
        }
        match best {
            Some((_, c)) => clusters[c].members.push(i),
            None => {
                for (s, &v) in sig.iter().enumerate() {
                    buckets.entry((s, v)).or_default().push(clusters.len());
                }
                clusters.push(Cluster { members: vec![i] });
            }
        }
    }
    clusters.sort_by(|a, b| {
        b.size()
            .cmp(&a.size())
            .then(a.members[0].cmp(&b.members[0]))
    });
    (clusters, confirmations)
}
