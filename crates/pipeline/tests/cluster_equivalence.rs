//! `cluster_reads` equals the clustering it replaced.
//!
//! Clustering now signs reads with a rolling packed k-mer, signs each
//! distinct read once, de-duplicates candidates with a per-cluster stamp,
//! confirms on the banded bit-vector kernel and tightens the bound after
//! each confirmation. This suite keeps
//! a test-only copy of the earlier clustering — a signature built from one
//! `Kmer::from_bases` per window, a linear `contains` de-dup, and
//! confirmation on the unbanded `levenshtein`, so the oracle shares no code
//! with the kernel — and asserts identical clusters, member order included,
//! on the reads that stress candidate order and ties: Illumina, 4x-noise
//! and nanopore reads, duplicated originals, reads shorter than `k`, and
//! empty reads.

use dna_pipeline::{cluster_reads, Cluster, ClusterConfig};
use dna_seq::distance::levenshtein;
use dna_seq::kmer::Kmer;
use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::IdsChannel;
use proptest::prelude::*;
use std::collections::HashMap;

/// The SplitMix64 avalanche the MinHash slots hash with.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The MinHash signature, one freshly packed k-mer per window.
fn reference_signature(read: &DnaSeq, k: usize, slots: usize) -> Vec<u64> {
    let mut sig = vec![u64::MAX; slots];
    if !(1..=32).contains(&k) {
        return sig;
    }
    for window in read.as_slice().windows(k) {
        let packed = Kmer::from_bases(window).expect("k-mer window").packed();
        for (i, slot) in sig.iter_mut().enumerate() {
            let h = mix(packed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
            *slot = (*slot).min(h);
        }
    }
    sig
}

/// `cluster_reads` as it ran before the kernel.
fn reference_cluster_reads(reads: &[DnaSeq], config: &ClusterConfig) -> Vec<Cluster> {
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut buckets: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    for (i, read) in reads.iter().enumerate() {
        let sig = reference_signature(read, config.kmer, config.slots);
        let mut candidates: Vec<usize> = Vec::new();
        for (s, &v) in sig.iter().enumerate() {
            for &c in buckets.get(&(s, v)).into_iter().flatten() {
                if !candidates.contains(&c) {
                    candidates.push(c);
                }
            }
        }
        let mut best: Option<(usize, usize)> = None;
        for &c in &candidates {
            let rep = &reads[clusters[c].members[0]];
            let d = levenshtein(read.as_slice(), rep.as_slice());
            if d <= config.max_edit && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, c));
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
    clusters
}

fn random_seq(len: usize, rng: &mut DetRng) -> DnaSeq {
    DnaSeq::from_bases((0..len).map(|_| Base::from_code(rng.gen_range(4) as u8)))
}

/// `copies` reads of each of `originals` random strands of `len` bases
/// through `channel`, shuffled so clusters interleave in arrival order.
/// Every third original is a duplicate of the one before it, so two
/// clusters can hold the same sequence and candidates tie.
fn reads_from(
    originals: usize,
    len: usize,
    copies: usize,
    channel: &IdsChannel,
    rng: &mut DetRng,
) -> Vec<DnaSeq> {
    let mut strands: Vec<DnaSeq> = Vec::new();
    for o in 0..originals {
        let strand = match strands.last() {
            Some(prev) if o % 3 == 2 => prev.clone(),
            _ => random_seq(len, rng),
        };
        strands.push(strand);
    }
    let mut reads: Vec<DnaSeq> = strands
        .iter()
        .flat_map(|s| {
            (0..copies)
                .map(|_| channel.corrupt(s, rng))
                .collect::<Vec<_>>()
        })
        .collect();
    for i in (1..reads.len()).rev() {
        reads.swap(i, rng.gen_range(i + 1));
    }
    reads
}

fn scaled(channel: IdsChannel, factor: f64) -> IdsChannel {
    IdsChannel {
        sub_rate: channel.sub_rate * factor,
        ins_rate: channel.ins_rate * factor,
        del_rate: channel.del_rate * factor,
    }
}

fn assert_equivalent(reads: &[DnaSeq], config: &ClusterConfig) {
    assert_eq!(
        cluster_reads(reads, config),
        reference_cluster_reads(reads, config),
        "clusters diverged under {config:?}"
    );
}

#[test]
fn illumina_reads_cluster_identically() {
    let mut rng = DetRng::seed_from_u64(1);
    let reads = reads_from(15, 109, 24, &IdsChannel::illumina(), &mut rng);
    let config = ClusterConfig::default();
    let clusters = cluster_reads(&reads, &config);
    assert!(clusters.len() >= 10, "{} clusters", clusters.len());
    assert_equivalent(&reads, &config);
}

#[test]
fn noisy_reads_with_many_candidates_cluster_identically() {
    // 4x Illumina noise and nanopore reads put many reads near the bound
    // and many clusters in each read's buckets.
    let channels = [scaled(IdsChannel::illumina(), 4.0), IdsChannel::nanopore()];
    for (seed, channel) in channels.iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(10 + seed as u64);
        let reads = reads_from(12, 109, 20, channel, &mut rng);
        assert_equivalent(&reads, &ClusterConfig::default());
    }
}

#[test]
fn short_and_empty_reads_cluster_identically() {
    let mut rng = DetRng::seed_from_u64(3);
    let mut reads = reads_from(6, 40, 6, &IdsChannel::illumina(), &mut rng);
    // Reads shorter than k sign as all-MAX slots, so they share every
    // bucket with each other and with empty reads.
    for len in [0, 0, 3, 7, 7, 1, 0, 5] {
        let at = rng.gen_range(reads.len() + 1);
        reads.insert(at, random_seq(len, &mut rng));
    }
    // Reads that differ only by trailing A's pack to the same bytes, and
    // each recurs, so reused signatures must follow the length too.
    let stem = random_seq(9, &mut rng);
    for tail in ["", "A", "AA", "AAA", "", "AA", "A"] {
        let at = rng.gen_range(reads.len() + 1);
        reads.insert(at, stem.concat(&tail.parse().unwrap()));
    }
    assert_equivalent(&reads, &ClusterConfig::default());
    assert!(cluster_reads(&[DnaSeq::new()], &ClusterConfig::default())
        .iter()
        .all(|c| c.members == [0]));
}

#[test]
fn reads_that_pack_alike_keep_their_own_signatures() {
    // `stem` and `stem + "AAA"` pack to the same bytes. With one slot and a
    // bound of 2 the longer read starts its own cluster, and a one-base
    // variant of it finds that cluster only through the longer read's own
    // signature.
    let config = ClusterConfig {
        kmer: 8,
        slots: 1,
        max_edit: 2,
    };
    let mut rng = DetRng::seed_from_u64(6);
    for _ in 0..64 {
        let stem = random_seq(9, &mut rng);
        let long = stem.concat(&"AAA".parse().unwrap());
        let mut variant: Vec<Base> = long.iter().collect();
        variant[0] = Base::from_code((variant[0].code() + 1) & 3);
        let reads = [stem, long.clone(), long, DnaSeq::from_bases(variant)];
        assert_equivalent(&reads, &config);
    }
}

#[test]
fn other_configurations_cluster_identically() {
    // Small k, few slots and a tight bound; and a bound past one word's
    // band, which takes the full-distance fallback.
    let mut rng = DetRng::seed_from_u64(4);
    let reads = reads_from(9, 80, 10, &scaled(IdsChannel::illumina(), 4.0), &mut rng);
    for config in [
        ClusterConfig {
            kmer: 4,
            slots: 3,
            max_edit: 2,
        },
        ClusterConfig {
            kmer: 6,
            slots: 16,
            max_edit: 31,
        },
        ClusterConfig {
            kmer: 8,
            slots: 8,
            max_edit: 40,
        },
    ] {
        assert_equivalent(&reads, &config);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_read_sets_cluster_identically(
        seed in any::<u64>(),
        originals in 1usize..12,
        copies in 1usize..16,
        len in 0usize..130,
        noise in 1u8..=3,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let channel = match noise {
            1 => IdsChannel::illumina(),
            2 => scaled(IdsChannel::illumina(), 4.0),
            _ => IdsChannel::nanopore(),
        };
        let reads = reads_from(originals, len, copies, &channel, &mut rng);
        let config = ClusterConfig::default();
        prop_assert_eq!(
            cluster_reads(&reads, &config),
            reference_cluster_reads(&reads, &config)
        );
    }
}
