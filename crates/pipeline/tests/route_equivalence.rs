//! The round's read router equals every job's own read filter.
//!
//! `ReadRouter` answers, for each read, every job's `ReadFilter::extract`
//! in one pass: a trie walk of the jobs' prefixes on the transposed
//! bit-parallel kernel, one reverse-site scan per distinct reverse primer.
//! This suite builds rounds shaped like the store's and asserts that each
//! job receives exactly the interiors its filter extracts, in read order.
//!
//! A round holds 8 consecutive leaves of a depth-5 sparse index tree
//! behind one main primer and sync base (prefixes that share at least 21
//! bases and branch inside the index), plus a second channel with its own
//! primer pair, one of whose jobs reuses a first-channel prefix under the
//! other reverse primer. Every job draws its own tolerance (0–4) and tail
//! check. Reads are clean, IDS-noisy, edited at the trie's branch
//! positions and at both ends of each primer window, truncated below the
//! window, and empty.

use dna_index::{IndexTree, LeafId};
use dna_pipeline::{ReadFilter, ReadRouter};
use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::IdsChannel;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn random_seq(len: usize, rng: &mut DetRng) -> DnaSeq {
    DnaSeq::from_bases((0..len).map(|_| Base::from_code(rng.gen_range(4) as u8)))
}

/// One decode job: its filter's parameters and a strand it targets.
struct Job {
    prefix: DnaSeq,
    rev: DnaSeq,
    max_edit: usize,
    tail_check: Option<(usize, usize)>,
    strand: DnaSeq,
}

impl Job {
    fn new(prefix: DnaSeq, rev: &DnaSeq, rng: &mut DetRng) -> Job {
        let tail_check = match rng.gen_range(4) {
            0 => None,
            t => Some((10, t - 1)),
        };
        let interior = random_seq(60 + rng.gen_range(50), rng);
        Job {
            strand: prefix.concat(&interior).concat(&rev.reverse_complement()),
            prefix,
            rev: rev.clone(),
            max_edit: rng.gen_range(5),
            tail_check,
        }
    }

    fn filter(&self) -> ReadFilter {
        match self.tail_check {
            None => ReadFilter::new(self.prefix.clone(), &self.rev, self.max_edit),
            Some((len, tol)) => {
                ReadFilter::with_tail_check(self.prefix.clone(), &self.rev, self.max_edit, len, tol)
            }
        }
    }
}

/// Main primer + sync base + the leaf's 10-base sparse index.
fn leaf_prefix(main: &DnaSeq, tree: &IndexTree, leaf: u64) -> DnaSeq {
    let mut prefix = main.clone();
    prefix.push(Base::A);
    prefix.extend(tree.leaf_index(LeafId(leaf)).iter());
    prefix
}

/// A partition-shaped round: 8 consecutive leaves on one channel, and a
/// second channel with two jobs, one reusing a first-channel prefix.
fn round(rng: &mut DetRng) -> Vec<Job> {
    let (main, rev) = (random_seq(20, rng), random_seq(20, rng));
    let tree = IndexTree::new(rng.next_u64(), 5);
    let first = rng.gen_range(tree.num_leaves() as usize - 7) as u64;
    let mut jobs: Vec<Job> = (first..first + 8)
        .map(|leaf| Job::new(leaf_prefix(&main, &tree, leaf), &rev, rng))
        .collect();
    let (main_b, rev_b) = (random_seq(20, rng), random_seq(20, rng));
    let tree_b = IndexTree::new(rng.next_u64(), 5);
    let leaf_b = rng.gen_range(tree_b.num_leaves() as usize) as u64;
    let reused = jobs[rng.gen_range(8)].prefix.clone();
    jobs.push(Job::new(leaf_prefix(&main_b, &tree_b, leaf_b), &rev_b, rng));
    jobs.push(Job::new(reused, &rev_b, rng));
    jobs
}

/// `seq` with one edit at `at` (clamped to the sequence): a substitution,
/// a deletion or an insertion.
fn edit(seq: &DnaSeq, at: usize, rng: &mut DetRng) -> DnaSeq {
    let mut bases: Vec<Base> = seq.iter().collect();
    let at = at.min(bases.len().saturating_sub(1));
    match rng.gen_range(3) {
        0 if !bases.is_empty() => {
            bases[at] = Base::from_code(bases[at].code() + 1 + rng.gen_range(3) as u8)
        }
        1 if !bases.is_empty() => {
            bases.remove(at);
        }
        _ => bases.insert(at, Base::from_code(rng.gen_range(4) as u8)),
    }
    DnaSeq::from_bases(bases)
}

/// Positions where two of the round's prefixes first differ: the trie's
/// branch points.
fn branch_points(jobs: &[Job]) -> BTreeSet<usize> {
    let mut points = BTreeSet::new();
    for a in jobs {
        for b in jobs {
            let shared = a
                .prefix
                .iter()
                .zip(b.prefix.iter())
                .take_while(|(x, y)| x == y)
                .count();
            if shared < a.prefix.len() {
                points.insert(shared);
            }
        }
    }
    points
}

fn reads_for(jobs: &[Job], rng: &mut DetRng) -> Vec<DnaSeq> {
    let mut reads = vec![DnaSeq::new()];
    let branches = branch_points(jobs);
    for job in jobs {
        let clean = &job.strand;
        let (n, k) = (job.prefix.len(), job.max_edit);
        let site_start = clean.len() - job.rev.len();
        reads.push(clean.clone());
        for channel in [IdsChannel::illumina(), IdsChannel::nanopore()] {
            reads.push(channel.corrupt(clean, rng));
        }
        // The trie's branch points, and a base to either side.
        for &b in &branches {
            for at in b.saturating_sub(1)..=b + 1 {
                reads.push(edit(clean, at, rng));
            }
        }
        // Both edges of the forward window range and of the reverse site.
        for at in n.saturating_sub(k + 1)..=n + k {
            reads.push(edit(clean, at, rng));
        }
        for at in site_start.saturating_sub(k + 1)..=site_start + 1 {
            reads.push(edit(clean, at, rng));
        }
        // Edits piling up in the prefix up to and past the tolerance.
        let mut piled = clean.clone();
        for _ in 0..=k + 1 {
            piled = edit(&piled, rng.gen_range(n + 2), rng);
            reads.push(piled.clone());
        }
        // Heads shorter than, around and past the window; the tail.
        for len in 0..=n + k + 2 {
            reads.push(clean.subseq(0..len));
        }
        reads.push(clean.subseq(n.saturating_sub(2)..clean.len()));
    }
    reads
}

fn assert_router_agrees(jobs: &[Job], reads: &[DnaSeq]) -> Result<(), TestCaseError> {
    let filters: Vec<ReadFilter> = jobs.iter().map(Job::filter).collect();
    let router = ReadRouter::new(filters.clone());
    // The walk steps each node of the prefix trie once.
    let nodes: BTreeSet<&[Base]> = jobs
        .iter()
        .flat_map(|j| (1..=j.prefix.len()).map(move |d| &j.prefix.as_slice()[..d]))
        .collect();
    prop_assert_eq!(router.steps_per_read(), nodes.len());
    let routed = router.route(reads);
    prop_assert_eq!(routed.len(), jobs.len());
    for (j, (filter, interiors)) in filters.iter().zip(&routed).enumerate() {
        let expected: Vec<DnaSeq> = reads.iter().filter_map(|r| filter.extract(r)).collect();
        prop_assert_eq!(
            interiors,
            &expected,
            "job {} (max_edit {}, tail {:?})",
            j,
            jobs[j].max_edit,
            jobs[j].tail_check
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn router_matches_every_jobs_filter(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from_u64(seed);
        let jobs = round(&mut rng);
        let reads = reads_for(&jobs, &mut rng);
        assert_router_agrees(&jobs, &reads)?;
    }
}

#[test]
fn shared_prefixes_branch_inside_the_index() {
    // The round's first channel shares at least main primer + sync base,
    // and its 8 prefixes cost far fewer steps than 8 separate scans.
    let mut rng = DetRng::seed_from_u64(3);
    let jobs = round(&mut rng);
    let first_channel = &jobs[..8];
    let shared = first_channel
        .iter()
        .map(|j| {
            j.prefix
                .iter()
                .zip(first_channel[0].prefix.iter())
                .take_while(|(x, y)| x == y)
                .count()
        })
        .min()
        .unwrap();
    assert!(
        shared >= 21,
        "8 consecutive leaves share only {shared} bases"
    );
    let router = ReadRouter::new(first_channel.iter().map(Job::filter).collect());
    assert!(router.steps_per_read() < 8 * 31 / 3);
    let reads = reads_for(&jobs, &mut rng);
    assert_router_agrees(&jobs, &reads).unwrap();
}
