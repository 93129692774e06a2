//! The bit-parallel primer search equals the per-window dynamic program it
//! replaced.
//!
//! `ReadFilter::extract` runs one `PrefixAligner` pass per primer, and the
//! round's `ReadRouter` runs the aligner transposed over a trie of its
//! jobs' prefixes. This suite asserts identical extractions and routings
//! against `dna_oracle::extract` — the earlier window scan, one
//! edit-distance computation per candidate window length, on the oracle's
//! own scalar banded DP so it shares no code with the kernel — on the
//! reads that stress the tie-break: IDS-noisy reads, sibling indexes at
//! Hamming distance 2, indels next to the index tail, reads shorter than
//! the primer window, and empty reads.

use dna_oracle::extract;
use dna_pipeline::{ReadFilter, ReadRouter};
use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::IdsChannel;
use proptest::prelude::*;

fn random_seq(len: usize, rng: &mut DetRng) -> DnaSeq {
    DnaSeq::from_bases((0..len).map(|_| Base::from_code(rng.gen_range(4) as u8)))
}

/// A paper-shaped elongated prefix: a 20-base main primer, the sparse
/// base, and a 10-base index.
struct Strand {
    fwd: DnaSeq,
    rev: DnaSeq,
    interior: DnaSeq,
}

impl Strand {
    fn random(rng: &mut DetRng) -> Strand {
        let fwd = random_seq(20, rng).concat(&random_seq(11, rng));
        Strand {
            fwd,
            rev: random_seq(20, rng),
            interior: random_seq(100, rng),
        }
    }

    fn with_prefix(&self, prefix: &DnaSeq) -> DnaSeq {
        prefix
            .concat(&self.interior)
            .concat(&self.rev.reverse_complement())
    }

    /// The same strand under a sibling index: two index bases changed.
    fn sibling(&self, rng: &mut DetRng) -> DnaSeq {
        let mut bases: Vec<Base> = self.fwd.iter().collect();
        let index_start = self.fwd.len() - 10;
        let first = index_start + rng.gen_range(10);
        let mut second = index_start + rng.gen_range(10);
        while second == first {
            second = index_start + rng.gen_range(10);
        }
        for i in [first, second] {
            bases[i] = Base::from_code(bases[i].code() + 1 + rng.gen_range(3) as u8);
        }
        self.with_prefix(&DnaSeq::from_bases(bases))
    }

    /// The strand with one indel within a base of the index tail.
    fn indel_at_tail(&self, rng: &mut DetRng) -> DnaSeq {
        let mut bases: Vec<Base> = self.with_prefix(&self.fwd).iter().collect();
        let at = self.fwd.len() - 2 + rng.gen_range(3);
        if rng.gen_range(2) == 0 {
            bases.remove(at);
        } else {
            bases.insert(at, Base::from_code(rng.gen_range(4) as u8));
        }
        DnaSeq::from_bases(bases)
    }
}

/// Reads of every kind the suite covers, derived from one strand.
fn stress_reads(s: &Strand, rng: &mut DetRng) -> Vec<DnaSeq> {
    let clean = s.with_prefix(&s.fwd);
    let mut reads = vec![DnaSeq::new(), clean.clone()];
    for channel in [IdsChannel::illumina(), IdsChannel::nanopore()] {
        for _ in 0..6 {
            reads.push(channel.corrupt(&clean, rng));
            reads.push(channel.corrupt(&s.sibling(rng), rng));
            reads.push(channel.corrupt(&s.indel_at_tail(rng), rng));
        }
    }
    reads.push(s.sibling(rng));
    reads.push(s.indel_at_tail(rng));
    // Heads and tails shorter than, around and just past the primer
    // windows.
    for len in 0..=s.fwd.len() + 6 {
        reads.push(clean.subseq(0..len));
        reads.push(clean.subseq(clean.len() - len..clean.len()));
    }
    reads
}

/// Every tolerance and tail check the suite covers, as
/// `(max_edit, tail_check)`.
fn filter_settings() -> Vec<(usize, Option<(usize, usize)>)> {
    (0..=4)
        .flat_map(|max_edit| {
            [None, Some((10, 0)), Some((10, 1)), Some((11, 2))]
                .map(|tail_check| (max_edit, tail_check))
        })
        .collect()
}

fn filter(s: &Strand, max_edit: usize, tail_check: Option<(usize, usize)>) -> ReadFilter {
    match tail_check {
        None => ReadFilter::new(s.fwd.clone(), &s.rev, max_edit),
        Some((len, tol)) => ReadFilter::with_tail_check(s.fwd.clone(), &s.rev, max_edit, len, tol),
    }
}

fn assert_filters_agree(s: &Strand, reads: &[DnaSeq]) -> Result<(), TestCaseError> {
    for (max_edit, tail_check) in filter_settings() {
        let filter = filter(s, max_edit, tail_check);
        for read in reads {
            prop_assert_eq!(
                filter.extract(read),
                extract(&s.fwd, &s.rev, max_edit, tail_check, read),
                "max_edit {} tail {:?} read {}",
                max_edit,
                tail_check,
                read
            );
        }
    }
    Ok(())
}

/// One router over a job per filter setting — 20 jobs on one prefix and
/// one reverse site, so the trie walk shares every base and the reverse
/// scan serves the widest tolerance — routes each job exactly the reads
/// its reference scan accepts, in read order.
fn assert_routing_agrees(s: &Strand, reads: &[DnaSeq]) -> Result<(), TestCaseError> {
    let settings = filter_settings();
    let router = ReadRouter::new(
        settings
            .iter()
            .map(|&(max_edit, tail_check)| filter(s, max_edit, tail_check))
            .collect(),
    );
    prop_assert_eq!(router.steps_per_read(), s.fwd.len());
    let routed = router.route(reads);
    for (&(max_edit, tail_check), interiors) in settings.iter().zip(&routed) {
        let expected: Vec<DnaSeq> = reads
            .iter()
            .filter_map(|r| extract(&s.fwd, &s.rev, max_edit, tail_check, r))
            .collect();
        prop_assert_eq!(
            interiors,
            &expected,
            "max_edit {} tail {:?}",
            max_edit,
            tail_check
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn read_filter_matches_the_window_scan(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from_u64(seed);
        let strand = Strand::random(&mut rng);
        let reads = stress_reads(&strand, &mut rng);
        assert_filters_agree(&strand, &reads)?;
    }

    #[test]
    fn channel_routing_matches_the_window_scan(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from_u64(seed);
        let strand = Strand::random(&mut rng);
        let reads = stress_reads(&strand, &mut rng);
        assert_routing_agrees(&strand, &reads)?;
    }
}

#[test]
fn ties_between_windows_resolve_as_before() {
    // Homopolymer runs around the primer ends make several window lengths
    // tie on distance; the closest-to-primer, then shortest, rule decides.
    let main: DnaSeq = "ACGTACGTAAAAAAAAAAAA".parse().unwrap();
    let fwd = main.concat(&"CAAAAAAAAAA".parse().unwrap());
    let rev: DnaSeq = "TTTTTTTTTTGCATGCATGC".parse().unwrap();
    let strand = Strand {
        fwd: fwd.clone(),
        rev: rev.clone(),
        interior: "AAAAAAAAAACCCCCCCCCC".parse().unwrap(),
    };
    let mut rng = DetRng::seed_from_u64(1);
    let mut reads = stress_reads(&strand, &mut rng);
    reads.push(fwd.concat(&rev.reverse_complement()));
    assert_filters_agree(&strand, &reads).unwrap();
    assert_routing_agrees(&strand, &reads).unwrap();
}
