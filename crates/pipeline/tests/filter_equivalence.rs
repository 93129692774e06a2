//! The bit-parallel primer search equals the per-window dynamic program it
//! replaced.
//!
//! `ReadFilter::extract` and the demultiplexer's channel match run one
//! `PrefixAligner` pass per primer. This suite keeps a test-only copy of
//! the earlier window scan — one edit-distance computation per candidate
//! window length, here on the unbanded `levenshtein` so the oracle shares
//! no code with the kernel — and asserts identical extractions and
//! routings on the reads that stress the tie-break: IDS-noisy reads,
//! sibling indexes at Hamming distance 2, indels next to the index tail,
//! reads shorter than the primer window, and empty reads.

use dna_pipeline::{demux_reads, ChannelPrimer, ReadFilter};
use dna_seq::distance::levenshtein;
use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::{IdsChannel, Read};
use proptest::prelude::*;

/// `levenshtein(a, b)` when it is at most `bound`.
fn within(a: &[Base], b: &[Base], bound: usize) -> Option<usize> {
    let d = levenshtein(a, b);
    (d <= bound).then_some(d)
}

/// The window scan as it ran before the aligner: every window length
/// `n ± max_edit` at the head (`from_end == false`) or tail of the read is
/// aligned on its own; the best has the smallest distance, then the length
/// closest to `n`, then the first (shortest). Returns the window length.
fn reference_window(
    primer: &[Base],
    read: &[Base],
    max_edit: usize,
    from_end: bool,
) -> Option<usize> {
    let n = primer.len();
    let mut best: Option<(usize, usize)> = None; // (dist, window)
    let lo = n.saturating_sub(max_edit);
    let hi = (n + max_edit).min(read.len());
    for w in lo..=hi {
        let window = if from_end {
            &read[read.len() - w..]
        } else {
            &read[..w]
        };
        if let Some(d) = within(primer, window, max_edit) {
            match best {
                Some((bd, bw)) if (bd, bw.abs_diff(n)) <= (d, w.abs_diff(n)) => {}
                _ => best = Some((d, w)),
            }
        }
    }
    best.map(|(_, w)| w)
}

/// `ReadFilter::extract` as it ran before the aligner.
fn reference_extract(
    fwd: &DnaSeq,
    rev_primer: &DnaSeq,
    max_edit: usize,
    tail_check: Option<(usize, usize)>,
    read: &DnaSeq,
) -> Option<DnaSeq> {
    let start = reference_window(fwd.as_slice(), read.as_slice(), max_edit, false)?;
    if let Some((tail_len, tol)) = tail_check {
        if tail_len == 0 || tail_len > start {
            return None;
        }
        let expected = &fwd.as_slice()[fwd.len() - tail_len..];
        let window = &read.as_slice()[start - tail_len..start];
        within(expected, window, tol)?;
    }
    let rev_site = rev_primer.reverse_complement();
    let end = read.len() - reference_window(rev_site.as_slice(), read.as_slice(), max_edit, true)?;
    if start >= end {
        return None;
    }
    Some(read.subseq(start..end))
}

fn random_seq(len: usize, rng: &mut DetRng) -> DnaSeq {
    DnaSeq::from_bases((0..len).map(|_| Base::from_code(rng.gen_range(4) as u8)))
}

/// A paper-shaped elongated prefix: a 20-base main primer, the sparse
/// base, and a 10-base index.
struct Strand {
    main: DnaSeq,
    fwd: DnaSeq,
    rev: DnaSeq,
    interior: DnaSeq,
}

impl Strand {
    fn random(rng: &mut DetRng) -> Strand {
        let main = random_seq(20, rng);
        let fwd = main.concat(&random_seq(11, rng));
        Strand {
            main,
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

fn assert_filters_agree(s: &Strand, reads: &[DnaSeq]) -> Result<(), TestCaseError> {
    for max_edit in 0..=4 {
        for tail_check in [None, Some((10, 0)), Some((10, 1)), Some((11, 2))] {
            let filter = match tail_check {
                None => ReadFilter::new(s.fwd.clone(), &s.rev, max_edit),
                Some((len, tol)) => {
                    ReadFilter::with_tail_check(s.fwd.clone(), &s.rev, max_edit, len, tol)
                }
            };
            for read in reads {
                prop_assert_eq!(
                    filter.extract(read),
                    reference_extract(&s.fwd, &s.rev, max_edit, tail_check, read),
                    "max_edit {} tail {:?} read {}",
                    max_edit,
                    tail_check,
                    read
                );
            }
        }
    }
    Ok(())
}

fn assert_routing_agrees(s: &Strand, reads: &[DnaSeq]) -> Result<(), TestCaseError> {
    let wrapped: Vec<Read> = reads
        .iter()
        .map(|seq| Read {
            seq: seq.clone(),
            truth: None,
        })
        .collect();
    for tolerance in 0..=4 {
        let buckets = demux_reads(&wrapped, &[ChannelPrimer::new(&s.main, tolerance)]);
        let expected: Vec<&DnaSeq> = reads
            .iter()
            .filter(|r| {
                reference_window(s.main.as_slice(), r.as_slice(), tolerance, false).is_some()
            })
            .collect();
        let routed: Vec<&DnaSeq> = buckets[0].iter().map(|r| &r.seq).collect();
        prop_assert_eq!(routed, expected, "tolerance {}", tolerance);
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
        main,
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
