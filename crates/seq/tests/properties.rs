//! Property-based tests for the foundational sequence types.

use dna_seq::distance::{hamming, levenshtein, levenshtein_bounded, PrefixAligner};
use dna_seq::{Base, DnaSeq};
use proptest::prelude::*;

fn arb_seq(max_len: usize) -> impl Strategy<Value = DnaSeq> {
    prop::collection::vec(0u8..4, 0..max_len)
        .prop_map(|codes| DnaSeq::from_bases(codes.into_iter().map(Base::from_code)))
}

/// Asserts the bit-vector kernel's distance to every prefix of `text`
/// equals the full dynamic program's.
fn assert_prefix_distances_exact(pattern: &DnaSeq, text: &DnaSeq) -> Result<(), TestCaseError> {
    let aligner = PrefixAligner::new(pattern.as_slice());
    let got: Vec<usize> = aligner.distances(text.iter()).collect();
    prop_assert_eq!(got.len(), text.len() + 1);
    for (j, &d) in got.iter().enumerate() {
        prop_assert_eq!(
            d,
            levenshtein(pattern.as_slice(), &text.as_slice()[..j]),
            "pattern {} text {} prefix {}",
            pattern,
            text,
            j
        );
    }
    Ok(())
}

/// A near-miss of `pattern`: each edit is a substitution, insertion or
/// deletion at a chosen position, followed by a random tail.
fn mutate(pattern: &DnaSeq, edits: &[(u8, usize, u8)], tail: &DnaSeq) -> DnaSeq {
    let mut bases: Vec<Base> = pattern.iter().collect();
    for &(kind, pos, code) in edits {
        let base = Base::from_code(code);
        let at = pos % (bases.len() + 1);
        match kind % 3 {
            0 if at < bases.len() => bases[at] = base,
            1 => bases.insert(at, base),
            _ if at < bases.len() => {
                bases.remove(at);
            }
            _ => bases.push(base),
        }
    }
    bases.extend(tail.iter());
    DnaSeq::from_bases(bases)
}

fn arb_len_seq(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = DnaSeq> {
    prop::collection::vec(0u8..4, len)
        .prop_map(|codes| DnaSeq::from_bases(codes.into_iter().map(Base::from_code)))
}

proptest! {
    #[test]
    fn prefix_aligner_matches_levenshtein_on_random_text(
        pattern in arb_len_seq(1..=64),
        text in arb_seq(100),
    ) {
        assert_prefix_distances_exact(&pattern, &text)?;
    }

    #[test]
    fn prefix_aligner_matches_levenshtein_on_near_misses(
        pattern in arb_len_seq(1..=64),
        edits in prop::collection::vec((0u8..3, 0usize..80, 0u8..4), 0..5),
        tail in arb_seq(30),
    ) {
        let text = mutate(&pattern, &edits, &tail);
        assert_prefix_distances_exact(&pattern, &text)?;
    }

    #[test]
    fn prefix_aligner_matches_levenshtein_at_the_word_boundary(
        pattern in arb_len_seq(64..=64),
        edits in prop::collection::vec((0u8..3, 0usize..80, 0u8..4), 0..5),
        tail in arb_seq(30),
    ) {
        let text = mutate(&pattern, &edits, &tail);
        assert_prefix_distances_exact(&pattern, &text)?;
        assert_prefix_distances_exact(&pattern, &tail)?;
    }

    #[test]
    fn display_parse_round_trip(seq in arb_seq(200)) {
        let text = seq.to_string();
        let back: DnaSeq = text.parse().unwrap();
        prop_assert_eq!(back, seq);
    }

    #[test]
    fn packed_bytes_round_trip(seq in arb_seq(200)) {
        let packed = seq.to_packed_bytes();
        let back = DnaSeq::from_packed_bytes(&packed, seq.len());
        prop_assert_eq!(back, seq);
    }

    #[test]
    fn reverse_complement_involution(seq in arb_seq(200)) {
        prop_assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }

    #[test]
    fn complement_preserves_gc_count(seq in arb_seq(200)) {
        prop_assert_eq!(seq.complement().gc_count(), seq.gc_count());
    }

    #[test]
    fn hamming_vs_levenshtein(a in arb_seq(64), b in arb_seq(64)) {
        // Levenshtein is a lower bound on Hamming for equal-length strings.
        if a.len() == b.len() {
            let h = hamming(a.as_slice(), b.as_slice());
            let l = levenshtein(a.as_slice(), b.as_slice());
            prop_assert!(l <= h);
        }
    }

    #[test]
    fn levenshtein_identity_and_symmetry(a in arb_seq(48), b in arb_seq(48)) {
        prop_assert_eq!(levenshtein(a.as_slice(), a.as_slice()), 0);
        prop_assert_eq!(
            levenshtein(a.as_slice(), b.as_slice()),
            levenshtein(b.as_slice(), a.as_slice())
        );
    }

    #[test]
    fn bounded_levenshtein_matches_full(a in arb_seq(40), b in arb_seq(40), bound in 0usize..12) {
        let full = levenshtein(a.as_slice(), b.as_slice());
        let got = levenshtein_bounded(a.as_slice(), b.as_slice(), bound);
        if full <= bound {
            prop_assert_eq!(got, Some(full));
        } else {
            prop_assert_eq!(got, None);
        }
    }

    #[test]
    fn levenshtein_length_difference_lower_bound(a in arb_seq(64), b in arb_seq(64)) {
        let l = levenshtein(a.as_slice(), b.as_slice());
        prop_assert!(l >= a.len().abs_diff(b.len()));
        prop_assert!(l <= a.len().max(b.len()));
    }

    #[test]
    fn homopolymer_bounded_by_len(seq in arb_seq(100)) {
        let h = seq.max_homopolymer();
        prop_assert!(h <= seq.len());
        if !seq.is_empty() {
            prop_assert!(h >= 1);
        }
    }

    #[test]
    fn minhash_self_similarity_is_one(seq in arb_seq(80)) {
        prop_assume!(seq.len() >= 8);
        let sig = dna_seq::kmer::MinHashSignature::new(&seq, 6, 16);
        prop_assert_eq!(sig.similarity(&sig), 1.0);
    }

    #[test]
    fn rng_reproducibility(seed in any::<u64>()) {
        let mut a = dna_seq::rng::DetRng::seed_from_u64(seed);
        let mut b = dna_seq::rng::DetRng::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
