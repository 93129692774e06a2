//! Property-based tests for the foundational sequence types.

use dna_seq::distance::{hamming, levenshtein, levenshtein_bounded, PrefixAligner};
use dna_seq::rng::DetRng;
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

/// Asserts `levenshtein_bounded` is the full dynamic program's distance
/// when that is within `bound` and `None` otherwise, in both argument
/// orders.
fn assert_bounded_exact(a: &DnaSeq, b: &DnaSeq, bound: usize) -> Result<(), TestCaseError> {
    let full = levenshtein(a.as_slice(), b.as_slice());
    let want = (full <= bound).then_some(full);
    prop_assert_eq!(
        levenshtein_bounded(a.as_slice(), b.as_slice(), bound),
        want,
        "{} vs {} bound {}",
        a,
        b,
        bound
    );
    prop_assert_eq!(levenshtein_bounded(b.as_slice(), a.as_slice(), bound), want);
    Ok(())
}

/// Asserts `DnaSeq`'s word-at-a-time order is the base-by-base slice
/// order, in both argument orders.
fn assert_order_is_slice_order(a: &DnaSeq, b: &DnaSeq) -> Result<(), TestCaseError> {
    let want = a.as_slice().cmp(b.as_slice());
    prop_assert_eq!(a.cmp(b), want, "{} vs {}", a, b);
    prop_assert_eq!(b.cmp(a), want.reverse(), "{} vs {}", b, a);
    prop_assert_eq!(a.partial_cmp(b), Some(want));
    Ok(())
}

/// Pairs that agree on their first `p` bases, for every `p` in 0..=20 and
/// 150..=170, so the first difference falls on, just before and just after
/// each 8-base word boundary in reach. Past the shared prefix each
/// sequence stops or goes on with any base and a random tail, which makes
/// one a prefix of the other, both equal, or the two differ at `p`.
#[test]
fn seq_order_is_slice_order_at_every_offset_around_a_word() {
    let mut rng = DetRng::seed_from_u64(0x0b5e);
    let mut random =
        |n: usize| DnaSeq::from_bases((0..n).map(|_| Base::from_code(rng.gen_range(4) as u8)));
    let next = [
        None,
        Some(Base::A),
        Some(Base::C),
        Some(Base::G),
        Some(Base::T),
    ];
    for p in (0..=20).chain(150..=170) {
        let shared = random(p);
        for x in next {
            for y in next {
                let mut a = shared.clone();
                let mut b = shared.clone();
                for (s, n) in [(&mut a, x), (&mut b, y)] {
                    if let Some(base) = n {
                        s.push(base);
                        s.extend(random(p % 11).iter());
                    }
                }
                assert_order_is_slice_order(&a, &b).unwrap();
            }
        }
    }
}

proptest! {
    #[test]
    fn seq_order_is_slice_order(
        shared in arb_seq(170),
        a_tail in arb_seq(12),
        b_tail in arb_seq(12),
    ) {
        let a = shared.concat(&a_tail);
        let b = shared.concat(&b_tail);
        assert_order_is_slice_order(&a, &b)?;
        assert_order_is_slice_order(&a, &shared)?;
        assert_order_is_slice_order(&a_tail, &b_tail)?;
        // Against a concatenation it is never given whole, split anywhere.
        for at in [0, shared.len() / 2, shared.len()] {
            let (head, rest) = b.as_slice().split_at(at.min(b.len()));
            prop_assert_eq!(a.cmp_concat(head, rest), a.cmp(&b), "{} vs {} split at {}", a, b, at);
        }
    }

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
    fn bounded_levenshtein_matches_full(
        a in arb_len_seq(0..=200),
        b in arb_len_seq(0..=200),
        bound in 0usize..=31,
    ) {
        assert_bounded_exact(&a, &b, bound)?;
    }

    #[test]
    fn bounded_levenshtein_matches_full_on_near_misses(
        a in arb_len_seq(0..=200),
        edits in prop::collection::vec((0u8..3, 0usize..200, 0u8..4), 0..40),
        tail in arb_seq(4),
        bound in 0usize..=31,
    ) {
        let b = mutate(&a, &edits, &tail);
        assert_bounded_exact(&a, &b, bound)?;
        // The bounds on either side of the distance, where an off-by-one
        // in the early exit or the final read-out would show.
        let full = levenshtein(a.as_slice(), b.as_slice());
        for near in [full.saturating_sub(1), full, full + 1] {
            assert_bounded_exact(&a, &b, near)?;
        }
    }

    #[test]
    fn bounded_levenshtein_matches_full_when_the_bound_covers_the_length(
        a in arb_len_seq(0..=40),
        b in arb_len_seq(0..=40),
        extra in 0usize..=30,
    ) {
        let longer = a.len().max(b.len());
        assert_bounded_exact(&a, &b, longer + extra)?;
        assert_bounded_exact(&a, &b, usize::MAX)?;
    }

    #[test]
    fn bounded_levenshtein_matches_full_at_the_word_edge(
        a in arb_len_seq(0..=120),
        edits in prop::collection::vec((0u8..3, 0usize..120, 0u8..4), 0..60),
        tail in arb_seq(40),
    ) {
        // Bound 31 is the widest band one word holds (63 diagonals);
        // bound 32 (65 diagonals) takes the full-distance fallback.
        let b = mutate(&a, &edits, &tail);
        for bound in [30, 31, 32, 33] {
            assert_bounded_exact(&a, &b, bound)?;
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
