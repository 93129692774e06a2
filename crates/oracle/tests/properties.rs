//! The scalar banded DP equals the full edit distance within its bound.
//!
//! The clustering and window-scan references both confirm on
//! `levenshtein_bounded`, so this pins it against the library's unbounded
//! `levenshtein`: the distance when that is at most `bound`, `None`
//! otherwise, in both argument orders — on random pairs, on near misses
//! whose distance sits around the bound, on empty inputs, with band
//! widths past the stack band, and with bounds at or past the longer
//! length (where it clamps).

use dna_oracle::levenshtein_bounded;
use dna_seq::distance::levenshtein;
use dna_seq::{Base, DnaSeq};
use proptest::prelude::*;

fn arb_seq(max_len: usize) -> impl Strategy<Value = DnaSeq> {
    prop::collection::vec(0u8..4, 0..max_len)
        .prop_map(|codes| DnaSeq::from_bases(codes.into_iter().map(Base::from_code)))
}

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

/// `seq` with each `(kind, pos, code)` applied as a substitution,
/// insertion or deletion.
fn mutate(seq: &DnaSeq, edits: &[(u8, usize, u8)]) -> DnaSeq {
    let mut bases: Vec<Base> = seq.iter().collect();
    for &(kind, pos, code) in edits {
        let at = pos % (bases.len() + 1);
        match kind % 3 {
            0 if at < bases.len() => bases[at] = Base::from_code(code),
            1 => bases.insert(at, Base::from_code(code)),
            _ if at < bases.len() => {
                bases.remove(at);
            }
            _ => bases.push(Base::from_code(code)),
        }
    }
    DnaSeq::from_bases(bases)
}

#[test]
fn empty_inputs_are_the_other_length() {
    let empty = DnaSeq::new();
    let seq: DnaSeq = "ACGTACG".parse().unwrap();
    for bound in [0, 1, 6, 7, 8, usize::MAX] {
        assert_bounded_exact(&empty, &empty, bound).unwrap();
        assert_bounded_exact(&empty, &seq, bound).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_pairs_match_levenshtein(a in arb_seq(80), b in arb_seq(80), bound in 0usize..90) {
        assert_bounded_exact(&a, &b, bound)?;
    }

    #[test]
    fn near_misses_match_levenshtein(
        a in arb_seq(120),
        edits in prop::collection::vec((0u8..3, any::<usize>(), 0u8..4), 0..12),
        bound in 0usize..16,
    ) {
        let b = mutate(&a, &edits);
        assert_bounded_exact(&a, &b, bound)?;
    }

    /// Bounds at, just past and far past the longer length, up to
    /// `usize::MAX`, clamp without changing the result.
    #[test]
    fn bounds_past_the_longer_length_clamp(
        a in arb_seq(70),
        b in arb_seq(70),
        past in 0usize..3,
    ) {
        let longer = a.len().max(b.len());
        for bound in [longer, longer + 1 + past, usize::MAX / 2, usize::MAX] {
            assert_bounded_exact(&a, &b, bound)?;
        }
    }
}
