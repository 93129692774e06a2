//! Read filtering: locate primers, extract the interior (§8 step 1).

use dna_seq::distance::{levenshtein_bounded, PrefixAligner};
use dna_seq::{Base, DnaSeq};

/// Extracts the interior of reads that carry the expected forward prefix and
/// reverse-primer site, tolerating IDS noise in the primer regions.
///
/// §8 step 1: "We first search for the elongated forward primer and reverse
/// primer of our target block in our reads and extract the substring between
/// them as the payloads."
///
/// Both primer searches run on a [`PrefixAligner`] built once here, so each
/// costs one bit-parallel pass over the read's head or (reversed) tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadFilter {
    fwd: DnaSeq,
    fwd_aligner: PrefixAligner,
    /// Aligner for the reverse site read backwards, matched against the
    /// read's tail read backwards (edit distance is unchanged when both
    /// strings are reversed).
    rev_site_aligner: PrefixAligner,
    max_edit: usize,
    /// Optional `(len, tolerance)` strict check on the prefix tail.
    tail_check: Option<(usize, usize)>,
}

impl ReadFilter {
    /// Creates a filter for reads beginning with `fwd` (a main or elongated
    /// primer, as synthesized on the strand) and ending with the reverse
    /// primer's site. `rev_primer` is given as the primer sequence; the
    /// filter matches its reverse complement at the read's 3' end.
    ///
    /// `max_edit` is the per-primer edit tolerance (2 is a good default for
    /// Illumina-grade noise over 20–31-base primers).
    ///
    /// # Panics
    ///
    /// Panics if either primer is longer than
    /// [`PrefixAligner::MAX_PATTERN`] bases.
    pub fn new(fwd: DnaSeq, rev_primer: &DnaSeq, max_edit: usize) -> ReadFilter {
        ReadFilter {
            fwd_aligner: PrefixAligner::new(fwd.as_slice()),
            // The reverse site (the primer's reverse complement) read
            // backwards is the primer's complement.
            rev_site_aligner: PrefixAligner::new(rev_primer.complement().as_slice()),
            fwd,
            max_edit,
            tail_check: None,
        }
    }

    /// As [`ReadFilter::new`], additionally requiring the last `tail_len`
    /// bases of the forward prefix (the block's sparse index) to match
    /// within `tail_tolerance` edits.
    ///
    /// Sibling blocks' indexes sit at Hamming distance 2 — within the
    /// overall prefix tolerance needed for sequencing noise — so address
    /// discrimination needs this stricter per-region check. Misprimed
    /// products are *not* rejected by it: PCR physically overwrote their
    /// prefix with the target index (§3.2), which is exactly why they reach
    /// the §8.1 candidate search instead of being filtered here.
    pub fn with_tail_check(
        fwd: DnaSeq,
        rev_primer: &DnaSeq,
        max_edit: usize,
        tail_len: usize,
        tail_tolerance: usize,
    ) -> ReadFilter {
        assert!(tail_len <= fwd.len(), "tail longer than prefix");
        ReadFilter {
            tail_check: Some((tail_len, tail_tolerance)),
            ..ReadFilter::new(fwd, rev_primer, max_edit)
        }
    }

    /// The forward prefix this filter expects.
    pub fn forward(&self) -> &DnaSeq {
        &self.fwd
    }

    /// Attempts to extract the interior of `read` (everything between the
    /// forward prefix and the reverse site). Returns `None` if either
    /// primer region is beyond the edit tolerance.
    pub fn extract(&self, read: &DnaSeq) -> Option<DnaSeq> {
        let start = best_window(
            &self.fwd_aligner,
            read.as_slice().iter().copied(),
            self.max_edit,
        )?;
        if let Some((tail_len, tol)) = self.tail_check {
            if !self.tail_matches(read, start, tail_len, tol) {
                return None;
            }
        }
        let end = read.len()
            - best_window(
                &self.rev_site_aligner,
                read.as_slice().iter().rev().copied(),
                self.max_edit,
            )?;
        if start >= end {
            return None;
        }
        Some(read.subseq(start..end))
    }

    /// Checks that the exact `tail_len`-base region of the read ending at
    /// `prefix_end` matches the prefix's tail within `tol` edits.
    ///
    /// The window is deliberately *fixed*: allowing window slack would let a
    /// sibling index at Hamming distance 2 re-align its final bases as a
    /// single "deletion" and sneak under a tolerance of 1. The fixed window
    /// sacrifices a small fraction of true reads with indels near the index
    /// (they are merely dropped, not misassigned) in exchange for strict
    /// sibling discrimination.
    fn tail_matches(&self, read: &DnaSeq, prefix_end: usize, tail_len: usize, tol: usize) -> bool {
        if tail_len == 0 || tail_len > prefix_end {
            return false;
        }
        let expected = &self.fwd.as_slice()[self.fwd.len() - tail_len..];
        let window = &read.as_slice()[prefix_end - tail_len..prefix_end];
        levenshtein_bounded(expected, window, tol).is_some()
    }
}

/// Length of the best window at the start of `text` for the aligner's
/// primer: windows within `max_edit` of the primer length, scored by edit
/// distance (at most `max_edit`), ties going to the length closest to the
/// primer's and then to the shortest.
pub(crate) fn best_window(
    aligner: &PrefixAligner,
    text: impl IntoIterator<Item = Base>,
    max_edit: usize,
) -> Option<usize> {
    let n = aligner.len();
    let mut best: Option<(usize, usize)> = None; // (dist, window)
    for (w, d) in aligner.windows(text, max_edit) {
        if d <= max_edit && best.is_none_or(|(bd, bw)| (d, w.abs_diff(n)) < (bd, bw.abs_diff(n))) {
            best = Some((d, w));
        }
    }
    best.map(|(_, w)| w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_seq::rng::DetRng;
    use dna_seq::Base;
    use dna_sim::IdsChannel;

    fn fwd() -> DnaSeq {
        "AACCGGTTAACCGGTTAACC".parse().unwrap()
    }

    fn rev() -> DnaSeq {
        "AAGGCCTTAAGGCCTTAAGG".parse().unwrap()
    }

    fn interior() -> DnaSeq {
        DnaSeq::from_bases((0..60).map(|i| Base::from_code(((i * 3 + 1) % 4) as u8)))
    }

    fn read() -> DnaSeq {
        fwd()
            .concat(&interior())
            .concat(&rev().reverse_complement())
    }

    #[test]
    fn clean_read_extracts_exact_interior() {
        let f = ReadFilter::new(fwd(), &rev(), 2);
        assert_eq!(f.extract(&read()).unwrap(), interior());
    }

    #[test]
    fn noisy_primers_still_match() {
        let f = ReadFilter::new(fwd(), &rev(), 2);
        let mut rng = DetRng::seed_from_u64(5);
        let ch = IdsChannel::illumina();
        let mut extracted = 0;
        for _ in 0..200 {
            let noisy = ch.corrupt(&read(), &mut rng);
            if let Some(inner) = f.extract(&noisy) {
                extracted += 1;
                // interior should be close to the truth
                let d = dna_seq::distance::levenshtein(inner.as_slice(), interior().as_slice());
                assert!(d <= 4, "interior drifted by {d}");
            }
        }
        assert!(extracted >= 195, "only {extracted}/200 noisy reads matched");
    }

    #[test]
    fn wrong_prefix_rejected() {
        let f = ReadFilter::new(fwd(), &rev(), 2);
        let other = DnaSeq::from_bases((0..20).map(|i| Base::from_code(((i + 2) % 4) as u8)));
        let bad = other
            .concat(&interior())
            .concat(&rev().reverse_complement());
        assert_eq!(f.extract(&bad), None);
    }

    #[test]
    fn wrong_suffix_rejected() {
        let f = ReadFilter::new(fwd(), &rev(), 2);
        let bad = fwd().concat(&interior()).concat(&fwd()); // wrong tail
        assert_eq!(f.extract(&bad), None);
    }

    #[test]
    fn elongated_prefix_distinguishes_blocks() {
        // Filters with different 10-base extensions must not cross-match.
        let ext_a: DnaSeq = "ACAGTCTGAC".parse().unwrap();
        let ext_b: DnaSeq = "GTGACATCAG".parse().unwrap();
        let fa = ReadFilter::new(fwd().concat(&ext_a), &rev(), 2);
        let read_b = fwd()
            .concat(&ext_b)
            .concat(&interior())
            .concat(&rev().reverse_complement());
        assert_eq!(fa.extract(&read_b), None);
    }

    #[test]
    fn too_short_read_rejected() {
        let f = ReadFilter::new(fwd(), &rev(), 2);
        let stub = fwd();
        assert_eq!(f.extract(&stub), None);
        assert_eq!(f.extract(&DnaSeq::new()), None);
    }
}
