//! Hamming and Levenshtein (edit) distances between DNA sequences.
//!
//! Both metrics matter in the paper: primer libraries are screened by
//! *Hamming* distance (§1), while read clustering and mispriming analysis use
//! *Levenshtein* distance (§2.1.2, §8.1 — "incorrectly amplified strands
//! largely had indexes ... 2 or 3 edit distance apart").

use crate::Base;

/// Hamming distance between two equal-length base slices.
///
/// # Panics
///
/// Panics if the slices have different lengths; use [`hamming_prefix`] for
/// comparing a primer against the prefix of a longer template.
///
/// # Examples
///
/// ```
/// use dna_seq::{distance::hamming, DnaSeq};
/// let a: DnaSeq = "ACGT".parse().unwrap();
/// let b: DnaSeq = "AGGA".parse().unwrap();
/// assert_eq!(hamming(a.as_slice(), b.as_slice()), 2);
/// ```
pub fn hamming(a: &[Base], b: &[Base]) -> usize {
    assert_eq!(
        a.len(),
        b.len(),
        "hamming distance requires equal lengths ({} vs {})",
        a.len(),
        b.len()
    );
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Hamming distance between `probe` and the equally long prefix of
/// `template`. Positions of `probe` beyond `template`'s end count as
/// mismatches.
///
/// This models primer-vs-strand annealing comparisons, where the primer is
/// matched against the 5' end of the template.
pub fn hamming_prefix(probe: &[Base], template: &[Base]) -> usize {
    let overlap = probe.len().min(template.len());
    let mismatches = probe[..overlap]
        .iter()
        .zip(&template[..overlap])
        .filter(|(x, y)| x != y)
        .count();
    mismatches + (probe.len() - overlap)
}

/// Hamming distance with early exit: returns `None` as soon as the distance
/// exceeds `bound`.
pub fn hamming_bounded(a: &[Base], b: &[Base], bound: usize) -> Option<usize> {
    assert_eq!(a.len(), b.len(), "hamming distance requires equal lengths");
    let mut d = 0;
    for (x, y) in a.iter().zip(b) {
        if x != y {
            d += 1;
            if d > bound {
                return None;
            }
        }
    }
    Some(d)
}

/// Levenshtein (edit) distance: minimum number of insertions, deletions and
/// substitutions converting `a` into `b`.
///
/// # Examples
///
/// ```
/// use dna_seq::{distance::levenshtein, DnaSeq};
/// let a: DnaSeq = "ACGT".parse().unwrap();
/// let b: DnaSeq = "AGT".parse().unwrap();
/// assert_eq!(levenshtein(a.as_slice(), b.as_slice()), 1);
/// ```
pub fn levenshtein(a: &[Base], b: &[Base]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Two-row dynamic program.
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &x) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &y) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(x != y);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Band cells kept on the stack by [`levenshtein_bounded`]: bounds up to
/// 32 (after clamping) never touch the allocator.
const STACK_BAND: usize = 2 * 32 + 1;

/// Banded Levenshtein distance with early exit: returns `None` if the
/// distance exceeds `bound`. Runs in `O(bound · max(|a|,|b|))`, which is what
/// makes clustering millions of reads tractable.
///
/// The band is a single row updated in place, kept on the stack for bounds
/// up to 32, and the scan stops at the first row whose every band cell
/// already exceeds `bound` (each alignment path crosses every row, and
/// costs never decrease along a path).
pub fn levenshtein_bounded(a: &[Base], b: &[Base], bound: usize) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    // No edit distance exceeds the longer length, so this clamp changes no
    // result; it keeps the band width `2·bound + 1` from overflowing.
    let bound = bound.min(n.max(m));
    if n.abs_diff(m) > bound {
        return None;
    }
    if n == 0 || m == 0 {
        return Some(n.max(m));
    }
    const BIG: usize = usize::MAX / 2;
    let width = 2 * bound + 1;
    let mut stack = [BIG; STACK_BAND];
    let mut heap = Vec::new();
    let row: &mut [usize] = if width <= STACK_BAND {
        &mut stack[..width]
    } else {
        heap.resize(width, BIG);
        &mut heap
    };
    // `row[j + bound - i]` holds cell (i, j); row i = 0 is `D(0, j) = j`.
    for (j, slot) in row[bound..].iter_mut().take(m + 1).enumerate() {
        *slot = j;
    }
    for i in 1..=n {
        let x = a[i - 1];
        let lo = i.saturating_sub(bound);
        let hi = (i + bound).min(m);
        let mut left = BIG; // cell (i, j - 1)
        let mut row_min = BIG;
        for j in lo..=hi {
            let k = j + bound - i;
            // Ascending k: row[k] still holds (i-1, j-1) and row[k + 1]
            // still holds (i-1, j).
            let cell = if j == 0 {
                i
            } else {
                let up = row.get(k + 1).copied().unwrap_or(BIG);
                (row[k] + usize::from(x != b[j - 1]))
                    .min(up + 1)
                    .min(left + 1)
            };
            row[k] = cell;
            left = cell;
            row_min = row_min.min(cell);
        }
        if row_min > bound {
            return None;
        }
    }
    let d = row[m + bound - n];
    (d <= bound).then_some(d)
}

/// Myers' bit-vector edit distance from one fixed pattern of at most
/// [`PrefixAligner::MAX_PATTERN`] bases to every prefix of a text.
///
/// Built once per pattern (a per-base match-mask table), it then reports
/// `levenshtein(pattern, &text[..j])` for **every** `j` in a single pass
/// of a few word operations per text base, allocating nothing. This is
/// the global-start form of the algorithm (G. Myers, JACM 1999; H. Hyyrö's
/// formulation): row 0 of the dynamic program is `D(0, j) = j`, which
/// enters as a horizontal +1 carried into the pattern's first bit at each
/// column. The window scans of the decode-time read filter, the
/// per-round demultiplexer and the simulator's annealing model all run on
/// it.
///
/// # Examples
///
/// ```
/// use dna_seq::distance::{levenshtein, PrefixAligner};
/// use dna_seq::DnaSeq;
/// let primer: DnaSeq = "ACGTAC".parse().unwrap();
/// let read: DnaSeq = "ACTACGGA".parse().unwrap();
/// let aligner = PrefixAligner::new(primer.as_slice());
/// let d: Vec<usize> = aligner.distances(read.iter()).collect();
/// assert_eq!(d.len(), read.len() + 1);
/// for (j, &dj) in d.iter().enumerate() {
///     assert_eq!(dj, levenshtein(primer.as_slice(), &read.as_slice()[..j]));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixAligner {
    /// `peq[c]` has bit `i` set iff `pattern[i]` has code `c`.
    peq: [u64; 4],
    len: usize,
}

impl PrefixAligner {
    /// Longest pattern the single-word kernel holds.
    pub const MAX_PATTERN: usize = 64;

    /// Builds the match-mask table for `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is longer than [`PrefixAligner::MAX_PATTERN`].
    pub fn new(pattern: &[Base]) -> PrefixAligner {
        assert!(
            pattern.len() <= Self::MAX_PATTERN,
            "pattern of {} bases exceeds the {}-base aligner word",
            pattern.len(),
            Self::MAX_PATTERN
        );
        let mut peq = [0u64; 4];
        for (i, &base) in pattern.iter().enumerate() {
            peq[usize::from(base.code())] |= 1 << i;
        }
        PrefixAligner {
            peq,
            len: pattern.len(),
        }
    }

    /// The pattern length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pattern is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Yields `levenshtein(pattern, &text[..j])` for `j = 0, 1, …,
    /// text.len()`, consuming one base of `text` per item after the first.
    /// `text` may be any base iterator, e.g. a read's tail reversed.
    pub fn distances<I: IntoIterator<Item = Base>>(&self, text: I) -> Distances<'_, I::IntoIter> {
        Distances {
            peq: &self.peq,
            high: if self.len == 0 {
                0
            } else {
                1 << (self.len - 1)
            },
            pv: !0,
            mv: 0,
            score: self.len,
            started: false,
            text: text.into_iter(),
        }
    }

    /// The window scan of primer matching: `(w, levenshtein(pattern,
    /// &text[..w]))` for every window length `w` within `slack` of the
    /// pattern length that `text` is long enough for, shortest first.
    pub fn windows<I: IntoIterator<Item = Base>>(
        &self,
        text: I,
        slack: usize,
    ) -> impl Iterator<Item = (usize, usize)> + use<'_, I> {
        self.distances(text)
            .enumerate()
            .take(self.len.saturating_add(slack).saturating_add(1))
            .skip(self.len.saturating_sub(slack))
    }
}

/// Iterator returned by [`PrefixAligner::distances`].
#[derive(Debug, Clone)]
pub struct Distances<'a, I> {
    peq: &'a [u64; 4],
    /// Bit of the pattern's last base (0 for an empty pattern).
    high: u64,
    /// Vertical +1 / −1 deltas of the current column.
    pv: u64,
    mv: u64,
    /// `D(len, j)` for the last column produced.
    score: usize,
    started: bool,
    text: I,
}

impl<I: Iterator<Item = Base>> Iterator for Distances<'_, I> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if !self.started {
            self.started = true;
            return Some(self.score);
        }
        let base = self.text.next()?;
        if self.high == 0 {
            self.score += 1;
            return Some(self.score);
        }
        let eq = self.peq[usize::from(base.code())];
        let (pv, mv) = (self.pv, self.mv);
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & self.high != 0 {
            self.score += 1;
        } else if mh & self.high != 0 {
            self.score -= 1;
        }
        // Global start: the row-0 horizontal delta is +1 at every column.
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        self.pv = mh | !(xv | ph);
        self.mv = ph & xv;
        Some(self.score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DnaSeq;

    fn s(text: &str) -> DnaSeq {
        text.parse().unwrap()
    }

    #[test]
    fn hamming_basic() {
        assert_eq!(hamming(s("ACGT").as_slice(), s("ACGT").as_slice()), 0);
        assert_eq!(hamming(s("AAAA").as_slice(), s("TTTT").as_slice()), 4);
        assert_eq!(hamming(s("").as_slice(), s("").as_slice()), 0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_panics_on_length_mismatch() {
        hamming(s("AC").as_slice(), s("ACG").as_slice());
    }

    #[test]
    fn hamming_prefix_counts_overhang() {
        assert_eq!(
            hamming_prefix(s("ACG").as_slice(), s("ACGTTT").as_slice()),
            0
        );
        assert_eq!(
            hamming_prefix(s("ACT").as_slice(), s("ACGTTT").as_slice()),
            1
        );
        assert_eq!(
            hamming_prefix(s("ACGTT").as_slice(), s("ACG").as_slice()),
            2
        );
    }

    #[test]
    fn hamming_bounded_early_exit() {
        assert_eq!(
            hamming_bounded(s("AAAA").as_slice(), s("AATA").as_slice(), 1),
            Some(1)
        );
        assert_eq!(
            hamming_bounded(s("AAAA").as_slice(), s("TTTT").as_slice(), 2),
            None
        );
    }

    #[test]
    fn levenshtein_textbook_cases() {
        assert_eq!(levenshtein(s("ACGT").as_slice(), s("ACGT").as_slice()), 0);
        assert_eq!(levenshtein(s("ACGT").as_slice(), s("AGT").as_slice()), 1);
        assert_eq!(levenshtein(s("").as_slice(), s("ACG").as_slice()), 3);
        assert_eq!(levenshtein(s("ACG").as_slice(), s("").as_slice()), 3);
        // classic: kitten/sitting analogue in DNA
        assert_eq!(
            levenshtein(s("ACGTACGT").as_slice(), s("AGTACGGT").as_slice()),
            2
        );
    }

    #[test]
    fn levenshtein_is_symmetric_and_triangle() {
        let seqs = [s("ACGT"), s("AGT"), s("TTTT"), s("ACGG"), s("")];
        for a in &seqs {
            for b in &seqs {
                let dab = levenshtein(a.as_slice(), b.as_slice());
                let dba = levenshtein(b.as_slice(), a.as_slice());
                assert_eq!(dab, dba);
                for c in &seqs {
                    let dac = levenshtein(a.as_slice(), c.as_slice());
                    let dcb = levenshtein(c.as_slice(), b.as_slice());
                    assert!(dab <= dac + dcb, "triangle inequality violated");
                }
            }
        }
    }

    #[test]
    fn bounded_levenshtein_accepts_an_unbounded_bound() {
        // `2 * bound + 1` used to overflow here; the clamp to the longer
        // length makes any bound at least that large exact.
        let a = s("ACGTACGTAC");
        let b = s("TTGTACGA");
        let full = levenshtein(a.as_slice(), b.as_slice());
        assert_eq!(
            levenshtein_bounded(a.as_slice(), b.as_slice(), usize::MAX),
            Some(full)
        );
        assert_eq!(levenshtein_bounded(a.as_slice(), &[], usize::MAX), Some(10));
        assert_eq!(levenshtein_bounded(&[], &[], usize::MAX), Some(0));
    }

    #[test]
    fn bounded_levenshtein_wide_bands_leave_the_stack() {
        // Bounds above 32 need more band cells than the stack row holds.
        let mut rng = crate::rng::DetRng::seed_from_u64(3);
        let mut random =
            |n: usize| DnaSeq::from_bases((0..n).map(|_| Base::from_code(rng.gen_range(4) as u8)));
        for (n, m) in [(90, 100), (100, 60), (70, 70)] {
            let (a, b) = (random(n), random(m));
            let full = levenshtein(a.as_slice(), b.as_slice());
            for bound in [32, 33, 40, full - 1, full, 200, usize::MAX] {
                let want = (full <= bound).then_some(full);
                assert_eq!(
                    levenshtein_bounded(a.as_slice(), b.as_slice(), bound),
                    want,
                    "{n}x{m} bound {bound}"
                );
            }
        }
    }

    #[test]
    fn empty_pattern_distances_count_the_prefix() {
        let aligner = PrefixAligner::new(&[]);
        let d: Vec<usize> = aligner.distances(s("ACG").iter()).collect();
        assert_eq!(d, vec![0, 1, 2, 3]);
        assert!(aligner.is_empty());
    }

    #[test]
    fn windows_stay_within_the_slack() {
        let aligner = PrefixAligner::new(s("ACGTA").as_slice());
        let text = s("ACGTACCC");
        let w: Vec<(usize, usize)> = aligner.windows(text.iter(), 2).collect();
        assert_eq!(w, vec![(3, 2), (4, 1), (5, 0), (6, 1), (7, 2)]);
        // A text shorter than the window range ends the scan early.
        let w: Vec<(usize, usize)> = aligner.windows(s("ACGT").iter(), 2).collect();
        assert_eq!(w, vec![(3, 2), (4, 1)]);
        assert_eq!(aligner.windows(s("AC").iter(), 2).count(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-base aligner word")]
    fn aligner_rejects_patterns_longer_than_a_word() {
        let _ = PrefixAligner::new(DnaSeq::from_bases([Base::A; 65]).as_slice());
    }

    #[test]
    fn bounded_levenshtein_agrees_with_full() {
        let pairs = [
            ("ACGTACGT", "ACGTACGT"),
            ("ACGTACGT", "ACGACGT"),
            ("ACGTACGT", "TCGTACGA"),
            ("AAAA", "TTTT"),
            ("ACGT", ""),
            ("", ""),
            ("ACGTAAGGTT", "CGTAAGGTTA"),
        ];
        for (x, y) in pairs {
            let a = s(x);
            let b = s(y);
            let full = levenshtein(a.as_slice(), b.as_slice());
            for bound in 0..=10 {
                let got = levenshtein_bounded(a.as_slice(), b.as_slice(), bound);
                if full <= bound {
                    assert_eq!(got, Some(full), "{x} vs {y} bound {bound}");
                } else {
                    assert_eq!(got, None, "{x} vs {y} bound {bound}");
                }
            }
        }
    }
}
