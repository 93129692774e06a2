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

/// Banded Levenshtein distance with early exit: returns the distance when
/// it is at most `bound`, and `None` otherwise.
///
/// For `2·bound + 1 ≤ 64` (the store's bounds are 10, 5, 3 and 1) this is
/// H. Hyyrö's banded form of Myers' bit-vector algorithm (Hyyrö 2003,
/// Myers 1999): the `2·bound + 1` diagonals around the main one fit in one
/// `u64`, so each base of the longer sequence costs one word step of about
/// twenty operations instead of `2·bound + 1` dynamic-program cells, and
/// nothing is allocated. The cell on the diagonal that ends at the final
/// cell never decreases along the diagonal, so the scan stops at the first
/// base that pushes it past `bound`. Wider bands fall back to the full
/// [`levenshtein`] and a bound check.
pub fn levenshtein_bounded(a: &[Base], b: &[Base], bound: usize) -> Option<usize> {
    // Edit distance is symmetric: scan the longer sequence as the text.
    let (a, b) = if a.len() > b.len() { (b, a) } else { (a, b) };
    // No edit distance exceeds the longer length, so this clamp changes no
    // result; it keeps the band width `2·bound + 1` from overflowing.
    let bound = bound.min(b.len());
    if b.len() - a.len() > bound {
        return None;
    }
    if 2 * bound + 1 > 64 {
        let d = levenshtein(a, b);
        return (d <= bound).then_some(d);
    }
    banded_levenshtein(a, b, bound)
}

/// The single-word kernel of [`levenshtein_bounded`], for `a.len() ≤
/// b.len() ≤ a.len() + k` and `2k + 1 ≤ 64`.
///
/// Rows are `a`'s prefixes, columns `b`'s. At column `j`, bit `t` of every
/// vector is row `j − k + t`, so shifting the vectors right by one between
/// columns keeps each bit on its diagonal, and bit `2k` is the band's last
/// row. Every cell the word holds is at least `|r − j|` whatever its match
/// bits say, because column 0 starts at `D(r, 0) = |r|` and each step off
/// a diagonal costs 1. So only the band's rows `1..=a.len()` need true
/// match bits: the word's bits below the band are rows more than `k` off
/// the main diagonal and stay above `k`, rows above row 0 (`D(r, j) = j −
/// r`) keep row 0 at `D(0, j) = j` without a special case for the first
/// `k` columns, and rows past `a.len()` never reach the rows above them.
/// The delta entering above the band's top is 0, which no minimum takes
/// over its diagonal term.
fn banded_levenshtein(a: &[Base], b: &[Base], k: usize) -> Option<usize> {
    // `a`'s bases in the band as two bit planes, the low and the high bit of
    // each base code. At column 0 the band's rows are -k..=k.
    let (mut lo, mut hi) = (0u64, 0u64);
    for (r, &base) in a.iter().take(k).enumerate() {
        lo |= u64::from(base.code() & 1) << (k + 1 + r);
        hi |= u64::from(base.code() >> 1) << (k + 1 + r);
    }
    // Vertical deltas of column 0: -1 down to row 0, +1 below it.
    let mut vn = (1u64 << (k + 1)) - 1;
    let mut vp = !vn;
    // Bit of the diagonal that ends at (a.len(), b.len()), and the distance
    // of its cell at column 0, a row above row 0.
    let diag = k - (b.len() - a.len());
    let mut score = b.len() - a.len();
    let mut incoming = a.iter().skip(k);
    for &base in b {
        // The next column: the band drops its top row and gains one below.
        let next = incoming.next().map_or(0, |n| n.code());
        lo = (lo >> 1) | u64::from(next & 1) << (2 * k);
        hi = (hi >> 1) | u64::from(next >> 1) << (2 * k);
        vp >>= 1;
        vn >>= 1;
        // Bit `t` of `eq`: the row at bit `t` holds `base`.
        let code = base.code();
        let eq = !((lo ^ 0u64.wrapping_sub(u64::from(code & 1)))
            | (hi ^ 0u64.wrapping_sub(u64::from(code >> 1))));
        // Hyyrö's step: `d0` marks the cells equal to their diagonal
        // predecessor, so the tracked diagonal grows where it is clear.
        let d0 = ((eq & vp).wrapping_add(vp) ^ vp) | eq | vn;
        let hp = vn | !(d0 | vp);
        let hn = vp & d0;
        score += ((!d0 >> diag) & 1) as usize;
        if score > k {
            return None;
        }
        let (hp, hn) = (hp << 1, hn << 1);
        vp = hn | !(d0 | hp);
        vn = hp & d0;
    }
    Some(score)
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
/// column. The window scans of the decode-time read filter and the
/// simulator's annealing model run on it. The per-round read router runs
/// the same step transposed, on a [`LaneAligner`]: there the patterns are
/// reads' heads and the text is each decode job's prefix.
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

/// One column of a pattern's dynamic program (one lane of a [`Lanes`]):
/// the edit distance from every prefix of the pattern to the text consumed
/// so far, held as the column's vertical +1 / −1 deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    pv: u64,
    mv: u64,
    /// Text bases consumed: the distance at row 0.
    consumed: usize,
}

impl Column {
    /// `levenshtein(&pattern[..row], text)`, where `text` is the bases
    /// stepped in so far. `row` must not exceed the pattern length.
    #[inline]
    pub fn distance(&self, row: usize) -> usize {
        let mask = low_bits(row);
        self.consumed + (self.pv & mask).count_ones() as usize
            - (self.mv & mask).count_ones() as usize
    }

    /// A lower bound on [`Column::distance`] over the rows `lo..=hi`
    /// (`lo ≤ hi`): the distance at `lo` less the −1 deltas between `lo`
    /// and `hi`. A caller looking for a row within some tolerance can rule
    /// the whole range out with it before visiting any row.
    #[inline]
    pub fn lower_bound(&self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        // The +1 deltas below `lo`, less every −1 delta below `hi`.
        (self.consumed + (self.pv & low_bits(lo)).count_ones() as usize)
            .saturating_sub((self.mv & low_bits(hi)).count_ones() as usize)
    }

    /// `(row, self.distance(row))` for every row in `lo..=hi`: one
    /// [`Column::distance`], then one vertical delta per row.
    #[inline]
    pub fn rows(&self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, usize)> + use<> {
        let (pv, mv) = (self.pv, self.mv);
        let mut d = self.distance(lo);
        (lo..=hi).map(move |row| {
            if row > lo {
                // Row `row - 1`'s delta leads into `row`.
                let bit = row - 1;
                d = d + ((pv >> bit) & 1) as usize - ((mv >> bit) & 1) as usize;
            }
            (row, d)
        })
    }
}

/// [`PrefixAligner`]s for `L` patterns stepped through one text in lock
/// step, one [`Lanes`] column per text base.
///
/// The lanes are independent, so a step is `L` copies of the same word
/// operations on `[u64; L]` arrays, which the compiler turns into vector
/// instructions, and whose latencies overlap where it cannot. Columns are
/// plain values: a caller can keep the column at a branch point of its
/// text and step several continuations on from it.
///
/// # Examples
///
/// ```
/// use dna_seq::distance::{levenshtein, LaneAligner};
/// use dna_seq::DnaSeq;
/// let reads: [DnaSeq; 2] = ["ACGTAC".parse().unwrap(), "AGTTC".parse().unwrap()];
/// let aligner = LaneAligner::new([reads[0].iter(), reads[1].iter()]);
/// let text: DnaSeq = "ACGTC".parse().unwrap();
/// let mut column = aligner.column();
/// for base in text.iter() {
///     column = aligner.step(column, base);
/// }
/// for (lane, read) in reads.iter().enumerate() {
///     for row in 0..=read.len() {
///         let d = levenshtein(&read.as_slice()[..row], text.as_slice());
///         assert_eq!(column.lane(lane).distance(row), d);
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneAligner<const L: usize> {
    /// `peq[c][l]` has bit `i` set iff lane `l`'s `pattern[i]` has code
    /// `c`.
    peq: [[u64; L]; 4],
}

impl<const L: usize> LaneAligner<L> {
    /// Builds the match masks of one pattern per lane. A pattern may be
    /// any base iterator, e.g. a read's tail reversed.
    ///
    /// # Panics
    ///
    /// Panics if a pattern is longer than [`PrefixAligner::MAX_PATTERN`].
    pub fn new<I: IntoIterator<Item = Base>>(patterns: [I; L]) -> LaneAligner<L> {
        let mut peq = [[0u64; L]; 4];
        for (lane, pattern) in patterns.into_iter().enumerate() {
            for (i, base) in pattern.into_iter().enumerate() {
                assert!(
                    i < PrefixAligner::MAX_PATTERN,
                    "pattern exceeds the {}-base aligner word",
                    PrefixAligner::MAX_PATTERN
                );
                peq[usize::from(base.code())][lane] |= 1 << i;
            }
        }
        LaneAligner { peq }
    }

    /// Column 0 of every lane's dynamic program, before any text base:
    /// `D(i, 0) = i` for every pattern row `i`.
    pub fn column(&self) -> Lanes<L> {
        Lanes {
            pv: [!0; L],
            mv: [0; L],
            consumed: 0,
        }
    }

    /// The columns after `column`, one text base `base` later.
    #[inline]
    pub fn step(&self, column: Lanes<L>, base: Base) -> Lanes<L> {
        let eq = &self.peq[usize::from(base.code())];
        let (mut pv, mut mv) = ([0; L], [0; L]);
        for lane in 0..L {
            (pv[lane], mv[lane], _, _) = myers_step(eq[lane], column.pv[lane], column.mv[lane]);
        }
        Lanes {
            pv,
            mv,
            consumed: column.consumed + 1,
        }
    }
}

/// One column of each lane of a [`LaneAligner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes<const L: usize> {
    pv: [u64; L],
    mv: [u64; L],
    consumed: usize,
}

impl<const L: usize> Lanes<L> {
    /// Lane `lane`'s column.
    #[inline]
    pub fn lane(&self, lane: usize) -> Column {
        Column {
            pv: self.pv[lane],
            mv: self.mv[lane],
            consumed: self.consumed,
        }
    }

    /// [`Column::lower_bound`] of every lane at once.
    #[inline]
    pub fn lower_bound(&self, lo: usize, hi: usize) -> [usize; L] {
        let (rises, falls) = (low_bits(lo), low_bits(hi));
        std::array::from_fn(|lane| {
            (self.consumed + (self.pv[lane] & rises).count_ones() as usize)
                .saturating_sub((self.mv[lane] & falls).count_ones() as usize)
        })
    }
}

/// The word with bits `0..n` set, for `n ≤ 64`.
#[inline]
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1 << n) - 1
    }
}

/// One column step of Myers' algorithm in global-start form, from the
/// match mask `eq` of the text base and the column's vertical deltas:
/// the next column's vertical deltas, then the horizontal deltas into it
/// before the shift, whose top bits move the last row's distance.
#[inline]
fn myers_step(eq: u64, pv: u64, mv: u64) -> (u64, u64, u64, u64) {
    let xv = eq | mv;
    let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
    let ph = mv | !(xh | pv);
    let mh = pv & xh;
    // Global start: the row-0 horizontal delta is +1 at every column.
    let (sph, smh) = ((ph << 1) | 1, mh << 1);
    (smh | !(xv | sph), sph & xv, ph, mh)
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
        let (pv, mv, ph, mh) = myers_step(self.peq[usize::from(base.code())], self.pv, self.mv);
        if ph & self.high != 0 {
            self.score += 1;
        } else if mh & self.high != 0 {
            self.score -= 1;
        }
        self.pv = pv;
        self.mv = mv;
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
    fn bounded_levenshtein_wide_bands_fall_back_to_the_full_distance() {
        // Bounds above 31 make the band wider than the kernel's word.
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
    fn bounded_levenshtein_is_exact_on_every_short_pair() {
        // Every sequence of up to 4 bases against every other, at every
        // bound up to one past the longest: covers the virtual rows above
        // row 0, the band edges and both argument orders exhaustively.
        let seqs: Vec<DnaSeq> = (0..=4u32)
            .flat_map(|len| {
                (0..4usize.pow(len)).map(move |code| {
                    DnaSeq::from_bases(
                        (0..len).map(|i| Base::from_code((code >> (2 * i)) as u8 & 3)),
                    )
                })
            })
            .collect();
        for a in &seqs {
            for b in &seqs {
                let full = levenshtein(a.as_slice(), b.as_slice());
                for bound in 0..=5 {
                    assert_eq!(
                        levenshtein_bounded(a.as_slice(), b.as_slice(), bound),
                        (full <= bound).then_some(full),
                        "{a} vs {b} bound {bound}"
                    );
                }
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
    fn lane_columns_hold_every_row_of_the_dynamic_program() {
        // Pattern lengths 0, 1 and 64 (every bit of the word) side by side
        // in the lanes, and a text stepped through a branch: the column
        // kept after a shared head serves two different continuations.
        let mut rng = crate::rng::DetRng::seed_from_u64(11);
        let mut random =
            |n: usize| DnaSeq::from_bases((0..n).map(|_| Base::from_code(rng.gen_range(4) as u8)));
        let patterns: [DnaSeq; 5] = [0, 1, 7, 33, 64].map(&mut random);
        let aligner = LaneAligner::new(patterns.each_ref().map(DnaSeq::iter));
        let head = random(9);
        let mut shared = aligner.column();
        for base in head.iter() {
            shared = aligner.step(shared, base);
        }
        for _ in 0..2 {
            let text = head.concat(&random(40));
            let mut column = shared;
            for j in head.len()..=text.len() {
                let lanes = column;
                for (lane, pattern) in patterns.iter().enumerate() {
                    let (n, column) = (pattern.len(), column.lane(lane));
                    let each: Vec<(usize, usize)> = (0..=n)
                        .map(|row| {
                            let d = levenshtein(&pattern.as_slice()[..row], &text.as_slice()[..j]);
                            (row, d)
                        })
                        .collect();
                    for lo in [0, n / 2, n] {
                        let rows: Vec<(usize, usize)> = column.rows(lo, n).collect();
                        assert_eq!(rows, each[lo..], "pattern {n} rows {lo}..={n} column {j}");
                        let min = each[lo..].iter().map(|&(_, d)| d).min().unwrap();
                        assert!(column.lower_bound(lo, n) <= min, "bound above the rows");
                        assert_eq!(column.lower_bound(lo, lo), each[lo].1, "one row");
                        assert_eq!(lanes.lower_bound(lo, n)[lane], column.lower_bound(lo, n));
                    }
                    for &(row, d) in &each {
                        assert_eq!(column.distance(row), d, "pattern {n} row {row} column {j}");
                    }
                }
                if let Some(base) = text.get(j) {
                    column = aligner.step(column, base);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-base aligner word")]
    fn aligner_rejects_patterns_longer_than_a_word() {
        let _ = PrefixAligner::new(DnaSeq::from_bases([Base::A; 65]).as_slice());
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-base aligner word")]
    fn lane_aligner_rejects_patterns_longer_than_a_word() {
        let _ = LaneAligner::new([[Base::A; 64].to_vec(), [Base::C; 65].to_vec()]);
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
