//! Owned DNA sequences.

use crate::error::ParseDnaError;
use crate::Base;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Index, Range, RangeFrom, RangeTo};
use std::str::FromStr;

/// An owned sequence of DNA [`Base`]s.
///
/// `DnaSeq` is the universal currency of the storage stack: primers, internal
/// addresses, payloads, whole synthesized strands and sequencer reads are all
/// `DnaSeq` values. It behaves like a small `Vec<Base>` with domain-specific
/// helpers (reverse complement, GC statistics, 2-bit packing).
///
/// # Examples
///
/// ```
/// use dna_seq::{Base, DnaSeq};
///
/// let mut s = DnaSeq::new();
/// s.push(Base::A);
/// s.push(Base::C);
/// assert_eq!(s.to_string(), "AC");
///
/// let t: DnaSeq = "GGT".parse().unwrap();
/// let joined = s.concat(&t);
/// assert_eq!(joined.to_string(), "ACGGT");
/// assert_eq!(joined.gc_fraction(), 0.6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaSeq {
    bases: Vec<Base>,
}

impl DnaSeq {
    /// Creates an empty sequence.
    pub fn new() -> DnaSeq {
        DnaSeq { bases: Vec::new() }
    }

    /// Creates an empty sequence with room for `capacity` bases.
    pub fn with_capacity(capacity: usize) -> DnaSeq {
        DnaSeq {
            bases: Vec::with_capacity(capacity),
        }
    }

    /// Builds a sequence from anything that yields bases.
    ///
    /// # Examples
    ///
    /// ```
    /// use dna_seq::{Base, DnaSeq};
    /// let s = DnaSeq::from_bases([Base::T, Base::A]);
    /// assert_eq!(s.to_string(), "TA");
    /// ```
    pub fn from_bases<I: IntoIterator<Item = Base>>(iter: I) -> DnaSeq {
        DnaSeq {
            bases: iter.into_iter().collect(),
        }
    }

    /// Number of bases in the sequence.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Returns `true` if the sequence contains no bases.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Appends a single base.
    pub fn push(&mut self, base: Base) {
        self.bases.push(base);
    }

    /// Removes and returns the last base, or `None` if empty.
    pub fn pop(&mut self) -> Option<Base> {
        self.bases.pop()
    }

    /// Appends all bases from `other`.
    pub fn extend_from_slice(&mut self, other: &[Base]) {
        self.bases.extend_from_slice(other);
    }

    /// Removes every base, keeping the allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.bases.clear();
    }

    /// A view of the bases as a slice.
    pub fn as_slice(&self) -> &[Base] {
        &self.bases
    }

    /// Returns the base at `i`, or `None` when out of bounds.
    pub fn get(&self, i: usize) -> Option<Base> {
        self.bases.get(i).copied()
    }

    /// Returns the last base, or `None` when empty.
    pub fn last(&self) -> Option<Base> {
        self.bases.last().copied()
    }

    /// Iterates over the bases by value.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        self.bases.iter().copied()
    }

    /// Returns a new sequence holding `self[range]`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn subseq(&self, range: Range<usize>) -> DnaSeq {
        DnaSeq {
            bases: self.bases[range].to_vec(),
        }
    }

    /// Returns the first `n` bases as a new sequence (the whole sequence if
    /// shorter than `n`).
    pub fn prefix(&self, n: usize) -> DnaSeq {
        let n = n.min(self.len());
        self.subseq(0..n)
    }

    /// How `self` orders against the concatenation of `head` and `tail`,
    /// without building it: `self.cmp(&head ++ tail)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dna_seq::DnaSeq;
    /// use std::cmp::Ordering;
    ///
    /// let s: DnaSeq = "ACGT".parse().unwrap();
    /// let (head, tail): (DnaSeq, DnaSeq) = ("AC".parse().unwrap(), "GA".parse().unwrap());
    /// assert_eq!(s.cmp_concat(head.as_slice(), tail.as_slice()), Ordering::Greater);
    /// assert_eq!(s.cmp_concat(s.as_slice(), &[]), Ordering::Equal);
    /// ```
    pub fn cmp_concat(&self, head: &[Base], tail: &[Base]) -> Ordering {
        let (h, t) = self.bases.split_at(self.len().min(head.len()));
        cmp_bases(h, head).then_with(|| cmp_bases(t, tail))
    }

    /// Returns `true` if `self` begins with `prefix`.
    pub fn starts_with(&self, prefix: &DnaSeq) -> bool {
        self.bases.starts_with(&prefix.bases)
    }

    /// Returns `true` if `self` ends with `suffix`.
    pub fn ends_with(&self, suffix: &DnaSeq) -> bool {
        self.bases.ends_with(&suffix.bases)
    }

    /// Returns a new sequence equal to `self` followed by `other`.
    pub fn concat(&self, other: &DnaSeq) -> DnaSeq {
        let mut bases = Vec::with_capacity(self.len() + other.len());
        bases.extend_from_slice(&self.bases);
        bases.extend_from_slice(&other.bases);
        DnaSeq { bases }
    }

    /// The base-wise Watson–Crick complement (no reversal).
    pub fn complement(&self) -> DnaSeq {
        DnaSeq {
            bases: self.bases.iter().map(|b| b.complement()).collect(),
        }
    }

    /// The reverse complement — the sequence of the opposite strand read
    /// 5'→3'. Reverse PCR primers bind as the reverse complement of the
    /// strand's tail.
    pub fn reverse_complement(&self) -> DnaSeq {
        DnaSeq {
            bases: self.bases.iter().rev().map(|b| b.complement()).collect(),
        }
    }

    /// Number of G or C bases.
    pub fn gc_count(&self) -> usize {
        self.bases.iter().filter(|b| b.is_gc()).count()
    }

    /// Fraction of G or C bases, in `[0, 1]`. Returns `0.0` for an empty
    /// sequence.
    pub fn gc_fraction(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.gc_count() as f64 / self.len() as f64
        }
    }

    /// Length of the longest homopolymer run (maximal stretch of one
    /// repeated base). Returns `0` for an empty sequence.
    ///
    /// The §4.3 index construction guarantees runs of at most 2 in every
    /// sparse index.
    pub fn max_homopolymer(&self) -> usize {
        let mut best = 0;
        let mut run = 0;
        let mut prev: Option<Base> = None;
        for b in self.iter() {
            if Some(b) == prev {
                run += 1;
            } else {
                run = 1;
                prev = Some(b);
            }
            best = best.max(run);
        }
        best
    }

    /// Packs the sequence into bytes at 2 bits per base, MSB first
    /// (4 bases per byte; the tail byte is zero-padded).
    ///
    /// This is the *unconstrained coding* of the paper (§2.1.1): maximum
    /// density, relying on randomization + ECC instead of constrained codes.
    ///
    /// # Examples
    ///
    /// ```
    /// use dna_seq::DnaSeq;
    /// let s: DnaSeq = "ACGT".parse().unwrap();
    /// assert_eq!(s.to_packed_bytes(), vec![0b00_01_10_11]);
    /// assert_eq!(DnaSeq::from_packed_bytes(&s.to_packed_bytes(), 4), s);
    /// ```
    pub fn to_packed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len().div_ceil(4));
        for chunk in self.bases.chunks(4) {
            let mut byte = 0u8;
            for (i, b) in chunk.iter().enumerate() {
                byte |= b.code() << (6 - 2 * i);
            }
            out.push(byte);
        }
        out
    }

    /// Unpacks `base_count` bases from 2-bit packed `bytes` (MSB first).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `base_count` bases.
    pub fn from_packed_bytes(bytes: &[u8], base_count: usize) -> DnaSeq {
        assert!(
            bytes.len() * 4 >= base_count,
            "need {} bytes for {} bases, got {}",
            base_count.div_ceil(4),
            base_count,
            bytes.len()
        );
        let mut bases = Vec::with_capacity(base_count);
        for i in 0..base_count {
            let byte = bytes[i / 4];
            let code = (byte >> (6 - 2 * (i % 4))) & 0b11;
            bases.push(Base::from_code(code));
        }
        DnaSeq { bases }
    }

    /// Finds the first occurrence of `needle` at or after `from`, returning
    /// its start offset.
    pub fn find(&self, needle: &DnaSeq, from: usize) -> Option<usize> {
        if needle.is_empty() || needle.len() > self.len() {
            return None;
        }
        (from..=self.len() - needle.len())
            .find(|&i| self.bases[i..i + needle.len()] == needle.bases[..])
    }
}

/// The derived order of the base vector: base by base (`A < C < G < T`),
/// and a sequence before every longer sequence it is a prefix of. Every
/// `BTreeMap` of species and every sorted product search pays for this
/// comparison, so it compares eight bases per step: a chunk's codes, packed
/// one per byte into a big-endian `u64`, order as integers exactly as the
/// chunk orders base by base.
impl Ord for DnaSeq {
    fn cmp(&self, other: &DnaSeq) -> Ordering {
        cmp_bases(&self.bases, &other.bases)
    }
}

impl PartialOrd for DnaSeq {
    fn partial_cmp(&self, other: &DnaSeq) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The slice order of `a` and `b`, eight bases per step.
fn cmp_bases(a: &[Base], b: &[Base]) -> Ordering {
    let words = a.len().min(b.len()) / 8 * 8;
    let (a_words, a_tail) = a.split_at(words);
    let (b_words, b_tail) = b.split_at(words);
    for (x, y) in a_words.chunks_exact(8).zip(b_words.chunks_exact(8)) {
        let (x, y) = (pack8(x), pack8(y));
        if x != y {
            return x.cmp(&y);
        }
    }
    a_tail.cmp(b_tail)
}

/// An eight-base chunk's codes as a big-endian word.
#[inline]
fn pack8(chunk: &[Base]) -> u64 {
    let chunk: &[Base; 8] = chunk.try_into().expect("an eight-base chunk");
    u64::from_be_bytes(chunk.map(Base::code))
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bases {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromStr for DnaSeq {
    type Err = ParseDnaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.chars().map(Base::from_char).collect()
    }
}

impl FromIterator<Base> for DnaSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        DnaSeq::from_bases(iter)
    }
}

impl Extend<Base> for DnaSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        self.bases.extend(iter);
    }
}

impl IntoIterator for DnaSeq {
    type Item = Base;
    type IntoIter = std::vec::IntoIter<Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.bases.into_iter()
    }
}

impl<'a> IntoIterator for &'a DnaSeq {
    type Item = &'a Base;
    type IntoIter = std::slice::Iter<'a, Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.bases.iter()
    }
}

impl AsRef<[Base]> for DnaSeq {
    fn as_ref(&self) -> &[Base] {
        &self.bases
    }
}

impl From<Vec<Base>> for DnaSeq {
    fn from(bases: Vec<Base>) -> Self {
        DnaSeq { bases }
    }
}

impl From<DnaSeq> for Vec<Base> {
    fn from(seq: DnaSeq) -> Self {
        seq.bases
    }
}

impl Index<usize> for DnaSeq {
    type Output = Base;

    fn index(&self, i: usize) -> &Base {
        &self.bases[i]
    }
}

impl Index<Range<usize>> for DnaSeq {
    type Output = [Base];

    fn index(&self, r: Range<usize>) -> &[Base] {
        &self.bases[r]
    }
}

impl Index<RangeFrom<usize>> for DnaSeq {
    type Output = [Base];

    fn index(&self, r: RangeFrom<usize>) -> &[Base] {
        &self.bases[r]
    }
}

impl Index<RangeTo<usize>> for DnaSeq {
    type Output = [Base];

    fn index(&self, r: RangeTo<usize>) -> &[Base] {
        &self.bases[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(s.to_string(), "ACGTACGT");
        assert_eq!(s.len(), 8);
        let lower: DnaSeq = "acgt".parse().unwrap();
        assert_eq!(lower.to_string(), "ACGT");
    }

    #[test]
    fn parse_rejects_invalid() {
        assert!("ACGU".parse::<DnaSeq>().is_err());
        assert_eq!("AXGT".parse::<DnaSeq>().unwrap_err().invalid_char(), 'X');
    }

    #[test]
    fn reverse_complement_matches_known_example() {
        let s: DnaSeq = "AACGTT".parse().unwrap();
        assert_eq!(s.reverse_complement().to_string(), "AACGTT"); // palindrome
        let t: DnaSeq = "ATGC".parse().unwrap();
        assert_eq!(t.reverse_complement().to_string(), "GCAT");
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s: DnaSeq = "ACGGTTACGGAT".parse().unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn gc_statistics() {
        let s: DnaSeq = "GGCC".parse().unwrap();
        assert_eq!(s.gc_count(), 4);
        assert_eq!(s.gc_fraction(), 1.0);
        let t: DnaSeq = "ATAT".parse().unwrap();
        assert_eq!(t.gc_fraction(), 0.0);
        assert_eq!(DnaSeq::new().gc_fraction(), 0.0);
    }

    #[test]
    fn homopolymer_runs() {
        assert_eq!(DnaSeq::new().max_homopolymer(), 0);
        let s: DnaSeq = "ACGT".parse().unwrap();
        assert_eq!(s.max_homopolymer(), 1);
        let t: DnaSeq = "AAATTTTG".parse().unwrap();
        assert_eq!(t.max_homopolymer(), 4);
        let u: DnaSeq = "GGGGG".parse().unwrap();
        assert_eq!(u.max_homopolymer(), 5);
    }

    #[test]
    fn packing_round_trips_unaligned_lengths() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 13] {
            let s = DnaSeq::from_bases((0..len).map(|i| Base::from_code((i % 4) as u8)));
            let packed = s.to_packed_bytes();
            assert_eq!(packed.len(), len.div_ceil(4));
            assert_eq!(DnaSeq::from_packed_bytes(&packed, len), s);
        }
    }

    #[test]
    fn find_locates_substring() {
        let s: DnaSeq = "AACGTACG".parse().unwrap();
        let needle: DnaSeq = "ACG".parse().unwrap();
        assert_eq!(s.find(&needle, 0), Some(1));
        assert_eq!(s.find(&needle, 2), Some(5));
        assert_eq!(s.find(&needle, 6), None);
        assert_eq!(s.find(&DnaSeq::new(), 0), None);
    }

    #[test]
    fn prefix_and_subseq() {
        let s: DnaSeq = "ACGTAC".parse().unwrap();
        assert_eq!(s.prefix(3).to_string(), "ACG");
        assert_eq!(s.prefix(99), s);
        assert_eq!(s.subseq(2..5).to_string(), "GTA");
        assert!(s.starts_with(&"ACG".parse().unwrap()));
        assert!(s.ends_with(&"TAC".parse().unwrap()));
        assert!(!s.starts_with(&"CG".parse().unwrap()));
    }

    #[test]
    fn concat_and_extend() {
        let a: DnaSeq = "AC".parse().unwrap();
        let b: DnaSeq = "GT".parse().unwrap();
        assert_eq!(a.concat(&b).to_string(), "ACGT");
        let mut c = a.clone();
        c.extend(b.iter());
        assert_eq!(c.to_string(), "ACGT");
    }
}
