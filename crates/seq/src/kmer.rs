//! Packed k-mer utilities.
//!
//! Read clustering (Rashtchian et al. style, used in §6.6 of the paper) needs
//! cheap similarity signatures before paying for edit-distance comparisons.
//! We pack k-mers (k ≤ 32) into `u64`s and expose iteration plus a MinHash
//! signature.

use crate::{Base, DnaSeq};

/// A k-mer packed into a `u64` at 2 bits per base (first base in the most
/// significant position of the used bits).
///
/// # Examples
///
/// ```
/// use dna_seq::{kmer::Kmer, DnaSeq};
/// let s: DnaSeq = "ACGT".parse().unwrap();
/// let k = Kmer::from_bases(s.as_slice()).unwrap();
/// assert_eq!(k.k(), 4);
/// assert_eq!(k.to_seq().to_string(), "ACGT");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Kmer {
    packed: u64,
    k: u8,
}

impl Kmer {
    /// Packs `bases` into a k-mer.
    ///
    /// Returns `None` if `bases` is empty or longer than 32.
    pub fn from_bases(bases: &[Base]) -> Option<Kmer> {
        if bases.is_empty() || bases.len() > 32 {
            return None;
        }
        let mut packed = 0u64;
        for &b in bases {
            packed = (packed << 2) | u64::from(b.code());
        }
        Some(Kmer {
            packed,
            k: bases.len() as u8,
        })
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        usize::from(self.k)
    }

    /// The raw packed value (low `2k` bits).
    pub fn packed(&self) -> u64 {
        self.packed
    }

    /// Unpacks the k-mer back into a sequence.
    pub fn to_seq(&self) -> DnaSeq {
        let mut seq = DnaSeq::with_capacity(self.k());
        for i in (0..self.k()).rev() {
            seq.push(Base::from_code(((self.packed >> (2 * i)) & 0b11) as u8));
        }
        seq
    }
}

/// Iterates over all overlapping k-mers of a sequence.
///
/// Yields nothing if the sequence is shorter than `k` or `k` is 0 or > 32.
/// One packed k-mer rolls along the sequence: each step shifts in the next
/// base and masks off the one leaving the window.
pub fn kmers(seq: &DnaSeq, k: usize) -> impl Iterator<Item = Kmer> + '_ {
    let valid = (1..=32).contains(&k) && seq.len() >= k;
    let (bases, mask) = if valid {
        (seq.as_slice(), u64::MAX >> (64 - 2 * k))
    } else {
        (&[][..], 0)
    };
    let mut packed = 0u64;
    bases.iter().enumerate().filter_map(move |(i, &b)| {
        packed = ((packed << 2) | u64::from(b.code())) & mask;
        (i + 1 >= k).then_some(Kmer { packed, k: k as u8 })
    })
}

/// A fixed-width MinHash signature over a sequence's k-mer set.
///
/// Two reads from the same original strand share most k-mers even after
/// indel noise, so their signatures collide in many slots; reads from
/// different strands rarely do. The clustering pipeline buckets on signature
/// slots before confirming with bounded edit distance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MinHashSignature {
    slots: Vec<u64>,
}

impl MinHashSignature {
    /// Computes a `num_slots`-wide MinHash over the `k`-mers of `seq`.
    ///
    /// An empty k-mer set yields all-`u64::MAX` slots.
    pub fn new(seq: &DnaSeq, k: usize, num_slots: usize) -> MinHashSignature {
        let mut slots = vec![u64::MAX; num_slots];
        for km in kmers(seq, k) {
            for (i, slot) in slots.iter_mut().enumerate() {
                let h = mix(km.packed() ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)));
                if h < *slot {
                    *slot = h;
                }
            }
        }
        MinHashSignature { slots }
    }

    /// The signature slots.
    pub fn slots(&self) -> &[u64] {
        &self.slots
    }

    /// Fraction of matching slots with `other` (an estimate of k-mer set
    /// Jaccard similarity).
    ///
    /// # Panics
    ///
    /// Panics if the signatures have different widths.
    pub fn similarity(&self, other: &MinHashSignature) -> f64 {
        assert_eq!(
            self.slots.len(),
            other.slots.len(),
            "signature widths differ"
        );
        if self.slots.is_empty() {
            return 0.0;
        }
        let matches = self
            .slots
            .iter()
            .zip(&other.slots)
            .filter(|(a, b)| a == b)
            .count();
        matches as f64 / self.slots.len() as f64
    }
}

/// SplitMix64-style avalanche hash.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> DnaSeq {
        text.parse().unwrap()
    }

    #[test]
    fn kmer_round_trip() {
        for text in [
            "A",
            "ACGT",
            "TTTTGGGGCCCCAAAA",
            "ACGTACGTACGTACGTACGTACGTACGTACGT",
        ] {
            let seq = s(text);
            let k = Kmer::from_bases(seq.as_slice()).unwrap();
            assert_eq!(k.to_seq(), seq);
        }
    }

    #[test]
    fn kmer_rejects_bad_lengths() {
        assert!(Kmer::from_bases(&[]).is_none());
        let long = s("ACGTACGTACGTACGTACGTACGTACGTACGTA"); // 33
        assert!(Kmer::from_bases(long.as_slice()).is_none());
    }

    #[test]
    fn kmer_iteration_counts() {
        let seq = s("ACGTAC");
        assert_eq!(kmers(&seq, 3).count(), 4);
        assert_eq!(kmers(&seq, 6).count(), 1);
        assert_eq!(kmers(&seq, 7).count(), 0);
        assert_eq!(kmers(&seq, 0).count(), 0);
        let all: Vec<String> = kmers(&seq, 3).map(|k| k.to_seq().to_string()).collect();
        assert_eq!(all, ["ACG", "CGT", "GTA", "TAC"]);
    }

    #[test]
    fn rolling_kmers_equal_packed_windows() {
        let seq = s("ACGTTGCAACGGTACCATGCATGCAAGTCCGATTACAGGATC");
        for k in [1, 2, 7, 8, 31, 32] {
            let windows: Vec<Kmer> = seq
                .as_slice()
                .windows(k)
                .map(|w| Kmer::from_bases(w).unwrap())
                .collect();
            assert_eq!(kmers(&seq, k).collect::<Vec<_>>(), windows, "k = {k}");
        }
        assert_eq!(kmers(&seq, 33).count(), 0);
    }

    #[test]
    fn minhash_slot_values_are_pinned() {
        // Clustering buckets reads on these exact values: a change to the
        // k-mer packing or the slot hash changes which candidates it finds.
        let sig = MinHashSignature::new(&s("ACGTTGCAACGGTACCATGCATGCAAGTCCGATTACAGGATC"), 8, 8);
        assert_eq!(
            sig.slots(),
            [
                1091084808591985392,
                105477243930055813,
                56400056551686456,
                1193049212026698477,
                89591771130848758,
                121766438178104654,
                146752891114086963,
                1299190338380052102,
            ]
        );
    }

    #[test]
    fn minhash_identical_sequences_match_fully() {
        let a = MinHashSignature::new(&s("ACGTACGTACGTGGTT"), 5, 16);
        let b = MinHashSignature::new(&s("ACGTACGTACGTGGTT"), 5, 16);
        assert_eq!(a.similarity(&b), 1.0);
    }

    #[test]
    fn minhash_similar_beats_dissimilar() {
        let orig = s("ACGTACGTACGTGGTTACGGATCCGATCGGAT");
        // one substitution
        let close = s("ACGTACGTACGTGGTTACGGATCCGATCGGAA");
        let far = s("TTGACCGGTTAACCGGTTAACCGGTTAACCGG");
        let so = MinHashSignature::new(&orig, 6, 32);
        let sc = MinHashSignature::new(&close, 6, 32);
        let sf = MinHashSignature::new(&far, 6, 32);
        assert!(so.similarity(&sc) > so.similarity(&sf));
        assert!(so.similarity(&sc) > 0.5);
    }
}
