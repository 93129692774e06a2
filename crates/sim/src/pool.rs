//! DNA pools: the in-silico test tube.

use crate::molecule::StrandTag;
use dna_seq::DnaSeq;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide epoch counter. Epoch 0 is reserved for empty pools; every
/// mutation stamps the pool with a fresh, never-reused value, so two pools
/// sharing an epoch are guaranteed content-identical (clones share the
/// epoch until one of them is mutated).
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// One distinct sequence in a pool, with its copy count.
///
/// Copy counts are `f64` expected values: PCR dynamics evolve them
/// deterministically, and stochasticity enters only where it matters — the
/// sequencer samples integer reads from the abundance distribution. This
/// keeps simulations smooth, fast and exactly reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct Species {
    /// Expected number of physical copies in the tube.
    pub abundance: f64,
    /// Ground-truth tag (carried from the molecule that created the species).
    pub tag: Option<StrandTag>,
}

/// A test tube: a set of distinct sequences with abundances.
///
/// Backed by a `BTreeMap` so iteration order — and therefore every
/// simulation consuming it — is deterministic.
///
/// # Examples
///
/// ```
/// use dna_sim::Pool;
///
/// let mut pool = Pool::new();
/// pool.add("ACGT".parse().unwrap(), 100.0, None);
/// pool.add("ACGT".parse().unwrap(), 50.0, None); // merges
/// assert_eq!(pool.distinct(), 1);
/// assert_eq!(pool.total_copies(), 150.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pool {
    species: BTreeMap<DnaSeq, Species>,
    /// Content-version stamp (see [`Pool::epoch`]). Not part of equality —
    /// two pools built along different mutation histories still compare
    /// equal if they hold the same species.
    epoch: u64,
}

impl PartialEq for Pool {
    fn eq(&self, other: &Pool) -> bool {
        self.species == other.species
    }
}

impl Pool {
    /// Creates an empty pool.
    pub fn new() -> Pool {
        Pool::default()
    }

    /// Adds `abundance` copies of `seq`. Merges with an existing species of
    /// the same sequence (keeping the existing tag).
    pub fn add(&mut self, seq: DnaSeq, abundance: f64, tag: Option<StrandTag>) {
        assert!(abundance >= 0.0, "abundance must be non-negative");
        self.species
            .entry(seq)
            .and_modify(|s| s.abundance += abundance)
            .or_insert(Species { abundance, tag });
        self.epoch = fresh_epoch();
    }

    /// Content-version stamp for cache invalidation. Epoch 0 means "empty,
    /// never mutated"; every mutating call (`add`, `mix_in`, `retire_where`,
    /// `extend`) stamps a fresh process-unique value, and constructors
    /// (`scaled`, `filtered`, `mixed_with`) return pools with fresh stamps.
    /// Clones keep the source's epoch until they are themselves mutated, so
    /// `a.epoch() == b.epoch()` implies `a == b` — safe to key derived data
    /// (cumulative weight tables, annealing candidate sets) on the epoch
    /// alone. The stamp is transient: it is not part of `PartialEq` and is
    /// never persisted.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A pool of `species` given in ascending sequence order, built in
    /// one pass — the PCR fast path's output, whose final abundances are
    /// computed out-of-pool.
    pub(crate) fn from_sorted(species: impl IntoIterator<Item = (DnaSeq, Species)>) -> Pool {
        Pool {
            species: species.into_iter().collect(),
            epoch: fresh_epoch(),
        }
    }

    /// Number of distinct sequences.
    pub fn distinct(&self) -> usize {
        self.species.len()
    }

    /// `true` if the pool holds nothing.
    pub fn is_empty(&self) -> bool {
        self.species.is_empty()
    }

    /// Total copies across all species.
    pub fn total_copies(&self) -> f64 {
        self.species.values().map(|s| s.abundance).sum()
    }

    /// Mean copies per distinct species (the "per-oligo concentration" that
    /// the §6.4.2 mixing protocols equalize). Zero for an empty pool.
    pub fn mean_abundance(&self) -> f64 {
        if self.species.is_empty() {
            0.0
        } else {
            self.total_copies() / self.species.len() as f64
        }
    }

    /// Iterates over `(sequence, species)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&DnaSeq, &Species)> {
        self.species.iter()
    }

    /// Looks up a species by exact sequence.
    pub fn get(&self, seq: &DnaSeq) -> Option<&Species> {
        self.species.get(seq)
    }

    /// Returns a copy of this pool with all abundances multiplied by
    /// `factor` (dilution for `factor < 1`).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative.
    pub fn scaled(&self, factor: f64) -> Pool {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        let mut out = self.clone();
        for s in out.species.values_mut() {
            s.abundance *= factor;
        }
        out.epoch = fresh_epoch();
        out
    }

    /// Mixes two pools (after independent dilutions) into a new tube.
    pub fn mixed_with(&self, other: &Pool, self_scale: f64, other_scale: f64) -> Pool {
        let mut out = self.scaled(self_scale);
        out.mix_in(other, 1.0, other_scale);
        out
    }

    /// Mixes `other` into this tube *in place* (after independent
    /// dilutions): the write-path primitive. Unlike
    /// [`Pool::mixed_with`], no copy of the existing species map is made —
    /// a synthesis batch of `k` designs lands in a tube of `n` species in
    /// `O(k log n)` instead of `O(n + k log n)`, which is what keeps
    /// sustained update traffic from re-cloning the archival tube on every
    /// write.
    ///
    /// # Panics
    ///
    /// Panics if either scale factor is negative.
    pub fn mix_in(&mut self, other: &Pool, self_scale: f64, other_scale: f64) {
        assert!(self_scale >= 0.0, "scale factor must be non-negative");
        assert!(other_scale >= 0.0, "scale factor must be non-negative");
        if self_scale != 1.0 {
            for s in self.species.values_mut() {
                s.abundance *= self_scale;
            }
        }
        for (seq, s) in other.iter() {
            self.add(seq.clone(), s.abundance * other_scale, s.tag);
        }
        self.epoch = fresh_epoch();
    }

    /// Removes species below `min_abundance` (wash/cleanup steps).
    pub fn filtered(&self, min_abundance: f64) -> Pool {
        Pool {
            species: self
                .species
                .iter()
                .filter(|(_, s)| s.abundance >= min_abundance)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            epoch: fresh_epoch(),
        }
    }

    /// Removes every species whose ground-truth tag satisfies `pred` —
    /// the degradation-style retirement hook used by compaction: stale
    /// version/overflow/log molecules are withdrawn from the archival tube
    /// (selective degradation of superseded strands, as in rewritable
    /// DNA-storage systems) before their re-synthesized replacements are
    /// mixed in. Untagged species are never retired (their provenance is
    /// unknown). Returns the number of distinct species removed.
    pub fn retire_where(&mut self, mut pred: impl FnMut(&StrandTag) -> bool) -> usize {
        let before = self.species.len();
        self.species
            .retain(|_, s| !s.tag.as_ref().is_some_and(&mut pred));
        self.epoch = fresh_epoch();
        before - self.species.len()
    }

    /// Sums abundance per block unit (tag-based ground truth): the Fig. 9
    /// histograms before sequencing.
    pub fn abundance_by_unit(&self) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for (_, s) in self.iter() {
            if let Some(tag) = s.tag {
                *out.entry(tag.unit).or_insert(0.0) += s.abundance;
            }
        }
        out
    }
}

impl Extend<(DnaSeq, Species)> for Pool {
    fn extend<I: IntoIterator<Item = (DnaSeq, Species)>>(&mut self, iter: I) {
        for (seq, s) in iter {
            self.add(seq, s.abundance, s.tag);
        }
    }
}

impl FromIterator<(DnaSeq, Species)> for Pool {
    fn from_iter<I: IntoIterator<Item = (DnaSeq, Species)>>(iter: I) -> Pool {
        let mut pool = Pool::new();
        pool.extend(iter);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecule::StrandTag;

    fn seq(text: &str) -> DnaSeq {
        text.parse().unwrap()
    }

    #[test]
    fn add_merges_same_sequence() {
        let mut pool = Pool::new();
        pool.add(seq("AAAA"), 10.0, Some(StrandTag::new(1, 2, 0, 0)));
        pool.add(seq("AAAA"), 5.0, None);
        pool.add(seq("CCCC"), 1.0, None);
        assert_eq!(pool.distinct(), 2);
        assert_eq!(pool.get(&seq("AAAA")).unwrap().abundance, 15.0);
        // first tag wins on merge
        assert!(pool.get(&seq("AAAA")).unwrap().tag.is_some());
    }

    #[test]
    fn scaling_and_mixing() {
        let mut a = Pool::new();
        a.add(seq("AAAA"), 100.0, None);
        let mut b = Pool::new();
        b.add(seq("CCCC"), 1000.0, None);
        b.add(seq("AAAA"), 10.0, None);
        let mix = a.mixed_with(&b, 1.0, 0.1);
        assert_eq!(mix.total_copies(), 100.0 + 100.0 + 1.0);
        assert_eq!(mix.get(&seq("AAAA")).unwrap().abundance, 101.0);
        let diluted = mix.scaled(0.5);
        assert!((diluted.total_copies() - 100.5).abs() < 1e-9);
    }

    #[test]
    fn mean_abundance() {
        let mut pool = Pool::new();
        assert_eq!(pool.mean_abundance(), 0.0);
        pool.add(seq("AAAA"), 10.0, None);
        pool.add(seq("CCCC"), 30.0, None);
        assert_eq!(pool.mean_abundance(), 20.0);
    }

    #[test]
    fn filtering_removes_trace_species() {
        let mut pool = Pool::new();
        pool.add(seq("AAAA"), 100.0, None);
        pool.add(seq("CCCC"), 0.001, None);
        let clean = pool.filtered(1.0);
        assert_eq!(clean.distinct(), 1);
    }

    #[test]
    fn abundance_by_unit_aggregates_tags() {
        let mut pool = Pool::new();
        pool.add(seq("AAAA"), 10.0, Some(StrandTag::new(13, 531, 0, 0)));
        pool.add(seq("CCCC"), 20.0, Some(StrandTag::new(13, 531, 1, 0)));
        pool.add(seq("GGGG"), 5.0, Some(StrandTag::new(13, 144, 0, 0)));
        pool.add(seq("TTTT"), 1.0, None);
        let by_unit = pool.abundance_by_unit();
        assert_eq!(by_unit[&531], 30.0);
        assert_eq!(by_unit[&144], 5.0);
        assert_eq!(by_unit.len(), 2);
    }

    #[test]
    fn epoch_tracks_content_changes() {
        let empty = Pool::new();
        assert_eq!(empty.epoch(), 0);
        let mut pool = Pool::new();
        pool.add(seq("AAAA"), 10.0, None);
        let e1 = pool.epoch();
        assert_ne!(e1, 0);
        // Clones share the epoch (content-identical) until mutated.
        let mut clone = pool.clone();
        assert_eq!(clone.epoch(), e1);
        clone.add(seq("CCCC"), 1.0, None);
        assert_ne!(clone.epoch(), e1);
        assert_eq!(pool.epoch(), e1);
        // Equality ignores the epoch.
        let mut rebuilt = Pool::new();
        rebuilt.add(seq("AAAA"), 10.0, None);
        assert_ne!(rebuilt.epoch(), pool.epoch());
        assert_eq!(rebuilt, pool);
        // Derived pools get fresh stamps.
        assert_ne!(pool.scaled(1.0).epoch(), pool.epoch());
        assert_ne!(pool.filtered(0.0).epoch(), pool.epoch());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_abundance_panics() {
        Pool::new().add(seq("AAAA"), -1.0, None);
    }

    #[test]
    fn mix_in_matches_mixed_with() {
        let mut a = Pool::new();
        a.add(seq("AAAA"), 100.0, Some(StrandTag::new(1, 0, 0, 0)));
        a.add(seq("GGGG"), 40.0, None);
        let mut b = Pool::new();
        b.add(seq("CCCC"), 1000.0, None);
        b.add(seq("AAAA"), 10.0, None);
        let reference = a.mixed_with(&b, 0.5, 0.1);
        let mut in_place = a.clone();
        in_place.mix_in(&b, 0.5, 0.1);
        assert_eq!(in_place, reference);
        // Identity self-scale takes the no-rescale fast path.
        let reference = a.mixed_with(&b, 1.0, 2.0);
        a.mix_in(&b, 1.0, 2.0);
        assert_eq!(a, reference);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn mix_in_rejects_negative_scale() {
        Pool::new().mix_in(&Pool::new(), -1.0, 1.0);
    }

    #[test]
    fn retire_where_removes_matching_tagged_species_only() {
        let mut pool = Pool::new();
        pool.add(seq("AAAA"), 10.0, Some(StrandTag::new(3, 531, 1, 0)));
        pool.add(seq("CCCC"), 20.0, Some(StrandTag::new(3, 531, 0, 0)));
        pool.add(seq("GGGG"), 5.0, Some(StrandTag::new(4, 531, 1, 0)));
        pool.add(seq("TTTT"), 1.0, None);
        // Retire partition 3's stale version-1 molecules.
        let removed = pool.retire_where(|t| t.partition == 3 && t.version > 0);
        assert_eq!(removed, 1);
        assert!(pool.get(&seq("AAAA")).is_none());
        // Same unit, version 0: untouched. Other partition: untouched.
        assert!(pool.get(&seq("CCCC")).is_some());
        assert!(pool.get(&seq("GGGG")).is_some());
        // Untagged species survive any predicate.
        let removed = pool.retire_where(|_| true);
        assert_eq!(removed, 2);
        assert_eq!(pool.distinct(), 1);
        assert!(pool.get(&seq("TTTT")).is_some());
    }
}
