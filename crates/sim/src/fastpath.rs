//! The annealing fast path: cross-round binding caches.
//!
//! PCR cost is dominated by `O(species × primers × cycles)` calls into
//! [`AnnealModel::binding_site`] — a bit-parallel prefix alignment of every
//! primer against every species' 5' region (and, via reverse complement,
//! its 3' region). Every species in a partition tube carries the
//! partition's forward primer, so almost every pair needs its alignment
//! once; what this module removes is the repetition, in two layers, neither
//! of which changes any observable result:
//!
//! 1. **Binding-site cache** keyed by (species sequence, primer,
//!    orientation), thread-local, surviving across cycles *and* across
//!    reaction rounds — re-amplifying the same tube never re-aligns.
//! 2. **Probability memo** keyed by (primer, site geometry, temperature
//!    bits): `binding_probability` depends on the primer only through its
//!    melting temperature, so each (distance, 3'-distance, temperature)
//!    triple is computed once per primer.
//!
//! Both are pure-function memos: cached values equal what the model would
//! compute, so results are bit-identical regardless of cache state (pinned
//! by `tests/fastpath_equiv.rs`). Caches are thread-local — no locks, no
//! lock-rank interactions with the store — and self-limit their footprint
//! by clearing when over capacity.

use crate::anneal::{AnnealModel, BindingSite};
use crate::stats;
use dna_seq::DnaSeq;
use std::cell::RefCell;
use std::collections::HashMap;

/// Species entries kept per model cache before the species map is cleared.
const MAX_SPECIES_ENTRIES: usize = 8192;
/// Probability-memo entries kept before the memo is cleared.
const MAX_PROB_ENTRIES: usize = 65536;

/// Which strand region a primer is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Orientation {
    /// Primer vs the species' 5' prefix.
    Forward,
    /// Primer vs the reverse complement's 5' prefix (the species' 3' end).
    Reverse,
}

/// Cached per-species data: reverse complement and resolved binding sites
/// per primer.
struct SpeciesEntry {
    rc: DnaSeq,
    /// Binding-site results keyed by interned primer id.
    fwd_sites: HashMap<u32, Option<BindingSite>>,
    rc_sites: HashMap<u32, Option<BindingSite>>,
}

/// Caches for one [`AnnealModel`] (results depend on the model's
/// calibration, so each distinct model gets its own bank).
pub(crate) struct ModelCache {
    model: AnnealModel,
    primer_ids: HashMap<DnaSeq, u32>,
    primers: Vec<DnaSeq>,
    species: HashMap<DnaSeq, SpeciesEntry>,
    /// (primer_id, dist, three_prime_dist, temp bits) → probability.
    prob_memo: HashMap<(u32, u8, u8, u64), f64>,
}

impl ModelCache {
    fn new(model: AnnealModel) -> ModelCache {
        ModelCache {
            model,
            primer_ids: HashMap::new(),
            primers: Vec::new(),
            species: HashMap::new(),
            prob_memo: HashMap::new(),
        }
    }

    /// Interns a primer.
    pub(crate) fn intern_primer(&mut self, seq: &DnaSeq) -> u32 {
        if let Some(&id) = self.primer_ids.get(seq) {
            return id;
        }
        let id = self.primers.len() as u32;
        self.primer_ids.insert(seq.clone(), id);
        self.primers.push(seq.clone());
        id
    }

    /// Binding geometry of primer `id` against `seq` in the given
    /// orientation — cached.
    pub(crate) fn site(
        &mut self,
        seq: &DnaSeq,
        id: u32,
        orientation: Orientation,
    ) -> Option<BindingSite> {
        if self.species.len() >= MAX_SPECIES_ENTRIES && !self.species.contains_key(seq) {
            self.species.clear();
        }
        let entry = self
            .species
            .entry(seq.clone())
            .or_insert_with(|| SpeciesEntry {
                rc: seq.reverse_complement(),
                fwd_sites: HashMap::new(),
                rc_sites: HashMap::new(),
            });
        let (sites, target): (_, &DnaSeq) = match orientation {
            Orientation::Forward => (&mut entry.fwd_sites, seq),
            Orientation::Reverse => (&mut entry.rc_sites, &entry.rc),
        };
        if let Some(&cached) = sites.get(&id) {
            stats::record_binding_cache_hits(1);
            return cached;
        }
        stats::record_species_scanned(1);
        stats::record_anneal_calls(1);
        let result = self.model.binding_site(&self.primers[id as usize], target);
        sites.insert(id, result);
        result
    }

    /// Memoized [`AnnealModel::binding_probability`].
    pub(crate) fn probability(&mut self, id: u32, site: BindingSite, temp: f64) -> f64 {
        let key = (
            id,
            site.dist as u8,
            site.three_prime_dist as u8,
            temp.to_bits(),
        );
        if let Some(&p) = self.prob_memo.get(&key) {
            return p;
        }
        if self.prob_memo.len() >= MAX_PROB_ENTRIES {
            self.prob_memo.clear();
        }
        stats::record_anneal_calls(1);
        let p = self
            .model
            .binding_probability(&self.primers[id as usize], site, temp);
        self.prob_memo.insert(key, p);
        p
    }
}

thread_local! {
    static CACHE: RefCell<Vec<ModelCache>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's cache bank for `model` (created on first
/// use).
pub(crate) fn with_model_cache<R>(model: &AnnealModel, f: impl FnOnce(&mut ModelCache) -> R) -> R {
    CACHE.with(|cell| {
        let mut banks = cell.borrow_mut();
        let idx = match banks.iter().position(|b| b.model == *model) {
            Some(i) => i,
            None => {
                banks.push(ModelCache::new(*model));
                banks.len() - 1
            }
        };
        f(&mut banks[idx])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_seq::Base;

    fn balanced(n: usize, phase: usize) -> DnaSeq {
        DnaSeq::from_bases((0..n).map(|i| Base::from_code(((i + phase) % 4) as u8)))
    }

    #[test]
    fn cache_results_match_model_and_count_hits() {
        let model = AnnealModel::calibrated();
        let primer = balanced(20, 0);
        let mut strand = primer.clone();
        strand.extend_from_slice(balanced(50, 1).as_slice());
        // Genuinely unrelated species (periodic shifts of `balanced` are
        // within max_edit of each other, so use a homopolymer).
        let other = DnaSeq::from_bases((0..70).map(|_| Base::from_code(3)));
        with_model_cache(&model, |mc| {
            let id = mc.intern_primer(&primer);
            let before = stats::thread_totals();
            let s1 = mc.site(&strand, id, Orientation::Forward);
            assert_eq!(s1, model.binding_site(&primer, &strand));
            let s2 = mc.site(&strand, id, Orientation::Forward);
            assert_eq!(s2, s1);
            let d = stats::thread_totals().delta_since(&before);
            assert_eq!(d.binding_cache_hits, 1);
            assert_eq!(d.species_scanned, 1);
            // A non-binding species costs one alignment, then is a cache
            // hit; both lookups agree with the model's `None`.
            assert_eq!(model.binding_site(&primer, &other), None);
            let before = stats::thread_totals();
            assert_eq!(mc.site(&other, id, Orientation::Forward), None);
            let d = stats::thread_totals().delta_since(&before);
            assert_eq!(d.species_scanned, 1);
            assert_eq!(d.species_skipped, 0);
            let before = stats::thread_totals();
            assert_eq!(mc.site(&other, id, Orientation::Forward), None);
            let d = stats::thread_totals().delta_since(&before);
            assert_eq!(d.binding_cache_hits, 1);
            assert_eq!(d.species_scanned, 0);
            // Probability memo returns the exact model value.
            let site = s1.unwrap();
            let p1 = mc.probability(id, site, 55.0);
            assert_eq!(p1, model.binding_probability(&primer, site, 55.0));
            assert_eq!(mc.probability(id, site, 55.0), p1);
        });
    }
}
