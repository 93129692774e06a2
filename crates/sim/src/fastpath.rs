//! Per-reaction annealing tables.
//!
//! PCR cost is dominated by calls into [`AnnealModel::binding_site`] — a
//! bit-parallel prefix alignment of each primer against a species' 5'
//! region, and of each reverse primer against its 3' region. The
//! alignment reads only the first `primer.len() + max_edit` bases of a
//! site, and in a partition tube those windows repeat: every strand ends
//! with the same reverse-primer site, and the mispriming products
//! `P + template[|P|..]` collapse onto a few forward windows. So
//! [`AnnealTables`] resolves each (primer, window) pair once per
//! reaction:
//!
//! 1. **Binding memo** keyed by (primer index, the site window the aligner
//!    reads): for a forward primer `p` the window is
//!    `seq[..min(len, p.len() + max_edit)]`; for a reverse primer `r` it is
//!    the reverse complement of the last `min(len, r.len() + max_edit)`
//!    bases. The memo keys that tail as it stands on the strand (the two
//!    determine each other), so a hit builds no reverse complement at all;
//!    a miss builds one of the window alone.
//! 2. **Probability table** indexed by (primer, dist, 3'-dist, distinct
//!    temperature): `binding_probability` is a pure function of those, so
//!    each entry is computed once per reaction.
//!
//! The tables live for one reaction and start empty, so a reaction's cost
//! does not depend on which thread ran it or what ran before. Both are
//! pure-function memos: every value equals what the model computes, so
//! results are bit-identical to the dense engine (pinned by
//! `tests/fastpath_equiv.rs`).

use crate::anneal::{AnnealModel, BindingSite};
use crate::stats;
use dna_seq::DnaSeq;
use std::collections::HashMap;

/// One primer's binding memo: site window → geometry.
struct SiteMemo<'a> {
    primer: &'a DnaSeq,
    /// Site bases the aligner reads: `primer.len() + max_edit`.
    window: usize,
    /// Whether the primer binds the strand's 3' end, i.e. aligns against
    /// the reverse complement of the strand's last `window` bases.
    reverse: bool,
    /// Keyed by the window's base codes as they stand on the strand.
    sites: HashMap<Vec<u8>, Option<BindingSite>>,
}

/// Annealing tables for one reaction. Primers are addressed by slot: the
/// forward primers (flattened across channels) first, then each
/// channel's reverse primer.
pub(crate) struct AnnealTables<'a> {
    model: &'a AnnealModel,
    memos: Vec<SiteMemo<'a>>,
    /// Memo key of the current window (reused buffer).
    key: Vec<u8>,
    /// The protocol's distinct temperatures, and each cycle's index into
    /// them.
    temps: Vec<f64>,
    cycle_temp: Vec<usize>,
    /// Lengths of the probability table's `dist` and 3'-dist axes.
    dists: usize,
    tails: usize,
    /// `(slot, temperature, dist, 3'-dist)` → probability.
    prob: Vec<Option<f64>>,
}

impl<'a> AnnealTables<'a> {
    /// Empty tables for forward primers `fwd`, reverse primers `rev` and
    /// the per-cycle temperatures `temps`.
    pub(crate) fn new(
        model: &'a AnnealModel,
        fwd: impl IntoIterator<Item = &'a DnaSeq>,
        rev: impl IntoIterator<Item = &'a DnaSeq>,
        temps: &[f64],
    ) -> AnnealTables<'a> {
        let fwd = fwd.into_iter().map(|p| (p, false));
        let memos: Vec<SiteMemo<'a>> = fwd
            .chain(rev.into_iter().map(|p| (p, true)))
            .map(|(primer, reverse)| SiteMemo {
                primer,
                window: primer.len().saturating_add(model.max_edit),
                reverse,
                sites: HashMap::new(),
            })
            .collect();
        let mut distinct: Vec<f64> = Vec::new();
        let mut cycle_temp = Vec::with_capacity(temps.len());
        for t in temps {
            let i = distinct.iter().position(|d| d.to_bits() == t.to_bits());
            cycle_temp.push(i.unwrap_or_else(|| {
                distinct.push(*t);
                distinct.len() - 1
            }));
        }
        // A best site is never farther than the primer is long (the
        // window of the primer's own length costs at most that), and the
        // 3'-distance is capped by the 3' window and the primer length.
        let longest = memos.iter().map(|m| m.primer.len()).max().unwrap_or(0);
        let dists = model.max_edit.min(longest) + 1;
        let tails = model.three_prime_window.min(longest) + 1;
        AnnealTables {
            model,
            prob: vec![None; memos.len() * distinct.len() * dists * tails],
            memos,
            key: Vec::new(),
            temps: distinct,
            cycle_temp,
            dists,
            tails,
        }
    }

    /// Binding geometry of the primer in `slot` on `seq`: at its 5' end
    /// for a forward primer, at its 3' end for a reverse primer. Aligned
    /// once per distinct window.
    pub(crate) fn site(&mut self, slot: usize, seq: &DnaSeq) -> Option<BindingSite> {
        let memo = &mut self.memos[slot];
        let s = seq.as_slice();
        let n = s.len().min(memo.window);
        let window = if memo.reverse {
            &s[s.len() - n..]
        } else {
            &s[..n]
        };
        self.key.clear();
        self.key.extend(window.iter().map(|b| b.code()));
        if let Some(&site) = memo.sites.get(self.key.as_slice()) {
            stats::record_binding_cache_hits(1);
            return site;
        }
        stats::record_species_scanned(1);
        stats::record_anneal_calls(1);
        let aligned = if memo.reverse {
            DnaSeq::from_bases(window.iter().rev().map(|b| b.complement()))
        } else {
            DnaSeq::from(window.to_vec())
        };
        let site = self.model.binding_site(memo.primer, &aligned);
        memo.sites.insert(self.key.clone(), site);
        site
    }

    /// [`AnnealModel::binding_probability`] of the primer in `slot` at
    /// cycle `cycle`'s temperature.
    pub(crate) fn probability(&mut self, slot: usize, site: BindingSite, cycle: usize) -> f64 {
        let t = self.cycle_temp[cycle];
        let idx = ((slot * self.temps.len() + t) * self.dists + site.dist) * self.tails
            + site.three_prime_dist;
        *self.prob[idx].get_or_insert_with(|| {
            stats::record_anneal_calls(1);
            let primer = self.memos[slot].primer;
            self.model.binding_probability(primer, site, self.temps[t])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_seq::Base;

    fn balanced(n: usize, phase: usize) -> DnaSeq {
        DnaSeq::from_bases((0..n).map(|i| Base::from_code(((i + phase) % 4) as u8)))
    }

    #[test]
    fn memo_results_match_model_and_count_hits_by_window() {
        let model = AnnealModel::calibrated();
        let (primer, rev) = (balanced(20, 0), balanced(20, 2));
        let mut tables = AnnealTables::new(&model, [&primer], [&rev], &[60.0, 55.0, 55.0]);
        // Two strands that differ only outside both primers' 24-base
        // windows, and an unrelated homopolymer (periodic shifts of
        // `balanced` are within max_edit of each other).
        let strand = |middle: usize| {
            let body = balanced(30, 1).concat(&balanced(8, middle));
            primer
                .concat(&body)
                .concat(&balanced(20, 1))
                .concat(&rev.reverse_complement())
        };
        let other = DnaSeq::from_bases((0..70).map(|_| Base::from_code(3)));
        let short = DnaSeq::from(primer.as_slice()[..18].to_vec());
        // (species, slot, expected alignments, expected hits): the sibling
        // strand answers both lookups from the memo, a repeated species
        // too, and a site shorter than the window is its own key.
        let lookups = [
            (strand(3), 0, 1, 0),
            (strand(3), 1, 1, 0),
            (strand(0), 0, 0, 1),
            (strand(0), 1, 0, 1),
            (other.clone(), 0, 1, 0),
            (other, 0, 0, 1),
            (short, 0, 1, 0),
        ];
        for (seq, slot, scanned, hits) in lookups {
            let before = stats::thread_totals();
            let expected = match slot {
                0 => model.binding_site(&primer, &seq),
                _ => model.binding_site(&rev, &seq.reverse_complement()),
            };
            assert_eq!(tables.site(slot, &seq), expected);
            let d = stats::thread_totals().delta_since(&before);
            assert_eq!((d.species_scanned, d.binding_cache_hits), (scanned, hits));
        }
        // The probability table returns the exact model value, computed
        // once per (slot, geometry, distinct temperature): cycles 1 and 2
        // share 55 °C.
        let site = tables.site(0, &strand(3)).unwrap();
        let before = stats::thread_totals();
        let p = tables.probability(0, site, 1);
        assert_eq!(p, model.binding_probability(&primer, site, 55.0));
        assert_eq!(tables.probability(0, site, 2), p);
        let p60 = model.binding_probability(&primer, site, 60.0);
        assert_eq!(tables.probability(0, site, 0), p60);
        let rev_p = model.binding_probability(&rev, site, 55.0);
        assert_eq!(tables.probability(1, site, 1), rev_p);
        assert_eq!(stats::thread_totals().delta_since(&before).anneal_calls, 3);
    }
}
