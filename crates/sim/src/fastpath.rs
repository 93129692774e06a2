//! Per-reaction annealing tables.
//!
//! PCR cost is dominated by resolving how each primer binds each species:
//! a bit-parallel prefix alignment of each forward primer against a
//! species' 5' region, and of each reverse primer against its 3' region.
//! The alignment reads only the first `primer.len() + max_edit` bases of a
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
//!    a miss writes one of the window alone into a reused buffer. Keys are
//!    hashed with [`MemoHasher`], a multiply-rotate hash.
//! 2. **Resolver** for a memo miss: [`resolve`] computes exactly
//!    [`AnnealModel::binding_site`] on the window slice, with each
//!    primer's [`PrefixAligner`] built once per reaction, and it runs the
//!    3'-tail alignment only for windows at the smallest distance: no
//!    other window can win. `binding_site` itself stays as it was: the
//!    dense engine calls it, so `tests/fastpath_equiv.rs` checks one
//!    implementation against the other, and the unit tests below check
//!    the resolver against it window by window.
//! 3. **Probability table** indexed by (primer, dist, 3'-dist, distinct
//!    temperature): `binding_probability` is a pure function of those, so
//!    each entry is computed once per reaction.
//!
//! The tables live for one reaction and start empty, so a reaction's cost
//! does not depend on which thread ran it or what ran before. All three
//! are pure-function memos: every value equals what the model computes,
//! so results are bit-identical to the dense engine (pinned by
//! `tests/fastpath_equiv.rs`).

use crate::anneal::{AnnealModel, BindingSite};
use crate::stats;
use dna_seq::distance::{levenshtein_bounded, PrefixAligner};
use dna_seq::{Base, DnaSeq};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hash over 8-byte words (the FxHash construction),
/// with a final avalanche so the low bits a hash table indexes by depend
/// on every word. The reaction's memos key on its own windows and sites,
/// so SipHash's flooding resistance buys nothing there.
#[derive(Default)]
pub(crate) struct MemoHasher(u64);

impl MemoHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for MemoHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(
                chunk.try_into().expect("an 8-byte chunk"),
            ));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = self.0;
        (h ^ (h >> 29)).wrapping_mul(Self::K) ^ (h >> 32)
    }
}

/// One primer's binding memo: site window → geometry.
struct SiteMemo<'a> {
    primer: &'a DnaSeq,
    /// The primer's aligner, built on the memo's first miss.
    aligner: Option<PrefixAligner>,
    /// Site bases the aligner reads: `primer.len() + max_edit`.
    window: usize,
    /// Whether the primer binds the strand's 3' end, i.e. aligns against
    /// the reverse complement of the strand's last `window` bases.
    reverse: bool,
    /// Keyed by the window's base codes as they stand on the strand.
    sites: HashMap<Vec<u8>, Option<BindingSite>, BuildHasherDefault<MemoHasher>>,
}

/// Annealing tables for one reaction. Primers are addressed by slot: the
/// forward primers (flattened across channels) first, then each
/// channel's reverse primer.
pub(crate) struct AnnealTables<'a> {
    model: &'a AnnealModel,
    memos: Vec<SiteMemo<'a>>,
    /// Memo key of the current window (reused buffer).
    key: Vec<u8>,
    /// Reverse complement of a missed 3' window (reused buffer).
    rc: Vec<Base>,
    /// `(window length, distance)` of a missed window (reused buffer).
    windows: Vec<(usize, usize)>,
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
                aligner: None,
                window: primer.len().saturating_add(model.max_edit),
                reverse,
                sites: HashMap::default(),
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
            rc: Vec::new(),
            windows: Vec::new(),
            temps: distinct,
            cycle_temp,
            dists,
            tails,
        }
    }

    /// Number of distinct temperatures in the protocol.
    pub(crate) fn distinct_temps(&self) -> usize {
        self.temps.len()
    }

    /// Index of cycle `cycle`'s temperature among the distinct ones.
    pub(crate) fn temp_index(&self, cycle: usize) -> usize {
        self.cycle_temp[cycle]
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
            self.rc.clear();
            self.rc.extend(window.iter().rev().map(|b| b.complement()));
            &self.rc
        } else {
            window
        };
        let primer: &[Base] = memo.primer.as_slice();
        let aligner = memo
            .aligner
            .get_or_insert_with(|| PrefixAligner::new(primer));
        let site = resolve(self.model, primer, aligner, aligned, &mut self.windows);
        memo.sites.insert(self.key.clone(), site);
        site
    }

    /// [`AnnealModel::binding_probability`] of the primer in `slot` at
    /// distinct temperature `t` (see [`AnnealTables::temp_index`]).
    pub(crate) fn probability(&mut self, slot: usize, site: BindingSite, t: usize) -> f64 {
        let idx = ((slot * self.temps.len() + t) * self.dists + site.dist) * self.tails
            + site.three_prime_dist;
        *self.prob[idx].get_or_insert_with(|| {
            stats::record_anneal_calls(1);
            let primer = self.memos[slot].primer;
            self.model.binding_probability(primer, site, self.temps[t])
        })
    }
}

/// [`AnnealModel::binding_site`]`(primer, site)`, computed with `primer`'s
/// prebuilt `aligner` on the site slice; `windows` is a reused buffer.
///
/// The best window is the one with the smallest `(dist, 3'-dist)`, so it
/// has the smallest distance of all windows within `max_edit`. One
/// aligner pass finds that distance, and only windows at it pay for the
/// 3'-tail alignment: any other window cannot win. A site that starts
/// with the primer needs no alignment at all.
fn resolve(
    model: &AnnealModel,
    primer: &[Base],
    aligner: &PrefixAligner,
    site: &[Base],
    windows: &mut Vec<(usize, usize)>,
) -> Option<BindingSite> {
    if primer.is_empty() {
        return None;
    }
    if site.starts_with(primer) {
        // The window of the primer's own length matches it exactly, the
        // best any window can do. Mispriming products all start so.
        return Some(BindingSite {
            dist: 0,
            three_prime_dist: 0,
        });
    }
    windows.clear();
    windows.extend(
        aligner
            .windows(site.iter().copied(), model.max_edit)
            .filter(|&(_, d)| d <= model.max_edit),
    );
    let dist = windows.iter().map(|&(_, d)| d).min()?;
    let k = model.three_prime_window.min(primer.len());
    let tail = &primer[primer.len() - k..];
    let mut three_prime_dist = usize::MAX;
    for &(w, _) in windows.iter().filter(|&&(_, d)| d == dist) {
        let d3 = levenshtein_bounded(tail, &site[w.saturating_sub(k)..w], k).unwrap_or(k);
        three_prime_dist = three_prime_dist.min(d3);
        if three_prime_dist == 0 {
            break;
        }
    }
    Some(BindingSite {
        dist,
        three_prime_dist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_seq::rng::DetRng;

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
        assert_eq!(tables.distinct_temps(), 2);
        assert_eq!([0, 1, 2].map(|c| tables.temp_index(c)), [0, 1, 1]);
        let before = stats::thread_totals();
        let p = tables.probability(0, site, 1);
        assert_eq!(p, model.binding_probability(&primer, site, 55.0));
        assert_eq!(tables.probability(0, site, tables.temp_index(2)), p);
        let p60 = model.binding_probability(&primer, site, 60.0);
        assert_eq!(tables.probability(0, site, 0), p60);
        let rev_p = model.binding_probability(&rev, site, 55.0);
        assert_eq!(tables.probability(1, site, 1), rev_p);
        assert_eq!(stats::thread_totals().delta_since(&before).anneal_calls, 3);
    }

    /// `primer` with `edits` random substitutions, insertions and
    /// deletions at positions drawn from `at`, then `tail` random bases.
    fn edited(
        rng: &mut DetRng,
        primer: &DnaSeq,
        edits: usize,
        at: std::ops::Range<usize>,
        tail: usize,
    ) -> DnaSeq {
        let mut bases: Vec<Base> = primer.as_slice().to_vec();
        for _ in 0..edits {
            let span = at.end.min(bases.len() + 1).max(at.start + 1) - at.start;
            let i = (at.start + rng.gen_range(span)).min(bases.len());
            let base = Base::from_code(rng.gen_range(4) as u8);
            match rng.gen_range(3) {
                0 if i < bases.len() => bases[i] = Base::from_code((bases[i].code() + 1) % 4),
                1 if i < bases.len() => {
                    bases.remove(i);
                }
                _ => bases.insert(i, base),
            }
        }
        bases.extend((0..tail).map(|_| Base::from_code(rng.gen_range(4) as u8)));
        DnaSeq::from(bases)
    }

    #[test]
    fn resolver_matches_binding_site() {
        let calibrated = AnnealModel::calibrated();
        let models = [
            calibrated,
            AnnealModel {
                max_edit: 0,
                ..calibrated
            },
            AnnealModel {
                max_edit: 2,
                three_prime_window: 1,
                ..calibrated
            },
            AnnealModel {
                max_edit: 6,
                three_prime_window: 8,
                ..calibrated
            },
            AnnealModel {
                three_prime_window: 0,
                ..calibrated
            },
        ];
        let mut rng = DetRng::seed_from_u64(0x5173);
        let mut cases = 0usize;
        let mut windows = Vec::new();
        for model in models {
            let e = model.max_edit;
            for len in [0, 1, 3, 5, 6, 12, 20, 26, 29, 31, 64] {
                let primer =
                    DnaSeq::from_bases((0..len).map(|_| Base::from_code(rng.gen_range(4) as u8)));
                let aligner = PrefixAligner::new(primer.as_slice());
                let end = len + e;
                for _ in 0..60 {
                    let site = match rng.gen_range(6) {
                        // Unrelated text, often shorter than the primer.
                        0 => {
                            let n = rng.gen_range(end + 4);
                            DnaSeq::from_bases(
                                (0..n).map(|_| Base::from_code(rng.gen_range(4) as u8)),
                            )
                        }
                        // The primer's own prefix: a window shorter than it.
                        1 => DnaSeq::from(primer.as_slice()[..rng.gen_range(len + 1)].to_vec()),
                        // Up to max_edit + 1 edits anywhere.
                        2 => {
                            let edits = rng.gen_range(e + 2);
                            edited(&mut rng, &primer, edits, 0..len, 8)
                        }
                        // max_edit insertions, so the best window is the
                        // longest and its last base decides the 3' distance.
                        3 => {
                            let mut bases: Vec<Base> = primer.as_slice().to_vec();
                            for _ in 0..e {
                                let i = rng.gen_range(bases.len() + 1);
                                bases.insert(i, Base::from_code(rng.gen_range(4) as u8));
                            }
                            bases.extend((0..4).map(|_| Base::from_code(rng.gen_range(4) as u8)));
                            DnaSeq::from(bases)
                        }
                        // Edits in the 3' tail and the bases around the
                        // window edges `len - max_edit ..= len + max_edit`.
                        4 => {
                            let edits = 1 + rng.gen_range(3);
                            edited(
                                &mut rng,
                                &primer,
                                edits,
                                len.saturating_sub(e + 6)..end + 1,
                                6,
                            )
                        }
                        // One substitution on either side of a window edge.
                        _ => {
                            let mut s = edited(&mut rng, &primer, 0, 0..1, e + 2);
                            let edges = [len.saturating_sub(e), len, end.saturating_sub(1), end];
                            let i = edges[rng.gen_range(4)].min(s.len().saturating_sub(1));
                            if let Some(b) = s.get(i) {
                                let mut bases: Vec<Base> = s.as_slice().to_vec();
                                bases[i] = Base::from_code((b.code() + 1) % 4);
                                s = DnaSeq::from(bases);
                            }
                            s
                        }
                    };
                    assert_eq!(
                        resolve(
                            &model,
                            primer.as_slice(),
                            &aligner,
                            site.as_slice(),
                            &mut windows
                        ),
                        model.binding_site(&primer, &site),
                        "primer {primer} site {site} max_edit {e}"
                    );
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 5 * 11 * 60);
    }

    #[test]
    fn memo_lookups_match_binding_site_at_both_ends() {
        // The same check through the memo, where a reverse primer aligns
        // against the complement of the strand's tail.
        let model = AnnealModel::calibrated();
        let mut rng = DetRng::seed_from_u64(0x3e7);
        let random = |rng: &mut DetRng, n| {
            DnaSeq::from_bases((0..n).map(|_| Base::from_code(rng.gen_range(4) as u8)))
        };
        let (fwd, rev) = (random(&mut rng, 29), random(&mut rng, 20));
        let mut tables = AnnealTables::new(&model, [&fwd], [&rev], &[55.0]);
        for _ in 0..400 {
            let (head_edits, tail_edits, gap) =
                (rng.gen_range(6), rng.gen_range(6), rng.gen_range(30));
            let head = edited(&mut rng, &fwd, head_edits, 0..33, 0);
            let tail = edited(&mut rng, &rev, tail_edits, 0..24, 0);
            let strand = head
                .concat(&random(&mut rng, gap))
                .concat(&tail.reverse_complement());
            assert_eq!(tables.site(0, &strand), model.binding_site(&fwd, &strand));
            assert_eq!(
                tables.site(1, &strand),
                model.binding_site(&rev, &strand.reverse_complement())
            );
        }
    }
}
