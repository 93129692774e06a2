//! Cycle-level PCR simulation.
//!
//! Each cycle, every species can be copied by any forward primer that binds
//! its 5' region together with the reverse primer binding its 3' region.
//! Three mechanisms drive the paper's observed behaviour:
//!
//! 1. **Exponential amplification** of perfectly-matched templates;
//! 2. **Index overwrite on mispriming** (§3.2, §8.1): when a primer binds a
//!    near-matching site (edit distance 1..=max), the *product* carries the
//!    primer's sequence as its new prefix — so a neighbour block's strand
//!    becomes indistinguishable, by address, from the target, and amplifies
//!    at full efficiency from then on;
//! 3. **Finite primer budgets**: every new copy consumes one forward and
//!    one reverse primer molecule, producing the familiar plateau and making
//!    leftover-primer carryover (§7.2: "18% of reads were discarded as they
//!    were amplified by the leftover main primers") a simple initial
//!    condition rather than a special case.

use crate::anneal::{AnnealModel, BindingSite};
use crate::fastpath::{AnnealTables, MemoHasher};
use crate::molecule::StrandTag;
use crate::pool::{Pool, Species};
use crate::stats;
use dna_seq::{Base, DnaSeq};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;

/// An empty product slot in [`MultiplexPcrReaction::run`].
const NO_PRODUCT: u32 = u32::MAX;

/// A primer participating in a reaction, with a finite molecule budget.
#[derive(Debug, Clone, PartialEq)]
pub struct PcrPrimer {
    /// The primer sequence (for forward primers, matched against strand 5'
    /// prefixes; for the reverse primer, against the reverse complement).
    pub seq: DnaSeq,
    /// Available molecules. Use [`f64::INFINITY`] for "primer excess".
    pub budget: f64,
}

impl PcrPrimer {
    /// A primer with the given molecule budget.
    pub fn with_budget(seq: DnaSeq, budget: f64) -> PcrPrimer {
        PcrPrimer { seq, budget }
    }

    /// A primer in effective excess (never depletes).
    pub fn unlimited(seq: DnaSeq) -> PcrPrimer {
        PcrPrimer {
            seq,
            budget: f64::INFINITY,
        }
    }
}

/// The thermal protocol: one annealing temperature per cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct PcrProtocol {
    /// Annealing temperature (°C) for each cycle.
    pub temps: Vec<f64>,
    /// The annealing model.
    pub anneal: AnnealModel,
}

impl PcrProtocol {
    /// Constant-temperature protocol.
    pub fn standard(cycles: usize, temp: f64) -> PcrProtocol {
        PcrProtocol {
            temps: vec![temp; cycles],
            anneal: AnnealModel::calibrated(),
        }
    }

    /// Touchdown protocol: 1 °C decrease per cycle from `start` down to
    /// `end`, then `plateau_cycles` more at `end` (§6.5: "a decrease of 1°C
    /// per annealing step in each cycle, starting at 65°C, for 10 cycles,
    /// before amplification at 55°C ... for another 18 cycles").
    pub fn touchdown(start: f64, end: f64, plateau_cycles: usize) -> PcrProtocol {
        assert!(start >= end, "touchdown must cool down");
        let mut temps = Vec::new();
        let mut t = start;
        while t > end {
            temps.push(t);
            t -= 1.0;
        }
        temps.extend(std::iter::repeat_n(end, plateau_cycles));
        PcrProtocol {
            temps,
            anneal: AnnealModel::calibrated(),
        }
    }

    /// The paper's block-access protocol: touchdown 65→55 (10 cycles) plus
    /// 18 cycles at 55 °C.
    pub fn paper_block_access() -> PcrProtocol {
        PcrProtocol::touchdown(65.0, 55.0, 18)
    }

    /// The paper's plain amplification protocol: 15 cycles at 55 °C
    /// (§6.4.2).
    pub fn paper_amplification() -> PcrProtocol {
        PcrProtocol::standard(15, 55.0)
    }

    /// Number of cycles.
    pub fn cycles(&self) -> usize {
        self.temps.len()
    }
}

/// A configured reaction: forward primer set (singleton for simple PCR,
/// several for multiplex, §6.5), one reverse primer, and a protocol.
#[derive(Debug, Clone)]
pub struct PcrReaction {
    /// Forward primers (possibly elongated, possibly leftover carryover).
    pub forward_primers: Vec<PcrPrimer>,
    /// The reverse primer.
    pub reverse_primer: PcrPrimer,
    /// Thermal protocol.
    pub protocol: PcrProtocol,
}

/// One primer pair's worth of reagents inside a multiplex tube: any number
/// of (possibly elongated) forward primers plus the pair's reverse primer,
/// each with its own molecule budget.
#[derive(Debug, Clone)]
pub struct PrimerChannel {
    /// Forward primers of this pair (elongated per targeted leaf).
    pub forward_primers: Vec<PcrPrimer>,
    /// The pair's reverse primer.
    pub reverse_primer: PcrPrimer,
}

/// A multiplexed reaction: several primer *pairs* share one tube (Yazdi et
/// al.'s multiplexed primer pools; §6.5's three-primer mix is the
/// single-pair special case). Every forward primer can act on every
/// template and every reverse primer competes for 3' sites, so
/// cross-amplification between channels is modeled by the same
/// [`AnnealModel`] that drives mispriming in simple reactions.
#[derive(Debug, Clone)]
pub struct MultiplexPcrReaction {
    /// The primer pairs sharing the tube.
    pub channels: Vec<PrimerChannel>,
    /// Thermal protocol (one schedule for the whole tube — which is why
    /// multiplexed pairs must sit in one Tm window).
    pub protocol: PcrProtocol,
}

/// Result of running a multiplex reaction.
#[derive(Debug, Clone)]
pub struct MultiplexOutcome {
    /// The amplified pool (input species plus any mispriming products).
    pub pool: Pool,
    /// Forward-primer molecules consumed, per channel, per primer.
    pub fwd_consumed: Vec<Vec<f64>>,
    /// Reverse-primer molecules consumed, per channel.
    pub rev_consumed: Vec<f64>,
    /// Number of distinct mispriming product species created.
    pub misprime_species: usize,
}

/// Result of running a reaction.
#[derive(Debug, Clone)]
pub struct PcrOutcome {
    /// The amplified pool (input species plus any mispriming products).
    pub pool: Pool,
    /// Forward-primer molecules consumed, per primer.
    pub fwd_consumed: Vec<f64>,
    /// Reverse-primer molecules consumed.
    pub rev_consumed: f64,
    /// Number of distinct mispriming product species created.
    pub misprime_species: usize,
}

/// Per-species cached binding geometry (multiplex form: one slot per
/// flattened forward primer and one per channel's reverse primer). Used by
/// the reference engine; the fast path compiles a sparse plan per species
/// instead (see [`Plans`]).
struct BindingInfo {
    /// Binding geometry of each forward primer at this species' 5' site.
    fwd_site: Vec<Option<BindingSite>>,
    /// Binding geometry of each channel's reverse primer at the 3' site
    /// (via reverse complement).
    rev_site: Vec<Option<BindingSite>>,
}

/// [`Plans::plan_of`] of a species not yet compiled.
const UNCOMPILED: u32 = u32::MAX;
/// [`Plans::best_rev`] before a temperature is resolved.
const UNRESOLVED: u32 = u32::MAX;
/// [`Plans::best_rev`] when no reverse primer primes the plan's species.
const NO_REVERSE: u32 = u32::MAX - 1;
/// Separates the forward from the reverse sites in a [`Plans::by_sites`]
/// key (no primer slot is this large).
const SITES_SEPARATOR: (u32, BindingSite) = (
    u32::MAX,
    BindingSite {
        dist: 0,
        three_prime_dist: 0,
    },
);

/// Where one plan sits in the [`Plans`] arenas.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// First forward edge, and their number.
    start: u32,
    len: u32,
    /// First reverse site, and their number.
    rev_start: u32,
    rev_len: u32,
}

/// The fast path's species plans.
///
/// A species is compiled when it is first amplifiable, into its binding
/// sites: which forward primers bind its 5' end and which reverse primers
/// its 3' end, each with its geometry. Those are fixed for the reaction,
/// and everything a cycle needs from them depends only on the
/// temperature, so species with the same sites share one plan: per
/// distinct temperature, the winning reverse channel and one per-copy
/// yield per forward edge. A partition tube has a few dozen plans for
/// thousands of species, so each (plan, temperature) is resolved once, and
/// a cycle's scan reads rows that stay in cache.
struct Plans {
    /// Distinct temperatures of the protocol.
    temps: usize,
    /// Forward and reverse primer slots of the reaction.
    nf: usize,
    nr: usize,
    /// Per species: its plan, or [`UNCOMPILED`].
    plan_of: Vec<u32>,
    /// Plans by their sites: forward `(slot, site)` pairs, then
    /// [`SITES_SEPARATOR`], then reverse `(channel, site)` pairs.
    by_sites: HashMap<Vec<(u32, BindingSite)>, u32, BuildHasherDefault<MemoHasher>>,
    /// The key of the species being compiled (reused buffer).
    sites: Vec<(u32, BindingSite)>,
    /// Per plan.
    heads: Vec<Head>,
    /// `best_rev[p * temps + t]`: the channel whose reverse primer wins
    /// plan `p`'s 3' site at distinct temperature `t` (ties → lowest
    /// channel), [`NO_REVERSE`], or [`UNRESOLVED`].
    best_rev: Vec<u32>,
    /// `(flattened forward index, mispriming)` of every binding forward
    /// primer, plan by plan, each in ascending primer order, so iteration
    /// matches the reference engine's dense scan. A site at distance > 0
    /// misprimes: its product carries the primer as its new prefix.
    edges: Vec<(u32, bool)>,
    /// The forward sites, parallel to `edges`.
    edge_sites: Vec<BindingSite>,
    /// `yields[start * temps + t * len + k]`: `p_fwd.min(p_rev)` of the
    /// plan's forward edge `k` at distinct temperature `t`, or 0 where
    /// `p_fwd <= 0` (the edge contributes nothing). A resolved yield is
    /// never NaN, and it is 0 only in that case, because `p_rev > 0`.
    yields: Vec<f64>,
    /// `(channel index, site)` of every binding reverse primer, plan by
    /// plan.
    rev: Vec<(u32, BindingSite)>,
}

impl Plans {
    fn new(species: usize, temps: usize, nf: usize, nr: usize) -> Plans {
        Plans {
            temps,
            nf,
            nr,
            plan_of: vec![UNCOMPILED; species],
            by_sites: HashMap::default(),
            sites: Vec::new(),
            heads: Vec::new(),
            best_rev: Vec::new(),
            edges: Vec::new(),
            edge_sites: Vec::new(),
            yields: Vec::new(),
            rev: Vec::new(),
        }
    }

    /// Room for one more species, not yet compiled.
    fn push_species(&mut self) {
        self.plan_of.push(UNCOMPILED);
    }

    /// The plan of species `i` (of `seqs`), compiled on first use.
    #[inline]
    fn plan(&mut self, i: usize, seqs: &[Cow<'_, DnaSeq>], tables: &mut AnnealTables<'_>) -> usize {
        if self.plan_of[i] == UNCOMPILED {
            self.plan_of[i] = self.compile(&seqs[i], tables);
        }
        self.plan_of[i] as usize
    }

    /// Looks up `seq`'s binding sites and returns the plan they map to,
    /// adding it if no species compiled so far has the same sites.
    fn compile(&mut self, seq: &DnaSeq, tables: &mut AnnealTables<'_>) -> u32 {
        self.sites.clear();
        for fi in 0..self.nf {
            if let Some(site) = tables.site(fi, seq) {
                self.sites.push((fi as u32, site));
            }
        }
        let len = self.sites.len();
        self.sites.push(SITES_SEPARATOR);
        for ri in 0..self.nr {
            if let Some(site) = tables.site(self.nf + ri, seq) {
                self.sites.push((ri as u32, site));
            }
        }
        if let Some(&p) = self.by_sites.get(self.sites.as_slice()) {
            return p;
        }
        let p = self.heads.len() as u32;
        self.heads.push(Head {
            start: self.edges.len() as u32,
            len: len as u32,
            rev_start: self.rev.len() as u32,
            rev_len: (self.sites.len() - len - 1) as u32,
        });
        for &(fi, site) in &self.sites[..len] {
            self.edges.push((fi, site.dist != 0));
            self.edge_sites.push(site);
        }
        self.rev.extend_from_slice(&self.sites[len + 1..]);
        self.best_rev
            .extend(std::iter::repeat_n(UNRESOLVED, self.temps));
        self.yields
            .extend(std::iter::repeat_n(0.0, len * self.temps));
        self.by_sites.insert(self.sites.clone(), p);
        p
    }

    /// The channel that primes plan `p`'s species at distinct temperature
    /// `t`, resolved on first use.
    #[inline]
    fn reverse_at(&mut self, p: usize, t: usize, tables: &mut AnnealTables<'_>) -> Option<u32> {
        let mut ri = self.best_rev[p * self.temps + t];
        if ri == UNRESOLVED {
            ri = self.resolve(p, t, tables);
        }
        (ri != NO_REVERSE).then_some(ri)
    }

    /// Resolves plan `p` at distinct temperature `t`. The probabilities
    /// looked up are exactly those the dense scan evaluates for any of the
    /// plan's species at `t`, so the model's work counters match it.
    fn resolve(&mut self, p: usize, t: usize, tables: &mut AnnealTables<'_>) -> u32 {
        let h = self.heads[p];
        let mut best_rev: Option<(u32, f64)> = None;
        for &(ri, site) in &self.rev[h.rev_start as usize..][..h.rev_len as usize] {
            let p = tables.probability(self.nf + ri as usize, site, t);
            if p > 0.0 && best_rev.is_none_or(|(_, bp)| p > bp) {
                best_rev = Some((ri, p));
            }
        }
        let ri = match best_rev {
            None => NO_REVERSE,
            Some((ri, p_rev)) => {
                let (start, len) = (h.start as usize, h.len as usize);
                let row = &mut self.yields[start * self.temps + t * len..][..len];
                let edges = self.edges[start..start + len].iter();
                for (y, (&(fi, _), &site)) in
                    row.iter_mut().zip(edges.zip(&self.edge_sites[start..]))
                {
                    let p_fwd = tables.probability(fi as usize, site, t);
                    if p_fwd <= 0.0 {
                        continue;
                    }
                    // Per-cycle duplex yield is limited by the weaker
                    // primer: each strand of the duplex is primed
                    // independently, so overall efficiency tracks
                    // min(p_fwd, p_rev), the standard per-cycle
                    // efficiency model.
                    *y = p_fwd.min(p_rev);
                }
                ri
            }
        };
        self.best_rev[p * self.temps + t] = ri;
        ri
    }

    /// Plan `p`'s forward edges with their yields at distinct temperature
    /// `t` (resolved).
    #[inline]
    fn edges_at(&self, p: usize, t: usize) -> impl Iterator<Item = (&(u32, bool), &f64)> {
        let Head { start, len, .. } = self.heads[p];
        let (start, len) = (start as usize, len as usize);
        self.edges[start..start + len]
            .iter()
            .zip(&self.yields[start * self.temps + t * len..][..len])
    }
}

/// The first 64 bases of `head ++ tail`, two bits each, padded with A. A
/// smaller key means a smaller sequence (the first base where two keys
/// differ is a real base in the larger one, so either it is larger there
/// or the smaller sequence ended there), so a search over species sorted
/// by sequence compares keys and reads sequences only where keys tie.
fn sort_key(head: &[Base], tail: &[Base]) -> u128 {
    let head = &head[..head.len().min(64)];
    let tail = &tail[..tail.len().min(64 - head.len())];
    let key = head
        .iter()
        .chain(tail)
        .fold(0u128, |key, b| key << 2 | u128::from(b.code()));
    let pad = 2 * (64 - head.len() - tail.len()) as u32;
    key.checked_shl(pad).unwrap_or(0)
}

impl PcrReaction {
    /// Runs the reaction on `input`, returning the amplified pool and
    /// consumption statistics. Deterministic (expected-value dynamics).
    ///
    /// Implemented as a single-channel [`MultiplexPcrReaction`] — the
    /// multiplex engine with one primer pair reproduces the simple-PCR
    /// dynamics exactly.
    pub fn run(&self, input: &Pool) -> PcrOutcome {
        Self::narrow(self.as_multiplex().run(input))
    }

    /// Reference engine (dense scan, no caches): the oracle the fast path
    /// is pinned against by `tests/fastpath_equiv.rs` and the
    /// `wetlab_hotpath` bench baseline. Produces bit-identical results to
    /// [`PcrReaction::run`], just slower.
    pub fn run_reference(&self, input: &Pool) -> PcrOutcome {
        Self::narrow(self.as_multiplex().run_reference(input))
    }

    fn as_multiplex(&self) -> MultiplexPcrReaction {
        MultiplexPcrReaction {
            channels: vec![PrimerChannel {
                forward_primers: self.forward_primers.clone(),
                reverse_primer: self.reverse_primer.clone(),
            }],
            protocol: self.protocol.clone(),
        }
    }

    fn narrow(out: MultiplexOutcome) -> PcrOutcome {
        PcrOutcome {
            pool: out.pool,
            fwd_consumed: out.fwd_consumed.into_iter().next().unwrap_or_default(),
            rev_consumed: out.rev_consumed.first().copied().unwrap_or(0.0),
            misprime_species: out.misprime_species,
        }
    }
}

impl MultiplexPcrReaction {
    /// Runs the multiplexed reaction on `input`. Deterministic
    /// (expected-value dynamics, like [`PcrReaction::run`]).
    ///
    /// Every cycle, each template is primed at its 3' site by the *best
    /// binding* reverse primer in the tube (mutually distant pairs mean at
    /// most one binds in practice) and at its 5' site by every forward
    /// primer whose annealing probability is non-zero — including other
    /// channels' primers, which is exactly the cross-amplification risk
    /// multiplexing introduces. Budgets are tracked per primer, so one
    /// channel plateauing never silently throttles another.
    ///
    /// This is the fast path. Binding geometry and probabilities come from
    /// tables built for this reaction alone (see `fastpath`): each
    /// primer's alignment runs once per distinct site window it reads, so
    /// strands sharing a partition's 3' site, or mispriming products
    /// sharing a forward window, cost one alignment between them. Each
    /// species is compiled once, when it is first amplifiable, into a plan
    /// shared by every species with the same binding sites (see [`Plans`]):
    /// per distinct temperature, the winning reverse primer and each
    /// forward edge's per-copy yield `p_fwd.min(p_rev)`, so a cycle does
    /// one multiply per edge. A mispriming product is looked up among the
    /// sorted species by a packed key (see [`sort_key`]) without being
    /// built, and built only when it is new. Input species are borrowed,
    /// not cloned; contributions reference species by index and are
    /// applied in place, in order; per-cycle updates touch only the
    /// amplified species; and the output pool is built once, in order,
    /// from the working state. Nothing persists between reactions, so the
    /// cost does not depend on the calling thread. Every float operation
    /// runs in the reference engine's order, so results are bit-identical
    /// to [`MultiplexPcrReaction::run_reference`] (pinned by
    /// `tests/fastpath_equiv.rs`).
    pub fn run(&self, input: &Pool) -> MultiplexOutcome {
        let forwards: Vec<(usize, &PcrPrimer)> = self
            .channels
            .iter()
            .enumerate()
            .flat_map(|(ci, ch)| ch.forward_primers.iter().map(move |p| (ci, p)))
            .collect();
        let reverses: Vec<&PcrPrimer> = self.channels.iter().map(|ch| &ch.reverse_primer).collect();
        let (nf, nr) = (forwards.len(), reverses.len());
        let mut tables = AnnealTables::new(
            &self.protocol.anneal,
            forwards.iter().map(|(_, p)| &p.seq),
            reverses.iter().map(|p| &p.seq),
            &self.protocol.temps,
        );

        // Indexed working state: one slot per species (input species first,
        // borrowed; mispriming products appended, owned, as they are
        // created). `order` keeps the indices sorted by sequence so every
        // cycle scans species in exactly the reference engine's `BTreeMap`
        // order — float accumulation order, and therefore every bit of the
        // result, is preserved.
        let n0 = input.distinct();
        let mut seqs: Vec<Cow<'_, DnaSeq>> = Vec::with_capacity(n0);
        let mut ab: Vec<f64> = Vec::with_capacity(n0);
        let mut tags: Vec<Option<StrandTag>> = Vec::with_capacity(n0);
        for (seq, sp) in input.iter() {
            seqs.push(Cow::Borrowed(seq));
            ab.push(sp.abundance);
            tags.push(sp.tag);
        }
        let mut present: Vec<bool> = vec![true; n0];
        let mut order: Vec<u32> = (0..n0 as u32).collect();
        // Per species, its `sort_key`: built at the first product search,
        // then kept in step with `seqs`.
        let mut keys: Vec<u128> = Vec::new();
        let mut plans = Plans::new(n0, tables.distinct_temps(), nf, nr);
        // Product slots, `nf` per species: `product[si * nf + fi]` is the
        // species index of forward primer `fi`'s mispriming product on
        // template `si`, or `NO_PRODUCT` until first made.
        let mut product: Vec<u32> = vec![NO_PRODUCT; n0 * nf];

        let mut fwd_left: Vec<f64> = forwards.iter().map(|(_, p)| p.budget).collect();
        let mut rev_left: Vec<f64> = reverses.iter().map(|p| p.budget).collect();
        let mut fwd_used = vec![0.0; nf];
        let mut rev_used = vec![0.0; nr];
        let mut misprime_species = 0usize;

        // Reused per-cycle buffers.
        let mut contributions: Vec<(u32, u32, u32, f64, bool)> = Vec::new();
        let mut fwd_demand = vec![0.0; nf];
        let mut rev_demand = vec![0.0; nr];
        let mut fwd_factor = vec![0.0; nf];
        let mut rev_factor = vec![0.0; nr];

        for cycle in 0..self.protocol.temps.len() {
            let t = tables.temp_index(cycle);
            // Pass 1: desired contributions, touching only species with at
            // least one binding forward and reverse primer.
            contributions.clear();
            fwd_demand.fill(0.0);
            rev_demand.fill(0.0);
            for &si in &order {
                let i = si as usize;
                // An absent product's abundance is 0, so this also skips
                // species not yet made.
                if ab[i] <= 0.0 {
                    continue;
                }
                let p = plans.plan(i, &seqs, &mut tables);
                let Some(ri) = plans.reverse_at(p, t, &mut tables) else {
                    continue;
                };
                for (&(fi, mispriming), &y) in plans.edges_at(p, t) {
                    // A zero yield is an edge whose p_fwd <= 0 at `t`.
                    if y == 0.0 {
                        continue;
                    }
                    let copies = ab[i] * y;
                    if copies <= 0.0 {
                        continue;
                    }
                    fwd_demand[fi as usize] += copies;
                    rev_demand[ri as usize] += copies;
                    contributions.push((si, fi, ri, copies, mispriming));
                }
            }
            if contributions.is_empty() {
                continue;
            }
            // Pass 2: scale by primer budgets and apply, in contribution
            // order. Applying in place equals applying after the pass: a
            // template is present from pass 1, so its tag is never
            // rewritten here, and every abundance and presence changes
            // only through this pass's additions, in the same order.
            let factor = |(d, left): (&f64, &f64)| if d > left { left / d } else { 1.0 };
            for (f, dl) in rev_factor.iter_mut().zip(rev_demand.iter().zip(&rev_left)) {
                *f = factor(dl);
            }
            for (f, dl) in fwd_factor.iter_mut().zip(fwd_demand.iter().zip(&fwd_left)) {
                *f = factor(dl);
            }
            for &(si, fi, ri, copies, mispriming) in &contributions {
                let actual = copies * fwd_factor[fi as usize].min(rev_factor[ri as usize]);
                if actual <= 0.0 {
                    continue;
                }
                fwd_used[fi as usize] += actual;
                fwd_left[fi as usize] -= actual;
                rev_used[ri as usize] += actual;
                rev_left[ri as usize] -= actual;
                let target = if mispriming {
                    // Index overwrite: the product carries the primer as
                    // its new prefix.
                    let slot = si as usize * nf + fi as usize;
                    if product[slot] == NO_PRODUCT {
                        // The product is `primer + template[primer.len()..]`;
                        // it is built only if no species equals it yet.
                        let primer = forwards[fi as usize].1.seq.as_slice();
                        let template = seqs[si as usize].as_slice();
                        let tail = template.get(primer.len()..).unwrap_or_default();
                        if keys.is_empty() {
                            keys.extend(seqs.iter().map(|s| sort_key(s.as_slice(), &[])));
                        }
                        let key = sort_key(primer, tail);
                        let found = order.binary_search_by(|&j| {
                            let j = j as usize;
                            keys[j]
                                .cmp(&key)
                                .then_with(|| seqs[j].cmp_concat(primer, tail))
                        });
                        product[slot] = match found {
                            Ok(pos) => order[pos],
                            Err(pos) => {
                                let mut ns = DnaSeq::with_capacity(primer.len() + tail.len());
                                ns.extend_from_slice(primer);
                                ns.extend_from_slice(tail);
                                let idx = seqs.len() as u32;
                                seqs.push(Cow::Owned(ns));
                                keys.push(key);
                                ab.push(0.0);
                                tags.push(None);
                                present.push(false);
                                plans.push_species();
                                product.extend(std::iter::repeat_n(NO_PRODUCT, nf));
                                order.insert(pos, idx);
                                idx
                            }
                        };
                    }
                    product[slot] as usize
                } else {
                    // Faithful copy of an existing species.
                    si as usize
                };
                if present[target] {
                    // Merge keeps the existing tag, like `Pool::add`.
                    ab[target] += actual;
                } else {
                    // Only a mispriming product can be absent: this is its
                    // first addition, so it is a new species, carrying its
                    // template's tag.
                    present[target] = true;
                    ab[target] = actual;
                    tags[target] = tags[si as usize].map(|mut t| {
                        t.prefix_overwritten = true;
                        t
                    });
                    misprime_species += 1;
                }
            }
            for left in fwd_left.iter_mut().chain(rev_left.iter_mut()) {
                *left = left.max(0.0);
            }
        }

        // The output pool, built in one pass over `order`: input species
        // keep their exact abundance unless they amplified, and products
        // move out of the working state.
        let pool = Pool::from_sorted(order.iter().filter(|&&i| present[i as usize]).map(|&i| {
            let i = i as usize;
            let species = Species {
                abundance: ab[i],
                tag: tags[i],
            };
            (std::mem::take(&mut seqs[i]).into_owned(), species)
        }));

        // Un-flatten per-channel consumption.
        let mut fwd_consumed: Vec<Vec<f64>> = self
            .channels
            .iter()
            .map(|ch| Vec::with_capacity(ch.forward_primers.len()))
            .collect();
        for ((ci, _), used) in forwards.iter().zip(&fwd_used) {
            fwd_consumed[*ci].push(*used);
        }
        stats::flush_to_global();
        MultiplexOutcome {
            pool,
            fwd_consumed,
            rev_consumed: rev_used,
            misprime_species,
        }
    }

    /// Reference engine: the original dense per-cycle scan with no caches.
    /// Kept as the oracle for the golden-equivalence suite and as the
    /// microbench baseline — [`MultiplexPcrReaction::run`] must produce
    /// bit-identical pools, budgets and misprime counts.
    pub fn run_reference(&self, input: &Pool) -> MultiplexOutcome {
        let anneal = &self.protocol.anneal;
        // Flatten forwards, remembering each primer's channel.
        let forwards: Vec<(usize, &PcrPrimer)> = self
            .channels
            .iter()
            .enumerate()
            .flat_map(|(ci, ch)| ch.forward_primers.iter().map(move |p| (ci, p)))
            .collect();
        let reverses: Vec<&PcrPrimer> = self.channels.iter().map(|ch| &ch.reverse_primer).collect();

        let mut pool = input.clone();
        let mut info: BTreeMap<DnaSeq, BindingInfo> = BTreeMap::new();
        let mut fwd_left: Vec<f64> = forwards.iter().map(|(_, p)| p.budget).collect();
        let mut rev_left: Vec<f64> = reverses.iter().map(|p| p.budget).collect();
        let mut fwd_used = vec![0.0; forwards.len()];
        let mut rev_used = vec![0.0; reverses.len()];
        let mut misprime_species = 0usize;

        for &temp in &self.protocol.temps {
            // Pass 1: compute desired contributions.
            // (species_seq, fwd_idx, rev_idx, copies, product_seq_if_misprimed)
            let mut contributions: Vec<(DnaSeq, usize, usize, f64, Option<DnaSeq>)> = Vec::new();
            let mut fwd_demand = vec![0.0; forwards.len()];
            let mut rev_demand = vec![0.0; reverses.len()];
            for (seq, species) in pool.iter() {
                if species.abundance <= 0.0 {
                    continue;
                }
                let entry = info.entry(seq.clone()).or_insert_with(|| BindingInfo {
                    fwd_site: forwards
                        .iter()
                        .map(|(_, p)| anneal.binding_site(&p.seq, seq))
                        .collect(),
                    rev_site: {
                        let rc = seq.reverse_complement();
                        reverses
                            .iter()
                            .map(|p| anneal.binding_site(&p.seq, &rc))
                            .collect()
                    },
                });
                // The template's 3' site goes to the best-binding reverse
                // primer this cycle (ties → lowest channel, deterministic).
                let mut best_rev: Option<(usize, f64)> = None;
                for (ri, site) in entry.rev_site.iter().enumerate() {
                    let Some(s) = site else { continue };
                    let p = anneal.binding_probability(&reverses[ri].seq, *s, temp);
                    if p > 0.0 && best_rev.is_none_or(|(_, bp)| p > bp) {
                        best_rev = Some((ri, p));
                    }
                }
                let Some((ri, p_rev)) = best_rev else {
                    continue;
                };
                for (fi, (_, primer)) in forwards.iter().enumerate() {
                    let Some(site) = entry.fwd_site[fi] else {
                        continue;
                    };
                    let d = site.dist;
                    let p_fwd = anneal.binding_probability(&primer.seq, site, temp);
                    if p_fwd <= 0.0 {
                        continue;
                    }
                    // Per-cycle duplex yield is limited by the weaker primer:
                    // each strand of the duplex is primed independently, so
                    // overall efficiency tracks min(p_fwd, p_rev), the
                    // standard per-cycle efficiency model.
                    let copies = species.abundance * p_fwd.min(p_rev);
                    if copies <= 0.0 {
                        continue;
                    }
                    let product = if d == 0 {
                        None // faithful copy of the template
                    } else {
                        // Index overwrite: the product starts with the primer
                        // itself, then continues with the template past the
                        // primer-length mark.
                        let mut ns = primer.seq.clone();
                        if primer.seq.len() < seq.len() {
                            ns.extend_from_slice(&seq.as_slice()[primer.seq.len()..]);
                        }
                        Some(ns)
                    };
                    fwd_demand[fi] += copies;
                    rev_demand[ri] += copies;
                    contributions.push((seq.clone(), fi, ri, copies, product));
                }
            }
            if contributions.is_empty() {
                continue;
            }
            // Pass 2: scale by primer budgets and apply.
            let rev_factor: Vec<f64> = rev_demand
                .iter()
                .zip(&rev_left)
                .map(|(&d, &left)| if d > left { left / d } else { 1.0 })
                .collect();
            let fwd_factor: Vec<f64> = fwd_demand
                .iter()
                .zip(&fwd_left)
                .map(|(&d, &left)| if d > left { left / d } else { 1.0 })
                .collect();
            let mut additions: Vec<(DnaSeq, f64, Option<crate::StrandTag>)> = Vec::new();
            for (seq, fi, ri, copies, product) in contributions {
                let actual = copies * fwd_factor[fi].min(rev_factor[ri]);
                if actual <= 0.0 {
                    continue;
                }
                fwd_used[fi] += actual;
                fwd_left[fi] -= actual;
                rev_used[ri] += actual;
                rev_left[ri] -= actual;
                match product {
                    None => additions.push((seq, actual, None)),
                    Some(product_seq) => {
                        let tag = pool.get(&seq).and_then(|s| s.tag).map(|mut t| {
                            t.prefix_overwritten = true;
                            t
                        });
                        if pool.get(&product_seq).is_none()
                            && !additions.iter().any(|(s, _, _)| *s == product_seq)
                        {
                            misprime_species += 1;
                        }
                        additions.push((product_seq, actual, tag));
                    }
                }
            }
            for (seq, copies, tag) in additions {
                match tag {
                    Some(t) => pool.add(seq, copies, Some(t)),
                    None => {
                        let existing = pool.get(&seq).and_then(|s| s.tag);
                        pool.add(seq, copies, existing);
                    }
                }
            }
            for left in fwd_left.iter_mut().chain(rev_left.iter_mut()) {
                *left = left.max(0.0);
            }
        }

        // Un-flatten per-channel consumption.
        let mut fwd_consumed: Vec<Vec<f64>> = self
            .channels
            .iter()
            .map(|ch| Vec::with_capacity(ch.forward_primers.len()))
            .collect();
        for ((ci, _), used) in forwards.iter().zip(&fwd_used) {
            fwd_consumed[*ci].push(*used);
        }
        MultiplexOutcome {
            pool,
            fwd_consumed,
            rev_consumed: rev_used,
            misprime_species,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecule::StrandTag;

    fn balanced(n: usize, phase: usize) -> DnaSeq {
        DnaSeq::from_bases((0..n).map(|i| Base::from_code(((i + phase) % 4) as u8)))
    }

    /// fwd(20) + payload + rc(rev(20)) strand around the given payload.
    fn strand(fwd: &DnaSeq, payload: &DnaSeq, rev: &DnaSeq) -> DnaSeq {
        fwd.concat(payload).concat(&rev.reverse_complement())
    }

    fn fwd() -> DnaSeq {
        "AACCGGTTAACCGGTTAACC".parse().unwrap()
    }

    fn rev() -> DnaSeq {
        "AAGGCCTTAAGGCCTTAAGG".parse().unwrap()
    }

    #[test]
    fn matched_template_amplifies_exponentially() {
        let mut pool = Pool::new();
        let s = strand(&fwd(), &balanced(60, 0), &rev());
        pool.add(s.clone(), 100.0, Some(StrandTag::new(0, 1, 0, 0)));
        let rxn = PcrReaction {
            forward_primers: vec![PcrPrimer::unlimited(fwd())],
            reverse_primer: PcrPrimer::unlimited(rev()),
            protocol: PcrProtocol::standard(10, 55.0),
        };
        let out = rxn.run(&pool);
        let final_ab = out.pool.get(&s).unwrap().abundance;
        // 10 cycles at ~0.6+ efficiency: at least 2^6 = 64x growth.
        assert!(final_ab > 100.0 * 64.0, "only {final_ab}");
        assert_eq!(out.misprime_species, 0);
    }

    #[test]
    fn unrelated_template_does_not_amplify() {
        let mut pool = Pool::new();
        let target = strand(&fwd(), &balanced(60, 0), &rev());
        let other_fwd = balanced(20, 1);
        let other = strand(&other_fwd, &balanced(60, 2), &rev());
        pool.add(target.clone(), 100.0, None);
        pool.add(other.clone(), 100.0, None);
        let rxn = PcrReaction {
            forward_primers: vec![PcrPrimer::unlimited(fwd())],
            reverse_primer: PcrPrimer::unlimited(rev()),
            protocol: PcrProtocol::standard(12, 55.0),
        };
        let out = rxn.run(&pool);
        let t = out.pool.get(&target).unwrap().abundance;
        let o = out.pool.get(&other).unwrap().abundance;
        assert!(
            t / o > 1000.0,
            "selectivity too weak: target {t}, other {o}"
        );
        assert_eq!(o, 100.0, "unrelated strand must not grow");
    }

    #[test]
    fn primer_budget_caps_growth() {
        let mut pool = Pool::new();
        let s = strand(&fwd(), &balanced(60, 0), &rev());
        pool.add(s.clone(), 100.0, None);
        let rxn = PcrReaction {
            forward_primers: vec![PcrPrimer::with_budget(fwd(), 5_000.0)],
            reverse_primer: PcrPrimer::unlimited(rev()),
            protocol: PcrProtocol::standard(20, 55.0),
        };
        let out = rxn.run(&pool);
        let final_ab = out.pool.get(&s).unwrap().abundance;
        assert!(
            final_ab <= 100.0 + 5_000.0 + 1e-6,
            "budget violated: {final_ab}"
        );
        assert!(final_ab > 5_000.0 * 0.99, "budget should be ~exhausted");
        assert!((out.fwd_consumed[0] - 5_000.0).abs() < 1.0);
    }

    #[test]
    fn conservation_budget_equals_new_copies() {
        let mut pool = Pool::new();
        let s = strand(&fwd(), &balanced(60, 0), &rev());
        pool.add(s.clone(), 50.0, None);
        let rxn = PcrReaction {
            forward_primers: vec![PcrPrimer::unlimited(fwd())],
            reverse_primer: PcrPrimer::unlimited(rev()),
            protocol: PcrProtocol::standard(8, 55.0),
        };
        let out = rxn.run(&pool);
        let grown = out.pool.total_copies() - pool.total_copies();
        assert!((grown - out.fwd_consumed[0]).abs() < 1e-6);
        assert!((grown - out.rev_consumed).abs() < 1e-6);
    }

    #[test]
    fn mispriming_overwrites_prefix_and_then_amplifies() {
        // Elongated primer = fwd + 10-base extension. A neighbour template
        // whose extension differs by 2 edits should yield a product carrying
        // the TARGET's prefix but the NEIGHBOUR's payload.
        let ext_target: DnaSeq = "ACAGTCTGAC".parse().unwrap();
        let ext_near: DnaSeq = "ACAGTCGTAC".parse().unwrap(); // 2 edits away
        let elongated = fwd().concat(&ext_target);
        let payload_t = balanced(50, 0);
        let payload_n = balanced(50, 2);
        let target = fwd()
            .concat(&ext_target)
            .concat(&payload_t)
            .concat(&rev().reverse_complement());
        let near = fwd()
            .concat(&ext_near)
            .concat(&payload_n)
            .concat(&rev().reverse_complement());
        let mut pool = Pool::new();
        pool.add(target.clone(), 100.0, Some(StrandTag::new(0, 1, 0, 0)));
        pool.add(near.clone(), 100.0, Some(StrandTag::new(0, 2, 0, 0)));
        let rxn = PcrReaction {
            forward_primers: vec![PcrPrimer::unlimited(elongated.clone())],
            reverse_primer: PcrPrimer::unlimited(rev()),
            protocol: PcrProtocol::standard(15, 55.0),
        };
        let out = rxn.run(&pool);
        assert!(out.misprime_species >= 1, "expected mispriming products");
        // The misprimed product: elongated primer + near's payload tail.
        let mut product = elongated.clone();
        product.extend_from_slice(&near.as_slice()[elongated.len()..]);
        let ms = out.pool.get(&product).expect("misprime product exists");
        assert!(ms.tag.unwrap().prefix_overwritten);
        assert_eq!(ms.tag.unwrap().unit, 2, "payload provenance preserved");
        // It must amplify far beyond its source (index now matches primer).
        assert!(ms.abundance > 10.0 * out.pool.get(&near).unwrap().abundance);
        // But target still dominates.
        let t = out.pool.get(&target).unwrap().abundance;
        assert!(t > ms.abundance, "target {t} vs misprime {}", ms.abundance);
    }

    #[test]
    fn touchdown_reduces_mispriming_vs_flat_protocol() {
        let ext_target: DnaSeq = "ACAGTCTGAC".parse().unwrap();
        let ext_near: DnaSeq = "ACAGTCGTAC".parse().unwrap();
        let elongated = fwd().concat(&ext_target);
        let target = fwd()
            .concat(&ext_target)
            .concat(&balanced(50, 0))
            .concat(&rev().reverse_complement());
        let near = fwd()
            .concat(&ext_near)
            .concat(&balanced(50, 2))
            .concat(&rev().reverse_complement());
        let mut pool = Pool::new();
        pool.add(target.clone(), 100.0, Some(StrandTag::new(0, 1, 0, 0)));
        pool.add(near.clone(), 100.0, Some(StrandTag::new(0, 2, 0, 0)));

        let run = |protocol: PcrProtocol| {
            let rxn = PcrReaction {
                forward_primers: vec![PcrPrimer::unlimited(elongated.clone())],
                reverse_primer: PcrPrimer::unlimited(rev()),
                protocol,
            };
            let out = rxn.run(&pool);
            let wrong: f64 = out
                .pool
                .iter()
                .filter(|(_, s)| {
                    s.tag
                        .map(|t| t.unit == 2 && t.prefix_overwritten)
                        .unwrap_or(false)
                })
                .map(|(_, s)| s.abundance)
                .sum();
            let right = out.pool.get(&target).unwrap().abundance;
            wrong / right
        };
        // Same total cycle count: 28 flat vs 10 touchdown + 18 flat.
        let flat = run(PcrProtocol::standard(28, 55.0));
        let td = run(PcrProtocol::paper_block_access());
        assert!(
            td < flat,
            "touchdown misprime ratio {td:.4} should beat flat {flat:.4}"
        );
    }

    #[test]
    fn multiplex_amplifies_all_targets() {
        // §6.5: "the last utilized an equal mix of all three for multiplexed
        // amplification".
        let exts: Vec<DnaSeq> = vec![
            "ACAGTCTGAC".parse().unwrap(),
            "TGTCAGACTG".parse().unwrap(),
            "CATGCATGCA".parse().unwrap(),
        ];
        let mut pool = Pool::new();
        let mut strands = Vec::new();
        for (i, ext) in exts.iter().enumerate() {
            let s = fwd()
                .concat(ext)
                .concat(&balanced(50, i))
                .concat(&rev().reverse_complement());
            pool.add(s.clone(), 100.0, Some(StrandTag::new(0, i as u64, 0, 0)));
            strands.push(s);
        }
        // a fourth, unrelated block
        let other = fwd()
            .concat(&"GACTGACTGA".parse::<DnaSeq>().unwrap())
            .concat(&balanced(50, 3))
            .concat(&rev().reverse_complement());
        pool.add(other.clone(), 100.0, Some(StrandTag::new(0, 99, 0, 0)));

        let rxn = PcrReaction {
            forward_primers: exts
                .iter()
                .map(|e| PcrPrimer::unlimited(fwd().concat(e)))
                .collect(),
            reverse_primer: PcrPrimer::unlimited(rev()),
            protocol: PcrProtocol::paper_block_access(),
        };
        let out = rxn.run(&pool);
        let o = out.pool.get(&other).unwrap().abundance;
        for (i, s) in strands.iter().enumerate() {
            let t = out.pool.get(s).unwrap().abundance;
            assert!(t / o > 100.0, "multiplex target {i} too weak: {t} vs {o}");
        }
    }

    #[test]
    fn multiplex_pairs_amplify_their_own_partitions() {
        // Two partitions with mutually distant primer pairs in one tube:
        // each pair's target grows; a third partition with no primers in
        // the tube stays flat.
        let fwd_b: DnaSeq = "CAGTGACTCAGTGACTCAGT".parse().unwrap();
        let rev_b: DnaSeq = "GTCAGTCAGTCAGTCAGTCA".parse().unwrap();
        let fwd_c: DnaSeq = "TGACTGACTGACTGACTGAC".parse().unwrap();
        let rev_c: DnaSeq = "ACTGACTGACTGACTGACTG".parse().unwrap();
        let sa = strand(&fwd(), &balanced(60, 0), &rev());
        let sb = fwd_b
            .concat(&balanced(60, 1))
            .concat(&rev_b.reverse_complement());
        let sc = fwd_c
            .concat(&balanced(60, 2))
            .concat(&rev_c.reverse_complement());
        let mut pool = Pool::new();
        pool.add(sa.clone(), 100.0, Some(StrandTag::new(0, 1, 0, 0)));
        pool.add(sb.clone(), 100.0, Some(StrandTag::new(1, 2, 0, 0)));
        pool.add(sc.clone(), 100.0, Some(StrandTag::new(2, 3, 0, 0)));
        let rxn = MultiplexPcrReaction {
            channels: vec![
                PrimerChannel {
                    forward_primers: vec![PcrPrimer::unlimited(fwd())],
                    reverse_primer: PcrPrimer::unlimited(rev()),
                },
                PrimerChannel {
                    forward_primers: vec![PcrPrimer::unlimited(fwd_b.clone())],
                    reverse_primer: PcrPrimer::unlimited(rev_b.clone()),
                },
            ],
            protocol: PcrProtocol::standard(12, 55.0),
        };
        let out = rxn.run(&pool);
        let a = out.pool.get(&sa).unwrap().abundance;
        let b = out.pool.get(&sb).unwrap().abundance;
        let c = out.pool.get(&sc).unwrap().abundance;
        assert!(a > 100.0 * 50.0, "channel A target too weak: {a}");
        assert!(b > 100.0 * 50.0, "channel B target too weak: {b}");
        assert_eq!(c, 100.0, "untargeted partition must not grow");
        // Per-channel accounting: both channels consumed primers.
        assert!(out.fwd_consumed[0][0] > 0.0);
        assert!(out.fwd_consumed[1][0] > 0.0);
        assert!(out.rev_consumed[0] > 0.0);
        assert!(out.rev_consumed[1] > 0.0);
    }

    #[test]
    fn per_channel_budget_caps_only_its_own_pair() {
        let fwd_b: DnaSeq = "CAGTGACTCAGTGACTCAGT".parse().unwrap();
        let rev_b: DnaSeq = "GTCAGTCAGTCAGTCAGTCA".parse().unwrap();
        let sa = strand(&fwd(), &balanced(60, 0), &rev());
        let sb = fwd_b
            .concat(&balanced(60, 1))
            .concat(&rev_b.reverse_complement());
        let mut pool = Pool::new();
        pool.add(sa.clone(), 100.0, None);
        pool.add(sb.clone(), 100.0, None);
        let rxn = MultiplexPcrReaction {
            channels: vec![
                PrimerChannel {
                    forward_primers: vec![PcrPrimer::with_budget(fwd(), 2_000.0)],
                    reverse_primer: PcrPrimer::unlimited(rev()),
                },
                PrimerChannel {
                    forward_primers: vec![PcrPrimer::unlimited(fwd_b.clone())],
                    reverse_primer: PcrPrimer::unlimited(rev_b.clone()),
                },
            ],
            protocol: PcrProtocol::standard(20, 55.0),
        };
        let out = rxn.run(&pool);
        let a = out.pool.get(&sa).unwrap().abundance;
        let b = out.pool.get(&sb).unwrap().abundance;
        assert!(a <= 100.0 + 2_000.0 + 1e-6, "budget violated: {a}");
        assert!(
            b > 100.0 * 1000.0,
            "unbudgeted channel should keep growing: {b}"
        );
    }

    #[test]
    fn single_channel_multiplex_matches_simple_reaction() {
        // The multiplex engine with one pair must reproduce PcrReaction
        // exactly (PcrReaction::run delegates, so this guards the mapping).
        let mut pool = Pool::new();
        let s = strand(&fwd(), &balanced(60, 0), &rev());
        pool.add(s.clone(), 100.0, None);
        let simple = PcrReaction {
            forward_primers: vec![PcrPrimer::with_budget(fwd(), 50_000.0)],
            reverse_primer: PcrPrimer::with_budget(rev(), 60_000.0),
            protocol: PcrProtocol::paper_block_access(),
        };
        let multi = MultiplexPcrReaction {
            channels: vec![PrimerChannel {
                forward_primers: simple.forward_primers.clone(),
                reverse_primer: simple.reverse_primer.clone(),
            }],
            protocol: simple.protocol.clone(),
        };
        let a = simple.run(&pool);
        let b = multi.run(&pool);
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.fwd_consumed, b.fwd_consumed[0]);
        assert_eq!(a.rev_consumed, b.rev_consumed[0]);
    }

    #[test]
    fn touchdown_protocol_shape() {
        let p = PcrProtocol::paper_block_access();
        assert_eq!(p.cycles(), 28); // 10 touchdown (65..56) + 18 at 55
        assert_eq!(p.temps[0], 65.0);
        assert_eq!(p.temps[9], 56.0);
        assert_eq!(p.temps[10], 55.0);
        assert_eq!(*p.temps.last().unwrap(), 55.0);
    }
}
