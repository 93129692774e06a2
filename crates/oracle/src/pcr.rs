//! The dense multiplex PCR engine.

use dna_seq::DnaSeq;
use dna_sim::{
    BindingSite, MultiplexOutcome, MultiplexPcrReaction, PcrPrimer, PcrReaction, Pool,
    PrimerChannel, StrandTag,
};
use std::collections::BTreeMap;

/// Per-species binding geometry: one slot per flattened forward primer
/// and one per channel's reverse primer.
struct BindingInfo {
    /// Binding geometry of each forward primer at this species' 5' site.
    fwd_site: Vec<Option<BindingSite>>,
    /// Binding geometry of each channel's reverse primer at the 3' site
    /// (via reverse complement).
    rev_site: Vec<Option<BindingSite>>,
}

/// The one-channel multiplex reaction `PcrReaction::run` runs: its
/// forward primers and reverse primer as the tube's only pair. Compare
/// `PcrReaction::run` with [`run_pcr`] on it, channel 0's consumption
/// against the simple outcome's.
pub fn one_channel(rxn: &PcrReaction) -> MultiplexPcrReaction {
    MultiplexPcrReaction {
        channels: vec![PrimerChannel {
            forward_primers: rxn.forward_primers.clone(),
            reverse_primer: rxn.reverse_primer.clone(),
        }],
        protocol: rxn.protocol.clone(),
    }
}

/// `MultiplexPcrReaction::run` as a dense per-cycle scan with no caches:
/// every cycle walks the whole pool in sequence order, aligns each
/// species once against every primer (kept for later cycles), and applies
/// every contribution through `Pool::add`. The fast engine must produce
/// bit-identical pools, budgets and misprime counts.
pub fn run_pcr(rxn: &MultiplexPcrReaction, input: &Pool) -> MultiplexOutcome {
    let anneal = &rxn.protocol.anneal;
    // Flatten forwards, remembering each primer's channel.
    let forwards: Vec<(usize, &PcrPrimer)> = rxn
        .channels
        .iter()
        .enumerate()
        .flat_map(|(ci, ch)| ch.forward_primers.iter().map(move |p| (ci, p)))
        .collect();
    let reverses: Vec<&PcrPrimer> = rxn.channels.iter().map(|ch| &ch.reverse_primer).collect();

    let mut pool = input.clone();
    let mut info: BTreeMap<DnaSeq, BindingInfo> = BTreeMap::new();
    let mut fwd_left: Vec<f64> = forwards.iter().map(|(_, p)| p.budget).collect();
    let mut rev_left: Vec<f64> = reverses.iter().map(|p| p.budget).collect();
    let mut fwd_used = vec![0.0; forwards.len()];
    let mut rev_used = vec![0.0; reverses.len()];
    let mut misprime_species = 0usize;

    for &temp in &rxn.protocol.temps {
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
        let mut additions: Vec<(DnaSeq, f64, Option<StrandTag>)> = Vec::new();
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
    let mut fwd_consumed: Vec<Vec<f64>> = rxn
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
