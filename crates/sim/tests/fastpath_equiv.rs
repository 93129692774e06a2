//! Golden-equivalence suite for the wetlab fast path.
//!
//! The k-mer annealing prefilter, the per-pool binding cache, and the
//! sparse amplification bookkeeping are pure work-avoidance: `run` must
//! produce **bit-identical** results to the retained dense engine
//! `run_reference` — same species set, same f64 abundances (same
//! accumulation order, so exact equality, not approximate), same consumed
//! primer budgets, same misprime accounting. Likewise the sequencer's
//! epoch-keyed scratch must never change a single read.

use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::{
    IdsChannel, MultiplexPcrReaction, PcrPrimer, PcrProtocol, PcrReaction, Pool, PrimerChannel,
    Sequencer, SequencerScratch, StrandTag,
};
use proptest::prelude::*;

fn fwd_primer(phase: usize) -> DnaSeq {
    DnaSeq::from_bases((0..20).map(|i| Base::from_code(((i + phase) % 4) as u8)))
}

fn rev_primer() -> DnaSeq {
    "AAGGCCTTAAGGCCTTAAGG".parse().unwrap()
}

/// A template strand: forward region (possibly mutated), payload encoding
/// `payload_phase`, filler, reverse-complemented reverse site.
fn template(fwd_phase: usize, payload_phase: usize, mutate_at: Option<usize>) -> DnaSeq {
    let mut s = fwd_primer(fwd_phase);
    if let Some(pos) = mutate_at {
        let bases: Vec<Base> = s
            .iter()
            .enumerate()
            .map(|(i, b)| {
                if i == pos {
                    Base::from_code((b.code() + 1) % 4)
                } else {
                    b
                }
            })
            .collect();
        s = DnaSeq::from_bases(bases);
    }
    for j in 0..10 {
        s.push(Base::from_code(((payload_phase >> (2 * j)) & 3) as u8));
    }
    for i in 0..40 {
        s.push(Base::from_code(((i * 3) % 4) as u8));
    }
    s.extend(rev_primer().reverse_complement().iter());
    s
}

/// A decoy species sharing no annealing-viable site with any primer: a
/// long homopolymer, far beyond `max_edit` from every primer window.
fn decoy(code: u8, len: usize) -> DnaSeq {
    DnaSeq::from_bases((0..len).map(|_| Base::from_code(code)))
}

fn assert_outcomes_identical(
    fast: &dna_sim::MultiplexOutcome,
    reference: &dna_sim::MultiplexOutcome,
) {
    // Pool equality is content-exact: same species, same f64 bits by Eq on
    // the ordered species map (epochs are excluded from PartialEq).
    assert_eq!(fast.pool, reference.pool, "pool contents diverged");
    assert_eq!(
        fast.fwd_consumed, reference.fwd_consumed,
        "forward budgets diverged"
    );
    assert_eq!(
        fast.rev_consumed, reference.rev_consumed,
        "reverse budgets diverged"
    );
    assert_eq!(
        fast.misprime_species, reference.misprime_species,
        "misprime accounting diverged"
    );
}

#[test]
fn single_reaction_matches_reference_engine() {
    let mut pool = Pool::new();
    pool.add(
        template(0, 1, None),
        500.0,
        Some(StrandTag::new(1, 1, 0, 0)),
    );
    pool.add(template(0, 2, None), 120.0, None);
    // A near-miss template (2 edits into the primer region): must still
    // bind, through the prefilter's positional piece test.
    pool.add(template(0, 3, Some(7)), 80.0, None);
    // Decoys the prefilter should skip without touching the model.
    pool.add(decoy(3, 90), 1000.0, None);
    pool.add(decoy(1, 70), 400.0, None);

    let rxn = PcrReaction {
        forward_primers: vec![PcrPrimer::with_budget(fwd_primer(0), 40_000.0)],
        reverse_primer: PcrPrimer::with_budget(rev_primer(), 40_000.0),
        protocol: PcrProtocol::paper_block_access(),
    };
    let fast = rxn.run(&pool);
    let reference = rxn.run_reference(&pool);
    assert_eq!(fast.pool, reference.pool);
    assert_eq!(fast.fwd_consumed, reference.fwd_consumed);
    assert_eq!(fast.rev_consumed, reference.rev_consumed);
    assert_eq!(fast.misprime_species, reference.misprime_species);
}

#[test]
fn prefilter_actually_skips_species() {
    // Guard against a silently disabled prefilter: with decoys in the
    // pool, the skip counter must move — the speedup is real, not a full
    // scan wearing a fast-path label.
    let mut pool = Pool::new();
    pool.add(template(0, 1, None), 500.0, None);
    for code in 0..4u8 {
        pool.add(decoy(code, 80 + code as usize), 100.0, None);
    }
    let rxn = PcrReaction {
        forward_primers: vec![PcrPrimer::with_budget(fwd_primer(0), 10_000.0)],
        reverse_primer: PcrPrimer::with_budget(rev_primer(), 10_000.0),
        protocol: PcrProtocol::paper_block_access(),
    };
    let before = dna_sim::stats::thread_totals();
    let _ = rxn.run(&pool);
    let delta = dna_sim::stats::thread_totals().delta_since(&before);
    assert!(
        delta.species_skipped > 0,
        "prefilter skipped nothing: {delta:?}"
    );
    // Homopolymer decoys (period-1) can never share a positioned piece
    // with the period-4 forward primer or the reverse primer, so at least
    // the 4 decoys × first cycle are skipped before any annealing work.
    assert!(delta.species_scanned > 0, "nothing scanned: {delta:?}");
}

#[test]
fn multiplex_two_channels_match_reference() {
    let mut pool = Pool::new();
    pool.add(
        template(0, 1, None),
        300.0,
        Some(StrandTag::new(1, 1, 0, 0)),
    );
    pool.add(
        template(1, 2, None),
        250.0,
        Some(StrandTag::new(1, 2, 0, 0)),
    );
    pool.add(template(0, 3, Some(4)), 90.0, None);
    pool.add(decoy(2, 85), 700.0, None);

    let rxn = MultiplexPcrReaction {
        channels: vec![
            PrimerChannel {
                forward_primers: vec![PcrPrimer::with_budget(fwd_primer(0), 20_000.0)],
                reverse_primer: PcrPrimer::with_budget(rev_primer(), 20_000.0),
            },
            PrimerChannel {
                forward_primers: vec![PcrPrimer::with_budget(fwd_primer(1), 15_000.0)],
                reverse_primer: PcrPrimer::with_budget(rev_primer(), 15_000.0),
            },
        ],
        protocol: PcrProtocol::paper_block_access(),
    };
    assert_outcomes_identical(&rxn.run(&pool), &rxn.run_reference(&pool));
}

#[test]
fn chained_reactions_share_caches_without_drift() {
    // Round-over-round equivalence: the binding cache and probability memo
    // survive across reactions on the same thread; results must stay
    // bit-identical to fresh reference runs at every round.
    let mut pool = Pool::new();
    pool.add(template(0, 1, None), 400.0, None);
    pool.add(template(0, 2, Some(11)), 150.0, None);
    pool.add(decoy(0, 75), 300.0, None);
    let rxn = PcrReaction {
        forward_primers: vec![PcrPrimer::with_budget(fwd_primer(0), 30_000.0)],
        reverse_primer: PcrPrimer::with_budget(rev_primer(), 30_000.0),
        protocol: PcrProtocol::standard(6, 58.0),
    };
    let mut current = pool;
    for round in 0..3 {
        let fast = rxn.run(&current);
        let reference = rxn.run_reference(&current);
        assert_eq!(fast.pool, reference.pool, "round {round} pool diverged");
        assert_eq!(fast.fwd_consumed, reference.fwd_consumed, "round {round}");
        assert_eq!(fast.rev_consumed, reference.rev_consumed, "round {round}");
        assert_eq!(fast.misprime_species, reference.misprime_species);
        // Feed the product forward — mutated pools exercise cache
        // invalidation by content, not by identity.
        current = fast.pool.scaled(0.5);
    }
    let before = dna_sim::stats::thread_totals();
    let _ = rxn.run(&current);
    let delta = dna_sim::stats::thread_totals().delta_since(&before);
    assert!(
        delta.binding_cache_hits > 0,
        "chained rounds never hit the binding cache: {delta:?}"
    );
}

#[test]
fn touchdown_temperatures_hit_probability_memo_identically() {
    // Touchdown schedules sweep temperatures, exercising the (site, temp)
    // probability memo across distinct keys.
    let mut pool = Pool::new();
    pool.add(template(0, 1, None), 200.0, None);
    pool.add(template(0, 4, Some(2)), 140.0, None);
    let rxn = PcrReaction {
        forward_primers: vec![PcrPrimer::with_budget(fwd_primer(0), 25_000.0)],
        reverse_primer: PcrPrimer::with_budget(rev_primer(), 25_000.0),
        protocol: PcrProtocol::touchdown(68.0, 55.0, 4),
    };
    let fast = rxn.run(&pool);
    let reference = rxn.run_reference(&pool);
    assert_eq!(fast.pool, reference.pool);
    assert_eq!(fast.fwd_consumed, reference.fwd_consumed);
    assert_eq!(fast.rev_consumed, reference.rev_consumed);
}

#[test]
fn sequence_into_reusing_scratch_is_read_identical() {
    let mut pool = Pool::new();
    for i in 0..6 {
        pool.add(template(0, i, None), 50.0 * (i + 1) as f64, None);
    }
    let seq = Sequencer::new(IdsChannel::nanopore());
    let baseline = seq.sequence(&pool, 300, &mut DetRng::seed_from_u64(42));
    // Same pool, same seed, explicit scratch reused across three batches.
    let mut rng = DetRng::seed_from_u64(42);
    let mut scratch = SequencerScratch::new();
    let mut streamed = Vec::new();
    for batch in [100usize, 150, 50] {
        seq.sequence_into(&pool, batch, &mut rng, &mut scratch, &mut streamed);
    }
    assert_eq!(streamed, baseline);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized pools/budgets/cycles: the fast engine is bit-identical
    /// to the dense reference under arbitrary mixes of binding templates,
    /// near-miss mutants, and unbindable decoys.
    #[test]
    fn random_pools_match_reference(
        abundances in prop::collection::vec(1.0f64..5_000.0, 1..6),
        // 0..20 mutates that primer position; 20 means "no mutation".
        mutate in prop::collection::vec(0usize..21, 1..6),
        budget in 500.0f64..200_000.0,
        cycles in 1usize..8,
        temp in 50.0f64..68.0,
        decoys in 0usize..3,
    ) {
        let mut pool = Pool::new();
        for (i, (&ab, &m)) in abundances.iter().zip(mutate.iter().cycle()).enumerate() {
            pool.add(template(0, i, (m < 20).then_some(m)), ab, None);
        }
        for d in 0..decoys {
            pool.add(decoy((d % 4) as u8, 60 + 7 * d), 100.0 + d as f64, None);
        }
        let rxn = PcrReaction {
            forward_primers: vec![PcrPrimer::with_budget(fwd_primer(0), budget)],
            reverse_primer: PcrPrimer::with_budget(rev_primer(), budget),
            protocol: PcrProtocol::standard(cycles, temp),
        };
        let fast = rxn.run(&pool);
        let reference = rxn.run_reference(&pool);
        prop_assert_eq!(&fast.pool, &reference.pool);
        prop_assert_eq!(&fast.fwd_consumed, &reference.fwd_consumed);
        prop_assert!(fast.rev_consumed == reference.rev_consumed);
        prop_assert_eq!(fast.misprime_species, reference.misprime_species);
    }

    /// The sequencer scratch path returns the same reads for any split of
    /// one draw sequence into batches.
    #[test]
    fn sequencer_batching_invariant(seed in any::<u64>(), split in 1usize..199) {
        let mut pool = Pool::new();
        for i in 0..4 {
            pool.add(template(0, i, None), 30.0 * (i + 1) as f64, None);
        }
        let seq = Sequencer::new(IdsChannel::illumina());
        let baseline = seq.sequence(&pool, 200, &mut DetRng::seed_from_u64(seed));
        let mut rng = DetRng::seed_from_u64(seed);
        let mut scratch = SequencerScratch::new();
        let mut streamed = Vec::new();
        seq.sequence_into(&pool, split, &mut rng, &mut scratch, &mut streamed);
        seq.sequence_into(&pool, 200 - split, &mut rng, &mut scratch, &mut streamed);
        prop_assert_eq!(streamed, baseline);
    }
}
