//! Golden-equivalence suite for the wetlab fast path.
//!
//! The per-reaction window memo, the probability table, and the sparse
//! amplification bookkeeping are pure work-avoidance: `run` must produce
//! **bit-identical** results to the dense engine `dna_oracle::run_pcr` —
//! same species set, same f64 abundances (same accumulation order, so
//! exact equality, not approximate), same consumed primer budgets, same
//! misprime accounting. A `PcrReaction` is compared with the oracle run on
//! its one channel. Likewise the sequencer's epoch-keyed scratch must
//! never change a single read, and its IDS channel, which decides each
//! per-base trial on an integer threshold, must draw exactly what the
//! `gen_bool` loop of `dna_oracle::corrupt` draws.

use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::{
    IdsChannel, MultiplexOutcome, MultiplexPcrReaction, PcrOutcome, PcrPrimer, PcrProtocol,
    PcrReaction, Pool, PrimerChannel, Sequencer, SequencerScratch, StrandTag,
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

fn single_channel(fwd: DnaSeq, rev: DnaSeq, budget: f64) -> MultiplexPcrReaction {
    MultiplexPcrReaction {
        channels: vec![PrimerChannel {
            forward_primers: vec![PcrPrimer::with_budget(fwd, budget)],
            reverse_primer: PcrPrimer::with_budget(rev, budget),
        }],
        protocol: PcrProtocol::paper_block_access(),
    }
}

fn assert_outcomes_identical(fast: &MultiplexOutcome, reference: &MultiplexOutcome) {
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

/// The oracle's outcome for `rxn`, run on its one channel.
fn oracle(rxn: &PcrReaction, pool: &Pool) -> MultiplexOutcome {
    dna_oracle::run_pcr(&dna_oracle::one_channel(rxn), pool)
}

/// A simple reaction's outcome against the oracle's one-channel outcome.
fn assert_single_identical(fast: &PcrOutcome, reference: &MultiplexOutcome) {
    assert_eq!(fast.pool, reference.pool, "pool contents diverged");
    assert_eq!(
        fast.fwd_consumed, reference.fwd_consumed[0],
        "forward budgets diverged"
    );
    assert_eq!(
        fast.rev_consumed, reference.rev_consumed[0],
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
    // A near-miss template (an edit inside the primer region): must still
    // bind, with the same geometry the reference engine aligns.
    pool.add(template(0, 3, Some(7)), 80.0, None);
    // Decoys no primer binds: they must come out unamplified.
    pool.add(decoy(3, 90), 1000.0, None);
    pool.add(decoy(1, 70), 400.0, None);

    let rxn = PcrReaction {
        forward_primers: vec![PcrPrimer::with_budget(fwd_primer(0), 40_000.0)],
        reverse_primer: PcrPrimer::with_budget(rev_primer(), 40_000.0),
        protocol: PcrProtocol::paper_block_access(),
    };
    let fast = rxn.run(&pool);
    assert_single_identical(&fast, &oracle(&rxn, &pool));
    for (seq, abundance) in [(decoy(3, 90), 1000.0), (decoy(1, 70), 400.0)] {
        assert_eq!(fast.pool.get(&seq).map(|sp| sp.abundance), Some(abundance));
    }
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
    assert_outcomes_identical(&rxn.run(&pool), &dna_oracle::run_pcr(&rxn, &pool));
}

#[test]
fn chained_reactions_match_reference_without_drift() {
    // Round-over-round equivalence: each reaction builds its annealing
    // tables afresh, so every round must stay bit-identical to a fresh
    // reference run and pay for exactly its own distinct windows.
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
    let mut counts = Vec::new();
    for _ in 0..3 {
        let before = dna_sim::stats::thread_totals();
        let fast = rxn.run(&current);
        let delta = dna_sim::stats::thread_totals().delta_since(&before);
        counts.push((delta.species_scanned, delta.binding_cache_hits));
        assert_single_identical(&fast, &oracle(&rxn, &current));
        // Feed the product forward — mutated pools exercise the memo by
        // content, not by identity.
        current = fast.pool.scaled(0.5);
    }
    // Every round's reaction holds the two templates, the decoy and the
    // product of the mutant template (its primer region repaired, i.e.
    // template(0, 2); round 0 creates it in its first cycle). Their four
    // 24-base forward windows are distinct; the three
    // template strands share one 3' window and the decoy has its own. So
    // each round aligns 4 + 2 = 6 windows and answers the other two
    // reverse lookups from the memo — the same in round 2 as in round 0,
    // because nothing carries over between reactions.
    assert_eq!(counts, vec![(6, 2); 3]);
}

/// `n` strands behind one forward primer, told apart by four index bases
/// inside the primer's 24-base window, all ending in the same reverse
/// site.
fn shared_tail_pool(n: usize) -> Pool {
    let mut pool = Pool::new();
    for k in 0..n {
        let mut s = fwd_primer(0);
        s.extend((0..4).map(|j| Base::from_code(((k >> (2 * j)) & 3) as u8)));
        s.extend((0..40).map(|i| Base::from_code(((i * 3) % 4) as u8)));
        s.extend(rev_primer().reverse_complement().iter());
        pool.add(s, 100.0 + k as f64, None);
    }
    pool
}

#[test]
fn strands_sharing_a_three_prime_window_cost_one_reverse_alignment() {
    let n = 40;
    let pool = shared_tail_pool(n);
    let rxn = single_channel(fwd_primer(0), rev_primer(), 1.0e6);
    let before = dna_sim::stats::thread_totals();
    let fast = rxn.run(&pool);
    let delta = dna_sim::stats::thread_totals().delta_since(&before);
    // Every strand matches the primer exactly, so no product appears: one
    // alignment per distinct forward window, one for the shared 3' window,
    // and the other n - 1 reverse lookups are memo hits.
    assert_eq!(fast.misprime_species, 0);
    assert_eq!(delta.species_scanned, n as u64 + 1);
    assert_eq!(delta.binding_cache_hits, n as u64 - 1);
    assert_outcomes_identical(&fast, &dna_oracle::run_pcr(&rxn, &pool));
}

#[test]
fn a_fresh_thread_scans_exactly_what_the_calling_thread_scans() {
    // Mispriming products make the memo's work depend on the reaction's
    // own history; none of it may depend on the thread's.
    let mut pool = shared_tail_pool(24);
    pool.add(template(0, 5, Some(3)), 300.0, None);
    pool.add(template(0, 6, Some(17)), 200.0, None);
    let rxn = single_channel(fwd_primer(0), rev_primer(), 5.0e5);
    let counted = |rxn: &MultiplexPcrReaction, pool: &Pool| {
        let before = dna_sim::stats::thread_totals();
        let out = rxn.run(pool);
        (dna_sim::stats::thread_totals().delta_since(&before), out)
    };
    let (here, out) = counted(&rxn, &pool);
    let (again, _) = counted(&rxn, &pool);
    let (there, out_there) =
        std::thread::scope(|s| s.spawn(|| counted(&rxn, &pool)).join()).expect("reaction thread");
    assert!(out.misprime_species > 0, "the pool must misprime");
    assert!(here.species_scanned > 0);
    assert_eq!(here, again, "a second run on the same thread differs");
    assert_eq!(here, there, "a fresh thread does different work");
    assert_outcomes_identical(&out, &out_there);
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
    assert_single_identical(&rxn.run(&pool), &oracle(&rxn, &pool));
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

#[test]
fn ids_channel_draws_what_the_gen_bool_loop_drew() {
    let rates = [0.0, 1.0, 1e-9, 0.5];
    let mut channels = vec![
        IdsChannel::illumina(),
        IdsChannel::nanopore(),
        IdsChannel::noiseless(),
    ];
    for &sub_rate in &rates {
        for &ins_rate in &rates {
            for &del_rate in &rates {
                channels.push(IdsChannel {
                    sub_rate,
                    ins_rate,
                    del_rate,
                });
            }
        }
    }
    let mut templates = DetRng::seed_from_u64(0x1d5);
    for (c, channel) in channels.iter().enumerate() {
        for seed in 0..8u64 {
            let len = templates.gen_range(200);
            let template =
                DnaSeq::from_bases((0..len).map(|_| Base::from_code(templates.gen_range(4) as u8)));
            let mut fast = DetRng::seed_from_u64(seed ^ ((c as u64) << 8));
            let mut reference = fast.clone();
            for _ in 0..4 {
                assert_eq!(
                    channel.corrupt(&template, &mut fast),
                    dna_oracle::corrupt(channel, &template, &mut reference),
                    "{channel:?} seed {seed}"
                );
            }
            // Same draws consumed, not just the same reads.
            assert_eq!(
                fast.next_u64(),
                reference.next_u64(),
                "{channel:?} seed {seed}"
            );
        }
    }
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
        let reference = oracle(&rxn, &pool);
        prop_assert_eq!(&fast.pool, &reference.pool);
        prop_assert_eq!(&fast.fwd_consumed, &reference.fwd_consumed[0]);
        prop_assert!(fast.rev_consumed == reference.rev_consumed[0]);
        prop_assert_eq!(fast.misprime_species, reference.misprime_species);
    }

    /// A partition-shaped tube: every strand starts with one shared
    /// 20-base primer and random index bases, and ends with one of two
    /// reverse sites. Two channels share the tube; their forward primers
    /// (26 and 31 bases, the shorter a prefix of the longer, as a prefix
    /// cover's are) and their reverse primers (20 and 23 bases) differ in
    /// length, so one strand presents windows of different lengths to
    /// each. The strands include:
    /// - mutants of the previous strand with one base flipped on a window
    ///   edge — the last base inside a window or the first past it
    ///   (positions `len + max_edit - 1` and `len + max_edit` from either
    ///   end);
    /// - primer sites with `max_edit` insertions, whose best alignment
    ///   uses the whole window, so its last base decides the 3' distance;
    /// - templates shorter than a window.
    #[test]
    fn partition_shaped_multiplex_matches_reference(
        seed in any::<u64>(),
        kinds in prop::collection::vec((0usize..6, 1.0f64..3_000.0), 4..14),
        cycles in 1usize..10,
        budget in 1_000.0f64..500_000.0,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let random = |rng: &mut DetRng, n: usize| {
            DnaSeq::from_bases((0..n).map(|_| Base::from_code(rng.gen_range(4) as u8)))
        };
        let max_edit = PcrProtocol::paper_block_access().anneal.max_edit;
        // `max_edit` random insertions into `seq`.
        let stretched = |rng: &mut DetRng, seq: &DnaSeq| {
            let mut bases: Vec<Base> = seq.as_slice().to_vec();
            for _ in 0..max_edit {
                let at = 1 + rng.gen_range(bases.len() - 1);
                bases.insert(at, Base::from_code(rng.gen_range(4) as u8));
            }
            DnaSeq::from(bases)
        };
        let shared = random(&mut rng, 20);
        let index = random(&mut rng, 11);
        let long_fwd = shared.concat(&index);
        let short_fwd = DnaSeq::from(long_fwd.as_slice()[..26].to_vec());
        let short_rev = random(&mut rng, 20);
        let long_rev = short_rev.concat(&random(&mut rng, 3));
        let sites = [short_rev.reverse_complement(), long_rev.reverse_complement()];
        let mut pool = Pool::new();
        let mut last = long_fwd.concat(&random(&mut rng, 30)).concat(&sites[0]);
        for (i, &(kind, abundance)) in kinds.iter().enumerate() {
            let pick = rng.gen_range(8);
            let strand = match kind {
                // A sibling block: the shared primer, the index with up to
                // two substitutions, a payload and a reverse site.
                0 => {
                    let mut idx: Vec<Base> = index.as_slice().to_vec();
                    for _ in 0..pick % 3 {
                        let at = rng.gen_range(11);
                        idx[at] = Base::from_code((idx[at].code() + 1) % 4);
                    }
                    shared
                        .concat(&DnaSeq::from(idx))
                        .concat(&random(&mut rng, 30))
                        .concat(&sites[pick % 2])
                }
                // The previous strand with one window-edge base flipped.
                1 => {
                    let mut bases: Vec<Base> = last.as_slice().to_vec();
                    let len = [26, 31, 20, 23][pick / 2];
                    let at = len + max_edit - 1 + pick % 2;
                    let at = if pick < 4 { at } else { bases.len() - 1 - at };
                    bases[at] = Base::from_code((bases[at].code() + 1) % 4);
                    DnaSeq::from(bases)
                }
                // A short template: primer and reverse site, no payload,
                // so the windows of both ends overlap.
                2 => {
                    let fwd = [&short_fwd, &long_fwd][pick % 2];
                    fwd.concat(&sites[pick / 2 % 2])
                }
                // A fragment shorter than a forward window.
                3 => DnaSeq::from(last.as_slice()[..18 + 2 * pick].to_vec()),
                // A stretched forward primer site.
                4 => {
                    let fwd = [&short_fwd, &long_fwd][pick % 2];
                    stretched(&mut rng, fwd)
                        .concat(&long_fwd.as_slice()[fwd.len()..].iter().copied().collect())
                        .concat(&random(&mut rng, 30))
                        .concat(&sites[pick / 2 % 2])
                }
                // A stretched reverse primer site.
                _ => {
                    let rev = [&short_rev, &long_rev][pick % 2];
                    long_fwd
                        .concat(&random(&mut rng, 30))
                        .concat(&stretched(&mut rng, rev).reverse_complement())
                }
            };
            let tag = (i % 2 == 0).then(|| StrandTag::new(1, i as u64, 0, 0));
            pool.add(strand.clone(), abundance, tag);
            if strand.len() > 60 {
                last = strand;
            }
        }
        let rxn = MultiplexPcrReaction {
            channels: vec![
                PrimerChannel {
                    forward_primers: vec![PcrPrimer::with_budget(short_fwd.clone(), budget)],
                    reverse_primer: PcrPrimer::with_budget(short_rev.clone(), budget),
                },
                PrimerChannel {
                    forward_primers: vec![PcrPrimer::with_budget(long_fwd.clone(), budget / 2.0)],
                    reverse_primer: PcrPrimer::with_budget(long_rev.clone(), budget / 2.0),
                },
            ],
            protocol: PcrProtocol {
                temps: PcrProtocol::paper_block_access().temps[..cycles].to_vec(),
                ..PcrProtocol::paper_block_access()
            },
        };
        let fast = rxn.run(&pool);
        let reference = dna_oracle::run_pcr(&rxn, &pool);
        prop_assert_eq!(&fast.pool, &reference.pool);
        prop_assert_eq!(&fast.fwd_consumed, &reference.fwd_consumed);
        prop_assert_eq!(&fast.rev_consumed, &reference.rev_consumed);
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
