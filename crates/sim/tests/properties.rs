//! Property-based tests for the wetlab simulator's invariants.

use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::{
    AnnealModel, IdsChannel, PcrPrimer, PcrProtocol, PcrReaction, Pool, Sequencer, StrandTag,
};
use proptest::prelude::*;

fn strand(fwd_phase: usize, payload_phase: usize) -> DnaSeq {
    let mut s = DnaSeq::new();
    // 20-base forward region.
    for i in 0..20 {
        s.push(Base::from_code(((i + fwd_phase) % 4) as u8));
    }
    // payload encoding the phase.
    for j in 0..10 {
        s.push(Base::from_code(((payload_phase >> (2 * j)) & 3) as u8));
    }
    for i in 0..40 {
        s.push(Base::from_code((i % 4) as u8));
    }
    // reverse site.
    let rev: DnaSeq = "AAGGCCTTAAGGCCTTAAGG".parse().unwrap();
    s.extend(rev.reverse_complement().iter());
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mass conservation: every new copy consumes exactly one forward and
    /// one reverse primer molecule, for arbitrary budgets and cycles.
    #[test]
    fn pcr_mass_conservation(
        budget in 1_000.0f64..1.0e7,
        cycles in 1usize..20,
        initial in 10.0f64..1.0e4,
    ) {
        let fwd: DnaSeq = "AACCGGTTAACCGGTTAACC".parse().unwrap();
        let rev: DnaSeq = "AAGGCCTTAAGGCCTTAAGG".parse().unwrap();
        let mut pool = Pool::new();
        let mut s = fwd.clone();
        for i in 0..60 { s.push(Base::from_code((i % 4) as u8)); }
        s.extend(rev.reverse_complement().iter());
        pool.add(s, initial, Some(StrandTag::new(0, 0, 0, 0)));
        let rxn = PcrReaction {
            forward_primers: vec![PcrPrimer::with_budget(fwd, budget)],
            reverse_primer: PcrPrimer::with_budget(rev, budget),
            protocol: PcrProtocol::standard(cycles, 55.0),
        };
        let out = rxn.run(&pool);
        let grown = out.pool.total_copies() - pool.total_copies();
        prop_assert!((grown - out.fwd_consumed[0]).abs() < 1e-6 * grown.max(1.0));
        prop_assert!((grown - out.rev_consumed).abs() < 1e-6 * grown.max(1.0));
        prop_assert!(out.fwd_consumed[0] <= budget * (1.0 + 1e-9));
        prop_assert!(out.pool.total_copies() >= pool.total_copies());
    }

    /// Pool mixing is linear: total of the mix equals the weighted totals.
    #[test]
    fn pool_mixing_linear(
        a_ab in prop::collection::vec(0.0f64..1e6, 1..8),
        b_ab in prop::collection::vec(0.0f64..1e6, 1..8),
        sa in 0.0f64..2.0,
        sb in 0.0f64..2.0,
    ) {
        let mut a = Pool::new();
        for (i, &x) in a_ab.iter().enumerate() {
            a.add(strand(0, i), x, None);
        }
        let mut b = Pool::new();
        for (i, &x) in b_ab.iter().enumerate() {
            b.add(strand(1, 100 + i), x, None);
        }
        let mix = a.mixed_with(&b, sa, sb);
        let expected = a.total_copies() * sa + b.total_copies() * sb;
        prop_assert!((mix.total_copies() - expected).abs() < 1e-6 * expected.max(1.0));
    }

    /// The sequencer returns exactly the requested number of reads and
    /// every read's truth tag comes from the pool.
    #[test]
    fn sequencer_read_counts(seed in any::<u64>(), n in 1usize..500) {
        let mut pool = Pool::new();
        for i in 0..5 {
            pool.add(strand(0, i), 100.0 * (i + 1) as f64, Some(StrandTag::new(0, i as u64, 0, 0)));
        }
        let mut rng = DetRng::seed_from_u64(seed);
        let reads = Sequencer::new(IdsChannel::illumina()).sequence(&pool, n, &mut rng);
        prop_assert_eq!(reads.len(), n);
        for r in &reads {
            let t = r.truth.unwrap();
            prop_assert!(t.unit < 5);
        }
    }

    /// The IDS channel never changes length by more than the number of
    /// events and preserves content for zero rates.
    #[test]
    fn ids_channel_sane(seed in any::<u64>(), len in 10usize..200) {
        let mut rng = DetRng::seed_from_u64(seed);
        let s = DnaSeq::from_bases((0..len).map(|_| Base::from_code(rng.gen_range(4) as u8)));
        let clean = IdsChannel::noiseless().corrupt(&s, &mut rng);
        prop_assert_eq!(clean, s.clone());
        let noisy = IdsChannel::nanopore().corrupt(&s, &mut rng);
        prop_assert!(noisy.len() >= len / 2 && noisy.len() <= len * 2);
    }

    /// Touchdown protocols cool monotonically to the plateau.
    #[test]
    fn touchdown_monotone(start in 60.0f64..72.0, plateau in 1usize..30) {
        let p = PcrProtocol::touchdown(start, 55.0, plateau);
        for w in p.temps.windows(2) {
            prop_assert!(w[1] <= w[0]);
        }
        prop_assert_eq!(*p.temps.last().unwrap(), 55.0);
        prop_assert!(p.temps.iter().all(|&t| t >= 55.0 && t <= start));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `binding_site` reads only the first `primer.len() + max_edit` bases
    /// of a site: cutting the site to that window never changes the
    /// result. The PCR fast path keys its binding memo on this window.
    /// Sites are the primer with substitutions or insertions (so the best
    /// alignment can span the whole window) and a random tail, cut to any
    /// length, including shorter than the window.
    #[test]
    fn binding_site_reads_only_its_window(
        seed in any::<u64>(),
        primer_len in 1usize..32,
        max_edit in 0usize..7,
        substitutions in 0usize..4,
        insertions in 0usize..7,
        site_len in 0usize..48,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut random_base = || Base::from_code(rng.gen_range(4) as u8);
        let primer = DnaSeq::from_bases((0..primer_len).map(|_| random_base()));
        let mut bases: Vec<Base> = primer.as_slice().to_vec();
        for k in 0..substitutions + insertions {
            let at = (k * 7 + seed as usize) % bases.len();
            if k < substitutions {
                bases[at] = Base::from_code((bases[at].code() + 1) % 4);
            } else {
                bases.insert(at, random_base());
            }
        }
        bases.extend((0..48).map(|_| random_base()));
        bases.truncate(site_len);
        let site = DnaSeq::from(bases);
        let model = AnnealModel { max_edit, ..AnnealModel::calibrated() };
        let window = site_len.min(primer_len + max_edit);
        let cut = DnaSeq::from(site.as_slice()[..window].to_vec());
        prop_assert_eq!(model.binding_site(&primer, &site), model.binding_site(&primer, &cut));
    }
}
