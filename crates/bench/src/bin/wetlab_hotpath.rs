//! Wetlab fast-path microbenches: one gate per optimization layer.
//!
//! Each layer of the simulator fast path is timed against the code it
//! replaced, on a workload shaped like the block store's (multiplex PCR
//! over a mostly-non-target pool, repeated sequencing of one product, one
//! range read's primer search). The replaced code of layers 1, 2 and 4–7
//! is the reference implementation in `dna_oracle`, the same one the
//! equivalence suites pin the fast paths to:
//!
//! 1. **Binding cache** — `PcrReaction::run` (per-reaction window memo,
//!    probability table, sparse application) vs the dense engine
//!    `dna_oracle::run_pcr` on its one channel.
//! 2. **Sparse amplification** — the same pair on a pool where almost no
//!    species amplifies, isolating the per-cycle bookkeeping cost.
//! 3. **Sequencing scratch** — repeated draws from an unchanged pool with
//!    the epoch-keyed cumulative-weight table vs a cold table per batch.
//! 4. **Decode filter** — `ReadFilter::extract` (one bit-parallel
//!    `PrefixAligner` pass per primer) vs the per-window banded
//!    edit-distance scan it replaced (`dna_oracle::extract`), over one
//!    range-read round's reads and filters.
//! 5. **Decode cluster** — `cluster_reads` (rolling-k-mer signatures, one
//!    per distinct read, stamped candidates, confirmation on the banded
//!    bit-vector kernel with a bound that tightens after each hit) vs the
//!    clustering it replaced (`dna_oracle::cluster_reads`, confirming on
//!    the scalar banded DP), over one range-read job's interiors.
//! 6. **Partition tube** — the PCR pair again, on a real paper partition's
//!    tube, read with one block's elongated primer and with an 8-block
//!    prefix cover: every strand carries the partition's primers.
//! 7. **Sequencing channel** — `IdsChannel::corrupt`, whose per-base
//!    insertion, deletion and substitution trials compare the raw draw
//!    with thresholds fixed once per read, vs the three `gen_bool` calls
//!    per base it replaced (`dna_oracle::corrupt`), over one range round's
//!    reads.
//! 8. **Decode route** — `ReadRouter::route` (one pass per read: a trie
//!    walk of the round's prefixes on the transposed aligner, the reverse
//!    site aligned once per four reads) vs the per-job `ReadFilter` scans
//!    it replaced, each job's filter over every read, on the range round
//!    of layer 4.
//!
//! Every layer's fast path is asserted equal to its baseline *in this
//! binary* before timing (the exhaustive equivalence suites are
//! `crates/sim/tests/fastpath_equiv.rs` and the pipeline's
//! `{filter,cluster,route}_equivalence.rs`), so a gate failure is a perf
//! regression, never a correctness trade. Each side is timed in
//! interleaved batches and gated on the median batch, so one slow batch on
//! a shared host cannot fail a gate. Results land in
//! `BENCH_wetlab.json` with the gate and its rationale next to each
//! number; CI re-runs the binary, which asserts the gates.

use dna_bench::report;
use dna_block_store::{workload, BlockStore, PartitionConfig, BLOCK_SIZE};
use dna_pipeline::{cluster_reads, BlockDecodeConfig, ReadFilter, ReadRouter};
use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::{
    IdsChannel, MultiplexOutcome, MultiplexPcrReaction, PcrPrimer, PcrProtocol, PcrReaction, Pool,
    PrimerChannel, Read, Sequencer, SequencerScratch,
};
use std::time::Instant;

struct Layer {
    name: &'static str,
    baseline_ms: f64,
    fast_ms: f64,
    speedup: f64,
    gate: f64,
    rationale: &'static str,
    counters: Vec<(&'static str, u64)>,
}

/// Timed batches per side.
const BATCHES: usize = 5;

/// Per-call milliseconds of `baseline` and `fast`, as `(baseline, fast)`.
/// After one warmup call each, the two sides run [`BATCHES`] interleaved
/// batches of `reps` calls, so host load drifts over both alike; each
/// side reports its median batch.
fn time_ms<B, F>(
    reps: usize,
    mut baseline: impl FnMut() -> B,
    mut fast: impl FnMut() -> F,
) -> (f64, f64) {
    fn batch<T>(reps: usize, f: &mut impl FnMut() -> T) -> f64 {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        start.elapsed().as_secs_f64() * 1e3 / reps as f64
    }
    let _ = baseline();
    let _ = fast();
    let (mut base_ms, mut fast_ms) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        fast_ms.push(batch(reps, &mut fast));
        base_ms.push(batch(reps, &mut baseline));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(base_ms), median(fast_ms))
}

fn fwd_primer(phase: usize) -> DnaSeq {
    DnaSeq::from_bases((0..20).map(|i| Base::from_code(((i + phase) % 4) as u8)))
}

fn rev_primer() -> DnaSeq {
    "AAGGCCTTAAGGCCTTAAGG".parse().unwrap()
}

fn template(fwd_phase: usize, payload: usize) -> DnaSeq {
    let mut s = fwd_primer(fwd_phase);
    for j in 0..12 {
        s.push(Base::from_code(((payload >> (2 * j)) & 3) as u8));
    }
    for i in 0..40 {
        s.push(Base::from_code(((i * 3) % 4) as u8));
    }
    s.extend(rev_primer().reverse_complement().iter());
    s
}

/// A pool shaped like a multiplexed retrieval tube: a few strands the
/// primers target, many strands they cannot bind (other partitions'
/// species, junk). `targets` bind `fwd_primer(0)`; the rest use distant
/// primer phases and random payloads.
fn mixed_pool(targets: usize, others: usize) -> Pool {
    let mut pool = Pool::new();
    let mut rng = DetRng::seed_from_u64(0xbeef);
    for t in 0..targets {
        pool.add(template(0, t), 200.0 + t as f64, None);
    }
    for o in 0..others {
        // Homopolymer-dominated junk: no window of it comes near the
        // period-4 primer, and the random tail keeps species distinct.
        let mut junk = DnaSeq::new();
        let body = Base::from_code((o % 4) as u8);
        for _ in 0..70 {
            junk.push(body);
        }
        for _ in 0..12 {
            junk.push(Base::from_code((rng.gen_range(4)) as u8));
        }
        pool.add(junk, 50.0, None);
    }
    pool
}

fn pcr_rxn(budget: f64, cycles: usize) -> PcrReaction {
    PcrReaction {
        forward_primers: vec![PcrPrimer::with_budget(fwd_primer(0), budget)],
        reverse_primer: PcrPrimer::with_budget(rev_primer(), budget),
        protocol: PcrProtocol::standard(cycles, 55.0),
    }
}

// ---------------------------------------------------------------------------
// layer 1: cross-cycle binding cache
// ---------------------------------------------------------------------------

fn bench_binding_cache() -> Layer {
    let pool = mixed_pool(8, 192);
    let rxn = pcr_rxn(60_000.0, 12);
    let dense = dna_oracle::one_channel(&rxn);
    let fast = rxn.run(&pool);
    let reference = dna_oracle::run_pcr(&dense, &pool);
    assert_eq!(fast.pool, reference.pool, "fast path diverged");
    assert_eq!(fast.fwd_consumed, reference.fwd_consumed[0]);
    // Counters of one run; every run does the same work.
    let before = dna_sim::stats::thread_totals();
    let _ = rxn.run(&pool);
    let delta = dna_sim::stats::thread_totals().delta_since(&before);

    let (baseline_ms, fast_ms) =
        time_ms(10, || dna_oracle::run_pcr(&dense, &pool), || rxn.run(&pool));
    Layer {
        name: "pcr_binding_cache",
        baseline_ms,
        fast_ms,
        speedup: baseline_ms / fast_ms.max(1e-9),
        gate: 2.0,
        rationale: "the dense engine aligns every (species, primer) pair \
                    in each of 12 cycles and applies the whole tube; the fast \
                    engine aligns each distinct (primer, site window) once \
                    per reaction (the 8 targets share one 3' window) and \
                    applies only the 8 amplified species of the 200, so well \
                    over half of the dense engine's work must disappear — 2x \
                    is conservative and fails if binding reuse or sparse \
                    application falls back to the dense pattern. The dense \
                    engine's species map shares the word-at-a-time DnaSeq \
                    ordering, which took it from about 6.5x to about 3x here",
        counters: vec![
            ("species_scanned", delta.species_scanned),
            ("binding_cache_hits", delta.binding_cache_hits),
        ],
    }
}

// ---------------------------------------------------------------------------
// layer 2: sparse amplification bookkeeping
// ---------------------------------------------------------------------------

fn bench_sparse_amplify() -> Layer {
    // 2 amplifying species in a 400-species tube, many cycles: the
    // reference engine re-walks and re-applies the full species map every
    // cycle; the fast engine touches only the amplified entries.
    let pool = mixed_pool(2, 398);
    let rxn = pcr_rxn(40_000.0, 24);
    let dense = dna_oracle::one_channel(&rxn);
    let fast = rxn.run(&pool);
    let reference = dna_oracle::run_pcr(&dense, &pool);
    assert_eq!(fast.pool, reference.pool, "fast path diverged");

    let (baseline_ms, fast_ms) =
        time_ms(10, || dna_oracle::run_pcr(&dense, &pool), || rxn.run(&pool));
    Layer {
        name: "sparse_amplification",
        baseline_ms,
        fast_ms,
        speedup: baseline_ms / fast_ms.max(1e-9),
        gate: 2.0,
        rationale: "with 2 of 400 species amplifying over 24 cycles the \
                    per-cycle cost must track the amplified set, not the \
                    tube size; the dense engine pays O(species) per cycle \
                    for cloned contribution keys and whole-map application, \
                    so losing 2x here means the sparse bookkeeping is no \
                    longer sparse. The word-at-a-time DnaSeq ordering the \
                    dense engine's species map shares took this from about \
                    12x to about 6x",
        counters: vec![],
    }
}

// ---------------------------------------------------------------------------
// layer 3: sequencing scratch reuse
// ---------------------------------------------------------------------------

fn bench_sequencing() -> Layer {
    // A wide amplified pool sequenced in many batches, as the serving
    // layer does when rounds share a tube: the epoch-keyed scratch builds
    // the O(species) cumulative table once, a cold path rebuilds it per
    // batch.
    let pool = mixed_pool(64, 5936);
    let seq = Sequencer::new(IdsChannel::illumina());
    let batches = 80usize;
    let per_batch = 12usize;

    // Oracle: batch draws through one scratch equal one contiguous run.
    let baseline_reads = seq.sequence(&pool, batches * per_batch, &mut DetRng::seed_from_u64(7));
    let mut scratch = SequencerScratch::new();
    let mut streamed: Vec<Read> = Vec::new();
    let mut rng = DetRng::seed_from_u64(7);
    let before = dna_sim::stats::thread_totals();
    for _ in 0..batches {
        seq.sequence_into(&pool, per_batch, &mut rng, &mut scratch, &mut streamed);
    }
    let delta = dna_sim::stats::thread_totals().delta_since(&before);
    assert_eq!(streamed, baseline_reads, "scratch path diverged");
    assert!(delta.scratch_reuses >= (batches - 1) as u64);

    let (baseline_ms, fast_ms) = time_ms(
        5,
        || {
            let mut rng = DetRng::seed_from_u64(7);
            let mut out: Vec<Read> = Vec::new();
            for _ in 0..batches {
                // Cold table every batch: what sequence() cost before the
                // epoch-keyed scratch existed.
                out.clear();
                seq.sequence_into(
                    &pool,
                    per_batch,
                    &mut rng,
                    &mut SequencerScratch::new(),
                    &mut out,
                );
            }
            out.len()
        },
        || {
            let mut rng = DetRng::seed_from_u64(7);
            let mut scratch = SequencerScratch::new();
            let mut out: Vec<Read> = Vec::new();
            for _ in 0..batches {
                out.clear();
                seq.sequence_into(&pool, per_batch, &mut rng, &mut scratch, &mut out);
            }
            out.len()
        },
    );
    Layer {
        name: "sequencing_scratch",
        baseline_ms,
        fast_ms,
        speedup: baseline_ms / fast_ms.max(1e-9),
        gate: 1.2,
        rationale: "80 batches of 12 reads from one unchanged 6000-species \
                    pool: the epoch check skips 79 of 80 O(species) \
                    cumulative-table builds, leaving only the O(reads log \
                    species) draws; 1.2x is the floor because the draw+IDS \
                    corruption work is shared by both paths and still \
                    dominates at these batch sizes",
        counters: vec![
            ("scratch_reuses", delta.scratch_reuses),
            ("reads_materialized", delta.reads_materialized),
        ],
    }
}

// ---------------------------------------------------------------------------
// layer 4: decode-time primer search
// ---------------------------------------------------------------------------

/// One range read's round: 8 sibling blocks behind one main primer (the
/// §3.1 prefix cover), 15 strands of 110-base interiors per block, 2880
/// Illumina reads, and one tail-checked filter per block.
struct RangeRound {
    prefixes: Vec<DnaSeq>,
    rev: DnaSeq,
    reads: Vec<Read>,
    filters: Vec<ReadFilter>,
}

/// Tail check of the round's filters: (index tail length, tolerance).
const TAIL_CHECK: (usize, usize) = (10, 1);

fn range_round() -> RangeRound {
    let mut rng = DetRng::seed_from_u64(0xf117);
    let mut random =
        |n: usize| DnaSeq::from_bases((0..n).map(|_| Base::from_code(rng.gen_range(4) as u8)));
    let main = random(20);
    let rev = rev_primer();
    let prefixes: Vec<DnaSeq> = (0..8).map(|_| main.concat(&random(11))).collect();
    let mut pool = Pool::new();
    for prefix in &prefixes {
        for _ in 0..15 {
            let strand = prefix
                .concat(&random(110))
                .concat(&rev.reverse_complement());
            pool.add(strand, 100.0, None);
        }
    }
    let reads =
        Sequencer::new(IdsChannel::illumina()).sequence(&pool, 2880, &mut DetRng::seed_from_u64(5));
    let max_edit = BlockDecodeConfig::paper_default(1, 1).filter_max_edit;
    let filters = prefixes
        .iter()
        .map(|p| ReadFilter::with_tail_check(p.clone(), &rev, max_edit, TAIL_CHECK.0, TAIL_CHECK.1))
        .collect();
    RangeRound {
        prefixes,
        rev,
        reads,
        filters,
    }
}

fn bench_decode_filter() -> Layer {
    // Each of the round's filters scans every read.
    let RangeRound {
        prefixes,
        rev,
        reads,
        filters,
    } = range_round();
    let max_edit = BlockDecodeConfig::paper_default(1, 1).filter_max_edit;
    let reference = |prefix: &DnaSeq, read: &DnaSeq| {
        dna_oracle::extract(prefix, &rev, max_edit, Some(TAIL_CHECK), read)
    };

    // Oracle: every (filter, read) extraction is byte-identical.
    let mut extracted = 0u64;
    for (filter, prefix) in filters.iter().zip(&prefixes) {
        for read in &reads {
            let fast = filter.extract(&read.seq);
            assert_eq!(
                fast,
                reference(prefix, &read.seq),
                "kernel filter diverged on {}",
                read.seq
            );
            extracted += u64::from(fast.is_some());
        }
    }
    assert!(
        extracted > 2000,
        "the round's filters matched only {extracted} reads"
    );

    let (baseline_ms, fast_ms) = time_ms(
        3,
        || {
            prefixes
                .iter()
                .flat_map(|p| reads.iter().filter_map(|r| reference(p, &r.seq)))
                .count()
        },
        || {
            filters
                .iter()
                .flat_map(|f| reads.iter().filter_map(|r| f.extract(&r.seq)))
                .count()
        },
    );
    Layer {
        name: "decode_filter",
        baseline_ms,
        fast_ms,
        speedup: baseline_ms / fast_ms.max(1e-9),
        gate: 5.0,
        rationale: "each of the round's 8 filters scans all 2880 reads; \
                    the reference aligns 2*max_edit+1 = 7 windows per \
                    primer per read with a banded DP, the kernel does one \
                    word-parallel pass per primer that yields every window \
                    at once, so the primer search must shrink by well over \
                    5x — falling below it means the scan went back to \
                    per-window alignment",
        counters: vec![
            ("extractions", (filters.len() * reads.len()) as u64),
            ("extracted", extracted),
        ],
    }
}

// ---------------------------------------------------------------------------
// layer 5: read clustering
// ---------------------------------------------------------------------------

fn bench_decode_cluster() -> Layer {
    // One decode job of the range round: the interiors the first block's
    // filter extracts, about 360 reads of 15 originals.
    let round = range_round();
    let interiors: Vec<DnaSeq> = round
        .reads
        .iter()
        .filter_map(|r| round.filters[0].extract(&r.seq))
        .collect();
    let config = BlockDecodeConfig::paper_default(1, 1).cluster;
    let clusters = cluster_reads(&interiors, &config);
    let (reference, confirmations) = dna_oracle::cluster_reads(&interiors, &config);
    assert_eq!(clusters, reference, "kernel clustering diverged");
    // The candidate sets are pinned exactly: a change to the signatures or
    // the bucketing moves this count even where the clusters survive it.
    assert_eq!(
        (interiors.len(), confirmations),
        (365, 370),
        "interiors or candidate confirmations per job changed"
    );

    let (baseline_ms, fast_ms) = time_ms(
        20,
        || dna_oracle::cluster_reads(&interiors, &config).0.len(),
        || cluster_reads(&interiors, &config).len(),
    );
    Layer {
        name: "decode_cluster",
        baseline_ms,
        fast_ms,
        speedup: baseline_ms / fast_ms.max(1e-9),
        gate: 2.0,
        rationale: "one range-read job's interiors (365 reads of 110 \
                    bases, 15 originals, Illumina noise) clustered with \
                    max_edit = 10: the reference confirms each of its 370 \
                    candidates on a 21-cell-wide banded DP, about three \
                    quarters of its time, and signs every read; the kernel \
                    takes one word step per base, and a read that repeats an \
                    earlier one (about half of them) reuses its signature, \
                    so clustering must shrink by well over 2x (about 3-4x \
                    here). 2x fails if confirmation goes back to per-cell \
                    work",
        counters: vec![
            ("interiors", interiors.len() as u64),
            ("clusters", clusters.len() as u64),
            ("reference_confirmations", confirmations),
        ],
    }
}

// ---------------------------------------------------------------------------
// layer 6: a store partition's tube
// ---------------------------------------------------------------------------

/// A one-channel reaction over `tube` with the store's budgets: 20x the
/// tube's copies, split across the forward scope by weight.
fn partition_rxn(tube: &Pool, scope: Vec<(DnaSeq, f64)>, rev: &DnaSeq) -> MultiplexPcrReaction {
    let budget = tube.total_copies() * 20.0;
    let total: f64 = scope.iter().map(|(_, w)| w).sum();
    MultiplexPcrReaction {
        channels: vec![PrimerChannel {
            forward_primers: scope
                .into_iter()
                .map(|(p, w)| PcrPrimer::with_budget(p, budget * w / total))
                .collect(),
            reverse_primer: PcrPrimer::with_budget(rev.clone(), budget),
        }],
        protocol: PcrProtocol::paper_block_access(),
    }
}

fn bench_partition_tube() -> Layer {
    // One paper partition with 48 blocks written: 720 species, each
    // carrying the partition's forward primer and reverse site, reacted
    // as a cold read (one block's 31-base elongated primer) and as a range
    // read (the two 29-base primers covering blocks 8..=15).
    let store = BlockStore::new(19);
    let pid = store
        .create_partition(PartitionConfig::paper_default(19))
        .expect("create partition");
    store
        .write_file(pid, &workload::deterministic_text(48 * BLOCK_SIZE, 19))
        .expect("write 48 blocks");
    let partition = store.partition(pid).expect("partition");
    let tube = store.tube(pid).expect("tube");
    let rev = partition.primers().reverse().clone();
    let cover = partition.range_prefixes_weighted(8, 15);
    assert_eq!(
        cover.iter().map(|(p, _)| p.len()).collect::<Vec<_>>(),
        [29, 29]
    );
    let reactions = [
        partition_rxn(&tube, vec![(partition.elongated_primer(2), 1.0)], &rev),
        partition_rxn(&tube, cover, &rev),
    ];
    let before = dna_sim::stats::thread_totals();
    let mut species_out = 0;
    for rxn in &reactions {
        let fast = rxn.run(&tube);
        let reference = dna_oracle::run_pcr(rxn, &tube);
        assert_eq!(fast.pool, reference.pool, "fast path diverged");
        assert_eq!(fast.fwd_consumed, reference.fwd_consumed);
        assert_eq!(fast.rev_consumed, reference.rev_consumed);
        assert_eq!(fast.misprime_species, reference.misprime_species);
        species_out += fast.pool.distinct() as u64;
    }
    let delta = dna_sim::stats::thread_totals().delta_since(&before);
    // The memo's work is pinned exactly (1005 distinct windows for the
    // elongated primer, 688 for the cover), so a fallback to per-species
    // alignment — 8970 alignments here, yet still above the time gate —
    // fails on any host.
    assert_eq!(
        delta.species_scanned, 1693,
        "alignments per (primer, site window) changed"
    );

    let run_all = |run: fn(&MultiplexPcrReaction, &Pool) -> MultiplexOutcome| {
        reactions
            .iter()
            .map(|rxn| run(rxn, &tube).pool.distinct())
            .sum::<usize>()
    };
    let (baseline_ms, fast_ms) = time_ms(
        1,
        || run_all(dna_oracle::run_pcr),
        || run_all(MultiplexPcrReaction::run),
    );
    Layer {
        name: "pcr_partition_tube",
        baseline_ms,
        fast_ms,
        speedup: baseline_ms / fast_ms.max(1e-9),
        gate: 10.0,
        rationale: "a paper partition tube (720 species) read with one \
                    block's elongated primer and with an 8-block prefix \
                    cover; nearly every strand binds, and mispriming grows \
                    the pool to 1425 and 2040 species. The dense engine \
                    aligns every species against every primer; the fast \
                    engine aligns each distinct (primer, site window) once \
                    per reaction (all strands share one 3' window, and \
                    products collapse onto a few forward windows), resolves \
                    each species' yields once per reaction in a plan shared \
                    by every species with the same binding sites, and \
                    applies only amplified species. 10x fails if the \
                    engine loses its sparse bookkeeping; per-species \
                    alignment measured about 13x on an earlier engine, so \
                    the exact alignment count asserted beside this gate is \
                    what catches that fallback. Species plans and the \
                    word-at-a-time DnaSeq ordering both moved this ratio: \
                    the fast engine's time fell to about 0.6x and the dense \
                    engine's to about 0.5x",
        counters: vec![
            ("tube_species", tube.distinct() as u64),
            ("species_out", species_out),
            ("species_scanned", delta.species_scanned),
            ("binding_cache_hits", delta.binding_cache_hits),
        ],
    }
}

// ---------------------------------------------------------------------------
// layer 7: sequencing error channel
// ---------------------------------------------------------------------------

fn bench_sequencing_channel() -> Layer {
    // The range round's 2880 reads, each passed through the Illumina
    // channel once more: the per-read work of a sequencing run after its
    // species draw.
    let templates: Vec<DnaSeq> = range_round().reads.into_iter().map(|r| r.seq).collect();
    let channel = IdsChannel::illumina();
    let run = |corrupt: fn(&IdsChannel, &DnaSeq, &mut DetRng) -> DnaSeq| {
        let mut rng = DetRng::seed_from_u64(11);
        templates
            .iter()
            .map(|t| corrupt(&channel, t, &mut rng))
            .collect::<Vec<_>>()
    };
    let reads = run(IdsChannel::corrupt);
    assert_eq!(reads, run(dna_oracle::corrupt), "channel reads diverged");
    let bases: usize = templates.iter().map(DnaSeq::len).sum();

    let (baseline_ms, fast_ms) = time_ms(
        5,
        || run(dna_oracle::corrupt).len(),
        || run(IdsChannel::corrupt).len(),
    );
    Layer {
        name: "sequencing_channel",
        baseline_ms,
        fast_ms,
        speedup: baseline_ms / fast_ms.max(1e-9),
        gate: 1.2,
        rationale: "2880 reads of about 170 bases through the Illumina \
                    channel, three Bernoulli trials per base: the reference \
                    turns each draw into an f64 and compares it with the \
                    rate, the fast channel compares the raw draw with a \
                    threshold fixed once per read, reading identically. Both \
                    pay the same generator steps, so the gain is bounded; \
                    it measured about 1.5x, and 1.2x fails if the per-base \
                    trials go back to float conversions",
        counters: vec![
            ("reads", reads.len() as u64),
            ("template_bases", bases as u64),
        ],
    }
}

// ---------------------------------------------------------------------------
// layer 8: routing a round's reads to its decode jobs
// ---------------------------------------------------------------------------

/// Column steps the range round's trie walk takes per read: the 8
/// prefixes share their 20-base main primer, and their random 11-base
/// tails share 4 more trie nodes (20 + 8 · 11 − 4).
const ROUTE_STEPS_PER_READ: usize = 104;

fn bench_decode_route() -> Layer {
    let RangeRound { reads, filters, .. } = range_round();
    let router = ReadRouter::new(filters.clone());
    let per_job = |filters: &[ReadFilter]| -> Vec<Vec<DnaSeq>> {
        filters
            .iter()
            .map(|f| reads.iter().filter_map(|r| f.extract(&r.seq)).collect())
            .collect()
    };

    // Oracle: every job receives the same interiors, in read order.
    let routed = router.route(reads.iter().map(|r| &r.seq));
    assert_eq!(
        routed,
        per_job(&filters),
        "router diverged from the job filters"
    );
    let accepted: usize = routed.iter().map(Vec::len).sum();
    assert_eq!(
        accepted, 2850,
        "the round's jobs accept a different read count"
    );
    assert_eq!(router.steps_per_read(), ROUTE_STEPS_PER_READ);

    let (baseline_ms, fast_ms) = time_ms(
        5,
        || per_job(&filters),
        || router.route(reads.iter().map(|r| &r.seq)),
    );
    // A one-job round: the router against the one filter pass it replaces.
    let one = ReadRouter::new(filters[..1].to_vec());
    let (one_filter_ms, one_route_ms) = time_ms(
        10,
        || per_job(&filters[..1]),
        || one.route(reads.iter().map(|r| &r.seq)),
    );
    report::row(
        "decode_route one-job round",
        format!("{one_filter_ms:>8.3}ms filter | {one_route_ms:>8.3}ms route"),
    );
    Layer {
        name: "decode_route",
        baseline_ms,
        fast_ms,
        speedup: baseline_ms / fast_ms.max(1e-9),
        gate: 2.5,
        rationale: "the range round's 8 jobs over 2880 reads: each job's \
                    filter aligns every read's head (up to 34 aligner steps \
                    and a window pick, 8 times per read), while the router \
                    steps the 104 trie nodes of the 8 prefixes once per \
                    read, four reads side by side, rules most jobs out with \
                    one bound per column, and aligns the shared reverse \
                    site once per four reads. Both pay the same tail \
                    check, reverse window and interior copy for each of \
                    the 2850 accepted reads, which caps the ratio. It \
                    measured 3.1-3.5x on a quiet host and down to 2.65x \
                    while other tenants loaded it (the router is bound by \
                    instruction throughput, the per-job scans by latency). \
                    2.5x fails if the walk goes back to per-job scans \
                    (about 1x) or to one read at a time (about 2x). A \
                    one-job round routes in less time than one filter \
                    pass (about 0.46 ms against 0.66 ms)",
        counters: vec![
            ("reads", reads.len() as u64),
            ("accepted", accepted as u64),
            (
                "kernel_steps",
                (reads.len() * router.steps_per_read()) as u64,
            ),
        ],
    }
}

// ---------------------------------------------------------------------------
// report + JSON
// ---------------------------------------------------------------------------

fn write_json(layers: &[Layer]) {
    let mut out = String::from("{\n  \"bench\": \"wetlab_hotpath\",\n  \"layers\": [\n");
    for (i, l) in layers.iter().enumerate() {
        let counters = l
            .counters
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_ms\": {:.4}, \"fast_ms\": {:.4}, \
             \"speedup\": {:.3}, \"gate\": {}, \"counters\": {{{}}}, \"rationale\": \"{}\"}}{}\n",
            l.name,
            l.baseline_ms,
            l.fast_ms,
            l.speedup,
            l.gate,
            counters,
            l.rationale.split_whitespace().collect::<Vec<_>>().join(" "),
            if i + 1 == layers.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_wetlab.json", out).expect("write BENCH_wetlab.json");
    report::row("machine-readable layers", "BENCH_wetlab.json");
}

fn main() {
    report::section("wetlab fast path: per-layer microbenches");
    let layers = vec![
        bench_binding_cache(),
        bench_sparse_amplify(),
        bench_sequencing(),
        bench_decode_filter(),
        bench_decode_cluster(),
        bench_partition_tube(),
        bench_sequencing_channel(),
        bench_decode_route(),
    ];
    for l in &layers {
        report::row(
            l.name,
            format!(
                "{:>8.3}ms baseline | {:>8.3}ms fast | {:>6.2}x (gate {}x)",
                l.baseline_ms, l.fast_ms, l.speedup, l.gate
            ),
        );
    }
    write_json(&layers);
    for l in &layers {
        assert!(
            l.speedup >= l.gate,
            "layer {} fell below its {}x gate: {:.2}x ({:.3}ms baseline vs {:.3}ms fast). {}",
            l.name,
            l.gate,
            l.speedup,
            l.baseline_ms,
            l.fast_ms,
            l.rationale
        );
    }
    report::section("gates");
    report::row("all layers", "passed");
}
