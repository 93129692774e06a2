//! Wetlab fast-path microbenches: one gate per optimization layer.
//!
//! Each layer of the simulator fast path is timed against the code it
//! replaced, on a workload shaped like the block store's (multiplex PCR
//! over a mostly-non-target pool, repeated sequencing of one product, one
//! range read's primer search):
//!
//! 1. **Annealing prefilter + binding cache** — `PcrReaction::run` (k-mer
//!    prefilter, per-pool binding cache, sparse application) vs the
//!    retained dense engine `run_reference`.
//! 2. **Sparse amplification** — the same pair on a pool where almost no
//!    species amplifies, isolating the per-cycle bookkeeping cost.
//! 3. **Sequencing scratch** — repeated draws from an unchanged pool with
//!    the epoch-keyed cumulative-weight table vs a cold table per batch.
//! 4. **Decode filter** — `ReadFilter::extract` (one bit-parallel
//!    `PrefixAligner` pass per primer) vs the per-window banded
//!    edit-distance scan it replaced, written out below as the reference,
//!    over one range-read round's reads and filters.
//!
//! Every layer's fast path is asserted equal to its baseline *in this
//! binary* before timing (the exhaustive oracle lives in
//! `crates/sim/tests/fastpath_equiv.rs`), so a gate failure is a perf
//! regression, never a correctness trade. Each side is timed in
//! interleaved batches and gated on the median batch, so one slow batch on
//! a shared host cannot fail a gate. Results land in
//! `BENCH_wetlab.json` with the gate and its rationale next to each
//! number; CI re-runs the binary, which asserts the gates.

use dna_bench::report;
use dna_pipeline::{BlockDecodeConfig, ReadFilter};
use dna_seq::distance::levenshtein_bounded;
use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::{
    IdsChannel, PcrPrimer, PcrProtocol, PcrReaction, Pool, Read, Sequencer, SequencerScratch,
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
/// After one warmup call each (populating thread-local caches exactly like
/// steady state), the two sides run [`BATCHES`] interleaved batches of
/// `reps` calls, so host load drifts over both alike; each side reports
/// its median batch.
fn time_ms<R>(
    reps: usize,
    mut baseline: impl FnMut() -> R,
    mut fast: impl FnMut() -> R,
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
// layer 1: k-mer prefilter + binding cache
// ---------------------------------------------------------------------------

fn bench_prefilter() -> Layer {
    let pool = mixed_pool(8, 192);
    let rxn = pcr_rxn(60_000.0, 12);
    // Oracle first: identical outcome, and the prefilter must actually
    // skip species (a disabled prefilter would still pass the equality).
    let before = dna_sim::stats::thread_totals();
    let fast = rxn.run(&pool);
    let delta = dna_sim::stats::thread_totals().delta_since(&before);
    let reference = rxn.run_reference(&pool);
    assert_eq!(fast.pool, reference.pool, "fast path diverged");
    assert_eq!(fast.fwd_consumed, reference.fwd_consumed);
    assert!(delta.species_skipped > 0, "prefilter skipped nothing");

    let (baseline_ms, fast_ms) = time_ms(10, || rxn.run_reference(&pool), || rxn.run(&pool));
    Layer {
        name: "pcr_prefilter",
        baseline_ms,
        fast_ms,
        speedup: baseline_ms / fast_ms.max(1e-9),
        gate: 2.0,
        rationale: "96% of the tube is non-target species; the positional \
                    k-mer piece test rejects them without bounded-Levenshtein \
                    windows and the (species, primer) cache carries survivors \
                    across cycles, so well over half the dense engine's \
                    annealing work must disappear — 2x is conservative for a \
                    96%-decoy tube and fails if the prefilter silently \
                    degrades to a full scan",
        counters: vec![
            ("species_skipped", delta.species_skipped),
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
    let fast = rxn.run(&pool);
    let reference = rxn.run_reference(&pool);
    assert_eq!(fast.pool, reference.pool, "fast path diverged");

    let (baseline_ms, fast_ms) = time_ms(10, || rxn.run_reference(&pool), || rxn.run(&pool));
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
                    longer sparse",
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

/// The window scan `ReadFilter` ran before the bit-parallel kernel: one
/// banded edit distance per candidate window length `n ± max_edit`, best
/// by distance, then length closest to `n`, then the shortest. Returns
/// the window length.
fn reference_window(
    primer: &[Base],
    read: &[Base],
    max_edit: usize,
    from_end: bool,
) -> Option<usize> {
    let n = primer.len();
    let mut best: Option<(usize, usize)> = None; // (dist, window)
    let lo = n.saturating_sub(max_edit);
    let hi = (n + max_edit).min(read.len());
    for w in lo..=hi {
        let window = if from_end {
            &read[read.len() - w..]
        } else {
            &read[..w]
        };
        if let Some(d) = levenshtein_bounded(primer, window, max_edit) {
            match best {
                Some((bd, bw)) if (bd, bw.abs_diff(n)) <= (d, w.abs_diff(n)) => {}
                _ => best = Some((d, w)),
            }
        }
    }
    best.map(|(_, w)| w)
}

/// `ReadFilter::extract` with the tail check, on the reference scan.
fn reference_extract(
    fwd: &DnaSeq,
    rev_site: &DnaSeq,
    max_edit: usize,
    (tail_len, tol): (usize, usize),
    read: &DnaSeq,
) -> Option<DnaSeq> {
    let start = reference_window(fwd.as_slice(), read.as_slice(), max_edit, false)?;
    if tail_len == 0 || tail_len > start {
        return None;
    }
    let expected = &fwd.as_slice()[fwd.len() - tail_len..];
    levenshtein_bounded(expected, &read.as_slice()[start - tail_len..start], tol)?;
    let end = read.len() - reference_window(rev_site.as_slice(), read.as_slice(), max_edit, true)?;
    (start < end).then(|| read.subseq(start..end))
}

fn bench_decode_filter() -> Layer {
    // One range read's round: 8 sibling blocks behind one main primer (the
    // §3.1 prefix cover), 2880 Illumina reads, and one tail-checked filter
    // per block scanning every read.
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
    let cfg = BlockDecodeConfig::paper_default(1, 1);
    let (max_edit, tail) = (cfg.filter_max_edit, (10, 1));
    let filters: Vec<ReadFilter> = prefixes
        .iter()
        .map(|p| ReadFilter::with_tail_check(p.clone(), &rev, max_edit, tail.0, tail.1))
        .collect();
    let rev_site = rev.reverse_complement();

    // Oracle: every (filter, read) extraction is byte-identical.
    let mut extracted = 0u64;
    for (filter, prefix) in filters.iter().zip(&prefixes) {
        for read in &reads {
            let fast = filter.extract(&read.seq);
            assert_eq!(
                fast,
                reference_extract(prefix, &rev_site, max_edit, tail, &read.seq),
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
                .flat_map(|p| {
                    reads
                        .iter()
                        .filter_map(|r| reference_extract(p, &rev_site, max_edit, tail, &r.seq))
                })
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
        bench_prefilter(),
        bench_sparse_amplify(),
        bench_sequencing(),
        bench_decode_filter(),
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
