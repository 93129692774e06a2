//! Sequencing: read sampling through an IDS error channel, plus run models
//! for the §7.4 latency analysis.

use crate::molecule::StrandTag;
use crate::pool::Pool;
use crate::stats;
use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use std::cell::RefCell;

/// One sequencer read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    /// The (noisy) read sequence.
    pub seq: DnaSeq,
    /// Ground truth of the molecule the read came from — for measurement
    /// only, never consumed by decoding.
    pub truth: Option<StrandTag>,
}

/// Insertion/deletion/substitution channel with independent per-base rates.
///
/// Defaults follow typical Illumina short-read error profiles; Nanopore
/// presets are an order of magnitude noisier (§5: nanopore-based
/// technologies are one motivation for updatable storage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdsChannel {
    /// Per-base substitution probability.
    pub sub_rate: f64,
    /// Per-position insertion probability.
    pub ins_rate: f64,
    /// Per-base deletion probability.
    pub del_rate: f64,
}

impl IdsChannel {
    /// Illumina-like: 0.4% substitutions, light indels.
    pub fn illumina() -> IdsChannel {
        IdsChannel {
            sub_rate: 0.004,
            ins_rate: 0.0005,
            del_rate: 0.001,
        }
    }

    /// Nanopore-like: several percent of every error type.
    pub fn nanopore() -> IdsChannel {
        IdsChannel {
            sub_rate: 0.03,
            ins_rate: 0.02,
            del_rate: 0.03,
        }
    }

    /// A noiseless channel (for pipeline unit tests).
    pub fn noiseless() -> IdsChannel {
        IdsChannel {
            sub_rate: 0.0,
            ins_rate: 0.0,
            del_rate: 0.0,
        }
    }

    /// Passes `seq` through the channel.
    ///
    /// Each base takes up to three Bernoulli trials (insertion, deletion,
    /// substitution). They draw exactly as [`DetRng::gen_bool`] does, but
    /// as integer comparisons against thresholds fixed once per read (see
    /// [`Trial`]), so a read is identical, draw for draw. The read grows
    /// as a plain vector, whose pushes inline into the loop.
    pub fn corrupt(&self, seq: &DnaSeq, rng: &mut DetRng) -> DnaSeq {
        let (ins, del, sub) = (
            Trial::new(self.ins_rate),
            Trial::new(self.del_rate),
            Trial::new(self.sub_rate),
        );
        let mut out: Vec<Base> = Vec::with_capacity(seq.len() + 4);
        for &b in seq.as_slice() {
            if ins.draw(rng) {
                out.push(Base::from_code(rng.gen_range(4) as u8));
            }
            if del.draw(rng) {
                continue;
            }
            if sub.draw(rng) {
                let mut nb = Base::from_code(rng.gen_range(4) as u8);
                if nb == b {
                    nb = Base::from_code((b.code() + 1) & 0b11);
                }
                out.push(nb);
            } else {
                out.push(b);
            }
        }
        DnaSeq::from(out)
    }
}

/// One Bernoulli trial of probability `p`, decided on the integer draw.
///
/// [`DetRng::gen_bool`] draws nothing for `p <= 0`, answers `true` for
/// `p >= 1`, and otherwise compares `next_f64() = m · 2^-53` with `p`,
/// where `m = next_u64() >> 11`. Scaling by `2^53` is exact, so for an
/// integer `m`, `m · 2^-53 < p` holds exactly when `m < ceil(p · 2^53)`.
/// A NaN `p` casts to threshold 0: one draw, always `false`, as there.
#[derive(Debug, Clone, Copy)]
enum Trial {
    Never,
    Always,
    Below(u64),
}

impl Trial {
    fn new(p: f64) -> Trial {
        if p <= 0.0 {
            Trial::Never
        } else if p >= 1.0 {
            Trial::Always
        } else {
            Trial::Below((p * (1u64 << 53) as f64).ceil() as u64)
        }
    }

    #[inline]
    fn draw(self, rng: &mut DetRng) -> bool {
        match self {
            Trial::Never => false,
            Trial::Always => true,
            Trial::Below(threshold) => rng.next_u64() >> 11 < threshold,
        }
    }
}

/// Reusable sampling state for [`Sequencer::sequence_into`]: the
/// cumulative-weight table over a pool's species, keyed by the pool's
/// [`Pool::epoch`] so it is rebuilt only when the pool's content actually
/// changed. Repeated draws from an unchanged pool (coalesced rounds, cached
/// tubes) skip the `O(species)` weight pass entirely.
#[derive(Debug, Clone, Default)]
pub struct SequencerScratch {
    /// Epoch of the pool `cum`/`total` were built from.
    epoch: Option<u64>,
    /// Cumulative abundance per species, in pool iteration order.
    cum: Vec<f64>,
    /// Total abundance (last entry of `cum`).
    total: f64,
}

impl SequencerScratch {
    /// A fresh, empty scratch.
    pub fn new() -> SequencerScratch {
        SequencerScratch::default()
    }
}

thread_local! {
    /// Per-thread scratch backing the allocating [`Sequencer::sequence`]
    /// convenience wrapper, so even legacy call sites reuse the weight
    /// table across draws on an unchanged pool.
    static THREAD_SCRATCH: RefCell<SequencerScratch> = RefCell::new(SequencerScratch::new());
}

/// A sequencer: samples reads ∝ abundance and applies the channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sequencer {
    /// The error channel applied to every read.
    pub channel: IdsChannel,
}

impl Sequencer {
    /// A sequencer with the given channel.
    pub fn new(channel: IdsChannel) -> Sequencer {
        Sequencer { channel }
    }

    /// Draws `num_reads` reads from `pool`, each from a species chosen with
    /// probability proportional to abundance ("the sequencing cost is always
    /// proportional to the size of the sequencing output", §7.3).
    ///
    /// Convenience wrapper over [`Sequencer::sequence_into`] that allocates
    /// the read vector (sampling state is still reused via a thread-local
    /// scratch).
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty but reads were requested.
    pub fn sequence(&self, pool: &Pool, num_reads: usize, rng: &mut DetRng) -> Vec<Read> {
        let mut reads = Vec::with_capacity(num_reads);
        THREAD_SCRATCH
            .with(|s| self.sequence_into(pool, num_reads, rng, &mut s.borrow_mut(), &mut reads));
        reads
    }

    /// Streaming form of [`Sequencer::sequence`]: appends `num_reads` reads
    /// to `out`, reusing `scratch`'s cumulative-weight table when the pool
    /// is unchanged since the previous call (epoch match). Draw-for-draw
    /// identical to `sequence` — same RNG consumption, same reads.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty but reads were requested.
    pub fn sequence_into(
        &self,
        pool: &Pool,
        num_reads: usize,
        rng: &mut DetRng,
        scratch: &mut SequencerScratch,
        out: &mut Vec<Read>,
    ) {
        if num_reads == 0 {
            return;
        }
        assert!(!pool.is_empty(), "cannot sequence an empty pool");
        // Entry refs must be re-collected per call (they borrow the pool),
        // but the cumulative weights — the O(n) float pass — are reusable:
        // an equal epoch guarantees identical content, hence an identical
        // table.
        let entries: Vec<(&DnaSeq, &crate::pool::Species)> = pool.iter().collect();
        if scratch.epoch == Some(pool.epoch()) {
            stats::record_scratch_reuse(1);
        } else {
            scratch.cum.clear();
            scratch.cum.reserve(entries.len());
            let mut total = 0.0;
            for (_, s) in &entries {
                total += s.abundance;
                scratch.cum.push(total);
            }
            scratch.total = total;
            scratch.epoch = Some(pool.epoch());
        }
        assert!(scratch.total > 0.0, "pool has zero total abundance");
        out.reserve(num_reads);
        for _ in 0..num_reads {
            let x = rng.next_f64() * scratch.total;
            let i = scratch
                .cum
                .partition_point(|&c| c < x)
                .min(entries.len() - 1);
            let (seq, species) = entries[i];
            out.push(Read {
                seq: self.channel.corrupt(seq, rng),
                truth: species.tag,
            });
        }
        stats::record_reads_materialized(num_reads as u64);
        stats::flush_to_global();
    }
}

/// Fixed-run next-generation sequencing model (§7.4: "The duration of a
/// single NGS run is fixed by design ... one run of Illumina MiSeq can only
/// produce around 1GB of user data").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NgsRunModel {
    /// Usable bytes of output per run.
    pub bytes_per_run: f64,
    /// Wall-clock hours per run.
    pub hours_per_run: f64,
}

impl NgsRunModel {
    /// MiSeq-like: 1 GB per run, ~24 h.
    pub fn miseq() -> NgsRunModel {
        NgsRunModel {
            bytes_per_run: 1.0e9,
            hours_per_run: 24.0,
        }
    }

    /// Runs needed to sequence `output_bytes` of demanded output.
    pub fn runs_needed(&self, output_bytes: f64) -> f64 {
        (output_bytes / self.bytes_per_run).ceil().max(1.0)
    }

    /// Total latency in hours for `output_bytes`.
    pub fn latency_hours(&self, output_bytes: f64) -> f64 {
        self.runs_needed(output_bytes) * self.hours_per_run
    }
}

/// Streaming Nanopore model (§7.4: "runtime of a single sequencing run is
/// always output-size-dependent ... the sequencing can be stopped once the
/// data is successfully decoded").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NanoporeModel {
    /// Usable output bytes per hour.
    pub bytes_per_hour: f64,
}

impl NanoporeModel {
    /// MinION-like throughput.
    pub fn minion() -> NanoporeModel {
        NanoporeModel {
            bytes_per_hour: 1.5e8,
        }
    }

    /// Latency to stream `output_bytes` — strictly linear, so block access
    /// reduces it by exactly the selectivity factor.
    pub fn latency_hours(&self, output_bytes: f64) -> f64 {
        output_bytes / self.bytes_per_hour
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecule::StrandTag;
    use dna_seq::distance::levenshtein;

    fn pool_two_species() -> Pool {
        let mut pool = Pool::new();
        pool.add(
            "AAAACCCCGGGGTTTTAAAACCCCGGGGTTTT".parse().unwrap(),
            900.0,
            Some(StrandTag::new(0, 1, 0, 0)),
        );
        pool.add(
            "TTTTGGGGCCCCAAAATTTTGGGGCCCCAAAA".parse().unwrap(),
            100.0,
            Some(StrandTag::new(0, 2, 0, 0)),
        );
        pool
    }

    #[test]
    fn reads_sample_proportionally() {
        let seq = Sequencer::new(IdsChannel::noiseless());
        let mut rng = DetRng::seed_from_u64(3);
        let reads = seq.sequence(&pool_two_species(), 10_000, &mut rng);
        let unit1 = reads.iter().filter(|r| r.truth.unwrap().unit == 1).count();
        let frac = unit1 as f64 / 10_000.0;
        assert!(
            (frac - 0.9).abs() < 0.02,
            "unit1 fraction {frac}, want ~0.9"
        );
    }

    #[test]
    fn trials_draw_exactly_as_gen_bool() {
        let probabilities = [
            -1.0,
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            1e-9,
            0.004,
            0.25,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            2.0,
            f64::NAN,
        ];
        for (i, p) in probabilities.into_iter().enumerate() {
            let mut a = DetRng::seed_from_u64(i as u64);
            let mut b = a.clone();
            let trial = Trial::new(p);
            for _ in 0..2000 {
                assert_eq!(trial.draw(&mut a), b.gen_bool(p), "p = {p}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "p = {p} drew differently");
        }
        // The thresholds at the edges of one 2^-53 step: a draw `m` is
        // below `p` exactly when `m < ceil(p * 2^53)`.
        let step = 1.0 / (1u64 << 53) as f64;
        assert!(matches!(Trial::new(step), Trial::Below(1)));
        assert!(matches!(Trial::new(1.5 * step), Trial::Below(2)));
        assert!(matches!(Trial::new(1.0 - step), Trial::Below(t) if t == (1 << 53) - 1));
    }

    #[test]
    fn noiseless_channel_is_identity() {
        let mut rng = DetRng::seed_from_u64(4);
        let s: DnaSeq = "ACGGTTAACC".parse().unwrap();
        assert_eq!(IdsChannel::noiseless().corrupt(&s, &mut rng), s);
    }

    #[test]
    fn channel_error_rates_are_calibrated() {
        let mut rng = DetRng::seed_from_u64(5);
        let ch = IdsChannel::illumina();
        let s = DnaSeq::from_bases((0..150).map(|i| Base::from_code((i % 4) as u8)));
        let trials = 2000;
        let mut total_edit = 0usize;
        for _ in 0..trials {
            let noisy = ch.corrupt(&s, &mut rng);
            total_edit += levenshtein(s.as_slice(), noisy.as_slice());
        }
        let mean_edit = total_edit as f64 / trials as f64;
        let expected = 150.0 * (ch.sub_rate + ch.ins_rate + ch.del_rate);
        assert!(
            (mean_edit - expected).abs() < expected * 0.25 + 0.1,
            "mean edit {mean_edit}, expected ~{expected}"
        );
    }

    #[test]
    fn nanopore_channel_is_much_noisier() {
        let mut rng = DetRng::seed_from_u64(6);
        let s = DnaSeq::from_bases((0..150).map(|i| Base::from_code((i % 4) as u8)));
        let mut illumina = 0usize;
        let mut nanopore = 0usize;
        for _ in 0..300 {
            illumina += levenshtein(
                s.as_slice(),
                IdsChannel::illumina().corrupt(&s, &mut rng).as_slice(),
            );
            nanopore += levenshtein(
                s.as_slice(),
                IdsChannel::nanopore().corrupt(&s, &mut rng).as_slice(),
            );
        }
        assert!(nanopore > 5 * illumina);
    }

    #[test]
    fn sequencing_is_deterministic() {
        let seq = Sequencer::new(IdsChannel::illumina());
        let a = seq.sequence(&pool_two_species(), 100, &mut DetRng::seed_from_u64(7));
        let b = seq.sequence(&pool_two_species(), 100, &mut DetRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn sequence_into_matches_sequence_and_reuses_scratch() {
        let seq = Sequencer::new(IdsChannel::illumina());
        let pool = pool_two_species();
        let baseline = seq.sequence(&pool, 200, &mut DetRng::seed_from_u64(9));
        // Two batches from one RNG through one scratch == one big batch.
        let mut rng = DetRng::seed_from_u64(9);
        let mut scratch = SequencerScratch::new();
        let mut out = Vec::new();
        let before = crate::stats::thread_totals();
        seq.sequence_into(&pool, 120, &mut rng, &mut scratch, &mut out);
        seq.sequence_into(&pool, 80, &mut rng, &mut scratch, &mut out);
        assert_eq!(out, baseline);
        let d = crate::stats::thread_totals().delta_since(&before);
        assert_eq!(d.reads_materialized, 200);
        assert_eq!(d.scratch_reuses, 1, "second batch must reuse the table");
        // Mutating the pool invalidates the scratch.
        let mut changed = pool.clone();
        changed.add(
            "ACGTACGTACGTACGTACGTACGTACGTACGT".parse().unwrap(),
            50.0,
            None,
        );
        let direct = seq.sequence(&changed, 50, &mut DetRng::seed_from_u64(10));
        let mut via = Vec::new();
        seq.sequence_into(
            &changed,
            50,
            &mut DetRng::seed_from_u64(10),
            &mut scratch,
            &mut via,
        );
        assert_eq!(via, direct);
    }

    #[test]
    fn ngs_run_model_quantizes() {
        let m = NgsRunModel::miseq();
        assert_eq!(m.runs_needed(1.0), 1.0);
        assert_eq!(m.runs_needed(1.0e9), 1.0);
        assert_eq!(m.runs_needed(1.0e9 + 1.0), 2.0);
        // §7.4: "Sequencing a partition of 1TB would therefore require ~1000 runs"
        assert_eq!(m.runs_needed(1.0e12), 1000.0);
        assert_eq!(m.latency_hours(1.0e12), 24_000.0);
    }

    #[test]
    fn nanopore_latency_is_linear() {
        let m = NanoporeModel::minion();
        let one = m.latency_hours(1.0e9);
        let block = m.latency_hours(1.0e9 / 141.0);
        assert!((one / block - 141.0).abs() < 1e-9);
    }

    #[test]
    fn empty_request_returns_no_reads() {
        let seq = Sequencer::new(IdsChannel::noiseless());
        let mut rng = DetRng::seed_from_u64(8);
        assert!(seq.sequence(&pool_two_species(), 0, &mut rng).is_empty());
    }
}
