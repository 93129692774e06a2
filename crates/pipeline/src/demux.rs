//! Per-round software demultiplexing: route reads to primer channels
//! before decoding.
//!
//! A multiplexed retrieval round sequences one pool carrying many
//! partitions' strands. Every [`crate::DecodeJob`] demultiplexes by
//! matching its full elongated prefix against *every* read — correct, but
//! quadratic in practice: a round with `C` channels and `J` jobs pays
//! `J × reads` bounded-edit prefix scans even though each read can only
//! ever belong to the one channel whose 20-base main forward primer it
//! carries (primer libraries are generated pairwise-distant precisely so
//! that channels are distinguishable).
//!
//! [`demux_reads`] restores the linear structure: one `C × reads` routing
//! pass on the *main primer* region, after which each channel's jobs scan
//! only their own bucket. Routing is a strict superset of what any job
//! would accept — a read whose full elongated prefix lies within a job's
//! edit tolerance necessarily has its primer region within the same
//! tolerance of the channel primer, so routing with the same tolerance
//! never drops a read a job would have matched, and per-job decode
//! outcomes (and `reads_matched` statistics) are bit-identical to the
//! unrouted path. Ambiguous reads (within tolerance of several channels —
//! possible only under heavy noise) are given to every matching channel.

use crate::filter::best_window;
use dna_seq::distance::PrefixAligner;
use dna_seq::DnaSeq;
use dna_sim::Read;

/// One demultiplex target: a channel's main forward primer and the edit
/// tolerance its jobs filter with.
#[derive(Debug, Clone)]
pub struct ChannelPrimer {
    /// Aligner for the channel's main forward primer (the shared head of
    /// every elongated prefix amplified through this channel).
    forward: PrefixAligner,
    /// Edit tolerance, matching the channel's
    /// [`crate::BlockDecodeConfig::filter_max_edit`].
    tolerance: usize,
}

impl ChannelPrimer {
    /// Builds the routing key for a channel from its main forward primer
    /// and its jobs' edit tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `forward` is longer than [`PrefixAligner::MAX_PATTERN`].
    pub fn new(forward: &DnaSeq, tolerance: usize) -> ChannelPrimer {
        ChannelPrimer {
            forward: PrefixAligner::new(forward.as_slice()),
            tolerance,
        }
    }

    /// Whether `read` plausibly starts with this channel's primer: some
    /// window of the read's head lies within the edit tolerance — the
    /// decode-time read filter's window scan, restricted to the primer
    /// region.
    fn matches(&self, read: &DnaSeq) -> bool {
        best_window(&self.forward, read.iter(), self.tolerance).is_some()
    }
}

/// Routes each read to the channel(s) whose primer it carries, preserving
/// read order within each bucket. Buckets borrow from `reads` — routing
/// copies nothing, even for ambiguous reads landing in several buckets.
/// Reads matching no channel (pure noise, truncated heads) are dropped —
/// no job would have matched them either.
pub fn demux_reads<'a>(reads: &'a [Read], channels: &[ChannelPrimer]) -> Vec<Vec<&'a Read>> {
    let mut buckets: Vec<Vec<&'a Read>> = channels.iter().map(|_| Vec::new()).collect();
    for read in reads {
        for (c, channel) in channels.iter().enumerate() {
            if channel.matches(&read.seq) {
                buckets[c].push(read);
            }
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_block, BlockDecodeConfig};
    use dna_seq::rng::DetRng;
    use dna_seq::Base;
    use dna_sim::IdsChannel;

    fn primer(seed: u64) -> DnaSeq {
        let mut rng = DetRng::seed_from_u64(seed);
        DnaSeq::from_bases((0..20).map(|_| Base::from_code(rng.gen_range(4) as u8)))
    }

    fn strand(fwd: &DnaSeq, tag: u8) -> DnaSeq {
        let mut rng = DetRng::seed_from_u64(u64::from(tag) + 77);
        let interior = DnaSeq::from_bases((0..80).map(|_| Base::from_code(rng.gen_range(4) as u8)));
        fwd.concat(&interior)
    }

    #[test]
    fn routes_noisy_reads_to_their_channel() {
        let a = primer(1);
        let b = primer(2);
        let channels = [ChannelPrimer::new(&a, 3), ChannelPrimer::new(&b, 3)];
        let mut rng = DetRng::seed_from_u64(9);
        let ch = IdsChannel::illumina();
        let reads: Vec<Read> = (0..100)
            .map(|i| {
                let src = if i % 2 == 0 { &a } else { &b };
                Read {
                    seq: ch.corrupt(&strand(src, i as u8 % 2), &mut rng),
                    truth: None,
                }
            })
            .collect();
        let buckets = demux_reads(&reads, &channels);
        // Essentially every read lands in its own channel's bucket;
        // random 20-mers at routing distance are far apart, so
        // cross-routing is rare.
        assert!(buckets[0].len() >= 45, "bucket a: {}", buckets[0].len());
        assert!(buckets[1].len() >= 45, "bucket b: {}", buckets[1].len());
        assert!(buckets[0].len() + buckets[1].len() <= 110);
    }

    #[test]
    fn bucket_decode_matches_unrouted_decode() {
        // The superset guarantee in action: decoding a job against its
        // routed bucket gives bit-identical results to decoding against
        // the full read set.
        let fwd: DnaSeq = "AACCGGTTAACCGGTTAACC".parse().unwrap();
        let other = primer(3);
        let rev: DnaSeq = "AAGGCCTTAAGGCCTTAAGG".parse().unwrap();
        let mut rng = DetRng::seed_from_u64(11);
        let ch = IdsChannel::illumina();
        let mut reads: Vec<Read> = (0..60)
            .map(|_| Read {
                seq: ch.corrupt(&strand(&fwd, 0), &mut rng),
                truth: None,
            })
            .collect();
        reads.extend((0..60).map(|_| Read {
            seq: ch.corrupt(&strand(&other, 1), &mut rng),
            truth: None,
        }));
        let cfg = BlockDecodeConfig::paper_default(7, 531);
        let channels = [ChannelPrimer::new(&fwd, cfg.filter_max_edit)];
        let buckets = demux_reads(&reads, &channels);
        assert!(buckets[0].len() >= 55 && buckets[0].len() <= 70);
        let mut prefix = fwd.clone();
        prefix.push(Base::A);
        prefix.extend("ACAGTCTGAC".parse::<DnaSeq>().unwrap().iter());
        let full = decode_block(&reads, &prefix, &rev, &cfg);
        let routed = decode_block(&buckets[0], &prefix, &rev, &cfg);
        assert_eq!(full.reads_matched, routed.reads_matched);
        assert_eq!(full.clusters_total, routed.clusters_total);
    }
}
