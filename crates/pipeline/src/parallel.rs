//! Parallel block decoding: fan the per-block cluster/BMA/RS pipeline out
//! over OS threads.
//!
//! A multiplexed retrieval round sequences *one* read pool containing many
//! blocks' strands; demultiplexing happens in software by primer prefix
//! (each [`DecodeJob`] carries its own elongated prefix and decode
//! configuration). The jobs are independent pure functions over the shared
//! read slice, so they parallelize embarrassingly well with
//! `std::thread::scope` — no `unsafe`, no shared mutable state, and the
//! output order is the input job order regardless of scheduling.

use crate::decode::{decode_block_validated, BlockDecodeConfig, BlockDecodeOutcome};
use dna_seq::DnaSeq;
use dna_sim::Read;

/// One block's worth of demultiplex + decode work against a shared read
/// pool.
#[derive(Debug, Clone)]
pub struct DecodeJob {
    /// The elongated forward prefix addressing the block (demultiplex key).
    pub prefix: DnaSeq,
    /// The partition's reverse primer.
    pub reverse: DnaSeq,
    /// Decode configuration (geometry, RS dimensions, clustering, §8.1
    /// search budget).
    pub config: BlockDecodeConfig,
}

/// Fair per-consumer thread budget when `consumers` independent decode
/// stages run concurrently (one multiplexed retrieval round each): the
/// machine's available parallelism divided evenly, floored at one thread
/// per consumer. A sharded store executing its rounds on scoped threads
/// routes each round's [`decode_jobs_parallel_into`] through this so the
/// rounds share the cores instead of each oversubscribing the machine.
pub fn thread_share(consumers: usize) -> usize {
    let total = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (total / consumers.max(1)).max(1)
}

/// Decodes every job against the shared `reads`, fanning out over at most
/// `max_threads` OS threads (clamped to the job count; `0` means "use
/// [`std::thread::available_parallelism`]"), and *appends* the outcomes in
/// job order to `out`. The outcomes are identical to running
/// [`decode_block_validated`] sequentially per job.
///
/// `validator` is the unit-integrity check shared by all jobs (the block
/// store passes its checksum test). Appending lets a multi-round batch
/// accumulate one outcome vector across rounds so that a leaf decoded in an
/// earlier round (e.g. the shared update-log partition) is never decoded
/// again — callers index outcomes by the position recorded when the job was
/// first submitted.
pub fn decode_jobs_parallel_into<B, F>(
    reads: &[B],
    jobs: &[DecodeJob],
    validator: F,
    max_threads: usize,
    out: &mut Vec<BlockDecodeOutcome>,
) where
    B: std::borrow::Borrow<Read> + Sync,
    F: Fn(&[u8]) -> bool + Sync,
{
    let threads = if max_threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        max_threads
    }
    .min(jobs.len())
    .max(1);
    if threads == 1 || jobs.len() <= 1 {
        out.extend(
            jobs.iter().map(|j| {
                decode_block_validated(reads, &j.prefix, &j.reverse, &j.config, &validator)
            }),
        );
        return;
    }
    let validator = &validator;
    let mut results: Vec<Option<BlockDecodeOutcome>> = Vec::new();
    results.resize_with(jobs.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            // Stripe the jobs: thread t takes indices t, t+threads, ...
            handles.push(scope.spawn(move || {
                jobs.iter()
                    .enumerate()
                    .skip(t)
                    .step_by(threads)
                    .map(|(i, j)| {
                        let outcome = decode_block_validated(
                            reads, &j.prefix, &j.reverse, &j.config, validator,
                        );
                        (i, outcome)
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            for (i, outcome) in handle.join().expect("decode worker panicked") {
                results[i] = Some(outcome);
            }
        }
    });
    out.extend(
        results
            .into_iter()
            .map(|r| r.expect("every job striped to exactly one worker")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_codec::{intra, PayloadCodec, StrandGeometry};
    use dna_ecc::{EncodingUnit, UnitConfig};
    use dna_seq::rng::DetRng;
    use dna_seq::Base;
    use dna_sim::{IdsChannel, Pool, Sequencer};

    fn fwd() -> DnaSeq {
        "AACCGGTTAACCGGTTAACC".parse().unwrap()
    }

    fn rev() -> DnaSeq {
        "AAGGCCTTAAGGCCTTAAGG".parse().unwrap()
    }

    fn indexes() -> Vec<DnaSeq> {
        vec![
            "ACAGTCTGAC".parse().unwrap(),
            "TGTCAGACTG".parse().unwrap(),
            "CATGCATGCA".parse().unwrap(),
            "GTACGTCATG".parse().unwrap(),
            "TCGATGCTAG".parse().unwrap(),
            "AGCTTGACGT".parse().unwrap(),
            "GACTCAGTTC".parse().unwrap(),
            "TACCGAGTCA".parse().unwrap(),
        ]
    }

    fn prefix_for(index: &DnaSeq) -> DnaSeq {
        let mut p = fwd();
        p.push(Base::A);
        p.extend(index.iter());
        p
    }

    fn unit_bytes(tag: u8) -> [u8; 264] {
        let mut d = [0u8; 264];
        for (i, b) in d.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(29).wrapping_add(tag);
        }
        d
    }

    /// Encodes one unit's 15 strands under the given index.
    fn encode_unit(data: &[u8; 264], index: &DnaSeq, seed: u64, unit_id: u64) -> Vec<DnaSeq> {
        let geometry = StrandGeometry::paper_default();
        let unit = EncodingUnit::new(UnitConfig::paper_default());
        unit.encode(data)
            .unwrap()
            .iter()
            .enumerate()
            .map(|(col, bytes)| {
                let codec = PayloadCodec::for_column(seed, unit_id, Base::A.code(), col as u8);
                geometry
                    .assemble(
                        &fwd(),
                        index,
                        Base::A,
                        &intra::encode(col, 2).unwrap(),
                        &codec.encode(bytes),
                        &rev(),
                    )
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn parallel_results_match_sequential_in_job_order() {
        // Eight blocks multiplexed into one read pool — the job count of a
        // range read's prefix-cover round.
        let mut pool = Pool::new();
        let mut jobs = Vec::new();
        let mut expected = Vec::new();
        for (u, index) in indexes().iter().enumerate() {
            let data = unit_bytes(u as u8);
            for s in encode_unit(&data, index, 5, u as u64) {
                pool.add(s, 100.0, None);
            }
            jobs.push(DecodeJob {
                prefix: prefix_for(index),
                reverse: rev(),
                config: BlockDecodeConfig::paper_default(5, u as u64),
            });
            expected.push(data.to_vec());
        }
        let mut rng = DetRng::seed_from_u64(21);
        let reads =
            Sequencer::new(IdsChannel::illumina()).sequence(&pool, jobs.len() * 15 * 10, &mut rng);

        let sequential: Vec<BlockDecodeOutcome> = jobs
            .iter()
            .map(|j| decode_block_validated(&reads, &j.prefix, &j.reverse, &j.config, |_| true))
            .collect();
        for cap in [1, 2, 3, 8] {
            let mut parallel = Vec::new();
            decode_jobs_parallel_into(&reads, &jobs, |_| true, cap, &mut parallel);
            assert_eq!(parallel.len(), 8);
            for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    p.versions[&Base::A].unit_bytes,
                    expected[i],
                    "cap {cap}: job {i} decoded wrong bytes"
                );
                assert_eq!(p.versions, s.versions, "cap {cap}: job {i} versions");
                assert_eq!(p.failed_versions, s.failed_versions, "cap {cap}: job {i}");
                assert_eq!(p.reads_matched, s.reads_matched, "cap {cap}: job {i}");
                assert_eq!(p.clusters_total, s.clusters_total, "cap {cap}: job {i}");
                assert_eq!(p.clusters_used, s.clusters_used, "cap {cap}: job {i}");
            }
        }
    }

    #[test]
    fn append_into_preserves_existing_outcomes_and_job_order() {
        // Two "rounds": the second round's outcomes append after the
        // first's without disturbing them — the accumulation contract the
        // block store's cross-round decode dedupe relies on.
        let mut pool = Pool::new();
        let mut jobs = Vec::new();
        let mut expected = Vec::new();
        for (u, index) in indexes().iter().take(3).enumerate() {
            let data = unit_bytes(40 + u as u8);
            for s in encode_unit(&data, index, 13, u as u64) {
                pool.add(s, 100.0, None);
            }
            jobs.push(DecodeJob {
                prefix: prefix_for(index),
                reverse: rev(),
                config: BlockDecodeConfig::paper_default(13, u as u64),
            });
            expected.push(data.to_vec());
        }
        let mut rng = DetRng::seed_from_u64(8);
        let reads = Sequencer::new(IdsChannel::illumina()).sequence(&pool, 45 * 10, &mut rng);

        let mut acc = Vec::new();
        decode_jobs_parallel_into(&reads, &jobs[..1], |_| true, 0, &mut acc);
        assert_eq!(acc.len(), 1);
        let first = acc[0].clone();
        decode_jobs_parallel_into(&reads, &jobs[1..], |_| true, 0, &mut acc);
        assert_eq!(acc.len(), 3);
        assert_eq!(acc[0].versions, first.versions, "round 1 outcome untouched");
        for (i, outcome) in acc.iter().enumerate() {
            assert_eq!(
                outcome.versions[&Base::A].unit_bytes,
                expected[i],
                "job {i} decoded wrong bytes"
            );
        }
        // The append path agrees with the one-shot path.
        let mut oneshot = Vec::new();
        decode_jobs_parallel_into(&reads, &jobs, |_| true, 0, &mut oneshot);
        for (a, b) in acc.iter().zip(&oneshot) {
            assert_eq!(a.versions, b.versions);
        }
    }

    #[test]
    fn thread_cap_and_empty_jobs_are_safe() {
        let mut out = Vec::new();
        decode_jobs_parallel_into::<Read, _>(&[], &[], |_| true, 4, &mut out);
        assert!(out.is_empty());
        // One job, absurd thread cap: must still work.
        let index = &indexes()[0];
        let data = unit_bytes(9);
        let mut pool = Pool::new();
        for s in encode_unit(&data, index, 7, 0) {
            pool.add(s, 100.0, None);
        }
        let mut rng = DetRng::seed_from_u64(3);
        let reads = Sequencer::new(IdsChannel::noiseless()).sequence(&pool, 60, &mut rng);
        let jobs = vec![DecodeJob {
            prefix: prefix_for(index),
            reverse: rev(),
            config: BlockDecodeConfig::paper_default(7, 0),
        }];
        decode_jobs_parallel_into(&reads, &jobs, |_| true, 64, &mut out);
        assert_eq!(out[0].versions[&Base::A].unit_bytes, data.to_vec());
    }
}
