//! The traced run's replay of store work through the layers' public
//! functions.
//!
//! After each cache miss, the benchmark hands the replay thread a
//! snapshot of the partition and its tube, taken from the in-process
//! server. The thread rebuilds the round exactly as the store's batch
//! executor does for one Interleaved partition and times each layer call:
//! tube mixing, multiplex PCR, sequencing, then per decode job the read
//! filter, clustering, BMA, the RS decode of the primary candidates, and
//! the full validated decode. Before each
//! update it times the synthesis of that update's designs. The replay
//! has its own RNG and runs on its own long-lived thread, so the server's
//! state, RNG streams and thread-local simulator caches are untouched.

use crate::trace::{SpanId, Tracer};
use dna_block_store::{unit_checksum_ok, Block, Partition, UpdateLayout, UpdatePatch};
use dna_codec::{intra, PayloadCodec};
use dna_ecc::EncodingUnit;
use dna_pipeline::{cluster_reads, decode_block_validated, double_sided_bma, ReadFilter};
use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::{
    IdsChannel, MultiplexPcrReaction, PcrPrimer, PcrProtocol, Pool, PrimerChannel, Read, Sequencer,
    SequencerScratch, SynthesisVendor, WetlabStats,
};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Reads sampled per strand, as `BlockStore::new` configures retrieval.
const COVERAGE: usize = 12;
/// Strands per encoding unit (RS(15,11) columns).
const STRANDS_PER_UNIT: usize = 15;

/// Work for the replay thread.
pub enum Job {
    /// Replay the wetlab round that served `blocks` of one partition.
    Round {
        op: u64,
        partition: Arc<Partition>,
        tube: Arc<Pool>,
        blocks: Vec<u64>,
    },
    /// Time the synthesis of the designs updating `block` from `old` to
    /// `new`.
    Update {
        op: u64,
        partition: Arc<Partition>,
        block: u64,
        old: Block,
        new: Block,
    },
}

/// Layer times of one replayed round, in ms (decode-stage times summed
/// over the round's jobs).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundTimes {
    pub mix: f64,
    pub pcr: f64,
    pub sequence: f64,
    pub filter: f64,
    pub cluster: f64,
    pub bma: f64,
    /// The full validated decode, which runs the filter, clustering and
    /// BMA again before the RS decode and the §8.1 candidate search.
    pub decode: f64,
    /// Payload decode, RS decode and checksum of each live version's
    /// primary candidates: the first step of the §8.1 candidate search.
    pub search: f64,
    /// Distinct species in the reaction tube.
    pub species: usize,
    /// Decode jobs in the round.
    pub jobs: usize,
}

/// Everything the replay measured.
pub struct Replayer {
    pub tracer: Tracer,
    rng: DetRng,
    sequencer: Sequencer,
    scratch: SequencerScratch,
    reads: Vec<Read>,
    pub rounds: Vec<RoundTimes>,
    pub synthesize_ms: Vec<f64>,
    /// Reads the filters examined and extracted.
    pub examined: u64,
    pub extracted: u64,
    /// Decode jobs, and those that left a live version unrecovered.
    pub jobs: u64,
    pub failed_jobs: u64,
    /// Simulator counters the replay itself added to the process totals.
    pub wetlab: WetlabStats,
}

impl Replayer {
    fn new(origin: Instant, seed: u64) -> Replayer {
        Replayer {
            tracer: Tracer::with_origin(origin),
            rng: DetRng::seed_from_u64(seed ^ 0x007A_CE0F_1A7E),
            sequencer: Sequencer::new(IdsChannel::illumina()),
            scratch: SequencerScratch::new(),
            reads: Vec::new(),
            rounds: Vec::new(),
            synthesize_ms: Vec::new(),
            examined: 0,
            extracted: 0,
            jobs: 0,
            failed_jobs: 0,
            wetlab: WetlabStats::default(),
        }
    }

    /// Runs one job; returns the reads the replayed round sequenced (0
    /// for an update).
    fn run(&mut self, job: Job) -> usize {
        let n = match job {
            Job::Round {
                op,
                partition,
                tube,
                blocks,
            } => self.round(op, &partition, &tube, &blocks),
            Job::Update {
                op,
                partition,
                block,
                old,
                new,
            } => {
                self.synthesize(op, &partition, block, &old, &new);
                0
            }
        };
        dna_sim::stats::flush_to_global();
        n
    }

    fn synthesize(&mut self, op: u64, partition: &Partition, block: u64, old: &Block, new: &Block) {
        let patch = UpdatePatch::diff(old, new).expect("a stamp fits one patch");
        // A full chain has no placement: the server compacts first, and
        // that path is timed as maintenance.
        let Ok(placement) = partition.plan_update(block) else {
            return;
        };
        let designs = partition.encode_placement(&placement, &patch);
        let rng = &mut self.rng;
        let (_, ms) = self.tracer.time("sim.synthesize", None, op, || {
            SynthesisVendor::idt().synthesize(&designs, rng)
        });
        self.synthesize_ms.push(ms);
    }

    /// Mirrors the store's batch round for one Interleaved partition.
    fn round(&mut self, op: u64, partition: &Partition, tube: &Pool, blocks: &[u64]) -> usize {
        assert!(
            matches!(partition.config().layout, UpdateLayout::Interleaved { .. }),
            "the replay mirrors the Interleaved layout only"
        );
        let root = self.tracer.open("replay.round", None, op);
        let mut t = RoundTimes::default();
        let (reaction, ms) = self.tracer.time("sim.mix", Some(root), op, || {
            let mut reaction = Pool::new();
            reaction.mix_in(tube, 1.0, 1.0);
            reaction
        });
        t.mix = ms;
        t.species = reaction.distinct();

        // Prefix-cover scope of the requested runs, then the overflow
        // chains, one decode job per distinct leaf.
        let mut blocks = blocks.to_vec();
        blocks.sort_unstable();
        blocks.dedup();
        let mut scope: Vec<(DnaSeq, f64)> = Vec::new();
        let (mut run_start, mut prev) = (blocks[0], blocks[0]);
        for &b in &blocks[1..] {
            if b != prev + 1 {
                scope.extend(partition.range_prefixes_weighted(run_start, prev));
                run_start = b;
            }
            prev = b;
        }
        scope.extend(partition.range_prefixes_weighted(run_start, prev));
        let units: usize = blocks
            .iter()
            .map(|&b| (partition.writes_of(b) as usize + partition.chain_of(b).len()).max(2))
            .sum();
        let mut chain: Vec<u64> = blocks
            .iter()
            .flat_map(|&b| partition.chain_of(b).iter().copied())
            .collect();
        chain.sort_unstable();
        chain.dedup();
        let mut leaves = blocks.clone();
        for &leaf in &chain {
            scope.push((partition.elongated_primer(leaf), 1.0));
            if !leaves.contains(&leaf) {
                leaves.push(leaf);
            }
        }

        let budget = reaction.total_copies() * 20.0;
        let rev = partition.primers().reverse().clone();
        let total_weight: f64 = scope.iter().map(|(_, w)| w.max(1e-9)).sum();
        let rxn = MultiplexPcrReaction {
            channels: vec![PrimerChannel {
                forward_primers: scope
                    .iter()
                    .map(|(p, w)| {
                        PcrPrimer::with_budget(p.clone(), budget * w.max(1e-9) / total_weight)
                    })
                    .collect(),
                reverse_primer: PcrPrimer::with_budget(rev.clone(), budget),
            }],
            protocol: PcrProtocol::paper_block_access(),
        };
        let (amplified, ms) = self
            .tracer
            .time("sim.pcr", Some(root), op, || rxn.run(&reaction));
        t.pcr = ms;

        let n_reads = units.max(1) * STRANDS_PER_UNIT * COVERAGE;
        let (sequencer, rng, scratch, reads) = (
            &self.sequencer,
            &mut self.rng,
            &mut self.scratch,
            &mut self.reads,
        );
        reads.clear();
        let ((), ms) = self.tracer.time("sim.sequence", Some(root), op, || {
            sequencer.sequence_into(&amplified.pool, n_reads, rng, scratch, reads);
        });
        t.sequence = ms;

        for &leaf in &leaves {
            self.decode_job(op, root, partition, &rev, leaf, &mut t);
        }
        self.tracer.close(root);
        self.rounds.push(t);
        self.reads.len()
    }

    fn decode_job(
        &mut self,
        op: u64,
        root: SpanId,
        partition: &Partition,
        rev: &DnaSeq,
        leaf: u64,
        t: &mut RoundTimes,
    ) {
        let prefix = partition.elongated_primer(leaf);
        let config = partition.decode_config_versions(leaf, &partition.live_version_slots(leaf));
        let reads = &self.reads;
        let tracer = &mut self.tracer;
        let job = tracer.open("pipeline.job", Some(root), op);
        let filter = match config.index_tail_tolerance {
            Some(tol) => ReadFilter::with_tail_check(
                prefix.clone(),
                rev,
                config.filter_max_edit,
                config.geometry.unit_index_len.min(prefix.len()),
                tol,
            ),
            None => ReadFilter::new(prefix.clone(), rev, config.filter_max_edit),
        };
        let (interiors, filter_ms) = tracer.time("pipeline.filter", Some(job), op, || {
            reads
                .iter()
                .filter_map(|r| filter.extract(&r.seq))
                .collect::<Vec<DnaSeq>>()
        });
        let (clusters, cluster_ms) = tracer.time("pipeline.cluster", Some(job), op, || {
            cluster_reads(&interiors, &config.cluster)
        });
        let cap = if config.max_clusters == 0 {
            clusters.len()
        } else {
            config.max_clusters.min(clusters.len())
        };
        let (strands, bma_ms) = tracer.time("pipeline.bma", Some(job), op, || {
            clusters
                .iter()
                .take(cap)
                .filter_map(|c| double_sided_bma(&c.sequences(&interiors), config.interior_len()))
                .collect::<Vec<DnaSeq>>()
        });
        // The first reconstruction per (version, column), largest
        // clusters first, is each column's primary candidate.
        let (vlen, ilen) = (config.geometry.version_len, config.geometry.intra_index_len);
        let mut primary: BTreeMap<(Base, usize), DnaSeq> = BTreeMap::new();
        for strand in &strands {
            let column = intra::decode(&strand.subseq(vlen..vlen + ilen));
            if column < config.unit.total_cols {
                primary
                    .entry((strand[0], column))
                    .or_insert_with(|| strand.subseq(vlen + ilen..config.interior_len()));
            }
        }
        let unit = EncodingUnit::new(config.unit);
        let ((), search_ms) = tracer.time("ecc.search", Some(job), op, || {
            for &version in config.version_allowlist.iter().flatten() {
                let columns: Vec<Option<Vec<u8>>> = (0..config.unit.total_cols)
                    .map(|col| {
                        primary.get(&(version, col)).map(|payload| {
                            PayloadCodec::for_column(
                                config.payload_seed,
                                config.unit_id,
                                version.code(),
                                col as u8,
                            )
                            .decode(payload)
                        })
                    })
                    .collect();
                std::hint::black_box(
                    unit.decode(&columns)
                        .is_ok_and(|(bytes, _)| unit_checksum_ok(&bytes)),
                );
            }
        });
        let (outcome, decode_ms) = tracer.time("pipeline.decode", Some(job), op, || {
            decode_block_validated(reads, &prefix, rev, &config, unit_checksum_ok)
        });
        tracer.close(job);

        self.examined += reads.len() as u64;
        self.extracted += interiors.len() as u64;
        self.jobs += 1;
        let live = config.version_allowlist.as_deref().unwrap_or_default();
        if live.iter().any(|v| !outcome.versions.contains_key(v)) {
            self.failed_jobs += 1;
        }
        t.filter += filter_ms;
        t.cluster += cluster_ms;
        t.bma += bma_ms;
        t.decode += decode_ms;
        t.search += search_ms;
        t.jobs += 1;
    }
}

/// The replay thread: jobs go in one at a time and the caller waits for
/// each, so replay work never overlaps the workload's own calls.
pub struct ReplayThread {
    jobs: mpsc::Sender<Job>,
    done: mpsc::Receiver<usize>,
    handle: JoinHandle<Replayer>,
}

impl ReplayThread {
    pub fn spawn(origin: Instant, seed: u64) -> ReplayThread {
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let (done_tx, done) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let mut replayer = Replayer::new(origin, seed);
            let before = dna_sim::stats::thread_totals();
            for job in job_rx {
                let n = replayer.run(job);
                done_tx.send(n).expect("benchmark waits for each replay");
            }
            replayer.wetlab = dna_sim::stats::thread_totals().delta_since(&before);
            replayer
        });
        ReplayThread { jobs, done, handle }
    }

    /// Replays `job`, waits for it, and returns the reads its round
    /// sequenced.
    pub fn replay(&self, job: Job) -> usize {
        self.jobs.send(job).expect("replay thread alive");
        self.done.recv().expect("replay thread alive")
    }

    /// Stops the thread and returns what it measured.
    pub fn finish(self) -> Replayer {
        drop(self.jobs);
        self.handle.join().expect("replay thread panicked")
    }
}
