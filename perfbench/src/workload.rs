//! The three workloads: their shapes and their seeded operation
//! sequences.
//!
//! Every workload is one closed-loop client issuing a fixed list of
//! operations. The list is a pure function of `--seed` and `--seconds`,
//! so two runs with the same arguments do exactly the same work and their
//! counts repeat exactly. `--seconds` only sets the list's length, at the
//! workload's calibrated call rate; a run never stops on a clock.

use dna_block_store::workload::{derive_seed, tenant_files, OpKind, WorkloadMix, WorkloadSpec};
use dna_block_store::BLOCK_SIZE;
use dna_seq::rng::DetRng;

/// Seed of the simulated wetlab: the store's primer library, synthesis
/// skew and sequencing draws, and (through [`partition_seed`]) each
/// partition's index tree. It is fixed, so every run reads the same
/// synthesis batch; with it, every block of every workload decodes
/// within a few attempts. (Some store seeds leave a block whose strands
/// synthesize too sparsely to ever decode.) `--seed` picks the data
/// written and, on `hot-update`, which tenants and blocks are hot.
pub const STORE_SEED: u64 = 11;

/// Seed of the `hot-update` stream of tenant and block ranks. With a
/// stream drawn from `--seed` the work itself varied between seeds: over
/// 1500 calls the hit share ranged from 0.69 to 0.78 and the reads
/// sequenced per block from 466 to 503.
const HOT_STREAM_SEED: u64 = 0x0407;

/// Blocks per `read_range` call in `range-scan`.
const RANGE_RUN: u64 = 8;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Block-order scan over the wire of more blocks than the cache holds.
    ColdScan,
    /// In-process `read_range` calls of 8 consecutive blocks.
    RangeScan,
    /// Zipf-skewed read/update/maintenance mix over the wire, durable.
    HotUpdate,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ColdScan, Kind::RangeScan, Kind::HotUpdate];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdScan => "cold-scan",
            Kind::RangeScan => "range-scan",
            Kind::HotUpdate => "hot-update",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Partitions written at set-up (one file each).
    pub fn partitions(self) -> usize {
        match self {
            Kind::ColdScan => 24,
            Kind::RangeScan => 31,
            Kind::HotUpdate => 8,
        }
    }

    /// Blocks per partition file.
    pub fn blocks(self) -> u64 {
        match self {
            Kind::ColdScan => 48,
            Kind::RangeScan => 40,
            Kind::HotUpdate => 32,
        }
    }

    /// Whether the store is durable (image + journal on disk, fsync per
    /// commit), as `served --dir` runs it.
    pub fn durable(self) -> bool {
        self == Kind::HotUpdate
    }

    /// Whether the whole process runs on one CPU. On `hot-update` the
    /// median read is a cache hit, a loopback round trip of tens of
    /// microseconds. Across two vCPUs that round trip wakes the other,
    /// often idle, vCPU, which takes 2-4x longer depending on the host's
    /// load; on one CPU the client hands over to the server's connection
    /// thread directly. Its misses decode one job per round, so they lose
    /// little. The scans keep every core: their rounds are milliseconds
    /// long and `range-scan` decodes its 8 jobs in parallel.
    pub fn one_cpu(self) -> bool {
        self == Kind::HotUpdate
    }

    /// Calls per second a 2-core x86-64 host completes; sets how many
    /// calls one run of `--seconds` makes.
    fn calls_per_second(self) -> f64 {
        match self {
            Kind::ColdScan => 18.0,
            Kind::RangeScan => 4.4,
            Kind::HotUpdate => 100.0,
        }
    }

    /// Untimed calls before the measured ones.
    fn warmup_calls(self) -> usize {
        match self {
            Kind::ColdScan => 24,
            Kind::RangeScan => 4,
            Kind::HotUpdate => 200,
        }
    }

    /// The hot-update population: 8 tenants x 32 blocks, Zipf 0.8 over
    /// tenants and 1.1 over blocks, 85/14/1 read/update/maintenance.
    fn hot_spec(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            seed,
            users: 2_000_000,
            tenants: Kind::HotUpdate.partitions() as u64,
            blocks_per_tenant: Kind::HotUpdate.blocks(),
            tenant_skew: 0.8,
            block_skew: 1.1,
            user_skew: 1.0,
            mix: WorkloadMix {
                reads: 85,
                updates: 14,
                maintenance: 1,
            },
        }
    }
}

/// One client call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read one block.
    Read { part: usize, block: u64 },
    /// Read blocks `lo..=hi` of one partition in one call.
    Range { part: usize, lo: u64, hi: u64 },
    /// Replace one block with its base image plus a stamp.
    Update { part: usize, block: u64, stamp: u64 },
    /// One maintenance (compaction) pass.
    Maintenance,
}

/// A workload's full operation list.
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub warmup: Vec<Op>,
    pub measured: Vec<Op>,
}

impl Plan {
    pub fn new(kind: Kind, seed: u64, seconds: u64) -> Plan {
        let measured = ((seconds as f64 * kind.calls_per_second()).round() as usize).max(1);
        let warmup = kind.warmup_calls();
        let mut ops = operations(kind, seed).take(warmup + measured);
        Plan {
            kind,
            seed,
            warmup: ops.by_ref().take(warmup).collect(),
            measured: ops.collect(),
        }
    }
}

fn operations(kind: Kind, seed: u64) -> Box<dyn Iterator<Item = Op>> {
    let parts = kind.partitions() as u64;
    let blocks = kind.blocks();
    match kind {
        Kind::ColdScan => Box::new((0u64..).map(move |i| Op::Read {
            part: ((i / blocks) % parts) as usize,
            block: i % blocks,
        })),
        Kind::RangeScan => {
            let runs = blocks / RANGE_RUN;
            Box::new((0u64..).map(move |i| {
                let lo = (i % runs) * RANGE_RUN;
                Op::Range {
                    part: ((i / runs) % parts) as usize,
                    lo,
                    hi: lo + RANGE_RUN - 1,
                }
            }))
        }
        Kind::HotUpdate => {
            // `--seed` relabels which tenants and blocks are hot; the
            // stream of Zipf ranks is fixed, so every seed does the same
            // amount of work.
            let mut rng = DetRng::seed_from_u64(derive_seed(seed, 0x407, 0));
            let mut tenants: Vec<usize> = (0..kind.partitions()).collect();
            let mut labels: Vec<u64> = (0..blocks).collect();
            rng.shuffle(&mut tenants);
            rng.shuffle(&mut labels);
            let stream = Kind::hot_spec(HOT_STREAM_SEED).client_stream(0);
            Box::new(stream.zip(0u64..).map(move |(op, n)| {
                let part = tenants[op.tenant as usize];
                let block = labels[op.block as usize];
                match op.kind {
                    OpKind::Read => Op::Read { part, block },
                    OpKind::Update => Op::Update {
                        part,
                        block,
                        stamp: n,
                    },
                    OpKind::Maintenance => Op::Maintenance,
                }
            }))
        }
    }
}

/// The file written into partition `part` at set-up.
pub fn base_file(kind: Kind, seed: u64, part: usize) -> Vec<u8> {
    let blocks = usize::try_from(kind.blocks()).expect("small block count");
    tenant_files(seed, part as u64, 1, blocks).remove(0)
}

/// Master seed of partition `part` (index tree and payload randomizer).
pub fn partition_seed(part: usize) -> u64 {
    derive_seed(STORE_SEED, 0x9A27_1710, part as u64)
}

/// The image an update writes: the block's base bytes with a 16-byte
/// stamp at a per-block offset, so any two images of a block differ in
/// one window and fit one delete-then-insert patch.
pub fn stamped_image(base_block: &[u8], part: usize, block: u64, stamp: u64) -> Vec<u8> {
    let mut image = base_block.to_vec();
    let at = usize::try_from((block * 29) % (BLOCK_SIZE as u64 - 16)).expect("small offset");
    image[at..at + 16].copy_from_slice(format!("[{part:03}:{stamp:08}!!]").as_bytes());
    image
}
