//! Set-up and execution of a workload against an in-process wire server,
//! checked against the benchmark's own oracle: the bytes written at
//! set-up plus every acknowledged update.

use crate::replay::{Job, ReplayThread};
use crate::trace::Tracer;
use crate::workload::{base_file, partition_seed, stamped_image, Kind, Op, STORE_SEED};
use dna_block_store::{
    Block, BlockStore, PartitionId, ServerConfig, ServerStats, StoreError, StoreServer, BLOCK_SIZE,
};
use dna_serve::client::{CallError, JobPoll};
use dna_serve::{Client, ServeConfig, WireServer};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Attempts per read call before the run aborts.
const MAX_ATTEMPTS: u32 = 8;
/// The traced run replays one miss in this many. A replayed `range-scan`
/// round costs about three times the call itself; replaying every round
/// took a 20-second traced run to ~115 s, too near the 180 s a run may
/// take on a slower host.
const REPLAY_EVERY: u64 = 2;

/// Removes a directory tree when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A booted and loaded server with one connected client.
pub struct Env {
    pub wire: WireServer,
    client: Client,
    pids: Vec<u64>,
    /// Set-up bytes per partition.
    bases: Vec<Vec<u8>>,
    /// Current acknowledged bytes per partition and block.
    oracle: Vec<Vec<Vec<u8>>>,
    /// Declared last: the store directory goes after the server stops.
    _dir: Option<TempDir>,
}

/// Boots a server (durable under `work/<tag>` when the workload is) and
/// writes one file per partition through the client.
pub fn setup(kind: Kind, seed: u64, work: &Path, tag: &str) -> Result<Env, String> {
    let config = ServerConfig::paper_default();
    let (server, dir) = if kind.durable() {
        let path = work.join(format!("store-{tag}"));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {path:?}: {e}"))?;
        let dir = TempDir(path);
        let server = StoreServer::open_or_recover(&dir.0, STORE_SEED, config)
            .map_err(|e| format!("open durable store: {e}"))?;
        (server, Some(dir))
    } else {
        (StoreServer::new(BlockStore::new(STORE_SEED), config), None)
    };
    let wire = WireServer::start(server, ServeConfig::default(), "127.0.0.1:0")
        .map_err(|e| format!("bind loopback: {e}"))?;
    let mut client = Client::connect(wire.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut pids = Vec::new();
    let mut bases = Vec::new();
    let mut oracle = Vec::new();
    for part in 0..kind.partitions() {
        let pid = client
            .create_partition(partition_seed(part))
            .map_err(|e| format!("create partition {part}: {e}"))?;
        let data = base_file(kind, seed, part);
        let written = client
            .write_file(pid, &data)
            .map_err(|e| format!("write partition {part}: {e}"))?;
        if written != kind.blocks() {
            return Err(format!("partition {part}: wrote {written} blocks"));
        }
        pids.push(pid);
        oracle.push(data.chunks(BLOCK_SIZE).map(<[u8]>::to_vec).collect());
        bases.push(data);
    }
    Ok(Env {
        wire,
        client,
        pids,
        bases,
        oracle,
        _dir: dir,
    })
}

impl Env {
    fn pid(&self, part: usize) -> PartitionId {
        PartitionId(usize::try_from(self.pids[part]).expect("small partition id"))
    }

    fn check(&self, part: usize, block: u64, bytes: &[u8]) -> Result<(), String> {
        if self.oracle[part][block as usize] == bytes {
            Ok(())
        } else {
            Err(format!(
                "partition {part} block {block}: returned bytes differ from the oracle"
            ))
        }
    }

    /// Distinct species in all tubes per live block.
    pub fn species_per_block(&self) -> f64 {
        let store = self.wire.store_server().store();
        let species: usize = store
            .partition_ids()
            .into_iter()
            .map(|pid| store.tube(pid).map_or(0, |t| t.distinct()))
            .sum();
        // Every block written at set-up stays live.
        let live: usize = self.oracle.iter().map(Vec::len).sum();
        species as f64 / live as f64
    }
}

/// What one list of calls did, as the client saw it.
#[derive(Default)]
pub struct Tally {
    /// Per read call (block or range): first attempt to correct bytes.
    pub read_ms: Vec<f64>,
    /// Wire reads answered from the cache.
    pub hit_ms: Vec<f64>,
    /// Read calls that went to the wetlab.
    pub miss_ms: Vec<f64>,
    /// Update submit to durable ack, including any compact-and-retry.
    pub update_ms: Vec<f64>,
    /// Maintenance calls (scheduled passes and compact-and-retry passes).
    pub maintenance_ms: Vec<f64>,
    pub calls: u64,
    pub attempts: u64,
    pub failed_attempts: u64,
    /// Blocks the first attempt of a read call fetched from the wetlab.
    pub wetlab_blocks: u64,
    /// Blocks the first attempt of a read call asked for, and found in
    /// the cache; retries are left out, since a failed range attempt
    /// caches the blocks it did decode.
    pub first_served: u64,
    pub first_hits: u64,
    pub updates: u64,
    /// HTTP requests the server parsed for acked updates.
    pub update_requests: u64,
    /// Journal growth across acked updates.
    pub update_journal_bytes: u64,
}

/// The traced run's recorders.
pub struct TraceCtx {
    pub tracer: Tracer,
    pub replay: ReplayThread,
    /// `retrieval_scope_units` of each block a wetlab round returned.
    pub scope_units: Vec<u64>,
    /// Reads the replayed rounds sequenced (they land in the process-wide
    /// simulator counters and are subtracted from the server's).
    pub replayed_reads: u64,
    /// Calls that missed the cache so far.
    pub misses: u64,
}

impl TraceCtx {
    /// Records the retrieval scope of `blocks`; for every
    /// [`REPLAY_EVERY`]-th miss, also replays the round that served them
    /// and checks it sequenced as many reads as the server's last round,
    /// `server_reads`.
    fn after_miss(
        &mut self,
        env: &Env,
        part: usize,
        blocks: &[u64],
        op: u64,
        server_reads: u64,
    ) -> Result<(), String> {
        let store = env.wire.store_server().store();
        let pid = env.pid(part);
        for &b in blocks {
            self.scope_units.push(
                store
                    .retrieval_scope_units(pid, b)
                    .map_err(|e| e.to_string())?,
            );
        }
        self.misses += 1;
        if !(self.misses - 1).is_multiple_of(REPLAY_EVERY) {
            return Ok(());
        }
        let job = Job::Round {
            op,
            partition: store.partition(pid).map_err(|e| e.to_string())?,
            tube: store.tube(pid).map_err(|e| e.to_string())?,
            blocks: blocks.to_vec(),
        };
        let replayed = self.replay.replay(job) as u64;
        self.replayed_reads += replayed;
        if replayed != server_reads {
            return Err(format!(
                "replay of op {op} sequenced {replayed} reads, the server's round {server_reads}"
            ));
        }
        Ok(())
    }
}

fn reads_materialized() -> u64 {
    dna_sim::stats::global_totals().reads_materialized
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `ops` in order, numbering them from `first_op`.
pub fn execute(
    env: &mut Env,
    ops: &[Op],
    first_op: u64,
    tally: &mut Tally,
    mut trace: Option<&mut TraceCtx>,
) -> Result<(), String> {
    for (i, &op) in ops.iter().enumerate() {
        let id = first_op + i as u64;
        match op {
            Op::Read { part, block } => read(env, part, block, id, tally, trace.as_deref_mut())?,
            Op::Range { part, lo, hi } => {
                range(env, part, lo, hi, id, tally, trace.as_deref_mut())?
            }
            Op::Update { part, block, stamp } => {
                update(env, part, block, stamp, id, tally, trace.as_deref_mut())?;
            }
            Op::Maintenance => maintenance(env, id, tally, trace.as_deref_mut(), false)?,
        }
        tally.calls += 1;
    }
    Ok(())
}

/// One read attempt: the blocks with whether each came from the cache,
/// or a decode failure worth retrying.
enum Attempt {
    Served(Vec<(Vec<u8>, bool)>),
    DecodeFailed(String),
}

fn read(
    env: &mut Env,
    part: usize,
    block: u64,
    op: u64,
    tally: &mut Tally,
    trace: Option<&mut TraceCtx>,
) -> Result<(), String> {
    let pid = env.pids[part];
    read_call(
        env,
        part,
        block..=block,
        op,
        tally,
        trace,
        "serve.read",
        |env| match env.client.read_block(pid, block) {
            Ok((bytes, from_cache)) => Ok(Attempt::Served(vec![(bytes, from_cache)])),
            Err(CallError::Server {
                status: 409,
                message,
            }) if message.contains("decoding") => Ok(Attempt::DecodeFailed(message)),
            Err(e) => Err(format!("read {part}/{block}: {e}")),
        },
    )
}

fn range(
    env: &mut Env,
    part: usize,
    lo: u64,
    hi: u64,
    op: u64,
    tally: &mut Tally,
    trace: Option<&mut TraceCtx>,
) -> Result<(), String> {
    let pid = env.pid(part);
    read_call(
        env,
        part,
        lo..=hi,
        op,
        tally,
        trace,
        "service.read_range",
        |env| match env.wire.store_server().read_range(pid, lo, hi) {
            Ok(served) => Ok(Attempt::Served(
                served
                    .into_iter()
                    .map(|r| (r.block.data, r.from_cache))
                    .collect(),
            )),
            Err(e @ StoreError::DecodeFailed { .. }) => Ok(Attempt::DecodeFailed(e.to_string())),
            Err(e) => Err(format!("range {part}/{lo}..={hi}: {e}")),
        },
    )
}

/// Retries `attempt` on decode failures, checks the bytes it returns and
/// tallies the call. A failed attempt caches the blocks it did decode, so
/// the blocks the first attempt missed are the call's wetlab blocks.
#[allow(clippy::too_many_arguments)]
fn read_call(
    env: &mut Env,
    part: usize,
    blocks: std::ops::RangeInclusive<u64>,
    op: u64,
    tally: &mut Tally,
    trace: Option<&mut TraceCtx>,
    name: &'static str,
    mut attempt: impl FnMut(&mut Env) -> Result<Attempt, String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut attempts = 0;
    let (served, last_reads) = loop {
        attempts += 1;
        tally.attempts += 1;
        let before = server_stats(env);
        let reads_before = reads_materialized();
        let outcome = attempt(env)?;
        if attempts == 1 {
            let after = server_stats(env);
            tally.wetlab_blocks += after.cache_misses - before.cache_misses;
            tally.first_hits += after.cache_hits - before.cache_hits;
            tally.first_served += after.reads_served - before.reads_served;
        }
        match outcome {
            Attempt::Served(served) => break (served, reads_materialized() - reads_before),
            Attempt::DecodeFailed(message) if attempts < MAX_ATTEMPTS => {
                eprintln!("retry {name} {part}/{blocks:?} after attempt {attempts}: {message}");
                tally.failed_attempts += 1;
            }
            Attempt::DecodeFailed(message) => {
                return Err(format!(
                    "{name} {part}/{blocks:?}: {attempts} attempts: {message}"
                ));
            }
        }
    };
    let ms = ms_since(start);
    if served.len() != blocks.clone().count() {
        return Err(format!(
            "{name} {part}/{blocks:?}: {} blocks returned",
            served.len()
        ));
    }
    let mut missed = Vec::new();
    for (block, (bytes, from_cache)) in blocks.zip(&served) {
        env.check(part, block, bytes)?;
        if !from_cache {
            missed.push(block);
        }
    }
    tally.read_ms.push(ms);
    if missed.is_empty() {
        tally.hit_ms.push(ms);
    } else {
        tally.miss_ms.push(ms);
    }
    if let Some(t) = trace {
        t.tracer.record(name, start, op);
        if !missed.is_empty() {
            t.after_miss(env, part, &missed, op, last_reads)?;
        }
    }
    Ok(())
}

fn update(
    env: &mut Env,
    part: usize,
    block: u64,
    stamp: u64,
    op: u64,
    tally: &mut Tally,
    mut trace: Option<&mut TraceCtx>,
) -> Result<(), String> {
    let pid = env.pids[part];
    let at = usize::try_from(block).expect("small block") * BLOCK_SIZE;
    let image = stamped_image(&env.bases[part][at..at + BLOCK_SIZE], part, block, stamp);
    if let Some(t) = trace.as_deref_mut() {
        let store = env.wire.store_server().store();
        let old = &env.oracle[part][block as usize];
        t.replay.replay(Job::Update {
            op,
            partition: store.partition(env.pid(part)).map_err(|e| e.to_string())?,
            block,
            old: Block::from_bytes(old).map_err(|e| e.to_string())?,
            new: Block::from_bytes(&image).map_err(|e| e.to_string())?,
        });
    }
    let journal_before = env.wire.store_server().store().journal_bytes().unwrap_or(0);
    let requests_before = env.wire.serve_stats().http_requests;
    let start = Instant::now();
    tally.attempts += 1;
    match submit_update(&mut env.client, pid, block, &image)? {
        JobPoll::Updated => {}
        JobPoll::Failed(message) if message.contains("update slots exhausted") => {
            // Patch chain full: fold it, then retry once.
            tally.failed_attempts += 1;
            maintenance(env, op, tally, trace.as_deref_mut(), true)?;
            tally.attempts += 1;
            match submit_update(&mut env.client, pid, block, &image)? {
                JobPoll::Updated => {}
                other => return Err(format!("update {part}/{block} after compaction: {other:?}")),
            }
        }
        other => return Err(format!("update {part}/{block}: {other:?}")),
    }
    tally.update_ms.push(ms_since(start));
    if let Some(t) = trace {
        t.tracer.record("serve.update", start, op);
    }
    tally.updates += 1;
    tally.update_requests += env.wire.serve_stats().http_requests - requests_before;
    tally.update_journal_bytes +=
        env.wire.store_server().store().journal_bytes().unwrap_or(0) - journal_before;
    env.oracle[part][block as usize] = image;
    Ok(())
}

fn submit_update(
    client: &mut Client,
    pid: u64,
    block: u64,
    image: &[u8],
) -> Result<JobPoll, String> {
    let job = client
        .submit_update(pid, block, image)
        .map_err(|e| format!("submit update: {e}"))?;
    client.wait(job).map_err(|e| format!("wait update: {e}"))
}

/// One maintenance pass: a scheduled job, or (`inline`) the synchronous
/// pass an update runs when its chain is full.
fn maintenance(
    env: &mut Env,
    op: u64,
    tally: &mut Tally,
    trace: Option<&mut TraceCtx>,
    inline: bool,
) -> Result<(), String> {
    let start = Instant::now();
    if inline {
        env.client
            .maintenance()
            .map_err(|e| format!("maintenance: {e}"))?;
    } else {
        let job = env
            .client
            .submit_maintenance()
            .map_err(|e| format!("submit maintenance: {e}"))?;
        match env.client.wait(job) {
            Ok(JobPoll::Maintained { .. }) => {}
            other => return Err(format!("maintenance: {other:?}")),
        }
    }
    tally.maintenance_ms.push(ms_since(start));
    if let Some(t) = trace {
        t.tracer.record("serve.maintenance", start, op);
    }
    Ok(())
}

/// After the measured calls of a traced run: gives every per-layer
/// metric samples on workloads whose own calls never exercise that layer
/// — cache-hit reads of the last block read, updates of partition 0 and
/// maintenance passes. The counts of the run are taken before this.
pub fn probe(
    env: &mut Env,
    last: Op,
    first_op: u64,
    measured: &Tally,
    trace: &mut TraceCtx,
) -> Result<Tally, String> {
    const HIT_PROBES: usize = 64;
    const UPDATE_PROBES: u64 = 16;
    const MAINTENANCE_PROBES: usize = 4;
    let mut ops = Vec::new();
    if measured.hit_ms.len() < HIT_PROBES {
        let (part, block) = match last {
            Op::Read { part, block } => (part, block),
            Op::Range { part, hi, .. } => (part, hi),
            _ => (0, 0),
        };
        ops.extend(std::iter::repeat_n(Op::Read { part, block }, HIT_PROBES));
    }
    if measured.update_ms.is_empty() {
        ops.extend((0..UPDATE_PROBES).map(|block| Op::Update {
            part: 0,
            block,
            stamp: block,
        }));
    }
    if measured.maintenance_ms.is_empty() {
        ops.extend(std::iter::repeat_n(Op::Maintenance, MAINTENANCE_PROBES));
    }
    let mut tally = Tally::default();
    execute(env, &ops, first_op, &mut tally, Some(trace))?;
    Ok(tally)
}

/// Server counters.
pub fn server_stats(env: &Env) -> ServerStats {
    env.wire.store_server().stats()
}
