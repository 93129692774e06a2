//! Repeatable benchmark of the DNA block store: three single-client
//! workloads (`cold-scan`, `range-scan`, `hot-update`) with end-to-end
//! metrics, and a traced run that breaks the work down by layer.
//!
//! ```text
//! perfbench --workload <cold-scan|range-scan|hot-update|all> --seed N
//!           --seconds S --trace <0|1> [--selftest]
//! ```
//!
//! Each run prints every metric as `name value unit`, then, as its last
//! line, one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! calls twice — untraced, then traced with the layer replay — checks that
//! both passes produced identical counts, and reports the per-layer
//! metrics plus a self-time table, with the spans written under
//! `.perfbench-work/`. `--selftest` runs each selected workload twice at
//! the same seed in child processes and fails unless their counts are
//! identical. See `perfbench/README.md` for the workloads and metrics.

mod calls;
mod host;
mod replay;
mod trace;
mod workload;

use calls::{execute, probe, server_stats, setup, Env, Tally, TraceCtx};
use dna_block_store::ServerStats;
use replay::{ReplayThread, Replayer, RoundTimes};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{Kind, Plan};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Measured calls between samples of the species per block.
const SPECIES_EVERY: usize = 10;
/// Where durable stores and span files go, relative to the working
/// directory.
const WORK_DIR: &str = ".perfbench-work";

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name == "all" {
                    args.workloads = Kind::ALL.to_vec();
                } else {
                    args.workloads =
                        vec![Kind::parse(&name).ok_or(format!("unknown workload {name}"))?];
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                };
            }
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        return selftest(&args);
    }
    if args.workloads.len() > 1 {
        return run_all(&args);
    }
    let work = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {WORK_DIR}: {e}");
        return ExitCode::from(2);
    }
    let kind = args.workloads[0];
    let plan = Plan::new(kind, args.seed, args.seconds);
    let host_cpus = host::nproc();
    if kind.one_cpu() {
        if let Err(e) = host::pin_to_one_cpu() {
            eprintln!("perfbench: pin to one CPU: {e}");
            return ExitCode::from(2);
        }
    }
    println!(
        "host nproc={host_cpus} cpus_used={} profile={} store_fs={} workload={} seed={} warmup_calls={} measured_calls={}",
        host::nproc(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        host::filesystem_of(&work),
        kind.name(),
        args.seed,
        plan.warmup.len(),
        plan.measured.len(),
    );
    let outcome = if args.trace {
        traced_run(&plan, &work)
    } else {
        untraced_run(&plan, &work)
    };
    match outcome {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", kind.name());
            Report::failure(plan.measured.len() as u64).print();
            ExitCode::from(1)
        }
    }
}

// ---------------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------------

/// Nearest-rank quantile (`q` in 0..=1); 0 for no samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `after - before` for every server counter.
fn stats_delta(before: &ServerStats, after: &ServerStats) -> BTreeMap<&'static str, u64> {
    before
        .fields()
        .iter()
        .zip(after.fields())
        .map(|(&(name, b), (_, a))| (name, a - b))
        .collect()
}

// ---------------------------------------------------------------------------
// one measured pass
// ---------------------------------------------------------------------------

/// Counts that must repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counts {
    reads_sequenced_per_block: f64,
    pcr_rounds_per_block: f64,
    fail_frac: f64,
    species_per_block: f64,
    hit_frac: f64,
}

impl Counts {
    fn line(&self) -> String {
        format!(
            "counts reads_sequenced_per_block={} pcr_rounds_per_block={} fail_frac={} species_per_block={} service.hit_frac={}",
            self.reads_sequenced_per_block,
            self.pcr_rounds_per_block,
            self.fail_frac,
            self.species_per_block,
            self.hit_frac
        )
    }
}

struct Pass {
    tally: Tally,
    wall_s: f64,
    cpu_s: f64,
    before: ServerStats,
    delta: BTreeMap<&'static str, u64>,
    counts: Counts,
}

/// Warms up untimed, then runs and times the measured calls.
fn measure(env: &mut Env, plan: &Plan, mut trace: Option<&mut TraceCtx>) -> Result<Pass, String> {
    execute(env, &plan.warmup, 0, &mut Tally::default(), None)?;
    let before = server_stats(env);
    let replayed_before = trace.as_ref().map_or(0, |t| t.replayed_reads);
    let cpu_before = host::cpu_seconds();
    let start = Instant::now();
    let mut tally = Tally::default();
    // Species per block moves with every update and compaction; its mean
    // over the measured calls is steadier than its value at the end.
    let mut species = Vec::new();
    let mut first_op = plan.warmup.len() as u64;
    for chunk in plan.measured.chunks(SPECIES_EVERY) {
        execute(env, chunk, first_op, &mut tally, trace.as_deref_mut())?;
        first_op += chunk.len() as u64;
        species.push(env.species_per_block());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_before;
    let after = server_stats(env);
    if after.stale_serves != 0 {
        return Err(format!("{} stale cache serves", after.stale_serves));
    }
    let delta = stats_delta(&before, &after);
    let replayed = trace.map_or(0, |t| t.replayed_reads) - replayed_before;
    let counts = Counts {
        reads_sequenced_per_block: ratio(
            delta["wetlab_reads_materialized"] - replayed,
            tally.wetlab_blocks,
        ),
        pcr_rounds_per_block: ratio(delta["rounds_executed"], tally.wetlab_blocks),
        fail_frac: ratio(tally.failed_attempts, tally.attempts),
        species_per_block: mean(&species),
        hit_frac: ratio(tally.first_hits, tally.first_served),
    };
    Ok(Pass {
        tally,
        wall_s,
        cpu_s,
        before,
        delta,
        counts,
    })
}

// ---------------------------------------------------------------------------
// reports
// ---------------------------------------------------------------------------

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Lines printed before the metrics.
    notes: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn failure(attempted: u64) -> Report {
        Report {
            correct: false,
            attempted: attempted.max(1),
            failed: attempted.max(1),
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<36} {value:>16.6} {unit}");
        }
        println!("{}", self.json());
    }
}

fn untraced_run(plan: &Plan, work: &Path) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous set-up first so only one server runs.
        drop(env.take());
        let start = Instant::now();
        env = Some(setup(plan.kind, plan.seed, work, &format!("setup{rep}"))?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");
    let pass = measure(&mut env, plan, None)?;
    let t = &pass.tally;
    let c = pass.counts;
    Ok(Report {
        correct: true,
        attempted: t.calls,
        failed: 0,
        notes: vec![
            c.line(),
            format!("setup_s samples={setup_s:.4?}"),
            format!(
                "samples reads={} hits={} misses={} updates={} maintenance={} attempts={} failed_attempts={}",
                t.read_ms.len(),
                t.hit_ms.len(),
                t.miss_ms.len(),
                t.update_ms.len(),
                t.maintenance_ms.len(),
                t.attempts,
                t.failed_attempts
            ),
        ],
        metrics: vec![
            ("read_p50_ms", median(&t.read_ms), "ms"),
            ("read_p95_ms", quantile(&t.read_ms, 0.95), "ms"),
            ("ops_per_s", t.calls as f64 / pass.wall_s, "1/s"),
            ("cpu_ms_per_op", pass.cpu_s * 1e3 / t.calls as f64, "ms"),
            ("setup_s", median(&setup_s), "s"),
            ("reads_sequenced_per_block", c.reads_sequenced_per_block, "count"),
            ("pcr_rounds_per_block", c.pcr_rounds_per_block, "count"),
            ("species_per_block", c.species_per_block, "count"),
            ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        ],
    })
}

fn traced_run(plan: &Plan, work: &Path) -> Result<Report, String> {
    // Pass 1: untraced, the reference for the counts and the overhead.
    let untraced = {
        let mut env = setup(plan.kind, plan.seed, work, "untraced")?;
        measure(&mut env, plan, None)?
    };

    // Pass 2: the same calls, with spans and the layer replay.
    let mut env = setup(plan.kind, plan.seed, work, "traced")?;
    let origin = Instant::now();
    let mut ctx = TraceCtx {
        tracer: Tracer::with_origin(origin),
        replay: ReplayThread::spawn(origin, plan.seed),
        scope_units: Vec::new(),
        replayed_reads: 0,
        misses: 0,
    };
    let traced = measure(&mut env, plan, Some(&mut ctx))?;
    if traced.counts != untraced.counts {
        return Err(format!(
            "the traced pass changed the counts:\n  untraced {}\n  traced   {}",
            untraced.counts.line(),
            traced.counts.line()
        ));
    }
    let last = *plan.measured.last().expect("at least one measured call");
    let first_probe = (plan.warmup.len() + plan.measured.len()) as u64;
    let probes = probe(&mut env, last, first_probe, &traced.tally, &mut ctx)?;
    let after_probes = stats_delta(&traced.before, &server_stats(&env));
    let TraceCtx {
        mut tracer,
        replay,
        scope_units,
        ..
    } = ctx;
    let replayer = replay.finish();
    let layers = layer_metrics(
        &untraced,
        &traced,
        &probes,
        &after_probes,
        &replayer,
        &scope_units,
    );
    tracer.merge(replayer.tracer);

    let stem = format!("{}-seed{}", plan.kind.name(), plan.seed);
    let spans = work.join(format!("spans-{stem}.tsv"));
    tracer
        .write_tsv(&spans)
        .map_err(|e| format!("write {spans:?}: {e}"))?;
    let table = self_time_table(&tracer);
    std::fs::write(work.join(format!("selftime-{stem}.txt")), &table)
        .map_err(|e| format!("write self-time table: {e}"))?;

    let mut notes = vec![untraced.counts.line(), format!("spans {}", spans.display())];
    notes.extend(table.lines().map(str::to_string));
    Ok(Report {
        correct: true,
        attempted: traced.tally.calls,
        failed: 0,
        notes,
        metrics: layers,
    })
}

/// The per-layer metrics of a traced run; see README.md for what each
/// one measures and which end-to-end metric it should move.
fn layer_metrics(
    untraced: &Pass,
    traced: &Pass,
    probes: &Tally,
    after_probes: &BTreeMap<&'static str, u64>,
    replayer: &Replayer,
    scope_units: &[u64],
) -> Vec<(&'static str, f64, &'static str)> {
    let t = &traced.tally;
    let d = &traced.delta;
    let joined = |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().chain(b).copied().collect() };
    let hits = joined(&t.hit_ms, &probes.hit_ms);
    let updates = joined(&t.update_ms, &probes.update_ms);
    let passes = joined(&t.maintenance_ms, &probes.maintenance_ms);
    let acked = t.updates + probes.updates;
    let rounds = &replayer.rounds;
    let per_round =
        |f: fn(&RoundTimes) -> f64| -> f64 { median(&rounds.iter().map(f).collect::<Vec<f64>>()) };
    // A replayed round decodes its jobs one after another; the server
    // fans them out over the cores.
    let nproc = host::nproc();
    let round_ms: Vec<f64> = rounds
        .iter()
        .map(|r| r.mix + r.pcr + r.sequence + r.decode / r.jobs.clamp(1, nproc) as f64)
        .collect();
    let skipped = d["wetlab_species_skipped"].saturating_sub(replayer.wetlab.species_skipped);
    let scanned = d["wetlab_species_scanned"].saturating_sub(replayer.wetlab.species_scanned);
    vec![
        ("serve.hit_rtt_ms", median(&hits), "ms"),
        (
            "serve.requests_per_update",
            ratio(t.update_requests + probes.update_requests, acked),
            "count",
        ),
        ("update_p50_ms", median(&updates), "ms"),
        ("update_p95_ms", quantile(&updates, 0.95), "ms"),
        ("fail_frac", traced.counts.fail_frac, "ratio"),
        ("service.hit_frac", traced.counts.hit_frac, "ratio"),
        (
            "service.rounds_per_miss",
            ratio(d["rounds_executed"], d["cache_misses"]),
            "count",
        ),
        (
            "service.miss_overhead_ms",
            median(&t.miss_ms) - median(&round_ms),
            "ms",
        ),
        (
            "store.scope_units_per_read",
            mean(&scope_units.iter().map(|&u| u as f64).collect::<Vec<_>>()),
            "count",
        ),
        (
            "sim.tube_species",
            mean(&rounds.iter().map(|r| r.species as f64).collect::<Vec<_>>()),
            "count",
        ),
        ("sim.mix_ms", per_round(|r| r.mix), "ms"),
        ("sim.pcr_ms", per_round(|r| r.pcr), "ms"),
        (
            "sim.prefilter_skip_frac",
            ratio(skipped, skipped + scanned),
            "ratio",
        ),
        ("sim.sequence_ms", per_round(|r| r.sequence), "ms"),
        ("sim.synthesize_ms", median(&replayer.synthesize_ms), "ms"),
        ("pipeline.filter_ms", per_round(|r| r.filter), "ms"),
        (
            "pipeline.filter_match_frac",
            ratio(replayer.extracted, replayer.examined),
            "ratio",
        ),
        ("pipeline.cluster_ms", per_round(|r| r.cluster), "ms"),
        ("pipeline.bma_ms", per_round(|r| r.bma), "ms"),
        ("pipeline.decode_ms", per_round(|r| r.decode), "ms"),
        ("ecc.search_ms", per_round(|r| r.search), "ms"),
        (
            "pipeline.decode_fail_frac",
            ratio(replayer.failed_jobs, replayer.jobs),
            "ratio",
        ),
        (
            "persist.journal_bytes_per_update",
            ratio(t.update_journal_bytes + probes.update_journal_bytes, acked),
            "bytes",
        ),
        ("compaction.pass_ms", median(&passes), "ms"),
        (
            "compaction.units_reclaimed_per_pass",
            ratio(after_probes["units_reclaimed"], passes.len() as u64),
            "count",
        ),
        (
            "compaction.rewrites_per_pass",
            ratio(after_probes["rewrites_synthesized"], passes.len() as u64),
            "count",
        ),
        (
            "trace.overhead_frac",
            median(&t.read_ms) / median(&untraced.tally.read_ms) - 1.0,
            "ratio",
        ),
    ]
}

/// Self time per span name, with each replay layer's share of the
/// replay's self time.
fn self_time_table(tracer: &Tracer) -> String {
    let rows = tracer.self_times();
    let is_call = |name: &str| name.starts_with("serve.") || name.starts_with("service.");
    let replay_total: f64 = rows
        .iter()
        .filter(|(name, _)| !is_call(name))
        .map(|(_, &(_, _, self_ms))| self_ms)
        .sum();
    let mut out = String::from(
        "selftime layer                      spans      total_ms       self_ms  replay_share\n",
    );
    for (name, (count, total, self_ms)) in &rows {
        let share = if is_call(name) {
            String::from("-")
        } else {
            format!("{:.3}", self_ms / replay_total.max(1e-9))
        };
        writeln!(
            out,
            "selftime {name:<26} {count:>7} {total:>13.3} {self_ms:>13.3}  {share:>12}"
        )
        .expect("write to String");
    }
    out
}

// ---------------------------------------------------------------------------
// several workloads, and the determinism self-test
// ---------------------------------------------------------------------------

/// Runs this benchmark as a child process for one workload and returns
/// its standard output, echoing it.
fn child(kind: Kind, args: &Args, seed: u64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    for line in stdout.lines() {
        println!("[{}] {line}", kind.name());
    }
    if out.status.success() {
        Ok(stdout)
    } else {
        Err(format!("{} exited with {}", kind.name(), out.status))
    }
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut attempted = 0u64;
    for &kind in &args.workloads {
        match child(kind, args, args.seed, args.trace) {
            Ok(stdout) => {
                attempted += stdout
                    .lines()
                    .last()
                    .and_then(|l| l.split("\"attempted\": ").nth(1))
                    .and_then(|s| s.split(',').next())
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or(0);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ok = false;
            }
        }
    }
    let summary = Report {
        correct: ok,
        attempted: attempted.max(1),
        failed: u64::from(!ok),
        notes: Vec::new(),
        metrics: Vec::new(),
    };
    println!("{}", summary.json());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn selftest(args: &Args) -> ExitCode {
    let mut ok = true;
    for &kind in &args.workloads {
        let counts = |stdout: &str| {
            stdout
                .lines()
                .find(|l| l.starts_with("counts "))
                .map(str::to_string)
        };
        let first = child(kind, args, args.seed, false).map(|s| counts(&s));
        let second = child(kind, args, args.seed, false).map(|s| counts(&s));
        match (first, second) {
            (Ok(Some(a)), Ok(Some(b))) if a == b => {
                println!(
                    "selftest {} seed {}: counts identical",
                    kind.name(),
                    args.seed
                );
            }
            (Ok(a), Ok(b)) => {
                println!(
                    "selftest {} seed {}: counts DIFFER\n  first  {a:?}\n  second {b:?}",
                    kind.name(),
                    args.seed
                );
                ok = false;
            }
            (Err(e), _) | (_, Err(e)) => {
                println!("selftest {}: {e}", kind.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
