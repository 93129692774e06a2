//! Simulator work counters (`WetlabStats`).
//!
//! The fast path (per-reaction annealing tables, sequencer weight-table
//! reuse) changes *how much work* the simulator does without changing any
//! observable result. These counters make that work visible: tests pin
//! exact alignment and memo-hit counts, and the serving layer
//! exports them per process so operators can see simulator effort behind
//! each request mix.
//!
//! `species_skipped` is always 0: it counted pairs rejected by the k-mer
//! annealing prefilter, which was removed because a partition tube gave it
//! nothing to reject. The field stays because `/v1/stats` and perfbench
//! read the name.
//!
//! Two banks are kept:
//!
//! - **thread-local totals** — monotone per-thread counters, cheap plain
//!   adds on the hot path; tests capture before/after deltas on the current
//!   thread without interference from concurrently running tests;
//! - **process-global totals** — relaxed atomics, updated by bulk flush at
//!   the end of each simulator entry point (`MultiplexPcrReaction::run`,
//!   `Sequencer::sequence*`), read by `ServerStats`.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of counters in [`WetlabStats`].
pub const WETLAB_COUNTERS: usize = 6;

/// A snapshot of simulator work counters.
///
/// All counters are monotone totals; subtract two snapshots to measure a
/// region of work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WetlabStats {
    /// `binding_site` alignments run: one per (primer, distinct site
    /// window) per PCR reaction. The name predates the window memo.
    pub species_scanned: u64,
    /// Always 0 since the k-mer annealing prefilter was removed; kept
    /// because `/v1/stats` and perfbench read the name.
    pub species_skipped: u64,
    /// Binding lookups answered from a reaction's window memo (a window
    /// already aligned earlier in the same reaction).
    pub binding_cache_hits: u64,
    /// Fresh annealing-model evaluations (`binding_site` alignments plus
    /// memo-missing `binding_probability` computations).
    pub anneal_calls: u64,
    /// Reads drawn from pools by the sequencer.
    pub reads_materialized: u64,
    /// Times the sequencer's cumulative-weight table was reused instead of
    /// rebuilt (the pool was unchanged since the scratch's previous draw).
    pub scratch_reuses: u64,
}

impl WetlabStats {
    fn from_array(a: [u64; WETLAB_COUNTERS]) -> WetlabStats {
        WetlabStats {
            species_scanned: a[0],
            species_skipped: a[1],
            binding_cache_hits: a[2],
            anneal_calls: a[3],
            reads_materialized: a[4],
            scratch_reuses: a[5],
        }
    }

    /// Counter-wise saturating difference (`self - earlier`).
    pub fn delta_since(&self, earlier: &WetlabStats) -> WetlabStats {
        WetlabStats {
            species_scanned: self.species_scanned.saturating_sub(earlier.species_scanned),
            species_skipped: self.species_skipped.saturating_sub(earlier.species_skipped),
            binding_cache_hits: self
                .binding_cache_hits
                .saturating_sub(earlier.binding_cache_hits),
            anneal_calls: self.anneal_calls.saturating_sub(earlier.anneal_calls),
            reads_materialized: self
                .reads_materialized
                .saturating_sub(earlier.reads_materialized),
            scratch_reuses: self.scratch_reuses.saturating_sub(earlier.scratch_reuses),
        }
    }
}

const SCANNED: usize = 0;
const CACHE_HITS: usize = 2;
const ANNEAL: usize = 3;
const READS: usize = 4;
const SCRATCH: usize = 5;

thread_local! {
    /// Per-thread monotone totals plus the portion already flushed to the
    /// global bank.
    static LOCAL: Cell<[u64; WETLAB_COUNTERS]> = const { Cell::new([0; WETLAB_COUNTERS]) };
    static FLUSHED: Cell<[u64; WETLAB_COUNTERS]> = const { Cell::new([0; WETLAB_COUNTERS]) };
}

static GLOBAL: [AtomicU64; WETLAB_COUNTERS] = [const { AtomicU64::new(0) }; WETLAB_COUNTERS];

#[inline]
fn bump(idx: usize, by: u64) {
    LOCAL.with(|l| {
        let mut a = l.get();
        a[idx] += by;
        l.set(a);
    });
}

pub(crate) fn record_species_scanned(by: u64) {
    bump(SCANNED, by);
}

pub(crate) fn record_binding_cache_hits(by: u64) {
    bump(CACHE_HITS, by);
}

pub(crate) fn record_anneal_calls(by: u64) {
    bump(ANNEAL, by);
}

pub(crate) fn record_reads_materialized(by: u64) {
    bump(READS, by);
}

pub(crate) fn record_scratch_reuse(by: u64) {
    bump(SCRATCH, by);
}

/// Flushes this thread's unflushed counts into the process-global bank.
///
/// Called at the end of each simulator entry point, so serving snapshots
/// stay fresh.
pub fn flush_to_global() {
    let local = LOCAL.with(Cell::get);
    let flushed = FLUSHED.with(Cell::get);
    for i in 0..WETLAB_COUNTERS {
        let d = local[i] - flushed[i];
        if d > 0 {
            GLOBAL[i].fetch_add(d, Ordering::Relaxed);
        }
    }
    FLUSHED.with(|f| f.set(local));
}

/// This thread's monotone totals (including unflushed counts). Tests diff
/// two calls around a region of work.
pub fn thread_totals() -> WetlabStats {
    WetlabStats::from_array(LOCAL.with(Cell::get))
}

/// Process-global totals (flushed counts from all threads).
pub fn global_totals() -> WetlabStats {
    let mut a = [0u64; WETLAB_COUNTERS];
    for (slot, g) in a.iter_mut().zip(&GLOBAL) {
        *slot = g.load(Ordering::Relaxed);
    }
    WetlabStats::from_array(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_totals_are_monotone_and_flush_reaches_global() {
        let before_thread = thread_totals();
        let before_global = global_totals();
        record_species_scanned(3);
        record_scratch_reuse(1);
        let d = thread_totals().delta_since(&before_thread);
        assert_eq!(d.species_scanned, 3);
        assert_eq!(d.scratch_reuses, 1);
        // Flushing publishes the delta to the global bank (other threads may
        // add concurrently, so only lower bounds hold).
        flush_to_global();
        flush_to_global(); // idempotent: second flush has nothing new
        let g = global_totals().delta_since(&before_global);
        assert!(g.species_scanned >= 3);
        assert!(g.scratch_reuses >= 1);
    }

    #[test]
    fn delta_since_subtracts_counterwise() {
        let a = WetlabStats {
            species_scanned: 10,
            species_skipped: 20,
            binding_cache_hits: 5,
            anneal_calls: 7,
            reads_materialized: 100,
            scratch_reuses: 2,
        };
        let b = WetlabStats {
            species_scanned: 4,
            species_skipped: 20,
            binding_cache_hits: 1,
            anneal_calls: 2,
            reads_materialized: 40,
            scratch_reuses: 0,
        };
        let d = a.delta_since(&b);
        assert_eq!(d.species_scanned, 6);
        assert_eq!(d.species_skipped, 0);
        assert_eq!(d.binding_cache_hits, 4);
        assert_eq!(d.anneal_calls, 5);
        assert_eq!(d.reads_materialized, 60);
        assert_eq!(d.scratch_reuses, 2);
    }
}
