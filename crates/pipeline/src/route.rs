//! Per-round read routing: every read to every decode job that accepts
//! it, in one pass (§8 step 1 for a whole multiplexed round).
//!
//! §3.1's prefix covers put a whole block range in one retrieval round,
//! so one read pool serves many decode jobs, and their elongated
//! prefixes are nearly the same sequence: one main primer, then the sync
//! base and index bases that sibling leaves share up to their last few.
//! Running each job's [`ReadFilter`] over every read would align those
//! shared bases once per job. [`ReadRouter`] aligns them once per read.
//!
//! It runs the filter's bit-parallel kernel transposed: the pattern is the
//! read's head and the text is each job's prefix, stepped one column at a
//! time ([`LaneAligner`], several reads side by side). The jobs are walked
//! in prefix order as a trie: the column at each depth a later job
//! branches from is kept, and that job restarts from it. After a job's
//! last base, the column holds `levenshtein(&read[..w], prefix)` for every
//! window `w`, which is exactly what the job's forward window scan
//! computes, so the job's window, tie-break and index-tail check follow as
//! in [`ReadFilter::extract`]. Two exact checks keep most jobs from
//! picking a window at all: a lower bound on the window rows drops the
//! jobs no window can reach, and a packed comparison of the index tail at
//! every candidate window end drops sibling leaves, whose prefixes are
//! within the forward tolerance but never pass the tail check. The
//! reverse site is aligned the same way,
//! the reads' tails read backwards against the site read backwards, once
//! per group of reads per distinct reverse primer, and only when one of
//! them passed some job's forward and index-tail checks. Routing is
//! therefore exact: a job receives the interiors its own filter would
//! extract, in read order, and nothing else.

use crate::filter::{interior, pick_window, ReadFilter};
use dna_seq::distance::{Column, LaneAligner, Lanes, PrefixAligner};
use dna_seq::{Base, DnaSeq};
use std::ops::RangeInclusive;

/// Reads the trie walk steps through side by side.
const LANES: usize = 4;

/// Routes a round's reads to its decode jobs: for every read, the jobs
/// whose [`ReadFilter::extract`] accepts it and the interior each would
/// extract.
#[derive(Debug, Clone)]
pub struct ReadRouter {
    filters: Vec<ReadFilter>,
    /// Jobs in prefix order, each with the length of its longest common
    /// prefix with the job before it.
    trie: Vec<(usize, usize)>,
    /// Whether some job restarts from the column after each depth: only
    /// those columns are stored during the walk.
    kept: Vec<bool>,
    /// Distinct reverse sites, read backwards, each with the widest edit
    /// tolerance of the jobs that use it.
    sites: Vec<(DnaSeq, usize)>,
    /// Index into `sites` per job.
    site_of: Vec<usize>,
    /// Per job, its index-tail check in packed form, when it has one with
    /// a tolerance of at most 1.
    index_tails: Vec<Option<PackedTail>>,
    /// Read bases the forward windows can reach: the longest prefix plus
    /// its tolerance, over all jobs.
    head: usize,
    /// Column steps the trie walk takes per read.
    steps: usize,
}

impl ReadRouter {
    /// Builds the router for one round's jobs, one filter per job in job
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if some job's prefix or reverse site plus its edit
    /// tolerance exceeds [`PrefixAligner::MAX_PATTERN`] bases: the read's
    /// head and tail are the aligner's patterns.
    pub fn new(filters: Vec<ReadFilter>) -> ReadRouter {
        let head = filters
            .iter()
            .map(|f| f.fwd.len() + f.max_edit)
            .max()
            .unwrap_or(0);
        let tail = filters
            .iter()
            .map(|f| f.rev_site.len() + f.max_edit)
            .max()
            .unwrap_or(0);
        assert!(
            head.max(tail) <= PrefixAligner::MAX_PATTERN,
            "primer windows reach {} read bases, past the {}-base aligner word",
            head.max(tail),
            PrefixAligner::MAX_PATTERN
        );
        let mut order: Vec<usize> = (0..filters.len()).collect();
        order.sort_by(|&a, &b| filters[a].fwd.cmp(&filters[b].fwd));
        let mut trie = Vec::with_capacity(order.len());
        let mut steps = 0;
        let mut previous: Option<&DnaSeq> = None;
        for &job in &order {
            let prefix = &filters[job].fwd;
            let shared = previous.map_or(0, |p| common_prefix(p, prefix));
            steps += prefix.len() - shared;
            trie.push((job, shared));
            previous = Some(prefix);
        }
        let depth = filters.iter().map(|f| f.fwd.len()).max().unwrap_or(0);
        let mut kept = vec![false; depth + 1];
        for &(_, shared) in &trie {
            kept[shared] = true;
        }
        let mut sites: Vec<(DnaSeq, usize)> = Vec::new();
        let site_of = filters
            .iter()
            .map(
                |f| match sites.iter().position(|(site, _)| *site == f.rev_site) {
                    Some(known) => {
                        sites[known].1 = sites[known].1.max(f.max_edit);
                        known
                    }
                    None => {
                        sites.push((f.rev_site.clone(), f.max_edit));
                        sites.len() - 1
                    }
                },
            )
            .collect();
        let index_tails = filters
            .iter()
            .map(|f| match f.tail_check {
                Some((len, tol)) if tol <= 1 && len < 64 => Some(PackedTail {
                    bases: pack(&f.fwd.as_slice()[f.fwd.len() - len..]),
                    len,
                    tol,
                }),
                _ => None,
            })
            .collect();
        ReadRouter {
            filters,
            trie,
            kept,
            sites,
            site_of,
            index_tails,
            head,
            steps,
        }
    }

    /// Column steps of the trie walk per read: the prefixes' bases once
    /// each, less every base a job shares with the job before it in
    /// prefix order.
    pub fn steps_per_read(&self) -> usize {
        self.steps
    }

    /// Routes `reads`: entry `j` of the result holds, in read order, the
    /// interior of every read that job `j`'s filter accepts.
    pub fn route<'a>(&self, reads: impl IntoIterator<Item = &'a DnaSeq>) -> Vec<Vec<DnaSeq>> {
        let mut routed: Vec<Vec<DnaSeq>> = vec![Vec::new(); self.filters.len()];
        if self.filters.is_empty() {
            return routed;
        }
        let mut columns = vec![LaneAligner::new([None; LANES]).column(); self.kept.len()];
        let mut reverse = vec![None; self.sites.len()];
        let empty = DnaSeq::new();
        let mut reads = reads.into_iter().peekable();
        while reads.peek().is_some() {
            let mut lanes = [&empty; LANES];
            let mut used = 0;
            for (lane, read) in lanes.iter_mut().zip(reads.by_ref()) {
                *lane = read;
                used += 1;
            }
            reverse.fill(None);
            let mut chunk = Chunk {
                lanes,
                used,
                reverse: &mut reverse,
            };
            self.route_chunk(&mut chunk, &mut columns, &mut routed);
        }
        routed
    }

    /// Routes one chunk of reads, appending their interiors to `routed`
    /// job by job, each job's in read order. `columns` holds the lanes'
    /// column after each kept trie depth on the path walked so far.
    fn route_chunk(
        &self,
        chunk: &mut Chunk<'_, '_>,
        columns: &mut [Lanes<LANES>],
        routed: &mut [Vec<DnaSeq>],
    ) {
        let heads = chunk
            .lanes
            .map(|read| &read.as_slice()[..read.len().min(self.head)]);
        let aligner = LaneAligner::new(heads.map(|head| head.iter().copied()));
        let packed = heads.map(pack);
        columns[0] = aligner.column();
        for &(job, shared) in &self.trie {
            let prefix = self.filters[job].fwd.as_slice();
            // The running column stays in registers; only a column a
            // later job restarts from is stored.
            let mut column = columns[shared];
            for (d, &base) in prefix.iter().enumerate().skip(shared) {
                column = aligner.step(column, base);
                if self.kept[d + 1] {
                    columns[d + 1] = column;
                }
            }
            // Rule out the lanes no forward window can reach first, for
            // all lanes at once (rows past a short read only lower the
            // bound), then the lanes whose index tail cannot match at any
            // window end: sibling leaves pass the first test but not this.
            let (n, k) = (prefix.len(), self.filters[job].max_edit);
            let (lo, hi) = (n.saturating_sub(k), n + k);
            let bounds = column.lower_bound(lo, hi);
            for (lane, &bound) in bounds.iter().enumerate().take(chunk.used) {
                let ends = lo..=hi.min(heads[lane].len());
                if bound <= k
                    && self.index_tails[job].is_none_or(|tail| tail.reachable(packed[lane], ends))
                {
                    self.accept(job, lane, column.lane(lane), chunk, routed);
                }
            }
        }
    }

    /// Finishes `job`'s filter on the chunk's read in `lane` from the
    /// column after the job's prefix: the forward window, the index-tail
    /// check, then the reverse window.
    fn accept(
        &self,
        job: usize,
        lane: usize,
        column: Column,
        chunk: &mut Chunk<'_, '_>,
        routed: &mut [Vec<DnaSeq>],
    ) {
        let (filter, read) = (&self.filters[job], chunk.lanes[lane]);
        let (n, k) = (filter.fwd.len(), filter.max_edit);
        // The caller's bound already covered these rows.
        let rows = column.rows(n.saturating_sub(k), (n + k).min(read.len()));
        let Some(start) = pick_window(rows, n, k) else {
            return;
        };
        if !filter.tail_matches(read, start) {
            return;
        }
        let column = self.reverse_column(self.site_of[job], chunk).lane(lane);
        let Some(rev_window) = window(column, filter.rev_site.len(), k, read.len()) else {
            return;
        };
        if let Some(inner) = interior(read, start, rev_window) {
            routed[job].push(inner);
        }
    }

    /// The lanes' reversed tails aligned against reverse site `site`, read
    /// backwards: computed for the whole chunk the first time one of its
    /// reads needs it.
    fn reverse_column(&self, site: usize, chunk: &mut Chunk<'_, '_>) -> Lanes<LANES> {
        *chunk.reverse[site].get_or_insert_with(|| {
            let (bases, slack) = &self.sites[site];
            let reach = bases.len() + slack;
            let aligner = LaneAligner::new(
                chunk
                    .lanes
                    .map(|read| read.as_slice().iter().rev().take(reach).copied()),
            );
            bases
                .iter()
                .fold(aligner.column(), |column, base| aligner.step(column, base))
        })
    }
}

/// The reads of one pass of the walk and their reverse-site alignments.
struct Chunk<'r, 't> {
    /// The reads, padded with empty ones past `used`.
    lanes: [&'r DnaSeq; LANES],
    used: usize,
    /// Per distinct reverse site, its alignment once a read needed it.
    reverse: &'t mut [Option<Lanes<LANES>>],
}

/// Length of the best window of a primer of `n` bases against a read of
/// `len` bases, from the column after the primer: [`pick_window`] over
/// the rows `n ± k`, after a lower bound rules out most misses at once.
fn window(column: Column, n: usize, k: usize, len: usize) -> Option<usize> {
    let (lo, hi) = (n.saturating_sub(k), (n + k).min(len));
    if lo > hi || column.lower_bound(lo, hi) > k {
        return None;
    }
    pick_window(column.rows(lo, hi), n, k)
}

/// An index-tail check with a tolerance of at most 1, in packed form.
/// The check compares two windows of equal length, and equal-length
/// windows within one edit differ in at most one base, so it passes
/// exactly when they differ in at most `tol` bases.
#[derive(Debug, Clone, Copy)]
struct PackedTail {
    /// The prefix's last `len` bases, two bits each.
    bases: u128,
    len: usize,
    tol: usize,
}

impl PackedTail {
    /// Whether the check passes for the window ending at some position in
    /// `ends` of the read whose head is `head`, packed. A read whose tail
    /// fails at every end no window choice can rescue.
    fn reachable(&self, head: u128, ends: RangeInclusive<usize>) -> bool {
        let mask = (1u128 << (2 * self.len)) - 1;
        let low_bits = 0x5555_5555_5555_5555_5555_5555_5555_5555 & mask;
        ends.filter(|&end| end >= self.len && self.len > 0)
            .any(|end| {
                let x = ((head >> (2 * (end - self.len))) ^ self.bases) & mask;
                // One bit per base that differs.
                let differ = (x | x >> 1) & low_bits;
                differ == 0 || (self.tol == 1 && differ & (differ - 1) == 0)
            })
    }
}

/// `bases` packed two bits each, the first in the lowest bits. At most 64
/// bases.
fn pack(bases: &[Base]) -> u128 {
    bases
        .iter()
        .rev()
        .fold(0, |packed, base| packed << 2 | u128::from(base.code()))
}

/// Length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &DnaSeq, b: &DnaSeq) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_block, decode_interiors, BlockDecodeConfig};
    use crate::DecodeJob;
    use dna_seq::rng::DetRng;
    use dna_sim::IdsChannel;

    fn primer(seed: u64) -> DnaSeq {
        let mut rng = DetRng::seed_from_u64(seed);
        DnaSeq::from_bases((0..20).map(|_| Base::from_code(rng.gen_range(4) as u8)))
    }

    fn rev() -> DnaSeq {
        "AAGGCCTTAAGGCCTTAAGG".parse().unwrap()
    }

    fn strand(fwd: &DnaSeq, tag: u8) -> DnaSeq {
        let mut rng = DetRng::seed_from_u64(u64::from(tag) + 77);
        let interior = DnaSeq::from_bases((0..80).map(|_| Base::from_code(rng.gen_range(4) as u8)));
        fwd.concat(&interior).concat(&rev().reverse_complement())
    }

    #[test]
    fn routes_noisy_reads_to_their_channel() {
        // Two channels' primers, one job each: essentially every read
        // lands with its own job, and random 20-mers are far enough apart
        // that a read almost never reaches both.
        let (a, b) = (primer(1), primer(2));
        let router = ReadRouter::new(vec![
            ReadFilter::new(a.clone(), &rev(), 3),
            ReadFilter::new(b.clone(), &rev(), 3),
        ]);
        let mut rng = DetRng::seed_from_u64(9);
        let ch = IdsChannel::illumina();
        let reads: Vec<DnaSeq> = (0..100)
            .map(|i| {
                ch.corrupt(
                    &strand(if i % 2 == 0 { &a } else { &b }, i as u8 % 2),
                    &mut rng,
                )
            })
            .collect();
        let routed = router.route(&reads);
        assert!(routed[0].len() >= 45, "job a: {}", routed[0].len());
        assert!(routed[1].len() >= 45, "job b: {}", routed[1].len());
        assert!(routed[0].len() + routed[1].len() <= 110);
        // The walk steps each prefix's bases once, their common head once.
        let shared = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
        assert_eq!(router.steps_per_read(), 40 - shared);
    }

    #[test]
    fn bucket_decode_matches_unrouted_decode() {
        // A job decoding the interiors routed to it in a two-job round
        // gives the same outcome as decoding against the full read set.
        let fwd: DnaSeq = "AACCGGTTAACCGGTTAACC".parse().unwrap();
        let other = primer(3);
        let mut rng = DetRng::seed_from_u64(11);
        let ch = IdsChannel::illumina();
        let mut reads: Vec<DnaSeq> = (0..60)
            .map(|_| ch.corrupt(&strand(&fwd, 0), &mut rng))
            .collect();
        reads.extend((0..60).map(|_| ch.corrupt(&strand(&other, 1), &mut rng)));
        let wrapped: Vec<dna_sim::Read> = reads
            .iter()
            .map(|seq| dna_sim::Read {
                seq: seq.clone(),
                truth: None,
            })
            .collect();
        let cfg = BlockDecodeConfig::paper_default(7, 531);
        let mut prefix = fwd.clone();
        prefix.push(Base::A);
        prefix.extend("ACAGTCTGAC".parse::<DnaSeq>().unwrap().iter());
        let jobs = [
            DecodeJob {
                prefix: prefix.clone(),
                reverse: rev(),
                config: cfg.clone(),
            },
            DecodeJob {
                prefix: other.clone(),
                reverse: rev(),
                config: cfg.clone(),
            },
        ];
        let routed = DecodeJob::router(&jobs).route(&reads);
        let full = decode_block(&wrapped, &prefix, &rev(), &cfg);
        let from_routed = decode_interiors(&routed[0], &cfg, |_| true);
        assert_eq!(full.reads_matched, from_routed.reads_matched);
        assert_eq!(full.clusters_total, from_routed.clusters_total);
        assert_eq!(full.versions, from_routed.versions);
        assert_eq!(full.failed_versions, from_routed.failed_versions);
    }

    #[test]
    fn an_empty_round_routes_nothing() {
        let router = ReadRouter::new(Vec::new());
        assert_eq!(router.steps_per_read(), 0);
        assert!(router.route(&[strand(&primer(4), 0)]).is_empty());
    }

    #[test]
    #[should_panic(expected = "past the 64-base aligner word")]
    fn windows_past_the_aligner_word_are_refused() {
        let long = DnaSeq::from_bases([Base::C; 62]);
        let _ = ReadRouter::new(vec![ReadFilter::new(long, &rev(), 3)]);
    }

    #[test]
    #[should_panic(expected = "past the 64-base aligner word")]
    fn tail_windows_past_the_aligner_word_are_refused() {
        let long = DnaSeq::from_bases([Base::C; 62]);
        let _ = ReadRouter::new(vec![ReadFilter::new(primer(5), &long, 3)]);
    }
}
