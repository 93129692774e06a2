//! The §8 block-decoding procedure.

use crate::bma::double_sided_bma;
use crate::cluster::{cluster_reads, ClusterConfig};
use crate::filter::ReadFilter;
use dna_codec::{intra, PayloadCodec, StrandGeometry};
use dna_ecc::{EncodingUnit, UnitConfig};
use dna_seq::{Base, DnaSeq};
use dna_sim::Read;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Configuration for decoding one block from a read set.
#[derive(Debug, Clone)]
pub struct BlockDecodeConfig {
    /// Strand geometry (field offsets/lengths).
    pub geometry: StrandGeometry,
    /// Encoding-unit geometry (RS dimensions).
    pub unit: UnitConfig,
    /// Partition payload-randomizer seed.
    pub payload_seed: u64,
    /// The block's unit id (used in per-column codec derivation).
    pub unit_id: u64,
    /// Clustering parameters.
    pub cluster: ClusterConfig,
    /// Edit tolerance when matching primers in reads.
    pub filter_max_edit: usize,
    /// Maximum clusters to reconstruct (0 = no cap).
    pub max_clusters: usize,
    /// Alternate candidates kept per strand address for the §8.1 mispriming
    /// recovery search.
    pub max_alternates: usize,
    /// Attempt budget for the candidate-combination search.
    pub max_decode_attempts: usize,
    /// Strict edit tolerance on the index tail of the prefix (the last
    /// `geometry.unit_index_len` bases): discriminates sibling blocks whose
    /// indexes are only 2 edits apart. `None` disables the check.
    pub index_tail_tolerance: Option<usize>,
    /// Version bases the caller knows are live at this address (`None` =
    /// decode every observed version). A store whose metadata is exact —
    /// e.g. a freshly compacted/rebased unit holds only the base version —
    /// passes the live set so that noise or mispriming products claiming a
    /// retired version base are never RS-decoded into a phantom version:
    /// they are skipped outright, not even reported as failed.
    pub version_allowlist: Option<Vec<Base>>,
}

impl BlockDecodeConfig {
    /// Paper-default configuration for a given block.
    pub fn paper_default(payload_seed: u64, unit_id: u64) -> BlockDecodeConfig {
        BlockDecodeConfig {
            geometry: StrandGeometry::paper_default(),
            unit: UnitConfig::paper_default(),
            payload_seed,
            unit_id,
            cluster: ClusterConfig::default(),
            filter_max_edit: 3,
            max_clusters: 0,
            max_alternates: 2,
            max_decode_attempts: 8192,
            index_tail_tolerance: Some(1),
            version_allowlist: None,
        }
    }

    /// Interior length between the elongated prefix and the reverse site:
    /// version + intra index + payload.
    pub fn interior_len(&self) -> usize {
        self.geometry.version_len + self.geometry.intra_index_len + self.geometry.payload_len
    }
}

/// One successfully decoded version of the block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredVersion {
    /// The decoded unit bytes (data columns; padding still attached).
    pub unit_bytes: Vec<u8>,
    /// RS symbols corrected across all rows.
    pub corrected_symbols: usize,
    /// Columns that had to be treated as erasures (no strand recovered).
    pub column_erasures: usize,
    /// Whether the §8.1 alternate-candidate search was needed.
    pub used_alternates: bool,
}

/// Outcome of [`decode_block`].
#[derive(Debug, Clone)]
pub struct BlockDecodeOutcome {
    /// Decoded versions keyed by their version base.
    pub versions: BTreeMap<Base, RecoveredVersion>,
    /// Version bases that were observed but failed to decode.
    pub failed_versions: Vec<Base>,
    /// Reads whose primer regions matched the target prefix.
    pub reads_matched: usize,
    /// Total clusters formed from matching reads.
    pub clusters_total: usize,
    /// Clusters reconstructed before every observed address was covered
    /// (§8: "we had to perform trace reconstruction on the first 31 largest
    /// clusters").
    pub clusters_used: usize,
}

/// Decodes one block (all versions present) from `reads`, accepting any
/// RS-valid result. See [`decode_block_validated`] for the §8.1-complete
/// variant with an integrity validator.
pub fn decode_block<B: Borrow<Read>>(
    reads: &[B],
    elongated_prefix: &DnaSeq,
    rev_primer: &DnaSeq,
    config: &BlockDecodeConfig,
) -> BlockDecodeOutcome {
    decode_block_validated(reads, elongated_prefix, rev_primer, config, |_| true)
}

/// Decodes one block (all versions present) from `reads`.
///
/// `elongated_prefix` is the strand prefix addressing the block: main
/// forward primer + sync base + full unit index (31 bases in the paper's
/// geometry). `rev_primer` is the partition's reverse primer (as a primer
/// sequence).
///
/// Implements §8: filter → cluster → double-sided BMA in descending
/// cluster-size order, discarding duplicate addresses → per-version RS
/// decode, falling back to alternate candidates when mispriming poisoned an
/// address (§8.1: "recursively try to decode the original data using each of
/// these candidates, until we correctly recover our data").
///
/// `validator` decides what "correctly recover" means: beyond the RS
/// capacity, a poisoned column can silently *miscorrect* to a valid-but-
/// wrong codeword, so callers should pass an integrity check over the unit
/// bytes (the block store stores a checksum in the unit's padding bytes).
pub fn decode_block_validated<B: Borrow<Read>>(
    reads: &[B],
    elongated_prefix: &DnaSeq,
    rev_primer: &DnaSeq,
    config: &BlockDecodeConfig,
    validator: impl Fn(&[u8]) -> bool,
) -> BlockDecodeOutcome {
    let filter = job_filter(elongated_prefix, rev_primer, config);
    let interiors: Vec<DnaSeq> = reads
        .iter()
        .filter_map(|r| filter.extract(&r.borrow().seq))
        .collect();
    decode_interiors(&interiors, config, validator)
}

/// The read filter a block decode runs: `config`'s edit tolerance and,
/// when configured, its strict check on the prefix's index tail.
pub(crate) fn job_filter(
    elongated_prefix: &DnaSeq,
    rev_primer: &DnaSeq,
    config: &BlockDecodeConfig,
) -> ReadFilter {
    match config.index_tail_tolerance {
        Some(tol) => ReadFilter::with_tail_check(
            elongated_prefix.clone(),
            rev_primer,
            config.filter_max_edit,
            config.geometry.unit_index_len.min(elongated_prefix.len()),
            tol,
        ),
        None => ReadFilter::new(elongated_prefix.clone(), rev_primer, config.filter_max_edit),
    }
}

/// Decodes one block from the interiors its read filter extracted, in
/// read order: every step of [`decode_block_validated`] after the filter.
/// `reads_matched` is `interiors.len()`.
pub fn decode_interiors(
    interiors: &[DnaSeq],
    config: &BlockDecodeConfig,
    validator: impl Fn(&[u8]) -> bool,
) -> BlockDecodeOutcome {
    let reads_matched = interiors.len();
    let clusters = cluster_reads(interiors, &config.cluster);
    let clusters_total = clusters.len();

    // Reconstruct strands, largest clusters first, keeping the first
    // candidate per (version, column) address plus bounded alternates,
    // each remembering its supporting cluster size.
    let interior_len = config.interior_len();
    let mut slots: BTreeMap<(Base, usize), Vec<(DnaSeq, usize)>> = BTreeMap::new();
    let mut clusters_used = 0usize;
    let cap = if config.max_clusters == 0 {
        clusters.len()
    } else {
        config.max_clusters.min(clusters.len())
    };
    for (ci, cluster) in clusters.iter().take(cap).enumerate() {
        let Some(strand) = double_sided_bma(&cluster.sequences(interiors), interior_len) else {
            continue;
        };
        let version = strand[0];
        let column = intra::decode(&strand.subseq(
            config.geometry.version_len
                ..config.geometry.version_len + config.geometry.intra_index_len,
        ));
        if column >= config.unit.total_cols {
            continue; // junk address
        }
        let payload = strand
            .subseq(config.geometry.version_len + config.geometry.intra_index_len..interior_len);
        let entry = slots.entry((version, column)).or_default();
        if entry.is_empty() {
            entry.push((payload, cluster.size()));
            clusters_used = ci + 1;
        } else if entry.len() <= config.max_alternates && !entry.iter().any(|(p, _)| *p == payload)
        {
            // §8 step 3: "We discard any reconstructed strand that has the
            // same address as a previously recovered strand" — but §8.1
            // keeps them as decode-time alternates.
            entry.push((payload, cluster.size()));
        }
    }

    // Group candidates by version and RS-decode each.
    let unit_codec = EncodingUnit::new(config.unit);
    let mut versions = BTreeMap::new();
    let mut failed = Vec::new();
    let observed: Vec<Base> = {
        let mut v: Vec<Base> = slots.keys().map(|&(b, _)| b).collect();
        v.sort();
        v.dedup();
        if let Some(allow) = &config.version_allowlist {
            v.retain(|b| allow.contains(b));
        }
        v
    };
    for version in observed {
        // Candidate byte-columns per column index. Slots supported by only
        // a thin cluster (≤ 2 reads) additionally offer an *erasure*
        // alternative: at low coverage a 1–2-read "reconstruction" is often
        // worse than letting the row code erase the column.
        let candidates: Vec<ColumnCandidates> = (0..config.unit.total_cols)
            .map(|col| {
                let cands = slots.get(&(version, col));
                let bytes: Vec<(Vec<u8>, usize)> = cands
                    .map(|list| {
                        list.iter()
                            .map(|(payload, size)| {
                                let decoded = PayloadCodec::for_column(
                                    config.payload_seed,
                                    config.unit_id,
                                    version.code(),
                                    col as u8,
                                )
                                .decode(payload);
                                (decoded, *size)
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let thin = cands
                    .map(|list| list.iter().all(|&(_, size)| size <= 2))
                    .unwrap_or(true);
                ColumnCandidates {
                    bytes,
                    allow_erase: thin,
                }
            })
            .collect();
        let erasures = candidates.iter().filter(|c| c.bytes.is_empty()).count();
        let mut attempts = config.max_decode_attempts;
        match search_decode(&unit_codec, &candidates, &mut attempts, &validator) {
            Some((unit_bytes, corrected, used_alternates)) => {
                versions.insert(
                    version,
                    RecoveredVersion {
                        unit_bytes,
                        corrected_symbols: corrected,
                        column_erasures: erasures,
                        used_alternates,
                    },
                );
            }
            None => failed.push(version),
        }
    }

    BlockDecodeOutcome {
        versions,
        failed_versions: failed,
        reads_matched,
        clusters_total,
        clusters_used,
    }
}

/// Depth-first search over candidate columns (§8.1): try primary candidates
/// first, then swap in alternates, within an attempt budget.
/// Candidate payloads for one unit column, with an optional erasure escape.
struct ColumnCandidates {
    /// Decoded byte candidates with their supporting cluster sizes, in
    /// cluster-size order (primary first).
    bytes: Vec<(Vec<u8>, usize)>,
    /// Whether the DFS may also *drop* this column (treat as erasure).
    allow_erase: bool,
}

impl ColumnCandidates {
    /// Number of DFS choices for this column (at least 1: "missing").
    fn options(&self) -> usize {
        if self.bytes.is_empty() {
            1
        } else {
            self.bytes.len() + usize::from(self.allow_erase)
        }
    }
}

fn search_decode(
    unit: &EncodingUnit,
    candidates: &[ColumnCandidates],
    attempts: &mut usize,
    validator: &dyn Fn(&[u8]) -> bool,
) -> Option<(Vec<u8>, usize, bool)> {
    // Columns that actually have alternates, in order.
    let mut choice = vec![0usize; candidates.len()];
    // Try the all-primary assignment, then vary alternates column by column
    // (DFS over columns with >1 candidate). A choice index beyond the
    // candidate list means "erase this column".
    fn assemble(candidates: &[ColumnCandidates], choice: &[usize]) -> Vec<Option<Vec<u8>>> {
        candidates
            .iter()
            .zip(choice)
            .map(|(cands, &c)| cands.bytes.get(c).map(|(b, _)| b.clone()))
            .collect()
    }
    fn try_decode(
        unit: &EncodingUnit,
        columns: &[Option<Vec<u8>>],
        validator: &dyn Fn(&[u8]) -> bool,
    ) -> Option<(Vec<u8>, usize)> {
        match unit.decode(columns) {
            Ok((bytes, corrected)) if validator(&bytes) => Some((bytes, corrected)),
            _ => None,
        }
    }
    fn dfs(
        unit: &EncodingUnit,
        candidates: &[ColumnCandidates],
        choice: &mut Vec<usize>,
        col: usize,
        attempts: &mut usize,
        validator: &dyn Fn(&[u8]) -> bool,
    ) -> Option<(Vec<u8>, usize)> {
        if *attempts == 0 {
            return None;
        }
        if col == candidates.len() {
            *attempts -= 1;
            let columns = assemble(candidates, choice);
            return try_decode(unit, &columns, validator);
        }
        let options = candidates[col].options();
        for c in 0..options {
            choice[col] = c;
            if let Some(hit) = dfs(unit, candidates, choice, col + 1, attempts, validator) {
                return Some(hit);
            }
            if *attempts == 0 {
                return None;
            }
        }
        choice[col] = 0;
        None
    }
    // Fast path: all-primary.
    let primary = assemble(candidates, &choice);
    *attempts = attempts.saturating_sub(1);
    if let Some((bytes, corrected)) = try_decode(unit, &primary, validator) {
        return Some((bytes, corrected, false));
    }
    // §8.1 flood path: a misprimed foreign unit whose chimera products
    // carry this unit's full address can out-cluster the true strands on
    // MANY columns at once (the regime partial-prefix range PCR produces
    // when a foreign index collides). The per-column DFS below would need
    // ~2^cols attempts to flip every poisoned column, so two families of
    // cheap global hypotheses run first.
    //
    // (1) Uniform rank: "the true strand is the k-th biggest cluster
    // everywhere" — columns with shorter candidate lists clamp to their
    // deepest candidate, covering columns that only ever saw the truth.
    let max_rank = candidates.iter().map(|c| c.bytes.len()).max().unwrap_or(0);
    for k in 1..max_rank {
        if *attempts == 0 {
            return None;
        }
        *attempts -= 1;
        let columns: Vec<Option<Vec<u8>>> = candidates
            .iter()
            .map(|c| match c.bytes.len() {
                0 => None,
                len => c.bytes.get(k.min(len - 1)).map(|(b, _)| b.clone()),
            })
            .collect();
        if let Some((bytes, corrected)) = try_decode(unit, &columns, validator) {
            return Some((bytes, corrected, true));
        }
    }
    // (2) Abundance bands: one unit's strands were synthesized and
    // amplified together, so its clusters share a size band, and a chimera
    // impostor's clusters share a *different* band — but per column the
    // rank between the two bands is a coin flip, which defeats both the
    // rank passes and the DFS. For each observed cluster size, hypothesize
    // it as the true band's center and pick per column the candidate
    // closest to it.
    let mut band_centers: Vec<usize> = candidates
        .iter()
        .flat_map(|c| c.bytes.iter().map(|&(_, size)| size))
        .collect();
    band_centers.sort_unstable();
    band_centers.dedup();
    for center in band_centers {
        if *attempts == 0 {
            return None;
        }
        *attempts -= 1;
        let columns: Vec<Option<Vec<u8>>> = candidates
            .iter()
            .map(|c| {
                c.bytes
                    .iter()
                    .min_by_key(|&&(_, size)| size.abs_diff(center))
                    .map(|(b, _)| b.clone())
            })
            .collect();
        if let Some((bytes, corrected)) = try_decode(unit, &columns, validator) {
            return Some((bytes, corrected, true));
        }
    }
    // (3) Few-flips search, shallowest first: with p poisoned primaries
    // and RS able to correct 2 errors, flipping just p-2 columns suffices
    // — so explore flip sets of size 1, then 2, then 3, ... instead of
    // the lexicographic DFS order (which buries a col-2 flip behind the
    // full product of cols 3..n). Depth 1 tries every alternate and the
    // erasure; depth 2 the first alternate and the erasure; deeper levels
    // the first alternate only, so depth d costs just C(cols, d) attempts
    // and an equal-abundance impostor (a per-column coin flip between two
    // candidates) is still found within ~2^cols total.
    for depth in 1..=candidates.len() {
        if let Some(hit) = flip_search(unit, candidates, depth, attempts, validator) {
            return Some((hit.0, hit.1, true));
        }
        if *attempts == 0 {
            return None;
        }
    }
    dfs(unit, candidates, &mut choice, 0, attempts, validator).map(|(b, c)| (b, c, true))
}

/// Tries every assignment that flips exactly `depth` columns off their
/// primary candidate (see `search_decode` pass 3).
fn flip_search(
    unit: &EncodingUnit,
    candidates: &[ColumnCandidates],
    depth: usize,
    attempts: &mut usize,
    validator: &dyn Fn(&[u8]) -> bool,
) -> Option<(Vec<u8>, usize)> {
    // Columns that actually have an alternative to their primary.
    let flippable: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].options() > 1)
        .collect();
    if flippable.len() < depth {
        return None;
    }
    let mut picked: Vec<usize> = Vec::with_capacity(depth);
    flip_combos(
        unit,
        candidates,
        &flippable,
        0,
        depth,
        &mut picked,
        attempts,
        validator,
    )
}

/// Recursively enumerates `depth`-column combinations and their flip
/// options.
#[allow(clippy::too_many_arguments)]
fn flip_combos(
    unit: &EncodingUnit,
    candidates: &[ColumnCandidates],
    flippable: &[usize],
    from: usize,
    depth: usize,
    picked: &mut Vec<usize>,
    attempts: &mut usize,
    validator: &dyn Fn(&[u8]) -> bool,
) -> Option<(Vec<u8>, usize)> {
    if picked.len() == depth {
        // Option sets per flipped column: all alternates at depth 1,
        // {first alternate, erasure} deeper.
        let mut choice = vec![0usize; candidates.len()];
        return flip_options(
            unit,
            candidates,
            picked,
            0,
            depth,
            &mut choice,
            attempts,
            validator,
        );
    }
    for (i, &col) in flippable.iter().enumerate().skip(from) {
        picked.push(col);
        let hit = flip_combos(
            unit,
            candidates,
            flippable,
            i + 1,
            depth,
            picked,
            attempts,
            validator,
        );
        picked.pop();
        if hit.is_some() || *attempts == 0 {
            return hit;
        }
    }
    None
}

/// Enumerates the option assignments for one picked flip set.
#[allow(clippy::too_many_arguments)]
fn flip_options(
    unit: &EncodingUnit,
    candidates: &[ColumnCandidates],
    picked: &[usize],
    pos: usize,
    depth: usize,
    choice: &mut Vec<usize>,
    attempts: &mut usize,
    validator: &dyn Fn(&[u8]) -> bool,
) -> Option<(Vec<u8>, usize)> {
    if pos == picked.len() {
        if *attempts == 0 {
            return None;
        }
        *attempts -= 1;
        let columns: Vec<Option<Vec<u8>>> = candidates
            .iter()
            .zip(choice.iter())
            .map(|(cands, &c)| cands.bytes.get(c).map(|(b, _)| b.clone()))
            .collect();
        return match unit.decode(&columns) {
            Ok((bytes, corrected)) if validator(&bytes) => Some((bytes, corrected)),
            _ => None,
        };
    }
    let col = picked[pos];
    let options: Vec<usize> = match depth {
        1 => (1..candidates[col].options()).collect(),
        2 => {
            // First alternate, plus an erasure when permitted.
            let mut v = Vec::with_capacity(2);
            if candidates[col].bytes.len() > 1 {
                v.push(1);
            }
            if candidates[col].allow_erase {
                v.push(candidates[col].bytes.len());
            }
            v
        }
        // Deeper flips: first alternate only (columns with no second
        // candidate fall back to the erasure, when permitted).
        _ => {
            if candidates[col].bytes.len() > 1 {
                vec![1]
            } else if candidates[col].allow_erase {
                vec![candidates[col].bytes.len()]
            } else {
                Vec::new()
            }
        }
    };
    for opt in options {
        choice[col] = opt;
        let hit = flip_options(
            unit,
            candidates,
            picked,
            pos + 1,
            depth,
            choice,
            attempts,
            validator,
        );
        if hit.is_some() || *attempts == 0 {
            choice[col] = 0;
            return hit;
        }
    }
    choice[col] = 0;
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_seq::rng::DetRng;
    use dna_sim::{IdsChannel, Sequencer, StrandTag};

    fn fwd() -> DnaSeq {
        "AACCGGTTAACCGGTTAACC".parse().unwrap()
    }

    fn rev() -> DnaSeq {
        "AAGGCCTTAAGGCCTTAAGG".parse().unwrap()
    }

    fn unit_index() -> DnaSeq {
        "ACAGTCTGAC".parse().unwrap()
    }

    fn elongated_prefix() -> DnaSeq {
        let mut p = fwd();
        p.push(Base::A); // sync
        p.extend(unit_index().iter());
        p
    }

    /// Encode one version of a block into its 15 strands, as the block
    /// store does.
    fn encode_version(data: &[u8; 264], version: Base, seed: u64, unit_id: u64) -> Vec<DnaSeq> {
        let geometry = StrandGeometry::paper_default();
        let unit = EncodingUnit::new(UnitConfig::paper_default());
        let columns = unit.encode(data).unwrap();
        columns
            .iter()
            .enumerate()
            .map(|(col, bytes)| {
                let codec = PayloadCodec::for_column(seed, unit_id, version.code(), col as u8);
                let payload = codec.encode(bytes);
                geometry
                    .assemble(
                        &fwd(),
                        &unit_index(),
                        version,
                        &intra::encode(col, 2).unwrap(),
                        &payload,
                        &rev(),
                    )
                    .unwrap()
            })
            .collect()
    }

    fn reads_for(
        strands: &[(DnaSeq, StrandTag)],
        coverage: usize,
        channel: IdsChannel,
        seed: u64,
    ) -> Vec<Read> {
        let mut pool = dna_sim::Pool::new();
        for (s, t) in strands {
            pool.add(s.clone(), 100.0, Some(*t));
        }
        let mut rng = DetRng::seed_from_u64(seed);
        Sequencer::new(channel).sequence(&pool, coverage * strands.len(), &mut rng)
    }

    fn sample_unit_bytes(tag: u8) -> [u8; 264] {
        let mut d = [0u8; 264];
        for (i, b) in d.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31).wrapping_add(tag);
        }
        d
    }

    fn fnv64(data: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in data {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Unit bytes whose 8 padding bytes hold a hash of the 256 data bytes —
    /// the integrity check the §8.1 candidate search validates against.
    fn checksummed_unit_bytes(tag: u8) -> [u8; 264] {
        let mut d = sample_unit_bytes(tag);
        let h = fnv64(&d[..256]).to_le_bytes();
        d[256..].copy_from_slice(&h);
        d
    }

    fn checksum_ok(bytes: &[u8]) -> bool {
        bytes.len() == 264 && bytes[256..] == fnv64(&bytes[..256]).to_le_bytes()
    }

    #[test]
    fn clean_block_decodes_with_few_reads() {
        // §8: "With just 225 sequenced reads, we successfully decoded both
        // the original block and the updated block."
        let data = sample_unit_bytes(1);
        let update = sample_unit_bytes(2);
        let mut strands: Vec<(DnaSeq, StrandTag)> = encode_version(&data, Base::A, 7, 531)
            .into_iter()
            .map(|s| (s, StrandTag::new(13, 531, 0, 0)))
            .collect();
        strands.extend(
            encode_version(&update, Base::C, 7, 531)
                .into_iter()
                .map(|s| (s, StrandTag::new(13, 531, 1, 0))),
        );
        // 30 strands total; ~225 reads ≈ 7.5x coverage.
        let reads = reads_for(&strands, 8, IdsChannel::illumina(), 99);
        assert!(reads.len() <= 240);
        let cfg = BlockDecodeConfig::paper_default(7, 531);
        let out = decode_block(&reads, &elongated_prefix(), &rev(), &cfg);
        assert_eq!(out.versions.len(), 2, "failed: {:?}", out.failed_versions);
        assert_eq!(out.versions[&Base::A].unit_bytes, data.to_vec());
        assert_eq!(out.versions[&Base::C].unit_bytes, update.to_vec());
        assert!(
            out.clusters_used >= 30,
            "clusters used {}",
            out.clusters_used
        );
        assert!(!out.versions[&Base::A].used_alternates);
    }

    #[test]
    fn lost_columns_recovered_via_erasures() {
        let data = sample_unit_bytes(3);
        let all = encode_version(&data, Base::A, 11, 144);
        // Drop 3 of 15 strands entirely.
        let strands: Vec<(DnaSeq, StrandTag)> = all
            .into_iter()
            .enumerate()
            .filter(|(i, _)| ![2usize, 7, 12].contains(i))
            .map(|(i, s)| (s, StrandTag::new(13, 144, 0, i as u8)))
            .collect();
        let reads = reads_for(&strands, 10, IdsChannel::illumina(), 5);
        let cfg = BlockDecodeConfig::paper_default(11, 144);
        let out = decode_block(&reads, &elongated_prefix(), &rev(), &cfg);
        let v = &out.versions[&Base::A];
        assert_eq!(v.unit_bytes, data.to_vec());
        assert_eq!(v.column_erasures, 3);
    }

    #[test]
    fn misprimed_impostor_defeated_by_alternates() {
        // §8.1: a misprimed strand with the target's address but a foreign
        // payload can out-cluster the real strand. One poisoned column alone
        // is within RS capacity, so we also drop 4 real columns (erasures):
        // 2·errors + erasures = 6 > 4 makes the primary assignment
        // undecodable (or silently miscorrected — caught by the checksum
        // validator), forcing the candidate search to swap in the true
        // column-5 strand.
        let data = checksummed_unit_bytes(4);
        let mut strands: Vec<(DnaSeq, StrandTag)> = encode_version(&data, Base::A, 13, 531)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| ![1usize, 8, 11, 14].contains(i))
            .map(|(_, s)| (s, StrandTag::new(13, 531, 0, 0)))
            .collect();
        // Impostor: same prefix + address as column 5, random payload.
        let geometry = StrandGeometry::paper_default();
        let mut rng = DetRng::seed_from_u64(17);
        let junk_payload =
            DnaSeq::from_bases((0..96).map(|_| Base::from_code(rng.gen_range(4) as u8)));
        let impostor = geometry
            .assemble(
                &fwd(),
                &unit_index(),
                Base::A,
                &intra::encode(5, 2).unwrap(),
                &junk_payload,
                &rev(),
            )
            .unwrap();
        strands.push((impostor, StrandTag::new(13, 999, 0, 5)));
        // Give the impostor HIGHER abundance so its cluster is bigger.
        let mut pool = dna_sim::Pool::new();
        for (i, (s, t)) in strands.iter().enumerate() {
            let ab = if i == strands.len() - 1 { 300.0 } else { 100.0 };
            pool.add(s.clone(), ab, Some(*t));
        }
        let mut srng = DetRng::seed_from_u64(23);
        let reads = Sequencer::new(IdsChannel::illumina()).sequence(&pool, 600, &mut srng);
        let cfg = BlockDecodeConfig::paper_default(13, 531);
        let out = decode_block_validated(&reads, &elongated_prefix(), &rev(), &cfg, checksum_ok);
        let v = &out.versions[&Base::A];
        assert_eq!(v.unit_bytes, data.to_vec(), "impostor won");
        assert!(v.used_alternates, "should have needed the §8.1 search");
    }

    #[test]
    fn unrelated_reads_are_ignored() {
        let data = sample_unit_bytes(5);
        let strands: Vec<(DnaSeq, StrandTag)> = encode_version(&data, Base::A, 19, 531)
            .into_iter()
            .map(|s| (s, StrandTag::new(13, 531, 0, 0)))
            .collect();
        let mut reads = reads_for(&strands, 8, IdsChannel::illumina(), 3);
        // Add junk reads with a different unit index.
        let other_index: DnaSeq = "GTGACATCAG".parse().unwrap();
        let geometry = StrandGeometry::paper_default();
        let junk = geometry
            .assemble(
                &fwd(),
                &other_index,
                Base::A,
                &intra::encode(0, 2).unwrap(),
                &DnaSeq::from_bases((0..96).map(|i| Base::from_code((i % 4) as u8))),
                &rev(),
            )
            .unwrap();
        for _ in 0..100 {
            reads.push(Read {
                seq: junk.clone(),
                truth: None,
            });
        }
        let cfg = BlockDecodeConfig::paper_default(19, 531);
        let out = decode_block(&reads, &elongated_prefix(), &rev(), &cfg);
        assert_eq!(out.versions[&Base::A].unit_bytes, data.to_vec());
        // All junk reads excluded; nearly all true reads retained (the
        // fixed-window index check drops the few with indels near the
        // index).
        let true_reads = reads.len() - 100;
        assert!(out.reads_matched <= true_reads);
        assert!(
            out.reads_matched >= true_reads * 9 / 10,
            "matched {} of {true_reads}",
            out.reads_matched
        );
    }

    #[test]
    fn version_allowlist_skips_retired_versions() {
        // A tube holding a rebased base unit plus stale reads claiming a
        // retired version base: with the allowlist the stale version is
        // neither decoded nor reported failed; without it, it decodes.
        let data = sample_unit_bytes(7);
        let stale = sample_unit_bytes(8);
        let mut strands: Vec<(DnaSeq, StrandTag)> = encode_version(&data, Base::A, 29, 531)
            .into_iter()
            .map(|s| (s, StrandTag::new(13, 531, 0, 0)))
            .collect();
        strands.extend(
            encode_version(&stale, Base::C, 29, 531)
                .into_iter()
                .map(|s| (s, StrandTag::new(13, 531, 1, 0))),
        );
        let reads = reads_for(&strands, 8, IdsChannel::illumina(), 41);
        let mut cfg = BlockDecodeConfig::paper_default(29, 531);
        let open = decode_block(&reads, &elongated_prefix(), &rev(), &cfg);
        assert_eq!(open.versions.len(), 2, "both versions decode when open");
        cfg.version_allowlist = Some(vec![Base::A]);
        let restricted = decode_block(&reads, &elongated_prefix(), &rev(), &cfg);
        assert_eq!(restricted.versions.len(), 1);
        assert_eq!(restricted.versions[&Base::A].unit_bytes, data.to_vec());
        assert!(
            restricted.failed_versions.is_empty(),
            "skipped versions are not failures"
        );
        // Matching statistics are unchanged: the filter still counts the
        // stale reads, only the RS stage skips them.
        assert_eq!(restricted.reads_matched, open.reads_matched);
    }

    #[test]
    fn insufficient_reads_fail_cleanly() {
        let data = sample_unit_bytes(6);
        let strands: Vec<(DnaSeq, StrandTag)> = encode_version(&data, Base::A, 23, 531)
            .into_iter()
            .take(5) // only 5 of 15 columns present at all
            .map(|s| (s, StrandTag::new(13, 531, 0, 0)))
            .collect();
        let reads = reads_for(&strands, 6, IdsChannel::illumina(), 8);
        let cfg = BlockDecodeConfig::paper_default(23, 531);
        let out = decode_block(&reads, &elongated_prefix(), &rev(), &cfg);
        assert!(out.versions.is_empty());
        assert_eq!(out.failed_versions, vec![Base::A]);
    }
}
