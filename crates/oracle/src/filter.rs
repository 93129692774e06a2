//! The per-window primer scan.

use crate::levenshtein_bounded;
use dna_seq::{Base, DnaSeq};

/// The window scan the read filter ran before its bit-parallel aligner:
/// every window length `n ± max_edit` at the head (`from_end == false`)
/// or tail of `read` is aligned on its own against `primer` (`n` bases);
/// the best has the smallest distance, then the length closest to `n`,
/// then the first (shortest). Returns the window length.
fn window(primer: &[Base], read: &[Base], max_edit: usize, from_end: bool) -> Option<usize> {
    let n = primer.len();
    let mut best: Option<(usize, usize)> = None; // (dist, window)
    let lo = n.saturating_sub(max_edit);
    let hi = (n + max_edit).min(read.len());
    for w in lo..=hi {
        let window = if from_end {
            &read[read.len() - w..]
        } else {
            &read[..w]
        };
        if let Some(d) = levenshtein_bounded(primer, window, max_edit) {
            match best {
                Some((bd, bw)) if (bd, bw.abs_diff(n)) <= (d, w.abs_diff(n)) => {}
                _ => best = Some((d, w)),
            }
        }
    }
    best.map(|(_, w)| w)
}

/// `ReadFilter::extract` on the window scan: the interior of `read`
/// between the forward primer `fwd`'s window at the head and the reverse
/// site (`rev_primer`'s reverse complement) at the tail. With
/// `tail_check = Some((tail_len, tol))`, the last `tail_len` bases before
/// the interior must also be within `tol` edits of `fwd`'s last
/// `tail_len` bases.
pub fn extract(
    fwd: &DnaSeq,
    rev_primer: &DnaSeq,
    max_edit: usize,
    tail_check: Option<(usize, usize)>,
    read: &DnaSeq,
) -> Option<DnaSeq> {
    let start = window(fwd.as_slice(), read.as_slice(), max_edit, false)?;
    if let Some((tail_len, tol)) = tail_check {
        if tail_len == 0 || tail_len > start {
            return None;
        }
        let expected = &fwd.as_slice()[fwd.len() - tail_len..];
        levenshtein_bounded(expected, &read.as_slice()[start - tail_len..start], tol)?;
    }
    let rev_site = rev_primer.reverse_complement();
    let end = read.len() - window(rev_site.as_slice(), read.as_slice(), max_edit, true)?;
    (start < end).then(|| read.subseq(start..end))
}
