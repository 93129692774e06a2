//! The scalar banded edit distance.

use dna_seq::Base;

/// Band cells kept on the stack by [`levenshtein_bounded`]: bounds up to
/// 32 (after clamping) never touch the allocator.
const STACK_BAND: usize = 2 * 32 + 1;

/// The edit distance of `a` and `b` when it is at most `bound`, else
/// `None`: a banded dynamic program over `2·bound + 1` cells per row, with
/// early exit once a whole row exceeds `bound`. This is the distance the
/// library's bounded kernel computed before it went bit-parallel; the
/// clustering and window-scan references confirm on it, so neither moves
/// when the library's kernel changes.
pub fn levenshtein_bounded(a: &[Base], b: &[Base], bound: usize) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    // No edit distance exceeds the longer length, so this clamp changes no
    // result; it keeps the band width `2·bound + 1` from overflowing.
    let bound = bound.min(n.max(m));
    if n.abs_diff(m) > bound {
        return None;
    }
    if n == 0 || m == 0 {
        return Some(n.max(m));
    }
    const BIG: usize = usize::MAX / 2;
    let width = 2 * bound + 1;
    let mut stack = [BIG; STACK_BAND];
    let mut heap = Vec::new();
    let row: &mut [usize] = if width <= STACK_BAND {
        &mut stack[..width]
    } else {
        heap.resize(width, BIG);
        &mut heap
    };
    // `row[j + bound - i]` holds cell (i, j); row i = 0 is `D(0, j) = j`.
    for (j, slot) in row[bound..].iter_mut().take(m + 1).enumerate() {
        *slot = j;
    }
    for i in 1..=n {
        let x = a[i - 1];
        let lo = i.saturating_sub(bound);
        let hi = (i + bound).min(m);
        let mut left = BIG; // cell (i, j - 1)
        let mut row_min = BIG;
        for j in lo..=hi {
            let k = j + bound - i;
            // Ascending k: row[k] still holds (i-1, j-1) and row[k + 1]
            // still holds (i-1, j).
            let cell = if j == 0 {
                i
            } else {
                let up = row.get(k + 1).copied().unwrap_or(BIG);
                (row[k] + usize::from(x != b[j - 1]))
                    .min(up + 1)
                    .min(left + 1)
            };
            row[k] = cell;
            left = cell;
            row_min = row_min.min(cell);
        }
        if row_min > bound {
            return None;
        }
    }
    let d = row[m + bound - n];
    (d <= bound).then_some(d)
}
