//! Trace reconstruction: Bitwise Majority Alignment, double-sided.
//!
//! BMA (Batu et al.) reconstructs a sequence from noisy traces with
//! insertions/deletions by walking per-trace pointers: at each output
//! position, take the majority symbol; traces that agree advance by one;
//! traces whose *next* symbol agrees advance by two (their current symbol
//! was an insertion); disagreeing traces hold (their symbol belongs later —
//! a deletion). Plain BMA accumulates alignment drift toward the tail, so
//! the paper uses the **double-sided** variant of Lin et al. (§6.6, §8 step
//! 3: "trace reconstruction using double sided BMA"): run BMA forward and
//! backward and keep each side's trustworthy half.

use dna_seq::{Base, DnaSeq};
use std::borrow::Borrow;

/// Forward Bitwise Majority Alignment to a known target length.
///
/// Returns `None` when `traces` is empty. Accepts anything that borrows as
/// [`DnaSeq`] (`&[DnaSeq]`, `&[&DnaSeq]`), so callers holding an index-based
/// clustering need not clone member sequences.
///
/// # Examples
///
/// ```
/// use dna_pipeline::bma;
/// use dna_seq::DnaSeq;
///
/// let t1: DnaSeq = "ACGTACGT".parse().unwrap();
/// let t2: DnaSeq = "ACTACGT".parse().unwrap();  // deletion
/// let t3: DnaSeq = "ACGGTACGT".parse().unwrap(); // insertion
/// assert_eq!(bma(&[t1.clone(), t2, t3], 8), Some(t1));
/// ```
pub fn bma<T: Borrow<DnaSeq>>(traces: &[T], target_len: usize) -> Option<DnaSeq> {
    if traces.is_empty() {
        return None;
    }
    let mut ptr = vec![0usize; traces.len()];
    let mut out = DnaSeq::with_capacity(target_len);
    for _ in 0..target_len {
        let mut counts = [0usize; 4];
        for (t, &p) in traces.iter().zip(ptr.iter()) {
            if let Some(b) = t.borrow().get(p) {
                counts[b.code() as usize] += 1;
            }
        }
        // Deterministic argmax (ties → smallest code).
        let maj = (0..4)
            .max_by_key(|&c| (counts[c], 3 - c))
            .expect("non-empty");
        let maj_base = Base::from_code(maj as u8);
        out.push(maj_base);
        for (t, p) in traces.iter().zip(ptr.iter_mut()) {
            let t = t.borrow();
            match t.get(*p) {
                Some(b) if b == maj_base => *p += 1,
                // Insertion in this trace? Peek one ahead.
                Some(_) if t.get(*p + 1) == Some(maj_base) => *p += 2,
                // Deletion in this trace — hold position.
                Some(_) | None => {}
            }
        }
    }
    Some(out)
}

/// Double-sided BMA: forward pass supplies the first half, a backward pass
/// (BMA over reversed traces) supplies the second half.
///
/// Returns `None` when `traces` is empty.
pub fn double_sided_bma<T: Borrow<DnaSeq>>(traces: &[T], target_len: usize) -> Option<DnaSeq> {
    let fwd = bma(traces, target_len)?;
    let reversed: Vec<DnaSeq> = traces
        .iter()
        .map(|t| DnaSeq::from_bases(t.borrow().as_slice().iter().rev().copied()))
        .collect();
    let bwd_rev = bma(&reversed, target_len)?;
    let bwd = DnaSeq::from_bases(bwd_rev.as_slice().iter().rev().copied());
    let mid = target_len / 2;
    let mut out = DnaSeq::with_capacity(target_len);
    out.extend_from_slice(&fwd.as_slice()[..mid]);
    out.extend_from_slice(&bwd.as_slice()[mid..]);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_seq::rng::DetRng;
    use dna_sim::IdsChannel;

    fn random_seq(len: usize, rng: &mut DetRng) -> DnaSeq {
        DnaSeq::from_bases((0..len).map(|_| Base::from_code(rng.gen_range(4) as u8)))
    }

    #[test]
    fn identical_traces_reproduce_input() {
        let mut rng = DetRng::seed_from_u64(1);
        let orig = random_seq(99, &mut rng);
        let traces = vec![orig.clone(); 5];
        assert_eq!(bma(&traces, 99), Some(orig.clone()));
        assert_eq!(double_sided_bma(&traces, 99), Some(orig));
    }

    #[test]
    fn empty_traces_return_none() {
        assert_eq!(bma::<DnaSeq>(&[], 10), None);
        assert_eq!(double_sided_bma::<DnaSeq>(&[], 10), None);
    }

    #[test]
    fn borrowed_traces_match_owned_traces() {
        let mut rng = DetRng::seed_from_u64(13);
        let ch = IdsChannel::nanopore();
        for trial in 0..50 {
            let orig = random_seq(99, &mut rng);
            let traces: Vec<DnaSeq> = (0..2 + trial % 6)
                .map(|_| ch.corrupt(&orig, &mut rng))
                .collect();
            let refs: Vec<&DnaSeq> = traces.iter().collect();
            assert_eq!(bma(&refs, 99), bma(&traces, 99));
            assert_eq!(double_sided_bma(&refs, 99), double_sided_bma(&traces, 99));
        }
    }

    #[test]
    fn substitutions_are_outvoted() {
        let orig: DnaSeq = "ACGTACGTACGTACGT".parse().unwrap();
        let mut bad: Vec<Base> = orig.iter().collect();
        bad[5] = Base::T;
        let traces = vec![orig.clone(), orig.clone(), DnaSeq::from_bases(bad)];
        assert_eq!(bma(&traces, 16), Some(orig));
    }

    #[test]
    fn illumina_noise_reconstructs_exactly_with_modest_coverage() {
        let mut rng = DetRng::seed_from_u64(7);
        let ch = IdsChannel::illumina();
        let mut exact = 0;
        let trials = 100;
        for _ in 0..trials {
            let orig = random_seq(99, &mut rng);
            let traces: Vec<DnaSeq> = (0..8).map(|_| ch.corrupt(&orig, &mut rng)).collect();
            if double_sided_bma(&traces, 99) == Some(orig) {
                exact += 1;
            }
        }
        assert!(exact >= 95, "only {exact}/{trials} exact at coverage 8");
    }

    #[test]
    fn double_sided_fixes_tail_drift() {
        // Forward BMA accumulates alignment drift toward the TAIL under
        // deletion-heavy noise with thin coverage; the double-sided variant
        // takes the tail from the backward pass, whose drift is at the head.
        let mut rng = DetRng::seed_from_u64(9);
        let ch = IdsChannel {
            sub_rate: 0.01,
            ins_rate: 0.01,
            del_rate: 0.04,
        };
        let trials = 200;
        let len = 99;
        let tail = 30;
        let (mut single_tail_errs, mut double_tail_errs) = (0usize, 0usize);
        for _ in 0..trials {
            let orig = random_seq(len, &mut rng);
            let traces: Vec<DnaSeq> = (0..4).map(|_| ch.corrupt(&orig, &mut rng)).collect();
            let s = bma(&traces, len).unwrap();
            let d = double_sided_bma(&traces, len).unwrap();
            single_tail_errs += dna_seq::distance::hamming(
                &s.as_slice()[len - tail..],
                &orig.as_slice()[len - tail..],
            );
            double_tail_errs += dna_seq::distance::hamming(
                &d.as_slice()[len - tail..],
                &orig.as_slice()[len - tail..],
            );
        }
        assert!(
            double_tail_errs * 2 <= single_tail_errs,
            "double-sided tail errors {double_tail_errs} should be ≤ half of single-sided {single_tail_errs}"
        );
    }

    #[test]
    fn output_length_is_always_target() {
        let mut rng = DetRng::seed_from_u64(11);
        let ch = IdsChannel::nanopore();
        let orig = random_seq(99, &mut rng);
        let traces: Vec<DnaSeq> = (0..6).map(|_| ch.corrupt(&orig, &mut rng)).collect();
        assert_eq!(bma(&traces, 99).unwrap().len(), 99);
        assert_eq!(double_sided_bma(&traces, 99).unwrap().len(), 99);
    }
}
