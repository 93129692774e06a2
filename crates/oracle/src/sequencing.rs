//! The IDS channel as per-base `gen_bool` trials.

use dna_seq::rng::DetRng;
use dna_seq::{Base, DnaSeq};
use dna_sim::IdsChannel;

/// `IdsChannel::corrupt` as three `gen_bool` calls per base (insertion,
/// deletion, substitution), each converting its draw to `f64` and
/// comparing it with the rate. The fast channel must return the same read
/// and consume the same draws.
pub fn corrupt(channel: &IdsChannel, seq: &DnaSeq, rng: &mut DetRng) -> DnaSeq {
    let mut out = DnaSeq::with_capacity(seq.len() + 4);
    for b in seq.iter() {
        if rng.gen_bool(channel.ins_rate) {
            out.push(Base::from_code(rng.gen_range(4) as u8));
        }
        if rng.gen_bool(channel.del_rate) {
            continue;
        }
        if rng.gen_bool(channel.sub_rate) {
            let mut nb = Base::from_code(rng.gen_range(4) as u8);
            if nb == b {
                nb = Base::from_code((b.code() + 1) & 0b11);
            }
            out.push(nb);
        } else {
            out.push(b);
        }
    }
    out
}
