//! Systematic Reed-Solomon codec with mixed error + erasure decoding.
//!
//! Encoder: generator polynomial `g(x) = Π_{i=0}^{nsym-1} (x − α^i)`;
//! codewords are `[data | parity]`. Decoder: syndromes → Forney syndromes
//! (folding in known erasures) → Berlekamp–Massey error locator → Chien
//! search → Forney magnitudes. Corrects any pattern with
//! `2·errors + erasures ≤ nsym`.
//!
//! In the storage stack, an entire lost molecule becomes one erasure in every
//! codeword row of its encoding unit (§2.1.3), and residual consensus errors
//! become symbol errors.

use crate::{EccError, GfTables};

/// A Reed-Solomon code over a [`GfTables`] field with `nsym` parity symbols.
///
/// # Examples
///
/// ```
/// use dna_ecc::{GfTables, ReedSolomon};
///
/// // The paper's RS(15,11) over GF(16): corrects 2 errors or 4 erasures.
/// let rs = ReedSolomon::new(GfTables::gf16(), 4);
/// let mut cw = rs.encode(&[9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 15]);
/// assert_eq!(cw.len(), 15);
/// cw[0] = 0; // erase first symbol (value unknown)
/// cw[5] = 0;
/// rs.decode(&mut cw, &[0, 5]).unwrap();
/// assert_eq!(cw[0], 9);
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    gf: GfTables,
    nsym: usize,
    gen: Vec<u8>,
}

impl ReedSolomon {
    /// Creates a code with `nsym` parity symbols over `gf`.
    ///
    /// # Panics
    ///
    /// Panics if `nsym` is zero or leaves no room for data
    /// (`nsym >= 2^m − 1`).
    pub fn new(gf: GfTables, nsym: usize) -> ReedSolomon {
        assert!(nsym > 0, "nsym must be positive");
        assert!(
            nsym < gf.max_codeword_len(),
            "nsym {nsym} leaves no data room in GF({})",
            gf.size()
        );
        let mut gen = vec![1u8];
        for i in 0..nsym {
            gen = gf.poly_mul(&gen, &[1, gf.alpha_pow(i)]);
        }
        ReedSolomon { gf, nsym, gen }
    }

    /// Number of parity symbols.
    pub fn nsym(&self) -> usize {
        self.nsym
    }

    /// The field tables.
    pub fn field(&self) -> &GfTables {
        &self.gf
    }

    /// Encodes `data`, returning `data.len() + nsym` symbols.
    ///
    /// # Panics
    ///
    /// Panics if the codeword would exceed `2^m − 1` symbols, if `data` is
    /// empty, or if any symbol is out of field.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert!(!data.is_empty(), "cannot encode empty data");
        assert!(
            data.len() + self.nsym <= self.gf.max_codeword_len(),
            "codeword length {} exceeds field limit {}",
            data.len() + self.nsym,
            self.gf.max_codeword_len()
        );
        for &s in data {
            self.gf.check(s).expect("data symbol out of field");
        }
        // Polynomial long division of data·x^nsym by the (monic) generator.
        let mut out = vec![0u8; data.len() + self.nsym];
        out[..data.len()].copy_from_slice(data);
        for i in 0..data.len() {
            let coef = out[i];
            if coef != 0 {
                for j in 1..self.gen.len() {
                    out[i + j] ^= self.gf.mul(self.gen[j], coef);
                }
            }
        }
        out[..data.len()].copy_from_slice(data);
        out
    }

    /// Decodes `codeword` in place, correcting up to
    /// `(nsym − erasures)/2` unknown errors plus the given erasures.
    /// Returns the number of corrected symbols.
    ///
    /// Erasure positions index into `codeword`; their current contents are
    /// ignored.
    ///
    /// # Errors
    ///
    /// [`EccError::TooManyErrors`] if the pattern is uncorrectable,
    /// [`EccError::ErasureOutOfRange`] / [`EccError::LengthMismatch`] on
    /// malformed input.
    pub fn decode(&self, codeword: &mut [u8], erasures: &[usize]) -> Result<usize, EccError> {
        let n = codeword.len();
        if n > self.gf.max_codeword_len() || n <= self.nsym {
            return Err(EccError::LengthMismatch {
                what: "codeword",
                expected: self.gf.max_codeword_len(),
                got: n,
            });
        }
        for &p in erasures {
            if p >= n {
                return Err(EccError::ErasureOutOfRange {
                    position: p,
                    len: n,
                });
            }
        }
        if erasures.len() > self.nsym {
            return Err(EccError::TooManyErrors);
        }
        for &s in codeword.iter() {
            self.gf.check(s)?;
        }
        for &p in erasures {
            codeword[p] = 0;
        }
        let synd = self.syndromes(codeword);
        if synd.iter().all(|&s| s == 0) {
            return Ok(0);
        }
        let fsynd = self.forney_syndromes(&synd, erasures, n);
        let err_loc = self.error_locator(&fsynd, erasures.len())?;
        let mut err_loc_rev = err_loc.clone();
        err_loc_rev.reverse();
        let err_pos = self.chien_search(&err_loc_rev, n)?;
        let mut all_pos: Vec<usize> = erasures.to_vec();
        all_pos.extend_from_slice(&err_pos);
        all_pos.sort_unstable();
        all_pos.dedup();
        self.correct_errata(codeword, &synd, &all_pos)?;
        let check = self.syndromes(codeword);
        if check.iter().any(|&s| s != 0) {
            return Err(EccError::TooManyErrors);
        }
        Ok(all_pos.len())
    }

    /// Returns `true` if `codeword` is a valid codeword (all syndromes zero).
    pub fn is_valid(&self, codeword: &[u8]) -> bool {
        self.syndromes(codeword).iter().all(|&s| s == 0)
    }

    fn syndromes(&self, cw: &[u8]) -> Vec<u8> {
        (0..self.nsym)
            .map(|i| self.gf.poly_eval(cw, self.gf.alpha_pow(i)))
            .collect()
    }

    /// Folds known erasure locations into the syndromes so BM only has to
    /// find the *unknown* error locations.
    fn forney_syndromes(&self, synd: &[u8], erasures: &[usize], n: usize) -> Vec<u8> {
        let mut fsynd = synd.to_vec();
        for &p in erasures {
            let x = self.gf.alpha_pow(n - 1 - p);
            for j in 0..fsynd.len().saturating_sub(1) {
                fsynd[j] = self.gf.mul(fsynd[j], x) ^ fsynd[j + 1];
            }
            fsynd.pop();
        }
        fsynd
    }

    /// Berlekamp–Massey over the (Forney) syndromes.
    ///
    /// Returns the error locator polynomial, highest-degree first.
    fn error_locator(&self, fsynd: &[u8], erase_count: usize) -> Result<Vec<u8>, EccError> {
        let mut err_loc = vec![1u8];
        let mut old_loc = vec![1u8];
        for i in 0..fsynd.len() {
            old_loc.push(0);
            let mut delta = fsynd[i];
            for j in 1..err_loc.len() {
                let coef = err_loc[err_loc.len() - 1 - j];
                delta ^= self.gf.mul(coef, fsynd[i - j]);
            }
            if delta != 0 {
                if old_loc.len() > err_loc.len() {
                    let new_loc = self.poly_scale(&old_loc, delta);
                    old_loc = self.poly_scale(&err_loc, self.gf.inv(delta).expect("delta nonzero"));
                    err_loc = new_loc;
                }
                let scaled = self.poly_scale(&old_loc, delta);
                err_loc = self.poly_add(&err_loc, &scaled);
            }
        }
        while err_loc.first() == Some(&0) {
            err_loc.remove(0);
        }
        let errs = err_loc.len().saturating_sub(1);
        if errs * 2 + erase_count > self.nsym {
            return Err(EccError::TooManyErrors);
        }
        Ok(err_loc)
    }

    /// Chien search: roots of the (reversed) locator give error positions.
    fn chien_search(&self, err_loc_rev: &[u8], n: usize) -> Result<Vec<usize>, EccError> {
        let errs = err_loc_rev.len().saturating_sub(1);
        let mut pos = Vec::new();
        for i in 0..n {
            if self.gf.poly_eval(err_loc_rev, self.gf.alpha_pow(i)) == 0 {
                pos.push(n - 1 - i);
            }
        }
        if pos.len() != errs {
            return Err(EccError::TooManyErrors);
        }
        Ok(pos)
    }

    /// Forney algorithm: computes magnitudes at the errata positions and
    /// corrects the codeword in place.
    fn correct_errata(
        &self,
        cw: &mut [u8],
        synd: &[u8],
        err_pos: &[usize],
    ) -> Result<(), EccError> {
        let n = cw.len();
        let coef_pos: Vec<usize> = err_pos.iter().map(|&p| n - 1 - p).collect();
        let err_loc = self.errata_locator(&coef_pos);
        // Evaluator: Ω(x) = (x·S(x) · Λ(x)) mod x^(len(Λ)), with S reversed to
        // highest-first and shifted one degree (the extra x makes the Xi
        // factor below produce fcr=0 magnitudes).
        let mut synd_shifted = synd.to_vec();
        synd_shifted.reverse();
        synd_shifted.push(0);
        let err_eval = self.poly_mod_xk(&self.gf.poly_mul(&synd_shifted, &err_loc), err_loc.len());
        let x: Vec<u8> = coef_pos.iter().map(|&c| self.gf.alpha_pow(c)).collect();
        for (i, &xi) in x.iter().enumerate() {
            let xi_inv = self.gf.inv(xi).expect("nonzero locator root");
            // Formal derivative of the locator evaluated via the product rule.
            let mut err_loc_prime = 1u8;
            for (j, &xj) in x.iter().enumerate() {
                if j != i {
                    err_loc_prime = self.gf.mul(err_loc_prime, 1 ^ self.gf.mul(xi_inv, xj));
                }
            }
            if err_loc_prime == 0 {
                return Err(EccError::TooManyErrors);
            }
            let y = self.gf.mul(xi, self.gf.poly_eval(&err_eval, xi_inv));
            let magnitude = self.gf.div(y, err_loc_prime);
            cw[err_pos[i]] ^= magnitude;
        }
        Ok(())
    }

    /// `Π (1 + α^p·x)` for the given coefficient positions, highest-first.
    fn errata_locator(&self, coef_pos: &[usize]) -> Vec<u8> {
        let mut loc = vec![1u8];
        for &p in coef_pos {
            loc = self.gf.poly_mul(&loc, &[self.gf.alpha_pow(p), 1]);
        }
        loc
    }

    fn poly_scale(&self, p: &[u8], s: u8) -> Vec<u8> {
        p.iter().map(|&c| self.gf.mul(c, s)).collect()
    }

    /// Adds two polynomials aligned at the constant term (highest-first).
    fn poly_add(&self, p: &[u8], q: &[u8]) -> Vec<u8> {
        let len = p.len().max(q.len());
        let mut out = vec![0u8; len];
        out[len - p.len()..].copy_from_slice(p);
        for (i, &c) in q.iter().enumerate() {
            out[len - q.len() + i] ^= c;
        }
        out
    }

    /// Remainder of `p` modulo `x^k` (keeps the k lowest-degree terms of a
    /// highest-first polynomial).
    fn poly_mod_xk(&self, p: &[u8], k: usize) -> Vec<u8> {
        if p.len() <= k {
            p.to_vec()
        } else {
            p[p.len() - k..].to_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_seq::rng::DetRng;

    fn rs15_11() -> ReedSolomon {
        ReedSolomon::new(GfTables::gf16(), 4)
    }

    #[test]
    fn encode_is_systematic_and_valid() {
        let rs = rs15_11();
        let data: Vec<u8> = (0..11).collect();
        let cw = rs.encode(&data);
        assert_eq!(cw.len(), 15);
        assert_eq!(&cw[..11], &data[..]);
        assert!(rs.is_valid(&cw));
    }

    #[test]
    fn corrects_up_to_two_errors() {
        let rs = rs15_11();
        let data: Vec<u8> = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
        for (p1, p2) in [(0usize, 14usize), (3, 7), (10, 11), (0, 1)] {
            let mut cw = rs.encode(&data);
            cw[p1] ^= 0x9;
            cw[p2] ^= 0x3;
            let fixed = rs.decode(&mut cw, &[]).unwrap();
            assert_eq!(fixed, 2);
            assert_eq!(&cw[..11], &data[..]);
        }
    }

    #[test]
    fn three_errors_fail_cleanly() {
        let rs = rs15_11();
        let data: Vec<u8> = vec![5; 11];
        let mut failures = 0;
        let mut rng = DetRng::seed_from_u64(77);
        for _ in 0..50 {
            let mut cw = rs.encode(&data);
            // three random distinct positions with random nonzero error values
            let mut pos: Vec<usize> = (0..15).collect();
            rng.shuffle(&mut pos);
            for &p in &pos[..3] {
                cw[p] ^= (rng.gen_range(15) + 1) as u8;
            }
            match rs.decode(&mut cw, &[]) {
                Err(_) => failures += 1,
                Ok(_) => {
                    // Miscorrection to a *different* codeword is possible with
                    // 3 errors (beyond the code's guarantee); decoded result
                    // must at least be a valid codeword.
                    assert!(rs.is_valid(&cw));
                }
            }
        }
        assert!(failures > 20, "most 3-error patterns should be detected");
    }

    #[test]
    fn corrects_four_erasures() {
        let rs = rs15_11();
        let data: Vec<u8> = vec![0xF, 0, 1, 2, 0xA, 9, 9, 9, 3, 4, 5];
        let mut cw = rs.encode(&data);
        let erasures = [1usize, 6, 12, 14];
        for &p in &erasures {
            cw[p] = 0xF; // garbage — contents at erasure positions are ignored
        }
        let fixed = rs.decode(&mut cw, &erasures).unwrap();
        assert_eq!(fixed, 4);
        assert_eq!(&cw[..11], &data[..]);
    }

    #[test]
    fn corrects_one_error_plus_two_erasures() {
        let rs = rs15_11();
        let data: Vec<u8> = vec![7; 11];
        let mut cw = rs.encode(&data);
        cw[2] = 0; // erasure
        cw[9] = 0; // erasure
        cw[13] ^= 0x6; // unknown error
        rs.decode(&mut cw, &[2, 9]).unwrap();
        assert_eq!(&cw[..11], &data[..]);
    }

    #[test]
    fn five_erasures_rejected() {
        let rs = rs15_11();
        let mut cw = rs.encode(&[1; 11]);
        assert_eq!(
            rs.decode(&mut cw, &[0, 1, 2, 3, 4]),
            Err(EccError::TooManyErrors)
        );
    }

    #[test]
    fn erasure_position_validated() {
        let rs = rs15_11();
        let mut cw = rs.encode(&[1; 11]);
        assert!(matches!(
            rs.decode(&mut cw, &[15]),
            Err(EccError::ErasureOutOfRange {
                position: 15,
                len: 15
            })
        ));
    }

    #[test]
    fn clean_codeword_decodes_with_zero_corrections() {
        let rs = rs15_11();
        let mut cw = rs.encode(&[3; 11]);
        assert_eq!(rs.decode(&mut cw, &[]).unwrap(), 0);
    }

    #[test]
    fn shortened_codewords_work() {
        // RS(9,5): 5 data symbols, still 4 parity.
        let rs = rs15_11();
        let data = [1u8, 2, 3, 4, 5];
        let mut cw = rs.encode(&data);
        assert_eq!(cw.len(), 9);
        cw[0] ^= 1;
        cw[8] ^= 0xF;
        rs.decode(&mut cw, &[]).unwrap();
        assert_eq!(&cw[..5], &data[..]);
    }

    #[test]
    fn gf256_roundtrip_with_heavy_erasures() {
        let rs = ReedSolomon::new(GfTables::gf256(), 16);
        let data: Vec<u8> = (0..100).map(|i| (i * 7 + 1) as u8).collect();
        let mut cw = rs.encode(&data);
        assert_eq!(cw.len(), 116);
        let erasures: Vec<usize> = (0..16).map(|i| i * 7).collect();
        for &p in &erasures {
            cw[p] = 0;
        }
        rs.decode(&mut cw, &erasures).unwrap();
        assert_eq!(&cw[..100], &data[..]);
    }

    #[test]
    fn exhaustive_single_error_correction_gf16() {
        let rs = rs15_11();
        let data: Vec<u8> = vec![2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7];
        let clean = rs.encode(&data);
        for pos in 0..15 {
            for val in 1..16u8 {
                let mut cw = clean.clone();
                cw[pos] ^= val;
                let fixed = rs.decode(&mut cw, &[]).unwrap();
                assert_eq!(fixed, 1, "pos {pos} val {val}");
                assert_eq!(cw, clean);
            }
        }
    }

    #[test]
    fn random_error_erasure_mixtures_within_capacity() {
        let rs = rs15_11();
        let mut rng = DetRng::seed_from_u64(4242);
        for trial in 0..200 {
            let data: Vec<u8> = (0..11).map(|_| rng.gen_range(16) as u8).collect();
            let clean = rs.encode(&data);
            let mut cw = clean.clone();
            // pick e errors and v erasures with 2e + v <= 4
            let e = rng.gen_range(3); // 0..=2
            let v = rng.gen_range(4 - 2 * e + 1);
            let mut pos: Vec<usize> = (0..15).collect();
            rng.shuffle(&mut pos);
            let err_pos = &pos[..e];
            let era_pos = &pos[e..e + v];
            for &p in err_pos {
                cw[p] ^= (rng.gen_range(15) + 1) as u8;
            }
            for &p in era_pos {
                cw[p] = rng.gen_range(16) as u8;
            }
            let mut era = era_pos.to_vec();
            era.sort_unstable();
            rs.decode(&mut cw, &era)
                .unwrap_or_else(|e2| panic!("trial {trial}: e={e} v={v} should decode: {e2}"));
            assert_eq!(cw, clean, "trial {trial}");
        }
    }
}
