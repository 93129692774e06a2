//! The primer↔template annealing model.
//!
//! This is the calibrated heart of the PCR simulator. A primer binds a
//! template site with probability that falls with (a) the *edit distance*
//! between primer and site — §8.1 found misprimed strands "2 or 3 edit
//! distance apart", so we align with indels, not just Hamming — and (b) the
//! gap between the annealing temperature and the duplex's effective melting
//! temperature. Touchdown PCR (§6.5) starts hot, where only perfect duplexes
//! are stable, and walks down 1 °C per cycle, which suppresses *early*
//! mispriming events (the ones that would be amplified most).

use dna_seq::distance::{levenshtein_bounded, PrefixAligner};
use dna_seq::tm::melting_temperature;
use dna_seq::DnaSeq;

/// Annealing/binding probability model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealModel {
    /// Binding probability of a perfect duplex at permissive temperature
    /// (per cycle). Real PCR efficiencies run 0.85–0.97.
    pub max_efficiency: f64,
    /// Multiplicative penalty per unit of edit distance, at the reference
    /// annealing temperature [`AnnealModel::reference_temp`].
    pub edit_penalty: f64,
    /// Effective melting-temperature drop (°C) per unit edit distance.
    pub tm_drop_per_edit: f64,
    /// Width (°C) of the melting sigmoid.
    pub melt_width: f64,
    /// Duplex stabilization (°C) added to the naive Marmur–Doty estimate:
    /// PCR buffers (salt, polymerase clamping) raise the working Tm, which
    /// is why 20-mers with nominal Tm ≈ 52 °C anneal fine at 55 °C.
    pub tm_salt_offset: f64,
    /// Reference annealing temperature at which `edit_penalty` applies
    /// as-is. Above it, mismatches are penalized harder (stringency);
    /// the exponent grows by 1 per `stringency_scale` °C.
    pub reference_temp: f64,
    /// °C above the reference per extra unit of penalty exponent.
    pub stringency_scale: f64,
    /// Maximum edit distance considered at all (binding beyond is ~0).
    pub max_edit: usize,
    /// Length of the 3'-terminal window whose mismatches block polymerase
    /// extension (textbook PCR: terminal mismatches are far more
    /// destructive than internal ones).
    pub three_prime_window: usize,
    /// Multiplicative penalty per mismatch inside the 3' window.
    pub three_prime_penalty: f64,
}

/// The geometry of one primer↔site binding: total edit distance plus the
/// mismatches falling in the primer's 3'-terminal window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BindingSite {
    /// Edit distance between primer and the best-aligned site window.
    pub dist: usize,
    /// Edit distance within the primer's 3'-terminal window.
    pub three_prime_dist: usize,
}

impl Default for AnnealModel {
    fn default() -> Self {
        AnnealModel::calibrated()
    }
}

impl AnnealModel {
    /// The calibration used for all paper-reproduction experiments. Chosen
    /// so that the Fig. 9b read composition (≈59% target vs ≈41% misprimed
    /// neighbours at edit distance 2–3 after touchdown 65→55 + 18 cycles)
    /// emerges from the dynamics.
    pub fn calibrated() -> AnnealModel {
        AnnealModel {
            max_efficiency: 0.95,
            edit_penalty: 0.45,
            tm_drop_per_edit: 1.8,
            melt_width: 2.5,
            tm_salt_offset: 8.0,
            reference_temp: 55.0,
            stringency_scale: 5.0,
            max_edit: 4,
            three_prime_window: 5,
            three_prime_penalty: 0.15,
        }
    }

    /// Edit distance between `primer` and the best-aligned window at the
    /// start of `site` (window lengths `primer.len() ± max_edit`), or `None`
    /// if it exceeds [`AnnealModel::max_edit`].
    pub fn binding_distance(&self, primer: &DnaSeq, site: &DnaSeq) -> Option<usize> {
        self.binding_site(primer, site).map(|b| b.dist)
    }

    /// Full binding geometry: best window's edit distance and its
    /// 3'-terminal mismatch count, or `None` when the primer cannot bind.
    ///
    /// One [`PrefixAligner`] pass gives the primer's distance to every
    /// window length `primer.len() ± max_edit`; only windows within
    /// `max_edit` pay for the 3'-tail alignment.
    ///
    /// # Panics
    ///
    /// Panics if `primer` is longer than [`PrefixAligner::MAX_PATTERN`]
    /// (64) bases. Every generated primer and elongated prefix is at most
    /// 31 bases.
    pub fn binding_site(&self, primer: &DnaSeq, site: &DnaSeq) -> Option<BindingSite> {
        if primer.is_empty() {
            return None;
        }
        let aligner = PrefixAligner::new(primer.as_slice());
        let mut best: Option<BindingSite> = None;
        let k = self.three_prime_window.min(primer.len());
        let tail = &primer.as_slice()[primer.len() - k..];
        for (w, d) in aligner.windows(site.as_slice().iter().copied(), self.max_edit) {
            if d > self.max_edit {
                continue;
            }
            let site_tail = &site.as_slice()[w.saturating_sub(k)..w];
            let d3 = levenshtein_bounded(tail, site_tail, k).unwrap_or(k);
            let candidate = BindingSite {
                dist: d,
                three_prime_dist: d3,
            };
            let better = match best {
                None => true,
                Some(b) => {
                    (candidate.dist, candidate.three_prime_dist) < (b.dist, b.three_prime_dist)
                }
            };
            if better {
                best = Some(candidate);
            }
            if matches!(best, Some(b) if b.dist == 0 && b.three_prime_dist == 0) {
                break;
            }
        }
        best
    }

    /// Per-cycle binding probability of `primer` at a given binding
    /// geometry and annealing temperature (°C).
    pub fn binding_probability(&self, primer: &DnaSeq, site: BindingSite, temp: f64) -> f64 {
        if site.dist > self.max_edit {
            return 0.0;
        }
        let tm = melting_temperature(primer) + self.tm_salt_offset
            - self.tm_drop_per_edit * site.dist as f64;
        // Melting sigmoid: ≈1 well below Tm, ≈0 well above.
        let melt = 1.0 / (1.0 + ((temp - tm) / self.melt_width).exp());
        // Mismatch penalty with temperature-dependent stringency.
        let exponent = site.dist as f64
            * (1.0 + ((temp - self.reference_temp).max(0.0) / self.stringency_scale));
        let penalty = self.edit_penalty.powf(exponent);
        // 3'-terminal mismatches block extension regardless of temperature.
        let blocking = self.three_prime_penalty.powi(site.three_prime_dist as i32);
        self.max_efficiency * melt * penalty * blocking
    }

    /// Convenience: probability of a perfectly matched duplex (distance 0).
    pub fn perfect_probability(&self, primer: &DnaSeq, temp: f64) -> f64 {
        self.binding_probability(
            primer,
            BindingSite {
                dist: 0,
                three_prime_dist: 0,
            },
            temp,
        )
    }

    /// Convenience: geometry + probability against a template's 5' start.
    pub fn site_probability(&self, primer: &DnaSeq, template: &DnaSeq, temp: f64) -> f64 {
        match self.binding_site(primer, template) {
            Some(site) => self.binding_probability(primer, site, temp),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_seq::Base;

    fn balanced(n: usize) -> DnaSeq {
        DnaSeq::from_bases((0..n).map(|i| Base::from_code((i % 4) as u8)))
    }

    fn site(d: usize, d3: usize) -> BindingSite {
        BindingSite {
            dist: d,
            three_prime_dist: d3,
        }
    }

    #[test]
    fn perfect_match_binds_efficiently_below_tm() {
        let m = AnnealModel::calibrated();
        let primer = balanced(31); // Tm ≈ 63-64
        let p = m.binding_probability(&primer, site(0, 0), 55.0);
        assert!(p > 0.9, "perfect 31-mer at 55C should bind ≈max: {p}");
    }

    #[test]
    fn binding_collapses_well_above_tm() {
        let m = AnnealModel::calibrated();
        let primer = balanced(31); // nominal Tm ≈ 63.7, salt-corrected ≈ 71.7
        let hot = m.binding_probability(&primer, site(0, 0), 78.0);
        assert!(hot < 0.1, "binding at 78C should collapse: {hot}");
        // A 20-mer must still bind usefully at the 55C annealing step.
        let short = balanced(20);
        let p = m.binding_probability(&short, site(0, 0), 55.0);
        assert!(p > 0.4, "20-mer at 55C should bind: {p}");
    }

    #[test]
    fn mismatches_penalized_and_ordered() {
        let m = AnnealModel::calibrated();
        let primer = balanced(31);
        let p0 = m.binding_probability(&primer, site(0, 0), 55.0);
        let p1 = m.binding_probability(&primer, site(1, 0), 55.0);
        let p2 = m.binding_probability(&primer, site(2, 0), 55.0);
        let p3 = m.binding_probability(&primer, site(3, 0), 55.0);
        assert!(p0 > p1 && p1 > p2 && p2 > p3);
        assert!(p2 / p0 < 0.25, "2-edit binding should be ≤25% of perfect");
        assert_eq!(m.binding_probability(&primer, site(5, 0), 55.0), 0.0);
        // 3'-terminal mismatches are far more destructive than internal.
        let p2_terminal = m.binding_probability(&primer, site(2, 2), 55.0);
        assert!(
            p2_terminal < p2 / 10.0,
            "3' mismatches should block extension"
        );
    }

    #[test]
    fn touchdown_suppresses_mismatches_harder_than_target() {
        // At 65C (touchdown start) the ratio p2/p0 must be much smaller than
        // at 55C — that is the entire point of touchdown PCR (§6.5).
        let m = AnnealModel::calibrated();
        let primer = balanced(31);
        let r55 = m.binding_probability(&primer, site(2, 0), 55.0)
            / m.binding_probability(&primer, site(0, 0), 55.0);
        let r62 = m.binding_probability(&primer, site(2, 0), 62.0)
            / m.binding_probability(&primer, site(0, 0), 62.0);
        assert!(
            r62 < r55 / 3.0,
            "stringency at 62C ({r62:.5}) should beat 55C ({r55:.5}) by ≥3x"
        );
    }

    #[test]
    fn binding_distance_aligns_with_indels() {
        let m = AnnealModel::calibrated();
        let primer: DnaSeq = "ACGTACGTAC".parse().unwrap();
        // Template with one base deleted from the primer region.
        let template: DnaSeq = "ACGTCGTACGGGTTTAAACCC".parse().unwrap();
        let d = m.binding_distance(&primer, &template).unwrap();
        assert_eq!(d, 1, "single deletion should align at distance 1");
        // Perfect site.
        let perfect: DnaSeq = "ACGTACGTACGGGTTTAAA".parse().unwrap();
        assert_eq!(m.binding_distance(&primer, &perfect), Some(0));
        // Unrelated site.
        let junk: DnaSeq = "TTTTTTTTTTTTTTTTTTTT".parse().unwrap();
        assert_eq!(m.binding_distance(&primer, &junk), None);
    }

    #[test]
    fn short_template_counts_overhang() {
        let m = AnnealModel::calibrated();
        let primer = balanced(10);
        let short = balanced(7);
        // primer vs 7-base template: 3 missing bases = distance 3
        assert_eq!(m.binding_distance(&primer, &short), Some(3));
    }
}
