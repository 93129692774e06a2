//! Wetlab simulator for DNA storage.
//!
//! The paper's evaluation is a wetlab experiment; this crate replaces every
//! chemical process with a calibrated, fully deterministic simulator that
//! exercises the same code paths and failure modes (see DESIGN.md §2 for the
//! substitution table):
//!
//! - [`Pool`] — a test tube: species (distinct sequences) with fractional
//!   copy counts (a sharded store keeps one per partition, mixes writes
//!   into it in place, and pipettes only the addressed tubes into a
//!   reaction),
//! - [`SynthesisVendor`] — commercial synthesis with per-molecule copy-count
//!   skew and per-vendor concentration scales (the IDT preset is 50000× the
//!   Twist preset, §6.4.1),
//! - [`PcrReaction`]/[`PcrProtocol`] — cycle-level PCR with a
//!   mismatch/temperature annealing model, finite primer budgets,
//!   touchdown schedules, multiplexing, and **index overwrite on
//!   mispriming** — the mechanism behind the paper's false positives (§3.2:
//!   "PCR may overwrite their index to the desired index"),
//! - [`Sequencer`] — reads sampled ∝ abundance through an
//!   insertion/deletion/substitution channel; NGS and Nanopore run models
//!   for the §7.4 latency analysis,
//! - [`Nanodrop`] — concentration measurement with multiplicative noise,
//! - [`mixing`] — the two §6.4.2 protocols (Measure-then-Amplify and
//!   Amplify-then-Measure) that reconcile a 50000× vendor concentration gap.
//!
//! # Examples
//!
//! ```
//! use dna_seq::rng::DetRng;
//! use dna_sim::{Pool, SynthesisVendor, Molecule};
//!
//! let designs = vec![Molecule::untagged("ACGTACGTACGTACGTACGTACGTACGT".parse().unwrap())];
//! let mut rng = DetRng::seed_from_u64(1);
//! let pool = SynthesisVendor::twist().synthesize(&designs, &mut rng);
//! assert_eq!(pool.distinct(), 1);
//! assert!(pool.total_copies() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod fastpath;
mod molecule;
mod nanodrop;
mod pcr;
mod pool;
mod sequencing;
mod synthesis;

pub mod mixing;
pub mod stats;

pub use anneal::{AnnealModel, BindingSite};
pub use molecule::{Molecule, StrandTag};
pub use nanodrop::Nanodrop;
pub use pcr::{
    MultiplexOutcome, MultiplexPcrReaction, PcrOutcome, PcrPrimer, PcrProtocol, PcrReaction,
    PrimerChannel,
};
pub use pool::{Pool, Species};
pub use sequencing::{IdsChannel, NanoporeModel, NgsRunModel, Read, Sequencer, SequencerScratch};
pub use stats::WetlabStats;
pub use synthesis::SynthesisVendor;
