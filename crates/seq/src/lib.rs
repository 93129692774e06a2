//! Core DNA sequence types and algorithms for the DNA block-storage stack.
//!
//! This crate is the foundation of the MICRO'23 *"Efficiently Enabling Block
//! Semantics and Data Updates in DNA Storage"* reproduction. It provides:
//!
//! - [`Base`] — the four-letter DNA alphabet with complementing and GC
//!   classification,
//! - [`DnaSeq`] — an owned DNA sequence with the string/slice-like API the
//!   rest of the stack builds on,
//! - [`distance`] — Hamming and Levenshtein (edit) distances, including
//!   bounded variants used by the read-clustering pipeline and the
//!   bit-parallel `PrefixAligner` every primer search runs on,
//! - [`kmer`] — packed k-mer iteration used for clustering signatures,
//! - [`analysis`] — GC-content and homopolymer analysis used by primer and
//!   index-tree constraints (§4 of the paper),
//! - [`tm`] — melting-temperature estimates for primers (§6.5 reports
//!   elongated primers melting at 63–64 °C),
//! - [`rng`] — deterministic, portable PRNGs. The paper's index trees are
//!   reconstructed from a stored seed alone (§4.4), so the generator must be
//!   bit-for-bit stable across platforms and releases; we therefore ship our
//!   own SplitMix64/Xoshiro256** rather than depend on an external crate.
//!
//! # Examples
//!
//! ```
//! use dna_seq::{Base, DnaSeq};
//!
//! let s: DnaSeq = "ACGTTG".parse().unwrap();
//! assert_eq!(s.len(), 6);
//! assert_eq!(s.reverse_complement().to_string(), "CAACGT");
//! assert_eq!(s.gc_count(), 3);
//! assert_eq!(s[0], Base::A);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod base;
mod error;
mod seq;

pub mod analysis;
pub mod distance;
pub mod kmer;
pub mod rng;
pub mod tm;

pub use base::Base;
pub use error::ParseDnaError;
pub use seq::DnaSeq;
