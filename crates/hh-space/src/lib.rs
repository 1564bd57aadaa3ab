//! Bit-level space accounting and compact integer storage.
//!
//! The paper measures algorithms in *bits* under the unit-cost RAM model of
//! §2.3: item identifiers cost `⌈log₂ range⌉` bits, counters are stored in
//! `O(log C)` bits using the variable-length arrays of Blandford–Blelloch
//! \[BB08\], the sampler of Lemma 1 costs `O(log log m)` bits, and a hash
//! function drawn from a universal family costs `O(log n)` bits of seed.
//!
//! Rust programs store words, so this crate provides **two space measures**
//! that every data structure in the workspace implements via [`SpaceUsage`]:
//!
//! * [`SpaceUsage::model_bits`] — the bit-exact cost of the paper's
//!   accounting. This is the number Table 1 talks about and is what the
//!   Table-1 reproduction experiments (E1–E5 in `DESIGN.md`) plot.
//! * [`SpaceUsage::heap_bytes`] — actual heap allocation, for honesty about
//!   the constant-factor gap between the model and a word-RAM
//!   implementation.
//!
//! The crate also provides the compact containers summaries store into
//! ([`BitVec`] for ε-Minimum's membership vectors, [`VarCounterArray`] for
//! variable-length counters, whose gamma model cost
//! [`VarCounterArray::to_gamma`] realizes as a [`GammaVec`]), and the bound
//! formulas of Table 1 ([`bounds`]) used by the experiment harness. The binary codec every snapshot and wire frame is written in
//! ([`codec`]) and its integrity digest ([`checksum`]) live here too.
//!
//! # Example
//!
//! ```
//! use hh_space::{SpaceUsage, VarCounterArray, gamma_bits};
//!
//! let mut counters = VarCounterArray::new(4);
//! counters.add(0, 1000);
//! counters.increment(3);
//! // The model cost is the exact gamma-code length, realizable on demand:
//! assert_eq!(counters.model_bits(), gamma_bits(1000) + gamma_bits(1) + 2);
//! assert_eq!(counters.model_bits(), counters.to_gamma().bit_len() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod bounds;
pub mod checksum;
pub mod codec;
pub mod gamma;
pub mod space;
pub mod swar;
pub mod varcount;
pub mod varint;

pub use bits::BitVec;
pub use checksum::fnv1a64x4;
pub use gamma::{GammaDecoder, GammaVec};
pub use space::{
    ceil_log2, gamma_bits, gamma_sum_bits, id_bits, merged_gamma_sum_bits,
    merged_sparse_slice_bits, sparse_bits, sparse_slice_bits, SpaceUsage,
};
pub use varcount::VarCounterArray;
pub use varint::{decode_deltas, decode_uvarints, push_deltas, push_uvarints};
