//! Delta-based versioned archives encoded with Sparsity Exploiting Coding —
//! the primary contribution of the SEC paper as a usable library.
//!
//! A [`ByteVersionedArchive`] accepts successive versions of a fixed-size
//! byte object, splits each into `k` equally sized blocks (the paper's
//! `x_j ∈ F_q^k`, one block per symbol), encodes them with an `(n, k)` MDS
//! code according to an [`EncodingStrategy`], and supports retrieval of any
//! version (or any prefix of versions) with explicit block-read accounting:
//!
//! * [`EncodingStrategy::BasicSec`] — store `x_1` in full, every later
//!   version as the delta `z_{j+1} = x_{j+1} − x_j` (paper, Fig. 1);
//! * [`EncodingStrategy::OptimizedSec`] — like Basic, but store the full
//!   version instead of the delta whenever `γ ≥ k/2` ("Optimized Step j+1");
//! * [`EncodingStrategy::ReversedSec`] — store deltas plus the *latest*
//!   version in full, favouring access to recent versions;
//! * [`EncodingStrategy::NonDifferential`] — the baseline: every version is
//!   encoded in full.
//!
//! A delta's sparsity `γ` counts the blocks that changed, and every entry is
//! decoded through the batched `GF(2^8)` pipeline of `sec-erasure`.
//!
//! The archive is a [`VersionChain`] plus blocks: the chain holds the append
//! policy and the stored layout and keeps no coded block, so a serving layer
//! (`sec-engine`) can run the same policy while its storage nodes hold the
//! only copy of every block.
//!
//! The [`io_model`] module provides the closed-form I/O read counts of
//! eqs. (3)–(4) without touching any data, which is what the paper's Fig. 9
//! and the §III-D example report; the archive reproduces the same numbers
//! operationally, walking its entries through [`walk`].
//!
//! # Example
//!
//! ```rust
//! use sec_erasure::GeneratorForm;
//! use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy};
//!
//! # fn main() -> Result<(), sec_versioning::VersioningError> {
//! let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)?;
//! let mut archive = ByteVersionedArchive::new(config)?;
//!
//! let v1 = vec![10u8, 20, 30]; // three one-byte blocks
//! let mut v2 = v1.clone();
//! v2[0] = 99; // a 1-sparse edit
//! archive.append_version(&v1)?;
//! archive.append_version(&v2)?;
//!
//! // Retrieving both versions costs k + 2γ = 3 + 2 = 5 reads instead of 6.
//! let retrieval = archive.retrieve_prefix(2)?;
//! assert_eq!(retrieval.io_reads, 5);
//! assert_eq!(retrieval.versions[1], v2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
#![warn(missing_docs)]

mod archive;
mod error;

pub mod byte_archive;
pub mod cache;
pub mod io_model;
pub mod object;
pub mod walk;

pub use archive::{ArchiveConfig, CheckpointPolicy, EncodingStrategy, StoredPayload};
pub use byte_archive::{
    ByteEncodedEntry, BytePrefixRetrieval, ByteVersionRetrieval, ByteVersionedArchive, VersionChain,
};
pub use cache::{CacheStats, DeltaCache};
pub use error::VersioningError;
pub use io_model::IoModel;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod retrieval;
