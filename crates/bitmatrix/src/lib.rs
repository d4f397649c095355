//! Bit-vector and sliced bit-matrix substrate for the TCIM reproduction.
//!
//! The TCIM paper (Wang et al., DAC 2020) reformulates triangle counting as
//! massive bitwise `AND` + `BitCount` operations over rows and columns of the
//! adjacency matrix, and compresses those rows/columns with a *data slicing*
//! scheme (§IV-B): a row of `|V|` bits is split into slices of `|S|` bits and
//! only the *valid* (non-zero) slices are stored as `(index, data)` pairs.
//!
//! This crate provides the data-structure layer of that scheme, independent of
//! any graph or hardware model:
//!
//! * [`BitVec`] — a growable bit vector backed by `u64` words.
//! * [`SliceSize`] — the `|S|` parameter with its derived geometry.
//! * [`SlicedBitVector`] — the compressed `(valid slice index, slice data)`
//!   representation, including the paper's byte-size accounting
//!   `NVS × (|S|/8 + 4)`.
//! * [`matching`] — the one matching walk every kernel runs over two
//!   rows in that layout: it gallops from the shorter operand into the
//!   longer and, under the sparse encoding, skips the slice pairs whose
//!   payloads share no non-zero byte.
//! * [`SlicedRow`] / [`RowEncoding`] / [`EncodingPolicy`] — a sliced
//!   vector plus the encoding its kernels run under: the encoding picks
//!   the walk's skip and dispatch rule and the footprint the row
//!   reports, never the host layout. Prepared graphs pick one per matrix
//!   from the measured valid-slice fraction.
//! * [`SlicedMatrix`] — every row and column of an adjacency matrix in sliced
//!   form, the input to the architecture simulator, with its
//!   [`KernelCensus`]: which arcs visit at least one slice pair.
//! * [`BitMatrix`] — a small dense bit matrix used to verify the identity
//!   `TC(G) = trace(A³)/6` on reference graphs.
//! * [`popcount`] — bit-count implementations, including the hardware-faithful
//!   8-bit look-up-table used by the paper's synthesized bit-counter module.
//!
//! # Example
//!
//! ```
//! use tcim_bitmatrix::{BitVec, SliceSize, SlicedBitVector};
//!
//! // Row 0110…, column 1010… of some adjacency matrix.
//! let row = BitVec::from_indices(128, [1, 2, 70]);
//! let col = BitVec::from_indices(128, [0, 2, 70]);
//!
//! let s = SliceSize::S64;
//! let row = SlicedBitVector::from_bitvec(&row, s);
//! let col = SlicedBitVector::from_bitvec(&col, s);
//!
//! // AND + BitCount over valid slice pairs only (the TCIM kernel).
//! assert_eq!(row.and_popcount(&col), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod census;
mod error;
pub mod matching;
mod matrix;
pub mod popcount;
mod row;
mod slice;
mod sliced;
mod sliced_matrix;

pub use bitvec::BitVec;
pub use census::KernelCensus;
pub use error::{BitMatrixError, Result};
pub use matrix::BitMatrix;
pub use popcount::PopcountMethod;
pub use row::{EncodingPolicy, PairStats, RowEncoding, SlicedRow};
pub use slice::SliceSize;
pub use sliced::{MatchingSlices, SlicedBitVector, ValidSlice};
pub use sliced_matrix::{SliceStats, SlicedMatrix, SlicedMatrixBuilder};

#[cfg(test)]
#[path = "sparse_rows.rs"]
mod sparse;
