//! Error type shared by the bit-matrix substrate.

use std::error::Error;
use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, BitMatrixError>;

/// Errors raised by bit-vector and sliced-matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BitMatrixError {
    /// A bit index was at or beyond the length of the vector.
    IndexOutOfBounds {
        /// The offending bit index.
        index: usize,
        /// The vector length in bits.
        len: usize,
    },
    /// Two operands of a binary bit operation had different lengths.
    LengthMismatch {
        /// Length of the left operand in bits.
        left: usize,
        /// Length of the right operand in bits.
        right: usize,
    },
    /// Two sliced operands were built with different slice sizes.
    SliceSizeMismatch {
        /// Slice size of the left operand in bits.
        left: u32,
        /// Slice size of the right operand in bits.
        right: u32,
    },
    /// A requested slice size is not supported (must be a power of two
    /// between 8 and 4096 bits).
    InvalidSliceSize {
        /// The rejected size in bits.
        bits: u32,
    },
    /// A matrix operation received a row or column index beyond the matrix
    /// dimension.
    DimensionOutOfBounds {
        /// The offending row/column index.
        index: usize,
        /// The matrix dimension.
        dim: usize,
    },
    /// An undirected edge had both endpoints on the same vertex. The
    /// adjacency matrices of this crate describe simple graphs, whose
    /// diagonal is always zero.
    SelfLoop {
        /// The vertex looping onto itself.
        vertex: usize,
    },
    /// An undirected edge was added twice (in either endpoint order).
    DuplicateEdge {
        /// Smaller endpoint of the duplicated edge.
        u: usize,
        /// Larger endpoint of the duplicated edge.
        v: usize,
    },
    /// Two row operands used different encodings. Matrix rows and
    /// columns always share one encoding; mixing indicates operands from
    /// differently prepared artifacts.
    EncodingMismatch,
}

impl fmt::Display for BitMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BitMatrixError::IndexOutOfBounds { index, len } => {
                write!(f, "bit index {index} out of bounds for length {len}")
            }
            BitMatrixError::LengthMismatch { left, right } => {
                write!(f, "bit-vector length mismatch: {left} vs {right}")
            }
            BitMatrixError::SliceSizeMismatch { left, right } => {
                write!(f, "slice size mismatch: {left} bits vs {right} bits")
            }
            BitMatrixError::InvalidSliceSize { bits } => {
                write!(f, "invalid slice size of {bits} bits")
            }
            BitMatrixError::DimensionOutOfBounds { index, dim } => {
                write!(f, "index {index} out of bounds for dimension {dim}")
            }
            BitMatrixError::SelfLoop { vertex } => {
                write!(f, "self-loop on vertex {vertex} is not a simple-graph edge")
            }
            BitMatrixError::DuplicateEdge { u, v } => {
                write!(f, "edge {{{u}, {v}}} was already added")
            }
            BitMatrixError::EncodingMismatch => {
                write!(f, "row encodings of the operands do not match")
            }
        }
    }
}

impl Error for BitMatrixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = BitMatrixError::IndexOutOfBounds { index: 9, len: 8 };
        assert_eq!(e.to_string(), "bit index 9 out of bounds for length 8");
        let e = BitMatrixError::LengthMismatch { left: 1, right: 2 };
        assert_eq!(e.to_string(), "bit-vector length mismatch: 1 vs 2");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BitMatrixError>();
    }
}
