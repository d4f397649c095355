//! Error type of the sharding layer.

use std::error::Error;
use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ShardError>;

/// Errors surfaced by shard planning, boundary extraction and the
/// cross-shard composition pass.
#[derive(Debug)]
#[non_exhaustive]
pub enum ShardError {
    /// The shard specification is malformed (zero shards, or an
    /// edge-block mode parameter out of range).
    InvalidSpec {
        /// What was invalid.
        reason: String,
    },
    /// Bit-matrix construction failed while building boundary slices.
    BitMatrix(tcim_bitmatrix::BitMatrixError),
    /// Scheduling the composition kernels failed.
    Sched(tcim_sched::SchedError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::InvalidSpec { reason } => write!(f, "invalid shard spec: {reason}"),
            ShardError::BitMatrix(e) => write!(f, "bit-matrix error: {e}"),
            ShardError::Sched(e) => write!(f, "scheduling error: {e}"),
        }
    }
}

impl Error for ShardError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShardError::BitMatrix(e) => Some(e),
            ShardError::Sched(e) => Some(e),
            ShardError::InvalidSpec { .. } => None,
        }
    }
}

impl From<tcim_bitmatrix::BitMatrixError> for ShardError {
    fn from(e: tcim_bitmatrix::BitMatrixError) -> Self {
        ShardError::BitMatrix(e)
    }
}

impl From<tcim_sched::SchedError> for ShardError {
    fn from(e: tcim_sched::SchedError) -> Self {
        ShardError::Sched(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = ShardError::InvalidSpec { reason: "zero shards".into() };
        assert!(e.to_string().contains("zero shards"));
        assert!(e.source().is_none());
        let e = ShardError::from(tcim_sched::SchedError::InvalidPolicy { reason: "x".into() });
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardError>();
    }
}
