//! Error type for the collection framework.

use std::fmt;

/// Error returned by collection-framework operations.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard
/// arm, so adding failure modes (as the durability layer did) is not a
/// breaking change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CollectError {
    /// A wire-format decode failed.
    Decode(String),
    /// An agent or controller was configured inconsistently.
    InvalidConfig(String),
    /// A query or alignment was asked for an empty/unknown series.
    NoData(String),
    /// A write-ahead-log storage operation failed. Carries the storage
    /// object, the operation, and the underlying I/O error kind (the
    /// error itself is not `Clone`, its kind is).
    Wal {
        /// Storage object (segment name) involved.
        object: String,
        /// Storage operation: `"list"`, `"read"`, `"append"`, or
        /// `"truncate"`.
        op: &'static str,
        /// Kind of the underlying `std::io::Error`.
        kind: std::io::ErrorKind,
    },
    /// Replay-on-open hit corruption that torn-tail truncation cannot
    /// mask: an invalid record *before* the tail of the newest segment,
    /// or a compacted-snapshot object left by an earlier build's log format.
    Recovery {
        /// Storage object the bad record was read from.
        object: String,
        /// Byte offset of the bad record within the object.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// A worker thread driving a shard drain panicked. The shard's
    /// controller state may be partially updated; callers should treat
    /// the whole drain pass as failed.
    WorkerPanicked {
        /// Index of the shard whose drain worker died.
        shard: usize,
    },
    /// A bounded buffer refused new work: the agent's spill buffer hit
    /// its bound, or the controller's frame log its 2^32 positions.
    Overload {
        /// The agent whose buffer overflowed.
        agent_id: u32,
        /// Readings buffered when the bound was hit.
        buffered: usize,
        /// The configured bound.
        capacity: usize,
    },
    /// A batch offered in process carried a reading whose timestamp is
    /// not finite (over the wire `decode_batch` refuses it first).
    NonFiniteTimestamp {
        /// The agent that sent the batch.
        agent_id: u32,
        /// The batch's sequence number.
        seq: u32,
    },
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::Decode(msg) => write!(f, "decode error: {msg}"),
            CollectError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CollectError::NoData(msg) => write!(f, "no data: {msg}"),
            CollectError::Wal { object, op, kind } => {
                write!(f, "wal storage failure: {op} {object}: {kind}")
            }
            CollectError::Recovery {
                object,
                offset,
                reason,
            } => {
                write!(f, "recovery failure: {object} at byte {offset}: {reason}")
            }
            CollectError::WorkerPanicked { shard } => {
                write!(f, "worker panicked: shard {shard} drain thread died")
            }
            CollectError::Overload {
                agent_id,
                buffered,
                capacity,
            } => {
                write!(
                    f,
                    "overload: agent {agent_id} met a full buffer \
                     ({buffered} buffered, bound {capacity})"
                )
            }
            CollectError::NonFiniteTimestamp { agent_id, seq } => {
                write!(
                    f,
                    "non-finite reading timestamp: agent {agent_id} batch {seq}"
                )
            }
        }
    }
}

impl std::error::Error for CollectError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_displays() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CollectError>();
        assert!(CollectError::NoData("imu".into())
            .to_string()
            .contains("imu"));
    }

    #[test]
    fn structured_variants_carry_their_context() {
        let wal = CollectError::Wal {
            object: "seg-00000003".into(),
            op: "append",
            kind: std::io::ErrorKind::PermissionDenied,
        };
        assert!(wal.to_string().contains("seg-00000003"));
        assert!(wal.to_string().contains("append"));
        assert_eq!(wal.clone(), wal);

        let rec = CollectError::Recovery {
            object: "seg-00000001".into(),
            offset: 128,
            reason: "crc mismatch".into(),
        };
        assert!(rec.to_string().contains("byte 128"));

        let over = CollectError::Overload {
            agent_id: 7,
            buffered: 101,
            capacity: 100,
        };
        assert!(over.to_string().contains("agent 7"));
        assert!(over.to_string().contains("bound 100"));

        let panicked = CollectError::WorkerPanicked { shard: 3 };
        assert!(panicked.to_string().contains("shard 3"));
    }
}
