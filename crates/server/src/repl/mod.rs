//! Replication: a per-shard persistent redo log, a primary-side fan-out
//! hub feeding live replica streams, and the replica-side sync loop.
//!
//! The moving parts:
//!
//! * [`wire`] — the one encoding of a key mutation: a length-prefixed,
//!   MurmurHash64A-checksummed record that the redo log stores, a
//!   snapshot holds one of per live key, and the replication stream
//!   carries; plus the versioned file header and a bounds-checked parser.
//! * [`log`] — the redo log: per shard, an append-only `repl-N.log`
//!   behind a chain of sealed segments, buffered under the shard's
//!   existing write serialization and written out before any of its
//!   records is acknowledged. Reopen validates the one active file
//!   (bounded, whatever the log's size), truncates its torn tail and
//!   never yields a corrupt record, so the log doubles as an incremental
//!   backup: replaying it on top of a snapshot (or an empty store)
//!   reconstructs the final state without rewriting the full store.
//! * [`hub`] — the in-memory fan-out: every applied mutation is
//!   published as a [`ReplOp`] with a store-wide monotonic offset;
//!   replica-serving connections subscribe and stream the tail.
//! * [`replica`] — the follower: connects to the primary, sends `PSYNC`
//!   and reads `+FULLRESYNC <offset>` followed by one stream of records —
//!   an epoch-pinned snapshot closed by its verified `END`, then the
//!   tail — decoding each as it arrives and applying it straight from its
//!   read buffer through the engine's single-key apply ([`OpRef`] →
//!   [`ShardedDash::apply`](crate::engine::ShardedDash::apply)) until
//!   promoted.
//!
//! Replication is asynchronous (a write is acknowledged once durable on
//! the primary); convergence is observable — `INFO` exposes
//! `repl_offset` on both sides, and equality after quiescing means the
//! replica holds every acknowledged write. The failover drill is:
//! quiesce, wait for offset equality, kill the primary, `REPLICAOF NO
//! ONE` on the replica.

pub mod hub;
pub mod log;
pub(crate) mod replica;
pub mod wire;

pub use hub::{ReplHub, ReplSubscription, TracedOp};
pub use log::{read_log, LogRecovery, LogWriter};

/// One replicated mutation: the unit the redo log stores, the hub fans
/// out, and the replication stream carries, all as one [`wire`] record.
/// Ops are idempotent — applying a prefix twice converges to the same
/// state — which is what lets the snapshot+tail bootstrap overlap the two
/// sources without coordination.
///
/// Time never appears as a duration here: a TTL write carries the
/// **absolute** deadline the primary computed, and an expiry travels as
/// a plain [`ReplOp::Del`]. Consumers of this stream (replicas, log
/// replay, migration) apply it without consulting a clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplOp {
    /// Insert or overwrite `key` with `value`, clearing any expiry.
    Set { key: Vec<u8>, value: Vec<u8> },
    /// Insert or overwrite `key` with `value` expiring at the given
    /// Unix-millisecond deadline (a `SETEX` record).
    SetEx { key: Vec<u8>, value: Vec<u8>, expire_at_ms: u64 },
    /// Remove `key` (only logged when the key existed — expiries and
    /// evictions travel as this, decided solely by the primary).
    Del { key: Vec<u8> },
}

impl ReplOp {
    pub fn key(&self) -> &[u8] {
        match self {
            ReplOp::Set { key, .. } | ReplOp::SetEx { key, .. } | ReplOp::Del { key } => key,
        }
    }

    pub fn as_ref(&self) -> OpRef<'_> {
        match self {
            ReplOp::Set { key, value } => OpRef::Set { key, value },
            ReplOp::SetEx { key, value, expire_at_ms } => {
                OpRef::SetEx { key, value, expire_at_ms: *expire_at_ms }
            }
            ReplOp::Del { key } => OpRef::Del { key },
        }
    }
}

/// A [`ReplOp`] with its key and value borrowed: what the engine's write
/// path hands to the redo log (encoded straight from the caller's
/// buffers), what the record decoder hands out (borrowed from a file
/// buffer or a replica's read buffer) and what every apply path —
/// replica, restore, replay, purge — hands to the engine. An
/// owned [`ReplOp`] is only built where one must outlive the borrow — a
/// live replica sink, a copying log read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpRef<'a> {
    Set { key: &'a [u8], value: &'a [u8] },
    SetEx { key: &'a [u8], value: &'a [u8], expire_at_ms: u64 },
    Del { key: &'a [u8] },
}

impl<'a> OpRef<'a> {
    /// The op that writing `value` under `key` with the deadline
    /// `expire_at_ms` (0 = none) records.
    pub fn set(key: &'a [u8], value: &'a [u8], expire_at_ms: u64) -> Self {
        match expire_at_ms {
            0 => OpRef::Set { key, value },
            expire_at_ms => OpRef::SetEx { key, value, expire_at_ms },
        }
    }

    pub fn to_owned(self) -> ReplOp {
        match self {
            OpRef::Set { key, value } => ReplOp::Set { key: key.to_vec(), value: value.to_vec() },
            OpRef::SetEx { key, value, expire_at_ms } => {
                ReplOp::SetEx { key: key.to_vec(), value: value.to_vec(), expire_at_ms }
            }
            OpRef::Del { key } => ReplOp::Del { key: key.to_vec() },
        }
    }
}
