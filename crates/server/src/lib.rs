//! # dash-server — a sharded, persistent KV service over Dash
//!
//! The paper builds a hash table designed to sit under a heavily
//! concurrent service; this crate is that service. It layers three
//! pieces over the reproduction:
//!
//! * [`ShardedDash`] ([`engine`]) — the storage engine: the keyspace
//!   partitioned by hash over N independent Dash-EH tables, each on
//!   its own file-backed [`pmem::PmemPool`] (`MAP_SHARED`), so the
//!   store survives real process restarts and reopens in constant time
//!   per shard (Dash §4.8). A key and its value are byte strings stored
//!   together in one record — one right-sized block of the owning
//!   shard's pool, which the table slot points at; reads are lock-free
//!   under an epoch pin, writes serialize per shard.
//! * [`serve`] ([`server`], [`net`]) — an event-driven TCP server
//!   speaking RESP2 with full pipelining. Its commands are the rows of
//!   one table ([`commands`]: name, arity, write flag, key positions),
//!   which is also what the server dispatches from — there is no second
//!   list to fall behind. A fixed pool of epoll event-loop workers
//!   (default: one per CPU) drives nonblocking connections, so thousands
//!   of connections cost no threads; a multi-key command is the engine's
//!   single-key calls, one per key, under the connection tick's hint and
//!   group commit.
//! * [`repl`] — replication: a per-shard redo log (torn-tail-safe, kept
//!   as a bounded window, doubling as incremental backup from a
//!   snapshot's positions via `--replay-logs`), primary-side
//!   streaming (`REPLCONF`/`PSYNC` → `+FULLRESYNC`, then the snapshot and
//!   the tail as one stream of the log's own records, the encoding
//!   [`snapshot`] files use too), and replica mode ([`serve_with`] +
//!   [`ServeOptions::replica_of`]):
//!   reads served, writes bounced with `-READONLY`, promotion via
//!   `REPLICAOF NO ONE`.
//! * [`cluster`] — horizontal partitioning, Redis cluster-style: 16384
//!   CRC16 hash slots (hash-tag aware), a persistent epoch-versioned
//!   slot map, `MOVED`/`ASK` redirects enforced at the dispatch seam,
//!   and live slot migration (epoch-pinned bulk copy + redo-log tail
//!   replay + fenced ownership flip) that loses no acknowledged write.
//!   Enabled via [`ServeOptions::cluster_announce`].
//! * [`resp`] / [`RespClient`] ([`client`]) — the wire codec (strict,
//!   incremental, binary-safe) and a small blocking client used by
//!   `dash-loadgen`, the tests and the CI smoke job; [`ClusterClient`]
//!   layers slot-aware routing and redirect following on top.
//!
//! ```no_run
//! use dash_server::{serve, EngineConfig, RespClient, ShardedDash, Value};
//!
//! let engine = ShardedDash::open(&EngineConfig {
//!     shards: 4,
//!     shard_bytes: 64 << 20,
//!     dir: Some("/tmp/dash-store".into()),
//!     ..EngineConfig::default()
//! }).unwrap();
//! let server = serve(engine, "127.0.0.1:6379").unwrap();
//!
//! let mut client = RespClient::connect(server.addr()).unwrap();
//! client.command(&[b"SET", b"user:1", b"ada"]).unwrap();
//! assert_eq!(client.command(&[b"GET", b"user:1"]).unwrap(), Value::bulk(*b"ada"));
//! server.shutdown(); // clean close: next open skips the version bump
//! ```

pub mod client;
pub mod cluster;
pub(crate) mod command;
pub mod engine;
pub mod expire;
pub(crate) mod metrics;
pub mod net;
pub(crate) mod record;
pub mod repl;
pub mod resp;
pub mod server;
pub mod snapshot;
pub mod trace;

pub use client::{ClusterClient, ClusterClientStats, RespClient, SlowlogEntry};
pub use cluster::slots::{key_slot, NUM_SLOTS};
pub use command::{commands, Command};
pub use engine::{
    EngineConfig, EngineError, EngineResult, LogOpenCost, ShardInfo, ShardedDash, MAX_VALUE_LEN,
};
pub use expire::EvictionPolicy;
pub use repl::ReplOp;
pub use resp::{ProtocolError, Value};
pub use server::{serve, serve_with, Role, ServeOptions, ServerHandle};
pub use snapshot::SnapshotError;
pub use trace::{log::Level as LogLevel, Stage, TraceRecord, Tracer};
