//! The server's telemetry layer: a registry-free, lock-free set of
//! counters, gauges, per-command-family latency histograms and the
//! SLOWLOG ring — everything `INFO stats` / `INFO latency`, the
//! `SLOWLOG` command and the `--metrics-addr` Prometheus endpoint read.
//!
//! Design constraints, in order:
//!
//! * **The hot path pays almost nothing.** Recording a command is one
//!   `Instant` pair around `execute`, two relaxed `fetch_add`s into a
//!   thread-local stripe ([`histogram`]) of the family its table entry
//!   ([`crate::command`]) names — no name is classified here — and one
//!   relaxed load for the slowlog threshold. No locks, no allocation, no
//!   shared cacheline between event workers.
//! * **Readers pay the aggregation.** INFO and a scrape sum the
//!   stripes; both are O(shards + buckets), never O(keys).
//! * **Nothing is counted or named twice.** The event core's health
//!   counters (`worker_panics`, `accept_errors`, ...) live in this
//!   registry, which `net/` pokes. Every number INFO, `CLUSTER INFO` and
//!   the endpoint print — from here, the engine, the tracer or the
//!   cluster — is one row of the stats table ([`stats`]): its INFO
//!   field, its Prometheus series and how to read it, declared once.

pub mod counter;
pub mod histogram;
pub mod slowlog;
pub(crate) mod prometheus;
pub(crate) mod stats;

pub use counter::{Counter, Gauge};
pub use histogram::{HistSnapshot, Histogram};
pub use slowlog::SlowLog;

use std::sync::OnceLock;

/// Per-stage latency by command family, `[stage][family]`.
type StageHists = [[Histogram; CmdFamily::COUNT]; crate::trace::Stage::COUNT];

/// Default `--slowlog-threshold-us`, and the tracer's default
/// always-capture threshold (`TRACE THRESHOLD`): 10 ms. A request slower
/// than this is logged, and traced even when the sampler did not pick it.
pub const DEFAULT_SLOWLOG_THRESHOLD_US: u64 = 10_000;

/// The command families latency is recorded under. Coarse on purpose:
/// a family is a latency *class* (point read, point write, batch read,
/// batch write, delete, iteration, replication bootstrap), not a
/// command name — `EXISTS` times like `GET` but is rare enough to pool
/// under `other` with the rest of the admin surface. Which family a
/// command belongs to is a column of the command table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdFamily {
    Get,
    Set,
    Mget,
    Mset,
    Del,
    Scan,
    Psync,
    Other,
}

impl CmdFamily {
    pub const COUNT: usize = 8;
    pub const ALL: [CmdFamily; Self::COUNT] = [
        CmdFamily::Get,
        CmdFamily::Set,
        CmdFamily::Mget,
        CmdFamily::Mset,
        CmdFamily::Del,
        CmdFamily::Scan,
        CmdFamily::Psync,
        CmdFamily::Other,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    /// The label value on the wire (`INFO latency` field prefixes and
    /// the Prometheus `cmd` label).
    pub fn name(self) -> &'static str {
        match self {
            CmdFamily::Get => "get",
            CmdFamily::Set => "set",
            CmdFamily::Mget => "mget",
            CmdFamily::Mset => "mset",
            CmdFamily::Del => "del",
            CmdFamily::Scan => "scan",
            CmdFamily::Psync => "psync",
            CmdFamily::Other => "other",
        }
    }
}

/// The server-wide metrics registry, owned by `server::Inner`.
pub struct Metrics {
    /// Connections accepted by the listener.
    pub connections_accepted: Counter,
    /// Commands decoded and executed.
    pub commands_served: Counter,
    /// Accept-loop errors survived (EMFILE and friends).
    pub accept_errors: Counter,
    /// Caught connection-handler panics plus panicked worker/stream
    /// threads found at join. Zero on a healthy server.
    pub worker_panics: Counter,
    /// Connections currently registered on an event loop.
    pub active_connections: Gauge,
    /// Replica-side reconnects to the primary (each costs a full sync).
    pub repl_reconnects: Counter,
    /// Per-family execute-seam latency, indexed by [`CmdFamily::index`].
    pub cmd_hist: [Histogram; CmdFamily::COUNT],
    /// Per-stage latency by command family, `stage_hist[stage][family]`
    /// — fed only by sampled trace completions (so the un-sampled hot
    /// path never touches it), rendered as
    /// `dash_stage_seconds{stage,cmd}` on the Prometheus endpoint.
    /// The 7×8 histograms' stripes are ~0.8 MB of heap, allocated by the
    /// first [`observe_stages`](Self::observe_stages): a server that
    /// never samples a trace never pays for them.
    stage_hist: OnceLock<Box<StageHists>>,
    /// The SLOWLOG ring.
    pub slowlog: SlowLog,
}

impl Metrics {
    pub fn new(slowlog_threshold_us: u64) -> Metrics {
        Metrics {
            connections_accepted: Counter::new(),
            commands_served: Counter::new(),
            accept_errors: Counter::new(),
            worker_panics: Counter::new(),
            active_connections: Gauge::new(),
            repl_reconnects: Counter::new(),
            cmd_hist: std::array::from_fn(|_| Histogram::new()),
            stage_hist: OnceLock::new(),
            slowlog: SlowLog::new(slowlog_threshold_us),
        }
    }

    /// Record one executed command: time it under its family, and
    /// slowlog it. Called at the `conn.rs` execute seam with the decoded
    /// command; `stages_ns` carries the stage breakdown when this request
    /// was trace-sampled, so SLOWLOG entries can explain themselves.
    #[inline]
    pub fn observe_command(
        &self,
        family: CmdFamily,
        parts: &[impl AsRef<[u8]>],
        ns: u64,
        worker: u64,
        stages_ns: Option<[u64; crate::trace::Stage::COUNT]>,
    ) {
        self.cmd_hist[family.index()].record(ns);
        self.slowlog.maybe_record(ns, parts, worker, stages_ns);
    }

    /// Feed one completed sampled span into the per-stage histograms.
    /// Runs once per *captured* trace, never on the un-sampled path.
    pub fn observe_stages(&self, family: CmdFamily, stages_ns: &[u64; crate::trace::Stage::COUNT]) {
        let hists = self.stage_hist.get_or_init(|| {
            Box::new(std::array::from_fn(|_| std::array::from_fn(|_| Histogram::new())))
        });
        for (stage_row, &ns) in hists.iter().zip(stages_ns) {
            stage_row[family.index()].record(ns);
        }
    }

    /// One family's merged latency snapshot.
    pub fn cmd_snapshot(&self, family: CmdFamily) -> HistSnapshot {
        self.cmd_hist[family.index()].snapshot()
    }

    /// One (stage, family) cell's snapshot: empty until the first
    /// sampled trace completes.
    pub fn stage_snapshot(&self, stage: crate::trace::Stage, family: CmdFamily) -> HistSnapshot {
        self.stage_hist.get().map_or_else(HistSnapshot::default, |hists| {
            hists[stage.index()][family.index()].snapshot()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_routes_to_family_and_slowlog() {
        let m = Metrics::new(0); // threshold 0: everything is "slow"
        let get = [b"GET".to_vec(), b"k".to_vec()];
        m.observe_command(CmdFamily::Get, &get, 5_000, 1, None);
        let set = [b"SET".to_vec(), b"k".to_vec(), b"v".to_vec()];
        m.observe_command(CmdFamily::Set, &set, 7_000, 2, None);
        assert_eq!(m.cmd_snapshot(CmdFamily::Get).count(), 1);
        assert_eq!(m.cmd_snapshot(CmdFamily::Set).count(), 1);
        assert_eq!(m.cmd_snapshot(CmdFamily::Other).count(), 0);
        assert_eq!(m.slowlog.len(), 2);
        assert_eq!(m.slowlog.get(1)[0].cmd, "SET");
    }

    #[test]
    fn stage_observations_land_in_their_cells_only() {
        use crate::trace::Stage;
        let m = Metrics::new(1_000_000);
        assert_eq!(m.stage_snapshot(Stage::Persist, CmdFamily::Set).count(), 0);
        assert!(m.stage_hist.get().is_none(), "nothing allocated before the first sample");
        m.observe_stages(CmdFamily::Set, &[10, 20, 30, 40, 50, 60, 70]);
        for stage in Stage::ALL {
            assert_eq!(m.stage_snapshot(stage, CmdFamily::Set).count(), 1);
            assert_eq!(m.stage_snapshot(stage, CmdFamily::Get).count(), 0);
        }
        let persist = m.stage_snapshot(Stage::Persist, CmdFamily::Set);
        assert_eq!(persist.sum_ns, 60);
    }
}
