//! The fixed workload matrix. Every run has the same shape: one client
//! thread, closed loop, against a 2-shard file-backed store; what varies
//! is which layers do the work.

use crate::gen::Mix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One loopback connection to an in-process `serve_with` server
    /// with one event worker.
    Wire,
    /// `ShardedDash` called directly on the client thread.
    Direct,
}

pub struct Spec {
    pub name: &'static str,
    /// One line, copied into BENCHMARK.json.
    pub why: &'static str,
    pub transport: Transport,
    /// Commands in one request unit (a pipelined batch, or a chunk of
    /// direct calls): the unit `rtt_*` times.
    pub depth: usize,
    pub preload: u64,
    pub value_len: usize,
    pub mix: Mix,
    /// Request units per round; a round yields one throughput sample.
    pub units_per_round: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "get_pipe16",
        why: "depth-16 pipelined GETs of 512 B values over 100k keys: resp, net and the engine read/copy path do the work, persistence none",
        transport: Transport::Wire,
        depth: 16,
        preload: 100_000,
        value_len: 512,
        mix: Mix { get_pct: 100, absent_one_in: 0, fresh_pct: 0 },
        units_per_round: 1024,
    },
    Spec {
        name: "set_pipe16",
        why: "depth-16 pipelined SETs of 64 B over 50k keys, 98% overwrites and 2% fresh keys: shard lock, blob alloc and reclamation, table update/insert and one redo-log write per op",
        transport: Transport::Wire,
        depth: 16,
        preload: 50_000,
        value_len: 64,
        mix: Mix { get_pct: 0, absent_one_in: 0, fresh_pct: 2 },
        units_per_round: 1024,
    },
    Spec {
        name: "mix_depth1",
        why: "depth-1 90/10 GET/SET over 10k cache-resident keys: per-request fixed cost (syscalls, wake-ups, dispatch) dominates, the engine is under a tenth",
        transport: Transport::Wire,
        depth: 1,
        preload: 10_000,
        value_len: 64,
        mix: Mix { get_pct: 90, absent_one_in: 0, fresh_pct: 0 },
        units_per_round: 4096,
    },
    Spec {
        name: "engine_direct",
        why: "no sockets, no resp: 80/20 get/overwrite calls into ShardedDash over 1M keys (1 in 8 gets absent): core, pmem and the redo log do all the work",
        transport: Transport::Direct,
        depth: 16,
        preload: 1_000_000,
        value_len: 64,
        mix: Mix { get_pct: 80, absent_one_in: 8, fresh_pct: 0 },
        units_per_round: 4096,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How often a short measurement is repeated within one run (its median
/// is reported): at least `min` times, then until the repeats have
/// taken `budget_s` together, never more than `max` times. Cheap
/// set-ups and reopens so get more samples for the same time.
#[derive(Debug, Clone, Copy)]
pub struct Repeat {
    pub min: usize,
    pub max: usize,
    pub budget_s: f64,
}

impl Repeat {
    pub fn enough(&self, done: usize, total_s: f64) -> bool {
        done >= self.max || (done >= self.min && total_s >= self.budget_s)
    }
}

/// How much of everything one run does. `--smoke` shrinks it; nothing
/// else may, so two ledgers always compare like with like.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Length of the timed window.
    pub seconds: f64,
    /// Divisor on preload sizes.
    pub shrink: u64,
    /// Set-ups timed per run. At least two: recovery is measured on
    /// the first, the window runs on the last.
    pub setup: Repeat,
    /// Timed crash reopens per run, after one cold cycle that is
    /// discarded.
    pub recover: Repeat,
    /// Requests replayed under spans in the traced pass.
    pub replay_ops: u64,
}

impl Plan {
    pub fn full(seconds: f64) -> Plan {
        Plan {
            seconds,
            shrink: 1,
            setup: Repeat { min: 3, max: 15, budget_s: 3.0 },
            recover: Repeat { min: 8, max: 50, budget_s: 1.0 },
            replay_ops: 50_000,
        }
    }

    pub fn smoke() -> Plan {
        Plan {
            seconds: 0.25,
            shrink: 100,
            setup: Repeat { min: 2, max: 2, budget_s: 0.0 },
            recover: Repeat { min: 2, max: 2, budget_s: 0.0 },
            replay_ops: 500,
        }
    }

    pub fn preload(&self, spec: &Spec) -> u64 {
        (spec.preload / self.shrink).max(100)
    }
}
