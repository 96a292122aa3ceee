//! The closed-loop client: stages one request unit of ops, exchanges it
//! with the system under test, times the exchange and checks every
//! reply against the model.

use std::time::Instant;

use dash_server::{EngineResult, RespClient, ShardedDash, Value};

use crate::gen::{Model, Op, OpKind};
use crate::stats::{percentile, quantile};
use crate::workload::Spec;

/// How requests reach the engine.
pub enum Link<'a> {
    Wire(RespClient),
    Direct(&'a ShardedDash),
}

pub struct Driver<'a> {
    link: Link<'a>,
    ops: Vec<Op>,
    /// Per staged op: the bytes a write sends or a read must return.
    /// Buffers are reused across units.
    bytes: Vec<Vec<u8>>,
    replies: Vec<Value>,
}

/// Ops attempted and ops that came back wrong (error reply, wrong or
/// missing value).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What the server's dispatch makes of `ShardedDash::get`.
pub fn get_reply(got: EngineResult<Option<Vec<u8>>>) -> Value {
    match got {
        Ok(Some(v)) => Value::Bulk(v),
        Ok(None) => Value::Nil,
        Err(e) => Value::Error(e.to_string()),
    }
}

/// What the server's dispatch makes of `ShardedDash::set`.
pub fn set_reply(set: EngineResult<()>) -> Value {
    match set {
        Ok(()) => Value::Simple("OK".into()),
        Err(e) => Value::Error(e.to_string()),
    }
}

/// Whether `reply` is the right answer to `op`, `want` being the bytes
/// the key holds when the op runs.
pub fn reply_is_right(op: Op, reply: &Value, want: &[u8]) -> bool {
    match (op.kind, reply) {
        (OpKind::Get, Value::Bulk(b)) => b == want,
        (OpKind::GetAbsent, Value::Nil) => true,
        (OpKind::Overwrite | OpKind::Insert, Value::Simple(s)) => s == "OK",
        _ => false,
    }
}

impl<'a> Driver<'a> {
    pub fn new(link: Link<'a>) -> Self {
        Driver { link, ops: Vec::new(), bytes: Vec::new(), replies: Vec::new() }
    }

    /// Add `op` to the unit being built. Values are fixed here, while
    /// the model is at this op's point in the stream: a later write to
    /// the same key in the same unit must not change what this op
    /// sends or expects.
    pub fn stage(&mut self, op: Op, model: &Model) {
        let slot = self.ops.len();
        if self.bytes.len() <= slot {
            self.bytes.push(Vec::new());
        }
        model.value(op.idx, &mut self.bytes[slot]);
        if let Link::Wire(client) = &mut self.link {
            let key = model.keys.key(op.idx);
            match op.kind {
                OpKind::Get | OpKind::GetAbsent => client.enqueue(&[b"GET", &key]),
                OpKind::Overwrite | OpKind::Insert => {
                    client.enqueue(&[b"SET", &key, &self.bytes[slot]]);
                }
            }
        }
        self.ops.push(op);
    }

    /// Send the staged unit and collect every reply. Returns the time
    /// from the first byte written to the last reply parsed (for direct
    /// calls: first call to last return) in ns, and the verdicts. An
    /// I/O error ends the run: a closed loop cannot continue past it.
    pub fn exchange(&mut self, model: &Model) -> Result<(u64, Tally), String> {
        self.replies.clear();
        let start = Instant::now();
        match &mut self.link {
            Link::Wire(client) => {
                client.flush().map_err(|e| format!("send: {e}"))?;
                for _ in 0..self.ops.len() {
                    self.replies.push(client.read_reply().map_err(|e| format!("reply: {e}"))?);
                }
            }
            Link::Direct(engine) => {
                for (op, bytes) in self.ops.iter().zip(&self.bytes) {
                    let key = model.keys.key(op.idx);
                    self.replies.push(match op.kind {
                        OpKind::Get | OpKind::GetAbsent => get_reply(engine.get(&key)),
                        OpKind::Overwrite | OpKind::Insert => set_reply(engine.set(&key, bytes)),
                    });
                }
            }
        }
        let ns = start.elapsed().as_nanos() as u64;
        let failed = self
            .ops
            .iter()
            .zip(&self.bytes)
            .zip(&self.replies)
            .filter(|((op, want), got)| !reply_is_right(**op, got, want))
            .count() as u64;
        let tally = Tally { attempted: self.ops.len() as u64, failed };
        self.ops.clear();
        Ok((ns, tally))
    }

    /// Read every live key of the model back and check it.
    pub fn verify_all(&mut self, model: &Model) -> Result<Tally, String> {
        let mut tally = Tally::default();
        let mut idx = 0;
        while idx < model.live_keys() {
            let end = (idx + 64).min(model.live_keys());
            for i in idx..end {
                self.stage(Op { kind: OpKind::Get, idx: i }, model);
            }
            tally.add(self.exchange(model)?.1);
            idx = end;
        }
        Ok(tally)
    }

    /// The wire client, for control commands between windows.
    pub fn client(&mut self) -> Option<&mut RespClient> {
        match &mut self.link {
            Link::Wire(c) => Some(c),
            Link::Direct(_) => None,
        }
    }

    /// The engine, when it is called directly.
    pub fn engine(&self) -> Option<&'a ShardedDash> {
        match &self.link {
            Link::Wire(_) => None,
            Link::Direct(engine) => Some(engine),
        }
    }

    /// What the server's 100 ms tick does for value-log reclamation;
    /// direct runs have no server, so the client does it between rounds.
    fn end_round(&mut self) {
        if let Link::Direct(engine) = &self.link {
            engine.reclaim_tick();
        }
    }
}

/// One timed window, a sample per round. A run reports the
/// least-disturbed decile of its rounds ([`Window::ops_per_s`] and
/// friends): on this host a round is only ever slowed by its
/// surroundings — a busy hyperthread sibling, a vCPU woken from halt, a
/// writeback burst — never sped up, so the best tenth of the rounds is
/// the code's own speed, while a change to the code moves every round.
#[derive(Default)]
pub struct Window {
    pub tally: Tally,
    /// Ops completed ÷ the round's wall time, generation and checking
    /// included (the loop is closed).
    pub round_ops_per_s: Vec<f64>,
    /// Median request-unit round trip of each round, ns.
    pub round_rtt_p50_ns: Vec<f64>,
    /// 99th-percentile round trip of each round, ns. A round has at
    /// least 1024 units, so at least ten samples lie beyond it.
    pub round_rtt_p99_ns: Vec<f64>,
}

impl Window {
    pub fn rounds(&self) -> u64 {
        self.round_ops_per_s.len() as u64
    }

    /// Upper decile of the rounds' throughput.
    pub fn ops_per_s(&self) -> f64 {
        quantile(&self.round_ops_per_s, 0.90)
    }

    /// Lower decile of the rounds' median round trip, µs.
    pub fn rtt_p50_us(&self) -> f64 {
        quantile(&self.round_rtt_p50_ns, 0.10) / 1e3
    }

    /// Lower decile of the rounds' 99th-percentile round trip, µs.
    pub fn rtt_p99_us(&self) -> f64 {
        quantile(&self.round_rtt_p99_ns, 0.10) / 1e3
    }
}

/// Drive `spec`'s op stream for at least `seconds`, in whole rounds.
/// `between_rounds` runs untimed after each round.
pub fn run_window(
    driver: &mut Driver,
    model: &mut Model,
    spec: &Spec,
    seconds: f64,
    mut between_rounds: impl FnMut(&mut Driver) -> Result<(), String>,
) -> Result<Window, String> {
    let mut w = Window::default();
    let mut rtt_ns = Vec::with_capacity(spec.units_per_round);
    let start = Instant::now();
    loop {
        let round_start = Instant::now();
        let mut round = Tally::default();
        rtt_ns.clear();
        for _ in 0..spec.units_per_round {
            for _ in 0..spec.depth {
                let op = model.next_op();
                driver.stage(op, model);
            }
            let (ns, tally) = driver.exchange(model)?;
            rtt_ns.push(ns);
            round.add(tally);
        }
        let round_secs = round_start.elapsed().as_secs_f64();
        w.round_ops_per_s.push((round.attempted - round.failed) as f64 / round_secs);
        rtt_ns.sort_unstable();
        w.round_rtt_p50_ns.push(percentile(&rtt_ns, 0.50) as f64);
        w.round_rtt_p99_ns.push(percentile(&rtt_ns, 0.99) as f64);
        w.tally.add(round);
        driver.end_round();
        between_rounds(driver)?;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(w);
        }
    }
}
