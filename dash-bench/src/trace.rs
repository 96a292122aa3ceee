//! The traced pass: the benchmark stands in for the server and replays
//! a fixed number of requests on one thread, with a span around every
//! call into a layer. Spans stay in memory and are written out at the
//! end; the per-layer `ns_per_*` and count metrics are read off them.
//!
//! Three replays share one op list: the request path (`resp.decode` →
//! `engine.*` → `resp.encode` under a `request` span), the same keys
//! against a bench-owned `DashEh<VarKey>` (`core.*` spans carrying the
//! pool's counter deltas), and the writes against a bench-owned
//! `LogWriter` (`log.append`). Op counts are fixed, so the counts
//! repeat exactly.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use dash_common::VarKey;
use dash_core::{DashConfig, DashEh};
use dash_server::repl::LogWriter;
use dash_server::resp::{self, Decode};
use dash_server::{ReplOp, ShardedDash};
use pmem::{PmemPool, PoolConfig, StatsSnapshot};

use crate::alloc;
use crate::drive::{get_reply, reply_is_right, set_reply};
use crate::gen::{Model, Op, OpKind};
use crate::report::Reading;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request: u64,
    /// Ops the span covers (1, except a bulk load).
    pub ops: u64,
    /// Heap allocations made by this thread inside the span.
    pub allocs: u64,
    /// PM counter deltas over the span (`core.*` spans only).
    pub pm: Option<StatsSnapshot>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `capacity` spans are reserved up front so recording one never
    /// allocates inside another.
    pub fn new(capacity: usize) -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    /// Open a span; the clock is read last so bookkeeping stays outside.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
            ops: 1,
            allocs: alloc::this_thread().allocs,
            pm: None,
        });
        let id = self.spans.len() - 1;
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    /// Close a span; the clock is read first.
    pub fn close(&mut self, id: usize) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = alloc::this_thread().allocs - span.allocs;
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Mean duration per op over the spans called `name`.
    pub fn ns_per_op(&self, metric: &'static str, name: &str) -> Reading {
        let (ns, ops) = self.named(name).fold((0, 0), |(ns, ops), s| (ns + s.ns(), ops + s.ops));
        Reading::per(metric, ns as f64, ops)
    }

    pub fn allocs_per_op(&self, metric: &'static str, name: &str) -> Reading {
        let (n, ops) = self.named(name).fold((0, 0), |(n, ops), s| (n + s.allocs, ops + s.ops));
        Reading::per(metric, n as f64, ops)
    }

    /// Mean of one PM counter per op over the spans called `name`.
    pub fn pm_per_op(
        &self,
        metric: &'static str,
        name: &str,
        counter: fn(&StatsSnapshot) -> u64,
    ) -> Reading {
        let (n, ops) = self
            .named(name)
            .fold((0, 0), |(n, ops), s| (n + s.pm.as_ref().map_or(0, counter), ops + s.ops));
        Reading::per(metric, n as f64, ops)
    }

    /// Mean self time per op over the spans called `name`: a span's
    /// duration minus the part its child spans cover.
    pub fn self_ns_per_op(&self, metric: &'static str, name: &str) -> Reading {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(parent) = s.parent {
                covered[parent] += s.ns();
            }
        }
        let (ns, ops) = self
            .spans
            .iter()
            .zip(covered)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(ns, ops), (s, c)| (ns + s.ns().saturating_sub(c), ops + s.ops));
        Reading::per(metric, ns as f64, ops)
    }

    /// One JSON object per line, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"ops\":{},\"allocs\":{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.ops,
                s.allocs,
            )?;
            if let Some(pm) = &s.pm {
                write!(
                    out,
                    ",\"pm_reads\":{},\"pm_read_bytes\":{},\"flushes\":{},\"flush_bytes\":{},\"fences\":{},\"pm_allocs\":{}",
                    pm.pm_reads, pm.pm_read_bytes, pm.flushes, pm.flush_bytes, pm.fences, pm.allocs
                )?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Replay `n` requests of the model's stream through codec and engine,
/// the benchmark standing in for the server's connection loop. Returns
/// the ops replayed and how many replies were wrong.
pub fn replay_requests(
    rec: &mut Recorder,
    engine: &ShardedDash,
    model: &mut Model,
    n: u64,
) -> (Vec<Op>, u64) {
    let mut ops = Vec::with_capacity(n as usize);
    let (mut wire_in, mut wire_out, mut value) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0;
    for request in 0..n {
        let op = model.next_op();
        ops.push(op);
        model.value(op.idx, &mut value);
        let key = model.keys.key(op.idx);
        let is_get = matches!(op.kind, OpKind::Get | OpKind::GetAbsent);
        wire_in.clear();
        if is_get {
            resp::encode_command(&[b"GET", &key], &mut wire_in);
        } else {
            resp::encode_command(&[b"SET", &key, &value], &mut wire_in);
        }
        wire_out.clear();

        let req = rec.open("request", None, request);
        let span = rec.open("resp.decode", Some(req), request);
        let decoded = resp::decode_command(&wire_in);
        rec.close(span);
        let Ok(Decode::Complete(parts, _)) = decoded else {
            rec.close(req);
            failed += 1;
            continue;
        };
        let reply = if is_get {
            let span = rec.open("engine.get", Some(req), request);
            let got = engine.get(&parts[1]);
            rec.close(span);
            get_reply(got)
        } else {
            let span = rec.open("engine.set", Some(req), request);
            let set = engine.set(&parts[1], &parts[2]);
            rec.close(span);
            set_reply(set)
        };
        let span = rec.open("resp.encode", Some(req), request);
        resp::encode(&reply, &mut wire_out);
        rec.close(span);
        rec.close(req);

        failed += u64::from(!reply_is_right(op, &reply, &value));
    }
    (ops, failed)
}

/// Replay the same keys against a bench-owned table on a bench-owned
/// pool: a bulk `core.load` of the preloaded keys, then one `core.*`
/// span per op, each carrying the pool's counter deltas. Returns the
/// number of ops whose outcome was wrong.
pub fn replay_table(rec: &mut Recorder, model: &Model, ops: &[Op]) -> Result<u64, String> {
    let pool = PmemPool::create(PoolConfig::with_size(crate::store::SHARD_BYTES))
        .map_err(|e| format!("core pool: {e}"))?;
    let table: DashEh<VarKey> = DashEh::create(pool.clone(), DashConfig::default())
        .map_err(|e| format!("core table: {e}"))?;
    let key_of = |idx: u64| VarKey::new(model.keys.key(idx).to_vec());
    let mut failed = 0;

    let keys: Vec<VarKey> = (0..model.preloaded()).map(key_of).collect();
    let before = pool.stats();
    let load = rec.open("core.load", None, 0);
    for (idx, key) in keys.iter().enumerate() {
        failed += u64::from(table.insert(key, idx as u64).is_err());
    }
    rec.close(load);
    rec.spans[load].ops = keys.len() as u64;
    rec.spans[load].pm = Some(pool.stats().since(&before));
    drop(keys);

    for (request, op) in ops.iter().enumerate() {
        let key = key_of(op.idx);
        let name = match op.kind {
            OpKind::Get => "core.get",
            OpKind::GetAbsent => "core.neg_get",
            OpKind::Overwrite => "core.update",
            OpKind::Insert => "core.insert",
        };
        let before = pool.stats();
        let span = rec.open(name, None, request as u64);
        let ok = match op.kind {
            OpKind::Get => table.get(&key).is_some(),
            OpKind::GetAbsent => table.get(&key).is_none(),
            OpKind::Overwrite => table.update(&key, request as u64),
            OpKind::Insert => table.insert(&key, request as u64).is_ok(),
        };
        rec.close(span);
        rec.spans[span].pm = Some(pool.stats().since(&before));
        failed += u64::from(!ok);
    }
    Ok(failed)
}

/// Replay the writes against a bench-owned redo log in `dir`: one
/// `log.append` span per record, the engine's own one-`write(2)`-per-
/// record policy.
pub fn replay_log(rec: &mut Recorder, model: &Model, ops: &[Op], dir: &Path) -> Result<(), String> {
    let (mut log, _) = LogWriter::open(&dir.join("bench-repl.log"), 0, None)
        .map_err(|e| format!("bench log: {e}"))?;
    let mut value = Vec::new();
    for (request, op) in ops.iter().enumerate() {
        if matches!(op.kind, OpKind::Get | OpKind::GetAbsent) {
            continue;
        }
        // The replayed model is past these ops; any version's bytes
        // have the record's length, which is all an append depends on.
        model.value(op.idx, &mut value);
        let record = ReplOp::Set { key: model.keys.key(op.idx).to_vec(), value: value.clone() };
        let span = rec.open("log.append", None, request as u64);
        let appended = log.append(&record);
        rec.close(span);
        appended.map_err(|e| format!("bench log append: {e}"))?;
    }
    Ok(())
}

/// Time the two open calls recovery is made of, each alone, over the
/// store in `dir` (which must not be open).
pub fn time_opens(dir: &Path) -> Result<(f64, f64), String> {
    let mut pool_ms = 0.0;
    let mut log_ms = 0.0;
    for shard in 0..crate::store::SHARDS {
        let start = Instant::now();
        let pool =
            PmemPool::open_file(&dir.join(format!("shard-{shard}.pool")), PoolConfig::default())
                .map_err(|e| format!("open_file: {e}"))?;
        pool_ms += start.elapsed().as_secs_f64() * 1e3;
        drop(pool);
        let start = Instant::now();
        let log = LogWriter::open(&dir.join(format!("repl-{shard}.log")), shard as u32, None)
            .map_err(|e| format!("log open: {e}"))?;
        log_ms += start.elapsed().as_secs_f64() * 1e3;
        drop(log);
    }
    Ok((pool_ms, log_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new(8);
        let parent = rec.open("request", None, 1);
        let a = rec.open("resp.decode", Some(parent), 1);
        rec.close(a);
        let b = rec.open("engine.get", Some(parent), 1);
        rec.close(b);
        rec.close(parent);
        // Fix the clock readings so the arithmetic is checkable.
        (rec.spans[parent].start_ns, rec.spans[parent].end_ns) = (100, 1100);
        (rec.spans[a].start_ns, rec.spans[a].end_ns) = (150, 350);
        (rec.spans[b].start_ns, rec.spans[b].end_ns) = (400, 1000);
        assert_eq!(rec.self_ns_per_op("m", "request").value, (1000 - 200 - 600) as f64);
        assert_eq!(rec.self_ns_per_op("m", "resp.decode").value, 200.0);
        let r = rec.ns_per_op("m", "engine.get");
        assert_eq!((r.value, r.samples), (600.0, 1));
        assert_eq!(rec.ns_per_op("m", "absent").samples, 0);
    }

    #[test]
    fn spans_count_this_threads_allocations() {
        let mut rec = Recorder::new(4);
        let s = rec.open("x", None, 0);
        let v = std::hint::black_box(vec![1u8; 100]);
        rec.close(s);
        drop(v);
        assert_eq!(rec.spans[s].allocs, 1);
        let quiet = rec.open("y", None, 0);
        rec.close(quiet);
        assert_eq!(rec.spans[quiet].allocs, 0);
    }
}
