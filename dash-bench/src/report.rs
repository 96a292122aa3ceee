//! The metric registry (the single list BENCHMARK.json and the README
//! mirror), the result line the driver reads, the flat ledger file, and
//! `--compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before a
    /// comparison calls it `worse`. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher, bound: None }
}

/// Measured with tracing off; each defined on every workload.
pub const END_TO_END: [Metric; 6] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("ops_per_s", "ops/s", Better::Higher, 0.25),
    gated("rtt_p50_us", "us", Better::Lower, 0.25),
    gated("recover_ms", "ms", Better::Lower, 0.25),
    gated("space_amp", "ratio", Better::Lower, 0.02),
    gated("load_factor", "ratio", Better::Higher, 0.03),
];

/// Measured by the traced pass (`--trace 1`); reported, never gated.
pub const PER_LAYER: [Metric; 49] = [
    lower("resp.decode_ns_per_cmd", "ns"),
    lower("resp.encode_ns_per_reply", "ns"),
    lower("resp.decode_allocs_per_cmd", "count"),
    lower("resp.encode_allocs_per_reply", "count"),
    lower("engine.get_ns_per_op", "ns"),
    lower("engine.set_ns_per_op", "ns"),
    higher("engine.insert_ops_per_s", "ops/s"),
    lower("engine.get_allocs_per_op", "count"),
    lower("engine.set_allocs_per_op", "count"),
    lower("engine.mem_used_bytes_per_key", "bytes"),
    lower("engine.splits", "count"),
    lower("engine.doublings", "count"),
    lower("engine.lock_waits", "count"),
    lower("engine.dead_bytes_end", "bytes"),
    higher("engine.reclaimed_bytes", "bytes"),
    higher("engine.compactions", "count"),
    lower("log.append_ns_per_op", "ns"),
    lower("log.bytes_per_op", "bytes"),
    lower("log.reopen_ms", "ms"),
    lower("core.get_ns_per_op", "ns"),
    lower("core.neg_get_ns_per_op", "ns"),
    lower("core.insert_ns_per_op", "ns"),
    lower("core.update_ns_per_op", "ns"),
    lower("pmem.reads_per_get", "count"),
    lower("pmem.reads_per_neg_get", "count"),
    lower("pmem.reads_per_insert", "count"),
    lower("pmem.flushes_per_insert", "count"),
    lower("pmem.fences_per_insert", "count"),
    lower("pmem.flush_bytes_per_insert", "bytes"),
    lower("pmem.flushes_per_update", "count"),
    lower("pmem.allocs_per_insert", "count"),
    lower("pmem.open_ms", "ms"),
    lower("net.rtt_p99_us", "us"),
    lower("net.self_ns_per_op", "ns"),
    lower("net.cpu_user_ns_per_op", "ns"),
    lower("net.cpu_sys_ns_per_op", "ns"),
    lower("net.ctx_switches_per_op", "count"),
    lower("server.allocs_per_op", "count"),
    lower("server.alloc_bytes_per_op", "bytes"),
    lower("client.cpu_ns_per_op", "ns"),
    lower("server.trace_overhead_pct", "%"),
    lower("server.stage.queue_wait_ns", "ns"),
    lower("server.stage.parse_ns", "ns"),
    lower("server.stage.dispatch_ns", "ns"),
    lower("server.stage.lock_wait_ns", "ns"),
    lower("server.stage.execute_ns", "ns"),
    lower("server.stage.persist_ns", "ns"),
    lower("server.stage.reply_flush_ns", "ns"),
    lower("harness.request_self_ns", "ns"),
];

/// Per-layer counts that come from single-threaded fixed-length passes
/// and must repeat bit-for-bit under one seed (`--check`).
pub const EXACT: [&str; 15] = [
    "resp.decode_allocs_per_cmd",
    "resp.encode_allocs_per_reply",
    "engine.get_allocs_per_op",
    "engine.set_allocs_per_op",
    "log.bytes_per_op",
    "pmem.reads_per_get",
    "pmem.reads_per_neg_get",
    "pmem.reads_per_insert",
    "pmem.flushes_per_insert",
    "pmem.fences_per_insert",
    "pmem.flush_bytes_per_insert",
    "pmem.flushes_per_update",
    "pmem.allocs_per_insert",
    "engine.splits",
    "engine.doublings",
];

/// One measured value and how many samples stand behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

impl Reading {
    pub fn new(name: &'static str, value: f64, samples: u64) -> Reading {
        Reading { name, value, samples }
    }

    /// `total ÷ n`, or 0 from no samples: the layer did no such work on
    /// this workload.
    pub fn per(name: &'static str, total: f64, n: u64) -> Reading {
        Reading { name, value: if n == 0 { 0.0 } else { total / n as f64 }, samples: n }
    }
}

/// What one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub readings: Vec<Reading>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed ÷ attempted: not a listed metric (it must read 0), but
    /// printed, written to the ledger and judged by `--compare`.
    fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn registry(&self) -> &'static [Metric] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The reading for every metric of this run's list, in list order;
    /// a metric the run never took reads 0 from 0 samples.
    fn complete(&self) -> impl Iterator<Item = (&'static Metric, Reading)> + '_ {
        self.registry().iter().map(|m| {
            let r = self.readings.iter().find(|r| r.name == m.name);
            (m, r.cloned().unwrap_or(Reading::new(m.name, 0.0, 0)))
        })
    }

    /// Every metric by name, with unit and sample count, for people.
    pub fn print(&self) {
        for (m, r) in self.complete() {
            println!(
                "{:<14} {:<34} {:>16} {:<6} n={}",
                self.workload,
                m.name,
                num(r.value),
                m.unit,
                r.samples
            );
        }
        println!(
            "{:<14} {:<34} {:>16} {:<6} failed={} attempted={}",
            self.workload,
            "fail_ratio",
            num(self.fail_ratio()),
            "ratio",
            self.failed,
            self.attempted
        );
    }

    /// The one-line JSON object the driver reads from the last line.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (m, r)) in self.complete().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(r.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// This run's entries of the flat ledger: `<workload>/<metric>`.
    fn ledger_entries(&self, out: &mut BTreeMap<String, f64>) {
        for (m, r) in self.complete() {
            out.insert(format!("{}/{}", self.workload, m.name), r.value);
        }
        if !self.traced {
            out.insert(format!("{}/fail_ratio", self.workload), self.fail_ratio());
        }
    }
}

/// A float with all its digits, and never `NaN`/`inf` (not JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The ledger: one flat JSON object of numbers, keys sorted.
pub fn ledger_json(seed: u64, seconds: f64, runs: &[RunResult]) -> String {
    let mut flat = BTreeMap::new();
    flat.insert("seed".to_string(), seed as f64);
    flat.insert("seconds".to_string(), seconds);
    for run in runs {
        run.ledger_entries(&mut flat);
    }
    let mut s = String::from("{\n");
    for (i, (k, v)) in flat.iter().enumerate() {
        let sep = if i + 1 == flat.len() { "" } else { "," };
        let _ = writeln!(s, "  \"{k}\": {}{sep}", num(*v));
    }
    s.push_str("}\n");
    s
}

/// Parse what [`ledger_json`] writes: one object, string keys without
/// escapes, number values. Anything else is an error, not a guess.
pub fn parse_ledger(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("ledger is not one JSON object")?;
    let mut out = BTreeMap::new();
    for entry in body.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (key, value) = entry.split_once(':').ok_or_else(|| format!("no ':' in {entry:?}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .filter(|k| !k.contains(['"', '\\']))
            .ok_or_else(|| format!("bad key {key:?}"))?;
        let value: f64 =
            value.trim().parse().map_err(|_| format!("bad number {value:?} for {key}"))?;
        if out.insert(key.to_string(), value).is_some() {
            return Err(format!("key {key} given twice"));
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Better,
}

/// `b` against baseline `a`. A metric without a relative bound
/// (`fail_ratio`) has an absolute one of 0: any non-zero `b` is worse.
pub fn judge(m: &Metric, a: f64, b: f64) -> (f64, Verdict) {
    let rel = if a == 0.0 { 0.0 } else { (b - a) / a };
    let Some(bound) = m.bound else {
        return (rel, if b > 0.0 { Verdict::Worse } else { Verdict::Ok });
    };
    let worsening = if m.better == Better::Higher { -rel } else { rel };
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Ok
    };
    (rel, verdict)
}

/// Print one row per workload × end-to-end metric; true when no row is
/// `worse`. A metric missing from either side is `worse`: a ledger that
/// stopped reporting something must not pass silently.
pub fn compare(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> bool {
    const FAIL_RATIO: Metric =
        Metric { name: "fail_ratio", unit: "ratio", better: Better::Lower, bound: None };
    let mut all_ok = true;
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for w in &crate::workload::WORKLOADS {
        for m in END_TO_END.iter().chain([&FAIL_RATIO]) {
            let key = format!("{}/{}", w.name, m.name);
            let (Some(&va), Some(&vb)) = (a.get(&key), b.get(&key)) else {
                println!("{:<14} {:<12} missing from a ledger  worse", w.name, m.name);
                all_ok = false;
                continue;
            };
            let (rel, verdict) = judge(m, va, vb);
            all_ok &= verdict != Verdict::Worse;
            println!(
                "{:<14} {:<12} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                va,
                vb,
                rel * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Better => "better",
                }
            );
        }
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &'static str, ops: f64, failed: u64) -> RunResult {
        RunResult {
            workload,
            traced: false,
            attempted: 1000,
            failed,
            readings: END_TO_END
                .iter()
                .map(|m| Reading::new(m.name, if m.name == "ops_per_s" { ops } else { 1.25 }, 10))
                .collect(),
        }
    }

    fn ledger(ops: f64, failed: u64) -> BTreeMap<String, f64> {
        let runs: Vec<RunResult> =
            crate::workload::WORKLOADS.iter().map(|w| run(w.name, ops, failed)).collect();
        parse_ledger(&ledger_json(42, 10.0, &runs)).unwrap()
    }

    #[test]
    fn ledger_round_trips_through_compare() {
        let base = ledger(450_000.123456789, 0);
        assert_eq!(base["seed"], 42.0);
        assert_eq!(base["get_pipe16/ops_per_s"], 450_000.123456789);
        assert_eq!(base["engine_direct/fail_ratio"], 0.0);
        assert!(compare(&base, &base));
        let bound = END_TO_END.iter().find(|m| m.name == "ops_per_s").unwrap().bound.unwrap();
        let down = |share: f64| ledger(450_000.0 * (1.0 - share), 0);
        assert!(compare(&base, &down(bound * 0.5)), "half the bound down is ok");
        assert!(!compare(&base, &down(bound * 1.1)), "past the bound is worse");
        assert!(compare(&base, &ledger(900_000.0, 0)), "faster is never worse");
        assert!(!compare(&base, &ledger(450_000.0, 1)), "any failure is worse");
        let mut partial = base.clone();
        partial.remove("mix_depth1/rtt_p50_us");
        assert!(!compare(&base, &partial));
    }

    #[test]
    fn judge_respects_direction() {
        let up = &END_TO_END[1];
        let down = &END_TO_END[2];
        assert_eq!((up.name, down.name), ("ops_per_s", "rtt_p50_us"));
        let past = 100.0 * (up.bound.unwrap() + 0.01);
        assert_eq!(judge(up, 100.0, 100.0 - past).1, Verdict::Worse);
        assert_eq!(judge(up, 100.0, 100.0 + past).1, Verdict::Better);
        assert_eq!(judge(down, 100.0, 100.0 + past).1, Verdict::Worse);
        assert_eq!(judge(down, 100.0, 100.0 - past).1, Verdict::Better);
        assert_eq!(judge(down, 100.0, 101.0).1, Verdict::Ok);
    }

    #[test]
    fn malformed_ledgers_are_rejected() {
        for bad in ["", "[]", "{\"a\": x}", "{\"a\" 1}", "{a: 1}", "{\"a\": 1, \"a\": 2}"] {
            assert!(parse_ledger(bad).is_err(), "{bad:?}");
        }
        assert_eq!(parse_ledger("{}").unwrap().len(), 0);
    }

    #[test]
    fn result_line_carries_every_metric_of_its_list() {
        let line = run("get_pipe16", 1.5, 0).result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0,"));
        for m in &END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)), "{}", m.name);
        }
        let traced = RunResult { traced: true, readings: vec![], ..run("get_pipe16", 1.0, 0) };
        let line = traced.result_line();
        for m in &PER_LAYER {
            assert!(line.contains(&format!("\"{}\": ", m.name)), "{}", m.name);
        }
        assert!(!run("x", 1.0, 3).correct());
    }

    #[test]
    fn registry_names_are_unique_well_formed_and_in_benchmark_json() {
        let manifest = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            let better = if m.better == Better::Higher { "higher" } else { "lower" };
            let entry = match m.bound {
                Some(b) => format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {b}}}",
                    m.name, m.unit
                ),
                None => format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                    m.name, m.unit
                ),
            };
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(manifest.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
        for w in &crate::workload::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }
}
