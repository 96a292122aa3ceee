//! Prometheus text exposition (format 0.0.4) plus the tiny HTTP/1.0
//! response builder the accept loop serves it with.
//!
//! Rendering is a pure read of the stats table ([`super::stats`]): its
//! exported rows by place, and the labelled families written here
//! between them. Histograms are written as cumulative `_bucket`/`_sum`/
//! `_count` series (`le` in seconds). Nothing scans the keyspace, so a
//! scrape is safe at any poll frequency.

use std::fmt::Write;

use crate::server::Inner;

use super::histogram::{HistSnapshot, BOUNDS_NS, NUM_BOUNDS};
use super::stats::{Prom, Sample, ROWS, SHARD_ROWS};
use super::CmdFamily;

/// Writes one labelled family: its HELP/TYPE lines and its series.
type Family = fn(&mut String, &Sample);

/// The labelled families, each printed after the row at that place in
/// the scrape.
const FAMILIES: [(u8, Family); 3] = [(7, latency), (9, shard_series), (24, sinks)];

/// Render the whole exposition payload.
pub(crate) fn render(inner: &Inner) -> String {
    let s = Sample::new(inner);
    let mut rows: Vec<_> = ROWS.iter().filter_map(|r| Some((r.export?, r))).collect();
    rows.sort_by_key(|((at, _), _)| *at);
    let mut out = String::with_capacity(16 * 1024);
    for ((at, series), row) in rows {
        if let Some(value) = (row.read)(&s) {
            help_type(&mut out, series);
            let _ = writeln!(out, "{} {value}", series.1);
        }
        for (_, family) in FAMILIES.iter().filter(|(after, _)| *after == at) {
            family(&mut out, &s);
        }
    }
    out
}

/// Per-command latency, one series per family; then per-stage latency
/// from sampled traces, `{stage, cmd}` series for the cells a stage
/// observed — with tracing off that block is its HELP/TYPE alone.
fn latency(out: &mut String, s: &Sample) {
    let m = &s.inner.metrics;
    let name = "dash_cmd_latency_seconds";
    help_type(out, ("histogram", name, "Command execution latency at the execute seam."));
    for fam in CmdFamily::ALL {
        write_histogram(out, name, &format!("cmd=\"{}\"", fam.name()), &m.cmd_snapshot(fam));
    }
    let name = "dash_stage_seconds";
    help_type(out, ("histogram", name, "Per-stage request latency from sampled traces."));
    for stage in crate::trace::Stage::ALL {
        for fam in CmdFamily::ALL {
            let snap = m.stage_snapshot(stage, fam);
            if snap.count() > 0 {
                let labels = format!("stage=\"{}\",cmd=\"{}\"", stage.name(), fam.name());
                write_histogram(out, name, &labels, &snap);
            }
        }
    }
}

/// Every HELP/TYPE of the per-shard table, then its series shard by shard.
fn shard_series(out: &mut String, s: &Sample) {
    SHARD_ROWS.iter().for_each(|&(series, _)| help_type(out, series));
    for (i, t) in s.shards().iter().enumerate() {
        for ((_, name, _), read) in SHARD_ROWS {
            let _ = writeln!(out, "{name}{{shard=\"{i}\"}} {}", read(t));
        }
    }
}

/// Each live replica sink's lag and acknowledged position.
fn sinks(out: &mut String, s: &Sample) {
    let help = "Ops queued to a replica sink, not yet drained.";
    help_type(out, ("gauge", "dash_repl_sink_lag_ops", help));
    let help = "The sink's acknowledged stream position (offset minus lag).";
    help_type(out, ("gauge", "dash_repl_sink_offset", help));
    let offset = s.inner.engine.repl_offset();
    for (id, lag) in s.inner.engine.replica_lags() {
        let _ = writeln!(out, "dash_repl_sink_lag_ops{{sink=\"{id}\"}} {lag}");
        let acked = offset.saturating_sub(lag);
        let _ = writeln!(out, "dash_repl_sink_offset{{sink=\"{id}\"}} {acked}");
    }
}

fn help_type(out: &mut String, (kind, name, help): Prom) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// One histogram's `_bucket`/`_sum`/`_count` series under `labels`
/// (`cmd="get"`, say). Buckets are emitted cumulative with an explicit
/// `+Inf`, per the exposition format.
fn write_histogram(out: &mut String, name: &str, labels: &str, snap: &HistSnapshot) {
    let mut cum = 0u64;
    for (count, bound) in snap.counts.iter().zip(BOUNDS_NS.iter()) {
        cum += count;
        let le = *bound as f64 / 1e9;
        let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cum}");
    }
    cum += snap.counts[NUM_BOUNDS];
    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cum}");
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", snap.sum_ns as f64 / 1e9);
    let _ = writeln!(out, "{name}_count{{{labels}}} {cum}");
}

// ---- minimal HTTP/1.0 responder ------------------------------------------
//
// Just enough HTTP for `curl` and a Prometheus scraper: the request head
// is parsed for its path, the body is rendered lazily (404s never pay
// for an exposition render), and the response always closes the
// connection (HTTP/1.0, `Connection: close`).

/// Is a full request head (`...\r\n\r\n`) present in `buf`?
pub(crate) fn request_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n")
}

/// Build the full response bytes for a buffered request head.
/// `metrics_body` is only invoked for a scrape-path hit.
pub(crate) fn respond(head: &[u8], metrics_body: impl FnOnce() -> String) -> Vec<u8> {
    let line = head.split(|&b| b == b'\r').next().unwrap_or(b"");
    let mut words = line.split(|&b| b == b' ').filter(|w| !w.is_empty());
    let method = words.next().unwrap_or(b"");
    let path = words.next().unwrap_or(b"");
    if method != b"GET" {
        return http_response(405, "Method Not Allowed", "text/plain", "method not allowed\n");
    }
    match path {
        b"/metrics" | b"/" => http_response(
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &metrics_body(),
        ),
        _ => http_response(404, "Not Found", "text/plain", "not found (try /metrics)\n"),
    }
}

fn http_response(code: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_head_detection() {
        assert!(!request_complete(b"GET /metrics HTTP/1.0\r\n"));
        assert!(request_complete(b"GET /metrics HTTP/1.0\r\n\r\n"));
        assert!(request_complete(b"GET / HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n"));
    }

    #[test]
    fn routes_and_statuses() {
        let ok = respond(b"GET /metrics HTTP/1.0\r\n\r\n", || "dash_up 1\n".into());
        let text = String::from_utf8(ok).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 10\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\ndash_up 1\n"), "{text}");

        let mut rendered = false;
        let nf = respond(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", || {
            rendered = true;
            String::new()
        });
        assert!(String::from_utf8(nf).unwrap().starts_with("HTTP/1.0 404"));
        assert!(!rendered, "a 404 must not pay for an exposition render");

        let mna = respond(b"POST /metrics HTTP/1.0\r\n\r\n", String::new);
        assert!(String::from_utf8(mna).unwrap().starts_with("HTTP/1.0 405"));
    }

    #[test]
    fn histogram_series_are_cumulative_with_inf_and_count() {
        let h = super::super::histogram::Histogram::new();
        h.record(500);
        h.record(1_500);
        h.record(u64::MAX); // overflow bucket
        let mut out = String::new();
        write_histogram(&mut out, "t_seconds", "cmd=\"get\"", &h.snapshot());
        let buckets: Vec<u64> = out
            .lines()
            .filter(|l| l.starts_with("t_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(buckets.len(), NUM_BOUNDS + 1);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "buckets must be cumulative");
        assert_eq!(*buckets.last().unwrap(), 3, "+Inf bucket equals the count");
        assert!(out.contains("t_seconds_count{cmd=\"get\"} 3"), "{out}");
        assert!(out.contains("le=\"0.000001\""), "1 µs bound in seconds: {out}");
        assert!(out.contains("le=\"+Inf\""), "{out}");
        assert!(out.contains("t_seconds_sum{cmd=\"get\"}"), "{out}");
    }

    #[test]
    fn stage_series_carry_both_labels() {
        let h = super::super::histogram::Histogram::new();
        h.record(2_000);
        let mut out = String::new();
        let labels = "stage=\"persist\",cmd=\"set\"";
        write_histogram(&mut out, "dash_stage_seconds", labels, &h.snapshot());
        assert!(
            out.contains("dash_stage_seconds_bucket{stage=\"persist\",cmd=\"set\",le=\"+Inf\"} 1"),
            "{out}"
        );
        assert!(out.contains("dash_stage_seconds_count{stage=\"persist\",cmd=\"set\"} 1"), "{out}");
        assert!(out.contains("dash_stage_seconds_sum{stage=\"persist\",cmd=\"set\"}"), "{out}");
    }
}
