//! The observability surface over the wire: SLOWLOG ring semantics
//! (wrap, reset, id monotonicity), Prometheus exposition validity under
//! live load, the sectioned INFO layout, every exported name pinned in
//! order, and — ignored by default — the proof that the default INFO
//! payload no longer scales with key count.
#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dash_repro::{serve_with, EngineConfig, RespClient, ServeOptions, ServerHandle, ShardedDash};

mod common;
use common::TempDir;

/// An in-memory server with the telemetry knobs under test.
fn telemetry_server(shards: usize, shard_mb: usize, opts: ServeOptions) -> ServerHandle {
    let engine = ShardedDash::open(&EngineConfig {
        shards,
        shard_bytes: shard_mb << 20,
        dir: None,
        ..EngineConfig::default()
    })
    .unwrap();
    serve_with(engine, "127.0.0.1:0", opts).unwrap()
}

/// Scrape `GET <path>` from the metrics endpoint: `(status_line, body)`.
fn http_get(addr: std::net::SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("response must have a header block");
    (head.lines().next().unwrap_or_default().to_string(), body.to_string())
}

#[test]
fn slowlog_wraps_resets_and_keeps_ids_monotonic_over_tcp() {
    // Threshold 0: every command is slow, so the ring (cap 128) wraps
    // deterministically.
    let server = telemetry_server(
        2,
        16,
        ServeOptions { slowlog_threshold_us: Some(0), ..Default::default() },
    );
    let mut c = RespClient::connect(server.addr()).unwrap();
    const ISSUED: usize = 300; // well past the 128-entry cap
    for i in 0..ISSUED {
        c.enqueue(&[b"SET", format!("slow:{i:04}").as_bytes(), b"v"]);
    }
    c.flush().unwrap();
    for _ in 0..ISSUED {
        c.read_reply().unwrap();
    }

    // Wrap: the ring retains exactly its capacity, not everything.
    let len = c.slowlog_len().unwrap();
    assert_eq!(len, 128, "ring must hold exactly SLOWLOG_CAP after {ISSUED} slow commands");

    // Newest first, ids strictly decreasing, and the newest id proves
    // eviction didn't recycle ids (300 commands → ids past 128).
    let entries = c.slowlog_get(10).unwrap();
    assert_eq!(entries.len(), 10);
    for pair in entries.windows(2) {
        assert!(pair[0].id > pair[1].id, "GET must be newest-first: {pair:?}");
    }
    assert!(
        entries[0].id >= ISSUED as i64 - 1,
        "ids must be monotonic across wrap, got newest {}",
        entries[0].id
    );
    // The entry carries the command, the key prefix and a worker id.
    let set_entry = entries.iter().find(|e| e.cmd == "SET").expect("a SET must be in the log");
    assert!(set_entry.key.starts_with("slow:"), "{set_entry:?}");
    assert!(set_entry.worker >= 0);

    // RESET clears the ring; ids keep counting (Redis semantics). The
    // RESET/LEN commands are themselves over-threshold at 0 µs, so the
    // ring isn't empty when LEN executes — but it must be tiny.
    let newest_before_reset = entries[0].id;
    c.slowlog_reset().unwrap();
    let len_after = c.slowlog_len().unwrap();
    assert!(len_after <= 2, "RESET must clear the ring, LEN saw {len_after}");
    c.command(&[b"SET", b"after-reset", b"v"]).unwrap();
    let after = c.slowlog_get(128).unwrap();
    assert!(!after.iter().any(|e| e.key == "slow:0000"), "old entries must be gone");
    assert!(
        after.iter().all(|e| e.id > newest_before_reset),
        "ids must keep counting across RESET: {after:?}"
    );

    // Bad argument shape is an error, not a hangup.
    let reply = c.command(&[b"SLOWLOG", b"GET", b"wat"]).unwrap();
    assert!(matches!(reply, dash_repro::dash_server::Value::Error(_)), "{reply:?}");
    server.shutdown();
}

#[test]
fn slowlog_default_threshold_ignores_fast_commands() {
    // Default threshold is 10 ms; in-memory point ops are microseconds.
    let server = telemetry_server(2, 16, ServeOptions::default());
    let mut c = RespClient::connect(server.addr()).unwrap();
    for i in 0..200u32 {
        c.command(&[b"SET", format!("fast:{i}").as_bytes(), b"v"]).unwrap();
    }
    assert_eq!(c.slowlog_len().unwrap(), 0, "fast commands must not be logged");
    server.shutdown();
}

#[test]
fn prometheus_scrape_is_valid_and_cumulative_under_load() {
    let server = telemetry_server(
        2,
        16,
        ServeOptions { metrics_addr: Some("127.0.0.1:0".into()), ..Default::default() },
    );
    let metrics_addr = server.metrics_addr().expect("metrics endpoint must be bound");
    let addr = server.addr();

    // Live writers during the scrape: the endpoint shares the accept
    // loop, so it must stay responsive and consistent mid-load.
    let stop = AtomicBool::new(false);
    let body = std::thread::scope(|s| {
        for t in 0..2 {
            let stop = &stop;
            s.spawn(move || {
                let mut c = RespClient::connect(addr).unwrap();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("load:{t}:{i}");
                    c.command(&[b"SET", key.as_bytes(), b"value-under-load"]).unwrap();
                    c.command(&[b"GET", key.as_bytes()]).unwrap();
                    i += 1;
                }
            });
        }
        // Let some load accrue, then scrape a few times.
        std::thread::sleep(Duration::from_millis(100));
        let mut last_body = String::new();
        for _ in 0..3 {
            let (status, body) = http_get(metrics_addr, "GET /metrics HTTP/1.0\r\n\r\n");
            assert_eq!(status, "HTTP/1.0 200 OK");
            last_body = body;
        }
        stop.store(true, Ordering::Relaxed);
        last_body
    });

    // Core series are present.
    assert!(body.contains("dash_cmd_latency_seconds_bucket"), "{body}");
    assert!(body.lines().any(|l| l == "dash_worker_panics_total 0"), "{body}");
    assert!(body.contains("dash_connections_accepted_total"), "{body}");
    assert!(body.contains("dash_shard_keys"), "{body}");
    assert!(body.contains("dash_eh_splits_total"), "{body}");

    // Histogram validity per command family: `le` bounds strictly
    // increasing, bucket values cumulative (non-decreasing), the +Inf
    // bucket equal to _count, and _sum present.
    for cmd in ["get", "set"] {
        let bucket_prefix = format!("dash_cmd_latency_seconds_bucket{{cmd=\"{cmd}\",le=\"");
        let mut last_le = f64::NEG_INFINITY;
        let mut last_value = 0u64;
        let mut inf_value = None;
        let mut buckets = 0;
        for line in body.lines() {
            let Some(rest) = line.strip_prefix(&bucket_prefix) else { continue };
            let (le_str, value_str) = rest.split_once("\"} ").unwrap();
            let value: u64 = value_str.parse().unwrap();
            assert!(value >= last_value, "buckets must be cumulative: {line}");
            last_value = value;
            buckets += 1;
            if le_str == "+Inf" {
                inf_value = Some(value);
            } else {
                let le: f64 = le_str.parse().unwrap();
                assert!(le > last_le, "le bounds must increase: {line}");
                last_le = le;
            }
        }
        assert!(buckets > 10, "family {cmd} must expose its bucket series");
        let count_line = format!("dash_cmd_latency_seconds_count{{cmd=\"{cmd}\"}} ");
        let count: u64 = body
            .lines()
            .find_map(|l| l.strip_prefix(&count_line))
            .expect("_count must be present")
            .parse()
            .unwrap();
        assert_eq!(inf_value, Some(count), "family {cmd}: +Inf bucket must equal _count");
        assert!(count > 0, "family {cmd} saw live load");
        let sum_line = format!("dash_cmd_latency_seconds_sum{{cmd=\"{cmd}\"}} ");
        assert!(body.lines().any(|l| l.starts_with(&sum_line)), "_sum must be present");
    }

    // Routing: unknown paths 404, non-GET 405 — and neither kills the
    // endpoint for the next scrape.
    let (status, _) = http_get(metrics_addr, "GET /nope HTTP/1.0\r\n\r\n");
    assert_eq!(status, "HTTP/1.0 404 Not Found");
    let (status, _) = http_get(metrics_addr, "POST /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(status, "HTTP/1.0 405 Method Not Allowed");
    let (status, _) = http_get(metrics_addr, "GET / HTTP/1.0\r\n\r\n");
    assert_eq!(status, "HTTP/1.0 200 OK");
    server.shutdown();
}

#[test]
fn info_is_sectioned_and_typed_accessors_read_it() {
    let server = telemetry_server(2, 16, ServeOptions::default());
    let mut c = RespClient::connect(server.addr()).unwrap();
    c.command(&[b"SET", b"k1", b"v"]).unwrap();
    c.command(&[b"GET", b"k1"]).unwrap();

    // Default INFO: every cheap section, no scan_len.
    let info = c.info().unwrap();
    for section in ["# dash-server", "# replication", "# stats", "# latency", "# shards"] {
        assert!(info.contains(section), "default INFO must embed {section}: {info}");
    }
    assert!(!info.contains("scan_len"), "default INFO must not pay the O(keys) scan");

    // Section fetchers return just their section.
    let stats = c.stats_info().unwrap();
    assert!(stats.starts_with("# stats"), "{stats}");
    assert!(stats.contains("commands_served:"), "{stats}");
    assert!(stats.contains("eh_splits:"), "{stats}");
    assert!(stats.contains("epoch_pins:"), "{stats}");
    let latency = c.latency_info().unwrap();
    assert!(latency.starts_with("# latency"), "{latency}");
    assert!(latency.contains("cmd_get_count:"), "{latency}");
    assert!(latency.contains("cmd_get_p99_us:"), "after a GET there is a GET p99: {latency}");
    assert!(latency.contains("cmd_all_count:"), "{latency}");
    let keyspace = c.keyspace_info().unwrap();
    assert!(keyspace.starts_with("# keyspace"), "{keyspace}");
    assert!(keyspace.contains("scan_len:1"), "{keyspace}");

    // Typed accessors.
    assert_eq!(c.stat_u64("worker_panics").unwrap(), 0);
    assert_eq!(c.stat_u64("accept_errors").unwrap(), 0);
    assert!(c.stat_u64("commands_served").unwrap() > 0);
    assert!(c.stat_u64("epoch_pins").unwrap() > 0, "GET/SET pin the epoch");

    // Unknown sections are a clean error.
    let reply = c.command(&[b"INFO", b"bogus"]).unwrap();
    assert!(matches!(reply, dash_repro::dash_server::Value::Error(_)), "{reply:?}");
    server.shutdown();
}

/// "Is group commit working" on a live server: records ÷ flushes. A
/// pipeline's records leave in far fewer `write(2)` calls than there are
/// records; the same ops one per round trip cost one call each.
#[test]
fn log_flushes_show_the_batching_factor() {
    const OPS: u64 = 16 * 32;
    let dir = TempDir::new("telemetry-flushes");
    let engine = ShardedDash::open(&EngineConfig {
        shards: 2,
        shard_bytes: 16 << 20,
        dir: Some(dir.path.clone()),
        ..EngineConfig::default()
    })
    .unwrap();
    let server = serve_with(
        engine,
        "127.0.0.1:0",
        ServeOptions {
            event_workers: Some(1),
            metrics_addr: Some("127.0.0.1:0".into()),
            ..Default::default()
        },
    )
    .unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();
    let key = |i: u64| format!("flush:{:03}", i % 64).into_bytes();

    // Depth 16: each batch reaches the server as one burst.
    for batch in 0..OPS / 16 {
        for i in 0..16 {
            c.enqueue(&[b"SET", &key(batch * 16 + i), b"pipelined"]);
        }
        c.flush().unwrap();
        for _ in 0..16 {
            c.read_reply().unwrap();
        }
    }
    let (records, flushes) = (c.repl_offset().unwrap(), c.repl_log_flushes().unwrap());
    assert_eq!(records, OPS);
    assert!(
        flushes < records,
        "a depth-16 pipeline must share log writes: {flushes} flushes for {records} records"
    );

    // Depth 1: nothing to share a write with.
    for i in 0..OPS {
        c.command(&[b"SET", &key(i), b"alone"]).unwrap();
    }
    let (records2, flushes2) = (c.repl_offset().unwrap(), c.repl_log_flushes().unwrap());
    assert_eq!(records2 - records, OPS);
    assert_eq!(
        flushes2 - flushes,
        OPS,
        "one op per round trip is one log write per op (write-through by construction)"
    );

    // The same counter, next to the record count, on the metrics endpoint.
    let (_, body) = http_get(server.metrics_addr().unwrap(), "GET /metrics HTTP/1.0\r\n\r\n");
    assert!(body.contains(&format!("dash_repl_log_flushes_total {flushes2}")), "{body}");
    assert!(body.contains(&format!("dash_repl_offset {records2}")), "{body}");
    assert_eq!(c.info_field("log_append_errors").unwrap().as_deref(), Some("0"));
    server.shutdown();
}

/// The lookup hint's batching, visible: commands that arrive one per
/// round trip are never hinted (a lone command has nothing to overlap
/// with), and a depth-16 pipeline is hinted a window at a time — keys
/// per window is the pipeline depth the server actually saw.
#[test]
fn prefetch_counters_show_the_window_depth() {
    const DEPTH: u64 = 16;
    const BATCHES: u64 = 64;
    let server = telemetry_server(
        2,
        16,
        ServeOptions {
            event_workers: Some(1),
            metrics_addr: Some("127.0.0.1:0".into()),
            ..Default::default()
        },
    );
    let mut c = RespClient::connect(server.addr()).unwrap();
    let key = |i: u64| format!("hint:{:03}", i % 200).into_bytes();

    for i in 0..200 {
        c.command(&[b"SET", &key(i), b"value"]).unwrap();
        c.command(&[b"GET", &key(i)]).unwrap();
    }
    assert_eq!(c.stat_u64("prefetch_windows").unwrap(), 0, "depth 1 forms no window");
    assert_eq!(c.stat_u64("prefetch_keys").unwrap(), 0);

    for batch in 0..BATCHES {
        for i in 0..DEPTH {
            c.enqueue(&[b"GET", &key(batch * DEPTH + i)]);
        }
        c.flush().unwrap();
        for _ in 0..DEPTH {
            assert_eq!(c.read_reply().unwrap(), dash_repro::dash_server::Value::bulk(*b"value"));
        }
    }
    let (windows, keys) =
        (c.stat_u64("prefetch_windows").unwrap(), c.stat_u64("prefetch_keys").unwrap());
    // A batch normally arrives whole; one that TCP delivered in two
    // pieces makes two smaller windows (or a window and a lone command).
    assert!((BATCHES..=BATCHES * 3 / 2).contains(&windows), "{windows} windows");
    assert!(keys <= BATCHES * DEPTH && keys >= windows * 10, "{keys} keys in {windows} windows");

    let (_, body) = http_get(server.metrics_addr().unwrap(), "GET /metrics HTTP/1.0\r\n\r\n");
    assert!(body.contains(&format!("dash_prefetch_windows_total {windows}")), "{body}");
    assert!(body.contains(&format!("dash_prefetch_keys_total {keys}")), "{body}");
    server.shutdown();
}

/// The acceptance gate for the INFO redesign: the default payload's cost
/// must not scale with key count, while `INFO keyspace` (which carries
/// the scan ground truth) visibly does. Ignored by default — loading
/// 500k keys takes a few seconds; CI runs it via `--ignored`.
#[test]
#[ignore]
fn default_info_cost_does_not_scale_with_keys() {
    let server = telemetry_server(4, 256, ServeOptions::default());
    let mut c = RespClient::connect(server.addr()).unwrap();

    let load = |c: &mut RespClient, from: u32, to: u32| {
        let mut n = from;
        while n < to {
            let batch = 512.min(to - n);
            for i in n..n + batch {
                c.enqueue(&[b"SET", format!("key:{i:08}").as_bytes(), b"x"]);
            }
            c.flush().unwrap();
            for _ in 0..batch {
                c.read_reply().unwrap();
            }
            n += batch;
        }
    };
    let median_us = |c: &mut RespClient, cmd: &[&[u8]]| -> u64 {
        let mut times: Vec<u64> = (0..15)
            .map(|_| {
                let t0 = Instant::now();
                c.command(cmd).unwrap();
                t0.elapsed().as_micros() as u64
            })
            .collect();
        times.sort_unstable();
        times[times.len() / 2]
    };

    load(&mut c, 0, 10_000);
    let default_10k = median_us(&mut c, &[b"INFO"]);
    load(&mut c, 10_000, 500_000);
    let default_500k = median_us(&mut c, &[b"INFO"]);
    let keyspace_500k = median_us(&mut c, &[b"INFO", b"keyspace"]);
    println!(
        "INFO timings: default@10k {default_10k} us, default@500k {default_500k} us, \
         keyspace@500k {keyspace_500k} us"
    );

    // 50x the data must not mean 50x the default INFO. Allow 10x plus a
    // grace floor so scheduler noise on a µs-scale payload can't flake.
    assert!(
        default_500k < default_10k * 10 + 2_000,
        "default INFO scaled with keys: {default_10k} us @10k vs {default_500k} us @500k"
    );
    // The opt-in section really does pay the O(keys) scan.
    assert!(
        keyspace_500k > default_500k * 3,
        "INFO keyspace must cost visibly more than default INFO at 500k keys \
         ({keyspace_500k} us vs {default_500k} us)"
    );
    server.shutdown();
}

/// An INFO payload as its ordered field names, `# section` headers kept.
fn info_names(text: &str) -> Vec<String> {
    text.lines()
        .map(|l| l.trim_end())
        .map(|l| if l.starts_with('#') { l } else { l.split_once(':').map_or(l, |(k, _)| k) })
        .map(str::to_string)
        .collect()
}

/// A scrape as its ordered `# HELP`/`# TYPE` lines and series names:
/// values are dropped, the `le` label too, and consecutive repeats
/// collapse, so one histogram family is three entries.
fn series_names(body: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in body.lines() {
        let name = if line.starts_with('#') {
            line.to_string()
        } else {
            let series = line.rsplit_once(' ').map_or(line, |(s, _)| s);
            match series.split_once(",le=") {
                Some((head, _)) => format!("{head}}}"),
                None => series.to_string(),
            }
        };
        if out.last() != Some(&name) {
            out.push(name);
        }
    }
    out
}

/// `got` must be the concatenation of the `want` fixtures' lines.
fn assert_surface(what: &str, got: Vec<String>, want: &[&str]) {
    let want: Vec<&str> = want.iter().flat_map(|w| w.lines()).collect();
    assert_eq!(got, want, "{what} drifted from the pinned surface:\n{}", got.join("\n"));
}

/// The exported surface, pinned: every INFO and `CLUSTER INFO` field
/// name, every Prometheus `# HELP`/`# TYPE` line and every series name,
/// in order, on a 2-shard primary with one replica attached, on that
/// replica, and on a cluster node. CI scripts and `dash-bench` find their
/// numbers by these names, so renaming one is a change to this fixture.
#[test]
fn exported_names_match_the_pinned_surface() {
    let metrics =
        || ServeOptions { metrics_addr: Some("127.0.0.1:0".into()), ..Default::default() };
    let primary = telemetry_server(2, 16, metrics());
    let mut c = RespClient::connect(primary.addr()).unwrap();
    // One command of every latency family but PSYNC, so each has quantiles.
    for cmd in [
        &[&b"SET"[..], b"k", b"v"][..],
        &[b"GET", b"k"],
        &[b"MSET", b"a", b"1", b"b", b"2"],
        &[b"MGET", b"a", b"b"],
        &[b"DEL", b"a"],
        &[b"SCAN", b"0"],
        &[b"PING"],
    ] {
        c.command(cmd).unwrap();
    }
    let replica = telemetry_server(
        2,
        16,
        ServeOptions { replica_of: Some(primary.addr().to_string()), ..Default::default() },
    );
    let mut rc = RespClient::connect(replica.addr()).unwrap();
    let t0 = Instant::now();
    while rc.repl_offset().unwrap() < c.repl_offset().unwrap()
        || c.connected_replicas().unwrap() == 0
    {
        assert!(t0.elapsed() < Duration::from_secs(20), "replica never caught up");
        std::thread::sleep(Duration::from_millis(20));
    }
    let info = |c: &mut RespClient, cmd: &[&[u8]]| match c.command(cmd).unwrap() {
        dash_repro::dash_server::Value::Bulk(text) => info_names(&String::from_utf8(text).unwrap()),
        other => panic!("{cmd:?}: {other:?}"),
    };

    let sections = [INFO_REPLICATION, INFO_STATS, INFO_MEMORY, INFO_LATENCY];
    let mut default = vec![INFO_SERVER];
    default.extend(sections);
    default.push(INFO_SHARDS);
    assert_surface("INFO", info(&mut c, &[b"INFO"]), &default);
    for (name, want) in ["replication", "stats", "memory", "latency"].into_iter().zip(sections) {
        assert_surface(name, info(&mut c, &[b"INFO", name.as_bytes()]), &[want]);
    }
    assert_surface("keyspace", info(&mut c, &[b"INFO", b"keyspace"]), &[INFO_KEYSPACE]);
    assert_surface(
        "replica INFO replication",
        info(&mut rc, &[b"INFO", b"replication"]),
        &[INFO_REPLICATION, INFO_REPLICATION_REPLICA_TAIL],
    );
    let (_, body) = http_get(primary.metrics_addr().unwrap(), "GET /metrics HTTP/1.0\r\n\r\n");
    assert_surface("/metrics", series_names(&body), &[METRICS_HEAD, METRICS_SINK, METRICS_TAIL]);
    replica.shutdown();
    primary.shutdown();

    let node = telemetry_server(
        2,
        16,
        ServeOptions { cluster_announce: Some("auto".into()), ..metrics() },
    );
    let mut nc = RespClient::connect(node.addr()).unwrap();
    let addr = node.addr().to_string();
    nc.command(&[b"CLUSTER", b"ASSIGN", b"0", b"16383", addr.as_bytes()]).unwrap();
    nc.command(&[b"SET", b"k", b"v"]).unwrap();
    assert_surface("CLUSTER INFO", info(&mut nc, &[b"CLUSTER", b"INFO"]), &[CLUSTER_INFO]);
    let (_, body) = http_get(node.metrics_addr().unwrap(), "GET /metrics HTTP/1.0\r\n\r\n");
    assert_surface(
        "cluster /metrics",
        series_names(&body),
        &[METRICS_HEAD, METRICS_TAIL, METRICS_CLUSTER],
    );
    node.shutdown();
}

// ---- the pinned surface (values ignored) -----------------------------------

/// Default `INFO`: these, then the replication, stats, memory and latency sections, then `INFO_SHARDS`.
const INFO_SERVER: &str = "\
# dash-server
shards
keys
recovered_shards
event_workers";
const INFO_REPLICATION: &str = "\
# replication
role
repl_offset
connected_replicas
log_append_errors
repl_log_flushes
repl_log_bytes
repl_log_segments
repl_log_open_scanned_bytes
repl_log_open_us";
/// What a replica's `INFO replication` adds.
const INFO_REPLICATION_REPLICA_TAIL: &str = "\
master_addr
master_link";
/// With one replica attached: its sink is the last line.
const INFO_STATS: &str = "\
# stats
connections_accepted
commands_served
active_connections
accept_errors
worker_panics
slowlog_len
slowlog_threshold_us
trace_enabled
trace_sample_every
traces_captured
traces_abandoned
prefetch_windows
prefetch_keys
epoch_pins
write_lock_waits
eh_splits
eh_doublings
eh_merges
blob_bytes_net
expired_keys
evicted_keys
oom_rejections
compactions
reclaimed_bytes
repl_reconnects
replica_sink0";
const INFO_MEMORY: &str = "\
# memory
maxmemory
maxmemory_policy
mem_used_bytes
dead_bytes
expire_wheel_entries
shard0
shard1";
/// Every family but `psync` has run, so each of those has quantiles.
const INFO_LATENCY: &str = "\
# latency
cmd_get_count
cmd_get_p50_us
cmd_get_p99_us
cmd_get_p999_us
cmd_set_count
cmd_set_p50_us
cmd_set_p99_us
cmd_set_p999_us
cmd_mget_count
cmd_mget_p50_us
cmd_mget_p99_us
cmd_mget_p999_us
cmd_mset_count
cmd_mset_p50_us
cmd_mset_p99_us
cmd_mset_p999_us
cmd_del_count
cmd_del_p50_us
cmd_del_p99_us
cmd_del_p999_us
cmd_scan_count
cmd_scan_p50_us
cmd_scan_p99_us
cmd_scan_p999_us
cmd_psync_count
cmd_psync_p50_us
cmd_psync_p99_us
cmd_psync_p999_us
cmd_other_count
cmd_other_p50_us
cmd_other_p99_us
cmd_other_p999_us
cmd_all_count
cmd_all_p50_us
cmd_all_p99_us
cmd_all_p999_us";
const INFO_SHARDS: &str = "\
# shards
shard0
shard1";
const INFO_KEYSPACE: &str = "\
# keyspace
keys
scan_len
shard0_keys
shard1_keys";
const CLUSTER_INFO: &str = "\
# cluster
cluster_enabled
cluster_state
cluster_announce
cluster_epoch
cluster_slots_assigned
cluster_slots_owned
cluster_known_nodes
moved_redirects
ask_redirects
migrations_started
migrations_completed
migrations_failed
keys_migrated
migration_active
migration_state
import_active";
/// `/metrics` up to the replica sinks.
const METRICS_HEAD: &str = "\
# HELP dash_connections_accepted_total Connections accepted.
# TYPE dash_connections_accepted_total counter
dash_connections_accepted_total
# HELP dash_commands_served_total Commands decoded and executed.
# TYPE dash_commands_served_total counter
dash_commands_served_total
# HELP dash_accept_errors_total Accept-loop errors survived (EMFILE and friends).
# TYPE dash_accept_errors_total counter
dash_accept_errors_total
# HELP dash_worker_panics_total Caught connection-handler and worker panics.
# TYPE dash_worker_panics_total counter
dash_worker_panics_total
# HELP dash_active_connections Connections currently registered on an event loop.
# TYPE dash_active_connections gauge
dash_active_connections
# HELP dash_event_workers Event-loop worker pool size.
# TYPE dash_event_workers gauge
dash_event_workers
# HELP dash_slowlog_len Entries currently retained in the SLOWLOG ring.
# TYPE dash_slowlog_len gauge
dash_slowlog_len
# HELP dash_cmd_latency_seconds Command execution latency at the execute seam.
# TYPE dash_cmd_latency_seconds histogram
dash_cmd_latency_seconds_bucket{cmd=\"get\"}
dash_cmd_latency_seconds_sum{cmd=\"get\"}
dash_cmd_latency_seconds_count{cmd=\"get\"}
dash_cmd_latency_seconds_bucket{cmd=\"set\"}
dash_cmd_latency_seconds_sum{cmd=\"set\"}
dash_cmd_latency_seconds_count{cmd=\"set\"}
dash_cmd_latency_seconds_bucket{cmd=\"mget\"}
dash_cmd_latency_seconds_sum{cmd=\"mget\"}
dash_cmd_latency_seconds_count{cmd=\"mget\"}
dash_cmd_latency_seconds_bucket{cmd=\"mset\"}
dash_cmd_latency_seconds_sum{cmd=\"mset\"}
dash_cmd_latency_seconds_count{cmd=\"mset\"}
dash_cmd_latency_seconds_bucket{cmd=\"del\"}
dash_cmd_latency_seconds_sum{cmd=\"del\"}
dash_cmd_latency_seconds_count{cmd=\"del\"}
dash_cmd_latency_seconds_bucket{cmd=\"scan\"}
dash_cmd_latency_seconds_sum{cmd=\"scan\"}
dash_cmd_latency_seconds_count{cmd=\"scan\"}
dash_cmd_latency_seconds_bucket{cmd=\"psync\"}
dash_cmd_latency_seconds_sum{cmd=\"psync\"}
dash_cmd_latency_seconds_count{cmd=\"psync\"}
dash_cmd_latency_seconds_bucket{cmd=\"other\"}
dash_cmd_latency_seconds_sum{cmd=\"other\"}
dash_cmd_latency_seconds_count{cmd=\"other\"}
# HELP dash_stage_seconds Per-stage request latency from sampled traces.
# TYPE dash_stage_seconds histogram
# HELP dash_traces_captured_total Request spans captured into the flight recorder.
# TYPE dash_traces_captured_total counter
dash_traces_captured_total
# HELP dash_traces_abandoned_total Captured spans whose reply flush was never observed.
# TYPE dash_traces_abandoned_total counter
dash_traces_abandoned_total
# HELP dash_shard_keys Keys per shard (O(shards) counters, no scan).
# TYPE dash_shard_keys gauge
# HELP dash_shard_capacity_slots Table slot capacity per shard.
# TYPE dash_shard_capacity_slots gauge
# HELP dash_shard_load_factor keys / capacity_slots per shard.
# TYPE dash_shard_load_factor gauge
# HELP dash_shard_blob_bytes Net record bytes (header, key and value) written minus retired since open.
# TYPE dash_shard_blob_bytes gauge
# HELP dash_blob_dead_bytes Dead (retired, unreclaimed) record bytes per shard.
# TYPE dash_blob_dead_bytes gauge
# HELP dash_eh_splits_total Dash-EH segment splits since open.
# TYPE dash_eh_splits_total counter
# HELP dash_eh_doublings_total Dash-EH directory doublings since open.
# TYPE dash_eh_doublings_total counter
# HELP dash_eh_merges_total Dash-EH segment merges since open.
# TYPE dash_eh_merges_total counter
# HELP dash_write_lock_waits_total Shard write-lock acquisitions that had to wait.
# TYPE dash_write_lock_waits_total counter
# HELP dash_epoch_pins_total Epoch pins taken by engine operations.
# TYPE dash_epoch_pins_total counter
dash_shard_keys{shard=\"0\"}
dash_shard_capacity_slots{shard=\"0\"}
dash_shard_load_factor{shard=\"0\"}
dash_shard_blob_bytes{shard=\"0\"}
dash_blob_dead_bytes{shard=\"0\"}
dash_eh_splits_total{shard=\"0\"}
dash_eh_doublings_total{shard=\"0\"}
dash_eh_merges_total{shard=\"0\"}
dash_write_lock_waits_total{shard=\"0\"}
dash_epoch_pins_total{shard=\"0\"}
dash_shard_keys{shard=\"1\"}
dash_shard_capacity_slots{shard=\"1\"}
dash_shard_load_factor{shard=\"1\"}
dash_shard_blob_bytes{shard=\"1\"}
dash_blob_dead_bytes{shard=\"1\"}
dash_eh_splits_total{shard=\"1\"}
dash_eh_doublings_total{shard=\"1\"}
dash_eh_merges_total{shard=\"1\"}
dash_write_lock_waits_total{shard=\"1\"}
dash_epoch_pins_total{shard=\"1\"}
# HELP dash_maxmemory_bytes Configured memory budget (0 = unlimited).
# TYPE dash_maxmemory_bytes gauge
dash_maxmemory_bytes
# HELP dash_mem_used_bytes Pool bytes counted against the budget: table, records and pending frees.
# TYPE dash_mem_used_bytes gauge
dash_mem_used_bytes
# HELP dash_expire_wheel_entries Timer-wheel entries queued for active expiry.
# TYPE dash_expire_wheel_entries gauge
dash_expire_wheel_entries
# HELP dash_expired_keys_total Keys removed because their TTL deadline passed (lazy + active + sweep).
# TYPE dash_expired_keys_total counter
dash_expired_keys_total
# HELP dash_evicted_keys_total Keys evicted by the maxmemory policy.
# TYPE dash_evicted_keys_total counter
dash_evicted_keys_total
# HELP dash_oom_rejections_total Writes rejected with -OOM (eviction could not make room).
# TYPE dash_oom_rejections_total counter
dash_oom_rejections_total
# HELP dash_compactions_total Record reclamation passes that freed space.
# TYPE dash_compactions_total counter
dash_compactions_total
# HELP dash_reclaimed_bytes_total Bytes returned to the free lists by reclamation.
# TYPE dash_reclaimed_bytes_total counter
dash_reclaimed_bytes_total
# HELP dash_prefetch_windows_total Lookup hints issued for two or more keys (pipeline windows and multi-key calls).
# TYPE dash_prefetch_windows_total counter
dash_prefetch_windows_total
# HELP dash_prefetch_keys_total Keys those hints covered.
# TYPE dash_prefetch_keys_total counter
dash_prefetch_keys_total
# HELP dash_repl_offset Replication stream offset (ops since store creation).
# TYPE dash_repl_offset counter
dash_repl_offset
# HELP dash_repl_log_flushes_total write(2) calls the redo logs issued for records since open (records per flush is the group-commit batching factor).
# TYPE dash_repl_log_flushes_total counter
dash_repl_log_flushes_total
# HELP dash_repl_connected_replicas Live replica streams.
# TYPE dash_repl_connected_replicas gauge
dash_repl_connected_replicas
# HELP dash_log_append_errors_total Redo-log records dropped by a failed write (ops applied, records missing).
# TYPE dash_log_append_errors_total counter
dash_log_append_errors_total
# HELP dash_repl_reconnects_total Replica-side reconnects to the primary.
# TYPE dash_repl_reconnects_total counter
dash_repl_reconnects_total
# HELP dash_repl_sink_lag_ops Ops queued to a replica sink, not yet drained.
# TYPE dash_repl_sink_lag_ops gauge
# HELP dash_repl_sink_offset The sink's acknowledged stream position (offset minus lag).
# TYPE dash_repl_sink_offset gauge";
/// One attached replica's sink series.
const METRICS_SINK: &str = "\
dash_repl_sink_lag_ops{sink=\"0\"}
dash_repl_sink_offset{sink=\"0\"}";
const METRICS_TAIL: &str = "\
# HELP dash_repl_log_bytes Total bytes across the per-shard redo logs.
# TYPE dash_repl_log_bytes gauge
dash_repl_log_bytes
# HELP dash_repl_log_segments Sealed redo-log segments on disk across shards.
# TYPE dash_repl_log_segments gauge
dash_repl_log_segments
# HELP dash_repl_log_open_scanned_bytes Redo-log bytes read and validated by the last store open (bounded by the segment cap per shard).
# TYPE dash_repl_log_open_scanned_bytes gauge
dash_repl_log_open_scanned_bytes
# HELP dash_repl_log_open_us Microseconds the last store open spent reopening the redo logs.
# TYPE dash_repl_log_open_us gauge
dash_repl_log_open_us";
/// What a cluster node exports after `METRICS_TAIL`.
const METRICS_CLUSTER: &str = "\
# HELP dash_cluster_enabled 1 when this server runs in cluster mode.
# TYPE dash_cluster_enabled gauge
dash_cluster_enabled
# HELP dash_cluster_epoch Slot-map epoch (bumps on every topology change).
# TYPE dash_cluster_epoch gauge
dash_cluster_epoch
# HELP dash_cluster_slots_assigned Slots with a known owner in this node's map.
# TYPE dash_cluster_slots_assigned gauge
dash_cluster_slots_assigned
# HELP dash_cluster_slots_owned Slots this node owns.
# TYPE dash_cluster_slots_owned gauge
dash_cluster_slots_owned
# HELP dash_cluster_moved_redirects_total MOVED redirects issued.
# TYPE dash_cluster_moved_redirects_total counter
dash_cluster_moved_redirects_total
# HELP dash_cluster_ask_redirects_total ASK redirects issued.
# TYPE dash_cluster_ask_redirects_total counter
dash_cluster_ask_redirects_total
# HELP dash_cluster_migrations_started_total Slot migrations started on this node (source side).
# TYPE dash_cluster_migrations_started_total counter
dash_cluster_migrations_started_total
# HELP dash_cluster_migrations_completed_total Slot migrations completed (ownership flipped).
# TYPE dash_cluster_migrations_completed_total counter
dash_cluster_migrations_completed_total
# HELP dash_cluster_migrations_failed_total Slot migrations aborted before the flip.
# TYPE dash_cluster_migrations_failed_total counter
dash_cluster_migrations_failed_total
# HELP dash_cluster_keys_migrated_total Keys streamed to migration targets (bulk + tail).
# TYPE dash_cluster_keys_migrated_total counter
dash_cluster_keys_migrated_total
# HELP dash_cluster_migration_active 1 while an outbound slot migration is running.
# TYPE dash_cluster_migration_active gauge
dash_cluster_migration_active";
