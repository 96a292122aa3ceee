//! `dash-loadgen` — multi-connection load generator for `dash-server`.
//!
//! Drives a running server with the same deterministic key machinery the
//! offline benches use (`dash_common::workload`): a fixed keyspace of
//! unique keys, a configurable GET/SET mix, uniform or Zipfian key
//! popularity, and pipelined connections. Every value is a pure function
//! of its key, so *any* GET that returns data can be verified exactly —
//! even under concurrent writers — and `--verify-all` can prove after a
//! server restart that no acknowledged write was lost.
//!
//! Exit status: 0 on success, 1 on any error / mismatch / zero
//! throughput, 2 on bad usage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dash_common::{cli, mix64, uniform_keys, ZipfGenerator};
use dash_server::{ClusterClient, RespClient, Value};

const USAGE: &str = "\
dash-loadgen — load generator and checker for dash-server

USAGE:
    dash-loadgen [OPTIONS]

OPTIONS:
    --addr HOST:PORT  server address (default 127.0.0.1:6379)
    --conns N         concurrent connections (default 4)
    --ops N           total timed operations across all connections
                      (default 100000)
    --read-pct P      percentage of GETs, 0-100 (default 90)
    --keys N          keyspace size (default 10000)
    --value-size B    value size in bytes (default 64)
    --pipeline D      commands per pipelined batch (default 16)
    --batch N         multi-key mode: issue MGET/MSET of N keys per
                      command. Runs TWO timed phases over --ops each —
                      N-deep pipelined singles, then N-key batches —
                      and reports both throughputs side by side
    --latency-sample N  after the timed run, measure N single-command
                      round trips at pipeline depth 1 and report
                      per-op latency percentiles (default 1000;
                      0 disables)
    --latency-rate R  coordinated-omission-safe latency mode: issue the
                      --latency-sample ops on a FIXED arrival schedule
                      of R ops/sec and measure each from its intended
                      start time, so a stalled server accrues queueing
                      delay instead of silently skipping arrivals
                      (0 = closed-loop sampling, the default)
    --assert-p99-us N fail the run (exit 1) if the sampled per-op p99
                      latency exceeds N microseconds — a regression
                      tripwire for CI and the soak tests (requires a
                      latency sample; 0 disables, the default)
    --ttl-spread LO:HI
                      attach a TTL to every SET: PX with a duration
                      drawn uniformly from [LO, HI] milliseconds.
                      Implies --cache (expired keys come back Nil)
    --cache           cache-mode accounting: a Nil GET is an expired or
                      evicted key (counted, not an error), an -OOM SET
                      reply is an OOM rejection (counted, not an
                      error), and --verify-all tolerates missing keys —
                      surviving keys must still be byte-exact. Use when
                      the server runs with --max-memory or the run sets
                      TTLs
    --zipf THETA      Zipfian skew in (0,1); omitted = uniform
    --seed S          keyspace seed (default 42)
    --preload         SET the whole keyspace before the timed run
    --verify-all      after the run, GET every key and require the
                      exact expected value (use after --preload, or
                      across a server restart)
    --verify-scan     after the run, enumerate the whole store with
                      cursor SCAN and require (a) every preloaded key
                      to appear, (b) the deduplicated key count to
                      match DBSIZE (use after --preload on an
                      otherwise-quiet server)
    --snapshot PATH   after the run, issue `SNAPSHOT PATH` (the server
                      writes an online checksummed backup to PATH on
                      its filesystem)
    --verify-snapshot PATH  read the snapshot file at PATH locally,
                      verify its checksum, and require every preloaded
                      key to be present with its exact expected value
    --wait-sync ADDR  after the timed run, poll until the replica at
                      ADDR reports the same repl_offset as the primary
                      at --addr (fails after 60s) — the catch-up gate
                      the failover drill needs before killing a primary
    --cluster         cluster mode: --addr is a comma-separated seed
                      list; every connection is a cluster client that
                      follows MOVED (updating its slot cache), retries
                      ASK with ASKING, and waits out TRYAGAIN. The run
                      reports redirect counts and the p99 inside the
                      migration window (first to last redirected op),
                      and fails on any detected redirect loop.
                      --preload/--verify-all route through redirects;
                      --verify-scan enumerates EVERY node and proves
                      each key is served exactly once
    --wait-migration ADDR
                      after the timed run, poll CLUSTER INFO on ADDR
                      until its outbound migration completes (fails on
                      a failed migration or after 120s)
    --trace-sample N  enable server-side request tracing (TRACE ON
                      SAMPLE N: every Nth request gets per-stage
                      latency attribution) for the run, then fetch
                      TRACE DUMP and print a stage-latency table;
                      --json gains a \"server_trace\" object. In
                      cluster mode the first seed is traced
    --cmd COMMAND     send one command (words split on whitespace) to
                      --addr before anything else and print the reply;
                      an error reply fails the run. Example:
                      --cmd 'REPLICAOF NO ONE' promotes a replica
    --json PATH       write a machine-readable run summary to PATH:
                      per-phase throughput and op/error counts, the
                      per-op latency percentiles (p50/p95/p99/p999,
                      CO-safe when --latency-rate is set), and the
                      overall pass/fail — what CI archives as an
                      artifact next to the human-readable log
    -h, --help        show this help";

#[derive(Clone)]
struct Config {
    addr: String,
    conns: usize,
    ops: usize,
    read_pct: u32,
    keys: usize,
    value_size: usize,
    pipeline: usize,
    batch: Option<usize>,
    latency_sample: usize,
    latency_rate: f64,
    assert_p99_us: u64,
    zipf: Option<f64>,
    ttl_spread: Option<(u64, u64)>,
    cache: bool,
    seed: u64,
    preload: bool,
    verify_all: bool,
    verify_scan: bool,
    snapshot: Option<String>,
    verify_snapshot: Option<String>,
    wait_sync: Option<String>,
    cluster: bool,
    wait_migration: Option<String>,
    trace_sample: u64,
    cmd: Option<String>,
    json: Option<String>,
}

fn parse_config() -> Config {
    let args = cli::parse_or_exit(
        USAGE,
        &[
            "addr",
            "conns",
            "ops",
            "read-pct",
            "keys",
            "value-size",
            "pipeline",
            "batch",
            "latency-sample",
            "latency-rate",
            "assert-p99-us",
            "zipf",
            "ttl-spread",
            "seed",
            "snapshot",
            "verify-snapshot",
            "wait-sync",
            "wait-migration",
            "trace-sample",
            "cmd",
            "json",
        ],
        &["preload", "verify-all", "verify-scan", "cluster", "cache"],
        0,
    );
    let cfg = Config {
        addr: args.flag_str("addr", "127.0.0.1:6379"),
        conns: args.flag_or_exit("conns", 4, USAGE),
        ops: args.flag_or_exit("ops", 100_000, USAGE),
        read_pct: args.flag_or_exit("read-pct", 90, USAGE),
        keys: args.flag_or_exit("keys", 10_000, USAGE),
        value_size: args.flag_or_exit("value-size", 64, USAGE),
        pipeline: args.flag_or_exit("pipeline", 16, USAGE),
        batch: match args.flag_opt("batch") {
            None => None,
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => cli::exit_usage(&format!("invalid value {v:?} for --batch (need N >= 1)"), USAGE),
            },
        },
        latency_sample: args.flag_or_exit("latency-sample", 1_000, USAGE),
        latency_rate: match args.flag_opt("latency-rate") {
            None => 0.0,
            Some(v) => match v.parse::<f64>() {
                Ok(r) if r > 0.0 => r,
                _ => cli::exit_usage(
                    &format!("invalid value {v:?} for --latency-rate (need R > 0)"),
                    USAGE,
                ),
            },
        },
        assert_p99_us: args.flag_or_exit("assert-p99-us", 0, USAGE),
        zipf: match args.flag_opt("zipf") {
            None => None,
            Some(v) => match v.parse::<f64>() {
                Ok(t) if t > 0.0 && t < 1.0 => Some(t),
                _ => cli::exit_usage(
                    &format!("invalid value {v:?} for --zipf (need 0 < theta < 1)"),
                    USAGE,
                ),
            },
        },
        ttl_spread: match args.flag_opt("ttl-spread") {
            None => None,
            Some(v) => match v.split_once(':').and_then(|(lo, hi)| {
                let lo = lo.parse::<u64>().ok()?;
                let hi = hi.parse::<u64>().ok()?;
                (lo >= 1 && hi >= lo).then_some((lo, hi))
            }) {
                Some(range) => Some(range),
                None => cli::exit_usage(
                    &format!("invalid value {v:?} for --ttl-spread (need LO:HI ms, 1 <= LO <= HI)"),
                    USAGE,
                ),
            },
        },
        cache: args.switch("cache"),
        seed: args.flag_or_exit("seed", 42, USAGE),
        preload: args.switch("preload"),
        verify_all: args.switch("verify-all"),
        verify_scan: args.switch("verify-scan"),
        snapshot: args.flag_opt("snapshot").map(str::to_owned),
        verify_snapshot: args.flag_opt("verify-snapshot").map(str::to_owned),
        wait_sync: args.flag_opt("wait-sync").map(str::to_owned),
        cluster: args.switch("cluster"),
        wait_migration: args.flag_opt("wait-migration").map(str::to_owned),
        trace_sample: args.flag_or_exit("trace-sample", 0, USAGE),
        cmd: args.flag_opt("cmd").map(str::to_owned),
        json: args.flag_opt("json").map(str::to_owned),
    };
    if cfg.ttl_spread.is_some() && cfg.cluster {
        cli::exit_usage("--ttl-spread is single-node; not supported with --cluster", USAGE);
    }
    if cfg.conns == 0 || cfg.keys == 0 || cfg.pipeline == 0 {
        cli::exit_usage("--conns, --keys and --pipeline must be at least 1", USAGE);
    }
    if cfg.read_pct > 100 {
        cli::exit_usage("--read-pct must be 0-100", USAGE);
    }
    if cfg.cluster {
        if cfg.batch.is_some() {
            cli::exit_usage("--batch is multi-key (CROSSSLOT); not supported with --cluster", USAGE);
        }
        if cfg.wait_sync.is_some() || cfg.snapshot.is_some() || cfg.verify_snapshot.is_some() {
            cli::exit_usage(
                "--wait-sync/--snapshot/--verify-snapshot are single-node checks; not supported with --cluster",
                USAGE,
            );
        }
        if cfg.latency_rate > 0.0 {
            cli::exit_usage(
                "--latency-rate sampling is single-node; not supported with --cluster (per-op latencies come from the timed run)",
                USAGE,
            );
        }
    }
    cfg
}

fn key_bytes(stem: u64) -> Vec<u8> {
    format!("key:{stem:016x}").into_bytes()
}

/// The value every writer stores under `stem`: a pure function of the
/// key, so reads verify exactly regardless of which connection wrote.
fn value_bytes(stem: u64, size: usize) -> Vec<u8> {
    stem.to_le_bytes().iter().copied().cycle().take(size).collect()
}

impl Config {
    /// Cache-mode accounting: Nil GETs and -OOM SET replies are
    /// expected outcomes (expiry/eviction at work), not errors.
    fn cache_mode(&self) -> bool {
        self.cache || self.ttl_spread.is_some()
    }
}

#[derive(Default)]
struct Tally {
    gets: u64,
    sets: u64,
    hits: u64,
    errors: u64,
    /// Cache mode: GETs answered Nil because the key expired or was
    /// evicted (includes keys simply never written when !--preload).
    expired_or_evicted: u64,
    /// Cache mode: SETs rejected with -OOM (eviction couldn't keep up).
    oom_rejections: u64,
    /// Batch round-trip times, microseconds.
    batch_rtt_us: Vec<u64>,
}

/// Check one reply against what the op must produce; returns false on
/// any server error, protocol surprise, or value mismatch. When the
/// keyspace was preloaded every key is known present, so a Nil GET is a
/// lost acknowledged write — an error, not a miss. Cache mode relaxes
/// exactly two outcomes: a Nil GET is an expired/evicted key and an
/// `-OOM` SET reply is the budget holding the line — both counted, and
/// any value that IS returned must still be byte-exact.
fn check_reply(
    reply: &Value,
    expected: Option<&[u8]>,
    preloaded: bool,
    cache_mode: bool,
    tally: &mut Tally,
) -> bool {
    match (reply, expected) {
        (Value::Simple(s), None) => s == "OK",
        (Value::Error(e), None) if cache_mode && e.starts_with("OOM") => {
            tally.oom_rejections += 1;
            true
        }
        (Value::Nil, Some(_)) => {
            if cache_mode {
                tally.expired_or_evicted += 1;
                true
            } else {
                !preloaded
            }
        }
        (Value::Bulk(got), Some(want)) => {
            let matches = got.as_slice() == want;
            if matches {
                tally.hits += 1;
            }
            matches
        }
        _ => false,
    }
}

fn run_connection(cfg: &Config, stems: &[u64], conn_id: usize, my_ops: usize) -> std::io::Result<Tally> {
    let mut client = RespClient::connect(cfg.addr.as_str())?;
    let mut tally = Tally::default();
    let mut zipf = cfg
        .zipf
        .map(|theta| ZipfGenerator::new(stems.len(), theta, mix64(cfg.seed ^ conn_id as u64) | 1));
    let mut rng = mix64(cfg.seed ^ (conn_id as u64).wrapping_mul(0x9E37)) | 1;
    let mut done = 0usize;
    while done < my_ops {
        let batch = cfg.pipeline.min(my_ops - done);
        // (is_get, key stem) per op in the batch.
        let mut ops = Vec::with_capacity(batch);
        for _ in 0..batch {
            rng = mix64(rng);
            let idx = match &mut zipf {
                Some(z) => z.next_index(),
                None => ((rng >> 8) % stems.len() as u64) as usize,
            };
            let stem = stems[idx];
            let is_get = (rng % 100) < cfg.read_pct as u64;
            let key = key_bytes(stem);
            if is_get {
                client.enqueue(&[b"GET", &key]);
            } else {
                let value = value_bytes(stem, cfg.value_size);
                match cfg.ttl_spread {
                    None => client.enqueue(&[b"SET", &key, &value]),
                    Some((lo, hi)) => {
                        let px = lo + mix64(rng ^ 0x7711) % (hi - lo + 1);
                        client.enqueue(&[b"SET", &key, &value, b"PX", px.to_string().as_bytes()]);
                    }
                }
            }
            ops.push((is_get, stem));
        }
        let t0 = Instant::now();
        client.flush()?;
        for (is_get, stem) in &ops {
            let reply = client.read_reply()?;
            let expected = if *is_get { Some(value_bytes(*stem, cfg.value_size)) } else { None };
            if *is_get {
                tally.gets += 1;
            } else {
                tally.sets += 1;
            }
            if !check_reply(&reply, expected.as_deref(), cfg.preload, cfg.cache_mode(), &mut tally)
            {
                tally.errors += 1;
            }
        }
        tally.batch_rtt_us.push(t0.elapsed().as_micros() as u64);
        done += batch;
    }
    Ok(tally)
}

/// One connection's share of the **multi-key** phase: each command is an
/// MGET or MSET of `--batch` keys (kind chosen per command by the
/// read/write mix), and every element of the multi-key reply is verified
/// exactly — order, presence, and value.
fn run_connection_batched(
    cfg: &Config,
    stems: &[u64],
    conn_id: usize,
    my_ops: usize,
) -> std::io::Result<Tally> {
    let mut client = RespClient::connect(cfg.addr.as_str())?;
    let mut tally = Tally::default();
    let n = cfg.batch.expect("batched runner requires --batch");
    let mut zipf = cfg
        .zipf
        .map(|theta| ZipfGenerator::new(stems.len(), theta, mix64(cfg.seed ^ conn_id as u64) | 1));
    let mut rng = mix64(cfg.seed ^ (conn_id as u64).wrapping_mul(0x9E37)) | 1;
    let mut done = 0usize;
    while done < my_ops {
        let batch = n.min(my_ops - done);
        rng = mix64(rng);
        let is_get = (rng % 100) < cfg.read_pct as u64;
        let mut batch_stems = Vec::with_capacity(batch);
        for _ in 0..batch {
            rng = mix64(rng);
            let idx = match &mut zipf {
                Some(z) => z.next_index(),
                None => ((rng >> 8) % stems.len() as u64) as usize,
            };
            batch_stems.push(stems[idx]);
        }
        let keys: Vec<Vec<u8>> = batch_stems.iter().map(|s| key_bytes(*s)).collect();
        let t0 = Instant::now();
        if is_get {
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let values = client.mget(&refs)?;
            tally.gets += batch as u64;
            for (stem, got) in batch_stems.iter().zip(values) {
                match got {
                    Some(v) if v == value_bytes(*stem, cfg.value_size) => tally.hits += 1,
                    None if cfg.cache_mode() => tally.expired_or_evicted += 1,
                    None if !cfg.preload => {} // legitimately absent
                    _ => tally.errors += 1,
                }
            }
        } else {
            let values: Vec<Vec<u8>> =
                batch_stems.iter().map(|s| value_bytes(*s, cfg.value_size)).collect();
            let pairs: Vec<(&[u8], &[u8])> =
                keys.iter().zip(&values).map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
            client.mset(&pairs)?;
            tally.sets += batch as u64;
        }
        tally.batch_rtt_us.push(t0.elapsed().as_micros() as u64);
        done += batch;
    }
    Ok(tally)
}

/// One connection's redirect-aware numbers from the cluster timed run.
#[derive(Default)]
struct ClusterTally {
    /// `(latency_us, this op saw a MOVED/ASK redirect)` per op, in
    /// issue order — the redirect flags bracket the migration window.
    ops: Vec<(u64, bool)>,
    /// Final cumulative client stats (moved/ask/tryagain/refreshes).
    stats: dash_server::ClusterClientStats,
    /// Ops abandoned because redirects never converged — any nonzero
    /// count fails the run: it means the slot map chased its own tail.
    redirect_loops: u64,
}

/// Merged cluster numbers for the report and the `--json` summary.
struct ClusterSummary {
    moved: u64,
    ask: u64,
    tryagain: u64,
    refreshes: u64,
    redirect_loops: u64,
    /// p99 of ops inside the migration window — between each
    /// connection's first and last redirected op. `None` when the run
    /// saw no redirects at all.
    migration_window_p99_us: Option<u64>,
}

/// One connection's share of the cluster timed run: sequential
/// (depth-1) GET/SET through a [`ClusterClient`], timing each op and
/// noting whether it was redirected. No pipelining — a redirect means
/// re-sending to another node, so depth 1 is the honest measurement.
fn run_connection_cluster(
    cfg: &Config,
    stems: &[u64],
    conn_id: usize,
    my_ops: usize,
) -> std::io::Result<(Tally, ClusterTally)> {
    let mut client =
        ClusterClient::connect(cfg.addr.as_str(), std::time::Duration::from_secs(5))?;
    let mut tally = Tally::default();
    let mut ct = ClusterTally { ops: Vec::with_capacity(my_ops), ..Default::default() };
    let mut zipf = cfg
        .zipf
        .map(|theta| ZipfGenerator::new(stems.len(), theta, mix64(cfg.seed ^ conn_id as u64) | 1));
    let mut rng = mix64(cfg.seed ^ (conn_id as u64).wrapping_mul(0x9E37)) | 1;
    for _ in 0..my_ops {
        rng = mix64(rng);
        let idx = match &mut zipf {
            Some(z) => z.next_index(),
            None => ((rng >> 8) % stems.len() as u64) as usize,
        };
        let stem = stems[idx];
        let is_get = (rng % 100) < cfg.read_pct as u64;
        let key = key_bytes(stem);
        let before = client.stats();
        let t0 = Instant::now();
        let result: std::io::Result<bool> = if is_get {
            tally.gets += 1;
            client.get(&key).map(|got| match got {
                Some(v) if v == value_bytes(stem, cfg.value_size) => {
                    tally.hits += 1;
                    true
                }
                None => !cfg.preload, // a Nil after --preload is a lost write
                Some(_) => false,
            })
        } else {
            tally.sets += 1;
            client.set(&key, &value_bytes(stem, cfg.value_size)).map(|()| true)
        };
        let us = t0.elapsed().as_micros() as u64;
        let after = client.stats();
        ct.ops.push((us, after.moved + after.ask > before.moved + before.ask));
        match result {
            Ok(true) => {}
            Ok(false) => tally.errors += 1,
            Err(e) => {
                tally.errors += 1;
                if e.to_string().contains("redirect loop") {
                    ct.redirect_loops += 1;
                }
            }
        }
    }
    ct.stats = client.stats();
    Ok((tally, ct))
}

/// The cluster analogue of [`timed_phase`]: runs the redirect-aware
/// per-connection workers, merges their tallies, prints the report
/// (including the migration-window p99), and returns the summaries plus
/// the flat per-op latency pool (reused as the latency sample — the run
/// is already depth 1, so every op IS a per-op round trip).
fn timed_phase_cluster(
    cfg: &Config,
    stems: &[u64],
) -> (PhaseSummary, ClusterSummary, Vec<u64>, bool) {
    let label = "cluster run";
    let per = cfg.ops / cfg.conns;
    let t0 = Instant::now();
    let results: Vec<std::io::Result<(Tally, ClusterTally)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|conn_id| {
                let (cfg, stems) = (cfg, stems);
                let my_ops =
                    if conn_id == cfg.conns - 1 { cfg.ops - per * (cfg.conns - 1) } else { per };
                s.spawn(move || run_connection_cluster(cfg, stems, conn_id, my_ops))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let elapsed = t0.elapsed();

    let mut total = Tally::default();
    let mut io_errors = 0u64;
    let mut cluster = ClusterSummary {
        moved: 0,
        ask: 0,
        tryagain: 0,
        refreshes: 0,
        redirect_loops: 0,
        migration_window_p99_us: None,
    };
    let mut all_lats: Vec<u64> = Vec::new();
    let mut window_lats: Vec<u64> = Vec::new();
    for r in results {
        match r {
            Ok((t, ct)) => {
                total.gets += t.gets;
                total.sets += t.sets;
                total.hits += t.hits;
                total.errors += t.errors;
                cluster.moved += ct.stats.moved;
                cluster.ask += ct.stats.ask;
                cluster.tryagain += ct.stats.tryagain;
                cluster.refreshes += ct.stats.refreshes;
                cluster.redirect_loops += ct.redirect_loops;
                all_lats.extend(ct.ops.iter().map(|(us, _)| *us));
                // This connection's migration window: everything between
                // its first and last redirected op (inclusive).
                let first = ct.ops.iter().position(|(_, r)| *r);
                let last = ct.ops.iter().rposition(|(_, r)| *r);
                if let (Some(a), Some(b)) = (first, last) {
                    window_lats.extend(ct.ops[a..=b].iter().map(|(us, _)| *us));
                }
            }
            Err(e) => {
                eprintln!("dash-loadgen: {label}: connection failed: {e}");
                io_errors += 1;
            }
        }
    }
    let ops_done = total.gets + total.sets;
    let throughput = ops_done as f64 / elapsed.as_secs_f64();
    all_lats.sort_unstable();
    println!(
        "{label}: ran {ops_done} ops ({} GET / {} SET, {} hits) over {} connections in {:.2?}",
        total.gets, total.sets, total.hits, cfg.conns, elapsed
    );
    println!("{label}: throughput {throughput:.0} ops/s (depth 1 through redirects)");
    println!(
        "{label}: redirects: {} MOVED, {} ASK, {} TRYAGAIN, {} slot-map refreshes",
        cluster.moved, cluster.ask, cluster.tryagain, cluster.refreshes
    );
    if !window_lats.is_empty() {
        window_lats.sort_unstable();
        let p99 = percentile(&window_lats, 0.99);
        cluster.migration_window_p99_us = Some(p99);
        println!(
            "{label}: migration window: {} ops between first and last redirect, p99 {} us",
            window_lats.len(),
            p99
        );
    }
    let mut failed = false;
    if total.errors > 0 || io_errors > 0 {
        eprintln!(
            "dash-loadgen: {label}: {} op errors, {io_errors} failed connections",
            total.errors
        );
        failed = true;
    }
    if cluster.redirect_loops > 0 {
        eprintln!(
            "dash-loadgen: {label}: {} ops hit a redirect loop (slot map never converged)",
            cluster.redirect_loops
        );
        failed = true;
    }
    if ops_done == 0 || throughput == 0.0 {
        eprintln!("dash-loadgen: {label}: zero throughput");
        failed = true;
    }
    let summary = PhaseSummary {
        label: label.to_string(),
        throughput,
        gets: total.gets,
        sets: total.sets,
        hits: total.hits,
        op_errors: total.errors,
        failed_connections: io_errors,
        expired_or_evicted: 0,
        oom_rejections: 0,
    };
    (summary, cluster, all_lats, failed)
}

/// Cluster preload: SET every key through redirect-following clients,
/// so the keyspace lands on whichever node owns each slot.
fn preload_cluster(cfg: &Config, stems: &[u64]) -> Result<(), String> {
    let errors = AtomicU64::new(0);
    std::thread::scope(|s| {
        for (conn_id, chunk) in stems.chunks(stems.len().div_ceil(cfg.conns)).enumerate() {
            let errors = &errors;
            s.spawn(move || {
                let mut client = match ClusterClient::connect(
                    cfg.addr.as_str(),
                    std::time::Duration::from_secs(5),
                ) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("preload conn {conn_id}: {e}");
                        errors.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                        return;
                    }
                };
                for stem in chunk {
                    let key = key_bytes(*stem);
                    if client.set(&key, &value_bytes(*stem, cfg.value_size)).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    match errors.load(Ordering::Relaxed) {
        0 => Ok(()),
        n => Err(format!("{n} preload errors")),
    }
}

/// Cluster verify-all: GET every key through redirects and require the
/// exact expected value — if migration lost an acknowledged write, the
/// key is Nil on every node and this catches it.
fn verify_all_cluster(cfg: &Config, stems: &[u64]) -> Result<(), String> {
    let missing = AtomicU64::new(0);
    let wrong = AtomicU64::new(0);
    let io_errors = AtomicU64::new(0);
    std::thread::scope(|s| {
        for chunk in stems.chunks(stems.len().div_ceil(cfg.conns)) {
            let (missing, wrong, io_errors) = (&missing, &wrong, &io_errors);
            s.spawn(move || {
                let mut client = match ClusterClient::connect(
                    cfg.addr.as_str(),
                    std::time::Duration::from_secs(5),
                ) {
                    Ok(c) => c,
                    Err(_) => {
                        io_errors.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                        return;
                    }
                };
                for stem in chunk {
                    match client.get(&key_bytes(*stem)) {
                        Ok(Some(v)) if v == value_bytes(*stem, cfg.value_size) => {}
                        Ok(Some(_)) => {
                            wrong.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(None) => {
                            missing.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            io_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let (m, w, io) = (
        missing.load(Ordering::Relaxed),
        wrong.load(Ordering::Relaxed),
        io_errors.load(Ordering::Relaxed),
    );
    if m + w + io == 0 {
        Ok(())
    } else {
        Err(format!("{m} keys missing, {w} wrong values, {io} I/O errors"))
    }
}

/// Cluster scan verification — the **exactly-once** proof. Enumerates
/// every node the slot map knows with cursor SCAN and requires:
/// (a) every preloaded key appears somewhere, and (b) the sum of the
/// nodes' DBSIZEs equals the size of the deduplicated union — so no key
/// is held (and served) by two nodes at once, which is precisely what a
/// botched migration handoff would leave behind.
fn verify_scan_cluster(cfg: &Config, stems: &[u64]) -> Result<(), String> {
    let cc = ClusterClient::connect(cfg.addr.as_str(), std::time::Duration::from_secs(5))
        .map_err(|e| format!("connect: {e}"))?;
    let nodes = cc.known_nodes();
    if nodes.is_empty() {
        return Err("slot map names no nodes".into());
    }
    let mut union: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
    let mut dbsize_sum = 0u64;
    for node in &nodes {
        let mut client =
            RespClient::connect_timeout(node, std::time::Duration::from_secs(5))
                .map_err(|e| format!("connect {node}: {e}"))?;
        let mut node_keys = 0u64;
        let mut cursor = 0u64;
        loop {
            let (next, keys) =
                client.scan(cursor, 512).map_err(|e| format!("SCAN on {node}: {e}"))?;
            node_keys += keys.len() as u64;
            union.extend(keys);
            if next == 0 {
                break;
            }
            cursor = next;
        }
        let dbsize = match client.command(&[b"DBSIZE"]) {
            Ok(Value::Integer(n)) => n as u64,
            other => return Err(format!("DBSIZE on {node} gave {other:?}")),
        };
        println!("node {node}: scanned {node_keys} keys, DBSIZE {dbsize}");
        dbsize_sum += dbsize;
    }
    let mut missing = 0u64;
    for stem in stems {
        if !union.contains(&key_bytes(*stem)) {
            missing += 1;
        }
    }
    println!(
        "cluster scan: {} distinct keys across {} nodes, DBSIZE sum {dbsize_sum}",
        union.len(),
        nodes.len()
    );
    if missing > 0 {
        return Err(format!("{missing} preloaded keys not served by any node"));
    }
    if union.len() as u64 != dbsize_sum {
        return Err(format!(
            "DBSIZE sum {dbsize_sum} != {} distinct keys — some key is held by more than one node",
            union.len()
        ));
    }
    Ok(())
}

/// Poll `CLUSTER INFO` on `addr` until its outbound migration reports
/// `done` (no migration active) — the gate CI uses between starting
/// `CLUSTER MIGRATE` under load and verifying the result. Fails fast on
/// a `failed` migration, or after ~120s.
fn wait_migration(addr: &str) -> Result<(), String> {
    let mut client = RespClient::connect_timeout(addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let field = |text: &str, name: &str| -> Option<String> {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(':')))
            .map(|v| v.trim().to_string())
    };
    let mut last_state = String::from("unknown");
    for _ in 0..1200 {
        let text = match client.command(&[b"CLUSTER", b"INFO"]) {
            Ok(Value::Bulk(b)) => String::from_utf8_lossy(&b).into_owned(),
            Ok(other) => return Err(format!("CLUSTER INFO gave {other:?}")),
            Err(e) => return Err(format!("CLUSTER INFO: {e}")),
        };
        let active = field(&text, "migration_active").unwrap_or_default();
        let state = field(&text, "migration_state").unwrap_or_default();
        if state == "failed" {
            let why = field(&text, "migration_error").unwrap_or_default();
            return Err(format!("migration failed: {why}"));
        }
        if active == "0" && state == "done" {
            println!(
                "migration on {addr} complete ({} keys moved)",
                field(&text, "migration_keys").unwrap_or_default()
            );
            return Ok(());
        }
        last_state = if state.is_empty() { "unknown".into() } else { state };
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    Err(format!("migration on {addr} still {last_state:?} after 120s"))
}

/// SET every key in the keyspace (split across connections), so a later
/// `--verify-all` has a fully defined expectation.
fn preload(cfg: &Config, stems: &[u64]) -> Result<(), String> {
    let errors = AtomicU64::new(0);
    std::thread::scope(|s| {
        for (conn_id, chunk) in stems.chunks(stems.len().div_ceil(cfg.conns)).enumerate() {
            let errors = &errors;
            s.spawn(move || {
                let mut client = match RespClient::connect(cfg.addr.as_str()) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("preload conn {conn_id}: {e}");
                        errors.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                        return;
                    }
                };
                for batch in chunk.chunks(cfg.pipeline) {
                    for stem in batch {
                        let key = key_bytes(*stem);
                        let value = value_bytes(*stem, cfg.value_size);
                        client.enqueue(&[b"SET", &key, &value]);
                    }
                    if client.flush().is_err() {
                        errors.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        return;
                    }
                    for _ in batch {
                        match client.read_reply() {
                            Ok(Value::Simple(s)) if s == "OK" => {}
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    match errors.load(Ordering::Relaxed) {
        0 => Ok(()),
        n => Err(format!("{n} preload errors")),
    }
}

/// GET every key and require the exact expected value — the
/// no-acknowledged-write-lost check used across server restarts.
fn verify_all(cfg: &Config, stems: &[u64]) -> Result<(), String> {
    let missing = AtomicU64::new(0);
    let wrong = AtomicU64::new(0);
    let io_errors = AtomicU64::new(0);
    std::thread::scope(|s| {
        for chunk in stems.chunks(stems.len().div_ceil(cfg.conns)) {
            let (missing, wrong, io_errors) = (&missing, &wrong, &io_errors);
            s.spawn(move || {
                let mut client = match RespClient::connect(cfg.addr.as_str()) {
                    Ok(c) => c,
                    Err(_) => {
                        io_errors.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                        return;
                    }
                };
                for batch in chunk.chunks(cfg.pipeline) {
                    for stem in batch {
                        client.enqueue(&[b"GET", &key_bytes(*stem)]);
                    }
                    if client.flush().is_err() {
                        io_errors.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        return;
                    }
                    for stem in batch {
                        match client.read_reply() {
                            Ok(Value::Bulk(v)) if v == value_bytes(*stem, cfg.value_size) => {}
                            Ok(Value::Bulk(_)) => {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(Value::Nil) => {
                                missing.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {
                                io_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    let (m, w, io) = (
        missing.load(Ordering::Relaxed),
        wrong.load(Ordering::Relaxed),
        io_errors.load(Ordering::Relaxed),
    );
    // Cache mode: a key the server expired or evicted is legitimately
    // gone — the invariant is that every SURVIVING key is byte-exact.
    if cfg.cache_mode() && m > 0 && w + io == 0 {
        println!("verify-all: {m} keys missing (expired/evicted — tolerated in cache mode)");
        return Ok(());
    }
    if m + w + io == 0 {
        Ok(())
    } else {
        Err(format!("{m} keys missing, {w} wrong values, {io} I/O errors"))
    }
}

/// Enumerate the whole store with cursor `SCAN` and check it against the
/// preloaded keyspace and `DBSIZE` — the scan-shaped analogue of
/// `verify_all`: every expected key must be yielded, and the number of
/// distinct keys scanned must equal the server's key counter (so the
/// O(shards) counters and the scan ground truth agree end to end).
fn verify_scan(cfg: &Config, stems: &[u64]) -> Result<(), String> {
    let mut client =
        RespClient::connect(cfg.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
    let mut scanned: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
    let mut pages = 0u64;
    let mut yielded = 0u64;
    let mut cursor = 0u64;
    loop {
        let (next, keys) = client.scan(cursor, 512).map_err(|e| format!("SCAN: {e}"))?;
        pages += 1;
        yielded += keys.len() as u64;
        scanned.extend(keys);
        if next == 0 {
            break;
        }
        cursor = next;
    }
    let mut missing = 0u64;
    for stem in stems {
        if !scanned.contains(&key_bytes(*stem)) {
            missing += 1;
        }
    }
    let dbsize = match client.command(&[b"DBSIZE"]) {
        Ok(Value::Integer(n)) => n as u64,
        other => return Err(format!("DBSIZE gave {other:?}")),
    };
    println!(
        "scan enumerated {} distinct keys ({yielded} yielded over {pages} pages)",
        scanned.len()
    );
    if missing > 0 {
        return Err(format!("{missing} preloaded keys never yielded by SCAN"));
    }
    if scanned.len() as u64 != dbsize {
        return Err(format!("SCAN found {} distinct keys but DBSIZE says {dbsize}", scanned.len()));
    }
    Ok(())
}

/// Read a snapshot file (written by `SNAPSHOT`, by this build or one
/// writing the older format) locally and verify it: its checksums must
/// hold (the reader rejects corruption) and every preloaded key must be
/// present with its exact deterministic value — byte-exact even for a
/// snapshot taken under live 90/10 load, because every writer stores the
/// same pure function of the key.
fn verify_snapshot_file(cfg: &Config, stems: &[u64], path: &str) -> Result<(), String> {
    use dash_server::{repl::OpRef, snapshot::Snapshot, SnapshotError};
    let records = Snapshot::read(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    // A key may appear twice when a segment split raced the scan (the
    // cursor contract is at-least-once under mutation); the restore
    // applies in order, so keeping the last occurrence mirrors it.
    let mut map = std::collections::HashMap::<&[u8], &[u8]>::new();
    records
        .try_for_each(|op| {
            if let OpRef::Set { key, value } | OpRef::SetEx { key, value, .. } = op {
                map.insert(key, value);
            }
            Ok::<_, SnapshotError>(())
        })
        .map_err(|e| e.to_string())?;
    let (mut missing, mut wrong) = (0u64, 0u64);
    for stem in stems {
        match map.get(key_bytes(*stem).as_slice()) {
            None => missing += 1,
            Some(v) if **v != *value_bytes(*stem, cfg.value_size) => wrong += 1,
            Some(_) => {}
        }
    }
    if missing + wrong > 0 {
        return Err(format!("{missing} keys missing from snapshot, {wrong} wrong values"));
    }
    println!("snapshot {path}: {} records, checksum OK, all {} preloaded keys byte-exact",
        records.len(), stems.len());
    Ok(())
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// One timed phase's numbers, as they land in the `--json` summary.
struct PhaseSummary {
    label: String,
    throughput: f64,
    gets: u64,
    sets: u64,
    hits: u64,
    op_errors: u64,
    failed_connections: u64,
    /// Cache mode: Nil GETs attributed to expiry/eviction.
    expired_or_evicted: u64,
    /// Cache mode: SETs the server rejected with `-OOM`.
    oom_rejections: u64,
}

/// Server-side stage-latency numbers from `TRACE DUMP`, aggregated
/// across the dumped records for the table and the `--json` summary.
struct TraceSummary {
    sample_every: u64,
    records: usize,
    /// `(stage, mean ns, max ns)` in server stage order.
    stages: Vec<(String, u64, u64)>,
    /// Mean of the records' independently measured totals.
    total_mean_ns: u64,
    /// mean(stage sums) / mean(totals) — the attribution coverage; the
    /// server promises this stays within 10% of 100.
    stage_sum_over_total_pct: f64,
}

/// Turn on tracing before the run (`TRACE ON SAMPLE n`).
fn trace_begin(probe: &mut RespClient, n: u64) -> std::io::Result<()> {
    probe.trace_on(Some(n))
}

/// After the run: dump the flight recorder and aggregate per stage.
fn trace_collect(probe: &mut RespClient, sample_every: u64) -> std::io::Result<Option<TraceSummary>> {
    let entries = probe.trace_dump(256)?;
    if entries.is_empty() {
        return Ok(None);
    }
    // Stage order comes from the wire (all records carry all stages).
    let names: Vec<String> = entries[0].stages_ns.iter().map(|(s, _)| s.clone()).collect();
    let mut sums = vec![0u64; names.len()];
    let mut maxes = vec![0u64; names.len()];
    let mut total_sum = 0u64;
    let mut stage_sum_sum = 0u64;
    for e in &entries {
        total_sum += e.total_ns.max(0) as u64;
        stage_sum_sum += e.stage_sum_ns().max(0) as u64;
        for (i, name) in names.iter().enumerate() {
            let ns = e.stage_ns(name).unwrap_or(0).max(0) as u64;
            sums[i] += ns;
            maxes[i] = maxes[i].max(ns);
        }
    }
    let n = entries.len() as u64;
    let stages = names
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, sums[i] / n, maxes[i]))
        .collect();
    Ok(Some(TraceSummary {
        sample_every,
        records: entries.len(),
        stages,
        total_mean_ns: total_sum / n,
        stage_sum_over_total_pct: if total_sum == 0 {
            0.0
        } else {
            stage_sum_sum as f64 * 100.0 / total_sum as f64
        },
    }))
}

fn print_trace_summary(t: &TraceSummary) {
    println!(
        "server trace ({} records at 1-in-{} sampling):",
        t.records, t.sample_every
    );
    println!("  {:<12} {:>10} {:>10}", "stage", "mean_ns", "max_ns");
    for (name, mean, max) in &t.stages {
        println!("  {name:<12} {mean:>10} {max:>10}");
    }
    println!(
        "  {:<12} {:>10}   (stage sums cover {:.1}% of measured totals)",
        "total", t.total_mean_ns, t.stage_sum_over_total_pct
    );
}

/// The per-op latency sample's numbers for the `--json` summary.
struct LatencySummary {
    co_safe: bool,
    samples: usize,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
}

/// Run one timed phase (`runner` per connection), merge the tallies and
/// print its report. Returns `(summary, phase failed)`.
fn timed_phase(
    cfg: &Config,
    stems: &[u64],
    label: &str,
    rtt_note: &str,
    runner: fn(&Config, &[u64], usize, usize) -> std::io::Result<Tally>,
) -> (PhaseSummary, bool) {
    let per = cfg.ops / cfg.conns;
    let t0 = Instant::now();
    let tallies: Vec<std::io::Result<Tally>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|conn_id| {
                let (cfg, stems) = (cfg, stems);
                let my_ops =
                    if conn_id == cfg.conns - 1 { cfg.ops - per * (cfg.conns - 1) } else { per };
                s.spawn(move || runner(cfg, stems, conn_id, my_ops))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let elapsed = t0.elapsed();

    let mut total = Tally::default();
    let mut io_errors = 0u64;
    for t in tallies {
        match t {
            Ok(t) => {
                total.gets += t.gets;
                total.sets += t.sets;
                total.hits += t.hits;
                total.errors += t.errors;
                total.expired_or_evicted += t.expired_or_evicted;
                total.oom_rejections += t.oom_rejections;
                total.batch_rtt_us.extend(t.batch_rtt_us);
            }
            Err(e) => {
                eprintln!("dash-loadgen: {label}: connection failed: {e}");
                io_errors += 1;
            }
        }
    }
    let ops_done = total.gets + total.sets;
    let throughput = ops_done as f64 / elapsed.as_secs_f64();
    total.batch_rtt_us.sort_unstable();
    let rtt = &total.batch_rtt_us;
    println!(
        "{label}: ran {ops_done} ops ({} GET / {} SET, {} hits) over {} connections in {:.2?}",
        total.gets, total.sets, total.hits, cfg.conns, elapsed
    );
    println!("{label}: throughput {throughput:.0} ops/s");
    if cfg.cache_mode() {
        println!(
            "{label}: cache mode: {} expired/evicted Nil GETs, {} -OOM rejections",
            total.expired_or_evicted, total.oom_rejections
        );
    }
    println!(
        "{label}: RTT {rtt_note}: p50 {} us, p95 {} us, p99 {} us, max {} us",
        percentile(rtt, 0.50),
        percentile(rtt, 0.95),
        percentile(rtt, 0.99),
        rtt.last().copied().unwrap_or(0),
    );
    let mut failed = false;
    if total.errors > 0 || io_errors > 0 {
        eprintln!(
            "dash-loadgen: {label}: {} op errors, {io_errors} failed connections",
            total.errors
        );
        failed = true;
    }
    if ops_done == 0 || throughput == 0.0 {
        eprintln!("dash-loadgen: {label}: zero throughput");
        failed = true;
    }
    let summary = PhaseSummary {
        label: label.to_string(),
        throughput,
        gets: total.gets,
        sets: total.sets,
        hits: total.hits,
        op_errors: total.errors,
        failed_connections: io_errors,
        expired_or_evicted: total.expired_or_evicted,
        oom_rejections: total.oom_rejections,
    };
    (summary, failed)
}

/// Coordinated-omission-safe latency sampling: ops depart on a FIXED
/// arrival schedule (`--latency-rate` per second) and each is measured
/// from its *intended* start time, not from when the previous reply
/// freed the connection. A server stall therefore shows up as queueing
/// delay on every op scheduled during the stall — the closed-loop
/// sampler would instead silently issue fewer ops and report only the
/// stall survivor, hiding exactly the tail the percentiles exist to
/// expose.
fn sample_latency_scheduled(cfg: &Config, stems: &[u64]) -> std::io::Result<Vec<u64>> {
    let mut client = RespClient::connect(cfg.addr.as_str())?;
    let mut rng = mix64(cfg.seed ^ 0x1A7E_4C11) | 1;
    let interval = std::time::Duration::from_secs_f64(1.0 / cfg.latency_rate);
    let mut samples = Vec::with_capacity(cfg.latency_sample);
    let mut late_starts = 0u64;
    let t0 = Instant::now();
    for i in 0..cfg.latency_sample {
        let intended = t0 + interval * i as u32;
        let now = Instant::now();
        if now < intended {
            std::thread::sleep(intended - now);
        } else if i > 0 {
            late_starts += 1;
        }
        rng = mix64(rng);
        let stem = stems[((rng >> 8) % stems.len() as u64) as usize];
        let key = key_bytes(stem);
        let is_get = (rng % 100) < cfg.read_pct as u64;
        let reply = if is_get {
            client.command(&[b"GET", &key])?
        } else {
            client.command(&[b"SET", &key, &value_bytes(stem, cfg.value_size)])?
        };
        // Latency = completion minus INTENDED start: queueing included.
        samples.push(intended.elapsed().as_micros() as u64);
        if let Value::Error(e) = reply {
            return Err(std::io::Error::other(format!("server error while sampling: {e}")));
        }
    }
    if late_starts > 0 {
        println!(
            "latency schedule: {late_starts}/{} arrivals departed late (their queueing delay is in the numbers)",
            cfg.latency_sample
        );
    }
    samples.sort_unstable();
    Ok(samples)
}

/// Poll until the replica at `replica_addr` has applied everything the
/// primary at `cfg.addr` has published (equal `repl_offset`s, link up)
/// — the catch-up gate before a deliberate failover. Fails after ~60s.
fn wait_sync(cfg: &Config, replica_addr: &str) -> Result<(), String> {
    let mut primary =
        RespClient::connect(cfg.addr.as_str()).map_err(|e| format!("connect primary: {e}"))?;
    let mut replica =
        RespClient::connect(replica_addr).map_err(|e| format!("connect replica: {e}"))?;
    match replica.role() {
        Ok(r) if r == "replica" => {}
        Ok(r) => return Err(format!("{replica_addr} has role {r:?}, expected a replica")),
        Err(e) => return Err(format!("replica INFO: {e}")),
    }
    // Offsets are numbered by the replica's own primary: comparing them
    // against an unrelated server would be meaningless (and could wave
    // the failover drill through with writes still missing). Insist the
    // replica actually follows --addr.
    match replica.info_field("master_addr") {
        Ok(Some(a)) if a == cfg.addr => {}
        Ok(Some(a)) => {
            return Err(format!("{replica_addr} replicates {a}, not {} — wrong pair", cfg.addr))
        }
        Ok(None) => return Err(format!("{replica_addr} reports no master_addr")),
        Err(e) => return Err(format!("replica INFO: {e}")),
    }
    let mut last = (0, 0);
    for _ in 0..600 {
        // Order matters: replica first, primary second. Offsets only
        // move forward, so replica ≥ primary-read-AFTER proves the
        // replica had applied everything published up to the later
        // timestamp — the reverse order would let writes landing
        // between the two reads hide behind a stale primary number.
        let r = replica.repl_offset().map_err(|e| format!("replica INFO: {e}"))?;
        let link = replica
            .master_link()
            .map_err(|e| format!("replica INFO: {e}"))?
            .unwrap_or_default();
        let p = primary.repl_offset().map_err(|e| format!("primary INFO: {e}"))?;
        if link == "up" && r >= p {
            println!("replica {replica_addr} in sync with {} at offset {r}", cfg.addr);
            return Ok(());
        }
        last = (p, r);
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    Err(format!(
        "replica never caught up: primary offset {}, replica offset {} after 60s",
        last.0, last.1
    ))
}

/// Per-op latency sampling at pipeline depth 1 (ROADMAP "loadgen latency
/// fidelity"): one connection, one command in flight, each round trip
/// timed individually — the number a pipelined batch RTT cannot give.
fn sample_latency(cfg: &Config, stems: &[u64]) -> std::io::Result<Vec<u64>> {
    let mut client = RespClient::connect(cfg.addr.as_str())?;
    let mut rng = mix64(cfg.seed ^ 0x1A7E_4C11) | 1;
    let mut samples = Vec::with_capacity(cfg.latency_sample);
    for _ in 0..cfg.latency_sample {
        rng = mix64(rng);
        let stem = stems[((rng >> 8) % stems.len() as u64) as usize];
        let key = key_bytes(stem);
        let is_get = (rng % 100) < cfg.read_pct as u64;
        let t0 = Instant::now();
        let reply = if is_get {
            client.command(&[b"GET", &key])?
        } else {
            client.command(&[b"SET", &key, &value_bytes(stem, cfg.value_size)])?
        };
        samples.push(t0.elapsed().as_micros() as u64);
        if let Value::Error(e) = reply {
            return Err(std::io::Error::other(format!("server error while sampling: {e}")));
        }
    }
    samples.sort_unstable();
    Ok(samples)
}

fn main() {
    let cfg = parse_config();
    let stems = uniform_keys(cfg.keys, cfg.seed);

    // High connection counts are fd-bound before they are thread-bound:
    // make sure this process can open a socket per connection (plus
    // headroom for the verify/preload phases), or say why not.
    let want_fds = (cfg.conns as u64) * 2 + 64;
    if let Err(e) = dash_server::net::ensure_nofile_limit(want_fds) {
        eprintln!("dash-loadgen: cannot raise fd limit to {want_fds}: {e} (continuing)");
    }

    // Reachability check with a useful error before spawning anything.
    // In cluster mode --addr is a seed list; the probe (and --cmd) talk
    // to the first seed directly.
    let probe_addr =
        cfg.addr.split(',').map(str::trim).find(|s| !s.is_empty()).unwrap_or(&cfg.addr).to_string();
    let mut probe = match RespClient::connect(probe_addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dash-loadgen: cannot connect to {probe_addr}: {e}");
            std::process::exit(1);
        }
    };
    if !matches!(probe.command(&[b"PING"]), Ok(Value::Simple(ref s)) if s == "PONG") {
        eprintln!("dash-loadgen: {probe_addr} did not answer PING");
        std::process::exit(1);
    }

    if let Some(cmd) = &cfg.cmd {
        let words: Vec<&[u8]> = cmd.split_whitespace().map(str::as_bytes).collect();
        if words.is_empty() {
            eprintln!("dash-loadgen: --cmd is empty");
            std::process::exit(2);
        }
        match probe.command(&words) {
            Ok(Value::Error(e)) => {
                eprintln!("dash-loadgen: --cmd {cmd:?} got error reply: {e}");
                std::process::exit(1);
            }
            Ok(reply) => println!("--cmd {cmd:?} → {reply:?}"),
            Err(e) => {
                eprintln!("dash-loadgen: --cmd {cmd:?} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if cfg.trace_sample > 0 {
        if let Err(e) = trace_begin(&mut probe, cfg.trace_sample) {
            eprintln!("dash-loadgen: TRACE ON SAMPLE {} failed: {e}", cfg.trace_sample);
            std::process::exit(1);
        }
        println!("server tracing on ({probe_addr}, 1-in-{} sampling)", cfg.trace_sample);
    }

    if cfg.preload {
        let t0 = Instant::now();
        let result =
            if cfg.cluster { preload_cluster(&cfg, &stems) } else { preload(&cfg, &stems) };
        if let Err(e) = result {
            eprintln!("dash-loadgen: preload failed: {e}");
            std::process::exit(1);
        }
        println!("preloaded {} keys in {:?}", cfg.keys, t0.elapsed());
    }

    let mut failed = false;
    let mut phases: Vec<PhaseSummary> = Vec::new();
    let mut latency_summary: Option<LatencySummary> = None;
    let mut cluster_summary: Option<ClusterSummary> = None;
    if cfg.ops > 0 && cfg.cluster {
        let (summary, cluster, all_lats, f) = timed_phase_cluster(&cfg, &stems);
        phases.push(summary);
        failed |= f;
        // The cluster run is already depth 1, so its per-op latencies
        // ARE the latency sample — no separate sampling pass.
        if cfg.latency_sample > 0 && !all_lats.is_empty() {
            let p99 = percentile(&all_lats, 0.99);
            println!(
                "per-op latency (cluster run, {} samples): p50 {} us, p95 {} us, p99 {} us, max {} us",
                all_lats.len(),
                percentile(&all_lats, 0.50),
                percentile(&all_lats, 0.95),
                p99,
                all_lats.last().copied().unwrap_or(0),
            );
            latency_summary = Some(LatencySummary {
                co_safe: false,
                samples: all_lats.len(),
                p50_us: percentile(&all_lats, 0.50),
                p95_us: percentile(&all_lats, 0.95),
                p99_us: p99,
                p999_us: percentile(&all_lats, 0.999),
                max_us: all_lats.last().copied().unwrap_or(0),
            });
            if cfg.assert_p99_us > 0 && p99 > cfg.assert_p99_us {
                eprintln!(
                    "dash-loadgen: p99 latency {p99} us exceeds --assert-p99-us {}",
                    cfg.assert_p99_us
                );
                failed = true;
            }
        }
        cluster_summary = Some(cluster);
    } else if cfg.ops > 0 {
        match cfg.batch {
            None => {
                let (summary, f) = timed_phase(
                    &cfg,
                    &stems,
                    "run",
                    &format!("(pipeline depth {})", cfg.pipeline),
                    run_connection,
                );
                phases.push(summary);
                failed |= f;
            }
            Some(n) => {
                // Same op count both ways: N-deep pipelined single-key
                // commands, then N-key MGET/MSET commands — what one
                // command instead of N saves, side by side.
                let mut singles_cfg = cfg.clone();
                singles_cfg.pipeline = n;
                let (singles, f1) = timed_phase(
                    &singles_cfg,
                    &stems,
                    "pipelined singles",
                    &format!("(pipeline depth {n})"),
                    run_connection,
                );
                let (batched, f2) = timed_phase(
                    &cfg,
                    &stems,
                    "batched",
                    &format!("(MGET/MSET of {n} keys)"),
                    run_connection_batched,
                );
                failed |= f1 | f2;
                if singles.throughput > 0.0 && batched.throughput > 0.0 {
                    println!(
                        "batched vs pipelined singles: {:.2}x ({:.0} vs {:.0} ops/s)",
                        batched.throughput / singles.throughput,
                        batched.throughput,
                        singles.throughput
                    );
                }
                phases.push(singles);
                phases.push(batched);
            }
        }
    }

    if let Some(addr) = &cfg.wait_migration {
        let t0 = Instant::now();
        match wait_migration(addr) {
            Ok(()) => println!("migration confirmed complete ({:?})", t0.elapsed()),
            Err(e) => {
                eprintln!("dash-loadgen: wait-migration failed: {e}");
                failed = true;
            }
        }
    }

    if !cfg.cluster && cfg.latency_sample > 0 && (cfg.ops > 0 || cfg.latency_rate > 0.0) {
        let (mode, result) = if cfg.latency_rate > 0.0 {
            (
                format!("fixed {} ops/s arrivals, CO-safe", cfg.latency_rate),
                sample_latency_scheduled(&cfg, &stems),
            )
        } else {
            ("pipeline depth 1".to_string(), sample_latency(&cfg, &stems))
        };
        match result {
            Ok(samples) => {
                let p99 = percentile(&samples, 0.99);
                println!(
                    "per-op latency ({mode}, {} samples): p50 {} us, p95 {} us, p99 {} us, max {} us",
                    samples.len(),
                    percentile(&samples, 0.50),
                    percentile(&samples, 0.95),
                    p99,
                    samples.last().copied().unwrap_or(0),
                );
                latency_summary = Some(LatencySummary {
                    co_safe: cfg.latency_rate > 0.0,
                    samples: samples.len(),
                    p50_us: percentile(&samples, 0.50),
                    p95_us: percentile(&samples, 0.95),
                    p99_us: p99,
                    p999_us: percentile(&samples, 0.999),
                    max_us: samples.last().copied().unwrap_or(0),
                });
                if cfg.assert_p99_us > 0 && p99 > cfg.assert_p99_us {
                    eprintln!(
                        "dash-loadgen: p99 latency {p99} us exceeds --assert-p99-us {}",
                        cfg.assert_p99_us
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("dash-loadgen: latency sampling failed: {e}");
                failed = true;
            }
        }
    } else if cfg.assert_p99_us > 0 && latency_summary.is_none() {
        eprintln!("dash-loadgen: --assert-p99-us set but no latency sample was taken");
        failed = true;
    }

    if let Some(replica_addr) = &cfg.wait_sync {
        let t0 = Instant::now();
        match wait_sync(&cfg, replica_addr) {
            Ok(()) => println!("replica sync confirmed ({:?})", t0.elapsed()),
            Err(e) => {
                eprintln!("dash-loadgen: wait-sync failed: {e}");
                failed = true;
            }
        }
    }

    if cfg.verify_all {
        let t0 = Instant::now();
        let result =
            if cfg.cluster { verify_all_cluster(&cfg, &stems) } else { verify_all(&cfg, &stems) };
        match result {
            Ok(()) => println!(
                "verified all {} keys hold their expected values ({:?})",
                cfg.keys,
                t0.elapsed()
            ),
            Err(e) => {
                eprintln!("dash-loadgen: verification failed: {e}");
                failed = true;
            }
        }
    }

    if cfg.verify_scan {
        let t0 = Instant::now();
        let result =
            if cfg.cluster { verify_scan_cluster(&cfg, &stems) } else { verify_scan(&cfg, &stems) };
        match result {
            Ok(()) => println!("scan verification passed ({:?})", t0.elapsed()),
            Err(e) => {
                eprintln!("dash-loadgen: scan verification failed: {e}");
                failed = true;
            }
        }
    }

    if let Some(path) = &cfg.snapshot {
        let t0 = Instant::now();
        match probe.snapshot(path) {
            Ok(n) => println!("server snapshotted {n} records to {path} ({:?})", t0.elapsed()),
            Err(e) => {
                eprintln!("dash-loadgen: SNAPSHOT {path} failed: {e}");
                failed = true;
            }
        }
    }

    if let Some(path) = &cfg.verify_snapshot {
        match verify_snapshot_file(&cfg, &stems, path) {
            Ok(()) => {}
            Err(e) => {
                eprintln!("dash-loadgen: snapshot verification failed: {e}");
                failed = true;
            }
        }
    }

    if let Ok(Value::Integer(n)) = probe.command(&[b"DBSIZE"]) {
        if cfg.cluster {
            println!("first seed ({probe_addr}) DBSIZE: {n}");
        } else {
            println!("server DBSIZE: {n}");
        }
    }

    let mut trace_summary: Option<TraceSummary> = None;
    if cfg.trace_sample > 0 {
        match trace_collect(&mut probe, cfg.trace_sample) {
            Ok(Some(t)) => {
                print_trace_summary(&t);
                trace_summary = Some(t);
            }
            Ok(None) => {
                eprintln!("dash-loadgen: TRACE DUMP returned no records despite sampling");
                failed = true;
            }
            Err(e) => {
                eprintln!("dash-loadgen: TRACE DUMP failed: {e}");
                failed = true;
            }
        }
    }

    if let Some(path) = &cfg.json {
        let doc = render_json(
            &cfg,
            &phases,
            latency_summary.as_ref(),
            cluster_summary.as_ref(),
            trace_summary.as_ref(),
            failed,
        );
        match std::fs::write(path, doc) {
            Ok(()) => println!("wrote JSON summary to {path}"),
            Err(e) => {
                eprintln!("dash-loadgen: cannot write --json {path}: {e}");
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// Minimal JSON string escaping — enough for addresses, labels and
/// paths (quote, backslash, control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `--json` document, handwritten (no serde in the tree): run
/// parameters, per-phase throughput/counts, the per-op latency
/// percentiles, and the overall verdict.
fn render_json(
    cfg: &Config,
    phases: &[PhaseSummary],
    latency: Option<&LatencySummary>,
    cluster: Option<&ClusterSummary>,
    trace: Option<&TraceSummary>,
    failed: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"addr\": \"{}\",\n", json_escape(&cfg.addr)));
    out.push_str(&format!("  \"conns\": {},\n", cfg.conns));
    out.push_str(&format!("  \"ops\": {},\n", cfg.ops));
    out.push_str(&format!("  \"read_pct\": {},\n", cfg.read_pct));
    out.push_str(&format!("  \"keys\": {},\n", cfg.keys));
    out.push_str(&format!("  \"value_size\": {},\n", cfg.value_size));
    out.push_str(&format!("  \"pipeline\": {},\n", cfg.pipeline));
    out.push_str("  \"phases\": [");
    for (i, p) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"label\": \"{}\", \"throughput_ops_per_sec\": {:.1}, \
             \"gets\": {}, \"sets\": {}, \"hits\": {}, \"op_errors\": {}, \
             \"failed_connections\": {}, \"expired_or_evicted\": {}, \
             \"oom_rejections\": {}}}",
            json_escape(&p.label),
            p.throughput,
            p.gets,
            p.sets,
            p.hits,
            p.op_errors,
            p.failed_connections,
            p.expired_or_evicted,
            p.oom_rejections
        ));
    }
    out.push_str(if phases.is_empty() { "],\n" } else { "\n  ],\n" });
    match latency {
        None => out.push_str("  \"latency\": null,\n"),
        Some(l) => out.push_str(&format!(
            "  \"latency\": {{\"co_safe\": {}, \"samples\": {}, \"p50_us\": {}, \
             \"p95_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"max_us\": {}}},\n",
            l.co_safe, l.samples, l.p50_us, l.p95_us, l.p99_us, l.p999_us, l.max_us
        )),
    }
    match cluster {
        None => out.push_str("  \"cluster\": null,\n"),
        Some(c) => {
            let window = match c.migration_window_p99_us {
                None => "null".to_string(),
                Some(us) => us.to_string(),
            };
            out.push_str(&format!(
                "  \"cluster\": {{\"moved\": {}, \"ask\": {}, \"tryagain\": {}, \
                 \"refreshes\": {}, \"redirect_loops\": {}, \
                 \"migration_window_p99_us\": {window}}},\n",
                c.moved, c.ask, c.tryagain, c.refreshes, c.redirect_loops
            ));
        }
    }
    match trace {
        None => out.push_str("  \"server_trace\": null,\n"),
        Some(t) => {
            out.push_str(&format!(
                "  \"server_trace\": {{\"sample_every\": {}, \"records\": {}, \
                 \"total_mean_ns\": {}, \"stage_sum_over_total_pct\": {:.1}, \"stages\": {{",
                t.sample_every, t.records, t.total_mean_ns, t.stage_sum_over_total_pct
            ));
            for (i, (name, mean, max)) in t.stages.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "\"{}\": {{\"mean_ns\": {mean}, \"max_ns\": {max}}}",
                    json_escape(name)
                ));
            }
            out.push_str("}},\n");
        }
    }
    out.push_str(&format!("  \"failed\": {failed}\n"));
    out.push_str("}\n");
    out
}
