//! The `dash-server` binary: a sharded, persistent RESP2 KV server over
//! Dash tables on file-backed pools, with async replication.
//!
//! ```sh
//! dash-server --addr 127.0.0.1:6379 --dir /var/lib/dash --shards 4 --pool-mb 64
//! dash-server --addr 127.0.0.1:6380 --dir /var/lib/dash-replica \
//!             --replica-of 127.0.0.1:6379
//! ```
//!
//! Reopening an existing `--dir` reattaches to the shard pool files
//! found there (their count wins over `--shards`) and reports each
//! shard's recovery outcome. A client-issued `SHUTDOWN` closes the
//! pools cleanly; killing the process does not, and the next start
//! recovers with a version bump — by design, no acknowledged write is
//! lost either way.
//!
//! A `--replica-of` server bootstraps from the primary (snapshot +
//! tail over `PSYNC`), serves reads (writes get `-READONLY`), and
//! becomes a primary when a client sends `REPLICAOF NO ONE`.

use dash_common::cli;
use dash_server::{serve_with, EngineConfig, ServeOptions, ShardedDash};

const USAGE: &str = "\
dash-server — sharded persistent RESP2 KV server over Dash

USAGE:
    dash-server [OPTIONS]

OPTIONS:
    --addr HOST:PORT   listen address (default 127.0.0.1:6379)
    --dir PATH         directory for shard pool files; omit for a
                       volatile in-memory store
    --shards N         shard count for a fresh store (default 4;
                       an existing --dir keeps its own count)
    --pool-mb MB       pool size per shard in MiB (default 64)
    --restore PATH     bootstrap a FRESH store from a snapshot file
                       (written by the SNAPSHOT command) before serving;
                       refuses a --dir that already holds a store
    --replay-logs DIR  after opening (or restoring) the store, replay
                       the redo logs (repl-N.log) found in DIR on top —
                       incremental backup: with --restore, each shard's
                       log replays from the position the snapshot
                       recorded, reconstructing the final state; alone,
                       from the start of each log. The logs keep only a
                       window, so a snapshot older than what they still
                       hold (or a shard count that differs) is refused
                       before anything is applied
    --max-memory BYTES
                       memory budget over pool bytes (table, records and
                       pending frees), enforced per shard as
                       BYTES/shards at the write path: pending
                       garbage is reclaimed, then keys are evicted under
                       --maxmemory-policy; a write that still cannot fit
                       is rejected with -OOM (default: unlimited)
    --maxmemory-policy NAME
                       noeviction (default: reject writes at the budget),
                       allkeys-lru (evict the least-recently-used of N
                       samples) or allkeys-lfu (least-frequently-used)
    --repl-log-max-bytes N
                       a shard's redo log seals its active file into a
                       4 MiB segment (a restart validates one bounded
                       file) and, at each seal, deletes its oldest
                       segments (never the one just sealed) while the
                       log exceeds its window:
                       max(4 MiB, a quarter of the shard's pool bytes in
                       use) by default, N bytes when given (segments
                       then seal at min(N, 4 MiB))
    --replica-of HOST:PORT
                       start as a read-only replica of the primary at
                       HOST:PORT (bootstraps via PSYNC snapshot+tail;
                       requires a fresh store; promote with
                       'REPLICAOF NO ONE')
    --cluster-announce HOST:PORT
                       enable cluster mode, announcing this address to
                       peers and clients (slot map + MOVED/ASK
                       redirects; 'auto' announces the bound address);
                       not combinable with --replica-of
    --event-workers N  event-loop worker threads (default: one per CPU)
    --metrics-addr HOST:PORT
                       also serve Prometheus text metrics over HTTP at
                       this address (GET /metrics); off when omitted
    --slowlog-threshold-us N
                       record commands slower than N microseconds in
                       SLOWLOG (default 10000; 0 logs everything)
    --log-file PATH    append structured JSON-lines logs to PATH instead
                       of stderr (one {\"ts_ms\",\"level\",\"target\",
                       \"msg\"} object per line)
    --log-level LEVEL  error, warn, info (default) or debug
    -h, --help         show this help";

fn main() {
    let args = cli::parse_or_exit(
        USAGE,
        &[
            "addr",
            "dir",
            "shards",
            "pool-mb",
            "max-memory",
            "maxmemory-policy",
            "repl-log-max-bytes",
            "restore",
            "replay-logs",
            "replica-of",
            "cluster-announce",
            "event-workers",
            "metrics-addr",
            "slowlog-threshold-us",
            "log-file",
            "log-level",
        ],
        &[],
        0,
    );
    let addr = args.flag_str("addr", "127.0.0.1:6379");
    let shards: usize = args.flag_or_exit("shards", 4, USAGE);
    let pool_mb: usize = args.flag_or_exit("pool-mb", 64, USAGE);
    let dir = args.flag_opt("dir").map(std::path::PathBuf::from);
    let max_memory: Option<u64> = match args.flag_opt("max-memory") {
        None => None,
        Some(s) => match s.parse::<u64>() {
            Ok(n) if n >= 1 => Some(n),
            _ => cli::exit_usage("--max-memory must be a positive byte count", USAGE),
        },
    };
    let eviction = match args.flag_opt("maxmemory-policy") {
        None => dash_server::EvictionPolicy::NoEviction,
        Some(s) => match dash_server::EvictionPolicy::parse(s) {
            Some(p) => p,
            None => cli::exit_usage(
                "--maxmemory-policy must be noeviction, allkeys-lru or allkeys-lfu",
                USAGE,
            ),
        },
    };
    let repl_log_max_bytes: Option<u64> = match args.flag_opt("repl-log-max-bytes") {
        None => None,
        Some(s) => match s.parse::<u64>() {
            Ok(n) if n >= 1 => Some(n),
            _ => cli::exit_usage("--repl-log-max-bytes must be a positive byte count", USAGE),
        },
    };
    let restore = args.flag_opt("restore").map(std::path::PathBuf::from);
    let replay_logs = args.flag_opt("replay-logs").map(std::path::PathBuf::from);
    let replica_of = args.flag_opt("replica-of").map(str::to_owned);
    let cluster_announce = args.flag_opt("cluster-announce").map(str::to_owned);
    if cluster_announce.is_some() && replica_of.is_some() {
        cli::exit_usage("--cluster-announce cannot be combined with --replica-of", USAGE);
    }
    let event_workers: Option<usize> = match args.flag_opt("event-workers") {
        None => None,
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => cli::exit_usage("--event-workers must be a positive integer", USAGE),
        },
    };
    let metrics_addr = args.flag_opt("metrics-addr").map(str::to_owned);
    let slowlog_threshold_us: Option<u64> = match args.flag_opt("slowlog-threshold-us") {
        None => None,
        Some(s) => match s.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                cli::exit_usage("--slowlog-threshold-us must be a non-negative integer", USAGE)
            }
        },
    };

    if let Some(level) = args.flag_opt("log-level") {
        match dash_server::LogLevel::parse(level) {
            Some(l) => dash_server::trace::log::set_level(l),
            None => cli::exit_usage("--log-level must be error, warn, info or debug", USAGE),
        }
    }
    if let Some(path) = args.flag_opt("log-file") {
        if let Err(e) = dash_server::trace::log::set_file(std::path::Path::new(path)) {
            eprintln!("dash-server: cannot open log file {path}: {e}");
            std::process::exit(1);
        }
    }

    if replica_of.is_some() && (restore.is_some() || replay_logs.is_some()) {
        cli::exit_usage(
            "--replica-of bootstraps from the primary; it cannot be combined with --restore or --replay-logs",
            USAGE,
        );
    }
    if let (Some(dir), Some(_)) = (&dir, &replica_of) {
        // A replica's first full sync clears its store; refusing an
        // existing one protects against pointing --replica-of at a
        // directory that holds data someone still wants.
        if ShardedDash::store_exists(dir) {
            eprintln!(
                "dash-server: {} already holds a store; a replica bootstraps from \
                 its primary and needs a fresh --dir (delete the old store first)",
                dir.display()
            );
            std::process::exit(1);
        }
    }

    let cfg = EngineConfig {
        shards,
        shard_bytes: pool_mb << 20,
        dir,
        max_memory,
        eviction,
        repl_log_max_bytes,
    };
    let fail = |what: &str, e: dash_server::EngineError| -> ! {
        eprintln!("dash-server: {what}: {e}");
        std::process::exit(1);
    };
    let opened = match (&restore, &replay_logs) {
        (None, _) => ShardedDash::open(&cfg).map(|engine| (engine, None)),
        (Some(snapshot), None) => ShardedDash::restore(&cfg, snapshot).map(|engine| (engine, None)),
        (Some(snapshot), Some(log_dir)) => ShardedDash::restore_and_replay(&cfg, snapshot, log_dir)
            .map(|(engine, n)| (engine, Some(n))),
    };
    let (engine, replayed) = opened.unwrap_or_else(|e| fail("cannot open store", e));
    if let Some(snapshot) = &restore {
        println!("restored snapshot {}", snapshot.display());
    }
    if let Some(log_dir) = &replay_logs {
        let n = replayed.unwrap_or_else(|| {
            engine.replay_log_dir(log_dir).unwrap_or_else(|e| {
                fail(&format!("cannot replay logs from {}", log_dir.display()), e)
            })
        });
        println!("replayed {n} ops from redo logs in {}", log_dir.display());
    }
    if restore.is_some() || replay_logs.is_some() {
        println!("{} keys now", engine.len());
    }
    for (i, info) in engine.shard_infos().iter().enumerate() {
        if info.recovered {
            println!(
                "shard {i}: recovered ({}, version {})",
                if info.clean { "clean shutdown" } else { "CRASH detected" },
                info.version
            );
        } else {
            println!("shard {i}: created fresh");
        }
    }
    if let Some(budget) = max_memory {
        println!(
            "memory budget: {budget} bytes ({} per shard), policy {}",
            budget / engine.shard_count() as u64,
            eviction.name()
        );
    }
    // Serving thousands of connections from a fixed worker pool is fd-
    // bound, not thread-bound: raise the soft RLIMIT_NOFILE to the hard
    // limit so the EMFILE backoff path is for genuine exhaustion only.
    match dash_server::net::ensure_nofile_limit(u64::MAX) {
        Ok(limit) => println!("fd limit: {limit}"),
        Err(e) => eprintln!("dash-server: cannot raise fd limit: {e} (continuing)"),
    }
    let opts = ServeOptions {
        replica_of: replica_of.clone(),
        event_workers,
        metrics_addr,
        slowlog_threshold_us,
        cluster_announce: cluster_announce.clone(),
    };
    let server = match serve_with(engine, addr.as_str(), opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dash-server: cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    match (&replica_of, &cluster_announce) {
        (Some(master), _) => println!(
            "dash-server listening on {} as a replica of {master} (promote with REPLICAOF NO ONE)",
            server.addr()
        ),
        (None, Some(_)) => println!(
            "dash-server listening on {} in cluster mode (assign slots with CLUSTER ASSIGN)",
            server.addr()
        ),
        (None, None) => println!("dash-server listening on {}", server.addr()),
    }
    if let Some(addr) = server.metrics_addr() {
        println!("metrics (Prometheus text) on http://{addr}/metrics");
    }
    server.join();
    println!("dash-server: shut down cleanly");
}
