//! `dash-bench`: one fixed four-workload ledger for the Dash KV stack,
//! end to end and layer by layer. See README.md in this directory for
//! every metric and workload; BENCHMARK.json at the repository root is
//! the machine-readable contract.
//!
//! Every layer is measured from outside, by timing calls into `pub`
//! items of the product crates; nothing in them is changed or flagged.

mod alloc;
mod drive;
mod gen;
mod pin;
mod report;
mod stats;
mod store;
mod trace;
mod workload;

use std::path::Path;
use std::time::Instant;

use dash_common::cli;
use dash_server::{serve_with, RespClient, ServeOptions, ServerHandle, ShardedDash};

use drive::{run_window, Driver, Link, Tally};
use gen::Model;
use report::{Reading, RunResult};
use stats::{median, quantile};
use store::Scratch;
use trace::Recorder;
use workload::{Plan, Spec, Transport, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
dash-bench: fixed four-workload performance ledger for the Dash KV stack

USAGE:
    dash-bench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
    dash-bench --check [--seed N]
    dash-bench --compare A.json B.json

    --workload NAME   run one workload (get_pipe16, set_pipe16, mix_depth1,
                      engine_direct) and print its result as the last line, one
                      JSON object; without it, run all four, untraced then
                      traced, and write the ledger to --out
    --seed N          generator seed (default 42); same seed, same inputs
    --seconds N       length of the timed window, 1..=60 (default 10)
    --trace 0|1       0: end-to-end metrics, tracing off (default)
                      1: per-layer metrics from the traced pass
    --smoke           a hundredth of the keys and a quarter-second window
    --out FILE        ledger path (default .bench_tmp/dash-bench.json)
    --check           run the span replay twice under one seed and fail unless
                      every exact count repeats; once under the next seed and
                      fail unless the op stream differs
    --compare A B     one row per workload x end-to-end metric of two ledgers;
                      exit 1 on any `worse`

Every run: one client thread, one connection, closed loop, against an
in-process server with one event worker, the process pinned to one CPU;
2 shards x 512 MiB, file-backed under
.bench_tmp/ (redo log on: one write(2) per record, no fsync), CostModel::none.
Exit 0: all replies verified; 1: a failure; 2: bad arguments.";

/// Share of the window run before timing starts, so caches are warm.
const WARMUP_SHARE: f64 = 0.05;
const TRACE_SAMPLE_EVERY: u64 = 64;

/// A started system under test: the preloaded store, behind an
/// in-process server (wire workloads) or bare.
enum Sut {
    Wire(ServerHandle),
    Direct(ShardedDash),
}

impl Sut {
    /// Start serving `engine`; wire systems also return their one
    /// client connection.
    fn start(spec: &Spec, engine: ShardedDash) -> Result<(Sut, Option<RespClient>), String> {
        match spec.transport {
            Transport::Direct => Ok((Sut::Direct(engine), None)),
            Transport::Wire => {
                let opts = ServeOptions { event_workers: Some(1), ..ServeOptions::default() };
                let server =
                    serve_with(engine, "127.0.0.1:0", opts).map_err(|e| format!("serve: {e}"))?;
                let client =
                    RespClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
                Ok((Sut::Wire(server), Some(client)))
            }
        }
    }

    fn driver(&self, client: Option<RespClient>) -> Driver<'_> {
        match (self, client) {
            (Sut::Direct(engine), _) => Driver::new(Link::Direct(engine)),
            (Sut::Wire(_), Some(client)) => Driver::new(Link::Wire(client)),
            (Sut::Wire(_), None) => unreachable!("a wire system starts with its client"),
        }
    }

    /// Stop serving. A wire server shuts down (clean close, every
    /// thread joined); a bare engine is dropped without `close()`,
    /// which is how this repo's tests crash a store.
    fn stop(self) {
        if let Sut::Wire(server) = self {
            server.shutdown();
        }
    }
}

/// Open a fresh store in `dir`, preload it and start serving: what
/// `setup_s` times.
fn set_up(
    spec: &Spec,
    dir: &Path,
    model: &Model,
) -> Result<(Sut, Option<RespClient>, store::Preloaded), String> {
    let engine = store::open(dir)?;
    let pre = store::preload(&engine, model)?;
    let (sut, client) = Sut::start(spec, engine)?;
    Ok((sut, client, pre))
}

fn new_scratch(spec: &Spec) -> Result<Scratch, String> {
    Scratch::new(spec.name).map_err(|e| format!("scratch dir: {e}"))
}

/// The gated run: tracing off everywhere.
fn run_untraced(spec: &'static Spec, seed: u64, plan: &Plan) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut setup_secs = Vec::new();
    let mut recover_ms = Vec::new();
    let (scratch, mut model, sut, client, pre) = loop {
        let scratch = new_scratch(spec)?;
        let model = Model::new(seed, plan.preload(spec), spec.value_len, spec.mix);
        let start = Instant::now();
        let (sut, client, pre) = set_up(spec, scratch.path(), &model)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        tally.attempted += model.preloaded();
        if !recover_ms.is_empty() && plan.setup.enough(setup_secs.len(), setup_secs.iter().sum()) {
            break (scratch, model, sut, client, pre);
        }
        drop(client);
        sut.stop();
        if recover_ms.is_empty() {
            // Recovery is measured on the first set-up, on the state a
            // preload leaves: the same bytes however fast the window
            // later runs.
            let (ms, engine) = store::crash_reopen_cycles(scratch.path(), &model, &plan.recover)?;
            recover_ms = ms;
            tally.add(Driver::new(Link::Direct(&engine)).verify_all(&model)?);
        }
    };

    let mut driver = sut.driver(client);
    let warm_secs = plan.seconds * WARMUP_SHARE;
    tally.add(run_window(&mut driver, &mut model, spec, warm_secs, |_| Ok(()))?.tally);
    let window = run_window(&mut driver, &mut model, spec, plan.seconds, |_| Ok(()))?;
    tally.add(window.tally);
    tally.add(driver.verify_all(&model)?);
    drop(driver);
    sut.stop();
    drop(scratch);

    let rounds = window.rounds();
    Ok(RunResult {
        workload: spec.name,
        traced: false,
        attempted: tally.attempted,
        failed: tally.failed,
        readings: vec![
            Reading::new("setup_s", median(&setup_secs), setup_secs.len() as u64),
            Reading::new("ops_per_s", window.ops_per_s(), rounds),
            Reading::new("rtt_p50_us", window.rtt_p50_us(), rounds),
            Reading::new("recover_ms", quantile(&recover_ms, 0.10), recover_ms.len() as u64),
            Reading::new("space_amp", pre.space_amp, 1),
            Reading::new("load_factor", pre.load_factor, store::LOAD_FACTOR_SAMPLES),
        ],
    })
}

/// The fixed-length single-threaded part of the traced pass: set up,
/// then replay `plan.replay_ops` requests under spans. Everything read
/// here repeats exactly under one seed.
struct Replay {
    scratch: Scratch,
    model: Model,
    engine: ShardedDash,
    rec: Recorder,
    tally: Tally,
    readings: Vec<Reading>,
}

fn replay(spec: &'static Spec, seed: u64, plan: &Plan) -> Result<Replay, String> {
    let scratch = new_scratch(spec)?;
    let mut model = Model::new(seed, plan.preload(spec), spec.value_len, spec.mix);
    let engine = store::open(scratch.path())?;
    let pre = store::preload(&engine, &model)?;
    let mut tally = Tally { attempted: model.preloaded(), failed: 0 };

    // Request, table and log replays record up to 4 + 1 + 1 spans per
    // op, plus the bulk load; reserved so recording never allocates.
    let mut rec = Recorder::new(plan.replay_ops as usize * 6 + 1);
    let log_before = engine.repl_log_bytes();
    let (ops, failed) = trace::replay_requests(&mut rec, &engine, &mut model, plan.replay_ops);
    tally.add(Tally { attempted: plan.replay_ops, failed });
    let log_bytes = engine.repl_log_bytes() - log_before;
    let telemetry = engine.shard_telemetry();
    let mem_used = engine.mem_used();

    let failed = trace::replay_table(&mut rec, &model, &ops)?;
    tally.add(Tally { attempted: ops.len() as u64 + model.preloaded(), failed });
    trace::replay_log(&mut rec, &model, &ops, scratch.path())?;

    // The two opens recovery is made of, each alone, while the store
    // holds exactly preload + replay; then the engine again, recovered,
    // for the windows that follow.
    drop(engine);
    let (pool_ms, log_ms) = trace::time_opens(scratch.path())?;
    let engine = store::open(scratch.path())?;

    let writes = rec.spans.iter().filter(|s| s.name == "engine.set").count() as u64;
    let readings = vec![
        rec.ns_per_op("resp.decode_ns_per_cmd", "resp.decode"),
        rec.ns_per_op("resp.encode_ns_per_reply", "resp.encode"),
        rec.allocs_per_op("resp.decode_allocs_per_cmd", "resp.decode"),
        rec.allocs_per_op("resp.encode_allocs_per_reply", "resp.encode"),
        rec.ns_per_op("engine.get_ns_per_op", "engine.get"),
        rec.ns_per_op("engine.set_ns_per_op", "engine.set"),
        Reading::new(
            "engine.insert_ops_per_s",
            model.preloaded() as f64 / pre.secs,
            model.preloaded(),
        ),
        rec.allocs_per_op("engine.get_allocs_per_op", "engine.get"),
        rec.allocs_per_op("engine.set_allocs_per_op", "engine.set"),
        Reading::per("engine.mem_used_bytes_per_key", mem_used as f64, model.live_keys()),
        Reading::new("engine.splits", telemetry.iter().map(|t| t.eh_splits).sum::<u64>() as f64, 1),
        Reading::new(
            "engine.doublings",
            telemetry.iter().map(|t| t.eh_doublings).sum::<u64>() as f64,
            1,
        ),
        rec.ns_per_op("log.append_ns_per_op", "log.append"),
        Reading::per("log.bytes_per_op", log_bytes as f64, writes),
        rec.ns_per_op("core.get_ns_per_op", "core.get"),
        rec.ns_per_op("core.neg_get_ns_per_op", "core.neg_get"),
        rec.ns_per_op("core.insert_ns_per_op", "core.load"),
        rec.ns_per_op("core.update_ns_per_op", "core.update"),
        rec.pm_per_op("pmem.reads_per_get", "core.get", |s| s.pm_reads),
        rec.pm_per_op("pmem.reads_per_neg_get", "core.neg_get", |s| s.pm_reads),
        rec.pm_per_op("pmem.reads_per_insert", "core.load", |s| s.pm_reads),
        rec.pm_per_op("pmem.flushes_per_insert", "core.load", |s| s.flushes),
        rec.pm_per_op("pmem.fences_per_insert", "core.load", |s| s.fences),
        rec.pm_per_op("pmem.flush_bytes_per_insert", "core.load", |s| s.flush_bytes),
        rec.pm_per_op("pmem.flushes_per_update", "core.update", |s| s.flushes),
        rec.pm_per_op("pmem.allocs_per_insert", "core.load", |s| s.allocs),
        rec.self_ns_per_op("harness.request_self_ns", "request"),
        Reading::new("pmem.open_ms", pool_ms, store::SHARDS as u64),
        Reading::new("log.reopen_ms", log_ms, store::SHARDS as u64),
    ];
    Ok(Replay { scratch, model, engine, rec, tally, readings })
}

/// Resource counters around a window, for the layers reachable only
/// through the socket.
struct Usage {
    client: stats::ThreadUsage,
    /// Every thread but the client's: with the server in-process, the
    /// server.
    server: stats::ThreadUsage,
    server_allocs: alloc::Tally,
}

impl Usage {
    /// Must be called on the client thread.
    fn now() -> Usage {
        let (client, server) = stats::usage_by_thread();
        Usage { client, server, server_allocs: alloc::other_threads() }
    }
}

/// Engine counters at the end of a run: from the engine when it is
/// ours, over `INFO` when the server owns it.
fn engine_counters(driver: &mut Driver) -> Result<Vec<Reading>, String> {
    let (lock_waits, dead, reclaimed, compactions) = if let Some(engine) = driver.engine() {
        (
            engine.shard_telemetry().iter().map(|t| t.write_lock_waits).sum(),
            engine.dead_bytes(),
            engine.reclaimed_bytes_total(),
            engine.compactions_total(),
        )
    } else {
        let client = driver.client().expect("a driver is wire or direct");
        let mut stat = |f: &str| client.stat_u64(f).map_err(|e| format!("INFO stats {f}: {e}"));
        let (waits, reclaimed, compactions) =
            (stat("write_lock_waits")?, stat("reclaimed_bytes")?, stat("compactions")?);
        let dead = client
            .info_field("dead_bytes")
            .map_err(|e| format!("INFO: {e}"))?
            .and_then(|v| v.parse().ok())
            .ok_or("INFO has no dead_bytes field")?;
        (waits, dead, reclaimed, compactions)
    };
    Ok(vec![
        Reading::new("engine.lock_waits", lock_waits as f64, 1),
        Reading::new("engine.dead_bytes_end", dead as f64, 1),
        Reading::new("engine.reclaimed_bytes", reclaimed as f64, 1),
        Reading::new("engine.compactions", compactions as f64, 1),
    ])
}

/// The traced pass: the span replay, then two half-length windows over
/// the same transport as the gated run — one with the server's tracing
/// off (OS and allocator counters; the residual `net` time), one with
/// `TRACE ON SAMPLE 64` (stage attribution and its overhead).
fn run_traced(spec: &'static Spec, seed: u64, plan: &Plan) -> Result<RunResult, String> {
    let Replay { scratch, mut model, engine, rec, mut tally, mut readings } =
        replay(spec, seed, plan)?;
    let (sut, client) = Sut::start(spec, engine)?;
    let mut driver = sut.driver(client);
    let half = plan.seconds / 2.0;
    tally.add(run_window(&mut driver, &mut model, spec, half * WARMUP_SHARE, |_| Ok(()))?.tally);

    let before = Usage::now();
    let plain = run_window(&mut driver, &mut model, spec, half, |_| Ok(()))?;
    let after = Usage::now();
    tally.add(plain.tally);
    let ops = plain.tally.attempted;
    let ops_per_s = plain.ops_per_s();
    let client = after.client.since(before.client);
    let server = after.server.since(before.server);
    let server_allocs = after.server_allocs.since(before.server_allocs);
    let layer_ns = |name: &str| readings.iter().find(|r| r.name == name).map_or(0.0, |r| r.value);
    let write_share = 1.0 - spec.mix.get_pct as f64 / 100.0;
    let engine_ns = layer_ns("engine.get_ns_per_op") * (1.0 - write_share)
        + layer_ns("engine.set_ns_per_op") * write_share;
    // The codec runs only when there is a wire.
    let codec_ns = match spec.transport {
        Transport::Wire => {
            layer_ns("resp.decode_ns_per_cmd") + layer_ns("resp.encode_ns_per_reply")
        }
        Transport::Direct => 0.0,
    };
    let accounted = codec_ns + engine_ns;
    readings.extend([
        Reading::new("net.rtt_p99_us", plain.rtt_p99_us(), plain.rounds()),
        Reading::new("net.self_ns_per_op", 1e9 / ops_per_s - accounted, ops),
        Reading::per("net.cpu_user_ns_per_op", server.cpu.user_ns as f64, ops),
        Reading::per("net.cpu_sys_ns_per_op", server.cpu.sys_ns as f64, ops),
        Reading::per(
            "net.ctx_switches_per_op",
            (client.ctx_switches + server.ctx_switches) as f64,
            ops,
        ),
        Reading::per("server.allocs_per_op", server_allocs.allocs as f64, ops),
        Reading::per("server.alloc_bytes_per_op", server_allocs.bytes as f64, ops),
        Reading::per("client.cpu_ns_per_op", client.cpu.total_ns() as f64, ops),
    ]);

    if let Some(client) = driver.client() {
        client.trace_on(Some(TRACE_SAMPLE_EVERY)).map_err(|e| format!("TRACE ON: {e}"))?;
        let mut stage_ns = [0i64; dash_server::Stage::COUNT];
        let mut spans = 0u64;
        let mut newest = -1i64;
        let traced = run_window(&mut driver, &mut model, spec, half, |d| {
            // The server's ring keeps the last 256 spans per worker, so
            // it is drained between rounds, outside their timing.
            let client = d.client().expect("wire driver");
            let dump = client
                .trace_dump(dash_server::trace::RING_CAP)
                .map_err(|e| format!("TRACE DUMP: {e}"))?;
            for entry in dump.iter().filter(|e| e.id > newest && e.reason == "sampled") {
                for (slot, stage) in stage_ns.iter_mut().zip(dash_server::Stage::ALL) {
                    *slot += entry.stage_ns(stage.name()).unwrap_or(0);
                }
                spans += 1;
            }
            newest = dump.iter().map(|e| e.id).max().unwrap_or(newest).max(newest);
            Ok(())
        })?;
        tally.add(traced.tally);
        driver.client().expect("wire driver").trace_off().map_err(|e| format!("TRACE OFF: {e}"))?;
        readings.push(Reading::new(
            "server.trace_overhead_pct",
            (1.0 - traced.ops_per_s() / ops_per_s) * 100.0,
            traced.rounds(),
        ));
        const STAGE_METRICS: [&str; dash_server::Stage::COUNT] = [
            "server.stage.queue_wait_ns",
            "server.stage.parse_ns",
            "server.stage.dispatch_ns",
            "server.stage.lock_wait_ns",
            "server.stage.execute_ns",
            "server.stage.persist_ns",
            "server.stage.reply_flush_ns",
        ];
        for (name, total) in STAGE_METRICS.into_iter().zip(stage_ns) {
            readings.push(Reading::per(name, total as f64, spans));
        }
    }

    readings.extend(engine_counters(&mut driver)?);
    tally.add(driver.verify_all(&model)?);
    drop(driver);
    sut.stop();
    let trace_path = Scratch::artefact(&format!("trace-{}.jsonl", spec.name))
        .and_then(|p| rec.write_jsonl(&p).map(|()| p))
        .map_err(|e| format!("writing the trace: {e}"))?;
    eprintln!("{}: {} spans written to {}", spec.name, rec.spans.len(), trace_path.display());
    drop(scratch);

    Ok(RunResult {
        workload: spec.name,
        traced: true,
        attempted: tally.attempted,
        failed: tally.failed,
        readings,
    })
}

/// `--check`: exact counts repeat under one seed; another seed is
/// another op stream.
fn check(seed: u64, plan: &Plan) -> Result<bool, String> {
    let mut ok = true;
    for spec in &WORKLOADS {
        let exact = |r: &Replay| -> Vec<Reading> {
            r.readings.iter().filter(|x| report::EXACT.contains(&x.name)).cloned().collect()
        };
        let a = replay(spec, seed, plan)?;
        let (a_exact, a_hash, a_failed) = (exact(&a), a.model.stream_hash(), a.tally.failed);
        drop(a);
        let b = replay(spec, seed, plan)?;
        let (b_exact, b_hash) = (exact(&b), b.model.stream_hash());
        drop(b);
        let other = replay(spec, seed.wrapping_add(1), plan)?.model.stream_hash();
        for (x, y) in a_exact.iter().zip(&b_exact) {
            if x != y {
                println!(
                    "{}: {} differs between two runs of seed {seed}: {} vs {}",
                    spec.name, x.name, x.value, y.value
                );
                ok = false;
            }
        }
        let repeats = a_hash == b_hash && a_exact.len() == report::EXACT.len();
        let differs = other != a_hash;
        println!(
            "{:<14} exact counts repeat: {}  seed {} stream differs from seed {seed}: {}  failed: {a_failed}",
            spec.name,
            repeats && a_exact == b_exact,
            seed.wrapping_add(1),
            differs
        );
        ok &= repeats && differs && a_failed == 0;
    }
    Ok(ok)
}

fn run_one(spec: &'static Spec, seed: u64, plan: &Plan, traced: bool) -> Result<RunResult, String> {
    eprintln!("{}: {}", spec.name, spec.why);
    if traced {
        run_traced(spec, seed, plan)
    } else {
        run_untraced(spec, seed, plan)
    }
}

/// Everything `main` does after argument parsing; scratch stores are
/// gone by the time this returns, whatever it returns.
fn run(args: &cli::Args) -> Result<bool, String> {
    let usage = |e: String| -> ! { cli::exit_usage(&e, USAGE) };
    let seed: u64 = args.flag("seed", 42).unwrap_or_else(|e| usage(e));
    let seconds: u64 = args.flag("seconds", 10).unwrap_or_else(|e| usage(e));
    let trace: u8 = args.flag("trace", 0).unwrap_or_else(|e| usage(e));
    if !(1..=60).contains(&seconds) {
        usage(format!("--seconds {seconds} is outside 1..=60"));
    }
    if trace > 1 {
        usage(format!("--trace {trace} is neither 0 nor 1"));
    }
    let plan = if args.switch("smoke") { Plan::smoke() } else { Plan::full(seconds as f64) };

    if args.switch("compare") {
        let read = |i: usize| -> Result<_, String> {
            let path: String = args.positional(i, String::new()).unwrap_or_default();
            if path.is_empty() {
                usage("--compare takes two ledger files".into());
            }
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            report::parse_ledger(&text).map_err(|e| format!("{path}: {e}"))
        };
        return Ok(report::compare(&read(0)?, &read(1)?));
    }
    if args.positional::<String>(0, String::new()).is_ok_and(|p| !p.is_empty()) {
        usage("file arguments are only taken by --compare".into());
    }
    // Before any thread is spawned, so that every thread inherits it.
    match pin::to_one_cpu() {
        Some(cpu) => eprintln!("dash-bench: pinned to cpu {cpu}"),
        None => {
            eprintln!("dash-bench: could not pin to one cpu; wake-up cost may vary (see README)")
        }
    }
    if args.switch("check") {
        return check(seed, &plan);
    }

    if let Some(name) = args.flag_opt("workload") {
        let spec =
            workload::find(name).unwrap_or_else(|| usage(format!("unknown workload {name:?}")));
        let result = run_one(spec, seed, &plan, trace == 1)?;
        result.print();
        println!("{}", result.result_line());
        return Ok(result.correct());
    }

    let mut results = Vec::new();
    for traced in [false, true] {
        for spec in &WORKLOADS {
            let result = run_one(spec, seed, &plan, traced)?;
            result.print();
            results.push(result);
        }
    }
    let out = match args.flag_opt("out") {
        Some(path) => path.into(),
        None => Scratch::artefact("dash-bench.json").map_err(|e| format!("ledger dir: {e}"))?,
    };
    std::fs::write(&out, report::ledger_json(seed, plan.seconds, &results))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("ledger written to {}", out.display());
    Ok(results.iter().all(RunResult::correct))
}

fn main() {
    let args = cli::parse_or_exit(
        USAGE,
        &["workload", "seed", "seconds", "trace", "out"],
        &["smoke", "check", "compare"],
        2,
    );
    let code = match run(&args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("dash-bench: {e}");
            1
        }
    };
    std::process::exit(code);
}
