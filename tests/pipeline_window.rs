//! The pipeline window (`net/conn.rs`): a connection decodes up to 16
//! buffered commands, hints their keys to the engine, then executes them
//! in order. None of that may be observable: however a command stream is
//! cut into pipelines and TCP segments it gets the replies — and leaves
//! the store in the state — that sending it one command at a time does.
//! Backpressure, protocol errors and `SHUTDOWN` inside a window answer
//! every executed command exactly once and execute nothing twice.
#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dash_repro::dash_server::resp::{decode_value, encode_command, Decode};
use dash_repro::dash_server::Value;
use dash_repro::{serve_with, EngineConfig, RespClient, ServeOptions, ServerHandle, ShardedDash};

fn server(shard_mb: usize) -> ServerHandle {
    let engine = ShardedDash::open(&EngineConfig {
        shards: 2,
        shard_bytes: shard_mb << 20,
        dir: None,
        ..EngineConfig::default()
    })
    .unwrap();
    let opts = ServeOptions { event_workers: Some(1), ..Default::default() };
    serve_with(engine, "127.0.0.1:0", opts).unwrap()
}

/// xorshift64*: the suite's only randomness, so a seed names a script.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A raw connection: writes go out in whatever pieces the test chooses,
/// replies are parsed off the byte stream one at a time.
struct Wire {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

impl Wire {
    fn connect(server: &ServerHandle) -> Wire {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        Wire { stream, rbuf: Vec::new() }
    }

    /// The next reply, or `None` once the server has hung up.
    fn reply(&mut self) -> Option<Value> {
        loop {
            if let Decode::Complete(v, used) = decode_value(&self.rbuf).expect("server speaks RESP") {
                self.rbuf.drain(..used);
                return Some(v);
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk).expect("reply within the timeout") {
                0 => return None,
                n => self.rbuf.extend_from_slice(&chunk[..n]),
            }
        }
    }
}

fn encoded(cmds: &[Vec<Vec<u8>>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for cmd in cmds {
        let words: Vec<&[u8]> = cmd.iter().map(Vec::as_slice).collect();
        encode_command(&words, &mut wire);
    }
    wire
}

// ---- (a) differential: any pipelining, any chunking ≡ one at a time ----

/// The TTL every expiring write of a script asks for, in seconds: far
/// enough out that nothing expires, so `TTL`'s reply is this number
/// (or, after a stall, a hair under it — see [`normalized`]).
const TTL_SECS: i64 = 1_000_000;
const KEYS: usize = 8;

/// A seeded command script over `KEYS` keys — few enough that commands
/// of one window keep hitting the same key. `k<i>` words are key
/// placeholders, given a per-run prefix by [`materialize`].
fn script(seed: u64, len: usize) -> Vec<Vec<Vec<u8>>> {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let w = |s: &str| s.as_bytes().to_vec();
    let key = |rng: &mut Rng| format!("k{}", rng.below(KEYS)).into_bytes();
    let val = |rng: &mut Rng| {
        let len = [0, 1, 7, 64, 200, 700, 3000][rng.below(7)];
        let fill = b'a' + rng.below(26) as u8;
        vec![fill; len]
    };
    let ttl = || TTL_SECS.to_string().into_bytes();
    (0..len)
        .map(|_| match rng.below(20) {
            0..=3 => vec![w("GET"), key(&mut rng)],
            4..=6 => vec![w("SET"), key(&mut rng), val(&mut rng)],
            7 => vec![w("set"), key(&mut rng), val(&mut rng), w("ex"), ttl()],
            8 => vec![w("DEL"), key(&mut rng)],
            9 => vec![w("DEL"), key(&mut rng), key(&mut rng), key(&mut rng)],
            10 => vec![w("MGET"), key(&mut rng), key(&mut rng), key(&mut rng), key(&mut rng)],
            11 => vec![w("MSET"), key(&mut rng), val(&mut rng), key(&mut rng), val(&mut rng)],
            12 => vec![w("EXPIRE"), key(&mut rng), ttl()],
            13 => vec![w("TTL"), key(&mut rng)],
            14 => vec![w("EXISTS"), key(&mut rng), key(&mut rng)],
            15 => vec![w("PING")],
            16 => vec![w("PING"), val(&mut rng)],
            17 => vec![w("FROBNICATE"), key(&mut rng)],
            18 => vec![w("get"), key(&mut rng)],
            // Wrong arities of keyed commands: the window hints what
            // keys it finds, dispatch answers with the arity error.
            _ => match rng.below(5) {
                0 => vec![w("GET")],
                1 => vec![w("SET"), key(&mut rng)],
                2 => vec![w("MSET"), key(&mut rng)],
                3 => vec![w("TTL"), key(&mut rng), key(&mut rng)],
                _ => vec![w("MGET")],
            },
        })
        .collect()
}

/// The script with its key placeholders prefixed by `run`, so runs that
/// share a server never see each other's keys.
fn materialize(script: &[Vec<Vec<u8>>], run: &str) -> Vec<Vec<Vec<u8>>> {
    let placeholder = |word: &[u8]| {
        word.len() == 2 && word[0] == b'k' && (b'0'..b'0' + KEYS as u8).contains(&word[1])
    };
    script
        .iter()
        .map(|cmd| {
            cmd.iter()
                .enumerate()
                .map(|(i, word)| {
                    if i > 0 && placeholder(word) {
                        [run.as_bytes(), word].concat()
                    } else {
                        word.clone()
                    }
                })
                .collect()
        })
        .collect()
}

/// `TTL`'s positive replies count down with the wall clock; every other
/// reply must match to the byte.
fn normalized(cmd: &[Vec<u8>], reply: Value) -> Value {
    match reply {
        Value::Integer(n) if cmd[0].eq_ignore_ascii_case(b"TTL") && n > 0 => {
            assert!((TTL_SECS - 600..=TTL_SECS).contains(&n), "TTL {n}");
            Value::Integer(TTL_SECS)
        }
        other => other,
    }
}

/// Send `cmds` in pipelines of `depth`, each pipeline's bytes cut at
/// random points when `chunk` is given (with a pause at some cuts, so
/// the server really reads a command in pieces); returns every reply.
fn exchange(
    wire: &mut Wire,
    cmds: &[Vec<Vec<u8>>],
    depth: usize,
    mut chunk: Option<&mut Rng>,
) -> Vec<Value> {
    let mut replies = Vec::with_capacity(cmds.len());
    for batch in cmds.chunks(depth) {
        let bytes = encoded(batch);
        let mut rest = bytes.as_slice();
        while !rest.is_empty() {
            let cut = match chunk.as_deref_mut() {
                Some(rng) => {
                    let most = rest.len().min(1 + rng.below(900));
                    let cut = 1 + rng.below(most);
                    if rng.below(6) == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    cut
                }
                None => rest.len(),
            };
            wire.stream.write_all(&rest[..cut]).unwrap();
            rest = &rest[cut..];
        }
        for cmd in batch {
            let reply = wire.reply().expect("connection closed mid-script");
            replies.push(normalized(cmd, reply));
        }
    }
    replies
}

/// What the run left behind: its keys (prefix stripped, sorted), and the
/// value and TTL of each of the `KEYS` keys — which it then deletes, so
/// `KEYS *` stays a page however many runs share the server.
fn final_state(c: &mut RespClient, run: &str) -> (Vec<Vec<u8>>, Vec<(Value, Value)>) {
    let Value::Array(all) = c.command(&[b"KEYS", b"*"]).unwrap() else {
        panic!("KEYS must reply with an array");
    };
    let mut mine: Vec<Vec<u8>> = all
        .into_iter()
        .filter_map(|k| match k {
            Value::Bulk(k) => k.strip_prefix(run.as_bytes()).map(<[u8]>::to_vec),
            _ => None,
        })
        .collect();
    mine.sort();
    let values = (0..KEYS)
        .map(|i| {
            let k = format!("{run}k{i}").into_bytes();
            let ttl = normalized(&[b"TTL".to_vec()], c.command(&[b"TTL", &k]).unwrap());
            let value = c.command(&[b"GET", &k]).unwrap();
            c.command(&[b"DEL", &k]).unwrap();
            (value, ttl)
        })
        .collect();
    (mine, values)
}

#[test]
fn any_pipelining_and_chunking_replies_like_one_command_at_a_time() {
    const SEEDS: u64 = 32;
    const SCRIPT_LEN: usize = 160;
    let server = server(64);
    let mut control = RespClient::connect(server.addr()).unwrap();
    for seed in 1..=SEEDS {
        let script = script(seed, SCRIPT_LEN);
        let run = |name: &str, depth: usize, chunk: Option<&mut Rng>, c: &mut RespClient| {
            let prefix = format!("s{seed}:{name}:");
            let mut wire = Wire::connect(&server);
            let replies = exchange(&mut wire, &materialize(&script, &prefix), depth, chunk);
            (replies, final_state(c, &prefix))
        };
        let reference = run("d1", 1, None, &mut control);
        assert!(
            reference.0.iter().any(|r| matches!(r, Value::Bulk(_)))
                && reference.0.iter().any(|r| matches!(r, Value::Error(_))),
            "seed {seed}: a script has hits and errors"
        );
        for depth in [2, 16, 17, 40] {
            let whole = run(&format!("d{depth}"), depth, None, &mut control);
            assert!(whole == reference, "seed {seed}, depth {depth}: differs from depth 1");
            let mut cuts = Rng(seed << 8 | depth as u64);
            let cut = run(&format!("c{depth}"), depth, Some(&mut cuts), &mut control);
            assert!(cut == reference, "seed {seed}, depth {depth}, re-chunked: differs");
        }
        let mut cuts = Rng(seed << 8 | 1);
        let cut = run("c1", 1, Some(&mut cuts), &mut control);
        assert!(cut == reference, "seed {seed}, depth 1, re-chunked: differs");
    }
    assert_eq!(control.info_field("worker_panics").unwrap().as_deref(), Some("0"));
    server.shutdown();
}

/// Commands of one window see each other's effects, in order: the hint
/// runs before any of them executes, and must not be what they read.
#[test]
fn a_window_executes_in_order_and_sees_its_own_writes() {
    let server = server(16);
    let mut c = RespClient::connect(server.addr()).unwrap();
    c.command(&[b"SET", b"k", b"old"]).unwrap();
    for cmd in [
        &[b"GET".as_slice(), b"k"][..],
        &[b"SET", b"k", b"new"],
        &[b"GET", b"k"],
        &[b"DEL", b"k"],
        &[b"GET", b"k"],
        &[b"MSET", b"k", b"again", b"other", b"x"],
        &[b"MGET", b"k", b"other", b"absent"],
    ] {
        c.enqueue(cmd);
    }
    c.flush().unwrap();
    let ok = || Value::Simple("OK".into());
    let expect = [
        Value::bulk(*b"old"),
        ok(),
        Value::bulk(*b"new"),
        Value::Integer(1),
        Value::Nil,
        ok(),
        Value::Array(vec![Value::bulk(*b"again"), Value::bulk(*b"x"), Value::Nil]),
    ];
    for want in expect {
        assert_eq!(c.read_reply().unwrap(), want);
    }
    server.shutdown();
}

// ---- (b) backpressure inside a window ----------------------------------

/// A client that pipelines far more reply bytes than the write buffer's
/// high-water mark and does not read: the server stops mid-window, and
/// once the client reads again every command is answered exactly once,
/// in order. `DEL`s of distinct present keys make a double execution
/// visible (its second reply would be 0, and one reply too many).
#[test]
fn high_water_inside_a_window_answers_each_command_once_in_order() {
    const BIG: usize = 64 * 1024;
    const ROUNDS: usize = 160; // × 2 GETs × 64 KiB = 20 MiB of replies
    let server = server(64);
    let mut control = RespClient::connect(server.addr()).unwrap();
    let big = |i: usize| vec![b'A' + (i % 23) as u8; BIG];
    for i in 0..4 {
        control.command(&[b"SET", format!("big{i}").as_bytes(), &big(i)]).unwrap();
    }
    for round in 0..ROUNDS {
        control.command(&[b"SET", format!("once{round}").as_bytes(), b"x"]).unwrap();
    }
    // Commands of the stalled connection executed so far: the server's
    // count, less the control connection's own polls since `base`.
    let mut polls = 0u64;
    let mut executed = |c: &mut RespClient, base: u64| {
        polls += 1;
        c.stat_u64("commands_served").unwrap() - base - polls
    };
    let base = control.stat_u64("commands_served").unwrap();

    let mut cmds = Vec::new();
    for round in 0..ROUNDS {
        cmds.push(vec![b"GET".to_vec(), format!("big{}", round % 4).into_bytes()]);
        cmds.push(vec![b"GET".to_vec(), format!("big{}", (round + 1) % 4).into_bytes()]);
        cmds.push(vec![b"DEL".to_vec(), format!("once{round}").into_bytes()]);
    }
    let mut wire = Wire::connect(&server);
    wire.stream.write_all(&encoded(&cmds)).unwrap();

    // Not reading: the server must park with commands still unexecuted.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut parked_at = 0;
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = executed(&mut control, base);
        if now == parked_at && now > 0 {
            break; // no progress over a whole poll: it is waiting for us
        }
        parked_at = now;
        assert!(Instant::now() < deadline, "server never settled");
    }
    assert!(
        parked_at < cmds.len() as u64,
        "20 MiB of replies fit without backpressure: nothing was tested"
    );

    for (i, cmd) in cmds.iter().enumerate() {
        let reply = wire.reply().expect("connection must stay open");
        match cmd[0].as_slice() {
            b"GET" => {
                let round = i / 3;
                let which = if i % 3 == 0 { round % 4 } else { (round + 1) % 4 };
                assert!(reply == Value::Bulk(big(which)), "reply {i}: wrong value");
            }
            _ => assert_eq!(reply, Value::Integer(1), "reply {i}: DEL ran other than once"),
        }
    }
    assert_eq!(executed(&mut control, base), cmds.len() as u64, "each command ran once");
    assert_eq!(control.command(&[b"DBSIZE"]).unwrap(), Value::Integer(4));
    // Nothing further arrives.
    wire.stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let mut extra = [0u8; 16];
    assert!(wire.rbuf.is_empty() && wire.stream.read(&mut extra).is_err());
    server.shutdown();
}

// ---- (c) errors and fate commands inside a window -----------------------

/// A protocol error behind `k` good commands: `k` replies, then the
/// error, then the connection closes — whatever `k` is against the
/// window size.
#[test]
fn protocol_error_after_good_commands_answers_them_first() {
    let server = server(16);
    for good in [0usize, 1, 5, 15, 16, 17, 33] {
        let mut cmds: Vec<Vec<Vec<u8>>> = (0..good)
            .map(|i| vec![b"SET".to_vec(), format!("pe{good}:{i}").into_bytes(), b"v".to_vec()])
            .collect();
        let mut bytes = encoded(&cmds);
        bytes.extend_from_slice(b"*2\r\n$3\r\nGET\r\n:notabulk\r\n");
        cmds.push(vec![b"SET".to_vec(), format!("pe{good}:after").into_bytes(), b"v".to_vec()]);
        bytes.extend_from_slice(&encoded(&cmds[good..]));
        let mut wire = Wire::connect(&server);
        wire.stream.write_all(&bytes).unwrap();
        for i in 0..good {
            assert_eq!(wire.reply(), Some(Value::Simple("OK".into())), "good {good}, reply {i}");
        }
        let Some(Value::Error(e)) = wire.reply() else {
            panic!("good {good}: the protocol error must be reported");
        };
        assert!(e.contains("protocol error"), "{e}");
        assert_eq!(wire.reply(), None, "good {good}: then the server hangs up");
        let mut c = RespClient::connect(server.addr()).unwrap();
        for i in 0..good {
            let k = format!("pe{good}:{i}");
            assert_eq!(c.command(&[b"GET", k.as_bytes()]).unwrap(), Value::bulk(*b"v"));
        }
        let after = format!("pe{good}:after");
        assert_eq!(c.command(&[b"GET", after.as_bytes()]).unwrap(), Value::Nil);
    }
    server.shutdown();
}

/// `SHUTDOWN` third of five in one window: three replies, and the two
/// commands decoded behind it are never executed.
#[test]
fn shutdown_inside_a_window_stops_execution_there() {
    let server = server(16);
    let cmds: Vec<Vec<Vec<u8>>> = [
        &[b"SET".as_slice(), b"a", b"1"][..],
        &[b"SET", b"b", b"2"],
        &[b"SHUTDOWN"],
        &[b"SET", b"c", b"3"],
        &[b"DEL", b"a"],
    ]
    .iter()
    .map(|cmd| cmd.iter().map(|w| w.to_vec()).collect())
    .collect();
    let mut wire = Wire::connect(&server);
    wire.stream.write_all(&encoded(&cmds)).unwrap();
    for i in 0..3 {
        assert_eq!(wire.reply(), Some(Value::Simple("OK".into())), "reply {i}");
    }
    assert_eq!(wire.reply(), None, "nothing after SHUTDOWN's +OK");
    // The connection is closed: whatever it was going to execute, it has.
    let engine = server.engine();
    assert_eq!(engine.get(b"a").unwrap().as_deref(), Some(b"1".as_slice()), "DEL a never ran");
    assert_eq!(engine.get(b"b").unwrap().as_deref(), Some(b"2".as_slice()));
    assert_eq!(engine.get(b"c").unwrap(), None, "SET c never ran");
    server.shutdown();
}
