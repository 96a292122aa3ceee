//! The command table (`dash_server::commands()`) as referee: every row's
//! `write` flag checked against what the server actually does to the
//! replication offset (on a primary) and to a client (on a replica), its
//! arity error, its slot gate in cluster mode — and a golden transcript,
//! recorded from the build *before* the table existed, that the dispatch
//! built on the table must reproduce byte for byte.
#![cfg(unix)]

use std::time::{Duration, Instant};

use dash_repro::dash_server::resp::encode;
use dash_repro::dash_server::{commands, key_slot, Command, Value};
use dash_repro::{serve_with, EngineConfig, RespClient, ServeOptions, ServerHandle, ShardedDash};

mod common;
use common::TempDir;

/// One well-formed invocation per command, in the order the golden script
/// runs them. `<path>` stands for a file in the test's scratch directory.
/// The two keys share a slot (so the multi-key examples are legal in
/// cluster mode), and `REPLICAOF` takes the form that changes no role.
const EXAMPLES: &[(&str, &[&str])] = &[
    ("SET", &["{t}a", "v"]),
    ("GET", &["{t}a"]),
    ("MSET", &["{t}a", "1", "{t}b", "2"]),
    ("MGET", &["{t}a", "{t}b"]),
    ("EXISTS", &["{t}a"]),
    ("EXPIRE", &["{t}a", "1000"]),
    ("TTL", &["{t}a"]),
    ("PEXPIRE", &["{t}a", "1000000"]),
    ("PTTL", &["{t}a"]),
    ("PERSIST", &["{t}a"]),
    ("SCAN", &["0"]),
    ("KEYS", &["*"]),
    ("DBSIZE", &[]),
    ("DEL", &["{t}a"]),
    ("UNLINK", &["{t}b"]),
    ("PING", &[]),
    ("INFO", &["replication"]),
    ("SNAPSHOT", &["<path>"]),
    ("SLOWLOG", &["RESET"]),
    ("TRACE", &["OFF"]),
    ("TRACEID", &["0", "0"]),
    ("REPLCONF", &["listening-port", "1"]),
    ("REPLICAOF", &["elsewhere", "1"]),
    ("CLUSTER", &["INFO"]),
    ("ASKING", &[]),
    ("PSYNC", &["?", "-1"]),
    ("SHUTDOWN", &[]),
];

fn example(name: &str) -> &'static [&'static str] {
    let found = EXAMPLES.iter().find(|(n, _)| *n == name);
    found.unwrap_or_else(|| panic!("table entry {name} has no example in this test: add one")).1
}

/// The table, `SHUTDOWN` moved to the end: one server can then take one
/// invocation of every row.
fn rows_shutdown_last() -> Vec<&'static Command> {
    let mut rows: Vec<&Command> = commands().iter().collect();
    rows.sort_by_key(|c| c.name == "SHUTDOWN");
    rows
}

fn server(opts: ServeOptions) -> ServerHandle {
    let cfg =
        EngineConfig { shards: 2, shard_bytes: 8 << 20, dir: None, ..EngineConfig::default() };
    serve_with(ShardedDash::open(&cfg).unwrap(), "127.0.0.1:0", opts).unwrap()
}

/// Send `word args…` (a `<path>` argument becoming a snapshot file in
/// `scratch`) and return the first reply.
fn command(conn: &mut RespClient, word: &str, args: &[&str], scratch: &TempDir) -> Value {
    let path = scratch.path.join("table.snap");
    let mut parts: Vec<&[u8]> = vec![word.as_bytes()];
    parts.extend(args.iter().map(|a| match *a {
        "<path>" => path.to_str().unwrap().as_bytes(),
        a => a.as_bytes(),
    }));
    conn.command(&parts).unwrap()
}

/// [`command`] on a connection of its own, so that a connection-fate
/// command — `PSYNC`, `SHUTDOWN` — costs nothing else.
fn send(server: &ServerHandle, name: &str, args: &[&str], scratch: &TempDir) -> Value {
    command(&mut RespClient::connect(server.addr()).unwrap(), name, args, scratch)
}

fn scratch(tag: &str) -> TempDir {
    let dir = TempDir::new(tag);
    std::fs::create_dir_all(&dir.path).unwrap();
    dir
}

fn error_text(v: &Value) -> &str {
    match v {
        Value::Error(e) => e,
        _ => "",
    }
}

/// The `write` flag is verified, not asserted: a row is a write exactly
/// when a well-formed invocation against existing keys advances the
/// primary's replication offset, and exactly then a replica bounces it.
#[test]
fn write_flag_is_what_moves_the_replication_offset() {
    let dir = scratch("cmdtable-write");
    let primary = server(ServeOptions::default());
    let replica =
        server(ServeOptions { replica_of: Some(primary.addr().to_string()), ..Default::default() });
    let mut ctl = RespClient::connect(primary.addr()).unwrap();
    let mut rctl = RespClient::connect(replica.addr()).unwrap();
    let t0 = Instant::now();
    while rctl.master_link().unwrap().as_deref() != Some("up") {
        assert!(t0.elapsed() < Duration::from_secs(20), "replica never attached");
        std::thread::sleep(Duration::from_millis(20));
    }
    for row in rows_shutdown_last() {
        let args = example(row.name);
        // Both keys exist and carry a deadline before every row, so DEL
        // has something to delete and PERSIST something to clear.
        for key in ["{t}a", "{t}b"] {
            let set = ctl.command(&[b"SET", key.as_bytes(), b"v", b"PX", b"100000000"]).unwrap();
            assert_eq!(set, Value::Simple("OK".into()));
        }
        let before = ctl.repl_offset().unwrap();
        let reply = send(&primary, row.name, args, &dir);
        assert!(!error_text(&reply).starts_with("READONLY"), "{}: {reply:?}", row.name);
        if row.name != "SHUTDOWN" {
            let advanced = ctl.repl_offset().unwrap() > before;
            assert_eq!(advanced, row.write, "{} {args:?} on a primary replied {reply:?}", row.name);
        }
        let bounced = error_text(&send(&replica, row.name, args, &dir)).starts_with("READONLY");
        assert_eq!(bounced, row.write, "{} {args:?} on a replica", row.name);
    }
    // Both took SHUTDOWN last; the handles only join.
    replica.shutdown();
    primary.shutdown();
}

/// One argument short of a row's minimum is the one arity error, in the
/// row's own lower-cased name, and nothing is written.
#[test]
fn one_argument_too_few_is_the_arity_error_and_writes_nothing() {
    let dir = scratch("cmdtable-arity");
    let server = server(ServeOptions::default());
    let mut ctl = RespClient::connect(server.addr()).unwrap();
    let mut checked = 0;
    for row in commands().iter().filter(|c| *c.arity.start() > 0) {
        let before = ctl.repl_offset().unwrap();
        let reply = send(&server, row.name, &example(row.name)[..*row.arity.start() - 1], &dir);
        let want = format!(
            "ERR wrong number of arguments for '{}' command",
            row.name.to_ascii_lowercase()
        );
        assert_eq!(reply, Value::Error(want), "{}", row.name);
        assert_eq!(ctl.repl_offset().unwrap(), before, "{}", row.name);
        checked += 1;
    }
    assert!(checked >= 15, "only {checked} rows have a minimum arity");
    server.shutdown();
}

/// In cluster mode a row is redirected exactly when it has a key spec:
/// `-MOVED` for a slot another node owns, `-CROSSSLOT` for a multi-key
/// row whose keys disagree.
#[test]
fn slot_gate_redirects_exactly_the_keyed_rows() {
    let dir = scratch("cmdtable-slots");
    let server =
        server(ServeOptions { cluster_announce: Some("auto".into()), ..Default::default() });
    let assigned = send(&server, "CLUSTER", &["ASSIGN", "0", "16383", "127.0.0.1:1"], &dir);
    assert_eq!(assigned, Value::Simple("OK".into()));
    assert_ne!(key_slot(b"{a}x"), key_slot(b"{b}x"));
    for row in rows_shutdown_last() {
        let reply = send(&server, row.name, example(row.name), &dir);
        let moved = error_text(&reply).starts_with("MOVED ");
        assert_eq!(moved, row.key_limit > 0, "{}: {reply:?}", row.name);
        if row.key_limit > 1 {
            // Two keys where the row's key spec says keys go, a filler
            // between them when it steps over values.
            let mut args = vec!["v"; 2 * row.key_step];
            (args[0], args[row.key_step]) = ("{a}x", "{b}x");
            let reply = send(&server, row.name, &args, &dir);
            assert!(error_text(&reply).starts_with("CROSSSLOT"), "{}: {reply:?}", row.name);
        }
    }
    server.shutdown();
}

/// A command word in mixed case (`gEt`): names match case-insensitively.
fn mixed_case(name: &str) -> String {
    let flip = |(i, c): (usize, char)| if i % 2 == 0 { c.to_ascii_lowercase() } else { c };
    name.chars().enumerate().map(flip).collect()
}

/// The fixed script's transcript: one `words => reply` line per command,
/// replies as their RESP bytes (escaped). Clock- and run-dependent
/// replies are normalised: an INFO bulk, a positive TTL, a TRACEID id.
fn transcript() -> String {
    let dir = scratch("cmdtable-golden");
    let server = server(ServeOptions::default());
    let mut conn = RespClient::connect(server.addr()).unwrap();
    let mut out = String::new();
    let mut run = |conn: &mut RespClient, name: &str, args: &[&str]| {
        let word = mixed_case(name);
        let reply = match (name, command(conn, &word, args, &dir)) {
            ("INFO", Value::Bulk(_)) => "<info>".to_string(),
            ("TTL" | "PTTL", Value::Integer(n)) if n > 0 => "<ttl>".to_string(),
            ("TRACEID", Value::Integer(_)) => "<id>".to_string(),
            (_, reply) => {
                let mut bytes = Vec::new();
                encode(&reply, &mut bytes);
                bytes.escape_ascii().to_string()
            }
        };
        out.push_str(&format!("{} => {reply}\n", [&[word.as_str()][..], args].concat().join(" ")));
    };
    for &(name, args) in EXAMPLES.iter().filter(|(n, _)| !matches!(*n, "PSYNC" | "SHUTDOWN")) {
        run(&mut conn, name, args);
        if let Some((_, fewer)) = args.split_last() {
            run(&mut conn, name, fewer);
        }
        run(&mut conn, name, &[args, &["extra"][..]].concat());
    }
    run(&mut conn, "FROBNICATE", &["x"]);
    run(&mut conn, "ABCDEFGHIJKLMNOPQRSTUVWXYZ", &[]);
    run(&mut conn, "", &[]);
    // The connection-fate commands, each on a connection it may keep.
    run(&mut RespClient::connect(server.addr()).unwrap(), "PSYNC", example("PSYNC"));
    run(&mut conn, "SHUTDOWN", example("SHUTDOWN"));
    server.shutdown();
    out
}

/// Recorded from the parent of the change that introduced the command
/// table (dispatch by string `match`), committed here as the expectation.
const GOLDEN: &str = r#"sEt {t}a v => +OK\r\n
sEt {t}a => -ERR wrong number of arguments for \'set\' command\r\n
sEt {t}a v extra => -ERR wrong number of arguments for \'set\' command\r\n
gEt {t}a => $1\r\nv\r\n
gEt => -ERR wrong number of arguments for \'get\' command\r\n
gEt {t}a extra => -ERR wrong number of arguments for \'get\' command\r\n
mSeT {t}a 1 {t}b 2 => +OK\r\n
mSeT {t}a 1 {t}b => -ERR wrong number of arguments for \'mset\' command\r\n
mSeT {t}a 1 {t}b 2 extra => -ERR wrong number of arguments for \'mset\' command\r\n
mGeT {t}a {t}b => *2\r\n$1\r\n1\r\n$1\r\n2\r\n
mGeT {t}a => *1\r\n$1\r\n1\r\n
mGeT {t}a {t}b extra => *3\r\n$1\r\n1\r\n$1\r\n2\r\n$-1\r\n
eXiStS {t}a => :1\r\n
eXiStS => -ERR wrong number of arguments for \'exists\' command\r\n
eXiStS {t}a extra => :1\r\n
eXpIrE {t}a 1000 => :1\r\n
eXpIrE {t}a => -ERR wrong number of arguments for \'expire\' command\r\n
eXpIrE {t}a 1000 extra => -ERR wrong number of arguments for \'expire\' command\r\n
tTl {t}a => <ttl>
tTl => -ERR wrong number of arguments for \'ttl\' command\r\n
tTl {t}a extra => -ERR wrong number of arguments for \'ttl\' command\r\n
pExPiRe {t}a 1000000 => :1\r\n
pExPiRe {t}a => -ERR wrong number of arguments for \'pexpire\' command\r\n
pExPiRe {t}a 1000000 extra => -ERR wrong number of arguments for \'pexpire\' command\r\n
pTtL {t}a => <ttl>
pTtL => -ERR wrong number of arguments for \'pttl\' command\r\n
pTtL {t}a extra => -ERR wrong number of arguments for \'pttl\' command\r\n
pErSiSt {t}a => :1\r\n
pErSiSt => -ERR wrong number of arguments for \'persist\' command\r\n
pErSiSt {t}a extra => -ERR wrong number of arguments for \'persist\' command\r\n
sCaN 0 => *2\r\n$1\r\n0\r\n*2\r\n$4\r\n{t}b\r\n$4\r\n{t}a\r\n
sCaN => -ERR wrong number of arguments for \'scan\' command\r\n
sCaN 0 extra => -ERR wrong number of arguments for \'scan\' command\r\n
kEyS * => *2\r\n$4\r\n{t}b\r\n$4\r\n{t}a\r\n
kEyS => -ERR wrong number of arguments for \'keys\' command\r\n
kEyS * extra => -ERR wrong number of arguments for \'keys\' command\r\n
dBsIzE => :2\r\n
dBsIzE extra => -ERR wrong number of arguments for \'dbsize\' command\r\n
dEl {t}a => :1\r\n
dEl => -ERR wrong number of arguments for \'del\' command\r\n
dEl {t}a extra => :0\r\n
uNlInK {t}b => :1\r\n
uNlInK => -ERR wrong number of arguments for \'unlink\' command\r\n
uNlInK {t}b extra => :0\r\n
pInG => +PONG\r\n
pInG extra => $5\r\nextra\r\n
iNfO replication => <info>
iNfO => <info>
iNfO replication extra => -ERR wrong number of arguments for \'info\' command\r\n
sNaPsHoT <path> => :0\r\n
sNaPsHoT => -ERR wrong number of arguments for \'snapshot\' command\r\n
sNaPsHoT <path> extra => -ERR wrong number of arguments for \'snapshot\' command\r\n
sLoWlOg RESET => +OK\r\n
sLoWlOg => -ERR SLOWLOG subcommand must be GET [count], LEN or RESET\r\n
sLoWlOg RESET extra => -ERR SLOWLOG subcommand must be GET [count], LEN or RESET\r\n
tRaCe OFF => +OK\r\n
tRaCe => -ERR TRACE subcommand must be ON [SAMPLE n], OFF, DUMP [n], GET <id>, THRESHOLD <us>, STATUS or RESET\r\n
tRaCe OFF extra => -ERR TRACE subcommand must be ON [SAMPLE n], OFF, DUMP [n], GET <id>, THRESHOLD <us>, STATUS or RESET\r\n
tRaCeId 0 0 => <id>
tRaCeId 0 => -ERR wrong number of arguments for \'traceid\' command\r\n
tRaCeId 0 0 extra => -ERR wrong number of arguments for \'traceid\' command\r\n
rEpLcOnF listening-port 1 => +OK\r\n
rEpLcOnF listening-port => +OK\r\n
rEpLcOnF listening-port 1 extra => +OK\r\n
rEpLiCaOf elsewhere 1 => -ERR attaching to a primary at runtime is not supported; start with --replica-of\r\n
rEpLiCaOf elsewhere => -ERR wrong number of arguments for \'replicaof\' command\r\n
rEpLiCaOf elsewhere 1 extra => -ERR wrong number of arguments for \'replicaof\' command\r\n
cLuStEr INFO => -ERR this server was not started in cluster mode\r\n
cLuStEr => -ERR this server was not started in cluster mode\r\n
cLuStEr INFO extra => -ERR this server was not started in cluster mode\r\n
aSkInG => -ERR this server was not started in cluster mode\r\n
aSkInG extra => -ERR this server was not started in cluster mode\r\n
fRoBnIcAtE x => -ERR unknown command \'fRoBnIcAtE\'\r\n
aBcDeFgHiJkLmNoPqRsTuVwXyZ => -ERR unknown command \'aBcDeFgHiJkLmNoPqRsTuVwXyZ\'\r\n
 => -ERR unknown command \'\'\r\n
pSyNc ? -1 => +FULLRESYNC 8\r\n
sHuTdOwN => +OK\r\n
"#;

#[test]
fn replies_are_the_pre_table_servers_byte_for_byte() {
    let got = transcript();
    for (i, (got, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {} of the transcript", i + 1);
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "transcript:\n{got}");
}
