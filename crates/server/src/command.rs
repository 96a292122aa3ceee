//! The command table: the one place that says what each command *is* —
//! its name, its arity, whether it writes, where its keys sit, which
//! latency family times it and which arm of
//! [`execute`](crate::server::execute) runs it. A connection resolves a
//! name here once, as it decodes the command ([`lookup`]); the pipeline
//! hint, the replica and slot gates, the arity check, the executor, the
//! histograms and the replica's tail applier all read the resolved entry.

use std::ops::RangeInclusive;

use crate::metrics::CmdFamily as F;

/// The arm of [`execute`](crate::server::execute) that runs a command.
/// A row naming a variant without an arm fails `execute`'s exhaustive
/// `match`; an arm whose variant no row names fails here.
#[deny(dead_code)]
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cmd {
    Get,
    Set,
    Mget,
    Mset,
    Del,
    Exists,
    /// `EXPIRE` / `PEXPIRE`: milliseconds per unit of the argument.
    Expire(u64),
    /// `TTL` / `PTTL`: milliseconds per unit of the reply.
    Ttl(i64),
    Persist,
    Ping,
    Scan,
    Keys,
    Dbsize,
    Info,
    Snapshot,
    Slowlog,
    Trace,
    TraceId,
    Replconf,
    Psync,
    Replicaof,
    Cluster,
    Asking,
    Shutdown,
    #[cfg(test)]
    PanicTest,
    Unknown,
}

/// One row of the table. Read-only outside the crate ([`commands`]).
#[derive(Debug)]
pub struct Command {
    /// Upper-case ASCII; matched case-insensitively.
    pub name: &'static str,
    /// Argument counts (the name excluded) that reach the executor; any
    /// other is answered `wrong number of arguments`. A shape that is not
    /// a plain range (`SET`'s 2 or 4) is finished by the executor.
    pub arity: RangeInclusive<usize>,
    /// Reaches a mutating engine call, so a replica bounces it with
    /// `-READONLY`; `tests/command_table.rs` holds every row to that.
    pub write: bool,
    /// Where the keys sit: every `key_step`-th argument from the first,
    /// at most `key_limit` of them (0: the command addresses no key).
    pub key_step: usize,
    pub key_limit: usize,
    pub(crate) family: F,
    pub(crate) id: Cmd,
}

impl Command {
    /// The keys `args` addresses, in argument order, uncollected: the
    /// cluster slot gate routes by them and a pipeline window hints them to
    /// the engine. Empty for a command that addresses no key (`SCAN`,
    /// `KEYS`, `DBSIZE` and `SNAPSHOT` deliberately stay node-local under
    /// cluster mode) and for a keyed command sent without arguments.
    pub(crate) fn keys<'a, 'k>(&self, args: &'a [&'k [u8]]) -> impl Iterator<Item = &'k [u8]> + 'a {
        args.iter().copied().step_by(self.key_step).take(self.key_limit)
    }
}

const fn row(
    name: &'static str,
    id: Cmd,
    arity: RangeInclusive<usize>,
    (key_step, key_limit): (usize, usize),
    write: bool,
    family: F,
) -> Command {
    Command { name, arity, write, key_step, key_limit, family, id }
}

const ANY: RangeInclusive<usize> = 0..=usize::MAX;
const MANY: RangeInclusive<usize> = 1..=usize::MAX;
// Key specs: none, the first argument, every argument, every other one.
const NONE: (usize, usize) = (1, 0);
const FIRST: (usize, usize) = (1, 1);
const ALL: (usize, usize) = (1, usize::MAX);
const PAIRS: (usize, usize) = (2, usize::MAX);
const R: bool = false;
const W: bool = true;

/// Hot first: [`lookup`] is a linear scan, so a `GET` resolves in one
/// comparison and a `SET` in two, and the data commands come before the
/// administrative ones, which pay a few nanoseconds more on requests that
/// cost microseconds. The order is a constant, not a knob.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    //  name         executor          arity   keys   write family
    row("GET",       Cmd::Get,         1..=1,  FIRST, R, F::Get),
    // 2 or 4 arguments: the executor refuses 3.
    row("SET",       Cmd::Set,         2..=4,  FIRST, W, F::Set),
    row("MGET",      Cmd::Mget,        MANY,   ALL,   R, F::Mget),
    // An even count: the executor refuses a dangling key.
    row("MSET",      Cmd::Mset,        2..=usize::MAX, PAIRS, W, F::Mset),
    row("DEL",       Cmd::Del,         MANY,   ALL,   W, F::Del),
    // DEL under a second name: frees are epoch-deferred everywhere, so
    // the "async reclaim" half of Redis UNLINK is the engine's normal mode.
    row("UNLINK",    Cmd::Del,         MANY,   ALL,   W, F::Del),
    row("EXISTS",    Cmd::Exists,      MANY,   ALL,   R, F::Other),
    row("EXPIRE",    Cmd::Expire(1000), 2..=2, FIRST, W, F::Other),
    row("PEXPIRE",   Cmd::Expire(1),   2..=2,  FIRST, W, F::Other),
    row("TTL",       Cmd::Ttl(1000),   1..=1,  FIRST, R, F::Other),
    row("PTTL",      Cmd::Ttl(1),      1..=1,  FIRST, R, F::Other),
    row("PERSIST",   Cmd::Persist,     1..=1,  FIRST, W, F::Other),
    row("PING",      Cmd::Ping,        0..=1,  NONE,  R, F::Other),
    // `cursor [COUNT n]`: the executor refuses 2 and a non-COUNT word.
    row("SCAN",      Cmd::Scan,        1..=3,  NONE,  R, F::Scan),
    row("KEYS",      Cmd::Keys,        1..=1,  NONE,  R, F::Other),
    row("DBSIZE",    Cmd::Dbsize,      0..=0,  NONE,  R, F::Other),
    row("INFO",      Cmd::Info,        0..=1,  NONE,  R, F::Other),
    row("SNAPSHOT",  Cmd::Snapshot,    1..=1,  NONE,  R, F::Other),
    // Sub-command surfaces answer their own usage errors.
    row("SLOWLOG",   Cmd::Slowlog,     ANY,    NONE,  R, F::Other),
    row("TRACE",     Cmd::Trace,       ANY,    NONE,  R, F::Other),
    row("TRACEID",   Cmd::TraceId,     2..=2,  NONE,  R, F::Other),
    row("REPLCONF",  Cmd::Replconf,    ANY,    NONE,  R, F::Other),
    row("PSYNC",     Cmd::Psync,       ANY,    NONE,  R, F::Psync),
    row("REPLICAOF", Cmd::Replicaof,   2..=2,  NONE,  R, F::Other),
    row("CLUSTER",   Cmd::Cluster,     ANY,    NONE,  R, F::Other),
    row("ASKING",    Cmd::Asking,      ANY,    NONE,  R, F::Other),
    row("SHUTDOWN",  Cmd::Shutdown,    ANY,    NONE,  R, F::Other),
    #[cfg(test)]
    row("PANICTEST", Cmd::PanicTest,   ANY,    NONE,  R, F::Other),
];

/// What a word that names no command resolves to: its executor answers
/// `unknown command '<word>'`.
static UNKNOWN: Command = row("", Cmd::Unknown, ANY, NONE, R, F::Other);

/// Resolve a command word, case-insensitively. Total: an unknown, empty
/// or over-long word is [`UNKNOWN`]; nothing downstream handles an `Option`.
pub(crate) fn lookup(word: &[u8]) -> &'static Command {
    COMMANDS.iter().find(|c| word.eq_ignore_ascii_case(c.name.as_bytes())).unwrap_or(&UNKNOWN)
}

/// A command as a SLOWLOG or TRACE record shows it: its word as sent,
/// upper-cased (one the table does not know is recorded all the same), and
/// the first 32 bytes of its first argument — enough to identify a key
/// family without copying a value-sized key — both as lossy UTF-8.
pub(crate) fn describe(parts: &[impl AsRef<[u8]>]) -> (String, String) {
    let text = |i: usize, max: usize| {
        let part = parts.get(i).map_or(&[][..], |p| p.as_ref());
        String::from_utf8_lossy(&part[..part.len().min(max)]).into_owned()
    };
    (text(0, usize::MAX).to_ascii_uppercase(), text(1, 32))
}

/// The table, for tests that referee it from outside the crate.
pub fn commands() -> &'static [Command] {
    COMMANDS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_upper_case_and_short_and_writes_are_keyed() {
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(!c.name.is_empty() && c.name.len() <= 16, "{}", c.name);
            assert!(c.name.bytes().all(|b| b.is_ascii_uppercase()), "{}", c.name);
            assert!(COMMANDS[..i].iter().all(|d| d.name != c.name), "{} listed twice", c.name);
            assert!(c.key_step >= 1 && c.arity.start() <= c.arity.end(), "{}", c.name);
            assert!(!c.write || c.key_limit > 0, "{} writes but addresses no key", c.name);
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_total() {
        for c in COMMANDS {
            assert!(std::ptr::eq(lookup(c.name.as_bytes()), c));
            assert!(std::ptr::eq(lookup(c.name.to_ascii_lowercase().as_bytes()), c));
        }
        assert_eq!(lookup(b"GeT").family, F::Get);
        assert_eq!(lookup(b"MSET").family, F::Mset);
        assert_eq!(lookup(b"unlink").family, F::Del);
        assert_eq!(lookup(b"psync").family, F::Psync);
        assert_eq!(lookup(b"EXISTS").family, F::Other);
        for (i, fam) in F::ALL.iter().enumerate() {
            assert_eq!(fam.index(), i, "index must match ALL order");
        }
        for word in [&b""[..], b"NOSUCH", b"FROBNICATE", b"GETT", b"SEVENTEEN-BYTES-X"] {
            let c = lookup(word);
            assert!(std::ptr::eq(c, &UNKNOWN), "{word:?} resolved to {}", c.name);
            assert!(matches!(c.id, Cmd::Unknown) && !c.write && c.family == F::Other);
        }
    }

    #[test]
    fn key_specs_extract_the_right_keys() {
        fn keys(name: &[u8], args: &[&'static str]) -> Vec<&'static [u8]> {
            let args: Vec<&[u8]> = args.iter().map(|s| s.as_bytes()).collect();
            lookup(name).keys(&args).collect()
        }
        assert_eq!(keys(b"GET", &["k"]), [b"k"]);
        assert_eq!(keys(b"SET", &["k", "v"]), [b"k"]);
        assert_eq!(keys(b"SET", &["k", "v", "EX", "10"]), [b"k"]);
        assert_eq!(keys(b"MGET", &["a", "b"]), [b"a", b"b"]);
        assert_eq!(
            keys(b"MSET", &["a", "1", "b", "2"]),
            [b"a", b"b"],
            "MSET keys are every other argument"
        );
        assert_eq!(keys(b"DEL", &["a", "b", "c"]).len(), 3);
        assert_eq!(keys(b"UNLINK", &["a", "b"]).len(), 2);
        for single in ["EXPIRE", "PEXPIRE", "TTL", "PTTL", "PERSIST"] {
            assert_eq!(keys(single.as_bytes(), &["k", "7"]), [b"k"], "{single}");
        }
        assert!(keys(b"PING", &[]).is_empty());
        assert!(keys(b"INFO", &["replication"]).is_empty());
        assert!(keys(b"SCAN", &["0"]).is_empty(), "SCAN stays node-local");
        assert!(keys(b"GET", &[]).is_empty(), "bad arity bypasses the gate");
    }

    /// README's command table cannot fall behind this one again.
    #[test]
    fn readme_documents_every_command() {
        let readme = include_str!("../../../README.md");
        for c in COMMANDS.iter().filter(|c| !matches!(c.id, Cmd::PanicTest)) {
            assert!(readme.contains(&format!("`{}`", c.name)), "README lacks `{}`", c.name);
        }
    }
}
