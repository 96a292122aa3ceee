//! RESP2 wire encoding/decoding (the Redis serialization protocol subset
//! `dash-server` speaks).
//!
//! Two decoders live here, both **incremental**: they take the unconsumed
//! tail of a connection's read buffer and either produce a value plus the
//! number of bytes it occupied, report that more bytes are needed
//! ([`Decode::Incomplete`]), or reject the stream as malformed. That
//! shape is what makes pipelining trivial — the connection loop keeps
//! decoding until `Incomplete`, executes everything it got, and writes
//! all replies back in one burst.
//!
//! * [`decode_args`] — the server side: a client request, restricted
//!   (as real Redis restricts it) to an array of bulk strings. Inline
//!   commands are rejected cleanly rather than half-supported. The
//!   arguments come back as [`Args`], slices *borrowed from the read
//!   buffer* — a command is parsed, executed and answered without a
//!   byte of it being copied or a heap allocation made for it.
//!   [`decode_command`] is the same decoder copying the arguments out,
//!   for callers that must keep them past the buffer.
//! * [`decode_value`] — the client side: any RESP2 reply, including
//!   nested arrays.

use std::fmt;

/// Upper bound on one bulk string (key or value) on the wire: 8 MiB.
/// Far above the engine's value cap, low enough that a malicious length
/// prefix cannot make the server reserve gigabytes.
pub const MAX_BULK_LEN: usize = 8 << 20;
/// Upper bound on elements in one command array.
pub const MAX_COMMAND_ARGS: usize = 1024;
/// Upper bound on one command's total wire size (16 MiB). Without it the
/// per-bulk and per-arg caps still compose to gigabytes that a client
/// could force the server to buffer before the command completes.
pub const MAX_COMMAND_BYTES: usize = 16 << 20;

/// One RESP2 value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `+OK\r\n`
    Simple(String),
    /// `-ERR ...\r\n`
    Error(String),
    /// `:42\r\n`
    Integer(i64),
    /// `$5\r\nhello\r\n`
    Bulk(Vec<u8>),
    /// `$-1\r\n`
    Nil,
    /// `*2\r\n...` (also used for `*-1\r\n`, decoded as `Nil`)
    Array(Vec<Value>),
}

impl Value {
    /// Shorthand for the common "bulk from bytes" construction.
    pub fn bulk(bytes: impl Into<Vec<u8>>) -> Value {
        Value::Bulk(bytes.into())
    }
}

/// A protocol violation; the connection is broken and must be closed
/// (RESP has no way to resynchronize a corrupt stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn protocol(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

/// Outcome of an incremental decode step.
#[derive(Debug, PartialEq, Eq)]
pub enum Decode<T> {
    /// A complete item and the bytes it consumed from the buffer head.
    Complete(T, usize),
    /// The buffer holds only a prefix of an item; read more and retry.
    Incomplete,
}

// ---- encoding ------------------------------------------------------------

/// The wire form of `+OK`.
pub const OK: &[u8] = b"+OK\r\n";
/// The wire form of the nil bulk string.
pub const NIL: &[u8] = b"$-1\r\n";

/// Append `type_byte`, `n` in decimal and CRLF — an integer reply, or
/// the header of a bulk string or array. Digits are formatted on the
/// stack.
fn encode_int_line(type_byte: u8, n: i64, out: &mut Vec<u8>) {
    // '-' and the 19 digits of i64::MIN.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        digits[at] = b'-';
    }
    out.push(type_byte);
    out.extend_from_slice(&digits[at..]);
    out.extend_from_slice(b"\r\n");
}

/// Append `:n\r\n`.
pub fn encode_integer(n: i64, out: &mut Vec<u8>) {
    encode_int_line(b':', n, out);
}

/// Append `bytes` as a bulk string: `$len\r\n`, the bytes, `\r\n`.
pub fn encode_bulk(bytes: &[u8], out: &mut Vec<u8>) {
    encode_int_line(b'$', bytes.len() as i64, out);
    out.extend_from_slice(bytes);
    out.extend_from_slice(b"\r\n");
}

/// Append `*n\r\n`, the header of an array of `n` elements.
pub fn encode_array_len(n: usize, out: &mut Vec<u8>) {
    encode_int_line(b'*', n as i64, out);
}

/// Append the wire form of `v` to `out`.
pub fn encode(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Simple(s) => {
            out.push(b'+');
            out.extend_from_slice(s.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        Value::Error(s) => {
            out.push(b'-');
            out.extend_from_slice(s.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        Value::Integer(i) => encode_integer(*i, out),
        Value::Bulk(b) => encode_bulk(b, out),
        Value::Nil => out.extend_from_slice(NIL),
        Value::Array(items) => {
            encode_array_len(items.len(), out);
            for item in items {
                encode(item, out);
            }
        }
    }
}

/// Encode a command (array of bulk strings) — what clients send.
pub fn encode_command(parts: &[&[u8]], out: &mut Vec<u8>) {
    encode_array_len(parts.len(), out);
    for p in parts {
        encode_bulk(p, out);
    }
}

// ---- decoding ------------------------------------------------------------

/// Find the `\r\n`-terminated line starting at `pos`; returns the line
/// body (without terminator) and the offset just past the terminator.
fn read_line(buf: &[u8], pos: usize) -> Result<Option<(&[u8], usize)>, ProtocolError> {
    let rest = &buf[pos.min(buf.len())..];
    match rest.windows(2).position(|w| w == b"\r\n") {
        Some(i) => {
            let line = &rest[..i];
            if line.contains(&b'\n') || line.contains(&b'\r') {
                return Err(protocol("bare CR or LF inside line"));
            }
            Ok(Some((line, pos + i + 2)))
        }
        None => {
            // A lone CR at the end may still become CRLF; but a bare LF
            // anywhere means the stream is not RESP.
            if rest.contains(&b'\n') {
                return Err(protocol("LF without preceding CR"));
            }
            Ok(None)
        }
    }
}

/// Parse an ASCII integer with an optional leading `-`, rejecting empty
/// bodies, signs alone, and non-digit bytes (RESP lengths are strict).
fn parse_int(line: &[u8], what: &str) -> Result<i64, ProtocolError> {
    let s = std::str::from_utf8(line).map_err(|_| protocol(format!("non-ASCII {what}")))?;
    if s.is_empty() || s == "-" {
        return Err(protocol(format!("empty {what}")));
    }
    s.parse::<i64>().map_err(|_| protocol(format!("invalid {what}: {s:?}")))
}

/// Result of decoding one bulk string: incomplete, the nil bulk, or data
/// (borrowed from the buffer); complete variants carry the offset just
/// past what they consumed.
enum Bulk<'a> {
    Incomplete,
    Nil(usize),
    Data(&'a [u8], usize),
}

/// Decode one bulk string whose `$` type byte sits at `buf[pos]`.
fn decode_bulk(buf: &[u8], pos: usize) -> Result<Bulk<'_>, ProtocolError> {
    if pos >= buf.len() {
        return Ok(Bulk::Incomplete);
    }
    if buf[pos] != b'$' {
        return Err(protocol(format!(
            "expected bulk string, got type byte {:?}",
            buf[pos] as char
        )));
    }
    let Some((line, body)) = read_line(buf, pos + 1)? else {
        return Ok(Bulk::Incomplete);
    };
    let len = parse_int(line, "bulk length")?;
    if len == -1 {
        return Ok(Bulk::Nil(body));
    }
    if len < 0 {
        return Err(protocol(format!("negative bulk length {len}")));
    }
    let len = len as usize;
    if len > MAX_BULK_LEN {
        return Err(protocol(format!("bulk length {len} exceeds limit")));
    }
    if buf.len() < body + len + 2 {
        return Ok(Bulk::Incomplete);
    }
    if &buf[body + len..body + len + 2] != b"\r\n" {
        return Err(protocol("bulk string not terminated by CRLF"));
    }
    Ok(Bulk::Data(&buf[body..body + len], body + len + 2))
}

/// Arguments an [`Args`] holds without spilling to the heap: every
/// single-key command with all its options, and multi-key commands up to
/// this many words — an `MSET` of four pairs, an `MGET` of eight keys.
const INLINE_ARGS: usize = 9;

/// One decoded command: its words (name first), each a slice of the
/// buffer it was decoded from. Dereferences to `[&[u8]]`. Up to
/// [`INLINE_ARGS`] words live in the value itself; a longer command (a
/// big `MSET`/`MGET`/`DEL` list) spills to one heap vector.
#[derive(Debug)]
pub struct Args<'a> {
    inline: [&'a [u8]; INLINE_ARGS],
    len: usize,
    /// Allocated (capacity > 0) exactly when the command has more than
    /// [`INLINE_ARGS`] words, and then holds all of them.
    spill: Vec<&'a [u8]>,
}

impl<'a> Args<'a> {
    fn with_capacity(n: usize) -> Self {
        let spill = if n > INLINE_ARGS { Vec::with_capacity(n) } else { Vec::new() };
        Args { inline: [&[]; INLINE_ARGS], len: 0, spill }
    }

    fn push(&mut self, arg: &'a [u8]) {
        if self.spill.capacity() > 0 {
            self.spill.push(arg);
        } else {
            self.inline[self.len] = arg;
            self.len += 1;
        }
    }
}

impl<'a> std::ops::Deref for Args<'a> {
    type Target = [&'a [u8]];

    fn deref(&self) -> &Self::Target {
        if self.spill.capacity() > 0 {
            &self.spill
        } else {
            &self.inline[..self.len]
        }
    }
}

/// [`decode_args`], copying the arguments out of the buffer.
pub fn decode_command(buf: &[u8]) -> Result<Decode<Vec<Vec<u8>>>, ProtocolError> {
    Ok(match decode_args(buf)? {
        Decode::Complete(args, used) => {
            Decode::Complete(args.iter().map(|arg| arg.to_vec()).collect(), used)
        }
        Decode::Incomplete => Decode::Incomplete,
    })
}

/// Decode one client command from the head of `buf`: an array of bulk
/// strings, the only request form `dash-server` accepts. Inline commands
/// (a bare `PING\r\n` text line) are rejected with a clear error instead
/// of being guessed at.
pub fn decode_args(buf: &[u8]) -> Result<Decode<Args<'_>>, ProtocolError> {
    if buf.is_empty() {
        return Ok(Decode::Incomplete);
    }
    if buf[0] != b'*' {
        return Err(protocol(format!(
            "inline commands are not supported (got {:?}; send a RESP array)",
            buf[0] as char
        )));
    }
    let Some((line, mut pos)) = read_line(buf, 1)? else {
        if buf.len() > MAX_COMMAND_BYTES {
            return Err(protocol("command exceeds total size limit"));
        }
        return Ok(Decode::Incomplete);
    };
    let n = parse_int(line, "array length")?;
    if n < 1 {
        return Err(protocol(format!("command array length {n} out of range")));
    }
    if n as usize > MAX_COMMAND_ARGS {
        return Err(protocol(format!("command array length {n} exceeds limit")));
    }
    let mut parts = Args::with_capacity(n as usize);
    for _ in 0..n {
        match decode_bulk(buf, pos)? {
            Bulk::Incomplete => {
                // Refuse to keep buffering a command that can no longer
                // fit under the size cap, instead of letting a client
                // grow the connection buffer toward args × bulk-limit.
                if buf.len() > MAX_COMMAND_BYTES {
                    return Err(protocol("command exceeds total size limit"));
                }
                return Ok(Decode::Incomplete);
            }
            Bulk::Nil(_) => return Err(protocol("nil bulk inside a command")),
            Bulk::Data(part, next) => {
                parts.push(part);
                pos = next;
                if pos > MAX_COMMAND_BYTES {
                    return Err(protocol("command exceeds total size limit"));
                }
            }
        }
    }
    Ok(Decode::Complete(parts, pos))
}

/// Decode one RESP2 value of any type from the head of `buf` (client
/// side; nested arrays allowed to depth 8).
pub fn decode_value(buf: &[u8]) -> Result<Decode<Value>, ProtocolError> {
    Ok(match decode_value_at(buf, 0, 8)? {
        Some((v, consumed)) => Decode::Complete(v, consumed),
        None => Decode::Incomplete,
    })
}

/// `None` = incomplete; `Some((value, next))` = decoded, with `next` the
/// offset just past the value.
fn decode_value_at(
    buf: &[u8],
    pos: usize,
    depth: u32,
) -> Result<Option<(Value, usize)>, ProtocolError> {
    if depth == 0 {
        return Err(protocol("array nesting too deep"));
    }
    if pos >= buf.len() {
        return Ok(None);
    }
    match buf[pos] {
        b'+' | b'-' => {
            let Some((line, next)) = read_line(buf, pos + 1)? else {
                return Ok(None);
            };
            let text = String::from_utf8_lossy(line).into_owned();
            let v = if buf[pos] == b'+' { Value::Simple(text) } else { Value::Error(text) };
            Ok(Some((v, next)))
        }
        b':' => {
            let Some((line, next)) = read_line(buf, pos + 1)? else {
                return Ok(None);
            };
            Ok(Some((Value::Integer(parse_int(line, "integer")?), next)))
        }
        b'$' => match decode_bulk(buf, pos)? {
            Bulk::Incomplete => Ok(None),
            Bulk::Nil(next) => Ok(Some((Value::Nil, next))),
            Bulk::Data(b, next) => Ok(Some((Value::Bulk(b.to_vec()), next))),
        },
        b'*' => {
            let Some((line, mut next)) = read_line(buf, pos + 1)? else {
                return Ok(None);
            };
            let n = parse_int(line, "array length")?;
            if n == -1 {
                return Ok(Some((Value::Nil, next)));
            }
            if n < 0 || n as usize > MAX_COMMAND_ARGS {
                return Err(protocol(format!("array length {n} out of range")));
            }
            let mut items = Vec::with_capacity(n as usize);
            for _ in 0..n {
                match decode_value_at(buf, next, depth - 1)? {
                    None => return Ok(None),
                    Some((v, n2)) => {
                        items.push(v);
                        next = n2;
                    }
                }
            }
            Ok(Some((Value::Array(items), next)))
        }
        other => Err(protocol(format!("unknown RESP type byte {:?}", other as char))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode(v, &mut out);
        out
    }

    #[test]
    fn encode_all_types() {
        assert_eq!(enc(&Value::Simple("OK".into())), b"+OK\r\n");
        assert_eq!(enc(&Value::Error("ERR boom".into())), b"-ERR boom\r\n");
        assert_eq!(enc(&Value::Integer(-7)), b":-7\r\n");
        assert_eq!(enc(&Value::bulk(*b"hi")), b"$2\r\nhi\r\n");
        assert_eq!(enc(&Value::bulk(*b"")), b"$0\r\n\r\n");
        assert_eq!(enc(&Value::Nil), b"$-1\r\n");
        assert_eq!(
            enc(&Value::Array(vec![Value::Integer(1), Value::Nil])),
            b"*2\r\n:1\r\n$-1\r\n"
        );
    }

    #[test]
    fn command_roundtrip() {
        let mut wire = Vec::new();
        encode_command(&[b"SET", b"key", b"value"], &mut wire);
        assert_eq!(wire, b"*3\r\n$3\r\nSET\r\n$3\r\nkey\r\n$5\r\nvalue\r\n");
        match decode_command(&wire).unwrap() {
            Decode::Complete(parts, consumed) => {
                assert_eq!(parts, vec![b"SET".to_vec(), b"key".to_vec(), b"value".to_vec()]);
                assert_eq!(consumed, wire.len());
            }
            Decode::Incomplete => panic!("complete command not decoded"),
        }
    }

    #[test]
    fn args_borrow_from_the_buffer_inline_and_spilled() {
        // One word under the inline limit, at it, and past it.
        for words in [1, INLINE_ARGS, INLINE_ARGS + 1, 40] {
            let parts: Vec<Vec<u8>> =
                (0..words).map(|i| format!("word-{i}").into_bytes()).collect();
            let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            let mut wire = Vec::new();
            encode_command(&refs, &mut wire);
            wire.extend_from_slice(b"*1\r\n$4\r\nNEXT\r\n");
            let Decode::Complete(args, used) = decode_args(&wire).unwrap() else {
                panic!("incomplete at {words} words");
            };
            assert_eq!(&*args, refs.as_slice(), "{words} words");
            assert_eq!(&wire[used..], b"*1\r\n$4\r\nNEXT\r\n");
            // Borrowed, not copied: each argument lies inside the buffer.
            let range = wire.as_ptr_range();
            assert!(args.iter().all(|a| range.contains(&a.as_ptr())), "{words} words");
            assert_eq!(decode_command(&wire).unwrap(), Decode::Complete(parts, used));
        }
    }

    #[test]
    fn integers_are_formatted_exactly_at_every_width() {
        for n in [0, 1, -1, 9, 10, -10, 12345, i64::from(i32::MAX), i64::MAX, i64::MIN] {
            assert_eq!(enc(&Value::Integer(n)), format!(":{n}\r\n").into_bytes());
        }
        let mut out = Vec::new();
        encode_bulk(&[b'x'; 1000], &mut out);
        assert!(out.starts_with(b"$1000\r\nxxx") && out.ends_with(b"x\r\n"));
    }

    #[test]
    fn binary_safe_payloads() {
        let key = vec![0u8, 13, 10, 255, 36, 42]; // embedded CR, LF, $, *
        let mut wire = Vec::new();
        encode_command(&[b"SET", &key, &key], &mut wire);
        let Decode::Complete(parts, n) = decode_command(&wire).unwrap() else {
            panic!("incomplete");
        };
        assert_eq!(parts[1], key);
        assert_eq!(parts[2], key);
        assert_eq!(n, wire.len());
    }

    #[test]
    fn pipelined_commands_decode_one_at_a_time() {
        let mut wire = Vec::new();
        encode_command(&[b"PING"], &mut wire);
        encode_command(&[b"GET", b"k"], &mut wire);
        let Decode::Complete(first, n1) = decode_command(&wire).unwrap() else {
            panic!("incomplete");
        };
        assert_eq!(first, vec![b"PING".to_vec()]);
        let Decode::Complete(second, n2) = decode_command(&wire[n1..]).unwrap() else {
            panic!("incomplete");
        };
        assert_eq!(second, vec![b"GET".to_vec(), b"k".to_vec()]);
        assert_eq!(n1 + n2, wire.len());
    }

    #[test]
    fn split_reads_report_incomplete_at_every_prefix() {
        let mut wire = Vec::new();
        encode_command(&[b"SET", b"some-key", b"some-value"], &mut wire);
        for cut in 0..wire.len() {
            match decode_command(&wire[..cut]) {
                Ok(Decode::Incomplete) => {}
                other => panic!("prefix of {cut} bytes must be Incomplete, got {other:?}"),
            }
        }
        assert!(matches!(decode_command(&wire), Ok(Decode::Complete(_, _))));
    }

    #[test]
    fn reply_split_reads_report_incomplete_at_every_prefix() {
        let v = Value::Array(vec![
            Value::Simple("OK".into()),
            Value::bulk(*b"payload"),
            Value::Integer(12345),
            Value::Nil,
        ]);
        let wire = enc(&v);
        for cut in 0..wire.len() {
            match decode_value(&wire[..cut]) {
                Ok(Decode::Incomplete) => {}
                other => panic!("prefix of {cut} bytes must be Incomplete, got {other:?}"),
            }
        }
        let Decode::Complete(decoded, n) = decode_value(&wire).unwrap() else {
            panic!("incomplete");
        };
        assert_eq!(decoded, v);
        assert_eq!(n, wire.len());
    }

    #[test]
    fn inline_commands_rejected_cleanly() {
        let e = decode_command(b"PING\r\n").unwrap_err();
        assert!(e.0.contains("inline"), "{e}");
        // Leading whitespace is equally not a RESP array.
        assert!(decode_command(b" *1\r\n").is_err());
    }

    #[test]
    fn malformed_lengths_rejected() {
        // Non-numeric array length.
        assert!(decode_command(b"*x\r\n").is_err());
        // Empty array length.
        assert!(decode_command(b"*\r\n").is_err());
        // Zero and negative command arrays are meaningless requests.
        assert!(decode_command(b"*0\r\n").is_err());
        assert!(decode_command(b"*-1\r\n").is_err());
        // Bulk length garbage / overflow-ish values.
        assert!(decode_command(b"*1\r\n$abc\r\n").is_err());
        assert!(decode_command(b"*1\r\n$-2\r\n").is_err());
        assert!(decode_command(b"*1\r\n$99999999999999999999\r\n").is_err());
        // A nil bulk cannot be a command word.
        assert!(decode_command(b"*1\r\n$-1\r\n").is_err());
    }

    #[test]
    fn oversized_claims_rejected_before_allocation() {
        let huge_bulk = format!("*1\r\n${}\r\n", MAX_BULK_LEN + 1);
        assert!(decode_command(huge_bulk.as_bytes()).is_err());
        let huge_array = format!("*{}\r\n", MAX_COMMAND_ARGS + 1);
        assert!(decode_command(huge_array.as_bytes()).is_err());
    }

    #[test]
    fn aggregate_command_size_capped() {
        // Many individually-legal bulks must not compose past the total
        // cap: stream 5 MiB bulks until the buffer crosses the limit and
        // check the decoder errors out instead of asking for more.
        let bulk_len = 5 << 20;
        let mut wire = format!("*{MAX_COMMAND_ARGS}\r\n").into_bytes();
        while wire.len() <= MAX_COMMAND_BYTES {
            wire.extend_from_slice(format!("${bulk_len}\r\n").as_bytes());
            wire.resize(wire.len() + bulk_len, b'x');
            wire.extend_from_slice(b"\r\n");
        }
        assert!(
            decode_command(&wire).is_err(),
            "an over-limit partial command must be rejected, not buffered"
        );
    }

    #[test]
    fn bulk_payload_must_end_with_crlf() {
        assert!(decode_command(b"*1\r\n$2\r\nhiXX").is_err());
        // Payload longer than declared: terminator check catches it.
        assert!(decode_command(b"*1\r\n$2\r\nhello\r\n").is_err());
    }

    #[test]
    fn bare_line_endings_rejected() {
        assert!(decode_command(b"*1\n$4\r\nPING\r\n").is_err());
        assert!(decode_value(b":12\n34\r\n").is_err());
    }

    #[test]
    fn wrong_type_byte_inside_command_rejected() {
        // Integer where a bulk string must be.
        assert!(decode_command(b"*1\r\n:5\r\n").is_err());
    }

    #[test]
    fn reply_types_decode() {
        for (wire, want) in [
            (&b"+PONG\r\n"[..], Value::Simple("PONG".into())),
            (&b"-ERR nope\r\n"[..], Value::Error("ERR nope".into())),
            (&b":0\r\n"[..], Value::Integer(0)),
            (&b":-42\r\n"[..], Value::Integer(-42)),
            (&b"$-1\r\n"[..], Value::Nil),
            (&b"*-1\r\n"[..], Value::Nil),
            (&b"$3\r\nabc\r\n"[..], Value::bulk(*b"abc")),
        ] {
            let Decode::Complete(v, n) = decode_value(wire).unwrap() else {
                panic!("incomplete for {wire:?}");
            };
            assert_eq!(v, want);
            assert_eq!(n, wire.len());
        }
    }

    #[test]
    fn nested_arrays_decode_and_depth_is_bounded() {
        let wire = b"*2\r\n*2\r\n:1\r\n:2\r\n$1\r\nx\r\n";
        let Decode::Complete(v, _) = decode_value(wire).unwrap() else {
            panic!("incomplete");
        };
        assert_eq!(
            v,
            Value::Array(vec![
                Value::Array(vec![Value::Integer(1), Value::Integer(2)]),
                Value::bulk(*b"x"),
            ])
        );
        let bomb = "*1\r\n".repeat(64);
        assert!(decode_value(bomb.as_bytes()).is_err(), "deep nesting must be rejected");
    }

    #[test]
    fn unknown_type_byte_rejected() {
        assert!(decode_value(b"!oops\r\n").is_err());
    }

    #[test]
    fn trailing_bytes_left_unconsumed() {
        let wire = b":1\r\n:2\r\n";
        let Decode::Complete(v, n) = decode_value(wire).unwrap() else {
            panic!("incomplete");
        };
        assert_eq!(v, Value::Integer(1));
        assert_eq!(n, 4);
    }
}
