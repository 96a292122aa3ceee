//! The request path's allocation budget, as a tripwire: on a warmed,
//! file-backed store with no replicas attached, the engine's hot calls
//! make **zero** heap allocations, and so does a `GET`/`SET` — or a
//! multi-key command — served over a connection. A counting
//! `#[global_allocator]` (this test binary only) tallies allocation calls
//! per thread; anything that puts a `Vec`, a `String` or a `Box` back on
//! the per-request path fails here long before it shows as
//! `server.allocs_per_op` in the perf ledger.
#![cfg(unix)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use dash_repro::dash_server::Value;
use dash_repro::{serve_with, EngineConfig, RespClient, ServeOptions, ShardedDash};

mod common;
use common::TempDir;

/// One tally per thread; a thread is its slot's only writer. Threads
/// past the table are not counted (the suite starts a handful).
const SLOTS: usize = 256;
static ALLOCS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised, no destructor: safe to touch inside the
    // allocator, thread teardown included.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_slot() -> usize {
    MY_SLOT.with(|slot| {
        if slot.get() == usize::MAX {
            slot.set(NEXT_SLOT.fetch_add(1, Relaxed));
        }
        slot.get()
    })
}

struct Counting;

// SAFETY: every method forwards to `System` with its arguments
// unchanged; the tally is a side effect on static atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn note() {
    if let Some(tally) = ALLOCS.get(my_slot()) {
        tally.fetch_add(1, Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls this thread has made.
fn mine() -> u64 {
    ALLOCS.get(my_slot()).map_or(0, |tally| tally.load(Relaxed))
}

/// Allocation calls every *other* thread has made.
fn others() -> u64 {
    let me = my_slot();
    ALLOCS
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != me)
        .map(|(_, t)| t.load(Relaxed))
        .sum()
}

fn dir_cfg(dir: &TempDir) -> EngineConfig {
    EngineConfig {
        shards: 2,
        shard_bytes: 16 << 20,
        dir: Some(dir.path.clone()),
        ..EngineConfig::default()
    }
}

const KEYS: usize = 512;

fn key(i: usize) -> [u8; 12] {
    let mut k = *b"budget:00000";
    for (d, digit) in k[7..].iter_mut().rev().enumerate() {
        *digit = b'0' + (i / 10usize.pow(d as u32) % 10) as u8;
    }
    k
}

/// The engine's hot calls on the calling thread. The measured loops run
/// long enough to cross an epoch collection (every 128 retired blobs)
/// many times over: "zero" here includes the reclamation machinery.
#[test]
fn engine_hot_calls_allocate_nothing() {
    let dir = TempDir::new("alloc-budget-engine");
    let store = ShardedDash::open(&dir_cfg(&dir)).unwrap();
    let value = [7u8; 64];
    let mut out = Vec::with_capacity(4096);
    // Warm: keys in place, scratch buffers grown, one full pass of each
    // measured call.
    for round in 0..3 {
        for i in 0..KEYS {
            store.set(&key(i), &value).unwrap();
            out.clear();
            store.get_into(&key(i), &mut out).unwrap();
            store.get_into(&key(i + KEYS), &mut out).unwrap();
        }
        if round == 0 {
            for i in 0..KEYS {
                assert!(store.del(&key(i)).unwrap());
            }
        }
    }

    let before = mine();
    for i in 0..KEYS {
        out.clear();
        store.get_into(&key(i), &mut out).unwrap();
        assert_eq!(out.len(), b"$64\r\n".len() + value.len() + 2, "hit");
    }
    assert_eq!(mine() - before, 0, "get_into (hit) allocated");

    let before = mine();
    for i in 0..KEYS {
        out.clear();
        store.get_into(&key(i + KEYS), &mut out).unwrap();
        assert_eq!(out, b"$-1\r\n", "miss");
    }
    assert_eq!(mine() - before, 0, "get_into (miss) allocated");

    let before = mine();
    for round in 0..4 {
        for i in 0..KEYS {
            store.set(&key(i), &[round as u8; 64]).unwrap();
        }
    }
    assert_eq!(mine() - before, 0, "set (overwrite) allocated");

    let before = mine();
    for i in 0..KEYS {
        assert!(store.del(&key(i)).unwrap());
        assert!(!store.del(&key(i)).unwrap());
    }
    assert_eq!(mine() - before, 0, "del allocated");
    assert_eq!(store.log_append_errors(), 0);
}

/// `GET` and `SET` through a real connection, one per round trip and in
/// depth-16 pipelines (whole windows: decoded into inline storage, their
/// keys hinted from stack scratch), and depth-16 windows of the
/// multi-key commands — `MSET`, `MGET`, `EXISTS` and `DEL` of four keys
/// each, which are those same single-key calls: the serving threads'
/// allocation count does not move while a warmed connection's requests
/// are decoded, executed and answered. The only other thread that ever
/// allocates is the 100 ms expiry tick, so the quietest of several short
/// windows is the worker's own count — and a per-request allocation
/// would put at least `REQUESTS` into every one of them.
#[test]
fn a_served_get_or_set_allocates_nothing() {
    const REQUESTS: usize = 400;
    const WINDOWS: usize = 8;
    let dir = TempDir::new("alloc-budget-conn");
    let server = serve_with(
        ShardedDash::open(&dir_cfg(&dir)).unwrap(),
        "127.0.0.1:0",
        ServeOptions {
            event_workers: Some(1),
            ..Default::default()
        },
    )
    .unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();
    let value = [9u8; 64];
    // Request `i` of a run, enqueued; returns the reply it must get.
    type Request<'a> = &'a dyn Fn(&mut RespClient, usize) -> Value;
    let get_or_set = |c: &mut RespClient, i: usize| {
        if i.is_multiple_of(2) {
            c.enqueue(&[b"SET", &key(i % KEYS), &value]);
            Value::Simple("OK".into())
        } else {
            // Written one request ago — inside the same window.
            c.enqueue(&[b"GET", &key((i - 1) % KEYS)]);
            Value::bulk(value)
        }
    };
    // Four requests to a group of four keys: written, read, counted and
    // deleted again.
    let multi_key = |c: &mut RespClient, i: usize| {
        let keys: [[u8; 12]; 4] = std::array::from_fn(|j| key((i / 4 * 4 + j) % KEYS));
        let [k0, k1, k2, k3] = &keys;
        match i % 4 {
            0 => {
                c.enqueue(&[b"MSET", k0, &value, k1, &value, k2, &value, k3, &value]);
                Value::Simple("OK".into())
            }
            1 => {
                c.enqueue(&[b"MGET", k0, k1, k2, k3]);
                Value::Array(vec![Value::bulk(value); 4])
            }
            2 => {
                c.enqueue(&[b"EXISTS", k0, k1, k2, k3]);
                Value::Integer(4)
            }
            _ => {
                c.enqueue(&[b"DEL", k0, k1, k2, k3]);
                Value::Integer(4)
            }
        }
    };
    let run = |c: &mut RespClient, depth: usize, request: Request<'_>| {
        let before = others();
        for first in (0..REQUESTS).step_by(depth) {
            let want: Vec<Value> = (first..first + depth).map(|i| request(c, i)).collect();
            c.flush().unwrap();
            for want in want {
                assert_eq!(c.read_reply().unwrap(), want);
            }
        }
        others() - before
    };
    let runs: [(&str, usize, Request<'_>); 3] =
        [("GET/SET", 1, &get_or_set), ("GET/SET", 16, &get_or_set), ("multi-key", 16, &multi_key)];
    for (name, depth, request) in runs {
        // Warm-up: buffers, the log's encode buffer, every key present.
        for _ in 0..4 {
            run(&mut c, depth, request);
        }
        let quietest = (0..WINDOWS).map(|_| run(&mut c, depth, request)).min().unwrap();
        assert_eq!(
            quietest, 0,
            "{name} at depth {depth}: the serving threads allocated in every window of \
             {REQUESTS} requests"
        );
    }
    assert!(c.stat_u64("prefetch_keys").unwrap() > 0, "the depth-16 windows were hinted");
    server.shutdown();
}
