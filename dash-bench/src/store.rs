//! The store under test: a scratch directory inside the checkout, the
//! engine configuration every workload shares, preload, and the crash
//! reopen cycle behind `recover_ms`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dash_server::{EngineConfig, ShardedDash};

use crate::gen::Model;
use crate::workload::Repeat;

pub const SHARDS: usize = 2;
pub const SHARD_BYTES: usize = 512 << 20;
/// Load-factor samples taken at even intervals through a preload: the
/// fig. 12 curve averaged, not one point on its saw-tooth.
pub const LOAD_FACTOR_SAMPLES: u64 = 20;

/// Where scratch stores live, relative to the working directory (the
/// checkout root): the benchmark writes nowhere else.
const SCRATCH_ROOT: &str = ".bench_tmp";

/// A scratch directory removed when dropped — on success, on a failed
/// check and on a panic alike.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let n = SERIAL.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(SCRATCH_ROOT)
            .join(format!("dash-bench-{}", std::process::id()))
            .join(format!("{label}-{n}"));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Where artefacts that outlive the run (traces, the ledger) go.
    pub fn artefact(name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(SCRATCH_ROOT)?;
        Ok(Path::new(SCRATCH_ROOT).join(name))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // The per-process parent goes with its last child.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Open (or reopen) the store in `dir`: file-backed, so the redo log is
/// on, with the pool's default `CostModel::none`.
pub fn open(dir: &Path) -> Result<ShardedDash, String> {
    ShardedDash::open(&EngineConfig {
        shards: SHARDS,
        shard_bytes: SHARD_BYTES,
        dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    })
    .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Σ keys ÷ Σ capacity slots over the shards.
pub fn load_factor(engine: &ShardedDash) -> f64 {
    let t = engine.shard_telemetry();
    let keys: u64 = t.iter().map(|s| s.keys).sum();
    let slots: u64 = t.iter().map(|s| s.capacity_slots).sum();
    keys as f64 / slots.max(1) as f64
}

/// What a preload leaves behind, read at its end.
pub struct Preloaded {
    /// Mean of [`LOAD_FACTOR_SAMPLES`] samples through the preload.
    pub load_factor: f64,
    /// (allocator bytes in use + redo-log bytes) ÷ live key+value bytes.
    pub space_amp: f64,
    pub secs: f64,
}

/// Write version 0 of every preloaded key through `ShardedDash::set`.
pub fn preload(engine: &ShardedDash, model: &Model) -> Result<Preloaded, String> {
    let n = model.preloaded();
    let every = (n / LOAD_FACTOR_SAMPLES).max(1);
    let mut lf = Vec::new();
    let mut value = Vec::new();
    let start = Instant::now();
    for idx in 0..n {
        model.value(idx, &mut value);
        engine.set(&model.keys.key(idx), &value).map_err(|e| format!("preload set: {e}"))?;
        if (idx + 1) % every == 0 {
            lf.push(load_factor(engine));
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let user_bytes = n * (crate::gen::KEY_LEN + model.value_len) as u64;
    let held = engine.mem_used() + engine.repl_log_bytes();
    Ok(Preloaded {
        load_factor: crate::stats::mean(&lf),
        space_amp: held as f64 / user_bytes as f64,
        secs,
    })
}

/// `ShardedDash::get` of key `idx` equals what the model says it holds.
pub fn holds(engine: &ShardedDash, model: &Model, idx: u64, scratch: &mut Vec<u8>) -> bool {
    model.value(idx, scratch);
    matches!(engine.get(&model.keys.key(idx)), Ok(Some(v)) if v == *scratch)
}

/// Reopen the store in `dir` (which must not be open) again and again,
/// each time dropping it without `close()` — how
/// `tests/server_recovery.rs` crashes a store. A cycle is timed from
/// `ShardedDash::open` to the first verified `get`; the first cycle is
/// cold (and follows whatever close the caller did) and is discarded.
/// Returns the timed cycles in ms and the engine of the last reopen.
pub fn crash_reopen_cycles(
    dir: &Path,
    model: &Model,
    repeat: &Repeat,
) -> Result<(Vec<f64>, ShardedDash), String> {
    let mut scratch = Vec::new();
    let mut ms = Vec::new();
    for cycle in 0u64.. {
        let start = Instant::now();
        let engine = open(dir)?;
        let ok = holds(&engine, model, cycle % model.preloaded(), &mut scratch);
        let took = start.elapsed().as_secs_f64() * 1e3;
        if !ok {
            return Err(format!("first get after reopen {cycle} returned the wrong value"));
        }
        if engine.recovered_shards() != SHARDS {
            return Err(format!("reopen {cycle} did not recover every shard"));
        }
        if cycle > 0 {
            ms.push(took);
        }
        if repeat.enough(ms.len(), ms.iter().sum::<f64>() / 1e3) {
            return Ok((ms, engine));
        }
    }
    unreachable!("the loop returns")
}
