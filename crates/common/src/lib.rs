//! Shared infrastructure for the Dash reproduction: the hash function, key
//! encodings (inline 8-byte and pooled variable-length keys, §4.5), the
//! [`PmHashTable`] trait implemented by all four hash tables (Dash-EH,
//! Dash-LH, CCEH, Level Hashing) and workload generators for the paper's
//! micro-benchmarks (§6.2).

pub mod cli;
mod hash;
mod key;
mod table;
mod workload;

pub use hash::{hash64, hash64_seed, hash_u64};
pub use key::{Key, KeyProbe, VarKey, MAX_KEY_LEN};
pub use table::{PmHashTable, ScanCursor, ScanPage, Session, TableError, TableResult};
pub use workload::{
    mix64, mixed_ops, negative_keys, uniform_keys, var_keys, MixedOp, ZipfGenerator,
};
