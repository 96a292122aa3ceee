use pmem::{PmOffset, PmemPool, Result as PmResult};

use crate::hash::{hash64, hash_u64};

/// Upper bound on variable-length keys. Bounds the bytes a concurrent
/// optimistic reader may scan when validating a possibly-stale pointer.
pub const MAX_KEY_LEN: usize = 512;

/// What a table needs from a key to *find or place* it — hash it,
/// compare it against a stored representation, encode it. Every [`Key`]
/// has these, and so does a key's borrowed form (`[u8]` for [`VarKey`]),
/// which is what lets a lookup run straight off a caller's buffer
/// without building an owned key first.
pub trait KeyProbe {
    /// 64-bit hash of the key.
    fn hash64(&self) -> u64;

    /// Produce the stored 8-byte representation, allocating in the pool
    /// for out-of-line keys. Out-of-line storage is persisted before the
    /// representation is returned.
    fn encode(&self, pool: &PmemPool) -> PmResult<u64>;

    /// Does `stored` represent this key? Out-of-line keys dereference the
    /// pool (metered as a PM read).
    fn matches(&self, pool: &PmemPool, stored: u64) -> bool;
}

/// A key storable in the 8-byte key field of a record slot (§4.5): either
/// the value itself (fixed-length mode) or a pointer to a pooled,
/// length-prefixed byte string (variable-length mode). All four hash
/// tables are generic over this trait.
pub trait Key: KeyProbe + Clone + Send + Sync + 'static {
    /// True when the stored representation is the key itself.
    const INLINE: bool;

    /// Re-hash a stored representation (recovery rebuilds overflow
    /// metadata from stash records, which requires re-hashing them §4.8).
    fn hash_stored(pool: &PmemPool, stored: u64) -> u64;

    /// Reconstruct the key behind a stored representation — how table
    /// scans turn raw record slots back into `K`s. `None` means the
    /// representation cannot be a valid key in this pool (corrupt slot or
    /// stale pointer); scans skip such records defensively. Callers must
    /// hold an epoch pin for out-of-line keys, exactly as for `matches`.
    fn decode_stored(pool: &PmemPool, stored: u64) -> Option<Self>;

    /// Release pool storage behind a stored representation. Deferred via
    /// the pool's epoch manager because optimistic readers may still
    /// dereference it.
    fn release(pool: &PmemPool, stored: u64);
}

impl KeyProbe for u64 {
    #[inline]
    fn hash64(&self) -> u64 {
        hash_u64(*self)
    }

    #[inline]
    fn encode(&self, _pool: &PmemPool) -> PmResult<u64> {
        Ok(*self)
    }

    #[inline]
    fn matches(&self, _pool: &PmemPool, stored: u64) -> bool {
        stored == *self
    }
}

impl Key for u64 {
    const INLINE: bool = true;

    #[inline]
    fn hash_stored(_pool: &PmemPool, stored: u64) -> u64 {
        hash_u64(stored)
    }

    #[inline]
    fn decode_stored(_pool: &PmemPool, stored: u64) -> Option<Self> {
        Some(stored)
    }

    #[inline]
    fn release(_pool: &PmemPool, _stored: u64) {}
}

/// A variable-length key. Stored out of line as `u32 len || bytes` in the
/// pool; the record slot holds the offset.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VarKey(pub Vec<u8>);

impl VarKey {
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        let v = bytes.into();
        assert!(v.len() <= MAX_KEY_LEN, "key longer than MAX_KEY_LEN");
        VarKey(v)
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Read the bytes behind a stored representation, defensively bounded
    /// (the pointer may be stale under optimistic concurrency; callers
    /// re-validate bucket versions after the compare).
    fn stored_bytes(pool: &PmemPool, stored: u64) -> Option<&[u8]> {
        let off = PmOffset::new(stored);
        if off.is_null()
            || !stored.is_multiple_of(4)
            || stored.checked_add(4).is_none_or(|end| end > pool.size() as u64)
        {
            return None;
        }
        // SAFETY: bounds checked; the block is either live (epoch-pinned
        // reader) or its content is garbage that the version re-check will
        // disown — we only need the read to stay in bounds.
        let len = unsafe { (*pool.at::<u32>(off)) as usize };
        if len > MAX_KEY_LEN || stored + 4 + len as u64 > pool.size() as u64 {
            return None;
        }
        pool.note_pm_read(4 + len);
        // SAFETY: bounds checked above.
        Some(unsafe { std::slice::from_raw_parts(pool.base().add(stored as usize + 4), len) })
    }
}

/// The borrowed form of a [`VarKey`]: the key's bytes, wherever they
/// live. Must be at most [`MAX_KEY_LEN`] long to be inserted (checked
/// by `encode`; a longer slice simply matches nothing).
impl KeyProbe for [u8] {
    #[inline]
    fn hash64(&self) -> u64 {
        hash64(self)
    }

    fn encode(&self, pool: &PmemPool) -> PmResult<u64> {
        assert!(self.len() <= MAX_KEY_LEN, "key longer than MAX_KEY_LEN");
        let total = 4 + self.len();
        let off = pool.alloc(total)?;
        // SAFETY: freshly allocated block of at least `total` bytes.
        unsafe {
            let p = pool.base().add(off.get() as usize);
            (p as *mut u32).write(self.len() as u32);
            std::ptr::copy_nonoverlapping(self.as_ptr(), p.add(4), self.len());
        }
        pool.persist(off, total);
        Ok(off.get())
    }

    fn matches(&self, pool: &PmemPool, stored: u64) -> bool {
        VarKey::stored_bytes(pool, stored) == Some(self)
    }
}

impl KeyProbe for VarKey {
    #[inline]
    fn hash64(&self) -> u64 {
        self.0.as_slice().hash64()
    }

    fn encode(&self, pool: &PmemPool) -> PmResult<u64> {
        self.0.as_slice().encode(pool)
    }

    fn matches(&self, pool: &PmemPool, stored: u64) -> bool {
        self.0.as_slice().matches(pool, stored)
    }
}

/// Lets a `DashEh<VarKey>` be probed with plain bytes (hash and
/// equality agree with the owned key by construction, above).
impl std::borrow::Borrow<[u8]> for VarKey {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl Key for VarKey {
    const INLINE: bool = false;

    fn hash_stored(pool: &PmemPool, stored: u64) -> u64 {
        match Self::stored_bytes(pool, stored) {
            Some(bytes) => hash64(bytes),
            None => 0,
        }
    }

    fn decode_stored(pool: &PmemPool, stored: u64) -> Option<Self> {
        Self::stored_bytes(pool, stored).map(|bytes| VarKey(bytes.to_vec()))
    }

    fn release(pool: &PmemPool, stored: u64) {
        let off = PmOffset::new(stored);
        if off.is_null() {
            return;
        }
        // SAFETY: representation produced by `encode`.
        let len = unsafe { *pool.at::<u32>(off) } as usize;
        pool.defer_free(off, 4 + len.min(MAX_KEY_LEN));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;

    fn pool() -> std::sync::Arc<PmemPool> {
        PmemPool::create(PoolConfig::with_size(1 << 20)).unwrap()
    }

    #[test]
    fn u64_roundtrip() {
        let p = pool();
        let k = 1234u64;
        let stored = k.encode(&p).unwrap();
        assert_eq!(stored, 1234);
        assert!(k.matches(&p, stored));
        assert!(!k.matches(&p, 999));
        assert_eq!(u64::hash_stored(&p, stored), k.hash64());
    }

    #[test]
    fn var_key_roundtrip() {
        let p = pool();
        let k = VarKey::new(*b"hello, persistent world!");
        let stored = k.encode(&p).unwrap();
        assert!(k.matches(&p, stored));
        assert!(!VarKey::new(*b"other").matches(&p, stored));
        assert_eq!(VarKey::hash_stored(&p, stored), k.hash64());
    }

    #[test]
    fn var_key_survives_reopen() {
        let cfg = PoolConfig { size: 1 << 20, shadow: true, ..Default::default() };
        let p = PmemPool::create(cfg).unwrap();
        let k = VarKey::new(*b"durable");
        let stored = k.encode(&p).unwrap();
        let img = p.crash_image();
        let p2 = PmemPool::open(img, cfg).unwrap();
        assert!(k.matches(&p2, stored), "encode persists before returning");
    }

    #[test]
    fn var_key_matches_rejects_garbage_pointers() {
        let p = pool();
        let k = VarKey::new(*b"x");
        assert!(!k.matches(&p, 0)); // null
        assert!(!k.matches(&p, u64::MAX)); // out of bounds
        // In-bounds garbage with an absurd length prefix:
        let off = p.alloc(64).unwrap();
        // SAFETY: fresh block.
        unsafe { (*p.at::<u32>(off)) = u32::MAX };
        assert!(!k.matches(&p, off.get()));
    }

    #[test]
    fn var_key_release_recycles() {
        let p = pool();
        let k = VarKey::new(vec![7u8; 40]);
        let stored = k.encode(&p).unwrap();
        VarKey::release(&p, stored);
        p.epoch_collect();
        // 4+40 rounds to the 48-byte class; the next 48-byte alloc reuses it.
        let again = p.alloc(48).unwrap();
        assert_eq!(again.get(), stored);
    }

    #[test]
    #[should_panic(expected = "MAX_KEY_LEN")]
    fn var_key_length_capped() {
        let _ = VarKey::new(vec![0u8; MAX_KEY_LEN + 1]);
    }
}
