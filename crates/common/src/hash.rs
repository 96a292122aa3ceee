//! MurmurHash64A — the same algorithm behind GCC's `std::_Hash_bytes`,
//! which the paper uses for all tables (§6.2): fast, high quality, and
//! uniform enough that the workloads' keys spread evenly.
//!
//! Its second use is the server's redo-log record checksum
//! (`repl::wire::record_checksum`), where it consumes eight bytes per
//! step instead of FNV-1a's one. For inputs of one length it also
//! catches **any corruption confined to one 8-byte word**, not merely
//! most. Every step is a bijection: multiplying by the odd `M` is
//! invertible mod 2⁶⁴, and `x ^ (x >> 47)` is its own inverse (applied
//! twice, the `x >> 94` term is zero). So a changed word changes its
//! mixed `k`, which changes the running state `h ^ k`; every later step
//! (`h ↦ (h ^ k)·M` per word, the zero-padded tail, the final avalanche)
//! is a bijection of that state, so the difference reaches the output.
//! A corruption that changes the length — a record's length prefix —
//! reframes the input and is caught with the usual odds, 1 − 2⁻⁶⁴.

const M: u64 = 0xc6a4_a793_5bd1_e995;
const R: u32 = 47;
const DEFAULT_SEED: u64 = 0xc70f_6907;

/// Hash an arbitrary byte string (MurmurHash64A, default seed).
#[inline]
pub fn hash64(bytes: &[u8]) -> u64 {
    hash64_seed(bytes, DEFAULT_SEED)
}

/// Hash an arbitrary byte string with an explicit seed (Level Hashing uses
/// two independent hash functions; CCEH/Dash use one).
pub fn hash64_seed(bytes: &[u8], seed: u64) -> u64 {
    let len = bytes.len();
    let mut h: u64 = seed ^ (len as u64).wrapping_mul(M);

    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut k = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        k = k.wrapping_mul(M);
        k ^= k >> R;
        k = k.wrapping_mul(M);
        h ^= k;
        h = h.wrapping_mul(M);
    }

    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(M);
    }

    h ^= h >> R;
    h = h.wrapping_mul(M);
    h ^= h >> R;
    h
}

/// Hash a fixed 8-byte integer key (the fixed-length-key workloads).
#[inline]
pub fn hash_u64(x: u64) -> u64 {
    hash64_seed(&x.to_le_bytes(), DEFAULT_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash64(b"dash"), hash64(b"dash"));
        assert_eq!(hash_u64(42), hash_u64(42));
    }

    #[test]
    fn seed_changes_output() {
        assert_ne!(hash64_seed(b"dash", 1), hash64_seed(b"dash", 2));
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        let mut hashes: Vec<u64> = (0..100_000u64).map(hash_u64).collect();
        let n = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "no collisions in 100k sequential keys");
    }

    #[test]
    fn bytes_and_int_agree() {
        // hash_u64 is defined as the byte-string hash of the LE encoding.
        assert_eq!(hash_u64(0xABCD), hash64(&0xABCDu64.to_le_bytes()));
    }

    #[test]
    fn low_byte_is_uniform_enough() {
        // Fingerprints use the least significant byte (§4.2): check all 256
        // values appear over a modest key set.
        let mut seen = [false; 256];
        for i in 0..10_000u64 {
            seen[(hash_u64(i) & 0xFF) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn empty_and_unaligned_lengths() {
        // Exercise every tail length.
        for len in 0..=17 {
            let buf = vec![0xA5u8; len];
            let h1 = hash64(&buf);
            let h2 = hash64(&buf);
            assert_eq!(h1, h2);
            if len > 0 {
                let mut buf2 = buf.clone();
                buf2[len - 1] ^= 1;
                assert_ne!(hash64(&buf2), h1);
            }
        }
    }
}
