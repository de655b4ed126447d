//! FNV-1a, the workspace's one non-cryptographic fingerprint. The byte
//! form folds one byte per round, [`word`] a whole `u64`.
//!
//! ```
//! use orinoco_util::fnv;
//! assert_eq!(fnv::bytes(b"a"), 0xaf63_dc4c_8601_ec8c); // published test vector
//! assert_eq!(fnv::bytes_from(fnv::bytes(b"foo"), b"bar"), 0x8594_4171_f739_67e8);
//! ```

/// 64-bit FNV offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `hash`.
#[must_use]
pub fn bytes_from(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| word(h, u64::from(b)))
}

/// FNV-1a over `bytes` from [`OFFSET`].
#[must_use]
pub fn bytes(bytes: &[u8]) -> u64 {
    bytes_from(OFFSET, bytes)
}

/// One FNV-1a round over a whole `u64` word.
#[must_use]
#[inline]
pub fn word(hash: u64, w: u64) -> u64 {
    (hash ^ w).wrapping_mul(PRIME)
}
