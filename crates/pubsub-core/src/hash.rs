//! Shared FNV-1a 64-bit hashing.
//!
//! One implementation serves the hash-consed subscription fingerprints in
//! [`analysis`](crate::analysis) and the checksums of the durable
//! [`record`](crate::record)s, so logs written before stay readable. FNV-1a
//! is a deliberate choice there — byte-order independent of the host,
//! allocation free, and trivially streamable. It runs one byte at a time,
//! so the per-frame link checksums of `broker::reliable` use a word-wise
//! hash of their own instead.

/// FNV-1a 64-bit offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher.
///
/// ```
/// use pubsub_core::hash::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write(b"foo");
/// h.write(b"bar");
/// assert_eq!(h.finish(), pubsub_core::hash::fnv64(b"foobar"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Creates a hasher seeded with the FNV-1a offset basis.
    pub fn new() -> Self {
        Self(FNV64_OFFSET)
    }

    /// Creates a hasher from a previously produced digest, so independent
    /// fingerprints can be chained without materializing their input.
    pub fn from_digest(digest: u64) -> Self {
        Self(digest)
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(FNV64_PRIME);
    }

    /// Feeds a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u8(byte);
        }
    }

    /// Feeds a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, value: u32) {
        self.write(&value.to_le_bytes());
    }

    /// Feeds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64-bit hash of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv64::new();
    hasher.write(bytes);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Reference vectors from the FNV specification (draft-eastlake-fnv).
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write_u8(b'f');
        h.write(b"oo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn integer_writers_use_little_endian() {
        let mut a = Fnv64::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv64::new();
        b.write(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]);
        assert_eq!(a.finish(), b.finish());

        let mut c = Fnv64::new();
        c.write_u32(0xdead_beef);
        let mut d = Fnv64::new();
        d.write(&0xdead_beef_u32.to_le_bytes());
        assert_eq!(c.finish(), d.finish());
    }

    #[test]
    fn digest_chaining_resumes_the_stream() {
        let mut whole = Fnv64::new();
        whole.write(b"splitpoint");
        let mut first = Fnv64::new();
        first.write(b"split");
        let mut second = Fnv64::from_digest(first.finish());
        second.write(b"point");
        assert_eq!(second.finish(), whole.finish());
    }
}
