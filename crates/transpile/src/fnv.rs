//! Stable hashing for names that outlive a process.

/// A stable 64-bit FNV-1a hasher. Device and template fingerprints name
/// files on disk and artifacts on the wire (and scenario-suite
/// fingerprints name corpus entries across runs), so they must not
/// depend on `DefaultHasher`'s unstable algorithm.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher in the FNV-1a initial state.
    #[must_use]
    pub fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    /// Hashes `bytes` in order.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Hashes the little-endian bytes of `x`.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Hashes `x` as a `u64`, so the value is the same on every target.
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Hashes the bit pattern of `x`.
    pub fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    /// The hash of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}
