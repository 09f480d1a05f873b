//! A ChaCha20-based deterministic random bit generator.
//!
//! Inside the simulated enclave there is no OS entropy source (system
//! calls would be ocalls), mirroring the real LibSEAL design point of
//! using the SGX SDK's in-enclave generator instead of `/dev/urandom`
//! (§4.2 optimisation 2). A [`ChaChaRng`] is seeded once and then
//! runs forward on its own.

use crate::chacha20::ChaCha20;

/// A fast-key-erasure ChaCha20 DRBG.
pub struct ChaChaRng {
    key: [u8; 32],
    counter: u64,
    buf: [u8; 64],
    used: usize,
}

impl ChaChaRng {
    /// Creates a generator from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        ChaChaRng {
            key: seed,
            counter: 0,
            buf: [0u8; 64],
            used: 64,
        }
    }

    fn refill(&mut self) {
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&self.counter.to_le_bytes());
        self.counter = self.counter.wrapping_add(1);
        let cipher = ChaCha20::new(&self.key, &nonce);
        self.buf = cipher.block(0);
        // Fast key erasure: ratchet the key forward so past output
        // cannot be reconstructed from a captured state.
        let next = cipher.block(1);
        self.key.copy_from_slice(&next[..32]);
        self.used = 0;
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for b in out.iter_mut() {
            if self.used == 64 {
                self.refill();
            }
            *b = self.buf[self.used];
            self.used += 1;
        }
    }

    /// Returns a pseudorandom `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_le_bytes(b)
    }

    /// Returns a uniform value in `[0, bound)` using rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 32-byte seed whose first eight bytes are `n`.
    fn seed(n: u64) -> [u8; 32] {
        let mut s = [0u8; 32];
        s[..8].copy_from_slice(&n.to_le_bytes());
        s
    }

    #[test]
    fn deterministic_is_reproducible() {
        let mut a = ChaChaRng::from_seed(seed(42));
        let mut b = ChaChaRng::from_seed(seed(42));
        assert_eq!(a.next_u64(), b.next_u64());
        let mut ba = [0u8; 100];
        let mut bb = [0u8; 100];
        a.fill(&mut ba);
        b.fill(&mut bb);
        assert_eq!(ba, bb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaChaRng::from_seed(seed(1));
        let mut b = ChaChaRng::from_seed(seed(2));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_in_range() {
        let mut rng = ChaChaRng::from_seed(seed(7));
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..100 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn key_erasure_ratchets() {
        let mut rng = ChaChaRng::from_seed([1u8; 32]);
        let mut first = [0u8; 64];
        rng.fill(&mut first);
        let mut second = [0u8; 64];
        rng.fill(&mut second);
        assert_ne!(first, second);
    }

    #[test]
    fn fill_counts_bytes_exactly() {
        let mut rng = ChaChaRng::from_seed(seed(3));
        let mut a = [0u8; 7];
        let mut b = [0u8; 7];
        rng.fill(&mut a);
        rng.fill(&mut b);
        assert_ne!(a, b, "stream must advance between calls");
    }
}
