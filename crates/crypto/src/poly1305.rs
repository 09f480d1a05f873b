//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! The accumulator and `r` are three limbs of 44, 44 and 42 bits in
//! `u64`s with `u128` products, one block per step. Only
//! [`crate::aead::ChaCha20Poly1305`] uses it.

/// Incremental Poly1305 MAC.
#[derive(Clone)]
pub struct Poly1305 {
    r: Multiplier,
    h: [u64; 3],
    pad: u128,
    buf: [u8; 16],
    buf_len: usize,
}

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// The 2¹²⁸ bit every full block carries, as it sits in limb 2.
const HIBIT: u64 = 1 << 40;

/// 128 bits as limbs.
#[inline(always)]
fn limbs(m: u128) -> [u64; 3] {
    [
        m as u64 & MASK44,
        (m >> 44) as u64 & MASK44,
        (m >> 88) as u64,
    ]
}

/// `h + m` for a block `m`; `hibit` is [`HIBIT`], or 0 for the padded
/// final block.
#[inline(always)]
fn add_block(h: [u64; 3], block: &[u8; 16], hibit: u64) -> [u64; 3] {
    let m = limbs(u128::from_le_bytes(*block));
    [h[0] + m[0], h[1] + m[1], h[2] + (m[2] | hibit)]
}

/// A multiplier, with the two multiples the product needs: 2¹³² ≡ 20
/// modulo 2¹³⁰ − 5, so the limbs that wrap come down multiplied by 20.
#[derive(Clone, Copy)]
struct Multiplier {
    r: [u64; 3],
    s1: u64,
    s2: u64,
}

impl Multiplier {
    fn new(r: [u64; 3]) -> Self {
        Multiplier {
            r,
            s1: r[1] * 20,
            s2: r[2] * 20,
        }
    }

    /// `a · r`, carried.
    #[inline(always)]
    fn mul(&self, a: [u64; 3]) -> [u64; 3] {
        let [a0, a1, a2] = a.map(u128::from);
        let [r0, r1, r2] = self.r.map(u128::from);
        let (s1, s2) = (u128::from(self.s1), u128::from(self.s2));
        carry([
            a0 * r0 + a1 * s2 + a2 * s1,
            a0 * r1 + a1 * r0 + a2 * s2,
            a0 * r2 + a1 * r1 + a2 * r0,
        ])
    }
}

/// One carry chain: limbs back under 2⁴⁴, 2⁴⁴ + 2¹⁶, 2⁴².
#[inline(always)]
fn carry(d: [u128; 3]) -> [u64; 3] {
    let d1 = d[1] + (d[0] >> 44);
    let d2 = d[2] + (d1 >> 44);
    let h0 = (d[0] as u64 & MASK44) + (d2 >> 42) as u64 * 5;
    [
        h0 & MASK44,
        (d1 as u64 & MASK44) + (h0 >> 44),
        d2 as u64 & MASK42,
    ]
}

impl Poly1305 {
    /// Creates an authenticator keyed with the 32-byte one-time key.
    pub fn new(key: &[u8; 32]) -> Self {
        let half = |at: usize| {
            let mut b = [0u8; 16];
            b.copy_from_slice(&key[at..at + 16]);
            u128::from_le_bytes(b)
        };
        // Clamp r per the spec.
        let r = half(0) & 0x0ffffffc_0ffffffc_0ffffffc_0fffffff;
        Poly1305 {
            r: Multiplier::new(limbs(r)),
            h: [0; 3],
            pad: half(16),
            buf: [0u8; 16],
            buf_len: 0,
        }
    }

    /// `h = (h + m) · r` for one block.
    #[inline(always)]
    fn process_block(&mut self, block: &[u8; 16], hibit: u64) {
        self.h = self.r.mul(add_block(self.h, block, hibit));
    }

    /// Absorbs message data.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 16 {
                return;
            }
            let block = self.buf;
            self.process_block(&block, HIBIT);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<16>();
        for block in blocks {
            self.process_block(block, HIBIT);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Completes the MAC and returns the 16-byte tag.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.buf_len > 0 {
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.process_block(&block, 0);
        }

        // Full carry propagation: two more passes settle every limb.
        let [h0, h1, h2] = self.h.map(u128::from);
        let [h0, h1, h2] = carry(carry([h0, h1, h2]).map(u128::from));
        let (c, h1) = (h1 >> 44, h1 & MASK44);
        let h2 = h2 + c;

        // Compute h + -p and select it if h >= p, in constant time.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let mask = (g2 >> 63).wrapping_sub(1);
        let h0 = (h0 & !mask) | (g0 & MASK44 & mask);
        let h1 = (h1 & !mask) | (g1 & MASK44 & mask);
        let h2 = (h2 & !mask) | (g2 & mask);

        // h mod 2^128, plus the pad (s) modulo 2^128.
        let h = u128::from(h0) | u128::from(h1) << 44 | u128::from(h2) << 88;
        h.wrapping_add(self.pad).to_le_bytes()
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8; 32], data: &[u8]) -> [u8; 16] {
        let mut p = Poly1305::new(key);
        p.update(data);
        p.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_vector() {
        let key: [u8; 32] =
            unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let tag = Poly1305::mac(&key, b"Cryptographic Forum Research Group");
        assert_eq!(tag.to_vec(), unhex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    // RFC 8439 §A.3 test vector 2: all-zero key must give an all-zero tag.
    #[test]
    fn zero_key_zero_tag() {
        let key = [0u8; 32];
        let tag = Poly1305::mac(&key, &[0u8; 64]);
        assert_eq!(tag, [0u8; 16]);
    }

    // Hand-computed cases with r = 2, s = 0: a zero 16-byte block has
    // value 2^128, so h = 2^129 mod (2^130 - 5) = 2^129, and the tag is
    // 2^129 mod 2^128 = 0. With a leading 0x01 byte the block value is
    // 1 + 2^128, h = 2 + 2^129, tag = 2.
    #[test]
    fn hand_computed_r2() {
        let mut key = [0u8; 32];
        key[0] = 2; // r = 2 survives clamping
        let tag = Poly1305::mac(&key, &[0u8; 16]);
        assert_eq!(tag, [0u8; 16]);

        let mut msg = [0u8; 16];
        msg[0] = 1;
        let tag = Poly1305::mac(&key, &msg);
        let mut expected = [0u8; 16];
        expected[0] = 2;
        assert_eq!(tag, expected);
    }

    // The pad s is added modulo 2^128: r = 0 makes h = 0, so the tag
    // equals s verbatim.
    #[test]
    fn tag_equals_pad_when_r_zero() {
        let mut key = [0u8; 32];
        for (i, b) in key[16..].iter_mut().enumerate() {
            *b = i as u8 + 1;
        }
        let tag = Poly1305::mac(&key, b"arbitrary message content here!!");
        assert_eq!(&tag[..], &key[16..]);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 7 + 1) as u8);
        let data: Vec<u8> = (0..200u32).map(|i| (i * 3) as u8).collect();
        for chunk in [1usize, 5, 15, 16, 17, 50] {
            let mut p = Poly1305::new(&key);
            for c in data.chunks(chunk) {
                p.update(c);
            }
            assert_eq!(p.finalize(), Poly1305::mac(&key, &data), "chunk={chunk}");
        }
    }
}
