//! The RFC 8439 textbook, as the library ran it before the lane-parallel
//! kernels: ChaCha20 one 64-byte block at a time with a byte-wise XOR,
//! Poly1305 on five 26-bit limbs one block per step, and the AEAD
//! composed from the two. Kept as the oracle `aead_equiv.rs` holds the
//! kernels to; `crates/tlsx/tests/record_path.rs` includes this file to
//! hold the record layer's wire bytes to it.

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn word(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// The keystream block for `counter` (RFC 8439 §2.3).
pub fn chacha20_block(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] = word(&key[i * 4..]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = word(&nonce[i * 4..]);
    }
    let initial = state;
    for _ in 0..10 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XORs the keystream from block `counter` into `data` (§2.4).
pub fn chacha20_xor(key: &[u8; 32], nonce: &[u8; 12], counter: u32, data: &mut [u8]) {
    let mut ctr = counter;
    for chunk in data.chunks_mut(64) {
        let ks = chacha20_block(key, nonce, ctr);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        ctr = ctr.wrapping_add(1);
    }
}

/// Poly1305 (§2.5) with 26-bit limbs in `u32`s and `u64`
/// intermediates, the "floodyberry" reference layout.
pub struct Poly1305 {
    r: [u32; 5],
    h: [u32; 5],
    pad: [u32; 4],
}

impl Poly1305 {
    fn new(key: &[u8; 32]) -> Self {
        let (r0, r1, r2, r3) = (
            word(&key[0..]),
            word(&key[4..]),
            word(&key[8..]),
            word(&key[12..]),
        );
        Poly1305 {
            r: [
                r0 & 0x3ffffff,
                ((r0 >> 26) | (r1 << 6)) & 0x3ffff03,
                ((r1 >> 20) | (r2 << 12)) & 0x3ffc0ff,
                ((r2 >> 14) | (r3 << 18)) & 0x3f03fff,
                (r3 >> 8) & 0x00fffff,
            ],
            h: [0; 5],
            pad: [
                word(&key[16..]),
                word(&key[20..]),
                word(&key[24..]),
                word(&key[28..]),
            ],
        }
    }

    fn process_block(&mut self, block: &[u8; 16], partial: bool) {
        let hibit: u32 = if partial { 0 } else { 1 << 24 };
        let (t0, t1, t2, t3) = (
            word(&block[0..]),
            word(&block[4..]),
            word(&block[8..]),
            word(&block[12..]),
        );

        self.h[0] = self.h[0].wrapping_add(t0 & 0x3ffffff);
        self.h[1] = self.h[1].wrapping_add(((t0 >> 26) | (t1 << 6)) & 0x3ffffff);
        self.h[2] = self.h[2].wrapping_add(((t1 >> 20) | (t2 << 12)) & 0x3ffffff);
        self.h[3] = self.h[3].wrapping_add(((t2 >> 14) | (t3 << 18)) & 0x3ffffff);
        self.h[4] = self.h[4].wrapping_add((t3 >> 8) | hibit);

        let [r0, r1, r2, r3, r4] = self.r.map(u64::from);
        let (s1, s2, s3, s4) = (r1 * 5, r2 * 5, r3 * 5, r4 * 5);
        let [h0, h1, h2, h3, h4] = self.h.map(u64::from);

        let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
        let mut d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
        let mut d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
        let mut d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
        let mut d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

        let mut c = d0 >> 26;
        let h0 = (d0 & 0x3ffffff) as u32;
        d1 += c;
        c = d1 >> 26;
        let h1 = (d1 & 0x3ffffff) as u32;
        d2 += c;
        c = d2 >> 26;
        let h2 = (d2 & 0x3ffffff) as u32;
        d3 += c;
        c = d3 >> 26;
        let h3 = (d3 & 0x3ffffff) as u32;
        d4 += c;
        c = d4 >> 26;
        let h4 = (d4 & 0x3ffffff) as u32;
        let d0 = u64::from(h0) + c * 5;
        c = d0 >> 26;
        let h0 = (d0 & 0x3ffffff) as u32;
        let h1 = h1.wrapping_add(c as u32);

        self.h = [h0, h1, h2, h3, h4];
    }

    fn finalize(self) -> [u8; 16] {
        let [mut h0, mut h1, mut h2, mut h3, mut h4] = self.h;
        // Full carry propagation.
        let mut c = h1 >> 26;
        h1 &= 0x3ffffff;
        h2 += c;
        c = h2 >> 26;
        h2 &= 0x3ffffff;
        h3 += c;
        c = h3 >> 26;
        h3 &= 0x3ffffff;
        h4 += c;
        c = h4 >> 26;
        h4 &= 0x3ffffff;
        h0 += c * 5;
        c = h0 >> 26;
        h0 &= 0x3ffffff;
        h1 += c;

        // Compute h + -p and select it if h >= p.
        let mut g0 = h0.wrapping_add(5);
        c = g0 >> 26;
        g0 &= 0x3ffffff;
        let mut g1 = h1.wrapping_add(c);
        c = g1 >> 26;
        g1 &= 0x3ffffff;
        let mut g2 = h2.wrapping_add(c);
        c = g2 >> 26;
        g2 &= 0x3ffffff;
        let mut g3 = h3.wrapping_add(c);
        c = g3 >> 26;
        g3 &= 0x3ffffff;
        let g4 = h4.wrapping_add(c).wrapping_sub(1 << 26);

        let mask = (g4 >> 31).wrapping_sub(1);
        h0 = (h0 & !mask) | (g0 & mask);
        h1 = (h1 & !mask) | (g1 & mask);
        h2 = (h2 & !mask) | (g2 & mask);
        h3 = (h3 & !mask) | (g3 & mask);
        h4 = (h4 & !mask) | (g4 & mask);

        // Serialize h back to 128 bits and add the pad modulo 2^128.
        let words = [
            h0 | (h1 << 26),
            (h1 >> 6) | (h2 << 20),
            (h2 >> 12) | (h3 << 14),
            (h3 >> 18) | (h4 << 8),
        ];
        let mut out = [0u8; 16];
        let mut acc = 0u64;
        for i in 0..4 {
            acc = u64::from(words[i]) + u64::from(self.pad[i]) + (acc >> 32);
            out[i * 4..i * 4 + 4].copy_from_slice(&(acc as u32).to_le_bytes());
        }
        out
    }

    /// The tag of `data` under the one-time `key`.
    pub fn mac(key: &[u8; 32], data: &[u8]) -> [u8; 16] {
        let mut p = Poly1305::new(key);
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            p.process_block(block.try_into().unwrap(), false);
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            let mut block = [0u8; 16];
            block[..rest.len()].copy_from_slice(rest);
            block[rest.len()] = 1;
            p.process_block(&block, true);
        }
        p.finalize()
    }
}

/// `ciphertext || tag` of the AEAD (§2.8).
pub fn aead_seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut otk = [0u8; 32];
    otk.copy_from_slice(&chacha20_block(key, nonce, 0)[..32]);
    let mut out = plaintext.to_vec();
    chacha20_xor(key, nonce, 1, &mut out);
    let mut mac_data = Vec::new();
    for part in [aad, &out[..]] {
        mac_data.extend_from_slice(part);
        mac_data.resize(mac_data.len().next_multiple_of(16), 0);
    }
    mac_data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
    mac_data.extend_from_slice(&(plaintext.len() as u64).to_le_bytes());
    out.extend_from_slice(&Poly1305::mac(&otk, &mac_data));
    out
}
