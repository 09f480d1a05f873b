//! Textbook references the kernels are held to.
//!
//! - RFC 8439 as the library ran it before its lane-parallel kernels:
//!   ChaCha20 one 64-byte block at a time with a byte-wise XOR, Poly1305
//!   on five 26-bit limbs one block per step, and the AEAD composed from
//!   the two (`aead_equiv.rs`).
//! - AES-256-GCM with nothing of the CPU's: FIPS-197 AES-256 byte by
//!   byte through the S-box table, and SP 800-38D's GHASH one bit at a
//!   time (Algorithm 1). `gcm_equiv.rs` holds both kernels to it and
//!   `crates/tlsx/tests/record_path.rs` includes this file to hold the
//!   record layer's wire bytes to it.
//!
//! Each binary that includes the file uses one half of it.
#![allow(dead_code)]

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

/// FIPS-197 Figure 7.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Multiplication by x in GF(2⁸) (FIPS-197 §4.2.1).
fn xtime(b: u8) -> u8 {
    (b << 1) ^ if b & 0x80 != 0 { 0x1b } else { 0 }
}

/// The 60 words of the AES-256 key schedule (FIPS-197 §5.2, Nk = 8).
fn aes256_schedule(key: &[u8; 32]) -> [[u8; 4]; 60] {
    let mut w = [[0u8; 4]; 60];
    for (i, word) in w.iter_mut().take(8).enumerate() {
        word.copy_from_slice(&key[4 * i..4 * i + 4]);
    }
    let mut rcon = 1u8;
    for i in 8..60 {
        let mut t = w[i - 1];
        if i % 8 == 0 {
            t = [t[1], t[2], t[3], t[0]].map(|b| SBOX[b as usize]);
            t[0] ^= rcon;
            rcon = xtime(rcon);
        } else if i % 8 == 4 {
            t = t.map(|b| SBOX[b as usize]);
        }
        for j in 0..4 {
            w[i][j] = w[i - 8][j] ^ t[j];
        }
    }
    w
}

/// AES-256 of one block (FIPS-197 §5.1); the state is column-major,
/// byte `r + 4c` in row `r` of column `c`.
pub fn aes256_encrypt(key: &[u8; 32], block: &[u8; 16]) -> [u8; 16] {
    let w = aes256_schedule(key);
    let add_round_key = |s: &mut [u8; 16], round: usize| {
        for c in 0..4 {
            for r in 0..4 {
                s[r + 4 * c] ^= w[4 * round + c][r];
            }
        }
    };
    let mut s = *block;
    add_round_key(&mut s, 0);
    for round in 1..=14 {
        s = s.map(|b| SBOX[b as usize]);
        let shifted = s;
        for c in 0..4 {
            for r in 0..4 {
                s[r + 4 * c] = shifted[r + 4 * ((c + r) % 4)];
            }
        }
        if round != 14 {
            for c in 0..4 {
                let a = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
                for r in 0..4 {
                    let (x, y) = (a[r], a[(r + 1) % 4]);
                    s[4 * c + r] = xtime(x) ^ xtime(y) ^ y ^ a[(r + 2) % 4] ^ a[(r + 3) % 4];
                }
            }
        }
        add_round_key(&mut s, round);
    }
    s
}

/// X·Y in GCM's field, one bit of X at a time (SP 800-38D
/// Algorithm 1); blocks are read big-endian, bit 0 leftmost.
fn gf128_mul(x: u128, y: u128) -> u128 {
    let r = 0xe1u128 << 120;
    let (mut z, mut v) = (0u128, y);
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        v = if v & 1 == 0 { v >> 1 } else { (v >> 1) ^ r };
    }
    z
}

/// GHASH of `aad` and `ciphertext`, each zero-padded to whole blocks,
/// then both lengths in bits (SP 800-38D §6.4, §7.1 step 5).
pub fn ghash(h: &[u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
    let h = u128::from_be_bytes(*h);
    let mut y = 0u128;
    for part in [aad, ciphertext] {
        for chunk in part.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            y = gf128_mul(y ^ u128::from_be_bytes(block), h);
        }
    }
    let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
    gf128_mul(y ^ lengths, h).to_be_bytes()
}

/// The counter block `nonce || counter`, the counter big-endian.
fn counter_block(nonce: &[u8; 12], counter: u32) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..12].copy_from_slice(nonce);
    block[12..].copy_from_slice(&counter.to_be_bytes());
    block
}

/// `ciphertext || tag` of AES-256-GCM with a 96-bit nonce (SP 800-38D
/// §7.1): J₀ = nonce || 1, the message from counter 2.
pub fn gcm_seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    for (i, chunk) in out.chunks_mut(16).enumerate() {
        let counter = 2u32.wrapping_add(i as u32);
        let keystream = aes256_encrypt(key, &counter_block(nonce, counter));
        for (b, k) in chunk.iter_mut().zip(keystream) {
            *b ^= k;
        }
    }
    let h = aes256_encrypt(key, &[0u8; 16]);
    let mask = aes256_encrypt(key, &counter_block(nonce, 1));
    let mut tag = ghash(&h, aad, &out);
    for (t, m) in tag.iter_mut().zip(mask) {
        *t ^= m;
    }
    out.extend_from_slice(&tag);
    out
}
