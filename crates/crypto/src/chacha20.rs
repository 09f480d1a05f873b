//! The ChaCha20 stream cipher (RFC 8439 §2.3).
//!
//! [`ChaCha20::block`] is the RFC's block function, one block at a
//! time, and [`ChaCha20::apply_keystream`] runs it block after block.
//! The DRBG ([`crate::rng`]) and [`crate::aead::ChaCha20Poly1305`] use
//! it; records, sealed data and the journal are AES-256-GCM
//! ([`crate::gcm`]).

/// ChaCha20 cipher instance bound to a key and nonce.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline(always)]
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

impl ChaCha20 {
    /// Creates a cipher from a 256-bit key and 96-bit nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        ChaCha20 {
            key: core::array::from_fn(|i| word(&key[i * 4..])),
            nonce: core::array::from_fn(|i| word(&nonce[i * 4..])),
        }
    }

    /// Produces the 64-byte keystream block for block counter `counter`.
    pub fn block(&self, counter: u32) -> [u8; 64] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce);
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

    /// XORs the keystream (starting at block `counter`) into `data` in
    /// place. Encryption and decryption are the same operation.
    pub fn apply_keystream(&self, counter: u32, data: &mut [u8]) {
        let mut ctr = counter;
        for chunk in data.chunks_mut(64) {
            let ks = self.block(ctr);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            ctr = ctr.wrapping_add(1);
        }
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

    // RFC 8439 §2.3.2: the ChaCha20 block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = unhex("000000090000004a00000000").try_into().unwrap();
        let cipher = ChaCha20::new(&key, &nonce);
        let block = cipher.block(1);
        let expected = unhex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(block.to_vec(), expected);
    }

    // RFC 8439 §2.4.2: ChaCha20 encryption test vector.
    #[test]
    fn rfc8439_encrypt_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = unhex("000000000000004a00000000").try_into().unwrap();
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it."
            .to_vec();
        let cipher = ChaCha20::new(&key, &nonce);
        cipher.apply_keystream(1, &mut data);
        let expected = unhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(data, expected);
    }

    #[test]
    fn roundtrip() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let cipher = ChaCha20::new(&key, &nonce);
        let mut data: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let orig = data.clone();
        cipher.apply_keystream(0, &mut data);
        assert_ne!(data, orig);
        cipher.apply_keystream(0, &mut data);
        assert_eq!(data, orig);
    }
}
