//! The ChaCha20 stream cipher (RFC 8439 §2.3).
//!
//! [`ChaCha20::block`] is the RFC's block function, one block at a
//! time. [`ChaCha20::apply_keystream`] runs whole stripes of blocks
//! through lane-parallel kernels chosen from the CPU's feature set and
//! the input's length, and the rest through `block` (DESIGN.md "Record
//! crypto kernels").

/// ChaCha20 cipher instance bound to a key and nonce.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];
/// Bytes per pass of the 256-bit kernels: eight blocks.
const STRIPE: usize = 8 * 64;

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

/// Which code runs the whole stripes of [`ChaCha20::apply_keystream`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// [`ChaCha20::block`] for every block: any CPU.
    Block,
    /// Eight blocks per pass in 256-bit lanes, AVX2.
    Avx2,
    /// Eight blocks per pass in 256-bit lanes with the 32 registers and
    /// the vector rotate of AVX-512VL.
    Avx512vl,
    /// Sixteen blocks per pass in 512-bit lanes, AVX-512F; what is left
    /// after the last whole 1 KiB stripe goes through the fastest of the
    /// others.
    Avx512,
}

impl Kernel {
    /// Every kernel, slowest first.
    pub const ALL: [Kernel; 4] = [
        Kernel::Block,
        Kernel::Avx2,
        Kernel::Avx512vl,
        Kernel::Avx512,
    ];

    /// Whether this CPU can execute the kernel.
    pub fn supported(self) -> bool {
        match self {
            Kernel::Block => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512vl => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The kernel [`ChaCha20::apply_keystream`] runs `len` bytes
    /// through: the fastest this CPU supports, 512-bit only from
    /// [`crate::VECTOR_MIN`] bytes on.
    pub fn for_len(len: usize) -> Kernel {
        Kernel::fastest(len >= crate::VECTOR_MIN)
    }

    /// The fastest kernel this CPU supports, [`Kernel::Avx512`] only if
    /// `wide`.
    fn fastest(wide: bool) -> Kernel {
        let fastest = Kernel::ALL
            .into_iter()
            .rfind(|&k| (wide || k != Kernel::Avx512) && k.supported());
        fastest.unwrap_or(Kernel::Block)
    }
}

/// The x86-64 kernels: eight or sixteen blocks per pass, lanes as
/// blocks. Vector `x[w]` holds word `w` of every block of the pass, so a
/// quarter round is twelve lane-wise operations and no shuffle; the
/// keystream is transposed back to block order once, where it meets the
/// data.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{ChaCha20, SIGMA, STRIPE};
    use core::arch::x86_64::*;

    /// Bytes per pass of the 512-bit kernel: sixteen blocks.
    const WIDE_STRIPE: usize = 16 * 64;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(b: &[u8; 32]) -> __m256i {
        let (q, _) = b.as_chunks::<8>();
        let [q0, q1, q2, q3] = [q[0], q[1], q[2], q[3]].map(i64::from_le_bytes);
        _mm256_setr_epi64x(q0, q1, q2, q3)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(v: __m256i, b: &mut [u8; 32]) {
        let q = [
            _mm256_extract_epi64::<0>(v),
            _mm256_extract_epi64::<1>(v),
            _mm256_extract_epi64::<2>(v),
            _mm256_extract_epi64::<3>(v),
        ];
        for (bytes, q) in b.as_chunks_mut::<8>().0.iter_mut().zip(q) {
            *bytes = q.to_le_bytes();
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load512(b: &[u8; 64]) -> __m512i {
        let (q, _) = b.as_chunks::<8>();
        let q: [i64; 8] = core::array::from_fn(|i| i64::from_le_bytes(q[i]));
        _mm512_setr_epi64(q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7])
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store512(v: __m512i, b: &mut [u8; 64]) {
        let (halves, _) = b.as_chunks_mut::<32>();
        store(_mm512_castsi512_si256(v), &mut halves[0]);
        store(_mm512_extracti64x4_epi64::<1>(v), &mut halves[1]);
    }

    /// In: `r[w]` is word `w` of blocks 0..8. Out: `[l]` is the eight
    /// words of block `l`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(r: [__m256i; 8]) -> [__m256i; 8] {
        // t[2p], t[2p + 1]: words 2p and 2p + 1 interleaved, blocks
        // {0, 1, 4, 5} and {2, 3, 6, 7}.
        let t: [__m256i; 8] = core::array::from_fn(|i| {
            let (a, b) = (r[i & !1], r[i | 1]);
            if i & 1 == 0 {
                _mm256_unpacklo_epi32(a, b)
            } else {
                _mm256_unpackhi_epi32(a, b)
            }
        });
        // u[4h + l]: words 4h..4h + 4 of blocks l and l + 4.
        let u: [__m256i; 8] = core::array::from_fn(|i| {
            let pair = (i & 4) | (i >> 1 & 1);
            if i & 1 == 0 {
                _mm256_unpacklo_epi64(t[pair], t[pair | 2])
            } else {
                _mm256_unpackhi_epi64(t[pair], t[pair | 2])
            }
        });
        core::array::from_fn(|l| {
            if l < 4 {
                _mm256_permute2x128_si256::<0x20>(u[l], u[l + 4])
            } else {
                _mm256_permute2x128_si256::<0x31>(u[l - 4], u[l])
            }
        })
    }

    /// In: `x[w]` is word `w` of blocks 0..16. Out: `[b]` is the sixteen
    /// words of block `b`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose16(x: [__m512i; 16]) -> [__m512i; 16] {
        // A 4×4 transpose inside every 128-bit lane: y[4g + i], lane q,
        // is words 4g..4g + 4 of block 4q + i.
        let mut y = x;
        for g in (0..16).step_by(4) {
            let [a, b, c, d] = [x[g], x[g + 1], x[g + 2], x[g + 3]];
            let (ab_lo, ab_hi) = (_mm512_unpacklo_epi32(a, b), _mm512_unpackhi_epi32(a, b));
            let (cd_lo, cd_hi) = (_mm512_unpacklo_epi32(c, d), _mm512_unpackhi_epi32(c, d));
            y[g] = _mm512_unpacklo_epi64(ab_lo, cd_lo);
            y[g + 1] = _mm512_unpackhi_epi64(ab_lo, cd_lo);
            y[g + 2] = _mm512_unpacklo_epi64(ab_hi, cd_hi);
            y[g + 3] = _mm512_unpackhi_epi64(ab_hi, cd_hi);
        }
        // Then a 4×4 transpose of the 128-bit lanes, two rounds of
        // `shuffle_i32x4`: block 4q + i gathers lane q of y[i],
        // y[4 + i], y[8 + i] and y[12 + i].
        let mut out = y;
        for i in 0..4 {
            let pairs = |sel: usize| {
                let (a, b) = (y[8 * sel + i], y[8 * sel + 4 + i]);
                (
                    _mm512_shuffle_i32x4::<0x44>(a, b),
                    _mm512_shuffle_i32x4::<0xee>(a, b),
                )
            };
            let ((a0, a1), (a2, a3)) = (pairs(0), pairs(1));
            out[i] = _mm512_shuffle_i32x4::<0x88>(a0, a2);
            out[4 + i] = _mm512_shuffle_i32x4::<0xdd>(a0, a2);
            out[8 + i] = _mm512_shuffle_i32x4::<0x88>(a1, a3);
            out[12 + i] = _mm512_shuffle_i32x4::<0xdd>(a1, a3);
        }
        out
    }

    macro_rules! rotl_avx2 {
        ($v:expr, $n:literal) => {{
            let v = $v;
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>(v),
                _mm256_srli_epi32::<{ 32 - $n }>(v),
            )
        }};
    }

    macro_rules! rotl_avx512vl {
        ($v:expr, $n:literal) => {
            _mm256_rol_epi32::<$n>($v)
        };
    }

    macro_rules! rotl_avx512 {
        ($v:expr, $n:literal) => {
            _mm512_rol_epi32::<$n>($v)
        };
    }

    /// The twenty rounds over word vectors `$x`, with one width's
    /// lane-wise add, XOR and rotate.
    macro_rules! rounds {
        ($x:ident, $add:ident, $xor:ident, $rotl:ident) => {
            macro_rules! quarter_round {
                ($a:literal, $b:literal, $c:literal, $d:literal) => {
                    $x[$a] = $add($x[$a], $x[$b]);
                    $x[$d] = $rotl!($xor($x[$d], $x[$a]), 16);
                    $x[$c] = $add($x[$c], $x[$d]);
                    $x[$b] = $rotl!($xor($x[$b], $x[$c]), 12);
                    $x[$a] = $add($x[$a], $x[$b]);
                    $x[$d] = $rotl!($xor($x[$d], $x[$a]), 8);
                    $x[$c] = $add($x[$c], $x[$d]);
                    $x[$b] = $rotl!($xor($x[$b], $x[$c]), 7);
                };
            }
            for _ in 0..10 {
                quarter_round!(0, 4, 8, 12);
                quarter_round!(1, 5, 9, 13);
                quarter_round!(2, 6, 10, 14);
                quarter_round!(3, 7, 11, 15);
                quarter_round!(0, 5, 10, 15);
                quarter_round!(1, 6, 11, 12);
                quarter_round!(2, 7, 8, 13);
                quarter_round!(3, 4, 9, 14);
            }
        };
    }

    /// Stamps out the 256-bit stripe loop for one feature set; `$rotl`
    /// is that set's 32-bit lane rotate.
    macro_rules! stripes {
        ($name:ident, $features:literal, $rotl:ident) => {
            /// XORs keystream into every whole 512-byte stripe of
            /// `data`; returns the block counter after them and the
            /// bytes left over.
            #[target_feature(enable = $features)]
            pub(super) fn $name<'a>(
                &self,
                counter: u32,
                data: &'a mut [u8],
            ) -> (u32, &'a mut [u8]) {
                let mut base: [__m256i; 16] =
                    core::array::from_fn(|w| _mm256_set1_epi32(self.word(w) as i32));
                let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                let mut ctr = counter;
                let (stripes, rest) = data.as_chunks_mut::<STRIPE>();
                for stripe in stripes {
                    base[12] = _mm256_add_epi32(_mm256_set1_epi32(ctr as i32), lane);
                    let mut x = base;
                    rounds!(x, _mm256_add_epi32, _mm256_xor_si256, $rotl);
                    for w in 0..16 {
                        x[w] = _mm256_add_epi32(x[w], base[w]);
                    }
                    let halves = [
                        transpose(core::array::from_fn(|w| x[w])),
                        transpose(core::array::from_fn(|w| x[8 + w])),
                    ];
                    // Block `l` is 32-byte chunks `2l` (words 0..8)
                    // and `2l + 1` (words 8..16) of the stripe.
                    let (chunks, _) = stripe.as_chunks_mut::<32>();
                    for (i, chunk) in chunks.iter_mut().enumerate() {
                        let keystream = halves[i & 1][i >> 1];
                        store(_mm256_xor_si256(load(chunk), keystream), chunk);
                    }
                    ctr = ctr.wrapping_add(8);
                }
                (ctr, rest)
            }
        };
    }

    impl ChaCha20 {
        /// Word `w` of the initial state, with block counter 0. The
        /// kernels splat it word by word: mapping a whole `[u32; 16]`
        /// state to vectors measured 30–90 ns slower per call.
        #[inline(always)]
        fn word(&self, w: usize) -> u32 {
            match w {
                0..4 => SIGMA[w],
                4..12 => self.key[w - 4],
                12 => 0,
                _ => self.nonce[w - 13],
            }
        }

        stripes!(stripes_avx2, "avx2", rotl_avx2);
        stripes!(stripes_avx512vl, "avx512f,avx512vl", rotl_avx512vl);

        /// XORs keystream into every whole 1,024-byte stripe of `data`;
        /// returns the block counter after them and the bytes left over.
        #[target_feature(enable = "avx512f")]
        pub(super) fn stripes_avx512<'a>(
            &self,
            counter: u32,
            data: &'a mut [u8],
        ) -> (u32, &'a mut [u8]) {
            let mut base: [__m512i; 16] =
                core::array::from_fn(|w| _mm512_set1_epi32(self.word(w) as i32));
            let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            let mut ctr = counter;
            let (stripes, rest) = data.as_chunks_mut::<WIDE_STRIPE>();
            for stripe in stripes {
                base[12] = _mm512_add_epi32(_mm512_set1_epi32(ctr as i32), lane);
                let mut x = base;
                rounds!(x, _mm512_add_epi32, _mm512_xor_si512, rotl_avx512);
                for w in 0..16 {
                    x[w] = _mm512_add_epi32(x[w], base[w]);
                }
                let (blocks, _) = stripe.as_chunks_mut::<64>();
                for (block, keystream) in blocks.iter_mut().zip(transpose16(x)) {
                    store512(_mm512_xor_si512(load512(block), keystream), block);
                }
                ctr = ctr.wrapping_add(16);
            }
            (ctr, rest)
        }
    }
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
        self.apply_keystream_with(Kernel::for_len(data.len()), counter, data);
    }

    /// Runs every whole stripe of `data` through `kernel`; returns the
    /// block counter after them and the bytes left over.
    fn stripes<'a>(&self, kernel: Kernel, counter: u32, data: &'a mut [u8]) -> (u32, &'a mut [u8]) {
        assert!(kernel.supported(), "{kernel:?} not supported by this CPU");
        match kernel {
            Kernel::Block => (counter, data),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported` detected avx2 on this CPU.
            Kernel::Avx2 => unsafe { self.stripes_avx2(counter, data) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported` detected avx512f and avx512vl on this CPU.
            Kernel::Avx512vl => unsafe { self.stripes_avx512vl(counter, data) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported` detected avx512f on this CPU.
            Kernel::Avx512 => unsafe { self.stripes_avx512(counter, data) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only Block is supported off x86-64"),
        }
    }

    /// [`Self::apply_keystream`] through `kernel` instead of the one
    /// [`Kernel::for_len`] picks (the equivalence tests call each).
    ///
    /// # Panics
    ///
    /// If this CPU does not support `kernel`.
    pub fn apply_keystream_with(&self, kernel: Kernel, counter: u32, data: &mut [u8]) {
        let (mut ctr, rest) = self.stripes(kernel, counter, data);
        if kernel == Kernel::Avx512 {
            // Less than one 16-block stripe left: a 256-bit kernel
            // finishes it.
            return self.apply_keystream_with(Kernel::fastest(false), ctr, rest);
        }
        if kernel != Kernel::Block && rest.len() > 64 {
            // More than one block left: one more pass, over a padded
            // copy, is cheaper than `block` twice.
            let mut stripe = [0u8; STRIPE];
            stripe[..rest.len()].copy_from_slice(rest);
            self.stripes(kernel, ctr, &mut stripe);
            rest.copy_from_slice(&stripe[..rest.len()]);
            return;
        }
        for chunk in rest.chunks_mut(64) {
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
