//! SHA-256, from the FIPS 180-4 spec.
//!
//! The service layer content-addresses netlists and reduced models:
//! the address must be collision-resistant (a truncated or additive
//! hash would let two different circuits share a persisted model) and
//! stable across processes and platforms (the registry survives
//! restarts). The workspace is dependency-free by policy, so the
//! standard construction is written out here and pinned against the
//! FIPS test vectors. It is incremental, so the service hashes a
//! netlist once and forks the state for its two keys.
//!
//! The compression function has two builds: the portable [`compress`],
//! and on x86-64 CPUs with the SHA extensions a build on the
//! `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions (≈1.45 GB/s
//! against ≈240 MB/s on a Xeon VM). Each [`Sha256::update`] picks one by
//! `is_x86_feature_detected!`; both give the same digest, and the tests
//! compare them bit for bit.

use std::fmt::Write;

/// First 32 bits of the fractional parts of the cube roots of the
/// first 64 primes (the round constants `K`).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash: fractional parts of the square roots of the first
/// eight primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// An incremental SHA-256: feed the message in any number of
/// [`Sha256::update`] calls, fork a shared prefix with `clone`, and read
/// the digest with [`Sha256::finish_hex`]. Any split of a message gives
/// the digest of the whole.
#[derive(Clone)]
pub(crate) struct Sha256 {
    h: [u32; 8],
    /// The partial block not yet compressed (`buf[..buf_len]`).
    buf: [u8; 64],
    buf_len: usize,
    /// Message length so far, in bytes.
    len: u64,
}

impl Sha256 {
    pub(crate) fn new() -> Self {
        Sha256 {
            h: H0,
            buf: [0; 64],
            buf_len: 0,
            len: 0,
        }
    }

    /// Appends `data` to the message.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.update_with(compress_build(), data);
    }

    /// The digest of the message, as 64 lowercase hex characters.
    pub(crate) fn finish_hex(self) -> String {
        self.finish_with(compress_build())
    }

    fn update_with(&mut self, compress: Compress, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.h, &self.buf);
            self.buf_len = 0;
        }
        let whole = data.len() - data.len() % 64;
        compress(&mut self.h, &data[..whole]);
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    fn finish_with(mut self, compress: Compress) -> String {
        // Pad: 0x80, zeros to 56 mod 64, then the bit length big-endian.
        let bits = self.len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf_len += 1;
        if self.buf_len > 56 {
            self.buf[self.buf_len..].fill(0);
            compress(&mut self.h, &self.buf);
            self.buf_len = 0;
        }
        self.buf[self.buf_len..56].fill(0);
        self.buf[56..].copy_from_slice(&bits.to_be_bytes());
        compress(&mut self.h, &self.buf);
        let mut hex = String::with_capacity(64);
        for v in self.h {
            write!(hex, "{v:08x}").expect("writing to a String cannot fail");
        }
        hex
    }
}

/// The SHA-256 digest of `data`, as 64 lowercase hex characters.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut state = Sha256::new();
    state.update(data);
    state.finish_hex()
}

/// A build of the compression function: compresses each 64-byte block
/// of `blocks` (whose length is a multiple of 64) into `h`, in order.
type Compress = fn(&mut [u32; 8], &[u8]);

/// The SHA-NI build when the CPU has it, else the portable one.
fn compress_build() -> Compress {
    sha_ni_build().unwrap_or(compress_portable)
}

/// The portable build: [`compress`] block by block.
fn compress_portable(h: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress(h, block);
    }
}

/// The SHA-NI build, if the CPU reports every feature it is built for.
#[cfg(target_arch = "x86_64")]
fn sha_ni_build() -> Option<Compress> {
    let detected = std::is_x86_feature_detected!("sha")
        && std::is_x86_feature_detected!("ssse3")
        && std::is_x86_feature_detected!("sse4.1");
    detected.then_some(|h: &mut [u32; 8], blocks: &[u8]| {
        // SAFETY: this function is returned only after the CPU reported
        // every feature `compress_sha_ni` is compiled for, which is all a
        // `#[target_feature]` function asks of its caller.
        unsafe { compress_sha_ni(h, blocks) }
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn sha_ni_build() -> Option<Compress> {
    None
}

/// One round of the compression function over a 64-byte `block`.
fn compress(h: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (t, word) in block.chunks_exact(4).enumerate() {
        w[t] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = hh
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = big_s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (hi, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *hi = hi.wrapping_add(v);
    }
}

/// [`compress`] over each 64-byte block of `blocks`, on the SHA
/// extensions. `sha256rnds2` runs two rounds on the state split as
/// `(a, b, e, f)` and `(c, d, g, h)` (highest lane first), and
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at
/// a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(h: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;
    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let lanes = |v: [u32; 4]| _mm_set_epi32(v[3] as i32, v[2] as i32, v[1] as i32, v[0] as i32);
    let dcba = lanes([h[0], h[1], h[2], h[3]]);
    let hgfe = lanes([h[4], h[5], h[6], h[7]]);
    let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
    for block in blocks.chunks_exact(64) {
        let (abef0, cdgh0) = (abef, cdgh);
        let mut w = [_mm_setzero_si128(); 4];
        for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
            let v = u128::from_le_bytes(bytes.try_into().expect("16-byte chunk"));
            *wi = _mm_shuffle_epi8(_mm_set_epi64x((v >> 64) as i64, v as i64), bswap);
        }
        // Rounds 4q..4q+4 on the message words in `w[q % 4]`; from
        // q = 4 on, those words are first computed from the previous 16.
        macro_rules! quad {
            ($q:expr) => {{
                if $q >= 4 {
                    let w4 = _mm_sha256msg1_epu32(w[$q % 4], w[($q + 1) % 4]);
                    let w7 = _mm_alignr_epi8::<4>(w[($q + 3) % 4], w[($q + 2) % 4]);
                    w[$q % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(w4, w7), w[($q + 3) % 4]);
                }
                let wk = _mm_add_epi32(
                    w[$q % 4],
                    lanes([K[4 * $q], K[4 * $q + 1], K[4 * $q + 2], K[4 * $q + 3]]),
                );
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }};
        }
        quad!(0);
        quad!(1);
        quad!(2);
        quad!(3);
        quad!(4);
        quad!(5);
        quad!(6);
        quad!(7);
        quad!(8);
        quad!(9);
        quad!(10);
        quad!(11);
        quad!(12);
        quad!(13);
        quad!(14);
        quad!(15);
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }
    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
    let hgef = _mm_alignr_epi8::<8>(dchg, feba);
    *h = [
        _mm_extract_epi32::<0>(dcba) as u32,
        _mm_extract_epi32::<1>(dcba) as u32,
        _mm_extract_epi32::<2>(dcba) as u32,
        _mm_extract_epi32::<3>(dcba) as u32,
        _mm_extract_epi32::<0>(hgef) as u32,
        _mm_extract_epi32::<1>(hgef) as u32,
        _mm_extract_epi32::<2>(hgef) as u32,
        _mm_extract_epi32::<3>(hgef) as u32,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_test_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // Two-block message (padding crosses a block boundary).
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_one_million_a() {
        let data = vec![b'a'; 1_000_000];
        let expect = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(sha256_hex(&data), expect);
        assert_eq!(digest_with(compress_portable, &data, 0), expect);
    }

    /// The digest of `msg` fed as `msg[..split]` then `msg[split..]`,
    /// with every block compressed by `compress`.
    fn digest_with(compress: Compress, msg: &[u8], split: usize) -> String {
        let mut state = Sha256::new();
        state.update_with(compress, &msg[..split]);
        state.update_with(compress, &msg[split..]);
        state.finish_with(compress)
    }

    #[test]
    fn sha_ni_build_matches_portable_bit_for_bit() {
        let Some(sha_ni) = sha_ni_build() else {
            eprintln!("skipped: this CPU has no SHA extensions");
            return;
        };
        let msg: Vec<u8> = (0..300u32)
            .map(|i| (i * 131 + 7 * (i >> 3)) as u8)
            .collect();
        // The raw state after 1..=4 blocks, from two different states.
        for start in [H0, K[8..16].try_into().expect("eight words")] {
            for blocks in 1..=4 {
                let (mut a, mut b) = (start, start);
                compress_portable(&mut a, &msg[..64 * blocks]);
                sha_ni(&mut b, &msg[..64 * blocks]);
                assert_eq!(a, b, "{blocks} blocks");
            }
        }
        for len in 0..=msg.len() {
            let msg = &msg[..len];
            assert_eq!(
                digest_with(sha_ni, msg, len),
                digest_with(compress_portable, msg, len),
                "length {len}"
            );
        }
        let whole = digest_with(compress_portable, &msg, 0);
        for split in 0..=msg.len() {
            assert_eq!(digest_with(sha_ni, &msg, split), whole, "split {split}");
        }
    }

    #[test]
    fn length_boundaries_around_padding() {
        // 55, 56, and 64 bytes exercise the "does the length field fit
        // in this block" edges.
        for n in [55usize, 56, 63, 64, 65] {
            let data = vec![0x61u8; n];
            let hex = sha256_hex(&data);
            assert_eq!(hex.len(), 64);
            assert_ne!(hex, sha256_hex(&vec![0x61u8; n + 1]));
        }
    }

    #[test]
    fn incremental_equals_one_shot_at_every_split() {
        let data: Vec<u8> = (0..130u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in [0, 1, 55, 56, 63, 64, 65, 127, 128, 130] {
            let msg = &data[..len];
            let whole = sha256_hex(msg);
            for split in 0..=len {
                let mut state = Sha256::new();
                state.update(&msg[..split]);
                state.update(&msg[split..]);
                assert_eq!(state.finish_hex(), whole, "len {len}, split {split}");
            }
        }
        // Every split of the full 130 bytes, also fed in three pieces.
        let whole = sha256_hex(&data);
        for split in 0..=data.len() {
            let mut state = Sha256::new();
            let (a, b) = data.split_at(split);
            state.update(a);
            state.update(&b[..b.len() / 2]);
            state.update(&b[b.len() / 2..]);
            assert_eq!(state.finish_hex(), whole, "split {split}");
        }
    }

    #[test]
    fn forked_prefix_equals_one_shot() {
        // The service's two addresses: the prefix alone, and the prefix
        // followed by a separator and a suffix, from one shared state.
        let prefix = vec![b'x'; 100];
        let mut state = Sha256::new();
        state.update(&prefix);
        let fork = state.clone();
        assert_eq!(fork.finish_hex(), sha256_hex(&prefix));
        for suffix in [&b""[..], b"\0", b"\0order fixed 8\nshift auto\n"] {
            let mut keyed = state.clone();
            keyed.update(suffix);
            assert_eq!(
                keyed.finish_hex(),
                sha256_hex(&[&prefix[..], suffix].concat())
            );
        }
    }
}
