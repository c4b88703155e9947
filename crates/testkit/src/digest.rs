//! FNV-1a digests over raw bit patterns — the primitive of the
//! golden-trace regression suite. Floating-point values are hashed via
//! `f64::to_bits`, so a digest match means *bit-identical* physics, not
//! merely close-enough physics: exactly the gate future scheduling /
//! load-balancing PRs must pass.
//!
//! Bulk state (a parked cell's snapshot is 1.2 MB) goes through the
//! word-wide step — [`Digest::update_word`], [`digest_wide`]: one
//! multiply per eight bytes where FNV-1a costs eight.

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Odd and dense (2⁶⁴/φ): a flipped input bit reaches every higher bit.
const WIDE_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    state: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    pub fn new() -> Digest {
        Digest { state: FNV_OFFSET }
    }

    pub fn update(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb a 64-bit word in one multiply. A multiply carries
    /// differences upwards only, so the high half is folded back into
    /// the low: without the fold, flipped top bits of two words cancel.
    /// A step is a bijection of the state for a fixed word and of the
    /// word for a fixed state, so a change confined to one word always
    /// changes the digest. Not FNV-1a: `update_u64(v)` differs.
    pub fn update_word(&mut self, w: u64) -> &mut Digest {
        let x = (self.state ^ w).wrapping_mul(WIDE_MULTIPLIER);
        self.state = x ^ (x >> 32);
        self
    }

    pub fn update_u64(&mut self, v: u64) -> &mut Digest {
        self.update(&v.to_le_bytes())
    }

    /// Hash the exact bit pattern of `v` (distinguishes `0.0`/`-0.0`
    /// and every NaN payload — intentionally: any bit drift is drift).
    pub fn update_f64(&mut self, v: f64) -> &mut Digest {
        self.update_u64(v.to_bits())
    }

    pub fn update_f64s(&mut self, vs: &[f64]) -> &mut Digest {
        for &v in vs {
            self.update_f64(v);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot digest of a byte slice.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.update(bytes);
    d.finish()
}

/// One-shot word-wide digest of a byte slice: [`Digest::update_word`]
/// per 8-byte little-endian word, the 0–7 tail bytes through the
/// FNV-1a byte step, then the length (so truncation and zero-extension
/// change the digest whatever the bytes are).
pub fn digest_wide(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        d.update_word(u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes")));
    }
    d.update(words.remainder()).update_word(bytes.len() as u64);
    d.finish()
}

/// One-shot digest of an `f64` slice's bit patterns.
pub fn digest_f64s(vs: &[f64]) -> u64 {
    let mut d = Digest::new();
    d.update_f64s(vs);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(digest_bytes(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(digest_bytes(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(digest_bytes(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn f64_digest_is_bit_exact() {
        assert_eq!(digest_f64s(&[1.0, 2.0]), digest_f64s(&[1.0, 2.0]));
        assert_ne!(digest_f64s(&[1.0]), digest_f64s(&[1.0 + f64::EPSILON]));
        assert_ne!(digest_f64s(&[0.0]), digest_f64s(&[-0.0]));
        assert_ne!(digest_f64s(&[1.0, 2.0]), digest_f64s(&[2.0, 1.0]));
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut d = Digest::new();
        d.update(b"foo").update(b"bar");
        assert_eq!(d.finish(), digest_bytes(b"foobar"));
    }

    /// The word-wide digest by value: these vectors are the definition
    /// checkpoint v2 and snapshot v2 files on disk were written under.
    #[test]
    fn wide_digest_vectors_are_pinned() {
        assert_eq!(digest_wide(b""), 0xF8BB_92C9_1B3F_5CC0);
        assert_eq!(digest_wide(b"a"), 0xFEFD_6AFD_BE83_D96C);
        assert_eq!(digest_wide(b"foobar"), 0x3C31_1C3E_0EE9_D2B8);
        assert_eq!(digest_wide(b"12345678"), 0x9DBD_4FD7_7A37_D540);
        assert_eq!(digest_wide(b"cfpd serve snapshot v2\n"), 0x853A_1529_CF75_D789);
        let mut d = Digest::new();
        d.update_word(1).update_word(u64::MAX);
        assert_eq!(d.finish(), 0x0209_9F9F_03EA_86A8);
        // Words are little-endian, and the one-shot form is words, tail, length.
        let mut d = Digest::new();
        d.update_word(u64::from_le_bytes(*b"12345678")).update(b"9").update_word(9);
        assert_eq!(d.finish(), digest_wide(b"123456789"));
    }

    /// What the snapshot guard relies on, over random buffers of every
    /// tail length: the digest moves under any single-bit flip, under
    /// two flips in different words (top bits included: the case a
    /// multiply without the fold cancels), under truncation and under
    /// zero-extension.
    #[test]
    fn wide_digest_moves_under_flips_truncation_and_extension() {
        use crate::rng::Rng;
        let mut rng = Rng::new(0x5eed_d16e);
        for len in (0..40).chain([255, 256, 257, 1021]) {
            let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let reference = digest_wide(&buf);
            let flipped = |bits: &[usize]| {
                let mut b = buf.clone();
                for &bit in bits {
                    b[bit / 8] ^= 1 << (bit % 8);
                }
                digest_wide(&b)
            };
            for bit in 0..len * 8 {
                assert_ne!(flipped(&[bit]), reference, "len {len}: flip of bit {bit}");
            }
            // Two flips, in different 8-byte words: all pairs of top
            // bits, and a random sample of the rest.
            let words = len.div_ceil(8);
            let top = |w: usize| (8 * w + 7).min(len - 1) * 8 + 7;
            for a in 0..words {
                for b in a + 1..words {
                    assert_ne!(flipped(&[top(a), top(b)]), reference, "len {len}: tops {a},{b}");
                }
            }
            for _ in 0..if words > 1 { 2000 } else { 0 } {
                let mut bit = || rng.next_u64() as usize % (len * 8);
                let (a, b) = (bit(), bit());
                if a / 64 != b / 64 {
                    assert_ne!(flipped(&[a, b]), reference, "len {len}: bits {a},{b}");
                }
            }
            for cut in 0..len {
                assert_ne!(digest_wide(&buf[..cut]), reference, "len {len}: cut at {cut}");
            }
            let mut longer = buf.clone();
            for extra in 1..=17 {
                longer.push(0);
                assert_ne!(digest_wide(&longer), reference, "len {len}: {extra} zero bytes more");
            }
        }
        // The all-zero buffer, where a weak step has nothing to multiply.
        for len in 0..64 {
            assert_ne!(digest_wide(&vec![0; len]), digest_wide(&vec![0; len + 1]), "{len} zeros");
        }
    }
}
