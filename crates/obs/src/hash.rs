//! Tiny dependency-free content hashing.
//!
//! 64-bit FNV-1a is the workspace's content-addressing primitive: the
//! artifact store keys entries with it, cache envelopes checksum their
//! payloads with it, and the serve protocol checksums responses with it.
//! It guards against corruption (truncation, bit rot, torn writes), not
//! against adversaries — every consumer that loads a hashed artifact
//! still re-certifies it semantically through `rtise-check`.

/// 64-bit FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write(bytes);
    hasher.finish()
}

/// A streaming 64-bit FNV-1a hasher: writing pieces one after another
/// hashes their concatenation, so a checksum over several renders needs
/// no joined copy of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hasher of the empty input.
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` to the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// Pieces written one after another hash like their concatenation,
    /// however the input is split — empty pieces included.
    #[test]
    fn streamed_pieces_hash_like_their_concatenation() {
        let text = b"curve|3|v3|curve|fir|{\"points\":[]}|{}|{}";
        for cut_a in 0..=text.len() {
            for cut_b in cut_a..=text.len() {
                let mut hasher = Fnv1a::new();
                for piece in [&text[..cut_a], &text[cut_a..cut_b], &[][..], &text[cut_b..]] {
                    hasher.write(piece);
                }
                assert_eq!(hasher.finish(), fnv1a(text), "cuts at {cut_a}, {cut_b}");
            }
        }
        assert_eq!(Fnv1a::default().finish(), fnv1a(b""));
    }

    #[test]
    fn single_bit_flips_change_the_hash() {
        let base = fnv1a(b"the quick brown fox");
        let mut bytes = b"the quick brown fox".to_vec();
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(fnv1a(&bytes), base, "flip {i} collided");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }
}
