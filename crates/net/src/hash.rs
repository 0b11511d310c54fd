//! `sum64`: the integrity checksum of the wire stack.
//!
//! Both frame formats in this crate — the collective epoch header
//! ([`crate::epoch`]) and the TCP wire frame ([`crate::tcp::frame`]) — carry
//! a 64-bit [`Sum64`] digest so any byte mutation (fault injection
//! in-process, genuine corruption or torn reads on a socket) surfaces as a
//! typed [`crate::NetError::Codec`] instead of decoding into a wrong answer.
//!
//! The checksum is not cryptographic; it defends against accidents, not
//! attackers. It is word-wise: 32 bytes per step in four independent `u64`
//! lanes, so it runs at memory-copy speed instead of one multiply per byte,
//! and [`Sum64::copy_into`] folds bytes in *while* a layer moves them, so no
//! layer walks a payload only to checksum it. Every step is a bijection of
//! its lane, and the finaliser chains the length, the seeds and the lanes
//! through bijections too, so a change confined to one byte, one word, one
//! seed or the length always changes the digest. The seeds (frame header
//! fields) enter only in the finaliser, a multiply away from every payload
//! word, so the same mask on a header field and on the payload beside it
//! does not cancel. The algorithm is a handful of constants and is specified
//! normatively in DESIGN.md §5g (with what it does not catch), which keeps
//! the wire implementable from the document alone.
//!
//! [`fnv1a`] is not on the wire; it serves small non-wire uses (reconnect
//! jitter).

/// Bytes consumed per lane step: four little-endian `u64` words.
const BLOCK: usize = 32;
/// Bytes copied between digest updates in [`Sum64::copy_into`]: small enough
/// that the chunk is still in L1 when it is read the second time.
pub(crate) const COPY_CHUNK: usize = 8 << 10;

/// Lane initial values.
const LANE_INIT: [u64; 4] =
    [0x6A09_E667_F3BC_C908, 0xBB67_AE85_84CA_A73B, 0x3C6E_F372_FE94_F82B, 0xA54F_F53A_5F1D_36F1];
/// Lane multipliers, all odd (so multiplication is a bijection mod 2^64)
/// and all distinct (so equal words in different lanes do not commute).
const LANE_MUL: [u64; 4] =
    [0x9E37_79B1_85EB_CA87, 0xC2B2_AE3D_27D4_EB4F, 0x1656_67B1_9E37_79F9, 0x85EB_CA77_C2B2_AE63];
const LANE_ROT: u32 = 29;
/// Finaliser multiplier (odd) and rotation.
const FINAL_MUL: u64 = 0x27D4_EB2F_1656_67C5;
const FINAL_ROT: u32 = 27;

/// Little-endian integer from the first (up to 8) bytes of `bytes`; absent
/// high bytes read as zero, so no slice length can make it panic.
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    for (w, b) in word.iter_mut().zip(bytes) {
        *w = *b;
    }
    u64::from_le_bytes(word)
}

/// One lane step: a bijection of `lane` for fixed `word` and vice versa.
#[inline(always)]
fn mix(lane: u64, word: u64, mul: u64) -> u64 {
    (lane ^ word).wrapping_mul(mul).rotate_left(LANE_ROT)
}

/// Streaming `sum64` digest.
///
/// ```
/// use sparker_net::hash::Sum64;
///
/// let mut pieces = Sum64::seeded(2, 1);
/// pieces.update(b"hello ");
/// pieces.update(b"world");
/// let mut whole = Sum64::seeded(2, 1);
/// whole.update(b"hello world");
/// // Streaming in pieces equals hashing the concatenation.
/// assert_eq!(pieces.finish(), whole.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Sum64 {
    seeds: [u64; 2],
    lanes: [u64; 4],
    /// Bytes of an incomplete block carried between updates.
    partial: [u8; BLOCK],
    partial_len: usize,
    total_len: u64,
}

impl Sum64 {
    /// A digest seeded with `a` and `b`: frame header fields go here, so
    /// header and payload share one digest.
    pub const fn seeded(a: u64, b: u64) -> Self {
        Self { seeds: [a, b], lanes: LANE_INIT, partial: [0; BLOCK], partial_len: 0, total_len: 0 }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        if self.partial_len > 0 {
            let take = bytes.len().min(BLOCK - self.partial_len);
            self.partial[self.partial_len..self.partial_len + take].copy_from_slice(&bytes[..take]);
            self.partial_len += take;
            bytes = &bytes[take..];
            if self.partial_len < BLOCK {
                return;
            }
            let block = self.partial;
            self.blocks(&block);
            self.partial_len = 0;
        }
        let whole = bytes.len() - bytes.len() % BLOCK;
        self.blocks(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.partial[..rest.len()].copy_from_slice(rest);
        self.partial_len = rest.len();
    }

    /// Folds whole blocks (`bytes.len()` a multiple of [`BLOCK`]): word `i`
    /// of each block goes to lane `i`.
    fn blocks(&mut self, bytes: &[u8]) {
        let mut lanes = self.lanes;
        for block in bytes.chunks_exact(BLOCK) {
            for (lane, (word, mul)) in lanes.iter_mut().zip(block.chunks_exact(8).zip(LANE_MUL)) {
                *lane = mix(*lane, le_u64(word), mul);
            }
        }
        self.lanes = lanes;
    }

    /// Appends `src` to `dst` and folds it into the digest in one pass over
    /// memory: the copy a layer performs anyway is also its checksum pass.
    pub fn copy_into(&mut self, src: &[u8], dst: &mut Vec<u8>) {
        for chunk in src.chunks(COPY_CHUNK) {
            self.update(chunk);
            dst.extend_from_slice(chunk);
        }
    }

    /// The digest of everything folded in so far: the tail bytes (fewer than
    /// one block) go byte-wise to lanes `0, 1, 2, 3, 0, …`, then the length,
    /// the two seeds and the four lanes are chained through a
    /// multiply–rotate.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        for (i, &byte) in self.partial[..self.partial_len].iter().enumerate() {
            lanes[i % 4] = mix(lanes[i % 4], byte as u64, LANE_MUL[i % 4]);
        }
        let [a, b] = self.seeds;
        [self.total_len, a, b].iter().chain(&lanes).fold(0, |h, &x| {
            (h ^ x).wrapping_mul(FINAL_MUL).rotate_left(FINAL_ROT)
        })
    }
}

/// Streaming 64-bit FNV-1a hasher (not used on the wire).
///
/// ```
/// use sparker_net::hash::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// // Streaming in pieces equals hashing the concatenation.
/// assert_eq!(h.finish(), sparker_net::hash::fnv1a(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// A hasher initialised to the FNV offset basis.
    pub const fn new() -> Self {
        Self(FNV_OFFSET_BASIS)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The hash of everything folded in so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a of a contiguous byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    fn seeded(a: u64, b: u64, bytes: &[u8]) -> u64 {
        let mut h = Sum64::seeded(a, b);
        h.update(bytes);
        h.finish()
    }

    fn sum64(bytes: &[u8]) -> u64 {
        seeded(0, 0, bytes)
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn sum64_pinned_vectors_match_design_doc() {
        // DESIGN.md §5g. If this fails, the wire format changed.
        assert_eq!(sum64(b""), 0x2d3b_29ca_fc1b_dd2b);
        assert_eq!(sum64(b"ring"), 0x8672_b922_96db_8ec4);
        let hundred: Vec<u8> = (0..100).collect();
        assert_eq!(sum64(&hundred), 0x1f24_a420_11f3_34c9);
    }

    #[test]
    fn streaming_and_fused_match_oneshot_at_every_split() {
        let data = ramp(200);
        let want = sum64(&data);
        for cut in 0..=data.len() {
            let mut h = Sum64::seeded(0, 0);
            h.update(&data[..cut]);
            let mut copied = Vec::new();
            h.copy_into(&data[cut..], &mut copied);
            assert_eq!(h.finish(), want, "cut at {cut}");
            assert_eq!(copied, &data[cut..]);
        }
        // A copy longer than one chunk, split mid-block.
        let big = ramp(3 * COPY_CHUNK + 45);
        let mut h = Sum64::seeded(0, 0);
        h.update(&big[..13]);
        h.copy_into(&big[13..], &mut Vec::new());
        assert_eq!(h.finish(), sum64(&big));
    }

    #[test]
    fn every_single_byte_change_is_detected() {
        // Lengths 0..=200 cover every residue mod 32 and mod 8; each mask
        // bit is tried at every position.
        for len in 0..=200 {
            let data = ramp(len);
            let want = sum64(&data);
            for at in 0..len {
                for bit in 0..8 {
                    let mut bad = data.clone();
                    bad[at] ^= 1 << bit;
                    assert_ne!(sum64(&bad), want, "len {len}, byte {at}, bit {bit}");
                }
                let mut bad = data.clone();
                bad[at] ^= 0xff;
                assert_ne!(sum64(&bad), want, "len {len}, byte {at}, mask 0xff");
            }
        }
    }

    #[test]
    fn length_changes_are_detected() {
        for len in 0..=200 {
            // All-zero input is the hard case: the extension adds no set bit.
            for data in [ramp(len), vec![0u8; len]] {
                let want = sum64(&data);
                let mut longer = data.clone();
                longer.push(0);
                assert_ne!(sum64(&longer), want, "zero-extension at len {len}");
                if len > 0 {
                    assert_ne!(sum64(&data[..len - 1]), want, "truncation at len {len}");
                }
            }
        }
    }

    #[test]
    fn word_swaps_are_detected() {
        let data = ramp(128);
        let want = sum64(&data);
        let swap = |i: usize, j: usize| {
            let mut bad = data.clone();
            for k in 0..8 {
                bad.swap(8 * i + k, 8 * j + k);
            }
            assert_ne!(bad, data);
            sum64(&bad)
        };
        assert_ne!(swap(0, 1), want, "adjacent lanes, same block");
        assert_ne!(swap(1, 6), want, "different lanes, different blocks");
        assert_ne!(swap(2, 6), want, "same lane, adjacent blocks");
        assert_ne!(swap(3, 15), want, "same lane, first and last block");
    }

    #[test]
    fn seeds_are_part_of_the_digest() {
        let digest = |a, b| seeded(a, b, b"payload");
        assert_ne!(digest(1, 0), digest(0, 0));
        assert_ne!(digest(0, 1), digest(0, 0));
        assert_ne!(digest(1, 0), digest(0, 1), "the seeds do not commute");
    }

    #[test]
    fn seed_damage_does_not_cancel_against_payload_damage() {
        // The same mask on a header field and on the payload beside it (its
        // first or second word) must not be neutral, in whole blocks and in
        // the byte-wise tail alike.
        for len in [1, 4, 8, 16, 40, 1000] {
            let data = ramp(len);
            let want = seeded(6, 3, &data);
            for bit in 0..64 {
                let mask = 1u64 << bit;
                for word in 0..2 {
                    let mut bad = data.clone();
                    for (b, m) in bad.iter_mut().skip(8 * word).zip(mask.to_le_bytes()) {
                        *b ^= m;
                    }
                    assert_ne!(seeded(6 ^ mask, 3, &bad), want, "a, word {word}, len {len}, bit {bit}");
                    assert_ne!(seeded(6, 3 ^ mask, &bad), want, "b, word {word}, len {len}, bit {bit}");
                }
            }
        }
    }

    #[test]
    fn le_u64_accepts_any_length() {
        assert_eq!(le_u64(&[]), 0);
        assert_eq!(le_u64(&[0x34, 0x12]), 0x1234);
        assert_eq!(le_u64(&[1, 2, 3, 4, 5, 6, 7, 8, 9]), 0x0807_0605_0403_0201);
    }
}
