//! Property suite for the wire checksum (`sparker_net::hash::Sum64`,
//! DESIGN.md §5g): for random inputs, seeds and lengths up to several
//! blocks,
//!
//! * however the bytes are split between `update` and `copy_into` calls, the
//!   digest equals the one-shot digest and the copy is exact;
//! * every change a frame check relies on — one byte XORed with a non-zero
//!   mask, a seed changed, one byte appended or removed, two different words
//!   swapped — changes the digest;
//! * so does the same mask applied to a seed and to one of the payload's
//!   first words: header damage cannot cancel payload damage.

use sparker_net::hash::Sum64;
use sparker_testkit::{check, tk_assert, tk_assert_eq, Config, Source};

fn cfg() -> Config {
    Config::with_cases(10_000)
}

/// Seeds and 0..300 bytes: up to nine blocks plus any tail.
fn arb_input(src: &mut Source) -> (u64, u64, Vec<u8>) {
    (src.u64_any(), src.u64_any(), src.vec_of(0..300, |s| s.u8_any()))
}

fn digest(a: u64, b: u64, data: &[u8]) -> u64 {
    let mut h = Sum64::seeded(a, b);
    h.update(data);
    h.finish()
}

#[test]
fn any_split_of_updates_and_copies_matches_oneshot() {
    check(&cfg(), |src| {
        let (a, b, data) = arb_input(src);
        let mut h = Sum64::seeded(a, b);
        let mut copied = Vec::new();
        let mut off = 0;
        while off < data.len() {
            let step = src.usize_in(1..80).min(data.len() - off);
            let piece = &data[off..off + step];
            if src.bool_any() {
                h.copy_into(piece, &mut copied);
            } else {
                h.update(piece);
                copied.extend_from_slice(piece);
            }
            off += step;
        }
        tk_assert_eq!(h.finish(), digest(a, b, &data), "split digest");
        tk_assert_eq!(copied, data, "copy_into must copy exactly its input");
        Ok(())
    });
}

#[test]
fn any_single_change_moves_the_digest() {
    check(&cfg(), |src| {
        let (a, b, data) = arb_input(src);
        let want = digest(a, b, &data);

        let flip = src.u64_any() | 1;
        tk_assert!(digest(a ^ flip, b, &data) != want, "first seed changed");
        tk_assert!(digest(a, b ^ flip, &data) != want, "second seed changed");

        let mut longer = data.clone();
        longer.push(0);
        tk_assert!(digest(a, b, &longer) != want, "zero byte appended");

        if data.is_empty() {
            return Ok(());
        }
        tk_assert!(digest(a, b, &data[..data.len() - 1]) != want, "last byte removed");
        let at = src.usize_in(0..data.len());
        let mut flipped = data.clone();
        flipped[at] ^= src.u8_any() | 1;
        tk_assert!(digest(a, b, &flipped) != want, "byte {at} of {} changed", data.len());
        Ok(())
    });
}

#[test]
fn the_same_mask_on_a_seed_and_a_payload_word_moves_the_digest() {
    check(&cfg(), |src| {
        let (a, b, data) = arb_input(src);
        if data.is_empty() {
            return Ok(());
        }
        let want = digest(a, b, &data);
        // Any non-zero mask whose bytes all fall inside the payload.
        let at = 8 * src.usize_in(0..2).min((data.len() - 1) / 8);
        let reach = (data.len() - at).min(8);
        let mask = (src.u64_any() | 1 << src.usize_in(0..8 * reach)) & (u64::MAX >> (64 - 8 * reach));
        let mut damaged = data.clone();
        for (byte, m) in damaged[at..].iter_mut().zip(mask.to_le_bytes()) {
            *byte ^= m;
        }
        tk_assert!(digest(a ^ mask, b, &damaged) != want, "first seed and word at {at}");
        tk_assert!(digest(a, b ^ mask, &damaged) != want, "second seed and word at {at}");
        Ok(())
    });
}

#[test]
fn swapping_two_different_words_moves_the_digest() {
    check(&cfg(), |src| {
        let (a, b, mut data) = arb_input(src);
        let words = data.len() / 8;
        if words < 2 {
            return Ok(());
        }
        let want = digest(a, b, &data);
        // Same lane when the distance is a multiple of four words, different
        // lanes otherwise; both come up.
        let i = src.usize_in(0..words);
        let j = src.usize_in(0..words);
        if data[8 * i..8 * i + 8] == data[8 * j..8 * j + 8] {
            return Ok(());
        }
        for k in 0..8 {
            data.swap(8 * i + k, 8 * j + k);
        }
        tk_assert!(digest(a, b, &data) != want, "words {i} and {j} swapped");
        Ok(())
    });
}
