//! The shared file/wire frame: magic, version, length, word-wise checksum.
//!
//! Every durable or wire-crossing byte blob in the reproduction — the
//! in-memory [`crate::Snapshot`], per-rank [`crate::Shard`]s and their
//! manifest, `opt-net`'s TCP transport messages and its shard-store
//! protocol — wears the same frame, produced and validated by this module
//! alone:
//!
//! ```text
//! magic    8 bytes   format discriminator (e.g. "OPTCKPT\0")
//! version  u32 LE    format version
//! body_len u64 LE    byte length of the body
//! body     body_len  format-specific payload
//! checksum u64 LE    checksum() over the body
//! ```
//!
//! Keeping one implementation means every consumer gets the same
//! validation order (magic, version, length arithmetic, checksum — all
//! with checked arithmetic so corrupt length fields surface as typed
//! errors, never panics). Putting the bytes on a disk is not this
//! module's job: `opt-net`'s `FsShardStore::put` is the one writer.
//!
//! The body checksum ([`checksum`]) reads the body as little-endian `u64`
//! words spread round-robin over four independent lanes, so one pass runs
//! at memory speed instead of byte-at-a-time. Each lane step is a
//! bijection of the lane state, and so is every step after it, which makes
//! detection of any change confined to one word — in particular every
//! single-bit flip — a matter of construction, not probability. A body
//! may also be checksummed as a sequence of parts ([`frame_parts`]), so a
//! sender can frame a payload it does not own without first copying it
//! into a body.

use crate::CkptError;

/// FNV-1a 64-bit hash: `optimus-cc`'s config fingerprint and the pinned
/// digests of its tests. Not a frame checksum — frames use [`checksum`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Independent accumulator lanes of [`checksum`]: word `i` of the input
/// feeds lane `i % LANES`.
const LANES: usize = 4;

/// Distinct starting states, so equal words in different lanes diverge.
const LANE_SEEDS: [u64; LANES] = [
    0xcbf2_9ce4_8422_2325,
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
];

/// One lane step: xor the word in, multiply by the (odd) FNV prime,
/// xor-shift. Each of the three is a bijection of the state for a fixed
/// word, and a bijection of the word for a fixed state.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(FNV_PRIME);
    x ^ (x >> 32)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// Incremental [`checksum`]: the same value for the same bytes however
/// they are split across [`Checksum::write`] calls.
struct Checksum {
    lanes: [u64; LANES],
    /// Whole words absorbed so far.
    words: u64,
    /// A partial word carried into the next write.
    pending: [u8; 8],
    pending_len: usize,
}

impl Checksum {
    fn new() -> Self {
        Self {
            lanes: LANE_SEEDS,
            words: 0,
            pending: [0; 8],
            pending_len: 0,
        }
    }

    fn absorb(&mut self, w: u64) {
        let lane = (self.words % LANES as u64) as usize;
        self.lanes[lane] = step(self.lanes[lane], w);
        self.words += 1;
    }

    fn write(&mut self, mut bytes: &[u8]) {
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            self.absorb(u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        // Single words until the next word is lane 0's, then whole rounds
        // of one word per lane — the hot loop, four independent chains.
        while !self.words.is_multiple_of(LANES as u64) && bytes.len() >= 8 {
            self.absorb(word(&bytes[..8]));
            bytes = &bytes[8..];
        }
        let mut rounds = bytes.chunks_exact(8 * LANES);
        for round in &mut rounds {
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                *lane = step(*lane, word(&round[8 * i..8 * i + 8]));
            }
        }
        self.words += (bytes.len() / (8 * LANES) * LANES) as u64;
        let mut words = rounds.remainder().chunks_exact(8);
        for w in &mut words {
            self.absorb(word(w));
        }
        let tail = words.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    fn finish(mut self) -> u64 {
        let len = self.words * 8 + self.pending_len as u64;
        if self.pending_len > 0 {
            // The byte tail, zero-padded to one more word; the length
            // mixed in below tells "ab" from "ab\0".
            let mut last = [0u8; 8];
            last[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
            self.absorb(u64::from_le_bytes(last));
        }
        let [a, b, c, d] = self.lanes;
        let h = a ^ b.rotate_left(16) ^ c.rotate_left(32) ^ d.rotate_left(48);
        let h = step(h, len);
        (h ^ (h >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9)
    }
}

/// The frame body checksum: four lanes of little-endian `u64` words
/// (xor, multiply by the FNV prime, xor-shift), a zero-padded byte tail,
/// folded with rotations and the length mixed in. Guards against
/// truncation, bit rot and accidental corruption on a trusted filesystem
/// or network — not against an adversary.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.write(bytes);
    c.finish()
}

/// Fixed prefix every frame starts with: magic (8) + format version
/// (u32 LE) + body length (u64 LE).
pub const HEADER_LEN: usize = 20;

/// Bytes a frame adds around its body: the [`HEADER_LEN`] prefix plus the
/// trailing 8-byte checksum.
pub const FRAME_OVERHEAD: usize = HEADER_LEN + 8;

/// The header and checksum trailer of a frame whose body is the
/// concatenation of `body`'s parts: the frame is the header, then every
/// part in order, then the trailer. Lets a sender write a frame around
/// bytes it does not own without concatenating them first.
pub fn frame_parts(magic: &[u8; 8], version: u32, body: &[&[u8]]) -> ([u8; HEADER_LEN], [u8; 8]) {
    let mut sum = Checksum::new();
    let mut len = 0u64;
    for part in body {
        sum.write(part);
        len += part.len() as u64;
    }
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(magic);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[12..].copy_from_slice(&len.to_le_bytes());
    (header, sum.finish().to_le_bytes())
}

/// Wraps `body` in the shared frame: header, body, checksum.
pub fn frame(magic: &[u8; 8], version: u32, body: &[u8]) -> Vec<u8> {
    let (header, trailer) = frame_parts(magic, version, &[body]);
    [&header[..], body, &trailer].concat()
}

/// Validates the fixed-size prefix (magic and version) and returns the
/// claimed body length — without touching the body, so callers can reject
/// garbage before reading further.
pub fn parse_header(bytes: &[u8], magic: &[u8; 8], version: u32) -> Result<u64, CkptError> {
    if bytes.len() < HEADER_LEN {
        return Err(CkptError::Truncated {
            expected: HEADER_LEN,
            actual: bytes.len(),
        });
    }
    if &bytes[..8] != magic {
        return Err(CkptError::BadMagic);
    }
    let got = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if got != version {
        return Err(CkptError::UnsupportedVersion(got));
    }
    Ok(u64::from_le_bytes(bytes[12..20].try_into().unwrap()))
}

/// Checks `body` against the checksum `stored` in its frame's trailer —
/// for a reader that has the body in a buffer of its own rather than one
/// contiguous frame.
pub fn check_body(body: &[u8], stored: u64) -> Result<(), CkptError> {
    let computed = checksum(body);
    if stored != computed {
        return Err(CkptError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// Validates a full in-memory frame and returns the checksummed body.
pub fn unframe<'a>(bytes: &'a [u8], magic: &[u8; 8], version: u32) -> Result<&'a [u8], CkptError> {
    let body_len64 = parse_header(bytes, magic, version)?;
    // Checked arithmetic: a corrupt length field must surface as
    // Truncated, not as an overflow panic or a wrapped-slice panic.
    let total = usize::try_from(body_len64)
        .ok()
        .and_then(|b| HEADER_LEN.checked_add(b))
        .and_then(|t| t.checked_add(8));
    let total = match total {
        Some(t) if t <= bytes.len() => t,
        _ => {
            return Err(CkptError::Truncated {
                expected: total.unwrap_or(usize::MAX),
                actual: bytes.len(),
            })
        }
    };
    let body_len = body_len64 as usize;
    let body = &bytes[HEADER_LEN..HEADER_LEN + body_len];
    check_body(body, word(&bytes[HEADER_LEN + body_len..total]))?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"OPTTEST\0";

    /// Deterministic, non-repeating test bytes.
    fn bytes(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn frame_unframe_roundtrip() {
        let body = b"hello framing";
        let framed = frame(MAGIC, 3, body);
        assert_eq!(framed.len(), body.len() + FRAME_OVERHEAD);
        assert_eq!(unframe(&framed, MAGIC, 3).expect("roundtrip"), body);
    }

    #[test]
    fn wrong_magic_version_and_corruption_rejected() {
        let framed = frame(MAGIC, 1, b"payload");
        assert!(matches!(
            unframe(&framed, b"OTHERMG\0", 1),
            Err(CkptError::BadMagic)
        ));
        assert!(matches!(
            unframe(&framed, MAGIC, 2),
            Err(CkptError::UnsupportedVersion(1))
        ));
        let mut flipped = framed.clone();
        flipped[HEADER_LEN + 2] ^= 0x80;
        assert!(matches!(
            unframe(&flipped, MAGIC, 1),
            Err(CkptError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            unframe(&framed[..framed.len() - 1], MAGIC, 1),
            Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    fn fnv_is_stable() {
        // Pin the hash so config fingerprints stay comparable.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn checksum_is_stable() {
        // Format-stability pins: every frame on disk or on the wire
        // carries this value, so changing it is a format version bump.
        assert_eq!(checksum(b""), 0xd150_fd8b_6108_fccf);
        assert_eq!(checksum(b"a"), 0xba57_3f84_4299_f67c);
        assert_eq!(checksum(&bytes(1000)), 0x5513_c3e9_a403_3b67);
    }

    #[test]
    fn split_writes_agree_with_one_pass() {
        let data = bytes(150);
        let whole = checksum(&data);
        for a in 0..=data.len() {
            for b in (a..=data.len()).step_by(7) {
                let parts: [&[u8]; 3] = [&data[..a], &data[a..b], &data[b..]];
                let (_, trailer) = frame_parts(MAGIC, 1, &parts);
                assert_eq!(u64::from_le_bytes(trailer), whole, "split at {a}, {b}");
            }
        }
        assert_eq!(
            frame(MAGIC, 7, &data),
            {
                let (h, t) = frame_parts(MAGIC, 7, &[&data[..33], &data[33..]]);
                [&h[..], &data, &t].concat()
            },
            "frame and frame_parts disagree"
        );
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // Exhaustive over the whole frame — header, body (word-aligned
        // part and byte tail) and trailer — for every body length up to
        // two full lane rounds plus a tail.
        for len in 0..=70 {
            let framed = frame(MAGIC, 2, &bytes(len));
            for bit in 0..framed.len() * 8 {
                let mut bad = framed.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    unframe(&bad, MAGIC, 2).is_err(),
                    "body {len}: flip of bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_cut_is_rejected() {
        let framed = frame(MAGIC, 2, &bytes(70));
        for cut in 0..framed.len() {
            assert!(unframe(&framed[..cut], MAGIC, 2).is_err(), "cut at {cut}");
        }
        // A body that shrank with its length field rewritten to match
        // still fails the checksum.
        let body = bytes(70);
        let (_, trailer) = frame_parts(MAGIC, 2, &[&body]);
        for cut in 0..body.len() {
            let (header, _) = frame_parts(MAGIC, 2, &[&body[..cut]]);
            let forged = [&header[..], &body[..cut], &trailer].concat();
            assert!(unframe(&forged, MAGIC, 2).is_err(), "relabelled cut {cut}");
        }
    }

    #[test]
    fn swapped_words_are_rejected() {
        let body = bytes(64);
        let framed = frame(MAGIC, 2, &body);
        for i in 0..8 {
            for j in i + 1..8 {
                let (a, b) = (HEADER_LEN + 8 * i, HEADER_LEN + 8 * j);
                if framed[a..a + 8] == framed[b..b + 8] {
                    continue;
                }
                let mut bad = framed.clone();
                for k in 0..8 {
                    bad.swap(a + k, b + k);
                }
                assert!(
                    unframe(&bad, MAGIC, 2).is_err(),
                    "swap of words {i} and {j}"
                );
            }
        }
    }
}
