//! The shared file/wire frame: magic, version, length, FNV-1a checksum.
//!
//! Every durable or wire-crossing byte blob in the reproduction — the
//! in-memory [`crate::Snapshot`], per-rank [`crate::Shard`]s and their
//! manifest, and `opt-net`'s TCP transport messages — wears the same
//! frame, produced and validated by this module alone:
//!
//! ```text
//! magic    8 bytes   format discriminator (e.g. "OPTCKPT\0")
//! version  u32 LE    format version
//! body_len u64 LE    byte length of the body
//! body     body_len  format-specific payload
//! checksum u64 LE    FNV-1a over the body
//! ```
//!
//! Keeping one implementation means every consumer gets the same
//! validation order (magic, version, length arithmetic, checksum — all
//! with checked arithmetic so corrupt length fields surface as typed
//! errors, never panics). Putting the bytes on a disk is not this
//! module's job: `opt-net`'s `FsShardStore::put` is the one writer.

use crate::CkptError;

/// FNV-1a 64-bit hash, used both as the frame body checksum and (by
/// `optimus-cc`) as the config fingerprint. Not cryptographic — it guards
/// against truncation, bit rot, and accidental config drift, which is the
/// threat model of a training checkpoint on a trusted filesystem and of a
/// length-framed stream on a trusted network.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fixed prefix every frame starts with: magic (8) + format version
/// (u32 LE) + body length (u64 LE).
pub const HEADER_LEN: usize = 20;

/// Bytes a frame adds around its body: the [`HEADER_LEN`] prefix plus the
/// trailing 8-byte checksum.
pub const FRAME_OVERHEAD: usize = HEADER_LEN + 8;

/// Wraps `body` in the shared frame: header, body, FNV-1a checksum.
pub fn frame(magic: &[u8; 8], version: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + body.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&fnv1a64(body).to_le_bytes());
    out
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
    let stored = u64::from_le_bytes(bytes[HEADER_LEN + body_len..total].try_into().unwrap());
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(CkptError::ChecksumMismatch { stored, computed });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"OPTTEST\0";

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
        // Pin the hash so old snapshots stay loadable across refactors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
