//! A small self-contained binary codec for checkpointable state.
//!
//! Everything the checkpoint subsystem (`opt-ckpt`) writes to disk goes
//! through this module: a little-endian byte [`Writer`]/[`Reader`] pair and
//! the [`Persist`] trait that state-carrying types across the workspace
//! implement ([`crate::Matrix`], [`crate::SeedStream`], the `opt-compress`
//! payloads and compressor states, optimizer moments, ...). Keeping the
//! codec here — at the bottom of the dependency DAG — lets every crate
//! serialize its own private state without a cyclic dependency on the
//! checkpoint crate.
//!
//! The format is deliberately boring: fixed-width little-endian integers,
//! `f32`/`f64` as IEEE-754 bit patterns, `u64` length prefixes for
//! variable-size payloads, and one tag byte per enum variant. Boring is
//! what you want from a format that must reproduce training state
//! *bit-exactly* across a kill/restore cycle.
//!
//! # Example
//!
//! ```
//! use opt_tensor::{Matrix, Persist};
//!
//! let m = Matrix::from_rows(&[&[1.0, -2.5], &[0.0, 4.0]]);
//! let bytes = m.to_bytes();
//! assert_eq!(Matrix::from_bytes(&bytes).unwrap(), m);
//! ```

use crate::matrix::take_storage;
use crate::Matrix;
use std::cell::Cell;
use std::fmt;

thread_local! {
    static ENCODE_CYCLES: Cell<u64> = const { Cell::new(0) };
    static DECODE_CYCLES: Cell<u64> = const { Cell::new(0) };
}

/// This thread's codec-cycle counters as `(encodes, decodes)`.
///
/// An *encode cycle* is one top-level [`Persist::to_bytes`] call; a
/// *decode cycle* is one top-level [`Persist::from_bytes`] call. Nested
/// `persist`/`restore` calls inside a composite value count as part of
/// their enclosing cycle, not separately. The counters are thread-local,
/// so a test can assert that a code path on its own thread performed zero
/// serialization without interference from concurrently running tests.
///
/// This is the observability hook behind the zero-copy transport
/// contract: a `LocalTransport` hop through the typed payload API must
/// leave both counters untouched.
pub fn codec_cycle_counts() -> (u64, u64) {
    (ENCODE_CYCLES.with(Cell::get), DECODE_CYCLES.with(Cell::get))
}

/// Error raised while decoding persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The byte stream ended before the value was complete.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were actually left.
        remaining: usize,
    },
    /// An enum tag byte had no matching variant.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A decoded value violated a type invariant (e.g. zero rank).
    Invalid {
        /// Description of the violated invariant.
        what: &'static str,
    },
    /// Bytes were left over after the top-level value was decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of state: needed {needed} bytes, {remaining} left"
                )
            }
            PersistError::BadTag { what, tag } => {
                write!(f, "invalid tag {tag} while decoding {what}")
            }
            PersistError::Invalid { what } => write!(f, "invalid persisted value: {what}"),
            PersistError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decoded value")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Little-endian byte sink for [`Persist`] encoders.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (the on-disk width is fixed).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f32` as its IEEE-754 bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes every `f32` of `v` as its IEEE-754 bit pattern, with no
    /// length prefix: the bulk form of [`Writer::f32`].
    pub fn f32s(&mut self, v: &[f32]) {
        let start = self.buf.len();
        self.buf.resize(start + 4 * v.len(), 0);
        for (out, x) in self.buf[start..].chunks_exact_mut(4).zip(v) {
            out.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }
}

/// Cursor over persisted bytes for [`Persist`] decoders.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless the reader is fully consumed (guards against silently
    /// accepting oversized state blobs).
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(PersistError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, PersistError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `usize` persisted via [`Writer::usize`].
    pub fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| PersistError::Invalid {
            what: "length does not fit in usize",
        })
    }

    /// Reads an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, PersistError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` `f32` bit patterns written by [`Writer::f32s`], checking
    /// the stream length once for all of them. The buffer is drawn from
    /// the [`Matrix`] storage pool, so a decoded matrix reuses freed pages
    /// and the pool does not fill with buffers that only ever flow in.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, PersistError> {
        let needed = n.checked_mul(4).ok_or(PersistError::Invalid {
            what: "element count overflows",
        })?;
        let bytes = self.take(needed)?;
        let mut out = take_storage(n);
        for (o, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *o = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
        Ok(out)
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, PersistError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length prefix that the caller will consume as `elem_bytes`-
    /// sized elements, verifying the stream is long enough *before* any
    /// allocation — a corrupted length can't trigger a huge `Vec` reserve.
    pub fn checked_len(&mut self, elem_bytes: usize) -> Result<usize, PersistError> {
        let n = self.usize()?;
        let needed = n.checked_mul(elem_bytes).ok_or(PersistError::Invalid {
            what: "element count overflows",
        })?;
        if self.remaining() < needed {
            return Err(PersistError::UnexpectedEof {
                needed,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }
}

/// State that can round-trip through the checkpoint byte codec.
///
/// The contract is bit-exactness: `restore(persist(x))` must yield a value
/// whose future behavior is indistinguishable from `x` — same floats, same
/// RNG continuation, same warm-start factors.
pub trait Persist: Sized {
    /// Appends this value's encoding to `w`.
    fn persist(&self, w: &mut Writer);

    /// Decodes one value from `r`, advancing the cursor.
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError>;

    /// Encodes into a fresh byte vector, sized up front from
    /// [`Persist::persist_len`]. Counts one encode cycle in
    /// [`codec_cycle_counts`].
    fn to_bytes(&self) -> Vec<u8> {
        ENCODE_CYCLES.with(|c| c.set(c.get() + 1));
        let mut w = Writer::with_capacity(self.persist_len());
        self.persist(&mut w);
        w.into_bytes()
    }

    /// Decodes from `bytes`, requiring every byte to be consumed. Counts
    /// one decode cycle in [`codec_cycle_counts`].
    fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        DECODE_CYCLES.with(|c| c.set(c.get() + 1));
        let mut r = Reader::new(bytes);
        let v = Self::restore(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Exact number of bytes [`Persist::persist`] would append, computed
    /// *without* producing them where possible.
    ///
    /// The default implementation serializes into a scratch writer (it
    /// does **not** count as an encode cycle, but it does pay the
    /// encoding work); types on transport hot paths override it with
    /// arithmetic so byte accounting never serializes. The override must
    /// satisfy `persist_len() == to_bytes().len()` exactly — the
    /// zero-copy transport relies on it for channel-stats parity between
    /// backends.
    fn persist_len(&self) -> usize {
        let mut w = Writer::new();
        self.persist(&mut w);
        w.len()
    }
}

impl Persist for Matrix {
    fn persist(&self, w: &mut Writer) {
        w.usize(self.rows());
        w.usize(self.cols());
        w.f32s(self.as_slice());
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let rows = r.usize()?;
        let cols = r.usize()?;
        let len = rows.checked_mul(cols).ok_or(PersistError::Invalid {
            what: "matrix shape overflows",
        })?;
        Ok(Matrix::from_vec(rows, cols, r.f32s(len)?))
    }

    fn persist_len(&self) -> usize {
        8 + 8 + 4 * self.len()
    }
}

/// Scalar encodings, so wire messages and composite state can nest
/// primitives through the same one-codec path as tensors.
macro_rules! persist_scalar {
    ($($ty:ty => $write:ident / $read:ident / $len:expr),* $(,)?) => {
        $(impl Persist for $ty {
            fn persist(&self, w: &mut Writer) {
                w.$write(*self);
            }

            fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
                r.$read()
            }

            fn persist_len(&self) -> usize {
                $len
            }
        })*
    };
}

persist_scalar!(
    u8 => u8 / u8 / 1,
    u32 => u32 / u32 / 4,
    u64 => u64 / u64 / 8,
    usize => usize / usize / 8,
    f32 => f32 / f32 / 4,
    f64 => f64 / f64 / 8,
);

impl Persist for String {
    fn persist(&self, w: &mut Writer) {
        w.bytes(self.as_bytes());
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        String::from_utf8(r.bytes()?).map_err(|_| PersistError::Invalid {
            what: "string is not valid UTF-8",
        })
    }

    fn persist_len(&self) -> usize {
        8 + self.len()
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&self, w: &mut Writer) {
        self.0.persist(w);
        self.1.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }

    fn persist_len(&self) -> usize {
        self.0.persist_len() + self.1.persist_len()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn persist(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.persist(w);
            }
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            tag => Err(PersistError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }

    fn persist_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Persist::persist_len)
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, w: &mut Writer) {
        w.usize(self.len());
        for v in self {
            v.persist(w);
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        // Every Persist encoding occupies at least one byte; bound the
        // pre-allocation by what the stream can actually hold.
        let n = r.checked_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }

    fn persist_len(&self) -> usize {
        8 + self.iter().map(Persist::persist_len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedStream;

    #[test]
    fn primitive_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i32(-42);
        w.f32(-0.0);
        w.f64(std::f64::consts::PI);
        w.bytes(b"abc");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert!(r.finish().is_ok());
    }

    #[test]
    fn matrix_roundtrip_preserves_bits() {
        let m = Matrix::from_rows(&[&[1.5, f32::MIN_POSITIVE], &[-0.0, 3.25e-20]]);
        let back = Matrix::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.shape(), (2, 2));
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The per-element `Matrix` codec the bulk one replaced: the
    /// reference both directions are checked against.
    fn encode_per_element(m: &Matrix) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(m.rows());
        w.usize(m.cols());
        for &x in m.as_slice() {
            w.f32(x);
        }
        w.into_bytes()
    }

    fn decode_per_element(bytes: &[u8]) -> Result<Matrix, PersistError> {
        let mut r = Reader::new(bytes);
        let rows = r.usize()?;
        let cols = r.usize()?;
        let len = rows.checked_mul(cols).ok_or(PersistError::Invalid {
            what: "matrix shape overflows",
        })?;
        if r.remaining() < len.saturating_mul(4) {
            return Err(PersistError::UnexpectedEof {
                needed: len * 4,
                remaining: r.remaining(),
            });
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(r.f32()?);
        }
        r.finish()?;
        Ok(Matrix::from_vec(rows, cols, data))
    }

    #[test]
    fn bulk_matrix_codec_matches_the_per_element_loop() {
        // Every bit pattern class a gradient can hold, plus arbitrary
        // words: NaN payloads (quiet and signalling, both signs), -0.0,
        // subnormals, ±inf, the extremes.
        let mut bits: Vec<u32> = vec![
            0x7fc0_0000,
            0x7fc1_2345,
            0x7f80_0001,
            0xffbf_ffff,
            0x8000_0000,
            0x0000_0000,
            0x0000_0001,
            0x807f_ffff,
            0x7f80_0000,
            0xff80_0000,
            0x7f7f_ffff,
            0xff7f_ffff,
        ];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        bits.extend((0..52).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        }));
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let m = Matrix::from_vec(8, 8, data);
        let bytes = m.to_bytes();
        assert_eq!(bytes, encode_per_element(&m), "encodings differ");
        let back = Matrix::from_bytes(&bytes).unwrap();
        let got: Vec<u32> = back.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, bits, "decoded bits differ");
        // Short input fails identically at every cut, `needed` and
        // `remaining` included.
        for cut in 0..bytes.len() {
            assert_eq!(
                Matrix::from_bytes(&bytes[..cut]).unwrap_err(),
                decode_per_element(&bytes[..cut]).unwrap_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn truncated_matrix_is_rejected_without_allocation() {
        let m = Matrix::zeros(8, 8);
        let bytes = m.to_bytes();
        let err = Matrix::from_bytes(&bytes[..20]).unwrap_err();
        assert!(matches!(err, PersistError::UnexpectedEof { .. }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Matrix::zeros(1, 1).to_bytes();
        bytes.push(0);
        assert!(matches!(
            Matrix::from_bytes(&bytes),
            Err(PersistError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn option_and_vec_compose() {
        let v: Vec<Option<Matrix>> = vec![None, Some(Matrix::full(2, 3, 1.25)), None];
        let back = Vec::<Option<Matrix>>::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn bad_option_tag_is_rejected() {
        let mut w = Writer::new();
        w.u8(9);
        assert!(matches!(
            Option::<Matrix>::from_bytes(&w.into_bytes()),
            Err(PersistError::BadTag { what: "Option", .. })
        ));
    }

    #[test]
    fn seed_stream_roundtrip_continues_bit_exactly() {
        let mut a = SeedStream::new(99);
        // Burn an odd number of draws so the RNG sits mid-block.
        let _ = a.uniform_matrix(3, 3, 1.0);
        let _ = a.normal();
        let mut b = SeedStream::from_bytes(&a.to_bytes()).unwrap();
        for _ in 0..64 {
            assert_eq!(a.uniform(1.0).to_bits(), b.uniform(1.0).to_bits());
            assert_eq!(a.normal().to_bits(), b.normal().to_bits());
        }
    }

    #[test]
    fn corrupt_seed_stream_state_is_invalid() {
        let bytes = SeedStream::new(1).to_bytes();
        let mut broken = bytes.clone();
        // Word position is the last persisted u32; push it out of range.
        let n = broken.len();
        broken[n - 4..].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            SeedStream::from_bytes(&broken),
            Err(PersistError::Invalid { .. })
        ));
    }

    #[test]
    fn persist_len_matches_encoded_length() {
        let m = Matrix::from_rows(&[&[1.5, -2.0, 3.0], &[0.0, 4.0, -5.5]]);
        assert_eq!(m.persist_len(), m.to_bytes().len());
        assert_eq!(7u8.persist_len(), 1);
        assert_eq!(7u32.persist_len(), 4);
        assert_eq!(7u64.persist_len(), 8);
        assert_eq!(7usize.persist_len(), 8);
        assert_eq!(1.5f32.persist_len(), 4);
        assert_eq!(1.5f64.persist_len(), 8);
        let s = "hello".to_string();
        assert_eq!(s.persist_len(), s.to_bytes().len());
        let pair = (3u64, m.clone());
        assert_eq!(pair.persist_len(), pair.to_bytes().len());
        let opt: Option<Matrix> = Some(m.clone());
        assert_eq!(opt.persist_len(), opt.to_bytes().len());
        let none: Option<Matrix> = None;
        assert_eq!(none.persist_len(), none.to_bytes().len());
        let v = vec![m.clone(), Matrix::zeros(1, 1)];
        assert_eq!(v.persist_len(), v.to_bytes().len());
    }

    #[test]
    fn codec_cycles_count_top_level_calls_only() {
        // Counters are thread-local; run on a fresh thread so parallel
        // tests cannot interfere.
        std::thread::spawn(|| {
            let (e0, d0) = codec_cycle_counts();
            let v: Vec<Option<Matrix>> = vec![Some(Matrix::full(2, 2, 1.0)), None];
            let bytes = v.to_bytes(); // one encode, nested values included
            let _ = Vec::<Option<Matrix>>::from_bytes(&bytes).unwrap(); // one decode
            let _ = v.persist_len(); // arithmetic or scratch-writer: no cycle
            let (e1, d1) = codec_cycle_counts();
            assert_eq!((e1 - e0, d1 - d0), (1, 1));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn display_messages_are_informative() {
        let eof = PersistError::UnexpectedEof {
            needed: 8,
            remaining: 3,
        };
        assert!(eof.to_string().contains("needed 8"));
        let tag = PersistError::BadTag {
            what: "Compressed",
            tag: 250,
        };
        assert!(tag.to_string().contains("Compressed"));
    }
}
