//! Canonical binary codec for durable images and transaction-log payloads.
//!
//! The storage engine persists the knowledge graph as a *canonical* byte
//! image: encoding the same logical state always produces the same bytes
//! (map entries are sorted, floats are encoded by bit pattern, ids are
//! dense and ordered). That determinism is what lets the crash matrix
//! assert bit-identical recovery, and it keeps checkpoint images stable
//! so copy-on-write chunking only rewrites pages that logically changed.
//!
//! The format is little-endian and length-prefixed; every decode is
//! bounds-checked and returns [`SagaError::Corrupt`] instead of panicking,
//! so bit flips in a store file surface as typed errors.

use crate::error::{Result, SagaError};

/// Bounds-checked little-endian reader over an image byte slice. Every
/// under-read or malformed field is a [`SagaError::Corrupt`], never a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

#[allow(clippy::len_without_is_empty)] // `len` reads a length prefix; it is not a container size.
impl<'a> Reader<'a> {
    /// Wraps `buf` for decoding from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(SagaError::Corrupt(format!(
                "binary image truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let b = self.bytes(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(b);
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a collection length and sanity-checks it against the bytes
    /// actually left (every element encodes at least one byte), so corrupt
    /// headers fail fast instead of attempting huge allocations.
    pub fn len(&mut self) -> Result<usize> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(SagaError::Corrupt(format!(
                "binary image corrupt: length {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }
}

/// Deterministic binary encode/decode for durable state. Implemented by the
/// data-model types that appear in checkpoint images and op-log payloads.
pub trait BinCodec: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn enc(&self, out: &mut Vec<u8>);
    /// Decodes one value, consuming bytes from `rd`.
    fn dec(rd: &mut Reader<'_>) -> Result<Self>;
}

impl BinCodec for u8 {
    fn enc(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        rd.u8()
    }
}

impl BinCodec for bool {
    fn enc(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        match rd.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SagaError::Corrupt(format!("invalid bool byte {b:#04x}"))),
        }
    }
}

impl BinCodec for u32 {
    fn enc(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        rd.u32()
    }
}

impl BinCodec for u64 {
    fn enc(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        rd.u64()
    }
}

impl BinCodec for i32 {
    fn enc(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(rd.u32()? as i32)
    }
}

impl BinCodec for i64 {
    fn enc(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(rd.u64()? as i64)
    }
}

// Floats encode by bit pattern: deterministic (no text formatting) and
// lossless, including NaN payloads.
impl BinCodec for f32 {
    fn enc(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(f32::from_bits(rd.u32()?))
    }
}

impl BinCodec for f64 {
    fn enc(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(f64::from_bits(rd.u64()?))
    }
}

impl BinCodec for String {
    fn enc(&self, out: &mut Vec<u8>) {
        (self.len() as u64).enc(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        let n = rd.len()?;
        let bytes = rd.bytes(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SagaError::Corrupt("binary image holds invalid utf-8 string".into()))
    }
}

impl<T: BinCodec> BinCodec for Option<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.enc(out);
            }
        }
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        match rd.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(rd)?)),
            b => Err(SagaError::Corrupt(format!("invalid option tag {b:#04x}"))),
        }
    }
}

/// Appends what a `Vec<T>` holding `items` encodes to — its length, then
/// every item — for sequences that are not a `Vec<T>` (a slice, references
/// gathered from several places).
pub(crate) fn enc_seq<'a, T: BinCodec + 'a>(
    items: impl ExactSizeIterator<Item = &'a T>,
    out: &mut Vec<u8>,
) {
    (items.len() as u64).enc(out);
    for v in items {
        v.enc(out);
    }
}

impl<T: BinCodec> BinCodec for Vec<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        enc_seq(self.iter(), out);
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        let n = rd.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::dec(rd)?);
        }
        Ok(out)
    }
}

impl<A: BinCodec, B: BinCodec> BinCodec for (A, B) {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
        self.1.enc(out);
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok((A::dec(rd)?, B::dec(rd)?))
    }
}

impl<A: BinCodec, B: BinCodec, C: BinCodec> BinCodec for (A, B, C) {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
        self.1.enc(out);
        self.2.enc(out);
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok((A::dec(rd)?, B::dec(rd)?, C::dec(rd)?))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn round_trip<T: BinCodec + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.enc(&mut buf);
        let mut rd = Reader::new(&buf);
        assert_eq!(T::dec(&mut rd).unwrap(), v);
        assert_eq!(rd.remaining(), 0, "decode must consume the whole encoding");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(true);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(-1i32);
        round_trip(i64::MIN);
        round_trip(3.5f32);
        round_trip(-0.0f64);
        round_trip(String::from("héllo wörld"));
        round_trip(String::new());
        round_trip(Option::<u64>::None);
        round_trip(Some(42u64));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<String>::new());
        round_trip((7u32, String::from("x")));
    }

    #[test]
    fn truncation_is_typed_error() {
        let mut buf = Vec::new();
        String::from("hello").enc(&mut buf);
        for cut in 0..buf.len() {
            let mut rd = Reader::new(&buf[..cut]);
            assert!(String::dec(&mut rd).is_err(), "decode of {cut}-byte prefix must fail");
        }
    }

    #[test]
    fn hostile_length_header_fails_fast() {
        let mut buf = Vec::new();
        u64::MAX.enc(&mut buf); // a Vec claiming 2^64-1 elements
        let mut rd = Reader::new(&buf);
        assert!(Vec::<u64>::dec(&mut rd).is_err());
    }

    #[test]
    fn invalid_tags_are_rejected() {
        let mut rd = Reader::new(&[2u8]);
        assert!(bool::dec(&mut rd).is_err());
        let mut rd = Reader::new(&[9u8]);
        assert!(Option::<u8>::dec(&mut rd).is_err());
    }

    #[test]
    fn float_bit_patterns_survive() {
        let mut buf = Vec::new();
        f64::NAN.enc(&mut buf);
        let mut rd = Reader::new(&buf);
        assert!(f64::dec(&mut rd).unwrap().is_nan());
    }
}
