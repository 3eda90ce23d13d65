//! The framed wire protocol: length-prefixed, checksummed, version-tagged
//! envelopes over [`saga_core::persist::codec`] payload encoding.
//!
//! ## Frame layout (little-endian)
//!
//! ```text
//! [magic: u32 = "SGW1"] [version: u8] [kind: u8] [request_id: u64]
//! [payload_len: u32] [checksum: u64 = fnv1a(payload) mixed with header]
//! [payload: payload_len bytes, BinCodec-encoded body]
//! ```
//!
//! Decoding is hostile-input safe by construction, the same discipline as
//! the storage codec (DESIGN.md §10): the payload length is validated
//! against [`MAX_PAYLOAD`] *before* any allocation, the checksum covers the
//! payload and the header fields (so a bit flip in `request_id` is caught,
//! not just one in the body), every tag byte is range-checked, and every
//! failure is a typed [`SagaError::Corrupt`] / [`SagaError::Io`] — never a
//! panic. The proptest sweep in `tests/wire_properties.rs` drives every
//! frame type through round-trips plus truncation/bit-flip storms.
//!
//! Deadlines ride the frame as a *relative* `timeout_micros` (gRPC-style)
//! rather than an absolute wall-clock instant, so client/server clock skew
//! cannot expire a request in flight; the server rebases the timeout onto
//! its own engine clock at arrival.

use saga_core::error::{Result, SagaError};
use saga_core::persist::codec::{BinCodec, Reader};
use saga_core::text::fnv1a;
use saga_core::trace::splitmix64;

/// Frame magic: `b"SGW1"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"SGW1");
/// Protocol version carried by every frame.
pub const VERSION: u8 = 1;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 4 + 1 + 1 + 8 + 4 + 8;
/// Offset of `payload_len` (the checksum follows it) inside the header.
const LEN_OFFSET: usize = 4 + 1 + 1 + 8;
/// Hard payload ceiling, validated before allocating a receive buffer. A
/// hostile length header therefore costs at most `HEADER_LEN` bytes of
/// reads, never a multi-gigabyte allocation.
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Cap on `Batch` items (and on requested `k`) so one frame cannot fan out
/// into unbounded server work.
pub const MAX_BATCH_ITEMS: usize = 1_024;
/// Cap on requested top-k.
pub const MAX_K: u32 = 4_096;

/// Whether a frame carries a request or a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server.
    Request,
    /// Server → client.
    Response,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Response => 1,
        }
    }

    fn from_tag(b: u8) -> Result<Self> {
        match b {
            0 => Ok(FrameKind::Request),
            1 => Ok(FrameKind::Response),
            b => Err(SagaError::Corrupt(format!("invalid frame kind {b:#04x}"))),
        }
    }
}

/// One operation a request frame can carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestBody {
    /// Point lookup: fact count for an entity (routed by entity hash).
    Lookup {
        /// Entity id to resolve.
        entity: u64,
    },
    /// Vector search: the query vector derives deterministically from
    /// `query_seed` (the scheme the in-process `ShardedService` also uses).
    Search {
        /// Seed of the synthetic query vector.
        query_seed: u64,
        /// Top-k to return (capped at [`MAX_K`]).
        k: u32,
    },
    /// Several operations in one frame. Nesting is rejected at decode.
    Batch(Vec<RequestBody>),
    /// Liveness probe; answered without touching the engine.
    Ping,
}

/// One scored hit on the wire. Scores travel by bit pattern (the codec's
/// float discipline) so client-observed results are bit-comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireHit {
    /// Vector / entity id.
    pub id: u64,
    /// Score, higher is better.
    pub score: f32,
}

impl From<saga_ann::Hit> for WireHit {
    fn from(h: saga_ann::Hit) -> Self {
        WireHit { id: h.id, score: h.score }
    }
}

impl From<WireHit> for saga_ann::Hit {
    fn from(h: WireHit) -> Self {
        saga_ann::Hit { id: h.id, score: h.score }
    }
}

/// Typed server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Lookup result.
    LookupOk {
        /// Echoed entity id.
        entity: u64,
        /// Facts attached to the entity in the CSR.
        fact_count: u64,
    },
    /// Search result with every shard's contribution merged.
    SearchOk {
        /// Global top-k, score desc / id asc.
        hits: Vec<WireHit>,
    },
    /// Per-item replies for a `Batch` request, in item order.
    BatchOk(Vec<ResponseBody>),
    /// Admission control refused the request. Well-behaved clients wait
    /// `retry_after_micros` before retrying — the shard's own estimate of
    /// when its backlog drains (the shed feedback loop).
    Shed {
        /// Suggested client back-off in microseconds.
        retry_after_micros: u64,
    },
    /// A subset of shards shed their share; `hits` is the merged top-k of
    /// the shards that answered. Still a successful reply — the client
    /// decides whether partial coverage is acceptable.
    Degraded {
        /// Merged top-k over the responding shards.
        hits: Vec<WireHit>,
        /// Shard shares that were shed.
        shards_missing: u32,
    },
    /// The request's deadline passed before scoring; it was dropped at
    /// dequeue and never executed.
    Expired,
    /// Ping reply.
    Pong,
    /// Server-side failure, typed by [`ErrorCode`].
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Wire-stable error classes for [`ResponseBody::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame failed validation.
    BadRequest,
    /// The server is shutting down or otherwise cannot serve.
    Unavailable,
    /// Internal server error.
    Internal,
}

/// A decoded request envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen id echoed by the response; retries use fresh ids.
    pub request_id: u64,
    /// Relative deadline in microseconds (0 = none). The server rebases it
    /// onto its own clock at arrival.
    pub timeout_micros: u64,
    /// The operation.
    pub body: RequestBody,
}

/// A decoded response envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id this answers.
    pub request_id: u64,
    /// The reply.
    pub body: ResponseBody,
}

// ------------------------------------------------------- body codecs

const REQ_LOOKUP: u8 = 0;
const REQ_SEARCH: u8 = 1;
const REQ_BATCH: u8 = 2;
const REQ_PING: u8 = 3;

impl RequestBody {
    fn enc_at(&self, depth: u32, out: &mut Vec<u8>) {
        match self {
            RequestBody::Lookup { entity } => {
                out.push(REQ_LOOKUP);
                entity.enc(out);
            }
            RequestBody::Search { query_seed, k } => {
                out.push(REQ_SEARCH);
                query_seed.enc(out);
                k.enc(out);
            }
            RequestBody::Batch(items) => {
                debug_assert_eq!(depth, 0, "nested batches are not encodable");
                out.push(REQ_BATCH);
                (items.len() as u64).enc(out);
                for it in items {
                    it.enc_at(depth + 1, out);
                }
            }
            RequestBody::Ping => out.push(REQ_PING),
        }
    }

    fn dec_at(depth: u32, rd: &mut Reader<'_>) -> Result<Self> {
        match rd.u8()? {
            REQ_LOOKUP => Ok(RequestBody::Lookup { entity: rd.u64()? }),
            REQ_SEARCH => {
                let query_seed = rd.u64()?;
                let k = rd.u32()?;
                if k == 0 || k > MAX_K {
                    return Err(SagaError::Corrupt(format!("search k {k} outside 1..={MAX_K}")));
                }
                Ok(RequestBody::Search { query_seed, k })
            }
            REQ_BATCH => {
                if depth > 0 {
                    return Err(SagaError::Corrupt("nested batch request".into()));
                }
                let n = rd.len()?;
                if n == 0 || n > MAX_BATCH_ITEMS {
                    return Err(SagaError::Corrupt(format!(
                        "batch of {n} items outside 1..={MAX_BATCH_ITEMS}"
                    )));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(RequestBody::dec_at(depth + 1, rd)?);
                }
                Ok(RequestBody::Batch(items))
            }
            REQ_PING => Ok(RequestBody::Ping),
            b => Err(SagaError::Corrupt(format!("invalid request tag {b:#04x}"))),
        }
    }
}

impl BinCodec for RequestBody {
    fn enc(&self, out: &mut Vec<u8>) {
        self.enc_at(0, out);
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        RequestBody::dec_at(0, rd)
    }
}

impl BinCodec for WireHit {
    fn enc(&self, out: &mut Vec<u8>) {
        self.id.enc(out);
        self.score.enc(out);
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        Ok(WireHit { id: u64::dec(rd)?, score: f32::dec(rd)? })
    }
}

const ERR_BAD_REQUEST: u8 = 0;
const ERR_UNAVAILABLE: u8 = 1;
const ERR_INTERNAL: u8 = 2;

impl BinCodec for ErrorCode {
    fn enc(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ErrorCode::BadRequest => ERR_BAD_REQUEST,
            ErrorCode::Unavailable => ERR_UNAVAILABLE,
            ErrorCode::Internal => ERR_INTERNAL,
        });
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        match rd.u8()? {
            ERR_BAD_REQUEST => Ok(ErrorCode::BadRequest),
            ERR_UNAVAILABLE => Ok(ErrorCode::Unavailable),
            ERR_INTERNAL => Ok(ErrorCode::Internal),
            b => Err(SagaError::Corrupt(format!("invalid error code {b:#04x}"))),
        }
    }
}

const RSP_LOOKUP_OK: u8 = 0;
const RSP_SEARCH_OK: u8 = 1;
const RSP_BATCH_OK: u8 = 2;
const RSP_SHED: u8 = 3;
const RSP_DEGRADED: u8 = 4;
const RSP_EXPIRED: u8 = 5;
const RSP_PONG: u8 = 6;
const RSP_ERROR: u8 = 7;

impl ResponseBody {
    fn enc_at(&self, depth: u32, out: &mut Vec<u8>) {
        match self {
            ResponseBody::LookupOk { entity, fact_count } => {
                out.push(RSP_LOOKUP_OK);
                entity.enc(out);
                fact_count.enc(out);
            }
            ResponseBody::SearchOk { hits } => {
                out.push(RSP_SEARCH_OK);
                hits.enc(out);
            }
            ResponseBody::BatchOk(items) => {
                debug_assert_eq!(depth, 0, "nested batch responses are not encodable");
                out.push(RSP_BATCH_OK);
                (items.len() as u64).enc(out);
                for it in items {
                    it.enc_at(depth + 1, out);
                }
            }
            ResponseBody::Shed { retry_after_micros } => {
                out.push(RSP_SHED);
                retry_after_micros.enc(out);
            }
            ResponseBody::Degraded { hits, shards_missing } => {
                out.push(RSP_DEGRADED);
                hits.enc(out);
                shards_missing.enc(out);
            }
            ResponseBody::Expired => out.push(RSP_EXPIRED),
            ResponseBody::Pong => out.push(RSP_PONG),
            ResponseBody::Error { code, message } => {
                out.push(RSP_ERROR);
                code.enc(out);
                message.enc(out);
            }
        }
    }

    fn dec_at(depth: u32, rd: &mut Reader<'_>) -> Result<Self> {
        match rd.u8()? {
            RSP_LOOKUP_OK => {
                Ok(ResponseBody::LookupOk { entity: rd.u64()?, fact_count: rd.u64()? })
            }
            RSP_SEARCH_OK => Ok(ResponseBody::SearchOk { hits: Vec::<WireHit>::dec(rd)? }),
            RSP_BATCH_OK => {
                if depth > 0 {
                    return Err(SagaError::Corrupt("nested batch response".into()));
                }
                let n = rd.len()?;
                if n > MAX_BATCH_ITEMS {
                    return Err(SagaError::Corrupt(format!(
                        "batch response of {n} items exceeds {MAX_BATCH_ITEMS}"
                    )));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(ResponseBody::dec_at(depth + 1, rd)?);
                }
                Ok(ResponseBody::BatchOk(items))
            }
            RSP_SHED => Ok(ResponseBody::Shed { retry_after_micros: rd.u64()? }),
            RSP_DEGRADED => Ok(ResponseBody::Degraded {
                hits: Vec::<WireHit>::dec(rd)?,
                shards_missing: rd.u32()?,
            }),
            RSP_EXPIRED => Ok(ResponseBody::Expired),
            RSP_PONG => Ok(ResponseBody::Pong),
            RSP_ERROR => {
                Ok(ResponseBody::Error { code: ErrorCode::dec(rd)?, message: String::dec(rd)? })
            }
            b => Err(SagaError::Corrupt(format!("invalid response tag {b:#04x}"))),
        }
    }
}

impl BinCodec for ResponseBody {
    fn enc(&self, out: &mut Vec<u8>) {
        self.enc_at(0, out);
    }
    fn dec(rd: &mut Reader<'_>) -> Result<Self> {
        ResponseBody::dec_at(0, rd)
    }
}

// ------------------------------------------------------- frame assembly

/// Checksum covering both the payload and the header fields that matter:
/// fnv1a over the payload, mixed with (version, kind, request_id,
/// payload_len) through splitmix so a flipped header bit breaks the sum
/// even when the payload is untouched.
fn frame_checksum(kind: u8, request_id: u64, payload: &[u8]) -> u64 {
    let body = fnv1a(payload);
    let hdr = splitmix64(
        request_id ^ (u64::from(kind) << 56) ^ (u64::from(VERSION) << 48) ^ (payload.len() as u64),
    );
    body ^ hdr
}

/// Encodes a complete frame into `out`, replacing whatever it held (its
/// capacity is kept): the header is written with the length and checksum
/// fields zeroed, `payload` appends the body, then both fields are patched
/// in place. An oversized payload empties `out` and is a typed error.
fn encode_frame_into(
    kind: FrameKind,
    request_id: u64,
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Result<()> {
    out.clear();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind.tag());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&[0u8; 4 + 8]);
    payload(out);
    let payload_len = out.len() - HEADER_LEN;
    if payload_len > MAX_PAYLOAD as usize {
        out.clear();
        return Err(SagaError::InvalidArgument(format!(
            "frame payload {payload_len} exceeds MAX_PAYLOAD {MAX_PAYLOAD}"
        )));
    }
    let checksum = frame_checksum(kind.tag(), request_id, &out[HEADER_LEN..]);
    out[LEN_OFFSET..LEN_OFFSET + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[LEN_OFFSET + 4..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    Ok(())
}

/// Capacity a fresh frame buffer starts with: the header plus the largest
/// single-operation body, so point requests and replies never regrow it.
const SMALL_FRAME: usize = 64;

impl Request {
    /// Encodes this request as a complete frame into `out`, replacing
    /// whatever it held. A warm buffer is reused without allocating.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<()> {
        encode_frame_into(FrameKind::Request, self.request_id, out, |out| {
            self.timeout_micros.enc(out);
            self.body.enc(out);
        })
    }

    /// Encodes this request as a complete frame.
    pub fn to_frame(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(SMALL_FRAME);
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Decodes a request from a complete frame.
    pub fn from_frame(frame: &[u8]) -> Result<Self> {
        let (kind, request_id, payload) = split_frame(frame)?;
        if kind != FrameKind::Request {
            return Err(SagaError::Corrupt("expected request frame, got response".into()));
        }
        let mut rd = Reader::new(payload);
        let timeout_micros = u64::dec(&mut rd)?;
        let body = RequestBody::dec(&mut rd)?;
        if rd.remaining() != 0 {
            return Err(SagaError::Corrupt(format!(
                "{} trailing bytes after request body",
                rd.remaining()
            )));
        }
        Ok(Request { request_id, timeout_micros, body })
    }
}

impl Response {
    /// Encodes this response as a complete frame into `out`, replacing
    /// whatever it held. A warm buffer is reused without allocating.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<()> {
        encode_frame_into(FrameKind::Response, self.request_id, out, |out| self.body.enc(out))
    }

    /// Encodes this response as a complete frame.
    pub fn to_frame(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(SMALL_FRAME);
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Decodes a response from a complete frame.
    pub fn from_frame(frame: &[u8]) -> Result<Self> {
        let (kind, request_id, payload) = split_frame(frame)?;
        if kind != FrameKind::Response {
            return Err(SagaError::Corrupt("expected response frame, got request".into()));
        }
        let mut rd = Reader::new(payload);
        let body = ResponseBody::dec(&mut rd)?;
        if rd.remaining() != 0 {
            return Err(SagaError::Corrupt(format!(
                "{} trailing bytes after response body",
                rd.remaining()
            )));
        }
        Ok(Response { request_id, body })
    }
}

/// Parsed header of a frame: everything a transport needs to know how many
/// payload bytes follow. Validates magic, version, kind and length bounds
/// — all before the caller allocates anything.
#[derive(Debug, Clone, Copy)]
pub struct FrameHeader {
    /// Request or response.
    pub kind: FrameKind,
    /// Frame correlation id.
    pub request_id: u64,
    /// Payload bytes that follow the header.
    pub payload_len: u32,
    /// Declared checksum (verified by [`split_frame`] once the payload is
    /// in hand).
    pub checksum: u64,
}

/// Parses and validates the fixed header prefix of `buf`.
pub fn parse_header(buf: &[u8]) -> Result<FrameHeader> {
    let mut rd = Reader::new(buf);
    let magic = rd.u32()?;
    if magic != MAGIC {
        return Err(SagaError::Corrupt(format!("bad frame magic {magic:#010x}")));
    }
    let version = rd.u8()?;
    if version != VERSION {
        return Err(SagaError::Corrupt(format!("unsupported wire version {version}")));
    }
    let kind = FrameKind::from_tag(rd.u8()?)?;
    let request_id = rd.u64()?;
    let payload_len = rd.u32()?;
    if payload_len > MAX_PAYLOAD {
        return Err(SagaError::Corrupt(format!(
            "frame payload length {payload_len} exceeds MAX_PAYLOAD {MAX_PAYLOAD}"
        )));
    }
    let checksum = rd.u64()?;
    Ok(FrameHeader { kind, request_id, payload_len, checksum })
}

/// Splits a complete frame into (kind, request id, payload), verifying the
/// length and the checksum.
pub fn split_frame(frame: &[u8]) -> Result<(FrameKind, u64, &[u8])> {
    let hdr = parse_header(frame)?;
    let expect = HEADER_LEN + hdr.payload_len as usize;
    if frame.len() != expect {
        return Err(SagaError::Corrupt(format!(
            "frame length {} does not match header ({expect})",
            frame.len()
        )));
    }
    let payload = &frame[HEADER_LEN..];
    let want = frame_checksum(hdr.kind.tag(), hdr.request_id, payload);
    if want != hdr.checksum {
        return Err(SagaError::Corrupt(format!(
            "frame checksum mismatch: header {:#018x}, computed {want:#018x}",
            hdr.checksum
        )));
    }
    Ok((hdr.kind, hdr.request_id, payload))
}

/// Correlation id of a frame without full validation — used by clients to
/// discard stale duplicate responses cheaply. Still bounds-checked.
pub fn peek_request_id(frame: &[u8]) -> Result<u64> {
    Ok(parse_header(frame)?.request_id)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request { request_id: 1, timeout_micros: 0, body: RequestBody::Ping },
            Request {
                request_id: 2,
                timeout_micros: 50_000,
                body: RequestBody::Lookup { entity: 77 },
            },
            Request {
                request_id: u64::MAX,
                timeout_micros: 1,
                body: RequestBody::Search { query_seed: 0xDEAD_BEEF, k: 8 },
            },
            Request {
                request_id: 3,
                timeout_micros: 9,
                body: RequestBody::Batch(vec![
                    RequestBody::Lookup { entity: 0 },
                    RequestBody::Search { query_seed: 5, k: 1 },
                    RequestBody::Ping,
                ]),
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response { request_id: 1, body: ResponseBody::Pong },
            Response { request_id: 2, body: ResponseBody::LookupOk { entity: 77, fact_count: 4 } },
            Response {
                request_id: 9,
                body: ResponseBody::SearchOk {
                    hits: vec![WireHit { id: 3, score: 0.5 }, WireHit { id: 1, score: -0.25 }],
                },
            },
            Response { request_id: 4, body: ResponseBody::Shed { retry_after_micros: 1_234 } },
            Response {
                request_id: 5,
                body: ResponseBody::Degraded {
                    hits: vec![WireHit { id: 8, score: 1.0 }],
                    shards_missing: 2,
                },
            },
            Response { request_id: 6, body: ResponseBody::Expired },
            Response {
                request_id: 7,
                body: ResponseBody::Error { code: ErrorCode::BadRequest, message: "nope".into() },
            },
            Response {
                request_id: 8,
                body: ResponseBody::BatchOk(vec![
                    ResponseBody::Pong,
                    ResponseBody::Shed { retry_after_micros: 1 },
                ]),
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for r in sample_requests() {
            let f = r.to_frame().unwrap();
            assert_eq!(Request::from_frame(&f).unwrap(), r);
            assert_eq!(peek_request_id(&f).unwrap(), r.request_id);
        }
        for r in sample_responses() {
            let f = r.to_frame().unwrap();
            assert_eq!(Response::from_frame(&f).unwrap(), r);
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let f = sample_requests()[3].to_frame().unwrap();
        for cut in 0..f.len() {
            match Request::from_frame(&f[..cut]) {
                Err(SagaError::Corrupt(_)) | Err(SagaError::Io(_)) => {}
                other => panic!("cut {cut}: expected Corrupt/Io, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_or_detected() {
        let f = sample_responses()[2].to_frame().unwrap();
        for byte in 0..f.len() {
            for bit in 0..8 {
                let mut m = f.clone();
                m[byte] ^= 1 << bit;
                match Response::from_frame(&m) {
                    Err(SagaError::Corrupt(_)) | Err(SagaError::Io(_)) => {}
                    Ok(_) => panic!("flip {byte}:{bit} slipped through the checksum"),
                    other => panic!("flip {byte}:{bit}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn hostile_lengths_fail_before_allocation() {
        // A header claiming a 4 GiB payload must be rejected by the length
        // check, not by an OOM.
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC.to_le_bytes());
        f.push(VERSION);
        f.push(0);
        f.extend_from_slice(&7u64.to_le_bytes());
        f.extend_from_slice(&u32::MAX.to_le_bytes());
        f.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(parse_header(&f), Err(SagaError::Corrupt(_))));
    }

    #[test]
    fn nested_batches_are_rejected() {
        let mut payload = Vec::new();
        0u64.enc(&mut payload); // timeout
        payload.push(REQ_BATCH);
        1u64.enc(&mut payload);
        payload.push(REQ_BATCH); // batch inside batch
        1u64.enc(&mut payload);
        payload.push(REQ_PING);
        let mut frame = Vec::new();
        encode_frame_into(FrameKind::Request, 1, &mut frame, |out| out.extend_from_slice(&payload))
            .unwrap();
        assert!(matches!(Request::from_frame(&frame), Err(SagaError::Corrupt(_))));
    }

    #[test]
    fn kind_confusion_is_rejected() {
        let f = sample_requests()[0].to_frame().unwrap();
        assert!(matches!(Response::from_frame(&f), Err(SagaError::Corrupt(_))));
    }
}
