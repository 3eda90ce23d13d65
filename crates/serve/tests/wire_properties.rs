//! Property tests for the network wire protocol: every frame type must
//! round-trip bit-exactly, and every truncation or single-bit corruption
//! of a valid frame must decode to a *typed* error — never a panic, never
//! a silently wrong value.

use proptest::prelude::*;
use saga_core::trace::SplitMix64;
use saga_core::SagaError;
use saga_serve::net::wire::{
    ErrorCode, Request, RequestBody, Response, ResponseBody, WireHit, MAX_BATCH_ITEMS, MAX_K,
};

/// Deterministic arbitrary request body. `depth` guards batch nesting:
/// batches only appear at depth 0, matching the wire rule.
fn arb_request_body(rng: &mut SplitMix64, depth: u32) -> RequestBody {
    let variants = if depth == 0 { 4 } else { 3 };
    match rng.next_u64() % variants {
        0 => RequestBody::Lookup { entity: rng.next_u64() },
        1 => RequestBody::Search {
            query_seed: rng.next_u64(),
            k: 1 + (rng.next_u64() % u64::from(MAX_K)) as u32,
        },
        2 => RequestBody::Ping,
        _ => {
            let n = 1 + (rng.next_u64() % 8) as usize;
            assert!(n <= MAX_BATCH_ITEMS);
            RequestBody::Batch((0..n).map(|_| arb_request_body(rng, depth + 1)).collect())
        }
    }
}

fn arb_hits(rng: &mut SplitMix64) -> Vec<WireHit> {
    let n = (rng.next_u64() % 16) as usize;
    (0..n)
        .map(|_| WireHit {
            id: rng.next_u64(),
            // Bit-pattern round-trip must hold for any finite float.
            score: (rng.next_u64() as f32) / 1e9 - 9.2,
        })
        .collect()
}

/// Deterministic arbitrary response body covering every variant.
fn arb_response_body(rng: &mut SplitMix64, depth: u32) -> ResponseBody {
    let variants = if depth == 0 { 8 } else { 7 };
    match rng.next_u64() % variants {
        0 => ResponseBody::LookupOk { entity: rng.next_u64(), fact_count: rng.next_u64() },
        1 => ResponseBody::SearchOk { hits: arb_hits(rng) },
        2 => ResponseBody::Shed { retry_after_micros: rng.next_u64() },
        3 => ResponseBody::Degraded {
            hits: arb_hits(rng),
            shards_missing: (rng.next_u64() % 64) as u32,
        },
        4 => ResponseBody::Expired,
        5 => ResponseBody::Pong,
        6 => ResponseBody::Error {
            code: match rng.next_u64() % 3 {
                0 => ErrorCode::BadRequest,
                1 => ErrorCode::Unavailable,
                _ => ErrorCode::Internal,
            },
            message: format!("err-{}", rng.next_u64() % 1_000),
        },
        _ => {
            let n = 1 + (rng.next_u64() % 8) as usize;
            ResponseBody::BatchOk((0..n).map(|_| arb_response_body(rng, depth + 1)).collect())
        }
    }
}

fn typed_decode_failure(e: &SagaError) -> bool {
    matches!(e, SagaError::Corrupt(_) | SagaError::Io(_))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request frame type round-trips bit-exactly through
    /// encode → decode.
    #[test]
    fn request_round_trip(seed in any::<u64>(), request_id in any::<u64>(), timeout in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let req = Request { request_id, timeout_micros: timeout, body: arb_request_body(&mut rng, 0) };
        let frame = req.to_frame().expect("encode");
        let back = Request::from_frame(&frame).expect("decode");
        prop_assert_eq!(back, req);
    }

    /// Every response frame type round-trips bit-exactly (including float
    /// score bit patterns).
    #[test]
    fn response_round_trip(seed in any::<u64>(), request_id in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let resp = Response { request_id, body: arb_response_body(&mut rng, 0) };
        let frame = resp.to_frame().expect("encode");
        let back = Response::from_frame(&frame).expect("decode");
        prop_assert_eq!(back, resp);
    }

    /// `encode_into` a dirty, reused buffer writes exactly the bytes
    /// `to_frame` allocates fresh, for every request and response shape:
    /// nothing of the buffer's previous frame — longer or shorter —
    /// survives, and the patched length and checksum match.
    #[test]
    fn encode_into_reused_buffer_equals_to_frame(seed in any::<u64>(), request_id in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let mut buf = vec![0xA5u8; (rng.next_u64() % 4_096) as usize];
        for _ in 0..6 {
            let req = Request {
                request_id,
                timeout_micros: rng.next_u64(),
                body: arb_request_body(&mut rng, 0),
            };
            req.encode_into(&mut buf).expect("encode");
            prop_assert_eq!(&buf, &req.to_frame().expect("encode"));
            let resp = Response { request_id, body: arb_response_body(&mut rng, 0) };
            resp.encode_into(&mut buf).expect("encode");
            prop_assert_eq!(&buf, &resp.to_frame().expect("encode"));
        }
    }

    /// Every proper prefix of a valid frame decodes to a typed error.
    #[test]
    fn truncation_sweep_yields_typed_errors(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let req = Request { request_id: rng.next_u64(), timeout_micros: 0, body: arb_request_body(&mut rng, 0) };
        let frame = req.to_frame().expect("encode");
        for len in 0..frame.len() {
            match Request::from_frame(&frame[..len]) {
                Ok(got) => prop_assert!(false, "truncated to {len} still decoded: {got:?}"),
                Err(e) => prop_assert!(typed_decode_failure(&e), "untyped error at len {len}: {e:?}"),
            }
        }
    }

    /// Every single-bit flip of a valid frame is rejected with a typed
    /// error — the checksum binds the payload to the header.
    #[test]
    fn bit_flip_sweep_yields_typed_errors(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let resp = Response { request_id: rng.next_u64(), body: arb_response_body(&mut rng, 0) };
        let frame = resp.to_frame().expect("encode");
        // Sweep a deterministic sample of bit positions (every bit for
        // short frames, strided for long ones) to keep runtime bounded.
        let total_bits = frame.len() * 8;
        let stride = (total_bits / 256).max(1);
        for bit in (0..total_bits).step_by(stride) {
            let mut mutated = frame.clone();
            mutated[bit / 8] ^= 1 << (bit % 8);
            match Response::from_frame(&mutated) {
                Ok(got) => prop_assert!(false, "bit {bit} flip still decoded: {got:?}"),
                Err(e) => prop_assert!(typed_decode_failure(&e), "untyped error at bit {bit}: {e:?}"),
            }
        }
    }
}
