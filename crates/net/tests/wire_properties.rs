//! Wire robustness properties for `beer-wire`.
//!
//! Three guarantees the protocol must keep whatever bytes arrive:
//!
//! 1. **Round-trip** — every frame the encoder can produce decodes back
//!    to the identical message (and survives the framed stream path).
//! 2. **Totality** — truncated, trailing, corrupted, and oversized
//!    bodies decode to *typed* [`WireError`]s; no input panics.
//! 3. **One version** — tags retired with older protocol versions and
//!    version ranges not containing [`WIRE_VERSION`] are typed
//!    refusals, mirroring the style of
//!    [`TraceParseError::UnsupportedVersion`](beer_core::trace::TraceParseError).

use beer_core::recovery::BudgetReason;
use beer_core::trace::Fingerprint;
use beer_ecc::hamming;
use beer_net::wire::{
    negotiate, read_message, ErrorKind, Message, RecvError, WireCodeEntry, WireError, WireEvent,
    WireJobError, WireOutcome, WireOutput, WireRecord, WIRE_VERSION,
};
use beer_net::{Ring, RingMember};
use beer_service::{JobState, Priority};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Cursor;

/// A tiny deterministic generator: the vendored proptest has no u128 or
/// String strategies, so message payloads derive from one u64 seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn fingerprint(&mut self) -> Fingerprint {
        Fingerprint((u128::from(self.next()) << 64) | u128::from(self.next()))
    }

    fn string(&mut self) -> String {
        let len = self.below(12) as usize;
        (0..len)
            .map(|_| char::from(b'a' + (self.below(26) as u8)))
            .collect()
    }

    fn bytes(&mut self) -> Vec<u8> {
        let len = self.below(64) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn boolean(&mut self) -> bool {
        self.below(2) == 1
    }

    fn opt_u64(&mut self) -> Option<u64> {
        self.boolean().then(|| self.next())
    }

    fn opt_bytes(&mut self) -> Option<Vec<u8>> {
        self.boolean().then(|| self.bytes())
    }

    fn u128(&mut self) -> u128 {
        (u128::from(self.next()) << 64) | u128::from(self.next())
    }

    fn opt_u128(&mut self) -> Option<u128> {
        self.boolean().then(|| self.u128())
    }

    fn code(&mut self) -> beer_ecc::LinearCode {
        let k = 4 + self.below(12) as usize;
        hamming::random_sec(k, &mut StdRng::seed_from_u64(self.next()))
    }

    fn outcome(&mut self) -> WireOutcome {
        match self.below(4) {
            0 => WireOutcome::Unique(self.code()),
            1 => WireOutcome::Ambiguous {
                count: self.next(),
                truncated: self.boolean(),
            },
            2 => WireOutcome::Inconsistent,
            _ => WireOutcome::BudgetExhausted {
                reason: match self.below(4) {
                    0 => BudgetReason::Deadline,
                    1 => BudgetReason::Cancelled,
                    2 => BudgetReason::MaxFacts,
                    _ => BudgetReason::MaxPatterns,
                },
            },
        }
    }

    fn job_error(&mut self) -> WireJobError {
        match self.below(5) {
            0 => WireJobError::Recovery {
                message: self.string(),
            },
            1 => WireJobError::DeadlineExpired,
            2 => WireJobError::Cancelled,
            3 => WireJobError::ShutDown,
            _ => WireJobError::Unknown,
        }
    }

    fn event(&mut self) -> WireEvent {
        match self.below(6) {
            0 => WireEvent::Submitted {
                tenant: self.string(),
            },
            1 => WireEvent::State {
                state: match self.below(5) {
                    0 => JobState::Queued,
                    1 => JobState::Running,
                    2 => JobState::Done,
                    3 => JobState::Failed,
                    _ => JobState::Cancelled,
                },
            },
            2 => WireEvent::Coalesced {
                primary: self.next(),
            },
            3 => WireEvent::CacheHit,
            4 => WireEvent::Requeued,
            _ => WireEvent::Progress {
                detail: self.string(),
            },
        }
    }

    fn entries(&mut self) -> Vec<WireCodeEntry> {
        let n = self.below(3) as usize;
        (0..n)
            .map(|_| WireCodeEntry {
                hash: self.next(),
                code: self.code(),
                fingerprints: (0..self.below(4)).map(|_| self.fingerprint()).collect(),
            })
            .collect()
    }

    fn error_kind(&mut self) -> ErrorKind {
        match self.below(13) {
            0 => ErrorKind::QueueFull {
                capacity: self.next(),
            },
            1 => ErrorKind::TooLarge {
                patterns: self.next(),
                limit: self.next(),
            },
            2 => ErrorKind::InvalidTenant,
            3 => ErrorKind::Unschedulable { k: self.next() },
            4 => ErrorKind::ShuttingDown,
            5 => ErrorKind::UnsupportedVersion {
                min: self.next() as u16,
                max: self.next() as u16,
            },
            6 => ErrorKind::AuthFailed,
            7 => ErrorKind::UnknownFingerprint {
                fingerprint: self.fingerprint(),
            },
            8 => ErrorKind::UnknownJob { job: self.next() },
            9 => ErrorKind::BadChunk,
            10 => ErrorKind::Busy,
            11 => ErrorKind::WrongNode {
                owner: self.string(),
            },
            _ => ErrorKind::BadRequest,
        }
    }

    fn ring(&mut self) -> Ring {
        let members: Vec<RingMember> = (0..1 + self.below(4))
            .map(|i| RingMember {
                // The index prefix keeps names unique whatever the
                // random suffix collides on.
                name: format!("{i:02}-{}", self.string()),
                addr: format!("127.0.0.1:{}", 1024 + self.below(60000)),
            })
            .collect();
        let vnodes = 1 + self.below(8) as u32;
        Ring::new(self.next(), vnodes, members).expect("generated ring is valid")
    }
}

/// Message kinds the protocol defines.
const KINDS: u64 = 24;

/// Every frame variant, payloads derived from the seed. `variant` cycles
/// through all message kinds so every test run covers the full space.
/// Submit's optional trace id covers both sides of its presence byte.
fn arb_message(variant: u64, seed: u64) -> Message {
    let g = &mut Gen(seed | 1);
    match variant % KINDS {
        0 => Message::Hello {
            min_version: g.next() as u16,
            max_version: g.next() as u16,
            tenant: g.string(),
            token: g.string(),
        },
        1 => Message::HelloAck {
            version: g.next() as u16,
            server: g.string(),
            ring: g.boolean().then(|| g.ring()),
        },
        2 => Message::TraceBegin {
            fingerprint: g.fingerprint(),
            total_chunks: g.next() as u32,
            total_bytes: g.next(),
        },
        3 => Message::TraceChunk {
            fingerprint: g.fingerprint(),
            index: g.next() as u32,
            data: g.bytes(),
        },
        4 => Message::TraceAck {
            fingerprint: g.fingerprint(),
        },
        5 => Message::Submit {
            fingerprint: g.fingerprint(),
            priority: match g.below(3) {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            },
            deadline_ms: g.opt_u64(),
            trace_id: g.opt_u128(),
        },
        6 => Message::SubmitAck { job: g.next() },
        7 => Message::Watch { job: g.next() },
        8 => Message::Event {
            job: g.next(),
            event: g.event(),
        },
        9 => Message::Done {
            job: g.next(),
            result: if g.boolean() {
                Ok(WireOutput {
                    outcome: g.outcome(),
                    from_cache: g.boolean(),
                    coalesced_into: g.opt_u64(),
                })
            } else {
                Err(g.job_error())
            },
        },
        10 => Message::Cancel { job: g.next() },
        11 => Message::CancelAck {
            job: g.next(),
            cancelled: g.boolean(),
        },
        12 => Message::QueryFingerprint {
            fingerprint: g.fingerprint(),
        },
        13 => Message::FingerprintInfo {
            fingerprint: g.fingerprint(),
            record: g.boolean().then(|| WireRecord {
                tenant: g.string(),
                outcome: g.outcome(),
            }),
        },
        14 => Message::Error {
            kind: g.error_kind(),
            detail: g.string(),
        },
        15 => Message::QueryDimsPage {
            n: g.next() as u32,
            k: g.next() as u32,
            cursor: g.opt_bytes(),
            limit: g.next() as u32,
        },
        16 => Message::DimsPage {
            entries: g.entries(),
            next_cursor: g.opt_bytes(),
        },
        17 => Message::QueryHashPage {
            hash: g.next(),
            cursor: g.opt_bytes(),
            limit: g.next() as u32,
        },
        18 => Message::HashPage {
            entries: g.entries(),
            next_cursor: g.opt_bytes(),
        },
        19 => Message::Bye,
        20 => Message::RingChanged { ring: g.ring() },
        21 => Message::SubmitForwarded {
            fingerprint: g.fingerprint(),
            priority: match g.below(3) {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            },
            deadline_ms: g.opt_u64(),
            epoch: g.next(),
            trace_id: g.u128(),
        },
        22 => Message::QueryMetrics {
            tail: g.next() as u32,
        },
        _ => Message::MetricsInfo { text: g.string() },
    }
}

proptest! {
    #[test]
    fn every_frame_roundtrips(variant in 0u64..KINDS, seed in any::<u64>()) {
        let message = arb_message(variant, seed);
        let body = message.encode_body();
        let decoded = Message::decode_body(&body).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &message);

        // Submit's trace id rides behind a presence byte under one tag:
        // flipping between None and Some keeps the tag, changes the
        // bytes, and still round-trips.
        if let Message::Submit { fingerprint, priority, deadline_ms, trace_id } = &message {
            let flipped = Message::Submit {
                fingerprint: *fingerprint,
                priority: *priority,
                deadline_ms: *deadline_ms,
                trace_id: match trace_id {
                    Some(_) => None,
                    None => Some(u128::from(seed)),
                },
            };
            let flipped_body = flipped.encode_body();
            prop_assert_eq!(flipped_body[0], body[0]);
            prop_assert_ne!(&flipped_body, &body);
            prop_assert_eq!(Message::decode_body(&flipped_body).unwrap(), flipped);
        }

        // And through the framed stream path.
        let frame = message.encode_frame();
        let mut cursor = Cursor::new(frame);
        let streamed = read_message(&mut cursor, 4 << 20).expect("framed read");
        prop_assert_eq!(&streamed, &message);
    }

    #[test]
    fn every_truncation_is_a_typed_error(variant in 0u64..KINDS, seed in any::<u64>()) {
        let body = arb_message(variant, seed).encode_body();
        for len in 0..body.len() {
            match Message::decode_body(&body[..len]) {
                Err(_) => {}
                Ok(m) => prop_assert!(
                    false,
                    "prefix of {} bytes decoded to {:?}",
                    len,
                    m
                ),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_a_typed_error(variant in 0u64..KINDS, seed in any::<u64>()) {
        let mut body = arb_message(variant, seed).encode_body();
        body.push(0);
        // Most frames report the trailing byte; frames ending in a
        // variable-length field may mis-parse earlier instead — any typed
        // error is acceptable, silence is not.
        prop_assert!(Message::decode_body(&body).is_err());
    }

    #[test]
    fn corrupt_bytes_never_panic(variant in 0u64..KINDS, seed in any::<u64>(), flips in 1usize..8) {
        let mut body = arb_message(variant, seed).encode_body();
        let mut g = Gen(seed ^ 0xDEAD_BEEF);
        for _ in 0..flips {
            if body.is_empty() {
                break;
            }
            let at = g.below(body.len() as u64) as usize;
            body[at] ^= 1 << g.below(8);
        }
        // Whatever happened to the bytes: a typed result, never a panic,
        // and any successful decode must re-encode losslessly.
        if let Ok(m) = Message::decode_body(&body) {
            prop_assert_eq!(Message::decode_body(&m.encode_body()).unwrap(), m);
        }
    }

    #[test]
    fn random_bytes_never_panic(seed in any::<u64>(), len in 0usize..256) {
        let mut g = Gen(seed | 1);
        let body: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
        let _ = Message::decode_body(&body);
    }
}

#[test]
fn unknown_and_retired_tags_are_typed_errors() {
    // 6, 15–20, 28 and 29 are the tags retired with the older protocol
    // versions (legacy Submit, the unpaginated registry queries and
    // answers, the 14-counter StatsInfo, legacy SubmitForwarded, and the
    // v5 QueryStats/StatsInfo pair); 34 is the first tag past the
    // current set; the rest are arbitrary unassigned values including
    // the extremes.
    for tag in [6u8, 15, 16, 17, 18, 19, 20, 28, 29, 0, 34, 42, 200, 255] {
        let body = vec![tag, 1, 2, 3];
        assert_eq!(
            Message::decode_body(&body),
            Err(WireError::UnknownTag { tag }),
            "tag {tag}"
        );
    }
}

#[test]
fn hello_without_magic_is_refused() {
    let mut body = Message::Hello {
        min_version: 1,
        max_version: 1,
        tenant: "t".to_string(),
        token: String::new(),
    }
    .encode_body();
    body[1] = b'X'; // corrupt the magic
    assert_eq!(Message::decode_body(&body), Err(WireError::BadMagic));
}

#[test]
fn oversized_frames_are_refused_before_allocation() {
    // A length prefix claiming 1 GiB against a 4 MiB cap: typed refusal,
    // no allocation of the claimed size.
    let mut stream = Cursor::new((1u32 << 30).to_be_bytes().to_vec());
    match read_message(&mut stream, 4 << 20) {
        Err(RecvError::Frame(WireError::FrameTooLarge { len, limit })) => {
            assert_eq!(len, 1 << 30);
            assert_eq!(limit, 4 << 20);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

#[test]
fn clean_eof_is_distinguished_from_truncation() {
    // EOF at a frame boundary: Closed.
    assert!(matches!(
        read_message(&mut Cursor::new(Vec::new()), 1024),
        Err(RecvError::Closed)
    ));
    // EOF mid-prefix or mid-body: an I/O error, not a silent close.
    assert!(matches!(
        read_message(&mut Cursor::new(vec![0, 0]), 1024),
        Err(RecvError::Io(_))
    ));
    let mut partial = Message::Bye.encode_frame();
    partial.extend_from_slice(&[0, 0, 0, 9, 1]); // second frame truncated
    let mut cursor = Cursor::new(partial);
    assert!(matches!(read_message(&mut cursor, 1024), Ok(Message::Bye)));
    assert!(matches!(
        read_message(&mut cursor, 1024),
        Err(RecvError::Io(_))
    ));
}

#[test]
fn version_negotiation_accepts_exactly_the_ranges_containing_the_version() {
    let v = WIRE_VERSION;
    // Ranges containing the one version this build speaks.
    for (min, max) in [(v, v), (1, v), (v, v + 4), (0, u16::MAX)] {
        assert_eq!(negotiate(min, max), Some(v), "range {min}..={max}");
    }
    // Every range that misses it: older-only peers (a v4 build offers
    // 1..=4, a v5 build 5..=5), newer-only peers, empty ranges, and
    // nonsense.
    for (min, max) in [
        (1, 4),
        (5, 5),
        (1, 5),
        (7, 9),
        (1, 1),
        (0, 0),
        (v + 1, v + 5),
        (v, v - 1),
        (5, 2),
    ] {
        assert_eq!(negotiate(min, max), None, "range {min}..={max}");
    }
}

#[test]
fn code_row_padding_must_be_zero() {
    // A Unique outcome whose final row byte sets a bit past k: corrupt.
    let code = hamming::shortened(5); // k = 5: three padding bits per row byte
    let message = Message::Done {
        job: 1,
        result: Ok(WireOutput {
            outcome: WireOutcome::Unique(code),
            from_cache: false,
            coalesced_into: None,
        }),
    };
    let mut body = message.encode_body();
    // The body ends `… last-row-byte ‖ from_cache ‖ coalesced flag`.
    let last_row_byte = body.len() - 3;
    body[last_row_byte] |= 0x80; // bit 7 of a 5-bit row
    assert_eq!(
        Message::decode_body(&body),
        Err(WireError::BadValue {
            what: "code row padding"
        })
    );
}
