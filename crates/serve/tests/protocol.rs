//! Property-based battery for the wire codec: arbitrary frames survive
//! encode→decode bit-exactly, under arbitrary stream chunking, back to
//! back; truncation at any byte keeps the decoder waiting (never a wrong
//! frame); corrupted headers and garbage are rejected, never panicked
//! on. And the digest the engine folds as it writes its member lists is
//! the digest of the materialised results.

use lira_core::geometry::{Point, Rect};
use lira_core::plan::{PlanRegion, SheddingPlan};
use lira_serve::protocol::{
    decode_plan, digest_round, plan_frame, Decoder, Frame, WireError, WireQuery, WireUpdate,
    HEADER_LEN,
};
use lira_server::cq_engine::CqServer;
use lira_server::query::RangeQuery;
use proptest::prelude::*;

/// Coordinates on a binary-exact lattice (f64 round-trips are exact for
/// any value, but keeping magnitudes sane makes failures readable).
fn coord() -> impl Strategy<Value = f64> {
    (-200_000i32..200_000).prop_map(|i| i as f64 * 0.5)
}

fn update() -> impl Strategy<Value = WireUpdate> {
    (any::<u32>(), coord(), coord(), coord(), coord()).prop_map(|(id, x, y, vx, vy)| WireUpdate {
        id,
        x,
        y,
        vx,
        vy,
    })
}

fn query() -> impl Strategy<Value = WireQuery> {
    (any::<u32>(), coord(), coord(), 1u32..2000, 1u32..2000).prop_map(|(id, x, y, w, h)| {
        WireQuery {
            id,
            min_x: x,
            min_y: y,
            max_x: x + w as f64,
            max_y: y + h as f64,
        }
    })
}

/// Plans built from valid region records (positive f32-exact sides,
/// non-negative throttlers) — what a real broadcast carries.
fn plan_regions() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        (0u32..10_000, 0u32..10_000, 1u32..5000, 0u32..200).prop_map(|(x, y, side, delta)| {
            PlanRegion {
                area: Rect::from_coords(x as f64, y as f64, (x + side) as f64, (y + side) as f64),
                throttler: delta as f64 * 0.5,
            }
        }),
        0..40,
    )
    .prop_map(|regions| {
        SheddingPlan::new(
            Rect::from_coords(0.0, 0.0, 20_000.0, 20_000.0),
            regions,
            5.0,
        )
        .encode()
    })
}

/// A strategy over every frame kind. The vendored proptest shim has no
/// `prop_oneof!`, so this implements `Strategy` directly: one uniform
/// kind draw, then kind-appropriate fields.
#[derive(Debug, Clone, Copy)]
struct FrameStrat;

fn ascii(rng: &mut rand::rngs::SmallRng, max_len: usize) -> String {
    use rand::Rng;
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| rng.gen_range(0x20u32..=0x7E) as u8 as char)
        .collect()
}

impl Strategy for FrameStrat {
    type Value = Frame;

    fn generate(&self, rng: &mut rand::rngs::SmallRng) -> Frame {
        use rand::Rng;
        let coord =
            |rng: &mut rand::rngs::SmallRng| rng.gen_range(-200_000i32..200_000) as f64 * 0.5;
        match rng.gen_range(0u32..15) {
            0 => Frame::Hello {
                flags: rng.gen_range(0u32..=u32::MAX),
            },
            1 => Frame::Welcome {
                session: rng.gen_range(0u32..=u32::MAX),
                slices: rng.gen_range(1u32..256),
                shards: rng.gen_range(1u32..64),
                queue_capacity: rng.gen_range(1u32..1_000_000),
                default_delta: coord(rng).abs(),
                bounds: [0.0, 0.0, 14_142.0, 14_142.0],
            },
            2 => Frame::Register {
                queries: (0..rng.gen_range(0usize..20))
                    .map(|_| query().generate(rng))
                    .collect(),
            },
            3 => Frame::Batch {
                t: coord(rng),
                updates: (0..rng.gen_range(0usize..50))
                    .map(|_| update().generate(rng))
                    .collect(),
            },
            4 => Frame::EvalReq { t: coord(rng) },
            5 => Frame::EvalRes {
                t: coord(rng),
                round: rng.gen_range(0u64..=u64::MAX),
                results: rng.gen_range(0u64..=u64::MAX),
                digest: rng.gen_range(0u64..=u64::MAX),
            },
            6 => Frame::WindowClose {
                t: coord(rng),
                window_s: rng.gen_range(1u32..3600) as f64,
            },
            7 => Frame::WindowAck {
                t: coord(rng),
                z: rng.gen_range(0u32..=100) as f64 / 100.0,
                lambda: coord(rng).abs(),
                mu: coord(rng).abs(),
                depth: rng.gen_range(0u64..=u64::MAX),
                dropped: rng.gen_range(0u64..=u64::MAX),
                adapted: rng.gen_range(0u32..=1) as u8,
            },
            8 => Frame::Plan {
                epoch: rng.gen_range(0u64..=u64::MAX),
                t: coord(rng),
                default_delta: rng.gen_range(0u32..200) as f64,
                regions: plan_regions().generate(rng),
            },
            9 => Frame::SetSlice {
                slice: rng.gen_range(0u32..=u32::MAX),
                shard: rng.gen_range(0u32..=u32::MAX),
            },
            10 => Frame::Ack {
                of: rng.gen_range(0u32..=255) as u8,
            },
            11 => Frame::ReportReq,
            12 => Frame::ReportRes {
                json: ascii(rng, 200),
            },
            13 => Frame::Bye,
            _ => Frame::Error {
                code: rng.gen_range(0u32..=u16::MAX as u32) as u16,
                message: ascii(rng, 100),
            },
        }
    }
}

fn frame() -> impl Strategy<Value = Frame> {
    FrameStrat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_frame_roundtrips_bit_exactly(f in frame()) {
        let bytes = f.encode();
        let mut d = Decoder::new();
        d.push(&bytes);
        prop_assert_eq!(d.next(), Ok(Some(f)));
        prop_assert_eq!(d.next(), Ok(None));
        prop_assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn chunking_never_changes_the_decoded_stream(
        frames in prop::collection::vec(frame(), 1..6),
        chunk in 1usize..97,
    ) {
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend(f.encode());
        }
        let mut d = Decoder::new();
        let mut got = Vec::new();
        for piece in bytes.chunks(chunk) {
            d.push(piece);
            while let Some(f) = d.next().expect("valid stream") {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
    }

    #[test]
    fn truncation_waits_never_misdecodes(f in frame(), cut_frac in 0.0f64..1.0) {
        let bytes = f.encode();
        // Any strict prefix must yield "need more bytes", not a frame.
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let mut d = Decoder::new();
        d.push(&bytes[..cut]);
        prop_assert_eq!(d.next(), Ok(None));
        // Completing the stream recovers the exact frame.
        d.push(&bytes[cut..]);
        prop_assert_eq!(d.next(), Ok(Some(f)));
    }

    #[test]
    fn garbage_streams_error_or_wait_never_panic(
        raw in prop::collection::vec(0u32..256, 0..600),
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let mut d = Decoder::new();
        d.push(&bytes);
        // Drain until the decoder errors or runs dry; nothing may panic.
        loop {
            match d.next() {
                Ok(Some(_)) => {} // astronomically unlikely, but legal
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    #[test]
    fn header_corruption_is_detected(f in frame(), byte in 0usize..4, bit in 0u32..8) {
        let mut bytes = f.encode();
        bytes[byte] ^= 1u8 << bit;
        let mut d = Decoder::new();
        d.push(&bytes);
        match d.next() {
            // Magic/version/kind corruption must be caught.
            Err(
                WireError::BadMagic(_)
                | WireError::BadVersion(_)
                | WireError::UnknownKind(_)
                | WireError::Truncated { .. }
                | WireError::TrailingBytes { .. }
                | WireError::BadUtf8 { .. }
                | WireError::Oversize(_),
            ) => {}
            // Kind byte flipped to another *valid* kind: the payload
            // will usually mismatch, but a same-length layout can
            // decode — that's a semantic-layer concern, not framing.
            Ok(Some(g)) => prop_assert!(g.kind() != f.kind(), "kind must have changed"),
            Ok(None) => {} // corrupted length now promises more bytes
        }
    }

    #[test]
    fn plan_payloads_roundtrip_through_the_paper_codec(regions in plan_regions()) {
        let bounds = Rect::from_coords(0.0, 0.0, 20_000.0, 20_000.0);
        let plan = decode_plan(bounds, &regions, 5.0).expect("valid regions");
        let f = plan_frame(&plan, 1, 0.0, 5.0);
        let bytes = f.encode();
        let mut d = Decoder::new();
        d.push(&bytes);
        match d.next().unwrap().unwrap() {
            Frame::Plan { regions: got, .. } => {
                prop_assert_eq!(&got, &regions, "region bytes survive the frame");
                prop_assert_eq!(
                    decode_plan(bounds, &got, 5.0).unwrap().encode(),
                    plan.encode(),
                    "re-encode is a fixed point"
                );
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn inner_count_cannot_overrun_the_payload(
        updates in prop::collection::vec(update(), 1..10),
        bump in 1u32..1000,
    ) {
        let f = Frame::Batch { t: 0.0, updates: updates.clone() };
        let mut bytes = f.encode();
        let off = HEADER_LEN + 8; // after t
        let n = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        bytes[off..off + 4].copy_from_slice(&(n + bump).to_le_bytes());
        let mut d = Decoder::new();
        d.push(&bytes);
        prop_assert!(matches!(d.next(), Err(WireError::Truncated { .. })));
    }
}

/// One round of a digest history: the reports ingested before it
/// (`park` sends the node to [`PARKED`] instead), whether every node is
/// parked first (so lists empty, and refill as reports return), whether
/// the query set is replaced before it (the round is then a rebuild),
/// and the step in `t` (0 is a same-`t` round).
type Round = (Vec<(u32, f64, f64, f64, f64, bool)>, bool, bool, f64);

/// West and south of every [`folded`] query, which start at 0: a node
/// reported here at rest is in no list.
const PARKED: Point = Point {
    x: -100.0,
    y: -100.0,
};

fn digest_history() -> impl Strategy<Value = Vec<Round>> {
    let report = (
        0u32..200,
        0.0f64..1000.0,
        0.0f64..1000.0,
        -9.0f64..9.0,
        -9.0f64..9.0,
        (0u32..8).prop_map(|k| k == 0),
    );
    let round = (
        prop::collection::vec(report, 0..60),
        (0u32..6).prop_map(|k| k == 0),
        (0u32..8).prop_map(|k| k == 0),
        (0usize..6).prop_map(|i| [0.0, 0.0, 0.5, 1.0, 1.0, 3.0][i]),
    );
    prop::collection::vec(round, 1..12)
}

/// Random query rectangles a quarter of the generated size, folded into
/// the 1 km square.
fn folded(rects: &[WireQuery]) -> Vec<RangeQuery> {
    rects
        .iter()
        .map(|q| {
            WireQuery {
                min_x: q.min_x.rem_euclid(1000.0),
                min_y: q.min_y.rem_euclid(1000.0),
                max_x: q.min_x.rem_euclid(1000.0) + (q.max_x - q.min_x) * 0.25,
                max_y: q.min_y.rem_euclid(1000.0) + (q.max_y - q.min_y) * 0.25,
                ..*q
            }
            .to_query()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The served digest is folded by the engine as it writes its member
    /// lists (`evaluate_digest`); the frozen benchmark replica folds
    /// materialised results (`digest_round` over `evaluate_into`). Both
    /// chains must agree round for round, over random query sets, churn that empties lists and refills them, a
    /// query set replaced mid-run, and same-`t` and advancing rounds.
    #[test]
    fn evaluate_digest_folds_the_bytes_digest_round_folds(
        rects in prop::collection::vec(query(), 1..12),
        others in prop::collection::vec(query(), 1..12),
        history in digest_history(),
    ) {
        let (queries, others) = (folded(&rects), folded(&others));
        let mut server = CqServer::new(Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), 200, 0);
        server.register_queries(queries.iter().copied());
        let mut twin = server.clone();
        let (mut t, mut folded, mut copied) = (0.0, 0, 0);
        let mut materialised = Vec::new();
        for (r, (reports, wipe, requery, dt)) in history.iter().enumerate() {
            for both in [&mut server, &mut twin] {
                if *wipe {
                    for id in 0..200 {
                        both.ingest(id, t, PARKED, (0.0, 0.0));
                    }
                }
                if *requery {
                    let next = if r % 2 == 0 { &others } else { &queries };
                    both.replace_queries(next.iter().copied());
                }
                for &(id, x, y, vx, vy, park) in reports {
                    if park {
                        both.ingest(id, t, PARKED, (0.0, 0.0));
                    } else {
                        both.ingest(id, t, Point::new(x, y), (vx, vy));
                    }
                }
            }
            t += dt;
            twin.evaluate_into(t, &mut materialised);
            copied = digest_round(copied, t, &materialised);
            folded = server.evaluate_digest(t, folded);
            prop_assert_eq!(folded, copied, "round {}, t = {}", r, t);
        }
        // The member lists the fold left behind are the results.
        let mut after = Vec::new();
        server.evaluate_into(t, &mut after);
        prop_assert_eq!(after, materialised);
    }
}
