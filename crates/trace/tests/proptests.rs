//! Property tests: JSON codec round-trips over random traces, replay and
//! generator determinism, and decoders fed hostile bytes (truncated,
//! bit-flipped, arbitrary) returning errors, never panicking.

use netsmith_topo::json::Json;
use netsmith_trace::{SourceCursors, Trace, TraceMessage, TraceModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random valid trace: in-range distinct endpoints, flits >= 1,
/// non-decreasing issue cycles inside the horizon.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (2u32..24, 1u64..512, 0usize..64).prop_flat_map(|(routers, horizon, count)| {
        proptest::collection::vec(
            (0u32..routers, 1u32..routers, 1u32..10, 0u64..horizon),
            count,
        )
        .prop_map(move |raw| {
            let mut messages: Vec<TraceMessage> = raw
                .into_iter()
                .map(|(src, dst_off, flits, issue)| TraceMessage {
                    src,
                    dst: (src + dst_off) % routers,
                    flits,
                    issue,
                })
                .collect();
            messages.sort_by_key(|m| m.issue);
            Trace::new(routers, horizon, messages)
        })
    })
}

/// Run every decoder over the lossy UTF-8 text of `bytes`: the JSON tree
/// and trace JSON decoders.  Each may succeed or fail; a panic fails the
/// calling test.
fn decode_everything(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = Json::parse(&text);
    if let Ok(trace) = Trace::from_json_str(&text) {
        let _ = trace.validate();
    }
}

/// A random JSON document up to `depth` levels deep, covering every value
/// kind, numbers of either sign across the f64 range, and strings that need escapes
/// (quotes, backslashes, control and multi-byte characters).
fn random_json(rng: &mut SmallRng, depth: u32) -> Json {
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '€',
    ];
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => {
            let mantissa = rng.gen_range(-1_000_000i64..1_000_000) as f64;
            Json::Num(mantissa * 10f64.powi(rng.gen_range(-300..300)))
        }
        3 => Json::Str(
            (0..rng.gen_range(0..6))
                .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
                .collect(),
        ),
        4 => Json::Arr(
            (0..rng.gen_range(0..4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..4))
                .map(|i| (format!("k{i}"), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A random-length prefix of a valid encoding decodes to a value or an
    /// error.
    #[test]
    fn truncated_encodings_never_panic(trace in arb_trace(), keep in 0.0f64..1.0) {
        let bytes = trace.to_json_string().into_bytes();
        let cut = (bytes.len() as f64 * keep) as usize;
        decode_everything(&bytes[..cut]);
    }

    /// Valid encodings with a few flipped bits decode to a value or an
    /// error.
    #[test]
    fn bit_flipped_encodings_never_panic(
        trace in arb_trace(),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..8),
    ) {
        let mut bytes = trace.to_json_string().into_bytes();
        for &(at, bit) in &flips {
            let len = bytes.len();
            bytes[at % len] ^= 1 << bit;
        }
        decode_everything(&bytes);
    }

    /// Arbitrary bytes decode to a value or an error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        decode_everything(&bytes);
    }

    /// Random JSON documents round-trip, and every prefix of their text
    /// and a few bit-flipped copies decode to a value or an error.
    #[test]
    fn json_documents_round_trip_and_mutations_never_panic(
        seed in any::<u64>(),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        let doc = random_json(&mut SmallRng::seed_from_u64(seed), 4);
        let text = doc.to_string();
        prop_assert_eq!(Json::parse(&text), Ok(doc));
        let mut bytes = text.into_bytes();
        for cut in 0..bytes.len() {
            decode_everything(&bytes[..cut]);
        }
        for &(at, bit) in &flips {
            let len = bytes.len();
            bytes[at % len] ^= 1 << bit;
        }
        decode_everything(&bytes);
    }

    /// The JSON codec reproduces the trace bit-for-bit.
    #[test]
    fn codecs_round_trip(trace in arb_trace()) {
        trace.validate().unwrap();
        let back = Trace::from_json_str(&trace.to_json_string()).unwrap();
        prop_assert_eq!(&back, &trace);
    }

    /// Replay schedules are deterministic, and each source's due cycles
    /// are non-decreasing.
    #[test]
    fn replay_schedule_is_deterministic(trace in arb_trace(), load in 0.01f64..1.5) {
        let drain = |cursors: &mut SourceCursors<'_>| {
            let mut out = Vec::new();
            for src in 0..trace.header.routers as usize {
                while cursors.next_due(src).is_some_and(|due| due < 2048) {
                    let (due, m) = cursors.pop(src).unwrap();
                    out.push((due, *m));
                }
            }
            out
        };
        let a = drain(&mut SourceCursors::new(&trace, load));
        let b = drain(&mut SourceCursors::new(&trace, load));
        prop_assert_eq!(&a, &b);
        for pair in a.windows(2) {
            prop_assert!(pair[0].1.src != pair[1].1.src || pair[0].0 <= pair[1].0);
        }
    }

    /// Generators are pure in (model, routers, horizon, seed).
    #[test]
    fn generators_are_seed_deterministic(
        seed in any::<u64>(),
        routers in 2u32..24,
        horizon in 64u64..512,
        which in 0usize..2,
    ) {
        let name = TraceModel::names()[which];
        let model = TraceModel::by_name(name).unwrap();
        let a = model.generate(routers, horizon, seed);
        let b = model.generate(routers, horizon, seed);
        prop_assert_eq!(&a, &b);
        a.validate().unwrap();
    }
}
