//! Property tests for the wire codec: arbitrary `WireMessage`s — deep
//! subscription trees, every `Value` variant including unicode strings,
//! empty and large batches — must encode→decode to equality, and truncated
//! or corrupted frames must fail with a `CodecError`, never a panic.

use broker::wire::{frame_kind, Codec, WireMessage};
use broker::BrokerId;
use proptest::prelude::*;
use pubsub_core::analysis::Analyzer;
use pubsub_core::{
    EventBatch, EventMessage, Expr, Operator, Predicate, SubscriberId, Subscription,
    SubscriptionId, SubscriptionTree, Value,
};

/// Attribute names are drawn from a fixed pool: the process-global interner
/// is append-only, so unbounded random names would grow it without bound.
/// The pool mixes ASCII and multi-byte unicode names.
const ATTR_POOL: &[&str] = &[
    "wp_category",
    "wp_price",
    "wp_bids",
    "wp_βeta",
    "wp_東京",
    "wp_🚀",
    "a",
];

/// Alphabet for string values — ASCII, accented, CJK, and emoji code
/// points, so multi-byte UTF-8 boundaries are exercised.
const STR_ALPHABET: &[char] = &[
    'a', 'b', 'z', ' ', 'é', 'λ', '東', '京', '🚀', 'Ω', '"', '\\',
];

fn string_value() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..STR_ALPHABET.len(), 0..=12)
        .prop_map(|picks| picks.into_iter().map(|i| STR_ALPHABET[i]).collect())
}

fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        prop::bool::ANY.prop_map(Value::Bool).boxed(),
        (i64::MIN..=i64::MAX).prop_map(Value::Int).boxed(),
        (-1.0e12..1.0e12).prop_map(Value::Float).boxed(),
        string_value().prop_map(Value::from).boxed(),
    ]
    .boxed()
}

fn attr_name() -> impl Strategy<Value = &'static str> {
    (0usize..ATTR_POOL.len()).prop_map(|i| ATTR_POOL[i])
}

fn predicate() -> impl Strategy<Value = Predicate> {
    (attr_name(), 0usize..Operator::ALL.len(), value())
        .prop_map(|(name, op, value)| Predicate::new(name, Operator::ALL[op], value))
}

fn expr() -> BoxedStrategy<Expr> {
    predicate()
        .prop_map(Expr::Pred)
        .boxed()
        .prop_recursive(5, 32, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 1..=3).prop_map(Expr::and),
                prop::collection::vec(inner.clone(), 1..=3).prop_map(Expr::or),
                inner.prop_map(Expr::not),
            ]
        })
}

/// Analyzer-normalized expressions: arbitrary expressions run through the
/// registration-time analyzer — folded constants, flattened `And`/`Or`
/// nests, deduplicated subtrees — falling back to a plain predicate when the
/// random draw is unsatisfiable. This is exactly the shape the broker
/// floods after ingress normalization, so the codec must carry it.
fn normalized_expr() -> impl Strategy<Value = Expr> {
    expr().prop_map(|expr| {
        let tree = SubscriptionTree::from_expr(&expr);
        match Analyzer::new().analyze_tree(&tree).tree {
            Some(normalized) => normalized.to_expr(),
            None => Expr::eq("a", 1i64),
        }
    })
}

/// Redundancy-heavy expressions whose normal form exercises equality-set
/// fusion and flattening: nested `Or`s of equalities over one attribute,
/// duplicated conjuncts, and a redundant range pair, all over an arbitrary
/// base expression.
fn fused_expr() -> impl Strategy<Value = Expr> {
    (prop::collection::vec(value(), 1..=6), expr()).prop_map(|(constants, base)| {
        let equalities: Vec<Expr> = constants
            .into_iter()
            .map(|v| Expr::Pred(Predicate::new("wp_price", Operator::Eq, v)))
            .collect();
        Expr::or(vec![
            Expr::or(equalities.clone()),
            Expr::or(equalities),
            Expr::and(vec![
                base.clone(),
                base,
                Expr::gt("wp_bids", 1i64),
                Expr::gt("wp_bids", 3i64),
            ]),
        ])
    })
}

fn event() -> impl Strategy<Value = EventMessage> {
    (
        0u64..=u64::MAX,
        prop::collection::vec((attr_name(), value()), 0..=7),
    )
        .prop_map(|(id, pairs)| {
            let mut builder = EventMessage::builder().id(id);
            for (name, value) in pairs {
                builder = builder.attr(name, value);
            }
            builder.build()
        })
}

/// Event schemas whose names stress a decoder's per-position name table:
/// shared prefixes (`ns_pri` / `ns_price` / `ns_price_max`), equal-length
/// names one byte apart (`ns_aaaa` / `ns_aaab`, and in the last byte of a
/// multi-byte character: `ns_βeta` / `ns_βetb`, `ns_東京` / `ns_東亰`,
/// `ns_🚀` / `ns_🚁`), and names that sit at different positions in
/// different schemas.
const SCHEMAS: &[&[&str]] = &[
    &["ns_price", "ns_price_max", "ns_title"],
    &["ns_pri", "ns_price", "ns_title"],
    &["ns_aaaa", "ns_aaab", "ns_price"],
    &["ns_aaab", "ns_aaac", "ns_βeta"],
    &["ns_βeta", "ns_βetb", "ns_東京"],
    &["ns_東亰", "ns_東京", "ns_🚀", "ns_🚁"],
];

/// An event of a random schema carrying a random subset of its names, so
/// a name also shifts position within its own schema.
fn schema_event() -> impl Strategy<Value = EventMessage> {
    (
        0..SCHEMAS.len(),
        0u8..16,
        0u64..=u64::MAX,
        prop::collection::vec(value(), 4),
    )
        .prop_map(|(schema, mask, id, values)| {
            let mut builder = EventMessage::builder().id(id);
            for (i, (name, value)) in SCHEMAS[schema].iter().zip(values).enumerate() {
                if mask & (1 << i) != 0 {
                    builder = builder.attr(*name, value);
                }
            }
            builder.build()
        })
}

fn batch() -> impl Strategy<Value = EventBatch> {
    prop::collection::vec(event(), 0..=16).prop_map(|events| events.into_iter().collect())
}

fn message() -> BoxedStrategy<WireMessage> {
    prop_oneof![
        (0u32..64)
            .prop_map(|b| WireMessage::Hello {
                broker: BrokerId::from_raw(b),
            })
            .boxed(),
        (0u32..64)
            .prop_map(|b| WireMessage::Ack {
                broker: BrokerId::from_raw(b),
            })
            .boxed(),
        (0u64..=u64::MAX, 0u64..=u64::MAX, expr())
            .prop_map(|(id, subscriber, expr)| WireMessage::Subscribe {
                subscription: Subscription::from_expr(
                    SubscriptionId::from_raw(id),
                    SubscriberId::from_raw(subscriber),
                    &expr,
                ),
            })
            .boxed(),
        (0u64..=u64::MAX)
            .prop_map(|id| WireMessage::Unsubscribe {
                id: SubscriptionId::from_raw(id),
            })
            .boxed(),
        batch()
            .prop_map(|events| WireMessage::PublishBatch { events })
            .boxed(),
        (0u32..64)
            .prop_map(|b| WireMessage::SyncRequest {
                broker: BrokerId::from_raw(b),
            })
            .boxed(),
        prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX, expr()), 0..=4)
            .prop_map(|entries| WireMessage::SyncState {
                subscriptions: entries
                    .into_iter()
                    .map(|(id, subscriber, expr)| {
                        Subscription::from_expr(
                            SubscriptionId::from_raw(id),
                            SubscriberId::from_raw(subscriber),
                            &expr,
                        )
                    })
                    .collect(),
            })
            .boxed(),
    ]
    .boxed()
}

proptest! {
    /// Encode→decode is the identity on arbitrary messages.
    #[test]
    fn arbitrary_messages_roundtrip(message in message()) {
        let mut codec = Codec::new();
        let mut frame = Vec::new();
        let written = codec.encode_into(&message, &mut frame);
        prop_assert_eq!(written, frame.len());
        let (back, consumed) = codec.decode(&frame)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(&back, &message);
        // A second roundtrip through a *different* codec (cold caches) must
        // agree too — the frame carries names, not process-local state.
        let mut fresh = Codec::new();
        let (again, _) = fresh.decode(&frame)
            .map_err(|e| TestCaseError::fail(format!("fresh decode failed: {e}")))?;
        prop_assert_eq!(&again, &message);
    }

    /// Every strict prefix of a valid frame is rejected with an error — the
    /// decoder never panics or fabricates a message from a short buffer.
    #[test]
    fn truncated_frames_are_rejected(message in message()) {
        let mut codec = Codec::new();
        let mut frame = Vec::new();
        codec.encode_into(&message, &mut frame);
        let step = (frame.len() / 37).max(1);
        for cut in (0..frame.len()).step_by(step).chain([frame.len() - 1]) {
            prop_assert!(
                codec.decode(&frame[..cut]).is_err(),
                "prefix of {} / {} bytes decoded", cut, frame.len()
            );
        }
    }

    /// Random garbage and single-byte corruptions never panic the decoder:
    /// every outcome is a clean `Ok` or `CodecError`.
    #[test]
    fn garbage_never_panics(
        garbage in prop::collection::vec(0u64..256, 0..=64),
        message in message(),
        flips in prop::collection::vec((0u64..=u64::MAX, 0u64..256), 1..=8),
    ) {
        let mut codec = Codec::new();
        let garbage: Vec<u8> = garbage.into_iter().map(|b| b as u8).collect();
        let _ = codec.decode(&garbage);

        // Corrupt single bytes of a valid frame.
        let mut frame = Vec::new();
        codec.encode_into(&message, &mut frame);
        let mut corrupted = frame.clone();
        for (pos, byte) in flips {
            let index = (pos % corrupted.len() as u64) as usize;
            corrupted[index] = byte as u8;
        }
        let _ = codec.decode(&corrupted);
    }

    /// Single-frame mutations — truncation, a one-bit flip anywhere, or
    /// swapping the tag byte for any tag value including the reserved
    /// reliable-layer tags — yield a `CodecError` or a semantically valid
    /// frame, never a panic. This holds for every message variant the
    /// strategy generates, including `SyncRequest`/`SyncState`.
    #[test]
    fn single_frame_mutations_never_panic(
        message in message(),
        cut in 0u64..=u64::MAX,
        flip in (0u64..=u64::MAX, 0u32..8),
        tag in 0u64..256,
    ) {
        let mut codec = Codec::new();
        let mut frame = Vec::new();
        codec.encode_into(&message, &mut frame);

        // Truncation at an arbitrary point.
        let cut = (cut % frame.len() as u64) as usize;
        prop_assert!(codec.decode(&frame[..cut]).is_err());

        // A single bit flip anywhere in the frame.
        let (pos, bit) = flip;
        let mut flipped = frame.clone();
        let index = (pos % flipped.len() as u64) as usize;
        flipped[index] ^= 1u8 << bit;
        if let Ok((mutant, consumed)) = codec.decode(&flipped) {
            // Anything that still decodes must re-encode cleanly: the
            // decoder only ever produces well-formed messages.
            prop_assert_eq!(consumed, flipped.len());
            let mut re_encoded = Vec::new();
            codec.encode_into(&mutant, &mut re_encoded);
        }

        // Swapping the tag re-interprets the payload under another schema
        // (or an unknown / reliable-layer tag); same contract.
        if frame.len() > 4 {
            let mut swapped = frame.clone();
            swapped[4] = tag as u8;
            if let Ok((mutant, _)) = codec.decode(&swapped) {
                let mut re_encoded = Vec::new();
                codec.encode_into(&mutant, &mut re_encoded);
            }
        }
    }

    /// `frame_kind` classifies without panicking on any buffer: short
    /// headers (fewer than the 5 bytes needed to read a tag) report `None`,
    /// as do unknown tags.
    #[test]
    fn frame_kind_handles_short_headers(
        bytes in prop::collection::vec(0u64..256, 0..=8),
        message in message(),
    ) {
        let raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let kind = frame_kind(&raw);
        if raw.len() < 5 {
            prop_assert!(kind.is_none(), "short header classified as {kind:?}");
        }
        // A valid frame always classifies, and as the right kind.
        let mut codec = Codec::new();
        let mut frame = Vec::new();
        codec.encode_into(&message, &mut frame);
        prop_assert_eq!(frame_kind(&frame), Some(message.kind()));
    }

    /// One long-lived codec decodes a random interleaving of frames from
    /// different schemas exactly: each frame decodes to what was encoded
    /// and to what a fresh codec (an empty name table) gives.
    #[test]
    fn one_codec_decodes_interleaved_schemas_exactly(
        frames in prop::collection::vec(prop::collection::vec(schema_event(), 1..=4), 1..=24),
    ) {
        let mut codec = Codec::new();
        let mut frame = Vec::new();
        let mut decoded = EventBatch::new();
        for events in frames {
            let batch: EventBatch = events.into_iter().collect();
            frame.clear();
            Codec::new().encode_publish_batch(&batch, &mut frame);
            codec.decode_publish_batch_into(&frame, &mut decoded)
                .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
            let mut fresh = EventBatch::new();
            Codec::new().decode_publish_batch_into(&frame, &mut fresh)
                .map_err(|e| TestCaseError::fail(format!("fresh decode failed: {e}")))?;
            prop_assert_eq!(&decoded, &fresh);
            prop_assert_eq!(&decoded, &batch);
        }
    }

    /// Subscribe frames carrying analyzer-normalized trees — the shape the
    /// broker actually floods — roundtrip exactly.
    #[test]
    fn normalized_subscriptions_roundtrip(
        id in 0u64..=u64::MAX,
        subscriber in 0u64..=u64::MAX,
        expr in normalized_expr(),
    ) {
        let message = WireMessage::Subscribe {
            subscription: Subscription::from_expr(
                SubscriptionId::from_raw(id),
                SubscriberId::from_raw(subscriber),
                &expr,
            ),
        };
        let mut codec = Codec::new();
        let mut frame = Vec::new();
        codec.encode_into(&message, &mut frame);
        let (back, consumed) = codec.decode(&frame)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(back, message);
    }

    /// Fused equality sets, folded duplicates, and collapsed ranges survive
    /// the codec, and the decoded tree is still in normal form: re-running
    /// the analyzer on what came off the wire is a no-op.
    #[test]
    fn normalized_trees_are_fixed_points_across_the_wire(expr in fused_expr()) {
        let analyzer = Analyzer::new();
        let Some(normalized) = analyzer.analyze_tree(&SubscriptionTree::from_expr(&expr)).tree
        else {
            // The random base made the whole draw unsatisfiable: fine,
            // nothing would ever be flooded for it.
            return Ok(());
        };
        let message = WireMessage::Subscribe {
            subscription: Subscription::from_expr(
                SubscriptionId::from_raw(7),
                SubscriberId::from_raw(7),
                &normalized.to_expr(),
            ),
        };
        let mut codec = Codec::new();
        let mut frame = Vec::new();
        codec.encode_into(&message, &mut frame);
        let (back, _) = codec.decode(&frame)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        let WireMessage::Subscribe { subscription } = back else {
            return Err(TestCaseError::fail("wrong message kind"));
        };
        let again = analyzer.analyze_tree(subscription.tree());
        prop_assert!(!again.report.changed, "normal form was not a fixed point");
        prop_assert_eq!(
            again.tree.expect("normal form stays satisfiable").to_expr(),
            subscription.tree().to_expr()
        );
    }
}

/// A deliberately large batch (beyond any strategy draw) roundtrips and the
/// decoder reproduces it into a reused batch without growth on the second
/// pass.
#[test]
fn large_batch_roundtrips() {
    let events: EventBatch = (0..4_000u64)
        .map(|i| {
            EventMessage::builder()
                .id(i)
                .attr("wp_category", if i % 2 == 0 { "books" } else { "東京" })
                .attr("wp_price", i as i64)
                .attr("wp_βeta", (i as f64) / 3.0)
                .build()
        })
        .collect();
    let mut codec = Codec::new();
    let mut frame = Vec::new();
    codec.encode_publish_batch(&events, &mut frame);
    let mut decoded = EventBatch::new();
    codec
        .decode_publish_batch_into(&frame, &mut decoded)
        .unwrap();
    assert_eq!(decoded, events);
    let capacity = decoded.capacity();
    codec
        .decode_publish_batch_into(&frame, &mut decoded)
        .unwrap();
    assert_eq!(decoded, events);
    assert_eq!(decoded.capacity(), capacity);
}
