//! The broker-to-broker wire protocol: messages, a binary codec, and
//! transports.
//!
//! The paper's distributed brokers communicate exclusively by exchanging
//! messages over links. This module defines that protocol for real:
//!
//! * [`WireMessage`] — the control plane ([`Subscribe`](WireMessage::Subscribe),
//!   [`Unsubscribe`](WireMessage::Unsubscribe), [`Hello`](WireMessage::Hello) /
//!   [`Ack`](WireMessage::Ack) link setup) and the data plane
//!   ([`PublishBatch`](WireMessage::PublishBatch));
//! * [`Codec`] — a hand-rolled, length-prefixed binary encoding. Attribute
//!   names travel **by name** on the wire, never as process-local
//!   [`AttrId`]s, so frames are portable across processes with different
//!   interning histories. Decoding resolves each name through a
//!   codec-local name table (the process-global interner is consulted only
//!   on a table miss) and moves each decoded pair straight into the
//!   [`EventBatch`] arena; with an interned string-value cache, the
//!   steady-state `PublishBatch` path performs no per-event allocation;
//! * [`Transport`] — how frames move between brokers, with the in-memory
//!   [`ChannelTransport`] as the deterministic single-process
//!   implementation. A TCP transport is the designated extension point for
//!   multi-process deployments (see the README's "Wire protocol" section).
//!
//! ## Frame layout
//!
//! All integers are little-endian. One frame is:
//!
//! ```text
//! +----------+-----------+-------------------------+
//! | len: u32 | tag: u8   | payload (len-1 bytes)   |
//! +----------+-----------+-------------------------+
//! ```
//!
//! `len` counts the tag byte plus the payload. Payloads by tag:
//!
//! ```text
//! 0 Hello         broker: u32
//! 1 Ack           broker: u32
//! 2 Subscribe     id: u64, subscriber: u64, tree
//! 3 Unsubscribe   id: u64
//! 4 PublishBatch  count: u32, count * event
//! 5 SyncRequest   broker: u32
//! 6 SyncState     count: u32, count * (id: u64, subscriber: u64, tree)
//!
//! event  := id: u64, pairs: u16, pairs * (name: str16, value)
//! str16  := len: u16, utf-8 bytes          (attribute names)
//! value  := 0 bool: u8 | 1 int: i64 | 2 float: f64 bits | 3 str32
//! str32  := len: u32, utf-8 bytes          (string values)
//! tree   := 0 pred: name str16, op: u8, value
//!         | 1 and: n: u16, n * tree
//!         | 2 or:  n: u16, n * tree
//!         | 3 not: tree
//! ```
//!
//! Decoding validates every length, tag, and UTF-8 string and bounds tree
//! recursion ([`MAX_TREE_DEPTH`]), so truncated or garbage input yields a
//! [`CodecError`], never a panic or unbounded recursion.

use pubsub_core::{
    attr, AttrId, BrokerId, EventBatch, EventId, Expr, NodeKind, Operator, Predicate, SubscriberId,
    Subscription, SubscriptionId, SubscriptionTree, Value,
};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Deepest subscription tree the decoder accepts. Encoded trees are
/// recursive; bounding the depth keeps a garbage frame from overflowing the
/// stack. Real subscriptions are a handful of levels deep.
pub const MAX_TREE_DEPTH: usize = 64;

/// Bytes of the frame length prefix.
pub const FRAME_HEADER_LEN: usize = 4;

/// Maximum number of distinct string values a [`Codec`] caches. Closed
/// vocabularies (categories, conditions) stay far below this and decode
/// allocation-free forever; a high-cardinality stream (unique titles or
/// ids) flushes the cache when it fills instead of growing it — and pinning
/// its strings — without bound.
pub const STR_CACHE_MAX: usize = 8_192;

/// One message of the broker wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Link setup: a broker announces itself on a link.
    Hello {
        /// The sending broker.
        broker: BrokerId,
    },
    /// Link setup: the response to a [`Hello`](WireMessage::Hello).
    Ack {
        /// The responding broker.
        broker: BrokerId,
    },
    /// Control plane: register a subscription. Brokers flood this through
    /// the acyclic topology; each broker remembers the link it arrived on as
    /// the next hop towards the subscriber's home broker.
    Subscribe {
        /// The subscription (identity plus filter tree).
        subscription: Subscription,
    },
    /// Control plane: remove a subscription everywhere.
    Unsubscribe {
        /// The subscription to remove.
        id: SubscriptionId,
    },
    /// Data plane: a batch of event copies travelling over one link.
    PublishBatch {
        /// The events carried by this frame.
        events: EventBatch,
    },
    /// Recovery: a restarted broker asks a neighbor to replay the
    /// subscription state it should route towards that neighbor's side of
    /// the network. The neighbor answers with a
    /// [`SyncState`](WireMessage::SyncState).
    SyncRequest {
        /// The requesting (restarted) broker.
        broker: BrokerId,
    },
    /// Recovery: a neighbor's reply to a
    /// [`SyncRequest`](WireMessage::SyncRequest) — every subscription the
    /// requester must install as a remote entry pointing back over the
    /// arrival link. Registered without onward flooding (the rest of the
    /// network already has this state).
    SyncState {
        /// The subscriptions to install, in subscription-id order.
        subscriptions: Vec<Subscription>,
    },
}

/// The kind of a wire message, recoverable from an encoded frame without
/// decoding it ([`frame_kind`]). Transports and metrics use this to classify
/// traffic into control and data planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// [`WireMessage::Hello`]
    Hello,
    /// [`WireMessage::Ack`]
    Ack,
    /// [`WireMessage::Subscribe`]
    Subscribe,
    /// [`WireMessage::Unsubscribe`]
    Unsubscribe,
    /// [`WireMessage::PublishBatch`]
    PublishBatch,
    /// [`WireMessage::SyncRequest`]
    SyncRequest,
    /// [`WireMessage::SyncState`]
    SyncState,
}

impl WireKind {
    /// Returns `true` for data-plane frames (event traffic).
    pub fn is_data(self) -> bool {
        matches!(self, WireKind::PublishBatch)
    }
}

impl WireMessage {
    /// The kind of this message.
    pub fn kind(&self) -> WireKind {
        match self {
            WireMessage::Hello { .. } => WireKind::Hello,
            WireMessage::Ack { .. } => WireKind::Ack,
            WireMessage::Subscribe { .. } => WireKind::Subscribe,
            WireMessage::Unsubscribe { .. } => WireKind::Unsubscribe,
            WireMessage::PublishBatch { .. } => WireKind::PublishBatch,
            WireMessage::SyncRequest { .. } => WireKind::SyncRequest,
            WireMessage::SyncState { .. } => WireKind::SyncState,
        }
    }
}

/// Reads the kind of the first frame in `bytes` without decoding it.
/// Returns `None` if the buffer is too short to carry a tag or the tag is
/// unknown.
pub fn frame_kind(bytes: &[u8]) -> Option<WireKind> {
    match bytes.get(FRAME_HEADER_LEN)? {
        0 => Some(WireKind::Hello),
        1 => Some(WireKind::Ack),
        2 => Some(WireKind::Subscribe),
        3 => Some(WireKind::Unsubscribe),
        4 => Some(WireKind::PublishBatch),
        5 => Some(WireKind::SyncRequest),
        6 => Some(WireKind::SyncState),
        _ => None,
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer ended before the declared frame (or a field inside it).
    Truncated,
    /// An unknown message, value, or tree tag.
    UnknownTag(u8),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// The frame is structurally invalid (zero-child AND/OR, trailing bytes,
    /// over-deep tree, oversized counts).
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame is truncated"),
            CodecError::UnknownTag(tag) => write!(f, "unknown wire tag {tag}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The binary codec: encodes [`WireMessage`]s into length-prefixed frames
/// and decodes frames back.
///
/// The codec is a value (not a set of free functions) because decoding keeps
/// reusable state: a table of the attribute names last seen at each pair
/// position, and an interned cache of string *values*. Both make the
/// steady-state `PublishBatch` decode path allocation-free per event; the
/// scratch-reuse regression tests observe them through
/// [`scratch_capacity`](Codec::scratch_capacity) and
/// [`string_cache_misses`](Codec::string_cache_misses).
#[derive(Debug, Default)]
pub struct Codec {
    /// The name bytes last decoded at each pair position of an event, with
    /// their interned id. A stream of one schema repeats its names at the
    /// same positions, so a name whose bytes equal its position's entry
    /// resolves with no UTF-8 check and no global interner lock; any other
    /// name is validated, interned and replaces the entry. The interner is
    /// append-only, so a cached id never goes stale. Bounded by the widest
    /// event decoded (at most `u16::MAX` entries).
    names: Vec<(Box<[u8]>, AttrId)>,
    /// Interned string values: repeated `Str` payloads (categories, titles)
    /// resolve to the same `Arc<str>` with a refcount bump instead of a
    /// fresh allocation. Sized by the workload's string vocabulary, and
    /// flushed wholesale at [`STR_CACHE_MAX`] entries so an open-ended
    /// vocabulary cannot grow it (or pin string memory) without bound.
    str_cache: HashSet<Arc<str>>,
    /// Number of cache misses (each one allocation). Constant in steady
    /// state once the vocabulary has been seen.
    str_cache_misses: u64,
}

impl Codec {
    /// Creates a codec with empty caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity of the reusable decode scratch (the name table), for
    /// allocation-regression tests.
    pub fn scratch_capacity(&self) -> usize {
        self.names.capacity()
    }

    /// Number of distinct string values interned so far.
    pub fn string_cache_len(&self) -> usize {
        self.str_cache.len()
    }

    /// Number of string-value allocations since construction. Does not move
    /// in steady state.
    pub fn string_cache_misses(&self) -> u64 {
        self.str_cache_misses
    }

    // ------------------------------------------------------------------
    // Encoding
    // ------------------------------------------------------------------

    /// Appends one encoded frame for `message` to `out`.
    ///
    /// `out` is a caller-owned buffer: clearing and reusing it across calls
    /// makes steady-state encoding allocation-free. Returns the number of
    /// bytes appended (the frame length).
    pub fn encode_into(&mut self, message: &WireMessage, out: &mut Vec<u8>) -> usize {
        let frame_start = out.len();
        out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]); // length backpatched below
        match message {
            WireMessage::Hello { broker } => {
                out.push(0);
                out.extend_from_slice(&broker.raw().to_le_bytes());
            }
            WireMessage::Ack { broker } => {
                out.push(1);
                out.extend_from_slice(&broker.raw().to_le_bytes());
            }
            WireMessage::Subscribe { subscription } => {
                out.push(2);
                out.extend_from_slice(&subscription.id().raw().to_le_bytes());
                out.extend_from_slice(&subscription.subscriber().raw().to_le_bytes());
                encode_tree(subscription.tree(), out);
            }
            WireMessage::Unsubscribe { id } => {
                out.push(3);
                out.extend_from_slice(&id.raw().to_le_bytes());
            }
            WireMessage::PublishBatch { events } => {
                self.encode_publish_batch_body(events, None, out);
            }
            WireMessage::SyncRequest { broker } => {
                out.push(5);
                out.extend_from_slice(&broker.raw().to_le_bytes());
            }
            WireMessage::SyncState { subscriptions } => {
                out.push(6);
                let count =
                    u32::try_from(subscriptions.len()).expect("sync state exceeds u32 entries");
                out.extend_from_slice(&count.to_le_bytes());
                for subscription in subscriptions {
                    out.extend_from_slice(&subscription.id().raw().to_le_bytes());
                    out.extend_from_slice(&subscription.subscriber().raw().to_le_bytes());
                    encode_tree(subscription.tree(), out);
                }
            }
        }
        backpatch_len(out, frame_start);
        out.len() - frame_start
    }

    /// Appends one encoded `Subscribe` frame for the given subscription.
    ///
    /// Equivalent to `encode_into(&WireMessage::Subscribe { .. })` but
    /// without cloning the subscription into a message value — this is what
    /// the durable log's append path uses.
    pub fn encode_subscribe(&mut self, subscription: &Subscription, out: &mut Vec<u8>) -> usize {
        let frame_start = out.len();
        out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        out.push(2);
        out.extend_from_slice(&subscription.id().raw().to_le_bytes());
        out.extend_from_slice(&subscription.subscriber().raw().to_le_bytes());
        encode_tree(subscription.tree(), out);
        backpatch_len(out, frame_start);
        out.len() - frame_start
    }

    /// Appends one encoded `PublishBatch` frame carrying the whole batch.
    ///
    /// Equivalent to `encode_into(&WireMessage::PublishBatch { .. })` but
    /// without moving the batch into a message value — this is what the hop
    /// loop of the simulation and the benchmarks use.
    pub fn encode_publish_batch(&mut self, batch: &EventBatch, out: &mut Vec<u8>) -> usize {
        self.encode_publish_batch_indexes(batch, None, out)
    }

    /// Appends one encoded `PublishBatch` frame carrying only the events of
    /// `batch` selected by `indexes` (all events when `None`), reading the
    /// batch arena directly. Brokers use this to emit per-neighbor
    /// sub-batches without materializing them first.
    pub fn encode_publish_batch_indexes(
        &mut self,
        batch: &EventBatch,
        indexes: Option<&[usize]>,
        out: &mut Vec<u8>,
    ) -> usize {
        let frame_start = out.len();
        out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        self.encode_publish_batch_body(batch, indexes, out);
        backpatch_len(out, frame_start);
        out.len() - frame_start
    }

    fn encode_publish_batch_body(
        &mut self,
        batch: &EventBatch,
        indexes: Option<&[usize]>,
        out: &mut Vec<u8>,
    ) {
        out.push(4);
        let count = indexes.map_or(batch.len(), <[usize]>::len);
        let count = u32::try_from(count).expect("batch exceeds u32 events");
        out.extend_from_slice(&count.to_le_bytes());
        // One resolver for the whole frame: every attribute name lookup of
        // the batch happens under a single lock acquisition.
        let resolver = attr::resolver();
        let mut encode_event = |index: usize| {
            let event = batch.event(index);
            out.extend_from_slice(&event.id().raw().to_le_bytes());
            let pairs = event.resolved_pairs();
            let npairs = u16::try_from(pairs.len()).expect("event exceeds u16 pairs");
            out.extend_from_slice(&npairs.to_le_bytes());
            for (id, value) in pairs {
                encode_str16(resolver.name(*id), out);
                encode_value(value, out);
            }
        };
        match indexes {
            Some(indexes) => indexes.iter().for_each(|&i| encode_event(i)),
            None => (0..batch.len()).for_each(&mut encode_event),
        }
    }

    // ------------------------------------------------------------------
    // Decoding
    // ------------------------------------------------------------------

    /// Decodes the first frame in `bytes`, returning the message and the
    /// number of bytes consumed (so callers can walk a buffer holding
    /// several frames).
    pub fn decode(&mut self, bytes: &[u8]) -> Result<(WireMessage, usize), CodecError> {
        let mut message = WireMessage::Ack {
            broker: BrokerId::from_raw(0),
        };
        let consumed = self.decode_into(bytes, &mut message)?;
        Ok((message, consumed))
    }

    /// Decodes the first frame in `bytes` into `message`, reusing the
    /// existing payload allocations where the variants line up: a
    /// `PublishBatch` decoded over a previous `PublishBatch` reuses the
    /// batch's buffers. Returns the bytes consumed. On error, a
    /// `PublishBatch` left in `message` is empty, its buffers kept.
    pub fn decode_into(
        &mut self,
        bytes: &[u8],
        message: &mut WireMessage,
    ) -> Result<usize, CodecError> {
        let result = self.decode_message(bytes, message);
        if let (Err(_), WireMessage::PublishBatch { events }) = (&result, message) {
            events.clear();
        }
        result
    }

    fn decode_message(
        &mut self,
        bytes: &[u8],
        message: &mut WireMessage,
    ) -> Result<usize, CodecError> {
        let body = frame_body(bytes)?;
        let consumed = FRAME_HEADER_LEN + body.len();
        let mut r = Reader::new(body);
        match r.u8()? {
            0 => {
                *message = WireMessage::Hello {
                    broker: BrokerId::from_raw(r.u32()?),
                };
            }
            1 => {
                *message = WireMessage::Ack {
                    broker: BrokerId::from_raw(r.u32()?),
                };
            }
            2 => {
                let id = SubscriptionId::from_raw(r.u64()?);
                let subscriber = SubscriberId::from_raw(r.u64()?);
                let expr = self.decode_tree(&mut r, 0)?;
                *message = WireMessage::Subscribe {
                    subscription: Subscription::new(
                        id,
                        subscriber,
                        SubscriptionTree::from_expr(&expr),
                    ),
                };
            }
            3 => {
                *message = WireMessage::Unsubscribe {
                    id: SubscriptionId::from_raw(r.u64()?),
                };
            }
            4 => {
                // Decode over the previous batch if the caller reuses one
                // message value across frames.
                if let WireMessage::PublishBatch { events } = message {
                    self.decode_batch_body(&mut r, events)?;
                } else {
                    let mut events = EventBatch::new();
                    self.decode_batch_body(&mut r, &mut events)?;
                    *message = WireMessage::PublishBatch { events };
                }
            }
            5 => {
                *message = WireMessage::SyncRequest {
                    broker: BrokerId::from_raw(r.u32()?),
                };
            }
            6 => {
                let count = r.u32()? as usize;
                // Each entry needs at least id + subscriber + one tree tag
                // on the wire; an absurd count is rejected before any
                // allocation is attempted.
                if count > r.remaining() / 17 {
                    return Err(CodecError::Malformed("sync count exceeds frame size"));
                }
                let mut subscriptions = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = SubscriptionId::from_raw(r.u64()?);
                    let subscriber = SubscriberId::from_raw(r.u64()?);
                    let expr = self.decode_tree(&mut r, 0)?;
                    subscriptions.push(Subscription::new(
                        id,
                        subscriber,
                        SubscriptionTree::from_expr(&expr),
                    ));
                }
                *message = WireMessage::SyncState { subscriptions };
            }
            tag => return Err(CodecError::UnknownTag(tag)),
        }
        r.finish()?;
        Ok(consumed)
    }

    /// Decodes the first frame — which must be a `PublishBatch` — straight
    /// into `batch` (replacing its contents and reusing its buffers).
    /// Returns the bytes consumed. On error, `batch` is left empty with its
    /// buffers kept.
    ///
    /// This is the data-plane hot path: hop-by-hop routing keeps one batch
    /// alive and re-decodes into it, performing no per-event allocation in
    /// steady state.
    pub fn decode_publish_batch_into(
        &mut self,
        bytes: &[u8],
        batch: &mut EventBatch,
    ) -> Result<usize, CodecError> {
        let result = frame_body(bytes).and_then(|body| {
            let mut r = Reader::new(body);
            match r.u8()? {
                4 => self.decode_batch_body(&mut r, batch)?,
                tag => return Err(CodecError::UnknownTag(tag)),
            }
            r.finish()?;
            Ok(FRAME_HEADER_LEN + body.len())
        });
        if result.is_err() {
            batch.clear();
        }
        result
    }

    fn decode_batch_body(
        &mut self,
        r: &mut Reader<'_>,
        batch: &mut EventBatch,
    ) -> Result<(), CodecError> {
        batch.clear();
        let count = r.u32()? as usize;
        // Each event needs at least its id and pair count on the wire; an
        // absurd count is rejected before any allocation is attempted.
        if count > r.remaining() / 10 {
            return Err(CodecError::Malformed("event count exceeds frame size"));
        }
        for _ in 0..count {
            let id = EventId::from_raw(r.u64()?);
            let npairs = r.u16()? as usize;
            batch.try_push_with(id, |pairs| {
                for position in 0..npairs {
                    let name = r.bytes16()?;
                    // The encoder always emits an event's pairs in strictly
                    // ascending attribute-name order (the `EventMessage`
                    // invariant); enforcing it here keeps corrupted frames
                    // from smuggling unsorted or duplicate attributes into
                    // the batch. Byte order is `str` order, and the entry
                    // at `position - 1` holds the previous pair's name.
                    if position > 0 && *self.names[position - 1].0 >= *name {
                        return Err(CodecError::Malformed(
                            "event attributes not strictly name-sorted",
                        ));
                    }
                    let attr = self.resolve_name(position, name)?;
                    pairs.push(attr, self.decode_value(r)?);
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// The attribute id of `name`, decoded at pair `position` of an event,
    /// through the name table (see [`Codec`]). Every entry at a lower
    /// position holds the current event's names.
    fn resolve_name(&mut self, position: usize, name: &[u8]) -> Result<AttrId, CodecError> {
        if let Some((cached, id)) = self.names.get(position) {
            if **cached == *name {
                return Ok(*id);
            }
        }
        let id = attr::intern(std::str::from_utf8(name).map_err(|_| CodecError::BadUtf8)?);
        let entry = (Box::from(name), id);
        match self.names.get_mut(position) {
            Some(slot) => *slot = entry,
            None => self.names.push(entry),
        }
        Ok(id)
    }

    fn decode_value(&mut self, r: &mut Reader<'_>) -> Result<Value, CodecError> {
        match r.u8()? {
            0 => match r.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                _ => Err(CodecError::Malformed("boolean byte is not 0 or 1")),
            },
            1 => Ok(Value::Int(i64::from_le_bytes(r.array()?))),
            2 => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(r.array()?)))),
            3 => {
                let s = r.str32()?;
                Ok(Value::Str(self.intern_str(s)))
            }
            tag => Err(CodecError::UnknownTag(tag)),
        }
    }

    /// Resolves a decoded string value through the cache: hits are a
    /// refcount bump, misses allocate once per distinct string. The cache is
    /// flushed when it reaches [`STR_CACHE_MAX`] entries.
    fn intern_str(&mut self, s: &str) -> Arc<str> {
        if let Some(cached) = self.str_cache.get(s) {
            return Arc::clone(cached);
        }
        if self.str_cache.len() >= STR_CACHE_MAX {
            self.str_cache.clear();
        }
        self.str_cache_misses += 1;
        let value: Arc<str> = Arc::from(s);
        self.str_cache.insert(Arc::clone(&value));
        value
    }

    fn decode_tree(&mut self, r: &mut Reader<'_>, depth: usize) -> Result<Expr, CodecError> {
        if depth >= MAX_TREE_DEPTH {
            return Err(CodecError::Malformed("subscription tree too deep"));
        }
        match r.u8()? {
            0 => {
                let name = r.str16()?;
                let attr_id = attr::intern(name);
                let op = Operator::from_wire_tag(r.u8()?)
                    .ok_or(CodecError::Malformed("unknown operator tag"))?;
                let value = self.decode_value(r)?;
                Ok(Expr::Pred(Predicate::with_attr_id(attr_id, op, value)))
            }
            tag @ (1 | 2) => {
                let n = r.u16()? as usize;
                if n == 0 {
                    return Err(CodecError::Malformed("AND/OR node with no children"));
                }
                if n > r.remaining() {
                    return Err(CodecError::Malformed("child count exceeds frame size"));
                }
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(self.decode_tree(r, depth + 1)?);
                }
                Ok(if tag == 1 {
                    Expr::and(children)
                } else {
                    Expr::or(children)
                })
            }
            3 => Ok(Expr::not(self.decode_tree(r, depth + 1)?)),
            tag => Err(CodecError::UnknownTag(tag)),
        }
    }
}

/// Splits off the body of the first frame in `bytes`, validating the length
/// prefix.
fn frame_body(bytes: &[u8]) -> Result<&[u8], CodecError> {
    let (len, rest) = bytes
        .split_first_chunk::<FRAME_HEADER_LEN>()
        .ok_or(CodecError::Truncated)?;
    let len = u32::from_le_bytes(*len) as usize;
    if len == 0 {
        return Err(CodecError::Malformed("empty frame body"));
    }
    rest.get(..len).ok_or(CodecError::Truncated)
}

/// Writes the body length of the frame starting at `frame_start` into its
/// length prefix.
fn backpatch_len(out: &mut [u8], frame_start: usize) {
    let body_len = out.len() - frame_start - FRAME_HEADER_LEN;
    let len = u32::try_from(body_len).expect("frame body exceeds u32 bytes");
    out[frame_start..frame_start + FRAME_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

fn encode_str16(s: &str, out: &mut Vec<u8>) {
    let len = u16::try_from(s.len()).expect("attribute name exceeds u16 bytes");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Bool(b) => {
            out.push(0);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            let len = u32::try_from(s.len()).expect("string value exceeds u32 bytes");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Writes `tree` in the wire's preorder — each node's header followed by its
/// children's subtrees — which is the order the tree stores its nodes in.
fn encode_tree(tree: &SubscriptionTree, out: &mut Vec<u8>) {
    for (id, n) in tree.node_ids().zip(tree.nodes()) {
        match n.kind() {
            NodeKind::Predicate(p) => {
                out.push(0);
                encode_str16(p.attribute(), out);
                out.push(p.operator().wire_tag());
                encode_value(p.constant(), out);
            }
            NodeKind::And | NodeKind::Or => {
                out.push(if matches!(n.kind(), NodeKind::And) {
                    1
                } else {
                    2
                });
                let count =
                    u16::try_from(tree.children(id).count()).expect("node exceeds u16 children");
                out.extend_from_slice(&count.to_le_bytes());
            }
            NodeKind::Not => out.push(3),
        }
    }
}

/// Little-endian cursor over one frame body.
struct Reader<'a> {
    /// The bytes not read yet.
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Fails unless the whole body has been read.
    fn finish(&self) -> Result<(), CodecError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes in frame"))
        }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let (&byte, rest) = self.rest.split_first().ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(byte)
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `str16` field's raw bytes, not yet checked for UTF-8.
    fn bytes16(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u16()? as usize;
        self.bytes(len)
    }

    fn str16(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes16()?).map_err(|_| CodecError::BadUtf8)
    }

    fn str32(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| CodecError::BadUtf8)
    }
}

// ----------------------------------------------------------------------
// Transport
// ----------------------------------------------------------------------

/// Moves encoded frames between brokers.
///
/// A well-behaved transport is a dumb pipe: it carries opaque byte frames
/// between link endpoints and neither decodes nor reorders them within one
/// link. `from == None` marks a frame injected by a local client (a
/// publisher or subscriber connected directly to `to`), which is not
/// inter-broker traffic. Fault-injecting transports
/// ([`FaultyTransport`](crate::FaultyTransport)) deliberately break the
/// dumb-pipe guarantees — dropping, duplicating, reordering, and corrupting
/// frames — which is exactly what the reliable-link layer
/// ([`reliable`](crate::reliable)) exists to mask.
///
/// # Quiescence contract
///
/// `is_idle` is a **protocol requirement**, not a hint: it must return
/// `true` only when *no* frame is buffered anywhere inside the transport —
/// including frames an implementation is holding back internally (delay
/// queues, reorder buffers, partially flushed sockets). The drain loops of
/// [`Simulation`](crate::Simulation) use it to decide that the network has
/// gone quiet; a transport that under-reports lets those loops terminate
/// early and lose frames. Equivalently: after `is_idle()` returns
/// `true`, `recv_into` must return `None` until the next `send`.
///
/// [`ChannelTransport`] is the in-memory implementation the deterministic
/// simulation runs on; a TCP transport slots in here for multi-process
/// deployments.
pub trait Transport: fmt::Debug {
    /// Queues one encoded frame for delivery to `to`.
    fn send(&mut self, from: Option<BrokerId>, to: BrokerId, frame: &[u8]);

    /// Dequeues the next frame in delivery order into `frame` (replacing its
    /// contents), returning the link it travelled. `None` when no frames are
    /// in flight.
    fn recv_into(&mut self, frame: &mut Vec<u8>) -> Option<(Option<BrokerId>, BrokerId)>;

    /// Returns `true` if no frames are queued — anywhere, including
    /// internal delay or reorder buffers (see the quiescence contract
    /// above).
    fn is_idle(&self) -> bool;
}

/// The in-memory transport: a FIFO of frames with a recycled buffer pool,
/// so steady-state send/recv cycles copy bytes but allocate nothing.
#[derive(Debug, Default)]
pub struct ChannelTransport {
    queue: std::collections::VecDeque<(Option<BrokerId>, BrokerId, Vec<u8>)>,
    pool: Vec<Vec<u8>>,
}

impl ChannelTransport {
    /// Creates an empty transport.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, from: Option<BrokerId>, to: BrokerId, frame: &[u8]) {
        let mut owned = self.pool.pop().unwrap_or_default();
        owned.clear();
        owned.extend_from_slice(frame);
        self.queue.push_back((from, to, owned));
    }

    fn recv_into(&mut self, frame: &mut Vec<u8>) -> Option<(Option<BrokerId>, BrokerId)> {
        let (from, to, mut owned) = self.queue.pop_front()?;
        std::mem::swap(frame, &mut owned);
        // `owned` now holds the caller's previous buffer; recycle it.
        if self.pool.len() < 32 {
            self.pool.push(owned);
        }
        Some((from, to))
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::{EventMessage, Expr};

    fn sample_subscription() -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(7),
            SubscriberId::from_raw(9),
            &Expr::or(vec![
                Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", 20i64),
                ]),
                Expr::not(Expr::eq("seller", "acme")),
            ]),
        )
    }

    fn sample_batch() -> EventBatch {
        (0..3)
            .map(|i| {
                EventMessage::builder()
                    .id(i as u64)
                    .attr("category", if i == 0 { "books" } else { "música" })
                    .attr("price", 9.5 + i as f64)
                    .attr("bids", i as i64)
                    .attr("buy_now", i % 2 == 0)
                    .build()
            })
            .collect()
    }

    fn roundtrip(message: &WireMessage) -> WireMessage {
        let mut codec = Codec::new();
        let mut buf = Vec::new();
        let written = codec.encode_into(message, &mut buf);
        assert_eq!(written, buf.len());
        let (back, consumed) = codec.decode(&buf).expect("frame decodes");
        assert_eq!(consumed, buf.len());
        back
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        let messages = [
            WireMessage::Hello {
                broker: BrokerId::from_raw(3),
            },
            WireMessage::Ack {
                broker: BrokerId::from_raw(4),
            },
            WireMessage::Subscribe {
                subscription: sample_subscription(),
            },
            WireMessage::Unsubscribe {
                id: SubscriptionId::from_raw(u64::MAX),
            },
            WireMessage::PublishBatch {
                events: sample_batch(),
            },
            WireMessage::PublishBatch {
                events: EventBatch::new(),
            },
            WireMessage::SyncRequest {
                broker: BrokerId::from_raw(5),
            },
            WireMessage::SyncState {
                subscriptions: vec![
                    sample_subscription(),
                    Subscription::from_expr(
                        SubscriptionId::from_raw(8),
                        SubscriberId::from_raw(1),
                        &Expr::gt("price", 3i64),
                    ),
                ],
            },
            WireMessage::SyncState {
                subscriptions: Vec::new(),
            },
        ];
        for message in &messages {
            assert_eq!(&roundtrip(message), message, "{:?}", message.kind());
        }
    }

    #[test]
    fn sync_frames_classify_as_control() {
        let mut codec = Codec::new();
        let mut buf = Vec::new();
        codec.encode_into(
            &WireMessage::SyncRequest {
                broker: BrokerId::from_raw(2),
            },
            &mut buf,
        );
        assert_eq!(frame_kind(&buf), Some(WireKind::SyncRequest));
        assert!(!WireKind::SyncRequest.is_data());
        buf.clear();
        codec.encode_into(
            &WireMessage::SyncState {
                subscriptions: vec![sample_subscription()],
            },
            &mut buf,
        );
        assert_eq!(frame_kind(&buf), Some(WireKind::SyncState));
        assert!(!WireKind::SyncState.is_data());
        // Truncations of a SyncState frame error out cleanly.
        for cut in 0..buf.len() {
            assert!(codec.decode(&buf[..cut]).is_err(), "cut {cut}");
        }
        // An absurd entry count is rejected before allocation.
        let mut bogus = vec![0u8; FRAME_HEADER_LEN];
        bogus.push(6);
        bogus.extend_from_slice(&u32::MAX.to_le_bytes());
        backpatch_len(&mut bogus, 0);
        assert_eq!(
            codec.decode(&bogus).unwrap_err(),
            CodecError::Malformed("sync count exceeds frame size")
        );
    }

    #[test]
    fn frames_are_length_prefixed_and_walkable() {
        let mut codec = Codec::new();
        let mut buf = Vec::new();
        let first = codec.encode_into(
            &WireMessage::Hello {
                broker: BrokerId::from_raw(1),
            },
            &mut buf,
        );
        let _second = codec.encode_into(
            &WireMessage::Unsubscribe {
                id: SubscriptionId::from_raw(2),
            },
            &mut buf,
        );
        assert_eq!(frame_kind(&buf), Some(WireKind::Hello));
        let (a, consumed) = codec.decode(&buf).unwrap();
        assert_eq!(consumed, first);
        let (b, rest) = codec.decode(&buf[consumed..]).unwrap();
        assert_eq!(consumed + rest, buf.len());
        assert_eq!(a.kind(), WireKind::Hello);
        assert_eq!(b.kind(), WireKind::Unsubscribe);
        assert!(!a.kind().is_data());
        assert_eq!(frame_kind(&buf[consumed..]), Some(WireKind::Unsubscribe));
    }

    #[test]
    fn truncated_and_garbage_frames_error_out() {
        let mut codec = Codec::new();
        let mut buf = Vec::new();
        codec.encode_into(
            &WireMessage::PublishBatch {
                events: sample_batch(),
            },
            &mut buf,
        );
        // Every strict prefix must fail with Truncated (never panic).
        for cut in 0..buf.len() {
            let err = codec.decode(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::Malformed(_)),
                "cut {cut}: {err:?}"
            );
        }
        // Unknown message tag.
        let mut bad = buf.clone();
        bad[FRAME_HEADER_LEN] = 99;
        assert_eq!(codec.decode(&bad).unwrap_err(), CodecError::UnknownTag(99));
        assert_eq!(frame_kind(&bad), None);
        // Declared length longer than the buffer.
        let mut long = buf.clone();
        long[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(codec.decode(&long).unwrap_err(), CodecError::Truncated);
        // Zero-length body.
        assert_eq!(
            codec.decode(&0u32.to_le_bytes()).unwrap_err(),
            CodecError::Malformed("empty frame body")
        );
        // Trailing bytes inside the declared frame.
        let mut trailing = Vec::new();
        codec.encode_into(
            &WireMessage::Hello {
                broker: BrokerId::from_raw(1),
            },
            &mut trailing,
        );
        trailing.push(0xAB);
        backpatch_len(&mut trailing, 0);
        assert_eq!(
            codec.decode(&trailing).unwrap_err(),
            CodecError::Malformed("trailing bytes in frame")
        );
    }

    #[test]
    fn invalid_utf8_and_deep_trees_are_rejected() {
        let mut codec = Codec::new();
        // A Subscribe whose predicate name bytes are invalid UTF-8.
        let mut buf = Vec::new();
        codec.encode_into(
            &WireMessage::Subscribe {
                subscription: Subscription::from_expr(
                    SubscriptionId::from_raw(1),
                    SubscriberId::from_raw(1),
                    &Expr::eq("zz_wire_utf8", 1i64),
                ),
            },
            &mut buf,
        );
        // The name "zz_wire_utf8" starts right after tag+id+subscriber+node
        // tag+str16 len; corrupt its first byte to a lone continuation byte.
        let name_pos = FRAME_HEADER_LEN + 1 + 8 + 8 + 1 + 2;
        assert_eq!(&buf[name_pos..name_pos + 2], b"zz");
        buf[name_pos] = 0xFF;
        assert_eq!(codec.decode(&buf).unwrap_err(), CodecError::BadUtf8);

        // A tree nested beyond MAX_TREE_DEPTH.
        let mut expr = Expr::eq("a", 1i64);
        for _ in 0..MAX_TREE_DEPTH {
            expr = Expr::not(expr);
        }
        let mut deep = Vec::new();
        codec.encode_into(
            &WireMessage::Subscribe {
                subscription: Subscription::from_expr(
                    SubscriptionId::from_raw(1),
                    SubscriberId::from_raw(1),
                    &expr,
                ),
            },
            &mut deep,
        );
        assert_eq!(
            codec.decode(&deep).unwrap_err(),
            CodecError::Malformed("subscription tree too deep")
        );
    }

    #[test]
    fn publish_batch_decode_reuses_scratch_and_string_cache() {
        let mut codec = Codec::new();
        let batch = sample_batch();
        let mut frame = Vec::new();
        let mut decoded = EventBatch::new();

        // Warm-up: sizes the name table, the string cache, and the decode
        // batch (ids, spans and arena).
        frame.clear();
        codec.encode_publish_batch(&batch, &mut frame);
        codec
            .decode_publish_batch_into(&frame, &mut decoded)
            .unwrap();
        assert_eq!(decoded, batch);

        let frame_capacity = frame.capacity();
        let scratch_capacity = codec.scratch_capacity();
        let cache_misses = codec.string_cache_misses();
        let batch_capacity = decoded.capacity();
        assert!(cache_misses > 0);

        // Steady state: encode/decode cycles over the same vocabulary grow
        // nothing — no new string allocations, no scratch growth, no batch
        // arena growth.
        for _ in 0..5 {
            frame.clear();
            codec.encode_publish_batch(&batch, &mut frame);
            codec
                .decode_publish_batch_into(&frame, &mut decoded)
                .unwrap();
            assert_eq!(decoded, batch);
        }
        assert_eq!(frame.capacity(), frame_capacity, "encode buffer grew");
        assert_eq!(codec.scratch_capacity(), scratch_capacity);
        assert_eq!(codec.string_cache_misses(), cache_misses);
        assert_eq!(decoded.capacity(), batch_capacity, "decode batch grew");
    }

    #[test]
    fn unsorted_or_duplicate_attributes_are_rejected() {
        // Hand-build a PublishBatch frame whose event carries attributes out
        // of name order: one event, two pairs ("b" then "a"), int values. A
        // corrupted-but-valid-UTF-8 frame must produce an error, never an
        // invariant-breaking event (or a debug panic).
        let mut codec = Codec::new();
        let pair = |name: &str, value: i64| {
            let mut out = Vec::new();
            encode_str16(name, &mut out);
            encode_value(&Value::Int(value), &mut out);
            out
        };
        let build = |names: [&str; 2]| {
            let mut frame = vec![0u8; FRAME_HEADER_LEN];
            frame.push(4); // PublishBatch
            frame.extend_from_slice(&1u32.to_le_bytes()); // one event
            frame.extend_from_slice(&7u64.to_le_bytes()); // event id
            frame.extend_from_slice(&2u16.to_le_bytes()); // two pairs
            frame.extend_from_slice(&pair(names[0], 1));
            frame.extend_from_slice(&pair(names[1], 2));
            backpatch_len(&mut frame, 0);
            frame
        };
        let expected = CodecError::Malformed("event attributes not strictly name-sorted");
        assert_eq!(codec.decode(&build(["b", "a"])).unwrap_err(), expected);
        assert_eq!(codec.decode(&build(["a", "a"])).unwrap_err(), expected);
        // The sorted frame decodes fine.
        let (message, _) = codec.decode(&build(["a", "b"])).unwrap();
        let WireMessage::PublishBatch { events } = message else {
            panic!("expected a batch");
        };
        let event = events.event(0).to_message();
        assert_eq!(event.get("a"), Some(&Value::Int(1)));
        assert_eq!(event.get("b"), Some(&Value::Int(2)));
    }

    /// A one-event `PublishBatch` frame whose pairs carry the given raw
    /// name bytes (not necessarily UTF-8, sorted or unique) and int values.
    fn raw_publish_frame(names: &[&[u8]]) -> Vec<u8> {
        let mut frame = vec![0u8; FRAME_HEADER_LEN];
        frame.push(4);
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&7u64.to_le_bytes());
        frame.extend_from_slice(&(names.len() as u16).to_le_bytes());
        for (value, name) in names.iter().enumerate() {
            frame.extend_from_slice(&(name.len() as u16).to_le_bytes());
            frame.extend_from_slice(name);
            encode_value(&Value::Int(value as i64), &mut frame);
        }
        backpatch_len(&mut frame, 0);
        frame
    }

    /// The `(name, value)` pairs of the single event `frame` decodes to.
    fn decode_names(codec: &mut Codec, frame: &[u8]) -> Result<Vec<(String, Value)>, CodecError> {
        let mut batch = EventBatch::new();
        codec.decode_publish_batch_into(frame, &mut batch)?;
        let pairs = batch.event(0).resolved_pairs();
        Ok(pairs
            .iter()
            .map(|(id, value)| (attr::name(*id).to_owned(), value.clone()))
            .collect())
    }

    #[test]
    fn name_table_misses_resolve_the_name_on_the_wire() {
        let mut codec = Codec::new();
        // Warm the table with names at positions 0 and 1.
        let warm = raw_publish_frame(&[b"wn_alpha", b"wn_beta"]);
        for _ in 0..2 {
            let decoded = decode_names(&mut codec, &warm).unwrap();
            assert_eq!(decoded[0].0, "wn_alpha");
            assert_eq!(decoded[1].0, "wn_beta");
        }
        // One byte off at each cached position: the other attribute, never
        // the cached id.
        let decoded = decode_names(&mut codec, &raw_publish_frame(&[b"wn_alphb", b"wn_beta"]));
        assert_eq!(decoded.unwrap()[0].0, "wn_alphb");
        let decoded = decode_names(&mut codec, &raw_publish_frame(&[b"wn_alpha", b"wn_betb"]));
        assert_eq!(decoded.unwrap()[1].0, "wn_betb");
        // A name shifted to another position, and a shorter one sharing a
        // prefix with the cached entry.
        let decoded = decode_names(&mut codec, &raw_publish_frame(&[b"wn_a", b"wn_alpha"]));
        let names: Vec<String> = decoded.unwrap().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["wn_a", "wn_alpha"]);
        // And back: the table follows the stream.
        let decoded = decode_names(&mut codec, &warm).unwrap();
        assert_eq!((&*decoded[0].0, &*decoded[1].0), ("wn_alpha", "wn_beta"));
    }

    #[test]
    fn name_table_keeps_utf8_and_order_checks() {
        let mut codec = Codec::new();
        let mut decode = |names: &[&[u8]]| decode_names(&mut codec, &raw_publish_frame(names));
        decode(&[b"wn_delta", b"wn_gamma"]).unwrap();
        // Invalid UTF-8 of a cached name's length, at its position.
        assert_eq!(
            decode(&[b"wn_delt\xFF", b"wn_gamma"]),
            Err(CodecError::BadUtf8)
        );
        assert_eq!(
            decode(&[b"wn_delta", b"wn_gamm\xFF"]),
            Err(CodecError::BadUtf8)
        );
        // Unsorted and duplicate names whose every position is a table hit:
        // two valid events leave the table holding exactly those names.
        let unsorted = Err(CodecError::Malformed(
            "event attributes not strictly name-sorted",
        ));
        for names in [
            [b"wn_gamma".as_slice(), b"wn_delta"],
            [b"wn_delta", b"wn_delta"],
        ] {
            decode(&[b"wn_a", names[1]]).unwrap();
            decode(&[names[0]]).unwrap();
            assert_eq!(decode(&names), unsorted);
        }
        // The sorted frame still decodes after the failures.
        let decoded = decode(&[b"wn_delta", b"wn_gamma"]).unwrap();
        assert_eq!((&*decoded[0].0, &*decoded[1].0), ("wn_delta", "wn_gamma"));
    }

    #[test]
    fn failed_decode_leaves_an_empty_batch_with_its_capacity() {
        let mut codec = Codec::new();
        let batch = sample_batch();
        let mut frame = Vec::new();
        codec.encode_publish_batch(&batch, &mut frame);
        for cut in [frame.len() - 1, frame.len() - 20, FRAME_HEADER_LEN + 8] {
            // A truncated frame, and one truncated inside its declared body.
            let mut inner = frame[..cut].to_vec();
            backpatch_len(&mut inner, 0);
            for bad in [&frame[..cut], &inner[..]] {
                let mut decoded = batch.clone();
                let capacity = decoded.capacity();
                assert!(codec.decode_publish_batch_into(bad, &mut decoded).is_err());
                assert!(decoded.is_empty() && decoded.arena_pairs().is_empty());
                assert_eq!(decoded.capacity(), capacity);

                let mut message = WireMessage::PublishBatch {
                    events: batch.clone(),
                };
                assert!(codec.decode_into(bad, &mut message).is_err());
                let WireMessage::PublishBatch { events } = &message else {
                    panic!("the batch was not handed back");
                };
                assert!(events.is_empty() && events.arena_pairs().is_empty());
                assert_eq!(events.capacity(), capacity);
            }
        }
    }

    #[test]
    fn batches_built_by_push_decode_and_push_from_agree() {
        let messages: Vec<EventMessage> = (0..6)
            .map(|i| {
                let mut builder = EventMessage::builder()
                    .id(i as u64)
                    .attr("category", ["books", "music"][i % 2])
                    .attr("price", i as i64);
                if i % 3 == 0 {
                    builder = builder.attr("buy_now", true);
                }
                builder.build()
            })
            .collect();
        let pushed: EventBatch = messages.iter().cloned().collect();
        let mut codec = Codec::new();
        let mut frame = Vec::new();
        codec.encode_publish_batch(&pushed, &mut frame);
        let mut decoded = EventBatch::new();
        codec
            .decode_publish_batch_into(&frame, &mut decoded)
            .unwrap();
        let mut copied = EventBatch::new();
        for index in 0..pushed.len() {
            copied.push_from(&decoded, index);
        }
        for batch in [&decoded, &copied] {
            assert_eq!(batch, &pushed);
            assert_eq!(batch.arena_pairs(), pushed.arena_pairs());
            for (index, message) in messages.iter().enumerate() {
                assert_eq!(batch.event(index), pushed.event(index));
                assert_eq!(batch.resolved_pairs(index), message.resolved_pairs());
            }
        }
        // Each event's view round-trips to the message it was built from.
        let back: Vec<EventMessage> = decoded.iter().map(|event| event.to_message()).collect();
        assert_eq!(back, messages);
        // Clearing and refilling keeps every buffer.
        let capacity = (decoded.capacity(), copied.capacity());
        for _ in 0..3 {
            codec
                .decode_publish_batch_into(&frame, &mut decoded)
                .unwrap();
            copied.clear();
            for index in 0..decoded.len() {
                copied.push_from(&decoded, index);
            }
            assert_eq!(copied, pushed);
        }
        assert_eq!((decoded.capacity(), copied.capacity()), capacity);
    }

    #[test]
    fn string_cache_is_flushed_at_its_cap() {
        let mut codec = Codec::new();
        let mut frame = Vec::new();
        // Decode more distinct string values than the cache may hold; the
        // cache must flush instead of growing past the cap.
        for chunk in 0..3 {
            let batch: EventBatch = (0..STR_CACHE_MAX as u64)
                .map(|i| {
                    EventMessage::builder()
                        .id(i)
                        .attr("wp_category", format!("unique-{chunk}-{i}"))
                        .build()
                })
                .collect();
            frame.clear();
            codec.encode_publish_batch(&batch, &mut frame);
            let mut decoded = EventBatch::new();
            codec
                .decode_publish_batch_into(&frame, &mut decoded)
                .unwrap();
            assert_eq!(decoded.len(), STR_CACHE_MAX);
        }
        assert!(codec.string_cache_len() <= STR_CACHE_MAX);
        assert_eq!(codec.string_cache_misses(), 3 * STR_CACHE_MAX as u64);
    }

    #[test]
    fn decode_publish_batch_into_rejects_control_frames() {
        let mut codec = Codec::new();
        let mut buf = Vec::new();
        codec.encode_into(
            &WireMessage::Hello {
                broker: BrokerId::from_raw(1),
            },
            &mut buf,
        );
        let mut batch = EventBatch::new();
        assert_eq!(
            codec
                .decode_publish_batch_into(&buf, &mut batch)
                .unwrap_err(),
            CodecError::UnknownTag(0)
        );
    }

    #[test]
    fn names_travel_by_name_not_by_attr_id() {
        // The raw frame must contain the attribute names; a consumer with a
        // different interning history depends on it.
        let mut codec = Codec::new();
        let mut buf = Vec::new();
        codec.encode_publish_batch(&sample_batch(), &mut buf);
        for name in ["category", "price", "bids", "buy_now"] {
            assert!(
                buf.windows(name.len()).any(|w| w == name.as_bytes()),
                "frame does not carry the name {name:?}"
            );
        }
    }

    #[test]
    fn channel_transport_is_fifo_and_recycles_buffers() {
        let mut transport = ChannelTransport::new();
        assert!(transport.is_idle());
        let b = BrokerId::from_raw;
        transport.send(None, b(0), &[1, 2, 3]);
        transport.send(Some(b(0)), b(1), &[4, 5]);
        assert_eq!(transport.in_flight(), 2);
        let mut frame = Vec::new();
        assert_eq!(transport.recv_into(&mut frame), Some((None, b(0))));
        assert_eq!(frame, vec![1, 2, 3]);
        assert_eq!(transport.recv_into(&mut frame), Some((Some(b(0)), b(1))));
        assert_eq!(frame, vec![4, 5]);
        assert_eq!(transport.recv_into(&mut frame), None);
        assert!(transport.is_idle());
        // The recycled pool keeps steady-state send/recv allocation-free.
        for _ in 0..10 {
            transport.send(None, b(0), &[9; 16]);
            transport.recv_into(&mut frame);
        }
        let capacity = frame.capacity();
        for _ in 0..10 {
            transport.send(None, b(0), &[9; 16]);
            transport.recv_into(&mut frame);
        }
        assert_eq!(frame.capacity(), capacity);
    }

    #[test]
    fn codec_error_display_is_descriptive() {
        assert!(CodecError::Truncated.to_string().contains("truncated"));
        assert!(CodecError::UnknownTag(9).to_string().contains('9'));
        assert!(CodecError::BadUtf8.to_string().contains("UTF-8"));
        assert!(CodecError::Malformed("x").to_string().contains('x'));
    }
}
