//! The reliable-link layer: sequenced frames, cumulative acks,
//! retransmission with capped exponential backoff, and duplicate
//! suppression over arbitrary (faulty) [`Transport`](crate::wire::Transport)s.
//!
//! Codec frames ([`crate::wire`]) assume a dumb-pipe link. To survive a
//! lossy one, every broker→broker frame is wrapped into an **outer** frame
//! carrying a per-directed-link sequence number and a checksum:
//!
//! ```text
//! +----------+------+----------+----------+------------------------+
//! | len: u32 | 0xF0 | seq: u64 | crc: u64 | inner codec frame      |  Data
//! +----------+------+----------+----------+------------------------+
//! | len: u32 | 0xF1 | cum: u64 | crc: u64 |                        |  Ack
//! +----------+------+----------+----------+------------------------+
//! ```
//!
//! All integers are little-endian; `len` counts everything after itself.
//! The outer tags (`0xF0`/`0xF1`) are disjoint from every codec tag, so a
//! reliable frame can never be mistaken for a bare codec frame. The
//! checksum covers the tag, the sequence (or cumulative ack) number and the
//! inner frame, read as 8-byte words folded into two lanes of splitmix64
//! finalizer steps; together with the length check it rejects every error
//! confined to one 8-byte word. A frame failing it is dropped and healed by
//! retransmission.
//!
//! Protocol per directed link:
//!
//! * the sender stamps frames `1, 2, 3, …`, keeps a copy of every unacked
//!   frame, and retransmits copies whose deadline (in **virtual-time
//!   ticks**, driven by [`ReliableSession::tick`]) has passed, doubling the
//!   timeout per attempt up to a cap;
//! * the receiver delivers frames strictly in sequence order, buffers
//!   out-of-order arrivals (bounded), suppresses duplicates (`seq` below
//!   the next expected), and answers every data frame with a cumulative
//!   `Ack` confirming everything up to the highest
//!   in-sequence frame received;
//! * acks themselves are unreliable — a lost ack just means the sender
//!   retransmits and the receiver suppresses the duplicate and re-acks;
//! * a link marked **down** (its peer crashed) queues outgoing frames in a
//!   bounded pending buffer instead of transmitting; on overflow the oldest
//!   frames are preserved and the newest dropped, counted as
//!   `queue_drops`. When the peer restarts, both directions are reset to
//!   sequence 1 and the pending buffer is flushed through the normal
//!   sequencing path.
//!
//! The layer is plumbing-agnostic: it never touches a transport itself.
//! Methods return the outer frames to put on the wire, and the caller (the
//! [`Simulation`](crate::Simulation)) moves them. Counters land directly in
//! a [`NetworkStats`].

use crate::metrics::NetworkStats;
use pubsub_core::BrokerId;
use std::collections::{BTreeMap, VecDeque};

/// Outer-frame tag of a sequenced data frame.
pub const TAG_DATA: u8 = 0xF0;
/// Outer-frame tag of a cumulative ack.
pub const TAG_ACK: u8 = 0xF1;
/// Bytes the outer framing adds to an inner frame (length prefix, tag,
/// sequence number, checksum).
pub const RELIABLE_OVERHEAD: usize = 4 + 1 + 8 + 8;

/// Tuning knobs of a [`ReliableSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Retransmission timeout of the first attempt, in virtual-time ticks.
    pub base_rto: u64,
    /// Upper bound of the exponential backoff, in ticks.
    pub max_rto: u64,
    /// Maximum inner frames queued per down link before newest-frame drops
    /// begin (`queue_drops`).
    pub pending_cap: usize,
    /// Maximum out-of-order frames buffered per receiving link; frames
    /// beyond the window are dropped and retransmitted later.
    pub reorder_cap: usize,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self {
            base_rto: 4,
            max_rto: 64,
            pending_cap: 65_536,
            reorder_cap: 1_024,
        }
    }
}

/// What happened to a frame handed to [`ReliableSession::wrap_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The frame was wrapped into the caller's buffer and must be
    /// transmitted; the value is the on-wire length.
    Sent(usize),
    /// The link is down: the frame was queued for the flush after the peer
    /// restarts. The value is the length it will occupy on the wire.
    Queued(usize),
    /// The link is down and the pending buffer is full: the frame was
    /// dropped (`queue_drops` was incremented).
    Dropped,
}

/// A parsed outer frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Parsed {
    /// A sequenced data frame; the payload is the inner codec frame.
    Data { seq: u64, inner: (usize, usize) },
    /// A cumulative ack: everything up to and including `cum` arrived.
    Ack { cum: u64 },
    /// The frame failed structural or checksum validation.
    Corrupt,
}

/// An unacked data frame awaiting an ack (or a retransmission deadline).
#[derive(Debug)]
struct Unacked {
    seq: u64,
    inner: Vec<u8>,
    due: u64,
    attempts: u32,
}

/// Per-directed-link protocol state. The sender half lives in the `from`
/// broker's memory, the receiver half in the `to` broker's; a crash wipes
/// the crashed broker's halves ([`ReliableSession::crash_link`] /
/// [`ReliableSession::reset_link`]).
#[derive(Debug)]
struct LinkState {
    /// Sender: sequence number of the next fresh frame (0 ⇒ next is 1).
    sent: u64,
    /// Sender: copies of sent-but-unacked frames, oldest first (their
    /// sequence numbers ascend by one).
    unacked: VecDeque<Unacked>,
    /// Sender: frames queued while the link is down, oldest first.
    pending: VecDeque<Vec<u8>>,
    /// Sender: the link's peer is crashed; queue instead of transmitting.
    down: bool,
    /// Receiver: the next sequence number to deliver.
    expected: u64,
    /// Receiver: out-of-order frames ahead of `expected`.
    reorder: BTreeMap<u64, Vec<u8>>,
}

impl Default for LinkState {
    fn default() -> Self {
        Self {
            sent: 0,
            unacked: VecDeque::new(),
            pending: VecDeque::new(),
            down: false,
            // Sequence numbers start at 1; 0 on the wire marks corruption.
            expected: 1,
            reorder: BTreeMap::new(),
        }
    }
}

/// The reliable-link protocol state of a whole broker network: one
/// `LinkState` per directed link, plus the virtual clock driving
/// retransmission deadlines.
#[derive(Debug)]
pub struct ReliableSession {
    config: ReliableConfig,
    links: BTreeMap<(BrokerId, BrokerId), LinkState>,
    /// The virtual clock, advanced by [`tick`](Self::tick).
    now: u64,
}

impl ReliableSession {
    /// Creates a session with default tuning.
    pub fn new() -> Self {
        Self::with_config(ReliableConfig::default())
    }

    /// Creates a session with explicit tuning.
    pub fn with_config(config: ReliableConfig) -> Self {
        Self {
            config,
            links: BTreeMap::new(),
            now: 0,
        }
    }

    /// The session's tuning.
    pub fn config(&self) -> ReliableConfig {
        self.config
    }

    /// The current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    fn link(&mut self, from: BrokerId, to: BrokerId) -> &mut LinkState {
        self.links.entry((from, to)).or_default()
    }

    /// Wraps `inner` for the directed link `from → to`. On a live link the
    /// outer frame is appended to `out` (cleared first) and must be
    /// transmitted; on a down link the inner frame is queued (or dropped if
    /// the pending buffer is full).
    pub fn wrap_send(
        &mut self,
        from: BrokerId,
        to: BrokerId,
        inner: &[u8],
        out: &mut Vec<u8>,
        stats: &mut NetworkStats,
    ) -> SendOutcome {
        let base_rto = self.config.base_rto;
        let pending_cap = self.config.pending_cap;
        let now = self.now;
        let link = self.link(from, to);
        let wire_len = inner.len() + RELIABLE_OVERHEAD;
        if link.down {
            if link.pending.len() >= pending_cap {
                stats.queue_drops += 1;
                return SendOutcome::Dropped;
            }
            link.pending.push_back(inner.to_vec());
            return SendOutcome::Queued(wire_len);
        }
        link.sent += 1;
        let seq = link.sent;
        link.unacked.push_back(Unacked {
            seq,
            inner: inner.to_vec(),
            due: now + base_rto,
            attempts: 0,
        });
        encode_data(seq, inner, out);
        debug_assert_eq!(out.len(), wire_len);
        SendOutcome::Sent(wire_len)
    }

    /// Processes one received outer frame for the directed link
    /// `from → to`. In-order inner frames (including any reorder-buffer
    /// drain) are appended to `deliver` as owned buffers; if the frame calls
    /// for an ack, the ack frame for the *reverse* direction is appended to
    /// `acks` as `(to, from, frame)`.
    pub fn recv(
        &mut self,
        from: BrokerId,
        to: BrokerId,
        outer: &[u8],
        deliver: &mut Vec<Vec<u8>>,
        acks: &mut Vec<(BrokerId, BrokerId, Vec<u8>)>,
        stats: &mut NetworkStats,
    ) {
        let reorder_cap = self.config.reorder_cap;
        match parse(outer) {
            Parsed::Corrupt => {
                stats.corrupt_dropped += 1;
            }
            Parsed::Ack { cum } => {
                // An ack arriving over `from → to` confirms the data frames
                // `to` sent on the *reverse* link `to → from`.
                let link = self.link(to, from);
                // An ack confirming frames never sent is bogus; ignore it.
                if cum > link.sent {
                    return;
                }
                // Everything up to cum is done.
                while link.unacked.front().is_some_and(|u| u.seq <= cum) {
                    link.unacked.pop_front();
                }
            }
            Parsed::Data { seq, inner } => {
                let link = self.link(from, to);
                let inner = &outer[inner.0..inner.1];
                if seq < link.expected {
                    // Already delivered: a transport duplicate or a
                    // retransmission whose ack was lost. Suppress, re-ack.
                    stats.dup_suppressed += 1;
                } else if seq == link.expected {
                    link.expected += 1;
                    deliver.push(inner.to_vec());
                    // Drain the reorder buffer while it continues the run.
                    while let Some(buffered) = link.reorder.remove(&link.expected) {
                        link.expected += 1;
                        deliver.push(buffered);
                    }
                } else if link.reorder.contains_key(&seq) {
                    // Out of order and already buffered once.
                    stats.dup_suppressed += 1;
                } else if link.reorder.len() < reorder_cap {
                    link.reorder.insert(seq, inner.to_vec());
                }
                // else: beyond the buffer budget — drop silently, the
                // sender's retransmission will bring it back later.

                // Cumulative ack for the reverse direction: everything up
                // to `expected - 1` has been delivered in order.
                let cum = link.expected - 1;
                let mut frame = Vec::with_capacity(RELIABLE_OVERHEAD);
                encode_ack(cum, &mut frame);
                acks.push((to, from, frame));
            }
        }
    }

    /// Advances the virtual clock one tick and collects the retransmissions
    /// that came due as `(from, to, outer frame)` tuples. Each retransmitted
    /// frame doubles its next timeout up to the configured cap and bumps
    /// `stats.retransmits`.
    pub fn tick(
        &mut self,
        retransmit: &mut Vec<(BrokerId, BrokerId, Vec<u8>)>,
        stats: &mut NetworkStats,
    ) {
        self.now += 1;
        let now = self.now;
        let base_rto = self.config.base_rto;
        let max_rto = self.config.max_rto;
        for (&(from, to), link) in &mut self.links {
            if link.down {
                continue;
            }
            for unacked in &mut link.unacked {
                if unacked.due > now {
                    continue;
                }
                unacked.attempts += 1;
                let backoff = base_rto
                    .saturating_mul(1u64 << unacked.attempts.min(32))
                    .min(max_rto);
                unacked.due = now + backoff;
                let mut frame = Vec::with_capacity(unacked.inner.len() + RELIABLE_OVERHEAD);
                encode_data(unacked.seq, &unacked.inner, &mut frame);
                retransmit.push((from, to, frame));
                stats.retransmits += 1;
            }
        }
    }

    /// Returns `true` while any live link still has unacked frames — the
    /// signal that the drain loop must keep ticking. Down links do not
    /// count: their traffic waits for the peer to restart.
    pub fn has_unacked(&self) -> bool {
        self.links
            .values()
            .any(|link| !link.down && !link.unacked.is_empty())
    }

    /// Total frames queued on down links, across all links.
    pub fn pending_frames(&self) -> usize {
        self.links.values().map(|link| link.pending.len()).sum()
    }

    /// Marks the directed link `from → to` down because **`to` crashed**:
    /// the sender (`from`) is alive, so its unacked frames move to the front
    /// of the pending queue (oldest first) to be flushed after the restart,
    /// and the receiver state it tracked for the reverse direction is left
    /// to [`reset_link`](Self::reset_link).
    pub fn peer_crashed(&mut self, from: BrokerId, to: BrokerId) {
        let link = self.link(from, to);
        link.down = true;
        // Unacked frames are older than anything in pending; prepend in
        // descending seq order so the front ends up seq-ascending.
        for unacked in std::mem::take(&mut link.unacked).into_iter().rev() {
            link.pending.push_front(unacked.inner);
        }
    }

    /// Wipes the directed link `from → to` because **`from` crashed**: the
    /// sender state (sequence counter, unacked copies, pending queue) lived
    /// in the crashed broker's memory and is gone.
    pub fn crash_link(&mut self, from: BrokerId, to: BrokerId) {
        let link = self.link(from, to);
        link.down = true;
        link.sent = 0;
        link.unacked.clear();
        link.pending.clear();
    }

    /// Re-arms the directed link `from → to` after the crashed endpoint
    /// restarted: sequence numbers restart at 1 on both halves, the reorder
    /// buffer (receiver memory of a crashed `to`, or stale state of a
    /// crashed `from`) is cleared, and the link is marked up again. The
    /// pending queue survives — flush it with
    /// [`flush_pending`](Self::flush_pending) once the peer's routing state
    /// is resynced.
    pub fn reset_link(&mut self, from: BrokerId, to: BrokerId) {
        let link = self.link(from, to);
        link.down = false;
        link.sent = 0;
        link.unacked.clear();
        link.expected = 1;
        link.reorder.clear();
    }

    /// Sends every frame queued on `from → to` through the normal
    /// sequencing path, collecting the outer frames to transmit. Call this
    /// only after [`reset_link`](Self::reset_link) — flushing into a
    /// restarted peer whose routing state has not been resynced yet would
    /// deliver events it cannot route.
    pub fn flush_pending(
        &mut self,
        from: BrokerId,
        to: BrokerId,
        out: &mut Vec<(BrokerId, BrokerId, Vec<u8>)>,
        stats: &mut NetworkStats,
    ) {
        let queued = std::mem::take(&mut self.link(from, to).pending);
        let mut frame = Vec::new();
        for inner in queued {
            match self.wrap_send(from, to, &inner, &mut frame, stats) {
                SendOutcome::Sent(_) => out.push((from, to, frame.clone())),
                // The link was reset to up before flushing, so these arms
                // are unreachable unless the caller skipped reset_link.
                SendOutcome::Queued(_) | SendOutcome::Dropped => {}
            }
        }
    }
}

impl Default for ReliableSession {
    fn default() -> Self {
        Self::new()
    }
}

// ----------------------------------------------------------------------
// Outer framing
// ----------------------------------------------------------------------

/// Seed of the checksum's first lane.
const LANE_A: u64 = 0x9E37_79B9_7F4A_7C15;
/// Seed of the checksum's second lane.
const LANE_B: u64 = 0xD1B5_4A32_D192_ED03;

/// One lane step: the splitmix64 finalizer of `lane ^ word`. For a fixed
/// `lane` it is a bijection of `word`, and for a fixed `word` one of `lane`.
#[inline]
fn step(lane: u64, word: u64) -> u64 {
    let mut z = lane ^ word;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The frame checksum: two lanes over the payload's little-endian 8-byte
/// words, taken alternately (even words into lane A, odd words into lane
/// B) and zero-padded to a whole pair of words at the tail. Lane A is
/// seeded with `seq`, then with `tag` and the payload length; the result is
/// `step(a, b)`.
///
/// Every step is a bijection in the state and in the word, so a frame
/// differing from the sent one inside a single 8-byte word — every
/// single-bit and single-byte error — always fails the check, and the
/// non-linear step leaves no fixed bit pattern across words that cancels
/// out (as `(h ^ w) * K; h ^= h >> 32` does). The two independent lanes run
/// ~5× faster than byte-at-a-time FNV-1a. This is an error-*detection*
/// code, not an authentication tag; the value is host-independent, so both
/// ends of a link agree.
fn checksum(tag: u8, seq: u64, payload: &[u8]) -> u64 {
    let mut a = step(
        step(LANE_A, seq),
        (u64::from(tag) << 56) | payload.len() as u64,
    );
    let mut b = LANE_B;
    let mut mix = |pair: [u8; 16]| {
        let words = u128::from_le_bytes(pair);
        a = step(a, words as u64);
        b = step(b, (words >> 64) as u64);
    };
    let mut rest = payload;
    while let Some((pair, tail)) = rest.split_first_chunk::<16>() {
        mix(*pair);
        rest = tail;
    }
    if !rest.is_empty() {
        let mut padded = [0u8; 16];
        padded[..rest.len()].copy_from_slice(rest);
        mix(padded);
    }
    step(a, b)
}

/// Appends one outer data frame (cleared `out` first).
fn encode_data(seq: u64, inner: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let body_len = 1 + 8 + 8 + inner.len();
    out.extend_from_slice(
        &u32::try_from(body_len)
            .expect("frame fits u32")
            .to_le_bytes(),
    );
    out.push(TAG_DATA);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&checksum(TAG_DATA, seq, inner).to_le_bytes());
    out.extend_from_slice(inner);
}

/// Appends one outer ack frame (cleared `out` first).
fn encode_ack(cum: u64, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&(1u32 + 8 + 8).to_le_bytes());
    out.push(TAG_ACK);
    out.extend_from_slice(&cum.to_le_bytes());
    out.extend_from_slice(&checksum(TAG_ACK, cum, &[]).to_le_bytes());
}

/// Parses and validates one outer frame. Anything structurally off — short
/// buffer, length mismatch, unknown tag, checksum failure — is `Corrupt`;
/// the caller drops it and lets retransmission heal the link.
fn parse(outer: &[u8]) -> Parsed {
    let Some((declared, body)) = outer.split_first_chunk::<4>() else {
        return Parsed::Corrupt;
    };
    if u32::from_le_bytes(*declared) as usize != body.len() {
        return Parsed::Corrupt;
    }
    let Some((&tag, body)) = body.split_first() else {
        return Parsed::Corrupt;
    };
    let Some((seq, body)) = body.split_first_chunk::<8>() else {
        return Parsed::Corrupt;
    };
    let Some((crc, payload)) = body.split_first_chunk::<8>() else {
        return Parsed::Corrupt;
    };
    let (seq, crc) = (u64::from_le_bytes(*seq), u64::from_le_bytes(*crc));
    match tag {
        TAG_DATA => {
            if checksum(TAG_DATA, seq, payload) != crc || seq == 0 {
                Parsed::Corrupt
            } else {
                Parsed::Data {
                    seq,
                    inner: (RELIABLE_OVERHEAD, outer.len()),
                }
            }
        }
        TAG_ACK => {
            if !payload.is_empty() || checksum(TAG_ACK, seq, &[]) != crc {
                Parsed::Corrupt
            } else {
                Parsed::Ack { cum: seq }
            }
        }
        _ => Parsed::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BrokerId {
        BrokerId::from_raw(i)
    }

    fn wrap(session: &mut ReliableSession, inner: &[u8]) -> (Vec<u8>, NetworkStats) {
        let mut stats = NetworkStats::new();
        let mut out = Vec::new();
        let outcome = session.wrap_send(b(0), b(1), inner, &mut out, &mut stats);
        assert!(matches!(outcome, SendOutcome::Sent(_)));
        (out, stats)
    }

    #[test]
    fn data_frames_roundtrip_in_order() {
        let mut session = ReliableSession::new();
        let mut stats = NetworkStats::new();
        let mut deliver = Vec::new();
        let mut acks = Vec::new();
        for payload in [b"alpha".as_slice(), b"beta", b"gamma"] {
            let (frame, _) = wrap(&mut session, payload);
            session.recv(b(0), b(1), &frame, &mut deliver, &mut acks, &mut stats);
        }
        assert_eq!(
            deliver,
            vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]
        );
        assert_eq!(acks.len(), 3);
        // Acks are addressed to the reverse direction.
        assert_eq!(acks[0].0, b(1));
        assert_eq!(acks[0].1, b(0));
        assert_eq!(stats.dup_suppressed, 0);
        assert_eq!(stats.corrupt_dropped, 0);
        // Applying the final cumulative ack — which travels the reverse
        // link, 1 → 0 — clears the retransmit queue.
        assert!(session.has_unacked());
        let (ack_from, ack_to, ack) = acks.pop().unwrap();
        session.recv(ack_from, ack_to, &ack, &mut deliver, &mut acks, &mut stats);
        assert!(!session.has_unacked());
    }

    #[test]
    fn corruption_is_detected_at_every_byte() {
        let mut session = ReliableSession::new();
        let (frame, _) = wrap(&mut session, b"payload-bytes");
        for index in 0..frame.len() {
            for bit in 0..8 {
                let mut corrupted = frame.clone();
                corrupted[index] ^= 1 << bit;
                let mut stats = NetworkStats::new();
                let mut deliver = Vec::new();
                let mut acks = Vec::new();
                session.recv(b(0), b(1), &corrupted, &mut deliver, &mut acks, &mut stats);
                assert_eq!(
                    stats.corrupt_dropped, 1,
                    "flip at byte {index} bit {bit} was not detected"
                );
                assert!(deliver.is_empty());
                assert!(acks.is_empty());
            }
        }
        // Truncations are corrupt too (length mismatch).
        for cut in 0..frame.len() {
            let mut stats = NetworkStats::new();
            let mut deliver = Vec::new();
            let mut acks = Vec::new();
            session.recv(
                b(0),
                b(1),
                &frame[..cut],
                &mut deliver,
                &mut acks,
                &mut stats,
            );
            assert_eq!(stats.corrupt_dropped, 1, "cut {cut}");
        }
    }

    /// A seeded splitmix64 stream for the corruption sweeps.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            step(self.0, 0)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    #[test]
    fn checksum_catches_the_pattern_a_one_multiply_step_misses() {
        // With `h = (h ^ w) * K; h ^= h >> 32`, flipping bit 63 of a word
        // flips bits 63 and 31 of the state, which the same flips in the
        // next word folded into that state cancel exactly. `checksum` folds
        // word i + 1 into the other lane and word i + 2 into the same one;
        // the pattern must be caught at both gaps.
        fn one_multiply(payload: &[u8]) -> u64 {
            payload.chunks_exact(8).fold(LANE_A, |h, word| {
                let word = u64::from_le_bytes(word.try_into().unwrap());
                let h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^ (h >> 32)
            })
        }
        let mut rng = Rng(7);
        for trial in 0..1_000 {
            let gap = 1 + trial % 2;
            let words = 3 + rng.below(14);
            let payload = rng.bytes(8 * words);
            let word = rng.below(words - gap);
            let mut corrupted = payload.clone();
            corrupted[8 * word + 7] ^= 0x80; // bit 63 of word i
            corrupted[8 * (word + gap) + 7] ^= 0x80; // bit 63 of word i + gap
            corrupted[8 * (word + gap) + 3] ^= 0x80; // bit 31 of word i + gap
            if gap == 1 {
                assert_eq!(one_multiply(&corrupted), one_multiply(&payload));
            }
            assert_ne!(
                checksum(TAG_DATA, 1, &corrupted),
                checksum(TAG_DATA, 1, &payload),
                "trial {trial}: words {word} and {} cancelled",
                word + gap
            );
        }
    }

    #[test]
    fn random_multi_byte_corruptions_are_rejected() {
        let mut rng = Rng(2025);
        let (mut across_words, mut in_tail) = (0, 0);
        for trial in 0..12_000 {
            let len = 2 + rng.below(95);
            let payload = rng.bytes(len);
            let mut frame = Vec::new();
            encode_data(1 + rng.next() % 1_000, &payload, &mut frame);
            // 2–16 corrupted bytes in one run of the payload, each changed.
            let len = (2 + rng.below(15)).min(payload.len());
            let start = rng.below(payload.len() - len + 1);
            for byte in &mut frame[RELIABLE_OVERHEAD + start..][..len] {
                *byte ^= 1 + rng.below(255) as u8;
            }
            across_words += usize::from(start / 8 != (start + len - 1) / 8);
            in_tail += usize::from(start + len > payload.len() / 16 * 16);
            assert_eq!(parse(&frame), Parsed::Corrupt, "trial {trial} accepted");
        }
        assert!(
            across_words > 5_000 && in_tail > 2_000,
            "{across_words} {in_tail}"
        );
    }

    #[test]
    fn checksum_known_answers() {
        // Fixed values: a sender and a receiver on any host agree on them.
        assert_eq!(
            checksum(TAG_DATA, 1, b"payload-bytes"),
            0xA125_EC81_DA70_E959
        );
        assert_eq!(checksum(TAG_ACK, 42, &[]), 0x01FB_8D18_7A98_3ECC);
    }

    #[test]
    fn duplicates_are_suppressed_and_reacked() {
        let mut session = ReliableSession::new();
        let (frame, _) = wrap(&mut session, b"once");
        let mut stats = NetworkStats::new();
        let mut deliver = Vec::new();
        let mut acks = Vec::new();
        session.recv(b(0), b(1), &frame, &mut deliver, &mut acks, &mut stats);
        session.recv(b(0), b(1), &frame, &mut deliver, &mut acks, &mut stats);
        session.recv(b(0), b(1), &frame, &mut deliver, &mut acks, &mut stats);
        assert_eq!(deliver.len(), 1, "duplicate was delivered");
        assert_eq!(stats.dup_suppressed, 2);
        // Every copy triggered a (re-)ack so a lost ack heals.
        assert_eq!(acks.len(), 3);
    }

    #[test]
    fn out_of_order_frames_deliver_in_sequence() {
        let mut session = ReliableSession::new();
        let frames: Vec<Vec<u8>> = (0..4)
            .map(|i| wrap(&mut session, format!("frame-{i}").as_bytes()).0)
            .collect();
        let mut stats = NetworkStats::new();
        let mut deliver = Vec::new();
        let mut acks = Vec::new();
        // Arrival order 2, 0, 3, 1.
        for index in [2usize, 0, 3, 1] {
            session.recv(
                b(0),
                b(1),
                &frames[index],
                &mut deliver,
                &mut acks,
                &mut stats,
            );
        }
        let expected: Vec<Vec<u8>> = (0..4).map(|i| format!("frame-{i}").into_bytes()).collect();
        assert_eq!(deliver, expected);
        assert_eq!(stats.dup_suppressed, 0);
    }

    #[test]
    fn retransmission_backs_off_and_heals_loss() {
        let mut session = ReliableSession::new();
        let (_lost_frame, _) = wrap(&mut session, b"lost-on-the-wire");
        let mut stats = NetworkStats::new();
        let mut retransmit = Vec::new();
        // Nothing is due before the base RTO elapses.
        for _ in 0..session.config().base_rto - 1 {
            session.tick(&mut retransmit, &mut stats);
        }
        assert!(retransmit.is_empty());
        session.tick(&mut retransmit, &mut stats);
        assert_eq!(retransmit.len(), 1);
        assert_eq!(stats.retransmits, 1);
        let (from, to, copy) = retransmit.pop().unwrap();
        assert_eq!((from, to), (b(0), b(1)));
        // The copy is byte-identical to the original transmission and
        // delivers normally.
        let mut deliver = Vec::new();
        let mut acks = Vec::new();
        session.recv(b(0), b(1), &copy, &mut deliver, &mut acks, &mut stats);
        assert_eq!(deliver, vec![b"lost-on-the-wire".to_vec()]);
        // Ack it; the queue drains and ticking goes quiet.
        let (ack_from, ack_to, ack) = acks.pop().unwrap();
        session.recv(ack_from, ack_to, &ack, &mut deliver, &mut acks, &mut stats);
        assert!(!session.has_unacked());
        for _ in 0..200 {
            session.tick(&mut retransmit, &mut stats);
        }
        assert!(retransmit.is_empty());
        assert_eq!(stats.retransmits, 1);
    }

    #[test]
    fn unacked_frames_back_off_exponentially() {
        let mut session = ReliableSession::new();
        let (_frame, _) = wrap(&mut session, b"never-acked");
        let mut stats = NetworkStats::new();
        let mut retransmit = Vec::new();
        let mut due_ticks = Vec::new();
        for tick in 1..=200u64 {
            retransmit.clear();
            session.tick(&mut retransmit, &mut stats);
            if !retransmit.is_empty() {
                due_ticks.push(tick);
            }
        }
        // Gaps between retransmissions grow, capped at max_rto.
        let gaps: Vec<u64> = due_ticks.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.len() >= 3);
        for pair in gaps.windows(2) {
            assert!(pair[1] >= pair[0], "backoff shrank: {gaps:?}");
        }
        assert!(gaps.iter().all(|&g| g <= session.config().max_rto));
        assert_eq!(stats.retransmits, due_ticks.len() as u64);
    }

    #[test]
    fn bogus_acks_are_ignored() {
        let mut session = ReliableSession::new();
        let (_frame, _) = wrap(&mut session, b"outstanding");
        let mut ack = Vec::new();
        encode_ack(999, &mut ack); // confirms frames never sent
        let mut stats = NetworkStats::new();
        let mut deliver = Vec::new();
        let mut acks = Vec::new();
        session.recv(b(1), b(0), &ack, &mut deliver, &mut acks, &mut stats);
        assert!(session.has_unacked(), "bogus ack cleared the queue");
    }

    #[test]
    fn down_links_queue_and_flush_in_order() {
        let mut session = ReliableSession::new();
        let mut stats = NetworkStats::new();
        // One frame in flight when the peer crashes.
        let (_in_flight, _) = wrap(&mut session, b"frame-0");
        session.peer_crashed(b(0), b(1));
        // New sends queue instead of transmitting.
        let mut out = Vec::new();
        for i in 1..4 {
            let outcome = session.wrap_send(
                b(0),
                b(1),
                format!("frame-{i}").as_bytes(),
                &mut out,
                &mut stats,
            );
            assert!(matches!(outcome, SendOutcome::Queued(_)), "frame {i}");
        }
        assert_eq!(session.pending_frames(), 4); // 1 unacked + 3 queued
        assert!(!session.has_unacked(), "down links must not block draining");
        // Restart: reset, then flush — everything comes out re-sequenced
        // from 1, oldest first.
        session.reset_link(b(0), b(1));
        let mut flushed = Vec::new();
        session.flush_pending(b(0), b(1), &mut flushed, &mut stats);
        assert_eq!(flushed.len(), 4);
        let mut deliver = Vec::new();
        let mut acks = Vec::new();
        for (_, _, frame) in &flushed {
            session.recv(b(0), b(1), frame, &mut deliver, &mut acks, &mut stats);
        }
        let expected: Vec<Vec<u8>> = (0..4).map(|i| format!("frame-{i}").into_bytes()).collect();
        assert_eq!(deliver, expected);
        assert_eq!(stats.queue_drops, 0);
    }

    #[test]
    fn pending_overflow_drops_newest_and_counts() {
        let mut session = ReliableSession::with_config(ReliableConfig {
            pending_cap: 2,
            ..ReliableConfig::default()
        });
        let mut stats = NetworkStats::new();
        session.peer_crashed(b(0), b(1));
        let mut out = Vec::new();
        let outcomes: Vec<SendOutcome> = (0..4)
            .map(|i| {
                session.wrap_send(
                    b(0),
                    b(1),
                    format!("frame-{i}").as_bytes(),
                    &mut out,
                    &mut stats,
                )
            })
            .collect();
        assert!(matches!(outcomes[0], SendOutcome::Queued(_)));
        assert!(matches!(outcomes[1], SendOutcome::Queued(_)));
        assert_eq!(outcomes[2], SendOutcome::Dropped);
        assert_eq!(outcomes[3], SendOutcome::Dropped);
        assert_eq!(stats.queue_drops, 2);
        // The two oldest frames survived.
        session.reset_link(b(0), b(1));
        let mut flushed = Vec::new();
        session.flush_pending(b(0), b(1), &mut flushed, &mut stats);
        assert_eq!(flushed.len(), 2);
    }

    #[test]
    fn crash_link_wipes_sender_state() {
        let mut session = ReliableSession::new();
        let mut stats = NetworkStats::new();
        let (_frame, _) = wrap(&mut session, b"volatile");
        session.crash_link(b(0), b(1));
        assert!(!session.has_unacked());
        assert_eq!(session.pending_frames(), 0);
        // After reset the sequence space restarts at 1.
        session.reset_link(b(0), b(1));
        let mut out = Vec::new();
        session.wrap_send(b(0), b(1), b"fresh", &mut out, &mut stats);
        assert!(matches!(parse(&out), Parsed::Data { seq: 1, .. }));
    }

    #[test]
    fn sequence_zero_on_the_wire_is_corrupt() {
        // Seq 0 is never emitted; a frame claiming it is damaged goods.
        let mut frame = Vec::new();
        encode_data(0, b"x", &mut frame);
        assert_eq!(parse(&frame), Parsed::Corrupt);
    }

    #[test]
    fn reorder_cap_bounds_the_buffer() {
        let mut session = ReliableSession::with_config(ReliableConfig {
            reorder_cap: 2,
            ..ReliableConfig::default()
        });
        let frames: Vec<Vec<u8>> = (0..5)
            .map(|i| wrap(&mut session, format!("frame-{i}").as_bytes()).0)
            .collect();
        let mut stats = NetworkStats::new();
        let mut deliver = Vec::new();
        let mut acks = Vec::new();
        // Deliver 1..4 (seq 2..5) ahead of seq 1: only two fit the buffer.
        for frame in &frames[1..] {
            session.recv(b(0), b(1), frame, &mut deliver, &mut acks, &mut stats);
        }
        assert!(deliver.is_empty());
        // Seq 1 arrives: the run drains only as far as the buffer held.
        session.recv(b(0), b(1), &frames[0], &mut deliver, &mut acks, &mut stats);
        assert_eq!(deliver.len(), 3); // seq 1 + the two buffered
    }
}
