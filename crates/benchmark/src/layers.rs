//! Per-layer probes: each layer's public functions driven directly, outside
//! the timed region, over the run's own inputs.
//!
//! The trace sees a hop as one interval; what the codec, the reliable
//! framing and the matcher each cost inside it cannot be observed from
//! outside while it runs. The matcher publishes its own clock
//! (`FilterStats::filter_time`); for the other layers the frames captured
//! during the first measured cycle are replayed through a fresh
//! [`Codec`] and a fresh [`ReliableSession`], and the run's subscription
//! records through a standalone [`DurableLog`]. What remains of the hop
//! time after subtracting them is the broker's routing work.

use crate::trace::CapturedFrame;
use crate::workloads::ControlOp;
use broker::reliable::{RELIABLE_OVERHEAD, TAG_ACK, TAG_DATA};
use broker::wire::FRAME_HEADER_LEN;
use broker::{
    Broker, BrokerId, Codec, DurabilityConfig, DurableLog, EngineConfig, EngineKind, NetworkStats,
    ReliableSession, RoutingTable, WireMessage,
};
use filtering::MatchingEngine;
use pubsub_core::analysis::Analyzer;
use pubsub_core::Subscription;
use std::time::{Duration, Instant};

/// Times `call` and adds the elapsed time to `total`.
fn timed<R>(total: &mut Duration, call: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = call();
    *total += start.elapsed();
    result
}

/// `pubsub_core::analysis`: normalizing every subscription of the workload.
pub fn analysis_normalize_s(subscriptions: &[Subscription]) -> f64 {
    let analyzer = Analyzer::new();
    let mut total = Duration::ZERO;
    for subscription in subscriptions {
        let _ = std::hint::black_box(timed(&mut total, || {
            analyzer.analyze_subscription(subscription)
        }));
    }
    total.as_secs_f64()
}

/// `filtering`: inserting every subscription into a standalone engine of
/// the workload's kind, then removing every one. Returns `(insert_s,
/// remove_s)`.
pub fn engine_insert_remove_s(kind: EngineKind, subscriptions: &[Subscription]) -> (f64, f64) {
    let mut engine =
        kind.build_with_config_and_capacity(EngineConfig::default(), subscriptions.len());
    let (mut insert, mut remove) = (Duration::ZERO, Duration::ZERO);
    for subscription in subscriptions {
        let subscription = subscription.clone();
        timed(&mut insert, || engine.insert(subscription));
    }
    for subscription in subscriptions {
        let _ = std::hint::black_box(timed(&mut remove, || engine.remove(subscription.id())));
    }
    (insert.as_secs_f64(), remove.as_secs_f64())
}

/// What replaying captured frames through the codec cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireReplay {
    /// Encoding the frames brokers sent to brokers (inside hops).
    pub encode_link_s: f64,
    /// Encoding the frames clients injected (before the first hop).
    pub encode_client_s: f64,
    /// Decoding every frame.
    pub decode_s: f64,
    /// String-cache misses of the steady-state pass.
    pub string_cache_misses: u64,
    /// Codec frames replayed.
    pub frames: u64,
}

/// The codec frame inside a captured frame; `None` for a reliable ack.
fn codec_frame(frame: &CapturedFrame) -> Option<&[u8]> {
    match frame.bytes.get(FRAME_HEADER_LEN) {
        Some(&TAG_ACK) => None,
        Some(&TAG_DATA) => frame.bytes.get(RELIABLE_OVERHEAD..),
        _ => Some(&frame.bytes),
    }
}

/// `broker::wire`: every captured codec frame decoded and re-encoded
/// through a fresh [`Codec`]. A first pass fills the string cache and
/// sizes the scratch buffers; the second pass is the one timed.
pub fn wire_replay(frames: &[CapturedFrame]) -> WireReplay {
    let mut codec = Codec::new();
    let mut message = WireMessage::Ack {
        broker: BrokerId::from_raw(0),
    };
    let mut out = Vec::new();
    let mut replay = WireReplay::default();
    for pass in 0..2 {
        let misses_before = codec.string_cache_misses();
        let (mut decode, mut encode_link, mut encode_client) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let mut replayed = 0u64;
        for frame in frames {
            let Some(inner) = codec_frame(frame) else {
                continue;
            };
            if timed(&mut decode, || codec.decode_into(inner, &mut message)).is_err() {
                continue;
            }
            out.clear();
            let encode = if frame.from.is_some() {
                &mut encode_link
            } else {
                &mut encode_client
            };
            timed(encode, || codec.encode_into(&message, &mut out));
            std::hint::black_box(&out);
            replayed += 1;
        }
        if pass == 1 {
            replay = WireReplay {
                encode_link_s: encode_link.as_secs_f64(),
                encode_client_s: encode_client.as_secs_f64(),
                decode_s: decode.as_secs_f64(),
                string_cache_misses: codec.string_cache_misses() - misses_before,
                frames: replayed,
            };
        }
    }
    replay
}

/// What replaying captured frames through the reliable layer cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReliableReplay {
    /// `wrap_send` over every data frame.
    pub wrap_s: f64,
    /// `recv` over every data frame and every ack it caused.
    pub recv_s: f64,
    /// Data frames replayed.
    pub data_frames: u64,
    /// Acks generated and fed back.
    pub ack_frames: u64,
}

/// `broker::reliable`: every captured data envelope's inner frame sent
/// through a fresh [`ReliableSession`] — `wrap_send` at the sender, `recv`
/// at the receiver, the resulting ack fed back to the sender's `recv`.
pub fn reliable_replay(frames: &[CapturedFrame]) -> ReliableReplay {
    let mut session = ReliableSession::new();
    let mut stats = NetworkStats::new();
    let mut outer = Vec::new();
    let mut delivered = Vec::new();
    let mut acks = Vec::new();
    let (mut wrap, mut recv) = (Duration::ZERO, Duration::ZERO);
    let mut replay = ReliableReplay::default();
    for frame in frames {
        let (Some(from), Some(&TAG_DATA)) = (frame.from, frame.bytes.get(FRAME_HEADER_LEN)) else {
            continue;
        };
        let inner = &frame.bytes[RELIABLE_OVERHEAD..];
        timed(&mut wrap, || {
            session.wrap_send(from, frame.to, inner, &mut outer, &mut stats)
        });
        timed(&mut recv, || {
            session.recv(
                from,
                frame.to,
                &outer,
                &mut delivered,
                &mut acks,
                &mut stats,
            )
        });
        replay.data_frames += 1;
        for (ack_from, ack_to, ack) in acks.drain(..) {
            timed(&mut recv, || {
                session.recv(
                    ack_from,
                    ack_to,
                    &ack,
                    &mut delivered,
                    &mut Vec::new(),
                    &mut stats,
                )
            });
            replay.ack_frames += 1;
        }
        delivered.clear();
    }
    replay.wrap_s = wrap.as_secs_f64();
    replay.recv_s = recv.as_secs_f64();
    replay
}

/// What journaling and replaying the run's subscription records cost one
/// broker.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DurabilityReplay {
    /// Appending every record, compacting whenever the log asks for it.
    pub append_s: f64,
    /// `Broker::recover()` on a fresh neighbor-less broker holding the log.
    pub replay_s: f64,
    /// Records the recovery applied.
    pub records_replayed: u64,
}

/// `broker::durability`: the population's `Subscribe` records followed by
/// the run's control operations, appended to a standalone in-memory
/// [`DurableLog`] the way a broker does it (`wants_compaction` → `compact`
/// over its table), then replayed by a fresh broker.
pub fn durability_replay(population: &[Subscription], ops: &[ControlOp]) -> DurabilityReplay {
    let mut log = DurableLog::in_memory(DurabilityConfig::new());
    // The table a compaction snapshots; kept in step outside the clock.
    let mut table = RoutingTable::new();
    let mut append = Duration::ZERO;
    let population = population.iter().cloned().map(ControlOp::Subscribe);
    for op in population.chain(ops.iter().cloned()) {
        match op {
            ControlOp::Subscribe(subscription) => {
                timed(&mut append, || log.append_subscribe(&subscription, None));
                table.add_local(subscription);
            }
            ControlOp::Unsubscribe(id) => {
                timed(&mut append, || log.append_unsubscribe(id, None));
                let _ = table.remove(id);
            }
        }
        if log.wants_compaction() {
            timed(&mut append, || log.compact(table.entries()));
        }
    }
    let mut broker = Broker::new(BrokerId::from_raw(0), Vec::new());
    broker.attach_durable_log(log);
    let mut replay = Duration::ZERO;
    let records_replayed = timed(&mut replay, || broker.recover());
    DurabilityReplay {
        append_s: append.as_secs_f64(),
        replay_s: replay.as_secs_f64(),
        records_replayed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, Scale};
    use crate::spec::Workload;
    use crate::workloads::{execute, prepare, Budget};

    #[test]
    fn replays_cover_the_captured_frames() {
        let mut inputs = generate(Workload::Line5Forward, 5, Scale::QUICK);
        let (harness, setup) = prepare(&inputs, true, false);
        let outcome = execute(&mut inputs, harness, setup, Budget::Cycles(2), 0);
        let (frames, roots) = outcome.trace.as_ref().unwrap().take_captured();
        // Exactly the first cycle is captured.
        assert_eq!(roots, inputs.sizes.steps_per_cycle as u64);
        assert!(!frames.is_empty());

        let wire = wire_replay(&frames);
        let reliable = reliable_replay(&frames);
        // Every frame is a client injection, a reliable data envelope or an
        // ack; the first two carry a codec frame.
        let acks = frames
            .iter()
            .filter(|frame| codec_frame(frame).is_none())
            .count() as u64;
        assert_eq!(wire.frames + acks, frames.len() as u64);
        assert_eq!(reliable.ack_frames, acks);
        assert_eq!(reliable.data_frames, reliable.ack_frames);
        assert!(wire.decode_s > 0.0 && wire.encode_link_s > 0.0 && wire.encode_client_s > 0.0);
        assert!(reliable.wrap_s > 0.0 && reliable.recv_s > 0.0);
    }

    #[test]
    fn durability_replay_recovers_every_live_record() {
        let inputs = generate(Workload::Line5Churn, 5, Scale::QUICK);
        let removed = inputs.subscriptions[0].id();
        let ops = [ControlOp::Unsubscribe(removed)];
        let replay = durability_replay(&inputs.subscriptions, &ops);
        assert!(replay.append_s > 0.0 && replay.replay_s > 0.0);
        // 100 subscribes + 1 unsubscribe with compaction every 64 records:
        // the snapshot holds 64 entries, the log tail the other 37 records.
        assert_eq!(replay.records_replayed, 101);
    }

    #[test]
    fn engine_and_analysis_probes_run_over_the_population() {
        let inputs = generate(Workload::SingleAtree100k, 5, Scale::QUICK);
        let (insert_s, remove_s) = engine_insert_remove_s(EngineKind::ATree, &inputs.subscriptions);
        assert!(insert_s > 0.0 && remove_s > 0.0);
        assert!(analysis_normalize_s(&inputs.subscriptions) > 0.0);
    }
}
