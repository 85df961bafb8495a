//! Matching-throughput panel: counting vs. naive engine across subscription
//! counts and event widths, reported as machine-readable JSON.
//!
//! This is the benchmark that tracks the hot-path performance trajectory of
//! the matcher over time. Unlike the criterion micro-benchmarks it emits a
//! single well-formed JSON document (`BENCH_matching.json` by default) so CI
//! and later sessions can diff the numbers.
//!
//! Usage:
//!
//! ```text
//! matching_panel [--quick] [--deep] [--out PATH] [--seed N]
//! ```
//!
//! `--quick` shrinks the panel to smoke-test sizes (used by CI); the default
//! panel matches 2,000 events against 1,000 and 10,000 subscriptions at full
//! (10-attribute) and narrow (4-attribute) event widths. `--deep` extends
//! the A-Tree series (below) to the million-subscription cell, which takes
//! minutes — it is opt-in and never run by CI.
//!
//! Besides the single-event panel (the `results` array, kept for trajectory
//! comparability with earlier sessions), the panel records a **batched**
//! paper-scale series (`batch_results`): the same events pre-chunked into
//! `EventBatch`es of size 1/16/256 and driven through `match_batch` with a
//! `CountSink` at the largest subscription count. The batch-size-1 cells
//! measure the batch API's fixed overhead against the single-event path; the
//! larger cells show the amortization the batch-first redesign buys.
//!
//! A `wire_results` series re-runs the batched cells with the broker wire
//! codec in the loop (encode `PublishBatch` frame → decode into a reused
//! batch → match), recording both the end-to-end cost of a broker hop and
//! the isolated encode+decode cost (`codec_ns_per_event`); the top-level
//! `codec_overhead_pct` field reports that overhead relative to pure match
//! time at the largest batch, and CI bounds it.
//!
//! A `reliable_results` series re-runs the wire cells with the reliable-link
//! layer wrapping every frame (sequence number, FNV checksum, cumulative ack
//! fed back to the sender). On a clean link nothing retransmits, so the cells
//! measure the fault-free cost of reliability; the top-level
//! `reliability_overhead_pct` reports the framing+codec cost relative to pure
//! match time at the largest batch, and CI bounds it alongside the codec
//! gate. A small lossy crash/restart probe also runs once and its
//! `NetworkStats` counters (`retransmits`, `dup_suppressed`,
//! `corrupt_dropped`, `resyncs`, `decode_errors`, `queue_drops`) are embedded
//! as `reliability_stats`, so CI can validate the observability fields carry
//! real values.
//!
//! A `prefilter_results` series measures the staged pipeline's stage-0
//! pre-filter: the uniform cell (the panel's own workload) and the skewed
//! hot-key cell (`WorkloadConfig::hot_key`: Zipf ~1.6 title popularity,
//! title-watcher-heavy subscriptions) are each matched with the pre-filter
//! forced on (with a sampled discrimination hint installed) and forced off,
//! at the largest subscription count. Each cell records the stage counters
//! (`killed_by_prefilter`, `stage2_candidates`) alongside ns/event; the
//! top-level `prefilter_speedup_hot_key` and `prefilter_overhead_uniform_pct`
//! fields condense the two comparisons into the figures CI gates on.
//!
//! A `durability_results` series measures the durable subscription log on
//! the broker subscribe path: the same subscriptions registered with the
//! journal detached (`journal_off`) and attached (`journal_on`), plus a
//! `replay` cell that rebuilds a fresh broker's routing table from the log
//! alone — recovery's step 0, what a whole-cluster restart leans on. The
//! top-level `durability_overhead_pct` condenses the on/off comparison into
//! the figure CI bounds.
//!
//! An `atree_results` series compares the counting engine against the
//! shared-subexpression `ATreeEngine` on a redundancy-heavy population
//! (the base workload's expressions cycled under fresh subscription ids —
//! the popular-filter-shape repetition very large populations exhibit) at
//! 100k subscriptions by default and 1M behind `--deep`. Each cell records
//! ns/event, the engine's tree memory in bytes (and per subscription), and
//! the A-Tree's DAG shape (`dag_nodes`, `dag_edges`, `shared_subtrees`,
//! `node_evals_saved`); the binary asserts the two engines' match streams
//! are identical before timing anything, so a recorded cell is also a
//! correctness witness.
//!
//! After the measurements a same-run comparison table (single vs. batch vs.
//! wire+match at the shared 10k-subscription/width-10 cell) is printed to
//! stderr, since host variance makes cross-run JSON diffing misleading.

use bench::narrow_events;
use broker::wire::Codec;
use broker::{
    Broker, BrokerId, ChannelTransport, DurabilityConfig, DurableLog, FaultPlan, FaultyTransport,
    NetworkStats, ReliableSession, SendOutcome, Simulation, SimulationConfig, Topology,
    WireMessage,
};
use filtering::{
    ATreeEngine, AnalyzeMode, CountSink, CountingEngine, DiscriminationHint, EngineConfig,
    MatchingEngine, NaiveEngine, PerEventSink, PrefilterMode,
};
use pubsub_core::{EventBatch, EventMessage, SubscriberId, Subscription, SubscriptionId};
use std::time::Instant;
use workload::{WorkloadConfig, WorkloadGenerator};

/// One measured cell of the panel.
struct PanelResult {
    engine: &'static str,
    subscriptions: usize,
    event_width: usize,
    events: usize,
    /// Repetitions of the full event pass that were timed.
    passes: usize,
    /// Subscription matches produced by one pass over the event set.
    matches_per_pass: usize,
    ns_per_event: f64,
    events_per_sec: f64,
}

/// One measured cell of the batched panel.
struct BatchPanelResult {
    engine: &'static str,
    subscriptions: usize,
    event_width: usize,
    batch_size: usize,
    events: usize,
    passes: usize,
    matches_per_pass: usize,
    ns_per_event: f64,
    events_per_sec: f64,
}

/// One measured cell of the wire panel: the full wire pipeline
/// (encode frame → decode into a reused batch → match) plus the isolated
/// codec cost, per event.
struct WirePanelResult {
    engine: &'static str,
    subscriptions: usize,
    event_width: usize,
    batch_size: usize,
    events: usize,
    passes: usize,
    matches_per_pass: usize,
    /// Encode + decode + match, per event.
    ns_per_event: f64,
    events_per_sec: f64,
    /// Encode + decode only, per event (the codec overhead the wire adds on
    /// top of matching).
    codec_ns_per_event: f64,
}

/// The reliable-wire series plus the lossy-probe counters, grouped so the
/// JSON renderer takes one reliability argument.
struct ReliablePanel {
    results: Vec<ReliableWireResult>,
    /// `NetworkStats` from the lossy crash/restart probe.
    probe: NetworkStats,
}

/// One measured cell of the reliable wire panel: the wire pipeline with the
/// reliable-link layer in the loop, on a clean (fault-free) link.
struct ReliableWireResult {
    subscriptions: usize,
    batch_size: usize,
    events: usize,
    passes: usize,
    matches_per_pass: usize,
    /// Encode + wrap + unwrap + ack + decode + match, per event.
    ns_per_event: f64,
    events_per_sec: f64,
    /// Encode + wrap + unwrap + ack + decode only (no matching), per event —
    /// the codec cost plus everything reliability adds on a clean link.
    framing_ns_per_event: f64,
}

/// One measured cell of the durability panel: the broker subscribe path
/// with the durable subscription log detached (`journal_off`), attached
/// (`journal_on`), and the log replayed into a fresh broker (`replay`).
struct DurabilityPanelResult {
    mode: &'static str,
    subscriptions: usize,
    passes: usize,
    /// Per subscribe for the registration modes; per replayed record for
    /// the replay cell.
    ns_per_op: f64,
    /// One full pass (registering or replaying every subscription), in
    /// milliseconds.
    total_ms: f64,
    /// Bytes one registration pass appended to the log (0 with the journal
    /// detached).
    log_bytes: u64,
    /// Records the replay cell applied (0 for the registration modes).
    records_replayed: u64,
}

/// One measured cell of the pre-filter panel: one workload cell matched
/// with the stage-0 pre-filter forced on or off.
struct PrefilterPanelResult {
    /// Workload cell: `"uniform"` (the panel's own workload) or `"hot_key"`
    /// (Zipf ~1.6 title popularity, title-watcher-heavy subscriptions).
    workload: &'static str,
    /// Pre-filter mode: `"on"` or `"off"`.
    mode: &'static str,
    subscriptions: usize,
    batch_size: usize,
    events: usize,
    passes: usize,
    matches_per_pass: usize,
    /// Candidate emissions killed by stage 0 across the timed passes.
    killed_by_prefilter: u64,
    /// Subscriptions that reached stage-2 evaluation across the timed passes.
    stage2_candidates: u64,
    ns_per_event: f64,
    events_per_sec: f64,
}

/// One measured cell of the subscription-analysis panel: one workload cell
/// matched with the registration-time analyzer forced on or off.
struct AnalysisPanelResult {
    /// Workload cell: `"uniform"` (the panel's own workload) or
    /// `"redundant"` (the same subscriptions wrapped in duplicated,
    /// absorbed, and range-redundant structure, with ~5% made
    /// unsatisfiable).
    workload: &'static str,
    /// Analyzer mode: `"on"` or `"off"`.
    mode: &'static str,
    /// Subscriptions offered at registration (before any rejection).
    subscriptions: usize,
    /// Subscriptions actually indexed after registration.
    indexed: usize,
    batch_size: usize,
    events: usize,
    passes: usize,
    matches_per_pass: usize,
    /// Subscriptions that reached stage-2 evaluation across the timed passes.
    stage2_candidates: u64,
    /// Registration-time counters (from `FilterStats`).
    subs_simplified: u64,
    nodes_eliminated: u64,
    unsatisfiable_rejected: u64,
    /// Wire bytes to flood every indexed subscription once (`Subscribe`
    /// frames over the stored — i.e. possibly normalized — trees).
    subscribe_bytes: u64,
    ns_per_event: f64,
    events_per_sec: f64,
}

/// One measured cell of the A-Tree panel: one engine (counting or atree)
/// over the redundancy-heavy shared population at one subscription count,
/// with per-engine memory accounting.
struct AtreePanelResult {
    engine: &'static str,
    subscriptions: usize,
    batch_size: usize,
    events: usize,
    passes: usize,
    matches_per_pass: usize,
    ns_per_event: f64,
    events_per_sec: f64,
    /// Bytes the engine holds for registered subscription structure: the
    /// counting engine's stored trees, or the A-Tree's interned DAG slab
    /// (`EngineReport::tree_bytes` for both).
    memory_bytes: u64,
    bytes_per_sub: f64,
    /// Predicate/subscription associations (leaf index entries).
    associations: u64,
    /// DAG shape — zero for the counting engine.
    dag_nodes: u64,
    dag_edges: u64,
    shared_subtrees: u64,
    /// Node evaluations avoided by sharing across the timed passes.
    node_evals_saved: u64,
}

struct PanelConfig {
    quick: bool,
    /// CI's codec-overhead gate: a mid-size (2,000-subscription) panel big
    /// enough for the <15% codec-overhead bound to be meaningful, small
    /// enough to run on every commit.
    wire_check: bool,
    /// Extends the A-Tree series to the million-subscription cell. Takes
    /// minutes; opt-in, never run by CI.
    deep: bool,
    out: String,
    seed: u64,
}

fn parse_args() -> Result<PanelConfig, String> {
    let mut config = PanelConfig {
        quick: false,
        wire_check: false,
        deep: false,
        out: "BENCH_matching.json".to_owned(),
        seed: 42,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => config.quick = true,
            "--wire-check" => config.wire_check = true,
            "--deep" => config.deep = true,
            "--out" => {
                config.out = args.next().ok_or("--out requires a path")?;
            }
            "--seed" => {
                config.seed = args
                    .next()
                    .ok_or("--seed requires a number")?
                    .parse()
                    .map_err(|e| format!("invalid --seed: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: matching_panel [--quick] [--wire-check] [--deep] [--out PATH] [--seed N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if config.quick && config.wire_check {
        return Err("--quick and --wire-check are mutually exclusive".to_owned());
    }
    if config.deep && (config.quick || config.wire_check) {
        return Err("--deep is incompatible with --quick and --wire-check".to_owned());
    }
    Ok(config)
}

fn time_engine(
    engine: &mut dyn MatchingEngine,
    events: &[EventMessage],
    passes: usize,
) -> (usize, f64) {
    // The timed loop reuses one output buffer via `match_event_into`, so the
    // counting engine's steady state is measured allocation-free — the same
    // way the criterion panel and the broker hot path drive it. One untimed
    // warm-up pass lets the engine allocate its scratch before measurement.
    let mut buffer = Vec::new();
    for event in events {
        engine.match_event_into(event, &mut buffer);
    }
    let start = Instant::now();
    let mut matches = 0usize;
    for _ in 0..passes {
        for event in events {
            engine.match_event_into(event, &mut buffer);
            matches += buffer.len();
        }
    }
    let elapsed = start.elapsed();
    let matches_per_pass = matches / passes.max(1);
    let ns_per_event = elapsed.as_nanos() as f64 / (passes * events.len()) as f64;
    (matches_per_pass, ns_per_event)
}

fn measure(
    engine_name: &'static str,
    subscriptions: &[Subscription],
    events: &[EventMessage],
    width: usize,
    passes: usize,
) -> PanelResult {
    let (matches_per_pass, ns_per_event) = match engine_name {
        "counting" => {
            let mut engine = CountingEngine::with_capacity(subscriptions.len());
            for s in subscriptions {
                engine.insert(s.clone());
            }
            time_engine(&mut engine, events, passes)
        }
        "naive" => {
            let mut engine = NaiveEngine::new();
            for s in subscriptions {
                engine.insert(s.clone());
            }
            time_engine(&mut engine, events, passes)
        }
        other => unreachable!("unknown engine {other}"),
    };
    PanelResult {
        engine: engine_name,
        subscriptions: subscriptions.len(),
        event_width: width,
        events: events.len(),
        passes,
        matches_per_pass,
        ns_per_event,
        events_per_sec: 1e9 / ns_per_event.max(1e-9),
    }
}

/// Times `match_batch` over pre-chunked batches, reusing one `CountSink`.
/// One untimed warm-up pass lets the engine allocate its scratch first.
fn time_engine_batched(
    engine: &mut dyn MatchingEngine,
    batches: &[EventBatch],
    passes: usize,
) -> (usize, f64) {
    let mut sink = CountSink::new();
    for batch in batches {
        engine.match_batch(batch, &mut sink);
    }
    let total_events: usize = batches.iter().map(EventBatch::len).sum();
    let start = Instant::now();
    let mut matches = 0usize;
    for _ in 0..passes {
        for batch in batches {
            engine.match_batch(batch, &mut sink);
            matches += sink.count() as usize;
        }
    }
    let elapsed = start.elapsed();
    let matches_per_pass = matches / passes.max(1);
    let ns_per_event = elapsed.as_nanos() as f64 / (passes * total_events) as f64;
    (matches_per_pass, ns_per_event)
}

/// Measures the counting engine over pre-chunked batches. (The naive
/// baseline has no batch-specific behaviour worth a panel row — its
/// per-event cost is identical either way, as the single-event panel above
/// already records.)
fn measure_batched(
    subscriptions: &[Subscription],
    events: &[EventMessage],
    width: usize,
    batch_size: usize,
    passes: usize,
) -> BatchPanelResult {
    let batches: Vec<EventBatch> = events
        .chunks(batch_size)
        .map(|chunk| chunk.iter().cloned().collect())
        .collect();
    let mut engine = CountingEngine::with_capacity(subscriptions.len());
    for s in subscriptions {
        engine.insert(s.clone());
    }
    let (matches_per_pass, ns_per_event) = time_engine_batched(&mut engine, &batches, passes);
    BatchPanelResult {
        engine: "counting",
        subscriptions: subscriptions.len(),
        event_width: width,
        batch_size,
        events: events.len(),
        passes,
        matches_per_pass,
        ns_per_event,
        events_per_sec: 1e9 / ns_per_event.max(1e-9),
    }
}

/// Measures the full wire pipeline over pre-chunked batches: each timed
/// step encodes the batch into a reused frame buffer, decodes the frame
/// into a reused `EventBatch` (exactly what a broker hop does with an
/// incoming `PublishBatch`), and matches the decoded batch. A second timed
/// loop isolates the encode+decode cost.
fn measure_wire(
    subscriptions: &[Subscription],
    events: &[EventMessage],
    width: usize,
    batch_size: usize,
    passes: usize,
) -> WirePanelResult {
    let batches: Vec<EventBatch> = events
        .chunks(batch_size)
        .map(|chunk| chunk.iter().cloned().collect())
        .collect();
    let mut engine = CountingEngine::with_capacity(subscriptions.len());
    for s in subscriptions {
        engine.insert(s.clone());
    }
    let mut codec = Codec::new();
    let mut frame = Vec::new();
    let mut decoded = EventBatch::new();
    let mut sink = CountSink::new();
    let total_events: usize = batches.iter().map(EventBatch::len).sum();

    // Warm-up: size the frame buffer, the decode batch, the codec caches,
    // and the engine scratch.
    for batch in &batches {
        frame.clear();
        codec.encode_publish_batch(batch, &mut frame);
        codec
            .decode_publish_batch_into(&frame, &mut decoded)
            .expect("panel frames are well-formed");
        engine.match_batch(&decoded, &mut sink);
    }

    // Full pipeline: encode + decode + match.
    let start = Instant::now();
    let mut matches = 0usize;
    for _ in 0..passes {
        for batch in &batches {
            frame.clear();
            codec.encode_publish_batch(batch, &mut frame);
            codec
                .decode_publish_batch_into(&frame, &mut decoded)
                .expect("panel frames are well-formed");
            engine.match_batch(&decoded, &mut sink);
            matches += sink.count() as usize;
        }
    }
    let pipeline = start.elapsed();

    // Codec only: encode + decode.
    let start = Instant::now();
    for _ in 0..passes {
        for batch in &batches {
            frame.clear();
            codec.encode_publish_batch(batch, &mut frame);
            codec
                .decode_publish_batch_into(&frame, &mut decoded)
                .expect("panel frames are well-formed");
        }
    }
    let codec_only = start.elapsed();

    let denom = (passes * total_events) as f64;
    let ns_per_event = pipeline.as_nanos() as f64 / denom;
    WirePanelResult {
        engine: "counting",
        subscriptions: subscriptions.len(),
        event_width: width,
        batch_size,
        events: events.len(),
        passes,
        matches_per_pass: matches / passes.max(1),
        ns_per_event,
        events_per_sec: 1e9 / ns_per_event.max(1e-9),
        codec_ns_per_event: codec_only.as_nanos() as f64 / denom,
    }
}

/// Measures the wire pipeline with the reliable-link layer in the loop:
/// each timed step encodes the batch, wraps it in a sequenced+checksummed
/// data frame (`wrap_send`), unwraps it on the receiving side (`recv`),
/// feeds the cumulative ack back to the sender, decodes the delivered inner
/// frame, and matches. The link is clean, so nothing retransmits and the
/// session never ticks: this is the pure fault-free cost of reliability. A
/// second timed loop drops the matching step to isolate the framing+codec
/// cost.
fn measure_reliable_wire(
    subscriptions: &[Subscription],
    events: &[EventMessage],
    batch_size: usize,
    passes: usize,
) -> ReliableWireResult {
    let batches: Vec<EventBatch> = events
        .chunks(batch_size)
        .map(|chunk| chunk.iter().cloned().collect())
        .collect();
    let mut engine = CountingEngine::with_capacity(subscriptions.len());
    for s in subscriptions {
        engine.insert(s.clone());
    }
    let sender = BrokerId::from_raw(0);
    let receiver = BrokerId::from_raw(1);
    let mut session = ReliableSession::new();
    let mut stats = NetworkStats::default();
    let mut codec = Codec::new();
    let mut frame = Vec::new();
    let mut outer = Vec::new();
    let mut delivered: Vec<Vec<u8>> = Vec::new();
    let mut acks: Vec<(BrokerId, BrokerId, Vec<u8>)> = Vec::new();
    let mut ack_delivered: Vec<Vec<u8>> = Vec::new();
    let mut ack_acks: Vec<(BrokerId, BrokerId, Vec<u8>)> = Vec::new();
    let mut decoded = EventBatch::new();
    let mut sink = CountSink::new();
    let total_events: usize = batches.iter().map(EventBatch::len).sum();

    // One hop: encode → wrap → unwrap → process the ack → decode. Returns
    // with `decoded` holding the batch the receiving broker would match.
    macro_rules! hop {
        ($batch:expr) => {{
            frame.clear();
            codec.encode_publish_batch($batch, &mut frame);
            let outcome = session.wrap_send(sender, receiver, &frame, &mut outer, &mut stats);
            assert!(
                matches!(outcome, SendOutcome::Sent(_)),
                "a clean link always sends immediately"
            );
            delivered.clear();
            acks.clear();
            session.recv(
                sender,
                receiver,
                &outer,
                &mut delivered,
                &mut acks,
                &mut stats,
            );
            for (from, to, ack) in acks.drain(..) {
                session.recv(
                    from,
                    to,
                    &ack,
                    &mut ack_delivered,
                    &mut ack_acks,
                    &mut stats,
                );
            }
            for inner in &delivered {
                codec
                    .decode_publish_batch_into(inner, &mut decoded)
                    .expect("panel frames are well-formed");
            }
        }};
    }

    // Warm-up: size the buffers and caches.
    for batch in &batches {
        hop!(batch);
        engine.match_batch(&decoded, &mut sink);
    }

    // Full pipeline: reliable hop + match.
    let start = Instant::now();
    let mut matches = 0usize;
    for _ in 0..passes {
        for batch in &batches {
            hop!(batch);
            engine.match_batch(&decoded, &mut sink);
            matches += sink.count() as usize;
        }
    }
    let pipeline = start.elapsed();

    // Framing only: the reliable hop without matching.
    let start = Instant::now();
    for _ in 0..passes {
        for batch in &batches {
            hop!(batch);
        }
    }
    let framing = start.elapsed();

    assert!(
        !session.has_unacked() && stats.retransmits == 0,
        "the clean measurement link must stay fully acked"
    );
    let denom = (passes * total_events) as f64;
    let ns_per_event = pipeline.as_nanos() as f64 / denom;
    ReliableWireResult {
        subscriptions: subscriptions.len(),
        batch_size,
        events: events.len(),
        passes,
        matches_per_pass: matches / passes.max(1),
        ns_per_event,
        events_per_sec: 1e9 / ns_per_event.max(1e-9),
        framing_ns_per_event: framing.as_nanos() as f64 / denom,
    }
}

/// Drives a small lossy line topology — 20% drop, 10% duplication, 10%
/// corruption, reordering — with a mid-run crash/restart of the middle
/// broker through the reliable simulation, and returns its `NetworkStats`.
/// The JSON embeds these counters as `reliability_stats` so CI can validate
/// that the observability fields exist *and* carry real non-zero values.
fn reliability_probe(seed: u64) -> NetworkStats {
    let topology = Topology::line(3);
    let mut transport = FaultyTransport::new(Box::new(ChannelTransport::new()));
    for (a, b) in topology.links() {
        transport.set_link_plan(
            a,
            b,
            FaultPlan::new(seed ^ ((a.raw() as u64) << 16) ^ b.raw() as u64)
                .with_drop(0.2)
                .with_duplicate(0.1)
                .with_corrupt(0.1)
                .with_reorder(4),
        );
    }
    let config = SimulationConfig::new(topology).with_reliability(true);
    let mut sim = Simulation::with_transport(config, Box::new(transport));
    let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(seed));
    sim.register_all(generator.subscriptions(32));
    let events = generator.events(192);
    let batches: Vec<EventBatch> = events
        .chunks(64)
        .map(|chunk| chunk.iter().cloned().collect())
        .collect();
    let _ = sim.publish_batch(&batches[0]);
    sim.crash_broker(BrokerId::from_raw(1));
    let _ = sim.publish_batch(&batches[1]);
    sim.restart_broker(BrokerId::from_raw(1));
    let _ = sim.publish_batch(&batches[2]);
    sim.network_stats().clone()
}

/// Measures the durable-log cells: the broker subscribe path with the
/// journal off and on, then log replay into a fresh broker. The broker has
/// no neighbors, so the timed loop is analyze + index + (journal append) —
/// no flood or subsumption work muddies the append measurement.
fn measure_durability(subscriptions: &[Subscription], passes: usize) -> Vec<DurabilityPanelResult> {
    let home = BrokerId::from_raw(0);
    // Registration passes are short (a few ms), so host noise swamps a
    // mean over the panel's usual 2-3 passes; run more and keep the
    // fastest pass, the standard microbenchmark noise cut. The on/off
    // ratio feeds a CI gate and must be stable run to run.
    let passes = (passes * 8).max(20);
    let mut results = Vec::new();
    let mut replay_source = None;
    // The two registration modes are interleaved pass by pass, so host
    // frequency drift hits both equally instead of biasing the ratio.
    let mut best = [f64::INFINITY; 2];
    let mut log_bytes = 0;
    for _ in 0..passes {
        for journal in [false, true] {
            let mut broker = Broker::new(home, Vec::new());
            if journal {
                // `compact_every(0)` disables compaction: the cell measures
                // the pure append cost of the steady-state subscribe path.
                broker.attach_durable_log(DurableLog::in_memory(
                    DurabilityConfig::new().with_compact_every(0),
                ));
            }
            let start = Instant::now();
            for subscription in subscriptions {
                broker.handle_message(
                    &WireMessage::Subscribe {
                        subscription: subscription.clone(),
                    },
                    None,
                );
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            best[journal as usize] = best[journal as usize].min(elapsed);
            if journal {
                let log = broker.take_durable_log().expect("journal was attached");
                log_bytes = log.stats().log_bytes;
                replay_source = Some(log);
            }
        }
    }
    for journal in [false, true] {
        results.push(DurabilityPanelResult {
            mode: if journal { "journal_on" } else { "journal_off" },
            subscriptions: subscriptions.len(),
            passes,
            ns_per_op: best[journal as usize] / subscriptions.len().max(1) as f64,
            total_ms: best[journal as usize] / 1e6,
            log_bytes: if journal { log_bytes } else { 0 },
            records_replayed: 0,
        });
    }
    // Replay: recovery's step 0 — a fresh broker rebuilds its routing
    // table from the log alone, exactly what a restart with zero live
    // neighbors leans on.
    let mut journal = replay_source;
    let log_bytes = journal.as_ref().map_or(0, |j| j.stats().log_bytes);
    let mut best = f64::INFINITY;
    let mut replayed = 0;
    for _ in 0..passes {
        let mut fresh = Broker::new(home, Vec::new());
        fresh.attach_durable_log(journal.take().expect("the journal round-trips"));
        let start = Instant::now();
        replayed = fresh.recover();
        best = best.min(start.elapsed().as_nanos() as f64);
        journal = fresh.take_durable_log();
    }
    results.push(DurabilityPanelResult {
        mode: "replay",
        subscriptions: subscriptions.len(),
        passes,
        ns_per_op: best / replayed.max(1) as f64,
        total_ms: best / 1e6,
        log_bytes,
        records_replayed: replayed,
    });
    results
}

/// Measures one pre-filter cell: the counting engine with the stage-0
/// pre-filter forced to `mode`, over pre-chunked batches. The `on` cells get
/// a discrimination hint sampled from the workload's own events (the
/// selectivity-driven configuration a broker would run with). Stage counters
/// are reset after warm-up so they cover exactly the timed passes.
fn measure_prefilter(
    workload: &'static str,
    mode: PrefilterMode,
    subscriptions: &[Subscription],
    events: &[EventMessage],
    batch_size: usize,
    passes: usize,
) -> PrefilterPanelResult {
    let batches: Vec<EventBatch> = events
        .chunks(batch_size)
        .map(|chunk| chunk.iter().cloned().collect())
        .collect();
    let mut engine = CountingEngine::with_config_and_capacity(
        EngineConfig::with_prefilter(mode),
        subscriptions.len(),
    );
    if mode == PrefilterMode::On {
        let sample = &events[..events.len().min(500)];
        engine.set_discrimination_hint(Some(DiscriminationHint::from_events(sample)));
    }
    for s in subscriptions {
        engine.insert(s.clone());
    }
    let mut sink = CountSink::new();
    for batch in &batches {
        engine.match_batch(batch, &mut sink);
    }
    engine.reset_stats();
    let total_events: usize = batches.iter().map(EventBatch::len).sum();
    let start = Instant::now();
    let mut matches = 0usize;
    for _ in 0..passes {
        for batch in &batches {
            engine.match_batch(batch, &mut sink);
            matches += sink.count() as usize;
        }
    }
    let elapsed = start.elapsed();
    let ns_per_event = elapsed.as_nanos() as f64 / (passes * total_events) as f64;
    let stats = engine.stats();
    PrefilterPanelResult {
        workload,
        mode: match mode {
            PrefilterMode::On => "on",
            _ => "off",
        },
        subscriptions: subscriptions.len(),
        batch_size,
        events: events.len(),
        passes,
        matches_per_pass: matches / passes.max(1),
        killed_by_prefilter: stats.killed_by_prefilter,
        stage2_candidates: stats.stage2_candidates,
        ns_per_event,
        events_per_sec: 1e9 / ns_per_event.max(1e-9),
    }
}

/// The redundancy-heavy analysis workload: each subscription wrapped in
/// structure the analyzer can remove without changing semantics relative to
/// the wrapped form — duplicated subtrees, an absorption pattern, and a
/// redundant range pair — and every 20th replaced by a contradiction (the
/// ~5% unsatisfiable slice a registration-time check should catch).
fn redundant_subs(base: &[Subscription]) -> Vec<Subscription> {
    use pubsub_core::Expr;
    base.iter()
        .enumerate()
        .map(|(i, sub)| {
            let expr = sub.tree().to_expr();
            let wrapped = if i % 20 == 19 {
                Expr::and(vec![
                    expr,
                    Expr::gt("panel_pad", 5i64),
                    Expr::lt("panel_pad", 3i64),
                ])
            } else {
                match i % 3 {
                    0 => Expr::and(vec![expr.clone(), expr]),
                    1 => Expr::or(vec![
                        expr.clone(),
                        Expr::and(vec![expr, Expr::gt("panel_pad", 0i64)]),
                    ]),
                    _ => Expr::and(vec![
                        expr,
                        Expr::gt("panel_pad", 1i64),
                        Expr::gt("panel_pad", 3i64),
                    ]),
                }
            };
            Subscription::from_expr(sub.id(), sub.subscriber(), &wrapped)
        })
        .collect()
}

/// Measures one subscription-analysis cell: the counting engine with the
/// registration-time analyzer forced to `mode`. Registration counters are
/// captured right after the inserts; the subscribe-byte figure encodes one
/// `Subscribe` frame per *stored* subscription, so the `on` cells price the
/// normalized trees a broker would actually flood.
fn measure_analysis(
    workload: &'static str,
    mode: AnalyzeMode,
    subscriptions: &[Subscription],
    events: &[EventMessage],
    batch_size: usize,
    passes: usize,
) -> AnalysisPanelResult {
    use broker::wire::WireMessage;
    let batches: Vec<EventBatch> = events
        .chunks(batch_size)
        .map(|chunk| chunk.iter().cloned().collect())
        .collect();
    let mut engine = CountingEngine::with_config_and_capacity(
        EngineConfig::default().analyze(mode),
        subscriptions.len(),
    );
    for s in subscriptions {
        engine.insert(s.clone());
    }
    let registration = *engine.stats();
    let mut codec = Codec::new();
    let mut frame = Vec::new();
    let mut subscribe_bytes = 0u64;
    let mut indexed = 0usize;
    for s in subscriptions {
        let Some(stored) = engine.get(s.id()) else {
            continue;
        };
        indexed += 1;
        let message = WireMessage::Subscribe {
            subscription: stored.clone(),
        };
        subscribe_bytes += codec.encode_into(&message, &mut frame) as u64;
    }
    let mut sink = CountSink::new();
    for batch in &batches {
        engine.match_batch(batch, &mut sink);
    }
    engine.reset_stats();
    let total_events: usize = batches.iter().map(EventBatch::len).sum();
    let start = Instant::now();
    let mut matches = 0usize;
    for _ in 0..passes {
        for batch in &batches {
            engine.match_batch(batch, &mut sink);
            matches += sink.count() as usize;
        }
    }
    let elapsed = start.elapsed();
    let ns_per_event = elapsed.as_nanos() as f64 / (passes * total_events) as f64;
    AnalysisPanelResult {
        workload,
        mode: match mode {
            AnalyzeMode::On => "on",
            AnalyzeMode::Off => "off",
        },
        subscriptions: subscriptions.len(),
        indexed,
        batch_size,
        events: events.len(),
        passes,
        matches_per_pass: matches / passes.max(1),
        stage2_candidates: engine.stats().stage2_candidates,
        subs_simplified: registration.subs_simplified,
        nodes_eliminated: registration.nodes_eliminated,
        unsatisfiable_rejected: registration.unsatisfiable_rejected,
        subscribe_bytes,
        ns_per_event,
        events_per_sec: 1e9 / ns_per_event.max(1e-9),
    }
}

/// A redundancy-heavy population of `count` subscriptions built by cycling
/// the base workload's expressions under fresh subscription ids. Very large
/// real populations repeat popular filter shapes; the cycling reproduces
/// that regime, which is exactly the sharing the A-Tree's hash-consed DAG
/// exploits (and what a non-zero `shared_subtrees` gauge witnesses).
fn shared_population(base: &[Subscription], count: usize) -> Vec<Subscription> {
    (0..count)
        .map(|i| {
            let source = &base[i % base.len()];
            Subscription::from_expr(
                SubscriptionId::from_raw(1 + i as u64),
                SubscriberId::from_raw(1 + (i % 64) as u64),
                &source.tree().to_expr(),
            )
        })
        .collect()
}

/// Measures one A-Tree cell: the counting engine and the A-Tree engine over
/// the same redundancy-heavy population, returned as a `[counting, atree]`
/// pair. Before timing, the two engines' match streams are asserted
/// identical event by event over the leading batches — a recorded cell is a
/// correctness witness, not just a number.
fn measure_atree(
    base: &[Subscription],
    events: &[EventMessage],
    count: usize,
    batch_size: usize,
    passes: usize,
) -> Vec<AtreePanelResult> {
    let subs = shared_population(base, count);
    let batches: Vec<EventBatch> = events
        .chunks(batch_size)
        .map(|chunk| chunk.iter().cloned().collect())
        .collect();
    let mut counting = CountingEngine::with_capacity(count);
    let mut atree = ATreeEngine::with_capacity(count);
    for s in &subs {
        counting.insert(s.clone());
        atree.insert(s.clone());
    }

    // Differential check (doubles as warm-up): identical match streams on
    // the leading batches. Two batches bound the check's memory at the
    // million-subscription cell while still covering the batch-probe path.
    let mut expected = PerEventSink::new();
    let mut got = PerEventSink::new();
    for batch in batches.iter().take(2) {
        counting.match_batch(batch, &mut expected);
        atree.match_batch(batch, &mut got);
        assert_eq!(expected.len(), got.len());
        for i in 0..batch.len() {
            assert_eq!(
                expected.for_event(i),
                got.for_event(i),
                "atree diverged from counting at {count} subscriptions, event {i}"
            );
        }
    }

    counting.reset_stats();
    atree.reset_stats();
    let (counting_matches, counting_ns) = time_engine_batched(&mut counting, &batches, passes);
    let (atree_matches, atree_ns) = time_engine_batched(&mut atree, &batches, passes);
    assert_eq!(
        counting_matches, atree_matches,
        "atree match count diverged at {count} subscriptions"
    );

    let memory = atree.memory();
    let atree_stats = *atree.stats();
    assert!(
        atree_stats.shared_subtrees > 0,
        "the redundant population must share subtrees"
    );
    let cell = |engine: &'static str,
                matches_per_pass: usize,
                ns_per_event: f64,
                memory_bytes: u64,
                associations: u64| AtreePanelResult {
        engine,
        subscriptions: count,
        batch_size,
        events: events.len(),
        passes,
        matches_per_pass,
        ns_per_event,
        events_per_sec: 1e9 / ns_per_event.max(1e-9),
        memory_bytes,
        bytes_per_sub: memory_bytes as f64 / count.max(1) as f64,
        associations,
        dag_nodes: if engine == "atree" {
            atree_stats.dag_nodes
        } else {
            0
        },
        dag_edges: if engine == "atree" {
            memory.edge_count as u64
        } else {
            0
        },
        shared_subtrees: if engine == "atree" {
            atree_stats.shared_subtrees
        } else {
            0
        },
        node_evals_saved: if engine == "atree" {
            atree_stats.node_evals_saved
        } else {
            0
        },
    };
    let counting_report = counting.report();
    let atree_report = atree.report();
    vec![
        cell(
            "counting",
            counting_matches,
            counting_ns,
            counting_report.tree_bytes as u64,
            counting_report.association_count as u64,
        ),
        cell(
            "atree",
            atree_matches,
            atree_ns,
            atree_report.tree_bytes as u64,
            atree_report.association_count as u64,
        ),
    ]
}

/// Prints the same-run single-vs-batch-vs-wire comparison table to
/// stderr. All compared cells share the subscription count, width, and
/// event set of this run, so the ±20% run-to-run host variance (see
/// ROADMAP) cancels out of the speedup columns — this replaces manually
/// diffing `BENCH_matching.json` across recordings.
fn print_comparison_table(
    results: &[PanelResult],
    batch_results: &[BatchPanelResult],
    wire_results: &[WirePanelResult],
) {
    // The shared cell: the largest subscription count at full width, which
    // every series measures.
    let subs = results
        .iter()
        .filter(|r| r.engine == "counting" && r.event_width == 10)
        .map(|r| r.subscriptions)
        .max();
    let Some(subs) = subs else { return };
    let Some(single) = results
        .iter()
        .find(|r| r.engine == "counting" && r.event_width == 10 && r.subscriptions == subs)
    else {
        return;
    };

    eprintln!();
    eprintln!("same-run comparison at {subs} subscriptions / width 10 (speedup vs single-event counting; cells from other runs are not comparable):");
    eprintln!(
        "  {:<26} {:>14} {:>14} {:>9}",
        "configuration", "ns/event", "events/s", "speedup"
    );
    let row = |label: String, ns_per_event: f64, events_per_sec: f64| {
        eprintln!(
            "  {:<26} {:>14.0} {:>14.0} {:>8.2}x",
            label,
            ns_per_event,
            events_per_sec,
            single.ns_per_event / ns_per_event.max(1e-9)
        );
    };
    row(
        "counting single-event".to_owned(),
        single.ns_per_event,
        single.events_per_sec,
    );
    for r in batch_results
        .iter()
        .filter(|r| r.subscriptions == subs && r.event_width == 10)
    {
        row(
            format!("counting batch={}", r.batch_size),
            r.ns_per_event,
            r.events_per_sec,
        );
    }
    for r in wire_results
        .iter()
        .filter(|r| r.subscriptions == subs && r.event_width == 10)
    {
        row(
            format!("wire+match batch={}", r.batch_size),
            r.ns_per_event,
            r.events_per_sec,
        );
    }
}

#[allow(clippy::too_many_arguments)] // one parameter per JSON series
fn render_json(
    config: &PanelConfig,
    results: &[PanelResult],
    batch_results: &[BatchPanelResult],
    wire_results: &[WirePanelResult],
    reliable: &ReliablePanel,
    durability_results: &[DurabilityPanelResult],
    prefilter_results: &[PrefilterPanelResult],
    analysis_results: &[AnalysisPanelResult],
    atree_results: &[AtreePanelResult],
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"matching\",\n");
    out.push_str(&format!("  \"seed\": {},\n", config.seed));
    out.push_str(&format!("  \"quick\": {},\n", config.quick));
    out.push_str(&format!("  \"wire_check\": {},\n", config.wire_check));
    out.push_str(&format!("  \"deep\": {},\n", config.deep));
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"engine\": \"{}\", \"subscriptions\": {}, ",
                "\"event_width\": {}, \"events\": {}, \"passes\": {}, ",
                "\"matches_per_pass\": {}, \"ns_per_event\": {:.1}, ",
                "\"events_per_sec\": {:.1}}}{}\n"
            ),
            r.engine,
            r.subscriptions,
            r.event_width,
            r.events,
            r.passes,
            r.matches_per_pass,
            r.ns_per_event,
            r.events_per_sec,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"batch_results\": [\n");
    for (i, r) in batch_results.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"engine\": \"{}\", \"subscriptions\": {}, ",
                "\"event_width\": {}, \"batch_size\": {}, \"events\": {}, ",
                "\"passes\": {}, \"matches_per_pass\": {}, ",
                "\"ns_per_event\": {:.1}, \"events_per_sec\": {:.1}}}{}\n"
            ),
            r.engine,
            r.subscriptions,
            r.event_width,
            r.batch_size,
            r.events,
            r.passes,
            r.matches_per_pass,
            r.ns_per_event,
            r.events_per_sec,
            if i + 1 == batch_results.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ],\n");
    // The codec overhead at the largest wire batch, as a percentage of the
    // pure-match time of the batch cell with the same batch size — the
    // figure CI bounds.
    let overhead_pct = wire_results
        .iter()
        .max_by_key(|r| r.batch_size)
        .and_then(|wire| {
            batch_results
                .iter()
                .find(|b| b.batch_size == wire.batch_size && b.subscriptions == wire.subscriptions)
                .map(|b| 100.0 * wire.codec_ns_per_event / b.ns_per_event.max(1e-9))
        })
        .unwrap_or(0.0);
    out.push_str(&format!("  \"codec_overhead_pct\": {overhead_pct:.2},\n"));
    out.push_str("  \"wire_results\": [\n");
    for (i, r) in wire_results.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"engine\": \"{}\", \"subscriptions\": {}, ",
                "\"event_width\": {}, \"batch_size\": {}, \"events\": {}, ",
                "\"passes\": {}, \"matches_per_pass\": {}, ",
                "\"ns_per_event\": {:.1}, \"events_per_sec\": {:.1}, ",
                "\"codec_ns_per_event\": {:.1}}}{}\n"
            ),
            r.engine,
            r.subscriptions,
            r.event_width,
            r.batch_size,
            r.events,
            r.passes,
            r.matches_per_pass,
            r.ns_per_event,
            r.events_per_sec,
            r.codec_ns_per_event,
            if i + 1 == wire_results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    // The fault-free reliability overhead at the largest reliable batch: the
    // framing figure (codec plus everything the reliable layer adds on a
    // clean link) as a percentage of the pure-match time of the batch cell
    // with the same batch size — the same denominator as
    // `codec_overhead_pct`, so the two gates are directly comparable.
    let reliability_overhead_pct = reliable
        .results
        .iter()
        .max_by_key(|r| r.batch_size)
        .and_then(|cell| {
            batch_results
                .iter()
                .find(|b| b.batch_size == cell.batch_size && b.subscriptions == cell.subscriptions)
                .map(|b| 100.0 * cell.framing_ns_per_event / b.ns_per_event.max(1e-9))
        })
        .unwrap_or(0.0);
    out.push_str(&format!(
        "  \"reliability_overhead_pct\": {reliability_overhead_pct:.2},\n"
    ));
    out.push_str("  \"reliable_results\": [\n");
    for (i, r) in reliable.results.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"subscriptions\": {}, \"batch_size\": {}, ",
                "\"events\": {}, \"passes\": {}, \"matches_per_pass\": {}, ",
                "\"ns_per_event\": {:.1}, \"events_per_sec\": {:.1}, ",
                "\"framing_ns_per_event\": {:.1}}}{}\n"
            ),
            r.subscriptions,
            r.batch_size,
            r.events,
            r.passes,
            r.matches_per_pass,
            r.ns_per_event,
            r.events_per_sec,
            r.framing_ns_per_event,
            if i + 1 == reliable.results.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ],\n");
    // Counters from the lossy crash/restart probe — CI checks both the key
    // names (the `NetworkStats` observability surface) and that the fault
    // plan actually exercised them.
    out.push_str(&format!(
        concat!(
            "  \"reliability_stats\": {{\"frames\": {}, \"retransmits\": {}, ",
            "\"dup_suppressed\": {}, \"corrupt_dropped\": {}, \"resyncs\": {}, ",
            "\"decode_errors\": {}, \"queue_drops\": {}}},\n"
        ),
        reliable.probe.frames,
        reliable.probe.retransmits,
        reliable.probe.dup_suppressed,
        reliable.probe.corrupt_dropped,
        reliable.probe.resyncs,
        reliable.probe.decode_errors,
        reliable.probe.queue_drops,
    ));
    out.push_str("  \"durability_results\": [\n");
    for (i, r) in durability_results.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"mode\": \"{}\", \"subscriptions\": {}, ",
                "\"passes\": {}, \"ns_per_op\": {:.1}, \"total_ms\": {:.2}, ",
                "\"log_bytes\": {}, \"records_replayed\": {}}}{}\n"
            ),
            r.mode,
            r.subscriptions,
            r.passes,
            r.ns_per_op,
            r.total_ms,
            r.log_bytes,
            r.records_replayed,
            if i + 1 == durability_results.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ],\n");
    // The durable-log overhead on the subscribe path: journal-on vs
    // journal-off registration time — the figure CI bounds, alongside the
    // codec and reliability gates.
    let durability_cell = |mode: &str| durability_results.iter().find(|r| r.mode == mode);
    let durability_overhead_pct = match (
        durability_cell("journal_on"),
        durability_cell("journal_off"),
    ) {
        (Some(on), Some(off)) => 100.0 * (on.ns_per_op / off.ns_per_op.max(1e-9) - 1.0),
        _ => 0.0,
    };
    out.push_str(&format!(
        "  \"durability_overhead_pct\": {durability_overhead_pct:.2},\n"
    ));
    out.push_str("  \"prefilter_results\": [\n");
    for (i, r) in prefilter_results.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"workload\": \"{}\", \"mode\": \"{}\", ",
                "\"subscriptions\": {}, \"batch_size\": {}, \"events\": {}, ",
                "\"passes\": {}, \"matches_per_pass\": {}, ",
                "\"killed_by_prefilter\": {}, \"stage2_candidates\": {}, ",
                "\"ns_per_event\": {:.1}, \"events_per_sec\": {:.1}}}{}\n"
            ),
            r.workload,
            r.mode,
            r.subscriptions,
            r.batch_size,
            r.events,
            r.passes,
            r.matches_per_pass,
            r.killed_by_prefilter,
            r.stage2_candidates,
            r.ns_per_event,
            r.events_per_sec,
            if i + 1 == prefilter_results.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ],\n");
    // The two condensed pre-filter figures CI gates on: the on-vs-off
    // speedup on the skewed hot-key cell (should be well above 1) and the
    // on-vs-off overhead on the uniform cell (should stay near zero).
    let cell = |workload: &str, mode: &str| {
        prefilter_results
            .iter()
            .find(|r| r.workload == workload && r.mode == mode)
    };
    let speedup_hot_key = match (cell("hot_key", "on"), cell("hot_key", "off")) {
        (Some(on), Some(off)) => off.ns_per_event / on.ns_per_event.max(1e-9),
        _ => 0.0,
    };
    let overhead_uniform_pct = match (cell("uniform", "on"), cell("uniform", "off")) {
        (Some(on), Some(off)) => 100.0 * (on.ns_per_event / off.ns_per_event.max(1e-9) - 1.0),
        _ => 0.0,
    };
    out.push_str(&format!(
        "  \"prefilter_speedup_hot_key\": {speedup_hot_key:.2},\n"
    ));
    out.push_str(&format!(
        "  \"prefilter_overhead_uniform_pct\": {overhead_uniform_pct:.2},\n"
    ));
    out.push_str("  \"analysis_results\": [\n");
    for (i, r) in analysis_results.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"workload\": \"{}\", \"mode\": \"{}\", ",
                "\"subscriptions\": {}, \"indexed\": {}, \"batch_size\": {}, ",
                "\"events\": {}, \"passes\": {}, \"matches_per_pass\": {}, ",
                "\"stage2_candidates\": {}, \"subs_simplified\": {}, ",
                "\"nodes_eliminated\": {}, \"unsatisfiable_rejected\": {}, ",
                "\"subscribe_bytes\": {}, \"ns_per_event\": {:.1}, ",
                "\"events_per_sec\": {:.1}}}{}\n"
            ),
            r.workload,
            r.mode,
            r.subscriptions,
            r.indexed,
            r.batch_size,
            r.events,
            r.passes,
            r.matches_per_pass,
            r.stage2_candidates,
            r.subs_simplified,
            r.nodes_eliminated,
            r.unsatisfiable_rejected,
            r.subscribe_bytes,
            r.ns_per_event,
            r.events_per_sec,
            if i + 1 == analysis_results.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ],\n");
    // The two condensed analysis figures: on the redundancy-heavy cell, how
    // much of the stage-2 probe volume and of the subscribe wire traffic the
    // registration-time analyzer removes.
    let analysis_cell = |workload: &str, mode: &str| {
        analysis_results
            .iter()
            .find(|r| r.workload == workload && r.mode == mode)
    };
    let stage2_reduction_pct = match (
        analysis_cell("redundant", "on"),
        analysis_cell("redundant", "off"),
    ) {
        (Some(on), Some(off)) if off.stage2_candidates > 0 => {
            100.0 * (1.0 - on.stage2_candidates as f64 / off.stage2_candidates as f64)
        }
        _ => 0.0,
    };
    let subscribe_bytes_reduction_pct = match (
        analysis_cell("redundant", "on"),
        analysis_cell("redundant", "off"),
    ) {
        (Some(on), Some(off)) if off.subscribe_bytes > 0 => {
            100.0 * (1.0 - on.subscribe_bytes as f64 / off.subscribe_bytes as f64)
        }
        _ => 0.0,
    };
    out.push_str(&format!(
        "  \"analysis_stage2_reduction_pct\": {stage2_reduction_pct:.2},\n"
    ));
    out.push_str(&format!(
        "  \"analysis_subscribe_bytes_reduction_pct\": {subscribe_bytes_reduction_pct:.2},\n"
    ));
    out.push_str("  \"atree_results\": [\n");
    for (i, r) in atree_results.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"engine\": \"{}\", \"subscriptions\": {}, ",
                "\"batch_size\": {}, \"events\": {}, \"passes\": {}, ",
                "\"matches_per_pass\": {}, \"ns_per_event\": {:.1}, ",
                "\"events_per_sec\": {:.1}, \"memory_bytes\": {}, ",
                "\"bytes_per_sub\": {:.1}, \"associations\": {}, ",
                "\"dag_nodes\": {}, \"dag_edges\": {}, ",
                "\"shared_subtrees\": {}, \"node_evals_saved\": {}}}{}\n"
            ),
            r.engine,
            r.subscriptions,
            r.batch_size,
            r.events,
            r.passes,
            r.matches_per_pass,
            r.ns_per_event,
            r.events_per_sec,
            r.memory_bytes,
            r.bytes_per_sub,
            r.associations,
            r.dag_nodes,
            r.dag_edges,
            r.shared_subtrees,
            r.node_evals_saved,
            if i + 1 == atree_results.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ],\n");
    // The condensed A-Tree memory figure: bytes per subscription of the
    // A-Tree relative to the counting engine at the largest shared cell —
    // well below 100 when the population actually shares structure.
    let atree_cell = |engine: &str| {
        atree_results
            .iter()
            .filter(|r| r.engine == engine)
            .max_by_key(|r| r.subscriptions)
    };
    let memory_pct = match (atree_cell("atree"), atree_cell("counting")) {
        (Some(atree), Some(counting)) if counting.bytes_per_sub > 0.0 => {
            100.0 * atree.bytes_per_sub / counting.bytes_per_sub
        }
        _ => 0.0,
    };
    out.push_str(&format!(
        "  \"atree_memory_per_sub_vs_counting_pct\": {memory_pct:.2}\n"
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: matching_panel [--quick] [--out PATH] [--seed N]");
            std::process::exit(2);
        }
    };
    if config.out.contains('"') || config.out.contains('\\') {
        eprintln!("error: --out path must not contain quotes or backslashes");
        std::process::exit(2);
    }

    let (sub_counts, event_count, passes): (&[usize], usize, usize) = if config.quick {
        (&[50, 200], 50, 2)
    } else if config.wire_check {
        (&[2_000], 1_024, 2)
    } else {
        (&[1_000, 10_000], 2_000, 3)
    };
    let widths: &[usize] = if config.wire_check { &[10] } else { &[10, 4] };

    let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(config.seed));
    let max_subs = *sub_counts.iter().max().expect("panel has sizes");
    let all_subs = generator.subscriptions(max_subs);
    let full_events = generator.events(event_count);

    let mut results = Vec::new();
    for &width in widths {
        let events = if width >= 10 {
            full_events.clone()
        } else {
            narrow_events(&full_events, width)
        };
        for &count in sub_counts {
            let subs = &all_subs[..count];
            for engine in ["counting", "naive"] {
                let r = measure(engine, subs, &events, width, passes);
                eprintln!(
                    "{:>8} subs={:<6} width={:<2} {:>12.0} ns/event {:>12.0} events/s",
                    r.engine, r.subscriptions, r.event_width, r.ns_per_event, r.events_per_sec
                );
                results.push(r);
            }
        }
    }

    // Batched paper-scale panel: the full-width events pre-chunked into
    // batches and driven through `match_batch` at the largest subscription
    // count. Batch size 1 measures the batch API's fixed overhead against
    // the single-event path above; 16 and 256 show the amortization.
    let batch_sizes: &[usize] = if config.quick {
        &[1, 16]
    } else {
        &[1, 16, 256]
    };
    let batch_subs = &all_subs[..max_subs];
    let mut batch_results = Vec::new();
    for &batch_size in batch_sizes {
        let r = measure_batched(batch_subs, &full_events, 10, batch_size, passes);
        eprintln!(
            "{:>8} subs={:<6} batch={:<4} {:>12.0} ns/event {:>12.0} events/s",
            r.engine, r.subscriptions, r.batch_size, r.ns_per_event, r.events_per_sec
        );
        batch_results.push(r);
    }

    // Wire panel: the same batched workload with the wire codec in the
    // loop — encode `PublishBatch` frame, decode into a reused batch, match
    // — measuring what a broker hop pays end to end, plus the isolated
    // encode+decode cost. CI asserts the codec overhead at the largest
    // batch stays a small fraction of the match time.
    let mut wire_results = Vec::new();
    for &batch_size in batch_sizes {
        let r = measure_wire(batch_subs, &full_events, 10, batch_size, passes);
        eprintln!(
            "    wire subs={:<6} batch={:<4} {:>12.0} ns/event {:>12.0} events/s (codec {:.0} ns/event)",
            r.subscriptions, r.batch_size, r.ns_per_event, r.events_per_sec, r.codec_ns_per_event
        );
        wire_results.push(r);
    }

    // Reliable-wire panel: the wire cells again with the reliable-link
    // layer wrapping every frame. On a clean link this measures the pure
    // fault-free overhead of reliability, which CI gates the same way as
    // the codec overhead.
    let mut reliable_results = Vec::new();
    for &batch_size in batch_sizes {
        let r = measure_reliable_wire(batch_subs, &full_events, batch_size, passes);
        eprintln!(
            "reliable subs={:<6} batch={:<4} {:>12.0} ns/event {:>12.0} events/s (framing {:.0} ns/event)",
            r.subscriptions, r.batch_size, r.ns_per_event, r.events_per_sec, r.framing_ns_per_event
        );
        reliable_results.push(r);
    }

    // One lossy crash/restart probe; its counters land in the JSON so CI
    // can validate the reliability observability fields end to end.
    let reliable = ReliablePanel {
        results: reliable_results,
        probe: reliability_probe(config.seed),
    };
    eprintln!(
        "reliability probe: retransmits={} dup_suppressed={} corrupt_dropped={} resyncs={} decode_errors={} queue_drops={}",
        reliable.probe.retransmits,
        reliable.probe.dup_suppressed,
        reliable.probe.corrupt_dropped,
        reliable.probe.resyncs,
        reliable.probe.decode_errors,
        reliable.probe.queue_drops,
    );

    // Durability panel: the subscribe path with the durable log off and
    // on, plus replay of the resulting log into a fresh broker.
    let durability_results = measure_durability(batch_subs, passes);
    for r in &durability_results {
        eprintln!(
            "durability {:<11} subs={:<6} {:>10.0} ns/op {:>8.2} ms/pass (log {} B, replayed {})",
            r.mode, r.subscriptions, r.ns_per_op, r.total_ms, r.log_bytes, r.records_replayed
        );
    }

    // Pre-filter panel: the uniform cell reuses the panel's own workload at
    // the largest subscription count; the hot-key cell draws the skewed
    // workload (Zipf ~1.6 titles, title-watcher-heavy mix). Both are matched
    // with the stage-0 pre-filter forced on (hint installed) and forced off.
    let prefilter_batch = if config.quick { 16 } else { 256 };
    let mut hot_generator =
        WorkloadGenerator::new(WorkloadConfig::hot_key().with_seed(config.seed));
    let hot_subs = hot_generator.subscriptions(max_subs);
    let hot_events = hot_generator.events(event_count);
    let mut prefilter_results = Vec::new();
    for (workload, subs, events) in [
        ("uniform", batch_subs, &full_events[..]),
        ("hot_key", &hot_subs[..], &hot_events[..]),
    ] {
        for mode in [PrefilterMode::On, PrefilterMode::Off] {
            let r = measure_prefilter(workload, mode, subs, events, prefilter_batch, passes);
            eprintln!(
                "prefilter {:<8} mode={:<3} subs={:<6} {:>11.0} ns/event (killed {} stage2 {})",
                r.workload,
                r.mode,
                r.subscriptions,
                r.ns_per_event,
                r.killed_by_prefilter,
                r.stage2_candidates
            );
            prefilter_results.push(r);
        }
    }

    // Subscription-analysis panel: the uniform cell reuses the panel's own
    // workload; the redundant cell wraps the same subscriptions in
    // analyzer-removable structure with a ~5% unsatisfiable slice. Each is
    // registered with the analyzer on and off; the match sets must agree.
    let analysis_batch = if config.quick { 16 } else { 256 };
    let redundant = redundant_subs(batch_subs);
    let mut analysis_results = Vec::new();
    for (workload, subs) in [("uniform", batch_subs), ("redundant", &redundant[..])] {
        let mut per_mode = Vec::new();
        for mode in [AnalyzeMode::On, AnalyzeMode::Off] {
            let r = measure_analysis(workload, mode, subs, &full_events, analysis_batch, passes);
            eprintln!(
                "analysis {:<9} mode={:<3} indexed={:<6} {:>10.0} ns/event (stage2 {} unsat {} sub-bytes {})",
                r.workload,
                r.mode,
                r.indexed,
                r.ns_per_event,
                r.stage2_candidates,
                r.unsatisfiable_rejected,
                r.subscribe_bytes
            );
            per_mode.push(r.matches_per_pass);
            analysis_results.push(r);
        }
        // Analysis must never change what matches: on ≡ off, per workload.
        assert_eq!(
            per_mode[0], per_mode[1],
            "analysis changed the {workload} match set"
        );
    }

    // A-Tree panel: counting vs the shared-subexpression engine on the
    // redundancy-heavy shared population. 100k subscriptions by default;
    // `--deep` adds the million-subscription cell (minutes, opt-in);
    // `--quick` and `--wire-check` shrink to smoke-test size. Fewer events
    // than the main panel keep the big cells bounded — the per-event cost
    // is what the cell records, not the total.
    let (atree_counts, atree_event_count): (&[usize], usize) = if config.quick {
        (&[2_000], 64)
    } else if config.wire_check {
        (&[2_000], 128)
    } else if config.deep {
        (&[100_000, 1_000_000], 512)
    } else {
        (&[100_000], 512)
    };
    let atree_events = &full_events[..atree_event_count.min(full_events.len())];
    let mut atree_results = Vec::new();
    for &count in atree_counts {
        // One timed pass at the million-subscription cell; the differential
        // warm-up already stabilized the scratch.
        let atree_passes = if count >= 1_000_000 { 1 } else { passes };
        for r in measure_atree(&all_subs, atree_events, count, 64, atree_passes) {
            eprintln!(
                "{:>8} subs={:<8} {:>10.0} ns/event {:>12.0} events/s ({:.1} B/sub, {} shared subtrees)",
                r.engine, r.subscriptions, r.ns_per_event, r.events_per_sec,
                r.bytes_per_sub, r.shared_subtrees
            );
            atree_results.push(r);
        }
    }

    print_comparison_table(&results, &batch_results, &wire_results);

    let json = render_json(
        &config,
        &results,
        &batch_results,
        &wire_results,
        &reliable,
        &durability_results,
        &prefilter_results,
        &analysis_results,
        &atree_results,
    );
    if let Err(e) = std::fs::write(&config.out, &json) {
        eprintln!("error: cannot write {}: {e}", config.out);
        std::process::exit(1);
    }
    println!("wrote {}", config.out);
}
