//! One invocation of one workload, and the metrics it reports.
//!
//! The untraced invocation ([`run_end_to_end`]) sets up several times (the
//! median is `setup_s`), measures once and reports every end-to-end metric.
//! The traced invocation ([`run_per_layer`]) spends half the time budget on
//! an untraced execution and half on a traced one over the same inputs —
//! the ratio of the two is the tracing overhead — then drives the layer
//! probes and reports every per-layer metric.

use crate::inputs::{generate, Inputs, Scale};
use crate::json::Json;
use crate::layers;
use crate::spec::{self, Workload};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::{FrameKind, Phase};
use crate::workloads::{execute, prepare, simulation_config, Budget, Outcome};
use broker::reliable::RELIABLE_OVERHEAD;

/// Set-ups per untraced invocation; `setup_s` is their median. A set-up
/// that takes milliseconds (`line5_forward`) is repeated further, up to
/// [`MAX_SETUPS_PER_RUN`] times or [`SETUP_REPEAT_BUDGET_S`] seconds, so its
/// median is as steady as the slow ones'.
pub const SETUPS_PER_RUN: usize = 3;
/// Upper limit of set-ups per untraced invocation.
pub const MAX_SETUPS_PER_RUN: usize = 15;
/// Set-up time after which no set-up beyond the third is started.
pub const SETUP_REPEAT_BUDGET_S: f64 = 0.25;

/// Whole-cluster restart cycles `line5_churn` runs after its measured
/// phase: one on the untraced invocation (it is part of the correctness
/// check), three on the untraced half of the traced invocation
/// (`durability.recovery_s` is their median), one under the trace.
const RECOVERY_CYCLES_CHECK: usize = 1;
const RECOVERY_CYCLES_MEASURED: usize = 3;

/// The metrics of one invocation, in contract order, plus the operation
/// counts and a few facts for the result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// `(name, value)` for every metric of the invocation's list.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Sample counts and wall times for the provenance block.
    pub detail: Json,
}

impl Report {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let mut metrics = Json::object();
        for &(name, value) in &self.metrics {
            let unit = spec::metric(name)
                .expect("reported metrics are in the spec")
                .unit;
            metrics.set(name, Json::object().with("value", value).with("unit", unit));
        }
        Json::object()
            .with("correct", self.failed == 0)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_line()
    }

    /// The value of one metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(metric, _)| *metric == name)
            .map(|&(_, value)| value)
    }
}

fn recovery_cycles(workload: Workload, cycles: usize) -> usize {
    if workload == Workload::Line5Churn {
        cycles
    } else {
        0
    }
}

/// Sample counts and phase times of one execution, for the result file;
/// `publish` is the execution's publish latencies in µs, ascending.
fn detail(outcome: &Outcome, publish: &[f64]) -> Json {
    let mut detail = Json::object()
        .with("measured_wall_s", outcome.measured.wall_s)
        .with("cycles", outcome.measured.cycles)
        .with("events", outcome.measured.events)
        .with("publish_calls", outcome.measured.publish.count())
        .with("publish_samples", publish.len())
        .with("subscribe_samples", outcome.measured.subscribe.count())
        .with("unsubscribe_samples", outcome.measured.unsubscribe.count())
        .with("verified_deliveries", outcome.verdict.expected);
    // The highest percentile the sample count supports (ten samples beyond).
    if let Some(p) = highest_supported_percentile(publish.len()) {
        detail.set("publish_latency_tail_percentile", p);
        detail.set("publish_latency_tail_us", percentile(publish, p));
    }
    detail
}

/// The untraced invocation: every end-to-end metric.
pub fn run_end_to_end(workload: Workload, seed: u64, budget: Budget, scale: Scale) -> Report {
    // Set up several times and keep the last; earlier ones are dropped
    // before the next is built so the peak resident set is one simulation.
    let mut setup_s: Vec<f64> = Vec::with_capacity(MAX_SETUPS_PER_RUN);
    let mut kept = None;
    while setup_s.len() < SETUPS_PER_RUN
        || (setup_s.len() < MAX_SETUPS_PER_RUN
            && setup_s.iter().sum::<f64>() < SETUP_REPEAT_BUDGET_S)
    {
        drop(kept.take());
        let inputs = generate(workload, seed, scale);
        // Only a set-up that may be the one kept needs the unpruned cycle.
        let may_be_kept = setup_s.len() + 1 >= SETUPS_PER_RUN;
        let (harness, setup) = prepare(&inputs, false, may_be_kept);
        setup_s.push(setup.setup_s());
        kept = Some((inputs, harness, setup));
    }
    let (mut inputs, harness, setup) = kept.expect("at least one set-up");
    let outcome = execute(
        &mut inputs,
        harness,
        setup,
        budget,
        recovery_cycles(workload, RECOVERY_CYCLES_CHECK),
    );

    let publish = outcome.measured.publish.sorted_us();
    let value = |name: &str| match name {
        "setup_s" => median(&setup_s),
        "events_per_s" => outcome.measured.events as f64 / outcome.measured.wall_s,
        "publish_latency_p50_us" => percentile(&publish, 0.5),
        "publish_latency_p99_us" => percentile(&publish, 0.99),
        "peak_rss_mb" => outcome.peak_rss_mib,
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    Report {
        metrics: spec::end_to_end()
            .iter()
            .map(|def| (def.name, value(def.name)))
            .collect(),
        attempted: outcome.attempted(),
        failed: outcome.failed(),
        detail: detail(&outcome, &publish).with(
            "setup_samples_s",
            setup_s.iter().map(|&s| Json::Num(s)).collect::<Vec<_>>(),
        ),
    }
}

/// Per-layer values by name; a name outside the spec is a bug caught by the
/// first test that runs.
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn new() -> Self {
        Layers(
            spec::per_layer()
                .iter()
                .map(|def| (def.name, 0.0))
                .collect(),
        )
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(metric, _)| *metric == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric of the spec"));
        slot.1 = value;
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The traced invocation: every per-layer metric. `spans_out` receives the
/// trace (span sample plus aggregates) as JSON.
pub fn run_per_layer(
    workload: Workload,
    seed: u64,
    budget: Budget,
    scale: Scale,
    spans_out: Option<&std::path::Path>,
) -> std::io::Result<Report> {
    let budget = budget.halved();
    let run = |traced: bool, recoveries: usize| -> (Inputs, Outcome) {
        let mut inputs = generate(workload, seed, scale);
        let (harness, setup) = prepare(&inputs, traced, true);
        let outcome = execute(
            &mut inputs,
            harness,
            setup,
            budget,
            recovery_cycles(workload, recoveries),
        );
        (inputs, outcome)
    };
    let (_, untraced) = run(false, RECOVERY_CYCLES_MEASURED);
    let (inputs, traced) = run(true, RECOVERY_CYCLES_CHECK);
    let trace = traced.trace.as_ref().expect("the second run is traced");
    if let Some(path) = spans_out {
        std::fs::write(path, trace.to_json().to_line())?;
    }

    let mut out = Layers::new();

    // User-visible, workload-specific: from the untraced half.
    let u = &untraced.measured;
    out.set(
        "network.link_msgs_per_event",
        ratio(u.network.messages as f64, u.events as f64),
    );
    out.set(
        "network.wire_bytes_per_event",
        ratio(u.network.bytes as f64, u.events as f64),
    );
    let control_s = u.subscribe.total_s() + u.unsubscribe.total_s();
    out.set(
        "control.ops_per_s",
        ratio(u.control_op_count() as f64, control_s),
    );
    out.set(
        "control.subscribe_latency_p99_us",
        percentile(&u.subscribe.sorted_us(), 0.99),
    );
    out.set(
        "control.bytes_per_op",
        // Over the first cycle only: exact for a seed at any run length.
        ratio(
            u.first_cycle_control_bytes as f64,
            ratio(u.control_op_count() as f64, u.cycles as f64),
        ),
    );
    out.set("durability.recovery_s", median(&untraced.recovery_s));

    // Set-up layers.
    out.set("workload.generate_s", traced.setup.generate_s);
    out.set(
        "analysis.normalize_s",
        layers::analysis_normalize_s(&inputs.subscriptions),
    );
    out.set(
        "analysis.subs_simplified",
        traced.analysis.subs_simplified as f64,
    );
    out.set(
        "analysis.nodes_eliminated",
        traced.analysis.nodes_eliminated as f64,
    );
    out.set(
        "analysis.unsatisfiable_rejected",
        traced.analysis.unsatisfiable_rejected as f64,
    );
    out.set(
        "analysis.floods_suppressed",
        traced.analysis.subsumed_not_flooded as f64,
    );
    let t = &traced.measured;
    if let Some(pruning) = &traced.setup.pruning {
        out.set("selectivity.estimate_s", pruning.estimate_s);
        out.set("pruning.plan_s", pruning.plan_s);
        out.set("pruning.install_s", pruning.install_s);
        out.set("pruning.plan_len", pruning.plan_len as f64);
        out.set("pruning.applied", pruning.applied as f64);
        // Both ratios are relative to the unpruned network on the same
        // inputs: its remote associations, its link messages per cycle.
        out.set(
            "pruning.remote_assoc_reduction",
            1.0 - ratio(
                traced.memory.remote_associations as f64,
                pruning.unpruned_remote_associations as f64,
            ),
        );
        if let Some(baseline) = &pruning.baseline {
            out.set(
                "pruning.link_msgs_increase",
                ratio(
                    t.network.messages as f64 / t.cycles as f64,
                    baseline.link_msgs as f64,
                ) - 1.0,
            );
        }
    }

    // filtering: the engines' own clock and counters over the measured phase.
    let filter = t.filter_total();
    let match_s = filter.filter_time.as_secs_f64();
    out.set("filtering.match_s", match_s);
    out.set("filtering.match_share", ratio(match_s, t.wall_s));
    out.set(
        "filtering.max_broker_match_s",
        t.filter
            .iter()
            .map(|stats| stats.filter_time.as_secs_f64())
            .fold(0.0, f64::max),
    );
    out.set("filtering.events_filtered", filter.events_filtered as f64);
    out.set("filtering.batches_filtered", filter.batches_filtered as f64);
    out.set("filtering.matches", filter.matches as f64);
    out.set(
        "filtering.predicates_fulfilled",
        filter.predicates_fulfilled as f64,
    );
    out.set(
        "filtering.killed_by_prefilter",
        filter.killed_by_prefilter as f64,
    );
    out.set(
        "filtering.stage2_candidates",
        filter.stage2_candidates as f64,
    );
    out.set("filtering.trees_evaluated", filter.trees_evaluated as f64);
    out.set("filtering.skipped_by_pmin", filter.skipped_by_pmin as f64);
    out.set(
        "filtering.match_per_candidate",
        ratio(filter.matches as f64, filter.stage2_candidates as f64),
    );
    out.set("filtering.dag_nodes", filter.dag_nodes as f64);
    out.set("filtering.shared_subtrees", filter.shared_subtrees as f64);
    out.set("filtering.node_evals_saved", filter.node_evals_saved as f64);
    let (insert_s, remove_s) =
        layers::engine_insert_remove_s(simulation_config(workload).engine, &inputs.subscriptions);
    out.set("filtering.insert_s", insert_s);
    out.set("filtering.remove_s", remove_s);

    // wire + reliable: the first measured cycle's frames replayed, scaled
    // to the whole phase by the share of root spans the capture covers.
    let totals = trace.totals(Phase::Measured);
    let (frames, captured_roots) = trace.take_captured();
    let scale_up = ratio(totals.roots as f64, captured_roots as f64);
    let wire = layers::wire_replay(&frames);
    let reliable = layers::reliable_replay(&frames);
    out.set(
        "wire.encode_s",
        (wire.encode_link_s + wire.encode_client_s) * scale_up,
    );
    out.set("wire.decode_s", wire.decode_s * scale_up);
    out.set("wire.data_frames", t.network.frames as f64);
    out.set("wire.data_bytes", t.network.bytes as f64);
    out.set("wire.control_frames", t.network.control_frames as f64);
    out.set("wire.control_bytes", t.network.control_bytes as f64);
    out.set(
        "wire.events_per_frame",
        ratio(t.network.messages as f64, t.network.frames as f64),
    );
    out.set(
        "wire.string_cache_misses",
        wire.string_cache_misses as f64 * scale_up,
    );
    out.set("reliable.wrap_s", reliable.wrap_s * scale_up);
    out.set("reliable.recv_s", reliable.recv_s * scale_up);
    let acks = totals.hops_of(FrameKind::ReliableAck);
    out.set("reliable.ack_frames", acks.count as f64);
    // On a clean link every data envelope is answered by exactly one ack.
    out.set(
        "reliable.overhead_bytes",
        (acks.bytes + acks.count * RELIABLE_OVERHEAD as u64) as f64,
    );
    out.set(
        "reliable.retransmits",
        traced.network_total.retransmits as f64,
    );
    out.set(
        "reliable.dup_suppressed",
        traced.network_total.dup_suppressed as f64,
    );

    // transport, broker_node, simulation: the trace's own aggregates.
    let transport_s = totals.transport_ns as f64 / 1e9;
    let hops = totals.all_hops();
    let hop_s = hops.self_ns as f64 / 1e9;
    let root_s = totals.root_ns as f64 / 1e9;
    out.set("transport.send_recv_s", transport_s);
    out.set("transport.frames", totals.frames as f64);
    out.set("transport.max_in_flight", totals.max_in_flight as f64);
    out.set("broker_node.hops", hops.count as f64);
    out.set(
        "broker_node.hops_per_publish",
        ratio(
            totals.hops_of(FrameKind::Publish).count as f64,
            t.publish.count() as f64,
        ),
    );
    out.set("broker_node.hop_s", hop_s);
    out.set(
        "broker_node.max_broker_hop_s",
        totals.hop_ns_per_broker().into_iter().max().unwrap_or(0) as f64 / 1e9,
    );
    out.set(
        "broker_node.publish_hop_p50_us",
        trace.hop_percentile_us(FrameKind::Publish, 0.5),
    );
    out.set(
        "broker_node.subscribe_hop_p50_us",
        trace.hop_percentile_us(FrameKind::Subscribe, 0.5),
    );
    out.set(
        "broker_node.unsubscribe_hop_p99_us",
        trace.hop_percentile_us(FrameKind::Unsubscribe, 0.99),
    );
    // What a hop spends outside the matcher, the codec and the reliable
    // framing: routing, regrouping, delivery collection, the
    // flood-suppression scan, journaling and the pump's own glue.
    out.set(
        "broker_node.route_s",
        hop_s
            - match_s
            - (wire.encode_link_s + wire.decode_s + reliable.wrap_s + reliable.recv_s) * scale_up,
    );
    out.set("simulation.unattributed_s", root_s - hop_s - transport_s);

    out.set(
        "routing_table.local_bytes",
        traced.memory.local_bytes as f64,
    );
    out.set(
        "routing_table.remote_bytes",
        traced.memory.remote_bytes as f64,
    );
    out.set(
        "routing_table.local_associations",
        traced.memory.local_associations as f64,
    );
    out.set(
        "routing_table.remote_associations",
        traced.memory.remote_associations as f64,
    );
    out.set(
        "routing_table.remote_subscriptions",
        traced.memory.remote_subscriptions as f64,
    );

    if simulation_config(workload).durability.is_some() {
        let durability = layers::durability_replay(&inputs.subscriptions, &t.control_ops);
        out.set("durability.append_s", durability.append_s);
        out.set("durability.replay_s", durability.replay_s);
    }
    out.set("durability.log_bytes", t.network.log_bytes as f64);
    out.set(
        "durability.compactions",
        traced.network_total.compactions as f64,
    );
    out.set(
        "durability.records_replayed",
        traced.network_total.records_replayed as f64,
    );

    // The trace itself: what it cost and how much of the call time it
    // explains.
    out.set(
        "trace.overhead_ratio",
        ratio(
            ratio(t.wall_s, t.events as f64),
            ratio(u.wall_s, u.events as f64),
        ),
    );
    out.set("trace.attributed_share", ratio(hop_s + transport_s, root_s));

    Ok(Report {
        metrics: out.0,
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed() + traced.failed(),
        detail: Json::object()
            .with("untraced", detail(&untraced, &u.publish.sorted_us()))
            .with("traced", detail(&traced, &t.publish.sorted_us()))
            .with("captured_frames", frames.len())
            .with("captured_roots", captured_roots),
    })
}
