//! Set-up, the measured phase and verification of the five workloads.
//!
//! Every workload is one closed loop with one client: the next
//! publish/subscribe call is issued when the previous one returns
//! ([`Simulation`] is synchronous, so this is the only honest loop). The
//! measured phase runs **whole cycles** over the generated inputs until the
//! time budget is spent, so per-event and per-operation counts repeat
//! exactly for a seed however fast the host is; only the number of cycles
//! varies.

use crate::inputs::{whole_rotations, Inputs, LINE_BROKERS};
use crate::oracle::{verify, Verdict};
use crate::spec::Workload;
use crate::stats::Samples;
use crate::trace::{Phase, RootKind, TraceHandle, TraceTransport};
use broker::{
    AnalysisStats, BrokerId, DurabilityConfig, EngineKind, NetworkStats, RoutingMemoryReport,
    Simulation, SimulationConfig, Topology,
};
use filtering::FilterStats;
use pruning::{Dimension, Pruner, PrunerConfig};
use pubsub_core::{Subscription, SubscriptionId};
use selectivity::SelectivityEstimator;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How long the measured phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Whole cycles until at least this many seconds have passed (the
    /// contract's `--seconds`).
    Seconds(f64),
    /// Exactly this many cycles — what the tests use, so every count is
    /// deterministic.
    Cycles(u64),
}

impl Budget {
    fn spent(self, cycles: u64, elapsed: Duration) -> bool {
        match self {
            Budget::Seconds(seconds) => elapsed.as_secs_f64() >= seconds,
            Budget::Cycles(limit) => cycles >= limit,
        }
    }

    /// The budget split in two: the traced invocation measures one half
    /// untraced and one half traced.
    pub fn halved(self) -> Budget {
        match self {
            Budget::Seconds(seconds) => Budget::Seconds(seconds / 2.0),
            Budget::Cycles(cycles) => Budget::Cycles(cycles.div_ceil(2)),
        }
    }
}

/// The traffic counters of [`NetworkStats`] the benchmark reads, as a
/// subtractable snapshot (`NetworkStats::subtract` is crate-private).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Inter-broker event copies.
    pub messages: u64,
    /// Data-plane frames.
    pub frames: u64,
    /// Data-plane bytes.
    pub bytes: u64,
    /// Control-plane frames.
    pub control_frames: u64,
    /// Control-plane bytes.
    pub control_bytes: u64,
    /// Reliable-layer retransmissions.
    pub retransmits: u64,
    /// Reliable-layer duplicates suppressed.
    pub dup_suppressed: u64,
    /// Frames the simulation could not decode.
    pub decode_errors: u64,
    /// Frames dropped by a full pending queue.
    pub queue_drops: u64,
    /// Bytes appended to the durable logs.
    pub log_bytes: u64,
    /// Durable-log compactions.
    pub compactions: u64,
    /// Durable-log records replayed on restart.
    pub records_replayed: u64,
}

impl NetCounters {
    /// Snapshots the cumulative counters.
    pub fn of(stats: &NetworkStats) -> Self {
        Self {
            messages: stats.messages,
            frames: stats.frames,
            bytes: stats.bytes,
            control_frames: stats.control_frames,
            control_bytes: stats.control_bytes,
            retransmits: stats.retransmits,
            dup_suppressed: stats.dup_suppressed,
            decode_errors: stats.decode_errors,
            queue_drops: stats.queue_drops,
            log_bytes: stats.log_bytes,
            compactions: stats.snapshot_compactions,
            records_replayed: stats.log_records_replayed,
        }
    }

    /// The counters accumulated since `before`.
    pub fn since(self, before: NetCounters) -> Self {
        Self {
            messages: self.messages - before.messages,
            frames: self.frames - before.frames,
            bytes: self.bytes - before.bytes,
            control_frames: self.control_frames - before.control_frames,
            control_bytes: self.control_bytes - before.control_bytes,
            retransmits: self.retransmits - before.retransmits,
            dup_suppressed: self.dup_suppressed - before.dup_suppressed,
            decode_errors: self.decode_errors - before.decode_errors,
            queue_drops: self.queue_drops - before.queue_drops,
            log_bytes: self.log_bytes - before.log_bytes,
            compactions: self.compactions - before.compactions,
            records_replayed: self.records_replayed - before.records_replayed,
        }
    }
}

/// The counters of `after` accumulated since `before`; the gauges
/// (`dag_nodes`, `shared_subtrees`) and registration-time counters are
/// `after`'s.
fn filter_since(after: FilterStats, before: FilterStats) -> FilterStats {
    FilterStats {
        events_filtered: after.events_filtered - before.events_filtered,
        batches_filtered: after.batches_filtered - before.batches_filtered,
        matches: after.matches - before.matches,
        trees_evaluated: after.trees_evaluated - before.trees_evaluated,
        skipped_by_pmin: after.skipped_by_pmin - before.skipped_by_pmin,
        predicates_fulfilled: after.predicates_fulfilled - before.predicates_fulfilled,
        killed_by_prefilter: after.killed_by_prefilter - before.killed_by_prefilter,
        stage2_candidates: after.stage2_candidates - before.stage2_candidates,
        node_evals_saved: after.node_evals_saved - before.node_evals_saved,
        filter_time: after.filter_time - before.filter_time,
        ..after
    }
}

/// A simulation plus, on a traced run, the handle on its transport's
/// recorder.
#[derive(Debug)]
pub struct Harness {
    /// The program under test.
    pub sim: Simulation,
    /// `Some` on a traced run.
    pub trace: Option<TraceHandle>,
}

impl Harness {
    fn new(config: SimulationConfig, traced: bool) -> Self {
        if traced {
            let (transport, handle) = TraceTransport::new();
            Self {
                sim: Simulation::with_transport(config, Box::new(transport)),
                trace: Some(handle),
            }
        } else {
            Self {
                sim: Simulation::new(config),
                trace: None,
            }
        }
    }

    /// Issues one driver call — as a root span on a traced run — and
    /// returns its result with its wall time.
    pub fn call<R>(
        &mut self,
        kind: RootKind,
        call: impl FnOnce(&mut Simulation) -> R,
    ) -> (R, Duration) {
        let Harness { sim, trace } = self;
        let start = Instant::now();
        let result = match trace {
            Some(trace) => trace.root(kind, || call(sim)),
            None => call(sim),
        };
        (result, start.elapsed())
    }

    fn set_phase(&self, phase: Option<Phase>) {
        if let Some(trace) = &self.trace {
            trace.set_phase(phase);
        }
    }

    fn set_capture(&self, on: bool) {
        if let Some(trace) = &self.trace {
            trace.set_capture(on);
        }
    }

    fn broker_ids(&self) -> Vec<BrokerId> {
        self.sim.topology().broker_ids().collect()
    }

    fn filter_per_broker(&self) -> Vec<FilterStats> {
        self.broker_ids()
            .into_iter()
            .map(|id| {
                self.sim
                    .broker(id)
                    .expect("broker of the topology")
                    .filter_stats()
            })
            .collect()
    }
}

/// The program configuration of a workload: the four `line5_*` workloads
/// run the paper's testbed with everything a deployment would turn on; the
/// centralized one is a single A-Tree broker. Engines keep
/// `EngineConfig::default()` — what a user gets.
pub fn simulation_config(workload: Workload) -> SimulationConfig {
    match workload {
        Workload::SingleAtree100k => {
            SimulationConfig::new(Topology::single()).with_engine(EngineKind::ATree)
        }
        _ => SimulationConfig::new(Topology::line(LINE_BROKERS))
            .with_engine(EngineKind::Counting)
            .with_reliability(true)
            .with_durability(DurabilityConfig::new()),
    }
}

/// What the unpruned network did with one cycle of `line5_pruned`'s inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Deliveries of each batch of the cycle.
    pub deliveries_per_step: Vec<u64>,
    /// Inter-broker event copies of the cycle.
    pub link_msgs: u64,
}

/// What pruning cost and achieved during set-up (`line5_pruned`).
#[derive(Debug, Clone, PartialEq)]
pub struct PruningReport {
    /// Building the selectivity estimator from the sampled events.
    pub estimate_s: f64,
    /// `register_all` + `prune_all`, summed over brokers.
    pub plan_s: f64,
    /// Applying the first half of each plan and installing the trees.
    pub install_s: f64,
    /// Prunings planned, summed over brokers.
    pub plan_len: u64,
    /// Prunings installed, summed over brokers.
    pub applied: u64,
    /// Remote associations before any pruning.
    pub unpruned_remote_associations: u64,
    /// The unpruned cycle, when set-up was asked to record it.
    pub baseline: Option<Baseline>,
}

/// Where set-up time went.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupReport {
    /// Generating the inputs.
    pub generate_s: f64,
    /// Building the simulation, registering the population and (on
    /// `line5_pruned`) estimating, planning and installing the pruning.
    pub build_s: f64,
    /// Pruning detail (`line5_pruned`).
    pub pruning: Option<PruningReport>,
}

impl SetupReport {
    /// The end-to-end set-up time: generate + build.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s
    }
}

/// Builds the simulation of a workload and registers its population.
///
/// On `line5_pruned`, `record_baseline` publishes one unpruned cycle
/// between registration and pruning (outside the set-up clock: it is
/// measurement scaffolding, not something a deployment does) so the pruned
/// run can be held to identical deliveries.
pub fn prepare(inputs: &Inputs, traced: bool, record_baseline: bool) -> (Harness, SetupReport) {
    let start = Instant::now();
    let mut harness = Harness::new(simulation_config(inputs.workload), traced);
    harness.set_phase(Some(Phase::Setup));
    for subscription in &inputs.subscriptions {
        let subscription = subscription.clone();
        harness.call(RootKind::Subscribe, |sim| {
            sim.register_subscription(subscription)
        });
    }
    harness.set_phase(None);
    let mut outside_clock = Duration::ZERO;

    let pruning = (inputs.workload == Workload::Line5Pruned).then(|| {
        let unpruned_remote_associations = harness.sim.memory_report().remote_associations as u64;
        let baseline = record_baseline.then(|| {
            let clock = Instant::now();
            let before = harness.sim.network_stats().messages;
            let deliveries_per_step = inputs
                .batches
                .iter()
                .map(|batch| harness.sim.publish_batch(batch).deliveries)
                .collect();
            let baseline = Baseline {
                deliveries_per_step,
                link_msgs: harness.sim.network_stats().messages - before,
            };
            outside_clock += clock.elapsed();
            baseline
        });

        let clock = Instant::now();
        let estimator = SelectivityEstimator::from_events(&inputs.estimator_sample);
        let estimate_s = clock.elapsed().as_secs_f64();

        // One pruner per broker over its remote (non-local) entries — only
        // those are ever pruned; the first half of each plan is installed.
        let (mut plan_s, mut install_s, mut plan_len, mut applied) = (0.0, 0.0, 0u64, 0u64);
        for broker in harness.broker_ids() {
            let remote = harness.sim.remote_subscriptions(broker);
            if remote.is_empty() {
                continue;
            }
            let clock = Instant::now();
            let mut pruner = Pruner::new(
                PrunerConfig::for_dimension(Dimension::NetworkLoad),
                estimator.clone(),
            );
            pruner.register_all(remote);
            let mut trees = pruner.original_trees();
            pruner.prune_all();
            plan_s += clock.elapsed().as_secs_f64();

            let clock = Instant::now();
            let plan = pruner.plan();
            let half = plan.len() / 2;
            let mut changed: Vec<SubscriptionId> = plan.as_slice()[..half]
                .iter()
                .map(|pruning| pruning.subscription)
                .collect();
            changed.sort_unstable();
            changed.dedup();
            plan.apply_range(&mut trees, 0, half);
            for id in changed {
                let installed = harness
                    .sim
                    .install_remote_tree(broker, id, trees[&id].clone());
                assert!(installed, "remote entry {id} must exist at {broker}");
            }
            install_s += clock.elapsed().as_secs_f64();
            plan_len += plan.len() as u64;
            applied += half as u64;
        }
        PruningReport {
            estimate_s,
            plan_s,
            install_s,
            plan_len,
            applied,
            unpruned_remote_associations,
            baseline,
        }
    });

    let report = SetupReport {
        generate_s: inputs.generate_s,
        build_s: (start.elapsed() - outside_clock).as_secs_f64(),
        pruning,
    };
    (harness, report)
}

/// Peak resident set of this process (`VmHWM`), in MiB; `0.0` where
/// `/proc` is not available.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A control operation the churn workload issued, kept so the durability
/// layer can be replayed over the run's own records.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlOp {
    /// A subscription was registered.
    Subscribe(Subscription),
    /// A subscription was removed.
    Unsubscribe(SubscriptionId),
}

/// Control operations kept for the durability replay.
const CONTROL_OP_CAP: usize = 50_000;

/// What the measured phase did and how long each call took.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measured {
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Whole cycles completed.
    pub cycles: u64,
    /// Events published.
    pub events: u64,
    /// Wall time of every publish call.
    pub publish: Samples,
    /// Wall time of every `register_subscription` call.
    pub subscribe: Samples,
    /// Wall time of every `unregister_subscription` call.
    pub unsubscribe: Samples,
    /// Control-plane bytes put on the links by the subscribe and
    /// unsubscribe calls themselves (`NetworkStats::control_bytes` read
    /// around each call, so the acks of interleaved publishes stay out).
    pub control_call_bytes: u64,
    /// [`Self::control_call_bytes`] when the first cycle ended. Later
    /// cycles register other fresh subscriptions, so only this prefix is
    /// the same however many cycles fit the time box.
    pub first_cycle_control_bytes: u64,
    /// Publish calls whose delivery count differed from the first time the
    /// same input was published (or from the unpruned baseline).
    pub inconsistent_steps: u64,
    /// Traffic caused by the phase.
    pub network: NetCounters,
    /// Filtering done by the phase, per broker.
    pub filter: Vec<FilterStats>,
    /// The control operations issued (traced runs only, capped).
    pub control_ops: Vec<ControlOp>,
}

impl Measured {
    /// Subscribes plus unsubscribes issued.
    pub fn control_op_count(&self) -> u64 {
        self.subscribe.count() + self.unsubscribe.count()
    }

    /// Filtering summed over brokers.
    pub fn filter_total(&self) -> FilterStats {
        let mut total = FilterStats::new();
        for stats in &self.filter {
            total.merge(stats);
        }
        total
    }
}

/// Everything one execution of a workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Set-up timing.
    pub setup: SetupReport,
    /// The measured phase.
    pub measured: Measured,
    /// Wall time of each whole-cluster crash/restart cycle.
    pub recovery_s: Vec<f64>,
    /// The oracle's verdict over all verification batches.
    pub verdict: Verdict,
    /// Routing memory at the end of the run.
    pub memory: RoutingMemoryReport,
    /// Registration-time analysis counters at the end of the run.
    pub analysis: AnalysisStats,
    /// Traffic counters of the whole run, set-up and recovery included.
    pub network_total: NetCounters,
    /// Peak resident set of the process (`VmHWM`, MiB) when the measured
    /// phase ended: set-up and the measured phase, without the oracle's and
    /// the restarts' scaffolding.
    pub peak_rss_mib: f64,
    /// The trace, on a traced run.
    pub trace: Option<TraceHandle>,
}

impl Outcome {
    /// Operations attempted: deliveries the oracle expected in the verified
    /// batches plus control operations issued.
    pub fn attempted(&self) -> u64 {
        self.verdict.expected + self.measured.control_op_count()
    }

    /// Operations failed: missing and spurious deliveries, publish calls
    /// whose delivery count changed between cycles, frames that failed to
    /// decode and frames dropped by a full queue.
    pub fn failed(&self) -> u64 {
        self.verdict.missing
            + self.verdict.spurious
            + self.measured.inconsistent_steps
            + self.network_total.decode_errors
            + self.network_total.queue_drops
    }
}

struct Driver<'a> {
    inputs: &'a mut Inputs,
    harness: Harness,
    /// Live subscriptions, oldest first.
    live: VecDeque<Subscription>,
    /// Delivery count first seen for each step of the cycle.
    expected: Vec<Option<u64>>,
    fresh_drawn: usize,
}

impl Driver<'_> {
    /// One driver step: a publish call, or on the churn workload an
    /// unsubscribe(oldest) + subscribe(fresh) + publish triple.
    fn step(&mut self, index: usize, measured: &mut Measured) {
        let deliveries = match self.inputs.workload {
            Workload::Line5Churn => {
                let oldest = self
                    .live
                    .pop_front()
                    .expect("the population is never empty");
                let home = self.harness.sim.home_broker_of(oldest.subscriber());
                let id = oldest.id();
                let control_before = self.harness.sim.network_stats().control_bytes;
                let ((), elapsed) = self.harness.call(RootKind::Unsubscribe, |sim| {
                    sim.unregister_subscription(id, home)
                });
                measured.unsubscribe.push(elapsed);

                let fresh = self.inputs.next_fresh_subscription(self.fresh_drawn);
                self.fresh_drawn += 1;
                let registered = fresh.clone();
                let ((), elapsed) = self.harness.call(RootKind::Subscribe, |sim| {
                    sim.register_subscription(registered)
                });
                measured.subscribe.push(elapsed);
                measured.control_call_bytes +=
                    self.harness.sim.network_stats().control_bytes - control_before;
                // Only the traced invocation replays the records; keeping
                // them on the untraced one would put harness memory into
                // `peak_rss_mb`.
                if self.harness.trace.is_some() && measured.control_ops.len() < CONTROL_OP_CAP {
                    measured.control_ops.push(ControlOp::Unsubscribe(id));
                    measured
                        .control_ops
                        .push(ControlOp::Subscribe(fresh.clone()));
                }
                self.live.push_back(fresh);

                let event = self.inputs.events[index].clone();
                let (_, elapsed) = self
                    .harness
                    .call(RootKind::Publish, |sim| sim.publish(event));
                measured.publish.push(elapsed);
                measured.events += 1;
                // The population changes under every publish, so there is
                // no earlier cycle to agree with; the oracle checks churn.
                return;
            }
            Workload::Line5Forward => {
                let event = self.inputs.events[index].clone();
                let (outcome, elapsed) = self
                    .harness
                    .call(RootKind::Publish, |sim| sim.publish(event));
                measured.publish.push(elapsed);
                measured.events += 1;
                outcome.deliveries.len() as u64
            }
            Workload::Line5Match | Workload::Line5Pruned | Workload::SingleAtree100k => {
                let batch = &self.inputs.batches[index];
                let (report, elapsed) = self
                    .harness
                    .call(RootKind::PublishBatch, |sim| sim.publish_batch(batch));
                measured.publish.push(elapsed);
                measured.events += batch.len() as u64;
                report.deliveries
            }
        };
        match self.expected[index] {
            Some(expected) if expected != deliveries => measured.inconsistent_steps += 1,
            Some(_) => {}
            None => self.expected[index] = Some(deliveries),
        }
    }

    fn measure(&mut self, budget: Budget) -> Measured {
        let steps = self.inputs.sizes.steps_per_cycle;
        // Warm-up: about an eighth of a cycle, unrecorded, so buffers,
        // string caches and scratch arrays have their steady-state size.
        let mut discarded = Measured::default();
        for index in 0..whole_rotations(steps / 8).clamp(LINE_BROKERS, steps) {
            self.step(index, &mut discarded);
        }

        let mut measured = Measured::default();
        let network_before = NetCounters::of(self.harness.sim.network_stats());
        let filter_before = self.harness.filter_per_broker();
        self.harness.set_phase(Some(Phase::Measured));
        // The first cycle's frames are kept for the codec/reliable replay.
        self.harness.set_capture(true);
        let start = Instant::now();
        loop {
            for index in 0..steps {
                self.step(index, &mut measured);
            }
            measured.cycles += 1;
            if measured.cycles == 1 {
                measured.first_cycle_control_bytes = measured.control_call_bytes;
            }
            self.harness.set_capture(false);
            if budget.spent(measured.cycles, start.elapsed()) {
                break;
            }
        }
        measured.wall_s = start.elapsed().as_secs_f64();
        self.harness.set_phase(None);
        measured.network = NetCounters::of(self.harness.sim.network_stats()).since(network_before);
        measured.filter = self
            .harness
            .filter_per_broker()
            .into_iter()
            .zip(filter_before)
            .map(|(after, before)| filter_since(after, before))
            .collect();
        measured
    }

    /// Crashes every broker, restarts every broker, and returns the wall
    /// time until the cluster is quiescent again.
    fn restart_cluster(&mut self) -> f64 {
        let ids = self.harness.broker_ids();
        self.harness.set_phase(Some(Phase::Recovery));
        let start = Instant::now();
        for &id in &ids {
            self.harness.sim.crash_broker(id);
        }
        for &id in &ids {
            self.harness
                .call(RootKind::Restart, |sim| sim.restart_broker(id));
        }
        let elapsed = start.elapsed().as_secs_f64();
        self.harness.set_phase(None);
        elapsed
    }

    fn verify(&mut self, batches: std::ops::Range<usize>) -> Verdict {
        verify(
            &mut self.harness.sim,
            self.live.iter(),
            &self.inputs.verify[batches],
        )
    }
}

/// Runs the measured phase, the whole-cluster restarts and the oracle
/// check on a prepared harness.
///
/// `recovery_cycles` whole-cluster crash/restart cycles follow the measured
/// phase (`line5_churn` only; must be below the number of verification
/// batches): the first verification batches are published after the
/// measured phase, one more after each restart.
pub fn execute(
    inputs: &mut Inputs,
    harness: Harness,
    setup: SetupReport,
    budget: Budget,
    recovery_cycles: usize,
) -> Outcome {
    let verify_batches = inputs.verify.len();
    assert!(
        recovery_cycles == 0 || inputs.workload == Workload::Line5Churn,
        "only line5_churn restarts the cluster"
    );
    assert!(recovery_cycles < verify_batches.max(1));
    let expected = match setup.pruning.as_ref().and_then(|p| p.baseline.as_ref()) {
        // Pruned deliveries must equal the unpruned baseline's.
        Some(baseline) => baseline
            .deliveries_per_step
            .iter()
            .map(|&d| Some(d))
            .collect(),
        None => vec![None; inputs.sizes.steps_per_cycle],
    };
    let live = inputs.subscriptions.iter().cloned().collect();
    let mut driver = Driver {
        inputs,
        harness,
        live,
        expected,
        fresh_drawn: 0,
    };

    let measured = driver.measure(budget);
    let peak_rss_mib = peak_rss_mib();
    let after_measured = verify_batches - recovery_cycles;
    let mut verdict = driver.verify(0..after_measured);
    let mut recovery_s = Vec::with_capacity(recovery_cycles);
    for cycle in 0..recovery_cycles {
        recovery_s.push(driver.restart_cluster());
        verdict.add(driver.verify(after_measured + cycle..after_measured + cycle + 1));
    }

    let Driver { harness, .. } = driver;
    Outcome {
        setup,
        measured,
        recovery_s,
        verdict,
        memory: harness.sim.memory_report(),
        analysis: harness.sim.analysis_stats(),
        network_total: NetCounters::of(harness.sim.network_stats()),
        peak_rss_mib,
        trace: harness.trace,
    }
}
