//! Network, memory, and run-level metrics of the distributed simulation.

use filtering::FilterStats;
use pubsub_core::BrokerId;
use std::collections::BTreeMap;
use std::time::Duration;

/// Counters for inter-broker traffic.
///
/// Every event copy handed from one broker to a neighbor counts as one
/// **message** (the quantity the paper's network-load figures report), and
/// every encoded wire frame counts as one **frame**; `bytes` is the exact
/// sum of the encoded data-plane frame lengths as produced by the wire
/// [`Codec`](crate::wire::Codec) — not an estimate. Control-plane traffic
/// (`Subscribe`/`Unsubscribe` flooding, `Hello`/`Ack` link setup) is
/// accounted separately so event-routing experiments stay comparable with
/// the paper. Per-link counters are keyed by the undirected link (smaller
/// broker id first).
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NetworkStats {
    /// Total inter-broker event copies (one per event per link crossing).
    pub messages: u64,
    /// Total data-plane frames those copies travelled in (batched routing
    /// packs many copies into one frame).
    pub frames: u64,
    /// Exact encoded bytes of the data-plane frames.
    pub bytes: u64,
    /// Total control-plane frames (subscription flooding, link setup).
    pub control_frames: u64,
    /// Exact encoded bytes of the control-plane frames.
    pub control_bytes: u64,
    /// Frames retransmitted by the reliable-link layer after a timeout.
    /// Retransmitted copies are *not* re-counted in `frames`/`bytes`; this
    /// counter is the observable cost of loss on the wire.
    pub retransmits: u64,
    /// Frames the reliable-link layer received more than once (duplicated by
    /// the transport, or retransmitted because an ack was lost) and
    /// suppressed instead of delivering twice.
    pub dup_suppressed: u64,
    /// Frames the reliable-link layer dropped because their checksum did not
    /// match (byte corruption in transit). Retransmission heals them.
    pub corrupt_dropped: u64,
    /// Broker crash/recovery cycles that re-synchronized routing state from
    /// neighbors (`SyncRequest`/`SyncState`).
    pub resyncs: u64,
    /// Frames the simulation received but could not decode (a
    /// [`CodecError`](crate::wire::CodecError)); each one was dropped, not
    /// delivered.
    pub decode_errors: u64,
    /// Frames dropped because a down link's bounded pending queue
    /// overflowed — the graceful-degradation signal of an outage outlasting
    /// the buffer budget.
    pub queue_drops: u64,
    /// Durable-log records (snapshot + log tail) applied during
    /// replay-on-restart, summed over all broker recoveries.
    pub log_records_replayed: u64,
    /// Durable-log snapshot compactions that completed (staged, swapped,
    /// truncated).
    pub snapshot_compactions: u64,
    /// Bytes appended to durable subscription logs (record framing
    /// included).
    pub log_bytes: u64,
    /// Durable-log replays that hit a torn or corrupt record and truncated
    /// the stream to its clean prefix instead of panicking.
    pub log_corrupt_truncations: u64,
    /// Event-copy counts per undirected link.
    pub per_link: BTreeMap<(BrokerId, BrokerId), u64>,
}

impl NetworkStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one single-event frame sent from `from` to `to`.
    pub fn record(&mut self, from: BrokerId, to: BrokerId, bytes: usize) {
        self.record_frame(from, to, 1, bytes);
    }

    /// Records one data-plane frame carrying `events` event copies from
    /// `from` to `to`, of exactly `bytes` encoded bytes.
    pub fn record_frame(&mut self, from: BrokerId, to: BrokerId, events: u64, bytes: usize) {
        self.messages += events;
        self.frames += 1;
        self.bytes += bytes as u64;
        let link = if from < to { (from, to) } else { (to, from) };
        *self.per_link.entry(link).or_insert(0) += events;
    }

    /// Records one control-plane frame of exactly `bytes` encoded bytes.
    pub fn record_control(&mut self, bytes: usize) {
        self.control_frames += 1;
        self.control_bytes += bytes as u64;
    }

    /// Messages carried by one undirected link.
    pub fn link_messages(&self, a: BrokerId, b: BrokerId) -> u64 {
        let link = if a < b { (a, b) } else { (b, a) };
        self.per_link.get(&link).copied().unwrap_or(0)
    }

    /// Proportional increase of this traffic relative to a baseline
    /// (`0.37` means 37 % more messages than the baseline).
    pub fn increase_vs(&self, baseline: &NetworkStats) -> f64 {
        if baseline.messages == 0 {
            return 0.0;
        }
        self.messages as f64 / baseline.messages as f64 - 1.0
    }

    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &NetworkStats) {
        self.messages += other.messages;
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.control_frames += other.control_frames;
        self.control_bytes += other.control_bytes;
        self.retransmits += other.retransmits;
        self.dup_suppressed += other.dup_suppressed;
        self.corrupt_dropped += other.corrupt_dropped;
        self.resyncs += other.resyncs;
        self.decode_errors += other.decode_errors;
        self.queue_drops += other.queue_drops;
        self.log_records_replayed += other.log_records_replayed;
        self.snapshot_compactions += other.snapshot_compactions;
        self.log_bytes += other.log_bytes;
        self.log_corrupt_truncations += other.log_corrupt_truncations;
        for (link, count) in &other.per_link {
            *self.per_link.entry(*link).or_insert(0) += count;
        }
    }

    /// Subtracts a previously captured snapshot, leaving the delta since the
    /// snapshot was taken (links absent from the snapshot are kept as-is).
    pub(crate) fn subtract(&mut self, snapshot: &NetworkStats) {
        self.messages -= snapshot.messages;
        self.frames -= snapshot.frames;
        self.bytes -= snapshot.bytes;
        self.control_frames -= snapshot.control_frames;
        self.control_bytes -= snapshot.control_bytes;
        self.retransmits -= snapshot.retransmits;
        self.dup_suppressed -= snapshot.dup_suppressed;
        self.corrupt_dropped -= snapshot.corrupt_dropped;
        self.resyncs -= snapshot.resyncs;
        self.decode_errors -= snapshot.decode_errors;
        self.queue_drops -= snapshot.queue_drops;
        self.log_records_replayed -= snapshot.log_records_replayed;
        self.snapshot_compactions -= snapshot.snapshot_compactions;
        self.log_bytes -= snapshot.log_bytes;
        self.log_corrupt_truncations -= snapshot.log_corrupt_truncations;
        for (link, count) in &snapshot.per_link {
            if let Some(current) = self.per_link.get_mut(link) {
                *current -= count;
            }
        }
    }
}

/// Memory accounting of one routing table (or of a whole simulation when
/// aggregated), split into local and remote entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RoutingMemoryReport {
    /// Number of local-client subscriptions.
    pub local_subscriptions: usize,
    /// Predicate/subscription associations of local entries.
    pub local_associations: usize,
    /// Estimated bytes of local entries.
    pub local_bytes: usize,
    /// Number of remote (neighbor-destination) entries.
    pub remote_subscriptions: usize,
    /// Predicate/subscription associations of remote entries — the quantity
    /// whose reduction Figure 1(f) reports.
    pub remote_associations: usize,
    /// Estimated bytes of remote entries.
    pub remote_bytes: usize,
    /// Distinct `attribute = constant` pairs the engines' predicate indexes
    /// hold a bucket for. Bounded by the live entries, however many
    /// constants passed through under churn.
    pub equality_constants: usize,
    /// Entries filed in the flood-suppression indexes built so far: at most
    /// every unpruned entry.
    pub subsumption_entries: usize,
}

impl RoutingMemoryReport {
    /// Total predicate/subscription associations (local + remote), the
    /// quantity of Figure 1(c).
    pub fn total_associations(&self) -> usize {
        self.local_associations + self.remote_associations
    }

    /// Total estimated bytes (local + remote).
    pub fn total_bytes(&self) -> usize {
        self.local_bytes + self.remote_bytes
    }

    /// Proportional reduction of *remote* associations relative to a baseline.
    pub fn remote_reduction_vs(&self, baseline: &RoutingMemoryReport) -> f64 {
        if baseline.remote_associations == 0 {
            return 0.0;
        }
        1.0 - self.remote_associations as f64 / baseline.remote_associations as f64
    }

    /// Proportional reduction of *all* associations relative to a baseline.
    pub fn total_reduction_vs(&self, baseline: &RoutingMemoryReport) -> f64 {
        if baseline.total_associations() == 0 {
            return 0.0;
        }
        1.0 - self.total_associations() as f64 / baseline.total_associations() as f64
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &RoutingMemoryReport) {
        self.local_subscriptions += other.local_subscriptions;
        self.local_associations += other.local_associations;
        self.local_bytes += other.local_bytes;
        self.remote_subscriptions += other.remote_subscriptions;
        self.remote_associations += other.remote_associations;
        self.remote_bytes += other.remote_bytes;
        self.equality_constants += other.equality_constants;
        self.subsumption_entries += other.subsumption_entries;
    }
}

/// Broker-level counters of registration-time subscription analysis: what
/// the analyzer did to the subscriptions a broker ingested, and how much
/// `Subscribe` flooding the subsumption check avoided.
///
/// The engine-level effects (simplification, rejection before indexing) are
/// also visible in [`FilterStats`]; this block adds the broker-only routing
/// outcomes — floods suppressed by subsumption and floods re-issued when a
/// subsuming subscription was later removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AnalysisStats {
    /// Subscriptions whose tree the analyzer rewrote at broker ingress.
    pub subs_simplified: u64,
    /// Expression nodes eliminated across all simplified subscriptions.
    pub nodes_eliminated: u64,
    /// Subscriptions rejected at ingress as unsatisfiable — counted,
    /// diagnosable, never indexed, never flooded.
    pub unsatisfiable_rejected: u64,
    /// `Subscribe` floods suppressed because an already-propagated
    /// subscription subsumes the new one toward that neighbor.
    pub subsumed_not_flooded: u64,
    /// Suppressed floods re-issued after their subsuming subscription was
    /// unsubscribed (keeps routing complete).
    pub reflooded: u64,
}

impl AnalysisStats {
    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &AnalysisStats) {
        self.subs_simplified += other.subs_simplified;
        self.nodes_eliminated += other.nodes_eliminated;
        self.unsatisfiable_rejected += other.unsatisfiable_rejected;
        self.subsumed_not_flooded += other.subsumed_not_flooded;
        self.reflooded += other.reflooded;
    }
}

/// The result of publishing a batch of events through the simulation.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RunReport {
    /// Number of events published.
    pub events_published: u64,
    /// Total notifications delivered to local subscribers.
    pub deliveries: u64,
    /// Inter-broker traffic generated by the run.
    pub network: NetworkStats,
    /// Merged filtering statistics of all brokers.
    pub filter_stats: FilterStats,
    /// Merged registration-time analysis statistics of all brokers.
    pub analysis: AnalysisStats,
    /// Per-broker filtering statistics.
    pub per_broker_filter: BTreeMap<BrokerId, FilterStats>,
}

impl RunReport {
    /// Average wall-clock filtering time per published event, summed over all
    /// brokers the event visited (the y-axis of Figure 1(d)).
    pub fn filter_time_per_event(&self) -> Duration {
        if self.events_published == 0 {
            return Duration::ZERO;
        }
        self.filter_stats.filter_time / u32::try_from(self.events_published).unwrap_or(u32::MAX)
    }

    /// Average number of notifications per published event.
    pub fn deliveries_per_event(&self) -> f64 {
        if self.events_published == 0 {
            0.0
        } else {
            self.deliveries as f64 / self.events_published as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BrokerId {
        BrokerId::from_raw(i)
    }

    #[test]
    fn network_stats_record_and_query() {
        let mut stats = NetworkStats::new();
        stats.record(b(0), b(1), 100);
        stats.record(b(1), b(0), 50);
        stats.record(b(1), b(2), 70);
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.bytes, 220);
        assert_eq!(stats.link_messages(b(0), b(1)), 2);
        assert_eq!(stats.link_messages(b(1), b(0)), 2);
        assert_eq!(stats.link_messages(b(1), b(2)), 1);
        assert_eq!(stats.link_messages(b(0), b(2)), 0);
    }

    #[test]
    fn batched_frames_separate_copies_from_frames() {
        let mut stats = NetworkStats::new();
        stats.record_frame(b(0), b(1), 16, 900);
        stats.record_frame(b(1), b(2), 4, 300);
        stats.record_control(40);
        assert_eq!(stats.messages, 20);
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.bytes, 1200);
        assert_eq!(stats.control_frames, 1);
        assert_eq!(stats.control_bytes, 40);
        assert_eq!(stats.link_messages(b(0), b(1)), 16);
        // Control traffic never counts as event messages.
        let snapshot = stats.clone();
        let mut delta = stats.clone();
        delta.subtract(&snapshot);
        assert_eq!(delta.messages, 0);
        assert_eq!(delta.frames, 0);
        assert_eq!(delta.control_frames, 0);
        assert_eq!(delta.link_messages(b(0), b(1)), 0);
    }

    #[test]
    fn network_increase_vs_baseline() {
        let mut baseline = NetworkStats::new();
        for _ in 0..100 {
            baseline.record(b(0), b(1), 10);
        }
        let mut pruned = baseline.clone();
        for _ in 0..37 {
            pruned.record(b(0), b(1), 10);
        }
        assert!((pruned.increase_vs(&baseline) - 0.37).abs() < 1e-12);
        assert_eq!(baseline.increase_vs(&baseline), 0.0);
        assert_eq!(NetworkStats::new().increase_vs(&NetworkStats::new()), 0.0);
    }

    #[test]
    fn network_merge_accumulates() {
        let mut a = NetworkStats::new();
        a.record(b(0), b(1), 10);
        let mut c = NetworkStats::new();
        c.record(b(0), b(1), 20);
        c.record(b(1), b(2), 30);
        a.merge(&c);
        assert_eq!(a.messages, 3);
        assert_eq!(a.bytes, 60);
        assert_eq!(a.link_messages(b(0), b(1)), 2);
    }

    #[test]
    fn reliability_counters_merge_and_subtract() {
        let faults = NetworkStats {
            retransmits: 5,
            dup_suppressed: 4,
            corrupt_dropped: 3,
            resyncs: 2,
            decode_errors: 1,
            queue_drops: 6,
            log_records_replayed: 7,
            snapshot_compactions: 8,
            log_bytes: 9,
            log_corrupt_truncations: 10,
            ..NetworkStats::new()
        };
        let mut total = NetworkStats::new();
        total.merge(&faults);
        total.merge(&faults);
        assert_eq!(total.retransmits, 10);
        assert_eq!(total.dup_suppressed, 8);
        assert_eq!(total.corrupt_dropped, 6);
        assert_eq!(total.resyncs, 4);
        assert_eq!(total.decode_errors, 2);
        assert_eq!(total.queue_drops, 12);
        assert_eq!(total.log_records_replayed, 14);
        assert_eq!(total.snapshot_compactions, 16);
        assert_eq!(total.log_bytes, 18);
        assert_eq!(total.log_corrupt_truncations, 20);
        total.subtract(&faults);
        assert_eq!(total, faults);
    }

    #[test]
    fn analysis_stats_merge_accumulates() {
        let mut a = AnalysisStats {
            subs_simplified: 1,
            nodes_eliminated: 2,
            unsatisfiable_rejected: 3,
            subsumed_not_flooded: 4,
            reflooded: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.subs_simplified, 2);
        assert_eq!(a.nodes_eliminated, 4);
        assert_eq!(a.unsatisfiable_rejected, 6);
        assert_eq!(a.subsumed_not_flooded, 8);
        assert_eq!(a.reflooded, 10);
    }

    #[test]
    fn memory_report_reductions() {
        let baseline = RoutingMemoryReport {
            local_subscriptions: 10,
            local_associations: 30,
            local_bytes: 300,
            remote_subscriptions: 40,
            remote_associations: 120,
            remote_bytes: 1200,
            ..RoutingMemoryReport::default()
        };
        let pruned = RoutingMemoryReport {
            remote_associations: 60,
            remote_bytes: 600,
            ..baseline
        };
        assert_eq!(baseline.total_associations(), 150);
        assert_eq!(baseline.total_bytes(), 1500);
        assert!((pruned.remote_reduction_vs(&baseline) - 0.5).abs() < 1e-12);
        assert!((pruned.total_reduction_vs(&baseline) - 0.4).abs() < 1e-12);
        assert_eq!(
            RoutingMemoryReport::default().remote_reduction_vs(&RoutingMemoryReport::default()),
            0.0
        );
    }

    #[test]
    fn memory_report_merge() {
        let mut a = RoutingMemoryReport {
            local_subscriptions: 1,
            local_associations: 2,
            local_bytes: 3,
            remote_subscriptions: 4,
            remote_associations: 5,
            remote_bytes: 6,
            equality_constants: 7,
            subsumption_entries: 8,
        };
        a.merge(&a.clone());
        assert_eq!(a.local_subscriptions, 2);
        assert_eq!(a.remote_bytes, 12);
        assert_eq!((a.equality_constants, a.subsumption_entries), (14, 16));
    }

    #[test]
    fn run_report_averages() {
        let mut report = RunReport {
            events_published: 4,
            deliveries: 10,
            ..Default::default()
        };
        report.filter_stats.filter_time = Duration::from_millis(20);
        assert_eq!(report.filter_time_per_event(), Duration::from_millis(5));
        assert_eq!(report.deliveries_per_event(), 2.5);
        let empty = RunReport::default();
        assert_eq!(empty.filter_time_per_event(), Duration::ZERO);
        assert_eq!(empty.deliveries_per_event(), 0.0);
    }
}
