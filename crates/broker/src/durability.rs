//! Durable broker state: a crash-consistent, append-only subscription log
//! with snapshot compaction behind a pluggable [`Storage`] abstraction.
//!
//! PR 7's recovery protocol rebuilds a restarted broker entirely from live
//! neighbors (`SyncRequest`/`SyncState`) and re-connecting clients. That
//! works for isolated crashes but loses everything under a correlated
//! failure: when *every* broker is down, nobody remembers anything. This
//! module gives each broker its own durable memory:
//!
//! * **Log records.** Every accepted `Subscribe`/`Unsubscribe` (post
//!   analysis, so the analyzer's normal form is what's persisted) is
//!   appended to an append-only log. A record's payload is the arrival
//!   link (`0` = local client, `n + 1` = neighbor `n`) followed by the
//!   operation as a regular [`wire::Codec`](crate::wire::Codec) frame;
//!   framing and checksumming use
//!   [`pubsub_core::record`] (length prefix + FNV-1a 64). A `Subscribe`
//!   whose id is already registered is a *replace* — replay applies
//!   records in order, so latest wins.
//! * **Snapshot compaction.** Once the log holds at least
//!   [`compact_every`](DurabilityConfig::compact_every) records *and* at
//!   least as many bytes as the last snapshot written, the whole routing
//!   table is serialized into a fresh snapshot (the same record stream
//!   shape) and swapped in with write-new-then-rename semantics; only after
//!   the swap is the log truncated. The size rule makes the rewrite
//!   amortised O(1) per appended byte whatever the table's size, and keeps
//!   snapshot + log within twice the larger of the last snapshot and the
//!   live table, plus one period. A crash between the two steps leaves the
//!   new snapshot unswapped or the old log untruncated — recovery discards
//!   an unswapped snapshot and tolerates a stale log because replay is
//!   idempotent.
//! * **Restart.** The compaction counters are re-seeded from what replay
//!   read (records and bytes of the log tail, bytes of the snapshot), so a
//!   process that restarts more often than it compacts still compacts.
//! * **Replay.** On restart the snapshot and then the log tail are driven
//!   back through the broker's normal message ingress (flood responses
//!   discarded — neighbors already hold their state), stopping cleanly at
//!   the first torn or corrupt record instead of panicking. Only then does
//!   the existing sync path reconcile with any *live* neighbors.
//!
//! Two backends implement [`Storage`]: [`MemoryStorage`] (deterministic,
//! fault-injectable through [`StorageFaultPlan`] — the disk counterpart of
//! [`FaultPlan`](crate::fault::FaultPlan)) and [`FileStorage`] (real
//! files, append + atomic rename). The simulation uses the in-memory
//! backend so whole-cluster crash/restart runs stay reproducible.

use crate::broker_node::{Broker, MessageHandling};
use crate::wire::{Codec, WireMessage};
use pubsub_core::record::{append_record, RecordReader};
use pubsub_core::{BrokerId, Subscription, SubscriptionId};
use rand::{Rng, SeedableRng, StdRng};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Storage object holding the append-only record log.
pub const LOG_OBJECT: &str = "log";
/// Storage object holding the last completed snapshot.
pub const SNAPSHOT_OBJECT: &str = "snapshot";
/// Staging name of an in-progress snapshot; renamed to
/// [`SNAPSHOT_OBJECT`] once fully written (write-new-then-rename).
pub const SNAPSHOT_STAGING_OBJECT: &str = "snapshot.new";

/// Bytes at the end of the log a crash can damage: the tail of the most
/// recent write, which a real crash catches before the matching `fsync`.
/// Everything before this window is treated as synced and stays intact.
const CRASH_TAIL_WINDOW: usize = 96;

/// Named byte objects a [`DurableLog`] persists its state into.
///
/// The contract mirrors a directory of files: whole-object `read`,
/// append-only `write` growth, and an atomic `rename` for the
/// write-new-then-rename snapshot swap. Implementations may inject faults
/// through the [`crash`](Storage::crash) and
/// [`compaction_interrupted`](Storage::compaction_interrupted) hooks —
/// the default implementations are fault-free no-ops.
pub trait Storage: std::fmt::Debug + Send {
    /// Reads a whole object, or `None` if it does not exist.
    fn read(&self, name: &str) -> Option<Vec<u8>>;
    /// Creates (or truncates) an object with the given contents.
    fn write(&mut self, name: &str, bytes: &[u8]);
    /// Appends bytes to an object, creating it if missing.
    fn append(&mut self, name: &str, bytes: &[u8]);
    /// Atomically renames an object, replacing any existing target.
    fn rename(&mut self, from: &str, to: &str);
    /// Removes an object if it exists.
    fn remove(&mut self, name: &str);
    /// Called when the owning broker crashes: a fault-injecting backend
    /// damages the unsynced log tail here (torn write, bit flip).
    fn crash(&mut self) {}
    /// Rolls whether an in-progress compaction dies after staging the new
    /// snapshot but before the swap — leaving both old and new snapshot
    /// plus the untruncated log for recovery to sort out.
    fn compaction_interrupted(&mut self) -> bool {
        false
    }
    /// Installs a deterministic fault plan, on backends that support fault
    /// injection (default: ignored — real storage does not fake crashes).
    fn set_fault_plan(&mut self, plan: StorageFaultPlan) {
        let _ = plan;
    }
}

/// Deterministic, seeded plan of storage faults for [`MemoryStorage`] —
/// the disk counterpart of [`FaultPlan`](crate::fault::FaultPlan).
///
/// Faults model what an OS crash does to writes that were never synced:
/// damage is confined to the tail window of the log (the bytes of the most
/// recent append), never to records the log had already committed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageFaultPlan {
    /// Probability that a crash tears the log's tail write at a random
    /// byte k inside the tail window.
    pub torn_write: f64,
    /// Probability that a crash flips one random bit inside the log's
    /// tail window (a partially written sector).
    pub corrupt: f64,
    /// Probability that a compaction is interrupted after staging the new
    /// snapshot but before the atomic swap.
    pub crash_compaction: f64,
    /// Seed of the deterministic fault schedule.
    pub seed: u64,
}

impl StorageFaultPlan {
    /// A fault-free plan with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            torn_write: 0.0,
            corrupt: 0.0,
            crash_compaction: 0.0,
            seed,
        }
    }

    /// Sets the torn-write probability (applied per crash).
    pub fn with_torn_write(mut self, probability: f64) -> Self {
        self.torn_write = probability;
        self
    }

    /// Sets the bit-corruption probability (applied per crash).
    pub fn with_corrupt(mut self, probability: f64) -> Self {
        self.corrupt = probability;
        self
    }

    /// Sets the interrupted-compaction probability (applied per
    /// compaction).
    pub fn with_crash_compaction(mut self, probability: f64) -> Self {
        self.crash_compaction = probability;
        self
    }
}

/// In-memory [`Storage`]: a deterministic map of named byte buffers,
/// optionally injecting the faults of a [`StorageFaultPlan`].
#[derive(Debug, Default)]
pub struct MemoryStorage {
    objects: BTreeMap<String, Vec<u8>>,
    faults: Option<(StorageFaultPlan, StdRng)>,
}

impl MemoryStorage {
    /// Creates empty, fault-free storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates empty storage injecting the given fault plan.
    pub fn with_fault_plan(plan: StorageFaultPlan) -> Self {
        let mut storage = Self::new();
        storage.set_fault_plan(plan);
        storage
    }

    /// Installs (or replaces) the fault plan; the schedule restarts from
    /// the plan's seed.
    pub fn set_fault_plan(&mut self, plan: StorageFaultPlan) {
        self.faults = Some((plan, StdRng::seed_from_u64(plan.seed)));
    }

    /// Direct read access to one object (test introspection).
    pub fn object(&self, name: &str) -> Option<&[u8]> {
        self.objects.get(name).map(Vec::as_slice)
    }
}

impl Storage for MemoryStorage {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        self.objects.get(name).cloned()
    }

    fn write(&mut self, name: &str, bytes: &[u8]) {
        self.objects.insert(name.to_string(), bytes.to_vec());
    }

    fn append(&mut self, name: &str, bytes: &[u8]) {
        // The steady-state append path: avoid allocating a key when the
        // object already exists (it always does after the first record).
        if let Some(object) = self.objects.get_mut(name) {
            object.extend_from_slice(bytes);
        } else {
            self.objects.insert(name.to_string(), bytes.to_vec());
        }
    }

    fn rename(&mut self, from: &str, to: &str) {
        if let Some(bytes) = self.objects.remove(from) {
            self.objects.insert(to.to_string(), bytes);
        }
    }

    fn remove(&mut self, name: &str) {
        self.objects.remove(name);
    }

    fn crash(&mut self) {
        let Some((plan, rng)) = self.faults.as_mut() else {
            return;
        };
        let Some(log) = self.objects.get_mut(LOG_OBJECT) else {
            return;
        };
        if !log.is_empty() && plan.torn_write > 0.0 && rng.gen_bool(plan.torn_write) {
            // The tail write never fully hit the disk: cut at byte k.
            let window = log.len().min(CRASH_TAIL_WINDOW);
            let keep = log.len() - 1 - rng.gen_range(0..window);
            log.truncate(keep);
        }
        if !log.is_empty() && plan.corrupt > 0.0 && rng.gen_bool(plan.corrupt) {
            // A partially written sector: one bit of the tail flips.
            let window = log.len().min(CRASH_TAIL_WINDOW);
            let index = log.len() - 1 - rng.gen_range(0..window);
            let bit = rng.gen_range(0..8);
            log[index] ^= 1 << bit;
        }
    }

    fn compaction_interrupted(&mut self) -> bool {
        match self.faults.as_mut() {
            Some((plan, rng)) => plan.crash_compaction > 0.0 && rng.gen_bool(plan.crash_compaction),
            None => false,
        }
    }

    fn set_fault_plan(&mut self, plan: StorageFaultPlan) {
        MemoryStorage::set_fault_plan(self, plan);
    }
}

/// File-backed [`Storage`]: each object is a file inside one directory,
/// `append` uses append mode, and `rename` maps to the filesystem's atomic
/// rename — the real-world realization of write-new-then-rename.
///
/// I/O errors panic: the durability layer has no meaningful degraded mode
/// when its backing directory disappears mid-run, and the simulation
/// treats storage as infallible (fault injection models *crash* effects,
/// not EIO).
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
}

impl FileStorage {
    /// Opens (creating if needed) the backing directory.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Storage for FileStorage {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        match fs::read(self.path(name)) {
            Ok(bytes) => Some(bytes),
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => None,
            Err(error) => panic!("durable storage read {name}: {error}"),
        }
    }

    fn write(&mut self, name: &str, bytes: &[u8]) {
        fs::write(self.path(name), bytes).expect("durable storage write");
    }

    fn append(&mut self, name: &str, bytes: &[u8]) {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .expect("durable storage open for append");
        file.write_all(bytes).expect("durable storage append");
    }

    fn rename(&mut self, from: &str, to: &str) {
        match fs::rename(self.path(from), self.path(to)) {
            Ok(()) => {}
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {}
            Err(error) => panic!("durable storage rename {from} -> {to}: {error}"),
        }
    }

    fn remove(&mut self, name: &str) {
        match fs::remove_file(self.path(name)) {
            Ok(()) => {}
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {}
            Err(error) => panic!("durable storage remove {name}: {error}"),
        }
    }
}

/// Tuning of a broker's [`DurableLog`]. Carried by
/// [`SimulationConfig::with_durability`](crate::SimulationConfig::with_durability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Minimum number of appended records between snapshot compactions; `0`
    /// disables compaction (the log grows unboundedly). A compaction runs
    /// once this many records were appended since the last one *and* their
    /// bytes reach the bytes of the last snapshot written, so a large table
    /// is rewritten once per table-sized stretch of log, not once per
    /// period.
    pub compact_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self { compact_every: 64 }
    }
}

impl DurabilityConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the minimum compaction spacing in appended records (`0`
    /// disables).
    pub fn with_compact_every(mut self, records: u64) -> Self {
        self.compact_every = records;
        self
    }
}

/// Counters of one broker's durability activity. Drained into
/// [`NetworkStats`](crate::NetworkStats) by the simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Records (snapshot + log) applied during replay-on-restart.
    pub log_records_replayed: u64,
    /// Snapshot compactions that completed (staged, swapped, truncated).
    pub snapshot_compactions: u64,
    /// Bytes appended to the log (framing included).
    pub log_bytes: u64,
    /// Replays that hit a torn or corrupt record and truncated the stream
    /// to its clean prefix instead of panicking.
    pub log_corrupt_truncations: u64,
}

impl DurabilityStats {
    /// Takes the counters, leaving zeroes — the simulation's per-pump
    /// absorption into [`NetworkStats`](crate::NetworkStats).
    pub fn drain(&mut self) -> DurabilityStats {
        std::mem::take(self)
    }
}

/// One broker's durable subscription log: owns the [`Storage`] backend,
/// appends operation records, compacts into snapshots, and replays on
/// restart. The log outlives the broker *instance* — the simulation moves
/// it from the crashed incarnation to the fresh one.
#[derive(Debug)]
pub struct DurableLog {
    storage: Box<dyn Storage>,
    config: DurabilityConfig,
    /// Records in the log, i.e. appended since the last compaction.
    records_since_compaction: u64,
    /// Bytes in the log, i.e. appended since the last compaction.
    bytes_since_compaction: u64,
    /// Bytes of the last snapshot written; `0` before the first.
    snapshot_bytes: u64,
    codec: Codec,
    /// Scratch: one record payload (origin prefix + operation frame).
    payload: Vec<u8>,
    /// Scratch: one framed record.
    record: Vec<u8>,
    stats: DurabilityStats,
}

impl DurableLog {
    /// Creates a log over the given backend.
    pub fn new(storage: Box<dyn Storage>, config: DurabilityConfig) -> Self {
        Self {
            storage,
            config,
            records_since_compaction: 0,
            bytes_since_compaction: 0,
            snapshot_bytes: 0,
            codec: Codec::new(),
            payload: Vec::new(),
            record: Vec::new(),
            stats: DurabilityStats::default(),
        }
    }

    /// Creates a log over fresh fault-free [`MemoryStorage`].
    pub fn in_memory(config: DurabilityConfig) -> Self {
        Self::new(Box::new(MemoryStorage::new()), config)
    }

    /// The log's configuration.
    pub fn config(&self) -> DurabilityConfig {
        self.config
    }

    /// Current counters (cumulative since the last drain).
    pub fn stats(&self) -> DurabilityStats {
        self.stats
    }

    /// Takes the counters, leaving zeroes.
    pub fn drain_stats(&mut self) -> DurabilityStats {
        self.stats.drain()
    }

    /// Read access to the backend (how many bytes are stored).
    pub fn storage(&self) -> &dyn Storage {
        self.storage.as_ref()
    }

    /// Mutable access to the backend (fault-plan installation, test
    /// introspection).
    pub fn storage_mut(&mut self) -> &mut dyn Storage {
        self.storage.as_mut()
    }

    /// Forwards a broker crash to the backend so a fault plan can damage
    /// the unsynced tail.
    pub fn crash(&mut self) {
        self.storage.crash();
    }

    /// Appends an accepted (already analyzed) subscribe/replace record.
    pub fn append_subscribe(&mut self, subscription: &Subscription, origin: Option<BrokerId>) {
        self.payload.clear();
        self.payload
            .extend_from_slice(&encode_origin(origin).to_le_bytes());
        self.codec.encode_subscribe(subscription, &mut self.payload);
        self.append_payload();
    }

    /// Appends an accepted unsubscribe record.
    pub fn append_unsubscribe(&mut self, id: SubscriptionId, origin: Option<BrokerId>) {
        self.payload.clear();
        self.payload
            .extend_from_slice(&encode_origin(origin).to_le_bytes());
        self.codec
            .encode_into(&WireMessage::Unsubscribe { id }, &mut self.payload);
        self.append_payload();
    }

    /// Frames whatever `self.payload` holds as a record and appends it.
    fn append_payload(&mut self) {
        self.record.clear();
        append_record(&mut self.record, &self.payload);
        self.storage.append(LOG_OBJECT, &self.record);
        self.stats.log_bytes += self.record.len() as u64;
        self.records_since_compaction += 1;
        self.bytes_since_compaction += self.record.len() as u64;
    }

    /// Whether the log grew enough for a compaction: at least
    /// [`compact_every`](DurabilityConfig::compact_every) records, and at
    /// least the bytes of the last snapshot.
    pub fn wants_compaction(&self) -> bool {
        self.config.compact_every > 0
            && self.records_since_compaction >= self.config.compact_every
            && self.bytes_since_compaction >= self.snapshot_bytes
    }

    /// Compacts the log: serializes the broker's current table (its
    /// `entries()` iterator) into a staged snapshot, atomically swaps it
    /// in, and truncates the log. A `compaction_interrupted` backend stops
    /// after the staging write — exactly the state a crash between the
    /// two steps leaves behind.
    pub fn compact<'a>(
        &mut self,
        entries: impl Iterator<Item = (Option<BrokerId>, &'a Subscription)>,
    ) {
        let mut snapshot = Vec::new();
        for (origin, subscription) in entries {
            self.payload.clear();
            self.payload
                .extend_from_slice(&encode_origin(origin).to_le_bytes());
            self.codec.encode_subscribe(subscription, &mut self.payload);
            append_record(&mut snapshot, &self.payload);
        }
        self.storage.write(SNAPSHOT_STAGING_OBJECT, &snapshot);
        // Restart the period either way: an interrupted compaction retries
        // a full period later, not on every subsequent append.
        self.records_since_compaction = 0;
        self.bytes_since_compaction = 0;
        self.snapshot_bytes = snapshot.len() as u64;
        if self.storage.compaction_interrupted() {
            return;
        }
        self.storage
            .rename(SNAPSHOT_STAGING_OBJECT, SNAPSHOT_OBJECT);
        self.storage.write(LOG_OBJECT, &[]);
        self.stats.snapshot_compactions += 1;
    }

    /// Replays the snapshot and then the log tail through `apply`,
    /// stopping each stream cleanly at its first torn or corrupt record
    /// (counted in
    /// [`log_corrupt_truncations`](DurabilityStats::log_corrupt_truncations))
    /// and rewriting the stored object to the clean prefix so future
    /// appends land after valid records. The compaction counters restart
    /// from what was read, so a log opened over existing storage compacts
    /// when one that had written it all itself would.
    pub fn replay(&mut self, mut apply: impl FnMut(&WireMessage, Option<BrokerId>)) {
        // An unswapped staging snapshot is an interrupted compaction: the
        // old snapshot + untruncated log are authoritative; discard it.
        if self.storage.read(SNAPSHOT_STAGING_OBJECT).is_some() {
            self.storage.remove(SNAPSHOT_STAGING_OBJECT);
        }
        let mut message = WireMessage::Ack {
            broker: BrokerId::from_raw(0),
        };
        for object in [SNAPSHOT_OBJECT, LOG_OBJECT] {
            // A missing object replays like an empty one.
            let bytes = self.storage.read(object).unwrap_or_default();
            let mut reader = RecordReader::new(&bytes);
            let mut clean_end = 0usize;
            let mut records = 0u64;
            let mut undecodable = false;
            while let Some(payload) = reader.next_record() {
                match decode_record(&mut self.codec, payload, &mut message) {
                    Some(origin) => {
                        apply(&message, origin);
                        records += 1;
                        clean_end = reader.clean_len();
                    }
                    None => {
                        // CRC-clean but not a valid operation frame: treat
                        // like corruption, stop at the prior boundary.
                        undecodable = true;
                        break;
                    }
                }
            }
            if reader.damage().is_some() || undecodable {
                self.stats.log_corrupt_truncations += 1;
                self.storage.write(object, &bytes[..clean_end]);
            }
            self.stats.log_records_replayed += records;
            if object == SNAPSHOT_OBJECT {
                self.snapshot_bytes = clean_end as u64;
            } else {
                self.records_since_compaction = records;
                self.bytes_since_compaction = clean_end as u64;
            }
        }
    }
}

/// Attaches a log to a broker and replays it (see [`Broker::recover`]).
impl Broker {
    /// Attaches a durable log: every accepted `Subscribe`/`Unsubscribe`
    /// (and installed sync state) is appended from now on.
    pub fn attach_durable_log(&mut self, log: DurableLog) {
        self.set_journal(Some(log));
    }

    /// Detaches and returns the durable log, if one is attached.
    pub fn take_durable_log(&mut self) -> Option<DurableLog> {
        self.take_journal()
    }

    /// Read access to the attached durable log.
    pub fn durable_log(&self) -> Option<&DurableLog> {
        self.journal()
    }

    /// Mutable access to the attached durable log (fault-plan
    /// installation, stat draining).
    pub fn durable_log_mut(&mut self) -> Option<&mut DurableLog> {
        self.journal_mut()
    }

    /// Replays the attached log through this broker's normal message
    /// ingress, discarding the flood responses replay would generate
    /// (neighbors already hold their state — or are equally crashed and
    /// replaying their own logs). Records are not re-appended during
    /// replay. Returns the number of records applied.
    pub fn recover(&mut self) -> u64 {
        let Some(mut log) = self.take_journal() else {
            return 0;
        };
        let before = log.stats().log_records_replayed;
        let mut handling = MessageHandling::new();
        log.replay(|message, origin| {
            self.handle_message_into(message, origin, &mut handling);
        });
        let replayed = log.stats().log_records_replayed - before;
        self.set_journal(Some(log));
        replayed
    }
}

/// Origin encoding inside a record payload: `0` is a local client,
/// `n + 1` is neighbor broker `n`.
fn encode_origin(origin: Option<BrokerId>) -> u32 {
    match origin {
        None => 0,
        Some(broker) => {
            debug_assert!(
                broker.raw() < u32::MAX,
                "broker id overflows origin encoding"
            );
            broker.raw() + 1
        }
    }
}

/// Decodes a record payload: the origin prefix plus one
/// `Subscribe`/`Unsubscribe` codec frame. `None` means the payload is not
/// a valid operation record.
fn decode_record(
    codec: &mut Codec,
    payload: &[u8],
    message: &mut WireMessage,
) -> Option<Option<BrokerId>> {
    if payload.len() < 4 {
        return None;
    }
    let raw = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes"));
    codec.decode_into(&payload[4..], message).ok()?;
    if !matches!(
        message,
        WireMessage::Subscribe { .. } | WireMessage::Unsubscribe { .. }
    ) {
        return None;
    }
    Some(match raw {
        0 => None,
        n => Some(BrokerId::from_raw(n - 1)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::record::RECORD_OVERHEAD;
    use pubsub_core::{Expr, SubscriberId};

    fn b(i: u32) -> BrokerId {
        BrokerId::from_raw(i)
    }

    fn sub(id: u64, subscriber: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(subscriber),
            expr,
        )
    }

    fn broker_with_log(compact_every: u64) -> Broker {
        let mut broker = Broker::new(b(1), vec![b(0), b(2)]);
        broker.attach_durable_log(DurableLog::in_memory(
            DurabilityConfig::new().with_compact_every(compact_every),
        ));
        broker
    }

    /// Drives a subscribe through the broker ingress (so it is logged).
    fn subscribe(broker: &mut Broker, subscription: Subscription, from: Option<BrokerId>) {
        broker.handle_message(&WireMessage::Subscribe { subscription }, from);
    }

    fn table_of(broker: &Broker) -> Vec<(Option<BrokerId>, u64)> {
        let mut local: Vec<(Option<BrokerId>, u64)> = broker
            .local_subscriptions()
            .iter()
            .map(|s| (None, s.id().raw()))
            .collect();
        local.extend(broker.remote_subscriptions().iter().map(|s| {
            (
                broker.routing_table().remote_destination(s.id()),
                s.id().raw(),
            )
        }));
        local.sort();
        local
    }

    #[test]
    fn log_only_recovery_restores_local_and_remote_entries() {
        let mut broker = broker_with_log(0);
        subscribe(
            &mut broker,
            sub(1, 11, &Expr::eq("category", "books")),
            None,
        );
        subscribe(
            &mut broker,
            sub(2, 22, &Expr::eq("category", "music")),
            Some(b(0)),
        );
        subscribe(
            &mut broker,
            sub(3, 33, &Expr::le("price", 10i64)),
            Some(b(2)),
        );
        broker.handle_message(
            &WireMessage::Unsubscribe {
                id: SubscriptionId::from_raw(3),
            },
            Some(b(2)),
        );
        let expected = table_of(&broker);

        // Crash: the broker instance dies, the log survives.
        let log = broker.take_durable_log().expect("log attached");
        let mut fresh = Broker::new(b(1), vec![b(0), b(2)]);
        fresh.attach_durable_log(log);
        assert_eq!(fresh.recover(), 4);
        assert_eq!(table_of(&fresh), expected);
        let stats = fresh.durable_log().unwrap().stats();
        assert_eq!(stats.log_records_replayed, 4);
        assert_eq!(stats.log_corrupt_truncations, 0);
    }

    #[test]
    fn replace_records_apply_latest_wins() {
        let mut broker = broker_with_log(0);
        subscribe(
            &mut broker,
            sub(1, 11, &Expr::eq("category", "books")),
            None,
        );
        // Same id, new body: a replace record.
        subscribe(
            &mut broker,
            sub(1, 11, &Expr::eq("category", "music")),
            None,
        );
        let log = broker.take_durable_log().unwrap();
        let mut fresh = Broker::new(b(1), vec![b(0), b(2)]);
        fresh.attach_durable_log(log);
        assert_eq!(fresh.recover(), 2);
        let local = fresh.local_subscriptions();
        assert_eq!(local.len(), 1);
        assert!(
            local[0].tree().evaluate(
                &pubsub_core::EventMessage::builder()
                    .attr("category", "music")
                    .build()
            ),
            "replay kept the superseded body"
        );
    }

    #[test]
    fn compaction_swaps_snapshot_and_truncates_log() {
        let mut broker = broker_with_log(2);
        subscribe(
            &mut broker,
            sub(1, 11, &Expr::eq("category", "books")),
            None,
        );
        subscribe(
            &mut broker,
            sub(2, 22, &Expr::eq("category", "music")),
            Some(b(0)),
        );
        let expected = table_of(&broker);
        {
            let log = broker.durable_log_mut().unwrap();
            assert_eq!(log.stats().snapshot_compactions, 1);
            let storage = log.storage_mut();
            assert!(storage.read(SNAPSHOT_OBJECT).is_some());
            assert!(storage.read(SNAPSHOT_STAGING_OBJECT).is_none());
            assert_eq!(
                storage.read(LOG_OBJECT).unwrap_or_default(),
                Vec::<u8>::new()
            );
        }
        // Recovery from the snapshot alone.
        let log = broker.take_durable_log().unwrap();
        let mut fresh = Broker::new(b(1), vec![b(0), b(2)]);
        fresh.attach_durable_log(log);
        assert_eq!(fresh.recover(), 2);
        assert_eq!(table_of(&fresh), expected);
    }

    #[test]
    fn interrupted_compaction_recovers_from_old_snapshot_and_log() {
        let mut broker = Broker::new(b(1), vec![b(0), b(2)]);
        broker.attach_durable_log(DurableLog::new(
            Box::new(MemoryStorage::with_fault_plan(
                StorageFaultPlan::new(7).with_crash_compaction(1.0),
            )),
            DurabilityConfig::new().with_compact_every(2),
        ));
        subscribe(
            &mut broker,
            sub(1, 11, &Expr::eq("category", "books")),
            None,
        );
        subscribe(
            &mut broker,
            sub(2, 22, &Expr::eq("category", "music")),
            Some(b(0)),
        );
        let expected = table_of(&broker);
        {
            let log = broker.durable_log_mut().unwrap();
            // The compaction staged its snapshot and died: no swap, no
            // truncation, no completed-compaction count.
            assert_eq!(log.stats().snapshot_compactions, 0);
            let storage = log.storage_mut();
            assert!(storage.read(SNAPSHOT_STAGING_OBJECT).is_some());
            assert!(storage.read(SNAPSHOT_OBJECT).is_none());
            assert!(!storage.read(LOG_OBJECT).unwrap_or_default().is_empty());
        }
        let log = broker.take_durable_log().unwrap();
        let mut fresh = Broker::new(b(1), vec![b(0), b(2)]);
        fresh.attach_durable_log(log);
        assert_eq!(fresh.recover(), 2);
        assert_eq!(table_of(&fresh), expected);
        // The stale staging snapshot is gone after recovery.
        assert!(fresh
            .durable_log_mut()
            .unwrap()
            .storage_mut()
            .read(SNAPSHOT_STAGING_OBJECT)
            .is_none());
    }

    #[test]
    fn stale_log_after_swap_replays_idempotently() {
        // Crash between rename and log truncation: new snapshot + full old
        // log. Latest-wins replay must land on the same table.
        let mut log = DurableLog::in_memory(DurabilityConfig::new().with_compact_every(0));
        let first = sub(1, 11, &Expr::eq("category", "books"));
        let second = sub(1, 11, &Expr::eq("category", "music"));
        log.append_subscribe(&first, None);
        log.append_subscribe(&second, None);
        log.append_unsubscribe(SubscriptionId::from_raw(9), None);
        // Snapshot the end state, but leave the log untruncated (simulate
        // the missing truncation step).
        log.compact([(None, &second)].into_iter());
        let log_bytes = {
            let mut replacement = Vec::new();
            let mut scratch = DurableLog::in_memory(DurabilityConfig::default());
            scratch.append_subscribe(&first, None);
            scratch.append_subscribe(&second, None);
            scratch.append_unsubscribe(SubscriptionId::from_raw(9), None);
            replacement.extend_from_slice(
                scratch
                    .storage_mut()
                    .read(LOG_OBJECT)
                    .unwrap_or_default()
                    .as_slice(),
            );
            replacement
        };
        log.storage_mut().write(LOG_OBJECT, &log_bytes);
        let mut broker = Broker::new(b(1), vec![b(0), b(2)]);
        broker.attach_durable_log(log);
        let replayed = broker.recover();
        // 1 snapshot record + 3 stale log records, all applied in order.
        assert_eq!(replayed, 4);
        let local = broker.local_subscriptions();
        assert_eq!(local.len(), 1);
        assert!(local[0].tree().evaluate(
            &pubsub_core::EventMessage::builder()
                .attr("category", "music")
                .build()
        ));
    }

    #[test]
    fn torn_and_corrupt_tails_truncate_cleanly() {
        let mut broker = Broker::new(b(1), vec![b(0), b(2)]);
        broker.attach_durable_log(DurableLog::new(
            Box::new(MemoryStorage::with_fault_plan(
                StorageFaultPlan::new(11).with_torn_write(1.0),
            )),
            DurabilityConfig::new().with_compact_every(0),
        ));
        subscribe(
            &mut broker,
            sub(1, 11, &Expr::eq("category", "books")),
            None,
        );
        subscribe(
            &mut broker,
            sub(2, 22, &Expr::eq("category", "music")),
            None,
        );
        // Crash damages the tail; replay keeps the clean prefix.
        let mut log = broker.take_durable_log().unwrap();
        log.crash();
        let mut fresh = Broker::new(b(1), vec![b(0), b(2)]);
        fresh.attach_durable_log(log);
        let replayed = fresh.recover();
        assert!(replayed < 2, "torn tail still replayed fully");
        let stats = fresh.durable_log().unwrap().stats();
        assert_eq!(stats.log_corrupt_truncations, 1);
        // The damaged suffix was truncated away: appending and replaying
        // again works on the repaired log.
        subscribe(&mut fresh, sub(3, 33, &Expr::le("price", 5i64)), None);
        let log = fresh.take_durable_log().unwrap();
        let mut again = Broker::new(b(1), vec![b(0), b(2)]);
        again.attach_durable_log(log);
        let replayed_again = again.recover();
        assert_eq!(replayed_again, replayed + 1);
        assert_eq!(
            again.durable_log().unwrap().stats().log_corrupt_truncations,
            1,
            "repaired log re-reported damage"
        );
    }

    #[test]
    fn exhaustive_bit_flips_yield_clean_prefix_replay() {
        // Satellite: every byte × every bit flip over a small log must
        // replay the records before the damage and count exactly one
        // truncation — mirroring broker::reliable's exhaustive corruption
        // test on the wire path.
        let mut reference = DurableLog::in_memory(DurabilityConfig::new().with_compact_every(0));
        let subs = [
            sub(1, 11, &Expr::eq("category", "books")),
            sub(2, 22, &Expr::le("price", 10i64)),
            sub(3, 33, &Expr::eq("category", "music")),
        ];
        let mut boundaries = vec![0usize];
        for subscription in &subs {
            reference.append_subscribe(subscription, None);
            boundaries.push(
                reference
                    .storage_mut()
                    .read(LOG_OBJECT)
                    .map(|log| log.len())
                    .unwrap_or(0),
            );
        }
        let log_bytes = reference
            .storage_mut()
            .read(LOG_OBJECT)
            .expect("log exists");
        assert!(log_bytes.len() > 3 * RECORD_OVERHEAD);
        for index in 0..log_bytes.len() {
            for bit in 0..8 {
                let mut damaged = log_bytes.clone();
                damaged[index] ^= 1 << bit;
                let mut log = DurableLog::in_memory(DurabilityConfig::new().with_compact_every(0));
                log.storage_mut().write(LOG_OBJECT, &damaged);
                let mut broker = Broker::new(b(1), vec![b(0), b(2)]);
                broker.attach_durable_log(log);
                let replayed = broker.recover();
                // Records wholly before the damaged byte replay; the rest
                // are truncated away.
                let intact = boundaries.iter().filter(|&&end| end <= index).count() as u64 - 1;
                assert_eq!(replayed, intact, "byte {index} bit {bit}");
                let stats = broker.durable_log().unwrap().stats();
                assert_eq!(
                    stats.log_corrupt_truncations, 1,
                    "byte {index} bit {bit} was not counted"
                );
                assert_eq!(broker.local_subscriptions().len(), intact as usize);
            }
        }
    }

    /// Bytes the log's backend holds for a restart to read.
    fn stored_bytes(log: &DurableLog) -> usize {
        [SNAPSHOT_OBJECT, LOG_OBJECT]
            .into_iter()
            .filter_map(|name| log.storage().read(name))
            .map(|bytes| bytes.len())
            .sum()
    }

    /// Bytes of a snapshot of the broker's table as it stands.
    fn live_snapshot_bytes(broker: &Broker) -> usize {
        let mut scratch = DurableLog::in_memory(DurabilityConfig::new());
        scratch.compact(broker.routing_table().entries());
        stored_bytes(&scratch)
    }

    fn resident(i: u64) -> Subscription {
        sub(
            i,
            i,
            &Expr::and(vec![
                Expr::eq("category", format!("category-{i}")),
                Expr::le("price", i as i64),
            ]),
        )
    }

    #[test]
    fn compaction_waits_for_a_snapshot_sized_log() {
        // 200 residents, then 1,000 unsubscribe + subscribe pairs. A
        // compaction every `compact_every` records would rewrite the table
        // 500 times; the size rule rewrites it once per table-sized stretch
        // of log and still keeps the stored bytes within twice the table.
        let mut broker = broker_with_log(4);
        for i in 0..200 {
            subscribe(&mut broker, resident(i), None);
        }
        let record = stored_bytes(&{
            let mut scratch = DurableLog::in_memory(DurabilityConfig::new());
            scratch.append_subscribe(&resident(1_000_000), None);
            scratch
        });
        let after_load = broker.durable_log().unwrap().stats().snapshot_compactions;
        for i in 0..1_000u64 {
            broker.handle_message(
                &WireMessage::Unsubscribe {
                    id: SubscriptionId::from_raw(i % 200),
                },
                None,
            );
            subscribe(&mut broker, resident(i % 200), None);
            let stored = stored_bytes(broker.durable_log().unwrap());
            let live = live_snapshot_bytes(&broker);
            assert!(
                stored <= 2 * live + 4 * record,
                "cycle {i}: {stored} bytes stored for a {live}-byte table"
            );
        }
        let compactions = broker.durable_log().unwrap().stats().snapshot_compactions - after_load;
        assert!((5..=20).contains(&compactions), "{compactions} compactions");
    }

    /// Satellite bugfix: a log opened over existing storage used to start
    /// its counters at zero, so a process restarting more often than every
    /// `compact_every` records never compacted. Forty "append ten, restart"
    /// cycles must leave no more than twice the live table plus one period.
    fn restarts_shorter_than_the_period(mut reopen: impl FnMut(&DurableLog) -> DurableLog) {
        let config = DurabilityConfig::new();
        let mut broker = Broker::new(b(1), vec![b(0), b(2)]);
        broker.attach_durable_log(reopen(&DurableLog::in_memory(config)));
        for i in 0..20 {
            subscribe(&mut broker, resident(i), None);
        }
        let record = stored_bytes(&{
            let mut scratch = DurableLog::in_memory(config);
            scratch.append_subscribe(&resident(19), None);
            scratch
        });
        let period = (config.compact_every as usize + 10) * record;
        for cycle in 0..40u64 {
            for k in 0..5 {
                let id = (cycle * 5 + k) % 20;
                broker.handle_message(
                    &WireMessage::Unsubscribe {
                        id: SubscriptionId::from_raw(id),
                    },
                    None,
                );
                subscribe(&mut broker, resident(id), None);
            }
            let expected = table_of(&broker);
            // The process dies; a new one opens the same storage.
            let log = reopen(broker.durable_log().expect("log attached"));
            broker = Broker::new(b(1), vec![b(0), b(2)]);
            broker.attach_durable_log(log);
            broker.recover();
            assert_eq!(table_of(&broker), expected, "cycle {cycle}");
            let stored = stored_bytes(broker.durable_log().unwrap());
            let live = live_snapshot_bytes(&broker);
            assert!(
                stored <= 2 * live + period,
                "cycle {cycle}: {stored} bytes stored for a {live}-byte table"
            );
        }
    }

    #[test]
    fn restarts_shorter_than_the_period_still_compact_in_memory() {
        restarts_shorter_than_the_period(|old| {
            let mut storage = MemoryStorage::new();
            for name in [SNAPSHOT_OBJECT, LOG_OBJECT, SNAPSHOT_STAGING_OBJECT] {
                if let Some(bytes) = old.storage().read(name) {
                    storage.write(name, &bytes);
                }
            }
            DurableLog::new(Box::new(storage), old.config())
        });
    }

    #[test]
    fn restarts_shorter_than_the_period_still_compact_on_files() {
        let dir = std::env::temp_dir().join(format!(
            "durability-restarts-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        restarts_shorter_than_the_period(|old| {
            DurableLog::new(
                Box::new(FileStorage::new(&dir).expect("open storage dir")),
                old.config(),
            )
        });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plans_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut storage = MemoryStorage::with_fault_plan(
                StorageFaultPlan::new(seed)
                    .with_torn_write(0.5)
                    .with_corrupt(0.5),
            );
            let mut log = Vec::new();
            for i in 0..8u8 {
                let mut record = Vec::new();
                append_record(&mut record, &[i; 24]);
                log.extend_from_slice(&record);
            }
            storage.write(LOG_OBJECT, &log);
            storage.crash();
            storage.read(LOG_OBJECT).unwrap_or_default()
        };
        assert_eq!(run(42), run(42), "same seed, different damage");
        assert_ne!(run(42), run(43), "different seeds, same damage");
    }

    #[test]
    fn file_storage_appends_renames_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "durability-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut storage = FileStorage::new(&dir).expect("create storage dir");
            storage.append(LOG_OBJECT, b"abc");
            storage.append(LOG_OBJECT, b"def");
            storage.write(SNAPSHOT_STAGING_OBJECT, b"snap");
            storage.rename(SNAPSHOT_STAGING_OBJECT, SNAPSHOT_OBJECT);
        }
        {
            let storage = FileStorage::new(&dir).expect("reopen storage dir");
            assert_eq!(
                storage.read(LOG_OBJECT).as_deref(),
                Some(b"abcdef".as_slice())
            );
            assert_eq!(
                storage.read(SNAPSHOT_OBJECT).as_deref(),
                Some(b"snap".as_slice())
            );
            assert_eq!(storage.read(SNAPSHOT_STAGING_OBJECT), None);
        }
        let mut storage = FileStorage::new(&dir).expect("reopen storage dir");
        storage.remove(LOG_OBJECT);
        assert_eq!(storage.read(LOG_OBJECT), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backed_log_replays_across_instances() {
        let dir = std::env::temp_dir().join(format!(
            "durability-log-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let expected = {
            let mut broker = Broker::new(b(1), vec![b(0), b(2)]);
            broker.attach_durable_log(DurableLog::new(
                Box::new(FileStorage::new(&dir).expect("create dir")),
                DurabilityConfig::new().with_compact_every(2),
            ));
            subscribe(
                &mut broker,
                sub(1, 11, &Expr::eq("category", "books")),
                None,
            );
            subscribe(
                &mut broker,
                sub(2, 22, &Expr::eq("category", "music")),
                Some(b(0)),
            );
            subscribe(&mut broker, sub(3, 33, &Expr::le("price", 10i64)), None);
            table_of(&broker)
        };
        // A whole new process would reopen the directory the same way.
        let mut fresh = Broker::new(b(1), vec![b(0), b(2)]);
        fresh.attach_durable_log(DurableLog::new(
            Box::new(FileStorage::new(&dir).expect("reopen dir")),
            DurabilityConfig::default(),
        ));
        assert_eq!(fresh.recover(), 3);
        assert_eq!(table_of(&fresh), expected);
        let _ = fs::remove_dir_all(&dir);
    }
}
