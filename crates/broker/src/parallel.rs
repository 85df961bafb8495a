//! Parallel event publishing.
//!
//! The figures of the paper are produced with the deterministic,
//! single-threaded [`Simulation`](crate::Simulation) so that message counts
//! and filter times are exactly reproducible. Real deployments, however, run
//! brokers concurrently; this module provides a thread-per-broker executor on
//! top of the same [`Broker`](crate::Broker) type to measure aggregate system
//! throughput (events per second) on multi-core hosts.
//!
//! Design: [`ParallelNetwork::run`] opens a `std::thread::scope` and spawns
//! one worker per broker; each worker mutably borrows its own broker and
//! drains an `mpsc` channel of incoming [`Envelope`]s. Envelopes carry
//! **encoded wire frames** — exactly the bytes a socket would carry:
//! publishing injects per-origin [`WireMessage::PublishBatch`] frames; each
//! worker decodes a frame with its own [`Codec`], hands the message to the
//! broker's [`handle_message`](Broker::handle_message) ingress, and sends the
//! encoded responses to its neighbors. Each worker returns what it routed
//! from `join`; the only state the threads share is an atomic in-flight
//! counter that detects quiescence, so `run` can return once every event has
//! been fully routed.
//!
//! The in-flight counter is this executor's version of the quiescence
//! contract documented on [`Transport`](crate::wire::Transport): a frame is
//! counted *before* it is handed to a channel and uncounted only after the
//! receiving worker has fully processed it, so "counter == 0" has the same
//! meaning as `is_idle()` — no frame buffered or being handled anywhere.
//! Any transport-like layer inserted here (delay queues, fault injectors
//! such as [`FaultyTransport`](crate::fault::FaultyTransport)) must
//! preserve that invariant or `run` would return with events still in
//! flight.

use crate::broker_node::{Broker, MessageHandling};
use crate::metrics::NetworkStats;
use crate::topology::Topology;
use crate::wire::{Codec, WireMessage};
use pubsub_core::{BrokerId, EventBatch, EventMessage};
use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// One message travelling between brokers (or from a publisher into its
/// origin broker).
#[derive(Debug)]
enum Envelope {
    /// One encoded wire frame plus the link it arrived on.
    Frame {
        bytes: Vec<u8>,
        from: Option<BrokerId>,
    },
    /// Orderly shutdown: the run is quiescent and the worker should exit.
    /// Needed because every worker holds senders to every neighbor, so
    /// channel disconnection alone can never terminate the workers.
    Shutdown,
}

/// Aggregate results of a parallel publishing run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelRunReport {
    /// Number of events injected.
    pub events_published: u64,
    /// Total notifications delivered to local subscribers.
    pub deliveries: u64,
    /// Inter-broker event copies exchanged while routing the batch.
    pub broker_messages: u64,
    /// Inter-broker wire frames those copies travelled in.
    pub broker_frames: u64,
    /// Exact encoded bytes of those frames.
    pub bytes: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl ParallelRunReport {
    /// Events routed per second of wall-clock time.
    pub fn events_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.events_published as f64 / secs
        }
    }
}

/// What one worker (or the whole network) has routed.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    deliveries: u64,
    messages: u64,
    frames: u64,
    bytes: u64,
}

impl AddAssign for Counts {
    fn add_assign(&mut self, other: Self) {
        self.deliveries += other.deliveries;
        self.messages += other.messages;
        self.frames += other.frames;
        self.bytes += other.bytes;
    }
}

/// A thread-per-broker executor over a set of [`Broker`]s.
///
/// The network is built from brokers that have already been populated with
/// routing entries (typically by draining a [`Simulation`](crate::Simulation)
/// via [`ParallelNetwork::from_brokers`], or by registering subscriptions on
/// the brokers directly).
#[derive(Debug)]
pub struct ParallelNetwork {
    topology: Topology,
    brokers: BTreeMap<BrokerId, Broker>,
    totals: Counts,
}

impl ParallelNetwork {
    /// Builds a parallel network from pre-populated brokers.
    ///
    /// # Panics
    /// Panics if the broker set does not cover exactly the topology's broker
    /// ids.
    pub fn from_brokers(topology: Topology, brokers: Vec<Broker>) -> Self {
        let brokers: BTreeMap<BrokerId, Broker> =
            brokers.into_iter().map(|b| (b.id(), b)).collect();
        for id in topology.broker_ids() {
            assert!(brokers.contains_key(&id), "missing broker {id}");
        }
        assert_eq!(
            brokers.len(),
            topology.len(),
            "broker set does not match the topology"
        );
        Self {
            topology,
            brokers,
            totals: Counts::default(),
        }
    }

    /// The topology this network runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Total notifications delivered so far.
    pub fn deliveries(&self) -> u64 {
        self.totals.deliveries
    }

    /// Total inter-broker event copies so far.
    pub fn broker_messages(&self) -> u64 {
        self.totals.messages
    }

    /// Total encoded frame bytes so far.
    pub fn wire_bytes(&self) -> u64 {
        self.totals.bytes
    }

    /// Routes a batch of events through the network using one worker thread
    /// per broker. Events are injected round-robin over the brokers as
    /// encoded `PublishBatch` frames. Returns once every event has been
    /// fully routed.
    pub fn run(&mut self, events: &[EventMessage]) -> ParallelRunReport {
        let start = Instant::now();
        let broker_ids: Vec<BrokerId> = self.brokers.keys().copied().collect();
        let (senders, inboxes): (
            BTreeMap<BrokerId, Sender<Envelope>>,
            Vec<Receiver<Envelope>>,
        ) = broker_ids
            .iter()
            .map(|&id| {
                let (tx, rx) = mpsc::channel();
                ((id, tx), rx)
            })
            .unzip();
        // Frames handed to a channel but not yet fully handled. `Relaxed`
        // suffices: the counter publishes no data — each broker's state and
        // each worker's counts come back through `join`.
        let in_flight = AtomicU64::new(0);

        let counts = thread::scope(|scope| {
            let workers: Vec<ScopedJoinHandle<'_, Counts>> = self
                .brokers
                .iter_mut()
                .zip(inboxes)
                .map(|((&id, broker), inbox)| {
                    let senders = senders.clone();
                    let in_flight = &in_flight;
                    scope.spawn(move || route(id, broker, &inbox, &senders, in_flight))
                })
                .collect();

            // Injector: group the events into one batch per round-robin
            // origin broker and inject each group as an encoded frame where
            // it originates.
            let mut codec = Codec::new();
            let mut per_origin: BTreeMap<BrokerId, EventBatch> = BTreeMap::new();
            for (event, origin) in events.iter().zip(broker_ids.iter().cycle()) {
                per_origin.entry(*origin).or_default().push(event.clone());
            }
            for (origin, batch) in per_origin {
                let mut frame = Vec::new();
                codec.encode_publish_batch(&batch, &mut frame);
                in_flight.fetch_add(1, Ordering::Relaxed);
                let _ = senders[&origin].send(Envelope::Frame {
                    bytes: frame,
                    from: None,
                });
            }

            // Wait for quiescence (or a worker that died), then tell every
            // worker to exit. Sends fail only into a dead worker's channel;
            // its panic surfaces from `join`, and the other workers must
            // still get their shutdown or the scope would never end.
            while in_flight.load(Ordering::Relaxed) > 0 && !workers.iter().any(|w| w.is_finished())
            {
                thread::yield_now();
            }
            for sender in senders.values() {
                let _ = sender.send(Envelope::Shutdown);
            }
            let mut counts = Counts::default();
            for worker in workers {
                counts += worker.join().expect("broker worker panicked");
            }
            counts
        });

        self.totals += counts;
        ParallelRunReport {
            events_published: events.len() as u64,
            deliveries: counts.deliveries,
            broker_messages: counts.messages,
            broker_frames: counts.frames,
            bytes: counts.bytes,
            elapsed: start.elapsed(),
        }
    }

    /// Aggregated network statistics reconstructed from the counters
    /// (per-link attribution requires the deterministic
    /// [`Simulation`](crate::Simulation)).
    pub fn network_stats(&self) -> NetworkStats {
        NetworkStats {
            messages: self.totals.messages,
            frames: self.totals.frames,
            bytes: self.totals.bytes,
            ..NetworkStats::default()
        }
    }
}

/// One broker's worker: drains `inbox` until [`Envelope::Shutdown`], hands
/// each decoded frame to `broker` and sends the encoded responses to its
/// neighbors. Each worker owns its codec and reuses one decoded message and
/// one handling buffer across envelopes.
fn route(
    id: BrokerId,
    broker: &mut Broker,
    inbox: &Receiver<Envelope>,
    senders: &BTreeMap<BrokerId, Sender<Envelope>>,
    in_flight: &AtomicU64,
) -> Counts {
    let mut counts = Counts::default();
    let mut codec = Codec::new();
    let mut message = WireMessage::Ack { broker: id };
    let mut handling = MessageHandling::new();
    while let Ok(Envelope::Frame { bytes, from }) = inbox.recv() {
        codec
            .decode_into(&bytes, &mut message)
            .expect("workers only receive well-formed frames");
        broker.handle_message_into(&message, from, &mut handling);
        counts.deliveries += handling.deliveries.len() as u64;
        // Every event copy counts as one inter-broker message, and every
        // frame's exact length is accounted.
        for (neighbor, response) in &handling.outgoing {
            let mut frame = Vec::new();
            let len = codec.encode_into(response, &mut frame);
            if let WireMessage::PublishBatch { events } = response {
                counts.messages += events.len() as u64;
            }
            counts.frames += 1;
            counts.bytes += len as u64;
            in_flight.fetch_add(1, Ordering::Relaxed);
            senders[neighbor]
                .send(Envelope::Frame {
                    bytes: frame,
                    from: Some(id),
                })
                .expect("receiver outlives forwarding");
        }
        in_flight.fetch_sub(1, Ordering::Relaxed);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulation, SimulationConfig};
    use filtering::EngineKind;
    use pubsub_core::{Expr, SubscriberId, Subscription, SubscriptionId};

    fn sub(id: u64, subscriber: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(subscriber),
            expr,
        )
    }

    /// Builds brokers with the same routing state the deterministic
    /// simulation would install, by reusing the simulation's forwarding
    /// logic against standalone brokers.
    fn build_brokers(
        topology: &Topology,
        subscriptions: &[Subscription],
        engine: EngineKind,
    ) -> Vec<Broker> {
        let mut sim = Simulation::new(SimulationConfig::new(topology.clone()));
        sim.register_all(subscriptions.iter().cloned());
        topology
            .broker_ids()
            .map(|id| {
                let mut broker = Broker::with_engine(id, topology.neighbors(id), engine);
                for s in sim.broker(id).unwrap().local_subscriptions() {
                    broker.register_local(s);
                }
                for s in sim.broker(id).unwrap().remote_subscriptions() {
                    let toward = sim
                        .broker(id)
                        .unwrap()
                        .routing_table()
                        .remote_destination(s.id())
                        .unwrap();
                    broker.register_remote(s, toward);
                }
                broker
            })
            .collect()
    }

    fn events(n: usize) -> Vec<EventMessage> {
        (0..n)
            .map(|i| {
                EventMessage::builder()
                    .id(i as u64)
                    .attr("category", if i % 2 == 0 { "books" } else { "music" })
                    .attr("price", (i % 40) as i64)
                    .build()
            })
            .collect()
    }

    /// Runs the same subscriptions and events through the deterministic
    /// simulation and through thread-per-broker workers, for each engine on
    /// a line and a star, and checks that deliveries and traffic agree.
    fn assert_parallel_matches_simulation(engines: &[EngineKind]) {
        let subscriptions = vec![
            sub(1, 0, &Expr::eq("category", "books")),
            sub(
                2,
                1,
                &Expr::and(vec![
                    Expr::eq("category", "music"),
                    Expr::le("price", 10i64),
                ]),
            ),
            sub(3, 3, &Expr::ge("price", 30i64)),
        ];
        let events = events(40);
        for topology in [Topology::line(4), Topology::star(4)] {
            for &engine in engines {
                let mut sim =
                    Simulation::new(SimulationConfig::new(topology.clone()).with_engine(engine));
                sim.register_all(subscriptions.iter().cloned());
                let reference = sim.publish_all(&events);

                let mut network = ParallelNetwork::from_brokers(
                    topology.clone(),
                    build_brokers(&topology, &subscriptions, engine),
                );
                let report = network.run(&events);

                let cell = format!("{engine:?} on {} brokers", topology.len());
                assert_eq!(report.events_published, 40, "{cell}");
                assert_eq!(report.deliveries, reference.deliveries, "{cell}");
                assert_eq!(report.broker_messages, reference.network.messages, "{cell}");
                // The multiset of frames is identical to the simulation's
                // (same grouping, same codec), so frame and byte totals agree
                // exactly even though the hop interleaving differs.
                assert_eq!(report.broker_frames, reference.network.frames, "{cell}");
                assert_eq!(report.bytes, reference.network.bytes, "{cell}");
                assert_eq!(network.deliveries(), reference.deliveries, "{cell}");
                assert_eq!(
                    network.broker_messages(),
                    reference.network.messages,
                    "{cell}"
                );
                assert_eq!(network.wire_bytes(), reference.network.bytes, "{cell}");
                assert!(report.events_per_second() > 0.0, "{cell}");
            }
        }
    }

    #[test]
    fn parallel_run_matches_the_deterministic_simulation() {
        assert_parallel_matches_simulation(&[EngineKind::Counting, EngineKind::ATree]);
    }

    #[test]
    fn parallel_run_with_sharded_brokers_matches_the_simulation() {
        // Thread-per-broker workers whose brokers themselves shard their
        // matching across threads: the composition must still reproduce the
        // deterministic simulation's deliveries and traffic.
        assert_parallel_matches_simulation(&[EngineKind::Sharded(2), EngineKind::ShardedATree(2)]);
    }

    #[test]
    fn repeated_runs_accumulate_counters() {
        let topology = Topology::star(3);
        let subscriptions = vec![sub(1, 0, &Expr::eq("category", "books"))];
        let mut network = ParallelNetwork::from_brokers(
            topology.clone(),
            build_brokers(&topology, &subscriptions, EngineKind::Counting),
        );
        let first = network.run(&events(10));
        let second = network.run(&events(10));
        assert_eq!(first.deliveries, second.deliveries);
        assert_eq!(network.deliveries(), first.deliveries + second.deliveries);
        assert_eq!(network.network_stats().messages, network.broker_messages());
        assert_eq!(network.network_stats().bytes, first.bytes + second.bytes);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let topology = Topology::single();
        let mut network = ParallelNetwork::from_brokers(
            topology.clone(),
            vec![Broker::new(BrokerId::from_raw(0), vec![])],
        );
        let report = network.run(&[]);
        assert_eq!(report.events_published, 0);
        assert_eq!(report.deliveries, 0);
        assert_eq!(report.bytes, 0);
        assert_eq!(report.events_per_second(), 0.0);
    }

    #[test]
    #[should_panic(expected = "broker worker panicked")]
    fn a_worker_panic_surfaces_from_run_instead_of_hanging() {
        // Broker 0 routes towards a neighbor the network has no worker for,
        // so its worker panics holding an in-flight frame: the counter never
        // drains, and `run` must still return by propagating the panic.
        let mut broker = Broker::new(BrokerId::from_raw(0), vec![BrokerId::from_raw(9)]);
        broker.register_remote(
            sub(1, 9, &Expr::eq("category", "books")),
            BrokerId::from_raw(9),
        );
        let mut network = ParallelNetwork::from_brokers(Topology::single(), vec![broker]);
        let _ = network.run(&events(2));
    }

    #[test]
    #[should_panic(expected = "missing broker")]
    fn broker_set_must_cover_the_topology() {
        let topology = Topology::line(3);
        let _ = ParallelNetwork::from_brokers(
            topology,
            vec![Broker::new(
                BrokerId::from_raw(0),
                vec![BrokerId::from_raw(1)],
            )],
        );
    }
}
