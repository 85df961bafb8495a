//! Tracing from outside the program: a [`Transport`] wrapper that turns the
//! frame traffic of a [`Simulation`](broker::Simulation) into spans.
//!
//! The simulation is synchronous and owns its brokers, so the only seam a
//! caller can observe between "the network" and "a broker handling a frame"
//! is the transport: every frame a broker receives comes out of
//! [`Transport::recv_into`], and everything the simulation does until it
//! asks for the next frame — unwrap the reliable envelope, decode, match,
//! route, encode, wrap, send — is that broker's work on that frame. So:
//!
//! * each driver call (publish, subscribe, unsubscribe, restart) is a
//!   **root span** with a request id, opened and closed by the workload
//!   driver through [`TraceHandle::root`];
//! * each `recv_into` that yields a frame opens a **hop span** (destination
//!   broker, frame kind, bytes) that closes at the next `recv_into`;
//! * each `send` inside a hop is a **child event** of that hop (bytes, queue
//!   depth after the send).
//!
//! A hop's self time is its duration minus the transport time its sends
//! took; the transport's own time is measured inside the wrapper. Spans are
//! aggregated in memory as they close (per phase, per broker, per frame
//! kind); the first [`SPAN_SAMPLE_CAP`] are also kept verbatim and written
//! out when the run ends. While capture is on, the frames themselves are
//! kept so the codec and reliable layers can be replayed over them outside
//! the timed region (see [`crate::layers`]).

use crate::json::Json;
use crate::stats::nearest_rank;
use broker::reliable::{TAG_ACK, TAG_DATA};
use broker::wire::{frame_kind, FRAME_HEADER_LEN};
use broker::{BrokerId, ChannelTransport, Transport, WireKind};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Spans kept verbatim for the trace file; later spans only feed the
/// aggregates. 1.25 M forwards would otherwise be tens of millions of spans.
pub const SPAN_SAMPLE_CAP: usize = 50_000;

/// Hop-duration samples kept per frame kind for the hop percentiles.
const HOP_SAMPLE_CAP: usize = 4_000_000;

/// The phases of a run the aggregates are kept apart for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Registering the population (and pruning) before the measured phase.
    Setup,
    /// The timed phase.
    Measured,
    /// Whole-cluster crash/restart cycles.
    Recovery,
}

const PHASES: usize = 3;

/// What a frame is, read from its leading bytes without decoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Link setup `Hello`.
    Hello,
    /// Link setup `Ack`.
    LinkAck,
    /// `Subscribe` (client injection or flood).
    Subscribe,
    /// `Unsubscribe` (client injection or flood).
    Unsubscribe,
    /// `PublishBatch` (client injection or forwarded copy).
    Publish,
    /// Recovery `SyncRequest`.
    SyncRequest,
    /// Recovery `SyncState`.
    SyncState,
    /// A reliable-link cumulative ack.
    ReliableAck,
    /// Anything else (never seen on a clean link).
    Unknown,
}

const KINDS: usize = 9;

impl FrameKind {
    /// Every kind, in index order.
    pub const ALL: [FrameKind; KINDS] = [
        FrameKind::Hello,
        FrameKind::LinkAck,
        FrameKind::Subscribe,
        FrameKind::Unsubscribe,
        FrameKind::Publish,
        FrameKind::SyncRequest,
        FrameKind::SyncState,
        FrameKind::ReliableAck,
        FrameKind::Unknown,
    ];

    /// Classifies a frame as the transport sees it: a reliable data
    /// envelope is classified by the codec frame it carries.
    pub fn of(frame: &[u8]) -> FrameKind {
        let inner = match frame.get(FRAME_HEADER_LEN) {
            Some(&TAG_ACK) => return FrameKind::ReliableAck,
            Some(&TAG_DATA) => frame.get(broker::reliable::RELIABLE_OVERHEAD..),
            _ => Some(frame),
        };
        match inner.and_then(frame_kind) {
            Some(WireKind::Hello) => FrameKind::Hello,
            Some(WireKind::Ack) => FrameKind::LinkAck,
            Some(WireKind::Subscribe) => FrameKind::Subscribe,
            Some(WireKind::Unsubscribe) => FrameKind::Unsubscribe,
            Some(WireKind::PublishBatch) => FrameKind::Publish,
            Some(WireKind::SyncRequest) => FrameKind::SyncRequest,
            Some(WireKind::SyncState) => FrameKind::SyncState,
            None => FrameKind::Unknown,
        }
    }

    /// Short name used in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::Hello => "hello",
            FrameKind::LinkAck => "link_ack",
            FrameKind::Subscribe => "subscribe",
            FrameKind::Unsubscribe => "unsubscribe",
            FrameKind::Publish => "publish",
            FrameKind::SyncRequest => "sync_request",
            FrameKind::SyncState => "sync_state",
            FrameKind::ReliableAck => "reliable_ack",
            FrameKind::Unknown => "unknown",
        }
    }
}

/// The driver call a root span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootKind {
    /// `Simulation::publish`
    Publish,
    /// `Simulation::publish_batch`
    PublishBatch,
    /// `Simulation::register_subscription`
    Subscribe,
    /// `Simulation::unregister_subscription`
    Unsubscribe,
    /// `Simulation::restart_broker`
    Restart,
}

impl RootKind {
    fn name(self) -> &'static str {
        match self {
            RootKind::Publish => "publish",
            RootKind::PublishBatch => "publish_batch",
            RootKind::Subscribe => "subscribe",
            RootKind::Unsubscribe => "unsubscribe",
            RootKind::Restart => "restart",
        }
    }
}

/// One span of the verbatim sample.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    id: u64,
    /// The span that caused this one (`0` for a root).
    parent: u64,
    /// The root span's id: spans of one driver call share it.
    request: u64,
    /// `"hop"`, `"send"`, or the driver call of a root span.
    name: &'static str,
    /// The frame kind of a hop.
    frame: Option<FrameKind>,
    start_ns: u64,
    end_ns: u64,
    /// Destination broker of a hop or send.
    broker: Option<u32>,
    bytes: usize,
    /// Transport queue depth after a send.
    queue_depth: usize,
}

/// Count and summed self time of the hops of one (broker, frame kind) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HopCell {
    /// Hops closed.
    pub count: u64,
    /// Summed hop self time (duration minus transport time inside), in ns.
    pub self_ns: u64,
    /// Summed bytes of the frames that opened the hops.
    pub bytes: u64,
}

/// Aggregates of one phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTotals {
    /// Root spans closed.
    pub roots: u64,
    /// Summed root-span wall time, in ns.
    pub root_ns: u64,
    /// Time inside the wrapped transport's `send`/`recv_into`, in ns.
    pub transport_ns: u64,
    /// Frames the transport delivered.
    pub frames: u64,
    /// Highest queue depth seen after a send.
    pub max_in_flight: usize,
    /// Hop cells indexed `[broker][kind]`; brokers beyond the vector were
    /// never a destination.
    pub hops: Vec<[HopCell; KINDS]>,
}

impl HopCell {
    fn add(&mut self, other: HopCell) {
        self.count += other.count;
        self.self_ns += other.self_ns;
        self.bytes += other.bytes;
    }
}

impl PhaseTotals {
    /// Total hops of one frame kind across all brokers.
    pub fn hops_of(&self, kind: FrameKind) -> HopCell {
        let mut total = HopCell::default();
        for broker in &self.hops {
            total.add(broker[kind as usize]);
        }
        total
    }

    /// Total hops across all brokers and kinds.
    pub fn all_hops(&self) -> HopCell {
        let mut total = HopCell::default();
        for cell in self.hops.iter().flatten() {
            total.add(*cell);
        }
        total
    }

    /// Summed hop self time per destination broker, in ns.
    pub fn hop_ns_per_broker(&self) -> Vec<u64> {
        self.hops
            .iter()
            .map(|kinds| kinds.iter().map(|cell| cell.self_ns).sum())
            .collect()
    }
}

/// A frame as it crossed the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedFrame {
    /// Sending broker; `None` for a client injection.
    pub from: Option<BrokerId>,
    /// Receiving broker.
    pub to: BrokerId,
    /// The bytes on the wire (reliable envelope included).
    pub bytes: Vec<u8>,
}

#[derive(Debug)]
struct OpenHop {
    span: u64,
    start: Instant,
    to: u32,
    kind: FrameKind,
    bytes: usize,
    transport_ns: u64,
}

#[derive(Debug)]
struct OpenRoot {
    span: u64,
    kind: RootKind,
    start: Instant,
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    phase: Option<Phase>,
    totals: [PhaseTotals; PHASES],
    next_span: u64,
    root: Option<OpenRoot>,
    hop: Option<OpenHop>,
    sample: Vec<Span>,
    /// Hop self times in ns, by frame kind, across all phases.
    hop_samples: Vec<Vec<u32>>,
    capture: bool,
    captured: Vec<CapturedFrame>,
    captured_roots: u64,
}

impl Recorder {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            phase: None,
            totals: Default::default(),
            next_span: 1,
            root: None,
            hop: None,
            sample: Vec::new(),
            hop_samples: vec![Vec::new(); KINDS],
            capture: false,
            captured: Vec::new(),
            captured_roots: 0,
        }
    }

    fn span_id(&mut self) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        id
    }

    fn keep(&mut self, span: Span) {
        if self.sample.len() < SPAN_SAMPLE_CAP {
            self.sample.push(span);
        }
    }

    fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn close_hop(&mut self, end: Instant) {
        let Some(hop) = self.hop.take() else {
            return;
        };
        let Some(phase) = self.phase else {
            return;
        };
        let duration = end.duration_since(hop.start).as_nanos() as u64;
        let self_ns = duration.saturating_sub(hop.transport_ns);
        let totals = &mut self.totals[phase as usize];
        if totals.hops.len() <= hop.to as usize {
            totals
                .hops
                .resize(hop.to as usize + 1, [HopCell::default(); KINDS]);
        }
        totals.hops[hop.to as usize][hop.kind as usize].add(HopCell {
            count: 1,
            self_ns,
            bytes: hop.bytes as u64,
        });
        let samples = &mut self.hop_samples[hop.kind as usize];
        if samples.len() < HOP_SAMPLE_CAP {
            samples.push(u32::try_from(self_ns).unwrap_or(u32::MAX));
        }
        let (parent, start_ns, end_ns) = (
            self.root.as_ref().map_or(0, |root| root.span),
            self.ns_since_epoch(hop.start),
            self.ns_since_epoch(end),
        );
        self.keep(Span {
            id: hop.span,
            parent,
            request: parent,
            name: "hop",
            frame: Some(hop.kind),
            start_ns,
            end_ns,
            broker: Some(hop.to),
            bytes: hop.bytes,
            queue_depth: 0,
        });
    }
}

/// The caller's handle on a [`TraceTransport`]'s recorder: opens and closes
/// root spans, switches phases, and reads the aggregates afterwards.
#[derive(Debug, Clone)]
pub struct TraceHandle(Rc<RefCell<Recorder>>);

impl TraceHandle {
    /// Sets the phase subsequent spans are aggregated under; `None` pauses
    /// recording (frames still flow).
    pub fn set_phase(&self, phase: Option<Phase>) {
        self.0.borrow_mut().phase = phase;
    }

    /// Starts (or stops) keeping the frames that cross the transport.
    pub fn set_capture(&self, on: bool) {
        self.0.borrow_mut().capture = on;
    }

    /// Runs one driver call as a root span and returns its result.
    pub fn root<R>(&self, kind: RootKind, call: impl FnOnce() -> R) -> R {
        {
            let mut recorder = self.0.borrow_mut();
            if recorder.phase.is_none() {
                drop(recorder);
                return call();
            }
            let span = recorder.span_id();
            recorder.root = Some(OpenRoot {
                span,
                kind,
                start: Instant::now(),
            });
        }
        let result = call();
        let end = Instant::now();
        let mut recorder = self.0.borrow_mut();
        // The simulation's last `recv_into` (returning `None`) already
        // closed the last hop; a hop still open here would mean the call
        // returned with frames in flight.
        recorder.close_hop(end);
        let root = recorder.root.take().expect("root span opened above");
        if let Some(phase) = recorder.phase {
            let totals = &mut recorder.totals[phase as usize];
            totals.roots += 1;
            totals.root_ns += end.duration_since(root.start).as_nanos() as u64;
            if recorder.capture {
                recorder.captured_roots += 1;
            }
            let (start_ns, end_ns) = (
                recorder.ns_since_epoch(root.start),
                recorder.ns_since_epoch(end),
            );
            recorder.keep(Span {
                id: root.span,
                parent: 0,
                request: root.span,
                name: root.kind.name(),
                frame: None,
                start_ns,
                end_ns,
                broker: None,
                bytes: 0,
                queue_depth: 0,
            });
        }
        result
    }

    /// The aggregates of one phase.
    pub fn totals(&self, phase: Phase) -> PhaseTotals {
        self.0.borrow().totals[phase as usize].clone()
    }

    /// Nearest-rank percentile, in µs, of the self times of all hops of one
    /// frame kind (every phase); `0.0` without samples.
    pub fn hop_percentile_us(&self, kind: FrameKind, p: f64) -> f64 {
        let mut samples = self.0.borrow().hop_samples[kind as usize].clone();
        match nearest_rank(samples.len(), p) {
            0 => 0.0,
            rank => f64::from(*samples.select_nth_unstable(rank - 1).1) / 1e3,
        }
    }

    /// Takes the captured frames and the number of root spans they cover.
    pub fn take_captured(&self) -> (Vec<CapturedFrame>, u64) {
        let mut recorder = self.0.borrow_mut();
        let roots = std::mem::take(&mut recorder.captured_roots);
        (std::mem::take(&mut recorder.captured), roots)
    }

    /// The verbatim span sample plus per-phase aggregates, for the trace
    /// file.
    pub fn to_json(&self) -> Json {
        let recorder = self.0.borrow();
        let spans = recorder
            .sample
            .iter()
            .map(|span| {
                let mut entry = Json::object()
                    .with("id", span.id)
                    .with("parent", span.parent)
                    .with("request", span.request)
                    .with("name", span.name)
                    .with("start_ns", span.start_ns)
                    .with("end_ns", span.end_ns);
                if let Some(broker) = span.broker {
                    entry.set("broker", u64::from(broker));
                    entry.set("bytes", span.bytes);
                }
                if let Some(frame) = span.frame {
                    entry.set("frame", frame.name());
                }
                if span.name == "send" {
                    entry.set("queue_depth", span.queue_depth);
                }
                entry
            })
            .collect::<Vec<_>>();
        let phases = [Phase::Setup, Phase::Measured, Phase::Recovery]
            .iter()
            .map(|&phase| {
                let totals = &recorder.totals[phase as usize];
                let mut hops = Json::object();
                for kind in FrameKind::ALL {
                    let cell = totals.hops_of(kind);
                    if cell.count > 0 {
                        hops.set(
                            kind.name(),
                            Json::object()
                                .with("count", cell.count)
                                .with("self_ns", cell.self_ns)
                                .with("bytes", cell.bytes),
                        );
                    }
                }
                Json::object()
                    .with("phase", format!("{phase:?}").to_lowercase())
                    .with("roots", totals.roots)
                    .with("root_ns", totals.root_ns)
                    .with("transport_ns", totals.transport_ns)
                    .with("frames", totals.frames)
                    .with("max_in_flight", totals.max_in_flight)
                    .with("hops", hops)
            })
            .collect::<Vec<_>>();
        Json::object()
            .with("spans_recorded", recorder.next_span - 1)
            .with("spans_kept", recorder.sample.len())
            .with("phases", phases)
            .with("spans", spans)
    }
}

/// A [`ChannelTransport`] that records what crosses it.
#[derive(Debug)]
pub struct TraceTransport {
    inner: ChannelTransport,
    recorder: Rc<RefCell<Recorder>>,
}

impl TraceTransport {
    /// Creates the transport and the handle its recorder is read through.
    pub fn new() -> (Self, TraceHandle) {
        let recorder = Rc::new(RefCell::new(Recorder::new()));
        (
            Self {
                inner: ChannelTransport::new(),
                recorder: Rc::clone(&recorder),
            },
            TraceHandle(recorder),
        )
    }
}

impl Transport for TraceTransport {
    fn send(&mut self, from: Option<BrokerId>, to: BrokerId, frame: &[u8]) {
        let start = Instant::now();
        self.inner.send(from, to, frame);
        let end = Instant::now();
        let mut recorder = self.recorder.borrow_mut();
        let Some(phase) = recorder.phase else {
            return;
        };
        let elapsed = end.duration_since(start).as_nanos() as u64;
        let depth = self.inner.in_flight();
        let totals = &mut recorder.totals[phase as usize];
        totals.transport_ns += elapsed;
        totals.max_in_flight = totals.max_in_flight.max(depth);
        let parent = match recorder.hop.as_mut() {
            Some(hop) => {
                hop.transport_ns += elapsed;
                hop.span
            }
            None => recorder.root.as_ref().map_or(0, |root| root.span),
        };
        // Past the cap a send only feeds the aggregates above.
        if recorder.sample.len() < SPAN_SAMPLE_CAP {
            let span = Span {
                id: recorder.span_id(),
                parent,
                request: recorder.root.as_ref().map_or(0, |root| root.span),
                name: "send",
                frame: None,
                start_ns: recorder.ns_since_epoch(start),
                end_ns: recorder.ns_since_epoch(end),
                broker: Some(to.raw()),
                bytes: frame.len(),
                queue_depth: depth,
            };
            recorder.keep(span);
        }
    }

    fn recv_into(&mut self, frame: &mut Vec<u8>) -> Option<(Option<BrokerId>, BrokerId)> {
        let start = Instant::now();
        self.recorder.borrow_mut().close_hop(start);
        let link = self.inner.recv_into(frame);
        let end = Instant::now();
        let mut recorder = self.recorder.borrow_mut();
        let Some(phase) = recorder.phase else {
            return link;
        };
        let totals = &mut recorder.totals[phase as usize];
        totals.transport_ns += end.duration_since(start).as_nanos() as u64;
        let (from, to) = link?;
        totals.frames += 1;
        if recorder.capture {
            recorder.captured.push(CapturedFrame {
                from,
                to,
                bytes: frame.clone(),
            });
        }
        let span = recorder.span_id();
        recorder.hop = Some(OpenHop {
            span,
            start: end,
            to: to.raw(),
            kind: FrameKind::of(frame),
            bytes: frame.len(),
            transport_ns: 0,
        });
        link
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }
}
