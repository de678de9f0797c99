//! The communicator: lock-step collectives over in-memory mailboxes.
//!
//! Every rank of a group holds a [`Comm`]. Collectives must be invoked by
//! all group members in the same order (the usual MPI contract); each
//! message carries a `(sequence, kind)` envelope and receivers verify that
//! envelopes match, so a mismatched collective fails loudly instead of
//! deadlocking silently.
//!
//! Payloads are moved, not serialized: a rank "sends" a `Vec<T>` by boxing
//! it and handing ownership through a channel. Byte accounting uses
//! `len * size_of::<T>()`, which corresponds to the dense wire size an MPI
//! implementation would transfer for the same typed buffer.
//!
//! Every collective exists in two forms: a fallible `try_*` variant that
//! returns a typed [`CommError`] (the form fault-tolerant callers use, and
//! the only form that can observe injected faults), and the classic
//! infallible wrapper that delegates and panics on error — preserving the
//! fail-fast MPI behaviour for callers that want it. When a rank runs under
//! [`crate::World::try_run`] with a non-empty [`crate::FaultPlan`], receives
//! poll a shared [`crate::fault::FailureBoard`] so a dead peer surfaces as
//! [`CommError::PeerExited`] instead of an eternal hang.
//!
//! All seven collectives are thin typed wrappers over one private skeleton,
//! `Comm::exchange`: it takes a send plan (who gets which payload) and a
//! receive plan (where each arriving payload goes), and is the only place
//! that consults the fault plan, takes a sequence number, tampers with
//! payloads, and records a collective's bytes — into the rank's one
//! [`EventLog`], of which profiles, flight rings and live telemetry are
//! views.

use crate::fault::{CommError, FailureInfo, FaultCtx, FaultKind, ParkedPosition};
use crate::flight::FlightEventKind;
use crate::log::{CollMeta, EventKind, EventLog};
use crate::metrics::MetricsRegistry;
use crate::stats::{CollKind, GroupInfo};
use crate::trace::TraceConfig;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// How often a fault-aware receive re-checks the failure board while parked.
const PARK_POLL: Duration = Duration::from_millis(2);

struct Msg {
    src: usize,
    seq: u64,
    kind: CollKind,
    /// Element count the sender declared for vector payloads; receivers
    /// compare it against what actually arrived to detect truncation.
    declared_len: Option<u64>,
    payload: Box<dyn Any + Send>,
}

/// Marker payload substituted by [`FaultKind::Corrupt`]; receivers fail the
/// typed downcast and report [`CommError::PayloadTypeMismatch`].
struct CorruptPayload;

/// A single value on the wire (`bcast`, `allreduce`): always charged
/// `size_of::<T>()` bytes, corruptible but never truncated.
struct One<T>(T);

/// The zero-byte message of a message-based barrier: never charged and
/// immune to tampering.
struct Token;

/// A message body with the byte accounting and tampering rules of its
/// shape. A typed buffer (`Vec<T>`) is the general case.
trait Payload: Send + Sized + 'static {
    /// Element count declared in the envelope, which receivers check
    /// against what arrives; `None` for bodies that cannot be truncated.
    fn declared(&self) -> Option<u64> {
        None
    }

    /// Payload bytes the message carries.
    fn bytes(&self) -> u64;

    /// Bytes charged to the sender's `bytes_to` entry for this message, or
    /// `None` when the message adds no entry.
    fn edge(&self) -> Option<u64> {
        Some(self.bytes()).filter(|&b| b > 0)
    }

    /// The boxed wire form once the plan's tampering is applied.
    fn wire(self, tamper: &Option<FaultKind>) -> Box<dyn Any + Send> {
        match tamper {
            Some(FaultKind::Corrupt) => Box::new(CorruptPayload),
            _ => Box::new(self),
        }
    }
}

impl<T: Send + 'static> Payload for Vec<T> {
    fn declared(&self) -> Option<u64> {
        Some(self.len() as u64)
    }

    fn bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<T>()) as u64
    }

    fn wire(mut self, tamper: &Option<FaultKind>) -> Box<dyn Any + Send> {
        match tamper {
            Some(FaultKind::Corrupt) => return Box::new(CorruptPayload),
            Some(FaultKind::Truncate { keep }) => {
                self.truncate((self.len() as f64 * keep.clamp(0.0, 1.0)).floor() as usize)
            }
            _ => {}
        }
        Box::new(self)
    }
}

impl<T: Send + 'static> Payload for One<T> {
    fn bytes(&self) -> u64 {
        std::mem::size_of::<T>() as u64
    }

    fn edge(&self) -> Option<u64> {
        Some(self.bytes())
    }
}

impl Payload for Token {
    fn bytes(&self) -> u64 {
        0
    }

    fn wire(self, _: &Option<FaultKind>) -> Box<dyn Any + Send> {
        Box::new(self)
    }
}

/// Which group members a collective's messages flow between.
#[derive(Clone, Copy)]
enum Shape {
    /// Every member sends to and receives from every other member.
    AllToAll,
    /// The root sends to every other member.
    FromRoot(usize),
    /// Every other member sends to the root.
    ToRoot(usize),
    /// No messages: the members meet at the group's `std` barrier.
    Sync,
}

impl Shape {
    /// The group ranks `me` sends to and receives from; `me` itself is
    /// skipped when sending and is its own slot when receiving.
    fn routes(self, me: usize, size: usize) -> (Range<usize>, Range<usize>) {
        match self {
            Shape::AllToAll => (0..size, 0..size),
            Shape::FromRoot(root) if root == me => (0..size, 0..0),
            Shape::FromRoot(root) => (0..0, root..root + 1),
            Shape::ToRoot(root) if root == me => (0..0, 0..size),
            Shape::ToRoot(root) => (root..root + 1, 0..0),
            Shape::Sync => (0..0, 0..0),
        }
    }
}

/// A collective past its entry: where it sits in the rank's streams (what
/// fault attributions name) and what the fault plan does to it.
struct Entered<'a> {
    /// Index of this collective in the rank's global stream (0 without an
    /// active fault context).
    op: u64,
    seq: u64,
    kind: CollKind,
    tag: &'a str,
    /// The tag's id in the rank's event log.
    tag_id: u32,
    /// Modeled straggler delay to attach to this collective's record.
    delay_secs: f64,
    /// Payload tampering to apply to outgoing sends.
    tamper: Option<FaultKind>,
}

impl Entered<'_> {
    fn parked(&self) -> ParkedPosition {
        ParkedPosition {
            op_index: self.op,
            seq: self.seq,
            kind: self.kind,
            tag: self.tag.to_string(),
        }
    }
}

/// Shared state of one communicator group.
pub(crate) struct GroupShared {
    info: Arc<GroupInfo>,
    /// One inbound channel per member (indexed by group rank).
    senders: Vec<Sender<Msg>>,
    receivers: Vec<Receiver<Msg>>,
    barrier: Barrier,
    /// Sub-groups created by `split`, keyed by (split generation, color).
    splits: Mutex<HashMap<(u64, usize), Arc<GroupShared>>>,
}

impl GroupShared {
    pub(crate) fn new(world_ranks: Vec<usize>) -> Arc<Self> {
        let size = world_ranks.len();
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        Arc::new(Self {
            info: Arc::new(GroupInfo { world_ranks }),
            senders,
            receivers,
            barrier: Barrier::new(size),
            splits: Mutex::new(HashMap::new()),
        })
    }
}

/// A communicator handle held by one rank of one group.
pub struct Comm {
    group: Arc<GroupShared>,
    rank: usize,
    seq: u64,
    split_gen: u64,
    /// Out-of-order messages parked until their source is being drained.
    pending: Vec<VecDeque<Msg>>,
    /// The rank's event log, shared with sub-communicators and span guards.
    log: EventLog,
    /// This group's id in the log's group table.
    group_id: u32,
    /// The completion record of the collective in flight (its edges, then
    /// the rest); kept between collectives so recording allocates nothing.
    record: Vec<EventKind>,
    /// The rank's metrics registry (shared with sub-communicators); only
    /// populated when [`Comm::trace_on`] — collectives never touch it.
    metrics: Arc<Mutex<MetricsRegistry>>,
    /// Gate for algorithm-level trace instrumentation.
    trace: TraceConfig,
    /// Fault-injection context; `None` outside `World::try_run` (and for
    /// empty fault plans), which keeps every hot path exactly as fast and
    /// as deterministic as an uninstrumented run.
    fault: Option<FaultCtx>,
}

impl Comm {
    pub(crate) fn new(
        group: Arc<GroupShared>,
        rank: usize,
        log: EventLog,
        metrics: Arc<Mutex<MetricsRegistry>>,
        trace: TraceConfig,
    ) -> Self {
        let size = group.info.world_ranks.len();
        Self {
            group_id: log.add_group(&group.info),
            group,
            rank,
            seq: 0,
            split_gen: 0,
            pending: (0..size).map(|_| VecDeque::new()).collect(),
            log,
            record: Vec::new(),
            metrics,
            trace,
            fault: None,
        }
    }

    pub(crate) fn set_fault(&mut self, ctx: FaultCtx) {
        self.fault = Some(ctx);
    }

    /// True when this communicator runs under an active fault plan. Callers
    /// use this to decide whether defensive copies for retries are worth
    /// making (they never are in a fault-free run).
    pub fn fault_active(&self) -> bool {
        self.fault.is_some()
    }

    /// This rank's index within the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn size(&self) -> usize {
        self.group.info.world_ranks.len()
    }

    /// This rank's index in the world communicator.
    pub fn world_rank(&self) -> usize {
        self.group.info.world_ranks[self.rank]
    }

    /// World ranks of all group members (`group rank -> world rank`).
    pub fn group_world_ranks(&self) -> &[usize] {
        &self.group.info.world_ranks
    }

    /// Credits useful work to the current compute segment (the simulated
    /// equivalent of time spent in OpenMP kernels).
    pub fn add_flops(&self, flops: u64) {
        self.work(flops, 0);
    }

    /// Notes the compute working set of the kernel whose flops are being
    /// credited (max-merged into the current segment; see [`crate::Segment`]).
    pub fn note_working_set(&self, bytes: u64) {
        self.work(0, bytes);
    }

    fn work(&self, flops: u64, ws_bytes: u64) {
        let work = EventKind::Work { flops, ws_bytes };
        self.log.append("", [(self.log.now(), work)]);
    }

    /// True when trace instrumentation is enabled for this run. Algorithm
    /// layers guard their span/metric recording behind this single `bool`,
    /// so a disabled trace costs exactly one branch per instrumented site.
    #[inline]
    pub fn trace_on(&self) -> bool {
        self.trace.on()
    }

    /// Mutable access to this rank's metrics registry. Sub-communicators
    /// created by [`Comm::split`] share the parent's registry, mirroring how
    /// they share the event log.
    pub fn metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut self.metrics.lock())
    }

    /// Records a phase span `[started, now]` on this rank's timeline.
    /// Callers obtain `started` from `Instant::now()` before the phase and
    /// should guard the whole pattern behind [`Comm::trace_on`].
    pub fn record_span(&self, tag: impl Into<String>, started: Instant) {
        self.record_span_between(tag, started, Instant::now());
    }

    /// Records a phase span with explicit endpoints, for intervals timed on
    /// worker threads and logged by the rank after the pool join (one
    /// Chrome-trace lane per distinct tag, e.g. `ts:kernel:t3`).
    pub fn record_span_between(&self, tag: impl Into<String>, started: Instant, ended: Instant) {
        let (open, close) = (self.log.secs(started), self.log.secs(ended));
        let span = [(open, EventKind::SpanOpen), (close, EventKind::SpanClose)];
        self.log.append(tag.into().as_str(), span);
    }

    /// Opens a drop-guard span: the span is recorded when the guard drops,
    /// so early returns (`?` on a [`CommError`]) and unwinds close it
    /// instead of leaking an open span out of the trace. The tag closure
    /// only runs when tracing is on, so a disabled trace pays no
    /// formatting/allocation cost.
    ///
    /// The guard holds the log handle, not `&self`, so `&mut self`
    /// collectives can run while it is open. Live telemetry follows the
    /// span stack, so with telemetry on the guard is active even when
    /// tracing is off.
    pub fn span(&self, tag: impl FnOnce() -> String) -> SpanGuard {
        if !self.trace.on() && crate::telemetry::global().is_none() {
            return SpanGuard::inactive();
        }
        let log = self.log.clone();
        let tag = log.append(tag().as_str(), [(log.now(), EventKind::SpanOpen)]);
        SpanGuard {
            open: Some((log, tag)),
        }
    }

    /// Appends a flight-class event to this rank's event log (on even when
    /// tracing is off): algorithms add retries, mode decisions and step
    /// markers to the collectives' posted/done pairs.
    #[inline]
    pub fn flight_record(&self, tag: &str, kind: FlightEventKind) {
        self.log.record(tag, kind);
    }

    /// Enters a collective: logs `CollPosted`, consults the fault plan,
    /// then takes the next sequence number. A transient failure returns
    /// before the sequence number moves or anything is sent, so an
    /// immediate retry re-enters in lock-step with the group.
    fn enter<'a>(&mut self, kind: CollKind, tag: &'a str) -> Result<Entered<'a>, CommError> {
        // Log the posting *before* consulting the fault plan, so a crashed
        // rank's flight ring and live phase end with exactly the collective
        // (seq, kind, tag) that killed it.
        let seq = self.seq;
        let posted = EventKind::Flight(FlightEventKind::CollPosted { seq, kind });
        let tag_id = self.log.append(tag, [(self.log.now(), posted)]);
        let mut at = Entered {
            op: 0,
            seq,
            kind,
            tag,
            tag_id,
            delay_secs: 0.0,
            tamper: None,
        };
        if let Some(ctx) = &self.fault {
            let (op, fault) = ctx.enter_collective(tag);
            at.op = op;
            match fault {
                Some(FaultKind::Crash) => {
                    let parked = at.parked();
                    ctx.board.mark_failed(FailureInfo {
                        world_rank: ctx.world_rank,
                        parked: Some(parked.clone()),
                        cause: "injected rank crash".into(),
                    });
                    panic!(
                        "injected rank crash: world rank {} at {parked}",
                        ctx.world_rank
                    );
                }
                Some(FaultKind::Transient) => {
                    return Err(CommError::Injected {
                        rank: self.rank,
                        op_index: op,
                        kind,
                        tag: tag.to_string(),
                    })
                }
                Some(FaultKind::Delay { secs }) => at.delay_secs = secs,
                tamper => at.tamper = tamper,
            }
        }
        self.seq += 1;
        Ok(at)
    }

    /// Publishes a fatal (non-retryable) error on the failure board so
    /// peers waiting on this rank cascade into `PeerExited` instead of
    /// hanging, then hands the error back.
    fn fatal(&self, err: CommError, at: &Entered) -> CommError {
        if let Some(ctx) = &self.fault {
            ctx.board.mark_failed(FailureInfo {
                world_rank: ctx.world_rank,
                parked: Some(at.parked()),
                cause: err.to_string(),
            });
        }
        err
    }

    /// Receives the message for (`src`, `at.seq`, `at.kind`), parking any
    /// out-of-order messages from other sources. Under an active fault
    /// context the wait polls the failure board, so a crashed or finished
    /// peer produces [`CommError::PeerExited`] rather than a hang.
    fn try_recv_from(&mut self, src: usize, at: &Entered) -> Result<Msg, CommError> {
        let msg = match self.pending[src].pop_front() {
            Some(msg) => msg,
            None => self.wait_for(src, at)?,
        };
        if (msg.seq, msg.kind) != (at.seq, at.kind) {
            let err = CommError::CollectiveMismatch {
                rank: self.rank,
                src,
                expected_kind: at.kind,
                expected_seq: at.seq,
                got_kind: msg.kind,
                got_seq: msg.seq,
                tag: at.tag.to_string(),
            };
            return Err(self.fatal(err, at));
        }
        Ok(msg)
    }

    /// Blocks until the next message from `src` arrives.
    fn wait_for(&mut self, src: usize, at: &Entered) -> Result<Msg, CommError> {
        if let Some(ctx) = &self.fault {
            ctx.board.set_parked(ctx.world_rank, at.parked());
        }
        loop {
            let inbox = &self.group.receivers[self.rank];
            let got = match &self.fault {
                Some(_) => inbox.recv_timeout(PARK_POLL),
                None => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match got {
                Ok(msg) if msg.src == src => return Ok(msg),
                Ok(msg) => self.pending[msg.src].push_back(msg),
                Err(err) => {
                    if let Some(done) = self.wait_expired(src, at, err) {
                        return done;
                    }
                }
            }
        }
    }

    /// Decides a receive from `src` whose wait just expired: `None` while
    /// the peer may still send. Once the failure board says the peer failed
    /// or finished, a message it sent before going away may already sit in
    /// the inbox, so the inbox is drained without blocking first: `src`'s
    /// message is returned and the others are parked. Only an empty-handed
    /// drain reports [`CommError::PeerExited`].
    fn wait_expired(
        &mut self,
        src: usize,
        at: &Entered,
        err: RecvTimeoutError,
    ) -> Option<Result<Msg, CommError>> {
        let peer_world = self.group.info.world_ranks[src];
        let board = self.fault.as_ref().map(|ctx| &ctx.board);
        let peer_cause = if let Some(info) = board.and_then(|b| b.failure_of(peer_world)) {
            info.cause
        } else if board.is_some_and(|b| b.is_done(peer_world)) {
            "completed without a matching collective".to_string()
        } else if err == RecvTimeoutError::Disconnected {
            // Unreachable in practice: the senders live in the shared
            // group state, which outlives every rank.
            "mailbox disconnected".to_string()
        } else {
            return None;
        };
        while let Ok(msg) = self.group.receivers[self.rank].try_recv() {
            if msg.src == src {
                return Some(Ok(msg));
            }
            self.pending[msg.src].push_back(msg);
        }
        let err = CommError::PeerExited {
            rank: self.rank,
            peer_world,
            seq: at.seq,
            kind: at.kind,
            tag: at.tag.to_string(),
            peer_cause,
        };
        Some(Err(self.fatal(err, at)))
    }

    /// Unboxes a payload, verifying its type and, for buffers, its
    /// declared length.
    fn unpack<P: Payload>(&self, msg: Msg, at: &Entered) -> Result<P, CommError> {
        let (rank, src, kind) = (self.rank, msg.src, at.kind);
        let err = match msg.payload.downcast::<P>() {
            Ok(p) => match (msg.declared_len, p.declared()) {
                (Some(declared), Some(got)) if declared != got => CommError::TruncatedPayload {
                    rank,
                    src,
                    kind,
                    tag: at.tag.to_string(),
                    declared,
                    got,
                },
                _ => return Ok(*p),
            },
            Err(_) => CommError::PayloadTypeMismatch {
                rank,
                src,
                kind,
                tag: at.tag.to_string(),
            },
        };
        Err(self.fatal(err, at))
    }

    /// The one collective skeleton. In order, it:
    ///
    /// 1. enters the collective ([`Comm::enter`]: logs `CollPosted`,
    ///    consults the fault plan, takes the next sequence number);
    /// 2. runs the send plan: `send(dst)` builds the payload for each
    ///    destination `shape` gives this rank, which goes out tampered as
    ///    the plan says and is charged to `bytes_to` by its [`Payload`] rule;
    /// 3. runs the receive plan: each source's payload, in group-rank
    ///    order, is checked and handed to `recv`, where `None` marks this
    ///    rank's own slot (so gathers and folds see group-rank order);
    /// 4. makes the collective's one record: a single append to the event
    ///    log of one `Edge` per destination, the rest of the
    ///    [`crate::CollectiveRecord`] (whose `uniform_bytes` is `uniform`;
    ///    `None`: the bytes received, as at a broadcast's non-roots), and
    ///    `CollDone`.
    ///
    /// All sends precede all receives, so no rank waits on a peer that is
    /// itself waiting to send.
    fn exchange<P: Payload>(
        &mut self,
        kind: CollKind,
        tag: String,
        shape: Shape,
        uniform: Option<u64>,
        mut send: impl FnMut(usize) -> P,
        mut recv: impl FnMut(Option<P>),
    ) -> Result<(), CommError> {
        let at = self.enter(kind, &tag)?;
        let seq = at.seq;
        let (to, from) = shape.routes(self.rank, self.size());
        let mut sent = 0;
        self.record.clear();
        for dst in to.filter(|&dst| dst != self.rank) {
            let payload = send(dst);
            if let Some(bytes) = payload.edge() {
                let dst = self.group.info.world_ranks[dst] as u32;
                self.record.push(EventKind::Edge { dst, kind, bytes });
                sent += bytes;
            }
            // The receiver half lives in `GroupShared`, which outlives every
            // rank, so a send cannot fail while the run is alive; a dead
            // peer is detected on the receive side instead.
            let _ = self.group.senders[dst].send(Msg {
                src: self.rank,
                seq,
                kind,
                declared_len: payload.declared(),
                payload: payload.wire(&at.tamper),
            });
        }
        if let Shape::Sync = shape {
            self.group.barrier.wait();
        }
        let (mut received, mut recv_msgs) = (0, 0);
        for src in from {
            if src == self.rank {
                recv(None);
                continue;
            }
            let msg = self.try_recv_from(src, &at)?;
            let payload = self.unpack::<P>(msg, &at)?;
            received += payload.bytes();
            // Message counts only price sparse all-to-alls.
            if kind == CollKind::AllToAllV && payload.declared() > Some(0) {
                recv_msgs += 1;
            }
            recv(Some(payload));
        }

        let meta = CollMeta {
            group: self.group_id,
            recv_msgs,
            uniform_bytes: uniform.unwrap_or(received),
            delay_secs: at.delay_secs,
        };
        let done = FlightEventKind::CollDone {
            seq,
            kind,
            sent,
            recv: received,
        };
        self.record
            .extend([EventKind::Coll(meta), EventKind::Flight(done)]);
        let t = self.log.now();
        self.log
            .append(at.tag_id, self.record.iter().map(|&e| (t, e)));
        Ok(())
    }

    /// Personalised all-to-all: `sends[j]` goes to group rank `j`; returns
    /// the vector received from each rank (own data passes through by move).
    ///
    /// # Panics
    /// Panics if `sends.len() != self.size()` or on any [`CommError`].
    pub fn alltoallv<T: Send + 'static>(
        &mut self,
        sends: Vec<Vec<T>>,
        tag: impl Into<String>,
    ) -> Vec<Vec<T>> {
        self.try_alltoallv(sends, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::alltoallv`]. On [`CommError::Injected`] no
    /// communication happened and the collective may be retried with the
    /// same buffers (callers must keep a copy; the originals are consumed).
    pub fn try_alltoallv<T: Send + 'static>(
        &mut self,
        mut sends: Vec<Vec<T>>,
        tag: impl Into<String>,
    ) -> Result<Vec<Vec<T>>, CommError> {
        assert_eq!(sends.len(), self.size(), "one send buffer per rank");
        let mut recvs = Vec::with_capacity(self.size());
        self.exchange(
            CollKind::AllToAllV,
            tag.into(),
            Shape::AllToAll,
            Some(0),
            |dst| std::mem::take(&mut sends[dst]),
            |got| recvs.push(got.unwrap_or_default()),
        )?;
        recvs[self.rank] = std::mem::take(&mut sends[self.rank]);
        Ok(recvs)
    }

    /// All-gather with variable contribution sizes; returns one vector per
    /// source rank (including this one), indexed by group rank.
    pub fn allgatherv<T: Clone + Send + 'static>(
        &mut self,
        data: Vec<T>,
        tag: impl Into<String>,
    ) -> Vec<Vec<T>> {
        self.try_allgatherv(data, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::allgatherv`].
    pub fn try_allgatherv<T: Clone + Send + 'static>(
        &mut self,
        data: Vec<T>,
        tag: impl Into<String>,
    ) -> Result<Vec<Vec<T>>, CommError> {
        let mut out = Vec::with_capacity(self.size());
        self.exchange(
            CollKind::AllGatherV,
            tag.into(),
            Shape::AllToAll,
            Some(data.bytes()),
            |_| data.clone(),
            |got| out.push(got.unwrap_or_default()),
        )?;
        out[self.rank] = data;
        Ok(out)
    }

    /// Broadcast from `root`. The root passes `Some(value)`, others `None`.
    pub fn bcast<T: Clone + Send + 'static>(
        &mut self,
        root: usize,
        value: Option<T>,
        tag: impl Into<String>,
    ) -> T {
        self.try_bcast(root, value, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::bcast`].
    pub fn try_bcast<T: Clone + Send + 'static>(
        &mut self,
        root: usize,
        value: Option<T>,
        tag: impl Into<String>,
    ) -> Result<T, CommError> {
        assert!(root < self.size(), "root out of range");
        let is_root = self.rank == root;
        assert!(
            value.is_some() || !is_root,
            "root must supply the broadcast value"
        );
        assert!(value.is_none() || is_root, "non-root must pass None");
        let mut got = None;
        self.exchange(
            CollKind::Bcast,
            tag.into(),
            Shape::FromRoot(root),
            Some(std::mem::size_of::<T>() as u64),
            |_| One(value.clone().expect("only the root sends")),
            |v| got = v.map(|One(v)| v),
        )?;
        Ok(value.or(got).expect("non-roots receive the root's value"))
    }

    /// Broadcast of a variable-length buffer from `root`; non-roots pass an
    /// empty vector. Accounted as `len · size_of::<T>()` payload bytes
    /// (unlike [`Comm::bcast`], whose payload is a single fixed-size value).
    pub fn bcast_vec<T: Clone + Send + 'static>(
        &mut self,
        root: usize,
        data: Vec<T>,
        tag: impl Into<String>,
    ) -> Vec<T> {
        self.try_bcast_vec(root, data, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::bcast_vec`].
    pub fn try_bcast_vec<T: Clone + Send + 'static>(
        &mut self,
        root: usize,
        data: Vec<T>,
        tag: impl Into<String>,
    ) -> Result<Vec<T>, CommError> {
        assert!(root < self.size(), "root out of range");
        let mut got = None;
        self.exchange(
            CollKind::Bcast,
            tag.into(),
            Shape::FromRoot(root),
            (self.rank == root).then(|| data.bytes()),
            |_| data.clone(),
            |v| got = v,
        )?;
        Ok(got.unwrap_or(data))
    }

    /// All-reduce with a user-supplied associative, commutative `op`.
    ///
    /// Implemented as gather-to-all followed by a local fold in group-rank
    /// order (so results are bit-identical across ranks); the cost model
    /// prices it as a tree reduce-broadcast.
    pub fn allreduce<T: Clone + Send + 'static>(
        &mut self,
        value: T,
        op: impl Fn(T, T) -> T,
        tag: impl Into<String>,
    ) -> T {
        self.try_allreduce(value, op, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::allreduce`].
    pub fn try_allreduce<T: Clone + Send + 'static>(
        &mut self,
        value: T,
        op: impl Fn(T, T) -> T,
        tag: impl Into<String>,
    ) -> Result<T, CommError> {
        let mut acc = None;
        self.exchange(
            CollKind::AllReduce,
            tag.into(),
            Shape::AllToAll,
            Some(std::mem::size_of::<T>() as u64),
            |_| One(value.clone()),
            |v| {
                let v = v.map_or_else(|| value.clone(), |One(v)| v);
                acc = Some(match acc.take() {
                    Some(a) => op(a, v),
                    None => v,
                });
            },
        )?;
        Ok(acc.expect("the fold includes this rank's own value"))
    }

    /// Gather variable-size contributions at `root`; returns `Some(vec of
    /// per-rank data)` at the root and `None` elsewhere.
    pub fn gatherv<T: Send + 'static>(
        &mut self,
        data: Vec<T>,
        root: usize,
        tag: impl Into<String>,
    ) -> Option<Vec<Vec<T>>> {
        self.try_gatherv(data, root, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::gatherv`].
    pub fn try_gatherv<T: Send + 'static>(
        &mut self,
        mut data: Vec<T>,
        root: usize,
        tag: impl Into<String>,
    ) -> Result<Option<Vec<Vec<T>>>, CommError> {
        assert!(root < self.size(), "root out of range");
        let is_root = self.rank == root;
        let mut out = Vec::with_capacity(if is_root { self.size() } else { 0 });
        self.exchange(
            CollKind::GatherV,
            tag.into(),
            Shape::ToRoot(root),
            Some(0),
            |_| std::mem::take(&mut data),
            |got| out.push(got.unwrap_or_default()),
        )?;
        Ok(is_root.then(|| {
            out[root] = data;
            out
        }))
    }

    /// Synchronises all group members.
    pub fn barrier(&mut self, tag: impl Into<String>) {
        self.try_barrier(tag).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::barrier`]. Under an active fault plan the barrier is
    /// message-based (a zero-byte exchange through the mailboxes) so a dead
    /// peer is detected; a `std` barrier would block forever.
    pub fn try_barrier(&mut self, tag: impl Into<String>) -> Result<(), CommError> {
        let shape = match self.fault {
            Some(_) => Shape::AllToAll,
            None => Shape::Sync,
        };
        self.exchange(
            CollKind::Barrier,
            tag.into(),
            shape,
            Some(0),
            |_| Token,
            |_| {},
        )
    }

    /// Splits the communicator into sub-communicators: members with equal
    /// `color` form a group, ordered by `(key, parent rank)`. Mirrors
    /// `MPI_Comm_split`; used to build the SUMMA row/column/layer grids.
    ///
    /// Key collisions are legal (MPI semantics): ties are broken by parent
    /// rank, so the result is always a total order. A rank may be the sole
    /// member of its color (a singleton group of size 1).
    pub fn split(&mut self, color: usize, key: usize) -> Comm {
        // Exchange (color, key) so every member can compute all groups.
        let info = self.allgatherv(vec![(color, key, self.rank)], "comm:split");
        let gen = self.split_gen;
        self.split_gen += 1;

        let mut members: Vec<(usize, usize)> = info
            .iter()
            .flatten()
            .filter(|&&(c, _, _)| c == color)
            .map(|&(_, k, r)| (k, r))
            .collect();
        members.sort_unstable();
        let my_new_rank = members
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("splitting rank must be in its own color group");
        let world_ranks: Vec<usize> = members
            .iter()
            .map(|&(_, r)| self.group.info.world_ranks[r])
            .collect();

        let shared = {
            let mut splits = self.group.splits.lock();
            Arc::clone(
                splits
                    .entry((gen, color))
                    .or_insert_with(|| GroupShared::new(world_ranks)),
            )
        };
        let metrics = Arc::clone(&self.metrics);
        let mut sub = Comm::new(shared, my_new_rank, self.log.clone(), metrics, self.trace);
        // A rank's splits share its fault context: the collective counter
        // keeps running across communicators, so "crash at collective #k"
        // means the k-th collective the rank enters anywhere.
        sub.fault = self.fault.clone();
        sub
    }
}

/// A phase span that records itself when dropped (see [`Comm::span`]).
///
/// Binding matters: `let _guard = comm.span(...)` lives to the end of the
/// scope; `let _ = comm.span(...)` drops — and records — immediately.
#[must_use = "the span closes when the guard drops; bind it to a named variable"]
pub struct SpanGuard {
    /// The log the span opened in, and its tag id there.
    open: Option<(EventLog, u32)>,
}

impl SpanGuard {
    /// A guard that records nothing (what [`Comm::span`] returns with
    /// tracing and telemetry off).
    pub fn inactive() -> Self {
        Self { open: None }
    }

    /// True when dropping this guard will record a span.
    pub fn is_active(&self) -> bool {
        self.open.is_some()
    }

    /// Closes the span now (equivalent to dropping the guard).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((log, tag)) = self.open.take() {
            log.append(tag, [(log.now(), EventKind::SpanClose)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FailureBoard, FaultPlan};
    use crate::world::World;

    /// Rank 0 of a fault-aware 2-rank group, parked on barrier #0.
    fn parked_rank0() -> (Comm, Arc<GroupShared>, Arc<FailureBoard>) {
        let group = GroupShared::new(vec![0, 1]);
        let board = FailureBoard::new();
        let log = EventLog::new(0);
        let trace = TraceConfig::disabled();
        let mut comm = Comm::new(Arc::clone(&group), 0, log, Arc::default(), trace);
        let plan = Arc::new(FaultPlan::none());
        comm.set_fault(FaultCtx::new(plan, Arc::clone(&board), 0));
        board.mark_failed(FailureInfo {
            world_rank: 1,
            parked: None,
            cause: "peer crashed".into(),
        });
        (comm, group, board)
    }

    fn barrier0() -> Entered<'static> {
        Entered {
            op: 0,
            seq: 0,
            kind: CollKind::Barrier,
            tag: "b",
            tag_id: 0,
            delay_secs: 0.0,
            tamper: None,
        }
    }

    #[test]
    fn expired_wait_takes_a_message_the_exited_peer_already_sent() {
        // The race: the wait times out, the peer sends and then fails. The
        // message is in the inbox by the time the board says so.
        let (mut comm, group, _board) = parked_rank0();
        let msg = |src| Msg {
            src,
            seq: 0,
            kind: CollKind::Barrier,
            declared_len: None,
            payload: Box::new(Token),
        };
        let _ = group.senders[0].send(msg(0));
        let _ = group.senders[0].send(msg(1));
        let got = comm.wait_expired(1, &barrier0(), RecvTimeoutError::Timeout);
        assert!(matches!(got, Some(Ok(Msg { src: 1, seq: 0, .. }))));
        assert_eq!(comm.pending[0].len(), 1, "other sources are parked");
    }

    #[test]
    fn expired_wait_reports_the_exited_peer_once_the_inbox_is_empty() {
        let (mut comm, _group, board) = parked_rank0();
        let got = comm.wait_expired(1, &barrier0(), RecvTimeoutError::Timeout);
        match got {
            Some(Err(CommError::PeerExited { peer_cause, .. })) => {
                assert_eq!(peer_cause, "peer crashed")
            }
            _ => panic!("expected PeerExited"),
        }
        assert!(board.failure_of(0).is_some(), "the failure cascades");
    }

    #[test]
    fn alltoallv_exchanges_personalised_data() {
        let out = World::run(4, |comm| {
            let sends: Vec<Vec<u64>> = (0..4)
                .map(|dst| vec![(comm.rank() * 10 + dst) as u64])
                .collect();
            let recv = comm.alltoallv(sends, "t");
            recv.iter().map(|v| v[0]).collect::<Vec<_>>()
        });
        for (rank, got) in out.results.iter().enumerate() {
            let expect: Vec<u64> = (0..4).map(|src| (src * 10 + rank) as u64).collect();
            assert_eq!(got, &expect);
        }
    }

    #[test]
    fn alltoallv_handles_empty_buffers() {
        let out = World::run(3, |comm| {
            let mut sends: Vec<Vec<u8>> = vec![Vec::new(); 3];
            if comm.rank() == 0 {
                sends[2] = vec![9, 9];
            }
            let recv = comm.alltoallv(sends, "t");
            recv.iter().map(|v| v.len()).sum::<usize>()
        });
        assert_eq!(out.results, vec![0, 0, 2]);
    }

    #[test]
    fn allgatherv_collects_everything() {
        let out = World::run(3, |comm| {
            let data = vec![comm.rank() as u32; comm.rank() + 1];
            comm.allgatherv(data, "t")
        });
        for res in &out.results {
            assert_eq!(res.len(), 3);
            for (src, v) in res.iter().enumerate() {
                assert_eq!(v, &vec![src as u32; src + 1]);
            }
        }
    }

    #[test]
    fn bcast_distributes_root_value() {
        let out = World::run(4, |comm| {
            let v = if comm.rank() == 2 { Some(99u64) } else { None };
            comm.bcast(2, v, "t")
        });
        assert_eq!(out.results, vec![99, 99, 99, 99]);
    }

    #[test]
    fn bcast_vec_moves_buffers_and_accounts_bytes() {
        let out = World::run(3, |comm| {
            let data = if comm.rank() == 0 {
                vec![1u64, 2, 3]
            } else {
                Vec::new()
            };
            comm.bcast_vec(0, data, "blk")
        });
        assert!(out.results.iter().all(|v| v == &vec![1, 2, 3]));
        // Root sent 3 u64 to each of 2 peers.
        assert_eq!(out.profiles[0].bytes_sent_tagged("blk"), 2 * 24);
        assert_eq!(out.profiles[1].bytes_sent_tagged("blk"), 0);
    }

    #[test]
    fn allreduce_folds_commutatively() {
        let out = World::run(5, |comm| {
            comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b, "t")
        });
        assert_eq!(out.results, vec![15; 5]);
    }

    #[test]
    fn gatherv_collects_at_root() {
        let out = World::run(3, |comm| {
            let data = vec![comm.rank() as u8 * 2];
            comm.gatherv(data, 1, "t")
        });
        assert!(out.results[0].is_none());
        assert!(out.results[2].is_none());
        let at_root = out.results[1].as_ref().unwrap();
        assert_eq!(at_root, &vec![vec![0u8], vec![2u8], vec![4u8]]);
    }

    #[test]
    fn barrier_and_sequencing() {
        let out = World::run(4, |comm| {
            comm.barrier("sync");
            comm.allreduce(1u32, |a, b| a + b, "count")
        });
        assert_eq!(out.results, vec![4; 4]);
    }

    #[test]
    fn split_forms_row_groups() {
        // 2x2 grid: color = row, key = col.
        let out = World::run(4, |comm| {
            let row = comm.rank() / 2;
            let col = comm.rank() % 2;
            let mut row_comm = comm.split(row, col);
            let ids = row_comm.allgatherv(vec![comm.rank()], "rowids");
            (
                row_comm.rank(),
                row_comm.size(),
                ids.into_iter().flatten().collect::<Vec<_>>(),
            )
        });
        assert_eq!(out.results[0], (0, 2, vec![0, 1]));
        assert_eq!(out.results[1], (1, 2, vec![0, 1]));
        assert_eq!(out.results[2], (0, 2, vec![2, 3]));
        assert_eq!(out.results[3], (1, 2, vec![2, 3]));
    }

    #[test]
    fn nested_split_of_split() {
        // Split 8 ranks into two halves, then each half into pairs.
        let out = World::run(8, |comm| {
            let mut half = comm.split(comm.rank() / 4, comm.rank() % 4);
            let mut pair = half.split(half.rank() / 2, half.rank() % 2);
            pair.allreduce(comm.world_rank() as u64, |a, b| a + b, "t")
        });
        assert_eq!(out.results, vec![1, 1, 5, 5, 9, 9, 13, 13]);
    }

    #[test]
    fn split_world_ranks_are_consistent() {
        let out = World::run(4, |comm| {
            let color = comm.rank() % 2;
            let sub = comm.split(color, comm.rank());
            sub.group_world_ranks().to_vec()
        });
        assert_eq!(out.results[0], vec![0, 2]);
        assert_eq!(out.results[1], vec![1, 3]);
        assert_eq!(out.results[2], vec![0, 2]);
    }

    #[test]
    fn split_with_key_collisions_breaks_ties_by_parent_rank() {
        // All four ranks pick the same color AND the same key: MPI resolves
        // the tie by parent rank, so the group order must equal parent order.
        let out = World::run(4, |comm| {
            let sub = comm.split(0, 7);
            (sub.rank(), sub.size(), sub.group_world_ranks().to_vec())
        });
        for (parent_rank, &(sub_rank, sub_size, ref worlds)) in out.results.iter().enumerate() {
            assert_eq!(sub_rank, parent_rank, "tie broken by parent rank");
            assert_eq!(sub_size, 4);
            assert_eq!(worlds, &vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn split_partial_key_collisions_keep_total_order() {
        // Ranks 0..4 use keys [5, 5, 0, 0]: collided pairs order by parent
        // rank within the same key, and lower keys come first.
        let out = World::run(4, |comm| {
            let key = if comm.rank() < 2 { 5 } else { 0 };
            let sub = comm.split(0, key);
            (sub.rank(), sub.group_world_ranks().to_vec())
        });
        let expect_order = vec![2, 3, 0, 1]; // keys (0,r2), (0,r3), (5,r0), (5,r1)
        for (parent_rank, &(sub_rank, ref worlds)) in out.results.iter().enumerate() {
            assert_eq!(worlds, &expect_order);
            assert_eq!(expect_order[sub_rank], parent_rank);
        }
    }

    #[test]
    fn split_singleton_color_groups() {
        // Every rank takes a unique color: each becomes rank 0 of a
        // size-1 group, and collectives on that group degenerate correctly.
        let out = World::run(3, |comm| {
            let mut solo = comm.split(comm.rank(), 0);
            let sum = solo.allreduce(comm.rank() as u64 + 10, |a, b| a + b, "solo");
            (
                solo.rank(),
                solo.size(),
                sum,
                solo.group_world_ranks().to_vec(),
            )
        });
        for (rank, &(sub_rank, sub_size, sum, ref worlds)) in out.results.iter().enumerate() {
            assert_eq!(sub_rank, 0);
            assert_eq!(sub_size, 1);
            assert_eq!(sum, rank as u64 + 10, "singleton allreduce is identity");
            assert_eq!(worlds, &vec![rank]);
        }
    }

    #[test]
    fn byte_accounting_matches_payloads() {
        let out = World::run(2, |comm| {
            let sends: Vec<Vec<u64>> = if comm.rank() == 0 {
                vec![vec![], vec![1, 2, 3]]
            } else {
                vec![vec![7], vec![]]
            };
            comm.alltoallv(sends, "payload");
        });
        // Rank 0 sent 3 u64 = 24 bytes; rank 1 sent 8.
        assert_eq!(out.profiles[0].total_bytes_sent(), 24);
        assert_eq!(out.profiles[1].total_bytes_sent(), 8);
        assert_eq!(out.profiles[0].bytes_sent_tagged("payload"), 24);
    }

    #[test]
    fn conservation_sent_equals_received() {
        let out = World::run(4, |comm| {
            let sends: Vec<Vec<u32>> = (0..4).map(|d| vec![d as u32; comm.rank() + d]).collect();
            comm.alltoallv(sends, "t");
        });
        let sent: u64 = out.profiles.iter().map(|p| p.total_bytes_sent()).sum();
        let received: u64 = out
            .profiles
            .iter()
            .flat_map(|p| p.segments.iter())
            .filter_map(|s| s.coll.as_ref())
            .map(|c| c.bytes_received)
            .sum();
        assert_eq!(sent, received);
        assert!(sent > 0);
    }

    #[test]
    fn flops_attributed_to_segments() {
        let out = World::run(2, |comm| {
            comm.add_flops(100);
            comm.barrier("s1");
            comm.add_flops(50);
        });
        for p in &out.profiles {
            assert_eq!(p.total_flops(), 150);
            assert_eq!(p.segments[0].flops, 100);
        }
    }

    #[test]
    fn single_rank_world_works() {
        let out = World::run(1, |comm| {
            let r = comm.alltoallv(vec![vec![5u8]], "self");
            let g = comm.allgatherv(vec![1u16], "g");
            let b = comm.bcast(0, Some(3u32), "b");
            (r[0][0], g[0][0], b)
        });
        assert_eq!(out.results, vec![(5, 1, 3)]);
        assert_eq!(out.profiles[0].total_bytes_sent(), 0);
    }
}
