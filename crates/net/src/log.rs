//! The per-rank event log: the one sink every observability view reads.
//!
//! Each rank appends `Copy` [`Event`]s to one [`EventLog`], shared by its
//! [`crate::Comm`], that communicator's [`crate::Comm::split`] children and
//! its [`crate::SpanGuard`]s. The log is append-only; every reader is a
//! view of it:
//!
//! * the rank's [`RankProfile`] is folded from it after the rank returns
//!   ([`EventLog::profile`]);
//! * the flight ring is its last [`DEFAULT_FLIGHT_CAPACITY`] flight-class
//!   events ([`EventLog::flight`]);
//! * the live-telemetry aggregator reads it from a cursor on every tick.
//!
//! The views agree by construction. An event carries a `u32` id into the
//! log's tag table instead of its tag, so tags are never truncated. The
//! table lives behind the log's one lock, so no two rank threads share a
//! lock; a collective takes it twice, once when it is posted and once for
//! its completion. The tag and group tables are reserved before the rank
//! thread starts; the event vector starts empty and grows by doubling on
//! the rank thread (DESIGN.md §3 says why both matter).

use crate::flight::{FlightEvent, FlightEventKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use crate::stats::{CollKind, CollectiveRecord, GroupInfo, PhaseSpan, RankProfile, Segment};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;
use std::time::Instant;

/// Distinct tags, and bytes of their text, reserved per rank.
const INITIAL_TAGS: (usize, usize) = (128, 4096);

/// What happened. Every payload is a plain scalar, so events are `Copy`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum EventKind {
    /// A flight-class event: what the flight ring keeps and what the live
    /// phase follows.
    Flight(FlightEventKind),
    /// This rank sent `bytes` to world rank `dst` in the collective whose
    /// `CollDone` follows.
    Edge {
        dst: u32,
        kind: CollKind,
        bytes: u64,
    },
    /// The rest of that collective's record.
    Coll(CollMeta),
    /// Work credited to the current compute segment.
    Work { flops: u64, ws_bytes: u64 },
    /// A phase span opened.
    SpanOpen,
    /// The innermost open span with this event's tag closed.
    SpanClose,
}

/// What a collective's record holds beyond its `CollDone` and edges.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct CollMeta {
    /// Index into the log's group table.
    pub group: u32,
    pub recv_msgs: u32,
    pub uniform_bytes: u64,
    pub delay_secs: f64,
}

/// One log entry: when, under which tag, what.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    /// Seconds since the log's epoch (rank start).
    pub t_secs: f64,
    /// Index into the log's tag table.
    pub tag: u32,
    pub kind: EventKind,
}

pub(crate) struct Inner {
    events: Vec<Event>,
    /// Every interned tag's text, back to back.
    names: String,
    /// Byte range of tag `id` in `names`.
    tags: Vec<(u32, u32)>,
    /// Tag ids by the hash of their text; a collision takes the next key.
    ids: HashMap<u64, u32>,
    hasher: RandomState,
    groups: Vec<Arc<GroupInfo>>,
}

impl Inner {
    fn tag(&self, id: u32) -> &str {
        let (start, end) = self.tags[id as usize];
        &self.names[start as usize..end as usize]
    }
}

/// What an appended event can be tagged with: a tag (interned on first
/// sight) or the id an earlier append returned.
pub(crate) trait TagKey {
    fn id(self, log: &mut Inner) -> u32;
}

impl TagKey for &str {
    fn id(self, log: &mut Inner) -> u32 {
        let mut key = log.hasher.hash_one(self);
        while let Some(&id) = log.ids.get(&key) {
            if log.tag(id) == self {
                return id;
            }
            key = key.wrapping_add(1);
        }
        let (id, start) = (log.tags.len() as u32, log.names.len() as u32);
        log.names.push_str(self);
        log.tags.push((start, log.names.len() as u32));
        log.ids.insert(key, id);
        id
    }
}

impl TagKey for u32 {
    fn id(self, _: &mut Inner) -> u32 {
        self
    }
}

struct Shared {
    world_rank: usize,
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Handle to one rank's append-only event log; clones share the log.
#[derive(Clone)]
pub struct EventLog(Arc<Shared>);

impl EventLog {
    /// An empty log for world rank `world_rank`, stamped from now.
    pub fn new(world_rank: usize) -> Self {
        Self(Arc::new(Shared {
            world_rank,
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                events: Vec::new(),
                names: String::with_capacity(INITIAL_TAGS.1),
                tags: Vec::with_capacity(INITIAL_TAGS.0),
                ids: HashMap::with_capacity(INITIAL_TAGS.0),
                hasher: RandomState::new(),
                groups: Vec::with_capacity(8),
            }),
        }))
    }

    /// `at` in seconds since the log's epoch.
    pub(crate) fn secs(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.0.epoch).as_secs_f64()
    }

    pub(crate) fn now(&self) -> f64 {
        self.secs(Instant::now())
    }

    /// Appends `events`, all under `tag`, in one critical section; returns
    /// the tag's id.
    pub(crate) fn append(
        &self,
        tag: impl TagKey,
        events: impl IntoIterator<Item = (f64, EventKind)>,
    ) -> u32 {
        let mut inner = self.0.inner.lock();
        let tag = tag.id(&mut inner);
        let stamped = events
            .into_iter()
            .map(|(t_secs, kind)| Event { t_secs, tag, kind });
        inner.events.extend(stamped);
        tag
    }

    /// Appends one flight-class event, stamped now.
    pub fn record(&self, tag: &str, kind: FlightEventKind) {
        self.append(tag, [(self.now(), EventKind::Flight(kind))]);
    }

    /// Registers a communicator group; its id goes into `Coll` events.
    pub(crate) fn add_group(&self, group: &Arc<GroupInfo>) -> u32 {
        let mut inner = self.0.inner.lock();
        inner.groups.push(Arc::clone(group));
        (inner.groups.len() - 1) as u32
    }

    /// Copies the events appended since `*cursor` into `out` and the tags
    /// interned since `tags.len()` into `tags`, then advances the cursor.
    pub(crate) fn read(&self, cursor: &mut usize, tags: &mut Vec<Arc<str>>, out: &mut Vec<Event>) {
        let inner = self.0.inner.lock();
        out.extend_from_slice(&inner.events[*cursor..]);
        *cursor = inner.events.len();
        let known = tags.len() as u32;
        tags.extend((known..inner.tags.len() as u32).map(|id| inner.tag(id).into()));
    }

    /// The flight-ring view: the last [`DEFAULT_FLIGHT_CAPACITY`]
    /// flight-class events, oldest first.
    pub fn flight(&self) -> FlightRecorder {
        let inner = self.0.inner.lock();
        let flights = || {
            inner.events.iter().filter_map(|e| match e.kind {
                EventKind::Flight(kind) => Some((e, kind)),
                _ => None,
            })
        };
        let total = flights().count();
        let events = flights()
            .skip(total.saturating_sub(DEFAULT_FLIGHT_CAPACITY))
            .map(|(e, kind)| FlightEvent {
                t_secs: e.t_secs,
                tag: inner.tag(e.tag).to_string(),
                kind,
            })
            .collect();
        FlightRecorder {
            world_rank: self.0.world_rank,
            total: total as u64,
            events,
        }
    }

    /// The profile view: one segment per completed collective plus a
    /// trailing compute-only one up to `end` (seconds since the log's
    /// epoch, when the rank returned). Spans are folded only with `spans`
    /// (tracing on): live telemetry logs span guards too.
    pub(crate) fn profile(&self, end: f64, spans: bool) -> RankProfile {
        let inner = self.0.inner.lock();
        let mut profile = RankProfile {
            world_rank: self.0.world_rank,
            segments: Vec::new(),
            spans: Vec::new(),
        };
        let (mut work, mut mark, mut posted) = ((0, 0), 0.0, 0.0);
        let (mut edges, mut meta, mut open) = (Vec::new(), CollMeta::default(), Vec::new());
        for e in &inner.events {
            let tag = || inner.tag(e.tag).to_string();
            match e.kind {
                EventKind::Work { flops, ws_bytes } => {
                    work = (work.0 + flops, work.1.max(ws_bytes));
                }
                EventKind::Flight(FlightEventKind::CollPosted { .. }) => posted = e.t_secs,
                EventKind::Edge { dst, bytes, .. } => edges.push((dst as usize, bytes)),
                EventKind::Coll(m) => meta = m,
                EventKind::Flight(FlightEventKind::CollDone { kind, recv, .. }) => {
                    let (flops, ws_bytes) = std::mem::take(&mut work);
                    profile.segments.push(Segment {
                        flops,
                        ws_bytes,
                        compute_secs: posted - mark,
                        coll: Some(CollectiveRecord {
                            kind,
                            tag: tag(),
                            group: Arc::clone(&inner.groups[meta.group as usize]),
                            bytes_to: std::mem::take(&mut edges),
                            bytes_received: recv,
                            recv_msgs: meta.recv_msgs,
                            uniform_bytes: meta.uniform_bytes,
                            wait_secs: e.t_secs - posted,
                            injected_delay_secs: meta.delay_secs,
                            entered_secs: posted,
                        }),
                    });
                    mark = e.t_secs;
                }
                EventKind::SpanOpen if spans => open.push((e.tag, e.t_secs)),
                EventKind::SpanClose if spans => {
                    if let Some(i) = open.iter().rposition(|&(id, _)| id == e.tag) {
                        profile.spans.push(PhaseSpan {
                            tag: tag(),
                            start_secs: open.remove(i).1,
                            end_secs: e.t_secs,
                        });
                    }
                }
                _ => {}
            }
        }
        let ((flops, ws_bytes), compute_secs) = (work, end - mark);
        if flops > 0 || compute_secs > 0.0 {
            profile.segments.push(Segment {
                flops,
                ws_bytes,
                compute_secs,
                coll: None,
            });
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn tags_are_interned_once_and_kept_whole() {
        let log = EventLog::new(0);
        let long = "x".repeat(40);
        let a = log.append(long.as_str(), [(0.0, EventKind::SpanOpen)]);
        let b = log.append("short", [(0.0, EventKind::SpanOpen)]);
        assert_eq!(log.append(long.as_str(), []), a);
        assert_ne!(a, b);
        let (mut cursor, mut tags, mut events) = (0, Vec::new(), Vec::new());
        log.read(&mut cursor, &mut tags, &mut events);
        assert_eq!((cursor, events.len()), (2, 2));
        assert_eq!(&*tags[a as usize], long);
        // A second read sees only what was appended since.
        log.record("short", FlightEventKind::Retry { attempt: 1 });
        log.read(&mut cursor, &mut tags, &mut events);
        assert_eq!((cursor, events.len(), tags.len()), (3, 3, 2));
    }

    #[test]
    fn flight_view_keeps_the_last_flight_events_only() {
        let log = EventLog::new(1);
        for i in 0..DEFAULT_FLIGHT_CAPACITY as u64 + 10 {
            log.record(
                "t",
                FlightEventKind::CollPosted {
                    seq: i,
                    kind: CollKind::Barrier,
                },
            );
            log.append("t", [(0.0, EventKind::SpanOpen)]);
        }
        let fl = log.flight();
        assert_eq!(fl.total_recorded(), DEFAULT_FLIGHT_CAPACITY as u64 + 10);
        assert_eq!(fl.in_order().count(), DEFAULT_FLIGHT_CAPACITY);
        let first = fl.in_order().next().unwrap();
        assert_eq!(
            first.kind,
            FlightEventKind::CollPosted {
                seq: 10,
                kind: CollKind::Barrier
            }
        );
    }

    #[test]
    fn profile_folds_work_and_spans_into_segments() {
        let out = World::run(1, |comm| {
            comm.add_flops(100);
            comm.note_working_set(64);
            comm.barrier("s1");
            comm.add_flops(50);
        });
        let p = &out.profiles[0];
        assert_eq!(p.total_flops(), 150);
        assert_eq!((p.segments[0].flops, p.segments[0].ws_bytes), (100, 64));
        assert_eq!(p.segments[1].ws_bytes, 0);
        assert!(p.segments[1].coll.is_none());
        let rec = p.segments[0].coll.as_ref().unwrap();
        assert_eq!(rec.tag, "s1");
        assert!(rec.entered_secs >= p.segments[0].compute_secs);
    }
}
