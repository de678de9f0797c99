//! Always-on flight recorder: the last few typed runtime events of a rank.
//!
//! The metrics registry and the Chrome trace answer "what did the run do,
//! in aggregate" — but only when tracing was switched on *before* the run.
//! The flight recorder answers the postmortem question "what were the last
//! things this rank did before it died", for runs nobody expected to fail:
//!
//! * **a view of the event log** — [`FlightRecorder`] is the last
//!   [`DEFAULT_FLIGHT_CAPACITY`] flight-class events of the rank's
//!   [`crate::EventLog`], with their tags whole.
//! * **typed events** — collective posted/completed (with seq, kind and
//!   byte counts), retries, per-sub-tile mode decisions, and tile-step
//!   start/end markers; enough to reconstruct the last few bulk-synchronous
//!   steps of a rank without any other instrumentation.
//! * **wired into failure paths** — [`crate::World::try_run`] copies each
//!   rank's recent events into the [`crate::HangReport`], and trace dumps
//!   write the rings as `flight.jsonl` next to `trace.json` via
//!   [`write_flight_jsonl`].

use crate::stats::CollKind;
use std::path::{Path, PathBuf};

/// Flight-class events the flight view keeps per rank. 256 events cover
/// several full tile steps (a step is ~2 collectives + 2 markers + a
/// handful of mode decisions).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What happened. All payloads are plain scalars so the event is `Copy`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlightEventKind {
    /// A collective was entered (recorded *before* any fault can fire, so a
    /// crashed rank's ring always ends with the collective that killed it).
    CollPosted { seq: u64, kind: CollKind },
    /// A collective completed, with the bytes it moved.
    CollDone {
        seq: u64,
        kind: CollKind,
        sent: u64,
        recv: u64,
    },
    /// A transiently-failed collective is being retried.
    Retry { attempt: u32 },
    /// The symbolic phase chose a fetch mode for sub-tile `(rb, cb)` owned
    /// by group rank `peer`.
    TileMode {
        rb: u32,
        cb: u32,
        peer: u32,
        remote: bool,
    },
    /// A tile step `(rb, cb)` began on this rank.
    StepStart { rb: u32, cb: u32 },
    /// A tile step `(rb, cb)` finished on this rank.
    StepEnd { rb: u32, cb: u32 },
}

/// One ring entry: when, in which phase, what.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEvent {
    /// Seconds since the rank's log epoch (rank start).
    pub t_secs: f64,
    pub tag: String,
    pub kind: FlightEventKind,
}

/// One rank's flight ring: the most recent flight-class events of its
/// [`crate::EventLog`], built by [`crate::EventLog::flight`].
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    pub(crate) world_rank: usize,
    /// Flight-class events the rank ever recorded.
    pub(crate) total: u64,
    /// The last [`DEFAULT_FLIGHT_CAPACITY`] of them, oldest first.
    pub(crate) events: Vec<FlightEvent>,
}

impl FlightRecorder {
    /// Total events ever recorded (may exceed [`DEFAULT_FLIGHT_CAPACITY`];
    /// the ring keeps the most recent of them).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Retained events, oldest first.
    pub fn in_order(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// The most recent `n` events, oldest first, rendered for humans
    /// (hang reports embed these).
    pub fn tail_strings(&self, n: usize) -> Vec<String> {
        let kept = self.events.len();
        self.events[kept.saturating_sub(n)..]
            .iter()
            .map(render_event)
            .collect()
    }

    /// One `flight.jsonl` line per retained event. `i` is the event's index
    /// in the rank's full stream (so readers can see how much the ring
    /// dropped).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let first = self.total - self.events.len() as u64;
        for (off, ev) in self.in_order().enumerate() {
            out.push_str(&event_json(self.world_rank, first + off as u64, ev));
            out.push('\n');
        }
        out
    }
}

fn render_event(ev: &FlightEvent) -> String {
    let what = match ev.kind {
        FlightEventKind::CollPosted { seq, kind } => format!("posted {kind:?} #{seq}"),
        FlightEventKind::CollDone {
            seq,
            kind,
            sent,
            recv,
        } => format!("done {kind:?} #{seq} sent={sent}B recv={recv}B"),
        FlightEventKind::Retry { attempt } => format!("retry attempt {attempt}"),
        FlightEventKind::TileMode {
            rb,
            cb,
            peer,
            remote,
        } => format!("tile ({rb},{cb}) peer {peer} mode {}", mode_name(remote)),
        FlightEventKind::StepStart { rb, cb } => format!("step ({rb},{cb}) start"),
        FlightEventKind::StepEnd { rb, cb } => format!("step ({rb},{cb}) end"),
    };
    format!("[{:>9.6}s] {}: {what}", ev.t_secs, ev.tag)
}

fn mode_name(remote: bool) -> &'static str {
    if remote {
        "remote"
    } else {
        "local"
    }
}

fn event_json(rank: usize, i: u64, ev: &FlightEvent) -> String {
    use crate::metrics::json_string;
    let head = format!(
        "{{\"rank\":{rank},\"i\":{i},\"t\":{:.9},\"tag\":{}",
        ev.t_secs,
        json_string(&ev.tag),
    );
    let body = match ev.kind {
        FlightEventKind::CollPosted { seq, kind } => {
            format!("\"event\":\"coll_posted\",\"seq\":{seq},\"kind\":\"{kind:?}\"")
        }
        FlightEventKind::CollDone {
            seq,
            kind,
            sent,
            recv,
        } => format!(
            "\"event\":\"coll_done\",\"seq\":{seq},\"kind\":\"{kind:?}\",\
             \"bytes_sent\":{sent},\"bytes_recv\":{recv}"
        ),
        FlightEventKind::Retry { attempt } => {
            format!("\"event\":\"retry\",\"attempt\":{attempt}")
        }
        FlightEventKind::TileMode {
            rb,
            cb,
            peer,
            remote,
        } => format!(
            "\"event\":\"tile_mode\",\"rb\":{rb},\"cb\":{cb},\"peer\":{peer},\
             \"mode\":\"{}\"",
            mode_name(remote)
        ),
        FlightEventKind::StepStart { rb, cb } => {
            format!("\"event\":\"step_start\",\"rb\":{rb},\"cb\":{cb}")
        }
        FlightEventKind::StepEnd { rb, cb } => {
            format!("\"event\":\"step_end\",\"rb\":{rb},\"cb\":{cb}")
        }
    };
    format!("{head},{body}}}")
}

/// Writes every rank's ring into `dir/flight.jsonl` (one JSON object per
/// line, ranks concatenated in order). Returns the path.
pub fn write_flight_jsonl(dir: &Path, flights: &[FlightRecorder]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("flight.jsonl");
    let mut body = String::new();
    for f in flights {
        body.push_str(&f.to_jsonl());
    }
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventLog;

    #[test]
    fn partial_ring_iterates_from_start() {
        let log = EventLog::new(2);
        log.record("a", FlightEventKind::StepStart { rb: 0, cb: 1 });
        log.record("a", FlightEventKind::StepEnd { rb: 0, cb: 1 });
        let r = log.flight();
        assert_eq!(r.in_order().count(), 2);
        assert_eq!(r.tail_strings(1).len(), 1);
        assert!(r.tail_strings(1)[0].contains("end"));
    }

    #[test]
    fn jsonl_lines_carry_rank_index_and_fields() {
        let log = EventLog::new(3);
        let n = DEFAULT_FLIGHT_CAPACITY as u64 + 1;
        for i in 0..n {
            log.record(
                "ts:bfetch",
                FlightEventKind::CollDone {
                    seq: i,
                    kind: CollKind::AllToAllV,
                    sent: 10 * i,
                    recv: 20 * i,
                },
            );
        }
        let body = log.flight().to_jsonl();
        let lines: Vec<&str> = body.lines().collect();
        // One more than the capacity recorded: index 0 fell out.
        assert_eq!(lines.len(), DEFAULT_FLIGHT_CAPACITY);
        assert!(lines[0].contains("\"i\":1,"));
        assert!(lines[0].contains("\"rank\":3"));
        assert!(lines[0].contains("\"event\":\"coll_done\""));
        assert!(lines[0].contains("\"kind\":\"AllToAllV\""));
        assert!(lines[1].contains("\"bytes_sent\":20"));
    }

    #[test]
    fn long_tags_come_back_whole() {
        let log = EventLog::new(0);
        let tag = format!("{}:é", "a".repeat(40));
        log.record(&tag, FlightEventKind::Retry { attempt: 1 });
        let r = log.flight();
        assert_eq!(r.in_order().next().unwrap().tag, tag);
        assert!(r.to_jsonl().contains(&tag));
        assert!(r.tail_strings(1)[0].contains(&tag));
    }

    #[test]
    fn write_flight_jsonl_concatenates_ranks() {
        let (a, b) = (EventLog::new(0), EventLog::new(1));
        a.record("p", FlightEventKind::StepStart { rb: 0, cb: 0 });
        b.record("p", FlightEventKind::StepStart { rb: 0, cb: 0 });
        let dir = std::env::temp_dir().join(format!(
            "tsgemm-write_flight_jsonl_concatenates_ranks-{}",
            std::process::id()
        ));
        let path = write_flight_jsonl(&dir, &[a.flight(), b.flight()]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        assert!(body.contains("\"rank\":0"));
        assert!(body.contains("\"rank\":1"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
