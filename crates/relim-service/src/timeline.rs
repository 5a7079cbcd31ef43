//! The scheduler event log behind `{"op": "timeline"}`.
//!
//! Every job passing through the daemon leaves a short trail of events —
//! **enqueue** (accepted into the [`crate::queue::JobQueue`]),
//! **promote** (a bulk job aged past the interactive backlog), **start**
//! (an executor picked it up) and **finish** (served, `finish-error` on
//! failure) — each stamped with a monotone sequence number, a
//! nanosecond offset from server start, the job's content digest, its
//! operation name and its scheduling class. The log is a **bounded
//! window** (the oldest events are dropped, and counted, once
//! [`EventLog::capacity`] is exceeded) — the same window the span log
//! of [`crate::trace`] keeps, as a separate instance so always-on job
//! events never evict trace spans.
//!
//! A [`TimelineSnapshot`] renders two ways: deterministic JSON
//! ([`TimelineSnapshot::to_json`], schema [`TIMELINE_SCHEMA`]) for
//! machines, and a text gantt ([`TimelineSnapshot::render_gantt`]) for
//! eyeballs — one row per job, one column per event in the window, `.`
//! while queued and `-` while executing, so promotion ordering and
//! executor overlap are visible at a glance.

use crate::queue::Class;
use crate::window::Window;
use relim_json::Json;

/// The schema tag of the timeline JSON rendering.
pub const TIMELINE_SCHEMA: &str = "relim-timeline/1";

/// The event window the server keeps by default.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// What happened to a job at one point of its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Accepted into the job queue.
    Enqueue,
    /// Aged past the interactive backlog (always followed by `Start`).
    Promote,
    /// Picked up by an executor.
    Start,
    /// Served; `ok: false` means the reply was an error.
    Finish {
        /// Whether the job produced a result (vs an error or a panic).
        ok: bool,
    },
}

impl EventKind {
    /// The wire spelling used in the JSON rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Enqueue => "enqueue",
            EventKind::Promote => "promote",
            EventKind::Start => "start",
            EventKind::Finish { ok: true } => "finish",
            EventKind::Finish { ok: false } => "finish-error",
        }
    }

    /// The single-character marker used in the gantt rendering.
    fn marker(self) -> char {
        match self {
            EventKind::Enqueue => 'E',
            EventKind::Promote => 'P',
            EventKind::Start => 'S',
            EventKind::Finish { ok: true } => 'F',
            EventKind::Finish { ok: false } => 'X',
        }
    }
}

/// One recorded scheduler event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotone position in the full event stream (survives window
    /// drops: the first retained event of a busy daemon has `seq > 0`).
    pub seq: u64,
    /// Nanoseconds since the log (i.e. the server) was created.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// The job's content address.
    pub digest: String,
    /// The operation name (`autolb`, `sweep`, …).
    pub op: &'static str,
    /// The job's scheduling class.
    pub class: Class,
}

/// A bounded, thread-safe scheduler event log (see the module docs).
#[derive(Debug)]
pub struct EventLog {
    window: Window<Event>,
}

impl EventLog {
    /// An empty log retaining up to `capacity` events (at least 1).
    pub fn new(capacity: usize) -> EventLog {
        EventLog { window: Window::new(capacity) }
    }

    /// The window size.
    pub fn capacity(&self) -> usize {
        self.window.capacity()
    }

    /// `(recorded, dropped)` totals without copying the window — cheap
    /// enough for a ping response (see [`crate::protocol::PingInfo`]).
    pub fn stats(&self) -> (u64, u64) {
        self.window.stats()
    }

    /// Appends one event, dropping (and counting) the oldest beyond the
    /// window.
    pub fn record(&self, kind: EventKind, digest: &str, op: &'static str, class: Class) {
        let at_ns = self.window.now_ns();
        let digest = digest.to_owned();
        self.window.push(|seq| Event { seq, at_ns, kind, digest, op, class });
    }

    /// A consistent copy of the current window and its drop accounting.
    pub fn snapshot(&self) -> TimelineSnapshot {
        let (recorded, dropped, events) = self.window.snapshot(|_| true);
        TimelineSnapshot { window: self.capacity(), recorded, dropped, events }
    }
}

/// A point-in-time copy of the event window.
#[derive(Debug, Clone)]
pub struct TimelineSnapshot {
    /// The window size the log was configured with.
    pub window: usize,
    /// Events ever recorded (including dropped ones).
    pub recorded: u64,
    /// Events dropped out of the window.
    pub dropped: u64,
    /// The retained events, oldest first.
    pub events: Vec<Event>,
}

impl TimelineSnapshot {
    /// The JSON rendering (schema [`TIMELINE_SCHEMA`]).
    pub fn to_json(&self) -> Json {
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("seq".into(), Json::Int(e.seq as i64)),
                    ("at_ns".into(), Json::Int(e.at_ns as i64)),
                    ("event".into(), Json::str(e.kind.as_str())),
                    ("digest".into(), Json::str(&e.digest)),
                    ("op".into(), Json::str(e.op)),
                    ("class".into(), Json::str(e.class.as_str())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str(TIMELINE_SCHEMA)),
            ("window".into(), Json::Int(self.window as i64)),
            ("recorded".into(), Json::Int(self.recorded as i64)),
            ("dropped".into(), Json::Int(self.dropped as i64)),
            ("events".into(), Json::Arr(events)),
        ])
    }

    /// A text gantt: one row per job (in order of first appearance), one
    /// column per retained event. The job's own events show as markers
    /// (`E`nqueue, `P`romote, `S`tart, `F`inish, `X` = finished with an
    /// error); between its events the row shows `.` while queued and `-`
    /// while executing, so waiting time and executor overlap line up
    /// visually across rows.
    pub fn render_gantt(&self) -> String {
        let mut out = format!(
            "timeline: {} events recorded, {} in window ({} dropped)\n",
            self.recorded,
            self.events.len(),
            self.dropped
        );
        if self.events.is_empty() {
            return out;
        }
        // Rows keyed by digest, in order of first appearance.
        let mut order: Vec<&str> = Vec::new();
        for e in &self.events {
            if !order.contains(&e.digest.as_str()) {
                order.push(&e.digest);
            }
        }
        let label_of = |digest: &str| -> String {
            let e = self.events.iter().find(|e| e.digest == digest).expect("digest from events");
            let short: String = digest.chars().take(12).collect();
            format!("{short:<12} {:<10} {:<11}", e.op, e.class.as_str())
        };
        for digest in order {
            let mut lane = String::with_capacity(self.events.len());
            // Phase of *this* job as the global event stream advances.
            let mut queued = false;
            let mut running = false;
            for e in &self.events {
                if e.digest == digest {
                    lane.push(e.kind.marker());
                    match e.kind {
                        EventKind::Enqueue => queued = true,
                        EventKind::Promote => {}
                        EventKind::Start => (queued, running) = (false, true),
                        EventKind::Finish { .. } => (queued, running) = (false, false),
                    }
                } else if running {
                    lane.push('-');
                } else if queued {
                    lane.push('.');
                } else {
                    lane.push(' ');
                }
            }
            out.push_str(&label_of(digest));
            out.push('|');
            out.push_str(lane.trim_end());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_drops_oldest_and_counts() {
        let log = EventLog::new(3);
        for i in 0..5 {
            let digest = format!("d{i}");
            log.record(EventKind::Enqueue, &digest, "iterate", Class::Interactive);
        }
        let snap = log.snapshot();
        assert_eq!((snap.recorded, snap.dropped, snap.events.len()), (5, 2, 3));
        assert_eq!(log.stats(), (5, 2), "stats() agrees with the snapshot");
        assert_eq!(snap.events[0].seq, 2, "oldest retained event keeps its stream position");
        assert_eq!(snap.window, 3);
    }

    #[test]
    fn json_rendering_is_parseable_and_complete() {
        let log = EventLog::new(8);
        log.record(EventKind::Enqueue, "abc", "autolb", Class::Interactive);
        log.record(EventKind::Start, "abc", "autolb", Class::Interactive);
        log.record(EventKind::Finish { ok: false }, "abc", "autolb", Class::Interactive);
        let rendered = log.snapshot().to_json().render();
        let doc = Json::parse(&rendered).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(TIMELINE_SCHEMA));
        let Some(Json::Arr(events)) = doc.get("events") else { panic!("events array") };
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("event").and_then(Json::as_str), Some("finish-error"));
        assert_eq!(events[1].get("seq").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn gantt_shows_lifecycle_phases_per_job() {
        let log = EventLog::new(16);
        log.record(EventKind::Enqueue, "aaaaaaaaaaaaaaaa", "sweep", Class::Bulk);
        log.record(EventKind::Enqueue, "bbbbbbbbbbbbbbbb", "autolb", Class::Interactive);
        log.record(EventKind::Start, "bbbbbbbbbbbbbbbb", "autolb", Class::Interactive);
        log.record(
            EventKind::Finish { ok: true },
            "bbbbbbbbbbbbbbbb",
            "autolb",
            Class::Interactive,
        );
        log.record(EventKind::Promote, "aaaaaaaaaaaaaaaa", "sweep", Class::Bulk);
        log.record(EventKind::Start, "aaaaaaaaaaaaaaaa", "sweep", Class::Bulk);
        log.record(EventKind::Finish { ok: true }, "aaaaaaaaaaaaaaaa", "sweep", Class::Bulk);
        let gantt = log.snapshot().render_gantt();
        let lines: Vec<&str> = gantt.lines().collect();
        assert_eq!(lines.len(), 3, "{gantt}");
        assert!(lines[0].starts_with("timeline: 7 events recorded, 7 in window (0 dropped)"));
        // The bulk job queues (dots) through the interactive job's run,
        // then promotes, starts and finishes; digests are truncated.
        assert_eq!(
            lines[1],
            format!("{:<12} {:<10} {:<11}|E...PSF", "aaaaaaaaaaaa", "sweep", "bulk")
        );
        assert_eq!(
            lines[2],
            format!("{:<12} {:<10} {:<11}| ESF", "bbbbbbbbbbbb", "autolb", "interactive")
        );
    }

    #[test]
    fn empty_log_renders_header_only() {
        let log = EventLog::new(4);
        let snap = log.snapshot();
        assert_eq!(snap.render_gantt(), "timeline: 0 events recorded, 0 in window (0 dropped)\n");
        let doc = Json::parse(&snap.to_json().render()).unwrap();
        let Some(Json::Arr(events)) = doc.get("events") else { panic!("events array") };
        assert!(events.is_empty());
    }
}
