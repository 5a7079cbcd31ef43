//! Spans recorded by the benchmark's own code around its calls into each
//! layer, kept in memory and written out once at the end as Chrome
//! trace-event JSON (the format `relim trace --format chrome` writes, so
//! a run opens in Perfetto the same way).

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: `name` on behalf of request `request`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function, e.g. `store.get`.
    pub name: &'static str,
    /// Unique across every recorder of a run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request the span belongs to.
    pub request: u64,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Recorder (thread) that made it.
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder with a bounded buffer: past `capacity`
/// spans it counts drops instead of growing.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    tid: u32,
    next_id: u64,
    capacity: usize,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    /// Spans not kept because the buffer was full.
    pub dropped: u64,
}

/// An open span: hand it back to [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    slot: Option<usize>,
}

impl Open {
    /// The span id, for use as a parent.
    pub fn id(self) -> u64 {
        self.id
    }
}

impl Recorder {
    /// A recorder for thread `tid` measuring from `origin`.
    pub fn new(origin: Instant, tid: u32, capacity: usize) -> Recorder {
        Recorder {
            origin,
            tid,
            next_id: (u64::from(tid) << 40) + 1,
            capacity,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: Option<Open>, request: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        let slot = if self.spans.len() < self.capacity {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                id,
                parent: parent.map(Open::id),
                request,
                start_ns,
                end_ns: start_ns,
                tid: self.tid,
            });
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        Open { id, slot }
    }

    /// Closes a span; returns its duration in nanoseconds (0 if dropped).
    pub fn end(&mut self, open: Open) -> u64 {
        let now = self.now_ns();
        match open.slot {
            Some(i) => {
                self.spans[i].end_ns = now;
                self.spans[i].dur_ns()
            }
            None => 0,
        }
    }

    /// Runs `f` inside a span named `name`; returns its value and the
    /// span's duration in nanoseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<Open>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let open = self.begin(name, parent, request);
        let out = f();
        let ns = self.end(open);
        (out, ns)
    }
}

/// Self time per span name: each span's duration minus the part its
/// children cover, summed, with the number of spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let entry = out.entry(s.name).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    out
}

/// Chrome trace-event JSON: one `"ph":"X"` complete event per span with
/// microsecond `ts`/`dur`, one thread per recorder.
pub fn render_chrome(spans: &[Span], process: &str) -> String {
    let mut events = vec![format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
        json_string(process)
    )];
    for s in spans {
        let parent = s.parent.map_or_else(String::new, |p| format!(",\"parent\":{p}"));
        events.push(format!(
            "{{\"name\":{},\"cat\":\"e2ebench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"span_id\":{}{parent}}}}}",
            json_string(s.name),
            s.tid,
            s.start_ns as f64 / 1_000.0,
            s.dur_ns() as f64 / 1_000.0,
            s.request,
            s.id,
        ));
    }
    format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
}

/// A JSON string literal, quotes included.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relim_json::Json;

    #[test]
    fn self_time_subtracts_children_and_chrome_output_parses() {
        let mut rec = Recorder::new(Instant::now(), 1, 16);
        let root = rec.begin("request", None, 7);
        let (_, child_ns) = rec.time("store.get", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let root_ns = rec.end(root);
        let times = self_times(&rec.spans);
        assert_eq!(times["store.get"], (child_ns, 1));
        assert_eq!(times["request"], (root_ns - child_ns, 1));
        let doc = Json::parse(render_chrome(&rec.spans, "e2ebench \"x\"").trim_end()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3, "metadata + two spans");
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("X"));
    }

    #[test]
    fn a_full_recorder_counts_drops() {
        let mut rec = Recorder::new(Instant::now(), 2, 1);
        let a = rec.begin("a", None, 0);
        let b = rec.begin("b", Some(a), 0);
        assert_eq!(rec.end(b), 0);
        rec.end(a);
        assert_eq!((rec.spans.len(), rec.dropped), (1, 1));
    }
}
