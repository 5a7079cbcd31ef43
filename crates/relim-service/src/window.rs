//! The bounded window behind both observability logs: the scheduler
//! event log ([`crate::timeline::EventLog`]) and the span log
//! ([`crate::trace::SpanLog`]). It keeps the newest `capacity` items,
//! drops the oldest beyond that **and counts them**, and stamps time on
//! one monotonic clock started with the window, so a long-lived daemon
//! pays a fixed memory cost however much traffic it serves.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

struct Inner<T> {
    items: VecDeque<T>,
    recorded: u64,
    dropped: u64,
}

/// A bounded, thread-safe window of recorded items.
pub(crate) struct Window<T> {
    epoch: Instant,
    capacity: usize,
    inner: Mutex<Inner<T>>,
}

impl<T: Clone> Window<T> {
    /// An empty window retaining up to `capacity` items (at least 1).
    pub(crate) fn new(capacity: usize) -> Window<T> {
        Window {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            inner: Mutex::new(Inner { items: VecDeque::new(), recorded: 0, dropped: 0 }),
        }
    }

    /// The window size.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds since the window was created.
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the window's creation to `at` (0 before it).
    pub(crate) fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Appends the item `make` builds from its position in the full
    /// stream (0 for the first item ever recorded), dropping and
    /// counting the oldest item beyond the window.
    pub(crate) fn push(&self, make: impl FnOnce(u64) -> T) {
        let mut inner = self.inner.lock().expect("window lock poisoned");
        let item = make(inner.recorded);
        inner.recorded += 1;
        if inner.items.len() >= self.capacity {
            inner.items.pop_front();
            inner.dropped += 1;
        }
        inner.items.push_back(item);
    }

    /// `(recorded, dropped)` totals without copying the window.
    pub(crate) fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("window lock poisoned");
        (inner.recorded, inner.dropped)
    }

    /// A consistent copy of the retained items `keep` accepts, oldest
    /// first, with the `(recorded, dropped)` totals of the same moment.
    pub(crate) fn snapshot(&self, keep: impl Fn(&T) -> bool) -> (u64, u64, Vec<T>) {
        let inner = self.inner.lock().expect("window lock poisoned");
        let items = inner.items.iter().filter(|item| keep(item)).cloned().collect();
        (inner.recorded, inner.dropped, items)
    }
}

impl<T> std::fmt::Debug for Window<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Window").field("capacity", &self.capacity).finish_non_exhaustive()
    }
}
