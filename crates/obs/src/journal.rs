//! The span journal: bounded per-thread ring buffers of completed spans.
//!
//! Each thread journals into its own ring (capacity
//! [`JOURNAL_CAPACITY`], overwrite-oldest with a drop counter), so a
//! recording thread only ever touches its own uncontended mutex; the
//! global registry of rings is locked only at thread birth and at drain
//! time. Timestamps are measured from a process-global epoch pinned the
//! first time tracing turns on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::chrome::ChromeEvent;

/// Max completed spans a single thread's ring holds before the oldest
/// are overwritten (and counted as dropped).
pub const JOURNAL_CAPACITY: usize = 4096;

/// One completed span as stored in a ring.
#[derive(Debug, Clone, Copy)]
struct Event {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    arg: Option<(&'static str, u64)>,
}

struct Ring {
    tid: u64,
    events: VecDeque<Event>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, event: Event) {
        if self.events.len() == JOURNAL_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// Every live-or-dead thread ring, for draining.
static RINGS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());

/// Journal thread ids are small sequential integers (Chrome trace
/// viewers group rows by them), assigned at first journal use.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The instant all journal timestamps are measured from.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Pins the trace epoch (idempotent). Called when trace mode turns on so
/// stopwatches started just before still produce non-negative stamps.
pub(crate) fn touch_epoch() {
    let _ = EPOCH.get_or_init(Instant::now);
}

fn ts_ns(at: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    crate::duration_ns(at.saturating_duration_since(epoch))
}

thread_local! {
    static RING: Arc<Mutex<Ring>> = {
        let ring = Arc::new(Mutex::new(Ring {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: VecDeque::with_capacity(JOURNAL_CAPACITY.min(64)),
            dropped: 0,
        }));
        RINGS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&ring));
        ring
    };
}

fn push_event(event: Event) {
    RING.with(|ring| ring.lock().unwrap_or_else(|e| e.into_inner()).push(event));
}

/// The calling thread's journal id: the `tid` its spans carry in
/// [`ChromeEvent`]s and exported traces. Registers the thread's ring if
/// it has none yet.
#[must_use]
pub fn thread_tid() -> u64 {
    RING.with(|ring| ring.lock().unwrap_or_else(|e| e.into_inner()).tid)
}

/// An in-flight span: created by [`span`], journaled on drop. Inert
/// (no clock reads, nothing journaled) unless tracing was enabled at
/// creation time.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    arg: Option<(&'static str, u64)>,
}

/// Opens a span covering the enclosing scope (ends when dropped).
#[inline]
#[must_use]
pub fn span(name: &'static str) -> Span {
    let start = if crate::tracing() {
        touch_epoch();
        Some(Instant::now())
    } else {
        None
    };
    Span {
        name,
        start,
        arg: None,
    }
}

impl Span {
    /// Attaches one numeric argument shown in the trace viewer (e.g.
    /// `rows`). Later calls overwrite; no-op on an inert span.
    pub fn set_arg(&mut self, key: &'static str, value: u64) {
        if self.start.is_some() {
            self.arg = Some((key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur_ns = crate::duration_ns(start.elapsed());
            push_event(Event {
                name: self.name,
                start_ns: ts_ns(start),
                dur_ns,
                arg: self.arg,
            });
        }
    }
}

/// Journals a span retroactively from an already-measured interval
/// (no-op unless tracing). Used where the start instant had to be
/// captured before its fate was known, e.g. queue-wait measurement.
pub fn record_span(name: &'static str, start: Instant, duration: std::time::Duration) {
    if crate::tracing() {
        record_span_at(name, start, crate::duration_ns(duration), None);
    }
}

/// Internal retroactive journaling used by [`record_span`] and
/// [`crate::Stopwatch::observe_span`]; `dur_ns` is already computed.
pub(crate) fn record_span_at(
    name: &'static str,
    start: Instant,
    dur_ns: u64,
    arg: Option<(&'static str, u64)>,
) {
    if !crate::tracing() {
        return;
    }
    push_event(Event {
        name,
        start_ns: ts_ns(start),
        dur_ns,
        arg,
    });
}

/// Drains every ring: the completed spans (sorted by start time, then
/// journal tid) and the total number of spans dropped to ring overflow
/// since the last drain. Both are reset by the drain.
pub(crate) fn drain() -> (Vec<ChromeEvent>, u64) {
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in rings.iter() {
        let mut ring = ring.lock().unwrap_or_else(|e| e.into_inner());
        dropped += ring.dropped;
        ring.dropped = 0;
        let tid = ring.tid;
        events.extend(ring.events.drain(..).map(|e| ChromeEvent {
            name: e.name.to_string(),
            tid,
            start_ns: e.start_ns,
            dur_ns: e.dur_ns,
            arg: e.arg.map(|(k, v)| (k.to_string(), v)),
        }));
    }
    events.sort_by_key(|e| (e.start_ns, e.tid));
    (events, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::lock_mode;
    use crate::{set_mode, ObsMode};

    #[test]
    fn spans_journal_only_when_tracing() {
        let _guard = lock_mode();
        set_mode(ObsMode::Trace);
        drain(); // discard spans journaled by earlier tests
        set_mode(ObsMode::Counters);
        drop(span("quiet"));
        set_mode(ObsMode::Trace);
        {
            let mut s = span("loud");
            s.set_arg("rows", 42);
        }
        let (events, dropped) = drain();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "loud");
        assert_eq!(events[0].arg, Some(("rows".to_string(), 42)));
        assert_eq!(events[0].tid, thread_tid(), "spans carry their thread's id");
        let other = std::thread::spawn(thread_tid).join().unwrap();
        assert_ne!(other, thread_tid());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let _guard = lock_mode();
        set_mode(ObsMode::Trace);
        drain();
        const EXTRA: usize = 10;
        // All spans journal on this test's thread, into one ring.
        for i in 0..JOURNAL_CAPACITY + EXTRA {
            let mut s = span("wrap");
            s.set_arg("i", i as u64);
        }
        let (events, dropped) = drain();
        let ours: Vec<_> = events.iter().filter(|e| e.name == "wrap").collect();
        assert_eq!(ours.len(), JOURNAL_CAPACITY);
        assert_eq!(dropped, EXTRA as u64);
        // Oldest dropped: the survivors are the last JOURNAL_CAPACITY.
        assert_eq!(ours[0].arg, Some(("i".to_string(), EXTRA as u64)));
        let last = ours.last().unwrap();
        assert_eq!(
            last.arg,
            Some(("i".to_string(), (JOURNAL_CAPACITY + EXTRA - 1) as u64))
        );
        // Drain resets the drop counter.
        let (_, dropped_again) = drain();
        assert_eq!(dropped_again, 0);
    }

    #[test]
    fn retroactive_spans_cover_measured_interval() {
        let _guard = lock_mode();
        set_mode(ObsMode::Trace);
        drain();
        let start = Instant::now();
        let dur = std::time::Duration::from_micros(1500);
        record_span("retro", start, dur);
        let (events, _) = drain();
        let retro = events.iter().find(|e| e.name == "retro").unwrap();
        assert_eq!(retro.dur_ns, 1_500_000);
    }
}
