//! `sigobs` — the workspace's std-only observability substrate.
//!
//! Three layers, all dependency-free and cheap enough for hot paths:
//!
//! - **Counters and histograms** ([`Counter`], [`Hist`]): lock-free
//!   relaxed atomics with fixed log2 buckets and exact rank-based
//!   p50/p90/p99 extraction (see [`HistSnapshot::quantile`]).
//! - **Spans** ([`span`], [`Span`], [`record_span`]): begin/end wall-time
//!   intervals journaled into a bounded per-thread ring buffer
//!   (overwrite-oldest, drop-counted) — nothing ever blocks on a full
//!   journal.
//! - **Chrome trace export** ([`drain_chrome_trace`],
//!   [`write_chrome_trace`]): the journal serializes to the Chrome
//!   trace-event JSON format, loadable in Perfetto or `chrome://tracing`.
//!
//! # Modes and the overhead contract
//!
//! A process-global [`ObsMode`] gates everything, resolved once from the
//! `SIG_OBS` environment variable (`off` | `counters` | `trace`, default
//! `counters`) or set programmatically with [`set_mode`]:
//!
//! - `off`: every instrumentation probe is a single relaxed atomic load
//!   and a branch — no clock reads, no stores.
//! - `counters`: histograms and counters record; spans stay disabled.
//! - `trace`: counters **plus** the span journal.
//!
//! The `off` fast path is enforced by the `obs_overhead` bench and a
//! guard row in `service_throughput` (see `docs/observability.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod histogram;
mod journal;

pub use chrome::{chrome_trace_json, drain_chrome_trace, write_chrome_trace, ChromeEvent};
pub use histogram::{
    bucket_index, bucket_upper, snapshot_all, Counter, Hist, HistSnapshot, HIST_BUCKETS,
};
pub use journal::{record_span, span, thread_tid, Span, JOURNAL_CAPACITY};

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// How much the process records. Ordered: each level includes the ones
/// below it (`Trace` also counts, `Counters` also does nothing extra).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsMode {
    /// Probes reduce to one relaxed atomic load; nothing is recorded.
    Off,
    /// Counters and histograms record; the span journal stays off.
    Counters,
    /// Counters plus the per-thread span journal (trace export).
    Trace,
}

impl ObsMode {
    /// Parses a `SIG_OBS` value. Unknown names return `None`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "off" => Some(ObsMode::Off),
            "counters" => Some(ObsMode::Counters),
            "trace" => Some(ObsMode::Trace),
            _ => None,
        }
    }

    /// The canonical `SIG_OBS` spelling of this mode.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Counters => "counters",
            ObsMode::Trace => "trace",
        }
    }

    fn encode(self) -> u8 {
        match self {
            ObsMode::Off => 1,
            ObsMode::Counters => 2,
            ObsMode::Trace => 3,
        }
    }
}

/// The resolved process-global mode. `0` = not yet resolved; otherwise
/// [`ObsMode::encode`]. Relaxed everywhere: the mode is a hint, not a
/// synchronization point.
static MODE: AtomicU8 = AtomicU8::new(0);

/// The process-global observability mode (one relaxed atomic load once
/// resolved). The first call reads `SIG_OBS` (default `counters`).
#[inline]
#[must_use]
pub fn mode() -> ObsMode {
    match MODE.load(Ordering::Relaxed) {
        1 => ObsMode::Off,
        2 => ObsMode::Counters,
        3 => ObsMode::Trace,
        _ => resolve_mode(),
    }
}

#[cold]
fn resolve_mode() -> ObsMode {
    let mode = std::env::var("SIG_OBS")
        .ok()
        .and_then(|v| ObsMode::from_name(&v))
        .unwrap_or(ObsMode::Counters);
    set_mode(mode);
    mode
}

/// Overrides the process-global mode (wins over `SIG_OBS`). Used by
/// `sigserve --trace`, benches, and tests.
pub fn set_mode(mode: ObsMode) {
    if mode == ObsMode::Trace {
        // Pin the trace epoch before any span starts so timestamps
        // measured from pre-existing stopwatches stay non-negative.
        journal::touch_epoch();
    }
    MODE.store(mode.encode(), Ordering::Relaxed);
}

/// `true` when counters/histograms record ([`ObsMode::Counters`] or up).
#[inline]
#[must_use]
pub fn counting() -> bool {
    mode() >= ObsMode::Counters
}

/// `true` when the span journal records ([`ObsMode::Trace`]).
#[inline]
#[must_use]
pub fn tracing() -> bool {
    mode() == ObsMode::Trace
}

/// A clock read taken only when counting is enabled: the cheap way to
/// time a phase that may later feed a histogram and/or the journal.
///
/// Under `SIG_OBS=off` construction is the one-relaxed-load fast path
/// and every observe method is a no-op.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

/// Starts a [`Stopwatch`] (reads the clock only when [`counting`]).
#[inline]
#[must_use]
pub fn stopwatch() -> Stopwatch {
    Stopwatch(if counting() {
        Some(Instant::now())
    } else {
        None
    })
}

impl Stopwatch {
    /// Nanoseconds since the stopwatch started, `None` when observability
    /// was off at construction time.
    #[must_use]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0.map(|start| duration_ns(start.elapsed()))
    }

    /// Records the elapsed time into `hist` (no-op when off).
    pub fn observe(&self, hist: &Hist) {
        if let Some(ns) = self.elapsed_ns() {
            hist.record(ns);
        }
    }

    /// Records the elapsed time into `hist` **and**, when tracing, a
    /// retroactive journal span named `name` covering the same interval.
    pub fn observe_span(&self, hist: &Hist, name: &'static str) {
        if let Some(start) = self.0 {
            let dur = duration_ns(start.elapsed());
            hist.record(dur);
            journal::record_span_at(name, start, dur, None);
        }
    }
}

/// `Duration` → saturating nanoseconds (`u64` holds ~584 years).
#[inline]
pub(crate) fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// The mode is process-global and `cargo test` runs tests in
    /// parallel within one binary: every test that sets the mode (or
    /// asserts mode-dependent behavior) holds this lock.
    static MODE_LOCK: Mutex<()> = Mutex::new(());

    pub fn lock_mode() -> MutexGuard<'static, ()> {
        MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for mode in [ObsMode::Off, ObsMode::Counters, ObsMode::Trace] {
            assert_eq!(ObsMode::from_name(mode.as_str()), Some(mode));
        }
        assert_eq!(ObsMode::from_name("verbose"), None);
    }

    #[test]
    fn modes_are_ordered() {
        assert!(ObsMode::Off < ObsMode::Counters);
        assert!(ObsMode::Counters < ObsMode::Trace);
    }

    #[test]
    fn stopwatch_is_inert_when_off() {
        let _guard = test_support::lock_mode();
        set_mode(ObsMode::Off);
        let sw = stopwatch();
        assert_eq!(sw.elapsed_ns(), None);
        set_mode(ObsMode::Counters);
        let sw = stopwatch();
        assert!(sw.elapsed_ns().is_some());
    }
}
