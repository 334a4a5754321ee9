//! Thread-safe event tracer.
//!
//! The paper's Figures 1 and 2 are *orderings*: which coordinator talks to
//! which, and in what sequence the INC stack fires. Tests reproduce those
//! figures by recording named events through a [`Tracer`] and asserting on
//! the sequence; benchmarks use the same records to attribute time to
//! checkpoint phases.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (global across threads for one tracer).
    pub seq: u64,
    /// Who recorded the event — a rank (`rank3`) or node (`node01`) label
    /// set via [`Tracer::with_actor`], or empty for runtime-level events.
    pub actor: String,
    /// Dot-separated phase name, e.g. `snapc.global.request`.
    pub phase: String,
    /// Free-form detail.
    pub detail: String,
    /// Nanoseconds since the tracer was created.
    pub elapsed_ns: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.actor.is_empty() {
            write!(f, "#{:<4} {:<40} {}", self.seq, self.phase, self.detail)
        } else {
            write!(
                f,
                "#{:<4} {:<8} {:<40} {}",
                self.seq, self.actor, self.phase, self.detail
            )
        }
    }
}

/// Destination every recorded event is forwarded to, in record order.
///
/// The durable FT event journal (`crates/journal`) implements this to
/// capture every existing `Tracer::record` call-site without rewriting
/// them.  `append` is invoked while the tracer's event lock is held, so
/// sink appends observe exactly the tracer's sequence order; a sink must
/// therefore never call back into the tracer.
pub trait TraceSink: Send + Sync {
    /// Persist one event.  Must not panic and must not record through the
    /// tracer that delivered the event.
    fn append(&self, event: &TraceEvent);
}

struct Inner {
    start: Instant,
    events: Mutex<Vec<TraceEvent>>,
    sink: Mutex<Option<Arc<dyn TraceSink>>>,
}

impl fmt::Debug for Inner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inner")
            .field("events", &self.events.lock().len())
            .field("sink", &self.sink.lock().is_some())
            .finish()
    }
}

/// Cheap-to-clone shared event recorder.
///
/// # Examples
///
/// ```
/// use cr_core::Tracer;
///
/// let tracer = Tracer::new();
/// tracer.record("snapc.global.request", "interval 0");
/// tracer.record("snapc.local.initiate", "node00");
/// tracer.assert_order("snapc.global.request", "snapc.local.initiate");
/// assert_eq!(tracer.count_prefix("snapc."), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
    /// Attribution label stamped on events recorded through this handle.
    actor: Option<Arc<str>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Fresh tracer with an empty event list.
    pub fn new() -> Self {
        Tracer {
            inner: Arc::new(Inner {
                start: Instant::now(),
                events: Mutex::new(Vec::new()),
                sink: Mutex::new(None),
            }),
            actor: None,
        }
    }

    /// A handle sharing this tracer's event list and sink, whose records
    /// carry `actor` as their attribution label (e.g. `rank3`, `node01`).
    pub fn with_actor(&self, actor: &str) -> Tracer {
        Tracer {
            inner: Arc::clone(&self.inner),
            actor: Some(Arc::from(actor)),
        }
    }

    /// The attribution label of this handle, if any.
    pub fn actor(&self) -> Option<&str> {
        self.actor.as_deref()
    }

    /// Route every subsequent record through `sink` (in addition to the
    /// in-memory event list).  Replaces any previous sink.
    pub fn set_sink(&self, sink: Arc<dyn TraceSink>) {
        *self.inner.sink.lock() = Some(sink);
    }

    /// Record an event.
    pub fn record(&self, phase: &str, detail: &str) {
        let mut events = self.inner.events.lock();
        let seq = events.len() as u64;
        let event = TraceEvent {
            seq,
            actor: self.actor.as_deref().unwrap_or("").to_string(),
            phase: phase.to_string(),
            detail: detail.to_string(),
            elapsed_ns: self.inner.start.elapsed().as_nanos() as u64,
        };
        // Forwarded under the event lock so the sink observes the exact
        // global record order (the journal's hash chain depends on it).
        if let Some(sink) = self.inner.sink.lock().as_ref() {
            sink.append(&event);
        }
        events.push(event);
    }

    /// Snapshot of all events so far, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.events.lock().clone()
    }

    /// Phases only, in order (the common shape for ordering assertions).
    pub fn phases(&self) -> Vec<String> {
        self.inner
            .events
            .lock()
            .iter()
            .map(|e| e.phase.clone())
            .collect()
    }

    /// Sequence number of the first event whose phase equals `phase`.
    pub fn first_index_of(&self, phase: &str) -> Option<u64> {
        self.inner
            .events
            .lock()
            .iter()
            .find(|e| e.phase == phase)
            .map(|e| e.seq)
    }

    /// Assert that `earlier` occurs (first) before `later` (first).
    ///
    /// # Panics
    /// Panics with a readable message when the ordering does not hold —
    /// this is a test helper.
    pub fn assert_order(&self, earlier: &str, later: &str) {
        let a = self
            .first_index_of(earlier)
            .unwrap_or_else(|| panic!("phase {earlier:?} never recorded"));
        let b = self
            .first_index_of(later)
            .unwrap_or_else(|| panic!("phase {later:?} never recorded"));
        assert!(
            a < b,
            "expected {earlier:?} (#{a}) before {later:?} (#{b});\nfull trace:\n{}",
            self.render()
        );
    }

    /// Number of events whose phase starts with `prefix`.
    pub fn count_prefix(&self, prefix: &str) -> usize {
        self.inner
            .events
            .lock()
            .iter()
            .filter(|e| e.phase.starts_with(prefix))
            .count()
    }

    /// Discard all recorded events.
    pub fn clear(&self) {
        self.inner.events.lock().clear();
    }

    /// Render the whole trace, one event per line.
    pub fn render(&self) -> String {
        let events = self.inner.events.lock();
        let mut out = String::new();
        for e in events.iter() {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_inspect() {
        let t = Tracer::new();
        t.record("a", "1");
        t.record("b", "2");
        t.record("a", "3");
        assert_eq!(t.phases(), vec!["a", "b", "a"]);
        assert_eq!(t.first_index_of("b"), Some(1));
        assert_eq!(t.first_index_of("zzz"), None);
        assert_eq!(t.count_prefix("a"), 2);
        let events = t.events();
        assert_eq!(events[2].detail, "3");
        assert_eq!(events[2].seq, 2);
    }

    #[test]
    fn order_assertion_passes_and_fails() {
        let t = Tracer::new();
        t.record("first", "");
        t.record("second", "");
        t.assert_order("first", "second");
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.assert_order("second", "first")
            }));
        assert!(result.is_err());
    }

    #[test]
    fn clones_share_state() {
        let t = Tracer::new();
        let t2 = t.clone();
        t2.record("x", "");
        assert_eq!(t.phases(), vec!["x"]);
        t.clear();
        assert!(t2.events().is_empty());
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let t = Tracer::new();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for j in 0..100 {
                        t.record(&format!("thread{i}"), &j.to_string());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.events().len(), 800);
        // Sequence numbers are unique and dense.
        let mut seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..800).collect::<Vec<u64>>());
    }

    #[test]
    fn render_contains_phases() {
        let t = Tracer::new();
        t.record("snapc.global.request", "ckpt");
        assert!(t.render().contains("snapc.global.request"));
    }

    #[test]
    fn actor_handles_share_the_event_list() {
        let t = Tracer::new();
        let r0 = t.with_actor("rank0");
        r0.record("a", "");
        t.record("b", "");
        let events = t.events();
        assert_eq!(events[0].actor, "rank0");
        assert_eq!(events[1].actor, "");
        assert_eq!(events[1].seq, 1);
        assert_eq!(r0.actor(), Some("rank0"));
        assert_eq!(t.actor(), None);
        assert!(r0.render().contains("rank0"));
    }

    struct VecSink(Mutex<Vec<TraceEvent>>);
    impl TraceSink for VecSink {
        fn append(&self, event: &TraceEvent) {
            self.0.lock().push(event.clone());
        }
    }

    #[test]
    fn sink_sees_every_record_in_order() {
        let t = Tracer::new();
        t.record("before", "not forwarded");
        let sink = Arc::new(VecSink(Mutex::new(Vec::new())));
        t.set_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let r1 = t.with_actor("rank1");
        r1.record("x", "1");
        t.record("y", "2");
        let captured = sink.0.lock().clone();
        assert_eq!(captured.len(), 2);
        assert_eq!(captured[0].phase, "x");
        assert_eq!(captured[0].actor, "rank1");
        assert_eq!(captured[0].seq, 1);
        assert_eq!(captured[1].seq, 2);
    }

    #[test]
    fn concurrent_sink_appends_match_tracer_order() {
        let t = Tracer::new();
        let sink = Arc::new(VecSink(Mutex::new(Vec::new())));
        t.set_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let t = t.with_actor(&format!("rank{i}"));
                std::thread::spawn(move || {
                    for j in 0..50 {
                        t.record(&format!("thread{i}"), &j.to_string());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let recorded = t.events();
        let captured = sink.0.lock().clone();
        assert_eq!(recorded, captured);
    }
}
