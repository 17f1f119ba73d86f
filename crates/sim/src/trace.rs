//! Cycle-stamped structured event tracing.
//!
//! A [`Trace`] is a cloneable handle onto a shared, bounded ring buffer of
//! events. Components get a handle at attach time and emit:
//!
//! * *complete* events (`ph: "X"`) — a named span `[ts, ts+dur)`, used for
//!   NoC message flights and engine state-machine residencies;
//! * *instant* events (`ph: "i"`) — a point occurrence, used for coherence
//!   transitions (invalidations, downgrades).
//!
//! Timestamps are **cycles**, exported as microseconds in the Chrome
//! `trace_event` JSON format, so Perfetto / `chrome://tracing` renders one
//! cycle per microsecond. Each component is a "thread" (`tid` = component
//! id) named via metadata events; the whole SoC is `pid` 1.
//!
//! Tracing is disabled by default: the only cost on that path is one
//! `Cell` load behind [`Trace::is_enabled`], which every emit
//! helper checks before touching the ring. When the ring fills, the oldest
//! events are dropped — the tail of a run is usually the interesting part.

use crate::stats::json_string;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Default ring capacity (events) when tracing is enabled.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (Perfetto slice label).
    pub name: String,
    /// Category string (Perfetto filtering).
    pub cat: &'static str,
    /// Phase: `'X'` complete, `'i'` instant.
    pub ph: char,
    /// Start cycle.
    pub ts: u64,
    /// Duration in cycles (complete events only).
    pub dur: u64,
    /// Component id rendered as a Perfetto thread.
    pub tid: u64,
    /// Extra `args` key/value pairs.
    pub args: Vec<(&'static str, String)>,
}

struct TraceInner {
    enabled: Cell<bool>,
    capacity: usize,
    ring: RefCell<VecDeque<TraceEvent>>,
    /// `tid` → thread name, emitted as `thread_name` metadata.
    threads: RefCell<Vec<(u64, String)>>,
    dropped: Cell<u64>,
}

/// Cloneable tracing handle; see the module docs.
#[derive(Clone)]
pub struct Trace {
    inner: Rc<TraceInner>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.is_enabled())
            .field("events", &self.inner.ring.borrow().len())
            .finish()
    }
}

impl Trace {
    /// Creates a disabled trace with the given ring capacity.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Rc::new(TraceInner {
                enabled: Cell::new(false),
                capacity: capacity.max(1),
                ring: RefCell::new(VecDeque::new()),
                threads: RefCell::new(Vec::new()),
                dropped: Cell::new(0),
            }),
        }
    }

    /// Turns event recording on or off. Already-recorded events are kept.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.set(on);
    }

    /// True when events are being recorded. The disabled fast path is this
    /// single load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Names the Perfetto thread for `tid` (component id).
    pub fn name_thread(&self, tid: u64, name: &str) {
        let mut threads = self.inner.threads.borrow_mut();
        if let Some(slot) = threads.iter_mut().find(|(t, _)| *t == tid) {
            slot.1 = name.to_string();
        } else {
            threads.push((tid, name.to_string()));
        }
    }

    fn push(&self, ev: TraceEvent) {
        let mut ring = self.inner.ring.borrow_mut();
        if ring.len() >= self.inner.capacity {
            ring.pop_front();
            self.inner.dropped.set(self.inner.dropped.get() + 1);
        }
        ring.push_back(ev);
    }

    /// Emits a complete (`"X"`) span `[start, start+dur)` on thread `tid`.
    #[inline]
    pub fn complete(
        &self,
        tid: u64,
        cat: &'static str,
        name: impl Into<String>,
        start: u64,
        dur: u64,
        args: Vec<(&'static str, String)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: 'X',
            ts: start,
            dur,
            tid,
            args,
        });
    }

    /// Emits an instant (`"i"`) event at `ts` on thread `tid`.
    #[inline]
    pub fn instant(
        &self,
        tid: u64,
        cat: &'static str,
        name: impl Into<String>,
        ts: u64,
        args: Vec<(&'static str, String)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: 'i',
            ts,
            dur: 0,
            tid,
            args,
        });
    }

    /// Number of recorded events currently in the ring.
    pub fn len(&self) -> usize {
        self.inner.ring.borrow().len()
    }

    /// True when the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// Serialises the ring as Chrome `trace_event` JSON
    /// (`{"traceEvents": [...]}`), loadable in Perfetto. Cycle timestamps
    /// are emitted as microseconds (`"ts"`/`"dur"` fields).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        let mut first = true;
        for (tid, name) in self.inner.threads.borrow().iter() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": {}}}}}",
                json_string(name)
            ));
        }
        for ev in self.inner.ring.borrow().iter() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\": {}, \"cat\": \"{}\", \"ph\": \"{}\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}",
                json_string(&ev.name),
                ev.cat,
                ev.ph,
                ev.tid,
                ev.ts
            ));
            if ev.ph == 'X' {
                out.push_str(&format!(", \"dur\": {}", ev.dur));
            }
            if ev.ph == 'i' {
                // Thread-scoped instant marks render as arrows in Perfetto.
                out.push_str(", \"s\": \"t\"");
            }
            if !ev.args.is_empty() {
                out.push_str(", \"args\": {");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{k}\": {}", json_string(v)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::new(16);
        t.complete(1, "noc", "msg", 10, 5, vec![]);
        t.instant(1, "coh", "inv", 12, vec![]);
        assert!(t.is_empty());
    }

    #[test]
    fn enabled_trace_records_and_serialises() {
        let t = Trace::new(16);
        t.set_enabled(true);
        t.name_thread(3, "engine#3");
        t.complete(
            3,
            "engine",
            "Backoff",
            100,
            50,
            vec![("until", "150".into())],
        );
        t.instant(0, "coherence", "Inv", 120, vec![("line", "0x40".into())]);
        let json = t.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"engine#3\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": 50"));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"until\": \"150\""));
    }

    #[test]
    fn ring_drops_oldest() {
        let t = Trace::new(4);
        t.set_enabled(true);
        for i in 0..10u64 {
            t.instant(0, "x", format!("e{i}"), i, vec![]);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let json = t.to_chrome_json();
        assert!(!json.contains("\"e0\""), "oldest evicted");
        assert!(json.contains("\"e9\""), "newest kept");
    }

    #[test]
    fn clones_share_the_ring() {
        let t = Trace::new(8);
        t.set_enabled(true);
        let t2 = t.clone();
        t2.instant(0, "x", "shared", 1, vec![]);
        assert_eq!(t.len(), 1);
    }
}
