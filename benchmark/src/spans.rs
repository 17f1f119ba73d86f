//! Spans recorded by the harness around its own calls into the layers:
//! kept in memory, written once at exit as Chrome `trace_event` JSON.
//!
//! Timing always goes through [`Recorder::span`], traced or not, so both
//! kinds of run time the same code; with tracing off nothing is stored.

use crate::json::Json;
use std::time::Instant;

/// One closed span. Times are seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Identifier shared by every span of one pass (`<workload>/<n>`) or
    /// probe, so one request's spans can be picked out of the file.
    pub id: String,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records a tree of spans on one thread.
pub struct Recorder {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: String,
}

impl Recorder {
    /// A recorder that stores spans only when `keep` is set.
    pub fn new(keep: bool) -> Self {
        Self {
            origin: Instant::now(),
            keep,
            spans: Vec::new(),
            open: Vec::new(),
            id: String::new(),
        }
    }

    /// Sets the identifier stamped on spans opened from now on.
    pub fn set_id(&mut self, id: String) {
        self.id = id;
    }

    /// Runs `f` inside a span called `name`; returns its result and its
    /// wall time in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start = self.origin.elapsed().as_secs_f64();
        let index = self.keep.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                id: self.id.clone(),
                start,
                end: start,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let value = f(self);
        let end = self.origin.elapsed().as_secs_f64();
        if let Some(index) = index {
            self.spans[index].end = end;
            self.open.pop();
        }
        (value, end - start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` document: one complete (`X`) event per span,
    /// microsecond timestamps, parent index and self time in `args`.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("ph".into(), Json::Str("X".into())),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    ("ts".into(), Json::Num(s.start * 1e6)),
                    ("dur".into(), Json::Num(s.duration() * 1e6)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::Str(s.id.clone())),
                            ("span".into(), Json::Num(i as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("self_us".into(), Json::Num(self_time(&self.spans, i) * 1e6)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("traceEvents".into(), Json::Arr(events)),
        ])
    }
}

/// Self time of span `index`: its duration minus the part its direct
/// children cover. Children of one parent never overlap here (one thread,
/// strictly nested), so the covered part is the sum of their durations.
pub fn self_time(spans: &[Span], index: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(Span::duration)
        .sum();
    spans[index].duration() - children
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            id: "w/0".into(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0.0, 10.0, None),
            span("run", 1.0, 5.0, Some(0)),
            span("inner", 2.0, 3.0, Some(1)),
            span("collect", 5.0, 6.0, Some(0)),
        ];
        assert_eq!(
            self_time(&spans, 0),
            5.0,
            "10 - (4 + 1); grandchild not counted twice"
        );
        assert_eq!(self_time(&spans, 1), 3.0);
        assert_eq!(self_time(&spans, 2), 1.0);
    }

    #[test]
    fn recorder_nests_spans_and_returns_wall_time() {
        let mut rec = Recorder::new(true);
        rec.set_id("w/3".into());
        let (value, wall) = rec.span("pass", |rec| {
            rec.span("run", |_| 7).0 + rec.span("collect", |_| 1).0
        });
        assert_eq!(value, 8);
        assert!(wall >= 0.0);
        let names: Vec<_> = rec.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["pass", "run", "collect"]);
        assert_eq!(rec.spans()[0].parent, None);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[2].parent, Some(0));
        assert!(rec
            .spans()
            .iter()
            .all(|s| s.id == "w/3" && s.end >= s.start));
        let doc = rec.to_chrome_json();
        let events = doc.get("traceEvents").expect("events");
        assert!(matches!(events, Json::Arr(e) if e.len() == 3));
    }

    #[test]
    fn untraced_recorder_times_but_stores_nothing() {
        let mut rec = Recorder::new(false);
        let (value, wall) = rec.span("pass", |rec| rec.span("run", |_| 5).0);
        assert_eq!(value, 5);
        assert!(wall >= 0.0);
        assert!(rec.spans().is_empty());
    }
}
