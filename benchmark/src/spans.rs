//! The harness's own spans: one around every call it makes into a layer.
//!
//! Spans are kept in memory and written out when the run ends. Each carries
//! its name, start, end, the span that caused it and the id of the operation
//! it belongs to, so one operation's spans can be pulled out of a trace. A
//! span's *self time* is its duration minus the part of that interval its
//! children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use alphasort_minijson::Json;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One finished (or still open) interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, the layer being a module name of the program.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; equals `start_ns` while
    /// the span is open.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation the span belongs to; 0 for work outside any operation.
    pub op: u64,
}

/// Where a new span hangs: the operation and the causing span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Under {
    /// Operation id.
    pub op: u64,
    /// Causing span.
    pub parent: Option<SpanId>,
}

/// Thread-safe in-memory span store.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// Empty recorder; its clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A span push cannot leave the vector half-updated, so a poisoned
        // lock (some operation thread panicked) still guards valid data.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open a span; close it with [`exit`](Self::exit).
    pub fn enter(&self, name: &'static str, under: Under) -> SpanId {
        let now = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: under.parent,
            op: under.op,
        });
        spans.len() - 1
    }

    /// Close span `id` now.
    pub fn exit(&self, id: SpanId) {
        let now = self.now_ns();
        self.lock()[id].end_ns = now;
    }

    /// Record `f` as one span and return its result.
    pub fn time<T>(&self, name: &'static str, under: Under, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, under);
        let out = f();
        self.exit(id);
        out
    }

    /// Copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Per-span self time in nanoseconds: the span's duration minus the union of
/// its children's intervals (children on different threads may overlap each
/// other, so their durations cannot simply be summed).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, seconds.
    pub total_s: f64,
    /// Sum of their self times, seconds.
    pub self_s: f64,
}

/// Count, total and self time by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += (s.end_ns - s.start_ns) as f64 / 1e9;
        t.self_s += self_ns as f64 / 1e9;
    }
    out
}

/// Chrome `trace_event` entries for the harness spans, one lane per
/// operation, under the process id `pid` (named `bench`).
pub fn chrome_events(spans: &[Span], pid: u64) -> Vec<Json> {
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let mut events = vec![obj(vec![
        ("name", Json::from("process_name")),
        ("ph", Json::from("M")),
        ("pid", Json::from(pid)),
        ("args", obj(vec![("name", Json::from("bench"))])),
    ])];
    for (id, s) in spans.iter().enumerate() {
        let mut args = vec![("id", Json::from(id)), ("op", Json::from(s.op))];
        if let Some(p) = s.parent {
            args.push(("parent", Json::from(p)));
        }
        events.push(obj(vec![
            ("name", Json::from(s.name)),
            ("cat", Json::from("bench")),
            ("ph", Json::from("X")),
            ("pid", Json::from(pid)),
            ("tid", Json::from(s.op)),
            ("ts", Json::from(s.start_ns as f64 / 1e3)),
            ("dur", Json::from((s.end_ns - s.start_ns) as f64 / 1e3)),
            ("args", obj(args)),
        ]));
    }
    events
}

/// The per-layer table of the traced pass: count, total and self time of
/// every span name, largest self time first.
pub fn self_time_table(spans: &[Span]) -> String {
    let mut rows: Vec<_> = totals_by_name(spans).into_iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(4).max(4);
    let mut out = format!(
        "  {:width$}  {:>8}  {:>10}  {:>10}\n",
        "span", "count", "total s", "self s"
    );
    for (name, t) in rows {
        out.push_str(&format!(
            "  {name:width$}  {:>8}  {:>10.4}  {:>10.4}\n",
            t.count, t.total_s, t.self_s
        ));
    }
    out
}

/// Write one Chrome `trace_event` file holding the harness spans and, when
/// given, the spans the program itself recorded through `alphasort_obs`.
/// Open it in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn write_chrome_trace(
    path: &std::path::Path,
    spans: &[Span],
    program: Option<&alphasort_obs::TraceSnapshot>,
) -> std::io::Result<()> {
    let mut events = match program.map(alphasort_obs::export::chrome_trace) {
        Some(Json::Obj(fields)) => fields
            .into_iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| match v {
                Json::Arr(items) => Some(items),
                _ => None,
            })
            .unwrap_or_default(),
        _ => Vec::new(),
    };
    // The program's tracks are numbered from 0; keep the harness clear of them.
    events.extend(chrome_events(spans, 1_000_000));
    let doc = Json::Obj(vec![("traceEvents".to_string(), Json::Arr(events))]);
    std::fs::write(path, doc.dump())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            // Two children overlapping on 30..40 cover 10..60 = 50 ns.
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            // A grandchild only reduces its own parent.
            span(12, 20, Some(1)),
            // A child running past its parent is clipped to it.
            span(90, 150, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 22, 30, 8, 60]);
    }

    #[test]
    fn totals_group_by_name() {
        let mut spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 70, Some(0)),
        ];
        spans[0].name = "op";
        let t = totals_by_name(&spans);
        assert_eq!(t["op"].count, 1);
        assert!((t["op"].self_s - 60e-9).abs() < 1e-15);
        assert_eq!(t["t"].count, 2);
        assert!((t["t"].total_s - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let rec = Recorder::new();
        let op = rec.enter(
            "op",
            Under {
                op: 7,
                parent: None,
            },
        );
        let under = Under {
            op: 7,
            parent: Some(op),
        };
        let got = rec.time("driver.one_pass", under, || 5);
        rec.exit(op);
        assert_eq!(got, 5);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(op));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let events = chrome_events(&spans, 99);
        let doc = Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]);
        let back = Json::parse(&doc.dump()).expect("chrome trace parses");
        let arr = back.field_arr("traceEvents").unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].field_str("name").unwrap(), "driver.one_pass");
        assert_eq!(arr[2].get("args").unwrap().field_u64("parent").unwrap(), 0);
    }
}
