//! Exporters: Chrome `trace_event` JSON and the histogram summary service
//! stats embed. (The metrics document is
//! [`MetricsSnapshot::to_json`](crate::MetricsSnapshot::to_json).)
//!
//! The trace format is the subset of the Trace Event Format that
//! `chrome://tracing` and Perfetto load directly: complete (`"X"`) events
//! with microsecond `ts`/`dur`, instant (`"i"`) events, and metadata
//! (`"M"`) records naming processes and threads. Tracks map to processes —
//! a netsort run exports each node as its own process row — and recorder
//! threads map to Chrome thread ids, so nested spans on one thread render
//! as a flame-graph lane exactly like the paper's Figure 7 timeline.

use alphasort_minijson::Json;

use crate::recorder::{AttrValue, EventKind, TraceSnapshot};

fn attr_json(v: &AttrValue) -> Json {
    match *v {
        AttrValue::U64(n) => Json::from(n),
        AttrValue::I64(n) => Json::from(n),
        AttrValue::F64(x) => Json::from(x),
        AttrValue::Str(ref s) => Json::from(s.as_str()),
    }
}

fn meta_event(name: &str, pid: usize, tid: Option<u32>, value: &str) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::from(name)),
        ("ph".to_string(), Json::from("M")),
        ("pid".to_string(), Json::from(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".to_string(), Json::from(tid)));
    }
    fields.push((
        "args".to_string(),
        Json::Obj(vec![("name".to_string(), Json::from(value))]),
    ));
    Json::Obj(fields)
}

/// Render a snapshot as a Chrome `trace_event` JSON document.
pub fn chrome_trace(snap: &TraceSnapshot) -> Json {
    // Process 0 is the untracked (main) process; each named track gets the
    // next pid in sorted order.
    let tracks = snap.tracks();
    let pid_of = |track: Option<&str>| -> usize {
        match track {
            None => 0,
            Some(t) => 1 + tracks.iter().position(|x| x == t).expect("track listed"),
        }
    };

    let mut events: Vec<Json> = Vec::with_capacity(snap.events.len() + 16);
    events.push(meta_event("process_name", 0, None, "main"));
    for (i, t) in tracks.iter().enumerate() {
        events.push(meta_event("process_name", i + 1, None, t));
    }
    // A thread can appear under several pids (an untracked pool thread later
    // adopted into a node track records to both); Chrome treats (pid, tid)
    // as the lane key, so emit thread metadata per (pid, tid) pair seen.
    let mut lanes: std::collections::BTreeSet<(usize, u32)> = std::collections::BTreeSet::new();
    for e in &snap.events {
        lanes.insert((pid_of(e.track.as_deref()), e.tid));
    }
    for t in &snap.threads {
        for &(pid, tid) in &lanes {
            if tid == t.tid {
                events.push(meta_event("thread_name", pid, Some(tid), &t.name));
            }
        }
    }

    for e in &snap.events {
        let mut fields = vec![
            ("name".to_string(), Json::from(e.name)),
            ("pid".to_string(), Json::from(pid_of(e.track.as_deref()))),
            ("tid".to_string(), Json::from(e.tid)),
            ("ts".to_string(), Json::Float(e.start_ns as f64 / 1_000.0)),
        ];
        match e.kind {
            EventKind::Span { dur_ns } => {
                fields.insert(1, ("ph".to_string(), Json::from("X")));
                fields.push(("dur".to_string(), Json::Float(dur_ns as f64 / 1_000.0)));
            }
            EventKind::Instant => {
                fields.insert(1, ("ph".to_string(), Json::from("i")));
                fields.push(("s".to_string(), Json::from("t")));
            }
        }
        if !e.attrs.is_empty() {
            fields.push((
                "args".to_string(),
                Json::Obj(
                    e.attrs
                        .iter()
                        .map(|(k, v)| (k.to_string(), attr_json(v)))
                        .collect(),
                ),
            ));
        }
        events.push(Json::Obj(fields));
    }

    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::from("ms")),
        (
            "otherData".to_string(),
            Json::Obj(vec![(
                "droppedEvents".to_string(),
                Json::from(snap.dropped),
            )]),
        ),
    ])
}

/// Compact latency-style summary of one histogram: `count`, `mean`,
/// `p50`/`p90`/`p99` (via [`crate::metrics::Histogram::quantile`]'s
/// interpolation), and
/// `max`. This is the shape service stats documents embed when the full
/// bucket array would be noise — sortd's `stats` latency section uses it.
pub fn histogram_summary(h: &crate::metrics::Histogram) -> Json {
    Json::Obj(vec![
        ("count".to_string(), Json::from(h.count())),
        ("mean".to_string(), Json::Float(h.mean())),
        ("p50".to_string(), Json::Float(h.quantile(0.50).unwrap_or(0.0))),
        ("p90".to_string(), Json::Float(h.quantile(0.90).unwrap_or(0.0))),
        ("p99".to_string(), Json::Float(h.quantile(0.99).unwrap_or(0.0))),
        ("max".to_string(), Json::from(h.max().unwrap_or(0))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Event, ThreadInfo};
    use std::sync::Arc;

    fn span_event(
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        tid: u32,
        track: Option<&str>,
    ) -> Event {
        Event {
            name,
            kind: EventKind::Span { dur_ns },
            start_ns,
            tid,
            track: track.map(Arc::from),
            attrs: vec![("bytes", AttrValue::U64(4096))],
        }
    }

    #[test]
    fn chrome_trace_structure_and_roundtrip() {
        let snap = TraceSnapshot {
            events: vec![
                span_event("one_pass", 0, 10_000, 1, None),
                span_event("read", 100, 2_000, 1, None),
                span_event("exchange", 50, 5_000, 2, Some("node0")),
            ],
            dropped: 3,
            threads: vec![
                ThreadInfo {
                    tid: 1,
                    name: "main".into(),
                },
                ThreadInfo {
                    tid: 2,
                    name: "worker".into(),
                },
            ],
        };
        let doc = chrome_trace(&snap);
        // Round-trips through the workspace JSON parser byte-exactly.
        let text = doc.dump_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);

        let events = parsed.field_arr("traceEvents").unwrap();
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.field_str("ph") == Ok("X"))
            .collect();
        assert_eq!(xs.len(), 3);
        let read = xs
            .iter()
            .find(|e| e.field_str("name") == Ok("read"))
            .unwrap();
        assert_eq!(read.field_f64("ts").unwrap(), 0.1); // 100 ns = 0.1 µs
        assert_eq!(read.field_f64("dur").unwrap(), 2.0);
        assert_eq!(read.field_u64("pid").unwrap(), 0);
        let exch = xs
            .iter()
            .find(|e| e.field_str("name") == Ok("exchange"))
            .unwrap();
        assert_eq!(exch.field_u64("pid").unwrap(), 1); // node0 process
        assert_eq!(exch.get("args").unwrap().field_u64("bytes").unwrap(), 4096);
        // Metadata names both processes.
        let metas: Vec<&Json> = events
            .iter()
            .filter(|e| e.field_str("ph") == Ok("M"))
            .collect();
        assert!(metas
            .iter()
            .any(|m| m.get("args").unwrap().field_str("name") == Ok("node0")));
        assert_eq!(
            parsed
                .get("otherData")
                .unwrap()
                .field_u64("droppedEvents")
                .unwrap(),
            3
        );
    }
}
