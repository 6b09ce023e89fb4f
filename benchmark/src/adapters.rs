//! Timing adapters around the `RecordSource` / `RecordSink` the harness hands
//! to a driver: how long the driver spent inside the IO layer and how many
//! bytes crossed it, measured without touching the program.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alphasort_core::io::{RecordSink, RecordSource};

use crate::spans::{Recorder, Under};

/// Where an adapter records a span per call, in the traced pass.
#[derive(Clone)]
pub struct Trace {
    /// The run's recorder.
    pub rec: Arc<Recorder>,
    /// The operation and span the calls hang under.
    pub under: Under,
}

impl Trace {
    /// Record `f` as one span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.rec.time(name, self.under, f)
    }

    /// The same trace, one level down: spans hang under `parent`.
    pub fn under(&self, parent: crate::spans::SpanId) -> Trace {
        Trace {
            rec: Arc::clone(&self.rec),
            under: Under {
                op: self.under.op,
                parent: Some(parent),
            },
        }
    }

    /// The same trace, for operation `op`.
    pub fn for_op(mut self, op: u64) -> Trace {
        self.under.op = op;
        self
    }
}

/// Time spent inside, and bytes moved through, one side of the IO layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoTime {
    /// Wall time inside the wrapped calls.
    pub busy: Duration,
    /// Bytes delivered or accepted.
    pub bytes: u64,
}

impl IoTime {
    /// MB/s while busy; 0 when nothing moved.
    pub fn mb_per_s(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.bytes as f64 / 1e6 / secs
    }
}

/// Time `f`, under a span named `name` when tracing.
fn timed<T>(
    trace: &Option<Trace>,
    name: &'static str,
    busy: &mut Duration,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = match trace {
        Some(t) => t.time(name, f),
        None => f(),
    };
    *busy += t0.elapsed();
    out
}

/// A source that times every `next_chunk`.
pub struct TimedSource<S> {
    inner: S,
    name: &'static str,
    trace: Option<Trace>,
    /// What the calls added up to.
    pub io: IoTime,
}

impl<S: RecordSource> TimedSource<S> {
    /// Wrap `inner`; spans are named `name`.
    pub fn new(inner: S, name: &'static str, trace: Option<Trace>) -> Self {
        TimedSource {
            inner,
            name,
            trace,
            io: IoTime::default(),
        }
    }
}

impl<S: RecordSource> RecordSource for TimedSource<S> {
    fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        let chunk = timed(&self.trace, self.name, &mut self.io.busy, || {
            self.inner.next_chunk()
        })?;
        self.io.bytes += chunk.as_ref().map_or(0, |c| c.len() as u64);
        Ok(chunk)
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }
}

/// A sink that times every `push` and the final `complete`.
pub struct TimedSink<K> {
    inner: K,
    name: &'static str,
    trace: Option<Trace>,
    /// What the calls added up to.
    pub io: IoTime,
}

impl<K: RecordSink> TimedSink<K> {
    /// Wrap `inner`; spans are named `name`.
    pub fn new(inner: K, name: &'static str, trace: Option<Trace>) -> Self {
        TimedSink {
            inner,
            name,
            trace,
            io: IoTime::default(),
        }
    }
}

impl<K: RecordSink> RecordSink for TimedSink<K> {
    fn push(&mut self, data: &[u8]) -> io::Result<()> {
        self.io.bytes += data.len() as u64;
        timed(&self.trace, self.name, &mut self.io.busy, || {
            self.inner.push(data)
        })
    }

    fn complete(&mut self) -> io::Result<u64> {
        timed(&self.trace, self.name, &mut self.io.busy, || {
            self.inner.complete()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_core::io::{MemSink, MemSource};

    #[test]
    fn adapters_count_bytes_and_record_spans_when_traced() {
        let rec = Arc::new(Recorder::new());
        let trace = Trace {
            rec: Arc::clone(&rec),
            under: Under {
                op: 3,
                parent: None,
            },
        };
        let mut src = TimedSource::new(MemSource::new(vec![7u8; 250], 100), "io.src", Some(trace));
        let mut sink = TimedSink::new(MemSink::new(), "io.sink", None);
        assert_eq!(src.size_hint(), Some(250));
        while let Some(c) = src.next_chunk().unwrap() {
            sink.push(&c).unwrap();
        }
        assert_eq!(sink.complete().unwrap(), 250);
        assert_eq!((src.io.bytes, sink.io.bytes), (250, 250));
        // Three chunks plus the end-of-input call; the untraced sink records none.
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.name == "io.src" && s.op == 3));
        assert_eq!(sink.inner.into_inner(), vec![7u8; 250]);
    }
}
