//! The sortd wire protocol, riding on netsort's checksummed frames.
//!
//! Every message is a netsort [`Frame`] — length-prefixed, CRC32C-trailed,
//! size-capped — so sortd inherits the exchange protocol's corruption
//! detection for free. The frame header's `from` field, a sender node id
//! in netsort, is repurposed as a **channel tag**:
//!
//! * [`CTRL`] frames carry one minijson document (`submit`, `status`,
//!   `stats`, `metrics`, `cancel`, `drain` requests; `ack`, `result`,
//!   `error` responses),
//! * [`PAYLOAD`] frames carry raw record bytes, batched under the frame
//!   cap and terminated by a `Done` frame on the payload channel.
//!
//! A submit conversation:
//!
//! ```text
//! client → server   Data(CTRL, submit manifest json)
//!                   Data(PAYLOAD, records)… Done(PAYLOAD)
//! server → client   Data(CTRL, ack {job_id, state, queue_depth})
//!                   …job queues, runs…
//!                   Data(CTRL, result {state:"done", …})
//!                   Data(PAYLOAD, sorted records)… Done(PAYLOAD)
//!        or         Data(CTRL, error {code, retryable, …})
//! ```
//!
//! `status`/`stats`/`metrics`/`cancel`/`drain` are single request/response
//! pairs on their own connections.
//!
//! # Telemetry documents (stable field names)
//!
//! The `stats` response is the human-scale snapshot:
//!
//! ```text
//! { "type": "stats", "uptime_ms": N,
//!   "pool":  { mem_total, mem_in_use, mem_hwm,
//!              scratch_total, scratch_in_use, scratch_hwm },
//!   "queue": { depth, bound, bypasses, aged_barriers },
//!   "running": N, "draining": bool,
//!   "jobs":  { <one count per `JobState` name> },
//!   "counters": { submitted, done, failed, rejected, canceled, duplicates,
//!                 jobs_recovered, runs_recovered, runs_reformed,
//!                 scratch_disposed, deadline_kills, journal_write_errors },
//!   "latency": { queue_wait_us, exec_us, e2e_us,            // each a summary:
//!                recv_us, journal_us, reply_us } }  // { count, mean, p50, p90, p99, max }
//! ```
//!
//! The `metrics` response is the machine-scale snapshot: the same state as
//! one obs `MetricsSnapshot` JSON document (decodable with
//! `MetricsSnapshot::from_json`, so clients can `diff()` successive polls —
//! `sortd top` does exactly that) under a two-field envelope:
//!
//! ```text
//! { "type": "metrics", "uptime_ms": N,
//!   "counters":   { "sortd.jobs.*", "sortd.recovery.*", "sortd.deadline.kills",
//!                   "sortd.journal.write_errors", "sortd.admission.bypasses",
//!                   "sortd.admission.aged_barriers" },
//!   "gauges":     { "sortd.pool.mem_total", "sortd.pool.mem_in_use",
//!                   "sortd.pool.mem_hwm", "sortd.pool.scratch_total",
//!                   "sortd.pool.scratch_in_use", "sortd.pool.scratch_hwm",
//!                   "sortd.queue.depth", "sortd.queue.bound", "sortd.running",
//!                   "sortd.draining", "sortd.recovery.pending" },
//!   "histograms": { "sortd.queue_wait_us", "sortd.exec_us", "sortd.e2e_us",
//!                   "sortd.recv_us", "sortd.journal_us", "sortd.reply_us" } }
//! ```
//!
//! Every counter and gauge is one row of `server::service_table`, which
//! renders both documents, so a value cannot appear under one name only.
//! All latencies are microseconds. The histograms are recorded for every
//! job that ran (successes and execution failures) and are never reset —
//! they survive drain. These names are a wire contract: renaming one is a
//! breaking protocol change.

use std::io::{self, Read, Write};

use alphasort_minijson::Json;
use alphasort_netsort::Frame;

/// Channel tag for control (JSON) frames.
pub const CTRL: u32 = 0;
/// Channel tag for raw record payload frames.
pub const PAYLOAD: u32 = 1;

/// Payload batch size: well under [`Frame`]'s 16 MB cap, big enough that
/// framing overhead disappears.
pub const PAYLOAD_BATCH: usize = 1 << 20;

/// Send one control document.
pub fn send_ctrl(w: &mut impl Write, doc: &Json) -> io::Result<()> {
    Frame::Data {
        from: CTRL,
        records: doc.dump().into_bytes(),
    }
    .write_to(w)?;
    w.flush()
}

/// Receive one control document; anything else on the wire is an error.
pub fn read_ctrl(r: &mut impl Read) -> io::Result<Json> {
    match Frame::read_from(r)? {
        Some(Frame::Data { from: CTRL, records }) => {
            let text = String::from_utf8(records).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("ctrl frame not UTF-8: {e}"))
            })?;
            Json::parse(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("ctrl frame: {e}")))
        }
        Some(other) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected a ctrl frame, got {other:?}"),
        )),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed before the ctrl frame",
        )),
    }
}

/// Stream `bytes` as payload frames followed by the payload `Done`.
pub fn send_payload(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    for chunk in bytes.chunks(PAYLOAD_BATCH) {
        Frame::Data {
            from: PAYLOAD,
            records: chunk.to_vec(),
        }
        .write_to(w)?;
    }
    Frame::Done { from: PAYLOAD }.write_to(w)?;
    w.flush()
}

/// Collect payload frames until the payload `Done`, enforcing `expect`
/// bytes total (the submit manifest declared the length; a mismatch means
/// a confused client and must not reach the sorter).
pub fn read_payload(r: &mut impl Read, expect: u64) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(expect.min(64 << 20) as usize);
    loop {
        match Frame::read_from(r)? {
            Some(Frame::Data { from: PAYLOAD, records }) => {
                if buf.len() as u64 + records.len() as u64 > expect {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "payload overruns the manifest's {expect} bytes ({} and counting)",
                            buf.len() + records.len()
                        ),
                    ));
                }
                buf.extend_from_slice(&records);
            }
            Some(Frame::Done { from: PAYLOAD }) => break,
            Some(other) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected payload frames, got {other:?}"),
                ))
            }
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-payload",
                ))
            }
        }
    }
    if buf.len() as u64 != expect {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("payload delivered {} bytes, manifest declared {expect}", buf.len()),
        ));
    }
    Ok(buf)
}

/// Cap on bytes discarded while draining a rejected submit's payload.
/// The declared length is untrusted on reject paths (validation just
/// failed), so the drain is bounded by this instead of the manifest.
pub const REJECT_DRAIN_CAP: u64 = 64 << 20;

/// Read and **discard** payload frames until the payload `Done`, end of
/// stream, or `cap` total bytes — one frame in memory at a time, nothing
/// accumulated. Reject paths use this instead of [`read_payload`]: a
/// manifest that failed validation must not get to size a server-side
/// buffer. Always returns `Ok` on a termination condition so the caller
/// can still send its error document; a client that streams past the cap
/// simply has the rest of its payload unread when the connection closes.
pub fn drain_payload(r: &mut impl Read, cap: u64) -> io::Result<()> {
    let mut dropped = 0u64;
    loop {
        match Frame::read_from(r)? {
            Some(Frame::Data { from: PAYLOAD, records }) => {
                dropped += records.len() as u64;
                if dropped > cap {
                    return Ok(());
                }
            }
            // Done, an off-channel frame, or EOF all end the drain; the
            // connection is being torn down either way.
            Some(_) | None => return Ok(()),
        }
    }
}

/// Build an `error` response document from a typed error.
pub fn error_doc(job_id: Option<u64>, err: &crate::job::SortdError) -> Json {
    let mut fields = vec![
        ("type".into(), Json::from("error")),
        ("code".into(), Json::from(err.code())),
        ("retryable".into(), Json::Bool(err.retryable())),
        ("message".into(), Json::from(err.to_string().as_str())),
    ];
    if let Some(id) = job_id {
        fields.push(("job_id".into(), Json::from(id)));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::SortdError;

    #[test]
    fn ctrl_roundtrip() {
        let doc = Json::Obj(vec![
            ("type".into(), Json::from("stats")),
            ("n".into(), Json::from(7u64)),
        ]);
        let mut wire = Vec::new();
        send_ctrl(&mut wire, &doc).unwrap();
        let got = read_ctrl(&mut wire.as_slice()).unwrap();
        assert_eq!(got.field_str("type").unwrap(), "stats");
        assert_eq!(got.field_u64("n").unwrap(), 7);
    }

    #[test]
    fn payload_roundtrip_batches_and_terminates() {
        let bytes: Vec<u8> = (0..3 * PAYLOAD_BATCH + 123).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        send_payload(&mut wire, &bytes).unwrap();
        let got = read_payload(&mut wire.as_slice(), bytes.len() as u64).unwrap();
        assert_eq!(got, bytes);
    }

    #[test]
    fn payload_length_is_enforced_both_ways() {
        let bytes = vec![7u8; 1_000];
        let mut wire = Vec::new();
        send_payload(&mut wire, &bytes).unwrap();
        // Short declaration: overrun caught before buffering past it.
        let err = read_payload(&mut wire.as_slice(), 999).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Long declaration: shortfall caught at Done.
        let err = read_payload(&mut wire.as_slice(), 1_001).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_payload_frame_fails_crc_not_silence() {
        let mut wire = Vec::new();
        send_payload(&mut wire, &[5u8; 400]).unwrap();
        wire[20] ^= 0x40;
        let err = read_payload(&mut wire.as_slice(), 400).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn drain_payload_discards_to_done_and_stops_at_the_cap() {
        // A well-terminated payload drains cleanly and consumes its Done.
        let mut wire = Vec::new();
        send_payload(&mut wire, &[3u8; 10_000]).unwrap();
        let mut r = wire.as_slice();
        drain_payload(&mut r, 1 << 20).unwrap();
        assert!(r.is_empty(), "drain consumed payload and Done");
        // Past the cap the drain stops without reading further frames —
        // the oversized tail (and its Done) stays on the wire unread.
        let mut wire = Vec::new();
        send_payload(&mut wire, &vec![9u8; 3 * PAYLOAD_BATCH]).unwrap();
        let mut r = wire.as_slice();
        drain_payload(&mut r, PAYLOAD_BATCH as u64).unwrap();
        assert!(!r.is_empty(), "drain stopped at the cap, tail unread");
        // A truncated stream (no Done) terminates instead of erroring.
        let mut wire = Vec::new();
        Frame::Data { from: PAYLOAD, records: vec![1u8; 64] }
            .write_to(&mut wire)
            .unwrap();
        drain_payload(&mut wire.as_slice(), 1 << 20).unwrap();
    }

    #[test]
    fn error_doc_carries_the_retry_contract() {
        let doc = error_doc(Some(9), &SortdError::Backpressure { depth: 4, bound: 4 });
        assert_eq!(doc.field_str("code").unwrap(), "backpressure");
        assert_eq!(doc.get("retryable").unwrap().as_bool(), Some(true));
        assert_eq!(doc.field_u64("job_id").unwrap(), 9);
    }
}
