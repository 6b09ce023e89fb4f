//! Wire frames for the exchange protocol.
//!
//! Every message between nodes is one length-prefixed, checksummed frame:
//!
//! ```text
//! +------+--------+----------------+--------------------+-----------+
//! | tag  | from   | payload length |      payload       |  crc32c   |
//! | u8   | u32 BE | u32 BE         | `len` bytes        |  u32 BE   |
//! +------+--------+----------------+--------------------+-----------+
//! |<------------- covered by the trailing CRC -------------->|
//! ```
//!
//! The `from` field carries the sender's node id so a receiver multiplexing
//! many peers over one queue can attribute each frame. Payload size is
//! capped at [`MAX_PAYLOAD`] on **both** sides: the sender rejects oversize
//! payloads with `InvalidInput` (a length prefix that wrapped `u32` would
//! desync the whole stream) and the receiver rejects oversize prefixes with
//! `InvalidData` so a corrupt length cannot trigger a multi-gigabyte
//! allocation.
//!
//! The trailer is a CRC32C over the header and payload — the workspace's
//! shared [`alphasort_crc`] checksum, the same one `stripefs` stamps on
//! scratch-run strides. A frame that arrives framed correctly but with any
//! flipped bit fails verification in [`Frame::read_from`] with an
//! `InvalidData` error naming the claimed sender — sorted garbage is never
//! silently produced. Mismatches also bump the `net.frames.crc_error`
//! counter in `obs`.

use std::io::{self, Read, Write};

use alphasort_obs as obs;

pub use alphasort_crc::crc32c;
use alphasort_crc::Crc32c;

/// Upper bound on a single frame's payload (16 MB — far above the batch
/// sizes the exchange actually uses).
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Bytes before the payload: tag (1) + from (4) + length (4).
pub const HEADER_LEN: usize = 9;

/// Bytes after the payload: the CRC32C trailer.
pub const TRAILER_LEN: usize = 4;

/// CRC32C of `header` followed by `payload` without concatenating them.
fn frame_crc(header: &[u8], payload: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(header);
    crc.update(payload);
    crc.finish()
}

/// Protocol messages. `Sample` and `Splitters` run the coordinator phase;
/// `Data`/`Done` run the all-to-all exchange; `Abort` propagates one node's
/// failure to the rest of the cluster; `Bye` is the graceful transport
/// shutdown marker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Worker → coordinator: this node's sampled keys ([`encode_keys`]).
    Sample { from: u32, keys: Vec<u8> },
    /// Coordinator → worker: the chosen splitters, encoded like `Sample`.
    Splitters { from: u32, keys: Vec<u8> },
    /// Worker → worker: the next bytes of the sender's record stream for
    /// the receiver. A batch need not end on a record boundary: the
    /// receiver concatenates each sender's batches in order.
    Data { from: u32, records: Vec<u8> },
    /// Worker → worker: no more `Data` frames will follow from `from`.
    Done { from: u32 },
    /// Worker → everyone: `from` hit a local error and is going down;
    /// receivers stop promptly with a `RemoteAbort` error instead of
    /// timing out on the vanished peer one by one.
    Abort { from: u32, reason: String },
    /// Transport-level goodbye: the sender is closing its connection.
    Bye { from: u32 },
}

impl Frame {
    /// The sending node's id.
    pub fn from(&self) -> u32 {
        match self {
            Frame::Sample { from, .. }
            | Frame::Splitters { from, .. }
            | Frame::Data { from, .. }
            | Frame::Done { from }
            | Frame::Abort { from, .. }
            | Frame::Bye { from } => *from,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Frame::Sample { .. } => 1,
            Frame::Splitters { .. } => 2,
            Frame::Data { .. } => 3,
            Frame::Done { .. } => 4,
            Frame::Bye { .. } => 5,
            Frame::Abort { .. } => 6,
        }
    }

    fn payload(&self) -> &[u8] {
        match self {
            Frame::Sample { keys, .. } | Frame::Splitters { keys, .. } => keys,
            Frame::Data { records, .. } => records,
            Frame::Abort { reason, .. } => reason.as_bytes(),
            Frame::Done { .. } | Frame::Bye { .. } => &[],
        }
    }

    /// Bytes this frame occupies on the wire, header and CRC included.
    pub fn wire_len(&self) -> u64 {
        (HEADER_LEN + TRAILER_LEN) as u64 + self.payload().len() as u64
    }

    /// Write the frame to `w` (header + payload + CRC trailer, no flush).
    ///
    /// Oversize payloads are rejected here with `InvalidInput`: a payload
    /// past [`MAX_PAYLOAD`] would only be caught receiver-side, and one
    /// past `u32::MAX` would silently truncate the length prefix and
    /// desync every frame after it.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let payload = self.payload();
        if payload.len() > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload {} exceeds cap {MAX_PAYLOAD}; split it into batches",
                    payload.len()
                ),
            ));
        }
        let mut header = [0u8; HEADER_LEN];
        header[0] = self.tag();
        header[1..5].copy_from_slice(&self.from().to_be_bytes());
        header[5..9].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        let crc = frame_crc(&header, payload);
        w.write_all(&header)?;
        w.write_all(payload)?;
        w.write_all(&crc.to_be_bytes())
    }

    /// Read one frame from `r`, verifying its CRC. Returns `Ok(None)` on
    /// clean EOF at a frame boundary; an EOF mid-frame — even one byte into
    /// the header — is an `UnexpectedEof` error (a peer that died mid-send
    /// must not be mistaken for a graceful close).
    pub fn read_from(r: &mut impl Read) -> io::Result<Option<Frame>> {
        // Read the first header byte separately: 0 bytes ⇒ clean EOF, any
        // later short read ⇒ the peer vanished mid-frame.
        let mut first = [0u8; 1];
        loop {
            match r.read(&mut first) {
                Ok(0) => return Ok(None),
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let mut header = [0u8; HEADER_LEN];
        header[0] = first[0];
        r.read_exact(&mut header[1..]).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed connection mid-header",
                )
            } else {
                e
            }
        })?;
        let tag = header[0];
        let from = u32::from_be_bytes(header[1..5].try_into().expect("4 bytes"));
        let len = u32::from_be_bytes(header[5..9].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame payload {len} exceeds cap {MAX_PAYLOAD}"),
            ));
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        let mut trailer = [0u8; TRAILER_LEN];
        r.read_exact(&mut trailer)?;
        let expect = u32::from_be_bytes(trailer);
        let got = frame_crc(&header, &payload);
        if got != expect {
            obs::metrics::counter_add("net.frames.crc_error", 1);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame from node {from} failed CRC (wire corruption): \
                     computed {got:08x}, trailer {expect:08x}"
                ),
            ));
        }
        let frame = match tag {
            1 => Frame::Sample {
                from,
                keys: payload,
            },
            2 => Frame::Splitters {
                from,
                keys: payload,
            },
            3 => Frame::Data {
                from,
                records: payload,
            },
            4 => Frame::Done { from },
            5 => Frame::Bye { from },
            6 => Frame::Abort {
                from,
                reason: String::from_utf8_lossy(&payload).into_owned(),
            },
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown frame tag {other}"),
                ))
            }
        };
        Ok(Some(frame))
    }
}

/// A key payload (`Sample`, `Splitters`): each key a `u32` little-endian
/// length, then its bytes, so one encoding carries either layout's keys.
pub fn encode_keys<K: AsRef<[u8]>>(keys: &[K]) -> Vec<u8> {
    let mut payload = Vec::new();
    for key in keys.iter().map(AsRef::as_ref) {
        let len = u32::try_from(key.len()).expect("a record key fits a u32 length");
        payload.extend(len.to_le_bytes().iter().chain(key));
    }
    payload
}

/// Parse a key payload. A length prefix cut short or running past the
/// payload is `InvalidData`, refused before anything is sized by it.
pub fn decode_keys(mut payload: &[u8]) -> io::Result<Vec<Vec<u8>>> {
    let mut keys = Vec::new();
    while !payload.is_empty() {
        let key = payload
            .split_first_chunk::<4>()
            .and_then(|(len, rest)| rest.get(..u32::from_le_bytes(*len) as usize));
        let Some(key) = key else {
            let what = format!("key {} runs past the end of the payload", keys.len());
            return Err(io::Error::new(io::ErrorKind::InvalidData, what));
        };
        payload = &payload[4 + key.len()..];
        keys.push(key.to_vec());
    }
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let mut wire = Vec::new();
        f.write_to(&mut wire).unwrap();
        assert_eq!(wire.len() as u64, f.wire_len());
        let got = Frame::read_from(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(got, f);
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(Frame::Sample {
            from: 3,
            keys: vec![1; 30],
        });
        roundtrip(Frame::Splitters {
            from: 0,
            keys: vec![9; 10],
        });
        roundtrip(Frame::Data {
            from: 7,
            records: (0..200).collect(),
        });
        roundtrip(Frame::Done { from: 2 });
        roundtrip(Frame::Abort {
            from: 4,
            reason: "disk on fire".to_string(),
        });
        roundtrip(Frame::Bye { from: 1 });
    }

    /// Fixed, var-len and empty keys share one encoding.
    #[test]
    fn key_payloads_round_trip() {
        let keys = vec![vec![1u8; 10], Vec::new(), b"http://example.com/a".to_vec()];
        assert_eq!(decode_keys(&encode_keys(&keys)).unwrap(), keys);
        assert_eq!(decode_keys(&[]).unwrap(), Vec::<Vec<u8>>::new());
    }

    /// A prefix cut short, or one claiming more than the payload holds (up to
    /// `u32::MAX`), is `InvalidData` — never a panic or an allocation sized by
    /// the claim.
    #[test]
    fn decode_keys_rejects_a_length_prefix_past_the_payload() {
        let good = encode_keys(&[b"abc".to_vec()]);
        let mut past_by_one = good.clone();
        past_by_one[0] = 4;
        let mut huge = u32::MAX.to_le_bytes().to_vec();
        huge.extend_from_slice(b"abc");
        let mut trailing = good.clone();
        trailing.extend_from_slice(&[9, 0]);
        for bad in [&past_by_one[..], &huge, &trailing, &[7u8; 13], &good[..5]] {
            let err = decode_keys(bad).expect_err("malformed key payload");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut wire = Vec::new();
        let frames = [
            Frame::Done { from: 0 },
            Frame::Data {
                from: 1,
                records: vec![5; 17],
            },
            Frame::Bye { from: 2 },
        ];
        for f in &frames {
            f.write_to(&mut wire).unwrap();
        }
        let mut r = wire.as_slice();
        for f in &frames {
            assert_eq!(Frame::read_from(&mut r).unwrap().unwrap(), *f);
        }
        assert_eq!(Frame::read_from(&mut r).unwrap(), None);
    }

    #[test]
    fn clean_eof_is_none_but_midframe_eof_is_error() {
        let mut wire = Vec::new();
        Frame::Data {
            from: 0,
            records: vec![1; 50],
        }
        .write_to(&mut wire)
        .unwrap();
        let truncated = &wire[..wire.len() - 10];
        let err = Frame::read_from(&mut &truncated[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(Frame::read_from(&mut &[][..]).unwrap().is_none());
    }

    #[test]
    fn partial_header_eof_is_error_not_clean_close() {
        // Regression: a peer dying 1–8 bytes into the header used to be
        // misreported as a clean close (`Ok(None)`).
        let mut wire = Vec::new();
        Frame::Done { from: 3 }.write_to(&mut wire).unwrap();
        for cut in 1..HEADER_LEN {
            let err = Frame::read_from(&mut &wire[..cut]).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "cut at {cut} bytes must be a mid-frame EOF"
            );
        }
        // Zero bytes stays a clean close.
        assert!(Frame::read_from(&mut &wire[..0]).unwrap().is_none());
    }

    #[test]
    fn truncated_crc_trailer_is_error() {
        let mut wire = Vec::new();
        Frame::Done { from: 1 }.write_to(&mut wire).unwrap();
        let cut = &wire[..wire.len() - 2]; // half the trailer missing
        let err = Frame::read_from(&mut &cut[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversize_length_prefix_is_rejected_without_allocating() {
        let mut wire = vec![3u8, 0, 0, 0, 0];
        wire.extend_from_slice(&(u32::MAX).to_be_bytes());
        let err = Frame::read_from(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversize_payload_is_rejected_at_send_time() {
        // Regression: an oversize payload used to be caught only by the
        // receiver; at the cap it still sends, one byte past it errors
        // before a single wire byte is written.
        let at_cap = Frame::Data {
            from: 0,
            records: vec![0; MAX_PAYLOAD],
        };
        let mut sink = io::sink();
        at_cap.write_to(&mut sink).unwrap();

        let over = Frame::Data {
            from: 0,
            records: vec![0; MAX_PAYLOAD + 1],
        };
        let mut wire = Vec::new();
        let err = over.write_to(&mut wire).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(wire.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn crc32c_matches_known_vectors() {
        // RFC 3720 §B.4 test vectors.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn any_single_flipped_bit_fails_crc() {
        let mut wire = Vec::new();
        Frame::Data {
            from: 5,
            records: (0..64).collect(),
        }
        .write_to(&mut wire)
        .unwrap();
        // Flip one bit in every covered byte (header + payload) in turn:
        // never a silently accepted frame. Length-prefix flips (bytes 5..9)
        // may desync framing first and surface as `UnexpectedEof`; every
        // other covered byte must be the CRC's `InvalidData`.
        for i in 0..wire.len() - TRAILER_LEN {
            let mut bad = wire.clone();
            bad[i] ^= 0x10;
            let err = Frame::read_from(&mut bad.as_slice()).unwrap_err();
            if (5..HEADER_LEN).contains(&i) {
                assert!(
                    matches!(
                        err.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ),
                    "byte {i}: {err}"
                );
            } else {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {i}");
            }
        }
        // A payload flip names the sending peer.
        let mut bad = wire.clone();
        bad[HEADER_LEN] ^= 0x01;
        let err = Frame::read_from(&mut bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("node 5"), "{err}");
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn crc_errors_bump_the_obs_counter() {
        let mut wire = Vec::new();
        Frame::Done { from: 2 }.write_to(&mut wire).unwrap();
        wire[1] ^= 0xFF;
        obs::enable(obs::DEFAULT_CAPACITY);
        let before = obs::metrics_snapshot()
            .counters
            .get("net.frames.crc_error")
            .copied()
            .unwrap_or(0);
        assert!(Frame::read_from(&mut wire.as_slice()).is_err());
        let after = obs::metrics_snapshot()
            .counters
            .get("net.frames.crc_error")
            .copied()
            .unwrap_or(0);
        obs::disable();
        assert!(after > before, "counter must record the mismatch");
    }
}
