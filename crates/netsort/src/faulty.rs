//! Fault injection for the exchange transport, on iosim's rule engine.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and applies a
//! [`FaultPlan<NetFault>`](FaultPlan): sends are [`Dir::Out`] operations,
//! received frames [`Dir::In`], each counted 0-based, and every rule is
//! one-shot or recurring ([`When`](alphasort_iosim::fault::When)). A send can be dropped, delayed, failed or followed by
//! a crash; a received frame can be corrupted on the (emulated) wire. The
//! chaos matrix in `tests/chaos.rs` uses this to prove the distributed sort
//! either completes correctly or fails fast with a correctly attributed
//! error — never a hang, never silent corruption.
//!
//! Corruption is injected the way a real wire would produce it: the frame
//! is serialized through [`Frame::write_to`] (which appends the CRC32C
//! trailer), one payload byte is flipped *after* the checksum was
//! computed, and the result is re-decoded through [`Frame::read_from`] —
//! so the receiver observes exactly the `InvalidData` CRC error a
//! corrupted TCP segment would cause, on any transport.

use std::io;
use std::thread;
use std::time::Duration;

use alphasort_iosim::fault::{Dir, FaultPlan};

use crate::frame::{Frame, HEADER_LEN, TRAILER_LEN};
use crate::transport::Transport;

/// One injected network failure. `Drop`, `Delay`, `Fail` and `Kill` apply
/// to sends, `Corrupt` to received frames; a rule whose fault does not
/// apply in its direction lets the operation through.
#[derive(Clone, Debug)]
pub enum NetFault {
    /// The send vanishes on the wire: the call succeeds but the peer never
    /// sees the frame (a lost packet past the transport's care).
    Drop,
    /// The send is stalled for this long before delivery (a congested or
    /// flapping link).
    Delay(Duration),
    /// The send fails locally with this error kind (NIC error).
    Fail(io::ErrorKind),
    /// After the send completes, the node "crashes": every later send and
    /// receive fails with `ConnectionAborted`.
    Kill,
    /// The received frame has payload byte `byte` flipped on the wire,
    /// after integrity protection was applied — surfaces as the CRC
    /// `InvalidData` error naming the sending peer.
    Corrupt {
        /// Index of the byte within the frame payload to flip (clamped to
        /// the payload; frames without a payload flip a header byte, which
        /// the CRC catches just the same).
        byte: usize,
    },
}

/// Transport wrapper that injects the planned faults.
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan<NetFault>,
    dead: bool,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: T, plan: FaultPlan<NetFault>) -> Self {
        FaultyTransport {
            inner,
            plan,
            dead: false,
        }
    }

    fn crashed() -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "node crashed by fault plan",
        )
    }

    /// Emulate on-the-wire corruption of `frame`: serialize (computing the
    /// real CRC), flip a covered byte, re-decode. Any flip of a covered
    /// byte fails the CRC, so this always yields the receiver-side error.
    fn corrupt_on_wire(frame: &Frame, byte: usize) -> io::Error {
        let mut wire = Vec::new();
        frame
            .write_to(&mut wire)
            .expect("in-flight frame reserializes");
        let payload_len = wire.len() - HEADER_LEN - TRAILER_LEN;
        let idx = if payload_len > 0 {
            HEADER_LEN + byte.min(payload_len - 1)
        } else {
            1 // no payload: flip a `from` byte, still CRC-covered
        };
        wire[idx] ^= 0xFF;
        match Frame::read_from(&mut wire.as_slice()) {
            Err(e) => e,
            Ok(_) => io::Error::new(
                io::ErrorKind::InvalidData,
                "injected corruption went undetected",
            ),
        }
    }

    fn post_recv(&mut self, frame: Frame) -> io::Result<Frame> {
        match self.plan.next(Dir::In) {
            (_, Some(NetFault::Corrupt { byte })) => Err(Self::corrupt_on_wire(&frame, byte)),
            _ => Ok(frame),
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn node(&self) -> usize {
        self.inner.node()
    }

    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn send(&mut self, to: usize, frame: Frame) -> io::Result<()> {
        if self.dead {
            return Err(Self::crashed());
        }
        match self.plan.next(Dir::Out) {
            (_, Some(NetFault::Drop)) => Ok(()),
            (_, Some(NetFault::Delay(by))) => {
                thread::sleep(by);
                self.inner.send(to, frame)
            }
            (op, Some(NetFault::Fail(kind))) => Err(io::Error::new(
                kind,
                format!("injected send fault at op {op}"),
            )),
            (_, Some(NetFault::Kill)) => {
                let result = self.inner.send(to, frame);
                self.dead = true;
                result
            }
            _ => self.inner.send(to, frame),
        }
    }

    fn recv(&mut self) -> io::Result<Frame> {
        if self.dead {
            return Err(Self::crashed());
        }
        let frame = self.inner.recv()?;
        self.post_recv(frame)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Frame> {
        if self.dead {
            return Err(Self::crashed());
        }
        let frame = self.inner.recv_timeout(timeout)?;
        self.post_recv(frame)
    }

    fn shutdown(&mut self) -> io::Result<()> {
        if self.dead {
            // A crashed node does not say goodbye.
            return Ok(());
        }
        self.inner.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_cluster;
    use alphasort_iosim::fault::When;

    fn pair(plan0: FaultPlan<NetFault>) -> (FaultyTransport<impl Transport>, impl Transport) {
        let mut cluster = loopback_cluster(2);
        let b = cluster.remove(1);
        let a = cluster.remove(0);
        (FaultyTransport::new(a, plan0), b)
    }

    #[test]
    fn dropped_send_never_arrives() {
        let (mut a, mut b) = pair(FaultPlan::new().on(Dir::Out, When::Nth(0), NetFault::Drop));
        a.send(1, Frame::Done { from: 0 }).unwrap();
        a.send(1, Frame::Bye { from: 0 }).unwrap();
        // Only the second frame shows up.
        assert_eq!(b.recv().unwrap(), Frame::Bye { from: 0 });
        let err = b.recv_timeout(Duration::from_millis(20)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn delayed_send_arrives_late_but_intact() {
        let (mut a, mut b) = pair(FaultPlan::new().on(
            Dir::Out,
            When::Nth(0),
            NetFault::Delay(Duration::from_millis(40)),
        ));
        let t0 = std::time::Instant::now();
        a.send(1, Frame::Done { from: 0 }).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(40));
        assert_eq!(b.recv().unwrap(), Frame::Done { from: 0 });
    }

    #[test]
    fn failed_send_surfaces_locally() {
        let (mut a, _b) = pair(FaultPlan::new().on(
            Dir::Out,
            When::Nth(1),
            NetFault::Fail(io::ErrorKind::BrokenPipe),
        ));
        a.send(1, Frame::Done { from: 0 }).unwrap();
        let err = a.send(1, Frame::Done { from: 0 }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        a.send(1, Frame::Done { from: 0 }).unwrap(); // fault consumed
    }

    #[test]
    fn killed_node_stops_communicating() {
        let (mut a, mut b) = pair(FaultPlan::new().on(Dir::Out, When::Nth(0), NetFault::Kill));
        a.send(1, Frame::Done { from: 0 }).unwrap(); // delivered, then crash
        assert_eq!(b.recv().unwrap(), Frame::Done { from: 0 });
        assert_eq!(
            a.send(1, Frame::Bye { from: 0 }).unwrap_err().kind(),
            io::ErrorKind::ConnectionAborted
        );
        assert_eq!(
            a.recv().unwrap_err().kind(),
            io::ErrorKind::ConnectionAborted
        );
        a.shutdown().unwrap(); // crashed shutdown is silent, not Bye
    }

    #[test]
    fn corrupted_recv_is_a_crc_error_naming_the_sender() {
        let mut cluster = loopback_cluster(2);
        let b = cluster.remove(1);
        let mut a = cluster.remove(0);
        let mut b = FaultyTransport::new(
            b,
            FaultPlan::new().on(Dir::In, When::Nth(0), NetFault::Corrupt { byte: 3 }),
        );
        a.send(
            1,
            Frame::Data {
                from: 0,
                records: vec![7; 100],
            },
        )
        .unwrap();
        let err = b.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("CRC"), "{err}");
        assert!(err.to_string().contains("node 0"), "{err}");
    }

    #[test]
    fn corrupting_a_payloadless_frame_still_fails_crc() {
        let mut cluster = loopback_cluster(2);
        let b = cluster.remove(1);
        let mut a = cluster.remove(0);
        let mut b = FaultyTransport::new(
            b,
            FaultPlan::new().on(Dir::In, When::Nth(0), NetFault::Corrupt { byte: 0 }),
        );
        a.send(1, Frame::Done { from: 0 }).unwrap();
        let err = b.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
