//! The pluggable node-to-node transport.
//!
//! A [`Transport`] gives one node of an N-node cluster a way to send a
//! [`Frame`] to any peer and to receive whatever frames peers sent it, in
//! per-peer FIFO order. Two implementations ship: the in-process
//! [`LoopbackTransport`] here (mpsc channels standing in for the
//! interconnect) and the real-socket [`TcpTransport`](crate::tcp) for
//! multi-process clusters.

use std::io;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use crate::frame::Frame;

/// One node's view of the cluster interconnect.
///
/// `send` may block (back-pressure); `recv` blocks until a frame arrives.
/// Frames from a single peer arrive in the order they were sent; frames
/// from different peers interleave arbitrarily. Sending to your own id is
/// allowed and loops the frame back into your own `recv` queue — the
/// coordinator phase relies on it so node 0 needs no special casing.
pub trait Transport: Send {
    /// This node's id in `0..nodes()`.
    fn node(&self) -> usize;

    /// Cluster size.
    fn nodes(&self) -> usize;

    /// Deliver `frame` to node `to`.
    fn send(&mut self, to: usize, frame: Frame) -> io::Result<()>;

    /// The next frame addressed to this node, blocking until one arrives.
    /// Errors when the interconnect is no longer able to deliver (peer died
    /// mid-stream, all peers gone).
    fn recv(&mut self) -> io::Result<Frame>;

    /// Like [`recv`](Transport::recv), but gives up with a `TimedOut` error
    /// if no frame arrives within `timeout` — the deadline primitive that
    /// keeps one hung or crashed peer from blocking a node forever.
    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Frame>;

    /// Graceful shutdown: tell peers this node is done sending and release
    /// whatever the implementation holds. Idempotent.
    fn shutdown(&mut self) -> io::Result<()>;
}

/// In-process transport: every node holds a `Sender` into every other
/// node's unbounded inbox. Unbounded so that a worker may ship every key
/// range before draining its own inbox without deadlocking (the TCP
/// transport gets the same property from its concurrent reader threads).
pub struct LoopbackTransport {
    node: usize,
    txs: Vec<Sender<Frame>>,
    rx: Receiver<Frame>,
}

/// Build the full cluster: one connected transport per node.
pub fn loopback_cluster(nodes: usize) -> Vec<LoopbackTransport> {
    assert!(nodes >= 1);
    let (txs, rxs): (Vec<Sender<Frame>>, Vec<Receiver<Frame>>) =
        (0..nodes).map(|_| channel()).unzip();
    rxs.into_iter()
        .enumerate()
        .map(|(node, rx)| LoopbackTransport {
            node,
            txs: txs.clone(),
            rx,
        })
        .collect()
}

impl Transport for LoopbackTransport {
    fn node(&self) -> usize {
        self.node
    }

    fn nodes(&self) -> usize {
        self.txs.len()
    }

    fn send(&mut self, to: usize, frame: Frame) -> io::Result<()> {
        self.txs[to].send(frame).map_err(|_| {
            io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!("loopback peer {to} has hung up"),
            )
        })
    }

    fn recv(&mut self) -> io::Result<Frame> {
        self.rx.recv().map_err(|_| {
            io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "all loopback peers have hung up",
            )
        })
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Frame> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no frame within {timeout:?}"),
            )),
            Err(RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "all loopback peers have hung up",
            )),
        }
    }

    fn shutdown(&mut self) -> io::Result<()> {
        // Dropping the senders is the whole protocol for channels; nothing
        // to do until then. Replace our self-sender so the inbox can drain
        // to empty once the cluster winds down.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_route_between_nodes_in_fifo_order() {
        let mut cluster = loopback_cluster(3);
        let mut c = cluster.remove(2);
        let mut b = cluster.remove(1);
        let mut a = cluster.remove(0);
        assert_eq!(a.node(), 0);
        assert_eq!(c.nodes(), 3);

        a.send(2, Frame::Done { from: 0 }).unwrap();
        a.send(
            2,
            Frame::Data {
                from: 0,
                records: vec![1, 2, 3],
            },
        )
        .unwrap();
        b.send(2, Frame::Done { from: 1 }).unwrap();

        let mut from_a = Vec::new();
        for _ in 0..3 {
            let f = c.recv().unwrap();
            if f.from() == 0 {
                from_a.push(f);
            }
        }
        assert_eq!(
            from_a,
            vec![
                Frame::Done { from: 0 },
                Frame::Data {
                    from: 0,
                    records: vec![1, 2, 3]
                }
            ]
        );
    }

    #[test]
    fn self_send_loops_back() {
        let mut cluster = loopback_cluster(1);
        let t = &mut cluster[0];
        t.send(
            0,
            Frame::Sample {
                from: 0,
                keys: vec![7; 10],
            },
        )
        .unwrap();
        assert_eq!(
            t.recv().unwrap(),
            Frame::Sample {
                from: 0,
                keys: vec![7; 10]
            }
        );
    }

    #[test]
    fn recv_timeout_surfaces_as_timed_out() {
        let mut cluster = loopback_cluster(2);
        let mut a = cluster.remove(0);
        let t0 = std::time::Instant::now();
        let err = a.recv_timeout(Duration::from_millis(30)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(t0.elapsed() < Duration::from_secs(2));
        // A queued frame still arrives instantly under a deadline.
        a.send(0, Frame::Done { from: 0 }).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)).unwrap(),
            Frame::Done { from: 0 }
        );
    }

    #[test]
    fn recv_errors_once_every_peer_is_gone() {
        let mut cluster = loopback_cluster(2);
        let mut b = cluster.remove(1);
        drop(cluster); // node 0 (and its clone of b's sender) is gone
        drop(b.txs.drain(..)); // including b's own self-sender
        let err = b.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
    }
}
