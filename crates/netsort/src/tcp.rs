//! The real-socket transport: one `std::net::TcpStream` per directed peer
//! pair, length-prefixed [`Frame`]s on the wire.
//!
//! Topology: every node binds a listener; node A's sends to node B travel
//! over the connection A dialed to B's listener, so an N-node cluster has
//! N·(N-1) simplex connections and no per-connection handshake is needed —
//! every frame already carries its sender id. Inbound connections each get
//! a reader thread that decodes frames into one shared inbox, which is what
//! lets a worker ship every peer's key range before draining its own inbox
//! without deadlock.
//!
//! Failure semantics: a peer that closes without sending `Bye` (crash, cut
//! connection) surfaces as a `ConnectionAborted` error from
//! [`TcpTransport::recv`]; dial failures retry with bounded exponential
//! backoff per [`RetryPolicy`] before giving up.

use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::frame::Frame;
use crate::transport::Transport;

/// Bounded-backoff retry schedule for dialing peers that have not bound
/// their listener yet (cluster members start in arbitrary order).
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Connection attempts before giving up.
    pub attempts: u32,
    /// Sleep after the first failed attempt.
    pub initial_backoff: Duration,
    /// Backoff doubles per attempt but never exceeds this.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 10,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

/// Dial `addr`, retrying per `policy`. Returns the last error when every
/// attempt fails.
pub fn connect_with_retry(addr: SocketAddr, policy: &RetryPolicy) -> io::Result<TcpStream> {
    assert!(policy.attempts >= 1);
    let mut backoff = policy.initial_backoff;
    let mut last = None;
    for attempt in 0..policy.attempts {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
        if attempt + 1 < policy.attempts {
            thread::sleep(backoff);
            backoff = (backoff * 2).min(policy.max_backoff);
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("no connection attempts made")))
}

/// Bind one loopback listener per node; returns the listeners and their
/// (ephemeral-port) addresses in node order.
pub fn bind_cluster(nodes: usize) -> io::Result<(Vec<TcpListener>, Vec<SocketAddr>)> {
    let mut listeners = Vec::with_capacity(nodes);
    let mut addrs = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let l = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(l.local_addr()?);
        listeners.push(l);
    }
    Ok((listeners, addrs))
}

/// What a reader thread forwards into the shared inbox.
type Event = io::Result<Frame>;

/// One node's TCP transport.
pub struct TcpTransport {
    node: usize,
    nodes: usize,
    /// Outbound stream per peer; `None` at our own index and after a
    /// connection has been killed or shut down.
    outbound: Vec<Option<TcpStream>>,
    inbox: Receiver<Event>,
    /// Kept for self-sends (and to keep `recv` from seeing a hangup while
    /// this transport is alive).
    inbox_tx: Sender<Event>,
    closed: bool,
}

impl TcpTransport {
    /// Join the cluster as `node`: accept one inbound connection from every
    /// peer on `listener` while dialing every peer's address in `addrs`
    /// (retrying per `policy`). Returns once all 2·(N-1) connections exist.
    pub fn establish(
        node: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        policy: &RetryPolicy,
    ) -> io::Result<TcpTransport> {
        let nodes = addrs.len();
        assert!(node < nodes);
        let (inbox_tx, inbox) = channel();

        // Accept peers in the background while we dial; reader threads are
        // detached — they exit on Bye, EOF, or error, and hold only a clone
        // of the inbox sender. The acceptor itself must be joined on *every*
        // exit path: a thread left parked in `accept()` pins the listener
        // (and its port) for the life of the process.
        let accept_tx = inbox_tx.clone();
        let expected = nodes - 1;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_seen = Arc::clone(&stop);
        let wake_addr = listener.local_addr()?;
        let acceptor = thread::spawn(move || -> io::Result<()> {
            for _ in 0..expected {
                let (stream, _) = listener.accept()?;
                if stop_seen.load(Ordering::Acquire) {
                    // The establishing thread gave up and self-connected to
                    // unpark us; drop the listener and bail.
                    return Ok(());
                }
                stream.set_nodelay(true).ok();
                let tx = accept_tx.clone();
                thread::spawn(move || read_loop(stream, tx));
            }
            Ok(())
        });

        let mut outbound = Vec::with_capacity(nodes);
        for (peer, addr) in addrs.iter().enumerate() {
            if peer == node {
                outbound.push(None);
            } else {
                match connect_with_retry(*addr, policy) {
                    Ok(s) => outbound.push(Some(s)),
                    Err(e) => {
                        // Unblock the acceptor (it may still be waiting for
                        // peers that will never dial) and join it so the
                        // failed establish leaves no thread on the listener.
                        stop.store(true, Ordering::Release);
                        let _ = TcpStream::connect(wake_addr);
                        let _ = acceptor.join();
                        return Err(e);
                    }
                }
            }
        }
        acceptor
            .join()
            .map_err(|_| io::Error::other("acceptor thread panicked"))??;

        Ok(TcpTransport {
            node,
            nodes,
            outbound,
            inbox,
            inbox_tx,
            closed: false,
        })
    }

    /// Fault-injection hook: hard-kill the connection to `peer` as if the
    /// network dropped it — no `Bye`, both directions torn down. Later
    /// sends to that peer fail; the peer's `recv` reports
    /// `ConnectionAborted`.
    ///
    /// Returns whether a live connection was actually torn down. The chaos
    /// harness drives this programmatically, so it is total: an
    /// out-of-range `peer`, `peer == self.node()` (we hold no connection to
    /// ourselves) and an already-killed connection are all no-ops that
    /// return `false` instead of panicking.
    pub fn kill_connection(&mut self, peer: usize) -> bool {
        match self.outbound.get_mut(peer).and_then(Option::take) {
            Some(stream) => {
                stream.shutdown(Shutdown::Both).ok();
                true
            }
            None => false,
        }
    }
}

/// A stoppable TCP accept loop: the server-side primitive `sortd` (and any
/// other long-running listener) builds on.
///
/// `TcpTransport::establish` accepts a *bounded* number of peers and joins
/// its acceptor inline; a daemon instead accepts forever, so the thread
/// parked in `accept()` must be unparked deliberately on shutdown — a
/// thread left in `accept()` pins the listener (and its port) for the life
/// of the process, and a dropped `JoinHandle` hides that leak.
/// [`AcceptLoop::stop`] raises a flag, self-connects to unpark the
/// acceptor, and joins it; after `stop` returns, the port is closed and no
/// acceptor thread remains. Stopping is idempotent and also runs on `Drop`.
pub struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl AcceptLoop {
    /// Accept connections on `listener`, handing each stream to `on_conn`
    /// (which typically spawns or dispatches to a handler thread; the
    /// accept loop itself must stay unblocked).
    pub fn spawn<F>(listener: TcpListener, mut on_conn: F) -> io::Result<AcceptLoop>
    where
        F: FnMut(TcpStream) + Send + 'static,
    {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_seen = Arc::clone(&stop);
        let handle = thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stop_seen.load(Ordering::Acquire) {
                        // The stop()ing thread self-connected to unpark us;
                        // drop the stream *and* the listener and bail. A
                        // real client racing the shutdown is dropped too —
                        // it sees a reset, the draining server's answer.
                        return;
                    }
                    stream.set_nodelay(true).ok();
                    on_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    if stop_seen.load(Ordering::Acquire) {
                        return;
                    }
                    // Transient accept errors (EMFILE, aborted handshakes)
                    // must not kill the daemon's front door.
                    thread::sleep(Duration::from_millis(10));
                }
            }
        });
        Ok(AcceptLoop {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting: raise the flag, unpark the acceptor with a
    /// self-connection, and join it. Idempotent; after the first call
    /// returns, the listener is closed and the acceptor thread is gone.
    pub fn stop(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Unpark `accept()`. If the connect fails the acceptor was already
        // past accept (or the listener died); the flag still stops it.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Decode frames off one inbound connection into the shared inbox.
fn read_loop(stream: TcpStream, tx: Sender<Event>) {
    let mut r = BufReader::new(stream);
    loop {
        match Frame::read_from(&mut r) {
            Ok(Some(Frame::Bye { .. })) => break, // graceful goodbye
            Ok(Some(frame)) => {
                if tx.send(Ok(frame)).is_err() {
                    break; // receiver is gone; stop decoding
                }
            }
            Ok(None) => {
                // EOF without Bye: the peer vanished mid-protocol.
                let _ = tx.send(Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "peer closed connection without Bye",
                )));
                break;
            }
            Err(e) => {
                let _ = tx.send(Err(e));
                break;
            }
        }
    }
}

impl Transport for TcpTransport {
    fn node(&self) -> usize {
        self.node
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn send(&mut self, to: usize, frame: Frame) -> io::Result<()> {
        if to == self.node {
            return self
                .inbox_tx
                .send(Ok(frame))
                .map_err(|_| io::Error::new(io::ErrorKind::ConnectionAborted, "own inbox closed"));
        }
        let stream = self.outbound[to].as_mut().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotConnected,
                format!("no live connection to node {to}"),
            )
        })?;
        frame.write_to(stream)?;
        stream.flush()
    }

    fn recv(&mut self) -> io::Result<Frame> {
        match self.inbox.recv() {
            Ok(event) => event,
            Err(_) => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "all peers disconnected",
            )),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Frame> {
        match self.inbox.recv_timeout(timeout) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no frame within {timeout:?}"),
            )),
            Err(RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "all peers disconnected",
            )),
        }
    }

    fn shutdown(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        let from = self.node as u32;
        for stream in self.outbound.iter_mut().filter_map(Option::as_mut) {
            // Best effort: the peer may already be gone.
            let _ = Frame::Bye { from }.write_to(stream);
            let _ = stream.shutdown(Shutdown::Write);
        }
        Ok(())
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_node_cluster_exchanges_frames() {
        let (mut listeners, addrs) = bind_cluster(2).unwrap();
        let l1 = listeners.pop().unwrap();
        let l0 = listeners.pop().unwrap();
        let addrs2 = addrs.clone();
        let policy = RetryPolicy::default();
        let p2 = policy.clone();

        let peer = thread::spawn(move || {
            let mut t = TcpTransport::establish(1, l1, &addrs2, &p2).unwrap();
            t.send(
                0,
                Frame::Data {
                    from: 1,
                    records: vec![9; 300],
                },
            )
            .unwrap();
            t.send(0, Frame::Done { from: 1 }).unwrap();
            // Echo whatever node 0 sends back, then shut down cleanly.
            let got = t.recv().unwrap();
            t.shutdown().unwrap();
            got
        });

        let mut t = TcpTransport::establish(0, l0, &addrs, &policy).unwrap();
        assert_eq!(
            t.recv().unwrap(),
            Frame::Data {
                from: 1,
                records: vec![9; 300]
            }
        );
        assert_eq!(t.recv().unwrap(), Frame::Done { from: 1 });
        t.send(1, Frame::Done { from: 0 }).unwrap();
        t.shutdown().unwrap();
        assert_eq!(peer.join().unwrap(), Frame::Done { from: 0 });
    }

    #[test]
    fn retry_gives_up_with_bounded_attempts() {
        // A listener we immediately drop: the port is (almost certainly)
        // unbound, so every dial fails fast.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let t0 = std::time::Instant::now();
        let policy = RetryPolicy {
            attempts: 3,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(10),
        };
        assert!(connect_with_retry(addr, &policy).is_err());
        // 2 sleeps: 5ms + 10ms. Bounded well under a second.
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn retry_survives_late_listener() {
        // Reserve an address, drop the listener, rebind it after a delay —
        // the dialer's backoff must ride out the gap.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        drop(l);
        let binder = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            let l = TcpListener::bind(addr).unwrap();
            let _ = l.accept().unwrap();
        });
        let policy = RetryPolicy {
            attempts: 20,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
        };
        connect_with_retry(addr, &policy).unwrap();
        binder.join().unwrap();
    }

    #[test]
    fn failed_establish_leaves_no_thread_on_the_listener() {
        // Node 0's peer list points at a port nobody will ever bind; the
        // dial fails fast and `establish` must join its acceptor thread and
        // release the listener on the way out.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let my_addr = l0.local_addr().unwrap();
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let policy = RetryPolicy {
            attempts: 2,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        };
        let t0 = std::time::Instant::now();
        let err = match TcpTransport::establish(0, l0, &[my_addr, dead_addr], &policy) {
            Ok(_) => panic!("establish against an unbound peer must fail"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "establish must not hang"
        );
        // The listener is closed — were the acceptor still parked on it, a
        // dial would be accepted (or sit in its backlog) instead of being
        // refused.
        let e = TcpStream::connect(my_addr).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused, "{e}");
    }

    #[test]
    fn accept_loop_stop_is_clean_under_concurrent_accepts() {
        use std::sync::atomic::AtomicUsize;

        // Regression (sortd drain): stopping the accept loop while clients
        // are still dialing must join the acceptor — no thread left parked
        // in accept() pinning the listener — and release the port.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let served = Arc::new(AtomicUsize::new(0));
        let served2 = Arc::clone(&served);
        let mut acceptor = AcceptLoop::spawn(listener, move |stream| {
            served2.fetch_add(1, Ordering::SeqCst);
            drop(stream);
        })
        .unwrap();
        let addr = acceptor.addr();

        // A burst of concurrent connects races the accept loop.
        let dialers: Vec<_> = (0..8)
            .map(|_| {
                thread::spawn(move || {
                    let _ = TcpStream::connect(addr);
                })
            })
            .collect();
        for d in dialers {
            d.join().unwrap();
        }

        let t0 = std::time::Instant::now();
        acceptor.stop();
        acceptor.stop(); // idempotent
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "stop() must join promptly, not hang on accept()"
        );
        // The listener is closed: were the acceptor still parked on it, the
        // dial would be accepted (or queue in its backlog) instead of
        // being refused.
        let err = TcpStream::connect(addr).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
        // Every pre-stop connection was either served or reset — none can
        // be sitting half-accepted. (The exact count is racy by design.)
        assert!(served.load(Ordering::SeqCst) <= 8);
    }

    #[test]
    fn kill_connection_is_total() {
        let (mut listeners, addrs) = bind_cluster(2).unwrap();
        let l1 = listeners.pop().unwrap();
        let l0 = listeners.pop().unwrap();
        let addrs2 = addrs.clone();
        let policy = RetryPolicy::default();
        let p2 = policy.clone();
        let peer = thread::spawn(move || {
            let mut t = TcpTransport::establish(1, l1, &addrs2, &p2).unwrap();
            t.shutdown().unwrap();
        });
        let mut t = TcpTransport::establish(0, l0, &addrs, &policy).unwrap();
        assert!(!t.kill_connection(0), "self: no connection to kill");
        assert!(!t.kill_connection(99), "out of range: no panic, no-op");
        assert!(t.kill_connection(1), "live peer connection torn down");
        assert!(!t.kill_connection(1), "second kill is a no-op");
        peer.join().unwrap();
    }

    #[test]
    fn abrupt_close_surfaces_as_connection_aborted() {
        let (mut listeners, addrs) = bind_cluster(2).unwrap();
        let l1 = listeners.pop().unwrap();
        let l0 = listeners.pop().unwrap();
        let addrs2 = addrs.clone();
        let policy = RetryPolicy::default();
        let p2 = policy.clone();

        let peer = thread::spawn(move || {
            let mut t = TcpTransport::establish(1, l1, &addrs2, &p2).unwrap();
            t.send(
                0,
                Frame::Data {
                    from: 1,
                    records: vec![1; 64],
                },
            )
            .unwrap();
            t.kill_connection(0); // vanish mid-exchange, no Bye
        });

        let mut t = TcpTransport::establish(0, l0, &addrs, &policy).unwrap();
        assert_eq!(
            t.recv().unwrap(),
            Frame::Data {
                from: 1,
                records: vec![1; 64]
            }
        );
        let err = t.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        peer.join().unwrap();
    }
}
