//! A hostile control frame costs its own connection, never the daemon.
//!
//! A control frame is parsed on a connection thread with the default stack,
//! and may carry up to 16 MiB of JSON. A parser that recursed once per
//! nesting level without a bound would overflow that stack — an abort, not
//! a panic — and take every job down with it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use alphasort_netsort::Frame;
use alphasort_sortd::{proto, Client, Sortd, SortdConfig};

#[test]
fn a_deeply_nested_ctrl_frame_leaves_the_daemon_serving() {
    let daemon = Sortd::start(SortdConfig::default()).expect("daemon starts");
    let mut s = TcpStream::connect(daemon.addr()).unwrap();
    Frame::Data {
        from: proto::CTRL,
        records: vec![b'['; 1 << 20],
    }
    .write_to(&mut s)
    .unwrap();
    s.flush().unwrap();
    // The daemon refuses the document and closes this connection.
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut rest = Vec::new();
    let _ = s.read_to_end(&mut rest);

    let stats = Client::new(daemon.addr())
        .stats()
        .expect("a fresh client is still answered");
    assert_eq!(stats.field_str("type").unwrap(), "stats");
    assert_eq!(daemon.drain(), (0, 0));
    assert!(daemon.pool_idle());
}
