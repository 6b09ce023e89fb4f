//! Programmable fault injection for robustness testing.
//!
//! One rule engine serves every layer that injects faults: a [`FaultPlan`]
//! counts each layer's operations per [`Dir`]ection and says, per
//! operation, which planned fault (if any) fires. The layer only applies
//! it. Here [`FaultyStorage`] wraps any [`Storage`] and fails or corrupts
//! reads and writes; netsort's `FaultyTransport` drops, delays, fails,
//! corrupts or crashes on the same plan. Integration tests use these to
//! prove that the sort surfaces IO failures as errors and that the
//! validator catches silent corruption.

use std::io;
use std::sync::{Arc, Mutex};

use crate::backend::Storage;

/// Which way an operation moves data: storage reads and network receives
/// are `In`; writes and sends are `Out`. Each direction has its own
/// 0-based operation counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Reads and receives.
    In,
    /// Writes and sends.
    Out,
}

/// When a rule fires, against its direction's 0-based operation counter.
#[derive(Clone, Copy, Debug)]
pub enum When {
    /// Exactly the `n`-th operation; the rule is used up when it fires.
    Nth(u64),
    /// Every `n`-th operation (ops `n-1`, `2n-1`, …); never used up.
    Every(u64),
    /// Every operation from the `n`-th onward (a disk that dies and stays
    /// dead); never used up.
    After(u64),
}

impl When {
    fn fires(self, op: u64) -> bool {
        match self {
            When::Nth(n) => op == n,
            When::Every(n) => (op + 1).is_multiple_of(n),
            When::After(n) => op >= n,
        }
    }
}

/// Rules of the form "in direction `dir`, when `when`, inject `F`", plus
/// the operation counters they fire against. One-shot (`Nth`) rules are
/// used up when they fire; recurring (`Every`, `After`) rules stay, which
/// is what retry-budget tests need (a disk that *keeps* failing, not one
/// that hiccups once). The first rule that fires wins.
#[derive(Clone, Debug)]
pub struct FaultPlan<F> {
    rules: Vec<(Dir, When, F)>,
    ops: [u64; 2],
}

impl<F> Default for FaultPlan<F> {
    fn default() -> Self {
        FaultPlan {
            rules: Vec::new(),
            ops: [0; 2],
        }
    }
}

impl<F: Clone> FaultPlan<F> {
    /// Empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Inject `fault` on the `dir` operations that `when` picks.
    ///
    /// # Panics
    /// If `when` is `Every(0)`.
    pub fn on(mut self, dir: Dir, when: When, fault: F) -> Self {
        assert!(
            !matches!(when, When::Every(0)),
            "When::Every period must be positive"
        );
        self.rules.push((dir, when, fault));
        self
    }

    /// Count one `dir` operation: its 0-based index, and the fault that
    /// fires on it, if any.
    pub fn next(&mut self, dir: Dir) -> (u64, Option<F>) {
        let op = self.ops[dir as usize];
        self.ops[dir as usize] += 1;
        let fired = self
            .rules
            .iter()
            .position(|&(d, w, _)| d == dir && w.fires(op));
        let fault = fired.map(|i| match self.rules[i].1 {
            When::Nth(_) => self.rules.remove(i).2,
            _ => self.rules[i].2.clone(),
        });
        (op, fault)
    }
}

/// One injected storage failure; the rule's [`Dir`] says whether it hits a
/// read or a write.
#[derive(Clone, Debug)]
pub enum Fault {
    /// The operation fails with this error kind.
    Fail(io::ErrorKind),
    /// The operation succeeds but one byte is flipped: in the caller's
    /// buffer on a read, on media on a write (silent corruption).
    Corrupt {
        /// Index of the byte within the buffer to flip.
        byte: usize,
    },
}

/// Storage wrapper that injects the planned faults.
pub struct FaultyStorage {
    inner: Arc<dyn Storage>,
    plan: Mutex<FaultPlan<Fault>>,
}

impl FaultyStorage {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: Arc<dyn Storage>, plan: FaultPlan<Fault>) -> Self {
        FaultyStorage {
            inner,
            plan: Mutex::new(plan),
        }
    }

    /// Holds the plan's lock for the rule lookup only, never across the IO.
    fn next(&self, dir: Dir) -> (u64, Option<Fault>) {
        self.plan.lock().unwrap().next(dir)
    }
}

fn flip(buf: &mut [u8], byte: usize) {
    if let Some(b) = buf.get_mut(byte) {
        *b ^= 0xFF;
    }
}

impl Storage for FaultyStorage {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        match self.next(Dir::In) {
            (op, Some(Fault::Fail(kind))) => Err(io::Error::new(
                kind,
                format!("injected read fault at op {op}"),
            )),
            (_, Some(Fault::Corrupt { byte })) => {
                self.inner.read_at(offset, buf)?;
                flip(buf, byte);
                Ok(())
            }
            (_, None) => self.inner.read_at(offset, buf),
        }
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        match self.next(Dir::Out) {
            (op, Some(Fault::Fail(kind))) => Err(io::Error::new(
                kind,
                format!("injected write fault at op {op}"),
            )),
            (_, Some(Fault::Corrupt { byte })) => {
                let mut copy = data.to_vec();
                flip(&mut copy, byte);
                self.inner.write_at(offset, &copy)
            }
            (_, None) => self.inner.write_at(offset, data),
        }
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStorage;

    fn faulty(plan: FaultPlan<Fault>) -> FaultyStorage {
        FaultyStorage::new(Arc::new(MemStorage::new()), plan)
    }

    #[test]
    fn clean_plan_passes_through() {
        let s = faulty(FaultPlan::new());
        s.write_at(0, b"ok").unwrap();
        let mut buf = [0u8; 2];
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ok");
    }

    #[test]
    fn nth_read_fails_once() {
        let s = faulty(FaultPlan::new().on(
            Dir::In,
            When::Nth(1),
            Fault::Fail(io::ErrorKind::TimedOut),
        ));
        s.write_at(0, b"abcd").unwrap();
        let mut buf = [0u8; 4];
        s.read_at(0, &mut buf).unwrap(); // read 0: fine
        let err = s.read_at(0, &mut buf).unwrap_err(); // read 1: injected
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        s.read_at(0, &mut buf).unwrap(); // read 2: fault consumed
    }

    #[test]
    fn nth_write_fails() {
        let s = faulty(FaultPlan::new().on(
            Dir::Out,
            When::Nth(0),
            Fault::Fail(io::ErrorKind::WriteZero),
        ));
        assert_eq!(
            s.write_at(0, b"x").unwrap_err().kind(),
            io::ErrorKind::WriteZero
        );
        s.write_at(0, b"x").unwrap();
    }

    #[test]
    fn corrupt_read_flips_one_byte() {
        let s = faulty(FaultPlan::new().on(Dir::In, When::Nth(0), Fault::Corrupt { byte: 2 }));
        s.write_at(0, b"abcd").unwrap();
        let mut buf = [0u8; 4];
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(buf[0], b'a');
        assert_eq!(buf[2], b'c' ^ 0xFF);
    }

    #[test]
    fn corrupt_write_lands_on_media() {
        let s = faulty(FaultPlan::new().on(Dir::Out, When::Nth(0), Fault::Corrupt { byte: 0 }));
        s.write_at(0, b"zz").unwrap();
        let mut buf = [0u8; 2];
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(buf[0], b'z' ^ 0xFF);
        assert_eq!(buf[1], b'z');
    }

    #[test]
    fn every_nth_read_fails_forever() {
        let s = faulty(FaultPlan::new().on(
            Dir::In,
            When::Every(3),
            Fault::Fail(io::ErrorKind::TimedOut),
        ));
        s.write_at(0, b"abcd").unwrap();
        let mut buf = [0u8; 4];
        // Every 3rd read fails, i.e. ops where (op + 1) % 3 == 0.
        let mut failures = Vec::new();
        for op in 0..10 {
            if s.read_at(0, &mut buf).is_err() {
                failures.push(op);
            }
        }
        assert_eq!(failures, vec![2, 5, 8]);
    }

    #[test]
    fn every_first_means_all_ops_fail() {
        let s = faulty(FaultPlan::new().on(
            Dir::Out,
            When::Every(1),
            Fault::Fail(io::ErrorKind::WriteZero),
        ));
        for _ in 0..5 {
            assert_eq!(
                s.write_at(0, b"x").unwrap_err().kind(),
                io::ErrorKind::WriteZero
            );
        }
    }

    #[test]
    fn after_n_the_disk_stays_dead() {
        let s = faulty(FaultPlan::new().on(
            Dir::Out,
            When::After(2),
            Fault::Fail(io::ErrorKind::PermissionDenied),
        ));
        s.write_at(0, b"a").unwrap(); // op 0
        s.write_at(0, b"b").unwrap(); // op 1
        for _ in 0..4 {
            // ops 2.. all fail, forever
            assert_eq!(
                s.write_at(0, b"c").unwrap_err().kind(),
                io::ErrorKind::PermissionDenied
            );
        }
    }

    #[test]
    fn recurring_read_after() {
        let s = faulty(FaultPlan::new().on(
            Dir::In,
            When::After(1),
            Fault::Fail(io::ErrorKind::TimedOut),
        ));
        s.write_at(0, b"zz").unwrap();
        let mut buf = [0u8; 2];
        s.read_at(0, &mut buf).unwrap(); // op 0 fine
        assert!(s.read_at(0, &mut buf).is_err());
        assert!(s.read_at(0, &mut buf).is_err());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn every_zero_is_refused() {
        let _ = FaultPlan::new().on(Dir::In, When::Every(0), Fault::Corrupt { byte: 0 });
    }

    #[test]
    fn works_behind_a_sim_disk() {
        use crate::catalog;
        use crate::disk::{Pacing, SimDisk};
        let storage = Arc::new(faulty(FaultPlan::new().on(
            Dir::In,
            When::Nth(0),
            Fault::Fail(io::ErrorKind::Interrupted),
        )));
        let d = SimDisk::new("f0", catalog::uncapped(), storage, Pacing::Modeled, None);
        d.write(0, b"data").unwrap();
        assert!(d.read(0, 4).is_err());
        assert_eq!(d.read(0, 4).unwrap(), b"data");
    }
}
