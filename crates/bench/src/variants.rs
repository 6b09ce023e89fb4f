//! §4's exhibits: the QuickSort ([`kernel`]) over each representation the
//! paper measures to justify AlphaSort's.
//!
//! | Representation | array holds        | bytes moved per exchange |
//! |----------------|--------------------|--------------------------|
//! | `Record`       | whole records      | 2R = 200                 |
//! | `Pointer`      | record indices     | 2P = 8 (but each compare dereferences two records) |
//! | `Key`          | (key, pointer)     | 2(K+P) = 28              |
//! | `KeyPrefix`    | (prefix, pointer)  | 24, compares are integer ops |
//! | `Partition`    | (prefix, pointer), 256 buckets first | 24, one scatter pass ahead |
//! | `Codeword`     | (codeword, pointer)| 16, most ties            |
//!
//! The paper measures record sort 30% slower than pointer sort and "270%
//! slower than key sort", a further 25% from the prefix, and guesses in a
//! footnote that a 256-bucket partition sort "might beat AlphaSort".
//! `exp variants` and the `sort_variants` bench reproduce those ratios
//! next to the pipeline's own [`alphasort_core::runform::form_run`], an MSD
//! string sort over the same prefixes. Beside them sits the road §4 does
//! not take: [`rs`], replacement-selection run generation. None of this is
//! reachable from a sort driver.
//!
//! Every exhibit reports its loads and stores to an
//! [`Observer`]: `()` when timed, the cache simulator when traced — the same
//! code both ways. Records sit at [`RECORD_BASE`] + 100 × index and entry
//! arrays at [`ENTRY_BASE`]. [`trace`] walks the pipeline's own merge and
//! gather the same way.

pub mod kernel;
pub mod rs;
pub mod trace;

use alphasort_cachesim::{Observer, ENTRY_BASE, RECORD_BASE};
use alphasort_core::entry::checked_run_len;
use alphasort_dmgen::{records_of, records_of_mut, Record, KEY_LEN, RECORD_LEN};
use kernel::{quicksort_by, Element};

/// Which sort-array representation a run is formed with.
///
/// All detached representations (everything but `Record`) break key ties on
/// the record's position within the run. In-place record sort exchanges
/// records physically and is not stable (the paper's §4 concedes stability
/// to replacement-selection for exactly this reason).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Representation {
    /// Sort the 100-byte records in place.
    Record,
    /// Sort 4-byte record indices; compares dereference the records.
    Pointer,
    /// Sort (10-byte key, index) pairs.
    Key,
    /// Sort (8-byte prefix, index) pairs, full-key compare on prefix ties —
    /// AlphaSort's choice, one QuickSort over the whole run.
    KeyPrefix,
    /// `KeyPrefix` behind a 256-bucket scatter: the footnote's partition sort.
    Partition,
    /// Sort (4-byte codeword, index) pairs — the Baer & Lin compressed-key
    /// representation §4 considers: densest cache packing, but codewords
    /// "cannot be used to later merge the record pointers".
    Codeword,
}

impl Representation {
    /// The paper's four, its footnote's partition sort, Baer & Lin's codeword.
    pub const ALL: [Representation; 6] = [
        Representation::Record,
        Representation::Pointer,
        Representation::Key,
        Representation::KeyPrefix,
        Representation::Partition,
        Representation::Codeword,
    ];

    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Representation::Record => "record",
            Representation::Pointer => "pointer",
            Representation::Key => "key",
            Representation::KeyPrefix => "key-prefix",
            Representation::Partition => "partition",
            Representation::Codeword => "codeword",
        }
    }

    /// Sort the records of `buf` under this representation, reporting its
    /// memory traffic to `mem`, and return the order in which to read them:
    /// the sorted index permutation, which after the in-place record sort
    /// is the identity.
    pub fn sort<O: Observer>(self, buf: &mut [u8], mem: &mut O) -> Vec<u32> {
        match self {
            Representation::Record => {
                sort_records_in_place(buf, mem);
                (0..checked_run_len(records_of(buf).len(), "record sort")).collect()
            }
            Representation::Pointer => pointer_order(buf, mem),
            Representation::Key => key_order(buf, mem),
            Representation::KeyPrefix => key_prefix_order(buf, mem),
            Representation::Partition => partition_prefix_order(buf, mem),
            Representation::Codeword => codeword_order(buf, mem),
        }
    }
}

/// A record's compare reads its key, the first field.
impl Element for Record {
    const COMPARED: u64 = KEY_LEN as u64;
}

/// Bytes per record, the stride of the record buffer at [`RECORD_BASE`].
const RECORD: u64 = RECORD_LEN as u64;

/// Report a read of record `idx`'s key.
#[inline(always)]
fn read_key<O: Observer>(mem: &mut O, idx: u32) {
    mem.read(RECORD_BASE + u64::from(idx) * RECORD, KEY_LEN as u64);
}

/// One entry per record of a run, built from the record and its index: the
/// paper's "streamed into an array" pass, one key read and one entry store
/// per record.
fn entries<E, O: Observer>(
    records: &[Record],
    mem: &mut O,
    entry: impl Fn(&Record, u32) -> E,
) -> Vec<E> {
    let size = size_of::<E>() as u64;
    (0..checked_run_len(records.len(), "exhibit entries"))
        .map(|idx| {
            read_key(mem, idx);
            mem.write(ENTRY_BASE + u64::from(idx) * size, size);
            entry(&records[idx as usize], idx)
        })
        .collect()
}

/// A *(key-prefix, pointer)* pair — AlphaSort's choice.
///
/// 8 prefix bytes as a big-endian `u64` plus a 4-byte record index: 12 bytes
/// more than 8× denser than records, and comparable with one integer
/// compare except on prefix ties.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixEntry {
    /// First 8 key bytes, big-endian, so integer order = byte-string order.
    pub prefix: u64,
    /// Record index within the run's buffer.
    pub idx: u32,
}

impl Element for PrefixEntry {}

impl PrefixEntry {
    /// Extract the entry array for a whole record buffer — the paper's
    /// "streamed into an array" step that runs while input arrives.
    pub fn extract<O: Observer>(records: &[Record], mem: &mut O) -> Vec<PrefixEntry> {
        entries(records, mem, |r, idx| PrefixEntry {
            prefix: r.prefix(),
            idx,
        })
    }
}

/// The order the key-prefix exhibits sort into: prefix, full key on prefix
/// ties — §4's degenerate-case fall-through, which dereferences both
/// records — then arrival index, which makes the order total and the
/// sorted permutation unique.
#[inline]
pub fn prefix_entry_less<O: Observer>(
    records: &[Record],
    mem: &mut O,
    a: &PrefixEntry,
    b: &PrefixEntry,
) -> bool {
    if a.prefix != b.prefix {
        a.prefix < b.prefix
    } else {
        keys_less(records, mem, a.idx, b.idx)
    }
}

/// (full key, index) order of records `a` and `b`, read through their
/// pointers — unless they are one record (the partition scan meeting the
/// pivot in its own slot), which is not less than itself and reads nothing.
#[inline]
fn keys_less<O: Observer>(records: &[Record], mem: &mut O, a: u32, b: u32) -> bool {
    if a == b {
        return false;
    }
    read_key(mem, a);
    read_key(mem, b);
    (&records[a as usize].key, a) < (&records[b as usize].key, b)
}

/// A *(full key, pointer)* pair — §4's "key sort" (detached key sort).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyEntry {
    /// The complete 10-byte key.
    pub key: [u8; KEY_LEN],
    /// Record index within the run's buffer.
    pub idx: u32,
}

impl Element for KeyEntry {}

/// A *(codeword, pointer)* pair — the Baer & Lin (1989) representation §4
/// discusses: "They recommended keys be prefix compressed into codewords so
/// that the (pointer, codeword) QuickSort would fit in cache. We did not
/// use their version of codewords since they cannot be used to later merge
/// the record pointers."
///
/// The codeword here is the first 4 key bytes as a big-endian `u32`: the
/// entry shrinks to 8 bytes (twice the cache density of [`PrefixEntry`]),
/// at the price of 2³² times more ties than the 64-bit prefix — the merge
/// handicap the authors rejected it for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodewordEntry {
    /// First 4 key bytes, big-endian.
    pub code: u32,
    /// Record index within the run's buffer.
    pub idx: u32,
}

impl Element for CodewordEntry {}

/// §4 "record sort": QuickSort the records themselves. Each exchange moves
/// 200 bytes; each compare touches two records in situ.
pub fn sort_records_in_place<O: Observer>(buf: &mut [u8], mem: &mut O) {
    let records = records_of_mut(buf);
    quicksort_by(records, mem, RECORD_BASE, |_, a, b| a.key < b.key);
}

/// §4 "pointer sort": QuickSort indices; every compare dereferences two
/// records (poor locality — the point of the experiment).
pub fn pointer_order<O: Observer>(buf: &[u8], mem: &mut O) -> Vec<u32> {
    let records = records_of(buf);
    let mut order: Vec<u32> = (0..checked_run_len(records.len(), "pointer_order"))
        .inspect(|&i| mem.write(ENTRY_BASE + u64::from(i) * 4, 4))
        .collect();
    // The index tie-break keeps equal keys in input order: stable for free.
    quicksort_by(&mut order, mem, ENTRY_BASE, |mem, &a, &b| {
        keys_less(records, mem, a, b)
    });
    order
}

/// §4 "key sort" (detached keys): QuickSort (full key, index) pairs; no
/// record access during the sort.
pub fn key_order<O: Observer>(buf: &[u8], mem: &mut O) -> Vec<u32> {
    let mut entries = entries(records_of(buf), mem, |r, idx| KeyEntry { key: r.key, idx });
    quicksort_by(&mut entries, mem, ENTRY_BASE, |_, a, b| {
        (&a.key, a.idx) < (&b.key, b.idx)
    });
    entries.into_iter().map(|e| e.idx).collect()
}

/// AlphaSort's key-prefix sort as one QuickSort over the whole run: integer
/// compares on the 8-byte prefix, full-key fall-through only on ties.
pub fn key_prefix_order<O: Observer>(buf: &[u8], mem: &mut O) -> Vec<u32> {
    let records = records_of(buf);
    let mut entries = PrefixEntry::extract(records, mem);
    quicksort_by(&mut entries, mem, ENTRY_BASE, |mem, a, b| {
        prefix_entry_less(records, mem, a, b)
    });
    entries.into_iter().map(|e| e.idx).collect()
}

/// The footnote's partition sort (DPG, Cooperman et al.): a counting pass
/// scatters the prefix entries into 256 buckets on the leading key byte,
/// then each bucket is QuickSorted under [`prefix_entry_less`] — whose own
/// most significant byte that is, so the order is [`key_prefix_order`]'s.
/// The scattered array follows the entry array in memory.
pub fn partition_prefix_order<O: Observer>(buf: &[u8], mem: &mut O) -> Vec<u32> {
    const SIZE: u64 = size_of::<PrefixEntry>() as u64;
    let records = records_of(buf);
    let entries = PrefixEntry::extract(records, mem);
    let scattered_at = ENTRY_BASE + entries.len() as u64 * SIZE;
    let bucket = |e: &PrefixEntry| (e.prefix >> 56) as usize;
    // starts[b]..starts[b + 1] is bucket b's slice of the scattered array.
    let mut starts = [0usize; 257];
    for (i, e) in entries.iter().enumerate() {
        mem.read(ENTRY_BASE + i as u64 * SIZE, 8);
        starts[bucket(e) + 1] += 1;
    }
    for b in 0..256 {
        starts[b + 1] += starts[b];
    }
    let mut scattered = vec![PrefixEntry { prefix: 0, idx: 0 }; entries.len()];
    let mut cursor = starts;
    for (i, e) in entries.into_iter().enumerate() {
        let b = bucket(&e);
        mem.read(ENTRY_BASE + i as u64 * SIZE, SIZE);
        mem.write(scattered_at + cursor[b] as u64 * SIZE, SIZE);
        scattered[cursor[b]] = e;
        cursor[b] += 1;
    }
    for b in 0..256 {
        let at = scattered_at + starts[b] as u64 * SIZE;
        quicksort_by(
            &mut scattered[starts[b]..starts[b + 1]],
            mem,
            at,
            |mem, x, y| prefix_entry_less(records, mem, x, y),
        );
    }
    scattered.into_iter().map(|e| e.idx).collect()
}

/// Baer & Lin codeword sort: 8-byte (u32 codeword, u32 index) entries —
/// densest packing, most ties, each tie a dereference of both records.
pub fn codeword_order<O: Observer>(buf: &[u8], mem: &mut O) -> Vec<u32> {
    let records = records_of(buf);
    let mut entries = entries(records, mem, |r, idx| CodewordEntry {
        code: u32::from_be_bytes([r.key[0], r.key[1], r.key[2], r.key[3]]),
        idx,
    });
    quicksort_by(&mut entries, mem, ENTRY_BASE, |mem, a, b| {
        if a.code != b.code {
            a.code < b.code
        } else {
            keys_less(records, mem, a.idx, b.idx)
        }
    });
    entries.into_iter().map(|e| e.idx).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{generate, GenConfig, KeyDistribution};

    /// Every exhibit against a reference that shares no logic with it: the
    /// standard library's sort on (full key, arrival index). The detached
    /// representations break ties on arrival index, so their permutation is
    /// unique and must match exactly; record sort is unstable, so it is held
    /// to sorted keys and an unchanged multiset of records.
    #[test]
    fn every_exhibit_matches_std_sort_on_every_distribution_and_size() {
        for (name, dist) in KeyDistribution::STRESS {
            for records in [0u64, 1, 2, 15, 16, 17, 24, 25, 100, 1_000, 4_096] {
                let (data, _) = generate(GenConfig {
                    records,
                    seed: 0xF0221 ^ records,
                    dist,
                });
                let input = records_of(&data);
                let mut want: Vec<u32> = (0..input.len() as u32).collect();
                want.sort_by(|&a, &b| {
                    (&input[a as usize].key, a).cmp(&(&input[b as usize].key, b))
                });
                for rep in Representation::ALL {
                    let what = format!("{} [{name}, n={records}]", rep.name());
                    let mut buf = data.clone();
                    let order = rep.sort(&mut buf, &mut ());
                    if rep != Representation::Record {
                        assert_eq!(buf, data, "{what}: a detached sort moved records");
                        assert_eq!(order, want, "{what}");
                        continue;
                    }
                    let sorted = records_of(&buf);
                    assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key), "{what}");
                    let mut got: Vec<_> = sorted.iter().map(Record::as_bytes).collect();
                    let mut all: Vec<_> = input.iter().map(Record::as_bytes).collect();
                    got.sort();
                    all.sort();
                    assert!(got == all, "{what}: records lost or invented");
                }
            }
        }
    }

    #[test]
    fn prefix_entry_is_12_bytes_padded_to_16() {
        // The array stride is what matters for cache behaviour.
        assert!(core::mem::size_of::<PrefixEntry>() <= 16);
    }

    #[test]
    fn extract_preserves_indices() {
        let (data, _) = generate(GenConfig::datamation(50, 1));
        let records = records_of(&data);
        let entries = PrefixEntry::extract(records, &mut ());
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.idx as usize, i);
            assert_eq!(e.prefix, records[i].prefix());
        }
    }

    #[test]
    fn key_entry_is_padded_to_16_bytes() {
        // The array stride is what matters for cache behaviour.
        assert_eq!(core::mem::size_of::<KeyEntry>(), 16);
        assert_eq!(core::mem::size_of::<CodewordEntry>(), 8);
    }
}
