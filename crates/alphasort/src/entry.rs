//! Record layouts, where a record's key sits, and [`key_prefix_u64`]: §4's
//! *(key-prefix, pointer)* entries hold a prefix "normalized to an integer
//! type, allowing most comparisons to be resolved with an integer
//! comparison", and the size ceilings below bound the pointer.

use std::io;

use alphasort_dmgen::{parse_var_record, VarFrameError, KEY_LEN, RECORD_LEN};

/// Which record model a sort operates on. The layout is threaded through
/// [`crate::SortConfig`], both drivers, `sortcli --layout`, and the sortd
/// job manifest; the choice moves CPU time only — for a given layout every
/// configuration produces byte-identical output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecordLayout {
    /// Fixed Datamation records: 100 bytes, 10-byte key at offset 0. The
    /// fast path — every fixed-stride assumption stays intact.
    #[default]
    Datamation,
    /// Length-prefixed variable-length records with an (offset, length)
    /// string-key descriptor (see [`alphasort_dmgen::varlen`]), sorted by
    /// the LCP/OVC-aware pipeline in [`crate::varlen`].
    VarLen,
}

impl RecordLayout {
    /// Every registered layout, fast path first.
    pub const ALL: [RecordLayout; 2] = [RecordLayout::Datamation, RecordLayout::VarLen];

    /// Registry name (CLI flag value, manifest field value, oracle key).
    pub fn name(self) -> &'static str {
        match self {
            RecordLayout::Datamation => "datamation",
            RecordLayout::VarLen => "varlen",
        }
    }

    /// Look a layout up by its registry name.
    pub fn from_name(name: &str) -> Option<RecordLayout> {
        RecordLayout::ALL.into_iter().find(|l| l.name() == name)
    }

    /// One-line description for help text and docs.
    pub fn describe(self) -> &'static str {
        match self {
            RecordLayout::Datamation => "fixed 100-byte records, 10-byte keys (fast path)",
            RecordLayout::VarLen => "length-prefixed records, string keys, LCP/OVC merge",
        }
    }

    /// Bytes per record when every record has the same size; `None` when
    /// record boundaries must be read from the frames themselves.
    #[inline]
    pub const fn stride(self) -> Option<usize> {
        match self {
            RecordLayout::Datamation => Some(RECORD_LEN),
            RecordLayout::VarLen => None,
        }
    }

    /// Shape of the whole frame at the start of `bytes`, or `None` when
    /// `bytes` ends before the frame does (read more, or — at end of input —
    /// report a truncated record). `at` is the absolute position of
    /// `bytes[0]`, for error attribution. Structurally invalid var-len
    /// headers are `InvalidData`.
    #[inline]
    pub fn frame_at(self, bytes: &[u8], at: u64) -> io::Result<Option<Frame>> {
        match self {
            RecordLayout::Datamation => Ok((bytes.len() >= RECORD_LEN).then_some(Frame {
                len: RECORD_LEN,
                key_off: 0,
                key_len: KEY_LEN,
            })),
            RecordLayout::VarLen => match parse_var_record(bytes, at) {
                Ok(r) => Ok(Some(Frame {
                    len: r.len(),
                    key_off: r.key().as_ptr() as usize - bytes.as_ptr() as usize,
                    key_len: r.key().len(),
                })),
                Err(
                    VarFrameError::TruncatedHeader { .. } | VarFrameError::TruncatedBody { .. },
                ) => Ok(None),
                Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            },
        }
    }
}

/// Where one record sits in a byte buffer: its whole length and its key,
/// both relative to the record's first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Whole record length (header included for var-len frames).
    pub len: usize,
    /// Key start within the record.
    pub key_off: usize,
    /// Key length.
    pub key_len: usize,
}

impl Frame {
    /// The key of the record that starts at `bytes[0]`.
    #[inline]
    pub fn key(self, bytes: &[u8]) -> &[u8] {
        &bytes[self.key_off..self.key_off + self.key_len]
    }
}

/// The prefix-entry integer for an arbitrary-length key: the first 8 key
/// bytes big-endian, zero-padded on the right when the key is shorter.
///
/// Padding with 0x00 understates short keys but never overstates them, so
/// prefix order is faithful wherever prefixes differ; equal prefixes fall
/// through to the full-key comparison (the overflow path), exactly like
/// the fixed layout's tie handling.
#[inline]
pub fn key_prefix_u64(key: &[u8]) -> u64 {
    match key.first_chunk::<8>() {
        // The common case is one load, not a variable-length copy.
        Some(head) => u64::from_be_bytes(*head),
        None => {
            let mut buf = [0u8; 8];
            buf[..key.len()].copy_from_slice(key);
            u64::from_be_bytes(buf)
        }
    }
}

/// Hard ceiling on records addressable within one run: the entry types
/// carry 32-bit record indices, so a run may hold at most `u32::MAX`
/// records (≈ 400 GB of 100-byte records — runs are sized to memory and
/// sit orders of magnitude below this). Keeping the ceiling at
/// `u32::MAX` rather than `u32::MAX + 1` also reserves `u32::MAX` as a
/// sentinel index no real entry can carry.
pub const MAX_RUN_RECORDS: usize = u32::MAX as usize;

/// Hard ceiling on a run buffer's bytes (var-len descriptors hold 32-bit
/// offsets); 16 MiB frames reach it at ~260 records, so the run cutter
/// cuts, under both layouts.
pub const MAX_RUN_BYTES: usize = u32::MAX as usize;

/// Hard ceiling on `SortConfig::merge_workers`: a partitioned merge runs
/// one OS thread per key range and plans `ranges × runs` bounds, and the
/// number arrives from command lines and job manifests — so it is bounded
/// before it sizes either.
pub const MAX_MERGE_WORKERS: usize = 256;

/// Hard ceiling on `SortConfig::workers`: the chore pools spawn one OS
/// thread per worker, and the number arrives from command lines — so it is
/// bounded before it sizes a spawn loop.
pub const MAX_WORKERS: usize = 256;

/// Convert a run length (or in-run position) into the 32-bit entry index
/// space, panicking with an attributed message instead of wrapping.
///
/// Silent `as u32` truncation here would mis-sort quietly: record
/// 2³² of a run would alias record 0. Every extract and merge-bound site
/// funnels through this check; `what` names the site in the panic.
#[inline]
pub fn checked_run_len(len: usize, what: &str) -> u32 {
    assert!(
        len <= MAX_RUN_RECORDS,
        "{what}: {len} records exceed the {MAX_RUN_RECORDS}-records-per-run \
         limit of the 32-bit entry index"
    );
    len as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_names_round_trip() {
        for l in RecordLayout::ALL {
            assert_eq!(RecordLayout::from_name(l.name()), Some(l));
            assert!(!l.describe().is_empty());
        }
        assert_eq!(RecordLayout::from_name("no-such-layout"), None);
        assert_eq!(RecordLayout::default(), RecordLayout::Datamation);
    }

    #[test]
    fn key_prefix_is_order_faithful_where_prefixes_differ() {
        // Shorter keys pad with 0x00: never overstated, so prefix order may
        // only tie (fall through), never invert, byte-string order.
        let cases: [&[u8]; 7] = [
            b"",
            b"a",
            b"ab",
            b"abcdefgh",
            b"abcdefghZZZ",
            b"abd",
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff",
        ];
        for x in cases {
            for y in cases {
                let (px, py) = (key_prefix_u64(x), key_prefix_u64(y));
                if px != py {
                    assert_eq!(px < py, x < y, "{x:?} vs {y:?}");
                }
            }
        }
        // A key that is a prefix of another ties on the integer prefix when
        // they agree through 8 bytes — the overflow path must break it.
        assert_eq!(key_prefix_u64(b"abcdefgh"), key_prefix_u64(b"abcdefghZZZ"));
    }

    #[test]
    fn checked_run_len_accepts_up_to_the_index_ceiling() {
        // Contract-level boundary check: no 400 GB allocation needed, the
        // conversion itself carries the invariant.
        assert_eq!(checked_run_len(0, "t"), 0);
        assert_eq!(checked_run_len(1, "t"), 1);
        assert_eq!(checked_run_len(MAX_RUN_RECORDS, "t"), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "records-per-run")]
    fn checked_run_len_panics_past_the_ceiling() {
        // The old `as u32` wrapped this to 0 silently; it must refuse, and
        // the message must attribute the site.
        checked_run_len(MAX_RUN_RECORDS + 1, "boundary-test");
    }

    #[test]
    #[should_panic(expected = "boundary-test")]
    fn checked_run_len_panic_names_the_site() {
        checked_run_len(1 << 33, "boundary-test");
    }
}
