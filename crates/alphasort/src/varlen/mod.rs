//! Variable-length records with string keys — the second [`crate::RecordLayout`].
//!
//! The paper sorts fixed 100-byte Datamation records; real sort inputs
//! (URLs, log lines, words) are ragged. This module holds what the var-len
//! layout supplies to the one pipeline ([`crate::layout`]): length-prefixed
//! records with (offset, length) key descriptors, cut from the input by a
//! re-framer instead of a byte stride.
//!
//! * **Run formation** ([`vrun`]) still sorts *(key-prefix, pointer)*
//!   entries — the prefix is the first 8 key bytes zero-padded
//!   ([`crate::entry::key_prefix_u64`]), order-faithful where prefixes
//!   differ, with the full-key overflow path on ties. Formation also
//!   precomputes each run's `lcp_prev` table (LCP of neighbouring sorted
//!   keys), which the merge reuses.
//! * **Merging** is [`crate::merge::Merger`] under the
//!   [`crate::merge::Ovc`] policy: tree replays resolve on offset-value
//!   codes alone where they differ and compare only key *suffixes* where
//!   they tie, so shared prefixes are never rescanned.
//!
//! [`sort_var_bytes`] and [`partition_sort_var`] are whole-buffer reference
//! sorts the differential oracle holds the drivers against.
//!
//! Layout choice moves CPU time only: for a given input every worker
//! count and merge topology produces byte-identical output, pinned
//! by the differential oracle.

pub mod vrun;

use std::io;

use crate::pmerge::SAMPLES_PER_RANGE;
use crate::splitter::{byte_splitters_from_keys, route_bytes};

pub use vrun::{lcp, FrameCutter, VarRun};

/// Whole-buffer baseline: form one run, emit its sorted frames. The
/// differential oracle's cheapest var-len reference after `sort_by` itself.
pub fn sort_var_bytes(input: &[u8]) -> io::Result<Vec<u8>> {
    Ok(VarRun::from_frames(input.to_vec())?.sorted_bytes())
}

/// Shared-nothing partitioned baseline: sample byte-string splitters,
/// scatter frames by [`route_bytes`], sort each part independently, and
/// concatenate. Routing is pure in the key and scatter preserves arrival
/// order within a part, so the result is byte-identical to
/// [`sort_var_bytes`] for any `parts`.
pub fn partition_sort_var(input: &[u8], parts: usize) -> io::Result<Vec<u8>> {
    assert!(parts >= 1);
    let recs = alphasort_dmgen::var_records_of(input)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let n = recs.len();
    let mut pool = Vec::new();
    if parts > 1 && n > 0 {
        let count = (parts * SAMPLES_PER_RANGE).min(n);
        for i in 0..count {
            let idx = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n as u64;
            pool.push(recs[idx as usize].key().to_vec());
        }
    }
    let splitters = byte_splitters_from_keys(pool, parts);
    let mut outs: Vec<Vec<u8>> = vec![Vec::new(); parts];
    for r in &recs {
        outs[route_bytes(r.key(), &splitters)].extend_from_slice(r.frame());
    }
    let mut out = Vec::with_capacity(input.len());
    for part in outs {
        out.extend_from_slice(&VarRun::from_frames(part)?.sorted_bytes());
    }
    Ok(out)
}
