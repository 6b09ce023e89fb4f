//! Variable-length records with string keys — the second [`crate::RecordLayout`].
//!
//! The paper sorts fixed 100-byte Datamation records; real sort inputs
//! (URLs, log lines, words) are ragged. This module holds what the var-len
//! layout supplies to the one pipeline ([`crate::layout`]): length-prefixed
//! records with (offset, length) key descriptors. The one
//! [`crate::layout::RunCutter`] cuts them from the input as it cuts the
//! fixed layout's, reading each record's length from its header instead of
//! a stride.
//!
//! * **Run formation** ([`vrun`]) is an MSD string sort over 8-byte
//!   super-characters: *(key-prefix, pointer)* entries whose prefix
//!   ([`crate::entry::key_prefix_u64`]) is re-taken 8 bytes deeper for
//!   each group that ties on it, so no key byte is compared twice. The
//!   splits also give each run's `lcp_prev` table (LCP of neighbouring
//!   sorted keys), which the merge reuses.
//! * **Merging** is [`crate::merge::Merger`] under the
//!   [`crate::merge::Ovc`] policy: tree replays resolve on offset-value
//!   codes alone where they differ and compare only key *suffixes* where
//!   they tie, so shared prefixes are never rescanned.
//!
//! [`sort_var_bytes`] is the whole-buffer reference sort the differential
//! oracle holds the drivers against.
//!
//! Layout choice moves CPU time only: for a given input every worker
//! count and merge topology produces byte-identical output, pinned
//! by the differential oracle.

pub mod vrun;

use std::io;

pub use vrun::{lcp, VarRun};

/// Whole-buffer baseline: form one run, emit its sorted frames. The
/// differential oracle's cheapest var-len reference after `sort_by` itself.
pub fn sort_var_bytes(input: &[u8]) -> io::Result<Vec<u8>> {
    Ok(VarRun::from_frames(input.to_vec())?.sorted_bytes())
}
