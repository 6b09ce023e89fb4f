//! Datamation sort benchmark workload generator and output validator.
//!
//! The Datamation benchmark (Anon et al., 1985), as used by the AlphaSort
//! paper, sorts one million 100-byte records. Each record carries a 10-byte
//! key in random order; keys are incompressible; the output file must be a
//! sorted permutation of the input file.
//!
//! This crate provides:
//!
//! * [`Record`] — the 100-byte record layout (10-byte key + 90-byte payload),
//! * [`Generator`] — deterministic, seedable record generation under several
//!   key distributions ([`KeyDistribution`]),
//! * [`validate`] — streaming verification that an output is a sorted
//!   permutation of the corresponding input, using an order-independent
//!   checksum so no O(N) memory is needed,
//! * zero-copy helpers for treating raw byte buffers as record arrays, which
//!   is how the sort itself works with them.
//!
//! ```
//! use alphasort_dmgen::{generate, records_of_mut, validate_records, GenConfig};
//!
//! // Generate 1,000 benchmark records and remember the input fingerprint.
//! let (mut data, checksum) = generate(GenConfig::datamation(1_000, 42));
//!
//! // Sort them (any sort will do — here the standard library's).
//! records_of_mut(&mut data).sort_by(|a, b| a.key.cmp(&b.key));
//!
//! // The output must be a key-ascending permutation of the input.
//! let report = validate_records(&data, checksum).expect("valid");
//! assert_eq!(report.records, 1_000);
//! ```

pub mod checksum;
pub mod dist;
pub mod gen;
pub mod record;
pub mod rng;
pub mod validate;
pub mod varlen;

pub use checksum::{Checksum, RunningChecksum};
pub use dist::KeyDistribution;
pub use gen::generate;
pub use gen::{GenConfig, Generator};
pub use record::{
    bytes_of, records_of, records_of_mut, Record, KEY_LEN, PAYLOAD_LEN, PREFIX_LEN, RECORD_LEN,
};
pub use rng::SplitMix64;
pub use validate::{
    summarize_reader, validate_reader, validate_records, ValidationError, ValidationReport,
    Validator,
};
pub use varlen::{
    build_var_record, encode_var_record, generate_varlen, parse_var_record, var_records_of,
    TextCorpus, VarFrameError, VarGenConfig, VarRecord, MAX_VAR_BODY, VAR_HEADER_LEN,
};
