//! Output validation: is this a sorted permutation of the input?
//!
//! The benchmark's correctness condition (§2 of the paper) is that the output
//! file is a permutation of the input file sorted in key-ascending order.
//! Validation streams the output once, checking key order and accumulating
//! the same order-independent [`Checksum`] the generator
//! produced for the input; matching fingerprints certify the permutation.

use std::io::{self, Read};

use crate::checksum::{Checksum, RunningChecksum};
use crate::record::{Record, KEY_LEN, RECORD_LEN};

/// Why an output failed validation.
#[derive(Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// Two adjacent records were out of key order.
    OutOfOrder {
        /// Index (in the output) of the second record of the offending pair.
        index: u64,
        /// Key of the earlier record.
        prev_key: [u8; KEY_LEN],
        /// Key of the later (smaller) record.
        key: [u8; KEY_LEN],
    },
    /// The output's record multiset differs from the input's.
    ChecksumMismatch {
        /// Fingerprint the input was generated with.
        expected: Checksum,
        /// Fingerprint computed over the output.
        actual: Checksum,
    },
    /// Output length is not a whole number of records.
    RaggedLength {
        /// Total bytes observed.
        bytes: u64,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::OutOfOrder { index, .. } => {
                write!(
                    f,
                    "records {} and {} are out of key order",
                    index - 1,
                    index
                )
            }
            ValidationError::ChecksumMismatch { expected, actual } => write!(
                f,
                "output is not a permutation of the input \
                 (expected {expected:?}, got {actual:?})"
            ),
            ValidationError::RaggedLength { bytes } => {
                write!(f, "output length {bytes} is not a multiple of {RECORD_LEN}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Summary of a successful validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationReport {
    /// Records examined.
    pub records: u64,
    /// Number of adjacent pairs with exactly equal keys (interesting for
    /// duplicate-heavy workloads).
    pub equal_key_pairs: u64,
}

/// Streaming validator; feed records in output order.
#[derive(Debug, Default)]
pub struct Validator {
    checksum: RunningChecksum,
    prev_key: Option<[u8; KEY_LEN]>,
    records: u64,
    equal_key_pairs: u64,
}

impl Validator {
    /// Fresh validator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the next record of the output.
    pub fn push(&mut self, record: &Record) -> Result<(), ValidationError> {
        if let Some(prev) = self.prev_key {
            match prev.cmp(&record.key) {
                std::cmp::Ordering::Greater => {
                    return Err(ValidationError::OutOfOrder {
                        index: self.records,
                        prev_key: prev,
                        key: record.key,
                    });
                }
                std::cmp::Ordering::Equal => self.equal_key_pairs += 1,
                std::cmp::Ordering::Less => {}
            }
        }
        self.prev_key = Some(record.key);
        self.checksum.update(record);
        self.records += 1;
        Ok(())
    }

    /// Feed a buffer of whole records.
    ///
    /// # Panics
    /// If `bytes.len()` is not a multiple of the record length.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Result<(), ValidationError> {
        assert!(bytes.len().is_multiple_of(RECORD_LEN));
        for chunk in bytes.chunks_exact(RECORD_LEN) {
            let r = Record::from_bytes(chunk);
            self.push(&r)?;
        }
        Ok(())
    }

    /// Finish, comparing against the input fingerprint.
    pub fn finish(self, expected: Checksum) -> Result<ValidationReport, ValidationError> {
        let (report, actual) = self.summary();
        if actual != expected {
            return Err(ValidationError::ChecksumMismatch { expected, actual });
        }
        Ok(report)
    }

    /// Finish with no input fingerprint to compare: the report and the
    /// fingerprint of everything fed, for a caller to check later.
    pub fn summary(self) -> (ValidationReport, Checksum) {
        let report = ValidationReport {
            records: self.records,
            equal_key_pairs: self.equal_key_pairs,
        };
        (report, self.checksum.finish())
    }
}

/// Validate an in-memory output buffer against the input fingerprint.
pub fn validate_records(
    output: &[u8],
    expected: Checksum,
) -> Result<ValidationReport, ValidationError> {
    if !output.len().is_multiple_of(RECORD_LEN) {
        return Err(ValidationError::RaggedLength {
            bytes: output.len() as u64,
        });
    }
    let mut v = Validator::new();
    v.push_bytes(output)?;
    v.finish(expected)
}

/// Validate a streamed output (e.g. a file) against the input fingerprint.
///
/// IO errors are distinct from validation failures, hence the nested result.
pub fn validate_reader<R: Read>(
    reader: &mut R,
    expected: Checksum,
) -> io::Result<Result<ValidationReport, ValidationError>> {
    Ok(scan_reader(reader)?.and_then(|v| v.finish(expected)))
}

/// Check key order over a streamed output with no input fingerprint at
/// hand: the report and the output's own fingerprint, which a later
/// [`validate_reader`] against the input's must reproduce.
pub fn summarize_reader<R: Read>(
    reader: &mut R,
) -> io::Result<Result<(ValidationReport, Checksum), ValidationError>> {
    Ok(scan_reader(reader)?.map(Validator::summary))
}

/// Feed a whole stream to a fresh [`Validator`], carrying records split
/// across reads over to the next one.
fn scan_reader<R: Read>(reader: &mut R) -> io::Result<Result<Validator, ValidationError>> {
    let mut v = Validator::new();
    // 8192 records per read keeps syscalls rare without a big footprint.
    let mut buf = vec![0u8; 8192 * RECORD_LEN];
    let mut pending = 0usize;
    let mut total: u64 = 0;
    loop {
        let n = reader.read(&mut buf[pending..])?;
        if n == 0 {
            break;
        }
        total += n as u64;
        pending += n;
        let whole = pending - pending % RECORD_LEN;
        if whole > 0 {
            if let Err(e) = v.push_bytes(&buf[..whole]) {
                return Ok(Err(e));
            }
            buf.copy_within(whole..pending, 0);
            pending -= whole;
        }
    }
    if pending != 0 {
        return Ok(Err(ValidationError::RaggedLength { bytes: total }));
    }
    Ok(Ok(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use crate::record::records_of_mut;

    fn sorted_copy(input: &[u8]) -> Vec<u8> {
        let mut out = input.to_vec();
        records_of_mut(&mut out).sort_by_key(|a| a.key);
        out
    }

    #[test]
    fn accepts_correctly_sorted_output() {
        let (input, cs) = generate(GenConfig::datamation(2000, 11));
        let output = sorted_copy(&input);
        let report = validate_records(&output, cs).unwrap();
        assert_eq!(report.records, 2000);
    }

    #[test]
    fn rejects_unsorted_output() {
        let (input, cs) = generate(GenConfig::datamation(2000, 12));
        let err = validate_records(&input, cs).unwrap_err();
        assert!(matches!(err, ValidationError::OutOfOrder { .. }));
    }

    #[test]
    fn rejects_dropped_record() {
        let (input, cs) = generate(GenConfig::datamation(100, 13));
        let mut output = sorted_copy(&input);
        output.truncate(99 * RECORD_LEN);
        let err = validate_records(&output, cs).unwrap_err();
        assert!(matches!(err, ValidationError::ChecksumMismatch { .. }));
    }

    #[test]
    fn rejects_corrupted_payload_byte() {
        let (input, cs) = generate(GenConfig::datamation(100, 14));
        let mut output = sorted_copy(&input);
        let last = output.len() - 1;
        output[last] ^= 0x01;
        let err = validate_records(&output, cs).unwrap_err();
        assert!(matches!(err, ValidationError::ChecksumMismatch { .. }));
    }

    #[test]
    fn rejects_duplicated_record_replacing_another() {
        let (input, cs) = generate(GenConfig::datamation(100, 15));
        let mut output = sorted_copy(&input);
        // Overwrite record 1 with a copy of record 0: still sorted, same
        // length, but not a permutation.
        let (a, b) = output.split_at_mut(RECORD_LEN);
        b[..RECORD_LEN].copy_from_slice(a);
        let err = validate_records(&output, cs).unwrap_err();
        assert!(matches!(err, ValidationError::ChecksumMismatch { .. }));
    }

    #[test]
    fn rejects_ragged_length() {
        let (input, cs) = generate(GenConfig::datamation(10, 16));
        let mut output = sorted_copy(&input);
        output.pop();
        let err = validate_records(&output, cs).unwrap_err();
        assert!(matches!(err, ValidationError::RaggedLength { .. }));
    }

    #[test]
    fn reader_validation_matches_in_memory() {
        let (input, cs) = generate(GenConfig::datamation(3000, 17));
        let output = sorted_copy(&input);
        let mut cursor = std::io::Cursor::new(&output);
        let report = validate_reader(&mut cursor, cs).unwrap().unwrap();
        assert_eq!(report.records, 3000);
    }

    #[test]
    fn summary_reproduces_the_input_fingerprint_without_it() {
        let (input, cs) = generate(GenConfig::datamation(3000, 19));
        let output = sorted_copy(&input);
        let mut cursor = std::io::Cursor::new(&output);
        let (report, actual) = summarize_reader(&mut cursor).unwrap().unwrap();
        assert_eq!((report.records, actual), (3000, cs));
        let mut unsorted = std::io::Cursor::new(&input);
        let err = summarize_reader(&mut unsorted).unwrap().unwrap_err();
        assert!(matches!(err, ValidationError::OutOfOrder { .. }));
    }

    #[test]
    fn counts_equal_key_pairs_on_dup_heavy_input() {
        let cfg = GenConfig {
            records: 1000,
            seed: 18,
            dist: crate::dist::KeyDistribution::DupHeavy { cardinality: 4 },
        };
        let (input, cs) = generate(cfg);
        let output = sorted_copy(&input);
        let report = validate_records(&output, cs).unwrap();
        // 1000 records over 4 keys: nearly every adjacent pair ties.
        assert!(report.equal_key_pairs > 900);
    }
}
