//! The `ExternalSorter` facade: planning + execution in one call.

use std::sync::Arc;

use alphasort_suite::dmgen::{generate, validate_records, GenConfig, RECORD_LEN};
use alphasort_suite::sort::driver::StripeScratch;
use alphasort_suite::sort::io::{MemSink, MemSource};
use alphasort_suite::sort::planner::PassPlan;
use alphasort_suite::sort::{ExternalSorter, SortConfig};
use alphasort_suite::stripefs::Volume;

/// In-memory scratch the two-pass plan spills to.
fn mem_scratch() -> StripeScratch {
    StripeScratch::new(Arc::new(Volume::in_memory(2)), 100 * RECORD_LEN as u64)
}

fn sorter(memory_budget: u64) -> ExternalSorter {
    ExternalSorter::new(SortConfig {
        run_records: 500,
        gather_batch: 200,
        memory_budget,
        ..Default::default()
    })
}

#[test]
fn small_input_runs_one_pass() {
    let records = 2_000u64;
    let (data, cs) = generate(GenConfig::datamation(records, 1));
    let mut source = MemSource::new(data, 10_000);
    let mut sink = MemSink::new();
    let mut scratch = mem_scratch();
    // Budget comfortably above the 200 KB input.
    let outcome = sorter(1 << 20)
        .sort(&mut source, &mut sink, &mut scratch)
        .unwrap();
    assert_eq!(outcome.plan, PassPlan::OnePass);
    assert!(outcome.stats.one_pass);
    validate_records(sink.data(), cs).unwrap();
}

#[test]
fn oversized_input_runs_two_passes() {
    let records = 3_000u64; // 300 KB
    let (data, cs) = generate(GenConfig::datamation(records, 2));
    let mut source = MemSource::new(data, 10_000);
    let mut sink = MemSink::new();
    let mut scratch = mem_scratch();
    // Budget below the input: must spill.
    let outcome = sorter(100 << 10)
        .sort(&mut source, &mut sink, &mut scratch)
        .unwrap();
    assert_eq!(outcome.plan, PassPlan::TwoPass);
    assert!(!outcome.stats.one_pass);
    assert!(outcome.stats.runs > 1);
    validate_records(sink.data(), cs).unwrap();
}

#[test]
fn boundary_just_under_budget_is_one_pass() {
    // one_pass_capacity = budget / 1.10; put the input right below it.
    let budget = 1u64 << 20;
    let cap = (budget as f64 / 1.10) as u64;
    let records = cap / RECORD_LEN as u64 - 1;
    let (data, cs) = generate(GenConfig::datamation(records, 3));
    let mut source = MemSource::new(data, 64 * 1024);
    let mut sink = MemSink::new();
    let mut scratch = mem_scratch();
    let outcome = sorter(budget)
        .sort(&mut source, &mut sink, &mut scratch)
        .unwrap();
    assert_eq!(outcome.plan, PassPlan::OnePass);
    validate_records(sink.data(), cs).unwrap();
}

/// A source that hides its size (a pipe): the facade must go conservative.
struct OpaqueSource(MemSource);

impl alphasort_suite::sort::io::RecordSource for OpaqueSource {
    fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        self.0.next_chunk()
    }
    fn size_hint(&self) -> Option<u64> {
        None
    }
}

#[test]
fn unknown_size_defaults_to_two_pass() {
    let (data, cs) = generate(GenConfig::datamation(1_000, 4));
    let mut source = OpaqueSource(MemSource::new(data, 10_000));
    let mut sink = MemSink::new();
    let mut scratch = mem_scratch();
    let outcome = sorter(1 << 30)
        .sort(&mut source, &mut sink, &mut scratch)
        .unwrap();
    assert_eq!(outcome.plan, PassPlan::TwoPass);
    validate_records(sink.data(), cs).unwrap();
}
