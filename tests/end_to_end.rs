//! End-to-end integration: disk-to-disk sorts over striped simulated disks,
//! spanning dmgen + iosim + stripefs + alphasort-core.

use std::sync::Arc;

use alphasort_suite::dmgen::{validate_reader, GenConfig, Generator, KeyDistribution, RECORD_LEN};
use alphasort_suite::iosim::{catalog, BackendKind, DiskArray, DiskArrayBuilder, IoEngine, Pacing};
use alphasort_suite::sort::driver::{one_pass, two_pass, StripeScratch};
use alphasort_suite::sort::io::{StripeSink, StripeSource};
use alphasort_suite::sort::SortConfig;
use alphasort_suite::stripefs::{StripedReader, StripedWriter, Volume};

/// Build an RZ26 array, load `records` of `dist` onto a striped input file,
/// and return everything a test needs.
fn setup(
    disks: usize,
    records: u64,
    dist: KeyDistribution,
) -> (
    DiskArray,
    Volume,
    Arc<alphasort_suite::stripefs::StripedFile>,
    alphasort_suite::dmgen::Checksum,
) {
    let mut builder = DiskArrayBuilder::new(Pacing::Modeled, BackendKind::Memory);
    let mut left = disks;
    while left > 0 {
        let n = left.min(4);
        builder = builder.controller(catalog::scsi_controller(), catalog::rz26(), n);
        left -= n;
    }
    let array = builder.build().unwrap();
    let engine = Arc::new(IoEngine::new(array.disks().to_vec()));
    let volume = Volume::new(engine);

    let bytes = records * RECORD_LEN as u64;
    let input = Arc::new(volume.create_across_all("input", 16 * 1024, bytes));
    let mut gen = Generator::new(GenConfig {
        records,
        seed: 0xD15C,
        dist,
    });
    let mut w = StripedWriter::new(Arc::clone(&input));
    let mut buf = vec![0u8; 1_000 * RECORD_LEN];
    loop {
        let n = gen.fill(&mut buf);
        if n == 0 {
            break;
        }
        w.push(&buf[..n]).unwrap();
    }
    w.finish().unwrap();
    let cs = gen.checksum();
    array.reset_stats();
    (array, volume, input, cs)
}

fn sort_and_validate_one_pass(disks: usize, records: u64, dist: KeyDistribution, cfg: &SortConfig) {
    let (_array, volume, input, cs) = setup(disks, records, dist);
    let output = Arc::new(volume.create_across_all("output", 16 * 1024, input.len()));
    let mut source = StripeSource::new(input);
    let mut sink = StripeSink::new(Arc::clone(&output));
    let outcome = one_pass(&mut source, &mut sink, cfg).unwrap();
    assert_eq!(outcome.stats.records, records);
    assert_eq!(outcome.bytes, records * RECORD_LEN as u64);

    let mut reader = StripedReader::new(output);
    let report = validate_reader(&mut reader, cs).unwrap().unwrap();
    assert_eq!(report.records, records);
}

#[test]
fn one_pass_disk_to_disk_random() {
    let cfg = SortConfig {
        run_records: 5_000,
        gather_batch: 1_000,
        workers: 2,
        ..Default::default()
    };
    sort_and_validate_one_pass(8, 30_000, KeyDistribution::Random, &cfg);
}

#[test]
fn one_pass_disk_to_disk_every_distribution() {
    let cfg = SortConfig {
        run_records: 2_000,
        gather_batch: 500,
        workers: 0,
        ..Default::default()
    };
    for dist in [
        KeyDistribution::Sorted,
        KeyDistribution::Reverse,
        KeyDistribution::NearlySorted { permille: 100 },
        KeyDistribution::DupHeavy { cardinality: 5 },
        KeyDistribution::CommonPrefix { shared: 8 },
    ] {
        sort_and_validate_one_pass(4, 8_000, dist, &cfg);
    }
}

#[test]
fn one_pass_single_disk_still_works() {
    let cfg = SortConfig {
        run_records: 1_000,
        gather_batch: 300,
        ..Default::default()
    };
    sort_and_validate_one_pass(1, 5_000, KeyDistribution::Random, &cfg);
}

#[test]
fn two_pass_disk_to_disk_with_striped_scratch() {
    let records = 30_000u64;
    let (_array, volume, input, cs) = setup(8, records, KeyDistribution::Random);
    let volume = Arc::new(volume);
    let output = Arc::new(volume.create_across_all("output", 16 * 1024, input.len()));
    let mut scratch = StripeScratch::new(Arc::clone(&volume), 100 * RECORD_LEN as u64);
    let cfg = SortConfig {
        run_records: 4_000, // 8 scratch runs
        gather_batch: 1_000,
        ..Default::default()
    };
    let mut source = StripeSource::new(input);
    let mut sink = StripeSink::new(Arc::clone(&output));
    let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
    assert_eq!(outcome.stats.records, records);
    assert_eq!(outcome.stats.runs, 8);
    assert!(!outcome.stats.one_pass);

    let mut reader = StripedReader::new(output);
    let report = validate_reader(&mut reader, cs).unwrap().unwrap();
    assert_eq!(report.records, records);
}

#[test]
fn cascade_merge_on_striped_scratch() {
    // 25 runs with fan-in 5: one intermediate level on the simulated disks.
    let records = 25_000u64;
    let (_array, volume, input, cs) = setup(6, records, KeyDistribution::Random);
    let volume = Arc::new(volume);
    let output = Arc::new(volume.create_across_all("output", 16 * 1024, input.len()));
    let mut scratch = StripeScratch::new(Arc::clone(&volume), 100 * RECORD_LEN as u64);
    let cfg = SortConfig {
        run_records: 1_000,
        gather_batch: 500,
        max_fanin: 5,
        workers: 2,
        ..Default::default()
    };
    let mut source = StripeSource::new(input);
    let mut sink = StripeSink::new(Arc::clone(&output));
    let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
    assert_eq!(outcome.stats.runs, 25);
    assert_eq!(outcome.stats.merge_passes, 1);

    let mut reader = StripedReader::new(output);
    let report = validate_reader(&mut reader, cs).unwrap().unwrap();
    assert_eq!(report.records, records);
}

#[test]
fn cascade_recycles_scratch_extents() {
    // Deep cascade (fan-in 2 over 16 runs = 3 intermediate levels): with
    // extent recycling, scratch high-water stays near 2× the data instead
    // of one copy per level.
    let records = 8_000u64;
    let bytes = records * RECORD_LEN as u64;
    let (_array, volume, input, cs) = setup(4, records, KeyDistribution::Random);
    let volume = Arc::new(volume);
    let output = Arc::new(volume.create_across_all("output", 16 * 1024, bytes));
    let mut scratch = StripeScratch::new(Arc::clone(&volume), 100 * RECORD_LEN as u64);
    let cfg = SortConfig {
        run_records: 500, // 16 runs
        gather_batch: 250,
        max_fanin: 2,
        ..Default::default()
    };
    let mut source = StripeSource::new(input);
    let mut sink = StripeSink::new(Arc::clone(&output));
    let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
    assert_eq!(outcome.stats.merge_passes, 3); // 16 → 8 → 4 → 2
    let mut reader = StripedReader::new(output);
    validate_reader(&mut reader, cs).unwrap().unwrap();

    // Disk high-water: input + output + scratch levels. Without recycling,
    // scratch alone would be 4 × data (one copy per level incl. initial);
    // with recycling it stays ≤ ~2 × data (live level + level being built).
    let high_water: u64 = volume.engine().disks().iter().map(|d| d.len()).sum();
    assert!(
        high_water <= 5 * bytes,
        "scratch not recycled: high water {high_water} vs data {bytes}"
    );
}

#[test]
fn two_pass_moves_twice_the_disk_bytes() {
    // §6's core claim, measured on the simulated disks themselves.
    let records = 20_000u64;
    let bytes = records * RECORD_LEN as u64;

    let (array, volume, input, _) = setup(4, records, KeyDistribution::Random);
    let volume = Arc::new(volume);
    let output = Arc::new(volume.create_across_all("output", 16 * 1024, bytes));
    let cfg = SortConfig {
        run_records: 2_500,
        gather_batch: 500,
        ..Default::default()
    };

    // One-pass traffic.
    array.reset_stats();
    let mut source = StripeSource::new(Arc::clone(&input));
    let mut sink = StripeSink::new(Arc::clone(&output));
    one_pass(&mut source, &mut sink, &cfg).unwrap();
    let one = array.stats();
    assert_eq!(one.bytes_read, bytes);
    assert_eq!(one.bytes_written, bytes);

    // Two-pass traffic: input + runs out + runs back + output = 4×.
    array.reset_stats();
    let output2 = Arc::new(volume.create_across_all("output2", 16 * 1024, bytes));
    let mut scratch = StripeScratch::new(Arc::clone(&volume), 100 * RECORD_LEN as u64);
    let mut source = StripeSource::new(input);
    let mut sink = StripeSink::new(output2);
    two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
    let two = array.stats();
    assert_eq!(two.bytes_read, 2 * bytes);
    assert_eq!(two.bytes_written, 2 * bytes);
}

#[test]
fn modeled_elapsed_matches_paper_scale() {
    // A 10 MB sort on 16 RZ26 (≈28 MB/s stripe): modeled IO elapsed must be
    // in the high-hundreds of milliseconds — one tenth of the paper's
    // 100 MB ≈ 9 s.
    let records = 100_000u64;
    let (array, volume, input, _) = setup(16, records, KeyDistribution::Random);
    let output = Arc::new(volume.create_across_all("output", 64 * 1024, input.len()));
    let cfg = SortConfig {
        run_records: 10_000,
        gather_batch: 2_000,
        ..Default::default()
    };
    let mut source = StripeSource::new(input);
    let mut sink = StripeSink::new(Arc::clone(&output));
    one_pass(&mut source, &mut sink, &cfg).unwrap();
    let modeled = array.stats().modeled_elapsed().as_secs_f64();
    assert!(
        (0.5..1.6).contains(&modeled),
        "modeled elapsed {modeled} s for a 10 MB sort on 16 RZ26"
    );
}
