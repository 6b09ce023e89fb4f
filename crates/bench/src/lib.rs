//! Shared plumbing for the experiments and the bench targets.
//!
//! Each module of [`exp`] regenerates one table or figure of the paper and
//! checks its claims; the `exp` binary runs them by name. See `DESIGN.md`'s
//! per-experiment index and `EXPERIMENTS.md` for the recorded
//! paper-vs-measured comparisons.

pub mod exp;
pub mod harness;
pub mod variants;

use std::sync::Arc;
use std::time::Instant;

use alphasort_core::driver::{one_pass, two_pass, StripeScratch};
use alphasort_core::io::{MemSink, MemSource, StripeSink, StripeSource};
use alphasort_core::{SortConfig, SortStats};
use alphasort_dmgen::{
    generate, validate_reader, validate_records, Checksum, GenConfig, Generator, RECORD_LEN,
};
use alphasort_iosim::{
    catalog, ArrayStats, BackendKind, ControllerSpec, DiskArray, DiskArrayBuilder, DiskSpec,
    IoEngine, Pacing,
};
use alphasort_stripefs::{StripedFile, StripedReader, StripedWriter, Volume};

/// Chore workers for a host sort: one per core the root does not use, at
/// most three — the one worker count every host-timed experiment shares.
pub fn host_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| (n.get() - 1).min(3))
        .unwrap_or(0)
}

/// Run a validated in-memory one-pass sort of `records` records on the
/// host; returns the phase stats, whose `elapsed` is the sort alone
/// (generating and validating the records are outside it).
pub fn host_sort(records: u64, cfg: &SortConfig) -> SortStats {
    let (input, cs) = generate(GenConfig::datamation(records, 0x5EED));
    sort_in_memory(input, cs, cfg)
}

/// Sort `input` in memory in one pass and validate the output against the
/// generator's checksum `cs`; returns the phase stats.
pub fn sort_in_memory(input: Vec<u8>, cs: Checksum, cfg: &SortConfig) -> SortStats {
    let mut source = MemSource::new(input, 1_000_000);
    let mut sink = MemSink::new();
    let outcome = one_pass(&mut source, &mut sink, cfg).expect("sort failed");
    validate_records(sink.data(), cs).expect("sort output invalid");
    outcome.stats
}

/// Build an in-memory array of `total` modeled disks of `disk` spec,
/// `per_ctlr` behind each `ctlr`, timed by `pacing`.
pub fn modeled_array(
    pacing: Pacing,
    disk: DiskSpec,
    ctlr: ControllerSpec,
    per_ctlr: usize,
    total: usize,
) -> DiskArray {
    let mut builder = DiskArrayBuilder::new(pacing, BackendKind::Memory);
    let mut left = total;
    while left > 0 {
        let n = left.min(per_ctlr);
        builder = builder.controller(ctlr.clone(), disk.clone(), n);
        left -= n;
    }
    builder.build().expect("array build")
}

/// Measured-on-the-model stripe rates: write `megabytes` across the whole
/// array, read it back, and report (read MB/s, write MB/s) from the modeled
/// busy times — what Table 6 calls the "stripe read/write rate" — and the
/// read's MB/s on the host's clock, which a paced array holds to its model.
pub fn modeled_stripe_rates(array: &DiskArray, megabytes: usize) -> (f64, f64, f64) {
    let engine = Arc::new(IoEngine::new(array.disks().to_vec()));
    let volume = Volume::new(Arc::clone(&engine));
    let bytes = megabytes * 1_000_000;
    let file = Arc::new(volume.create_across_all("rate-probe", 64 * 1024, bytes as u64));

    array.reset_stats();
    let mut w = StripedWriter::new(Arc::clone(&file));
    let chunk = vec![0u8; 1_000_000];
    for _ in 0..megabytes {
        w.push(&chunk).expect("probe write");
    }
    w.finish().expect("probe write");
    let wstats = array.stats();
    let write_mbps = wstats.bytes_written as f64 / 1e6 / wstats.modeled_elapsed().as_secs_f64();

    array.reset_stats();
    let t0 = Instant::now();
    let mut r = StripedReader::new(file);
    while let Some(s) = r.next_stride() {
        s.expect("probe read");
    }
    let wall_mbps = bytes as f64 / 1e6 / t0.elapsed().as_secs_f64();
    let rstats = array.stats();
    let read_mbps = rstats.bytes_read as f64 / 1e6 / rstats.modeled_elapsed().as_secs_f64();
    (read_mbps, write_mbps, wall_mbps)
}

/// Datamation input staged on a striped volume across a whole array: the
/// one disk-to-disk setup. [`sort`](Self::sort) sorts it to a fresh striped
/// output and validates that output against the generator's checksum.
pub struct StagedSort<'a> {
    array: &'a DiskArray,
    volume: Arc<Volume>,
    input: Arc<StripedFile>,
    checksum: Checksum,
}

impl<'a> StagedSort<'a> {
    /// The stride every staged file uses: the paper's 64 KB.
    const CHUNK: u64 = 64 * 1024;

    /// Generate `records` Datamation records from `seed` and write them
    /// striped across every disk of `array`.
    pub fn stage(array: &'a DiskArray, records: u64, seed: u64) -> Self {
        let volume = Arc::new(Volume::new(Arc::new(IoEngine::new(array.disks().to_vec()))));
        let bytes = records * RECORD_LEN as u64;
        let input = Arc::new(volume.create_across_all("input", Self::CHUNK, bytes));
        let mut gen = Generator::new(GenConfig::datamation(records, seed));
        let mut w = StripedWriter::new(Arc::clone(&input));
        let mut buf = vec![0u8; 10_000 * RECORD_LEN];
        loop {
            let n = gen.fill(&mut buf);
            if n == 0 {
                break;
            }
            w.push(&buf[..n]).expect("stage input");
        }
        w.finish().expect("stage input");
        StagedSort {
            array,
            volume,
            input,
            checksum: gen.checksum(),
        }
    }

    /// Sort the staged input disk to disk with `depth` strides in flight
    /// each way — in two passes, spilling runs to the same volume, when
    /// `spill` — then validate and free the output. Returns the sort's
    /// stats and the array's traffic during the sort alone.
    pub fn sort(&self, cfg: &SortConfig, depth: usize, spill: bool) -> (SortStats, ArrayStats) {
        let output = Arc::new(self.volume.create_across_all(
            "output",
            Self::CHUNK,
            self.input.len(),
        ));
        self.array.reset_stats();
        let reader = StripedReader::with_depth(Arc::clone(&self.input), depth);
        let mut source = StripeSource::from(reader);
        let mut sink = StripeSink::from(StripedWriter::with_depth(Arc::clone(&output), depth));
        let outcome = if spill {
            let mut scratch = StripeScratch::new(Arc::clone(&self.volume), Self::CHUNK);
            two_pass(&mut source, &mut sink, &mut scratch, cfg)
        } else {
            one_pass(&mut source, &mut sink, cfg)
        };
        let stats = outcome.expect("disk-to-disk sort").stats;
        let io = self.array.stats();
        validate_reader(&mut StripedReader::new(Arc::clone(&output)), self.checksum)
            .expect("read back the output")
            .expect("sorted output invalid");
        self.volume.delete(&output);
        (stats, io)
    }
}

/// The Table 6 "many-slow" array: 36 RZ26 on 9 SCSI controllers.
pub fn many_slow_array() -> DiskArray {
    modeled_array(
        Pacing::Modeled,
        catalog::rz26(),
        catalog::scsi_controller(),
        4,
        36,
    )
}

/// The Table 6 "few-fast" array: 12 RZ28 on 4 plain SCSI controllers plus
/// 6 IPI drives on 3 Genroco controllers. The plain SCSI buses are what cap
/// the RZ28 group — the reason the paper's few-fast array measures 52 MB/s
/// despite 90 MB/s of nominal drive bandwidth.
pub fn few_fast_array() -> DiskArray {
    let mut builder = DiskArrayBuilder::new(Pacing::Modeled, BackendKind::Memory)
        .controller(catalog::scsi_controller(), catalog::rz28(), 3)
        .controller(catalog::scsi_controller(), catalog::rz28(), 3)
        .controller(catalog::scsi_controller(), catalog::rz28(), 3)
        .controller(catalog::scsi_controller(), catalog::rz28(), 3);
    for _ in 0..3 {
        builder = builder.controller(
            catalog::genroco_ipi_controller(),
            catalog::ipi_velocitor(),
            2,
        );
    }
    builder.build().expect("few-fast array")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_sort_runs() {
        let st = host_sort(
            2_000,
            &SortConfig {
                run_records: 500,
                gather_batch: 200,
                ..Default::default()
            },
        );
        assert_eq!(st.records, 2_000);
    }

    #[test]
    fn a_staged_sort_validates_and_two_passes_move_twice_the_bytes() {
        let array = modeled_array(
            Pacing::Modeled,
            catalog::rz26(),
            catalog::scsi_controller(),
            4,
            3,
        );
        let staged = StagedSort::stage(&array, 5_000, 3);
        let cfg = SortConfig {
            run_records: 1_000,
            gather_batch: 200,
            ..Default::default()
        };
        let (one, one_io) = staged.sort(&cfg, 3, false);
        let (two, two_io) = staged.sort(&cfg, 1, true);
        assert_eq!((one.records, two.records), (5_000, 5_000));
        assert!(one.one_pass && !two.one_pass);
        let bytes = |io: &ArrayStats| io.bytes_read + io.bytes_written;
        assert_eq!(bytes(&one_io), 2 * 500_000);
        assert_eq!(bytes(&two_io), 2 * bytes(&one_io));
    }

    #[test]
    fn table6_arrays_have_paper_shapes() {
        let slow = many_slow_array();
        assert_eq!(slow.width(), 36);
        assert_eq!(slow.controllers().len(), 9);
        let fast = few_fast_array();
        assert_eq!(fast.width(), 18);
        assert_eq!(fast.controllers().len(), 7);
    }

    #[test]
    fn modeled_rates_close_to_nominal() {
        let slow = many_slow_array();
        let (r, w, _) = modeled_stripe_rates(&slow, 20);
        // Table 6: 64 MB/s read, 49 MB/s write. Seek overhead shaves a bit.
        assert!((r - 64.0).abs() < 6.0, "read {r}");
        assert!((w - 49.0).abs() < 6.0, "write {w}");
    }
}
