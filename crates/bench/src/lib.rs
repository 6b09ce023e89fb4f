//! Shared plumbing for the experiment binaries and the bench targets.
//!
//! Each `exp_*` binary regenerates one table or figure of the paper; see
//! `DESIGN.md`'s per-experiment index and `EXPERIMENTS.md` for the recorded
//! paper-vs-measured comparisons.

pub mod harness;
pub mod variants;

use std::sync::Arc;

use alphasort_core::driver::one_pass;
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::{SortConfig, SortStats};
use alphasort_dmgen::{generate, validate_records, GenConfig};
use alphasort_iosim::{
    catalog, BackendKind, ControllerSpec, DiskArray, DiskArrayBuilder, DiskSpec, IoEngine, Pacing,
};
use alphasort_stripefs::{StripedReader, StripedWriter, Volume};

/// Chore workers for a host sort: one per core the root does not use, at
/// most three — the one worker count every host-timed experiment shares.
pub fn host_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| (n.get() - 1).min(3))
        .unwrap_or(0)
}

/// Run a validated in-memory one-pass sort of `records` records on the
/// host; returns the phase stats.
pub fn host_sort(records: u64, cfg: &SortConfig) -> SortStats {
    let (input, cs) = generate(GenConfig::datamation(records, 0x5EED));
    let mut source = MemSource::new(input, 1_000_000);
    let mut sink = MemSink::new();
    let outcome = one_pass(&mut source, &mut sink, cfg).expect("sort failed");
    validate_records(sink.data(), cs).expect("sort output invalid");
    outcome.stats
}

/// Build a modeled (unpaced) array of `total` disks of `disk` spec,
/// `per_ctlr` behind each `ctlr`.
pub fn modeled_array(
    disk: DiskSpec,
    ctlr: ControllerSpec,
    per_ctlr: usize,
    total: usize,
) -> DiskArray {
    let mut builder = DiskArrayBuilder::new(Pacing::Modeled, BackendKind::Memory);
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
/// busy times — what Table 6 calls the "stripe read/write rate".
pub fn modeled_stripe_rates(array: &DiskArray, megabytes: usize) -> (f64, f64) {
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
    let mut r = StripedReader::new(file);
    while let Some(s) = r.next_stride() {
        s.expect("probe read");
    }
    let rstats = array.stats();
    let read_mbps = rstats.bytes_read as f64 / 1e6 / rstats.modeled_elapsed().as_secs_f64();
    (read_mbps, write_mbps)
}

/// The Table 6 "many-slow" array: 36 RZ26 on 9 SCSI controllers.
pub fn many_slow_array() -> DiskArray {
    modeled_array(catalog::rz26(), catalog::scsi_controller(), 4, 36)
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
        let (r, w) = modeled_stripe_rates(&slow, 20);
        // Table 6: 64 MB/s read, 49 MB/s write. Seek overhead shaves a bit.
        assert!((r - 64.0).abs() < 6.0, "read {r}");
        assert!((w - 49.0).abs() < 6.0, "write {w}");
    }
}
