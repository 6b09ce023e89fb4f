//! Ablation: switch off AlphaSort's design choices one at a time and watch
//! the elapsed time respond, on *real-time paced* simulated disks so IO
//! overlap genuinely costs wall-clock (sped up 4× from 1993 rates; every
//! ratio preserved).
//!
//! Choices ablated, each tied to its paper claim:
//! * triple buffering (§6: "triple buffering the reads and writes keeps the
//!   disks transferring at their spiral read and write rates") → depth 1,
//! * worker chores (§5) → uniprocessor,
//! * striping (§6) → a single disk (the one-minute barrier, scaled).

use alphasort_iosim::DiskArray;

use super::*;

/// Wall-clock acceleration over true 1993 device speeds.
const SPEEDUP: f64 = 4.0;

/// `disks` RZ26 drives paced at [`SPEEDUP`], four to a SCSI controller.
fn paced_rz26(disks: usize) -> DiskArray {
    let pacing = Pacing::RealTime { speedup: SPEEDUP };
    let (rz26, scsi) = (catalog::rz26(), catalog::scsi_controller());
    modeled_array(pacing, rz26, scsi, 4, disks)
}

pub fn run(records: u64) -> Report {
    let mut r = Report::default();
    r.line(format!(
        "== ablation: {} records ({} MB) on paced RZ26 disks (1993-scale seconds) ==\n",
        records,
        records / 10_000
    ));
    let base_cfg = SortConfig {
        run_records: 20_000,
        gather_batch: 5_000,
        workers: 2,
        ..Default::default()
    };
    // Elapsed seconds at true 1993 speed.
    let time = |staged: &StagedSort, cfg: &SortConfig, depth| {
        staged.sort(cfg, depth, false).0.elapsed.as_secs_f64() * SPEEDUP
    };

    let eight_disks = paced_rz26(8);
    let eight = StagedSort::stage(&eight_disks, records, 99);
    let mut t = Table::new(["configuration", "1993-scale s", "vs baseline"]);
    let baseline = time(&eight, &base_cfg, 3);
    t.row([
        "baseline: 8 disks, triple-buffered, key-prefix, 2 workers".to_string(),
        format!("{baseline:.1}"),
        "1.00x".to_string(),
    ]);

    let no_overlap = time(&eight, &base_cfg, 1);
    t.row([
        "no triple buffering (depth 1)".to_string(),
        format!("{no_overlap:.1}"),
        format!("{:.2}x", no_overlap / baseline),
    ]);

    let solo_cfg = SortConfig {
        workers: 0,
        ..base_cfg.clone()
    };
    let solo = time(&eight, &solo_cfg, 3);
    t.row([
        "no workers (uniprocessor)".to_string(),
        format!("{solo:.1}"),
        format!("{:.2}x", solo / baseline),
    ]);

    let one_disk = paced_rz26(1);
    let single = time(&StagedSort::stage(&one_disk, records, 99), &base_cfg, 3);
    t.row([
        "one disk instead of eight (no striping)".to_string(),
        format!("{single:.1}"),
        format!("{:.2}x", single / baseline),
    ]);
    r.table(t);
    r.line("");
    // Striping eight disks instead of one should buy their bandwidth.
    r.claim(Host.near("ablation.striping", 8.0, single / baseline, 0.25, "x"));

    r.line(
        "\nreadings: the cpu-side choices (buffering depth, workers) show ~1.0x here\n\
         because a modern host sorts a stride thousands of times faster than a\n\
         1993 CPU — there is nothing for the overlap to hide. On the paper's\n\
         machine, QuickSort time ≈ read time (3.87 s vs ~2.1 s of cpu), which\n\
         is exactly why they needed triple buffering and worker chores; the\n\
         stripefs reader test `read_ahead_keeps_multiple_requests_outstanding`\n\
         reproduces that regime by giving each stride real per-stride compute.",
    );
    r
}
