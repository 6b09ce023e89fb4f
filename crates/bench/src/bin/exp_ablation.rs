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
//!
//! ```sh
//! cargo run --release -p alphasort-bench --bin exp_ablation [records]
//! ```

use std::sync::Arc;
use std::time::Instant;

use alphasort_core::driver::one_pass;
use alphasort_core::io::{StripeSink, StripeSource};
use alphasort_core::SortConfig;
use alphasort_dmgen::{validate_reader, GenConfig, Generator, RECORD_LEN};
use alphasort_iosim::{catalog, IoEngine, MemStorage, Pacing, SimDisk};
use alphasort_perfmodel::table::Table;
use alphasort_stripefs::{StripedReader, StripedWriter, Volume};

/// Wall-clock acceleration over true 1993 device speeds.
const SPEEDUP: f64 = 4.0;

struct Setup {
    volume: Arc<Volume>,
    input: Arc<alphasort_stripefs::StripedFile>,
    checksum: alphasort_dmgen::Checksum,
}

fn setup(disks: usize, records: u64) -> Setup {
    let spec = catalog::rz26();
    let members: Vec<_> = (0..disks)
        .map(|i| {
            SimDisk::new(
                format!("rz26-{i}"),
                spec.clone(),
                Arc::new(MemStorage::new()),
                Pacing::RealTime { speedup: SPEEDUP },
                None,
            )
        })
        .collect();
    let volume = Arc::new(Volume::new(Arc::new(IoEngine::new(members))));
    let bytes = records * RECORD_LEN as u64;
    let input = Arc::new(volume.create_across_all("input", 64 * 1024, bytes));
    let mut gen = Generator::new(GenConfig::datamation(records, 99));
    let mut w = StripedWriter::new(Arc::clone(&input));
    let mut buf = vec![0u8; 5_000 * RECORD_LEN];
    loop {
        let n = gen.fill(&mut buf);
        if n == 0 {
            break;
        }
        w.push(&buf[..n]).expect("load");
    }
    w.finish().expect("load");
    Setup {
        volume,
        input,
        checksum: gen.checksum(),
    }
}

/// Run one configuration; returns elapsed seconds at 1993 scale.
fn run(s: &Setup, name: &str, cfg: &SortConfig, depth: usize) -> f64 {
    let output = Arc::new(s.volume.create_across_all(
        format!("out-{name}"),
        64 * 1024,
        s.input.len(),
    ));
    let t0 = Instant::now();
    let mut source = StripeSource::from(StripedReader::with_depth(Arc::clone(&s.input), depth));
    let mut sink = StripeSink::from(StripedWriter::with_depth(Arc::clone(&output), depth));
    one_pass(&mut source, &mut sink, cfg).expect("sort");
    let wall = t0.elapsed().as_secs_f64();
    let mut reader = StripedReader::new(Arc::clone(&output));
    validate_reader(&mut reader, s.checksum)
        .expect("read back")
        .expect("invalid output");
    s.volume.delete(&output);
    wall * SPEEDUP // report at true 1993 speed
}

fn main() {
    let records: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400_000);
    println!(
        "== ablation: {} records ({} MB) on paced RZ26 disks (1993-scale seconds) ==\n",
        records,
        records / 10_000
    );
    let base_cfg = SortConfig {
        run_records: 20_000,
        gather_batch: 5_000,
        workers: 2,
        ..Default::default()
    };

    let eight = setup(8, records);
    let mut t = Table::new(["configuration", "1993-scale s", "vs baseline"]);
    let baseline = run(&eight, "baseline", &base_cfg, 3);
    t.row([
        "baseline: 8 disks, triple-buffered, key-prefix, 2 workers".to_string(),
        format!("{baseline:.1}"),
        "1.00x".to_string(),
    ]);

    let no_overlap = run(&eight, "depth1", &base_cfg, 1);
    t.row([
        "no triple buffering (depth 1)".to_string(),
        format!("{no_overlap:.1}"),
        format!("{:.2}x", no_overlap / baseline),
    ]);

    let solo_cfg = SortConfig {
        workers: 0,
        ..base_cfg.clone()
    };
    let solo = run(&eight, "solo", &solo_cfg, 3);
    t.row([
        "no workers (uniprocessor)".to_string(),
        format!("{solo:.1}"),
        format!("{:.2}x", solo / baseline),
    ]);

    let one = setup(1, records);
    let single = run(&one, "onedisk", &base_cfg, 3);
    t.row([
        "one disk instead of eight (no striping)".to_string(),
        format!("{single:.1}"),
        format!("{:.2}x", single / baseline),
    ]);
    print!("{}", t.render());

    println!(
        "\nreadings: striping is the big lever (~8x of disk time). The cpu-side\n\
         choices (buffering depth, workers) show ~1.0x here\n\
         because a modern host sorts a stride thousands of times faster than a\n\
         1993 CPU — there is nothing for the overlap to hide. On the paper's\n\
         machine, QuickSort time ≈ read time (3.87 s vs ~2.1 s of cpu), which\n\
         is exactly why they needed triple buffering and worker chores; the\n\
         stripefs reader test `read_ahead_keeps_multiple_requests_outstanding`\n\
         reproduces that regime by giving each stride real per-stride compute."
    );
}
