//! Bench: the striping layer's host-side overhead — sequential striped
//! read/write throughput over unconstrained in-memory disks as the stripe
//! widens (the software cost of striping, independent of device speed), and
//! stripe geometry planning.

use std::hint::black_box;
use std::sync::Arc;

use alphasort_bench::harness::BenchGroup;
use alphasort_stripefs::{Member, StripeDef, StripedReader, StripedWriter, Volume};

fn bench_striped_io() {
    let bytes = 8_000_000usize;
    let mut g = BenchGroup::new("striped_io");
    g.throughput_bytes(bytes as u64);
    g.sample_size(10);
    for width in [1usize, 4, 16] {
        let v = Volume::in_memory(width);
        let chunk = vec![0u8; 1 << 20];
        let mut file_no = 0u64;
        g.bench(format!("write/{width}"), || {
            file_no += 1;
            let f = Arc::new(v.create_across_all(format!("f{file_no}"), 64 * 1024, bytes as u64));
            let mut wtr = StripedWriter::new(f);
            let mut left = bytes;
            while left > 0 {
                let n = left.min(chunk.len());
                wtr.push(&chunk[..n]).unwrap();
                left -= n;
            }
            black_box(wtr.finish().unwrap())
        });

        let v = Volume::in_memory(width);
        let f = Arc::new(v.create_across_all("data", 64 * 1024, bytes as u64));
        let mut left = bytes;
        let mut wtr = StripedWriter::new(Arc::clone(&f));
        while left > 0 {
            let n = left.min(chunk.len());
            wtr.push(&chunk[..n]).unwrap();
            left -= n;
        }
        wtr.finish().unwrap();
        g.bench(format!("read/{width}"), || {
            let mut r = StripedReader::new(Arc::clone(&f));
            let mut total = 0usize;
            while let Some(s) = r.next_stride() {
                total += s.unwrap().len();
            }
            black_box(total)
        });
    }
}

fn bench_geometry() {
    let def = StripeDef::new(
        "g",
        64 * 1024,
        (0..16).map(|i| Member { disk: i, base: 0 }).collect(),
    );
    let mut g = BenchGroup::new("stripe_geometry");
    g.sample_size(10);
    g.bench("plan_1MB_range", || black_box(def.plan(123_456, 1 << 20)));
    let mut off = 0u64;
    g.bench("locate_x1000", || {
        for _ in 0..1000 {
            off = (off + 37_123) % (1 << 30);
            black_box(def.locate(off));
        }
    });
}

fn main() {
    bench_striped_io();
    bench_geometry();
}
