use alphasort_core::merge::{Merger, PrefixThenKey, RunCursors};
use alphasort_core::runform::form_run;
use alphasort_dmgen::{generate, GenConfig, RECORD_LEN};
use std::time::Instant;

fn main() {
    let (data, _) = generate(GenConfig::datamation(800_000, 3));
    let runs: Vec<_> = data
        .chunks(50_000 * RECORD_LEN)
        .map(|c| form_run(c.to_vec()))
        .collect();
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t0 = Instant::now();
        let m = Merger::<_, PrefixThenKey, _>::new(RunCursors::new(&runs, None), ());
        let mut n = 0u64;
        for _ in m { n += 1; }
        assert_eq!(n, 800_000);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    println!("{:.0} records/s (16-way merge)", 800_000.0 / best);
}
