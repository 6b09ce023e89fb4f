//! Bench for §4's representation comparison: CPU time to form one sorted
//! run under each sort-array representation (the footnote's 256-bucket
//! partition sort among them), beside the pipeline's own `form_run`.

use std::hint::black_box;

use alphasort_bench::harness::BenchGroup;
use alphasort_bench::variants::Representation;
use alphasort_core::runform::form_run;
use alphasort_dmgen::{generate, GenConfig, KeyDistribution, RECORD_LEN};

fn bench_representations() {
    let n = 100_000u64; // the paper's run size
    let (data, _) = generate(GenConfig::datamation(n, 1));

    let mut g = BenchGroup::new("run_formation");
    g.throughput_bytes(n * RECORD_LEN as u64);
    g.sample_size(10);
    for rep in Representation::ALL {
        g.bench(format!("quicksort/{}", rep.name()), || {
            let mut buf = data.clone();
            black_box((rep.sort(&mut buf, &mut ()), buf))
        });
    }
    g.bench("pipeline/form_run", || black_box(form_run(data.clone())));
}

fn bench_degenerate_prefix() {
    // §4's risk case: a shared prefix forces every compare through to the
    // full keys, degrading key-prefix sort toward pointer sort.
    let n = 100_000u64;
    let mut g = BenchGroup::new("prefix_degeneracy");
    g.sample_size(10);
    for (label, dist) in [
        ("random", KeyDistribution::Random),
        (
            "shared-8-byte-prefix",
            KeyDistribution::CommonPrefix { shared: 8 },
        ),
    ] {
        let (data, _) = generate(GenConfig {
            records: n,
            seed: 2,
            dist,
        });
        g.bench(format!("key_prefix/{label}"), || {
            black_box(Representation::KeyPrefix.sort(&mut data.clone(), &mut ()))
        });
    }
}

fn main() {
    bench_representations();
    bench_degenerate_prefix();
}
