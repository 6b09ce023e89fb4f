//! The shared-nothing baseline vs AlphaSort (§2 / §9).
//!
//! The pre-AlphaSort record was a partitioned-data design (DeWitt et al.'s
//! Hypercube, 58 s with 32 cpus and 32 disks); AlphaSort beat it 8:1 on a
//! shared-memory machine. This experiment runs both designs on the same
//! host over the same data: the AlphaSort pipeline vs netsort, the
//! shared-nothing cluster (each node forms runs, cuts them at sampled
//! splitters and exchanges sorted pieces), on the in-process loopback
//! transport — plus the splitting-balance diagnostics DeWitt's paper is
//! about. netsort samples its sorted runs at a regular stride: from 16
//! samples per node up that balances better than DeWitt's random sample of
//! unsorted input, and at 4 worse, since every node then samples the same
//! ranks of its share.

use alphasort_dmgen::KeyDistribution;
use alphasort_netsort::{netsort_loopback, NetsortConfig};

use super::*;

pub fn run(records: u64) -> Report {
    let mut r = Report::default();
    let (input, cs) = generate(GenConfig::datamation(records, 32));

    r.line(format!(
        "== AlphaSort vs partitioned parallel sort ({records} records, host) ==\n"
    ));
    let mut t = Table::new(["algorithm", "elapsed s", "notes"]);

    // AlphaSort pipeline.
    let cfg = paper_cfg(host_workers());
    let st = sort_in_memory(input.clone(), cs, &cfg);
    let alpha_s = st.elapsed.as_secs_f64();
    t.row([
        format!("AlphaSort (shared memory, workers: {})", cfg.workers),
        format!("{alpha_s:.3}"),
        format!("{} runs, merge+gather", st.runs),
    ]);

    // The partitioned design at several node counts, each node sorting its
    // partition serially.
    let netsort = |samples_per_node: usize| NetsortConfig {
        samples_per_node,
        sort: paper_cfg(0),
        ..Default::default()
    };
    let mut fastest = f64::INFINITY;
    for nodes in [4usize, 8, 16, 32] {
        let t0 = Instant::now();
        let (out, stats) = netsort_loopback(&input, nodes, &netsort(256)).unwrap();
        let part_s = t0.elapsed().as_secs_f64();
        validate_records(&out, cs).unwrap();
        t.row([
            format!("netsort loopback, {nodes} nodes"),
            format!("{part_s:.3}"),
            format!("skew {:.2}", stats.exchange_skew()),
        ]);
        fastest = fastest.min(part_s);
    }
    r.table(t);
    r.line("");
    // The Hypercube's 58 s against AlphaSort's 7 s.
    r.claim(Host.near("baseline.ratio", 8.0, fastest / alpha_s, 0.25, ":1"));
    r.line(
        "  (on one host the \"interconnect\" is in-process channels, though every\n\
         record still crosses it framed and checksummed, so the partitioned\n\
         design's network cost cannot show)",
    );

    r.line("\n== splitting balance (8 nodes) ==\n");
    let mut b = Table::new(["samples/node", "skew (max/ideal)"]);
    let mut skews = Vec::new();
    for samples in [4usize, 16, 64, 256, 1024] {
        let (_, stats) = netsort_loopback(&input, 8, &netsort(samples)).unwrap();
        b.row([samples.to_string(), format!("{:.3}", stats.exchange_skew())]);
        skews.push(stats.exchange_skew());
    }
    r.table(b);
    r.line("");
    let says = "more samples per node split the partitions more evenly";
    let (few, many) = (skews[0], skews[4]);
    let measured = format!("skew {few:.3} at 4 samples/node, {many:.3} at 1024");
    r.claim(Host.check("baseline.sampling", says, measured, many < few));

    r.line("\n== splitting under skewed keys ==\n");
    let (skewed, _) = generate(GenConfig {
        records: records / 4,
        seed: 33,
        dist: KeyDistribution::DupHeavy { cardinality: 3 },
    });
    let (_, stats) = netsort_loopback(&skewed, 8, &netsort(256)).unwrap();
    r.line(format!(
        "3 distinct keys over 8 nodes: skew {:.1} — sampling cannot split what\n\
         doesn't vary; AlphaSort's single-address-space merge has no such\n\
         failure mode (its shared memory is the \"interconnect\").",
        stats.exchange_skew()
    ));
    r
}
