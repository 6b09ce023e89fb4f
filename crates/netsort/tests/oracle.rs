//! Differential oracle for the shared-nothing topology (§2's partitioned
//! sort): the distributed sort at 1 to 5 nodes must be
//! **byte-identical** to a stable sort of the same input, under both record
//! layouts, over the inputs the single-machine oracle
//! (`crates/alphasort/tests/oracle.rs`) holds the pipeline to.
//!
//! Every generated record embeds a unique sequence number, so the stable
//! sort's output is unique: equal keys must come out in input order, which
//! the cluster guarantees by merging the senders' sorted streams in node
//! order (shares are contiguous in input order, and the tournament sends
//! ties to the lower sender), each stream itself stable by run index.

use alphasort_core::{RecordLayout, SortConfig};
use alphasort_dmgen::{
    generate, generate_varlen, records_of, var_records_of, GenConfig, KeyDistribution, TextCorpus,
    VarGenConfig,
};
use alphasort_netsort::{netsort_loopback, NetsortConfig};

/// Ground truth for Datamation records: stable sort by key.
fn stable_reference(data: &[u8]) -> Vec<u8> {
    let mut recs = records_of(data).to_vec();
    recs.sort_by_key(|r| r.key); // slice::sort_by_key is stable
    recs.iter().flat_map(|r| r.as_bytes()).copied().collect()
}

/// Ground truth for var-len frames: stable sort by key bytes.
fn var_stable_reference(data: &[u8]) -> Vec<u8> {
    let mut recs = var_records_of(data).expect("generated corpus parses");
    recs.sort_by(|a, b| a.key().cmp(b.key()));
    recs.iter().flat_map(|r| r.frame()).copied().collect()
}

/// Sort `data` at every node count and hold each output to `want`.
fn cluster_cells(data: &[u8], want: &[u8], records: u64, layout: RecordLayout, what: &str) {
    for nodes in [1, 2, 3, 4, 5] {
        let cfg = NetsortConfig {
            samples_per_node: 64,
            batch_records: 7, // 700-byte Data frames: var-len records straddle them
            sort: SortConfig {
                run_records: (records as usize / 7).max(1),
                gather_batch: 128,
                layout,
                ..Default::default()
            },
            ..Default::default()
        };
        let (got, stats) = netsort_loopback(data, nodes, &cfg).unwrap();
        assert!(
            got == want,
            "nodes={nodes} [{what}]: output differs from the stable sort"
        );
        assert_eq!(stats.partition_sizes.len(), nodes, "{what}");
        assert_eq!(stats.partition_sizes.iter().sum::<u64>(), records, "{what}");
        assert_eq!(stats.exchange_bytes_out, stats.exchange_bytes_in, "{what}");
    }
}

fn oracle_case(records: u64, seed: u64, dist: KeyDistribution) {
    let (data, _) = generate(GenConfig {
        records,
        seed,
        dist,
    });
    let want = stable_reference(&data);
    let what = format!("{records} records, seed {seed:#x}, {dist:?}");
    cluster_cells(&data, &want, records, RecordLayout::Datamation, &what);
}

fn var_oracle_case(records: u64, seed: u64, corpus: TextCorpus) {
    let data = generate_varlen(VarGenConfig {
        records,
        seed,
        corpus,
    });
    let want = var_stable_reference(&data);
    let what = format!("{records} records, seed {seed:#x}, {}", corpus.name());
    cluster_cells(&data, &want, records, RecordLayout::VarLen, &what);
}

#[test]
fn datamation_inputs_match_the_stable_sort() {
    oracle_case(3_000, 0xAC1E1, KeyDistribution::Random);
    oracle_case(3_000, 0xAC1E2, KeyDistribution::DupHeavy { cardinality: 5 });
    oracle_case(2_000, 0xAC1E3, KeyDistribution::DupHeavy { cardinality: 2 });
    oracle_case(2_000, 0xAC1E4, KeyDistribution::Sorted);
    oracle_case(2_000, 0xAC1E5, KeyDistribution::Reverse);
    oracle_case(2_000, 0xAC1E6, KeyDistribution::CommonPrefix { shared: 9 });
    oracle_case(
        2_000,
        0xAC1E7,
        KeyDistribution::NearlySorted { permille: 50 },
    );
}

#[test]
fn var_len_inputs_match_the_stable_sort() {
    var_oracle_case(1_200, 0xB0, TextCorpus::Urls);
    // Cut into 100-byte pieces instead of frames, this one failed at 4 nodes.
    var_oracle_case(1_320, 0xB0, TextCorpus::Urls);
    var_oracle_case(1_200, 0xB1, TextCorpus::LogLines);
    var_oracle_case(1_200, 0xB2, TextCorpus::ZipfianWords { max_words: 5 });
    var_oracle_case(1_000, 0xB3, TextCorpus::ZipfianWords { max_words: 1 });
    var_oracle_case(
        1_200,
        0xB4,
        TextCorpus::RandomBytes {
            min_key: 0,
            max_key: 40,
        },
    );
    var_oracle_case(
        1_000,
        0xB5,
        TextCorpus::RandomBytes {
            min_key: 1,
            max_key: 8,
        },
    );
    var_oracle_case(1_000, 0xB6, TextCorpus::EmptyKey);
    var_oracle_case(1_000, 0xB7, TextCorpus::AllEqualKey { key_len: 16 });
    var_oracle_case(
        1_000,
        0xB8,
        TextCorpus::SharedMegaPrefix {
            prefix: 48,
            suffix: 8,
        },
    );
    var_oracle_case(
        800,
        0xB9,
        TextCorpus::SharedMegaPrefix {
            prefix: 200,
            suffix: 4,
        },
    );
    var_oracle_case(1_000, 0xBA, TextCorpus::PrefixChain { max_len: 32 });
}

/// Fewer records than nodes, and no records at all: some nodes hold empty
/// shares and own empty partitions, and every one still answers.
#[test]
fn tiny_and_empty_inputs_under_both_layouts() {
    oracle_case(3, 0xAC1E9, KeyDistribution::Random);
    oracle_case(0, 0xAC1E9, KeyDistribution::Random);
    var_oracle_case(3, 0xBD, TextCorpus::Urls);
    var_oracle_case(0, 0xBD, TextCorpus::Urls);
}
