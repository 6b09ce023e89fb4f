//! Workspace integration tests for the distributed sort: the distributed
//! output must be byte-identical to the single-node pipeline's, over both
//! transports, for arbitrary cluster shapes and key skews — and a
//! connection cut mid-exchange must fail cleanly, not hang or corrupt.

use std::io;

use alphasort_core::driver::one_pass;
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::{RecordLayout, SortConfig};
use alphasort_dmgen::{
    build_var_record, generate, validate_records, var_records_of, GenConfig, KeyDistribution,
    SplitMix64, RECORD_LEN,
};
use alphasort_netsort::{
    bind_cluster, encode_keys, netsort_loopback, netsort_tcp, run_worker, Frame, NetsortConfig,
    RetryPolicy, TcpTransport, Transport, MAX_PAYLOAD,
};

/// The single-node reference: the ordinary one-pass pipeline's exact bytes.
fn reference_sort(input: &[u8]) -> Vec<u8> {
    let mut source = MemSource::new(input.to_vec(), 1 << 20);
    let mut sink = MemSink::new();
    let cfg = SortConfig {
        run_records: 10_000,
        gather_batch: 1_000,
        ..Default::default()
    };
    one_pass(&mut source, &mut sink, &cfg).unwrap();
    sink.into_inner()
}

fn small_sort_cfg(r: &mut SplitMix64) -> SortConfig {
    SortConfig {
        run_records: 1 + r.next_below(2_000) as usize,
        gather_batch: 1 + r.next_below(500) as usize,
        workers: r.next_below(3) as usize,
        ..Default::default()
    }
}

/// Property: for random record counts, node counts 1–8 and skewed key
/// distributions, the distributed output is byte-identical to the
/// single-node one-pass output (both are stable sorts of the same input,
/// so full byte equality — not just a valid permutation — must hold).
#[test]
fn distributed_output_is_byte_identical_to_single_node() {
    let mut r = SplitMix64::new(0xD157);
    for case in 0..24 {
        let n = r.next_below(8_000);
        let dist = match r.next_below(4) {
            0 => KeyDistribution::Random,
            1 => KeyDistribution::DupHeavy {
                cardinality: 1 + r.next_below(7) as u32,
            },
            2 => KeyDistribution::CommonPrefix {
                shared: r.next_below(9) as u8,
            },
            _ => KeyDistribution::NearlySorted {
                permille: r.next_below(1001) as u16,
            },
        };
        let nodes = 1 + r.next_below(8) as usize;
        let (input, cs) = generate(GenConfig {
            records: n,
            seed: r.next_u64(),
            dist,
        });
        let cfg = NetsortConfig {
            samples_per_node: 1 + r.next_below(256) as usize,
            batch_records: 1 + r.next_below(640) as usize,
            sort: small_sort_cfg(&mut r),
            ..Default::default()
        };
        let (output, stats) = netsort_loopback(&input, nodes, &cfg).unwrap();
        assert_eq!(
            output,
            reference_sort(&input),
            "case {case}: nodes={nodes} n={n} dist={dist:?}"
        );
        validate_records(&output, cs).unwrap();
        assert_eq!(stats.records, n, "case {case}");
        assert_eq!(stats.partition_sizes.len(), nodes, "case {case}");
    }
}

/// Acceptance shape: 100k Datamation records across 4 in-process workers.
#[test]
fn hundred_k_records_across_four_workers() {
    let n = 100_000u64;
    let (input, cs) = generate(GenConfig::datamation(n, 0xACCE97));
    let cfg = NetsortConfig {
        sort: SortConfig {
            run_records: 10_000,
            gather_batch: 1_000,
            workers: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let (output, stats) = netsort_loopback(&input, 4, &cfg).unwrap();
    assert_eq!(output, reference_sort(&input));
    let report = validate_records(&output, cs).unwrap();
    assert_eq!(report.records, n);
    assert_eq!(stats.partition_sizes.iter().sum::<u64>(), n);
    // Random keys + probabilistic splitting: partitions roughly balance.
    assert!(
        stats.exchange_skew() < 1.5,
        "skew {}",
        stats.exchange_skew()
    );
    // ~3/4 of all records cross the interconnect on 4 nodes.
    assert!(stats.exchange_bytes_out > n * RECORD_LEN as u64 / 2);
}

/// Probabilistic splitting on random keys: 256 samples from each of 8
/// nodes keep the largest partition within 1.35× its fair share.
#[test]
fn probabilistic_splitting_balances_random_keys_at_eight_nodes() {
    let (input, cs) = generate(GenConfig::datamation(50_000, 0xC0BE));
    let (output, stats) = netsort_loopback(&input, 8, &NetsortConfig::default()).unwrap();
    validate_records(&output, cs).unwrap();
    assert_eq!(stats.partition_sizes.len(), 8);
    assert!(
        stats.exchange_skew() < 1.35,
        "skew {}",
        stats.exchange_skew()
    );
}

/// Samples of long keys stay under the frame cap: 256 keys of 64 KiB would
/// be a 16.8 MB `Sample` payload, past the `MAX_PAYLOAD` a TCP send
/// enforces, so node 1's sampler stops short and the sort still matches a
/// stable sort.
#[test]
fn samples_of_64_kib_keys_stay_under_the_frame_cap() {
    let mut r = SplitMix64::new(0x64);
    let mut input = Vec::new();
    for seq in 0..520u32 {
        let mut key: Vec<u8> = (0..8192).flat_map(|_| r.next_u64().to_le_bytes()).collect();
        key.truncate(u16::MAX as usize);
        input.extend_from_slice(&build_var_record(&key, &seq.to_le_bytes()));
    }
    let cfg = NetsortConfig {
        sort: SortConfig {
            layout: RecordLayout::VarLen,
            ..Default::default()
        },
        ..Default::default()
    };
    assert!(cfg.samples_per_node * (4 + u16::MAX as usize) > MAX_PAYLOAD);
    let (output, stats) = netsort_tcp(&input, 2, &cfg, &RetryPolicy::default()).unwrap();
    let mut recs = var_records_of(&input).unwrap();
    recs.sort_by(|a, b| a.key().cmp(b.key()));
    let want: Vec<u8> = recs.iter().flat_map(|r| r.frame()).copied().collect();
    assert!(output == want);
    assert_eq!(stats.records, 520);
}

/// A dup-heavy distribution must stay correct even though the splitters
/// cannot balance it (all ties route to one node).
#[test]
fn skewed_distribution_is_correct_but_unbalanced() {
    let (input, cs) = generate(GenConfig {
        records: 20_000,
        seed: 5,
        dist: KeyDistribution::DupHeavy { cardinality: 2 },
    });
    let (output, stats) = netsort_loopback(&input, 8, &NetsortConfig::default()).unwrap();
    validate_records(&output, cs).unwrap();
    assert_eq!(output, reference_sort(&input));
    // Two distinct keys over 8 nodes: some node owns ≥ 4× its fair share.
    assert!(
        stats.exchange_skew() > 3.0,
        "skew {}",
        stats.exchange_skew()
    );
}

/// Two real-socket workers: same byte-identical contract over TCP.
#[test]
fn tcp_loopback_two_workers_match_single_node() {
    let n = 100_000u64;
    let (input, cs) = generate(GenConfig::datamation(n, 0x7C9));
    let cfg = NetsortConfig {
        sort: SortConfig {
            run_records: 10_000,
            gather_batch: 1_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let (output, stats) = netsort_tcp(&input, 2, &cfg, &RetryPolicy::default()).unwrap();
    assert_eq!(output, reference_sort(&input));
    let report = validate_records(&output, cs).unwrap();
    assert_eq!(report.records, n);
    assert_eq!(stats.partition_sizes.len(), 2);
    assert!(stats.exchange_bytes_out > 0);
    assert_eq!(stats.exchange_bytes_out, stats.exchange_bytes_in);
}

/// Kill one TCP connection mid-exchange: the surviving worker must fail
/// with a clean connection error (never hang, never emit bad output).
/// Whether the cut surfaces on the receive side (`ConnectionAborted` from
/// the reader seeing EOF-without-Bye) or the send side (`BrokenPipe`/
/// `ConnectionReset` writing into the dead socket) depends on timing; both
/// are prompt, correctly attributed failures.
#[test]
fn connection_cut_mid_exchange_fails_cleanly() {
    let (listeners, addrs) = bind_cluster(2).unwrap();
    let mut listeners = listeners.into_iter();
    let l0 = listeners.next().unwrap();
    let l1 = listeners.next().unwrap();
    let policy = RetryPolicy::default();

    // Node 1 is sabotaged: it plays the protocol up to the exchange, ships
    // one data frame, then vanishes without Done or Bye.
    let addrs1 = addrs.clone();
    let p1 = policy.clone();
    let saboteur = std::thread::spawn(move || {
        let mut t = TcpTransport::establish(1, l1, &addrs1, &p1).unwrap();
        t.send(
            0,
            Frame::Sample {
                from: 1,
                keys: encode_keys(&[[0x42; 10]]),
            },
        )
        .unwrap();
        // Wait for the splitters so node 0 is definitely mid-exchange.
        match t.recv().unwrap() {
            Frame::Splitters { .. } => {}
            other => panic!("expected splitters, got {other:?}"),
        }
        t.send(
            0,
            Frame::Data {
                from: 1,
                records: vec![0u8; RECORD_LEN],
            },
        )
        .unwrap();
        t.kill_connection(0);
        // Dropping the transport without `Bye` on the listener side too.
    });

    let (input, _) = generate(GenConfig::datamation(5_000, 9));
    let mut transport = TcpTransport::establish(0, l0, &addrs, &policy).unwrap();
    let source = MemSource::new(input, 1 << 20);
    let mut sink = MemSink::new();
    let err = run_worker(&mut transport, source, &mut sink, &NetsortConfig::default()).unwrap_err();
    assert!(
        matches!(
            err.kind(),
            io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::ConnectionReset
        ),
        "{err}"
    );
    saboteur.join().unwrap();
}
