//! `netsort` — drive an N-worker distributed sort, disk to disk.
//!
//! The cluster the paper's §2 baseline imagines, made concrete: the input
//! file is split into contiguous per-node share files (each node's "local
//! disk"), N workers sample/split/exchange/sort in parallel — over the
//! in-process loopback transport or real TCP sockets on 127.0.0.1 — and
//! the per-node outputs concatenate, in node order, into one globally
//! sorted file.
//!
//! ```text
//! netsort <input> <output> [--nodes N] [--tcp] [--gen RECORDS[:SEED]]
//!         [--run RECORDS] [--workers N] [--batch RECORDS] [--samples N]
//!         [--recv-timeout-ms MS] [--verify] [--keep]
//!         [--trace-out TRACE.json] [--metrics-out METRICS.json]
//! ```
//!
//! `--gen` first writes a Datamation-style input file; with `--verify` the
//! output is checked to be a sorted permutation of the input (checksummed
//! while splitting, so `--verify` also works on pre-existing inputs).
//! `--recv-timeout-ms` sets the per-receive deadline every worker applies
//! while waiting on peers (default 30000; a vanished node surfaces as a
//! `TimedOut` error naming the phase and node instead of a hang; `0` waits
//! forever).
//! `--trace-out` writes one Chrome trace covering every node (each worker's
//! spans sit on a `nodeK` track) plus the cluster Figure 7 table on stderr;
//! `--metrics-out` writes the metrics snapshot as JSON (the same
//! round-trippable document sortcli and sortd write). The command-line
//! rules are `alphasort_suite::cli`'s; `netsort --help` prints the usage
//! from the table the parser reads.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::process::ExitCode;
use std::time::Duration;

use alphasort_suite::cli::Arg::{Switch, Val};
use alphasort_suite::cli::{self, failed, Artifacts, Command, Flag, Flags, Stop};
use alphasort_suite::dmgen::{KeyDistribution, RunningChecksum, RECORD_LEN};
use alphasort_suite::netsort::{
    bind_cluster, loopback_cluster, merge_cluster_stats, run_worker, NetsortConfig, RetryPolicy,
    TcpTransport, Transport,
};
use alphasort_suite::sort::driver::check_sizes;
use alphasort_suite::sort::io_file::{FileSink, FileSource};
use alphasort_suite::sort::{SortConfig, SortStats};

const NETSORT: Command = Command {
    name: "netsort",
    positionals: &["input", "output"],
    flags: &[
        Flag("--nodes", Val("N")),
        Flag("--tcp", Switch),
        Flag("--gen", Val("RECORDS[:SEED]")),
        Flag("--run", Val("RECORDS")),
        Flag("--workers", Val("N")),
        Flag("--batch", Val("RECORDS")),
        Flag("--samples", Val("N")),
        Flag("--recv-timeout-ms", Val("MS")),
        Flag("--verify", Switch),
        Flag("--keep", Switch),
        Flag("--trace-out", Val("TRACE.json")),
        Flag("--metrics-out", Val("METRICS.json")),
    ],
    run: netsort,
};

fn main() -> ExitCode {
    cli::main(&[NETSORT])
}

/// Stream `input` into `nodes` contiguous record-aligned share files
/// (`<output>.nodeK.in`), checksumming every record on the way through.
fn split_to_share_files(
    input: &str,
    output: &str,
    nodes: usize,
) -> io::Result<(Vec<String>, RunningChecksum)> {
    let len = fs::metadata(input)?.len();
    if !len.is_multiple_of(RECORD_LEN as u64) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{input} is not a whole number of {RECORD_LEN}-byte records"),
        ));
    }
    let records = len / RECORD_LEN as u64;
    let per = records.div_ceil(nodes as u64).max(1) * RECORD_LEN as u64;
    let mut reader = BufReader::with_capacity(1 << 20, File::open(input)?);
    let mut checksum = RunningChecksum::new();
    let mut paths = Vec::with_capacity(nodes);
    let mut buf = vec![0u8; 64 * RECORD_LEN];
    for node in 0..nodes {
        let path = format!("{output}.node{node}.in");
        let mut writer = BufWriter::with_capacity(1 << 20, File::create(&path)?);
        let mut left = per.min((records * RECORD_LEN as u64).saturating_sub(node as u64 * per));
        while left > 0 {
            let want = (left as usize).min(buf.len());
            reader.read_exact(&mut buf[..want])?;
            checksum.update_bytes(&buf[..want]);
            writer.write_all(&buf[..want])?;
            left -= want as u64;
        }
        writer.flush()?;
        paths.push(path);
    }
    Ok((paths, checksum))
}

/// Run every worker in its own thread; each builds its transport with its
/// `maker` (TCP establishment must happen concurrently — every node blocks
/// until its peers dial in), reads its share file, writes its part file.
fn run_cluster<T, F>(
    makers: Vec<F>,
    shares: &[String],
    parts: &[String],
    cfg: &NetsortConfig,
) -> io::Result<Vec<SortStats>>
where
    T: Transport,
    F: FnOnce() -> io::Result<T> + Send,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = makers
            .into_iter()
            .enumerate()
            .map(|(node, maker)| {
                let share = &shares[node];
                let part = &parts[node];
                scope.spawn(move || -> io::Result<SortStats> {
                    let mut transport = maker()?;
                    let mut source = FileSource::open(share)?;
                    let mut sink = FileSink::create(part)?;
                    Ok(run_worker(&mut transport, &mut source, &mut sink, cfg)?.stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

fn concatenate(parts: &[String], output: &str) -> io::Result<u64> {
    let mut writer = BufWriter::with_capacity(1 << 20, File::create(output)?);
    let mut total = 0;
    for part in parts {
        total += io::copy(&mut File::open(part)?, &mut writer)?;
    }
    writer.flush()?;
    Ok(total)
}

fn netsort(flags: &Flags) -> Result<(), Stop> {
    let (input, output) = (flags.pos(0), flags.pos(1));
    let nodes: usize = flags.num("--nodes", 4)?;
    let tcp = flags.has("--tcp");
    let default_timeout = NetsortConfig::DEFAULT_RECV_TIMEOUT.as_millis() as u64;
    let cfg = NetsortConfig {
        samples_per_node: flags.num("--samples", 256)?,
        batch_records: flags.num("--batch", 640)?,
        // 0 = wait forever.
        recv_timeout: match flags.num("--recv-timeout-ms", default_timeout)? {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        sort: SortConfig {
            run_records: flags.num("--run", 100_000)?,
            workers: flags.num("--workers", 0)?,
            ..Default::default()
        },
    };
    if nodes == 0 || cfg.batch_records == 0 {
        return Err(Stop::usage("--nodes and --batch must be at least 1"));
    }
    // Every node would refuse the same size after the exchange; refuse it
    // once, before anything is written.
    check_sizes(&cfg.sort).map_err(Stop::usage)?;

    if let Some((records, seed)) = flags.get("--gen").map(cli::parse_gen).transpose()? {
        cli::generate_datamation_file(input, records, seed, KeyDistribution::Random)?;
    }
    let (shares, checksum) =
        split_to_share_files(input, output, nodes).map_err(failed("split failed"))?;
    let parts: Vec<String> = (0..nodes)
        .map(|n| format!("{output}.node{n}.out"))
        .collect();

    // Start recording after generation + splitting so the trace covers only
    // the distributed sort itself; each worker tags its own `nodeK` track.
    let artifacts = Artifacts::record(flags);
    let per_node = if tcp {
        bind_cluster(nodes).and_then(|(listeners, addrs)| {
            let addrs = &addrs;
            let policy = RetryPolicy::default();
            let makers: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(node, listener)| {
                    let policy = policy.clone();
                    move || TcpTransport::establish(node, listener, addrs, &policy)
                })
                .collect();
            run_cluster(makers, &shares, &parts, &cfg)
        })
    } else {
        let makers: Vec<_> = loopback_cluster(nodes)
            .into_iter()
            .map(|t| move || Ok(t))
            .collect();
        run_cluster(makers, &shares, &parts, &cfg)
    };
    let per_node = per_node.map_err(failed("distributed sort failed"))?;

    concatenate(&parts, output).map_err(failed("concatenation failed"))?;
    if !flags.has("--keep") {
        for path in shares.iter().chain(parts.iter()) {
            let _ = fs::remove_file(path);
        }
    }

    let st = merge_cluster_stats(&per_node);
    eprintln!(
        "netsort: {} records on {nodes} {} node(s) in {:.3} s ({:.1} MB/s aggregate)",
        st.records,
        if tcp { "tcp" } else { "loopback" },
        st.elapsed.as_secs_f64(),
        st.throughput_mbps(),
    );
    eprintln!(
        "exchange: {:.1} MB shipped, {:.1} MB received, wait {:.3} s (critical path), \
         skew {:.2}, partitions {:?}",
        st.exchange_bytes_out as f64 / 1e6,
        st.exchange_bytes_in as f64 / 1e6,
        st.exchange_wait.as_secs_f64(),
        st.exchange_skew(),
        st.partition_sizes,
    );
    eprintln!(
        "local pipeline: runform {:.3} s, merge {:.3} s, gather {:.3} s, {} pass(es)",
        st.sort_time.as_secs_f64(),
        st.merge_time.as_secs_f64(),
        st.gather_time.as_secs_f64(),
        if st.one_pass { "one" } else { "two" },
    );
    artifacts.write(true)?;

    if flags.has("--verify") {
        let report = cli::verify_datamation_file(output, checksum.finish())?;
        eprintln!("verified: {} records, sorted permutation ✓", report.records);
    }
    Ok(())
}
