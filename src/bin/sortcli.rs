//! `sortcli` — an industrial-strength command-line face for AlphaSort.
//!
//! The paper distinguishes benchmark specials from "street-legal" sorts
//! ("AlphaSort slowed down as it was productized in Rdb and in OSF/1
//! HyperSort"). This is the productized entry point: sort a file of
//! 100-byte records on the host file system, one- or two-pass, with worker
//! threads, and optionally verify the output.
//!
//! ```text
//! sortcli <input> <output> [--workers N] [--run RECORDS]
//!         [--two-pass] [--layout datamation|varlen] [--corpus NAME]
//!         [--merge-workers N]
//!         [--scratch-dir DIR] [--resume] [--io-retries N] [--io-backoff-ms MS]
//!         [--gen RECORDS[:SEED]] [--verify]
//!         [--trace-out TRACE.json] [--metrics-out METRICS.json]
//! ```
//!
//! (`sortcli --help` prints the same line from the table the parser reads;
//! the command-line rules are `alphasort_suite::cli`'s.)
//!
//! `--layout varlen` sorts length-prefixed records with string keys (the
//! same pipeline, merging on offset-value codes) instead of fixed 100-byte
//! Datamation records;
//! with `--gen` the input is drawn from a named text corpus (`--corpus`,
//! default `urls`; see `TextCorpus` for the registry) and `--verify` checks
//! the output is a sorted permutation of the input frames.
//!
//! `--merge-workers N` cuts the final merge into `N` ≤ 256 disjoint key
//! ranges by sampled splitters and merges them on one thread each (0, the
//! default, keeps the classic serial tournament). Output is byte-identical
//! either way; the summary line reports the per-range record skew.
//!
//! `--gen` first writes a Datamation-style input file (and with `--verify`
//! checks the output is a sorted permutation of it). `--trace-out` records
//! spans across every pipeline layer and writes a Chrome `trace_event` file
//! (load it in Perfetto / `chrome://tracing`), printing the paper's
//! Figure 7 "where the time goes" table to stderr; `--metrics-out` writes
//! the counter/gauge/histogram snapshot as the round-trippable
//! `MetricsSnapshot` document sortd's `metrics` request also answers with.
//!
//! Two-pass scratch runs — of either layout — go to a striped, checksummed
//! volume: over in-memory disks by default, or with `--scratch-dir` over
//! disk-image files in DIR, with a run manifest persisted there. After a
//! crash, re-running with `--resume`
//! verifies the surviving runs against the manifest and re-forms only what
//! is missing or corrupt. `--io-retries` / `--io-backoff-ms` set the scratch
//! volume's transient-IO retry budget.

use std::io;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use alphasort_suite::cli::Arg::{Switch, Val};
use alphasort_suite::cli::{self, failed, Artifacts, Command, Flag, Flags, Stop};
use alphasort_suite::sort::driver::{check_sizes, one_pass, two_pass, StripeScratch};
use alphasort_suite::sort::io_file::{FileSink, FileSource};
use alphasort_suite::sort::{RecordLayout, SortConfig};
use alphasort_suite::stripefs::{RetryPolicy, Volume};

const SORTCLI: Command = Command {
    name: "sortcli",
    positionals: &["input", "output"],
    flags: &[
        Flag("--workers", Val("N")),
        Flag("--run", Val("RECORDS")),
        Flag("--layout", Val("NAME")),
        Flag("--corpus", Val("NAME")),
        Flag("--two-pass", Switch),
        Flag("--merge-workers", Val("N")),
        Flag("--scratch-dir", Val("DIR")),
        Flag("--resume", Switch),
        Flag("--io-retries", Val("N")),
        Flag("--io-backoff-ms", Val("MS")),
        Flag("--gen", Val("RECORDS[:SEED]")),
        Flag("--verify", Switch),
        Flag("--trace-out", Val("TRACE.json")),
        Flag("--metrics-out", Val("METRICS.json")),
    ],
    run: sortcli,
};

fn main() -> ExitCode {
    cli::main(&[SORTCLI])
}

/// The striped scratch volume over disk-image files in `dir`, with the run
/// manifest at `dir/scratch.manifest` attached — or, resuming, read back
/// and held against this invocation's input and `--run`.
fn striped_scratch(
    dir: &Path,
    resume: bool,
    retry: RetryPolicy,
    input_bytes: u64,
    cfg: &SortConfig,
) -> io::Result<StripeScratch> {
    let volume = cli::scratch_volume(dir, cli::SCRATCH_DISKS, retry)?;
    let manifest = dir.join("scratch.manifest");
    let run_records = cfg.run_records as u64;
    if !resume {
        let mut scratch = StripeScratch::new(volume, cli::SCRATCH_CHUNK).with_layout(cfg.layout);
        scratch.attach_manifest(&manifest, input_bytes, run_records)?;
        return Ok(scratch);
    }
    let (scratch, report) = StripeScratch::resume(volume, &manifest)?;
    let refuse = |why: String| {
        let why = format!("scratch manifest was written {why}; refusing to resume");
        Err(io::Error::new(io::ErrorKind::InvalidInput, why))
    };
    if report.input_bytes != input_bytes {
        return refuse(format!(
            "for a {}-byte input, but the input is {input_bytes} bytes",
            report.input_bytes
        ));
    }
    if report.run_records != run_records {
        return refuse(format!(
            "with --run {}, but this invocation uses --run {run_records}",
            report.run_records
        ));
    }
    eprintln!(
        "resume: {} intact run(s) recovered, {} discarded as corrupt",
        report.recovered.len(),
        report.corrupt.len()
    );
    for reason in &report.corrupt {
        eprintln!("resume: discarded {reason}");
    }
    Ok(scratch)
}

fn sortcli(flags: &Flags) -> Result<(), Stop> {
    let (input, output) = (flags.pos(0), flags.pos(1));
    let (layout, corpus) = cli::layout_and_corpus(flags)?;
    let cfg = SortConfig {
        run_records: flags.num("--run", 100_000)?,
        workers: flags.num("--workers", 0)?,
        merge_workers: flags.num("--merge-workers", 0)?,
        layout,
        ..Default::default()
    };
    // A size the sort cannot use is refused before anything is written.
    check_sizes(&cfg).map_err(Stop::usage)?;
    let retry = RetryPolicy {
        max_attempts: flags.num("--io-retries", 2u32)?.saturating_add(1),
        backoff: Duration::from_millis(flags.num("--io-backoff-ms", 1)?),
        ..RetryPolicy::default()
    };
    let scratch_dir = flags.get("--scratch-dir").map(Path::new);
    let two_passes = flags.has("--two-pass");
    let resume = flags.has("--resume");
    let verify = flags.has("--verify");
    if scratch_dir.is_some() && !two_passes {
        return Err(Stop::usage("--scratch-dir requires --two-pass"));
    }
    if resume && scratch_dir.is_none() {
        return Err(Stop::usage("--resume requires --scratch-dir"));
    }
    if verify && layout == RecordLayout::Datamation && !flags.has("--gen") {
        return Err(Stop::usage(
            "--verify requires --gen (the input fingerprint)",
        ));
    }

    let fingerprint = cli::generate_input(flags, input, layout, corpus)?;

    // Start recording after generation so the trace covers only the sort.
    let artifacts = Artifacts::record(flags);
    let mut source = FileSource::open(input).map_err(failed(format!("cannot open {input}")))?;
    let mut sink = FileSink::create(output).map_err(failed(format!("cannot create {output}")))?;
    let outcome = match (two_passes, scratch_dir) {
        (false, _) => one_pass(&mut source, &mut sink, &cfg),
        (true, None) => {
            let volume = Arc::new(Volume::in_memory(cli::SCRATCH_DISKS));
            let mut scratch = StripeScratch::new(volume, cli::SCRATCH_CHUNK).with_layout(layout);
            two_pass(&mut source, &mut sink, &mut scratch, &cfg)
        }
        (true, Some(dir)) => {
            let mut scratch = std::fs::metadata(input)
                .and_then(|m| striped_scratch(dir, resume, retry, m.len(), &cfg))
                .map_err(failed("scratch setup failed"))?;
            two_pass(&mut source, &mut sink, &mut scratch, &cfg)
        }
    };
    let st = outcome.map_err(failed("sort failed"))?.stats;
    if resume {
        eprintln!(
            "resume: reused {} recovered run(s), re-formed {}",
            st.runs_recovered, st.runs_reformed
        );
    }
    eprintln!(
        "sorted {} records in {:.3} s ({:.1} MB/s): {} runs, \
         runform {:.3} s, merge {:.3} s, gather {:.3} s, {} pass(es)",
        st.records,
        st.elapsed.as_secs_f64(),
        st.throughput_mbps(),
        st.runs,
        st.sort_time.as_secs_f64(),
        st.merge_time.as_secs_f64(),
        st.gather_time.as_secs_f64(),
        if st.one_pass { "one" } else { "two" },
    );
    if !st.merge_range_records.is_empty() {
        eprintln!(
            "partitioned merge: {} range(s), skew {:.2}x (largest range over ideal)",
            st.merge_range_records.len(),
            st.merge_skew(),
        );
    }
    artifacts.write(true)?;

    if verify {
        cli::verify_output(input, output, fingerprint)?;
    }
    Ok(())
}
