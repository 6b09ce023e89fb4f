//! The one command line behind `sortcli`, `netsort`, `sortd`, `gensort` and
//! `valsort`.
//!
//! Each binary is a table of [`Command`]s — its flags, its positionals and
//! the function that runs it — handed to [`main`]. Everything the five used
//! to do by hand lives here once: the flag parser and the usage text it is
//! generated from ([`Flags`]), `--layout` / `--corpus` ([`layout_and_corpus`]),
//! `--gen RECORDS[:SEED]` ([`parse_gen`], [`generate_input`]), `--verify`
//! ([`verify_output`]), `--trace-out` / `--metrics-out` ([`Artifacts`]) and
//! `--scratch-dir` ([`scratch_volume`]).
//!
//! The rules every command follows: an unknown flag, a value flag with no
//! value, a value that does not parse, a missing required flag and a wrong
//! number of positionals are usage errors — one line naming the culprit,
//! then the command's usage, exit 2. `--help` prints the usage the same
//! way. A flag given twice takes its last value. Anything that goes wrong
//! after the command line was understood is a failure: one line, exit 1.

use std::fmt::Display;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use crate::dmgen::{
    generate_varlen, validate_reader, var_records_of, Checksum, GenConfig, Generator,
    KeyDistribution, TextCorpus, ValidationReport, VarGenConfig, RECORD_LEN,
};
use crate::iosim::{catalog, FileStorage, IoEngine, Pacing, SimDisk, Storage};
use crate::obs;
use crate::sort::RecordLayout;
use crate::stripefs::{RetryPolicy, Volume};

/// Why a command stopped short of success.
#[derive(Debug, PartialEq, Eq)]
pub enum Stop {
    /// The command line cannot be used: the message (if any), then the
    /// usage, exit 2.
    Usage(String),
    /// The command line was fine and the work failed: the message, exit 1.
    Failed(String),
}

impl Stop {
    /// A usage error saying `msg`.
    pub fn usage(msg: impl Display) -> Stop {
        Stop::Usage(msg.to_string())
    }
}

/// An IO error that already says what it was doing is the whole message.
impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Stop {
        Stop::Failed(e.to_string())
    }
}

/// `.map_err(failed("cannot open x"))`: a [`Stop::Failed`] reading
/// `cannot open x: <the error>`.
pub fn failed<E: Display>(what: impl Display) -> impl FnOnce(E) -> Stop {
    move |e| Stop::Failed(format!("{what}: {e}"))
}

/// One flag of a [`Command`]: its name as typed (dashes included) and what
/// it takes.
pub struct Flag(pub &'static str, pub Arg);

/// What a [`Flag`] takes; a value's name is its placeholder in the usage.
pub enum Arg {
    /// Nothing: the flag is either there or not.
    Switch,
    /// A value.
    Val(&'static str),
    /// A value, and the command refuses to run without the flag.
    Req(&'static str),
}
use Arg::{Req, Switch, Val};

/// One command: a binary, or one subcommand of a binary.
pub struct Command {
    /// As typed: `sortcli`, or `sortd serve`.
    pub name: &'static str,
    /// Names of the positional arguments, all of them required.
    pub positionals: &'static [&'static str],
    /// Every flag the command reads; any other is refused.
    pub flags: &'static [Flag],
    /// The command itself.
    pub run: fn(&Flags) -> Result<(), Stop>,
}

impl Command {
    /// `name <positional>... [--flag VALUE]...`, wrapped for a terminal.
    pub fn usage(&self) -> String {
        let positionals = self.positionals.iter().map(|p| format!("<{p}>"));
        let flags = self.flags.iter().map(|Flag(name, arg)| match arg {
            Req(v) => format!("{name} {v}"),
            Val(v) => format!("[{name} {v}]"),
            Switch => format!("[{name}]"),
        });
        let mut text = self.name.to_string();
        let mut width = text.len();
        for word in positionals.chain(flags) {
            if width + 1 + word.len() > 72 {
                text.push_str("\n       ");
                width = 7;
            }
            text.push(' ');
            text.push_str(&word);
            width += 1 + word.len();
        }
        text
    }
}

fn print_usage(commands: &[Command]) {
    for (i, cmd) in commands.iter().enumerate() {
        let lead = if i == 0 { "usage: " } else { "       " };
        eprintln!("{lead}{}", cmd.usage().replace('\n', "\n       "));
    }
}

/// A command line held against its [`Command`]'s table.
pub struct Flags<'a> {
    cmd: &'a Command,
    positionals: Vec<String>,
    /// In command-line order; a switch carries an empty value.
    given: Vec<(&'a str, String)>,
}

/// Parse `v` as the value of `what`, or say which value was bad.
pub fn parse_num<T: FromStr>(what: &str, v: &str) -> Result<T, Stop> {
    v.parse()
        .map_err(|_| Stop::usage(format!("bad value for {what}: {v}")))
}

impl<'a> Flags<'a> {
    /// Hold `args` (the command line after the command's name) against
    /// `cmd`'s table.
    pub fn parse(cmd: &'a Command, args: impl IntoIterator<Item = String>) -> Result<Self, Stop> {
        let usage = |msg: String| Err(Stop::Usage(msg));
        let (mut positionals, mut given) = (Vec::new(), Vec::new());
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return usage(String::new());
            }
            if !arg.starts_with('-') {
                positionals.push(arg);
                continue;
            }
            let Some(Flag(name, takes)) = cmd.flags.iter().find(|f| f.0 == arg) else {
                return usage(format!("unknown flag {arg}"));
            };
            let value = match takes {
                Switch => String::new(),
                Val(_) | Req(_) => match args.next() {
                    Some(v) => v,
                    None => return usage(format!("missing value for {arg}")),
                },
            };
            given.push((*name, value));
        }
        if let Some(extra) = positionals.get(cmd.positionals.len()) {
            return usage(format!("unexpected argument {extra}"));
        }
        if let Some(missing) = cmd.positionals.get(positionals.len()) {
            return usage(format!("missing <{missing}>"));
        }
        let flags = Flags {
            cmd,
            positionals,
            given,
        };
        let required = |f: &&Flag| matches!(f.1, Req(_)) && !flags.has(f.0);
        match cmd.flags.iter().find(required) {
            Some(f) => usage(format!("{} is required", f.0)),
            None => Ok(flags),
        }
    }

    /// The `i`-th positional argument.
    pub fn pos(&self, i: usize) -> &str {
        &self.positionals[i]
    }

    /// The value of flag `name` if it was given (empty for a switch).
    pub fn get(&self, name: &str) -> Option<&str> {
        // A flag the table does not list can never have been given, so
        // asking for one is a typo in the binary, not a property of argv.
        debug_assert!(
            self.cmd.flags.iter().any(|f| f.0 == name),
            "{} reads {name}, which its flag table does not list",
            self.cmd.name
        );
        let last = self.given.iter().rev().find(|(k, _)| *k == name);
        last.map(|(_, v)| v.as_str())
    }

    /// Whether switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of `name` parsed as a number, or `default` if absent.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, Stop> {
        self.get(name).map_or(Ok(default), |v| parse_num(name, v))
    }
}

/// Run `cmd` over `args` and turn how it ended into the exit code.
fn run(cmd: &Command, args: impl IntoIterator<Item = String>) -> ExitCode {
    match Flags::parse(cmd, args).and_then(|flags| (cmd.run)(&flags)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Usage(msg)) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            print_usage(std::slice::from_ref(cmd));
            ExitCode::from(2)
        }
        Err(Stop::Failed(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// A binary's `main`: one command runs as it is; several are subcommands,
/// the first argument choosing by the last word of [`Command::name`].
pub fn main(commands: &[Command]) -> ExitCode {
    let mut args = std::env::args().skip(1);
    if let [only] = commands {
        return run(only, args);
    }
    let sub = args.next();
    let named = |c: &&Command| c.name.rsplit(' ').next() == sub.as_deref();
    match commands.iter().find(named) {
        Some(cmd) => run(cmd, args),
        None => {
            match sub.as_deref() {
                None | Some("--help" | "-h" | "help") => {}
                Some(other) => eprintln!("unknown subcommand {other}"),
            }
            print_usage(commands);
            ExitCode::from(2)
        }
    }
}

/// `--gen RECORDS[:SEED]` → (records, seed); the seed defaults to 42.
pub fn parse_gen(spec: &str) -> Result<(u64, u64), Stop> {
    let (records, seed) = spec.split_once(':').unwrap_or((spec, "42"));
    Ok((parse_num("--gen", records)?, parse_num("--gen", seed)?))
}

/// `--layout NAME` (default `datamation`) and `--corpus NAME` (default
/// `urls`: what a var-len `--gen` draws from), each held to its registry.
pub fn layout_and_corpus(flags: &Flags) -> Result<(RecordLayout, TextCorpus), Stop> {
    let unknown = |what: &str, v: &str, names: &[&str]| {
        Stop::usage(format!("unknown {what} {v} (one of: {})", names.join(", ")))
    };
    let layout = match flags.get("--layout") {
        None => RecordLayout::Datamation,
        Some(v) => RecordLayout::from_name(v)
            .ok_or_else(|| unknown("layout", v, &RecordLayout::ALL.map(|l| l.name())))?,
    };
    let corpus = match flags.get("--corpus") {
        None => TextCorpus::Urls,
        Some(v) => TextCorpus::from_name(v)
            .ok_or_else(|| unknown("corpus", v, &TextCorpus::ALL.map(|c| c.name())))?,
    };
    Ok((layout, corpus))
}

/// `--gen RECORDS[:SEED]`, if given: write the input file at `path` in
/// `layout`. A Datamation input's fingerprint comes back for
/// [`verify_output`]; a var-len input has none, as its own frames are what
/// the output is checked against.
pub fn generate_input(
    flags: &Flags,
    path: &str,
    layout: RecordLayout,
    corpus: TextCorpus,
) -> Result<Option<Checksum>, Stop> {
    let Some((records, seed)) = flags.get("--gen").map(parse_gen).transpose()? else {
        return Ok(None);
    };
    if layout == RecordLayout::Datamation {
        let dist = KeyDistribution::Random;
        return Ok(Some(generate_datamation_file(path, records, seed, dist)?));
    }
    let data = generate_varlen(VarGenConfig {
        records,
        seed,
        corpus,
    });
    fs::write(path, &data).map_err(failed(format!("cannot write {path}")))?;
    eprintln!(
        "generated {records} var-len records ({:.1} MB, corpus {}) into {path}",
        data.len() as f64 / 1e6,
        corpus.name(),
    );
    Ok(None)
}

/// `--verify`: `output` must be in key order and a permutation of `input` —
/// of the Datamation input whose `fingerprint` is given, or, with none,
/// frame for frame of the var-len input file.
pub fn verify_output(input: &str, output: &str, fingerprint: Option<Checksum>) -> Result<(), Stop> {
    if let Some(expected) = fingerprint {
        let report = verify_datamation_file(output, expected)?;
        eprintln!("verified: {} records, sorted permutation ✓", report.records);
        return Ok(());
    }
    let records = verify_varlen(input, output).map_err(failed("OUTPUT INVALID"))?;
    eprintln!("verified: {records} var-len records, sorted permutation ✓");
    Ok(())
}

/// Var-len verification: the output must parse, be key-ascending, and hold
/// exactly the input's frames (a sorted permutation, frame for frame).
fn verify_varlen(input: &str, output: &str) -> Result<u64, String> {
    let inp = fs::read(input).map_err(|e| format!("cannot reread {input}: {e}"))?;
    let out = fs::read(output).map_err(|e| format!("cannot reopen {output}: {e}"))?;
    let in_recs = var_records_of(&inp).map_err(|e| format!("input: {e}"))?;
    let out_recs = var_records_of(&out).map_err(|e| format!("output: {e}"))?;
    for (i, w) in out_recs.windows(2).enumerate() {
        if w[0].key() > w[1].key() {
            return Err(format!("keys out of order at record {}", i + 1));
        }
    }
    let mut a: Vec<&[u8]> = in_recs.iter().map(|r| r.frame()).collect();
    let mut b: Vec<&[u8]> = out_recs.iter().map(|r| r.frame()).collect();
    a.sort_unstable();
    b.sort_unstable();
    if a != b {
        return Err(format!(
            "output is not a permutation of the input ({} vs {} records)",
            out_recs.len(),
            in_recs.len()
        ));
    }
    Ok(out_recs.len() as u64)
}

/// Write `records` Datamation records to a new file at `path` and return
/// the fingerprint [`verify_datamation_file`] checks a sorted copy against.
pub fn generate_datamation_file(
    path: &str,
    records: u64,
    seed: u64,
    dist: KeyDistribution,
) -> io::Result<Checksum> {
    let mut gen = Generator::new(GenConfig {
        records,
        seed,
        dist,
    });
    let written = File::create(path).and_then(|f| {
        let mut w = BufWriter::with_capacity(1 << 20, f);
        gen.generate_to(&mut w, 10_000)?;
        w.flush()
    });
    written.map_err(|e| io::Error::new(e.kind(), format!("cannot write {path}: {e}")))?;
    eprintln!(
        "generated {records} records ({:.1} MB) into {path}",
        records as f64 * RECORD_LEN as f64 / 1e6
    );
    Ok(gen.checksum())
}

/// Check the file at `path` is in key order and a permutation of the input
/// whose fingerprint is `expected`.
pub fn verify_datamation_file(path: &str, expected: Checksum) -> Result<ValidationReport, Stop> {
    File::open(path)
        .and_then(|mut f| validate_reader(&mut f, expected))
        .map_err(failed(format!("cannot verify {path}")))?
        .map_err(failed("OUTPUT INVALID"))
}

/// `--trace-out` / `--metrics-out`: a recording of the process's spans and
/// metrics, written as a Chrome trace and as the
/// [`MetricsSnapshot::to_json`](obs::MetricsSnapshot::to_json) document —
/// the one sortd's `metrics` request answers with, so a file reads back
/// through `MetricsSnapshot::from_json`.
pub struct Artifacts<'a> {
    trace_out: Option<&'a str>,
    metrics_out: Option<&'a str>,
}

impl<'a> Artifacts<'a> {
    /// Start recording if either flag was given. Call it after the set-up
    /// the artifacts should not cover.
    pub fn record(flags: &'a Flags) -> Self {
        let artifacts = Artifacts {
            trace_out: flags.get("--trace-out"),
            metrics_out: flags.get("--metrics-out"),
        };
        if artifacts.trace_out.or(artifacts.metrics_out).is_some() {
            obs::enable(obs::DEFAULT_CAPACITY);
        }
        artifacts
    }

    /// Stop recording and write what was asked for; with `figure7`, print
    /// the "where the time goes" table to stderr first.
    pub fn write(self, figure7: bool) -> Result<(), Stop> {
        if self.trace_out.or(self.metrics_out).is_none() {
            return Ok(());
        }
        obs::disable();
        let snap = obs::snapshot();
        if figure7 {
            eprint!("{}", obs::figure7(&snap));
        }
        if let Some(path) = self.trace_out {
            fs::write(path, obs::export::chrome_trace(&snap).dump())
                .map_err(failed(format!("cannot write trace {path}")))?;
            eprintln!(
                "trace: {} events -> {path} (open in Perfetto / chrome://tracing)",
                snap.events.len()
            );
        }
        if let Some(path) = self.metrics_out {
            fs::write(path, obs::metrics_snapshot().to_json().dump_pretty())
                .map_err(failed(format!("cannot write metrics {path}")))?;
            eprintln!("metrics: -> {path}");
        }
        Ok(())
    }
}

/// Disk images striped to form a `--scratch-dir` volume.
pub const SCRATCH_DISKS: usize = 2;
/// Stripe chunk: 64 KB per disk per stride, matching the paper's preference
/// for large transfers over seeks.
pub const SCRATCH_CHUNK: u64 = 64 * 1024;

/// The striped volume over `dir/disk{i}.img`, creating `dir` and whichever
/// images are not there yet.
///
/// An image that exists is re-opened, never truncated: `sortcli --resume`
/// and a restarted `sortd` find the runs an interrupted sort sealed only if
/// the bytes are still where the run manifest says they are. (A sort that
/// is not resuming allocates from the start of the volume and overwrites.)
pub fn scratch_volume(dir: &Path, disks: usize, retry: RetryPolicy) -> io::Result<Arc<Volume>> {
    let attributed = |what: &str, at: &Path, e: io::Error| {
        io::Error::new(e.kind(), format!("cannot {what} {}: {e}", at.display()))
    };
    fs::create_dir_all(dir).map_err(|e| attributed("create", dir, e))?;
    let disks = (0..disks)
        .map(|i| {
            let img = dir.join(format!("disk{i}.img"));
            let opened = if img.exists() {
                FileStorage::open(&img)
            } else {
                FileStorage::create(&img)
            };
            let storage: Arc<dyn Storage> =
                Arc::new(opened.map_err(|e| attributed("open", &img, e))?);
            Ok(SimDisk::new(
                format!("scratch{i}"),
                catalog::uncapped(),
                storage,
                Pacing::Modeled,
                None,
            ))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let volume = Volume::new(Arc::new(IoEngine::new(disks)));
    Ok(Arc::new(volume.with_retry_policy(retry)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stripefs::{StripedReader, StripedWriter};

    const DEMO: Command = Command {
        name: "demo",
        positionals: &["input"],
        flags: &[
            Flag("--run", Val("N")),
            Flag("--verify", Switch),
            Flag("--addr", Req("ADDR")),
            Flag("--trace-out", Val("TRACE.json")),
            Flag("--metrics-out", Val("METRICS.json")),
        ],
        run: |_| Ok(()),
    };

    fn parse(args: &[&str]) -> Result<Flags<'static>, Stop> {
        Flags::parse(&DEMO, args.iter().map(|a| a.to_string()))
    }

    fn usage_error(args: &[&str]) -> String {
        match parse(args) {
            Err(Stop::Usage(msg)) => msg,
            Err(Stop::Failed(msg)) => panic!("{args:?}: failed ({msg}), not a usage error"),
            Ok(_) => panic!("{args:?}: accepted"),
        }
    }

    fn temp_dir(what: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("alphasort-cli-{what}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn flags_are_values_switches_and_counted_positionals() {
        let f = parse(&["in.dat", "--addr", "a:1", "--verify", "--run", "7"]).unwrap();
        assert_eq!(f.pos(0), "in.dat");
        assert_eq!(f.get("--addr"), Some("a:1"));
        assert!(f.has("--verify"));
        assert_eq!(f.num("--run", 0u32), Ok(7));
        // A switch takes no value: what follows it is a positional.
        let f = parse(&["--verify", "in.dat", "--addr", "a:1"]).unwrap();
        assert_eq!(f.pos(0), "in.dat");
        // Absent: the default, and a switch that is off.
        assert_eq!(f.num("--run", 9u32), Ok(9));
        assert!(!f.has("--trace-out"));
        // The one rule for a flag given twice: the last value.
        let f = parse(&["x", "--addr", "a:1", "--run", "1", "--run", "2"]).unwrap();
        assert_eq!(f.num("--run", 0u32), Ok(2));
    }

    #[test]
    fn what_the_table_does_not_allow_is_a_usage_error_naming_it() {
        assert_eq!(
            usage_error(&["x", "--addr", "a", "--jobs", "5"]),
            "unknown flag --jobs"
        );
        assert_eq!(usage_error(&["x", "--addr"]), "missing value for --addr");
        assert_eq!(usage_error(&["x"]), "--addr is required");
        assert_eq!(usage_error(&["--addr", "a"]), "missing <input>");
        assert_eq!(
            usage_error(&["x", "y", "--addr", "a"]),
            "unexpected argument y"
        );
        assert_eq!(usage_error(&["x", "--help"]), "");
        let f = parse(&["x", "--addr", "a", "--run", "many"]).unwrap();
        let bad = Stop::Usage("bad value for --run: many".into());
        assert_eq!(f.num("--run", 0u32), Err(bad));
        // Too big for the type asked for is as unusable as not a number.
        let f = parse(&["x", "--addr", "a", "--run", "4294967296"]).unwrap();
        assert!(f.num("--run", 0u32).is_err());
        assert_eq!(f.num("--run", 0u64), Ok(1 << 32));
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        let usage = DEMO.usage();
        let head = "demo <input> [--run N] [--verify] --addr ADDR [--trace-out TRACE.json]";
        assert!(usage.starts_with(head), "{usage}");
        assert!(usage.lines().all(|l| l.len() <= 72), "{usage}");
        for flag in DEMO.flags {
            assert!(usage.contains(flag.0), "{usage}");
        }
    }

    #[test]
    fn gen_spec_is_records_then_an_optional_seed() {
        assert_eq!(parse_gen("1000"), Ok((1000, 42)));
        assert_eq!(parse_gen("1000:7"), Ok((1000, 7)));
        // (spec, the part named as unusable)
        for (spec, part) in [
            (":7", ""),
            ("1000:", ""),
            ("", ""),
            ("1e3", "1e3"),
            ("-1", "-1"),
            ("1:2:3", "2:3"),
            ("18446744073709551616", "18446744073709551616"),
            ("5:18446744073709551616", "18446744073709551616"),
        ] {
            let err = Stop::Usage(format!("bad value for --gen: {part}"));
            assert_eq!(parse_gen(spec), Err(err), "{spec:?}");
        }
    }

    #[test]
    fn generated_file_verifies_against_its_fingerprint_and_no_other() {
        let dir = temp_dir("gen");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("in.dat");
        let path = path.to_str().unwrap();
        let dist = KeyDistribution::Sorted;
        let cs = generate_datamation_file(path, 500, 7, dist).unwrap();
        assert_eq!(fs::metadata(path).unwrap().len(), 500 * RECORD_LEN as u64);
        assert_eq!(verify_datamation_file(path, cs).unwrap().records, 500);
        let other = Checksum { count: 500, ..cs };
        let other = Checksum {
            sum: other.sum ^ 1,
            ..other
        };
        match verify_datamation_file(path, other) {
            Err(Stop::Failed(msg)) => assert!(msg.starts_with("OUTPUT INVALID: "), "{msg}"),
            other => panic!("{other:?}"),
        }
        let missing = dir.join("absent.dat");
        match verify_datamation_file(missing.to_str().unwrap(), cs) {
            Err(Stop::Failed(msg)) => assert!(msg.contains("absent.dat"), "{msg}"),
            other => panic!("{other:?}"),
        }
        let e = generate_datamation_file(dir.to_str().unwrap(), 1, 1, dist).unwrap_err();
        assert!(e.to_string().contains(dir.to_str().unwrap()), "{e}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What `--metrics-out` writes is the wire document: read back through
    /// `MetricsSnapshot::from_json` it differs from the live snapshot by
    /// nothing. (The only test in this binary that records, so the
    /// process-global store is its own.)
    #[test]
    fn metrics_file_reads_back_equal_to_the_live_snapshot() {
        let dir = temp_dir("artifacts");
        fs::create_dir_all(&dir).unwrap();
        let (trace, metrics) = (dir.join("t.json"), dir.join("m.json"));
        let args = ["x", "--addr", "a"].map(String::from).into_iter().chain([
            "--trace-out".into(),
            trace.to_str().unwrap().into(),
            "--metrics-out".into(),
            metrics.to_str().unwrap().into(),
        ]);
        let flags = Flags::parse(&DEMO, args).unwrap();
        let artifacts = Artifacts::record(&flags);
        {
            let _span = obs::span(obs::phase::SORT);
            obs::metrics::counter_add("cli.test.bytes", 4096);
            obs::metrics::gauge_set("cli.test.depth", -3);
            for v in [0, 1, 700, 1 << 40] {
                obs::metrics::observe("cli.test.us", v);
            }
        }
        artifacts.write(false).unwrap();
        let live = obs::metrics_snapshot();
        assert_eq!(live.histograms["cli.test.us"].count(), 4);
        let doc = alphasort_minijson::Json::parse(&fs::read_to_string(&metrics).unwrap()).unwrap();
        let read_back = obs::MetricsSnapshot::from_json(&doc).unwrap();
        assert_eq!(read_back, live);
        let delta = live.diff(&read_back);
        assert!(delta.counters.values().all(|&v| v == 0), "{delta:?}");
        assert!(
            delta.histograms.values().all(|h| h.count() == 0),
            "{delta:?}"
        );
        assert!(fs::read_to_string(&trace)
            .unwrap()
            .contains("\"traceEvents\""));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scratch_volume_creates_reopens_and_attributes() {
        let dir = temp_dir("scratch").join("made/on/demand");
        let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let def = {
            let volume = scratch_volume(&dir, SCRATCH_DISKS, RetryPolicy::default()).unwrap();
            assert_eq!(volume.width(), SCRATCH_DISKS);
            let file =
                Arc::new(volume.create_across_all("run0", SCRATCH_CHUNK, payload.len() as u64));
            let mut w = StripedWriter::new(Arc::clone(&file));
            w.push(&payload).unwrap();
            w.finish().unwrap();
            file.def_snapshot()
        };
        // A second volume over the same directory sees the first one's bytes.
        let volume = scratch_volume(&dir, SCRATCH_DISKS, RetryPolicy::default()).unwrap();
        let mut r = StripedReader::new(Arc::new(volume.open(def)));
        let mut back = Vec::new();
        while let Some(stride) = r.next_stride() {
            back.extend_from_slice(&stride.unwrap());
        }
        assert_eq!(&back[..payload.len()], &payload[..]);
        // An image that cannot be opened is an error naming the file.
        let broken = temp_dir("scratch").join("broken");
        fs::create_dir_all(broken.join("disk1.img")).unwrap();
        let e = scratch_volume(&broken, SCRATCH_DISKS, RetryPolicy::default())
            .err()
            .expect("a directory is not a disk image");
        assert!(e.to_string().contains("disk1.img"), "{e}");
        fs::remove_dir_all(temp_dir("scratch")).unwrap_or(());
    }
}
