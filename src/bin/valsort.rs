//! `valsort` — validate a sorted Datamation file.
//!
//! Checks key order, counts records and duplicate-key pairs, and prints the
//! file's order-independent fingerprint. With `--expect COUNT:SUM:XOR`
//! (the line `gensort` printed) it also verifies the file is a permutation
//! of the generated input.
//!
//! ```text
//! valsort <file> [--expect COUNT:SUM:XOR]
//! ```

use std::process::ExitCode;

use alphasort_suite::cli::{self, failed, Arg::Val, Command, Flag, Flags, Stop};
use alphasort_suite::dmgen::{summarize_reader, Checksum};

const VALSORT: Command = Command {
    name: "valsort",
    positionals: &["file"],
    flags: &[Flag("--expect", Val("COUNT:SUM:XOR"))],
    run: valsort,
};

fn main() -> ExitCode {
    cli::main(&[VALSORT])
}

fn parse_checksum(s: &str) -> Option<Checksum> {
    let mut parts = s.split(':');
    let count = parts.next()?.parse().ok()?;
    let sum = parts.next()?.parse().ok()?;
    let xor = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(Checksum { count, sum, xor })
}

fn valsort(flags: &Flags) -> Result<(), Stop> {
    let path = flags.pos(0);
    if let Some(spec) = flags.get("--expect") {
        let expected =
            parse_checksum(spec).ok_or_else(|| Stop::usage("--expect needs COUNT:SUM:XOR"))?;
        let report = cli::verify_datamation_file(path, expected)?;
        eprintln!(
            "OK: {} records in key order, permutation matches ({} duplicate-key pairs)",
            report.records, report.equal_key_pairs
        );
        return Ok(());
    }

    // Order check + fingerprint report, no reference to compare.
    let (report, cs) = std::fs::File::open(path)
        .and_then(|mut f| summarize_reader(&mut f))
        .map_err(failed(format!("cannot read {path}")))?
        .map_err(failed("INVALID"))?;
    eprintln!(
        "OK: {} records in key order ({} duplicate-key pairs)",
        report.records, report.equal_key_pairs
    );
    println!("{}:{}:{}", cs.count, cs.sum, cs.xor);
    Ok(())
}
