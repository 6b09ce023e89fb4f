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

use std::io::Read;
use std::process::ExitCode;

use alphasort_suite::cli::{self, failed, Arg::Val, Command, Flag, Flags, Stop};
use alphasort_suite::dmgen::{Checksum, Record, RunningChecksum, RECORD_LEN};

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
    let mut file = std::fs::File::open(path).map_err(failed(format!("cannot open {path}")))?;
    let invalid = |why: String| Err(Stop::Failed(format!("INVALID: {why}")));
    let mut buf = vec![0u8; 8192 * RECORD_LEN];
    let mut pending = 0usize;
    let mut rc = RunningChecksum::new();
    let mut prev: Option<[u8; 10]> = None;
    let mut records = 0u64;
    let mut dups = 0u64;
    loop {
        let n = file.read(&mut buf[pending..]).map_err(failed("IO error"))?;
        if n == 0 {
            break;
        }
        pending += n;
        let whole = pending - pending % RECORD_LEN;
        for chunk in buf[..whole].chunks_exact(RECORD_LEN) {
            let r = Record::from_bytes(chunk);
            if let Some(p) = prev {
                if p > r.key {
                    return invalid(format!("record {records} out of key order"));
                }
                if p == r.key {
                    dups += 1;
                }
            }
            prev = Some(r.key);
            rc.update(&r);
            records += 1;
        }
        buf.copy_within(whole..pending, 0);
        pending -= whole;
    }
    if pending != 0 {
        return invalid(format!("trailing partial record ({pending} bytes)"));
    }
    let cs = rc.finish();
    eprintln!("OK: {records} records in key order ({dups} duplicate-key pairs)");
    println!("{}:{}:{}", cs.count, cs.sum, cs.xor);
    Ok(())
}
