//! `gensort` — write a Datamation benchmark input file.
//!
//! Companion to `valsort`, mirroring the sortbenchmark.org tool pair that
//! grew out of this paper's MinuteSort proposal. Prints the input
//! fingerprint that `valsort --expect` verifies against.
//!
//! ```text
//! gensort <records> <output-file> [--seed N] [--printable]
//! ```

use std::process::ExitCode;

use alphasort_suite::cli::Arg::{Switch, Val};
use alphasort_suite::cli::{self, Command, Flag, Flags, Stop};
use alphasort_suite::dmgen::KeyDistribution;

const GENSORT: Command = Command {
    name: "gensort",
    positionals: &["records", "output-file"],
    flags: &[Flag("--seed", Val("N")), Flag("--printable", Switch)],
    run: gensort,
};

fn main() -> ExitCode {
    cli::main(&[GENSORT])
}

fn gensort(flags: &Flags) -> Result<(), Stop> {
    let records = cli::parse_num("<records>", flags.pos(0))?;
    let dist = if flags.has("--printable") {
        KeyDistribution::RandomPrintable
    } else {
        KeyDistribution::Random
    };
    let seed = flags.num("--seed", 42)?;
    let cs = cli::generate_datamation_file(flags.pos(1), records, seed, dist)?;
    // The fingerprint goes to stdout so scripts can capture it.
    println!("{}:{}:{}", cs.count, cs.sum, cs.xor);
    Ok(())
}
