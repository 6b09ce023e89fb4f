//! The binaries' handling of arguments from outside: a value the sort
//! cannot use, a flag that no longer exists or belongs to another command,
//! ends in the usage exit — never a panic (101), an allocation abort (134)
//! or a silently ignored request.

use std::process::{Command, Output};

use alphasort_suite::dmgen::{generate, GenConfig};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_usage_exit(out: &Output, expect: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.contains(expect), "{what}: {stderr}");
    assert!(stderr.contains("usage:"), "{what}: {stderr}");
}

#[test]
fn sortcli_run_sizes_it_cannot_use_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("alphasort-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (input, output) = (dir.join("in.dat"), dir.join("out.dat"));
    std::fs::write(&input, generate(GenConfig::datamation(1_000, 7)).0).unwrap();
    let (input, output) = (input.to_str().unwrap(), output.to_str().unwrap());
    let sortcli = env!("CARGO_BIN_EXE_sortcli");
    // `--merge-workers` and `--workers` past their ceilings used to abort
    // in a thread spawn.
    for (flag, size, expect) in [
        ("--run", "0", "at least 1"),
        ("--run", "5000000000", "exceeds"),
        ("--merge-workers", "200000", "exceeds the limit of 256"),
        (
            "--workers",
            "200000",
            "workers (200000) exceeds the limit of 256",
        ),
    ] {
        for pass in [&[][..], &["--two-pass"]] {
            let args = [&[input, output, flag, size], pass].concat();
            assert_usage_exit(&run(sortcli, &args), expect, &format!("{args:?}"));
        }
    }
    // netsort feeds the same `SortConfig`, and refuses before it splits.
    for (flag, size, expect) in [
        ("--run", "0", "at least 1"),
        (
            "--workers",
            "200000",
            "workers (200000) exceeds the limit of 256",
        ),
    ] {
        let args = [input, output, "--nodes", "2", flag, size];
        let out = run(env!("CARGO_BIN_EXE_netsort"), &args);
        assert_usage_exit(&out, expect, &format!("netsort {args:?}"));
    }
    // The largest run the entry index allows is a size, not a reservation.
    let out = run(sortcli, &[input, output, "--run", "4294967295"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn valsort_prints_the_fingerprint_gensort_printed_and_refuses_a_swap() {
    let dir = std::env::temp_dir().join(format!("alphasort-valsort-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (input, sorted, swapped) = (path("in.dat"), path("sorted.dat"), path("swapped.dat"));
    let stdout = |out: Output| {
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(out.status.success(), "{err}");
        String::from_utf8(out.stdout).unwrap()
    };
    let generated = stdout(run(
        env!("CARGO_BIN_EXE_gensort"),
        &["2000", &input, "--seed", "11"],
    ));
    stdout(run(env!("CARGO_BIN_EXE_sortcli"), &[&input, &sorted]));
    let valsort = env!("CARGO_BIN_EXE_valsort");
    // With no reference, valsort prints the fingerprint `--expect` takes.
    let printed = stdout(run(valsort, &[&sorted]));
    assert_eq!(printed, generated);
    stdout(run(valsort, &[&sorted, "--expect", printed.trim()]));
    // Two records swapped: same fingerprint, wrong order.
    let mut bytes = std::fs::read(&sorted).unwrap();
    let (first, second) = bytes.split_at_mut(100);
    assert_ne!(first[..10], second[..10]);
    first.swap_with_slice(&mut second[..100]);
    std::fs::write(&swapped, &bytes).unwrap();
    let out = run(valsort, &[&swapped]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("INVALID"), "{err}");
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// netsort sorts var-len records as sortcli does: one node or three, the
/// output is sortcli's byte for byte, and a truncated input is refused with
/// the record it ends in, leaving no share file behind.
#[test]
fn netsort_varlen_output_is_sortclis_at_one_and_three_nodes() {
    let dir = std::env::temp_dir().join(format!("alphasort-netsort-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (input, want, truncated) = (path("in.dat"), path("sortcli.out"), path("trunc.dat"));
    let ok = |out: Output| {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        )
    };
    let sortcli = env!("CARGO_BIN_EXE_sortcli");
    let netsort = env!("CARGO_BIN_EXE_netsort");
    ok(run(
        sortcli,
        &[
            &input,
            &want,
            "--gen",
            "5000",
            "--layout",
            "varlen",
            "--corpus",
            "log-lines",
        ],
    ));
    let want = std::fs::read(&want).unwrap();
    for nodes in ["1", "3"] {
        let got = path(&format!("netsort{nodes}.out"));
        ok(run(
            netsort,
            &[
                &input, &got, "--nodes", nodes, "--layout", "varlen", "--verify",
            ],
        ));
        assert!(std::fs::read(&got).unwrap() == want, "{nodes} node(s)");
    }
    let bytes = std::fs::read(&input).unwrap();
    std::fs::write(&truncated, &bytes[..bytes.len() - 3]).unwrap();
    let out = run(netsort, &[&truncated, &path("x.out"), "--layout", "varlen"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("input ends mid-record"), "{stderr}");
    assert!(!dir.join("x.out.node0.in").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn removed_kernel_and_rep_flags_are_unknown_flags() {
    let sortcli = env!("CARGO_BIN_EXE_sortcli");
    // `--mem` too: sortcli picks the pass by `--two-pass`, so the budget it
    // parsed was never read.
    for (flag, value) in [("--kernel", "scalar"), ("--rep", "scalar"), ("--mem", "1")] {
        let out = run(sortcli, &["in", "out", flag, value]);
        assert_usage_exit(&out, &format!("unknown flag {flag}"), flag);
    }
    let out = run(
        env!("CARGO_BIN_EXE_sortd"),
        &["submit", "--kernel", "scalar"],
    );
    assert_usage_exit(&out, "unknown flag --kernel", "sortd submit");
}

/// One row per command: the binary, arguments that make a complete command
/// line for it, a value flag it reads, and whether that value is a number.
/// Addresses point at a port nothing listens on — no row may get as far as
/// dialling it.
const ADDR: &str = "127.0.0.1:1";
const SORTD: &str = env!("CARGO_BIN_EXE_sortd");
const COMMANDS: [(&str, &[&str], &str, bool); 12] = [
    (env!("CARGO_BIN_EXE_sortcli"), &["in", "out"], "--run", true),
    (
        env!("CARGO_BIN_EXE_netsort"),
        &["in", "out"],
        "--nodes",
        true,
    ),
    (
        env!("CARGO_BIN_EXE_gensort"),
        &["10", "out"],
        "--seed",
        true,
    ),
    (env!("CARGO_BIN_EXE_valsort"), &["file"], "--expect", false),
    (SORTD, &["serve"], "--pool-mem", true),
    (
        SORTD,
        &["submit", "--addr", ADDR, "--gen", "10"],
        "--mem",
        true,
    ),
    (SORTD, &["fleet", "--addr", ADDR], "--jobs", true),
    (SORTD, &["stats", "--addr", ADDR], "--addr", false),
    (SORTD, &["top", "--addr", ADDR], "--iters", true),
    (SORTD, &["status", "--addr", ADDR], "--job", true),
    (SORTD, &["cancel", "--addr", ADDR], "--job", true),
    (SORTD, &["drain", "--addr", ADDR], "--addr", false),
];

#[test]
fn every_command_holds_its_command_line_to_its_own_flag_table() {
    for (bin, complete, flag, numeric) in COMMANDS {
        let with = |extra: &[&str]| {
            let args = [complete, extra].concat();
            (run(bin, &args), format!("{bin} {args:?}"))
        };
        let (out, what) = with(&["--no-such-flag", "1"]);
        assert_usage_exit(&out, "unknown flag --no-such-flag", &what);
        let (out, what) = with(&["--help"]);
        assert_usage_exit(&out, flag, &what);
        let (out, what) = with(&[flag]);
        assert_usage_exit(&out, &format!("missing value for {flag}"), &what);
        if numeric {
            let (out, what) = with(&[flag, "many"]);
            assert_usage_exit(&out, &format!("bad value for {flag}: many"), &what);
        }
    }
    // A flag of another subcommand is refused, not ignored.
    for sub in ["drain", "stats"] {
        let out = run(SORTD, &[sub, "--addr", ADDR, "--jobs", "5"]);
        assert_usage_exit(&out, "unknown flag --jobs", sub);
    }
    let out = run(SORTD, &["status", "--addr", ADDR]);
    assert_usage_exit(&out, "--job is required", "sortd status");
    let out = run(SORTD, &["frobnicate"]);
    assert_usage_exit(&out, "unknown subcommand frobnicate", "sortd frobnicate");
}

/// README's "Command-line reference" is each binary's `--help`, verbatim:
/// the usage the parser's own tables generate, so no flag is documented
/// that the parser does not know, and none is known but undocumented.
#[test]
fn readme_command_line_reference_is_the_generated_usage() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    for bin in [
        env!("CARGO_BIN_EXE_sortcli"),
        env!("CARGO_BIN_EXE_netsort"),
        SORTD,
        env!("CARGO_BIN_EXE_gensort"),
        env!("CARGO_BIN_EXE_valsort"),
    ] {
        let out = run(bin, &["--help"]);
        let usage = String::from_utf8_lossy(&out.stderr);
        assert!(
            readme.contains(usage.trim_end()),
            "README.md does not carry `{bin} --help`:\n{usage}"
        );
    }
}
