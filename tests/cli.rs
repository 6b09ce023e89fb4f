//! The binaries' handling of arguments from outside: a value the sort
//! cannot use, or a flag that no longer exists, ends in the usage exit —
//! never a panic (101) or an allocation abort (134).

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
    // `--merge-workers` past its ceiling used to abort in a thread spawn.
    for (flag, size, expect) in [
        ("--run", "0", "at least 1"),
        ("--run", "5000000000", "exceeds"),
        ("--merge-workers", "200000", "exceeds the limit of 256"),
    ] {
        for pass in [&[][..], &["--two-pass"]] {
            let args = [&[input, output, flag, size], pass].concat();
            assert_usage_exit(&run(sortcli, &args), expect, &format!("{args:?}"));
        }
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
