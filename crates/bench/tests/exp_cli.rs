//! The `exp` program's command line: what it refuses, and how it ends when
//! its reader goes away.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn exp(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd
}

#[test]
fn a_closed_stdout_ends_the_program_quietly() {
    // 400 reports overflow any pipe buffer: the program is still writing
    // when the reader goes away.
    let mut child = exp(&["terabyte"; 400]).spawn().expect("spawn exp");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("######## exp terabyte"), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn what_names_no_experiment_prints_the_list_and_exits_2() {
    for args in [
        &[][..],
        &["nosuch"],
        &["walkthrough", "5"],
        &["netsort", "0"],
    ] {
        let out = exp(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(
            stderr.contains("  table1 ") && stderr.contains("  terabyte "),
            "{stderr}"
        );
    }
}
