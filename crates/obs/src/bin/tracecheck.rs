//! `tracecheck` — validate exported observability artifacts.
//!
//! CI smoke-tests the exporters with this: after a `sortcli --trace-out
//! --metrics-out` run it proves both documents parse, the trace is a
//! well-formed Chrome `trace_event` stream, the expected phase names
//! actually appear, and the metrics file decodes back into a
//! `MetricsSnapshot` — so the exporters can never silently rot.
//!
//! ```text
//! tracecheck <trace.json> <metrics.json> [--expect name,name,...]
//! ```

use std::collections::BTreeSet;
use std::process::ExitCode;

use alphasort_minijson::Json;
use alphasort_obs::MetricsSnapshot;

fn fail(msg: &str) -> ExitCode {
    eprintln!("tracecheck: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut expect: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--expect" => match it.next() {
                Some(v) => expect.extend(v.split(',').map(str::to_string)),
                None => return fail("missing value for --expect"),
            },
            _ => paths.push(a),
        }
    }
    if paths.len() != 2 {
        eprintln!("usage: tracecheck <trace.json> <metrics.json> [--expect name,name,...]");
        return ExitCode::from(2);
    }

    // ---- trace --------------------------------------------------------------
    let text = match std::fs::read_to_string(&paths[0]) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {}: {e}", paths[0])),
    };
    let trace = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => return fail(&format!("{} is not valid JSON: {e}", paths[0])),
    };
    let events = match trace.field_arr("traceEvents") {
        Ok(a) => a,
        Err(e) => return fail(&format!("{}: {e}", paths[0])),
    };
    let mut names: BTreeSet<&str> = BTreeSet::new();
    let mut spans = 0usize;
    for (i, e) in events.iter().enumerate() {
        let name = match e.field_str("name") {
            Ok(n) => n,
            Err(_) => return fail(&format!("trace event {i} has no name")),
        };
        let ph = match e.field_str("ph") {
            Ok(p) => p,
            Err(_) => return fail(&format!("trace event {i} ({name}) has no ph")),
        };
        match ph {
            "X" => {
                if e.field_f64("ts").is_err() || e.field_f64("dur").is_err() {
                    return fail(&format!("span {i} ({name}) lacks numeric ts/dur"));
                }
                if e.field_u64("pid").is_err() || e.field_u64("tid").is_err() {
                    return fail(&format!("span {i} ({name}) lacks pid/tid"));
                }
                names.insert(name);
                spans += 1;
            }
            "i" => {
                if e.field_f64("ts").is_err() {
                    return fail(&format!("instant {i} ({name}) lacks ts"));
                }
                names.insert(name);
            }
            "M" => {}
            other => return fail(&format!("event {i} ({name}) has unknown ph {other:?}")),
        }
    }
    if spans == 0 {
        return fail("trace contains no spans");
    }
    let missing: Vec<&String> = expect
        .iter()
        .filter(|n| !names.contains(n.as_str()))
        .collect();
    if !missing.is_empty() {
        return fail(&format!(
            "expected phases missing from trace: {missing:?} (present: {names:?})"
        ));
    }

    // ---- metrics ------------------------------------------------------------
    let text = match std::fs::read_to_string(&paths[1]) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {}: {e}", paths[1])),
    };
    // Decode the whole document, not just its outline: a histogram that
    // does not round-trip fails here.
    let metrics = match Json::parse(&text)
        .map_err(|e| format!("not valid JSON: {e}"))
        .and_then(|doc| {
            // `from_json` reads an absent section as empty; a file must have all three.
            match ["counters", "gauges", "histograms"]
                .iter()
                .find(|s| doc.get(s).is_none())
            {
                Some(section) => Err(format!("missing object {section:?}")),
                None => MetricsSnapshot::from_json(&doc),
            }
        }) {
        Ok(m) => m,
        Err(e) => return fail(&format!("{}: {e}", paths[1])),
    };
    let counters = metrics.counters.len();

    println!(
        "tracecheck: ok — {spans} spans, {} distinct names, {counters} counters",
        names.len()
    );
    ExitCode::SUCCESS
}
