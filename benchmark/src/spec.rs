//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same lists; a test holds the two together.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better (throughputs, fractions of a ceiling).
    Higher,
    /// A smaller value is better (times, memory, counts of waste).
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload and the recorded reason it exists.
pub struct WorkloadDef {
    /// Final name.
    pub name: &'static str,
    /// One line: which layers it stresses and what it is the control for.
    pub why: &'static str,
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    /// Final name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// the change counts as a regression.
    pub bound: f64,
}

/// A metric of a single layer; `<module>.<what>`.
pub struct PerLayer {
    /// Final name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// The five workloads, in the order a full run executes them.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "datamation_file_onepass",
        why: "Datamation 1M x 100 B, file to file, serial one_pass: CPU-bound on run formation, tournament and gather, so a saved CPU second shows 1:1",
    },
    WorkloadDef {
        name: "datamation_stripe_twopass",
        why: "Same file through two_pass spilling to a checksummed 2-member FileStorage stripe: scratch bandwidth costs something; uses StreamMerger, CRC32C, stripefs, iosim",
    },
    WorkloadDef {
        name: "datamation_paced_array",
        why: "1M records over 8 paced RZ26 disks on 2 SCSI controllers: the paper's IO-bound regime; CPU-kernel changes must show no change, overlap changes show only here",
    },
    WorkloadDef {
        name: "varlen_urls_onepass",
        why: "1M var-len URL records, file to file: the only workload where the varlen stack (framing, string run formation, OVC merge) does the work",
    },
    WorkloadDef {
        name: "sortd_fleet",
        why: "Closed loop of 2 clients against an in-process journaling sortd, 80% 3k-record and 20% 30k-record jobs: latency is framing, CRC, JSON, admission and journal, not sorting",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics; every workload reports every one of them.
///
/// The two timings carry the widest bound the contract allows. Ten runs of
/// an unchanged binary on the 2-core sandbox spread (quartile distance over
/// median) by 5 to 13% on the CPU-bound workloads, because the box itself
/// moves between a fast and a slow state for tens of seconds at a time (a
/// bare CRC loop on an idle box varies 2x from second to second), and a
/// bound below the spread would fail unchanged code. Memory repeats within
/// 1% and keeps the 10% bound.
pub const END_TO_END: [EndToEnd; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("sort_mb_per_s", "MB/s", Better::Higher, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Per-layer metrics of the traced pass. A workload that does not exercise
/// a layer reports 0 for that layer's workload-specific metrics.
pub const PER_LAYER: [PerLayer; 65] = [
    // Ceilings measured in the same run with std only: the denominators.
    hi("host.memcpy_mb_per_s", "MB/s"),
    hi("host.file_write_mb_per_s", "MB/s"),
    hi("host.file_read_mb_per_s", "MB/s"),
    hi("host.loopback_mb_per_s", "MB/s"),
    hi("dmgen.generate_mb_per_s", "MB/s"),
    hi("crc.crc32c_mb_per_s", "MB/s"),
    hi("crc.memcpy_fraction", "ratio"),
    hi("iosim.engine_write_mb_per_s", "MB/s"),
    hi("iosim.engine_read_mb_per_s", "MB/s"),
    hi("iosim.file_write_mb_per_s", "MB/s"),
    lo("iosim.device_bytes_per_input_byte", "ratio"),
    lo("iosim.paced_ideal_s", "s"),
    lo("iosim.disk_busy_max_s", "s"),
    hi("stripefs.write_mb_per_s.w1", "MB/s"),
    hi("stripefs.write_mb_per_s.w4", "MB/s"),
    hi("stripefs.read_mb_per_s.w1", "MB/s"),
    hi("stripefs.read_mb_per_s.w4", "MB/s"),
    hi("stripefs.checksummed_write_mb_per_s.w2", "MB/s"),
    hi("stripefs.verified_read_mb_per_s.w2", "MB/s"),
    hi("stripefs.memcpy_fraction", "ratio"),
    lo("io_file.source_busy_s", "s"),
    lo("io_file.sink_busy_s", "s"),
    hi("io_file.read_mb_per_s", "MB/s"),
    hi("io_file.write_mb_per_s", "MB/s"),
    lo("io.stripe_source_busy_s", "s"),
    lo("io.stripe_sink_busy_s", "s"),
    lo("runform.busy_s", "s"),
    hi("runform.records_per_s", "1/s"),
    lo("merge.busy_s", "s"),
    hi("merge.records_per_s", "1/s"),
    lo("gather.busy_s", "s"),
    hi("gather.mb_per_s", "MB/s"),
    hi("gather.memcpy_fraction", "ratio"),
    lo("driver.read_wait_s", "s"),
    lo("driver.write_wait_s", "s"),
    lo("driver.spill_s", "s"),
    lo("driver.runs", "count"),
    hi("driver.attributed_pct", "%"),
    hi("driver.overlap_efficiency", "ratio"),
    hi("scratch.spill_mb_per_s", "MB/s"),
    lo("scratch.device_bytes_written", "count"),
    lo("scratch.device_bytes_read", "count"),
    hi("frame.encode_mb_per_s", "MB/s"),
    hi("frame.decode_mb_per_s", "MB/s"),
    hi("minijson.manifest_docs_per_s", "1/s"),
    hi("sortd.journal_records_per_s", "1/s"),
    hi("sortd.journal_replay_records_per_s", "1/s"),
    lo("sortd.queue_wait_p50_us", "us"),
    lo("sortd.queue_wait_p99_us", "us"),
    lo("sortd.exec_p50_us", "us"),
    lo("sortd.exec_p99_us", "us"),
    lo("sortd.e2e_p50_us", "us"),
    lo("sortd.e2e_p99_us", "us"),
    lo("sortd.small_p50_ms", "ms"),
    lo("sortd.large_p50_ms", "ms"),
    lo("sortd.client_p99_ms", "ms"),
    hi("sortd.jobs_per_s", "1/s"),
    lo("sortd.retries", "count"),
    lo("sortd.exec_alone_p50_us", "us"),
    lo("sortd.transfer_floor_p50_us", "us"),
    lo("sortd.floor_ratio", "ratio"),
    lo("sortd.unattributed_pct", "%"),
    lo("obs.trace_overhead_pct", "%"),
    hi("obs.spans_recorded", "count"),
    lo("obs.spans_dropped", "count"),
];

/// Look an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Which direction of metric `name` (of either pass) is an improvement.
pub fn direction(name: &str) -> Option<Better> {
    end_to_end(name)
        .map(|m| m.better)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.better))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_minijson::Json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_their_charsets_and_are_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        assert!(!name_ok("") && !name_ok(".x") && !name_ok("a b") && !name_ok("a/b"));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` must say exactly what the tables say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let s = |v: &Json, k: &str| v.field_str(k).unwrap().to_string();

        let got: Vec<(String, String)> = doc
            .field_arr("workloads")
            .unwrap()
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(got, want);

        let got: Vec<(String, String, String, f64)> = doc
            .field_arr("end_to_end")
            .unwrap()
            .iter()
            .map(|m| {
                (
                    s(m, "name"),
                    s(m, "unit"),
                    s(m, "better"),
                    m.field_f64("bound").unwrap(),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.word().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(got, want);

        let got: Vec<(String, String, String)> = doc
            .field_arr("per_layer")
            .unwrap()
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.word().into()))
            .collect();
        assert_eq!(got, want);
        assert!(text.len() <= 64 * 1024);
    }
}
