//! What one run of one workload reports, and the `results.json` a full run
//! collects those reports into.

use std::collections::BTreeMap;

use alphasort_minijson::Json;

use crate::spec::{self, Better};
use crate::stats;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`crate::spec`].
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit from [`crate::spec`].
    pub unit: String,
}

/// The result of one run of one workload (one child process).
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Operations started. Each operation that completed and validated is
    /// one latency sample, so `attempted - failed` is the sample count
    /// behind `op_p50_ms`.
    pub attempted: u64,
    /// Operations that errored, timed out or failed validation.
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run), in [`crate::spec`] order.
    pub metrics: Vec<Metric>,
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Report {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Value of metric `name`, if reported.
    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The single-line JSON object a run prints last:
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = obj(vec![
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.unit.as_str())),
                ]);
                (m.name.clone(), body)
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Parse a run's last line back.
    pub fn from_json(doc: &Json) -> Result<Report, String> {
        let e = |e: alphasort_minijson::JsonError| e.to_string();
        let Some(Json::Obj(fields)) = doc.get("metrics") else {
            return Err("metrics is not an object".into());
        };
        let metrics = fields
            .iter()
            .map(|(name, body)| {
                Ok(Metric {
                    name: name.clone(),
                    value: body.field_f64("value").map_err(e)?,
                    unit: body.field_str("unit").map_err(e)?.to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Report {
            attempted: doc.field_u64("attempted").map_err(e)?,
            failed: doc.field_u64("failed").map_err(e)?,
            metrics,
        })
    }

    /// The metrics as an aligned table for people.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let better = spec::direction(&m.name).map_or("", |b| b.word());
            out.push_str(&format!(
                "  {:width$}  {:>16.4} {:6} ({better} is better)\n",
                m.name, m.value, m.unit
            ));
        }
        out
    }
}

/// Everything a full run learned about one workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    /// Operations started, summed over the untraced runs.
    pub attempted: u64,
    /// Operations failed, summed over the untraced runs.
    pub failed: u64,
    /// End-to-end metric name to one value per untraced run, in run order.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// Per-layer metric name to the traced run's value.
    pub per_layer: BTreeMap<String, f64>,
}

impl WorkloadResult {
    /// Failed share of attempted operations.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// Fold in one untraced run's report.
    pub fn add_run(&mut self, r: &Report) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        for m in &r.metrics {
            self.end_to_end
                .entry(m.name.clone())
                .or_default()
                .push(m.value);
        }
    }

    /// Take the traced run's per-layer values.
    pub fn set_layers(&mut self, r: &Report) {
        self.per_layer = r
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value))
            .collect();
    }
}

/// `results.json`: what one full run measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Results {
    /// First seed; run `k` of a workload used `seed + k`.
    pub seed: u64,
    /// Seconds each run measured for.
    pub seconds: f64,
    /// Untraced runs per workload.
    pub runs: u64,
    /// `std::thread::available_parallelism` of the box that ran it.
    pub nproc: u64,
    /// Results by workload name.
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// Median and quartiles as a JSON object; quartiles are `null` below two
/// runs, where they are not defined.
fn summary(values: &[f64]) -> Vec<(&'static str, Json)> {
    let opt = |x: Option<f64>| x.map(Json::from).unwrap_or(Json::Null);
    let q = stats::quartiles(values);
    vec![
        ("median", opt(stats::median(values))),
        ("q1", opt(q.map(|q| q.0))),
        ("q3", opt(q.map(|q| q.2))),
        ("runs", Json::from(values.len())),
    ]
}

impl Results {
    /// Render. `claim` is always `null`: the benchmark measures, it does
    /// not argue a gain.
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|(name, w)| {
                let e2e = w
                    .end_to_end
                    .iter()
                    .map(|(metric, values)| {
                        let def = spec::end_to_end(metric);
                        let mut f = vec![
                            ("unit", Json::from(def.map_or("", |d| d.unit))),
                            (
                                "better",
                                Json::from(def.map_or(Better::Lower, |d| d.better).word()),
                            ),
                            ("bound", Json::from(def.map_or(0.0, |d| d.bound))),
                            (
                                "values",
                                Json::Arr(values.iter().map(|&v| Json::from(v)).collect()),
                            ),
                        ];
                        f.extend(summary(values));
                        (metric.clone(), obj(f))
                    })
                    .collect();
                let layers = w
                    .per_layer
                    .iter()
                    .map(|(metric, &v)| (metric.clone(), Json::from(v)))
                    .collect();
                let body = obj(vec![
                    ("attempted", Json::from(w.attempted)),
                    ("failed", Json::from(w.failed)),
                    ("failed_share", Json::from(w.failed_share())),
                    ("end_to_end", Json::Obj(e2e)),
                    ("per_layer", Json::Obj(layers)),
                ]);
                (name.clone(), body)
            })
            .collect();
        obj(vec![
            ("schema", Json::from(1u64)),
            ("claim", Json::Null),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            ("runs", Json::from(self.runs)),
            ("nproc", Json::from(self.nproc)),
            ("workloads", Json::Obj(workloads)),
        ])
    }

    /// Parse a `results.json` document.
    pub fn from_json(doc: &Json) -> Result<Results, String> {
        let e = |e: alphasort_minijson::JsonError| e.to_string();
        let fields_of = |v: Option<&Json>, what: &str| match v {
            Some(Json::Obj(fields)) => Ok(fields.clone()),
            _ => Err(format!("{what} is not an object")),
        };
        let mut workloads = BTreeMap::new();
        for (name, body) in fields_of(doc.get("workloads"), "workloads")? {
            let mut w = WorkloadResult {
                attempted: body.field_u64("attempted").map_err(e)?,
                failed: body.field_u64("failed").map_err(e)?,
                ..Default::default()
            };
            for (metric, m) in fields_of(body.get("end_to_end"), "end_to_end")? {
                let values = m
                    .field_arr("values")
                    .map_err(e)?
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .ok_or_else(|| format!("{metric}: value is not a number"))
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
                w.end_to_end.insert(metric, values);
            }
            for (metric, v) in fields_of(body.get("per_layer"), "per_layer")? {
                let v = v
                    .as_f64()
                    .ok_or_else(|| format!("{metric}: not a number"))?;
                w.per_layer.insert(metric, v);
            }
            workloads.insert(name, w);
        }
        Ok(Results {
            seed: doc.field_u64("seed").map_err(e)?,
            seconds: doc.field_f64("seconds").map_err(e)?,
            runs: doc.field_u64("runs").map_err(e)?,
            nproc: doc.field_u64("nproc").map_err(e)?,
            workloads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(values: &[(&str, f64, &str)], attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            metrics: values
                .iter()
                .map(|&(n, v, u)| Metric {
                    name: n.into(),
                    value: v,
                    unit: u.into(),
                })
                .collect(),
        }
    }

    #[test]
    fn last_line_has_exactly_the_contract_keys_and_round_trips() {
        let r = report(
            &[
                ("sort_mb_per_s", 191.2034, "MB/s"),
                ("setup_s", 0.8127, "s"),
            ],
            16,
            0,
        );
        let doc = r.to_json();
        let Json::Obj(fields) = &doc else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let line = doc.dump();
        assert!(!line.contains('\n'));
        assert_eq!(Report::from_json(&Json::parse(&line).unwrap()).unwrap(), r);
        assert!(r.correct());
        assert!(!report(&[], 3, 1).correct());
    }

    #[test]
    fn results_json_round_trips_and_claims_nothing() {
        let mut w = WorkloadResult::default();
        w.add_run(&report(
            &[("op_p50_ms", 520.25, "ms"), ("setup_s", 0.5, "s")],
            15,
            0,
        ));
        w.add_run(&report(
            &[("op_p50_ms", 530.5, "ms"), ("setup_s", 0.75, "s")],
            14,
            1,
        ));
        w.set_layers(&report(&[("crc.crc32c_mb_per_s", 3100.5, "MB/s")], 2, 0));
        assert_eq!(w.attempted, 29);
        assert_eq!(w.failed, 1);
        assert_eq!(w.end_to_end["op_p50_ms"], vec![520.25, 530.5]);

        let results = Results {
            seed: 1994,
            seconds: 12.0,
            runs: 2,
            nproc: 2,
            workloads: [("datamation_file_onepass".to_string(), w)].into(),
        };
        let doc = results.to_json();
        assert_eq!(doc.get("claim"), Some(&Json::Null));
        let text = doc.dump_pretty();
        let back = Results::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, results);
        let m = doc
            .get("workloads")
            .and_then(|w| w.get("datamation_file_onepass"))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get("op_p50_ms"))
            .unwrap();
        assert_eq!(m.field_f64("median").unwrap(), 525.375);
        assert_eq!(
            m.field_f64("bound").unwrap(),
            spec::end_to_end("op_p50_ms").unwrap().bound
        );
        assert_eq!(m.field_str("better").unwrap(), "lower");
    }

    #[test]
    fn failed_share_counts_a_run_with_no_attempts_as_failed() {
        assert_eq!(WorkloadResult::default().failed_share(), 1.0);
        let w = WorkloadResult {
            attempted: 4,
            failed: 1,
            ..Default::default()
        };
        assert_eq!(w.failed_share(), 0.25);
    }
}
