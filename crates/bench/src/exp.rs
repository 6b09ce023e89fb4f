//! The paper's experiments: one module per table, figure or section, each a
//! `run` that returns a [`Report`] — its tables, its prose and its
//! [`Claim`]s — and prints nothing. The `exp` binary names them, runs them
//! and writes every report with [`Report::write_to`].
//!
//! A claim row states the paper, the measured value and a verdict computed
//! from the two. Rows tagged [`Basis::Model`] come out the same on every
//! run (the analytic model, the cache simulator, modeled disks or the
//! paper's own data); CI holds those to `crates/bench/claims.ledger`.
//! [`Basis::Host`] rows depend on the host's clock and are reported only.

pub mod ablation;
pub mod baseline;
pub mod dollarsort;
pub mod fig3;
pub mod fig4;
pub mod fig7;
pub mod minutesort;
pub mod netsort;
pub mod onepass;
pub mod speedup;
pub mod striping;
pub mod table1;
pub mod table6;
pub mod table8;
pub mod terabyte;
pub mod variants;
pub mod walkthrough;

use std::fmt;
use std::io::{self, Write};
// What the experiments share; each takes it with `use super::*`.
use crate::{host_sort, host_workers, modeled_array, sort_in_memory, StagedSort};
use alphasort_core::SortConfig;
use alphasort_dmgen::{generate, validate_records, GenConfig, RECORD_LEN};
use alphasort_iosim::{catalog, Pacing};
use alphasort_perfmodel::machines::table8;
use alphasort_perfmodel::phase::datamation_model;
use alphasort_perfmodel::table::{dollars, secs, Table};
use std::time::Instant;
use Basis::{Host, Model};

/// Where a claim's measured value comes from. A claim is made by its
/// basis: `Model.near(…)`, `Host.between(…)`, `Model.check(…)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Basis {
    /// Deterministic: the analytic model, the cache simulator, modeled
    /// disks' byte counts or the paper's own data.
    Model,
    /// Timed on the host's clock.
    Host,
}

/// One of the paper's statements set against what this reproduction
/// measures, and the verdict computed from the two.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// Stable name, `experiment.what`.
    pub id: &'static str,
    /// Whether the measured value is deterministic or host-timed.
    pub basis: Basis,
    /// The paper's statement or value, with the bound the verdict applies.
    pub paper: String,
    /// The measured value.
    pub measured: String,
    /// Whether the measured value meets the paper's.
    pub holds: bool,
}

impl Basis {
    /// A claim whose verdict the caller computed from what it measured: a
    /// ranking, an ordering or a named winner.
    pub fn check(self, id: &'static str, paper: &str, measured: String, holds: bool) -> Claim {
        let paper = paper.to_string();
        Claim {
            id,
            basis: self,
            paper,
            measured,
            holds,
        }
    }

    /// `measured` within the fraction `tol` of the paper's `value`.
    pub fn near(self, id: &'static str, value: f64, measured: f64, tol: f64, unit: &str) -> Claim {
        let paper = format!("{}{unit} ±{:.0}%", num(value), tol * 100.0);
        let holds = (measured / value - 1.0).abs() <= tol;
        self.check(id, &paper, format!("{}{unit}", num(measured)), holds)
    }

    /// `measured` in the range `lo..=hi` that `says` states.
    pub fn between(
        self,
        id: &'static str,
        says: &str,
        (lo, hi): (f64, f64),
        measured: f64,
        unit: &str,
    ) -> Claim {
        let bound = match hi.is_infinite() {
            true => format!("≥ {}{unit}", num(lo)),
            false => format!("{}–{}{unit}", num(lo), num(hi)),
        };
        let holds = (lo..=hi).contains(&measured);
        self.check(
            id,
            &format!("{says} ({bound})"),
            format!("{}{unit}", num(measured)),
            holds,
        )
    }
}

/// One line: `[model] id: paper … | measured … | verdict` — the form the
/// ledger records.
impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let basis = if self.basis == Model { "model" } else { "host" };
        let verdict = if self.holds { "holds" } else { "does not hold" };
        let c = self;
        let line = format!("{}: paper {} | measured {}", c.id, c.paper, c.measured);
        write!(f, "[{basis}] {line} | {verdict}")
    }
}

/// The paper's run shape: 100,000-record runs, gathered 10,000 records at a
/// time, with `workers` chore workers.
fn paper_cfg(workers: usize) -> SortConfig {
    SortConfig {
        run_records: 100_000,
        gather_batch: 10_000,
        workers,
        ..Default::default()
    }
}

/// The item of `items` with the least `key`.
fn least<T>(items: &[T], key: impl Fn(&T) -> f64) -> &T {
    items
        .iter()
        .min_by(|a, b| key(a).total_cmp(&key(b)))
        .expect("a list to choose from")
}

/// A number at the precision its size deserves.
pub fn num(x: f64) -> String {
    match x.abs() {
        a if a >= 100.0 => format!("{x:.0}"),
        a if a >= 10.0 => format!("{x:.1}"),
        _ => format!("{x:.2}"),
    }
}

/// One piece of a report, in print order.
#[derive(Clone, Debug)]
pub enum Part {
    /// Prose, printed as is.
    Text(String),
    /// A table, rendered with aligned columns.
    Table(Table),
    /// A claim row, one line.
    Claim(Claim),
}

/// What an experiment found: its tables, prose and claim rows, in order.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The parts, in print order.
    pub parts: Vec<Part>,
}

impl Report {
    /// Append one line of prose (it may itself hold newlines).
    pub fn line(&mut self, text: impl Into<String>) {
        self.parts.push(Part::Text(text.into() + "\n"));
    }

    /// Append a table.
    pub fn table(&mut self, table: Table) {
        self.parts.push(Part::Table(table));
    }

    /// Append a claim row.
    pub fn claim(&mut self, claim: Claim) {
        self.parts.push(Part::Claim(claim));
    }

    /// Write the whole report.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        for part in &self.parts {
            match part {
                Part::Text(text) => w.write_all(text.as_bytes())?,
                Part::Table(table) => w.write_all(table.render().as_bytes())?,
                Part::Claim(claim) => writeln!(w, "{claim}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_measurement_does_not_hold() {
        let off = Model.near("t.near", 2.5, 1.0, 0.1, "x");
        assert!(off.to_string().ends_with("| does not hold"), "{off}");
        let outside = Host.between("t.range", "two or three", (2.0, 3.0), 1.75, "x");
        assert_eq!(
            outside.to_string(),
            "[host] t.range: paper two or three (2.00–3.00x) | measured 1.75x | does not hold"
        );
        let close = Model.near("t.near", 9.11, 9.25, 0.1, " s");
        assert_eq!(
            close.to_string(),
            "[model] t.near: paper 9.11 s ±10% | measured 9.25 s | holds"
        );
    }

    #[test]
    fn a_report_writes_its_parts_in_order() {
        let mut r = Report::default();
        r.line("== title ==\n");
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]);
        r.table(t);
        r.claim(Model.check("t.x", "p", "m".into(), true));
        let mut out = Vec::new();
        r.write_to(&mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "== title ==\n\na  b\n----\n1  2\n[model] t.x: paper p | measured m | holds\n"
        );
    }
}
