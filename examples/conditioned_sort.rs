//! Industrial-strength sorting with key conditioning (§4).
//!
//! The benchmark's keys are plain bytes, but real sorts face floats, signed
//! integers and odd collations. The paper: "Key conditioning extracts the
//! sort key from each record, transforms the result to allow efficient byte
//! compares, and stores it with the record as an added field." This example
//! sorts a table of (department, salary) rows by `department ASC, salary
//! DESC` through the unmodified AlphaSort pipeline, by conditioning the
//! composite key into the record's 10 key bytes.
//!
//! ```sh
//! cargo run --release --example conditioned_sort
//! ```

use alphasort_suite::dmgen::{Record, KEY_LEN};
use alphasort_suite::sort::condition::{composite, KeyCondition};
use alphasort_suite::sort::runform::form_run;

#[derive(Clone, Debug)]
struct Employee {
    name: &'static str,
    dept: i64,
    salary: f64,
}

fn main() {
    let employees = [
        Employee {
            name: "ada",
            dept: 2,
            salary: 120_000.0,
        },
        Employee {
            name: "grace",
            dept: 1,
            salary: 95_000.0,
        },
        Employee {
            name: "edsger",
            dept: 1,
            salary: 110_000.0,
        },
        Employee {
            name: "barbara",
            dept: 2,
            salary: 130_000.0,
        },
        Employee {
            name: "donald",
            dept: 1,
            salary: 110_000.0,
        },
        Employee {
            name: "tony",
            dept: 3,
            salary: -50.0,
        }, // owes the company
        Employee {
            name: "alan",
            dept: 3,
            salary: 0.0,
        },
    ];
    let employees = employees.to_vec();

    // Condition (dept ASC, salary DESC) into the record's 10 key bytes.
    // The full-width composite is 16 bytes, so pack it: departments fit in
    // 2 bytes, leaving all 8 salary bytes — conditioning is also about
    // *budgeting* discriminating bytes (§4's "where the prefix is a good
    // discriminator of the keys").
    use alphasort_suite::sort::condition::{Descending, I64Condition};
    let condition_key = |e: &Employee| -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        key[..2].copy_from_slice(&((e.dept as u16) ^ 0x8000).to_be_bytes());
        let mut sal = [0u8; 8];
        Descending::<I64Condition>::condition(&(e.salary.round() as i64), &mut sal);
        key[2..].copy_from_slice(&sal);
        key
    };
    println!("conditioned key: dept (2 B, sign-biased) + salary (8 B, descending)\n");

    // Build benchmark-shaped records: conditioned key + row id in payload.
    let mut buf = Vec::new();
    for (i, e) in employees.iter().enumerate() {
        buf.extend_from_slice(Record::with_key(condition_key(e), i as u64).as_bytes());
    }

    // Sort with the standard key-prefix pipeline — the conditioned bytes
    // need no special handling.
    let run = form_run(buf);
    println!("{:<10} {:>5} {:>10}", "name", "dept", "salary");
    println!("{}", "-".repeat(28));
    for rec in run.iter_sorted() {
        let e = &employees[rec.seq() as usize];
        println!("{:<10} {:>5} {:>10.0}", e.name, e.dept, e.salary);
    }

    // The runtime composite builder handles the full-width case (no
    // truncation): its byte order is the row order directly.
    let conditioner = composite::<Employee>()
        .asc_i64(|e| e.dept)
        .desc_i64(|e| e.salary.round() as i64);
    let mut by_composite: Vec<&Employee> = employees.iter().collect();
    by_composite.sort_by_key(|e| conditioner.condition(e));
    let by_record: Vec<&str> = run
        .iter_sorted()
        .map(|r| employees[r.seq() as usize].name)
        .collect();
    let by_comp: Vec<&str> = by_composite.iter().map(|e| e.name).collect();
    assert_eq!(by_record, by_comp, "packed key and composite disagree");
    println!("\n16-byte composite conditioner agrees with the packed 10-byte key ✓");

    // Show the single-type conditioners too: floats with negatives and
    // special values sort correctly as bytes.
    let mut values: Vec<f64> = vec![
        3.5,
        -2.0,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e-300,
    ];
    let mut keyed: Vec<([u8; 8], f64)> = values
        .iter()
        .map(|v| {
            let mut k = [0u8; 8];
            alphasort_suite::sort::condition::F64Condition::condition(v, &mut k);
            (k, *v)
        })
        .collect();
    keyed.sort_by_key(|a| a.0);
    values.sort_by(|a, b| a.total_cmp(b));
    let byte_order: Vec<f64> = keyed.into_iter().map(|(_, v)| v).collect();
    assert_eq!(
        byte_order.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    println!("\nf64 conditioning: byte order == IEEE total order ✓ {byte_order:?}");
}
