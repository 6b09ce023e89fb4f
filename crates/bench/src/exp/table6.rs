//! Table 6: the two disk arrays — many-slow (36 RZ26, 9 SCSI) vs few-fast
//! (12 RZ28 on fast SCSI + 6 IPI on Genroco). Stripe rates come from the
//! simulated arrays; prices and capacities from the catalog.

use super::*;
use crate::{few_fast_array, many_slow_array, modeled_stripe_rates};

pub fn run() -> Report {
    let mut r = Report::default();
    r.line("== Table 6: two different disk arrays ==\n");
    let slow = many_slow_array();
    let fast = few_fast_array();
    let (slow_r, slow_w, _) = modeled_stripe_rates(&slow, 100);
    let (fast_r, fast_w, _) = modeled_stripe_rates(&fast, 100);
    let (slow_k, fast_k) = (slow.price_dollars() / 1e3, fast.price_dollars() / 1e3);

    let mut t = Table::new([
        "",
        "many-slow RAID",
        "few-fast RAID",
        "paper (slow)",
        "paper (fast)",
    ]);
    t.row([
        "drives".to_string(),
        format!("{} RZ26", slow.width()),
        "12 RZ28 + 6 Velocitor".to_string(),
        "36 RZ26".to_string(),
        "12 RZ28 + 6 Velocitor".to_string(),
    ]);
    t.row([
        "controllers".to_string(),
        format!("{} SCSI", slow.controllers().len()),
        "4 SCSI + 3 IPI-Genroco".to_string(),
        "9 SCSI (kzmsa)".to_string(),
        "4 SCSI + 3 IPI-Genroco".to_string(),
    ]);
    t.row([
        "capacity".to_string(),
        format!("{:.0} GB", slow.capacity_gb()),
        format!("{:.0} GB", fast.capacity_gb()),
        "36 GB".to_string(),
        "36 GB".to_string(),
    ]);
    t.row([
        "stripe read rate".to_string(),
        format!("{slow_r:.0} MB/s"),
        format!("{fast_r:.0} MB/s"),
        "64 MB/s".to_string(),
        "52 MB/s".to_string(),
    ]);
    t.row([
        "stripe write rate".to_string(),
        format!("{slow_w:.0} MB/s"),
        format!("{fast_w:.0} MB/s"),
        "49 MB/s".to_string(),
        "39 MB/s".to_string(),
    ]);
    t.row([
        "list price".to_string(),
        format!("{slow_k:.0} k$"),
        format!("{fast_k:.0} k$"),
        "85 k$".to_string(),
        "122 k$".to_string(),
    ]);
    r.table(t);

    let says = "\"The many-slow array has slightly better performance and price \
                performance for the same storage capacity\"";
    let (slow_gb, fast_gb) = (slow.capacity_gb(), fast.capacity_gb());
    let measured = format!(
        "{slow_r:.0} vs {fast_r:.0} MB/s read at {slow_k:.0} vs {fast_k:.0} k$, \
         {slow_gb:.0} vs {fast_gb:.0} GB"
    );
    let holds = slow_r > fast_r && slow_k < fast_k && (slow_gb - fast_gb).abs() < 0.5;
    r.line("");
    r.claim(Model.check("table6.many_slow", says, measured, holds));
    r
}
