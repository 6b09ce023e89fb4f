//! §8 DollarSort: how much can you sort for a dollar?
//!
//! A dollar buys `60 × 10⁶ / price` seconds of machine time, so cheap
//! machines get long budgets — "PCs could win the DollarSort benchmark."
//! The table shows the paper's machines and the modeled gigabytes each
//! sorts within its dollar.

use alphasort_perfmodel::machines::minutesort_machine;
use alphasort_perfmodel::metrics::{dollarsort, dollarsort_budget_s};

use super::*;

pub fn run() -> Report {
    let mut r = Report::default();
    r.line("== DollarSort (§8): one dollar of machine time ==\n");
    let mut t = Table::new(["system", "price k$", "budget", "modeled GB for 1$"]);
    let mut machines = table8();
    machines.push(minutesort_machine());

    // (name, budget s, GB sorted for the dollar)
    let mut rows = Vec::new();
    for m in &machines {
        let budget = dollarsort_budget_s(m.system_price);
        // Grow the sort until the model says the budget is spent. A
        // one-pass model is optimistic for multi-GB sorts on 256 MB
        // machines, so cap at a memory-feasible multiple and fall back to
        // rate × budget beyond it (IO-bound regime: fine for a model).
        let b = datamation_model(m, 100.0);
        let sorted_mb = 100.0 / (b.total() - b.startup - b.shutdown) * budget;
        let sorted = dollarsort(m.system_price, (sorted_mb * 1e6) as u64, budget);
        t.row([
            m.name.clone(),
            format!("{:.0}", m.system_price / 1e3),
            format!("{} s", secs(budget)),
            format!("{:.1}", sorted.sorted_gb),
        ]);
        rows.push((m.name.as_str(), budget, sorted.sorted_gb));
    }
    r.table(t);

    let longest = least(&rows, |row| -row.1).0;
    let most = least(&rows, |row| -row.2).0;
    let says = "\"workstations will win the DollarSort\": the DEC 3000 has the longest \
                budget and sorts the most per dollar";
    let measured = format!("longest budget {longest}; most GB per dollar {most}");
    let holds = longest.starts_with("DEC 3000") && most.starts_with("DEC 3000");
    r.line("");
    r.claim(Model.check("dollarsort.winner", says, measured, holds));
    r
}
