//! §6 / Figure 5: striping bandwidth scaling.
//!
//! * the single-disk "one-minute barrier" for a 100 MB sort,
//! * near-linear read/write scaling with stripe width (modeled RZ26 array,
//!   4 per SCSI controller — the paper scaled to 9 controllers, 36 disks,
//!   64 MB/s),
//! * controller saturation when too many fast disks share one bus,
//! * the same scaling in wall-clock: a striped read over real-time paced
//!   RZ26 drives at widths 1, 2, 4 and 8.

use super::*;
use crate::modeled_stripe_rates;

/// Wall-clock acceleration of the paced drives over true 1993 speed.
const SPEEDUP: f64 = 20.0;

pub fn run() -> Report {
    let mut r = Report::default();
    let (rz26, rz28, scsi) = (catalog::rz26(), catalog::rz28(), catalog::scsi_controller());
    // `width` RZ26 drives, four to a SCSI controller, timed by `pacing`.
    let rz26_array = |pacing, width| modeled_array(pacing, rz26.clone(), scsi.clone(), 4, width);
    r.line("== one-disk one-minute barrier (§6) ==\n");
    let d = catalog::scsi_1993();
    let read_s = 100.0 / d.read_mbps;
    let write_s = 100.0 / d.write_mbps;
    r.line(format!(
        "one {} disk: read 100 MB in {:.0} s + write in {:.0} s ≈ {:.0} s total",
        d.name,
        read_s,
        write_s,
        read_s + write_s
    ));
    // "about 25 seconds to read … about 30 seconds to write"
    r.claim(Model.near("striping.barrier", 55.0, read_s + write_s, 0.1, " s"));
    r.line("");

    r.line("== stripe width sweep (modeled RZ26, 4 per SCSI controller) ==\n");
    let mut t = Table::new([
        "disks",
        "ctlrs",
        "read MB/s",
        "write MB/s",
        "ideal read",
        "efficiency",
    ]);
    let (mut min_eff, mut wide) = (f64::INFINITY, (0.0, 0.0));
    for width in [1usize, 2, 4, 8, 12, 16, 24, 36] {
        let array = rz26_array(Pacing::Modeled, width);
        let (r, w, _) = modeled_stripe_rates(&array, (width * 2).max(8));
        let ideal = rz26.read_mbps * width as f64;
        t.row([
            width.to_string(),
            array.controllers().len().to_string(),
            format!("{r:.1}"),
            format!("{w:.1}"),
            format!("{ideal:.1}"),
            format!("{:.0}%", r / ideal * 100.0),
        ]);
        min_eff = min_eff.min(r / ideal * 100.0);
        wide = (r, w);
    }
    r.table(t);
    r.line("");
    let says = "\"The file striping code bandwidth is near-linear as the array grows\"";
    let (range, unit) = ((90.0, f64::INFINITY), "% of ideal at the worst width");
    r.claim(Model.between("striping.linear", says, range, min_eff, unit));
    r.claim(Model.near("striping.read36", 64.0, wide.0, 0.1, " MB/s"));
    r.claim(Model.near("striping.write36", 49.0, wide.1, 0.1, " MB/s"));
    r.line("");

    r.line("== controller saturation (RZ28 on one 8 MB/s SCSI bus) ==\n");
    let mut t2 = Table::new(["disks on one bus", "sum of disk rates", "read MB/s"]);
    let bus = catalog::scsi_controller().bandwidth_mbps;
    let mut most = 0.0f64;
    for n in [1usize, 2, 3, 4, 6, 8] {
        let modeled = Pacing::Modeled;
        let array = modeled_array(modeled, rz28.clone(), scsi.clone(), 8, n);
        let (r, _, _) = modeled_stripe_rates(&array, (n * 4).max(8));
        t2.row([
            n.to_string(),
            format!("{:.0}", rz28.read_mbps * n as f64),
            format!("{r:.1}"),
        ]);
        most = most.max(r);
    }
    r.table(t2);
    r.line("");
    let says = "\"Bottlenecks appear when a controller saturates\": 32 MB/s of drives \
                read at the bus rate";
    let range = (0.95 * bus, bus);
    r.claim(Model.between("striping.saturation", says, range, most, " MB/s"));

    r.line(format!(
        "\n== wall-clock: striped read over paced RZ26 drives ({SPEEDUP:.0}x, 1993-scale MB/s) ==\n"
    ));
    let mut t3 = Table::new(["width", "read MB/s", "ideal", "efficiency"]);
    let mut eff = 0.0;
    for width in [1usize, 2, 4, 8] {
        let array = rz26_array(Pacing::RealTime { speedup: SPEEDUP }, width);
        let mbps = modeled_stripe_rates(&array, 2 * width.max(2)).2 / SPEEDUP;
        let ideal = rz26.read_mbps * width as f64;
        eff = mbps / ideal * 100.0;
        t3.row([
            width.to_string(),
            format!("{mbps:.2}"),
            format!("{ideal:.1}"),
            format!("{eff:.0}%"),
        ]);
    }
    r.table(t3);
    r.line("");
    let (says, unit) = ("near-linear in wall-clock time", "% of ideal at 8 disks");
    r.claim(Host.between("striping.paced", says, (90.0, f64::INFINITY), eff, unit));
    r
}
