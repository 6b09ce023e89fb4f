//! Table 1 / Graph 2: published Datamation sort results, 1985–1993.
//!
//! These are the paper's literature data; `exp table1` prints them next to
//! the reproduction's own measured results so the trend lines of Graph 2
//! (time falling, price-performance improving) can be regenerated.

/// One published result (a Table 1 row).
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryRow {
    /// System / implementation.
    pub system: &'static str,
    /// Year of the result (chronological order of Table 1).
    pub year: u32,
    /// Elapsed seconds for the 100 MB benchmark.
    pub time_s: f64,
    /// $/sort (5-year prorated; `*` rows estimated by the paper).
    pub dollars_per_sort: f64,
    /// Approximate system cost, millions of dollars.
    pub cost_millions: f64,
    /// CPUs used.
    pub cpus: u32,
    /// Disks used.
    pub disks: u32,
}

/// The rows of Table 1 in chronological order.
pub fn table1() -> Vec<HistoryRow> {
    vec![
        HistoryRow {
            system: "Tandem (Tsukerman et al.)",
            year: 1985,
            time_s: 3600.0,
            dollars_per_sort: 4.61,
            cost_millions: 0.2,
            cpus: 2,
            disks: 2,
        },
        HistoryRow {
            system: "Beck",
            year: 1986,
            time_s: 980.0,
            dollars_per_sort: 1.92,
            cost_millions: 0.1,
            cpus: 4,
            disks: 4,
        },
        HistoryRow {
            system: "Tsukerman + Tandem",
            year: 1986,
            time_s: 320.0,
            dollars_per_sort: 1.25,
            cost_millions: 0.2,
            cpus: 3,
            disks: 6,
        },
        HistoryRow {
            system: "Weinberger + Cray",
            year: 1986,
            time_s: 26.0,
            dollars_per_sort: 1.25,
            cost_millions: 7.5,
            cpus: 1,
            disks: 1,
        },
        HistoryRow {
            system: "Kitsuregawa (hardware sorter)",
            year: 1989,
            time_s: 180.0,
            dollars_per_sort: 0.41,
            cost_millions: 0.2,
            cpus: 1,
            disks: 1,
        },
        HistoryRow {
            system: "Baugsto (16 cpu)",
            year: 1989,
            time_s: 83.0,
            dollars_per_sort: 0.23,
            cost_millions: 0.2,
            cpus: 16,
            disks: 16,
        },
        HistoryRow {
            system: "Graefe + Sequent",
            year: 1990,
            time_s: 40.0,
            dollars_per_sort: 0.27,
            cost_millions: 0.5,
            cpus: 8,
            disks: 4,
        },
        HistoryRow {
            system: "Baugsto (100 cpu)",
            year: 1990,
            time_s: 40.0,
            dollars_per_sort: 0.26,
            cost_millions: 1.0,
            cpus: 100,
            disks: 100,
        },
        HistoryRow {
            system: "DeWitt + Intel iPSC/2",
            year: 1992,
            time_s: 58.0,
            dollars_per_sort: 0.37,
            cost_millions: 1.0,
            cpus: 32,
            disks: 32,
        },
        HistoryRow {
            system: "AlphaSort, DEC 7000 AXP (1 cpu)",
            year: 1993,
            time_s: 9.1,
            dollars_per_sort: 0.022,
            cost_millions: 0.4,
            cpus: 1,
            disks: 16,
        },
        HistoryRow {
            system: "AlphaSort, DEC 4000 AXP",
            year: 1993,
            time_s: 8.2,
            dollars_per_sort: 0.011,
            cost_millions: 0.2,
            cpus: 2,
            disks: 14,
        },
        HistoryRow {
            system: "AlphaSort, DEC 7000 AXP (3 cpu)",
            year: 1993,
            time_s: 7.0,
            dollars_per_sort: 0.014,
            cost_millions: 0.5,
            cpus: 3,
            disks: 28,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chronological_and_complete() {
        let rows = table1();
        assert_eq!(rows.len(), 12);
        assert!(rows.windows(2).all(|w| w[0].year <= w[1].year));
    }

    #[test]
    fn alphasort_beats_cray_by_about_4x_and_hypercube_by_8x() {
        let rows = table1();
        let cray = rows.iter().find(|r| r.system.contains("Cray")).unwrap();
        let cube = rows.iter().find(|r| r.system.contains("iPSC")).unwrap();
        let best = rows.iter().map(|r| r.time_s).fold(f64::INFINITY, f64::min);
        assert!((cray.time_s / best - 3.7).abs() < 0.5); // "about 4x"
        assert!((cube.time_s / best - 8.3).abs() < 0.5); // "8:1"
    }

    #[test]
    fn alphasort_is_about_100x_cheaper_than_cray() {
        let rows = table1();
        let cray = rows.iter().find(|r| r.system.contains("Cray")).unwrap();
        let a1 = rows
            .iter()
            .find(|r| r.system.contains("AXP (1 cpu)"))
            .unwrap();
        assert!(cray.dollars_per_sort / a1.dollars_per_sort > 50.0);
    }
}
