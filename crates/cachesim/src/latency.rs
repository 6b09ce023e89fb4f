//! Figure 3: "How far away is the data?"
//!
//! The paper's whimsical scale: clock ticks to each level of the memory
//! hierarchy (5 ns ticks on the 200 MHz Alpha), next to a human analogy
//! where one tick is one minute — registers in your head, the on-chip cache
//! on this campus, memory in Sacramento, disk on Pluto, tape two thousand
//! years out. [`figure3`] returns the modeled rows; `exp fig3` additionally
//! measures the *host's* hierarchy with a pointer chase for comparison.

/// One level of the hierarchy on the Figure 3 scale.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyRow {
    /// Level name.
    pub level: &'static str,
    /// Clock ticks to reach it (5 ns ticks in the paper's scale).
    pub clock_ticks: f64,
    /// The paper's San-Francisco-centred analogy.
    pub analogy: &'static str,
}

impl LatencyRow {
    /// The human-scale time if one tick were one minute.
    pub fn human_minutes(&self) -> f64 {
        self.clock_ticks
    }

    /// Latency in nanoseconds at the paper's 5 ns clock.
    pub fn nanoseconds(&self) -> f64 {
        self.clock_ticks * 5.0
    }
}

/// The Figure 3 rows (1994 constants).
pub fn figure3() -> Vec<LatencyRow> {
    vec![
        LatencyRow {
            level: "registers",
            clock_ticks: 1.0,
            analogy: "my head (1 min)",
        },
        LatencyRow {
            level: "on-chip cache",
            clock_ticks: 2.0,
            analogy: "this room (2 min)",
        },
        LatencyRow {
            level: "on-board cache",
            clock_ticks: 10.0,
            analogy: "this campus (10 min)",
        },
        LatencyRow {
            level: "memory",
            clock_ticks: 100.0,
            analogy: "Sacramento (1.5 hours)",
        },
        LatencyRow {
            level: "disk",
            clock_ticks: 1e6,
            analogy: "Pluto (2 years)",
        },
        LatencyRow {
            level: "tape/optical robot",
            clock_ticks: 1e9,
            analogy: "Andromeda (2,000 years)",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_ordered_and_span_nine_decades() {
        let rows = figure3();
        assert_eq!(rows.len(), 6);
        assert!(rows.windows(2).all(|w| w[0].clock_ticks < w[1].clock_ticks));
        assert_eq!(rows.first().unwrap().clock_ticks, 1.0);
        assert_eq!(rows.last().unwrap().clock_ticks, 1e9);
    }

    #[test]
    fn paper_scale_conversions() {
        let mem = &figure3()[3];
        assert_eq!(mem.level, "memory");
        assert_eq!(mem.nanoseconds(), 500.0); // 100 ticks × 5 ns
        assert_eq!(mem.human_minutes(), 100.0);
    }
}
