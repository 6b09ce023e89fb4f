//! One-pass vs. two-pass planning (§6).
//!
//! Mechanically: if the input (plus the sort's working overhead) fits the
//! memory budget, sort in one pass; otherwise spill runs to scratch and
//! merge them back. The *economic* question — whether to buy memory or
//! scratch disks — is modeled in `alphasort-perfmodel`'s economics module;
//! this planner only applies the capacity rule.

/// Whether the sort runs in one or two passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassPlan {
    /// Whole input resident; QuickSort runs, merge from memory.
    OnePass,
    /// Runs spilled to scratch; second pass merges them back.
    TwoPass,
}

/// Capacity-rule planner.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    memory_budget: u64,
}

impl Planner {
    /// Fraction of the budget usable for record buffers; the rest covers
    /// the entry arrays (12–16 bytes per 100-byte record) and IO buffers.
    /// 1/1.10 leaves the paper's "extend the address space by 110 MB for a
    /// 100 MB sort" headroom (§7).
    const RECORD_FRACTION: f64 = 1.0 / 1.10;

    /// Planner with a memory budget in bytes.
    pub fn new(memory_budget: u64) -> Self {
        Planner { memory_budget }
    }

    /// Largest input this budget can sort in one pass.
    pub fn one_pass_capacity(&self) -> u64 {
        (self.memory_budget as f64 * Self::RECORD_FRACTION) as u64
    }

    /// Choose the plan for an input of `input_bytes`.
    pub fn plan(&self, input_bytes: u64) -> PassPlan {
        if input_bytes <= self.one_pass_capacity() {
            PassPlan::OnePass
        } else {
            PassPlan::TwoPass
        }
    }

    /// Size the two-pass knobs for an input of `input_bytes`:
    /// run size (one memory-full of records), merge fan-in (bounded by the
    /// read-ahead buffers the merge needs), and the resulting cascade depth.
    pub fn two_pass_plan(&self, input_bytes: u64) -> TwoPassPlan {
        let record_len = alphasort_dmgen::RECORD_LEN as u64;
        let run_bytes = self.one_pass_capacity().max(record_len);
        let run_records = (run_bytes / record_len).max(1) as usize;
        let runs = input_bytes.div_ceil(run_bytes).max(1);

        // During the merge, each open run wants a read-ahead buffer; give
        // each 1/256 of memory but at least one gather batch of records.
        let per_run_buffer = (self.memory_budget / 256).max(64 * record_len);
        let max_fanin = ((self.memory_budget / per_run_buffer) as usize).max(2);

        // Cascade depth: levels of fan-in-wide merging until one remains.
        let mut merge_passes = 0u32;
        let mut remaining = runs;
        while remaining > max_fanin as u64 {
            remaining = remaining.div_ceil(max_fanin as u64);
            merge_passes += 1;
        }
        TwoPassPlan {
            run_records,
            max_fanin,
            expected_runs: runs,
            merge_passes,
        }
    }
}

/// Sizing produced by [`Planner::two_pass_plan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwoPassPlan {
    /// Records per formation run (one memory-full).
    pub run_records: usize,
    /// Merge fan-in the memory budget supports.
    pub max_fanin: usize,
    /// Runs the input will produce.
    pub expected_runs: u64,
    /// Intermediate cascade merge passes before the final merge.
    pub merge_passes: u32,
}

impl TwoPassPlan {
    /// Disk traffic as a multiple of a one-pass sort's (§6's "a two-pass
    /// sort requires twice the disk bandwidth"): 2 for plain two-pass, +1
    /// per cascade level (each level re-writes and re-reads everything
    /// once).
    pub fn bandwidth_multiplier(&self) -> u32 {
        2 + self.merge_passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_input_sorts_in_one_pass() {
        let p = Planner::new(110 << 20);
        assert_eq!(p.plan(100 << 20), PassPlan::OnePass);
    }

    #[test]
    fn oversized_input_needs_two_passes() {
        let p = Planner::new(110 << 20);
        assert_eq!(p.plan(1 << 30), PassPlan::TwoPass);
    }

    #[test]
    fn boundary_respects_overhead_headroom() {
        // Exactly at budget: entry arrays would not fit → two passes.
        let p = Planner::new(100 << 20);
        assert_eq!(p.plan(100 << 20), PassPlan::TwoPass);
        assert_eq!(p.plan(p.one_pass_capacity()), PassPlan::OnePass);
    }

    #[test]
    fn two_pass_plan_sizes_are_consistent() {
        // 1 GB sort on a 64 MB machine.
        let p = Planner::new(64 << 20);
        let plan = p.two_pass_plan(1 << 30);
        assert!(plan.run_records > 0);
        // runs ≈ input / run_bytes.
        let run_bytes = plan.run_records as u64 * 100;
        assert_eq!(plan.expected_runs, (1u64 << 30).div_ceil(run_bytes));
        // 18 runs on a fan-in-256 budget: single final merge.
        assert!(plan.max_fanin >= 2);
        assert_eq!(plan.merge_passes, 0);
        assert_eq!(plan.bandwidth_multiplier(), 2);
    }

    #[test]
    fn huge_input_on_tiny_memory_needs_cascades() {
        // 1 GB on 1 MB of memory: thousands of runs, fan-in bounded.
        let p = Planner::new(1 << 20);
        let plan = p.two_pass_plan(1 << 30);
        assert!(plan.expected_runs > 1_000);
        assert!(plan.merge_passes >= 1, "plan {plan:?}");
        assert!(plan.bandwidth_multiplier() >= 3);
    }

    #[test]
    fn cascade_depth_matches_log_of_runs() {
        let p = Planner::new(1 << 20); // fan-in will be small-ish
        let plan = p.two_pass_plan(1 << 34); // 16 GB on 1 MB
                                             // remaining runs shrink by ×fanin per pass; verify the arithmetic.
        let mut remaining = plan.expected_runs;
        for _ in 0..plan.merge_passes {
            remaining = remaining.div_ceil(plan.max_fanin as u64);
        }
        assert!(remaining <= plan.max_fanin as u64);
    }

    #[test]
    fn datamation_on_paper_machine_is_one_pass() {
        // The DEC 7000 in §7 had 256 MB; the 100 MB benchmark is one-pass.
        let p = Planner::new(256 << 20);
        assert_eq!(p.plan(100_000_000), PassPlan::OnePass);
    }
}
