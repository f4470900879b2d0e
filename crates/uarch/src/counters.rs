//! Synthesized hardware performance counters.
//!
//! Real characterization studies read MSRs; the simulation accumulates the
//! same quantities from its analytic model. Each time a task executes a
//! slice, the engine calls [`PerfCounters::record_slice`] with the work done
//! and the contention context, and the counters integrate what the silicon
//! would have counted.

use crate::params::{ExecContext, UarchParams};
use crate::profile::ServiceProfile;
use serde::{Deserialize, Serialize};

/// Accumulated performance-counter state.
///
/// All counts are exact sums over recorded slices; derived metrics come from
/// [`PerfCounters::derive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PerfCounters {
    /// Retired instructions.
    pub instructions: u64,
    /// Elapsed core cycles (actual, i.e. including contention stretch).
    pub cycles: u64,
    /// Cycles spent in kernel mode.
    pub kernel_cycles: u64,
    /// L2 cache misses.
    pub l2_misses: u64,
    /// L3 cache misses (DRAM accesses).
    pub l3_misses: u64,
    /// Mispredicted branches.
    pub branch_mispredicts: u64,
    /// Pipeline slots lost to the frontend (approximate, slot-cycles).
    pub frontend_stall_cycles: u64,
    /// Context switches experienced.
    pub context_switches: u64,
    /// Cross-CPU task migrations experienced.
    pub migrations: u64,
}

/// Metrics derived from raw counters, matching the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DerivedMetrics {
    /// Instructions per cycle.
    pub ipc: f64,
    /// L2 misses per kilo-instruction.
    pub l2_mpki: f64,
    /// L3 misses per kilo-instruction.
    pub l3_mpki: f64,
    /// Branch mispredictions per kilo-instruction.
    pub branch_mpki: f64,
    /// Fraction of cycles lost to frontend stalls.
    pub frontend_bound: f64,
    /// Fraction of cycles in kernel mode.
    pub kernel_frac: f64,
}

impl PerfCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a slice of execution.
    ///
    /// * `ref_cycles` — reference cycles of work retired in the slice.
    /// * `actual_cycles` — wall cycles the slice took (≥ `ref_cycles` under
    ///   contention; the engine computes this from the speed factor).
    /// * `profile` / `ctx` — determine miss and mispredict rates: L3 misses
    ///   inflate with cache pressure and remote NUMA placement.
    pub fn record_slice(
        &mut self,
        ref_cycles: u64,
        actual_cycles: u64,
        profile: &ServiceProfile,
        ctx: &ExecContext,
        params: &UarchParams,
    ) {
        let instructions = (ref_cycles as f64 * profile.base_ipc) as u64;
        self.instructions += instructions;
        self.cycles += actual_cycles;
        self.kernel_cycles += (actual_cycles as f64 * profile.kernel_frac) as u64;

        let kilo_instr = instructions as f64 / 1_000.0;
        let excess = (ctx.ccx_pressure - params.l3_knee).max(0.0);
        // Pressure inflates L3 misses (capacity misses) and, less strongly,
        // L2 misses (shared-L3 back-invalidations).
        let l3_inflation = 1.0 + 1.6 * excess * profile.mem_sensitivity;
        let l2_inflation = 1.0 + 0.3 * excess * profile.mem_sensitivity;
        // Remote NUMA does not add misses, it makes them slower — captured in
        // the speed factor, not the counts.
        self.l2_misses += (kilo_instr * profile.l2_mpki * l2_inflation) as u64;
        self.l3_misses += (kilo_instr * profile.l3_mpki * l3_inflation) as u64;
        self.branch_mispredicts += (kilo_instr * profile.branch_mpki) as u64;
        self.frontend_stall_cycles += (actual_cycles as f64 * profile.frontend_bound) as u64;
    }

    /// Records pure kernel work (RPC endpoints, context-switch bodies).
    pub fn record_kernel_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.kernel_cycles += cycles;
        // Kernel paths retire instructions too, at a typically poor IPC.
        self.instructions += (cycles as f64 * 0.55) as u64;
        self.frontend_stall_cycles += (cycles as f64 * 0.45) as u64;
    }

    /// Counts one context switch (and its direct cycle cost).
    pub fn record_context_switch(&mut self, params: &UarchParams) {
        self.context_switches += 1;
        self.record_kernel_cycles(params.context_switch_cycles);
    }

    /// Counts one migration. The cold-cache refill cycles are charged
    /// separately as task work by the engine.
    pub fn record_migration(&mut self) {
        self.migrations += 1;
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &PerfCounters) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.kernel_cycles += other.kernel_cycles;
        self.l2_misses += other.l2_misses;
        self.l3_misses += other.l3_misses;
        self.branch_mispredicts += other.branch_mispredicts;
        self.frontend_stall_cycles += other.frontend_stall_cycles;
        self.context_switches += other.context_switches;
        self.migrations += other.migrations;
    }

    /// Derives the characterization metrics. Returns zeros if nothing ran.
    pub fn derive(&self) -> DerivedMetrics {
        if self.cycles == 0 || self.instructions == 0 {
            return DerivedMetrics {
                ipc: 0.0,
                l2_mpki: 0.0,
                l3_mpki: 0.0,
                branch_mpki: 0.0,
                frontend_bound: 0.0,
                kernel_frac: 0.0,
            };
        }
        let ki = self.instructions as f64 / 1_000.0;
        DerivedMetrics {
            ipc: self.instructions as f64 / self.cycles as f64,
            l2_mpki: self.l2_misses as f64 / ki,
            l3_mpki: self.l3_misses as f64 / ki,
            branch_mpki: self.branch_mispredicts as f64 / ki,
            frontend_bound: self.frontend_stall_cycles as f64 / self.cycles as f64,
            kernel_frac: self.kernel_cycles as f64 / self.cycles as f64,
        }
    }
}

simcore::snap_fields!(PerfCounters {
    instructions,
    cycles,
    kernel_cycles,
    l2_misses,
    l3_misses,
    branch_mispredicts,
    frontend_stall_cycles,
    context_switches,
    migrations,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ExecContext;

    fn webui() -> ServiceProfile {
        ServiceProfile::web_frontend("webui")
    }

    #[test]
    fn empty_counters_derive_zeros() {
        let m = PerfCounters::new().derive();
        assert_eq!(m.ipc, 0.0);
        assert_eq!(m.kernel_frac, 0.0);
    }

    #[test]
    fn unloaded_slice_reproduces_profile() {
        let params = UarchParams::default();
        let profile = webui();
        let mut c = PerfCounters::new();
        c.record_slice(
            1_000_000,
            1_000_000,
            &profile,
            &ExecContext::unloaded(),
            &params,
        );
        let m = c.derive();
        assert!((m.ipc - profile.base_ipc).abs() < 0.01, "ipc {}", m.ipc);
        assert!((m.l3_mpki - profile.l3_mpki).abs() < 0.1);
        assert!((m.branch_mpki - profile.branch_mpki).abs() < 0.1);
        assert!((m.frontend_bound - profile.frontend_bound).abs() < 0.01);
        assert!((m.kernel_frac - profile.kernel_frac).abs() < 0.01);
    }

    #[test]
    fn contention_lowers_ipc_and_raises_mpki() {
        let params = UarchParams::default();
        let profile = webui();
        let hot = ExecContext {
            smt_sibling_busy: true,
            ccx_pressure: 2.5,
            numa_local: true,
        };
        // Under contention the same reference work takes more wall cycles.
        let f = params.speed_factor(&profile, &hot).value();
        let actual = (1_000_000.0 / f) as u64;
        let mut c = PerfCounters::new();
        c.record_slice(1_000_000, actual, &profile, &hot, &params);
        let m = c.derive();
        assert!(m.ipc < profile.base_ipc);
        assert!(m.l3_mpki > profile.l3_mpki, "misses inflate under pressure");
    }

    #[test]
    fn kernel_cycles_shift_the_split() {
        let params = UarchParams::default();
        let mut c = PerfCounters::new();
        c.record_slice(1_000, 1_000, &webui(), &ExecContext::unloaded(), &params);
        let before = c.derive().kernel_frac;
        c.record_kernel_cycles(100_000);
        let after = c.derive().kernel_frac;
        assert!(after > before);
        assert!(after > 0.9);
    }

    #[test]
    fn context_switch_counts_and_costs() {
        let params = UarchParams::default();
        let mut c = PerfCounters::new();
        c.record_context_switch(&params);
        assert_eq!(c.context_switches, 1);
        assert_eq!(c.kernel_cycles, params.context_switch_cycles);
    }

    #[test]
    fn merge_is_additive() {
        let params = UarchParams::default();
        let mut a = PerfCounters::new();
        let mut b = PerfCounters::new();
        a.record_slice(500, 600, &webui(), &ExecContext::unloaded(), &params);
        b.record_slice(700, 800, &webui(), &ExecContext::unloaded(), &params);
        b.record_migration();
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.cycles, 1_400);
        assert_eq!(merged.migrations, 1);
    }
}
