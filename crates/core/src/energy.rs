//! Dynamic-energy model (Fig. 15).
//!
//! GPUWattch drives McPAT with per-component activity counters; the paper
//! reports *relative* dynamic energy, which is dominated by how often each
//! component is exercised. This model multiplies the simulator's event
//! counts by per-event energies whose ratios follow the published
//! GPUWattch/CACTI orders of magnitude (DRAM ≫ L2 ≫ L1 ≫ RF ≈ ALU), plus a
//! per-SM-cycle background term so that runtime reductions also reduce
//! energy. APRES's own tables are charged per access, implementing "energy
//! consumption of new blocks for APRES is also modeled" (the paper measured
//! that overhead below 3%).

use gpu_common::stats::EnergyEvents;
use gpu_sm::RunResult;

/// Per-event dynamic energies, in nanojoules.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// One warp-wide ALU instruction.
    pub alu_nj: f64,
    /// One warp-wide register-file access.
    pub regfile_nj: f64,
    /// One L1 access (demand, prefetch, or fill).
    pub l1_nj: f64,
    /// One L2 access.
    pub l2_nj: f64,
    /// One DRAM line transfer.
    pub dram_nj: f64,
    /// One access to an APRES SRAM structure (LLT/WGT/PT/WQ/DRQ).
    pub apres_table_nj: f64,
    /// Background (clock/pipeline) energy per SM-cycle.
    pub per_sm_cycle_nj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            alu_nj: 0.6,
            regfile_nj: 0.3,
            l1_nj: 1.2,
            l2_nj: 3.0,
            dram_nj: 32.0,
            apres_table_nj: 0.05,
            per_sm_cycle_nj: 0.9,
        }
    }
}

impl EnergyModel {
    /// Creates the default model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dynamic energy of the counted events alone, in nJ.
    pub fn event_energy_nj(&self, ev: &EnergyEvents) -> f64 {
        ev.alu_ops as f64 * self.alu_nj
            + ev.regfile_accesses as f64 * self.regfile_nj
            + ev.l1_accesses as f64 * self.l1_nj
            + ev.l2_accesses as f64 * self.l2_nj
            + ev.dram_accesses as f64 * self.dram_nj
            + ev.apres_table_accesses as f64 * self.apres_table_nj
    }

    /// Total dynamic energy of a run, in nJ (events + background over
    /// `num_sms` SMs for the run's cycle count).
    pub fn run_energy_nj(&self, result: &RunResult, num_sms: usize) -> f64 {
        self.event_energy_nj(&result.energy)
            + result.cycles as f64 * num_sms as f64 * self.per_sm_cycle_nj
    }

    /// Energy of `result` relative to `baseline` (Fig. 15's bars).
    pub fn normalized(&self, result: &RunResult, baseline: &RunResult, num_sms: usize) -> f64 {
        let b = self.run_energy_nj(baseline, num_sms);
        if b == 0.0 {
            0.0
        } else {
            self.run_energy_nj(result, num_sms) / b
        }
    }

    /// Fraction of a run's event energy spent in the APRES structures
    /// (the paper reports < 3%).
    pub fn apres_overhead_fraction(&self, result: &RunResult, num_sms: usize) -> f64 {
        let total = self.run_energy_nj(result, num_sms);
        if total == 0.0 {
            0.0
        } else {
            result.energy.apres_table_accesses as f64 * self.apres_table_nj / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_common::stats::{CacheStats, MemStats, PrefetchStats, SimStats};

    fn result(cycles: u64, ev: EnergyEvents) -> RunResult {
        RunResult {
            scheduler: "x".into(),
            prefetcher: "y".into(),
            kernel: "k".into(),
            cycles,
            timed_out: false,
            termination: gpu_sm::Termination::Drained,
            faults: gpu_common::fault::FaultCounters::default(),
            sim: SimStats {
                cycles,
                ..Default::default()
            },
            l1: CacheStats::default(),
            prefetch: PrefetchStats::default(),
            mem: MemStats::default(),
            energy: ev,
            per_pc: Vec::new(),
        }
    }

    #[test]
    fn event_energy_weights() {
        let m = EnergyModel::new();
        let ev = EnergyEvents {
            alu_ops: 10,
            regfile_accesses: 10,
            l1_accesses: 10,
            l2_accesses: 10,
            dram_accesses: 10,
            apres_table_accesses: 10,
        };
        let e = m.event_energy_nj(&ev);
        let expect = 10.0 * (0.6 + 0.3 + 1.2 + 3.0 + 32.0 + 0.05);
        assert!((e - expect).abs() < 1e-9);
    }

    #[test]
    fn dram_dominates() {
        let m = EnergyModel::new();
        assert!(m.dram_nj > 10.0 * m.l1_nj);
        assert!(m.l2_nj > m.l1_nj);
        assert!(m.l1_nj > m.regfile_nj);
    }

    #[test]
    fn shorter_run_uses_less_background_energy() {
        let m = EnergyModel::new();
        let fast = result(1000, EnergyEvents::default());
        let slow = result(2000, EnergyEvents::default());
        assert!(m.run_energy_nj(&fast, 15) < m.run_energy_nj(&slow, 15));
        assert!((m.normalized(&fast, &slow, 15) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn apres_overhead_small() {
        let m = EnergyModel::new();
        let ev = EnergyEvents {
            alu_ops: 100_000,
            regfile_accesses: 300_000,
            l1_accesses: 50_000,
            l2_accesses: 20_000,
            dram_accesses: 10_000,
            apres_table_accesses: 200_000,
        };
        let r = result(100_000, ev);
        let frac = m.apres_overhead_fraction(&r, 15);
        assert!(frac < 0.03, "APRES energy fraction {frac} exceeds 3%");
        assert!(frac > 0.0);
    }

    #[test]
    fn normalized_handles_zero_baseline() {
        let m = EnergyModel::new();
        let z = result(0, EnergyEvents::default());
        assert_eq!(m.normalized(&z, &z, 15), 0.0);
    }
}
