//! Simulation statistics.
//!
//! These are passive counter structs (public fields, in the C spirit) that the
//! pipeline and memory system increment as events occur. Every figure of the
//! paper is computed from them:
//!
//! * IPC (Figs. 3, 10) from [`SimStats`],
//! * hit/miss breakdown (Figs. 2, 11) from [`CacheStats`],
//! * early-eviction ratio (Figs. 4, 12) and prefetch accounting from
//!   [`PrefetchStats`],
//! * average memory latency (Fig. 13) and data traffic (Fig. 14) from
//!   [`MemStats`],
//! * event counts feeding the energy model (Fig. 15) from [`EnergyEvents`].

/// Top-level simulation counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Core cycles elapsed.
    pub cycles: u64,
    /// Warp instructions issued (one warp instruction = up to 32 threads).
    pub instructions: u64,
    /// Global load instructions issued.
    pub loads: u64,
    /// Global store instructions issued.
    pub stores: u64,
    /// Cycles in which no warp could issue.
    pub stall_cycles: u64,
    /// Stall cycles where at least one warp was only excluded by a full
    /// LSU queue (structural hazard).
    pub stall_lsu_full: u64,
    /// Stall cycles where every unfinished warp was waiting on a memory or
    /// ALU dependency.
    pub stall_dependency: u64,
    /// Sum of active lanes over all issued instructions (SIMD efficiency
    /// numerator; divergent loads contribute fewer than `warp_size`).
    pub active_lane_sum: u64,
}

impl SimStats {
    /// Accumulates another SM's counters into this one.
    pub fn add(&mut self, other: &SimStats) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.loads += other.loads;
        self.stores += other.stores;
        self.stall_cycles += other.stall_cycles;
        self.stall_lsu_full += other.stall_lsu_full;
        self.stall_dependency += other.stall_dependency;
        self.active_lane_sum += other.active_lane_sum;
    }

    /// Instructions per cycle. Zero if no cycles elapsed.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Average active lanes per issued instruction over `warp_size`
    /// (SIMD efficiency; 1.0 = no divergence).
    pub fn simd_efficiency(&self, warp_size: usize) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.active_lane_sum as f64 / (self.instructions * warp_size as u64) as f64
        }
    }
}

/// Per-cache counters with the paper's hit/miss taxonomy.
///
/// *Hit-after-hit* is a hit whose immediately preceding access (to the same
/// cache) also hit; *hit-after-miss* follows a miss (Fig. 11). A miss is
/// *cold* if the line was never resident before; otherwise it is a
/// *capacity/conflict* miss ("loaded to cache previously but evicted prior to
/// first reuse", Section III-A).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (loads + stores reaching the cache).
    pub accesses: u64,
    /// Demand hits (including merges into in-flight MSHR entries counted
    /// separately in `mshr_merges`).
    pub hits: u64,
    /// Hits whose previous access was also a hit.
    pub hit_after_hit: u64,
    /// Hits whose previous access was a miss.
    pub hit_after_miss: u64,
    /// Cold (compulsory) misses.
    pub cold_misses: u64,
    /// Capacity or conflict misses.
    pub capacity_conflict_misses: u64,
    /// Demand accesses merged into an in-flight MSHR entry.
    pub mshr_merges: u64,
    /// Demand accesses merged specifically into a *prefetch* MSHR entry.
    pub merges_into_prefetch: u64,
    /// Accesses rejected because no MSHR or merge slot was available
    /// (the request retries next cycle).
    pub reservation_fails: u64,
    /// Lines evicted.
    pub evictions: u64,
}

impl CacheStats {
    /// Accumulates another cache's counters into this one.
    pub fn add(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.hit_after_hit += other.hit_after_hit;
        self.hit_after_miss += other.hit_after_miss;
        self.cold_misses += other.cold_misses;
        self.capacity_conflict_misses += other.capacity_conflict_misses;
        self.mshr_merges += other.mshr_merges;
        self.merges_into_prefetch += other.merges_into_prefetch;
        self.reservation_fails += other.reservation_fails;
        self.evictions += other.evictions;
    }

    /// Total demand misses (cold + capacity/conflict).
    pub fn misses(&self) -> u64 {
        self.cold_misses + self.capacity_conflict_misses
    }

    /// Miss ratio over demand accesses; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }

    /// Hit ratio over demand accesses; zero when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Fraction of all accesses that are hit-after-hit (Fig. 11's bottom band).
    pub fn hit_after_hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hit_after_hit as f64 / self.accesses as f64
        }
    }
}

/// Prefetch effectiveness counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetch requests issued to the memory system.
    pub issued: u64,
    /// Prefetch requests dropped (duplicate line already present/in flight).
    pub dropped_duplicate: u64,
    /// Prefetch requests dropped for lack of an MSHR.
    pub dropped_no_resource: u64,
    /// Prefetched lines that received a demand hit while resident.
    pub useful: u64,
    /// Demand misses merged into an in-flight prefetch (late but useful).
    pub late_merged: u64,
    /// Correctly-predicted prefetched lines evicted before any demand use
    /// (the paper's *early evictions*, Figs. 4 and 12).
    pub early_evictions: u64,
    /// Prefetched lines evicted unused whose address was never demanded
    /// (incorrect prediction).
    pub useless_evictions: u64,
}

impl PrefetchStats {
    /// Accumulates another prefetcher's counters into this one.
    pub fn add(&mut self, other: &PrefetchStats) {
        self.issued += other.issued;
        self.dropped_duplicate += other.dropped_duplicate;
        self.dropped_no_resource += other.dropped_no_resource;
        self.useful += other.useful;
        self.late_merged += other.late_merged;
        self.early_evictions += other.early_evictions;
        self.useless_evictions += other.useless_evictions;
    }

    /// Correct prefetches: lines that were (eventually) demanded — used,
    /// merged late, or evicted early. The paper's early-eviction ratio is
    /// computed over this population ("we counted only correctly predicted
    /// cache lines as part of the total prefetches issued", Section III-C).
    pub fn correct(&self) -> u64 {
        self.useful + self.late_merged + self.early_evictions
    }

    /// Early-eviction ratio over correct prefetches.
    pub fn early_eviction_ratio(&self) -> f64 {
        let c = self.correct();
        if c == 0 {
            0.0
        } else {
            self.early_evictions as f64 / c as f64
        }
    }

    /// Prefetch accuracy: correct / issued.
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.correct() as f64 / self.issued as f64
        }
    }
}

/// Memory latency and traffic counters (Figs. 13, 14).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Sum of round-trip latencies of completed demand loads, in cycles.
    pub total_load_latency: u64,
    /// Number of completed demand loads contributing to the sum.
    pub completed_loads: u64,
    /// Bytes moved from L2/DRAM into the SM (fills, incl. prefetches).
    pub bytes_to_sm: u64,
    /// Bytes moved from DRAM to L2.
    pub bytes_from_dram: u64,
}

impl MemStats {
    /// Average round-trip demand-load latency in cycles.
    pub fn avg_load_latency(&self) -> f64 {
        if self.completed_loads == 0 {
            0.0
        } else {
            self.total_load_latency as f64 / self.completed_loads as f64
        }
    }
}

/// Raw event counts consumed by the dynamic-energy model (Fig. 15).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnergyEvents {
    /// ALU warp-instructions executed.
    pub alu_ops: u64,
    /// Register-file accesses (reads + writes, warp granularity).
    pub regfile_accesses: u64,
    /// L1 data cache accesses (demand + prefetch fills).
    pub l1_accesses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// DRAM line transfers.
    pub dram_accesses: u64,
    /// Accesses to APRES structures (LLT/WGT/PT/WQ/DRQ).
    pub apres_table_accesses: u64,
}

impl EnergyEvents {
    /// Accumulates another event record into this one.
    pub fn add(&mut self, other: &EnergyEvents) {
        self.alu_ops += other.alu_ops;
        self.regfile_accesses += other.regfile_accesses;
        self.l1_accesses += other.l1_accesses;
        self.l2_accesses += other.l2_accesses;
        self.dram_accesses += other.dram_accesses;
        self.apres_table_accesses += other.apres_table_accesses;
    }
}

/// Aggregate throughput of a batch of simulations (sweep harnesses).
///
/// Workers [`record`](Throughput::record) each finished simulation's cycle
/// and instruction counts; readers convert the totals plus an elapsed
/// wall-clock duration into rates for progress reporting. The struct is
/// plain data — accumulation across threads is the caller's concern (the
/// bench harness merges per-worker records under its results lock).
///
/// # Example
///
/// ```
/// use gpu_common::stats::Throughput;
/// use std::time::Duration;
///
/// let mut t = Throughput::default();
/// t.record(1_000_000, 350_000);
/// t.record(2_000_000, 800_000);
/// assert_eq!(t.sims, 2);
/// let dt = Duration::from_secs(2);
/// assert!((t.sims_per_sec(dt) - 1.0).abs() < 1e-12);
/// assert!((t.cycles_per_sec(dt) - 1_500_000.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Throughput {
    /// Simulations completed (successfully or not — a skipped data point
    /// still consumed a worker slot).
    pub sims: u64,
    /// Simulated cycles accumulated over all completed runs.
    pub cycles: u64,
    /// Warp instructions accumulated over all completed runs.
    pub instructions: u64,
}

impl Throughput {
    /// Records one finished simulation.
    pub fn record(&mut self, cycles: u64, instructions: u64) {
        self.sims += 1;
        self.cycles += cycles;
        self.instructions += instructions;
    }

    /// Merges another record into this one.
    pub fn merge(&mut self, other: &Throughput) {
        self.sims += other.sims;
        self.cycles += other.cycles;
        self.instructions += other.instructions;
    }

    /// Simulations per wall-clock second; zero for a zero duration.
    pub fn sims_per_sec(&self, elapsed: std::time::Duration) -> f64 {
        Self::rate(self.sims, elapsed)
    }

    /// Simulated cycles per wall-clock second; zero for a zero duration.
    pub fn cycles_per_sec(&self, elapsed: std::time::Duration) -> f64 {
        Self::rate(self.cycles, elapsed)
    }

    /// Warp instructions per wall-clock second; zero for a zero duration.
    pub fn instructions_per_sec(&self, elapsed: std::time::Duration) -> f64 {
        Self::rate(self.instructions, elapsed)
    }

    fn rate(count: u64, elapsed: std::time::Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            count as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
        let s = SimStats {
            cycles: 100,
            instructions: 50,
            ..Default::default()
        };
        assert!((s.ipc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn simd_efficiency() {
        let s = SimStats {
            instructions: 10,
            active_lane_sum: 10 * 32,
            ..Default::default()
        };
        assert!((s.simd_efficiency(32) - 1.0).abs() < 1e-12);
        let d = SimStats {
            instructions: 10,
            active_lane_sum: 160,
            ..Default::default()
        };
        assert!((d.simd_efficiency(32) - 0.5).abs() < 1e-12);
        assert_eq!(SimStats::default().simd_efficiency(32), 0.0);
    }

    #[test]
    fn cache_rates() {
        let c = CacheStats {
            accesses: 10,
            hits: 6,
            hit_after_hit: 4,
            hit_after_miss: 2,
            cold_misses: 1,
            capacity_conflict_misses: 3,
            ..Default::default()
        };
        assert_eq!(c.misses(), 4);
        assert!((c.miss_rate() - 0.4).abs() < 1e-12);
        assert!((c.hit_rate() - 0.6).abs() < 1e-12);
        assert!((c.hit_after_hit_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn cache_rates_empty() {
        let c = CacheStats::default();
        assert_eq!(c.miss_rate(), 0.0);
        assert_eq!(c.hit_rate(), 0.0);
    }

    #[test]
    fn prefetch_early_eviction_over_correct_only() {
        let p = PrefetchStats {
            issued: 100,
            useful: 60,
            late_merged: 20,
            early_evictions: 20,
            useless_evictions: 500, // wrong predictions do not dilute the ratio
            ..Default::default()
        };
        assert_eq!(p.correct(), 100);
        assert!((p.early_eviction_ratio() - 0.2).abs() < 1e-12);
        assert!((p.accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_ratios_empty() {
        let p = PrefetchStats::default();
        assert_eq!(p.early_eviction_ratio(), 0.0);
        assert_eq!(p.accuracy(), 0.0);
    }

    #[test]
    fn mem_avg_latency() {
        let m = MemStats {
            total_load_latency: 900,
            completed_loads: 3,
            ..Default::default()
        };
        assert!((m.avg_load_latency() - 300.0).abs() < 1e-12);
        assert_eq!(MemStats::default().avg_load_latency(), 0.0);
    }

    #[test]
    fn throughput_rates() {
        let mut t = Throughput::default();
        t.record(100, 40);
        t.record(300, 60);
        let mut merged = Throughput::default();
        merged.merge(&t);
        assert_eq!(merged, t);
        assert_eq!(t.sims, 2);
        assert_eq!(t.cycles, 400);
        assert_eq!(t.instructions, 100);
        let dt = std::time::Duration::from_millis(500);
        assert!((t.sims_per_sec(dt) - 4.0).abs() < 1e-9);
        assert!((t.cycles_per_sec(dt) - 800.0).abs() < 1e-9);
        assert!((t.instructions_per_sec(dt) - 200.0).abs() < 1e-9);
        assert_eq!(t.sims_per_sec(std::time::Duration::ZERO), 0.0);
    }

    #[test]
    fn energy_events_add() {
        let mut a = EnergyEvents {
            alu_ops: 1,
            l1_accesses: 2,
            ..Default::default()
        };
        let b = EnergyEvents {
            alu_ops: 10,
            dram_accesses: 5,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.alu_ops, 11);
        assert_eq!(a.l1_accesses, 2);
        assert_eq!(a.dram_accesses, 5);
    }
}
