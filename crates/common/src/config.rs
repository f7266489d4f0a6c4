//! Configuration of the simulated GPU.
//!
//! The hierarchy mirrors Table III of the paper; [`GpuConfig::paper_baseline`]
//! reproduces it exactly (15 SMs, 48 warps/SM, 32 KB 8-way L1 with 64 MSHRs,
//! 768 KB 8-way L2 at 200 cycles, 6 DRAM partitions at 440 cycles).
//!
//! Validation is typed: [`GpuConfig::validate`] returns a
//! [`SimError::ConfigValidation`] naming the offending field, and is run
//! exactly once when a simulation is constructed. Geometry accessors such as
//! [`CacheConfig::checked_num_sets`] never panic.

#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::error::{SimError, SimResult};
use crate::lanes::{MAX_REQUESTS_PER_WARP, MAX_WARPS_PER_SM};

/// Replacement policy of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// True least-recently-used (the baseline; GPGPU-sim's L1 default).
    #[default]
    Lru,
    /// First-in-first-out (victim = oldest fill).
    Fifo,
    /// Most-recently-used (anti-thrashing for cyclic sweeps).
    Mru,
}

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Number of Miss Status Holding Registers.
    pub mshrs: usize,
    /// Maximum demand/prefetch merges per MSHR entry.
    pub mshr_merge_slots: usize,
    /// Access (hit) latency in cycles.
    pub hit_latency: u64,
    /// Victim selection policy.
    pub replacement: Replacement,
    /// Enable the per-PC bypass predictor on this cache (extension;
    /// meaningful for the L1 only).
    pub bypass: bool,
}

impl CacheConfig {
    /// Number of sets implied by capacity, associativity and line size.
    ///
    /// Assumes a configuration that already passed
    /// [`CacheConfig::checked_num_sets`] / [`GpuConfig::validate`]; on an
    /// unvalidated geometry it simply truncates rather than panicking.
    pub fn num_sets(&self) -> usize {
        let lines = self.capacity_bytes / self.line_bytes.max(1);
        (lines / (self.ways as u64).max(1)) as usize
    }

    /// Number of sets, or a typed error when the geometry is inconsistent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigValidation`] when the line size is zero or
    /// not a power of two, lines do not divide evenly into ways, or the set
    /// count is not a power of two. `level` names the cache in the error
    /// (e.g. `"l1"`).
    pub fn checked_num_sets(&self, level: &'static str) -> SimResult<usize> {
        if self.ways == 0 {
            return Err(SimError::config(level, "ways must be > 0"));
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(SimError::config(
                level,
                format!("line_bytes must be a power of two, got {}", self.line_bytes),
            ));
        }
        if !self.capacity_bytes.is_multiple_of(self.line_bytes) {
            return Err(SimError::config(
                level,
                format!(
                    "capacity {} B is not a whole number of {} B lines",
                    self.capacity_bytes, self.line_bytes
                ),
            ));
        }
        let lines = self.capacity_bytes / self.line_bytes;
        if !lines.is_multiple_of(self.ways as u64) {
            return Err(SimError::config(
                level,
                format!(
                    "{} lines do not divide evenly into {} ways",
                    lines, self.ways
                ),
            ));
        }
        let sets = (lines / self.ways as u64) as usize;
        if !sets.is_power_of_two() {
            return Err(SimError::config(
                level,
                format!("set count must be a power of two, got {sets}"),
            ));
        }
        Ok(sets)
    }

    /// Validates this cache level in isolation (geometry + structure sizes).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigValidation`] naming `level` on the first
    /// inconsistency.
    pub fn validate(&self, level: &'static str) -> SimResult<()> {
        self.checked_num_sets(level)?;
        if self.mshrs == 0 {
            return Err(SimError::config(level, "mshrs must be > 0"));
        }
        if self.mshr_merge_slots == 0 {
            return Err(SimError::config(level, "mshr_merge_slots must be > 0"));
        }
        Ok(())
    }
}

/// DRAM service-timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DramRowPolicy {
    /// Every access takes the configured latency and occupancy (the
    /// paper-pipeline default; matches GPGPU-sim's flat-latency abstraction
    /// at Table III granularity).
    #[default]
    Uniform,
    /// Banked row buffers with FR-FCFS scheduling: row hits are faster and
    /// cheaper, row misses pay precharge+activate. An extension used by the
    /// `dram_ablation` study.
    FrFcfsRowBuffer,
}

/// DRAM timing and topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of memory partitions (each pairs an L2 slice with a DRAM channel).
    pub partitions: usize,
    /// Minimum (unloaded) access latency in core cycles.
    pub latency: u64,
    /// Core cycles between successive line transfers per partition
    /// (models per-partition bandwidth; 1 line each `service_interval` cycles).
    pub service_interval: u64,
    /// Maximum queued requests per partition before back-pressure.
    pub queue_depth: usize,
    /// Bytes interleaved across partitions (address hashing granularity).
    pub interleave_bytes: u64,
    /// Service-timing model.
    pub row_policy: DramRowPolicy,
}

/// Core pipeline parameters of one SM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum concurrently active warps per SM (at most
    /// [`MAX_WARPS_PER_SM`]).
    pub warps_per_sm: usize,
    /// Threads per warp (SIMD width), at most
    /// [`MAX_REQUESTS_PER_WARP`].
    pub warp_size: usize,
    /// Register read-after-write latency for ALU producers, in cycles.
    /// The paper assumes 8 cycles (Section IV).
    pub alu_latency: u64,
    /// Number of instructions issued per SM per cycle.
    pub issue_width: usize,
    /// Depth of the issue→execute pipeline segment; sizes the Warp Group
    /// Table (the paper uses 3).
    pub issue_to_execute_stages: usize,
    /// Cycles between successive warp launches on one SM. Real GPUs hand
    /// thread blocks to SMs over time, so resident warps are skewed in
    /// their progress rather than lock-stepped; this is the drift that
    /// locality-aware scheduling regathers (Section IV's premise).
    pub launch_skew: u64,
    /// Thread-block waves per warp slot: when a warp retires, the block
    /// scheduler hands the slot a fresh block (with fresh data) this many
    /// times in total. Values > 1 amortize the end-of-kernel tail exactly
    /// as a real grid (thousands of blocks) does.
    pub waves_per_slot: u32,
}

/// Interconnect between SMs and the shared L2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    /// One-way latency in cycles.
    pub latency: u64,
    /// Requests accepted from each SM per cycle.
    pub requests_per_cycle: usize,
}

/// APRES structure sizes (LAWS + SAP), per Section IV-C / Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApresConfig {
    /// Warp Group Table entries (paper: 3, matching pipeline depth).
    pub wgt_entries: usize,
    /// SAP Prefetch Table entries (paper: 10).
    pub pt_entries: usize,
    /// Demand Request Queue entries (paper: 32).
    pub drq_entries: usize,
    /// Maximum prefetches generated per trigger (bounded by group size).
    pub max_prefetches_per_miss: usize,
    /// Move a missing load's warp group to the queue tail (the paper's
    /// behaviour). Disable to ablate the demotion half of LAWS.
    pub demote_on_miss: bool,
    /// Width of the scheduling-queue head that round-robins as the leading
    /// group (the paper reasons about 8 via its pipeline-latency argument).
    pub head_window: usize,
}

impl ApresConfig {
    /// The exact structure sizes of the paper's Table II. The paper sizes
    /// the WGT to "cover all in-flight load instructions in the GPU
    /// pipeline", which is 3 in its 3-stage issue→execute pipe.
    pub fn table_ii() -> Self {
        ApresConfig {
            wgt_entries: 3,
            pt_entries: 10,
            drq_entries: 32,
            max_prefetches_per_miss: 47,
            demote_on_miss: true,
            head_window: 8,
        }
    }
}

impl Default for ApresConfig {
    /// Like [`ApresConfig::table_ii`], but with the WGT sized by the same
    /// criterion applied to *this* simulator's pipeline: a load waits in the
    /// LSU queue (up to 8 instructions) between issue and its L1 access, so
    /// covering all in-flight loads needs 12 entries (72 bytes more than
    /// Table II).
    fn default() -> Self {
        ApresConfig {
            wgt_entries: 12,
            ..Self::table_ii()
        }
    }
}

/// Complete configuration of the simulated GPU (Table III).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuConfig {
    /// SM/core pipeline parameters.
    pub core: CoreConfig,
    /// Per-SM L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2 cache (capacity is the total across all partitions).
    pub l2: CacheConfig,
    /// Off-chip DRAM model.
    pub dram: DramConfig,
    /// SM↔L2 interconnect.
    pub noc: NocConfig,
    /// APRES hardware structure sizes.
    pub apres: ApresConfig,
}

impl GpuConfig {
    /// The paper's simulation configuration (Table III).
    ///
    /// # Example
    ///
    /// ```
    /// let cfg = gpu_common::GpuConfig::paper_baseline();
    /// assert_eq!(cfg.core.num_sms, 15);
    /// assert_eq!(cfg.l1.num_sets(), 32);
    /// ```
    pub fn paper_baseline() -> Self {
        GpuConfig {
            core: CoreConfig {
                num_sms: 15,
                warps_per_sm: 48,
                warp_size: 32,
                alu_latency: 8,
                issue_width: 1,
                issue_to_execute_stages: 3,
                launch_skew: 0,
                waves_per_slot: 1,
            },
            l1: CacheConfig {
                capacity_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 128,
                mshrs: 64,
                mshr_merge_slots: 8,
                hit_latency: 28,
                replacement: Replacement::Lru,
                bypass: false,
            },
            l2: CacheConfig {
                capacity_bytes: 768 * 1024,
                ways: 8,
                line_bytes: 128,
                mshrs: 128,
                mshr_merge_slots: 8,
                hit_latency: 200,
                replacement: Replacement::Lru,
                bypass: false,
            },
            dram: DramConfig {
                partitions: 6,
                latency: 440,
                service_interval: 2,
                queue_depth: 64,
                interleave_bytes: 256,
                row_policy: DramRowPolicy::Uniform,
            },
            noc: NocConfig {
                latency: 8,
                requests_per_cycle: 1,
            },
            apres: ApresConfig::default(),
        }
    }

    /// A reduced configuration for fast unit/integration tests: 1 SM,
    /// 16 warps, small caches, but the same structure as the baseline.
    pub fn small_test() -> Self {
        let mut cfg = Self::paper_baseline();
        cfg.core.num_sms = 1;
        cfg.core.warps_per_sm = 16;
        cfg.core.waves_per_slot = 1;
        cfg.l1.capacity_bytes = 8 * 1024;
        cfg.l1.mshrs = 16;
        cfg.l2.capacity_bytes = 64 * 1024;
        cfg.dram.partitions = 2;
        cfg
    }

    /// Validates internal consistency of the configuration.
    ///
    /// Run once when a simulation is constructed; everything downstream may
    /// then assume a consistent geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigValidation`] naming the first offending
    /// field (zero-sized structures, non-power-of-two geometry, mismatched
    /// line sizes, ...).
    pub fn validate(&self) -> SimResult<()> {
        if self.core.num_sms == 0 {
            return Err(SimError::config("core.num_sms", "must be > 0"));
        }
        if self.core.warps_per_sm == 0 || self.core.warps_per_sm > MAX_WARPS_PER_SM {
            return Err(SimError::config(
                "core.warps_per_sm",
                format!(
                    "must be in 1..={MAX_WARPS_PER_SM}, got {}",
                    self.core.warps_per_sm
                ),
            ));
        }
        if self.core.warp_size == 0 || self.core.warp_size > MAX_REQUESTS_PER_WARP {
            return Err(SimError::config(
                "core.warp_size",
                format!(
                    "must be in 1..={MAX_REQUESTS_PER_WARP}, got {}",
                    self.core.warp_size
                ),
            ));
        }
        if self.core.issue_width == 0 {
            return Err(SimError::config("core.issue_width", "must be > 0"));
        }
        self.l1.validate("l1")?;
        if self.l1.line_bytes != self.l2.line_bytes {
            return Err(SimError::config(
                "l2.line_bytes",
                format!(
                    "must match l1.line_bytes ({} != {})",
                    self.l2.line_bytes, self.l1.line_bytes
                ),
            ));
        }
        if self.dram.partitions == 0 {
            return Err(SimError::config("dram.partitions", "must be > 0"));
        }
        if !self
            .l2
            .capacity_bytes
            .is_multiple_of(self.dram.partitions as u64)
        {
            return Err(SimError::config(
                "l2.capacity_bytes",
                format!(
                    "{} B must divide evenly across {} partitions",
                    self.l2.capacity_bytes, self.dram.partitions
                ),
            ));
        }
        // The L2 is banked: each DRAM partition owns a slice of
        // `capacity / partitions` bytes, and it is the slice geometry that
        // must be well formed (768 KB / 6 partitions / 8 ways = 128 sets).
        let l2_bank = CacheConfig {
            capacity_bytes: self.l2.capacity_bytes / self.dram.partitions as u64,
            ..self.l2.clone()
        };
        l2_bank.validate("l2")?;
        if self.dram.service_interval == 0 {
            return Err(SimError::config("dram.service_interval", "must be > 0"));
        }
        if self.dram.queue_depth == 0 {
            return Err(SimError::config("dram.queue_depth", "must be > 0"));
        }
        if self.dram.interleave_bytes == 0 || !self.dram.interleave_bytes.is_power_of_two() {
            return Err(SimError::config(
                "dram.interleave_bytes",
                format!("must be a power of two, got {}", self.dram.interleave_bytes),
            ));
        }
        if self.noc.requests_per_cycle == 0 {
            return Err(SimError::config("noc.requests_per_cycle", "must be > 0"));
        }
        if self.apres.wgt_entries == 0 || self.apres.pt_entries == 0 {
            return Err(SimError::config("apres", "table sizes must be > 0"));
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table_iii() {
        let cfg = GpuConfig::paper_baseline();
        assert_eq!(cfg.core.num_sms, 15);
        assert_eq!(cfg.core.warps_per_sm, 48);
        assert_eq!(cfg.core.warp_size, 32);
        assert_eq!(cfg.l1.capacity_bytes, 32 * 1024);
        assert_eq!(cfg.l1.ways, 8);
        assert_eq!(cfg.l1.line_bytes, 128);
        assert_eq!(cfg.l1.mshrs, 64);
        assert_eq!(cfg.l2.capacity_bytes, 768 * 1024);
        assert_eq!(cfg.l2.hit_latency, 200);
        assert_eq!(cfg.dram.partitions, 6);
        assert_eq!(cfg.dram.latency, 440);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn l1_geometry() {
        let cfg = GpuConfig::paper_baseline();
        // 32 KB / 128 B = 256 lines; 256 / 8 ways = 32 sets.
        assert_eq!(cfg.l1.num_sets(), 32);
    }

    #[test]
    fn small_test_validates() {
        assert!(GpuConfig::small_test().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut cfg = GpuConfig::paper_baseline();
        cfg.l1.line_bytes = 100;
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::paper_baseline();
        cfg.core.num_sms = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::paper_baseline();
        cfg.l2.line_bytes = 256;
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::paper_baseline();
        cfg.dram.partitions = 0;
        assert_eq!(rejected_field(&cfg), "dram.partitions");
    }

    fn rejected_field(cfg: &GpuConfig) -> &'static str {
        match cfg.validate() {
            Err(SimError::ConfigValidation { field, .. }) => field,
            other => panic!("expected ConfigValidation, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_power_of_two_set_count() {
        let mut cfg = GpuConfig::paper_baseline();
        cfg.l1.capacity_bytes = cfg.l1.line_bytes * cfg.l1.ways as u64 * 3; // 3 sets
        assert_eq!(rejected_field(&cfg), "l1");
        let err = cfg.l1.checked_num_sets("l1").unwrap_err();
        assert!(err.to_string().contains("power of two"), "{err}");
    }

    #[test]
    fn rejects_zero_ways() {
        let mut cfg = GpuConfig::paper_baseline();
        cfg.l2.ways = 0;
        assert_eq!(rejected_field(&cfg), "l2");
        assert!(cfg.l2.checked_num_sets("l2").is_err());
    }

    #[test]
    fn rejects_line_size_not_dividing_capacity() {
        let mut cfg = GpuConfig::paper_baseline();
        cfg.l1.capacity_bytes = cfg.l1.line_bytes * 256 + 32;
        assert_eq!(rejected_field(&cfg), "l1");
        let err = cfg.l1.checked_num_sets("l1").unwrap_err();
        assert!(err.to_string().contains("whole number"), "{err}");
    }

    #[test]
    fn rejects_zero_mshrs_and_merge_slots() {
        let mut cfg = GpuConfig::paper_baseline();
        cfg.l1.mshrs = 0;
        assert_eq!(rejected_field(&cfg), "l1");

        let mut cfg = GpuConfig::paper_baseline();
        cfg.l1.mshr_merge_slots = 0;
        assert_eq!(rejected_field(&cfg), "l1");
    }

    #[test]
    fn rejects_warps_wider_than_a_lane_list() {
        let mut cfg = GpuConfig::paper_baseline();
        cfg.core.warp_size = MAX_REQUESTS_PER_WARP;
        assert!(cfg.validate().is_ok());
        cfg.core.warp_size = 64;
        assert_eq!(rejected_field(&cfg), "core.warp_size");
        cfg.core.warp_size = 0;
        assert_eq!(rejected_field(&cfg), "core.warp_size");
    }

    #[test]
    fn rejects_zero_dram_service_interval() {
        let mut cfg = GpuConfig::paper_baseline();
        cfg.dram.service_interval = 0;
        assert_eq!(rejected_field(&cfg), "dram.service_interval");
    }

    #[test]
    fn unchecked_num_sets_never_panics() {
        let degenerate = CacheConfig {
            capacity_bytes: 0,
            ways: 0,
            line_bytes: 0,
            mshrs: 0,
            mshr_merge_slots: 0,
            hit_latency: 0,
            replacement: Replacement::Lru,
            bypass: false,
        };
        assert_eq!(degenerate.num_sets(), 0);
        assert!(degenerate.checked_num_sets("l1").is_err());
    }

    #[test]
    fn default_is_paper_baseline() {
        assert_eq!(GpuConfig::default(), GpuConfig::paper_baseline());
    }

    #[test]
    fn apres_table_ii_sizes() {
        let a = ApresConfig::table_ii();
        assert_eq!(a.wgt_entries, 3);
        assert_eq!(a.pt_entries, 10);
        assert_eq!(a.drq_entries, 32);
        // The simulator default widens only the WGT (pipeline-depth
        // criterion applied to this pipeline).
        let d = ApresConfig::default();
        assert_eq!(d.wgt_entries, 12);
        assert_eq!(d.pt_entries, a.pt_entries);
    }
}
