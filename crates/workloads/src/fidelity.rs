//! Fidelity scoring against the paper's published Table I.
//!
//! [`PAPER_TABLE_I`] encodes the rows of the paper's Table I verbatim
//! (App, PC, %Load, #L/#R, miss rate, stride, %Stride). [`fidelity_report`]
//! re-characterises each synthetic workload and pairs every measured
//! static load with its paper row, yielding per-column deltas — the
//! evidence that the synthetic suite exercises caches and prefetchers the
//! way the paper's traces did.

use crate::benchmarks::Benchmark;
use crate::characterize::{characterize, LoadProfile};
use gpu_common::config::GpuConfig;
use gpu_common::Pc;

/// One row of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperLoadRow {
    /// Application abbreviation.
    pub app: &'static str,
    /// Static load PC as printed in the paper.
    pub pc: u64,
    /// %Load (fraction of total references).
    pub pct_load: f64,
    /// #L/#R (unique lines per reference).
    pub lines_per_ref: f64,
    /// L1 miss rate under the baseline.
    pub miss_rate: f64,
    /// Dominant inter-warp stride in bytes.
    pub stride: i64,
    /// %Stride (fraction of accesses at the dominant stride).
    pub pct_stride: f64,
}

const fn row(
    app: &'static str,
    pc: u64,
    pct_load: f64,
    lines_per_ref: f64,
    miss_rate: f64,
    stride: i64,
    pct_stride: f64,
) -> PaperLoadRow {
    PaperLoadRow {
        app,
        pc,
        pct_load,
        lines_per_ref,
        miss_rate,
        stride,
        pct_stride,
    }
}

/// The paper's Table I, verbatim.
pub const PAPER_TABLE_I: &[PaperLoadRow] = &[
    row("BFS", 0x110, 0.516, 0.04, 0.78, 0, 0.163),
    row("BFS", 0xF0, 0.264, 0.12, 0.90, 0, 0.133),
    row("BFS", 0x198, 0.095, 0.11, 0.83, 0, 0.147),
    row("MUM", 0x7A8, 0.662, 0.01, 0.17, 0, 0.363),
    row("MUM", 0x460, 0.213, 0.04, 0.04, 0, 0.468),
    row("MUM", 0x8A0, 0.123, 0.07, 0.17, 0, 0.343),
    row("NW", 0x490, 0.189, 0.98, 1.0, -1_966_080, 0.560),
    row("NW", 0xD18, 0.188, 0.97, 1.0, -1_966_080, 0.745),
    row("NW", 0x108, 0.018, 0.94, 1.0, -1_966_080, 0.608),
    row("SPMV", 0x1E0, 0.515, 0.13, 0.32, 0, 0.240),
    row("SPMV", 0x200, 0.238, 0.25, 0.25, 0, 0.193),
    row("SPMV", 0xE0, 0.072, 0.65, 0.81, 0, 0.125),
    row("KM", 0xE8, 1.0, 0.03, 0.99, 4352, 0.782),
    row("LUD", 0x20F0, 0.302, 0.58, 0.96, 2048, 0.666),
    row("LUD", 0x2080, 0.302, 0.57, 0.91, 2048, 0.833),
    row("LUD", 0x22E0, 0.301, 0.66, 0.97, 2048, 0.773),
    row("SRAD", 0x250, 0.312, 0.99, 0.99, 16_384, 0.782),
    row("SRAD", 0x230, 0.312, 0.99, 1.0, 16_384, 0.750),
    row("SRAD", 0x350, 0.312, 0.52, 0.99, 16_384, 0.807),
    row("PA", 0x2210, 0.517, 0.03, 0.98, 8832, 0.427),
    row("PA", 0x2230, 0.399, 0.002, 0.16, 0, 0.362),
    row("PA", 0x2088, 0.032, 0.02, 0.02, 256, 0.915),
    row("HISTO", 0x168, 1.0, 1.0, 1.0, 512, 0.208),
    row("BP", 0x3F8, 0.194, 0.59, 1.0, 128, 0.755),
    row("BP", 0x408, 0.194, 0.59, 1.0, 128, 0.641),
    row("BP", 0x478, 0.194, 0.59, 0.03, 128, 0.671),
];

/// Comparison of one measured load against its paper row.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityRow {
    /// The paper's values.
    pub paper: PaperLoadRow,
    /// The synthetic workload's measured profile, when the PC exists.
    pub measured: Option<LoadProfile>,
}

impl FidelityRow {
    /// `true` when the dominant stride matches the paper exactly.
    pub fn stride_matches(&self) -> bool {
        self.measured
            .as_ref()
            .is_some_and(|m| m.stride == self.paper.stride)
    }

    /// Absolute miss-rate error vs. the paper (1.0 when unmeasured).
    pub fn miss_rate_error(&self) -> f64 {
        self.measured
            .as_ref()
            .map_or(1.0, |m| (m.miss_rate - self.paper.miss_rate).abs())
    }
}

/// The distinct Table I applications that ship a synthetic workload, in
/// first-appearance order — the unit of work when characterisation is
/// parallelised (each app is characterised exactly once).
pub fn fidelity_apps() -> Vec<Benchmark> {
    let mut apps = Vec::new();
    for paper in PAPER_TABLE_I {
        let Some(bench) = Benchmark::ALL.into_iter().find(|b| b.label() == paper.app) else {
            // Every Table I app ships a workload; a missing one just yields
            // unmeasured rows rather than a panic.
            continue;
        };
        if !apps.contains(&bench) {
            apps.push(bench);
        }
    }
    apps
}

/// Pairs every paper row with the measured profile for the same PC, given
/// per-app characterisations (label, profiles) — typically produced by
/// [`characterize`] over [`fidelity_apps`], serially or in parallel.
pub fn fidelity_report_from(profiles: &[(&str, Vec<LoadProfile>)]) -> Vec<FidelityRow> {
    PAPER_TABLE_I
        .iter()
        .map(|paper| {
            let measured = profiles
                .iter()
                .find(|(app, _)| *app == paper.app)
                .and_then(|(_, p)| p.iter().find(|p| p.pc == Pc(paper.pc)).cloned());
            FidelityRow {
                paper: *paper,
                measured,
            }
        })
        .collect()
}

/// Characterises every workload with a Table I presence and pairs each
/// paper row with the measured profile for the same PC.
pub fn fidelity_report(cfg: &GpuConfig) -> Vec<FidelityRow> {
    let profiles: Vec<(&str, Vec<LoadProfile>)> = fidelity_apps()
        .into_iter()
        .map(|b| (b.label(), characterize(&b.kernel(), cfg, None)))
        .collect();
    fidelity_report_from(&profiles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_has_the_published_rows() {
        assert_eq!(PAPER_TABLE_I.len(), 26);
        assert_eq!(PAPER_TABLE_I[12].app, "KM");
        assert_eq!(PAPER_TABLE_I[12].stride, 4352);
        assert!((PAPER_TABLE_I[12].pct_stride - 0.782).abs() < 1e-9);
    }

    #[test]
    fn every_paper_pc_exists_in_the_synthetic_suite() {
        let report = fidelity_report(&GpuConfig::paper_baseline());
        let missing: Vec<_> = report
            .iter()
            .filter(|r| r.measured.is_none())
            .map(|r| (r.paper.app, r.paper.pc))
            .collect();
        assert!(missing.is_empty(), "missing PCs: {missing:X?}");
    }

    #[test]
    fn strided_loads_reproduce_their_strides() {
        let report = fidelity_report(&GpuConfig::paper_baseline());
        for r in report.iter().filter(|r| r.paper.stride != 0) {
            assert!(
                r.stride_matches(),
                "{} {:#X}: measured stride {:?} vs paper {}",
                r.paper.app,
                r.paper.pc,
                r.measured.as_ref().map(|m| m.stride),
                r.paper.stride
            );
        }
    }

    #[test]
    fn miss_rates_land_in_band() {
        let report = fidelity_report(&GpuConfig::paper_baseline());
        let mean_err: f64 =
            report.iter().map(FidelityRow::miss_rate_error).sum::<f64>() / report.len() as f64;
        assert!(mean_err < 0.25, "mean |Δmiss| = {mean_err:.3}");
    }
}
