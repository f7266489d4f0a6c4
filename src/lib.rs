//! # APRES — Adaptive PREfetching and Scheduling for GPU cache efficiency
//!
//! A from-scratch Rust reproduction of *Oh et al., "APRES: Improving Cache
//! Efficiency by Exploiting Load Characteristics on GPUs", ISCA 2016*:
//! a cycle-level GPU streaming-multiprocessor simulator, the APRES
//! mechanisms (the LAWS warp scheduler + the SAP prefetcher), every baseline
//! policy the paper compares against, and synthetic workloads reproducing
//! the paper's fifteen-benchmark suite.
//!
//! This crate is the facade: it re-exports the workspace's public API under
//! one roof. The typical entry point is [`Simulation`]:
//!
//! ```
//! use apres::{Simulation, SchedulerChoice, PrefetcherChoice, Benchmark, GpuConfig};
//!
//! // Run the KMeans-like workload under the full APRES configuration.
//! // `run` returns a typed `Result`: invalid configurations and
//! // watchdog-diagnosed deadlocks surface as `SimError`, never panics.
//! let result = Simulation::new(Benchmark::Km.kernel_scaled(8))
//!     .config(GpuConfig::small_test())
//!     .scheduler(SchedulerChoice::Laws)
//!     .prefetcher(PrefetcherChoice::Sap)
//!     .run()
//!     .expect("valid config, no deadlock");
//! assert!(result.termination.is_drained());
//! println!("IPC = {:.3}", result.ipc());
//! ```
//!
//! ## Crate map
//!
//! | Module | Source crate | Contents |
//! |--------|--------------|----------|
//! | [`common`] | `gpu-common` | ids, [`GpuConfig`], statistics, RNG |
//! | [`kernel`] | `gpu-kernel` | synthetic ISA, address patterns, static verifier |
//! | [`mem`] | `gpu-mem` | coalescer, L1/MSHRs, L2 banks, DRAM, NoC |
//! | [`sm`] | `gpu-sm` | SM pipeline, scheduler/prefetcher traits, GPU cycle loop and its observer hook |
//! | [`sched`] | `gpu-sched` | LRR, GTO, two-level, CCWS, MASCAR, PA |
//! | [`prefetch`] | `gpu-prefetch` | STR and SLD prefetchers |
//! | [`core`] | `apres-core` | **LAWS + SAP**, energy model, Table II cost |
//! | [`workloads`] | `gpu-workloads` | the 15 benchmarks + Table I characterisation |
//! | [`analysis`] | `gpu-analysis` | static kernel-IR verifier, footprint/stride inference, SAP oracle |

pub use apres_core as core;
pub use gpu_analysis as analysis;
pub use gpu_common as common;
pub use gpu_kernel as kernel;
pub use gpu_mem as mem;
pub use gpu_prefetch as prefetch;
pub use gpu_sched as sched;
pub use gpu_sm as sm;
pub use gpu_workloads as workloads;

pub use apres_core::energy::EnergyModel;
pub use apres_core::hw_cost::HwCost;
pub use apres_core::sim::{PrefetcherChoice, SchedulerChoice, Simulation};
pub use apres_core::{Laws, Sap};
pub use gpu_analysis::{analyze, KernelReport, OracleReport, StrideClass};
pub use gpu_common::error::{DeadlockDiagnosis, SimError, SimResult};
pub use gpu_common::fault::{FaultCounters, FaultPlan};
pub use gpu_common::{Addr, Cycle, GpuConfig, LineAddr, Pc, SmId, WarpId};
pub use gpu_common::{Diagnostic, Report, Severity};
pub use gpu_kernel::{AddressPattern, Kernel};
pub use gpu_sm::trace::{IssueKind, TraceEvent};
pub use gpu_sm::{Gpu, Observer, RunResult, Termination, DEFAULT_WATCHDOG_WINDOW};
pub use gpu_workloads::{characterize, fidelity_report, Benchmark, Category, LoadProfile};
