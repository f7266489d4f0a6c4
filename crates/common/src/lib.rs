//! Core identifiers, configuration, statistics, and deterministic RNG shared by
//! every crate of the APRES GPU-simulator workspace.
//!
//! This crate is dependency-free (besides `std`) and defines the vocabulary
//! types the rest of the simulator speaks: [`WarpId`], [`Pc`], [`Addr`],
//! [`LineAddr`], [`Cycle`], the hierarchy of configuration structs rooted at
//! [`config::GpuConfig`], the statistics counters in [`stats`], and the
//! deterministic [`rng::Xoshiro256`] generator used by workload generators.
//!
//! # Example
//!
//! ```
//! use gpu_common::{Addr, config::GpuConfig};
//!
//! let cfg = GpuConfig::paper_baseline();
//! let addr = Addr::new(0x1234);
//! assert_eq!(addr.line(cfg.l1.line_bytes).byte_offset(addr, cfg.l1.line_bytes), 0x34);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod check;
pub mod clock;
pub mod config;
pub mod diag;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod json;
pub mod lanes;
pub mod rng;
pub mod stats;

pub use clock::{Clock, VirtualClock, WallClock};
pub use config::GpuConfig;
pub use diag::{Diagnostic, Report, Severity};
pub use error::{DeadlockDiagnosis, SimError, SimResult, StallReason, StalledWarp};
pub use fault::{FaultCounters, FaultPlan, FaultState, ServiceFaultPlan};
pub use hash::{content_hash, content_hash_str, hash_hex, short_hex, ContentHasher};
pub use ids::{Addr, Cycle, LineAddr, Pc, SmId, WarpId};
pub use lanes::{LaneList, MAX_REQUESTS_PER_WARP, MAX_WARPS_PER_SM};
pub use rng::{derive_seed, SeedStream, Xoshiro256};
pub use stats::Throughput;
