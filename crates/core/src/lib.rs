//! APRES: Adaptive PREfetching and Scheduling (Oh et al., ISCA 2016).
//!
//! This crate is the paper's contribution:
//!
//! * [`Laws`] — the Locality-Aware Warp Scheduler (Section IV-A): a greedy
//!   scheduling queue plus the Last Load Table (LLT) and Warp Group Table
//!   (WGT). Warps that last executed the same static load are grouped; when
//!   the group's head warp hits the L1 the whole group moves to the queue
//!   head (consecutive hits), when it misses the group moves to the tail and
//!   is offered to the prefetcher.
//! * [`Sap`] — Scheduling-Aware Prefetching (Section IV-B): a Prefetch
//!   Table of per-PC inter-warp strides; on a group miss with a matching
//!   stride it prefetches each grouped warp's predicted line and reports the
//!   targets back so LAWS can prioritise them.
//! * [`energy`] — the GPUWattch-style dynamic-energy model behind Fig. 15.
//! * [`hw_cost`] — Table II's hardware budget (724 bytes per SM).
//! * [`sim`] — a one-stop simulation facade: pick a kernel, a scheduler
//!   ([`SchedulerChoice`]) and a prefetcher ([`PrefetcherChoice`]), run, and
//!   read a [`gpu_sm::RunResult`]. `SchedulerChoice::Laws` +
//!   `PrefetcherChoice::Sap` is APRES.
//!
//! # Example
//!
//! ```
//! use apres_core::sim::{Simulation, SchedulerChoice, PrefetcherChoice};
//! use gpu_common::GpuConfig;
//! use gpu_kernel::{Kernel, AddressPattern};
//!
//! let kernel = Kernel::builder("demo")
//!     .load(AddressPattern::warp_strided(0, 4096, 1 << 20, 4), &[])
//!     .alu(8, &[0])
//!     .iterations(8)
//!     .build();
//! let result = Simulation::new(kernel)
//!     .config(GpuConfig::small_test())
//!     .scheduler(SchedulerChoice::Laws)
//!     .prefetcher(PrefetcherChoice::Sap)
//!     .run()
//!     .expect("valid config, no deadlock");
//! assert!(!result.timed_out);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod energy;
pub mod hw_cost;
mod laws;
mod sap;
pub mod sim;

pub use laws::Laws;
pub use sap::Sap;
pub use sim::{PrefetcherChoice, SchedulerChoice, Simulation};
