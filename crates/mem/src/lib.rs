//! GPU memory hierarchy.
//!
//! Implements everything below the LSU of Table III's configuration:
//!
//! * [`coalesce`] — per-warp memory request coalescing (Section II),
//! * [`cache`] — set-associative LRU tag store,
//! * [`mshr`] — Miss Status Holding Registers with demand/prefetch merging,
//! * [`classify`] — cold vs. capacity/conflict miss classification and the
//!   hit-after-hit / hit-after-miss split (Sections III-A, V-C),
//! * [`prefetch_meta`] — early-eviction tracking for prefetched lines
//!   (Sections III-C, V-D),
//! * [`l1`] — the per-SM L1 data cache unit,
//! * [`l2`] — partitioned shared L2 banks,
//! * [`dram`] — per-partition DRAM channels with bandwidth queueing,
//! * [`noc`] — fixed-latency, rate-limited SM↔L2 interconnect,
//! * [`memsys`] — the assembled off-core memory system shared by all SMs.
//!
//! The L1 is *write-through, no-write-allocate* for global stores (the common
//! GPU design point): stores generate L2 traffic but never perturb L1 state.
//!
//! Hot-path containers follow the flat-vs-ordered policy of DESIGN.md §13:
//! flat arrays / vectors, or open-addressing tables over them with a fixed
//! hash, on per-cycle lookup paths, ordered containers only where
//! iteration order is emitted or models an event queue. Past the L1, a
//! request travels as its 16-byte [`LineRequest`] form.

#![forbid(clippy::disallowed_methods, clippy::disallowed_types, unsafe_code)]
#![deny(missing_docs)]

pub mod bypass;
pub mod cache;
pub mod classify;
pub mod coalesce;
pub mod dram;
pub mod l1;
pub mod l2;
pub mod memsys;
pub mod mshr;
pub mod noc;
pub mod prefetch_meta;
pub mod request;

pub use l1::{L1AccessOutcome, L1Cache, RejectCause};
pub use memsys::MemorySystem;
pub use request::{AccessKind, LineRequest, MemRequest, RequestSource};
