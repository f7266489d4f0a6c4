//! GPU streaming-multiprocessor pipeline.
//!
//! This crate provides the in-core half of the simulator:
//!
//! * [`traits`] — the [`WarpScheduler`] and [`Prefetcher`] interfaces every
//!   policy implements (baselines live in `gpu-sched`/`gpu-prefetch`; LAWS
//!   and SAP in `apres-core`), plus the event types the pipeline feeds them;
//! * [`lsu`] — the load/store unit: coalescing, per-instruction outstanding
//!   line tracking, L1 access sequencing and retry on MSHR exhaustion;
//! * [`sm`] — one streaming multiprocessor: warp contexts, scoreboard-driven
//!   ready set, issue stage, LSU, L1, and the scheduler/prefetcher hook
//!   wiring of Figure 5;
//! * [`port`] — the [`SmPort`] message boundary between one SM and the
//!   shared memory system;
//! * [`gpu`] — the whole GPU: N SMs sharing a [`gpu_mem::MemorySystem`], the
//!   cycle loop with its [`Observer`] hook, and aggregated [`RunResult`]s;
//! * [`trace`] — the pipeline events an observer can ask every SM to record.
//!
//! The pipeline wiring follows Figure 5 of the paper: the LSU reports each
//! load's warp ID and cache-hit status to the scheduler; the scheduler may
//! hand a warp group to the prefetcher; the prefetcher reports back the
//! warps it targeted so the scheduler can prioritise them.
//!
//! The cycle loop ticks every SM and the memory system once per cycle; the
//! engines tried and rejected in its place are recorded in DESIGN.md §15.

#![deny(missing_docs)]

pub mod codec;
pub mod gpu;
pub mod lsu;
pub mod port;
pub mod sm;
pub mod trace;
pub mod traits;

pub use gpu::{Gpu, Observer, RunResult, Termination, DEFAULT_WATCHDOG_WINDOW};
pub use port::SmPort;
pub use sm::Sm;
pub use traits::{
    DemandAccess, L1Event, L1Outcome, PrefetchRequest, Prefetcher, ReadyWarp, SchedCtx,
    SchedFeedback, WarpScheduler,
};
