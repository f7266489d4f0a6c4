//! Fault-tolerant batch simulation service (`apres-serve`).
//!
//! Every simulation in this workspace is a pure function of its job spec,
//! which makes "simulation as a service" mostly a caching and robustness
//! problem — exactly the two things this crate supplies on top of the
//! [`apres_bench`] harness:
//!
//! * [`batch`] — the JSON batch request/response documents: a named list
//!   of [`apres_bench::JobSpec`]s, submitted as a file (or a directory of
//!   files acting as a queue — std-only, no network);
//! * [`service`] — [`service::serve_batch`]: content-hashes each spec and
//!   runs every unique job once through [`apres_bench::Executor`], the
//!   job protocol the sweep harness shares. Known hashes are served from a
//!   persistent **verified** result cache ([`apres_bench::ResultCache`] —
//!   every read re-checks the payload hash; corrupt or truncated entries
//!   are evicted and recomputed), misses shard across a worker pool, and
//!   the batch survives per-job failure:
//!
//!   * worker panics are isolated with `catch_unwind` and become typed
//!     [`gpu_common::SimError::InvariantViolation`]s;
//!   * slow jobs are bounded by a per-job deadline
//!     ([`gpu_common::SimError::JobTimeout`]) measured on an injected
//!     [`gpu_common::Clock`] — in-simulation hangs are already diagnosed
//!     by the forward-progress watchdog inside the run;
//!   * a failed job is not retried (a pure function fails the same way
//!     every time) and never cached;
//!   * a batch **degrades gracefully**: K failed jobs yield N−K good
//!     results plus a typed per-job failure report, never an abort.
//!
//! Determinism is preserved end to end: the response document contains
//! only spec hashes, result payloads and typed errors (never timings or
//! cache provenance), so a batch served warm from cache, cold, or after
//! a corrupt or truncated entry of [`gpu_common::ServiceFaultPlan`] is
//! byte-identical — `scripts/serve_smoke.sh` enforces this in `just
//! check`.

pub mod batch;
pub mod service;

pub use batch::Batch;
pub use service::{serve_batch, BatchReport, JobReport, ServeOptions, ServeStats};
