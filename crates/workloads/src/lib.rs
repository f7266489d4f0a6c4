//! Synthetic workloads reproducing the APRES benchmark suite (Table IV).
//!
//! The paper evaluates fifteen CUDA applications from Rodinia, Parboil and
//! the CUDA SDK. Those binaries (and a CUDA toolchain) are unavailable here,
//! so each application is replaced by a synthetic kernel whose *per-static-
//! load behaviour* matches the paper's own characterisation in Table I:
//! the share of references each load contributes (%Load), its inter-warp
//! reuse (#L/#R), its L1 miss rate under the baseline, its dominant
//! inter-warp stride, and the fraction of accesses following that stride
//! (%Stride). Working-set sizes follow the paper's text (e.g. KM: "about
//! 2 MB per SM").
//!
//! [`characterize::characterize`] replays a kernel's address stream in
//! loose-round-robin order and regenerates Table I's columns, which is how
//! the synthetic parameters were validated.

#![forbid(clippy::disallowed_methods, clippy::disallowed_types, unsafe_code)]

pub mod benchmarks;
pub mod characterize;
pub mod fidelity;

pub use benchmarks::{Benchmark, Category};
pub use characterize::{characterize, LoadProfile};
pub use fidelity::{fidelity_apps, fidelity_report, fidelity_report_from, FidelityRow, PAPER_TABLE_I};
