//! Synthetic GPU kernel model.
//!
//! GPGPU-sim executes real CUDA binaries; this workspace replaces them with a
//! compact synthetic ISA whose *memory behaviour* is what matters to APRES:
//! each static load has a program counter ([`gpu_common::Pc`]) and an
//! [`AddressPattern`] that reproduces the per-load characteristics the paper
//! measures in Table I — the fraction of accesses it contributes (%Load), its
//! inter-warp reuse (#L/#R), its dominant inter-warp stride and the fraction
//! of accesses following it (%Stride), and its working-set size.
//!
//! A [`Kernel`] is a linear body of [`StaticInstr`]s executed by every warp
//! for a configured number of iterations (modelling the grid-stride loops of
//! the original benchmarks). Scoreboard dependencies are expressed as indices
//! into the body; divergence is expressed as per-instruction active-lane
//! counts (no reconvergence stack is modelled).
//!
//! # Example
//!
//! ```
//! use gpu_kernel::{Kernel, AddressPattern};
//!
//! let k = Kernel::builder("toy")
//!     .load(AddressPattern::warp_strided(0x1000, 512, 128, 4), &[])
//!     .alu(8, &[0]) // consumes the load result
//!     .iterations(16)
//!     .build();
//! assert_eq!(k.body().len(), 2);
//! ```

#![forbid(clippy::disallowed_methods, clippy::disallowed_types, unsafe_code)]

mod instr;
mod kernel;
mod pattern;
pub mod verify;
mod warp;

pub use instr::{LoadSlot, Op, StaticInstr};
pub use kernel::{Kernel, KernelBuilder};
pub use pattern::{AddressPattern, PatternSampler};
pub use warp::{IssuedInstr, WarpProgram, WarpProgress};
