//! `apres-lint` — workspace determinism & concurrency static analysis.
//!
//! The simulator promises byte-identical output for a given seed at any
//! `--jobs` value, and that guarantee dies quietly: a `HashMap`
//! iteration here, a raw `Instant::now()` there, and the output starts
//! depending on `RandomState` or the wall clock instead of the seed.
//! This crate is the static auditor for those hazards — the same role
//! the kernel-IR analysis plays for kernel specs, pointed at our own
//! source.
//!
//! The pass is std-only (the build is offline, so no `syn`): a
//! lightweight lexer ([`lexer`]) produces a token stream with full
//! string/comment/`#[cfg(test)]` awareness, and six semantic rules
//! ([`rules`]) walk it:
//!
//! * `hash-iter` — iteration over std `HashMap`/`HashSet` in simulator
//!   code (order is per-process random);
//! * `wall-clock` — `Instant::now`/`SystemTime` outside
//!   `gpu_common::clock` and the harness's TTY progress path;
//! * `unseeded-rng` — RNG construction not derived from
//!   `derive_seed`/an explicit seed;
//! * `float-ord` — partial orders (`partial_cmp`) where total orders
//!   are required;
//! * `shared-mut` — `static mut` anywhere; locks and `Relaxed` atomics
//!   in simulator crates;
//! * `panic-path` — panicking escape hatches on the audited critical
//!   paths (supersedes the old grep-based integration test).
//!
//! Findings are emitted as `gpu_common::diag::{Diagnostic, Report}` and
//! surfaced by the `workspace-lint` binary (text/JSON, `--deny-warnings`,
//! `--baseline`), wired as `just lint-workspace` inside `just check`.
//! Every rule has an in-source escape hatch — `// lint: allow(<rule>)`
//! on the finding's line or the line above — so a deliberate exception
//! is visible in the diff that introduces it, not in a side file.
//! [`fixtures`] pins each rule to a known-bad snippet; a workspace
//! self-test asserts the shipped tree is clean with an empty baseline.

#![deny(missing_docs)]

pub mod fixtures;
pub mod lexer;
pub mod rules;
pub mod workspace;

pub use rules::{Finding, RULE_IDS};
pub use workspace::{lint_source, lint_workspace, Baseline, Located, WorkspaceReport};
