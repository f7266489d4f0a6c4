//! Typed simulation errors.
//!
//! Every failure mode of the simulator is represented here so that a bad
//! configuration, an exhausted resource, a broken conservation law, or a
//! stalled pipeline surfaces as a value the caller can match on — never as a
//! panic that kills an entire figure sweep. The taxonomy follows the
//! validated-configuration / conservation-of-traffic discipline of the
//! Accel-Sim modeling line of work: a simulator's *relative* policy
//! orderings (the product of this reproduction) are only trustworthy if runs
//! that go wrong say so loudly and precisely.
//!
//! The variants:
//!
//! * [`SimError::ConfigValidation`] — rejected before any cycle is simulated
//!   ([`crate::config::GpuConfig::validate`] runs once up front);
//! * [`SimError::ResourceExhaustion`] — a bounded hardware structure was
//!   asked to exceed its capacity in a way the model cannot absorb;
//! * [`SimError::InvariantViolation`] — a runtime audit (request
//!   conservation, leak detection) found the machine in an impossible state;
//! * [`SimError::WatchdogTimeout`] — the forward-progress watchdog declared
//!   a deadlock and attached a [`DeadlockDiagnosis`] naming the stalled
//!   warps and in-flight misses;
//! * [`SimError::Parse`] — a serialised artifact (workload spec JSON) was
//!   malformed.
//!
//! Cycle-budget exhaustion is deliberately *not* an error: a run that hits
//! its budget still carries valid partial statistics and is reported as
//! a structured outcome (`Termination::BudgetExhausted` in `gpu-sm`).

use crate::{Cycle, LineAddr, SmId, WarpId};
use std::fmt;

/// Convenience alias used across the workspace.
pub type SimResult<T> = Result<T, SimError>;

/// One warp that was making no progress when the watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalledWarp {
    /// The SM hosting the warp.
    pub sm: SmId,
    /// The stalled warp.
    pub warp: WarpId,
    /// Loop iteration the warp was executing.
    pub iter: u64,
    /// Body index of the instruction it was stuck at (None once retired —
    /// retired warps never appear here).
    pub body_idx: usize,
    /// What the warp was waiting on.
    pub waiting_on: StallReason,
}

impl fmt::Display for StalledWarp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sm{} warp{} iter{} body[{}] ({})",
            self.sm.0, self.warp.0, self.iter, self.body_idx, self.waiting_on
        )
    }
}

/// Why a stalled warp could not issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Waiting for an outstanding load to complete.
    PendingLoad,
    /// Blocked at a block-wide barrier.
    Barrier,
    /// Waiting on an ALU producer latency (transient; suspicious only when
    /// it persists across a whole watchdog window).
    Dependency,
    /// Ready to issue but never picked by the scheduler.
    NeverScheduled,
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallReason::PendingLoad => "pending load",
            StallReason::Barrier => "barrier",
            StallReason::Dependency => "dependency",
            StallReason::NeverScheduled => "never scheduled",
        };
        f.write_str(s)
    }
}

/// Snapshot of the machine state attached to a watchdog timeout: which
/// warps were stuck, which misses were in flight, and how much off-core
/// traffic the memory system still owed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockDiagnosis {
    /// Unretired warps and what each was waiting on (bounded sample).
    pub stalled_warps: Vec<StalledWarp>,
    /// L1 MSHR entries still in flight, per SM: (sm, line, merged count).
    pub inflight_mshrs: Vec<(SmId, LineAddr, usize)>,
    /// Requests inside the off-core memory system (NoC + L2 + DRAM).
    pub mem_in_flight: u64,
    /// Demand/prefetch requests submitted off-core over the whole run.
    pub mem_submitted: u64,
    /// Responses the memory system delivered back over the whole run.
    pub mem_delivered: u64,
}

impl fmt::Display for DeadlockDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} stalled warp(s), {} in-flight L1 MSHR(s), mem in-flight {} (submitted {}, delivered {})",
            self.stalled_warps.len(),
            self.inflight_mshrs.len(),
            self.mem_in_flight,
            self.mem_submitted,
            self.mem_delivered
        )?;
        for w in self.stalled_warps.iter().take(8) {
            write!(f, "; {w}")?;
        }
        if self.stalled_warps.len() > 8 {
            write!(f, "; … {} more", self.stalled_warps.len() - 8)?;
        }
        Ok(())
    }
}

/// A typed simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration failed up-front validation.
    ConfigValidation {
        /// Dotted path of the offending field (e.g. `"l1.line_bytes"`).
        field: &'static str,
        /// Human-readable rejection reason.
        reason: String,
    },
    /// A bounded structure was driven beyond its capacity in a way the
    /// model cannot absorb by back-pressure.
    ResourceExhaustion {
        /// Which structure (e.g. `"l1.mshrs"`, `"trace.sm_index"`).
        resource: &'static str,
        /// What happened.
        detail: String,
        /// Simulation cycle of the failure.
        cycle: Cycle,
    },
    /// A runtime audit found a conservation law broken.
    InvariantViolation {
        /// Which invariant (e.g. `"request-conservation"`).
        invariant: &'static str,
        /// What the audit observed.
        detail: String,
        /// Simulation cycle of the detection.
        cycle: Cycle,
    },
    /// The forward-progress watchdog fired: no warp retired an instruction
    /// and no memory response was delivered for `idle_cycles` cycles.
    WatchdogTimeout {
        /// Cycle at which the watchdog declared the deadlock.
        cycle: Cycle,
        /// Length of the progress-free window.
        idle_cycles: Cycle,
        /// Named diagnosis of the stall.
        diagnosis: DeadlockDiagnosis,
    },
    /// A serialised artifact could not be parsed.
    Parse {
        /// What was being parsed (e.g. `"batch JSON"`).
        context: &'static str,
        /// Parser message, with position where available.
        message: String,
    },
    /// The static kernel-IR verifier rejected the kernel before any cycle
    /// was simulated (cyclic/forward deps, dangling pattern slots, divergent
    /// barriers, …). Carries the error-level diagnostics verbatim.
    KernelValidation {
        /// Kernel display name.
        kernel: String,
        /// The error-level findings (warnings and notes never gate).
        diagnostics: Vec<crate::diag::Diagnostic>,
    },
    /// A service-level job overran its deadline (the in-sim watchdog
    /// catches *hangs*; this catches jobs that run, but too slowly for the
    /// batch's service-level objective).
    JobTimeout {
        /// Content hash of the job spec (see `gpu_common::hash`).
        spec_hash: u128,
        /// The deadline that was missed, in milliseconds.
        deadline_ms: u64,
    },
}

impl SimError {
    /// Short machine-readable class label (stable across messages; used by
    /// sweep reports and tests).
    pub fn class(&self) -> &'static str {
        match self {
            SimError::ConfigValidation { .. } => "config-validation",
            SimError::ResourceExhaustion { .. } => "resource-exhaustion",
            SimError::InvariantViolation { .. } => "invariant-violation",
            SimError::WatchdogTimeout { .. } => "watchdog-timeout",
            SimError::Parse { .. } => "parse",
            SimError::KernelValidation { .. } => "kernel-validation",
            SimError::JobTimeout { .. } => "job-timeout",
        }
    }

    /// Builds a configuration-validation error.
    pub fn config(field: &'static str, reason: impl Into<String>) -> Self {
        SimError::ConfigValidation {
            field,
            reason: reason.into(),
        }
    }

    /// Builds an invariant-violation error.
    pub fn invariant(invariant: &'static str, detail: impl Into<String>, cycle: Cycle) -> Self {
        SimError::InvariantViolation {
            invariant,
            detail: detail.into(),
            cycle,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ConfigValidation { field, reason } => {
                write!(f, "invalid configuration: {field}: {reason}")
            }
            SimError::ResourceExhaustion {
                resource,
                detail,
                cycle,
            } => write!(f, "resource exhausted at cycle {cycle}: {resource}: {detail}"),
            SimError::InvariantViolation {
                invariant,
                detail,
                cycle,
            } => write!(f, "invariant violated at cycle {cycle}: {invariant}: {detail}"),
            SimError::WatchdogTimeout {
                cycle,
                idle_cycles,
                diagnosis,
            } => write!(
                f,
                "watchdog timeout at cycle {cycle}: no forward progress for {idle_cycles} cycles: {diagnosis}"
            ),
            SimError::Parse { context, message } => {
                write!(f, "parse error in {context}: {message}")
            }
            SimError::KernelValidation {
                kernel,
                diagnostics,
            } => {
                write!(
                    f,
                    "kernel {kernel:?} failed static validation ({} error(s))",
                    diagnostics.len()
                )?;
                for d in diagnostics.iter().take(4) {
                    write!(f, "; {d}")?;
                }
                if diagnostics.len() > 4 {
                    write!(f, "; … {} more", diagnostics.len() - 4)?;
                }
                Ok(())
            }
            SimError::JobTimeout {
                spec_hash,
                deadline_ms,
            } => write!(
                f,
                "job {} exceeded its deadline of {deadline_ms} ms",
                crate::hash::short_hex(*spec_hash)
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = SimError::config("l1.ways", "must be > 0");
        assert_eq!(e.to_string(), "invalid configuration: l1.ways: must be > 0");
        assert_eq!(e.class(), "config-validation");
    }

    #[test]
    fn watchdog_display_names_stalled_warps() {
        let d = DeadlockDiagnosis {
            stalled_warps: vec![StalledWarp {
                sm: SmId(1),
                warp: WarpId(7),
                iter: 3,
                body_idx: 0,
                waiting_on: StallReason::PendingLoad,
            }],
            inflight_mshrs: vec![(SmId(1), LineAddr(42), 2)],
            mem_in_flight: 1,
            mem_submitted: 10,
            mem_delivered: 9,
        };
        let e = SimError::WatchdogTimeout {
            cycle: 1000,
            idle_cycles: 500,
            diagnosis: d,
        };
        let s = e.to_string();
        assert!(s.contains("watchdog timeout at cycle 1000"), "{s}");
        assert!(s.contains("sm1 warp7"), "{s}");
        assert!(s.contains("pending load"), "{s}");
        assert_eq!(e.class(), "watchdog-timeout");
    }

    #[test]
    fn diagnosis_display_bounds_warp_list() {
        let mut d = DeadlockDiagnosis::default();
        for i in 0..20 {
            d.stalled_warps.push(StalledWarp {
                sm: SmId(0),
                warp: WarpId(i),
                iter: 0,
                body_idx: 0,
                waiting_on: StallReason::Barrier,
            });
        }
        let s = d.to_string();
        assert!(s.contains("… 12 more"), "{s}");
    }

    #[test]
    fn service_errors_name_the_spec_hash() {
        let hash = crate::hash::content_hash_str("job spec");
        let short = crate::hash::short_hex(hash);

        let t = SimError::JobTimeout {
            spec_hash: hash,
            deadline_ms: 250,
        };
        assert_eq!(t.class(), "job-timeout");
        assert!(t.to_string().contains(&short), "{t}");
        assert!(t.to_string().contains("250 ms"), "{t}");
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn std::error::Error> = Box::new(SimError::Parse {
            context: "batch JSON",
            message: "unexpected end of input".into(),
        });
        assert!(e.to_string().contains("batch JSON"));
    }
}
