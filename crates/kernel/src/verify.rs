//! Static kernel-IR verification (structural + def-use passes).
//!
//! The synthetic kernels declare their ground truth statically — dependency
//! edges, address-pattern slots, divergence masks — so a large class of
//! defects that a runtime could only surface as a deadlock or a silently
//! skewed statistic is provable at build time. Two passes run here:
//!
//! * **`structure`** — every dependency index is in range, strictly
//!   backward (the IR's program-order SSA discipline, which also proves the
//!   dependency graph acyclic), never self-referential, and never names a
//!   store (stores produce no value); every load/store slot resolves to a
//!   declared [`crate::AddressPattern`]; PCs are unique and 8-byte aligned;
//!   the body is non-empty, iterations are positive, and `active_lanes`
//!   masks fit the warp.
//! * **`def-use`** — liveness: an ALU or load whose result no later
//!   instruction consumes is dead code (dead loads skew %Load against
//!   Table I and are flagged as warnings; the final instruction of the body
//!   models the kernel's output value and earns only a note); a barrier
//!   guarded by a partial `active_lanes` mask would deadlock the block at
//!   runtime (only the watchdog would catch it today) and is an error;
//!   declared patterns that no instruction references are dangling.
//!
//! Errors gate simulation (the `apres-core` facade refuses to run a kernel
//! whose report [`Report::has_errors`]); warnings gate `just lint-kernels`.

use crate::instr::{Op, StaticInstr};
use crate::kernel::Kernel;
use gpu_common::diag::{Diagnostic, Report};

/// Pass label of the structural checks.
pub const PASS_STRUCTURE: &str = "structure";
/// Pass label of the def-use / liveness checks.
pub const PASS_DEF_USE: &str = "def-use";

/// Verifies a built kernel under a given warp width.
pub fn verify_kernel(kernel: &Kernel, warp_size: u32) -> Report {
    verify_parts(
        kernel.body(),
        kernel.patterns().len(),
        kernel.iterations(),
        warp_size,
    )
}

/// Verifies kernel parts: a body, how many patterns its slots may index,
/// the iteration count and the warp width. [`verify_kernel`] calls it on a
/// built kernel; the verifier's own tests call it on bare bodies.
pub fn verify_parts(
    body: &[StaticInstr],
    n_patterns: usize,
    iterations: u64,
    warp_size: u32,
) -> Report {
    let mut report = Report::new();
    structure(body, n_patterns, iterations, warp_size, &mut report);
    def_use(body, n_patterns, warp_size, &mut report);
    report
}

fn structure(
    body: &[StaticInstr],
    n_patterns: usize,
    iterations: u64,
    warp_size: u32,
    report: &mut Report,
) {
    if body.is_empty() {
        report.push(Diagnostic::error(
            PASS_STRUCTURE,
            None,
            "kernel body must not be empty",
        ));
    }
    if iterations == 0 {
        report.push(Diagnostic::error(
            PASS_STRUCTURE,
            None,
            "iterations must be > 0",
        ));
    }
    let mut seen_pcs: Vec<u64> = Vec::with_capacity(body.len());
    for (i, ins) in body.iter().enumerate() {
        let pc = Some(ins.pc);
        if seen_pcs.contains(&ins.pc.0) {
            report.push(Diagnostic::error(
                PASS_STRUCTURE,
                pc,
                format!("duplicate PC {:#x} (instruction {i})", ins.pc.0),
            ));
        }
        seen_pcs.push(ins.pc.0);
        if ins.pc.0 % 8 != 0 {
            report.push(Diagnostic::warning(
                PASS_STRUCTURE,
                pc,
                format!("PC {:#x} is not 8-byte aligned", ins.pc.0),
            ));
        }
        for &d in &ins.deps {
            if d == i {
                report.push(Diagnostic::error(
                    PASS_STRUCTURE,
                    pc,
                    format!("instruction {i} depends on itself (dependency cycle)"),
                ));
            } else if d > i {
                // Forward edges are the only way an index-based dependency
                // graph can close a cycle; rejecting them proves acyclicity.
                report.push(Diagnostic::error(
                    PASS_STRUCTURE,
                    pc,
                    format!(
                        "instruction {i} has forward dependency on {d} \
                         (deps must be strictly backward; forward edges can form cycles)"
                    ),
                ));
            } else if d >= body.len() {
                report.push(Diagnostic::error(
                    PASS_STRUCTURE,
                    pc,
                    format!(
                        "dependency {d} out of range (body has {} instructions)",
                        body.len()
                    ),
                ));
            } else if matches!(body[d].op, Op::StoreGlobal { .. }) {
                report.push(Diagnostic::error(
                    PASS_STRUCTURE,
                    pc,
                    format!("dependency {d} names a store, which produces no value"),
                ));
            }
        }
        if let Op::LoadGlobal { slot } | Op::StoreGlobal { slot } = ins.op {
            if slot.0 >= n_patterns {
                report.push(Diagnostic::error(
                    PASS_STRUCTURE,
                    pc,
                    format!(
                        "dangling pattern slot {} (kernel declares {n_patterns} pattern(s))",
                        slot.0
                    ),
                ));
            }
        }
        if let Some(lanes) = ins.active_lanes {
            if lanes == 0 || lanes > warp_size {
                report.push(Diagnostic::error(
                    PASS_STRUCTURE,
                    pc,
                    format!("active_lanes {lanes} out of range 1..={warp_size}"),
                ));
            }
        }
    }
}

fn def_use(body: &[StaticInstr], n_patterns: usize, warp_size: u32, report: &mut Report) {
    let mut consumed = vec![false; body.len()];
    let mut slot_used = vec![false; n_patterns];
    for (i, ins) in body.iter().enumerate() {
        for &d in &ins.deps {
            if d < i {
                consumed[d] = true;
            }
        }
        if let Op::LoadGlobal { slot } | Op::StoreGlobal { slot } = ins.op {
            if slot.0 < n_patterns {
                slot_used[slot.0] = true;
            }
        }
        if let Op::Barrier = ins.op {
            if let Some(lanes) = ins.active_lanes {
                if lanes < warp_size {
                    report.push(Diagnostic::error(
                        PASS_DEF_USE,
                        Some(ins.pc),
                        format!(
                            "barrier under a partial active mask ({lanes}/{warp_size} lanes): \
                             inactive lanes never arrive, deadlocking the block"
                        ),
                    ));
                }
            }
        }
    }
    for (i, ins) in body.iter().enumerate() {
        if consumed[i] {
            continue;
        }
        let terminal = i == body.len().saturating_sub(1);
        match ins.op {
            Op::LoadGlobal { .. } => report.push(Diagnostic::warning(
                PASS_DEF_USE,
                Some(ins.pc),
                format!(
                    "load at instruction {i} is never consumed: dead loads \
                     inflate %Load against the declared Table-I mix"
                ),
            )),
            // The last instruction's value models the kernel's result; an
            // unconsumed ALU anywhere else is dead code.
            Op::Alu { .. } if terminal => report.push(Diagnostic::note(
                PASS_DEF_USE,
                Some(ins.pc),
                "terminal ALU result models the kernel output".to_string(),
            )),
            Op::Alu { .. } => report.push(Diagnostic::warning(
                PASS_DEF_USE,
                Some(ins.pc),
                format!("ALU result of instruction {i} is never consumed (dead code)"),
            )),
            // Stores and barriers are sinks; nothing consumes them.
            Op::StoreGlobal { .. } | Op::Barrier => {}
        }
    }
    for (s, used) in slot_used.iter().enumerate() {
        if !used {
            report.push(Diagnostic::warning(
                PASS_DEF_USE,
                None,
                format!("declared address pattern {s} is never referenced by any load or store"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::LoadSlot;
    use crate::pattern::AddressPattern;
    use gpu_common::diag::Severity;
    use gpu_common::Pc;

    fn instr(pc: u64, op: Op, deps: &[usize]) -> StaticInstr {
        StaticInstr::new(Pc(pc), op, deps.to_vec())
    }

    fn load(pc: u64, slot: usize, deps: &[usize]) -> StaticInstr {
        instr(
            pc,
            Op::LoadGlobal {
                slot: LoadSlot(slot),
            },
            deps,
        )
    }

    #[test]
    fn clean_kernel_verifies_clean() {
        let k = Kernel::builder("ok")
            .load(AddressPattern::warp_strided(0, 512, 0, 4), &[])
            .alu(8, &[0])
            .store(AddressPattern::warp_strided(1 << 20, 512, 0, 4), &[1])
            .build();
        let r = verify_kernel(&k, 32);
        assert!(r.is_clean(), "{:?}", r.diagnostics());
    }

    #[test]
    fn forward_and_self_deps_are_errors() {
        let body = vec![
            instr(0x100, Op::Alu { latency: 8 }, &[0]), // self
            instr(0x108, Op::Alu { latency: 8 }, &[2]), // forward
            instr(0x110, Op::Alu { latency: 8 }, &[1]),
        ];
        let r = verify_parts(&body, 0, 1, 32);
        assert_eq!(r.count(Severity::Error), 2, "{:?}", r.diagnostics());
        let msgs: Vec<_> = r.diagnostics().iter().map(|d| d.message.clone()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("depends on itself")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("forward dependency")),
            "{msgs:?}"
        );
    }

    #[test]
    fn dangling_slot_is_error() {
        let body = vec![load(0x100, 3, &[])];
        let r = verify_parts(&body, 1, 1, 32);
        assert!(r.has_errors());
        assert!(r.diagnostics()[0]
            .message
            .contains("dangling pattern slot 3"));
    }

    #[test]
    fn dep_on_store_is_error() {
        let body = vec![
            instr(0x100, Op::StoreGlobal { slot: LoadSlot(0) }, &[]),
            instr(0x108, Op::Alu { latency: 8 }, &[0]),
        ];
        let r = verify_parts(&body, 1, 1, 32);
        assert!(r.has_errors());
        assert!(r.diagnostics().iter().any(|d| d.message.contains("store")));
    }

    #[test]
    fn duplicate_and_misaligned_pcs() {
        let body = vec![
            instr(0x100, Op::Alu { latency: 8 }, &[]),
            instr(0x100, Op::Alu { latency: 8 }, &[]),
            instr(0x10B, Op::Alu { latency: 8 }, &[1]),
        ];
        let r = verify_parts(&body, 0, 1, 32);
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 2, "{:?}", r.diagnostics()); // misalign + dead alu 0
    }

    #[test]
    fn dead_load_is_warning_terminal_alu_is_note() {
        let body = vec![
            load(0x100, 0, &[]),
            load(0x108, 1, &[]),
            instr(0x110, Op::Alu { latency: 8 }, &[1]),
        ];
        let r = verify_parts(&body, 2, 1, 32);
        assert!(!r.has_errors());
        assert_eq!(r.count(Severity::Warning), 1);
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.message.contains("never consumed")));
        assert_eq!(r.count(Severity::Note), 1);
    }

    #[test]
    fn divergent_barrier_is_error() {
        let mut barrier = instr(0x108, Op::Barrier, &[0]);
        barrier.active_lanes = Some(8);
        let body = vec![instr(0x100, Op::Alu { latency: 8 }, &[]), barrier];
        let r = verify_parts(&body, 0, 1, 32);
        assert!(r.has_errors());
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.message.contains("deadlock")));
    }

    #[test]
    fn full_mask_barrier_is_fine() {
        let mut barrier = instr(0x108, Op::Barrier, &[0]);
        barrier.active_lanes = Some(32);
        let body = vec![instr(0x100, Op::Alu { latency: 8 }, &[]), barrier];
        let r = verify_parts(&body, 0, 1, 32);
        assert!(!r.has_errors(), "{:?}", r.diagnostics());
    }

    #[test]
    fn unused_pattern_is_warning() {
        let body = vec![
            load(0x100, 0, &[]),
            instr(0x108, Op::Alu { latency: 8 }, &[0]),
        ];
        let r = verify_parts(&body, 2, 1, 32);
        assert!(!r.has_errors());
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.message.contains("pattern 1 is never referenced")));
    }

    #[test]
    fn zero_lanes_and_oversized_masks_are_errors() {
        let mut a = load(0x100, 0, &[]);
        a.active_lanes = Some(0);
        let mut b = load(0x108, 0, &[]);
        b.active_lanes = Some(64);
        let r = verify_parts(&[a, b], 1, 1, 32);
        assert_eq!(r.count(Severity::Error), 2, "{:?}", r.diagnostics());
    }

    #[test]
    fn empty_body_and_zero_iterations_are_errors() {
        let r = verify_parts(&[], 0, 0, 32);
        assert_eq!(r.count(Severity::Error), 2);
        assert!(r.diagnostics().iter().any(|d| d.message.contains("empty")));
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.message.contains("iterations")));
    }

    #[test]
    fn every_shipped_style_kernel_shape_is_clean() {
        // Diverged loads with in-range masks and chained ALUs — the shape
        // the benchmark suite uses — must produce no errors or warnings.
        let k = Kernel::builder("shape")
            .load_diverged(AddressPattern::irregular(0, 1 << 20, 1 << 12, 0.5), &[], 8)
            .alu(8, &[0])
            .alu(4, &[1])
            .build();
        let r = verify_kernel(&k, 32);
        assert!(r.is_clean(), "{:?}", r.diagnostics());
    }
}
