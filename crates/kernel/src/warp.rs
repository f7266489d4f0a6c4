//! Per-warp program state: position in the kernel body and scoreboard
//! readiness of producer instructions.

use crate::instr::{Op, StaticInstr};
use crate::kernel::Kernel;
use gpu_common::{Cycle, Pc};
use std::sync::Arc;

/// Sentinel for "result outstanding" (e.g. a load waiting on memory).
const PENDING: Cycle = Cycle::MAX;

/// A warp's view of the kernel it executes. Cheap to clone per warp; the
/// kernel itself is shared.
#[derive(Debug, Clone)]
pub struct WarpProgram {
    kernel: Arc<Kernel>,
}

impl WarpProgram {
    /// Wraps a kernel for per-warp execution.
    pub fn new(kernel: Arc<Kernel>) -> Self {
        WarpProgram { kernel }
    }

    /// The underlying kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// Creates a fresh progress tracker positioned at the first instruction.
    pub fn start(&self) -> WarpProgress {
        WarpProgress {
            body_idx: 0,
            iter: 0,
            ready_at: vec![0; self.kernel.body().len()],
            finished: self.kernel.iterations() == 0,
            barrier_blocked: false,
        }
    }
}

/// Execution progress of one warp through its [`Kernel`].
///
/// `ready_at[i]` is the cycle at which body instruction `i`'s result becomes
/// available in the current iteration (`u64::MAX` (pending) while a load is in
/// flight). Dependencies only ever point backwards within an iteration, so
/// the vector is reset when the warp wraps to the next iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpProgress {
    body_idx: usize,
    iter: u64,
    ready_at: Vec<Cycle>,
    finished: bool,
    barrier_blocked: bool,
}

/// Description of an instruction the pipeline just issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuedInstr {
    /// Index within the kernel body.
    pub body_idx: usize,
    /// Loop iteration the warp is in.
    pub iter: u64,
    /// Program counter of the static instruction.
    pub pc: Pc,
    /// Its operation.
    pub op: Op,
    /// Its active lanes (`None`: all lanes).
    pub active_lanes: Option<u32>,
}

impl WarpProgress {
    /// `true` once the warp has executed every iteration of the body.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Current loop iteration.
    pub fn iter(&self) -> u64 {
        self.iter
    }

    /// Body index of the next instruction to issue.
    pub fn body_idx(&self) -> usize {
        self.body_idx
    }

    /// The next instruction to issue, if the warp is not finished.
    pub fn current<'k>(&self, kernel: &'k Kernel) -> Option<&'k StaticInstr> {
        if self.finished {
            None
        } else {
            Some(&kernel.body()[self.body_idx])
        }
    }

    /// `true` when every dependency of the current instruction has completed
    /// by `now` (and the warp is not finished).
    pub fn can_issue(&self, kernel: &Kernel, now: Cycle) -> bool {
        if self.barrier_blocked {
            return false;
        }
        match self.current(kernel) {
            None => false,
            Some(ins) => ins.deps.iter().all(|&d| self.ready_at[d] <= now),
        }
    }

    /// First cycle at which the current instruction can issue: the latest
    /// completion time of its dependencies, or `Cycle::MAX` while the warp
    /// is finished, at a barrier or waiting on a load. It changes only when
    /// the warp issues, a load completes or the barrier state changes, so
    /// the pipeline can cache it instead of re-walking the dependencies.
    pub fn issue_gate(&self, kernel: &Kernel) -> Cycle {
        if self.barrier_blocked {
            return Cycle::MAX;
        }
        match self.current(kernel) {
            None => Cycle::MAX,
            Some(ins) => ins
                .deps
                .iter()
                .map(|&d| self.ready_at[d])
                .max()
                .unwrap_or(0),
        }
    }

    /// Blocks the warp at a barrier it just issued (until
    /// [`WarpProgress::release_barrier`]).
    pub fn block_at_barrier(&mut self) {
        self.barrier_blocked = true;
    }

    /// Releases the warp from its barrier.
    pub fn release_barrier(&mut self) {
        self.barrier_blocked = false;
    }

    /// `true` while the warp waits at a barrier.
    pub fn at_barrier(&self) -> bool {
        self.barrier_blocked
    }

    /// `true` if the warp is stalled specifically on an outstanding load.
    pub fn blocked_on_load(&self, kernel: &Kernel, now: Cycle) -> bool {
        match self.current(kernel) {
            None => false,
            Some(ins) => ins.deps.iter().any(|&d| {
                self.ready_at[d] > now
                    && self.ready_at[d] == PENDING
                    && kernel.body()[d].op.is_load()
            }),
        }
    }

    /// Issues the current instruction at cycle `now`, advancing the warp and
    /// recording the producer's completion time (ALU: `now + latency`;
    /// loads: pending until [`WarpProgress::complete_load`]).
    ///
    /// # Panics
    ///
    /// Panics if the warp is finished or a dependency is still outstanding.
    pub fn issue(&mut self, kernel: &Kernel, now: Cycle) -> IssuedInstr {
        self.issue_with_jitter(kernel, now, 0)
    }

    /// Like [`WarpProgress::issue`], with `jitter` extra cycles added to an
    /// ALU producer's latency. The pipeline uses a small deterministic
    /// per-instance jitter to model operand-collector and register-bank
    /// arbitration variance, which keeps warps from phase-locking.
    ///
    /// # Panics
    ///
    /// Panics if the warp is finished or a dependency is still outstanding.
    pub fn issue_with_jitter(&mut self, kernel: &Kernel, now: Cycle, jitter: u64) -> IssuedInstr {
        assert!(
            self.can_issue(kernel, now),
            "issue() called while not ready (idx {}, iter {})",
            self.body_idx,
            self.iter
        );
        let instr = &kernel.body()[self.body_idx];
        self.ready_at[self.body_idx] = match instr.op {
            Op::Alu { latency } => now + latency + jitter,
            Op::LoadGlobal { .. } => PENDING,
            // Stores and barriers produce no register value.
            Op::StoreGlobal { .. } | Op::Barrier => now,
        };
        let issued = IssuedInstr {
            body_idx: self.body_idx,
            iter: self.iter,
            pc: instr.pc,
            op: instr.op,
            active_lanes: instr.active_lanes,
        };
        self.body_idx += 1;
        if self.body_idx == kernel.body().len() {
            self.body_idx = 0;
            self.iter += 1;
            if self.iter >= kernel.iterations() {
                self.finished = true;
            } else {
                // Dependencies never cross iterations; reset the scoreboard.
                self.ready_at.fill(0);
            }
        }
        issued
    }

    /// Marks the load at `body_idx` complete at `cycle` (memory returned).
    ///
    /// Late completions for an iteration the warp has already left are
    /// ignored — the scoreboard was reset because no consumer remained.
    pub fn complete_load(&mut self, body_idx: usize, iter: u64, cycle: Cycle) {
        if iter == self.iter && self.ready_at[body_idx] == PENDING {
            self.ready_at[body_idx] = cycle;
        }
    }

    /// `true` while the load at `body_idx` in the current iteration has not
    /// yet completed.
    pub fn load_outstanding(&self, body_idx: usize) -> bool {
        self.ready_at[body_idx] == PENDING
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::AddressPattern;

    fn program() -> WarpProgram {
        let k = Kernel::builder("t")
            .load(AddressPattern::warp_strided(0, 512, 128, 4), &[])
            .alu(8, &[0])
            .alu(4, &[1])
            .iterations(2)
            .build();
        WarpProgram::new(Arc::new(k))
    }

    #[test]
    fn fresh_warp_can_issue() {
        let p = program();
        let w = p.start();
        assert!(!w.is_finished());
        assert!(w.can_issue(p.kernel(), 0));
        assert_eq!(w.current(p.kernel()).unwrap().pc.0, 0x100);
    }

    #[test]
    fn load_blocks_consumer_until_completion() {
        let p = program();
        let k = p.kernel().clone();
        let mut w = p.start();
        let ld = w.issue(&k, 0);
        assert!(ld.op.is_load());
        // Next instruction depends on the load: blocked.
        assert!(!w.can_issue(&k, 100));
        assert!(w.blocked_on_load(&k, 100));
        assert!(w.load_outstanding(0));
        w.complete_load(0, 0, 57);
        assert!(!w.load_outstanding(0));
        assert!(!w.can_issue(&k, 56));
        assert!(w.can_issue(&k, 57));
    }

    #[test]
    fn alu_latency_gates_dependent() {
        let p = program();
        let k = p.kernel().clone();
        let mut w = p.start();
        w.issue(&k, 0);
        w.complete_load(0, 0, 10);
        let alu = w.issue(&k, 10);
        assert!(matches!(alu.op, Op::Alu { latency: 8 }));
        assert!(!w.can_issue(&k, 17));
        assert!(w.can_issue(&k, 18)); // 10 + 8
    }

    #[test]
    fn issue_gate_is_the_first_cycle_can_issue_holds() {
        let p = program();
        let k = p.kernel().clone();
        let mut w = p.start();
        assert_eq!(w.issue_gate(&k), 0);
        w.issue(&k, 0);
        assert_eq!(w.issue_gate(&k), Cycle::MAX, "waiting on the load");
        w.complete_load(0, 0, 57);
        assert_eq!(w.issue_gate(&k), 57);
        w.issue_with_jitter(&k, 57, 2);
        let gate = w.issue_gate(&k);
        assert_eq!(gate, 57 + 8 + 2);
        assert!(!w.can_issue(&k, gate - 1) && w.can_issue(&k, gate));
        w.block_at_barrier();
        assert_eq!(w.issue_gate(&k), Cycle::MAX);
    }

    #[test]
    fn iteration_wrap_and_finish() {
        let p = program();
        let k = p.kernel().clone();
        let mut w = p.start();
        for iter in 0..2 {
            let ld = w.issue(&k, 1000 * iter);
            assert_eq!(ld.iter, iter);
            w.complete_load(0, iter, 1000 * iter + 1);
            w.issue(&k, 1000 * iter + 1);
            w.issue(&k, 1000 * iter + 9);
        }
        assert!(w.is_finished());
        assert!(w.current(&k).is_none());
        assert!(!w.can_issue(&k, u64::MAX - 1));
        assert_eq!(w.issue_gate(&k), Cycle::MAX);
    }

    #[test]
    fn stale_load_completion_ignored_after_wrap() {
        let k = Kernel::builder("t")
            .load(AddressPattern::warp_strided(0, 512, 128, 4), &[])
            .iterations(3)
            .build();
        let p = WarpProgram::new(Arc::new(k));
        let k = p.kernel().clone();
        let mut w = p.start();
        // Load has no consumer, so the warp wraps while it is outstanding.
        w.issue(&k, 0);
        assert_eq!(w.iter(), 1);
        // Completion for iteration 0 arrives late: must not mark iteration 1's
        // (not yet issued) instance complete in a wrong way.
        w.complete_load(0, 0, 500);
        assert!(w.can_issue(&k, 500));
        let second = w.issue(&k, 500);
        assert_eq!(second.iter, 1);
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn issue_while_blocked_panics() {
        let p = program();
        let k = p.kernel().clone();
        let mut w = p.start();
        w.issue(&k, 0);
        w.issue(&k, 1); // consumer of the un-returned load
    }

    #[test]
    fn barrier_blocks_until_released() {
        let k = Kernel::builder("b")
            .barrier(&[])
            .alu(4, &[])
            .iterations(2)
            .build();
        let p = WarpProgram::new(Arc::new(k));
        let k = p.kernel().clone();
        let mut w = p.start();
        let b = w.issue(&k, 0);
        assert!(b.op.is_barrier());
        w.block_at_barrier();
        assert!(!w.can_issue(&k, 1000));
        assert!(w.at_barrier());
        w.release_barrier();
        assert!(w.can_issue(&k, 1000));
    }

    #[test]
    fn zero_iteration_kernel_is_immediately_finished() {
        // Builder forbids 0 iterations, so emulate via iterations(1) and
        // check the finished latch after the single pass instead.
        let k = Kernel::builder("t").alu(1, &[]).iterations(1).build();
        let p = WarpProgram::new(Arc::new(k));
        let k = p.kernel().clone();
        let mut w = p.start();
        w.issue(&k, 0);
        assert!(w.is_finished());
    }
}
