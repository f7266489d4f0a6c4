//! Static instructions of the synthetic ISA.

use gpu_common::Pc;

/// Index of a load's [`crate::AddressPattern`] within its kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoadSlot(pub usize);

/// Operation performed by a static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Arithmetic instruction; its result is ready `latency` cycles after
    /// issue (the paper assumes an 8-cycle pipeline, Section IV).
    Alu {
        /// Producer latency in cycles.
        latency: u64,
    },
    /// Global-memory load; per-lane addresses come from the kernel's
    /// address-pattern table.
    LoadGlobal {
        /// Which address pattern drives this load.
        slot: LoadSlot,
    },
    /// Global-memory store; fire-and-forget (no destination register).
    StoreGlobal {
        /// Which address pattern drives this store.
        slot: LoadSlot,
    },
    /// Block-wide barrier (`__syncthreads`): the warp stalls until every
    /// unretired warp of its SM has arrived.
    Barrier,
}

impl Op {
    /// `true` for global loads.
    pub fn is_load(&self) -> bool {
        matches!(self, Op::LoadGlobal { .. })
    }

    /// `true` for any global-memory operation.
    pub fn is_mem(&self) -> bool {
        matches!(self, Op::LoadGlobal { .. } | Op::StoreGlobal { .. })
    }

    /// `true` for barriers.
    pub fn is_barrier(&self) -> bool {
        matches!(self, Op::Barrier)
    }
}

/// One static instruction of a kernel body.
///
/// `deps` lists the body indices of earlier instructions whose results this
/// instruction consumes; the scoreboard delays issue until all have
/// completed. Loads are identified across the simulator by their `pc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticInstr {
    /// Program counter; unique within a kernel, spaced by 8 bytes.
    pub pc: Pc,
    /// The operation.
    pub op: Op,
    /// Body indices of producer instructions this one waits on.
    pub deps: Vec<usize>,
    /// Number of active lanes (≤ warp size); models branch divergence.
    /// `None` means all lanes active.
    pub active_lanes: Option<u32>,
}

impl StaticInstr {
    /// Creates an instruction with all lanes active.
    pub fn new(pc: Pc, op: Op, deps: Vec<usize>) -> Self {
        StaticInstr {
            pc,
            op,
            deps,
            active_lanes: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert!(Op::LoadGlobal { slot: LoadSlot(0) }.is_load());
        assert!(Op::LoadGlobal { slot: LoadSlot(0) }.is_mem());
        assert!(!Op::StoreGlobal { slot: LoadSlot(0) }.is_load());
        assert!(Op::StoreGlobal { slot: LoadSlot(0) }.is_mem());
        assert!(!Op::Alu { latency: 8 }.is_mem());
        assert!(!Op::Alu { latency: 8 }.is_load());
        assert!(Op::Barrier.is_barrier());
        assert!(!Op::Barrier.is_mem());
    }

    #[test]
    fn new_defaults_to_full_mask() {
        let i = StaticInstr::new(Pc(0x10), Op::Alu { latency: 4 }, vec![0, 1]);
        assert_eq!(i.active_lanes, None);
        assert_eq!(i.deps, vec![0, 1]);
    }
}
