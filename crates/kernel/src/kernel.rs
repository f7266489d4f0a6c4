//! Kernel definition and builder.

use crate::instr::{LoadSlot, Op, StaticInstr};
use crate::pattern::AddressPattern;
use gpu_common::Pc;

/// A synthetic GPU kernel: a linear instruction body executed by every warp
/// for a fixed number of iterations (one iteration models one trip of the
/// benchmark's grid-stride / inner loop).
///
/// Construct with [`Kernel::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    body: Vec<StaticInstr>,
    patterns: Vec<AddressPattern>,
    iterations: u64,
    seed: u64,
}

impl Kernel {
    /// Starts building a kernel with the given display name.
    pub fn builder(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            name: name.into(),
            body: Vec::new(),
            patterns: Vec::new(),
            iterations: 64,
            seed: 0xA9E5,
            next_pc: None,
        }
    }

    /// Kernel display name (e.g. `"KM"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The static instruction body, in program order.
    pub fn body(&self) -> &[StaticInstr] {
        &self.body
    }

    /// Address pattern backing a load/store slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range (builder-validated slots never are).
    pub fn pattern(&self, slot: LoadSlot) -> &AddressPattern {
        &self.patterns[slot.0]
    }

    /// All address patterns, indexed by slot.
    pub fn patterns(&self) -> &[AddressPattern] {
        &self.patterns
    }

    /// Loop-trip count each warp executes the body for.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Workload seed driving all pattern randomness.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns the same kernel re-seeded with `seed`.
    ///
    /// The body, patterns and iteration count are untouched; only the
    /// pattern randomness (noise draws, irregular-region picks) changes.
    /// Sweep harnesses use this for seed-perturbation studies: each job
    /// re-seeds its kernel with a seed derived from the job index
    /// ([`gpu_common::rng::derive_seed`]), keeping results independent of
    /// worker scheduling.
    pub fn with_seed(mut self, seed: u64) -> Kernel {
        self.seed = seed;
        self
    }

    /// Number of dynamic warp-instructions one warp will execute.
    pub fn dynamic_len(&self) -> u64 {
        self.body.len() as u64 * self.iterations
    }

    /// Iterator over `(body index, pc, slot)` of every global load.
    pub fn load_sites(&self) -> impl Iterator<Item = (usize, Pc, LoadSlot)> + '_ {
        self.body.iter().enumerate().filter_map(|(i, ins)| {
            if let Op::LoadGlobal { slot } = ins.op {
                Some((i, ins.pc, slot))
            } else {
                None
            }
        })
    }
}

/// Incremental builder for [`Kernel`] (non-consuming terminal: [`KernelBuilder::build`]).
///
/// PCs are auto-assigned from `0x100` in 8-byte steps; [`KernelBuilder::at_pc`]
/// pins the next instruction to an explicit PC so workloads can reuse the
/// paper's Table I addresses.
///
/// # Example
///
/// ```
/// use gpu_kernel::{Kernel, AddressPattern};
/// use gpu_common::Pc;
///
/// let k = Kernel::builder("srad-like")
///     .at_pc(0x250)
///     .load(AddressPattern::warp_strided(0, 16_384, 128, 4), &[])
///     .alu(8, &[0])
///     .iterations(32)
///     .build();
/// assert_eq!(k.body()[0].pc, Pc(0x250));
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    body: Vec<StaticInstr>,
    patterns: Vec<AddressPattern>,
    iterations: u64,
    seed: u64,
    next_pc: Option<u64>,
}

impl KernelBuilder {
    fn alloc_pc(&mut self) -> Pc {
        let pc = self
            .next_pc
            .take()
            .unwrap_or(0x100 + self.body.len() as u64 * 8);
        Pc(pc)
    }

    fn check_deps(&self, deps: &[usize]) {
        for &d in deps {
            assert!(
                d < self.body.len(),
                "dependency {d} refers to a not-yet-added instruction (body len {})",
                self.body.len()
            );
            assert!(
                !matches!(self.body[d].op, Op::StoreGlobal { .. }),
                "stores produce no value; dependency {d} is a store"
            );
        }
    }

    /// Pins the next appended instruction to an explicit PC.
    pub fn at_pc(mut self, pc: u64) -> Self {
        self.next_pc = Some(pc);
        self
    }

    /// Appends an ALU instruction with the given producer latency.
    ///
    /// # Panics
    ///
    /// Panics if a dependency index is out of range.
    pub fn alu(mut self, latency: u64, deps: &[usize]) -> Self {
        self.check_deps(deps);
        let pc = self.alloc_pc();
        self.body
            .push(StaticInstr::new(pc, Op::Alu { latency }, deps.to_vec()));
        self
    }

    /// Appends a global load driven by `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if a dependency index is out of range.
    pub fn load(mut self, pattern: AddressPattern, deps: &[usize]) -> Self {
        self.check_deps(deps);
        let slot = LoadSlot(self.patterns.len());
        self.patterns.push(pattern);
        let pc = self.alloc_pc();
        self.body
            .push(StaticInstr::new(pc, Op::LoadGlobal { slot }, deps.to_vec()));
        self
    }

    /// Appends a global load with a reduced active mask (branch divergence).
    ///
    /// # Panics
    ///
    /// Panics if a dependency index is out of range or `active_lanes == 0`.
    pub fn load_diverged(
        mut self,
        pattern: AddressPattern,
        deps: &[usize],
        active_lanes: u32,
    ) -> Self {
        assert!(active_lanes > 0, "active_lanes must be > 0");
        self.check_deps(deps);
        let slot = LoadSlot(self.patterns.len());
        self.patterns.push(pattern);
        let pc = self.alloc_pc();
        let mut ins = StaticInstr::new(pc, Op::LoadGlobal { slot }, deps.to_vec());
        ins.active_lanes = Some(active_lanes);
        self.body.push(ins);
        self
    }

    /// Appends a global store driven by `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if a dependency index is out of range.
    pub fn store(mut self, pattern: AddressPattern, deps: &[usize]) -> Self {
        self.check_deps(deps);
        let slot = LoadSlot(self.patterns.len());
        self.patterns.push(pattern);
        let pc = self.alloc_pc();
        self.body.push(StaticInstr::new(
            pc,
            Op::StoreGlobal { slot },
            deps.to_vec(),
        ));
        self
    }

    /// Appends a block-wide barrier (`__syncthreads`).
    ///
    /// # Panics
    ///
    /// Panics if a dependency index is out of range.
    pub fn barrier(mut self, deps: &[usize]) -> Self {
        self.check_deps(deps);
        let pc = self.alloc_pc();
        self.body
            .push(StaticInstr::new(pc, Op::Barrier, deps.to_vec()));
        self
    }

    /// Sets how many times each warp executes the body.
    pub fn iterations(mut self, n: u64) -> Self {
        self.iterations = n;
        self
    }

    /// Sets the workload randomness seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Appends a pre-built instruction **without** eager validation.
    ///
    /// Unlike [`KernelBuilder::alu`]/[`KernelBuilder::load`], nothing is
    /// checked here — defects are caught by the verifier ([`crate::verify`]),
    /// which gates every simulation. This is how deliberately defective
    /// fixture kernels (cyclic deps, dangling slots, divergent barriers) are
    /// constructed for analyzer tests.
    pub fn raw_instr(mut self, ins: StaticInstr) -> Self {
        self.body.push(ins);
        self
    }

    /// Finishes the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the body is empty, `iterations` is zero, or two
    /// instructions share a PC.
    pub fn build(self) -> Kernel {
        assert!(!self.body.is_empty(), "kernel body must not be empty");
        assert!(self.iterations > 0, "iterations must be > 0");
        let mut pcs: Vec<u64> = self.body.iter().map(|i| i.pc.0).collect();
        pcs.sort_unstable();
        pcs.dedup();
        assert_eq!(pcs.len(), self.body.len(), "duplicate PCs in kernel body");
        Kernel {
            name: self.name,
            body: self.body,
            patterns: self.patterns,
            iterations: self.iterations,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Kernel {
        Kernel::builder("toy")
            .load(AddressPattern::warp_strided(0, 512, 128, 4), &[])
            .alu(8, &[0])
            .store(AddressPattern::warp_strided(1 << 20, 512, 128, 4), &[1])
            .iterations(10)
            .build()
    }

    #[test]
    fn builder_assigns_sequential_pcs() {
        let k = toy();
        assert_eq!(k.body()[0].pc, Pc(0x100));
        assert_eq!(k.body()[1].pc, Pc(0x108));
        assert_eq!(k.body()[2].pc, Pc(0x110));
    }

    #[test]
    fn at_pc_overrides_once() {
        let k = Kernel::builder("x")
            .at_pc(0x7A8)
            .load(AddressPattern::shared_stream(0, 0), &[])
            .alu(8, &[0])
            .build();
        assert_eq!(k.body()[0].pc, Pc(0x7A8));
        assert_eq!(k.body()[1].pc, Pc(0x108)); // auto-assignment resumes
    }

    #[test]
    fn slots_index_patterns() {
        let k = toy();
        assert_eq!(k.patterns().len(), 2);
        let sites: Vec<_> = k.load_sites().collect();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].0, 0);
        assert_eq!(sites[0].2, LoadSlot(0));
        assert_eq!(k.pattern(LoadSlot(0)).nominal_stride(), Some(512));
    }

    #[test]
    fn dynamic_len() {
        assert_eq!(toy().dynamic_len(), 30);
    }

    #[test]
    #[should_panic(expected = "not-yet-added")]
    fn forward_dep_rejected() {
        let _ = Kernel::builder("bad").alu(8, &[0]);
    }

    #[test]
    #[should_panic(expected = "store")]
    fn dep_on_store_rejected() {
        let _ = Kernel::builder("bad")
            .store(AddressPattern::shared_stream(0, 0), &[])
            .alu(8, &[0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_body_rejected() {
        let _ = Kernel::builder("bad").build();
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_pc_rejected() {
        let _ = Kernel::builder("bad")
            .at_pc(0x10)
            .alu(8, &[])
            .at_pc(0x10)
            .alu(8, &[])
            .build();
    }

    #[test]
    fn barrier_in_body() {
        let k = Kernel::builder("b")
            .alu(8, &[])
            .barrier(&[0])
            .alu(4, &[0])
            .build();
        assert!(k.body()[1].op.is_barrier());
    }

    #[test]
    fn diverged_load_mask() {
        let k = Kernel::builder("d")
            .load_diverged(AddressPattern::shared_stream(0, 0), &[], 8)
            .build();
        assert_eq!(k.body()[0].active_lanes, Some(8));
    }
}
