//! Abstract instruction streams executed by [`crate::core::InOrderCore`].
//!
//! Benchmarks are expressed as sequences of [`Op`]s — loads, stores, spin
//! waits, fences, MMIO accesses and modelled kernel costs — mirroring the
//! paper's benchmark pseudo-code (§5.3) without simulating a full ISA.
//! Each op carries an implied retired-instruction count so the core can
//! report IPC (§6.2).

/// One abstract operation of a core program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `n` single-cycle ALU instructions (address arithmetic, loop
    /// bookkeeping, compares...).
    Alu(u32),
    /// An 8-byte cached load from virtual address `va`. If `record` is
    /// true, the loaded value is appended to the core's recorded-value log
    /// (used by harnesses to verify accelerator output end to end).
    Load {
        /// Virtual address.
        va: u64,
        /// Log the loaded value.
        record: bool,
    },
    /// An 8-byte cached store of `value` to `va` via the store buffer.
    Store {
        /// Virtual address.
        va: u64,
        /// Value stored.
        value: u64,
    },
    /// Spin until the little-endian `u64` at `va` is `>= value` (the
    /// consumer side of an SPSC queue polling a write pointer).
    WaitGe {
        /// Virtual address of the polled word.
        va: u64,
        /// Threshold.
        value: u64,
    },
    /// Release fence: drains the store buffer. SPSC producers order the
    /// data write before the pointer publish with exactly this (§4.2.3).
    Fence,
    /// A blocking uncached (MMIO) load. The device may delay its response
    /// arbitrarily (e.g. until an accelerator result is ready), stalling
    /// the core — the paper's §2.1 MMIO semantics.
    MmioLoad {
        /// Physical device register address.
        pa: u64,
        /// Log the returned value.
        record: bool,
    },
    /// A blocking uncached (MMIO) store.
    MmioStore {
        /// Physical device register address.
        pa: u64,
        /// Value written.
        value: u64,
    },
    /// Modelled kernel time: syscall entry/exit, driver bookkeeping. Costs
    /// `cycles` and retires `insts` instructions.
    KernelCost {
        /// Stall cycles.
        cycles: u64,
        /// Retired instructions attributed to the kernel code.
        insts: u64,
    },
}

impl Op {
    /// Instructions this op retires when it completes (spin ops retire per
    /// iteration instead; see the core model).
    pub fn retired_instructions(&self) -> u64 {
        match self {
            Op::Alu(n) => u64::from(*n),
            Op::Load { .. } | Op::Store { .. } => 1,
            Op::WaitGe { .. } => 0, // accounted per spin iteration
            Op::Fence => 1,
            Op::MmioLoad { .. } | Op::MmioStore { .. } => 1,
            Op::KernelCost { insts, .. } => *insts,
        }
    }
}

/// An ordered list of [`Op`]s for one core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves room for `additional` more ops, so a long program is
    /// built in one allocation instead of copied at every doubling.
    pub fn reserve(&mut self, additional: usize) {
        self.ops.reserve(additional);
    }

    /// Appends one op.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Appends all ops of `other`.
    pub fn append(&mut self, mut other: Program) {
        self.ops.append(&mut other.ops);
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Read-only view of the ops.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Consumes the program, returning its ops.
    pub fn into_ops(self) -> Vec<Op> {
        self.ops
    }

    /// Static instruction count (spin iterations excluded).
    pub fn static_instructions(&self) -> u64 {
        self.ops.iter().map(Op::retired_instructions).sum()
    }
}

impl Extend<Op> for Program {
    fn extend<T: IntoIterator<Item = Op>>(&mut self, iter: T) {
        self.ops.extend(iter);
    }
}

impl FromIterator<Op> for Program {
    fn from_iter<T: IntoIterator<Item = Op>>(iter: T) -> Self {
        Self {
            ops: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_accounting() {
        let p: Program = vec![
            Op::Alu(3),
            Op::Store { va: 0, value: 1 },
            Op::Fence,
            Op::KernelCost {
                cycles: 100,
                insts: 40,
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(p.static_instructions(), 3 + 1 + 1 + 40);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn append_preserves_order() {
        let mut a = Program::new();
        a.push(Op::Alu(1));
        let mut b = Program::new();
        b.push(Op::Fence);
        a.append(b);
        assert_eq!(a.ops()[1], Op::Fence);
    }
}
