//! Abstract instruction streams executed by [`crate::core::InOrderCore`].
//!
//! Benchmarks are expressed as sequences of [`Op`]s — loads, stores, spin
//! waits, fences, MMIO accesses and modelled kernel costs — mirroring the
//! paper's benchmark pseudo-code (§5.3) without simulating a full ISA.
//! Each op carries an implied retired-instruction count so the core can
//! report IPC (§6.2).
//!
//! A [`Program`] is a sequence of segments: literal ops (the driver's
//! register, unregister, watchdog and spill sequences; test programs) and
//! lazily generated streams (the benchmark loops of `cohort::scenarios`).
//! The core holds only the op at its program counter and pulls the next
//! when that one retires, so a loop costs its generator's state, not a
//! buffer of its ops.

use std::collections::VecDeque;

/// One abstract operation of a core program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One run of a [`Program`]'s ops.
enum Segment {
    /// Ops pushed one at a time, taken from the front.
    Literal(VecDeque<Op>),
    /// Ops generated on demand.
    Stream(Box<dyn Iterator<Item = Op>>),
}

/// The ops of one core, in order: a sequence of segments, each literal or
/// a generated stream. A program is an iterator that the core pulls one
/// op at a time, so a stream segment is generated only as far as the core
/// has got.
#[derive(Default)]
pub struct Program {
    segments: VecDeque<Segment>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one op.
    pub fn push(&mut self, op: Op) {
        if let Some(Segment::Literal(ops)) = self.segments.back_mut() {
            return ops.push_back(op);
        }
        self.segments
            .push_back(Segment::Literal(VecDeque::from([op])));
    }

    /// Appends a stream of ops, generated only as the core reaches them.
    pub fn stream(&mut self, ops: impl Iterator<Item = Op> + 'static) {
        self.segments.push_back(Segment::Stream(Box::new(ops)));
    }

    /// Appends all ops of `other`.
    pub fn append(&mut self, other: Program) {
        self.segments.extend(other.segments);
    }
}

impl Iterator for Program {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        loop {
            let op = match self.segments.front_mut()? {
                Segment::Literal(ops) => ops.pop_front(),
                Segment::Stream(ops) => ops.next(),
            };
            if op.is_some() {
                return op;
            }
            self.segments.pop_front();
        }
    }
}

impl Extend<Op> for Program {
    fn extend<T: IntoIterator<Item = Op>>(&mut self, iter: T) {
        iter.into_iter().for_each(|op| self.push(op));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::TileCoord;
    use crate::config::SocConfig;
    use crate::core::InOrderCore;
    use crate::directory::Directory;
    use crate::soc::Soc;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn instruction_accounting() {
        let mut p = Program::new();
        p.extend([
            Op::Alu(3),
            Op::Store { va: 0, value: 1 },
            Op::Fence,
            Op::KernelCost {
                cycles: 100,
                insts: 40,
            },
        ]);
        let insts: Vec<u64> = p.map(|op| op.retired_instructions()).collect();
        assert_eq!(insts, [3, 1, 1, 40]);
    }

    #[test]
    fn append_preserves_order() {
        let mut a = Program::new();
        a.push(Op::Alu(1));
        let mut b = Program::new();
        b.stream((2..4).map(Op::Alu));
        b.push(Op::Fence);
        b.stream(std::iter::empty());
        b.push(Op::Alu(4));
        a.append(b);
        a.push(Op::Alu(5));
        let ops: Vec<Op> = a.collect();
        let want = [1, 2, 3].map(Op::Alu).into_iter().chain([Op::Fence]);
        assert_eq!(ops, want.chain([4, 5].map(Op::Alu)).collect::<Vec<_>>());
    }

    /// The core pulls a stream lazily: never more than the op at its
    /// program counter. Every op here is a store, so the core's store
    /// count is its program counter.
    #[test]
    fn the_core_pulls_a_stream_one_op_at_a_time() {
        const LITERAL: u64 = 2;
        const STREAMED: u64 = 40;
        let pulled = Rc::new(Cell::new(0u64));
        let mut p = Program::new();
        for i in 0..LITERAL {
            p.push(Op::Store {
                va: i * 8,
                value: i,
            });
        }
        let counter = Rc::clone(&pulled);
        p.stream((LITERAL..LITERAL + STREAMED).map(move |i| {
            counter.set(counter.get() + 1);
            Op::Store {
                va: i * 64,
                value: i,
            }
        }));
        p.push(Op::Fence);

        let cfg = SocConfig::default();
        let mut soc = Soc::new(cfg.clone());
        let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
        let core = InOrderCore::new(dir, &cfg, p);
        let core = soc.add_component(TileCoord::new(1, 0), Box::new(core));
        let stores = |soc: &Soc| {
            let c = soc.component::<InOrderCore>(core).expect("core");
            c.core_counters().stores.get()
        };
        let mut lagged = false;
        for _ in 0..100_000 {
            let pc = stores(&soc);
            assert!(
                pulled.get() <= (pc + 1).saturating_sub(LITERAL),
                "{} streamed ops pulled with the core at op {pc}",
                pulled.get()
            );
            lagged |= pulled.get() < STREAMED && pc > LITERAL;
            if soc.component::<InOrderCore>(core).expect("core").is_done() {
                break;
            }
            soc.step();
        }
        assert_eq!((stores(&soc), pulled.get()), (LITERAL + STREAMED, STREAMED));
        assert!(lagged, "the stream was generated ahead of the core");
    }
}
