//! The Cohort kernel driver model (paper §4.4).
//!
//! A *single* driver supports all Cohort-enabled accelerators. It exposes
//! two syscalls — `cohort_register` and `cohort_unregister` — which this
//! model expands into the exact MMIO programming sequences a core executes
//! (so registration cost is measured, not assumed), plus the MMU-notifier
//! TLB shootdown. Its interrupt handlers are the actions of
//! [`crate::kernel::Kernel`].
//!
//! The [`regs`] module is the uapi: the engine's uncached configuration
//! register map, shared between the driver (writer) and the engine
//! implementation in `cohort-engine` (reader).

use cohort_queue::QueueDescriptor;
use cohort_sim::program::{Op, Program};

/// The Cohort engine's uncached configuration register map: byte offsets
/// from the engine's MMIO base, each register 8 bytes (paper §4.2: the
/// uncached registers are the only MMIO component of Cohort).
pub mod regs {
    /// Write 1 to enable the engine, 0 to disable.
    pub const ENABLE: u64 = 0x00;
    /// Input queue: write-index virtual address.
    pub const IN_WR_VA: u64 = 0x08;
    /// Input queue: read-index virtual address.
    pub const IN_RD_VA: u64 = 0x10;
    /// Input queue: data base virtual address.
    pub const IN_BASE_VA: u64 = 0x18;
    /// Input queue: element size in bytes.
    pub const IN_ELEM: u64 = 0x20;
    /// Input queue: length in elements.
    pub const IN_LEN: u64 = 0x28;
    /// Output queue: write-index virtual address.
    pub const OUT_WR_VA: u64 = 0x30;
    /// Output queue: read-index virtual address.
    pub const OUT_RD_VA: u64 = 0x38;
    /// Output queue: data base virtual address.
    pub const OUT_BASE_VA: u64 = 0x40;
    /// Output queue: element size in bytes.
    pub const OUT_ELEM: u64 = 0x48;
    /// Output queue: length in elements.
    pub const OUT_LEN: u64 = 0x50;
    /// Physical address of the process's Sv39 root table.
    pub const PT_ROOT_PA: u64 = 0x58;
    /// Reader-coherency-manager backoff window in cycles (§4.2.3).
    pub const BACKOFF: u64 = 0x60;
    /// Write any value to flush the engine TLB (MMU notifier path).
    pub const TLB_FLUSH: u64 = 0x68;
    /// Write to resolve an outstanding page fault: value 0 tells the
    /// walker to retry its own walk; any other value is a PTE-installed
    /// acknowledgement (§4.2.4 describes both registers).
    pub const FAULT_RESOLVE: u64 = 0x70;
    /// CSR configuration buffer: virtual address (0 = none).
    pub const CSR_BASE_VA: u64 = 0x78;
    /// CSR configuration buffer: length in bytes.
    pub const CSR_LEN: u64 = 0x80;
    /// Read-only: elements consumed from the input queue.
    pub const CONSUMED: u64 = 0x88;
    /// Read-only: elements produced into the output queue.
    pub const PRODUCED: u64 = 0x90;
    /// Sticky error-status register. Reads return the accumulated
    /// [`ERR_BAD_DESCRIPTOR`]/[`ERR_WATCHDOG_CONS`]/… bits; any write
    /// clears them and resumes a halted engine (re-reading the queue
    /// indices from memory, so software may fix state first).
    pub const ERROR_STATUS: u64 = 0x98;
    /// Watchdog budget in cycles: if an enabled endpoint makes no forward
    /// progress for this many cycles the engine aborts the in-flight
    /// transaction, drains staged data and raises the error interrupt.
    /// 0 (the reset value) disables the watchdog.
    pub const WATCHDOG: u64 = 0xA0;
    /// Input queue: binding epoch/generation of the descriptor.
    pub const IN_EPOCH: u64 = 0xA8;
    /// Output queue: binding epoch/generation of the descriptor.
    pub const OUT_EPOCH: u64 = 0xB0;
    /// Epoch fence: writing `e` forbids the engine from ever running a
    /// binding whose epoch is below `e`. The fence is monotonic (writes
    /// with a smaller value are ignored) and survives disable, so a
    /// stale engine that wakes late can never republish queue indices —
    /// the exactly-once half of queue migration.
    pub const EPOCH_FENCE: u64 = 0xB8;
    /// Failover timestamp scratch register: the orchestrator stamps the
    /// detection cycle here before enabling a spare engine, so the spare
    /// can publish detect→rebind→first-element latency histograms.
    pub const FAILOVER_T0: u64 = 0xC0;
    /// Physical address of the engine's checkpoint spill area (0 = none).
    /// The watchdog abort path spills datapath residue there — the
    /// partial input block whose elements the read index already covers,
    /// plus output words that did not fit in a full ring — as
    /// `[n_in, n_out, in_words…, out_words…]`. A spare enabled with
    /// [`FAILOVER_T0`] set restores (and consumes) the spill, so those
    /// elements are delivered exactly once. One page is ample.
    pub const SPILL_PA: u64 = 0xC8;
    /// Size of the register bank in bytes.
    pub const BANK_BYTES: u64 = 0x100;

    // The error/watchdog/failover registers must land inside the bank.
    const _: () = assert!(ERROR_STATUS < BANK_BYTES);
    const _: () = assert!(WATCHDOG < BANK_BYTES);
    const _: () = assert!(IN_EPOCH < BANK_BYTES);
    const _: () = assert!(OUT_EPOCH < BANK_BYTES);
    const _: () = assert!(EPOCH_FENCE < BANK_BYTES);
    const _: () = assert!(FAILOVER_T0 < BANK_BYTES);
    const _: () = assert!(SPILL_PA < BANK_BYTES);

    /// [`ERROR_STATUS`] bit: a configuration register failed validation
    /// (bad geometry, or a config write while enabled).
    pub const ERR_BAD_DESCRIPTOR: u64 = 1 << 0;
    /// [`ERROR_STATUS`] bit: the consumer endpoint tripped the watchdog.
    pub const ERR_WATCHDOG_CONS: u64 = 1 << 1;
    /// [`ERROR_STATUS`] bit: the producer endpoint tripped the watchdog.
    pub const ERR_WATCHDOG_PROD: u64 = 1 << 2;
    /// [`ERROR_STATUS`] bit: the accelerator rejected its CSR buffer.
    pub const ERR_CSR_REJECTED: u64 = 1 << 3;
    /// [`ERROR_STATUS`] bit: the engine datapath is fail-stopped (the
    /// dead-man's handle tripped with a frozen datapath). Recovery must
    /// migrate the queues; clearing [`ERROR_STATUS`] cannot revive it.
    pub const ERR_ENGINE_DEAD: u64 = 1 << 4;
    /// [`ERROR_STATUS`] bit: a configure/enable carried a queue-binding
    /// epoch older than the engine's [`EPOCH_FENCE`] — a stale binding
    /// fenced out after queue migration.
    pub const ERR_STALE_EPOCH: u64 = 1 << 5;

    /// The error interrupt line is the engine's page-fault line plus this
    /// offset, so the two handlers stay distinct per engine.
    pub const ERROR_IRQ_OFFSET: u32 = 32;
}

/// Cost model for the modelled syscalls, in cycles/instructions. These
/// stand in for trap entry, fd lookup and driver bookkeeping of the real
/// kernel path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallCost {
    /// Cycles consumed before the driver's MMIO writes begin.
    pub cycles: u64,
    /// Instructions retired by the kernel path.
    pub insts: u64,
}

impl Default for SyscallCost {
    fn default() -> Self {
        Self {
            cycles: 700,
            insts: 450,
        }
    }
}

/// The Cohort driver: knows where one engine's registers live and which
/// interrupt line it raises.
#[derive(Debug, Clone)]
pub struct CohortDriver {
    mmio_base: u64,
    irq: u32,
    cost: SyscallCost,
}

impl CohortDriver {
    /// Creates a driver for the engine whose register bank starts at
    /// `mmio_base` and which raises interrupt `irq`.
    pub fn new(mmio_base: u64, irq: u32) -> Self {
        Self {
            mmio_base,
            irq,
            cost: SyscallCost::default(),
        }
    }

    /// The engine's register bank base.
    pub fn mmio_base(&self) -> u64 {
        self.mmio_base
    }

    /// The engine's interrupt number.
    pub fn irq(&self) -> u32 {
        self.irq
    }

    /// The engine's interrupt number for errors.
    pub fn error_irq(&self) -> u32 {
        self.irq + regs::ERROR_IRQ_OFFSET
    }

    pub(crate) fn reg(&self, offset: u64) -> u64 {
        self.mmio_base + offset
    }

    /// Expands `cohort_register(acc_id, in, out)` into the program the
    /// calling core executes: kernel entry cost, the descriptor writes,
    /// the page-table root, optional CSR buffer, backoff, then enable.
    ///
    /// # Panics
    /// Panics if a descriptor fails validation — the driver is the
    /// enforcement point (§4.4: "user space may not touch Cohort's
    /// configuration registers").
    pub fn register_ops(
        &self,
        root_pa: u64,
        input: &QueueDescriptor,
        output: &QueueDescriptor,
        csr: Option<(u64, u64)>,
        backoff: u64,
    ) -> Program {
        input.validate().expect("input descriptor invalid");
        output.validate().expect("output descriptor invalid");
        let mut p = Program::new();
        p.push(Op::KernelCost {
            cycles: self.cost.cycles,
            insts: self.cost.insts,
        });
        // The epoch registers reset to zero, so a zero-epoch binding (the
        // common, never-migrated case) skips the two writes.
        for (off, epoch) in [
            (regs::IN_EPOCH, input.epoch),
            (regs::OUT_EPOCH, output.epoch),
        ] {
            if epoch != 0 {
                p.push(Op::MmioStore {
                    pa: self.reg(off),
                    value: epoch,
                });
            }
        }
        let binding = binding_writes(root_pa, input, output, csr, backoff);
        for (off, value) in binding.into_iter().chain([(regs::ENABLE, 1)]) {
            p.push(Op::MmioStore {
                pa: self.reg(off),
                value,
            });
        }
        p
    }

    /// Expands `cohort_unregister`: disable the engine, flush its TLB
    /// (resource teardown, §4.4), plus kernel exit cost.
    pub fn unregister_ops(&self) -> Program {
        let mut p = Program::new();
        p.push(Op::KernelCost {
            cycles: self.cost.cycles / 2,
            insts: self.cost.insts / 2,
        });
        p.push(Op::MmioStore {
            pa: self.reg(regs::ENABLE),
            value: 0,
        });
        p.push(Op::MmioStore {
            pa: self.reg(regs::TLB_FLUSH),
            value: 1,
        });
        p
    }

    /// The MMU-notifier path: a TLB shootdown reaching this engine
    /// (invoked by the kernel when mappings of a registered process
    /// change).
    pub fn tlb_flush_ops(&self) -> Program {
        let mut p = Program::new();
        p.push(Op::KernelCost {
            cycles: 80,
            insts: 60,
        });
        p.push(Op::MmioStore {
            pa: self.reg(regs::TLB_FLUSH),
            value: 1,
        });
        p
    }

    /// Arms (or, with 0, disarms) the engine's forward-progress watchdog.
    /// Deliberately cheap: one register write, usable while enabled.
    pub fn watchdog_ops(&self, cycles: u64) -> Program {
        let mut p = Program::new();
        p.push(Op::KernelCost {
            cycles: 40,
            insts: 30,
        });
        p.push(Op::MmioStore {
            pa: self.reg(regs::WATCHDOG),
            value: cycles,
        });
        p
    }

    /// Points the engine's checkpoint spill area ([`regs::SPILL_PA`]) at
    /// physical address `pa`. Armed before faults so the watchdog abort
    /// path can spill datapath residue for exactly-once migration.
    pub fn spill_ops(&self, pa: u64) -> Program {
        let mut p = Program::new();
        p.push(Op::KernelCost {
            cycles: 40,
            insts: 30,
        });
        p.push(Op::MmioStore {
            pa: self.reg(regs::SPILL_PA),
            value: pa,
        });
        p
    }
}

/// The engine binding `cohort_register` writes and a failover rebind
/// repeats on the spare, as `(register, value)` in write order: both queue
/// descriptors, the page-table root, the backoff window and the CSR
/// buffer.
pub(crate) fn binding_writes(
    root_pa: u64,
    input: &QueueDescriptor,
    output: &QueueDescriptor,
    csr: Option<(u64, u64)>,
    backoff: u64,
) -> [(u64, u64); 14] {
    [
        (regs::IN_WR_VA, input.write_index_va),
        (regs::IN_RD_VA, input.read_index_va),
        (regs::IN_BASE_VA, input.base_va),
        (regs::IN_ELEM, u64::from(input.element_bytes)),
        (regs::IN_LEN, u64::from(input.length)),
        (regs::OUT_WR_VA, output.write_index_va),
        (regs::OUT_RD_VA, output.read_index_va),
        (regs::OUT_BASE_VA, output.base_va),
        (regs::OUT_ELEM, u64::from(output.element_bytes)),
        (regs::OUT_LEN, u64::from(output.length)),
        (regs::PT_ROOT_PA, root_pa),
        (regs::BACKOFF, backoff),
        (regs::CSR_BASE_VA, csr.map_or(0, |(va, _)| va)),
        (regs::CSR_LEN, csr.map_or(0, |(_, len)| len)),
    ]
}

/// Shard placement policy: how a [`ShardPool`] steers the next queue
/// element (or element run) onto one of its engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Placement {
    /// Static round-robin: shard `i`, `i+1`, … regardless of load.
    #[default]
    RoundRobin,
    /// Steer to the shard whose in-queue occupancy mirror is lowest
    /// (ties break toward the lowest shard index, keeping placement
    /// deterministic). With uniform element weights this degenerates to
    /// round-robin; under skewed weights it is greedy least-loaded.
    OccupancyAware,
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::RoundRobin => write!(f, "rr"),
            Placement::OccupancyAware => write!(f, "occupancy"),
        }
    }
}

impl std::str::FromStr for Placement {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rr" | "round-robin" => Ok(Placement::RoundRobin),
            "occupancy" | "occ" => Ok(Placement::OccupancyAware),
            other => Err(format!("unknown placement '{other}' (use rr|occupancy)")),
        }
    }
}

/// Why a [`ShardPool`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// Zero shards requested.
    NoShards,
    /// More shards (plus reserved spares) than the SoC has engines.
    NotEnoughEngines {
        /// Shards requested.
        requested: usize,
        /// Engines the pool may draw on.
        engines: usize,
        /// Engines held back as failover spares.
        spares: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "shard pool needs at least one shard"),
            ShardError::NotEnoughEngines {
                requested,
                engines,
                spares,
            } => write!(
                f,
                "{requested} shard(s) + {spares} spare(s) exceed the {engines} configured engine(s)"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// One placement decision of a [`ShardPool`]: the element run's global
/// sequence number and the shard it was steered onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Position in the logical stream, in placement order. The
    /// sequence-tagged merge (`cohort_queue::merge`) releases results in
    /// exactly this order.
    pub seq: u64,
    /// Index of the chosen shard within the pool.
    pub shard: usize,
}

/// A driver-level queue sharder: splits one logical SPSC stream over N
/// physical engines, one in/out queue pair (and registration) per shard.
///
/// Work is split at queue-element granularity: each [`ShardPool::place`]
/// call assigns the next element run to a shard under the configured
/// [`Placement`] policy and tags it with a global sequence number. Within
/// a shard, elements stay FIFO (the shard is an ordinary SPSC stream);
/// across shards the consumer restores the logical order with the
/// sequence-tagged merge in `cohort_queue::merge`.
///
/// The pool maintains a *software occupancy mirror* per shard — weight
/// placed minus weight completed — which is what the occupancy-aware
/// policy steers on. The mirror deliberately tracks the driver's view,
/// not the engine's registers: reading `CONSUMED` over MMIO on every
/// placement would cost more than the imbalance it avoids. The sharded
/// run's verifier checks the books balance: once the merge has drained,
/// every shard's mirror reads 0 ([`ShardPool::occupancy`]).
///
/// Failover composes per shard: a killed shard's queues migrate onto a
/// spare through the existing epoch-fenced path
/// ([`crate::kernel::IrqAction::Failover`]); the pool itself holds no
/// engine state, so a rebind needs no pool surgery.
#[derive(Debug, Clone)]
pub struct ShardPool {
    policy: Placement,
    /// Weight placed but not yet completed, per shard.
    occupancy: Vec<u64>,
    /// Total weight ever placed, per shard (for post-run diagnostics).
    placed_weight: Vec<u64>,
    /// Element runs placed, per shard.
    placed_runs: Vec<u64>,
    rr_next: usize,
    next_seq: u64,
}

impl ShardPool {
    /// A pool over the first `shards` of `engines` engines, holding back
    /// `spares` engines (from the tail) for failover.
    ///
    /// # Errors
    /// [`ShardError::NoShards`] when `shards` is zero,
    /// [`ShardError::NotEnoughEngines`] when `shards + spares` exceeds
    /// the available engine count — the clean-rejection contract the CLI
    /// surfaces instead of a panic.
    pub fn bind(
        engines: usize,
        shards: usize,
        spares: usize,
        policy: Placement,
    ) -> Result<Self, ShardError> {
        if shards == 0 {
            return Err(ShardError::NoShards);
        }
        if shards + spares > engines {
            return Err(ShardError::NotEnoughEngines {
                requested: shards,
                engines,
                spares,
            });
        }
        Ok(Self {
            policy,
            occupancy: vec![0; shards],
            placed_weight: vec![0; shards],
            placed_runs: vec![0; shards],
            rr_next: 0,
            next_seq: 0,
        })
    }

    /// Number of shards in the pool.
    pub fn shards(&self) -> usize {
        self.occupancy.len()
    }

    /// The placement policy.
    pub fn policy(&self) -> Placement {
        self.policy
    }

    /// Steers the next element run (of `weight` queue elements) onto a
    /// shard, charges the weight to that shard's occupancy mirror and
    /// returns the sequence-tagged assignment.
    pub fn place(&mut self, weight: u64) -> ShardAssignment {
        let shard = match self.policy {
            Placement::RoundRobin => {
                let s = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.shards();
                s
            }
            Placement::OccupancyAware => self
                .occupancy
                .iter()
                .enumerate()
                .min_by_key(|&(i, &occ)| (occ, i))
                .map(|(i, _)| i)
                .expect("pool has at least one shard"),
        };
        self.occupancy[shard] += weight;
        self.placed_weight[shard] += weight;
        self.placed_runs[shard] += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        ShardAssignment { seq, shard }
    }

    /// Credits `weight` completed (popped) elements back to shard
    /// `shard`'s occupancy mirror.
    ///
    /// Completing more weight than was placed is accounting corruption
    /// (a double credit or a mis-attributed shard): debug builds assert;
    /// release builds clamp at zero so a long chaos run degrades to
    /// skewed placement rather than an underflow panic.
    pub fn complete(&mut self, shard: usize, weight: u64) {
        debug_assert!(
            self.occupancy[shard] >= weight,
            "occupancy underflow on shard {shard}: completing {weight} with only {} outstanding",
            self.occupancy[shard]
        );
        self.occupancy[shard] = self.occupancy[shard].saturating_sub(weight);
    }

    /// Shard `shard`'s occupancy mirror: weight placed minus completed.
    pub fn occupancy(&self, shard: usize) -> u64 {
        self.occupancy[shard]
    }

    /// Total weight ever placed on shard `shard`.
    pub fn placed_weight(&self, shard: usize) -> u64 {
        self.placed_weight[shard]
    }

    /// Element runs ever placed on shard `shard`.
    pub fn placed_runs(&self, shard: usize) -> u64 {
        self.placed_runs[shard]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_queue::QueueLayout;

    fn descs() -> (QueueDescriptor, QueueDescriptor) {
        (
            QueueLayout::standard(0x10_0000, 8, 64).descriptor,
            QueueLayout::standard(0x20_0000, 8, 64).descriptor,
        )
    }

    #[test]
    fn register_program_writes_all_registers() {
        let d = CohortDriver::new(0x4000_0000, 5);
        let (i, o) = descs();
        let (i, o) = (i.with_epoch(3), o.with_epoch(3));
        let ops: Vec<Op> = d
            .register_ops(0x100_0000, &i, &o, Some((0x30_0000, 17)), 32)
            .collect();
        let stores: Vec<_> = ops
            .iter()
            .filter_map(|op| match *op {
                Op::MmioStore { pa, value } => Some((pa, value)),
                _ => None,
            })
            .collect();
        assert_eq!(stores.len(), 17);
        assert_eq!(
            stores.last(),
            Some(&(0x4000_0000 + regs::ENABLE, 1)),
            "enable must be the final write"
        );
        assert!(stores.contains(&(0x4000_0000 + regs::IN_WR_VA, i.write_index_va)));
        assert!(stores.contains(&(0x4000_0000 + regs::CSR_LEN, 17)));
        assert!(stores.contains(&(0x4000_0000 + regs::IN_EPOCH, 3)));
        assert!(stores.contains(&(0x4000_0000 + regs::OUT_EPOCH, 3)));
        assert!(
            matches!(ops[0], Op::KernelCost { .. }),
            "syscall entry first"
        );

        // A zero-epoch (never-migrated) binding skips the epoch writes:
        // the registers reset to zero, and the common registration path
        // stays cycle-identical to a pre-epoch driver.
        let (i0, o0) = descs();
        let p0 = d.register_ops(0x100_0000, &i0, &o0, Some((0x30_0000, 17)), 32);
        let mmio0 = p0.filter(|op| matches!(op, Op::MmioStore { .. })).count();
        assert_eq!(mmio0, 15, "no epoch writes for an epoch-0 binding");
    }

    #[test]
    fn unregister_disables_and_flushes() {
        let d = CohortDriver::new(0x4000_0000, 5);
        let ops: Vec<Op> = d.unregister_ops().collect();
        assert!(ops
            .iter()
            .any(|op| matches!(op, Op::MmioStore { pa, value: 0 } if *pa == 0x4000_0000)));
        assert!(ops.iter().any(
            |op| matches!(op, Op::MmioStore { pa, .. } if *pa == 0x4000_0000 + regs::TLB_FLUSH)
        ));
    }

    #[test]
    #[should_panic(expected = "input descriptor invalid")]
    fn register_validates_descriptors() {
        let d = CohortDriver::new(0x4000_0000, 5);
        let (mut i, o) = descs();
        i.length = 0;
        let _ = d.register_ops(0, &i, &o, None, 0);
    }

    #[test]
    fn watchdog_program_writes_register() {
        let d = CohortDriver::new(0x4000_0000, 5);
        let mut p = d.watchdog_ops(50_000);
        assert!(p.any(|op| matches!(
            op,
            Op::MmioStore { pa, value: 50_000 } if pa == 0x4000_0000 + regs::WATCHDOG
        )));
    }

    #[test]
    fn shard_pool_rejects_zero_and_oversubscription() {
        assert_eq!(
            ShardPool::bind(4, 0, 0, Placement::RoundRobin).err(),
            Some(ShardError::NoShards)
        );
        assert_eq!(
            ShardPool::bind(4, 4, 1, Placement::RoundRobin).err(),
            Some(ShardError::NotEnoughEngines {
                requested: 4,
                engines: 4,
                spares: 1,
            })
        );
        assert!(ShardPool::bind(4, 3, 1, Placement::RoundRobin).is_ok());
    }

    #[test]
    fn round_robin_cycles_and_tags_sequences() {
        let mut pool = ShardPool::bind(3, 3, 0, Placement::RoundRobin).unwrap();
        let picks: Vec<_> = (0..6).map(|_| pool.place(2)).collect();
        let shards: Vec<_> = picks.iter().map(|a| a.shard).collect();
        let seqs: Vec<_> = picks.iter().map(|a| a.seq).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(pool.occupancy(0), 4);
        pool.complete(0, 2);
        assert_eq!(pool.occupancy(0), 2);
        assert_eq!(pool.placed_weight(0), 4, "completion keeps totals");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "occupancy underflow"))]
    fn complete_catches_occupancy_underflow() {
        // Crediting more weight than a shard has outstanding is accounting
        // corruption: debug builds assert (this test), release builds
        // clamp at zero instead of wrapping.
        let mut pool = ShardPool::bind(2, 2, 0, Placement::RoundRobin).unwrap();
        pool.place(3); // shard 0 now carries 3
        pool.complete(0, 5);
        // Only reached without debug assertions: clamped, not wrapped.
        assert_eq!(pool.occupancy(0), 0);
    }

    #[test]
    fn occupancy_aware_balances_skewed_weights() {
        // Skewed runs: one heavy run then many light ones. Round-robin
        // blindly stacks further work on the heavy shard; the
        // occupancy-aware policy routes around it.
        let weights = [16u64, 1, 1, 1, 1, 1, 1, 1];
        let makespan = |policy: Placement| {
            let mut pool = ShardPool::bind(2, 2, 0, policy).unwrap();
            for &w in &weights {
                pool.place(w);
            }
            (0..2).map(|s| pool.placed_weight(s)).max().unwrap()
        };
        let rr = makespan(Placement::RoundRobin);
        let occ = makespan(Placement::OccupancyAware);
        assert_eq!(rr, 19, "rr alternates: 16+1+1+1 vs 1+1+1+1");
        assert_eq!(occ, 16, "occupancy leaves the heavy shard alone");
        assert!(occ < rr);
    }

    #[test]
    fn occupancy_aware_ties_break_deterministically() {
        let mut pool = ShardPool::bind(3, 3, 0, Placement::OccupancyAware).unwrap();
        // Equal weights: all shards tie in turn, lowest index wins, so
        // the policy degenerates to round-robin exactly.
        let shards: Vec<_> = (0..6).map(|_| pool.place(1).shard).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn shard_pool_binds_prefix_of_engine_list() {
        let pool = ShardPool::bind(4, 2, 1, Placement::RoundRobin).unwrap();
        assert_eq!(pool.shards(), 2);
    }

    #[test]
    fn placement_parses_and_prints() {
        assert_eq!("rr".parse::<Placement>().unwrap(), Placement::RoundRobin);
        assert_eq!(
            "occupancy".parse::<Placement>().unwrap(),
            Placement::OccupancyAware
        );
        assert!("xyzzy".parse::<Placement>().is_err());
        assert_eq!(Placement::OccupancyAware.to_string(), "occupancy");
    }

    #[test]
    fn error_register_offsets_are_inside_the_bank() {
        // Bank-bounds checks live as `const` assertions in the regs module.
        assert_ne!(regs::ERROR_STATUS, regs::PRODUCED);
        // The sticky bits are distinct one-hot values.
        let bits = [
            regs::ERR_BAD_DESCRIPTOR,
            regs::ERR_WATCHDOG_CONS,
            regs::ERR_WATCHDOG_PROD,
            regs::ERR_CSR_REJECTED,
            regs::ERR_ENGINE_DEAD,
            regs::ERR_STALE_EPOCH,
        ];
        for (n, b) in bits.iter().enumerate() {
            assert_eq!(b.count_ones(), 1);
            for later in &bits[n + 1..] {
                assert_ne!(b, later);
            }
        }
    }
}
