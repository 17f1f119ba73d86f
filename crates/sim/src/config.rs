//! SoC configuration: cache geometries, timing constants, NoC parameters.
//!
//! Defaults follow the paper's evaluation platform (§5): OpenPiton's default
//! configuration of 8 KiB L1D + 8 KiB L1.5 private caches (modelled as one
//! private level), a 64 KiB 4-way shared L2, a 16-entry Cohort TLB, and
//! 64-bit endpoint interfaces, on a four-tile design.

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// Creates a geometry; `capacity_bytes` must be a multiple of
    /// `ways * LINE_BYTES`.
    ///
    /// # Panics
    /// Panics if the capacity does not divide evenly into sets.
    pub fn new(capacity_bytes: u64, ways: u32) -> Self {
        let line_per_way = capacity_bytes / u64::from(ways);
        assert!(
            line_per_way.is_multiple_of(crate::LINE_BYTES) && line_per_way > 0,
            "capacity {capacity_bytes} not divisible into {ways} ways of whole lines"
        );
        Self {
            capacity_bytes,
            ways,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (u64::from(self.ways) * crate::LINE_BYTES)
    }
}

/// Latency and bandwidth constants for the timing model.
///
/// These are the calibration knobs discussed in `DESIGN.md` §2 item 1: the
/// mechanisms are structural (who talks to whom, and when), while absolute
/// constants are calibrated so the reproduced figures have the paper's
/// shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingConfig {
    /// Private cache hit latency (cycles).
    pub l1_hit: u64,
    /// L2 tag + data access latency at the directory (cycles).
    pub l2_hit: u64,
    /// DRAM fill latency on an L2 miss (cycles).
    pub dram: u64,
    /// NoC router+link latency per hop (cycles).
    pub noc_per_hop: u64,
    /// Fixed NoC injection/ejection overhead (cycles).
    pub noc_base: u64,
    /// Device-side processing latency for an MMIO access (cycles).
    pub mmio_device: u64,
    /// Store buffer depth of the in-order core.
    pub store_buffer: usize,
    /// Distinct lines the store buffer may acquire in parallel (MSHRs).
    pub sb_mshrs: usize,
    /// Cycles for a spin-loop iteration's non-load work (compare + branch).
    pub spin_alu: u64,
    /// Instructions retired per spin-loop iteration (load+compare+branch).
    pub spin_insts: u64,
    /// Write-coherency-manager turnaround: cycles the Cohort producer
    /// endpoint waits between a data-block write completing coherently and
    /// the write-index publication (ordering drain, §4.2.3).
    pub wcm_turnaround: u64,
    /// If true, the engine's consumer and producer endpoints share one
    /// memory transaction engine and their operations serialize (the
    /// Fig. 6 single-MTE organisation); if false the MTE accepts one
    /// operation per endpoint concurrently.
    pub mte_shared: bool,
    /// Kernel entry/exit cost charged when a modelled interrupt handler or
    /// syscall runs (cycles).
    pub trap_cost: u64,
    /// Instructions retired by a modelled trap (for IPC accounting).
    pub trap_insts: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self {
            l1_hit: 2,
            l2_hit: 8,
            dram: 30,
            noc_per_hop: 5,
            noc_base: 4,
            mmio_device: 130,
            store_buffer: 8,
            sb_mshrs: 4,
            spin_alu: 4,
            spin_insts: 3,
            mte_shared: false,
            wcm_turnaround: 100,
            trap_cost: 260,
            trap_insts: 180,
        }
    }
}

/// Cycle-batching policy of the simulation kernel.
///
/// Under [`Lookahead::Auto`] each slot sleeps until the wake time its
/// [`crate::component::Component::quiescent_for`] hint gave when it was
/// last stepped (or until a message arrives for it), so a stepped cycle
/// steps only the slots with work; and when nobody is awake, the run loop
/// jumps the cycle counter to the earlier of the next NoC delivery and
/// every slot's wake time — one cycle ahead or many — instead of stepping
/// provable no-op cycles. Results are
/// bit-identical to [`Lookahead::Force1`] by construction — hints never
/// overshoot, and slept per-cycle bookkeeping is reconciled by
/// `Component::fast_forward`.
///
/// One caveat: `Soc::run_until` predicates that key on the raw cycle
/// counter (rather than component/NoC state) may observe the cycle
/// *after* a jump and so fire later than under `Force1`. Such harness
/// code should pin `Force1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lookahead {
    /// Step every slot on every cycle (the pre-batching kernel). Baseline
    /// for the determinism suite and for cycle-predicate harnesses.
    Force1,
    /// Per-slot sleep/wake + idle fast-forward (default).
    #[default]
    Auto,
}

/// Top-level SoC configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocConfig {
    /// Private (L1 + L1.5 combined) cache geometry per core.
    pub l1: CacheConfig,
    /// Shared, inclusive L2 geometry at the directory.
    pub l2: CacheConfig,
    /// Timing constants.
    pub timing: TimingConfig,
    /// Cohort engines instantiated on the mesh (spare-inclusive): the
    /// pool a shard sweep may bind shards onto. Scenarios that manage
    /// their own engine list (the chain pipelines) ignore this.
    pub engines: usize,
    /// Entries in the Cohort engine / MAPLE MMU TLB (paper: 16).
    pub tlb_entries: usize,
    /// Deterministic fault-injection plan (empty by default: no faults).
    pub faults: crate::faultinject::FaultPlan,
    /// Inert: nothing in the workspace reads it, and a run is the same
    /// run at any value. It exists because `benchmark/src/layers.rs:373`
    /// assigns `scenario.soc.threads = 2` for its `par2` leg; the
    /// `benchmark` PR that drops that leg (ROADMAP, open items) removes
    /// this field with it.
    #[doc(hidden)]
    pub threads: usize,
    /// Cycle-batching policy (default [`Lookahead::Auto`]).
    pub lookahead: Lookahead,
    /// Opt-in DRAM contention model (banks/channels, row buffers, bounded
    /// per-channel queues) plus directory MSHR limits and NoC ejection
    /// backpressure. `None` (the default) keeps the flat
    /// [`TimingConfig::dram`] fill latency and an unbounded directory, so
    /// every pre-existing baseline stays bit-identical.
    pub dram: Option<crate::dram::DramConfig>,
}

impl Default for SocConfig {
    fn default() -> Self {
        Self {
            // 8 KiB L1D + 8 KiB L1.5 modelled as one 16 KiB private level.
            l1: CacheConfig::new(16 * 1024, 4),
            l2: CacheConfig::new(64 * 1024, 4),
            timing: TimingConfig::default(),
            engines: 1,
            tlb_entries: 16,
            faults: crate::faultinject::FaultPlan::default(),
            threads: 1,
            lookahead: Lookahead::default(),
            dram: None,
        }
    }
}

impl SocConfig {
    /// Convenience builder-style override of the L2 geometry.
    pub fn with_l2(mut self, l2: CacheConfig) -> Self {
        self.l2 = l2;
        self
    }

    /// Convenience builder-style override of the engine-pool size.
    pub fn with_engines(mut self, n: usize) -> Self {
        self.engines = n;
        self
    }

    /// Convenience builder-style override of the TLB size.
    pub fn with_tlb_entries(mut self, n: usize) -> Self {
        self.tlb_entries = n;
        self
    }

    /// Convenience builder-style override of the fault-injection plan.
    pub fn with_faults(mut self, faults: crate::faultinject::FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Convenience builder-style override of the cycle-batching policy.
    pub fn with_lookahead(mut self, lookahead: Lookahead) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// Convenience builder-style enabling of the DRAM contention model.
    pub fn with_dram(mut self, dram: crate::dram::DramConfig) -> Self {
        self.dram = Some(dram);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_platform() {
        let cfg = SocConfig::default();
        assert_eq!(cfg.l2.capacity_bytes, 64 * 1024);
        assert_eq!(cfg.l2.ways, 4);
        assert_eq!(cfg.tlb_entries, 16);
    }

    #[test]
    fn sets_computed_from_geometry() {
        let c = CacheConfig::new(64 * 1024, 4);
        assert_eq!(c.sets(), 64 * 1024 / (4 * 64));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_ragged_geometry() {
        let _ = CacheConfig::new(100, 3);
    }

    #[test]
    fn builder_overrides() {
        let cfg = SocConfig::default()
            .with_tlb_entries(4)
            .with_engines(4)
            .with_l2(CacheConfig::new(128 * 1024, 8));
        assert_eq!(cfg.tlb_entries, 4);
        assert_eq!(cfg.engines, 4);
        assert_eq!(cfg.l2.ways, 8);
    }
}
