//! Markdown/CSV rendering of the reproduced figures and tables.

use crate::area::{table4, Table4Row};
use crate::params::{min_batch, AES_BATCHES, PEAK_BATCH, QUEUE_SIZES, SHA_BATCHES, TABLE3_SIZES};
use crate::sweep::{Mode, Sweep};
use cohort::scenarios::{
    mesh16_scenario, run_cohort, run_scenario, CustomRun, RunResult, Runner, Scenario, ShardSpec,
    Workload,
};
use cohort_accel::nullfifo::NullFifo;
use cohort_os::addrspace::MapPolicy;
use cohort_sim::config::{Lookahead, SocConfig};

/// One file of `results/`: its name, its `# ` heading, and what renders
/// the rest from the shared sweep.
pub type Artefact = (&'static str, &'static str, fn(&mut Sweep) -> String);

/// Every table and figure the `all` binary regenerates, in the order it
/// writes them. All of it is simulated cycles or arithmetic, so every file
/// is the same on any host.
#[rustfmt::skip] // a table: one artefact per row
pub const ARTEFACTS: [Artefact; 11] = [
    ("table2.md", "Table 2 — Benchmark Tuning Parameters", |_| crate::params::table2_markdown()),
    ("fig8.md", "Figure 8 — Program latency with SHA accelerator", |sw| latency_report(sw, Workload::Sha)),
    ("fig9.md", "Figure 9 — Program latency with AES accelerator", |sw| latency_report(sw, Workload::Aes)),
    ("table3.md", "Table 3 — Peak speedups (Cohort batch = 64)", table3_report),
    ("fig10.md", "Figure 10 — IPC performance with SHA accelerator", |sw| ipc_figure(sw, Workload::Sha)),
    ("fig11.md", "Figure 11 — IPC performance with AES accelerator", |sw| ipc_figure(sw, Workload::Aes)),
    ("table4.md", "Table 4 — FPGA resource utilisation", |_| table4_markdown(&SocConfig::default())),
    ("scaling.md", "Shard scaling — multi-engine queue sharding", scaling_figure),
    ("scaling_dram.md", "Shard scaling under DRAM contention — where the knee is", scaling_dram_report),
    ("kernel.md", "Step kernel — lookahead batching vs forced cycle-by-cycle stepping", |_| kernel_report()),
    ("ablation.md", "Ablation studies", |_| ablation_report()),
];

/// One case of the kernel record (`kernel.md`) and of the determinism
/// suite's kernel-floor test: a scenario run under both `Force1` and
/// `Auto`.
pub struct KernelCase {
    /// Row label.
    pub name: &'static str,
    runner: Runner,
    scenario: Scenario,
    spec: Option<ShardSpec>,
    /// Least Force1-over-Auto barrier drop the test accepts: between what
    /// the case measured while a hint of 1 still bought a step (in the
    /// comments below) and what it measures since hints are exact.
    pub min_drop: f64,
}

impl KernelCase {
    /// Runs the case under `lookahead`.
    ///
    /// # Panics
    /// Panics if the run is refused or fails verification.
    pub fn run(&self, lookahead: Lookahead) -> RunResult {
        let mut scenario = self.scenario.clone();
        scenario.soc.lookahead = lookahead;
        let r = run_scenario(self.runner, &scenario, self.spec.as_ref())
            .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        assert!(r.verified, "{}: unverified under {lookahead:?}", self.name);
        r
    }
}

/// The kernel cases, all at queue 256.
pub fn kernel_cases() -> [KernelCase; 3] {
    let mut sharded = Scenario::new(Workload::Aes, 256, 8);
    sharded.soc = SocConfig::default().with_engines(4);
    let (mesh, mesh_spec) = mesh16_scenario(256, 8);
    [
        KernelCase {
            name: "sharded-aes (4 engines)",
            runner: Runner::Sharded,
            scenario: sharded,
            spec: Some(ShardSpec::new(4)),
            min_drop: 4.8, // 4.5x -> 5.4x
        },
        // Back-pressured store buffers used to pin mesh16 at 1.0x.
        KernelCase {
            name: "mesh16 big.LITTLE",
            runner: Runner::Sharded,
            scenario: mesh,
            spec: Some(mesh_spec),
            min_drop: 1.8, // 1.7x -> 1.9x
        },
        // One engine, one core that spins on the output index between
        // batches: where sleeping through the spin loop matters most.
        // 2.7x while the spinning core was stepped, 5.9x since it sleeps
        // until the invalidation, 7.1x since an L1 hit's second cycle is
        // slept through.
        KernelCase {
            name: "cohort-sha (1 engine)",
            runner: Runner::Cohort,
            scenario: Scenario::new(Workload::Sha, 256, 64),
            spec: None,
            min_drop: 6.3,
        },
    ]
}

/// The kernel record: per [`kernel_cases`] row, what `Auto` stepped,
/// jumped and slept through against the `Force1` reference leg. Host
/// speed is `benchmark/`'s to measure; every number here is a count.
fn kernel_report() -> String {
    let mut s = String::from(
        "| case | cycles | Force1 barriers | barriers | ff cycles | barrier drop | slots/barrier \
         | slots stepped % | silent % | checksum |\n\
         |---|---:|---:|---:|---:|---:|---:|---:|---|---|\n",
    );
    for case in kernel_cases() {
        let f1 = case.run(Lookahead::Force1);
        let auto = case.run(Lookahead::Auto);
        let barriers = auto.barrier_activations.max(1) as f64;
        let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
        let by_class: Vec<String> = auto
            .silent_by_class
            .iter()
            .map(|(class, n)| format!("{class} {n}"))
            .collect();
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.1}x | {:.2} | {:.0} | {:.0}: {} of {} ({}) | `{:#018x}` |\n",
            case.name,
            auto.cycles,
            f1.barrier_activations,
            auto.barrier_activations,
            auto.ff_cycles,
            f1.barrier_activations as f64 / barriers,
            auto.slot_steps as f64 / barriers,
            pct(auto.slot_steps, auto.slot_steps + auto.slot_sleeps),
            pct(auto.silent_steps(), auto.slot_steps),
            auto.silent_steps(),
            auto.slot_steps,
            if by_class.is_empty() { "none".into() } else { by_class.join(", ") },
            auto.checksum,
        ));
    }
    s.push_str(
        "\n(queue 256. `Force1` steps every slot on every cycle, so its barrier count is the \
         number of cycles simulated, past the measured `cycles` where a run simulates on; \
         `Auto` steps only the awake slots and jumps over cycles no slot acts on (ff cycles), \
         with the same cycles, checksum and stats. Slots stepped % is of the \
         slot-cycles on stepped cycles; silent % is of the stepped slots, the steps that \
         received nothing, staged nothing and hinted 0 again, split per component class. \
         The determinism suite holds every row to `Force1` and to its floors.)\n",
    );
    s
}

/// Ablation studies of the engine's design parameters (DESIGN.md §6): the
/// RCM backoff window, the engine TLB size, the page-mapping policy, and
/// the communication-only floor measured with the null accelerator.
fn ablation_report() -> String {
    let kcycles = |r: &RunResult| r.cycles as f64 / 1000.0;
    let run = |s: &Scenario| {
        let r = run_cohort(s);
        assert!(r.verified, "unverified ablation run");
        r
    };

    // The backoff the RCM waits before re-arming (§4.2.3: "optimised to
    // wait a configurable period").
    let mut s = String::from(
        "## RCM backoff window (SHA, queue 1024)\n\n\
         | Backoff (cycles) | batch=8 kcycles | batch=64 kcycles |\n|---|---|---|\n",
    );
    for backoff in [0u64, 100, 300, 700, 1500, 3000] {
        s.push_str(&format!("| {backoff} |"));
        for batch in [8u64, 64] {
            let mut sc = Scenario::new(Workload::Sha, 1024, batch);
            sc.backoff = backoff;
            s.push_str(&format!(" {:.1} |", kcycles(&run(&sc))));
        }
        s.push('\n');
    }
    s.push_str(
        "\nSmall batches are dominated by per-publication reaction chains, so the\n\
         backoff moves them strongly; batch=64 amortises it.\n",
    );

    // Engine TLB size (§6.3 discusses the 16-entry MMU).
    s.push_str(
        "\n## Engine TLB size (SHA, queue 4096)\n\n\
         | TLB entries | kcycles | engine TLB misses |\n|---|---|---|\n",
    );
    for entries in [1usize, 2, 4, 8, 16, 32] {
        let mut sc = Scenario::new(Workload::Sha, 4096, 64);
        sc.soc.tlb_entries = entries;
        let r = run(&sc);
        let misses = r.counter("engine", "tlb_misses").unwrap_or(0);
        s.push_str(&format!("| {entries} | {:.1} | {misses} |\n", kcycles(&r)));
    }

    s.push_str(
        "\n## Mapping policy (SHA, queue 2048, TLB 4)\n\n\
         | Policy | kcycles | faults | TLB misses |\n|---|---|---|---|\n",
    );
    for (name, policy) in [
        ("eager 4 KiB", MapPolicy::Eager),
        ("demand (lazy)", MapPolicy::Lazy),
        ("2 MiB huge pages", MapPolicy::HugePages),
    ] {
        let mut sc = Scenario::new(Workload::Sha, 2048, 64);
        sc.soc.tlb_entries = 4;
        sc.policy = policy;
        let r = run(&sc);
        s.push_str(&format!(
            "| {name} | {:.1} | {} | {} |\n",
            kcycles(&r),
            r.counter("engine", "faults").unwrap_or(0),
            r.counter("engine", "tlb_misses").unwrap_or(0)
        ));
    }

    // The null accelerator isolates the queue-coherence machinery from
    // compute. Block size sets the pointer-update granularity (§4.3): 8 B
    // words show the worst-case per-word cost, 64 B blocks the
    // line-granular floor.
    s.push_str(
        "\n## Communication floor (null accelerator vs real compute, queue 1024)\n\n\
         | Accelerator | kcycles | cycles/element |\n|---|---|---|\n",
    );
    let n = 1024u64;
    let input: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)).collect();
    let null = |block| {
        let fifo = Box::new(NullFifo::with_geometry(block, 1));
        let r = CustomRun::new(fifo, input.clone(), input.clone()).run();
        assert!(r.verified, "unverified null-FIFO run");
        r
    };
    let rows = [
        ("null FIFO, 64 B blocks", null(64)),
        ("null FIFO, 8 B words", null(8)),
        ("Sha", run(&Scenario::new(Workload::Sha, n, 64))),
        ("Aes", run(&Scenario::new(Workload::Aes, n, 64))),
    ];
    for (label, r) in rows {
        let per_element = r.cycles as f64 / n as f64;
        s.push_str(&format!(
            "| {label} | {:.1} | {per_element:.1} |\n",
            kcycles(&r)
        ));
    }
    s
}

/// Fig. 8 / Fig. 9 as committed: the latency series, then the counters of
/// the same memoized runs.
fn latency_report(sweep: &mut Sweep, workload: Workload) -> String {
    format!(
        "{}\n## Observability counters (Cohort, batch 64)\n\n{}",
        latency_figure(sweep, workload),
        stats_figure(sweep, workload)
    )
}

/// Table 3 as committed: the SHA block, then the AES block.
fn table3_report(sweep: &mut Sweep) -> String {
    use paper_table3::*;
    format!(
        "## SHA speedup\n\n{}\n## AES speedup\n\n{}",
        table3_block(sweep, Workload::Sha, &SHA_MMIO, &SHA_DMA, &SHA_BATCHING),
        table3_block(sweep, Workload::Aes, &AES_MMIO, &AES_DMA, &AES_BATCHING),
    )
}

/// The DRAM-contention sweep under the paragraph that says what it shows.
fn scaling_dram_report(sweep: &mut Sweep) -> String {
    format!(
        "The flat-latency memory system (every L2 miss costs the same, no matter\n\
         how many are in flight) can never saturate, so its shard sweep keeps\n\
         gaining with every doubling. With the bank/channel contention model\n\
         enabled (`--dram`), the same sweep stops scaling at the bandwidth knee:\n\
         the channel queue fills, fills get rejected and retried, directory MSHRs\n\
         run out, and the stall propagates back through the cores' MSHRs.\n\n{}",
        scaling_dram_figure(sweep)
    )
}

/// Renders one latency figure (Fig. 8 for SHA, Fig. 9 for AES): series of
/// kilocycle latencies per queue size.
pub fn latency_figure(sweep: &mut Sweep, workload: Workload) -> String {
    let batches: &[u64] = match workload {
        Workload::Sha => &SHA_BATCHES,
        Workload::Aes => &AES_BATCHES,
    };
    let mut modes: Vec<Mode> = batches.iter().map(|&b| Mode::Cohort { batch: b }).collect();
    modes.push(Mode::Mmio);
    modes.push(Mode::Dma);

    let mut s = String::new();
    s.push_str("| Queue size |");
    for m in &modes {
        s.push_str(&format!(" {m} |"));
    }
    s.push_str("\n|---|");
    for _ in &modes {
        s.push_str("---|");
    }
    s.push('\n');
    for &qs in &QUEUE_SIZES {
        s.push_str(&format!("| {qs} |"));
        for m in &modes {
            s.push_str(&format!(" {:.1} |", sweep.kilocycles(workload, *m, qs)));
        }
        s.push('\n');
    }
    s.push_str("\n(latency in kilocycles, lower is better — log-scale in the paper)\n");
    s
}

/// Renders the Table 3 block for one workload, with the paper's values for
/// comparison.
pub fn table3_block(
    sweep: &mut Sweep,
    workload: Workload,
    paper_mmio: &[f64],
    paper_dma: &[f64],
    paper_batching: &[f64],
) -> String {
    let mut s = String::new();
    s.push_str("| Queue size |");
    for qs in TABLE3_SIZES {
        s.push_str(&format!(" {qs} |"));
    }
    s.push_str("\n|---|");
    for _ in TABLE3_SIZES {
        s.push_str("---|");
    }
    s.push('\n');

    type RowFn = Box<dyn FnMut(&mut Sweep, u64) -> f64>;
    let rows: [(&str, RowFn, &[f64]); 3] = [
        (
            "Vs MMIO",
            Box::new(move |sw, qs| sw.speedup(workload, PEAK_BATCH, Mode::Mmio, qs)),
            paper_mmio,
        ),
        (
            "Vs DMA",
            Box::new(move |sw, qs| sw.speedup(workload, PEAK_BATCH, Mode::Dma, qs)),
            paper_dma,
        ),
        (
            "W/ Batching",
            Box::new(move |sw, qs| sw.batching_gain(workload, PEAK_BATCH, qs)),
            paper_batching,
        ),
    ];
    for (name, mut f, paper) in rows {
        s.push_str(&format!("| {name} (measured) |"));
        for &qs in &TABLE3_SIZES {
            s.push_str(&format!(" {:.2} |", f(sweep, qs)));
        }
        s.push('\n');
        s.push_str(&format!("| {name} (paper) |"));
        for p in paper {
            s.push_str(&format!(" {p:.2} |"));
        }
        s.push('\n');
    }
    let _ = min_batch(workload);
    s
}

/// Renders one IPC figure (Fig. 10 for SHA, Fig. 11 for AES).
pub fn ipc_figure(sweep: &mut Sweep, workload: Workload) -> String {
    let mut s = String::new();
    s.push_str("| Queue size | IPC speedup over MMIO | IPC speedup over Coherent DMA |\n");
    s.push_str("|---|---|---|\n");
    for &qs in &QUEUE_SIZES {
        let m = sweep.ipc_speedup(workload, PEAK_BATCH, Mode::Mmio, qs);
        let d = sweep.ipc_speedup(workload, PEAK_BATCH, Mode::Dma, qs);
        s.push_str(&format!("| {qs} | {m:.2} | {d:.2} |\n"));
    }
    s.push_str("\n(Cohort batching factor 64; higher is better)\n");
    s
}

/// Renders the observability companion table for one workload: engine and
/// memory-system counters per queue size for the Cohort mode at the peak
/// batching factor. These come from the same memoized runs as the latency
/// and IPC figures, so appending this table to a report costs no extra
/// simulation.
pub fn stats_figure(sweep: &mut Sweep, workload: Workload) -> String {
    let mode = Mode::Cohort { batch: PEAK_BATCH };
    let mut s = String::new();
    s.push_str(
        "| Queue size | L1 hits | L1 misses | L2 hits | DRAM fills | Invs | NoC msgs | Eng consumed | Eng backoffs | RCM invs | TLB misses |
",
    );
    s.push_str(
        "|---|---|---|---|---|---|---|---|---|---|---|
",
    );
    for &qs in &QUEUE_SIZES {
        let core = |sw: &mut Sweep, n| sw.stat(workload, mode, qs, "core", n);
        let dir = |sw: &mut Sweep, n| sw.stat(workload, mode, qs, "directory", n);
        let eng = |sw: &mut Sweep, n| sw.stat(workload, mode, qs, "engine", n);
        let noc = dir(sweep, "gets") + dir(sweep, "getm"); // request msgs
        s.push_str(&format!(
            "| {qs} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |
",
            core(sweep, "l1_hits"),
            core(sweep, "l1_misses"),
            dir(sweep, "l2_hits"),
            dir(sweep, "fills"),
            dir(sweep, "inv_sent"),
            noc,
            eng(sweep, "consumed"),
            eng(sweep, "backoffs"),
            eng(sweep, "rcm_invalidations"),
            eng(sweep, "tlb_misses"),
        ));
    }
    s.push_str("
(observability-registry counters for the Cohort runs above; see `socrun --stats` for the full registry including histograms)
");
    s
}

/// Renders the shard-scaling figure: AES throughput of the sharded driver
/// at 1..N engines (uniform stream, round-robin), plus the skewed-stream
/// placement-policy comparison. Speedups are against the 1-shard run on
/// the same seed and stream.
pub fn scaling_figure(sweep: &mut Sweep) -> String {
    use crate::params::{SHARD_COUNTS, SHARD_QUEUE};
    use cohort_os::driver::Placement;

    let wl = Workload::Aes;
    let base = sweep
        .run_sharded(wl, 1, Placement::RoundRobin, false, SHARD_QUEUE, None)
        .cycles as f64;
    let mut s = String::new();
    s.push_str("| Shards | Uniform (kcycles) | Speedup | Skewed rr (kcycles) | Skewed occupancy (kcycles) | Occupancy gain |\n");
    s.push_str("|---|---|---|---|---|---|\n");
    for &n in &SHARD_COUNTS {
        let uni = sweep
            .run_sharded(wl, n, Placement::RoundRobin, false, SHARD_QUEUE, None)
            .cycles as f64;
        let skew_rr = sweep
            .run_sharded(wl, n, Placement::RoundRobin, true, SHARD_QUEUE, None)
            .cycles as f64;
        let skew_occ = sweep
            .run_sharded(wl, n, Placement::OccupancyAware, true, SHARD_QUEUE, None)
            .cycles as f64;
        s.push_str(&format!(
            "| {n} | {:.1} | {:.2}x | {:.1} | {:.1} | {:.2}x |\n",
            uni / 1000.0,
            base / uni,
            skew_rr / 1000.0,
            skew_occ / 1000.0,
            skew_rr / skew_occ,
        ));
    }
    s.push_str(&format!(
        "\n(AES, queue {SHARD_QUEUE}, batch {}, one producer core per shard; skewed = every 4th element run heavy. \
         Speedup is vs the 1-shard sharded run; occupancy gain is skewed rr / skewed occupancy.)\n",
        crate::params::PEAK_BATCH
    ));
    s
}

/// Renders the DRAM-contention shard sweep (`results/scaling_dram.md`):
/// the same 1..N sharded AES stream under the flat-latency memory system
/// and under the contended [`crate::params::DRAM_SWEEP_SPEC`] model, plus
/// the skewed-stream placement comparison with contention on. The flat
/// column keeps gaining with every doubling; the contended column stops
/// at the bandwidth knee — with per-run saturation counters showing why.
///
/// # Panics
/// Panics if [`crate::params::DRAM_SWEEP_SPEC`] stops parsing (a unit
/// test pins it) or any underlying run fails verification.
/// Reads one counter out of a run's stats-registry JSON snapshot. The NoC
/// registers its counters directly in the registry (it is not a
/// component), so they are absent from `RunResult::counters`; the
/// registry document is dependency-free `"scoped.name": value` lines,
/// which this scans without a JSON parser.
fn registry_counter(stats_json: &str, scoped_name: &str) -> u64 {
    let needle = format!("\"{scoped_name}\": ");
    stats_json
        .find(&needle)
        .map(|i| {
            stats_json[i + needle.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

pub fn scaling_dram_figure(sweep: &mut Sweep) -> String {
    use crate::params::{DRAM_SHARD_COUNTS, DRAM_SHARD_QUEUE, DRAM_SWEEP_SPEC};
    use cohort_os::driver::Placement;
    use cohort_sim::dram::DramConfig;

    let wl = Workload::Aes;
    let dram = DramConfig::from_spec(DRAM_SWEEP_SPEC).expect("pinned sweep spec parses");
    let rr = Placement::RoundRobin;
    let occ = Placement::OccupancyAware;

    let flat_base = sweep
        .run_sharded(wl, 1, rr, false, DRAM_SHARD_QUEUE, None)
        .cycles as f64;
    let dram_base = sweep
        .run_sharded(wl, 1, rr, false, DRAM_SHARD_QUEUE, Some(&dram))
        .cycles as f64;

    let mut s = String::new();
    s.push_str(&format!("DRAM spec: `{DRAM_SWEEP_SPEC}`\n\n"));
    s.push_str(
        "| Shards | Flat (kcycles) | Flat speedup | DRAM (kcycles) | DRAM speedup | Row hit % | MSHR stalls | Queue rejects | NoC deferred |\n",
    );
    s.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for &n in &DRAM_SHARD_COUNTS {
        let flat = sweep
            .run_sharded(wl, n, rr, false, DRAM_SHARD_QUEUE, None)
            .cycles as f64;
        let run = sweep.run_sharded(wl, n, rr, false, DRAM_SHARD_QUEUE, Some(&dram));
        let cyc = run.cycles as f64;
        let reqs = run.counter("directory", "dram_reqs").unwrap_or(0);
        let hits = run.counter("directory", "dram_row_hits").unwrap_or(0);
        let stalls = run.counter("directory", "mshr_stalls").unwrap_or(0);
        let rejects = run.counter("directory", "dram_rejects").unwrap_or(0);
        let deferred = registry_counter(&run.stats_json, "noc.ejection_deferred");
        s.push_str(&format!(
            "| {n} | {:.1} | {:.2}x | {:.1} | {:.2}x | {:.0}% | {stalls} | {rejects} | {deferred} |\n",
            flat / 1000.0,
            flat_base / flat,
            cyc / 1000.0,
            dram_base / cyc,
            if reqs > 0 {
                100.0 * hits as f64 / reqs as f64
            } else {
                0.0
            },
        ));
    }

    s.push_str(
        "\n| Shards | Skewed rr (kcycles) | Skewed occupancy (kcycles) | Occupancy gain |\n",
    );
    s.push_str("|---|---|---|---|\n");
    for &n in &DRAM_SHARD_COUNTS {
        let skew_rr = sweep
            .run_sharded(wl, n, rr, true, DRAM_SHARD_QUEUE, Some(&dram))
            .cycles as f64;
        let skew_occ = sweep
            .run_sharded(wl, n, occ, true, DRAM_SHARD_QUEUE, Some(&dram))
            .cycles as f64;
        s.push_str(&format!(
            "| {n} | {:.1} | {:.1} | {:.2}x |\n",
            skew_rr / 1000.0,
            skew_occ / 1000.0,
            skew_rr / skew_occ,
        ));
    }
    s.push_str(&format!(
        "\n(AES, queue {DRAM_SHARD_QUEUE}, batch {}, one producer core per shard. Speedups \
         are vs the 1-shard run on the same memory system. Row hit %, MSHR stalls, channel-queue \
         rejects and NoC ejection deferrals come from the contended runs' stats registry.)\n",
        crate::params::PEAK_BATCH
    ));
    s
}

/// Renders Table 4: structural area model vs the paper's synthesis results.
pub fn table4_markdown(cfg: &SocConfig) -> String {
    let rows = table4(cfg);
    let mut s = String::new();
    s.push_str(
        "| Block | LUTs (model) | LUTs (paper) | Regs (model) | Regs (paper) | BRAM (model) | BRAM (paper) |\n",
    );
    s.push_str("|---|---|---|---|---|---|---|\n");
    for Table4Row { name, model, paper } in rows {
        s.push_str(&format!(
            "| {name} | {:.0} | {:.0} | {:.0} | {:.0} | {:.1} | {:.1} |\n",
            model.luts, paper.0, model.regs, paper.1, model.bram, paper.2
        ));
    }
    s.push_str("\n(model: structural estimator, see crates/bench/src/area.rs; paper: Vivado 2022.1 post-synthesis)\n");
    s
}

/// Paper's Table 3 reference values.
pub mod paper_table3 {
    /// SHA speedups vs MMIO per queue size.
    pub const SHA_MMIO: [f64; 8] = [5.44, 6.05, 6.75, 7.22, 7.62, 8.30, 8.38, 7.16];
    /// SHA speedups vs coherent DMA.
    pub const SHA_DMA: [f64; 8] = [7.27, 7.94, 8.85, 11.24, 10.70, 10.83, 10.62, 8.97];
    /// SHA batching improvements (batch 64 vs batch 8).
    pub const SHA_BATCHING: [f64; 8] = [2.32, 2.45, 2.65, 2.79, 2.96, 3.01, 3.33, 2.81];
    /// AES speedups vs MMIO.
    pub const AES_MMIO: [f64; 8] = [2.0, 1.89, 1.84, 1.83, 2.07, 2.03, 2.03, 1.86];
    /// AES speedups vs coherent DMA.
    pub const AES_DMA: [f64; 8] = [1.9, 1.83, 1.74, 1.71, 1.75, 2.03, 1.94, 1.69];
    /// AES batching improvements (batch 64 vs batch 2).
    pub const AES_BATCHING: [f64; 8] = [5.3, 6.05, 7.11, 7.16, 8.02, 7.99, 8.10, 7.42];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_renders_all_rows() {
        let t = table4_markdown(&SocConfig::default());
        for name in ["Ariane Tile", "Empty Cohort Engine", "H264 Only"] {
            assert!(t.contains(name), "missing {name}");
        }
    }

    #[test]
    fn small_latency_figure_renders() {
        // Use a tiny private sweep at small sizes to keep the test fast.
        let mut sweep = Sweep::new();
        let k = sweep.kilocycles(Workload::Sha, Mode::Cohort { batch: 8 }, 64);
        assert!(k > 0.0);
    }
}
