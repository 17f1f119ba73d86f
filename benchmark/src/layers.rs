//! Per-layer metrics, measured from outside the layers: exact counts from
//! one detail pass's `RunResult`s, host-time spans around the harness's own
//! calls, reference legs (`Force1`, simulator tracing, 2 threads, flat
//! memory, 1 shard) and direct timed calls to leaf layers' public
//! functions (*probes*).

use crate::json::Json;
use crate::measure::{run_checked, run_pass, Config, Gate, Pass, Setup};
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats::{median, ratio, tail_with_ten_beyond};
use crate::workloads::{dram_reference_runs, par2_run, pass_seed, ExtraLegs, RunSpec, DRAM_SPEC};
use cohort::scenarios::RunResult;
use cohort_sim::config::Lookahead;
use cohort_sim::stats::HistogramSummary;
use std::hint::black_box;

/// The detail pass: pass 0 of the seed with every `RunResult` kept.
struct Detail {
    runs: Vec<(RunSpec, RunResult)>,
    /// Each run's `stats_json` parsed: the registry holds the NoC and
    /// engine-MTE counters that `RunResult::counters` does not.
    registries: Vec<Json>,
}

impl Detail {
    fn elements(&self) -> f64 {
        self.runs.iter().map(|(s, _)| s.elements()).sum::<u64>() as f64
    }

    fn cycles(&self) -> f64 {
        self.runs.iter().map(|(_, r)| r.cycles).sum::<u64>() as f64
    }

    /// Counter `name` summed over every `kind#N` component of every run.
    fn sum(&self, kind: &str, name: &str) -> f64 {
        let mut total = 0;
        for (_, result) in &self.runs {
            for (scope, counters) in &result.counters {
                if scope.split('#').next() == Some(kind) {
                    total += counters
                        .iter()
                        .filter(|(n, _)| n == name)
                        .map(|(_, v)| v)
                        .sum::<u64>();
                }
            }
        }
        total as f64
    }

    /// Registry counters summed over every run: those named exactly
    /// `name`, or `kind#N.name` when `kind` is given.
    fn registry_sum(&self, kind: Option<&str>, name: &str) -> f64 {
        let mut total = 0.0;
        for registry in &self.registries {
            let counters = registry.get("counters").map_or(&[][..], Json::members);
            for (key, value) in counters {
                if scoped_name_is(key, kind, name) {
                    total += value.as_f64().unwrap_or(0.0);
                }
            }
        }
        total
    }

    /// Simulated core-cycles: each run's cycles times its core count — the
    /// denominator of a stall share.
    fn core_cycles(&self) -> f64 {
        let per_run = self.runs.iter().map(|(_, r)| {
            let cores = r.counters.iter().filter(|(s, _)| s.starts_with("core#"));
            r.cycles * cores.count() as u64
        });
        per_run.sum::<u64>() as f64
    }

    /// One percentile of histogram `name` (`noc.x`, or `x` of every
    /// `kind#N`), as the sample-count-weighted mean over the instances
    /// that recorded anything.
    fn percentile(
        &self,
        kind: Option<&str>,
        name: &str,
        pick: fn(&HistogramSummary) -> u64,
    ) -> f64 {
        let (mut weighted, mut count) = (0.0, 0.0);
        for (_, result) in &self.runs {
            for (scoped, h) in &result.histograms {
                if scoped_name_is(scoped, kind, name) && h.count > 0 {
                    weighted += pick(h) as f64 * h.count as f64;
                    count += h.count as f64;
                }
            }
        }
        ratio(weighted, count)
    }
}

/// True when registry name `scoped` is `name` itself (no `kind`), or
/// `<kind>#<n>.<name>` for any instance `n`.
fn scoped_name_is(scoped: &str, kind: Option<&str>, name: &str) -> bool {
    match kind {
        None => scoped == name,
        Some(kind) => scoped.split_once('#').is_some_and(|(k, rest)| {
            k == kind && rest.split_once('.').is_some_and(|(_, n)| n == name)
        }),
    }
}

/// Runs pass 0 with `edit` applied to every scenario, keeping the results.
fn pass_zero(
    rec: &mut Recorder,
    gate: &mut Gate,
    cfg: &Config,
    leg: &str,
    edit: impl Fn(&mut RunSpec),
) -> (Pass, Vec<(RunSpec, RunResult)>) {
    let mut specs = cfg.specs(0);
    specs.iter_mut().for_each(edit);
    let mut kept = Vec::new();
    let id = format!("{}/{leg}", cfg.workload.name);
    let pass = run_pass(rec, gate, id, &specs, |spec, result| {
        kept.push((spec.clone(), result))
    });
    (pass, kept)
}

/// Fails the gate unless `leg` reproduced every run of `detail`.
fn expect_same_pass(gate: &mut Gate, what: &str, detail: &Detail, leg: &[(RunSpec, RunResult)]) {
    if leg.len() != detail.runs.len() {
        return; // the missing run already failed the gate
    }
    for ((spec, reference), (_, result)) in detail.runs.iter().zip(leg) {
        gate.expect_same(&format!("{what} {}", spec.label()), reference, result);
    }
}

/// Every per-layer metric of one traced run.
pub fn per_layer(
    rec: &mut Recorder,
    gate: &mut Gate,
    cfg: &Config,
    setup: &Setup,
    passes: &[Pass],
) -> Values {
    let mut v = Values::default();
    let pass_walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let pass_s = median(&pass_walls);

    // bench: the harness itself.
    v.set("bench.passes", passes.len() as f64);
    v.set("bench.pass_ms_p50", pass_s * 1e3);
    if let Some((hi, percentile)) = tail_with_ten_beyond(&pass_walls) {
        v.set("bench.pass_ms_hi", hi * 1e3);
        let n = passes.len();
        eprintln!("benchmark: bench.pass_ms_hi is the {percentile:.1}th percentile of {n} passes");
    }
    let overheads: Vec<f64> = passes.iter().map(|p| ratio(p.self_s, p.wall_s)).collect();
    v.set("bench.harness_overhead_frac", median(&overheads));

    // core: host time of each run from the timed passes.
    for label in cfg.specs(0).iter().map(RunSpec::label) {
        let runs = passes.iter().flat_map(|p| &p.runs);
        let walls: Vec<f64> = runs
            .filter(|r| r.label == label)
            .map(|r| r.wall_s * 1e3)
            .collect();
        v.set(&format!("core.run_ms.{label}"), median(&walls));
    }
    for (name, x) in ["sha_vs_mmio", "sha_vs_dma", "aes_vs_mmio", "aes_vs_dma"]
        .iter()
        .zip(setup.speedups())
    {
        v.set(&format!("core.speedup_x.{name}"), x);
    }

    let (_, runs) = pass_zero(rec, gate, cfg, "detail", |_| {});
    let registries = runs
        .iter()
        .map(|(_, r)| Json::parse(&r.stats_json).unwrap_or(Json::Null))
        .collect();
    let d = Detail { runs, registries };
    counts(&mut v, &d, pass_s);

    // Reference legs. Each must reproduce the detail pass's cycles and
    // checksums: the determinism contract, checked on every traced run.
    let (force1, runs) = pass_zero(rec, gate, cfg, "force1", |s| {
        s.scenario.soc.lookahead = Lookahead::Force1;
    });
    expect_same_pass(gate, "Force1", &d, &runs);
    v.set("sim.kernel.lookahead_wall_x", ratio(force1.wall_s, pass_s));

    let (traced, runs) = pass_zero(rec, gate, cfg, "simtrace", |s| s.scenario.trace = true);
    expect_same_pass(gate, "traced", &d, &runs);
    v.set("sim.trace.overhead_x", ratio(traced.wall_s, pass_s));
    let trace_bytes: usize = runs
        .iter()
        .filter_map(|(_, r)| r.trace_json.as_ref().map(String::len))
        .sum();
    v.set(
        "sim.trace.bytes_per_kcycle",
        ratio(trace_bytes as f64, d.cycles() / 1e3),
    );
    drop(runs);

    match cfg.workload.extra_legs {
        ExtraLegs::None => {}
        ExtraLegs::TwoThreads => par2_leg(rec, gate, cfg, &mut v),
        ExtraLegs::DramReferences => dram_legs(rec, gate, cfg, &mut v, &d),
    }

    probes(rec, cfg, &mut v);
    let (sha_blocks, aes_blocks) = d
        .runs
        .iter()
        .map(|(s, _)| s.accel_blocks())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let model_ns = sha_blocks as f64 * v.get("accel.sha256_ns_per_block").unwrap_or(0.0)
        + aes_blocks as f64 * v.get("accel.aes128_ns_per_block").unwrap_or(0.0);
    v.set("accel.host_share", ratio(model_ns, pass_s * 1e9));
    v
}

/// The exact counts of the detail pass, layer by layer.
fn counts(v: &mut Values, d: &Detail, pass_s: f64) {
    let elements = d.elements();
    for (spec, result) in &d.runs {
        v.set(
            &format!("core.cycles.{}", spec.label()),
            result.cycles as f64,
        );
    }

    let barriers: u64 = d.runs.iter().map(|(_, r)| r.barrier_activations).sum();
    let ff: u64 = d.runs.iter().map(|(_, r)| r.ff_cycles).sum();
    v.set("sim.kernel.barrier_activations", barriers as f64);
    v.set("sim.kernel.ff_cycles", ff as f64);
    v.set(
        "sim.kernel.ff_share",
        ratio(ff as f64, (barriers + ff) as f64),
    );
    v.set(
        "sim.kernel.ns_per_stepped_cycle",
        ratio(pass_s * 1e9, barriers as f64),
    );

    let core_cycles = d.core_cycles();
    v.set("sim.core.instret", d.sum("core", "instret"));
    v.set(
        "sim.core.mem_stall_frac",
        ratio(d.sum("core", "mem_stall_cycles"), core_cycles),
    );
    v.set(
        "sim.core.mmio_stall_frac",
        ratio(d.sum("core", "mmio_stall_cycles"), core_cycles),
    );
    v.set(
        "sim.core.spin_iters_per_element",
        ratio(d.sum("core", "spin_iters"), elements),
    );
    v.set("sim.core.sb_full_stalls", d.sum("core", "sb_full_stalls"));
    let (l1_hits, l1_misses) = (d.sum("core", "l1_hits"), d.sum("core", "l1_misses"));
    v.set(
        "sim.core.l1_miss_frac",
        ratio(l1_misses, l1_hits + l1_misses),
    );
    v.set("sim.core.mmio_ops", d.sum("core", "mmio_ops"));

    let txns = d.sum("directory", "gets") + d.sum("directory", "getm");
    v.set("sim.directory.txns_per_element", ratio(txns, elements));
    v.set(
        "sim.directory.inv_per_element",
        ratio(d.sum("directory", "inv_sent"), elements),
    );
    let (l2_hits, fills) = (d.sum("directory", "l2_hits"), d.sum("directory", "fills"));
    v.set("sim.directory.l2_hit_frac", ratio(l2_hits, l2_hits + fills));
    v.set(
        "sim.directory.mshr_stalls",
        d.sum("directory", "mshr_stalls"),
    );
    v.set("sim.directory.recalls", d.sum("directory", "recalls"));

    v.set("sim.dram.reqs", d.sum("directory", "dram_reqs"));
    let (row_hits, row_misses) = (
        d.sum("directory", "dram_row_hits"),
        d.sum("directory", "dram_row_misses"),
    );
    v.set(
        "sim.dram.row_hit_frac",
        ratio(row_hits, row_hits + row_misses),
    );
    v.set("sim.dram.rejects", d.sum("directory", "dram_rejects"));
    v.set(
        "sim.dram.bank_conflicts",
        d.sum("directory", "dram_bank_conflicts"),
    );
    v.set(
        "sim.dram.queue_depth_p90",
        d.percentile(Some("directory"), "dram_queue_depth", |h| h.p90),
    );
    v.set(
        "sim.dram.service_p50",
        d.percentile(Some("directory"), "dram_service", |h| h.p50),
    );

    v.set(
        "sim.noc.delivered_per_element",
        ratio(d.registry_sum(None, "noc.delivered"), elements),
    );
    v.set(
        "sim.noc.flits_per_element",
        ratio(d.registry_sum(None, "noc.flits"), elements),
    );
    v.set(
        "sim.noc.hop_latency_p50",
        d.percentile(None, "noc.hop_latency", |h| h.p50),
    );
    v.set(
        "sim.noc.ejection_deferred",
        d.registry_sum(None, "noc.ejection_deferred"),
    );

    let stats_bytes: usize = d.runs.iter().map(|(_, r)| r.stats_json.len()).sum();
    v.set("sim.stats.json_bytes", stats_bytes as f64);
    let kills: u64 = d.runs.iter().map(|(s, _)| s.kills()).sum();
    v.set("sim.faultinject.kills", kills as f64);

    for name in [
        "consumed",
        "produced",
        "rcm_invalidations",
        "backoffs",
        "full_stalls",
        "watchdog_trips",
        "rebinds",
    ] {
        v.set(&format!("engine.{name}"), d.sum("engine", name));
    }
    v.set(
        "engine.mte_misses_per_element",
        ratio(d.registry_sum(Some("engine"), "mte.misses"), elements),
    );
    let (hits, misses) = (d.sum("engine", "tlb_hits"), d.sum("engine", "tlb_misses"));
    v.set("engine.tlb_miss_frac", ratio(misses, hits + misses));
    for (metric, hist) in [
        ("engine.backoff_window_p50", "backoff_window"),
        ("engine.in_occupancy_p50", "in_queue_occupancy"),
        ("engine.out_occupancy_p50", "out_queue_occupancy"),
        ("os.driver.failover_detect_p50", "failover_detect"),
        ("os.driver.failover_rebind_p50", "failover_rebind"),
        ("os.driver.failover_resume_p50", "failover_resume"),
        ("os.driver.error_irq_latency_p50", "error_irq_latency"),
    ] {
        v.set(metric, d.percentile(Some("engine"), hist, |h| h.p50));
    }

    v.set("maple.dma_transfers", d.sum("maple", "dma_transfers"));
    v.set(
        "maple.dma_bytes",
        d.sum("maple", "dma_in_bytes") + d.sum("maple", "dma_out_bytes"),
    );
    let (hits, misses) = (d.sum("maple", "tlb_hits"), d.sum("maple", "tlb_misses"));
    v.set("maple.tlb_miss_frac", ratio(misses, hits + misses));
}

/// One mesh16 run on two host threads against the same run on one. The
/// prototype saw the 2-thread kernel 25-30x slower on a 2-core host, with
/// seconds of spread: recorded as evidence, never gated.
fn par2_leg(rec: &mut Recorder, gate: &mut Gate, cfg: &Config, v: &mut Values) {
    rec.set_id(format!("{}/par2", cfg.workload.name));
    let one = par2_run(cfg.sizing.queue, pass_seed(cfg.seed, 0));
    let mut two = one.clone();
    two.scenario.soc.threads = 2;
    let (Some((r1, wall1)), Some((r2, wall2))) =
        (run_checked(rec, gate, &one), run_checked(rec, gate, &two))
    else {
        return;
    };
    gate.expect_same("2-thread mesh16_aes", &r1, &r2);
    v.set("sim.kernel.par2_wall_x", ratio(wall2, wall1));
}

/// `dram_contended`'s reference runs: flat memory, and one shard.
fn dram_legs(rec: &mut Recorder, gate: &mut Gate, cfg: &Config, v: &mut Values, d: &Detail) {
    rec.set_id(format!("{}/dramref", cfg.workload.name));
    let [flat, one_shard] = dram_reference_runs(cfg.sizing.queue, pass_seed(cfg.seed, 0));
    if let Some((flat, _)) = run_checked(rec, gate, &flat) {
        v.set(
            "sim.dram.contended_over_flat_x",
            ratio(d.cycles(), flat.cycles as f64),
        );
    }
    if let Some((one_shard, _)) = run_checked(rec, gate, &one_shard) {
        v.set(
            "os.driver.shard_speedup_x",
            ratio(one_shard.cycles as f64, d.cycles()),
        );
    }
}

/// Times `iters` calls of `f` inside a `probe:<name>` root span; ns/call.
fn probe(rec: &mut Recorder, name: &str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    rec.set_id(format!("probe/{name}"));
    let ((), wall) = rec.span(&format!("probe:{name}"), |_| (0..iters).for_each(&mut f));
    wall * 1e9 / iters as f64
}

/// Direct timed calls to leaf layers' public functions, single-threaded,
/// on fixed inputs: what a faster leaf could buy, independent of workload.
fn probes(rec: &mut Recorder, cfg: &Config, v: &mut Values) {
    use cohort::scenarios::Workload;
    let scale = cfg.sizing.probe_divisor;

    let mut sha = Workload::Sha.make_accel();
    let block = [0x5au8; 64];
    let ns = probe(rec, "accel.sha256", (64 << 10) / scale, |_| {
        black_box(sha.process_block(black_box(&block)));
    });
    v.set("accel.sha256_ns_per_block", ns);

    let mut aes = Workload::Aes.make_accel();
    aes.configure(&Workload::Aes.csr().expect("AES takes its key by CSR"))
        .expect("16-byte key");
    let ns = probe(rec, "accel.aes128", (64 << 10) / scale, |_| {
        black_box(aes.process_block(black_box(&block[..16])));
    });
    v.set("accel.aes128_ns_per_block", ns);

    let (mut tx, mut rx) = cohort_queue::spsc_channel::<u64>(1024);
    let ns = probe(rec, "queue.spsc", (1 << 20) / scale, |i| {
        tx.push(black_box(i)).expect("queue has room");
        black_box(rx.pop());
    });
    v.set("queue.spsc_push_pop_ns", ns);

    // Neighbours arrive swapped, so every other element waits for a gap.
    let mut merge = cohort_queue::SeqMerge::new();
    let ns = probe(rec, "queue.seqmerge", (1 << 20) / scale, |i| {
        merge.push(i ^ 1, i).expect("fresh sequence number");
        while let Some(item) = merge.pop_ready() {
            black_box(item);
        }
    });
    v.set("queue.seqmerge_ns_per_elem", ns);

    // A fixed line stream: runs of 8 sequential lines at pseudo-random
    // bases, issued every 4 cycles, retried when the channel rejects.
    let dram_cfg = cohort_sim::dram::DramConfig::from_spec(DRAM_SPEC).expect("valid spec");
    let mut dram = cohort_sim::dram::DramModel::new(dram_cfg);
    let (mut state, mut base, mut at) = (0x5eed_u64, 0, 0);
    let ns = probe(rec, "dram.enqueue", (1 << 20) / scale, |i| {
        if i % 8 == 0 {
            base = cohort_sim::faultinject::splitmix64(&mut state) % (1 << 30);
        }
        let line = (base + i % 8) * cohort_sim::LINE_BYTES;
        at += 4;
        while let Err(retry_at) = dram.enqueue(at, line) {
            at = retry_at;
        }
    });
    v.set("sim.dram.enqueue_ns", ns);

    // 512 base pages behind a three-level table.
    use cohort_os::sv39;
    let mut mem = cohort_sim::mem::PhysMem::new();
    let mut next_table = 0x10_0000;
    let mut alloc = || {
        next_table += sv39::PAGE_BYTES;
        next_table
    };
    let root = alloc();
    const VA: u64 = 0x4000_0000;
    for page in 0..512 {
        let (va, pa) = (
            VA + page * sv39::PAGE_BYTES,
            0x8000_0000 + page * sv39::PAGE_BYTES,
        );
        let flags = sv39::pte_flags::DATA;
        sv39::map(
            &mut mem,
            root,
            va,
            pa,
            sv39::PageSize::Base,
            flags,
            &mut alloc,
        );
    }
    let ns = probe(rec, "os.sv39.walk", (1 << 20) / scale, |i| {
        let va = VA + (i % 512) * sv39::PAGE_BYTES + 8;
        black_box(sv39::walk(&mem, root, black_box(va)).expect("page is mapped"));
    });
    v.set("os.sv39.walk_ns", ns);
}
