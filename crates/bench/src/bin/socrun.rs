//! Interactive single-run driver for the simulated SoC.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin socrun -- \
//!     [--workload sha|aes] \
//!     [--mode cohort|mmio|dma|chain|interfered|chaos|failover|dma-chaos|mesh16] \
//!     [--queue N] [--batch N] [--backoff N] [--policy eager|lazy|huge] \
//!     [--tlb N] [--faults SPEC] [--dram SPEC] [--watchdog N] [--counters] \
//!     [--threads N] [--stats FILE] [--trace FILE]
//! ```
//!
//! Prints latency, IPC and (with `--counters`) every component's
//! performance counters for one configuration — the quickest way to poke
//! at the model. `--stats FILE` writes the stats-registry snapshot
//! (counters + histogram summaries) as JSON; `--trace FILE` enables the
//! cycle-stamped event trace and writes Chrome `trace_event` JSON that
//! loads in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! `--faults` takes a deterministic fault-injection spec, e.g.
//! `stall@5000:forever;storm@20000:2`, `kill@20000:1` (fail-stop engine 1),
//! `maple-kill@15000` or `random:seed=7,count=4` (see
//! `cohort_sim::faultinject::FaultPlan::parse` for the grammar); `chaos`
//! mode runs the Cohort benchmark with the full recovery stack armed,
//! `failover` runs the AES→SHA chain with a cold spare and the failover
//! orchestrator (a `kill@…` fault plan routes here by default),
//! `dma-chaos` runs the DMA baseline hardened for MAPLE faults, and
//! `--watchdog` overrides the engine's forward-progress budget.

use cohort::scenarios::{
    run_scenario, sharded_engines_for, RunResult, Runner, Scenario, ShardSpec, Workload,
};
use cohort_os::addrspace::MapPolicy;
use cohort_os::driver::Placement;
use cohort_sim::dram::DramConfig;
use cohort_sim::faultinject::{FaultKind, FaultPlan};

fn usage() -> ! {
    eprintln!(
        "usage: socrun [--workload sha|aes]\n\
         \u{20}             [--mode cohort|mmio|dma|chain|interfered|chaos|failover|dma-chaos|shard|mesh16]\n\
         \u{20}             [--queue N] [--batch N] [--backoff N] [--policy eager|lazy|huge]\n\
         \u{20}             [--tlb N] [--faults SPEC] [--dram SPEC] [--watchdog N] [--counters]\n\
         \u{20}             [--threads N]\n\
         \u{20}             [--shards N] [--placement rr|occupancy] [--engines N] [--skew]\n\
         \u{20}             [--stats FILE] [--trace FILE] [--bench-out FILE]\n\
         sharding: --shards N splits the stream over N engines (mode shard);\n\
         \u{20}         --engines overrides the spare-inclusive pool size,\n\
         \u{20}         --skew makes every 4th element run heavy;\n\
         \u{20}         mode mesh16 is the 16-core big.LITTLE mesh (4 shards + noise)\n\
         parallel: --threads N steps components on N host threads; results\n\
         \u{20}         (incl. the printed checksum) are bit-identical at any N\n\
         record: --bench-out writes {{cycles, throughput, occupancy p50}} JSON\n\
         fault spec: stall@C:D|forever; spike@C:D:F; storm@C:P; corrupt@C;\n\
         \u{20}           kill@C[:E]; maple-stall@C:D; maple-kill@C;\n\
         \u{20}           random:seed=S,count=N,from=A,to=B (semicolon-separated)\n\
         dram spec: `default`, or comma-separated overrides of\n\
         \u{20}          channels=N,banks=N,rowlines=N,hit=C,miss=C,queue=N,\n\
         \u{20}          mshrs=N,ejection=N — enables the bank/channel DRAM\n\
         \u{20}          contention model (flat-latency memory when absent)"
    );
    std::process::exit(2)
}

/// Renders the machine-readable benchmark record `--bench-out` writes.
fn bench_json(r: &RunResult, args: &str, queue: u64) -> String {
    let mut occ = String::new();
    for (name, h) in &r.histograms {
        if let Some(engine) = name.strip_suffix(".in_queue_occupancy") {
            if !occ.is_empty() {
                occ.push_str(", ");
            }
            occ.push_str(&format!("\"{engine}\": {}", h.p50));
        }
    }
    format!(
        "{{\n  \"args\": \"{args}\",\n  \"cycles\": {},\n  \"throughput_elems_per_kcycle\": {:.3},\n  \"occupancy_p50\": {{{occ}}},\n  \"verified\": {}\n}}\n",
        r.cycles,
        queue as f64 * 1000.0 / r.cycles as f64,
        r.verified
    )
}

fn main() {
    let mut workload = Workload::Sha;
    let mut mode = "cohort".to_string();
    let mut queue = 1024u64;
    let mut batch = 64u64;
    let mut backoff: Option<u64> = None;
    let mut policy = MapPolicy::Eager;
    let mut tlb: Option<usize> = None;
    let mut dram: Option<DramConfig> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut watchdog: Option<u64> = None;
    let mut counters = false;
    let mut stats_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut placement = Placement::RoundRobin;
    let mut engines: Option<usize> = None;
    let mut skew = false;
    let mut threads: Option<usize> = None;
    let mut bench_out: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                workload = match value().as_str() {
                    "sha" => Workload::Sha,
                    "aes" => Workload::Aes,
                    _ => usage(),
                }
            }
            "--mode" => mode = value(),
            "--queue" => queue = value().parse().unwrap_or_else(|_| usage()),
            "--batch" => batch = value().parse().unwrap_or_else(|_| usage()),
            "--backoff" => backoff = Some(value().parse().unwrap_or_else(|_| usage())),
            "--policy" => {
                policy = match value().as_str() {
                    "eager" => MapPolicy::Eager,
                    "lazy" => MapPolicy::Lazy,
                    "huge" => MapPolicy::HugePages,
                    _ => usage(),
                }
            }
            "--tlb" => tlb = Some(value().parse().unwrap_or_else(|_| usage())),
            "--dram" => {
                dram = Some(DramConfig::from_spec(&value()).unwrap_or_else(|e| {
                    eprintln!("socrun: {e}");
                    usage()
                }))
            }
            "--faults" => {
                faults = Some(FaultPlan::parse(&value()).unwrap_or_else(|e| {
                    eprintln!("socrun: {e}");
                    usage()
                }))
            }
            "--watchdog" => watchdog = Some(value().parse().unwrap_or_else(|_| usage())),
            "--counters" => counters = true,
            "--stats" => stats_path = Some(value()),
            "--trace" => trace_path = Some(value()),
            "--shards" => shards = Some(value().parse().unwrap_or_else(|_| usage())),
            "--placement" => {
                placement = value().parse().unwrap_or_else(|e: String| {
                    eprintln!("socrun: {e}");
                    usage()
                })
            }
            "--engines" => engines = Some(value().parse().unwrap_or_else(|_| usage())),
            "--threads" => threads = Some(value().parse().unwrap_or_else(|_| usage())),
            "--skew" => skew = true,
            "--bench-out" => bench_out = Some(value()),
            _ => usage(),
        }
    }

    let mut scenario = Scenario::new(workload, queue, batch);
    scenario.policy = policy;
    if let Some(b) = backoff {
        scenario.backoff = b;
    }
    if let Some(t) = tlb {
        scenario.soc.tlb_entries = t;
    }
    scenario.soc.dram = dram;
    if let Some(t) = threads {
        scenario.soc = scenario.soc.clone().with_threads(t);
    }
    // --shards routes to the sharded runner (which arms its own failover
    // when a fault plan kills a shard engine).
    if shards.is_some() && mode == "cohort" {
        mode = "shard".to_string();
    }
    if let Some(plan) = faults {
        // A fault plan without an explicit mode picks the runner armed to
        // recover from it: engine fail-stops route to the chain-failover
        // scenario, MAPLE faults to the hardened DMA baseline, everything
        // else to the chaos runner.
        if mode == "cohort" {
            mode = if plan
                .events
                .iter()
                .any(|e| matches!(e.kind, FaultKind::KillEngine { .. }))
            {
                "failover".to_string()
            } else if plan
                .events
                .iter()
                .any(|e| matches!(e.kind, FaultKind::KillMaple | FaultKind::MapleStall { .. }))
            {
                "dma-chaos".to_string()
            } else {
                "chaos".to_string()
            };
        }
        scenario.soc.faults = plan;
    }
    if let Some(w) = watchdog {
        scenario.watchdog = w;
    }
    scenario.trace = trace_path.is_some();

    let runner = Runner::parse(&mode).unwrap_or_else(|| usage());
    if !runner.supports_policy(policy) {
        eprintln!(
            "socrun: mode {runner} cannot run under --policy {policy:?}: \
             MAPLE's DMA has no demand-paging path"
        );
        usage()
    }
    let shard_spec = match runner {
        Runner::Sharded => {
            let n = shards.unwrap_or(1);
            // Spare-inclusive pool: explicit --engines wins; otherwise one
            // engine per shard plus a spare when a kill targets a shard.
            scenario.soc.engines =
                engines.unwrap_or_else(|| sharded_engines_for(&scenario.soc.faults, n));
            Some(ShardSpec::new(n).with_placement(placement).with_skew(skew))
        }
        _ => None,
    };
    let start = std::time::Instant::now();
    let r: RunResult = run_scenario(runner, &scenario, shard_spec.as_ref()).unwrap_or_else(|e| {
        eprintln!("socrun: {e}");
        std::process::exit(2);
    });
    let wall = start.elapsed();

    print!("workload={workload:?} mode={mode} queue={queue} batch={batch} policy={policy:?}");
    if mode == "shard" {
        print!(
            " shards={} placement={placement} engines={} skew={skew}",
            shards.unwrap_or(1),
            scenario.soc.engines
        );
    }
    println!();
    println!(
        "latency: {} cycles ({:.1} kcycles, {:.2} cycles/element)",
        r.cycles,
        r.cycles as f64 / 1000.0,
        r.cycles as f64 / queue as f64
    );
    println!("instructions: {}  IPC: {:.3}", r.instret, r.ipc());
    println!("verified: {}  (host wall time {:.2?})", r.verified, wall);
    println!("checksum: {:#018x}", r.checksum);
    if counters {
        for (comp, list) in &r.counters {
            let nonzero: Vec<String> = list
                .iter()
                .filter(|(_, v)| *v > 0)
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            if !nonzero.is_empty() {
                println!("  {comp}: {}", nonzero.join(" "));
            }
        }
    }
    if let Some(path) = &stats_path {
        std::fs::write(path, &r.stats_json).unwrap_or_else(|e| {
            eprintln!("socrun: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("stats: wrote {path}");
    }
    if let Some(path) = &trace_path {
        let json = r.trace_json.as_deref().unwrap_or("[]");
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("socrun: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("trace: wrote {path} (load in https://ui.perfetto.dev)");
    }
    if let Some(path) = &bench_out {
        let args = format!(
            "workload={workload:?} mode={mode} queue={queue} batch={batch} shards={} placement={placement} skew={skew}",
            shards.unwrap_or(1)
        );
        std::fs::write(path, bench_json(&r, &args, queue)).unwrap_or_else(|e| {
            eprintln!("socrun: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("bench: wrote {path}");
    }
    if !r.verified {
        std::process::exit(1);
    }
}
