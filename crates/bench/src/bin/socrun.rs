//! Interactive single-run driver for the simulated SoC.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin socrun -- \
//!     [--mode cohort|mmio|dma|chain|interfered|chaos|failover|dma-chaos|shard|mesh16] \
//!     [--workload sha|aes] [--queue N] [--batch N] [--backoff N] \
//!     [--policy eager|lazy|huge] [--watchdog N] [--shards N] \
//!     [--placement rr|occupancy] [--skew] [--engines N] [--faults SPEC] \
//!     [--dram SPEC] \
//!     [--tlb N] [--counters] [--stats FILE] [--trace FILE] [--bench-out FILE]
//! ```
//!
//! Prints latency, IPC and (with `--counters`) every component's
//! performance counters for one configuration — the quickest way to poke
//! at the model. `--mode` and the last line of flags are `socrun`'s own;
//! the lines between are the run parameters, i.e. the keys of
//! `cohort_bench::run_params::KEYS`: spelled, parsed and range-checked by
//! that table exactly as a fleet spec's `key = value` lines are, and
//! admitted or refused (exit 2) by the same `cohort::scenarios::admit`.
//!
//! `--stats FILE` writes the stats-registry snapshot (counters + histogram
//! summaries) as JSON; `--trace FILE` enables the cycle-stamped event
//! trace and writes Chrome `trace_event` JSON that loads in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. `--faults` takes a
//! deterministic fault-injection spec, e.g. `stall@5000:forever`,
//! `kill@20000:1` or `random:seed=7,count=4` (grammar:
//! `cohort_sim::faultinject::FaultPlan::parse`, summarised by the usage
//! text along with which mode arms which recovery stack).

#![forbid(unsafe_code)]

use cohort::scenarios::{run_scenario, RunResult, Runner, Workload};
use cohort_bench::run_params::{RunParams, KEYS, SOLO_SEED};

fn usage() -> ! {
    let modes = Runner::ALL.map(|r| r.name()).join("|");
    let flags = KEYS.iter().filter_map(|k| Some((k.flag?, k.hint)));
    let flags: Vec<String> = flags
        .map(|(flag, hint)| format!("[--{flag} {hint}]").replace(" ]", "]"))
        .collect();
    let rows: Vec<String> = flags.chunks(4).map(|row| row.join(" ")).collect();
    eprintln!(
        "usage: socrun [--mode {modes}]\n\
         \u{20}             {}\n\
         \u{20}             [--tlb N] [--counters] [--stats FILE] [--trace FILE] [--bench-out FILE]\n\
         routing: without --mode, --shards picks shard, and a fault plan the mode armed\n\
         \u{20}        for it (kill: failover, maple-*: dma-chaos, anything else: chaos)\n\
         sharding: --shards N splits the stream over N engines (mode shard);\n\
         \u{20}         --engines overrides the spare-inclusive pool size,\n\
         \u{20}         --skew makes every 4th element run heavy;\n\
         \u{20}         mode mesh16 is the 16-core big.LITTLE mesh (4 shards + noise)\n\
         record: --bench-out writes {{cycles, throughput, occupancy p50}} JSON\n\
         fault spec: stall@C:D|forever; spike@C:D:F; storm@C:P; corrupt@C;\n\
         \u{20}           kill@C[:E]; maple-stall@C:D; maple-kill@C;\n\
         \u{20}           random:seed=S,count=N,from=A,to=B (semicolon-separated)\n\
         dram spec: `default`, or comma-separated overrides of\n\
         \u{20}          channels=N,banks=N,rowlines=N,hit=C,miss=C,queue=N,\n\
         \u{20}          mshrs=N,ejection=N — enables the bank/channel DRAM\n\
         \u{20}          contention model (flat-latency memory when absent)",
        rows.join("\n              ")
    );
    std::process::exit(2)
}

/// A refused input: one line saying what and why, exit code 2.
fn refuse(msg: String) -> ! {
    eprintln!("socrun: {msg}");
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
    // One run has no seed set to vary a fault plan over: `random:seed=7`
    // means schedule 7.
    let mut params = RunParams {
        workload: Workload::Sha,
        queue: 1024,
        batch: 64,
        vary_fault_seed: false,
        ..RunParams::default()
    };
    let mut given: Vec<&str> = Vec::new();
    let mut mode: Option<String> = None;
    let mut tlb: Option<usize> = None;
    let mut counters = false;
    let (mut stats_path, mut trace_path, mut bench_out) = (None, None, None);

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--mode" => mode = Some(value()),
            "--tlb" => tlb = Some(value().parse().unwrap_or_else(|_| usage())),
            "--counters" => counters = true,
            "--stats" => stats_path = Some(value()),
            "--trace" => trace_path = Some(value()),
            "--bench-out" => bench_out = Some(value()),
            // Every other flag is a run parameter: the key table knows its
            // spelling, whether it takes a value, and what values it takes.
            other => {
                let name = other.strip_prefix("--").unwrap_or_else(|| usage());
                let key = KEYS.iter().find(|k| k.flag == Some(name));
                let key = key.unwrap_or_else(|| usage());
                // A switch takes no value: giving it says `true`.
                let text = (!key.is_switch()).then(&mut value);
                let set = params.set_text(key, text.as_deref().unwrap_or("true"));
                set.unwrap_or_else(|e| refuse(format!("{flag}: {e}")));
                given.push(key.name);
            }
        }
    }

    // Without --mode: --shards routes to the sharded runner (which arms
    // its own failover when a fault plan kills a shard engine), and a
    // fault plan picks the runner armed to recover from it — engine
    // fail-stops the chain-failover scenario, MAPLE faults the hardened
    // DMA baseline, everything else the chaos runner. The labels are the
    // fault grammar's own words (`kill@…`, `maple-kill@…`, `maple-stall@…`).
    let planned = |label: &str| {
        let mut kinds = params.faults.events.iter().map(|e| e.kind.label());
        kinds.any(|l| l.starts_with(label))
    };
    let runner = match &mode {
        Some(name) => Runner::parse(name).unwrap_or_else(|| usage()),
        None if given.contains(&"shards") => Runner::Sharded,
        None if !given.contains(&"faults") => Runner::Cohort,
        None if planned("kill") => Runner::Failover,
        None if planned("maple-") => Runner::DmaChaos,
        None => Runner::Chaos,
    };
    let (mut scenario, shard_spec) = params.to_scenario(runner, SOLO_SEED);
    if let Some(t) = tlb {
        scenario.soc.tlb_entries = t;
    }
    scenario.trace = trace_path.is_some();

    let start = std::time::Instant::now();
    let r = run_scenario(runner, &scenario, shard_spec.as_ref())
        .unwrap_or_else(|e| refuse(format!("mode {runner} refused: {e}")));
    let wall = start.elapsed();

    let p = &params;
    print!(
        "workload={:?} mode={runner} queue={} batch={} policy={:?}",
        p.workload, p.queue, p.batch, p.policy
    );
    if runner == Runner::Sharded {
        print!(
            " shards={} placement={} engines={} skew={}",
            p.shards, p.placement, scenario.soc.engines, p.skew
        );
    }
    println!();
    println!(
        "latency: {} cycles ({:.1} kcycles, {:.2} cycles/element)",
        r.cycles,
        r.cycles as f64 / 1000.0,
        r.cycles as f64 / p.queue as f64
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
    let write = |what: &str, path: &str, content: &str, note: &str| {
        std::fs::write(path, content).unwrap_or_else(|e| {
            eprintln!("socrun: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("{what}: wrote {path}{note}");
    };
    if let Some(path) = &stats_path {
        write("stats", path, &r.stats_json, "");
    }
    if let Some(path) = &trace_path {
        let json = r.trace_json.as_deref().unwrap_or("[]");
        write("trace", path, json, " (load in https://ui.perfetto.dev)");
    }
    if let Some(path) = &bench_out {
        let args = format!(
            "workload={:?} mode={runner} queue={} batch={} shards={} placement={} skew={}",
            p.workload, p.queue, p.batch, p.shards, p.placement, p.skew
        );
        write("bench", path, &bench_json(&r, &args, p.queue), "");
    }
    if !r.verified {
        std::process::exit(1);
    }
}
