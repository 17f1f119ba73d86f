//! Simulator-throughput benchmark for the step kernel.
//!
//! ```text
//! cargo run --release -p cohort-bench --bin simperf -- \
//!     [--queue N] [--reps N] [--out FILE] [--check]
//! ```
//!
//! Runs the sharded-AES scenario, the 16-core big.LITTLE mesh and the
//! single-engine Cohort SHA run, measures sim-cycles per wall-second, and
//! writes a markdown report (default `results/simperf.md`), one row per
//! case. Each case also runs one `Lookahead::Force1` reference leg: its
//! checksum and cycle count must match the batched (`Auto`) run exactly,
//! and the barrier-activation drop it reveals is reported in the `batch`
//! column. `slots/barrier` is slot-steps over barrier activations: how
//! many components a stepped cycle really steps, i.e. the most a step
//! phase split over host threads could ever hand out.
//!
//! `--check` is the CI smoke mode: a small queue, one rep, no report
//! unless `--out` is given; exit status is the contract — which in this
//! mode additionally requires the sharded-AES case to batch at
//! least 4.8x fewer barriers than forced cycle-by-cycle stepping, to
//! really step fewer than 60% of its slots on the cycles it does step
//! (per-slot sleep) and to keep silent steps (nothing received, nothing
//! staged, hint back at 0) under 25% of those, and the mesh16 case to
//! batch at least 1.8x fewer barriers and the single-engine case — one
//! core that mostly spins on its output index, asleep until the
//! invalidation — at least 6.3x fewer, with barriers + fast-forwarded
//! cycles still adding up to the forced-1 cycle count and every barrier
//! stepping at least one slot (`slots/barrier >= 1.0`) on all three.

use cohort::scenarios::{
    mesh16_scenario, run_scenario, RunResult, Runner, Scenario, ShardSpec, Workload,
};
use cohort_sim::config::{Lookahead, SocConfig};
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: simperf [--queue N] [--reps N] [--out FILE] [--check]");
    std::process::exit(2)
}

/// One measured configuration: the run result plus the best wall time
/// over the configured repetitions.
struct Measured {
    result: RunResult,
    best_wall: f64,
}

/// A named scenario constructor, so every benchmark shares the measure /
/// report / assert pipeline.
struct Case {
    name: &'static str,
    runner: Runner,
    scenario: Scenario,
    spec: Option<ShardSpec>,
    /// `--check` floor on forced-1 barriers over batched barriers: between
    /// what the case measured while a hint of 1 still bought a step (in
    /// the comments below) and what it measures since hints are exact.
    need_drop: f64,
}

fn cases(queue: u64) -> Vec<Case> {
    let mut sharded = Scenario::new(Workload::Aes, queue, 8);
    sharded.soc = SocConfig::default().with_engines(4);
    let (mesh, mesh_spec) = mesh16_scenario(queue, 8);
    let mut out = vec![
        Case {
            name: "sharded-aes (4 engines)",
            runner: Runner::Sharded,
            scenario: sharded,
            spec: Some(ShardSpec::new(4)),
            need_drop: 4.8, // 4.5x -> 5.4x at `--check`
        },
        // Back-pressured store buffers used to pin mesh16 at 1.0x.
        Case {
            name: "mesh16 big.LITTLE",
            runner: Runner::Sharded,
            scenario: mesh,
            spec: Some(mesh_spec),
            need_drop: 1.8, // 1.7x -> 1.9x
        },
        // One engine, one core that spins on the output index between
        // batches: where sleeping through the spin loop matters most.
        // 2.2x at queue 1024 and 2.7x at 256 while the spinning core was
        // stepped, 5.0x and 5.9x since it sleeps until the invalidation,
        // 6.0x and 7.1x since an L1 hit's second cycle is slept through.
        Case {
            name: "cohort-sha (1 engine)",
            runner: Runner::Cohort,
            scenario: Scenario::new(Workload::Sha, queue, 64),
            spec: None,
            need_drop: 6.3,
        },
    ];
    // Batching pays off in latency-bound phases (accelerator compute
    // windows, drains), which big queues hide behind producer
    // saturation — so the report always includes a small-queue variant
    // of the sharded case to show that regime. At `--check` the main
    // case already runs at queue <= 256 and this would be a duplicate.
    if queue > 256 {
        let mut small = Scenario::new(Workload::Aes, 256, 8);
        small.soc = SocConfig::default().with_engines(4);
        out.push(Case {
            name: "sharded-aes latency-bound (queue 256)",
            runner: Runner::Sharded,
            scenario: small,
            spec: Some(ShardSpec::new(4)),
            need_drop: 4.8,
        });
    }
    out
}

fn measure(case: &Case, reps: usize, lookahead: Lookahead) -> Measured {
    let mut scenario = case.scenario.clone();
    scenario.soc.lookahead = lookahead;
    let mut best_wall = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = run_scenario(case.runner, &scenario, case.spec.as_ref()).unwrap_or_else(|e| {
            eprintln!("simperf: {e}");
            std::process::exit(2);
        });
        best_wall = best_wall.min(start.elapsed().as_secs_f64());
        assert!(r.verified, "unverified run: {} {lookahead:?}", case.name);
        result = Some(r);
    }
    Measured {
        result: result.expect("at least one rep"),
        best_wall,
    }
}

/// Share of slot-cycles on stepped cycles whose component was really
/// stepped rather than left asleep, in percent.
fn slots_stepped_pct(r: &RunResult) -> f64 {
    100.0 * r.slot_steps as f64 / (r.slot_steps + r.slot_sleeps).max(1) as f64
}

/// Share of the really stepped slots whose step was silent (nothing
/// received, nothing staged, hint back at 0), in percent — what a tighter
/// `quiescent_for` could still put to sleep.
fn silent_pct(r: &RunResult) -> f64 {
    100.0 * r.silent_steps() as f64 / r.slot_steps.max(1) as f64
}

fn main() {
    let mut queue = 2048u64;
    let mut reps = 3usize;
    let mut out: Option<String> = Some("results/simperf.md".to_string());
    let mut check = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let mut out_explicit = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--queue" => queue = value().parse().unwrap_or_else(|_| usage()),
            "--reps" => reps = value().parse().unwrap_or_else(|_| usage()),
            "--out" => {
                out = Some(value());
                out_explicit = true;
            }
            "--check" => check = true,
            _ => usage(),
        }
    }
    if check {
        queue = queue.min(256);
        reps = 1;
        if !out_explicit {
            out = None;
        }
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = String::new();
    report.push_str(&cohort_bench::report::host_header());
    report.push_str("# Simulator throughput (`simperf`)\n\n");
    report.push_str(&format!(
        "Host: {host_cores} CPU core(s) visible to the process; every run is one host thread. \
         Queue size {queue}, best of {reps} rep(s) per case. Each case's cycles and checksum \
         are asserted equal to its forced cycle-by-cycle (`Force1`) run on every run of this \
         tool.\n\n"
    ));

    let mut all_ok = true;
    for case in cases(queue) {
        println!("== {} ==", case.name);
        report.push_str(&format!("## {}\n\n", case.name));
        report.push_str(
            "| sim cycles | wall (ms) | Msim-cycles/s | batch | slots/barrier | slots stepped % | silent % | checksum |\n\
             |---:|---:|---:|---:|---:|---:|---:|---|\n",
        );
        // Forced cycle-by-cycle reference: the batching baseline and the
        // equivalence witness (identical checksum AND cycles).
        let f1 = measure(&case, reps, Lookahead::Force1);
        let auto = measure(&case, reps, Lookahead::Auto);
        let rate = auto.result.cycles as f64 / auto.best_wall / 1e6;
        // Mean cycles simulated per barrier activation (1.0 = no
        // batching): stepped + skipped cycles over stepped cycles.
        let batch = (auto.result.barrier_activations + auto.result.ff_cycles) as f64
            / auto.result.barrier_activations.max(1) as f64;
        let slots_per_barrier =
            auto.result.slot_steps as f64 / auto.result.barrier_activations.max(1) as f64;
        let stepped_pct = slots_stepped_pct(&auto.result);
        let silent = silent_pct(&auto.result);
        let ok =
            (f1.result.checksum, f1.result.cycles) == (auto.result.checksum, auto.result.cycles);
        if !ok {
            all_ok = false;
            eprintln!(
                "simperf: BATCHING VIOLATION: {} (cycles {}, checksum {:#018x}) \
                 != forced-1 (cycles {}, checksum {:#018x})",
                case.name,
                auto.result.cycles,
                auto.result.checksum,
                f1.result.cycles,
                f1.result.checksum
            );
        }
        println!(
            "  {} cycles in {:.1} ms ({rate:.2} Mcyc/s, batch {batch:.1}, {slots_per_barrier:.2} slots/barrier, slots stepped {stepped_pct:.0}%, silent {silent:.0}%) checksum={:#018x}{}",
            auto.result.cycles,
            auto.best_wall * 1e3,
            auto.result.checksum,
            if ok { "" } else { "  <-- MISMATCH" }
        );
        report.push_str(&format!(
            "| {} | {:.1} | {rate:.2} | {batch:.1} | {slots_per_barrier:.2} | {stepped_pct:.0} | {silent:.0} | `{:#018x}`{} |\n",
            auto.result.cycles,
            auto.best_wall * 1e3,
            auto.result.checksum,
            if ok { "" } else { " **MISMATCH**" }
        ));
        let barrier_drop =
            f1.result.barrier_activations as f64 / auto.result.barrier_activations.max(1) as f64;
        let wall_gain = f1.best_wall / auto.best_wall;
        println!(
            "  batching: {} -> {} barriers ({barrier_drop:.1}x fewer), \
             wall {:.1} ms -> {:.1} ms ({wall_gain:.2}x)",
            f1.result.barrier_activations,
            auto.result.barrier_activations,
            f1.best_wall * 1e3,
            auto.best_wall * 1e3,
        );
        report.push_str(&format!(
            "\nLookahead batching vs forced cycle-by-cycle: \
             {} -> {} barrier activations (**{barrier_drop:.1}x** fewer), \
             {} cycles fast-forwarded, wall {:.1} ms -> {:.1} ms \
             ({wall_gain:.2}x). Cycles and checksums are bit-identical \
             between the two modes.\n\n",
            f1.result.barrier_activations,
            auto.result.barrier_activations,
            auto.result.ff_cycles,
            f1.best_wall * 1e3,
            auto.best_wall * 1e3,
        ));
        let by_class: Vec<String> = auto
            .result
            .silent_by_class
            .iter()
            .map(|(class, n)| format!("{class} {n}"))
            .collect();
        let silent_line = format!(
            "Silent steps: {} of {} slot-steps ({})",
            auto.result.silent_steps(),
            auto.result.slot_steps,
            if by_class.is_empty() {
                "none".to_string()
            } else {
                by_class.join(", ")
            }
        );
        println!("  {silent_line}");
        report.push_str(&format!("{silent_line}.\n\n"));
        if check && barrier_drop < case.need_drop {
            all_ok = false;
            eprintln!(
                "simperf: BATCHING REGRESSION: {} barrier activations dropped only \
                 {barrier_drop:.2}x vs forced-1 (need >= {}x)",
                case.name, case.need_drop
            );
        }
        // Forced-1 pays one barrier per simulated cycle, so its barrier
        // count is the cycle total the batched run must account for.
        let accounted = auto.result.barrier_activations + auto.result.ff_cycles;
        if check && accounted != f1.result.barrier_activations {
            all_ok = false;
            eprintln!(
                "simperf: KERNEL ACCOUNTING: {} barriers + ff_cycles = {accounted} != {} cycles",
                case.name, f1.result.barrier_activations
            );
        }
        if check && case.name.starts_with("sharded-aes") && stepped_pct >= 60.0 {
            all_ok = false;
            eprintln!(
                "simperf: SLEEP REGRESSION: {} stepped {stepped_pct:.1}% of its slot-cycles \
                 (need < 60%)",
                case.name
            );
        }
        // Measured 11% (35% while a hint of 1 still bought a step, 58%
        // before the hints learnt that a buffered word is an event only
        // if its sink can take it).
        if check && case.name.starts_with("sharded-aes") && silent >= 25.0 {
            all_ok = false;
            eprintln!(
                "simperf: SILENT-STEP REGRESSION: {} stepped silently on {silent:.1}% of its \
                 slot-steps (need < 25%): {silent_line}",
                case.name
            );
        }
        // A barrier that steps nobody should have been a jump.
        if check && auto.result.slot_steps < auto.result.barrier_activations {
            all_ok = false;
            eprintln!(
                "simperf: EMPTY BARRIERS: {} stepped {} slots over {} barriers \
                 (need slots/barrier >= 1.0)",
                case.name, auto.result.slot_steps, auto.result.barrier_activations
            );
        }
    }

    if let Some(path) = &out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, &report).unwrap_or_else(|e| {
            eprintln!("simperf: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("report: wrote {path}");
    }
    if !all_ok {
        eprintln!("simperf: FAILED");
        std::process::exit(1);
    }
    println!("determinism: Auto bit-identical to Force1 on every case");
}
