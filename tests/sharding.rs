//! Integration tests for the driver-level queue sharder: determinism,
//! merge-order correctness, failover composition, scaling, and the
//! placement-policy separation the pool exists to provide.

use cohort::scenarios::{run_scenario, RunResult, Runner, Scenario, ShardSpec, Workload};
use cohort_os::driver::Placement;
use cohort_queue::SeqMerge;
use cohort_sim::config::SocConfig;
use cohort_sim::faultinject::{splitmix64, FaultKind, FaultPlan};

fn sharded(qs: u64, engines: usize, spec: &ShardSpec) -> RunResult {
    let mut scenario = Scenario::new(Workload::Aes, qs, 64);
    scenario.soc = SocConfig::default().with_engines(engines);
    let r = run_scenario(Runner::Sharded, &scenario, Some(spec)).expect("pool binds");
    assert!(r.verified, "sharded run failed verification");
    r
}

/// Sums one counter across every engine in the pool.
fn summed_engine_counter(r: &RunResult, name: &str) -> u64 {
    r.counters
        .iter()
        .filter(|(c, _)| c.starts_with("engine#"))
        .flat_map(|(_, l)| l.iter().filter(|(n, _)| n == name).map(|(_, v)| *v))
        .sum()
}

/// Same seed, same spec: the sharded run is bit-identical — cycle count,
/// recorded output stream, and the full stats snapshot.
#[test]
fn sharded_run_is_deterministic() {
    let spec = ShardSpec::new(4).with_placement(Placement::OccupancyAware);
    let a = sharded(1024, 4, &spec);
    let b = sharded(1024, 4, &spec);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.recorded, b.recorded);
    assert_eq!(a.stats_json, b.stats_json);
}

/// The sequence-tagged merge restores global FIFO order under arbitrary
/// cross-shard interleavings: shards drain in splitmix64-random order,
/// each preserving only its own FIFO, and the merged stream must come out
/// 0..n in order, every trial.
#[test]
fn merge_restores_order_under_random_interleavings() {
    let mut rng = 0xdead_beef_u64;
    for trial in 0..64 {
        let shards = 2 + (trial % 7) as usize;
        let n = 1 + (splitmix64(&mut rng) % 200);
        // Global stream 0..n, split across shards; each shard keeps its
        // elements in seq order (per-shard FIFO).
        let mut queues: Vec<std::collections::VecDeque<u64>> =
            vec![std::collections::VecDeque::new(); shards];
        for seq in 0..n {
            let s = (splitmix64(&mut rng) % shards as u64) as usize;
            queues[s].push_back(seq);
        }
        let mut merge = SeqMerge::new();
        let mut out = Vec::new();
        while queues.iter().any(|q| !q.is_empty()) {
            let s = (splitmix64(&mut rng) % shards as u64) as usize;
            if let Some(seq) = queues[s].pop_front() {
                merge.push(seq, seq).expect("fresh seq");
                out.extend(merge.drain_ready().into_iter().map(|(_, v)| v));
            }
        }
        assert!(merge.is_drained(), "trial {trial}: merge left residue");
        assert_eq!(out, (0..n).collect::<Vec<_>>(), "trial {trial}: order lost");
    }
}

/// Fail-stopping a shard engine mid-stream heals through the epoch-fenced
/// failover path: the shard's queues migrate onto the spare exactly once
/// and the merged digest is still correct.
#[test]
fn shard_kill_heals_via_failover_with_correct_digest() {
    let mut scenario = Scenario::new(Workload::Aes, 1024, 64);
    scenario.soc = SocConfig::default()
        .with_engines(5)
        .with_faults(FaultPlan::default().at(20_000, FaultKind::KillEngine { engine: 1 }));
    let r = run_scenario(Runner::Sharded, &scenario, Some(&ShardSpec::new(4))).expect("pool binds");
    assert!(r.verified, "digest wrong after shard failover");
    assert_eq!(summed_engine_counter(&r, "rebinds"), 1);
    assert_eq!(summed_engine_counter(&r, "watchdog_trips"), 1);
}

/// The tentpole scaling claim: four shards deliver at least 2.5x the
/// throughput of one shard on the same seed and stream.
#[test]
fn four_shards_scale_at_least_2_5x() {
    let one = sharded(2048, 1, &ShardSpec::new(1));
    let four = sharded(2048, 4, &ShardSpec::new(4));
    let speedup = one.cycles as f64 / four.cycles as f64;
    assert!(
        speedup >= 2.5,
        "4-shard speedup {speedup:.3} < 2.5 ({} vs {} cycles)",
        one.cycles,
        four.cycles
    );
}

/// On the skewed (periodic heavy element) variant, occupancy-aware
/// steering beats blind round-robin — the heavy runs collide on one
/// engine under round-robin and spread under load-aware placement.
#[test]
fn occupancy_placement_beats_round_robin_on_skew() {
    let rr = sharded(1024, 4, &ShardSpec::new(4).with_skew(true));
    let occ = sharded(
        1024,
        4,
        &ShardSpec::new(4)
            .with_placement(Placement::OccupancyAware)
            .with_skew(true),
    );
    assert!(
        occ.cycles < rr.cycles,
        "occupancy-aware ({}) should beat round-robin ({}) on skewed runs",
        occ.cycles,
        rr.cycles
    );
}

/// Each engine in a sharded pool reports occupancy under its own scope:
/// the histogram keys are distinct per engine and all present.
#[test]
fn sharded_run_reports_per_engine_occupancy() {
    let r = sharded(256, 2, &ShardSpec::new(2));
    for s in 0..2 {
        let h = r
            .histogram(&format!("engine#{s}.in_queue_occupancy"))
            .unwrap_or_else(|| panic!("engine#{s} occupancy histogram missing"));
        assert!(h.count > 0);
    }
}
