//! End-to-end fail-stop failover tests (docs/architecture.md §8).
//!
//! The failover contract: a fail-stop kill of a chained engine
//! mid-pipeline must heal onto the cold spare with **zero lost or
//! duplicated elements** — the recorded digest stream is bit-identical
//! to a fault-free run — and the whole path must be deterministic under
//! a fixed seed. MAPLE (the decoupled access-execute baseline) has a
//! weaker contract: a fail-stop there must surface as a clean reported
//! error, never a hang.

use cohort::scenarios::{run_scenario, RunResult, Runner, Scenario, Workload};
use cohort_maple::DEAD_SENTINEL;
use cohort_sim::config::SocConfig;
use cohort_sim::faultinject::{FaultKind, FaultPlan, FOREVER};

/// An admitted run through the one way in.
fn run(runner: Runner, scenario: &Scenario) -> RunResult {
    run_scenario(runner, scenario, None).expect("admitted")
}

/// Order-sensitive payload checksum.
fn checksum(words: &[u64]) -> u64 {
    words.iter().fold(0u64, |acc, &w| acc.rotate_left(7) ^ w)
}

/// Sums a named counter across every component whose name starts with
/// `prefix` (a chain run has several `engine#N` components).
fn summed_counter(r: &RunResult, prefix: &str, name: &str) -> u64 {
    r.counters
        .iter()
        .filter(|(c, _)| c.starts_with(prefix))
        .flat_map(|(_, list)| list.iter())
        .filter(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .sum()
}

/// Extracts a histogram's sample count from the stats-registry JSON.
/// `name` is matched as a suffix of the scoped registry key, so
/// `failover_rebind` finds `engine#2.failover_rebind`.
fn hist_count(stats_json: &str, name: &str) -> u64 {
    let needle = format!("{name}\": {{\"count\": ");
    let mut total = 0u64;
    let mut rest = stats_json;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        total += digits.parse::<u64>().unwrap_or(0);
    }
    total
}

/// The standard failover scenario: a chain long enough that the default
/// mid-pipeline kill (cycle 20 000) lands with work still in flight, and
/// a watchdog short enough to keep detection latency reasonable.
fn failover_scenario() -> Scenario {
    let mut s = Scenario::new(Workload::Sha, 256, 16);
    s.watchdog = 20_000;
    s
}

#[test]
fn chain_failover_heals_onto_spare_with_exact_digests() {
    let r = run(Runner::Failover, &failover_scenario());
    assert!(
        r.verified,
        "digest stream must match the host reference despite the kill"
    );

    // The kill was actually taken and detected, and exactly one rebind
    // happened (onto the spare).
    assert_eq!(summed_counter(&r, "faultinject", "kills"), 1);
    assert!(
        summed_counter(&r, "engine#", "watchdog_trips") >= 1,
        "wedge detected"
    );
    assert_eq!(
        summed_counter(&r, "engine#", "rebinds"),
        1,
        "one migration onto the spare"
    );
}

#[test]
fn chain_failover_loses_and_duplicates_nothing_vs_fault_free_run() {
    let healthy = run(Runner::Chain, &Scenario::new(Workload::Sha, 256, 16));
    let failed_over = run(Runner::Failover, &failover_scenario());
    assert!(healthy.verified && failed_over.verified);
    assert_eq!(
        failed_over.recorded.len(),
        healthy.recorded.len(),
        "no lost or extra elements"
    );
    assert_eq!(
        checksum(&failed_over.recorded),
        checksum(&healthy.recorded),
        "exactly-once migration: the output stream is bit-identical"
    );
    assert!(
        failed_over.cycles >= healthy.cycles,
        "failover may cost cycles, never correctness"
    );
}

#[test]
fn chain_failover_is_bit_identical_across_same_seed_runs() {
    let a = run(Runner::Failover, &failover_scenario());
    let b = run(Runner::Failover, &failover_scenario());
    assert!(a.verified && b.verified);
    assert_eq!(a.cycles, b.cycles, "same seed, same cycle count");
    assert_eq!(checksum(&a.recorded), checksum(&b.recorded));
    assert_eq!(
        a.stats_json, b.stats_json,
        "whole stats snapshot must be identical"
    );
}

#[test]
fn failover_latency_histograms_are_populated() {
    let r = run(Runner::Failover, &failover_scenario());
    assert!(r.verified);
    // Detect (kill → watchdog trip), rebind (IRQ T0 → spare enable) and
    // resume (IRQ T0 → first element produced on the spare) each record
    // exactly one failover.
    assert_eq!(hist_count(&r.stats_json, "failover_detect"), 1);
    assert_eq!(hist_count(&r.stats_json, "failover_rebind"), 1);
    assert_eq!(hist_count(&r.stats_json, "failover_resume"), 1);
    // The dead-engine error IRQ is cycle-stamped end to end.
    assert!(hist_count(&r.stats_json, "error_irq_latency") >= 1);
}

#[test]
fn maple_kill_reports_clean_error_instead_of_hanging() {
    let mut s = Scenario::new(Workload::Sha, 64, 8);
    s.soc = SocConfig::default().with_faults(FaultPlan::default().at(15_000, FaultKind::KillMaple));
    // The run must terminate (asserted inside the run) and the
    // fault must be visible to software as the DMA_DONE sentinel.
    let r = run(Runner::DmaChaos, &s);
    assert!(!r.verified, "a killed MAPLE cannot produce the full output");
    assert!(
        r.recorded.contains(&DEAD_SENTINEL),
        "software sees the dead-unit sentinel on DMA_DONE: {:?}",
        r.recorded
    );
    assert_eq!(
        r.counter("maple", "fail_stops"),
        Some(1),
        "exactly one fail-stop abort latched"
    );
}

#[test]
fn maple_finite_stall_only_delays_completion() {
    let mut s = Scenario::new(Workload::Sha, 64, 8);
    // A long stall straddling the first transfer, so the delay is visible
    // regardless of how the per-block kernel costs interleave.
    s.soc = SocConfig::default()
        .with_faults(FaultPlan::default().at(500, FaultKind::MapleStall { cycles: 30_000 }));
    let r = run(Runner::DmaChaos, &s);
    let clean = run(Runner::DmaChaos, &Scenario::new(Workload::Sha, 64, 8));
    assert!(r.verified, "a stalled MAPLE is still a correct MAPLE");
    assert!(clean.verified);
    assert_eq!(r.counter("maple", "fail_stops"), Some(0));
    assert!(
        r.cycles > clean.cycles,
        "the stall must actually cost cycles"
    );
}

#[test]
fn maple_forever_stall_is_a_hang_but_kill_is_not() {
    // Deliberate contrast: an infinite stall with no dead-man sentinel
    // wedges DMA forever, which is why the fail-stop class exists. We
    // only check the *kill* path here — same cycle, but the unit answers.
    let mut s = Scenario::new(Workload::Sha, 64, 8);
    s.soc = SocConfig::default().with_faults(
        FaultPlan::default()
            .at(15_000, FaultKind::MapleStall { cycles: FOREVER })
            .at(25_000, FaultKind::KillMaple),
    );
    let r = run(Runner::DmaChaos, &s);
    assert!(!r.verified);
    assert!(
        r.recorded.contains(&DEAD_SENTINEL),
        "the kill unblocks the stalled access"
    );
}
