//! The batching half of the determinism contract, enforced end to end.
//!
//! For a fixed scenario and seed, `RunResult::{cycles, checksum, recorded,
//! stats_json}` must be bit-identical whether the kernel steps every slot
//! on every cycle (`Lookahead::Force1`, the reference) or lets slots
//! sleep and jumps over idle cycles (`Lookahead::Auto`): a fast-forwarded
//! cycle must be indistinguishable from a stepped one, down to the last
//! histogram bucket in the stats-registry JSON. (The other half — results
//! do not depend on the order slots are stepped in — is covered where the
//! staging lives: `registration_order_does_not_change_results` and
//! `same_cycle_visibility_is_order_independent` in `cohort-sim`'s
//! `soc.rs`.)

use cohort::scenarios::{
    mesh16_scenario, run_scenario, RunResult, Runner, Scenario, ShardSpec, Workload,
};
use cohort_bench::report::kernel_cases;
use cohort_sim::config::{Lookahead, SocConfig};
use cohort_sim::faultinject::FaultPlan;

/// Returns the `(Force1, Auto)` runs.
fn assert_auto_matches_force1(
    name: &str,
    run: impl Fn(Lookahead) -> RunResult,
) -> (RunResult, RunResult) {
    let base = run(Lookahead::Force1);
    assert!(base.verified, "{name}: Force1 run failed verification");
    assert_eq!(
        base.ff_cycles, 0,
        "{name}: forced cycle-by-cycle stepping must never skip"
    );
    let auto = run(Lookahead::Auto);
    assert!(auto.verified, "{name}: Auto run failed verification");
    assert_eq!(base.cycles, auto.cycles, "{name}: cycle count diverged");
    assert_eq!(
        base.checksum, auto.checksum,
        "{name}: payload checksum diverged"
    );
    assert_eq!(
        base.recorded, auto.recorded,
        "{name}: recorded stream diverged"
    );
    assert_eq!(
        base.stats_json, auto.stats_json,
        "{name}: stats registry diverged"
    );
    (base, auto)
}

/// The kernel record's cases (`results/kernel.md`) equal `Force1` and
/// keep their floors: every cycle is a barrier or a jump, every barrier
/// steps a slot, and barriers drop at least `min_drop`-fold.
#[test]
fn kernel_cases_match_force1_and_keep_their_floors() {
    for case in kernel_cases() {
        let name = case.name;
        let (f1, auto) = assert_auto_matches_force1(name, |lookahead| case.run(lookahead));
        let barriers = auto.barrier_activations;
        assert_eq!(
            barriers + auto.ff_cycles,
            f1.barrier_activations,
            "{name}: barriers + ff cycles must add up to the Force1 cycle count"
        );
        assert!(
            auto.slot_steps >= barriers,
            "{name}: a barrier stepped nobody"
        );
        let drop = f1.barrier_activations as f64 / barriers as f64;
        assert!(
            drop >= case.min_drop,
            "{name}: barrier drop {drop:.2}x < {}x",
            case.min_drop
        );
        if name.starts_with("sharded-aes") {
            // Measured 11% and 11% (35% silent while a hint of 1 still
            // bought a step, 58% before the hints learnt that a buffered
            // word is an event only if its sink can take it).
            let slot_cycles = auto.slot_steps + auto.slot_sleeps;
            assert!(
                10 * auto.slot_steps < 6 * slot_cycles,
                "{name}: >= 60% of slots stepped"
            );
            assert!(
                4 * auto.silent_steps() < auto.slot_steps,
                "{name}: >= 25% silent steps"
            );
        }
    }
}

#[test]
fn sharded_runs_match_force1() {
    assert_auto_matches_force1("sharded-aes", |lookahead| {
        let mut scenario = Scenario::new(Workload::Aes, 64, 4);
        scenario.soc = SocConfig::default()
            .with_engines(2)
            .with_lookahead(lookahead);
        run_scenario(Runner::Sharded, &scenario, Some(&ShardSpec::new(2))).expect("pool binds")
    });
}

#[test]
fn mesh16_runs_match_force1() {
    let run = |lookahead, threads| {
        let (mut scenario, spec) = mesh16_scenario(64, 4);
        scenario.soc.lookahead = lookahead;
        scenario.soc.threads = threads;
        run_scenario(Runner::Sharded, &scenario, Some(&spec)).expect("pool binds")
    };
    assert_auto_matches_force1("mesh16", |lookahead| run(lookahead, 1));
    // `SocConfig::threads` is inert. The frozen benchmark's `par2` leg sets
    // it to 2 on this scenario and expects the same run back: every
    // `RunResult` field, kernel counters included.
    assert_eq!(
        format!("{:?}", run(Lookahead::Auto, 2)),
        format!("{:?}", run(Lookahead::Auto, 1)),
    );
}

#[test]
fn dram_contended_runs_match_force1() {
    // The DRAM contention model (plus its MSHR and NoC-ejection
    // backpressure) feeds every completion through the directory's
    // delayed-event heap, so it must be exactly as lookahead-invariant
    // as the flat memory system — including the conditionally-registered
    // dram_* stats.
    let dram = cohort_sim::dram::DramConfig::from_spec("channels=1,queue=2,miss=100,mshrs=3")
        .expect("valid dram spec");
    assert_auto_matches_force1("sharded-aes-dram", |lookahead| {
        let mut scenario = Scenario::new(Workload::Aes, 64, 4);
        scenario.soc = SocConfig::default()
            .with_engines(2)
            .with_dram(dram.clone())
            .with_lookahead(lookahead);
        run_scenario(Runner::Sharded, &scenario, Some(&ShardSpec::new(2))).expect("pool binds")
    });
}

#[test]
fn chaos_runs_match_force1() {
    // Stall + latency spike + page storm: every staged fault-flip path,
    // with the full recovery stack (watchdog, swap store, retry) armed.
    let plan = FaultPlan::parse("stall@2000:1500;spike@5000:3000:4;storm@9000:2")
        .expect("valid fault spec");
    assert_auto_matches_force1("chaos", |lookahead| {
        let mut scenario = Scenario::new(Workload::Sha, 64, 8);
        scenario.soc = SocConfig::default()
            .with_faults(plan.clone())
            .with_lookahead(lookahead);
        run_scenario(Runner::Chaos, &scenario, None).expect("admitted")
    });
}

#[test]
fn failover_runs_match_force1() {
    // Default plan: fail-stop of the mid-chain SHA engine at cycle 20k,
    // exactly-once queue migration onto the cold spare.
    assert_auto_matches_force1("chain-failover", |lookahead| {
        let mut scenario = Scenario::new(Workload::Sha, 64, 8);
        scenario.soc = SocConfig::default().with_lookahead(lookahead);
        run_scenario(Runner::Failover, &scenario, None).expect("admitted")
    });
}
