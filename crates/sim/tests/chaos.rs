//! Fault-injection framework tests: schedule determinism, spec parsing,
//! and the injector driving shared fault state on a live SoC. This is the
//! suite the CI `chaos` job runs.

use cohort_sim::component::{Component, TileCoord};
use cohort_sim::config::SocConfig;
use cohort_sim::faultinject::{FaultInjector, FaultKind, FaultPlan, RandomFaults, FOREVER};
use cohort_sim::mem::MemAccess;
use cohort_sim::os::Os;
use cohort_sim::soc::Soc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn schedule_is_deterministic_and_sorted() {
    let make = || {
        FaultPlan::default()
            .at(900, FaultKind::CorruptDescriptor)
            .at(100, FaultKind::AccelStall { cycles: 10 })
            .with_random(RandomFaults {
                seed: 7,
                count: 16,
                from: 0,
                to: 100_000,
            })
    };
    let a = make().schedule();
    let b = make().schedule();
    assert_eq!(a, b, "equal plans must resolve to identical schedules");
    assert_eq!(a.len(), 18, "two explicit + sixteen random events");
    assert!(
        a.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle),
        "sorted by cycle"
    );
    // A different seed yields a different schedule.
    let c = FaultPlan::default()
        .with_random(RandomFaults {
            seed: 8,
            count: 16,
            from: 0,
            to: 100_000,
        })
        .schedule();
    assert_ne!(a, c);
}

#[test]
fn random_events_stay_inside_the_window() {
    let plan = FaultPlan::default().with_random(RandomFaults {
        seed: 0xDECAF,
        count: 64,
        from: 5_000,
        to: 6_000,
    });
    for ev in plan.schedule() {
        assert!(
            (5_000..6_000).contains(&ev.at_cycle),
            "event at {}",
            ev.at_cycle
        );
    }
}

#[test]
fn parse_accepts_the_full_grammar() {
    let plan = FaultPlan::parse(
        "stall@1000:200; spike@2000:300:4; storm@3000:2; corrupt@4000; \
         stall@5000:forever; random:seed=9,count=3,from=10,to=20",
    )
    .expect("valid spec");
    assert_eq!(plan.events.len(), 5);
    assert_eq!(plan.events[0].kind, FaultKind::AccelStall { cycles: 200 });
    assert_eq!(
        plan.events[1].kind,
        FaultKind::LatencySpike {
            cycles: 300,
            factor: 4
        }
    );
    assert_eq!(plan.events[2].kind, FaultKind::PageFaultStorm { pages: 2 });
    assert_eq!(plan.events[3].kind, FaultKind::CorruptDescriptor);
    assert_eq!(
        plan.events[4].kind,
        FaultKind::AccelStall { cycles: FOREVER }
    );
    assert_eq!(
        plan.random,
        Some(RandomFaults {
            seed: 9,
            count: 3,
            from: 10,
            to: 20
        })
    );
}

#[test]
fn parse_rejects_malformed_entries() {
    for bad in [
        "stall@x:1",
        "spike@10:20",
        "storm@10",
        "corrupt@10:1",
        "wedge@10",
        "random:seed",
        "random:from=9,to=9",
    ] {
        assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
    }
    assert!(FaultPlan::parse("")
        .expect("empty spec is a no-op plan")
        .is_empty());
}

/// A kernel whose storms evict every page asked for, counting them.
struct Evictor {
    seen: Arc<AtomicU64>,
}

impl Os for Evictor {
    fn storm(&mut self, mem: &mut dyn MemAccess, pages: u64) -> Option<u64> {
        // Prove the kernel gets functional memory: leave a marker.
        mem.write_u64(0x9000, 0xFEED);
        self.seen.fetch_add(pages, Ordering::Relaxed);
        Some(pages)
    }
}

#[test]
fn injector_applies_events_and_drives_shared_state() {
    let plan = FaultPlan::default()
        .at(10, FaultKind::AccelStall { cycles: 100 })
        .at(
            20,
            FaultKind::LatencySpike {
                cycles: 50,
                factor: 4,
            },
        )
        .at(30, FaultKind::PageFaultStorm { pages: 2 })
        .at(40, FaultKind::CorruptDescriptor);
    let cfg = SocConfig::default().with_faults(plan.clone());
    let mut soc = Soc::new(cfg);
    let inj = FaultInjector::new(&plan, soc.fault_state().clone());
    let evictions = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&evictions);
    soc.set_os(Box::new(Evictor { seen }));
    let id = soc.add_component(TileCoord::new(2, 0), Box::new(inj));

    let outcome = soc.run(500);
    assert!(
        outcome.quiescent,
        "injector drains its schedule and goes idle"
    );

    let state = soc.fault_state();
    assert!(state.accel_stalled(100), "stall covers [10, 110)");
    assert!(!state.accel_stalled(120), "stall expired");
    assert_eq!(state.latency_factor(60), 4, "spike covers [20, 70)");
    assert_eq!(state.latency_factor(80), 1, "spike expired");
    assert_eq!(
        evictions.load(Ordering::Relaxed),
        2,
        "storm asked for 2 pages"
    );
    assert_eq!(soc.mem.read_u64(0x9000), 0xFEED);

    let inj = soc
        .component::<FaultInjector>(id)
        .expect("injector present");
    assert_eq!(inj.pending(), 0, "all four events applied");
    let counters: std::collections::HashMap<_, _> = inj.counters().into_iter().collect();
    assert_eq!(counters["stalls"], 1);
    assert_eq!(counters["spikes"], 1);
    assert_eq!(counters["storms"], 1);
    assert_eq!(counters["corruptions"], 1);
    assert_eq!(counters["evicted_pages"], 2);
}

#[test]
fn two_runs_of_the_same_plan_produce_identical_stats() {
    let run = || {
        let plan = FaultPlan::default().with_random(RandomFaults {
            seed: 42,
            count: 6,
            from: 0,
            to: 400,
        });
        let cfg = SocConfig::default().with_faults(plan.clone());
        let mut soc = Soc::new(cfg);
        let inj = FaultInjector::new(&plan, soc.fault_state().clone());
        soc.add_component(TileCoord::new(2, 0), Box::new(inj));
        soc.run(1_000);
        soc.stats_json()
    };
    assert_eq!(run(), run(), "same seed, same snapshot");
}
