//! End-to-end fault-injection recovery tests.
//!
//! The recovery contract (docs/architecture.md §7): every fault class must
//! end in completion with the exact fault-free output, or a clean reported
//! error state — never a deadlock, never a panic. These tests drive each
//! class through the [`cohort::scenarios::Runner::Chaos`] run, which arms the
//! whole stack: watchdog, swap-backed fault handler, storm hook, and the
//! bounded-retry error handler with a software fallback. The last test
//! builds the paging part of that stack by hand so that it can look at the
//! run between cycles.

use cohort::scenarios::{run_scenario, RunResult, Runner, Scenario, Workload};
use cohort_sim::config::SocConfig;
use cohort_sim::faultinject::{FaultKind, FaultPlan, RandomFaults, FOREVER};

/// An admitted run through the one way in.
fn run(runner: Runner, scenario: &Scenario) -> RunResult {
    run_scenario(runner, scenario, None).expect("admitted")
}

/// A small SHA chaos scenario carrying `plan`.
fn chaos_scenario(plan: FaultPlan) -> Scenario {
    let mut s = Scenario::new(Workload::Sha, 64, 8);
    s.soc = SocConfig::default().with_faults(plan);
    s
}

/// Order-sensitive payload checksum.
fn checksum(words: &[u64]) -> u64 {
    words.iter().fold(0u64, |acc, &w| acc.rotate_left(7) ^ w)
}

fn engine_counter(r: &RunResult, name: &str) -> u64 {
    r.counter("engine", name)
        .unwrap_or_else(|| panic!("missing counter {name}"))
}

/// Extracts a histogram's sample count from the stats-registry JSON,
/// summed over every scoped key ending in `name`.
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

#[test]
fn finite_stall_recovers_without_watchdog_trip() {
    let plan = FaultPlan::default().at(5_000, FaultKind::AccelStall { cycles: 3_000 });
    let r = run(Runner::Chaos, &chaos_scenario(plan));
    assert!(r.verified, "finite stall must not corrupt output");
    assert_eq!(
        engine_counter(&r, "watchdog_trips"),
        0,
        "stall shorter than the watchdog"
    );
    assert_eq!(engine_counter(&r, "error_irqs"), 0);
}

#[test]
fn infinite_stall_trips_watchdog_and_degrades_to_software() {
    let mut s =
        chaos_scenario(FaultPlan::default().at(5_000, FaultKind::AccelStall { cycles: FOREVER }));
    s.watchdog = 20_000; // detect the wedge quickly
    let r = run(Runner::Chaos, &s);
    assert!(
        r.verified,
        "software fallback must reproduce the full digest stream"
    );
    assert!(
        engine_counter(&r, "watchdog_trips") >= 1,
        "the wedge must be detected"
    );
    assert!(engine_counter(&r, "error_irqs") >= 1, "and reported");
}

#[test]
fn corrupted_descriptor_is_rejected_and_recovered() {
    let plan = FaultPlan::default().at(8_000, FaultKind::CorruptDescriptor);
    let r = run(Runner::Chaos, &chaos_scenario(plan));
    assert!(
        r.verified,
        "corruption must be rejected, then worked around"
    );
    assert!(
        engine_counter(&r, "error_irqs") >= 1,
        "bad descriptor must raise the error IRQ"
    );
}

#[test]
fn page_fault_storm_output_matches_fault_free_run() {
    let plan = FaultPlan::default()
        .at(6_000, FaultKind::PageFaultStorm { pages: 2 })
        .at(20_000, FaultKind::PageFaultStorm { pages: 3 });
    let scenario = chaos_scenario(plan);
    let stormy = run(Runner::Chaos, &scenario);
    let clean = run(Runner::Cohort, &Scenario::new(Workload::Sha, 64, 8));
    assert!(stormy.verified && clean.verified);
    assert_eq!(
        checksum(&stormy.recorded),
        checksum(&clean.recorded),
        "storm recovery must be data-lossless"
    );
    assert!(
        stormy.cycles >= clean.cycles,
        "faults may cost cycles, never correctness"
    );
}

#[test]
fn latency_spike_completes_with_correct_output() {
    let plan = FaultPlan::default().at(
        3_000,
        FaultKind::LatencySpike {
            cycles: 5_000,
            factor: 8,
        },
    );
    let r = run(Runner::Chaos, &chaos_scenario(plan));
    assert!(r.verified, "a slow NoC is still a correct NoC");
}

#[test]
fn seeded_random_plan_is_deterministic_across_runs() {
    let make = || {
        let plan = FaultPlan::default()
            .at(4_000, FaultKind::AccelStall { cycles: 2_000 })
            .with_random(RandomFaults {
                seed: 0xC0FFEE,
                count: 4,
                from: 10_000,
                to: 60_000,
            });
        let mut s = chaos_scenario(plan);
        s.watchdog = 30_000;
        s
    };
    let a = run(Runner::Chaos, &make());
    let b = run(Runner::Chaos, &make());
    assert!(a.verified && b.verified);
    assert_eq!(a.cycles, b.cycles, "same seed, same cycle count");
    assert_eq!(checksum(&a.recorded), checksum(&b.recorded));
    assert_eq!(
        a.stats_json, b.stats_json,
        "whole stats snapshot must be identical"
    );
}

#[test]
fn error_irq_latency_is_measured_end_to_end() {
    let plan = FaultPlan::default().at(8_000, FaultKind::CorruptDescriptor);
    let r = run(Runner::Chaos, &chaos_scenario(plan));
    assert!(r.verified);
    let irqs = engine_counter(&r, "error_irqs");
    assert!(irqs >= 1);
    // Every error IRQ's latch→handler-completion span lands in the
    // histogram, whether the handler resumed or disabled the engine.
    assert!(
        hist_count(&r.stats_json, "error_irq_latency") >= irqs,
        "every error IRQ must close a latency span: {}",
        r.stats_json
    );
}

#[test]
fn retry_budget_resets_after_each_successful_recovery() {
    // Three watchdog-tripping stalls separated by healthy progress. The
    // per-incident retry budget is 2: without the forward-progress reset
    // the third incident would inherit an exhausted counter and
    // needlessly fall back to software. With it, every incident is
    // recovered in hardware and the engine produces the full stream.
    let plan = FaultPlan::default()
        .at(4_000, FaultKind::AccelStall { cycles: 15_000 })
        .at(22_000, FaultKind::AccelStall { cycles: 15_000 })
        .at(40_000, FaultKind::AccelStall { cycles: 15_000 });
    let mut s = chaos_scenario(plan);
    s.watchdog = 10_000; // each stall overruns the budget exactly once
    let r = run(Runner::Chaos, &s);
    assert!(r.verified);
    assert!(
        engine_counter(&r, "watchdog_trips") >= 3,
        "all three wedges detected"
    );
    assert_eq!(
        engine_counter(&r, "resumes"),
        engine_counter(&r, "error_irqs"),
        "every incident recovered by an ERROR_STATUS clear, none by fallback"
    );
    assert_eq!(
        engine_counter(&r, "produced"),
        r.recorded.len() as u64,
        "the hardware engine, not the software fallback, produced every element"
    );
}

#[test]
fn chaos_transitions_are_visible_in_the_trace() {
    let mut s =
        chaos_scenario(FaultPlan::default().at(5_000, FaultKind::AccelStall { cycles: FOREVER }));
    s.watchdog = 20_000;
    s.trace = true;
    let r = run(Runner::Chaos, &s);
    assert!(r.verified);
    let trace = r.trace_json.expect("tracing enabled");
    assert!(trace.contains("fault:stall"), "injection instant present");
    assert!(
        trace.contains("watchdog_trip"),
        "watchdog trip instant present"
    );
    assert!(trace.contains("error_irq"), "error IRQ instant present");
}

/// A lazily-mapped SHA run with two page-fault storms and tracing on. The
/// storm hook, the core's fault hook and the engine's page-fault IRQ
/// handler share one `SharedVm` and one `SwapStore`. Returns whether the
/// output verified, and the final stats JSON. With `snapshots`, the stats
/// and the trace are rendered before every cycle of the run.
fn lazy_storm_run(snapshots: bool) -> (bool, String) {
    use cohort::system::{SimSystem, SystemSpec};
    use cohort_os::addrspace::MapPolicy;
    use cohort_os::driver::swap_store;
    use cohort_os::sv39::PAGE_BYTES;
    use cohort_os::CohortDriver;
    use cohort_sim::core::InOrderCore;
    use cohort_sim::faultinject::FaultInjector;
    use cohort_sim::program::{Op, Program};
    use std::rc::Rc;

    let scenario = Scenario::new(Workload::Sha, 64, 8);
    let plan = FaultPlan::default()
        .at(2_500, FaultKind::PageFaultStorm { pages: 2 })
        .at(4_500, FaultKind::PageFaultStorm { pages: 2 });
    let spec = SystemSpec {
        cfg: SocConfig::default().with_faults(plan),
        policy: MapPolicy::Lazy,
        engine_accels: vec![scenario.workload.make_accel()],
        ..SystemSpec::default()
    };
    let mut sys = SimSystem::build(spec);
    let (n, m) = (scenario.queue_size, scenario.output_words());
    // A page of padding puts the two queues on pages of their own.
    let in_q = sys.alloc_queue(8, n as u32).descriptor;
    sys.alloc_buffer(PAGE_BYTES, PAGE_BYTES);
    let out_q = sys.alloc_queue(8, m as u32).descriptor;
    let driver = sys.drivers[0].clone();
    // The core touches the input queue before the engine is enabled and
    // the engine the output queue before the core pops, so each of them
    // takes a first-touch fault.
    let mut program = Program::new();
    for (i, w) in (0..n).zip(scenario.input_words()) {
        program.push(Op::Store {
            va: in_q.element_va(i),
            value: w,
        });
        if i + 1 == scenario.batch {
            program.append(driver.register_ops(sys.space.root_pa(), &in_q, &out_q, None, 700));
        }
        if (i + 1) % scenario.batch == 0 {
            program.push(Op::Fence);
            program.push(Op::Store {
                va: in_q.write_index_va,
                value: i + 1,
            });
        }
    }
    for j in 0..m {
        program.push(Op::WaitGe {
            va: out_q.write_index_va,
            value: j + 1,
        });
        program.push(Op::Load {
            va: out_q.element_va(j),
            record: true,
        });
    }
    program.push(Op::Store {
        va: out_q.read_index_va,
        value: m,
    });
    program.push(Op::Fence);
    program.append(driver.unregister_ops());

    let vm = CohortDriver::shared_vm(sys.space.clone(), sys.frames.clone());
    let swap = swap_store();
    let (storm_vm, storm_swap) = (Rc::clone(&vm), swap.clone());
    let pages: Vec<u64> = [in_q.base_va, out_q.base_va]
        .map(|va| va & !(PAGE_BYTES - 1))
        .into();
    let mut next = 0;
    sys.soc
        .component_mut::<FaultInjector>(sys.injector.expect("plan is not empty"))
        .expect("injector present")
        .set_storm_hook(Box::new(move |mem, count| {
            let (space, _) = &mut *storm_vm.borrow_mut();
            let mut evicted = 0;
            for _ in 0..count {
                let va = pages[next % pages.len()];
                next += 1;
                if let Some(pa) = space.translate(mem, va) {
                    storm_swap.borrow_mut().insert(va, pa & !(PAGE_BYTES - 1));
                    evicted += u64::from(space.unmap(mem, va));
                }
            }
            evicted
        }));
    let core_id = sys.core;
    let core = sys
        .soc
        .component_mut::<InOrderCore>(core_id)
        .expect("core present");
    core.load_program(program);
    driver.install_fault_handler(core, vm, Some(swap));

    sys.soc.set_tracing(true);
    let done = sys.soc.run_until(20_000_000, |soc| {
        if snapshots {
            assert!(soc.stats_json().contains("\"counters\""));
            assert!(soc.trace_json().contains("\"traceEvents\""));
        }
        soc.component::<InOrderCore>(core_id)
            .is_some_and(InOrderCore::is_done)
    });
    // Two of each: the first touch, and a page coming back from swap.
    let counters = sys.soc.stats().counter_values();
    for key in [".evicted_pages", ".core_faults", "engine#0.faults"] {
        let hit = counters.iter().find(|(name, _)| name.ends_with(key));
        assert!(
            hit.is_some_and(|(_, v)| *v >= 2),
            "{hit:?}: the storm hook, the core fault hook and the engine \
             IRQ handler must all have run"
        );
    }
    let expected = scenario.workload.reference_outputs(&scenario.input_words());
    (
        done && sys.core().recorded() == expected,
        sys.soc.stats_json(),
    )
}

/// The stats, trace, fault and VM cells are `RefCell`s shared between
/// components and hooks: a borrow held from one step into the next, or a
/// cell borrowed twice in one cycle, would panic here.
#[test]
fn mid_run_snapshots_of_a_lazy_storm_run_change_nothing() {
    let (verified, watched) = lazy_storm_run(true);
    assert!(verified, "the watched run verifies");
    let (verified, unwatched) = lazy_storm_run(false);
    assert!(verified, "the unwatched run verifies");
    assert_eq!(watched, unwatched);
}
