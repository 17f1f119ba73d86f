//! Full-system integration tests: benchmark scenarios on the simulated SoC
//! with end-to-end output verification.

use cohort::scenarios::{
    run_cohort, run_cohort_chain, run_cohort_chain_failover, run_cohort_interfered, run_dma,
    run_mmio, run_scenario, CustomRun, Runner, Scenario, ShardSpec, Workload, AES_KEY,
};
use cohort_accel::aes128::Aes128Accel;
use cohort_os::addrspace::MapPolicy;
use cohort_sim::faultinject::FaultPlan;

#[test]
fn cohort_sha_verifies_across_sizes_and_batches() {
    for qs in [64u64, 256, 1024] {
        for batch in [8u64, 64] {
            let r = run_cohort(&Scenario::new(Workload::Sha, qs, batch));
            assert!(r.verified, "sha qs={qs} batch={batch}");
            assert_eq!(r.recorded.len() as u64, qs / 2);
        }
    }
}

#[test]
fn cohort_aes_verifies_across_sizes_and_batches() {
    for qs in [64u64, 256] {
        for batch in [2u64, 16, 64] {
            let r = run_cohort(&Scenario::new(Workload::Aes, qs, batch));
            assert!(r.verified, "aes qs={qs} batch={batch}");
            assert_eq!(r.recorded.len() as u64, qs);
        }
    }
}

#[test]
fn baselines_verify() {
    for wl in [Workload::Sha, Workload::Aes] {
        let m = run_mmio(&Scenario::new(wl, 128, 64));
        assert!(m.verified, "{wl:?} mmio");
        let d = run_dma(&Scenario::new(wl, 128, 64));
        assert!(d.verified, "{wl:?} dma");
    }
}

#[test]
fn cohort_outperforms_both_baselines_at_batch_64() {
    for wl in [Workload::Sha, Workload::Aes] {
        let s = Scenario::new(wl, 512, 64);
        let c = run_cohort(&s).cycles;
        let m = run_mmio(&s).cycles;
        let d = run_dma(&s).cycles;
        assert!(c < m, "{wl:?}: cohort {c} vs mmio {m}");
        assert!(c < d, "{wl:?}: cohort {c} vs dma {d}");
    }
}

#[test]
fn sha_speedup_larger_than_aes_speedup() {
    // The paper's central asymmetry (§6.1): AES's symmetric data movement
    // and lower latency give it smaller gains.
    let sha = Scenario::new(Workload::Sha, 1024, 64);
    let aes = Scenario::new(Workload::Aes, 1024, 64);
    let sha_speedup = run_mmio(&sha).cycles as f64 / run_cohort(&sha).cycles as f64;
    let aes_speedup = run_mmio(&aes).cycles as f64 / run_cohort(&aes).cycles as f64;
    assert!(
        sha_speedup > 1.5 * aes_speedup,
        "sha {sha_speedup:.2} vs aes {aes_speedup:.2}"
    );
}

#[test]
fn small_batches_lose_to_baselines_for_aes() {
    // Fig. 9: "batch sizes larger than 16 elements always perform equal or
    // better than both baselines" — conversely batch=2 is worse.
    let s = Scenario::new(Workload::Aes, 512, 2);
    let c = run_cohort(&s).cycles;
    let m = run_mmio(&s).cycles;
    assert!(c > m, "AES batch=2 cohort {c} should lose to MMIO {m}");
}

#[test]
fn lazy_mapping_faults_are_resolved_by_the_driver() {
    let mut s = Scenario::new(Workload::Sha, 128, 16);
    s.policy = MapPolicy::Lazy;
    let r = run_cohort(&s);
    assert!(r.verified, "lazy run must still verify");
    let faults = r.counter("engine", "faults").unwrap_or(0);
    assert!(faults > 0, "lazy mapping must exercise the page-fault path");
    let irqs = r.counter("core", "irqs").unwrap_or(0);
    // Concurrent faults on both MTE channels coalesce into one interrupt.
    assert!(irqs > 0 && irqs <= faults, "irqs {irqs} vs faults {faults}");

    // Not only `run_cohort`: every runner that hosts the workload behind
    // Cohort engines arms the same paging stage. That covers the key and
    // CSR buffers the host seeds before the run, the second core of the
    // interference study, and a failover that lands before anyone has
    // touched the victim's index lines.
    let lazy = |workload, queue_size| {
        let mut s = Scenario::new(workload, queue_size, 16);
        s.policy = MapPolicy::Lazy;
        s
    };
    let input = lazy(Workload::Aes, 1024).input_words();
    let expected = Workload::Aes.reference_outputs(&input);
    let mut custom = CustomRun::new(Box::new(Aes128Accel::new()), input, expected);
    custom.csr = Some(AES_KEY.to_vec());
    custom.policy = MapPolicy::Lazy;
    let mut early_kill = lazy(Workload::Sha, 1024);
    early_kill.soc.faults = FaultPlan::parse("kill@3000:1").expect("parses");
    early_kill.watchdog = 20_000;
    let rows = [
        ("chain", run_cohort_chain(&lazy(Workload::Sha, 1024))),
        (
            "interfered sha",
            run_cohort_interfered(&lazy(Workload::Sha, 1024)),
        ),
        (
            "interfered aes",
            run_cohort_interfered(&lazy(Workload::Aes, 1024)),
        ),
        ("custom run with a CSR", custom.run()),
        (
            "failover, early kill",
            run_cohort_chain_failover(&early_kill),
        ),
    ];
    for (name, r) in rows {
        assert!(r.verified, "{name}: lazy run must still verify");
        let faults = r.counter("engine", "faults").unwrap_or(0);
        assert!(faults > 0, "{name}: must exercise the page-fault path");
    }
}

#[test]
fn lazy_mapping_costs_more_than_eager() {
    let eager = run_cohort(&Scenario::new(Workload::Sha, 256, 64));
    let mut s = Scenario::new(Workload::Sha, 256, 64);
    s.policy = MapPolicy::Lazy;
    let lazy = run_cohort(&s);
    assert!(lazy.cycles > eager.cycles);
}

#[test]
fn huge_pages_reduce_tlb_misses() {
    let mut small = Scenario::new(Workload::Sha, 2048, 64);
    small.soc.tlb_entries = 4; // stress the TLB
    let base = run_cohort(&small);
    let mut huge = small.clone();
    huge.policy = MapPolicy::HugePages;
    let hp = run_cohort(&huge);
    assert!(hp.verified && base.verified);
    let m_base = base.counter("engine", "tlb_misses").unwrap();
    let m_hp = hp.counter("engine", "tlb_misses").unwrap();
    assert!(
        m_hp < m_base,
        "huge pages should cut engine TLB misses: {m_hp} vs {m_base}"
    );
}

#[test]
fn shared_mte_verifies_and_is_no_faster_at_queue_256() {
    // Fig. 6's single MTE (`TimingConfig::mte_shared`): the endpoints take
    // turns on it. The output is the same; at this size the turn-taking
    // costs cycles (SHA 43,821 vs 43,755, AES 64,871 vs 60,871).
    for wl in [Workload::Sha, Workload::Aes] {
        let split = Scenario::new(wl, 256, 8);
        let mut shared = split.clone();
        shared.soc.timing.mte_shared = true;
        let (split, shared) = (run_cohort(&split), run_cohort(&shared));
        assert!(split.verified && shared.verified, "{wl:?}");
        assert!(
            shared.cycles >= split.cycles,
            "{wl:?}: shared {} vs split {}",
            shared.cycles,
            split.cycles
        );
    }
}

#[test]
fn rcm_observes_invalidations() {
    let r = run_cohort(&Scenario::new(Workload::Sha, 256, 16));
    let invs = r.counter("engine", "rcm_invalidations").unwrap();
    assert!(
        invs > 0,
        "batched publications must be seen as invalidations"
    );
    let backoffs = r.counter("engine", "backoffs").unwrap();
    assert!(backoffs > 0);
}

#[test]
fn engine_counters_match_data_volume() {
    let r = run_cohort(&Scenario::new(Workload::Aes, 256, 32));
    assert_eq!(r.counter("engine", "consumed"), Some(256));
    assert_eq!(r.counter("engine", "produced"), Some(256));
}

#[test]
fn chained_engines_verify_and_report() {
    let r = run_cohort_chain(&Scenario::new(Workload::Sha, 128, 16));
    assert!(r.verified);
    assert_eq!(r.recorded.len(), 64);
    // Both engines moved data.
    let engines: Vec<_> = r
        .counters
        .iter()
        .filter(|(c, _)| c.starts_with("engine#"))
        .collect();
    assert_eq!(engines.len(), 2);
    for (name, counters) in engines {
        let consumed = counters.iter().find(|(k, _)| k == "consumed").unwrap().1;
        assert!(consumed > 0, "{name} consumed nothing");
    }
}

#[test]
fn deterministic_given_seed() {
    let a = run_cohort(&Scenario::new(Workload::Sha, 128, 16));
    let b = run_cohort(&Scenario::new(Workload::Sha, 128, 16));
    assert_eq!(a.cycles, b.cycles, "simulation must be deterministic");
    assert_eq!(a.instret, b.instret);
    assert_eq!(a.recorded, b.recorded);
}

#[test]
fn different_seeds_different_data_same_shape() {
    let mut s1 = Scenario::new(Workload::Aes, 128, 16);
    s1.seed = 1;
    let mut s2 = Scenario::new(Workload::Aes, 128, 16);
    s2.seed = 2;
    let a = run_cohort(&s1);
    let b = run_cohort(&s2);
    assert!(a.verified && b.verified);
    assert_ne!(
        a.recorded, b.recorded,
        "different plaintext, different ciphertext"
    );
}

#[test]
fn latency_scales_roughly_linearly_with_queue_size() {
    let small = run_cohort(&Scenario::new(Workload::Sha, 256, 64)).cycles as f64;
    let large = run_cohort(&Scenario::new(Workload::Sha, 1024, 64)).cycles as f64;
    let ratio = large / small;
    assert!(
        (2.5..6.0).contains(&ratio),
        "4x data should be ~4x cycles, got {ratio:.2}"
    );
}

/// Admitted means it completes: over every runner and a grid of sizes on
/// both sides of every granularity rule, whatever the admission check lets
/// through must finish verified. A rule that is too loose fails here (as a
/// budget overrun) instead of shipping; one that is too tight loses rows.
#[test]
fn admitted_runs_complete_and_verify() {
    let mut admitted = Vec::new();
    for runner in Runner::ALL {
        for wl in [Workload::Sha, Workload::Aes] {
            for queue in [56u64, 60, 63, 64] {
                for batch in [1u64, 2, 3, 4, 8, 12, 16, 100] {
                    let mut s = Scenario::new(wl, queue, batch);
                    s.soc.engines = 2;
                    // `Err` is the admission check's refusal, nothing else.
                    let Ok(r) = run_scenario(runner, &s, Some(&ShardSpec::new(2))) else {
                        continue;
                    };
                    assert!(r.verified, "{runner} {wl:?} queue={queue} batch={batch}");
                    admitted.push((runner, wl, queue, batch));
                }
            }
        }
    }
    // Rows that run today and no rule may take away.
    for row in [
        (Runner::Sharded, Workload::Sha, 64, 4),
        (Runner::Chain, Workload::Sha, 64, 4),
        (Runner::Mmio, Workload::Sha, 64, 4),
        (Runner::Dma, Workload::Sha, 64, 4),
        (Runner::Mesh16, Workload::Aes, 64, 1),
        (Runner::Cohort, Workload::Aes, 60, 12),
        (Runner::Cohort, Workload::Sha, 64, 100),
    ] {
        assert!(admitted.contains(&row), "lost row {row:?}");
    }
    // Whole blocks: SHA at 56 and 64, AES also at 60, chains at 56 and 64
    // for either workload; on the single-engine program only, batches of
    // whole blocks (SHA 8 and 16, AES the even ones) or past the queue.
    assert_eq!(admitted.len(), 3 * (6 + 18) + 5 * (16 + 24) + 2 * 32);
}
