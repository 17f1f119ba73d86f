//! The five workloads: which simulator runs make up one *pass* of each,
//! and how a pass's inputs follow from the seed.
//!
//! Every run goes through `cohort::scenarios::run_scenario` with a
//! `Scenario` built from `SocConfig` setters — the one dispatch point the
//! simulator's own tools share — single-threaded, `Lookahead::Auto`,
//! tracing off.

use cohort::scenarios::{Runner, Scenario, ShardSpec, Workload};
use cohort_sim::config::SocConfig;
use cohort_sim::dram::DramConfig;
use cohort_sim::faultinject::{splitmix64, FaultKind, FaultPlan};

/// The starved memory system of `results/scaling_dram.md`
/// (`cohort_bench::params::DRAM_SWEEP_SPEC`; that crate is not a
/// dependency, so the spec is repeated here).
pub const DRAM_SPEC: &str = "channels=1,queue=2,miss=100,mshrs=3,ejection=1";

/// How big a run is: everything `--quick` changes.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Input elements of every run.
    pub queue: u64,
    /// Warm-up passes of one set-up: passes 0.. of the seed. Timed passes
    /// continue from there.
    pub warmup_passes: u64,
    /// Rounds of a run: each is one set-up repetition followed by its share
    /// of the timed passes. `setup_s` takes each step's fastest repetition.
    pub setup_reps: usize,
    /// Timed passes every run makes, however short `--seconds` is. The
    /// simulated metrics are read from exactly these, so a seed gives the
    /// same values on a host of any speed.
    pub min_passes: usize,
    /// Probe iteration counts are divided by this.
    pub probe_divisor: u64,
}

impl Sizing {
    /// Table 2's largest queue; passes are timed for `--seconds` (20 s).
    pub const FULL: Sizing = Sizing {
        queue: 8192,
        warmup_passes: 3,
        setup_reps: 5,
        min_passes: 16,
        probe_divisor: 1,
    };
    /// The under-10-seconds smoke run (made with `--seconds 0`).
    pub const QUICK: Sizing = Sizing {
        queue: 1024,
        warmup_passes: 1,
        setup_reps: 1,
        min_passes: 4,
        probe_divisor: 8,
    };
}

/// Reference runs a workload's traced run adds to the common legs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtraLegs {
    None,
    /// One mesh16 run on two host threads against the same run on one.
    TwoThreads,
    /// The same run on flat memory, and on one shard.
    DramReferences,
}

/// One call to `run_scenario`.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub runner: Runner,
    pub scenario: Scenario,
    pub shard: Option<ShardSpec>,
}

impl RunSpec {
    fn new(runner: Runner, accel: Workload, queue: u64, batch: u64, seed: u64) -> Self {
        let mut scenario = Scenario::new(accel, queue, batch);
        scenario.seed = seed;
        Self {
            runner,
            scenario,
            shard: None,
        }
    }

    fn runner_name(&self) -> &'static str {
        match self.runner {
            Runner::Sharded => "sharded",
            other => other.name(),
        }
    }

    fn accel_name(&self) -> &'static str {
        match self.scenario.workload {
            Workload::Sha => "sha",
            Workload::Aes => "aes",
        }
    }

    /// `<runner>_<accel>`, the suffix of this run's `core.*` metrics.
    pub fn label(&self) -> String {
        format!("{}_{}", self.runner_name(), self.accel_name())
    }

    /// Name of the span around this run.
    pub fn span_name(&self) -> String {
        format!("run_scenario:{}:{}", self.runner_name(), self.accel_name())
    }

    /// Input elements the run pushes.
    pub fn elements(&self) -> u64 {
        self.scenario.queue_size
    }

    /// `(SHA-256, AES-128)` accelerator blocks the functional models
    /// process in this run. The failover chain encrypts every word pair
    /// and hashes the ciphertext; the other runners host one accelerator.
    pub fn accel_blocks(&self) -> (u64, u64) {
        let n = self.scenario.queue_size;
        match (self.runner, self.scenario.workload) {
            (Runner::Failover, _) => (n / 8, n / 2),
            (_, Workload::Sha) => (n / 8, 0),
            (_, Workload::Aes) => (0, n / 2),
        }
    }

    /// Fail-stop faults the run's plan injects.
    pub fn kills(&self) -> u64 {
        let schedule = self.scenario.soc.faults.schedule();
        let kills = schedule
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::KillEngine { .. }));
        kills.count() as u64
    }
}

/// A named workload: the reason it exists and the runs of one pass.
pub struct WorkloadDef {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Runs of the pass whose scenario seed is `pass_seed`.
    pub pass: fn(queue: u64, pass_seed: u64) -> Vec<RunSpec>,
    pub extra_legs: ExtraLegs,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "cohort_single",
        why: "Cohort SHA+AES, one engine: engine, core and directory do the work, MAPLE none",
        pass: |queue, seed| {
            vec![
                RunSpec::new(Runner::Cohort, Workload::Sha, queue, 64, seed),
                RunSpec::new(Runner::Cohort, Workload::Aes, queue, 64, seed),
            ]
        },
        extra_legs: ExtraLegs::None,
    },
    WorkloadDef {
        name: "baseline_mmio_dma",
        why: "MMIO and DMA baselines: MAPLE and a blocked core, mostly fast-forwarded, no engine",
        pass: |queue, seed| {
            [Runner::Mmio, Runner::Dma]
                .into_iter()
                .flat_map(|runner| {
                    [Workload::Sha, Workload::Aes]
                        .map(|accel| RunSpec::new(runner, accel, queue, 64, seed))
                })
                .collect()
        },
        extra_legs: ExtraLegs::None,
    },
    WorkloadDef {
        name: "mesh16_sharded",
        why: "16 cores, 4 engines on a 4x4 NoC: per-cycle step and commit over many slots",
        pass: |queue, seed| vec![RunSpec::new(Runner::Mesh16, Workload::Aes, queue, 8, seed)],
        extra_legs: ExtraLegs::TwoThreads,
    },
    WorkloadDef {
        name: "dram_contended",
        why: "8 shards on a starved DRAM: MSHR parking, channel rejects and ejection deferral",
        pass: |queue, seed| {
            let mut spec = RunSpec::new(Runner::Sharded, Workload::Aes, queue, 8, seed);
            spec.scenario.soc = contended_soc(8);
            spec.shard = Some(ShardSpec::new(8));
            vec![spec]
        },
        extra_legs: ExtraLegs::DramReferences,
    },
    WorkloadDef {
        name: "chain_failover",
        why: "AES->SHA chain, engine killed mid-run: driver recovery, watchdog, drain, rebind",
        pass: |queue, seed| {
            // The seed moves where in the run recovery lands. The window
            // scales with the queue so a quick run is still killed mid-run.
            let window = 590_000 * queue / Sizing::FULL.queue;
            let kill_at = 10_000 + seed % window;
            let mut spec = RunSpec::new(Runner::Failover, Workload::Sha, queue, 16, seed);
            spec.scenario.soc = SocConfig::default()
                .with_faults(FaultPlan::default().at(kill_at, FaultKind::KillEngine { engine: 1 }));
            vec![spec]
        },
        extra_legs: ExtraLegs::None,
    },
];

fn contended_soc(engines: usize) -> SocConfig {
    let dram = DramConfig::from_spec(DRAM_SPEC).expect("DRAM_SPEC is a valid spec");
    SocConfig::default().with_engines(engines).with_dram(dram)
}

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Scenario seed of pass `pass` under benchmark seed `seed`.
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    let mut state = seed.wrapping_add(pass);
    splitmix64(&mut state)
}

/// The six Table 3 reference runs: Cohort, MMIO and DMA on SHA and AES at
/// batch 64. Order: `[cohort, mmio, dma]` for SHA, then for AES.
pub fn table3_runs(queue: u64, seed: u64) -> Vec<RunSpec> {
    [Workload::Sha, Workload::Aes]
        .into_iter()
        .flat_map(|accel| {
            [Runner::Cohort, Runner::Mmio, Runner::Dma]
                .map(|runner| RunSpec::new(runner, accel, queue, 64, seed))
        })
        .collect()
}

/// `dram_contended`'s two reference runs: the same 8-shard run on flat
/// memory, and a 1-shard run on the same starved DRAM.
pub fn dram_reference_runs(queue: u64, seed: u64) -> [RunSpec; 2] {
    let mut flat = RunSpec::new(Runner::Sharded, Workload::Aes, queue, 8, seed);
    flat.scenario.soc = SocConfig::default().with_engines(8);
    flat.shard = Some(ShardSpec::new(8));
    let mut one_shard = RunSpec::new(Runner::Sharded, Workload::Aes, queue, 8, seed);
    one_shard.scenario.soc = contended_soc(1);
    one_shard.shard = Some(ShardSpec::new(1));
    [flat, one_shard]
}

/// The mesh16 run the 2-thread leg repeats (an eighth of the queue: the
/// 2-thread kernel is far slower than 1 thread on a small host).
pub fn par2_run(queue: u64, seed: u64) -> RunSpec {
    RunSpec::new(Runner::Mesh16, Workload::Aes, queue / 8, 8, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        for w in &WORKLOADS {
            let a = (w.pass)(Sizing::QUICK.queue, pass_seed(7, 0));
            let b = (w.pass)(Sizing::QUICK.queue, pass_seed(7, 0));
            let c = (w.pass)(Sizing::QUICK.queue, pass_seed(8, 0));
            for ((a, b), c) in a.iter().zip(&b).zip(&c) {
                assert_eq!(a.scenario.input_words(), b.scenario.input_words());
                assert_eq!(a.scenario.soc, b.scenario.soc);
                assert_ne!(a.scenario.input_words(), c.scenario.input_words());
            }
        }
    }

    #[test]
    fn labels_name_runner_and_accelerator() {
        let labels: Vec<String> = WORKLOADS
            .iter()
            .flat_map(|w| (w.pass)(Sizing::FULL.queue, 1))
            .map(|r| r.label())
            .collect();
        assert_eq!(
            labels,
            [
                "cohort_sha",
                "cohort_aes",
                "mmio_sha",
                "mmio_aes",
                "dma_sha",
                "dma_aes",
                "mesh16_aes",
                "sharded_aes",
                "failover_sha"
            ]
        );
    }

    #[test]
    fn failover_kill_lands_inside_the_scaled_window() {
        let failover = find("chain_failover").expect("defined");
        for seed in 0..50 {
            for (queue, hi) in [(Sizing::FULL.queue, 600_000), (Sizing::QUICK.queue, 83_750)] {
                let run = &(failover.pass)(queue, pass_seed(seed, 0))[0];
                let at = run.scenario.soc.faults.schedule()[0].at_cycle;
                assert!((10_000..hi).contains(&at), "kill at {at}");
                assert_eq!(run.kills(), 1);
            }
        }
    }
}
