//! Memoized benchmark execution across figures.

use crate::run_params::{RunParams, SOLO_SEED};
use cohort::scenarios::{run_scenario, RunResult, Runner, Workload};
use cohort_os::driver::Placement;
use cohort_sim::dram::DramConfig;

/// Communication API under test (Table 2 "communication modes"): the
/// figure-column label of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Cohort engine + SPSC queues, with a batching factor.
    Cohort {
        /// Pointer-update batching factor.
        batch: u64,
    },
    /// MMIO word-at-a-time baseline.
    Mmio,
    /// Coherent DMA baseline.
    Dma,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Cohort { batch } => write!(f, "Cohort batch={batch}"),
            Mode::Mmio => f.write_str("MMIO"),
            Mode::Dma => f.write_str("DMA-Coherent"),
        }
    }
}

/// A memoizing runner: each `(runner, parameters)` configuration is
/// simulated once, through the same [`RunParams::to_scenario`] +
/// [`run_scenario`] door as every other front end, and the [`RunResult`]
/// shared between figures.
#[derive(Default)]
pub struct Sweep {
    /// A few hundred entries at most, compared whole: no second, hashable
    /// copy of the parameter set to keep in step with [`RunParams`].
    cache: Vec<(Runner, RunParams, RunResult)>,
    /// If true, print one progress line per fresh simulation.
    pub verbose: bool,
}

impl Sweep {
    /// Creates an empty sweep cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs (or recalls) `params` on `runner`.
    ///
    /// # Panics
    /// Panics if the run is refused or its output fails end-to-end
    /// verification — a benchmark number is only reported for runs whose
    /// accelerator output matched the host-side reference.
    fn memoized(&mut self, runner: Runner, params: RunParams) -> &RunResult {
        let mut cached = self.cache.iter();
        let hit = cached.position(|(r, p, _)| (*r, p) == (runner, &params));
        let index = hit.unwrap_or_else(|| {
            let what = format!(
                "{runner} {:?} queue={} batch={} shards={}",
                params.workload, params.queue, params.batch, params.shards
            );
            if self.verbose {
                eprintln!("  simulating {what} ...");
            }
            let (scenario, shard) = params.to_scenario(runner, SOLO_SEED);
            let result = run_scenario(runner, &scenario, shard.as_ref())
                .unwrap_or_else(|e| panic!("refused run: {what}: {e}"));
            assert!(result.verified, "unverified run: {what}");
            self.cache.push((runner, params, result));
            self.cache.len() - 1
        });
        &self.cache[index].2
    }

    /// Runs (or recalls) one single-engine configuration.
    ///
    /// # Panics
    /// Panics if the run is refused or fails verification.
    pub fn run(&mut self, workload: Workload, mode: Mode, queue_size: u64) -> &RunResult {
        let (runner, batch) = match mode {
            Mode::Cohort { batch } => (Runner::Cohort, batch),
            Mode::Mmio => (Runner::Mmio, 64),
            Mode::Dma => (Runner::Dma, 64),
        };
        let params = RunParams {
            workload,
            queue: queue_size,
            batch,
            ..RunParams::default()
        };
        self.memoized(runner, params)
    }

    /// Runs (or recalls) one sharded configuration: the logical stream
    /// split over `shards` engines under the given placement policy, with
    /// uniform or skewed element runs. `dram: None` is the flat-latency
    /// memory system, `Some(cfg)` the bank/channel contention model; it is
    /// part of the memoization key like every other parameter, so flat and
    /// contended runs of the same geometry never alias.
    ///
    /// # Panics
    /// Panics if the run is refused or fails verification.
    pub fn run_sharded(
        &mut self,
        workload: Workload,
        shards: usize,
        placement: Placement,
        skewed: bool,
        queue_size: u64,
        dram: Option<&DramConfig>,
    ) -> &RunResult {
        let params = RunParams {
            workload,
            queue: queue_size,
            batch: crate::params::PEAK_BATCH,
            shards,
            placement,
            skew: skewed,
            dram: dram.cloned(),
            ..RunParams::default()
        };
        self.memoized(Runner::Sharded, params)
    }

    /// Latency in kilocycles (the Fig. 8/9 y-axis).
    pub fn kilocycles(&mut self, workload: Workload, mode: Mode, queue_size: u64) -> f64 {
        self.run(workload, mode, queue_size).cycles as f64 / 1000.0
    }

    /// Speedup of Cohort (given batch) over a baseline mode.
    pub fn speedup(
        &mut self,
        workload: Workload,
        batch: u64,
        baseline: Mode,
        queue_size: u64,
    ) -> f64 {
        let base = self.run(workload, baseline, queue_size).cycles as f64;
        let cohort = self
            .run(workload, Mode::Cohort { batch }, queue_size)
            .cycles as f64;
        base / cohort
    }

    /// Within-Cohort improvement of `batch` over the smallest batch.
    pub fn batching_gain(&mut self, workload: Workload, batch: u64, queue_size: u64) -> f64 {
        let small = crate::params::min_batch(workload);
        let s = self
            .run(workload, Mode::Cohort { batch: small }, queue_size)
            .cycles as f64;
        let b = self
            .run(workload, Mode::Cohort { batch }, queue_size)
            .cycles as f64;
        s / b
    }

    /// Looks up one observability counter (by component prefix and name)
    /// from a memoized run; missing counters read as zero.
    pub fn stat(
        &mut self,
        workload: Workload,
        mode: Mode,
        queue_size: u64,
        comp_prefix: &str,
        name: &str,
    ) -> u64 {
        self.run(workload, mode, queue_size)
            .counter(comp_prefix, name)
            .unwrap_or(0)
    }

    /// IPC speedup of Cohort over a baseline (Figs. 10/11).
    pub fn ipc_speedup(
        &mut self,
        workload: Workload,
        batch: u64,
        baseline: Mode,
        queue_size: u64,
    ) -> f64 {
        let c = self.run(workload, Mode::Cohort { batch }, queue_size).ipc();
        let b = self.run(workload, baseline, queue_size).ipc();
        c / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoization_returns_identical_results() {
        let mut sweep = Sweep::new();
        let a = sweep
            .run(Workload::Sha, Mode::Cohort { batch: 8 }, 64)
            .cycles;
        let b = sweep
            .run(Workload::Sha, Mode::Cohort { batch: 8 }, 64)
            .cycles;
        assert_eq!(a, b);
        assert_eq!(sweep.cache.len(), 1);
    }

    #[test]
    fn speedups_are_positive_and_verified() {
        let mut sweep = Sweep::new();
        let s = sweep.speedup(Workload::Sha, 64, Mode::Mmio, 128);
        assert!(s > 1.0, "Cohort must beat MMIO: {s}");
    }
}
