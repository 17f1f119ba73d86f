//! One measured run of one workload: set-up, the timed passes, the
//! correctness gate, and the end-to-end metrics.

use crate::clock::cpu_timed;
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats::{iqr_over_median, least, median, most, ratio};
use crate::workloads::{pass_seed, table3_runs, RunSpec, Sizing, WorkloadDef};
use cohort::scenarios::{run_scenario, RunResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Paper Table 3 at queue 4096, batch 64 (`results/table3.md`): SHA vs
/// MMIO, SHA vs DMA, AES vs MMIO, AES vs DMA.
const TABLE3_PAPER: [f64; 4] = [8.38, 10.62, 2.03, 1.94];

/// What to run.
pub struct Config {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    /// Keep spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub sizing: Sizing,
}

impl Config {
    pub fn specs(&self, pass: u64) -> Vec<RunSpec> {
        (self.workload.pass)(self.sizing.queue, pass_seed(self.seed, pass))
    }
}

/// Counts every simulator run attempted and every one that failed the
/// gate: panicked (which covers a blown cycle budget), returned an error,
/// returned `verified == false`, or diverged from its reference leg.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("benchmark: FAILED: {why}");
    }

    /// Fails unless `leg` reproduced `reference`'s cycles and checksum —
    /// the determinism contract for `Force1`, traced and 2-thread legs.
    pub fn expect_same(&mut self, what: &str, reference: &RunResult, leg: &RunResult) {
        if (reference.cycles, reference.checksum) != (leg.cycles, leg.checksum) {
            self.fail(&format!(
                "{what}: cycles {} checksum {:#018x}, reference has {} and {:#018x}",
                leg.cycles, leg.checksum, reference.cycles, reference.checksum
            ));
        }
    }
}

/// Runs `spec` inside its span. `None` (after counting the failure) when
/// the run panics, errors or does not verify.
pub fn run_checked(
    rec: &mut Recorder,
    gate: &mut Gate,
    spec: &RunSpec,
) -> Option<(RunResult, f64)> {
    gate.attempted += 1;
    let (outcome, wall) = rec.span(&spec.span_name(), |_| {
        catch_unwind(AssertUnwindSafe(|| {
            run_scenario(spec.runner, &spec.scenario, spec.shard.as_ref())
        }))
    });
    match outcome {
        Ok(Ok(result)) if result.verified => Some((result, wall)),
        Ok(Ok(_)) => {
            gate.fail(&format!(
                "{}: output does not match the reference",
                spec.label()
            ));
            None
        }
        Ok(Err(e)) => {
            gate.fail(&format!("{}: {e}", spec.label()));
            None
        }
        Err(_) => {
            gate.fail(&format!("{}: panicked", spec.label()));
            None
        }
    }
}

/// What the timed loop keeps of one run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub label: String,
    pub elements: u64,
    pub cycles: u64,
    pub ipc: f64,
    pub wall_s: f64,
}

/// One pass: every run of the workload once.
#[derive(Debug, Clone)]
pub struct Pass {
    pub wall_s: f64,
    /// CPU seconds of the pass ([`cpu_timed`]): what the end-to-end host
    /// metrics are read from.
    pub cpu_s: f64,
    /// Pass wall time not covered by its `run_scenario` and `collect`
    /// spans: the harness's own overhead.
    pub self_s: f64,
    pub runs: Vec<RunRecord>,
}

impl Pass {
    pub fn cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).sum()
    }

    pub fn elements(&self) -> u64 {
        self.runs.iter().map(|r| r.elements).sum()
    }
}

/// FNV-1a over the simulated results the digest pins down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn result(&mut self, r: &RunResult) {
        self.bytes(&r.cycles.to_le_bytes());
        self.bytes(&r.checksum.to_le_bytes());
        self.bytes(r.stats_json.as_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Runs one pass. Each result goes to `collect` inside a `collect` span
/// and is dropped there unless `collect` keeps it.
pub fn run_pass(
    rec: &mut Recorder,
    gate: &mut Gate,
    id: String,
    specs: &[RunSpec],
    mut collect: impl FnMut(&RunSpec, RunResult),
) -> Pass {
    rec.set_id(id);
    let mut runs = Vec::with_capacity(specs.len());
    let mut covered = 0.0;
    let (((), wall_s), cpu_s) = cpu_timed(|| {
        rec.span("pass", |rec| {
            for spec in specs {
                let Some((result, wall_s)) = run_checked(rec, gate, spec) else {
                    continue;
                };
                covered += wall_s;
                let ((), collect_s) = rec.span("collect", |_| {
                    runs.push(RunRecord {
                        label: spec.label(),
                        elements: spec.elements(),
                        cycles: result.cycles,
                        ipc: result.ipc(),
                        wall_s,
                    });
                    collect(spec, result);
                });
                covered += collect_s;
            }
        })
    });
    Pass {
        wall_s,
        cpu_s,
        self_s: wall_s - covered,
        runs,
    }
}

/// What the set-up repetitions leave behind.
pub struct Setup {
    /// CPU seconds of every step (reference run or warm-up pass) of every
    /// repetition: `steps[rep][step]`.
    pub steps: Vec<Vec<f64>>,
    /// Cycles of the six Table 3 reference runs (0 for a failed run).
    pub table3_cycles: [u64; 6],
    /// Hash over every set-up run's cycles, checksum and `stats_json`: two
    /// commits with equal digests simulated identical statistics.
    pub digest: Digest,
}

impl Setup {
    /// `[sha_vs_mmio, sha_vs_dma, aes_vs_mmio, aes_vs_dma]`.
    pub fn speedups(&self) -> [f64; 4] {
        let c = self.table3_cycles.map(|c| c as f64);
        [
            ratio(c[1], c[0]),
            ratio(c[2], c[0]),
            ratio(c[4], c[3]),
            ratio(c[5], c[3]),
        ]
    }

    /// Mean relative distance of the four speed-ups from the paper's.
    /// `gridsearch` fitted the model's constants to these same ratios, so
    /// this is a fit residual, not a held-out validation error.
    pub fn table3_err(&self) -> f64 {
        let errs = self.speedups();
        let sum: f64 = errs
            .iter()
            .zip(TABLE3_PAPER)
            .map(|(measured, paper)| (measured - paper).abs() / paper)
            .sum();
        sum / 4.0
    }

    /// CPU seconds of each whole repetition.
    fn rep_totals(&self) -> Vec<f64> {
        self.steps.iter().map(|rep| rep.iter().sum()).collect()
    }

    /// `setup_s`: every step at the time of its fastest repetition. A step
    /// simulates the same thing in every repetition, so like the fastest
    /// pass this is the set-up as little disturbed as the run saw it, and a
    /// step (0.05–0.3 s) finds a quiet moment where a whole repetition
    /// (0.7–1.1 s) does not: over 500 repetitions of `dram_contended`'s
    /// set-up taken five at a time, the quartile spread was 1.9% against
    /// 2.5% for the fastest whole repetition.
    pub fn fastest_s(&self) -> f64 {
        let steps = self.steps.first().map_or(0, Vec::len);
        let fastest = |step| least(&self.steps.iter().map(|rep| rep[step]).collect::<Vec<_>>());
        (0..steps).map(fastest).sum()
    }
}

/// One set-up: the Table 3 reference runs (half the workload's queue: 4096
/// at full size) and the warm-up passes. Returns the CPU seconds of each
/// step; `table3_cycles` and `digest` take what the runs simulated.
fn setup_rep(
    rec: &mut Recorder,
    gate: &mut Gate,
    cfg: &Config,
    rep: usize,
    table3_cycles: &mut [u64; 6],
    digest: &mut Digest,
) -> Vec<f64> {
    let mut steps = Vec::new();
    rec.set_id(format!("{}/setup{rep}", cfg.workload.name));
    rec.span("setup", |rec| {
        let refs = table3_runs(cfg.sizing.queue / 2, pass_seed(cfg.seed, 0));
        for (slot, spec) in table3_cycles.iter_mut().zip(&refs) {
            let (run, cpu_s) = cpu_timed(|| run_checked(rec, gate, spec));
            steps.push(cpu_s);
            if let Some((result, _)) = run {
                *slot = result.cycles;
                digest.result(&result);
            }
        }
        for pass in 0..cfg.sizing.warmup_passes {
            let id = format!("{}/warmup{rep}.{pass}", cfg.workload.name);
            let pass = run_pass(rec, gate, id, &cfg.specs(pass), |_, r| digest.result(&r));
            steps.push(pass.cpu_s);
        }
    });
    steps
}

/// The measured part of a run: `setup_reps` rounds, each a set-up and then
/// its share of `cfg.seconds` of timed passes; the last round goes on to the
/// sizing's minimum of passes.
///
/// The set-up is repeated so that a disturbed repetition does not set its
/// time, and the repetitions are spread through the run, not made back to
/// back before it, because what disturbs them lasts: ten runs whose five
/// repetitions took the first 5 s of each read 21% slower than the ten
/// runs before them while the fastest pass read 8% slower. Every
/// repetition must simulate the same thing, which also checks that a seed
/// repeats. Nothing carries over from one `run_scenario` to the next, so a
/// repetition does the same work wherever it stands.
pub fn rounds(rec: &mut Recorder, gate: &mut Gate, cfg: &Config) -> (Setup, Vec<Pass>) {
    let reps = cfg.sizing.setup_reps;
    let mut setup = Setup {
        steps: Vec::new(),
        table3_cycles: [0; 6],
        digest: Digest::default(),
    };
    let mut passes = Vec::new();
    for rep in 0..reps {
        let mut digest = Digest::default();
        let steps = setup_rep(rec, gate, cfg, rep, &mut setup.table3_cycles, &mut digest);
        setup.steps.push(steps);
        if rep == 0 {
            setup.digest = digest;
        } else if digest != setup.digest {
            gate.fail("set-up repetitions of one seed simulated different results");
        }

        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / reps as f64);
        let enough = if rep + 1 == reps {
            cfg.sizing.min_passes
        } else {
            0
        };
        loop {
            let pass = cfg.sizing.warmup_passes + passes.len() as u64;
            let id = format!("{}/{pass}", cfg.workload.name);
            passes.push(run_pass(rec, gate, id, &cfg.specs(pass), |_, _| {}));
            if passes.len() >= enough && Instant::now() >= deadline {
                break;
            }
        }
    }
    (setup, passes)
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where `/proc` does
/// not say.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

/// `f` of every pass that completed (a failed run leaves a pass short).
fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    let complete = passes.iter().filter(|p| p.elements() > 0);
    complete.map(f).collect()
}

/// The end-to-end metrics of a run, and for each host metric the spread the
/// run saw (quartile distance over median across passes; range over the
/// fastest across set-up repetitions), which `--compare` uses to tell a
/// regression from noise.
///
/// Host times are CPU seconds ([`crate::clock`]) of the *fastest* pass and
/// set-up repetition. Every pass does the same work, and what disturbs a
/// pass on a shared host only ever slows it: a process competing for the
/// core stops the CPU clock, and of what is left (a neighbour on the same
/// caches and memory, for seconds to minutes at a time) the fastest pass
/// caught the least: over four minutes of `dram_contended` cut into 12 s
/// runs the fastest pass had a quartile spread of 3.8% where the median pass
/// had 15%. (`simperf` reports best-of-N for the same reason.) The median
/// and tail of the passes by the wall clock are per-layer metrics,
/// `bench.pass_ms_p50` and `bench.pass_ms_hi`.
///
/// Simulated metrics are medians over the first `min_passes` timed passes, a
/// set that does not depend on how many passes the host fits in the time.
pub fn end_to_end(cfg: &Config, setup: &Setup, passes: &[Pass]) -> (Values, Vec<(String, f64)>) {
    let mut values = Values::default();
    let mut spread = Vec::new();
    let setup_s = setup.fastest_s();
    values.set("setup_s", setup_s);
    let range = most(&setup.rep_totals()) - setup_s;
    spread.push(("setup_s".to_string(), ratio(range, setup_s)));

    let rate = per_pass(passes, |p| ratio(p.cycles() as f64, p.cpu_s) / 1e6);
    values.set("sim_mcycles_per_s", most(&rate));
    spread.push(("sim_mcycles_per_s".to_string(), iqr_over_median(&rate)));
    let host = per_pass(passes, |p| p.cpu_s * 1e6 / p.elements() as f64);
    values.set("host_us_per_element", least(&host));
    spread.push(("host_us_per_element".to_string(), iqr_over_median(&host)));

    let fixed = &passes[..cfg.sizing.min_passes.min(passes.len())];
    let cycles = per_pass(fixed, |p| p.cycles() as f64 / p.elements() as f64);
    let ipc = per_pass(fixed, |p| {
        p.runs.iter().map(|r| r.ipc).sum::<f64>() / p.runs.len() as f64
    });
    values.set("cycles_per_element", median(&cycles));
    values.set("ipc", median(&ipc));
    values.set("table3_err", setup.table3_err());
    values.set("peak_rss_mb", peak_rss_mb());
    (values, spread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    #[test]
    fn table3_error_is_the_mean_relative_distance() {
        let setup = Setup {
            steps: vec![],
            // Speed-ups 8.38, 10.62 (exact) and 4.06, 0.97 (2x and 0.5x).
            table3_cycles: [100, 838, 1062, 100, 406, 97],
            digest: Digest::default(),
        };
        assert!((setup.table3_err() - (0.0 + 0.0 + 1.0 + 0.5) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn setup_time_takes_each_step_at_its_fastest_repetition() {
        let setup = Setup {
            steps: vec![vec![1.0, 5.0, 2.0], vec![3.0, 4.0, 1.5]],
            table3_cycles: [0; 6],
            digest: Digest::default(),
        };
        assert_eq!(setup.rep_totals(), [8.0, 8.5]);
        assert_eq!(setup.fastest_s(), 1.0 + 4.0 + 1.5);
    }

    #[test]
    fn quick_pass_verifies_and_a_mismatching_leg_fails_the_gate() {
        let cfg = Config {
            workload: find("cohort_single").expect("defined"),
            seed: 1,
            seconds: 0.0,
            trace: true,
            sizing: Sizing::QUICK,
        };
        let mut rec = Recorder::new(true);
        let mut gate = Gate::default();
        let mut kept = Vec::new();
        let pass = run_pass(&mut rec, &mut gate, "t/0".into(), &cfg.specs(0), |_, r| {
            kept.push(r)
        });
        assert_eq!((gate.attempted, gate.failed), (2, 0));
        assert_eq!(pass.runs.len(), 2);
        assert_eq!(pass.elements(), 2 * Sizing::QUICK.queue);
        assert!(pass.self_s >= 0.0 && pass.self_s < pass.wall_s);
        let names: Vec<_> = rec.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "pass",
                "run_scenario:cohort:sha",
                "collect",
                "run_scenario:cohort:aes",
                "collect"
            ]
        );

        gate.expect_same("same run", &kept[0], &kept[0]);
        assert_eq!(gate.failed, 0);
        gate.expect_same("sha against aes", &kept[0], &kept[1]);
        assert_eq!(gate.failed, 1);
    }

    #[test]
    fn a_panicking_run_is_caught_and_counted() {
        // A chain needs whole SHA blocks; 12 words is a guaranteed panic.
        let failover = find("chain_failover").expect("defined");
        let spec = (failover.pass)(12, 1).remove(0);
        let mut gate = Gate::default();
        assert!(run_checked(&mut Recorder::new(false), &mut gate, &spec).is_none());
        assert_eq!((gate.attempted, gate.failed), (1, 1));
    }
}
