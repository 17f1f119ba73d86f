//! Campaign execution: fan-out across host threads, per-run outcome
//! classification, and the per-run JSON record.
//!
//! The fan-out is a shared atomic cursor over the job list,
//! `std::thread::scope` workers and results written into index-addressed
//! slots, so records come back in spec order regardless of which thread
//! ran which job, and the whole campaign is bit-identical at any thread
//! count. Each job runs under `catch_unwind`, so one wedged seed (a run
//! out of cycle budget panics) becomes a classified `hung` record instead
//! of tearing down the campaign.

use super::spec::FleetSpec;
use crate::run_params::RunParams;
use cohort::scenarios::{run_scenario, RunResult, Runner};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How one run ended, most severe first. `Hung` and `ChecksumMismatch`
/// are failures; the other three all delivered the exact reference
/// output stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// The run panicked (cycle-budget exhaustion / a wedged pipeline).
    Hung,
    /// The run completed but the output stream did not match the
    /// host-side reference.
    ChecksumMismatch,
    /// Verified, but the hardware path gave up and the kernel's software
    /// fallback produced (part of) the output stream.
    SoftwareFallback,
    /// Verified with at least one fault injected — the recovery stack
    /// absorbed it.
    Recovered,
    /// Verified, no faults injected.
    Pass,
}

impl Outcome {
    /// Every outcome, in report order (most severe first).
    pub const ALL: [Outcome; 5] = [
        Outcome::Hung,
        Outcome::ChecksumMismatch,
        Outcome::SoftwareFallback,
        Outcome::Recovered,
        Outcome::Pass,
    ];

    /// The report label.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Hung => "hung",
            Outcome::ChecksumMismatch => "checksum-mismatch",
            Outcome::SoftwareFallback => "software-fallback",
            Outcome::Recovered => "recovered",
            Outcome::Pass => "pass",
        }
    }

    /// True when the run delivered the exact reference output (pass,
    /// recovered, or software-fallback — graceful degradation still
    /// counts as surviving the fault).
    pub fn survived(&self) -> bool {
        !matches!(self, Outcome::Hung | Outcome::ChecksumMismatch)
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything the fleet keeps from one run. Scalar digests only — the
/// full `stats_json` stays out so a 500-run campaign's record file stays
/// reviewable — and strictly deterministic: wall-clock time is tracked
/// for the hang watchdog but never serialised.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Scenario name from the spec.
    pub scenario: String,
    /// The run seed — `(spec, scenario, seed)` reproduces this run.
    pub seed: u64,
    /// Classified outcome.
    pub outcome: Outcome,
    /// End-to-end latency in cycles (0 for hung runs).
    pub cycles: u64,
    /// Benchmark-core instructions retired.
    pub instret: u64,
    /// The determinism-contract payload checksum.
    pub checksum: u64,
    /// Output elements delivered (the verified stream length).
    pub elements: u64,
    /// Faults the injector fired (stalls+spikes+storms+corruptions+kills).
    pub faults_injected: u64,
    /// Fail-stop kills among them.
    pub kills: u64,
    /// Queue migrations onto spares.
    pub rebinds: u64,
    /// Engine error interrupts taken.
    pub error_irqs: u64,
    /// Watchdog trips.
    pub watchdog_trips: u64,
    /// Worst per-engine input-queue-occupancy p50.
    pub occ_p50: u64,
    /// Worst per-engine input-queue-occupancy p99.
    pub occ_p99: u64,
    /// Failover detection latency in cycles (0 = no failover ran).
    pub recovery_detect: u64,
    /// Failover rebind latency in cycles.
    pub recovery_rebind: u64,
    /// Failover resume (end-to-end outage) latency in cycles.
    pub recovery_resume: u64,
    /// Panic message for hung runs, empty otherwise.
    pub note: String,
}

impl RunRecord {
    /// One-line JSON object, stable field order.
    pub fn json(&self) -> String {
        format!(
            "{{\"scenario\": \"{}\", \"seed\": {}, \"outcome\": \"{}\", \
             \"cycles\": {}, \"instret\": {}, \"checksum\": \"{:#018x}\", \
             \"elements\": {}, \"faults_injected\": {}, \"kills\": {}, \
             \"rebinds\": {}, \"error_irqs\": {}, \"watchdog_trips\": {}, \
             \"occ_p50\": {}, \"occ_p99\": {}, \"recovery_detect\": {}, \
             \"recovery_rebind\": {}, \"recovery_resume\": {}, \"note\": \"{}\"}}",
            self.scenario,
            self.seed,
            self.outcome,
            self.cycles,
            self.instret,
            self.checksum,
            self.elements,
            self.faults_injected,
            self.kills,
            self.rebinds,
            self.error_irqs,
            self.watchdog_trips,
            self.occ_p50,
            self.occ_p99,
            self.recovery_detect,
            self.recovery_rebind,
            self.recovery_resume,
            escape_json(&self.note),
        )
    }
}

fn escape_json(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '"' => "\\\"".to_string(),
            '\\' => "\\\\".to_string(),
            '\n' => "\\n".to_string(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        })
        .collect()
}

/// Sums a named counter across every component whose name starts with
/// `prefix` (matches both `engine` and `engine#N`).
fn summed_counter(r: &RunResult, prefix: &str, name: &str) -> u64 {
    r.counters
        .iter()
        .filter(|(c, _)| c.starts_with(prefix))
        .flat_map(|(_, list)| list.iter())
        .filter(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .sum()
}

/// Max of a histogram field across every scoped histogram whose name
/// ends with `suffix`.
fn max_hist(
    r: &RunResult,
    suffix: &str,
    field: impl Fn(&cohort_sim::stats::HistogramSummary) -> u64,
) -> u64 {
    r.histograms
        .iter()
        .filter(|(n, _)| n.ends_with(suffix))
        .map(|(_, h)| field(h))
        .max()
        .unwrap_or(0)
}

/// Classifies a completed run and digests it into a [`RunRecord`].
pub fn classify(
    scenario: &str,
    runner: Runner,
    params: &RunParams,
    seed: u64,
    r: &RunResult,
) -> RunRecord {
    let faults_injected = ["stalls", "spikes", "storms", "corruptions", "kills"]
        .iter()
        .map(|n| summed_counter(r, "faultinject", n))
        .sum::<u64>();
    let kills = summed_counter(r, "faultinject", "kills");
    let produced = summed_counter(r, "engine", "produced");
    let drained = summed_counter(r, "engine", "drained_elems");
    let expected = {
        let (s, _) = params.to_scenario(runner, seed);
        s.output_words()
    };
    let outcome = if !r.verified {
        Outcome::ChecksumMismatch
    } else if runner.uses_cohort_engines() && produced + drained < expected {
        // Verified without the engines moving every element: the
        // software fallback filled the gap.
        Outcome::SoftwareFallback
    } else if faults_injected > 0 {
        Outcome::Recovered
    } else {
        Outcome::Pass
    };
    RunRecord {
        scenario: scenario.to_string(),
        seed,
        outcome,
        cycles: r.cycles,
        instret: r.instret,
        checksum: r.checksum,
        elements: r.recorded.len() as u64,
        faults_injected,
        kills,
        rebinds: summed_counter(r, "engine", "rebinds"),
        error_irqs: summed_counter(r, "engine", "error_irqs"),
        watchdog_trips: summed_counter(r, "engine", "watchdog_trips"),
        occ_p50: max_hist(r, "in_queue_occupancy", |h| h.p50),
        occ_p99: max_hist(r, "in_queue_occupancy", |h| h.p99),
        recovery_detect: max_hist(r, "failover_detect", |h| h.max),
        recovery_rebind: max_hist(r, "failover_rebind", |h| h.max),
        recovery_resume: max_hist(r, "failover_resume", |h| h.max),
        note: String::new(),
    }
}

/// A hung-run record (panic or wall-clock overrun).
fn hung_record(scenario: &str, seed: u64, note: String) -> RunRecord {
    RunRecord {
        scenario: scenario.to_string(),
        seed,
        outcome: Outcome::Hung,
        cycles: 0,
        instret: 0,
        checksum: 0,
        elements: 0,
        faults_injected: 0,
        kills: 0,
        rebinds: 0,
        error_irqs: 0,
        watchdog_trips: 0,
        occ_p50: 0,
        occ_p99: 0,
        recovery_detect: 0,
        recovery_rebind: 0,
        recovery_resume: 0,
        note,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "run panicked".into())
}

/// Executes one `(scenario, seed)` job, classifying panics as `hung`.
pub fn run_one(scenario: &str, runner: Runner, params: &RunParams, seed: u64) -> RunRecord {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (s, shard) = params.to_scenario(runner, seed);
        run_scenario(runner, &s, shard.as_ref())
    }));
    match outcome {
        Ok(Ok(r)) => classify(scenario, runner, params, seed, &r),
        // The loader asks the same admission check at load time, so a
        // refusal here means parameters that never went through it;
        // surface it as a named failure, not a crash.
        Ok(Err(e)) => hung_record(scenario, seed, format!("runner {runner} refused: {e}")),
        Err(payload) => hung_record(scenario, seed, panic_message(payload.as_ref())),
    }
}

/// Runs every `(scenario, seed)` job of a spec across `host_threads`
/// workers (0 = available parallelism) and returns the records in spec
/// order: scenarios in declaration order, seeds in seed-set order.
pub fn run_fleet(spec: &FleetSpec, host_threads: usize, verbose: bool) -> Vec<RunRecord> {
    struct Job<'a> {
        scenario: &'a str,
        runner: Runner,
        params: &'a RunParams,
        seed: u64,
    }
    let jobs: Vec<Job<'_>> = spec
        .scenarios
        .iter()
        .flat_map(|sc| {
            sc.seeds.iter().map(move |&seed| Job {
                scenario: &sc.name,
                runner: sc.runner,
                params: sc.params_for(seed),
                seed,
            })
        })
        .collect();

    let threads = if host_threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        host_threads
    }
    .clamp(1, jobs.len().max(1));

    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<RunRecord>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let rec = run_one(job.scenario, job.runner, job.params, job.seed);
                if verbose {
                    let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                    eprintln!(
                        "  [{n}/{}] {} seed={:#x}: {}",
                        jobs.len(),
                        job.scenario,
                        job.seed,
                        rec.outcome
                    );
                }
                *out[i].lock().expect("slot lock") = Some(rec);
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::spec::FleetSpec;

    #[test]
    fn clean_run_classifies_as_pass() {
        let params = RunParams {
            queue: 64,
            ..RunParams::default()
        };
        let rec = run_one("t", Runner::Cohort, &params, 1);
        assert_eq!(rec.outcome, Outcome::Pass);
        assert_eq!(rec.elements, 64);
        assert!(rec.cycles > 0);
        assert!(rec.occ_p99 >= rec.occ_p50);
    }

    #[test]
    fn failover_run_classifies_as_recovered_with_latencies() {
        let params = RunParams {
            workload: cohort::scenarios::Workload::Sha,
            queue: 256,
            watchdog: 20_000,
            ..RunParams::default()
        };
        let rec = run_one("t", Runner::Failover, &params, 0x5eed);
        assert_eq!(rec.outcome, Outcome::Recovered);
        assert_eq!(rec.kills, 1);
        assert_eq!(rec.rebinds, 1);
        assert!(rec.recovery_resume >= rec.recovery_rebind);
        assert!(rec.recovery_detect > 0);
    }

    #[test]
    fn records_are_deterministic_across_host_threads() {
        let spec = FleetSpec::parse(
            "[campaign]\nname = \"det\"\nseeds = \"0..3\"\n\
             [[scenario]]\nname = \"aes\"\nrunner = \"cohort\"\nqueue = 64",
        )
        .expect("parses");
        let serial = run_fleet(&spec, 1, false);
        let parallel = run_fleet(&spec, 3, false);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_record_json_is_stable() {
        let params = RunParams {
            queue: 64,
            ..RunParams::default()
        };
        let a = run_one("t", Runner::Cohort, &params, 2).json();
        let b = run_one("t", Runner::Cohort, &params, 2).json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"scenario\": \"t\", \"seed\": 2, \"outcome\": \"pass\""));
    }
}
