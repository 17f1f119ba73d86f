//! The `cohort-fleet --check` perf/robustness gate.
//!
//! A small matrix — sharded AES at {1, 2, 4} shards, 8 seeds each —
//! checked against a committed `results/fleet_baseline.json`. The gate
//! fails when any run does not survive or any scenario's p50 cycles
//! drift more than [`CHECK_TOLERANCE`] from the baseline.

use super::runner::{run_fleet, RunRecord};
use super::spec::FleetSpec;
use super::summary::{compare_baseline, summarize, FleetSummary};

/// Fractional p50-cycle drift the gate tolerates (±5%): runs are
/// deterministic, so this is headroom for intentional recalibration.
pub const CHECK_TOLERANCE: f64 = 0.05;

/// Default location of the committed baseline, relative to the repo root.
pub const CHECK_BASELINE_PATH: &str = "results/fleet_baseline.json";

/// The built-in check matrix, written in the fleet grammar so the gate
/// also exercises the loader end to end.
pub const CHECK_SPEC: &str = r#"
# cohort-fleet --check: sharded AES x {1,2,4} shards x 8 seeds.
[campaign]
name = "baseline_check"
seeds = "0..8"

[defaults]
workload = "aes"
queue = 256
batch = 16

[[scenario]]
name = "shard1"
runner = "shard"
shards = 1

[[scenario]]
name = "shard2"
runner = "shard"
shards = 2

[[scenario]]
name = "shard4"
runner = "shard"
shards = 4
"#;

/// Parses the built-in matrix (a compile-time constant, so it can only
/// fail if the grammar and the constant drift apart — covered by a test).
pub fn check_spec() -> FleetSpec {
    FleetSpec::parse(CHECK_SPEC).expect("built-in check spec parses")
}

/// Everything a check run produces: the summary plus per-run records.
pub type CheckOutput = (FleetSummary, Vec<RunRecord>);

/// Runs the check matrix. With a baseline JSON, gates p50 cycles per
/// scenario; always gates on every run surviving.
///
/// # Errors
/// One message per violated gate.
pub fn run_check(
    baseline_json: Option<&str>,
    host_threads: usize,
    verbose: bool,
) -> Result<CheckOutput, (Vec<String>, FleetSummary, Vec<RunRecord>)> {
    let spec = check_spec();
    let records = run_fleet(&spec, host_threads, verbose);
    let summary = summarize(&spec, &records);

    let mut problems: Vec<String> = records
        .iter()
        .filter(|r| !r.outcome.survived())
        .map(|r| {
            format!(
                "run {}/seed {} did not survive: {}{}",
                r.scenario,
                r.seed,
                r.outcome,
                if r.note.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", r.note)
                }
            )
        })
        .collect();
    if let Some(json) = baseline_json {
        if let Err(mut drift) = compare_baseline(&summary, json, CHECK_TOLERANCE) {
            problems.append(&mut drift);
        }
    }
    if problems.is_empty() {
        Ok((summary, records))
    } else {
        Err((problems, summary, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_check_spec_parses_to_the_matrix() {
        let spec = check_spec();
        assert_eq!(spec.scenarios.len(), 3);
        assert_eq!(spec.total_runs(), 24);
        assert_eq!(
            spec.scenarios
                .iter()
                .map(|s| s.base.shards)
                .collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
    }
}
