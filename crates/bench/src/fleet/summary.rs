//! Cross-seed summary statistics and the JSON / markdown reports.
//!
//! All statistics are computed in fixed seed order from the per-run
//! records, with nearest-rank percentiles over sorted integer vectors —
//! no floating-point reductions whose result depends on accumulation
//! order — so the summary is bit-identical at any host thread count.

use super::runner::{Outcome, RunRecord};
use super::spec::FleetSpec;

/// Nearest-rank distribution digest of one metric across runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Dist {
    /// Samples.
    pub n: u64,
    /// Minimum.
    pub min: u64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Dist {
    /// Digests a sample set (order-independent: sorts a copy).
    pub fn of(values: &[u64]) -> Dist {
        if values.is_empty() {
            return Dist::default();
        }
        let mut v = values.to_vec();
        v.sort_unstable();
        let rank = |p: u64| v[((p * v.len() as u64).div_ceil(100).max(1) - 1) as usize];
        Dist {
            n: v.len() as u64,
            min: v[0],
            p50: rank(50),
            p99: rank(99),
            max: *v.last().expect("nonempty"),
            mean: v.iter().sum::<u64>() as f64 / v.len() as f64,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"n\": {}, \"min\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}, \"mean\": {:.3}}}",
            self.n, self.min, self.p50, self.p99, self.max, self.mean
        )
    }
}

/// Per-scenario cross-seed statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub name: String,
    /// Runs executed.
    pub runs: usize,
    /// Outcome counts in [`Outcome::ALL`] order.
    pub outcomes: Vec<(&'static str, usize)>,
    /// Runs that saw at least one injected fault.
    pub fault_runs: usize,
    /// Of the fault runs, the fraction that survived (1.0 when no run
    /// saw a fault).
    pub survival_rate: f64,
    /// End-to-end latency distribution (completed runs only).
    pub cycles: Dist,
    /// Throughput in output elements per kilocycle: mean and population
    /// variance across completed runs, computed in seed order.
    pub throughput_mean: f64,
    /// Population variance of the per-run throughput.
    pub throughput_var: f64,
    /// Worst-engine queue-occupancy p50 across runs.
    pub occ_p50: Dist,
    /// Worst-engine queue-occupancy p99 across runs.
    pub occ_p99: Dist,
    /// Failover detection latency across runs that ran failover.
    pub recovery_detect: Dist,
    /// Failover rebind latency across runs that ran failover.
    pub recovery_rebind: Dist,
    /// Failover end-to-end outage latency across runs that ran failover.
    pub recovery_resume: Dist,
    /// Total rebinds across the scenario.
    pub rebinds: u64,
    /// Every non-surviving run as a reproducible `(seed, outcome)` pair.
    pub failures: Vec<(u64, &'static str)>,
}

/// Whole-campaign summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Campaign name.
    pub name: String,
    /// Total runs.
    pub total_runs: usize,
    /// Runs that survived (pass / recovered / software-fallback).
    pub survived: usize,
    /// Per-scenario summaries in spec order.
    pub scenarios: Vec<ScenarioSummary>,
}

/// Builds the summary from records grouped by the spec's scenario order.
pub fn summarize(spec: &FleetSpec, records: &[RunRecord]) -> FleetSummary {
    let mut scenarios = Vec::with_capacity(spec.scenarios.len());
    for sc in &spec.scenarios {
        let recs: Vec<&RunRecord> = records.iter().filter(|r| r.scenario == sc.name).collect();
        let completed: Vec<&&RunRecord> =
            recs.iter().filter(|r| r.outcome != Outcome::Hung).collect();
        let outcomes = Outcome::ALL
            .iter()
            .map(|o| (o.name(), recs.iter().filter(|r| r.outcome == *o).count()))
            .collect();
        let fault_runs = recs.iter().filter(|r| r.faults_injected > 0).count();
        let fault_survivors = recs
            .iter()
            .filter(|r| r.faults_injected > 0 && r.outcome.survived())
            .count();
        let survival_rate = if fault_runs == 0 {
            1.0
        } else {
            fault_survivors as f64 / fault_runs as f64
        };
        // Throughput in elements/kilocycle, accumulated in seed order so
        // the f64 reduction is fixed.
        let tp: Vec<f64> = completed
            .iter()
            .filter(|r| r.cycles > 0)
            .map(|r| r.elements as f64 * 1000.0 / r.cycles as f64)
            .collect();
        let throughput_mean = if tp.is_empty() {
            0.0
        } else {
            tp.iter().sum::<f64>() / tp.len() as f64
        };
        let throughput_var = if tp.is_empty() {
            0.0
        } else {
            tp.iter()
                .map(|x| (x - throughput_mean) * (x - throughput_mean))
                .sum::<f64>()
                / tp.len() as f64
        };
        let gather =
            |f: fn(&RunRecord) -> u64| -> Vec<u64> { completed.iter().map(|r| f(r)).collect() };
        let failover: Vec<&&&RunRecord> =
            completed.iter().filter(|r| r.recovery_resume > 0).collect();
        let gather_fo =
            |f: fn(&RunRecord) -> u64| -> Vec<u64> { failover.iter().map(|r| f(r)).collect() };
        scenarios.push(ScenarioSummary {
            name: sc.name.clone(),
            runs: recs.len(),
            outcomes,
            fault_runs,
            survival_rate,
            cycles: Dist::of(&gather(|r| r.cycles)),
            throughput_mean,
            throughput_var,
            occ_p50: Dist::of(&gather(|r| r.occ_p50)),
            occ_p99: Dist::of(&gather(|r| r.occ_p99)),
            recovery_detect: Dist::of(&gather_fo(|r| r.recovery_detect)),
            recovery_rebind: Dist::of(&gather_fo(|r| r.recovery_rebind)),
            recovery_resume: Dist::of(&gather_fo(|r| r.recovery_resume)),
            rebinds: recs.iter().map(|r| r.rebinds).sum(),
            failures: recs
                .iter()
                .filter(|r| !r.outcome.survived())
                .map(|r| (r.seed, r.outcome.name()))
                .collect(),
        });
    }
    FleetSummary {
        name: spec.name.clone(),
        total_runs: records.len(),
        survived: records.iter().filter(|r| r.outcome.survived()).count(),
        scenarios,
    }
}

impl FleetSummary {
    /// The summary as pretty-printed JSON (stable field order; the
    /// per-scenario `cycles_p50` scalar is what baseline gates scan for).
    pub fn json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"campaign\": \"{}\",\n", self.name));
        s.push_str(&format!("  \"total_runs\": {},\n", self.total_runs));
        s.push_str(&format!("  \"survived\": {},\n", self.survived));
        s.push_str("  \"scenarios\": [\n");
        for (i, sc) in self.scenarios.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", sc.name));
            s.push_str(&format!("      \"runs\": {},\n", sc.runs));
            for (name, count) in &sc.outcomes {
                s.push_str(&format!(
                    "      \"outcome_{}\": {count},\n",
                    name.replace('-', "_")
                ));
            }
            s.push_str(&format!("      \"fault_runs\": {},\n", sc.fault_runs));
            s.push_str(&format!(
                "      \"fault_survival_rate\": {:.4},\n",
                sc.survival_rate
            ));
            s.push_str(&format!("      \"cycles_p50\": {},\n", sc.cycles.p50));
            s.push_str(&format!("      \"cycles\": {},\n", sc.cycles.json()));
            s.push_str(&format!(
                "      \"throughput_elems_per_kcycle\": {{\"mean\": {:.4}, \"variance\": {:.6}}},\n",
                sc.throughput_mean, sc.throughput_var
            ));
            s.push_str(&format!("      \"occ_p50\": {},\n", sc.occ_p50.json()));
            s.push_str(&format!("      \"occ_p99\": {},\n", sc.occ_p99.json()));
            s.push_str(&format!(
                "      \"recovery_detect\": {},\n",
                sc.recovery_detect.json()
            ));
            s.push_str(&format!(
                "      \"recovery_rebind\": {},\n",
                sc.recovery_rebind.json()
            ));
            s.push_str(&format!(
                "      \"recovery_resume\": {},\n",
                sc.recovery_resume.json()
            ));
            s.push_str(&format!("      \"rebinds\": {},\n", sc.rebinds));
            let fails: Vec<String> = sc
                .failures
                .iter()
                .map(|(seed, o)| format!("{{\"seed\": {seed}, \"outcome\": \"{o}\"}}"))
                .collect();
            s.push_str(&format!("      \"failures\": [{}]\n", fails.join(", ")));
            s.push_str(if i + 1 == self.scenarios.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// The markdown report.
    pub fn markdown(&self, spec_path: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!("# Fleet campaign `{}`\n\n", self.name));
        s.push_str(&format!(
            "Spec: `{spec_path}` — {} scenario(s), {} run(s), {} survived \
             ({} failed).\n\n",
            self.scenarios.len(),
            self.total_runs,
            self.survived,
            self.total_runs - self.survived
        ));
        s.push_str(
            "Outcomes: `pass` (verified, fault-free), `recovered` (verified \
             despite injected faults), `software-fallback` (verified via the \
             kernel's software path), `checksum-mismatch`, `hung`. Survival \
             counts the first three.\n\n",
        );
        s.push_str(
            "| scenario | runs | pass | recovered | fallback | mismatch | hung \
             | fault survival | cycles p50 | cycles p99 | occ p50 | occ p99 \
             | resume p50 | resume p99 | thr var |\n",
        );
        s.push_str("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
        for sc in &self.scenarios {
            let count = |name: &str| {
                sc.outcomes
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0, |(_, c)| *c)
            };
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {:.1}% | {} | {} | {} | {} | {} | {} | {:.4} |\n",
                sc.name,
                sc.runs,
                count("pass"),
                count("recovered"),
                count("software-fallback"),
                count("checksum-mismatch"),
                count("hung"),
                sc.survival_rate * 100.0,
                sc.cycles.p50,
                sc.cycles.p99,
                sc.occ_p50.p50,
                sc.occ_p99.p99,
                sc.recovery_resume.p50,
                sc.recovery_resume.p99,
                sc.throughput_var,
            ));
        }
        s.push('\n');
        let mut any_fail = false;
        for sc in &self.scenarios {
            for (seed, outcome) in &sc.failures {
                if !any_fail {
                    s.push_str("## Failing runs\n\n");
                    s.push_str(
                        "Each failure reproduces bit-identically from its \
                         `(spec, scenario, seed)` pair:\n\n",
                    );
                    any_fail = true;
                }
                s.push_str(&format!(
                    "- `{}` seed `{seed}`: **{outcome}** — reproduce with \
                     `cohort-fleet --spec {spec_path} --scenario {} --seed {seed}`\n",
                    sc.name, sc.name
                ));
            }
        }
        if !any_fail {
            s.push_str("No failing runs.\n");
        }
        s.push_str(
            "\nAll numbers are deterministic for a given spec: percentiles \
             are nearest-rank over integer cycle counts and the report is \
             bit-identical at any host thread count.\n",
        );
        s
    }
}

/// Compares a freshly-computed summary against a committed baseline
/// summary JSON, per scenario, on the `cycles_p50` scalar.
///
/// # Errors
/// One message per scenario that is missing from the baseline or from the
/// run, or whose p50 cycles drifted more than `tolerance` (fractional,
/// e.g. 0.05).
pub fn compare_baseline(
    current: &FleetSummary,
    baseline_json: &str,
    tolerance: f64,
) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    for sc in &current.scenarios {
        let Some(expected) = scan_scenario_p50(baseline_json, &sc.name) else {
            problems.push(format!(
                "scenario {:?} missing from the baseline (re-bless?)",
                sc.name
            ));
            continue;
        };
        let got = sc.cycles.p50;
        let delta = (got as f64 - expected as f64) / expected.max(1) as f64;
        if delta.abs() > tolerance {
            problems.push(format!(
                "scenario {:?}: p50 cycles {got} vs baseline {expected} \
                 ({:+.2}% exceeds ±{:.0}%)",
                sc.name,
                delta * 100.0,
                tolerance * 100.0
            ));
        }
    }
    // A scenario dropped from the spec must not quietly shrink the gate.
    for name in scan_scenario_names(baseline_json) {
        if !current.scenarios.iter().any(|sc| sc.name == name) {
            problems.push(format!("baseline scenario {name:?} missing from the run"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Every scenario name in a summary JSON, in order (only scenarios carry
/// a `"name"` key).
fn scan_scenario_names(json: &str) -> Vec<&str> {
    json.split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.find('"').map(|end| &rest[..end]))
        .collect()
}

/// Pulls `"cycles_p50": N` for a named scenario out of a summary JSON by
/// string scanning (the repo carries no JSON parser dependency).
fn scan_scenario_p50(json: &str, scenario: &str) -> Option<u64> {
    let needle = format!("\"name\": \"{scenario}\"");
    let at = json.find(&needle)?;
    let rest = &json[at..];
    let key = "\"cycles_p50\": ";
    let kat = rest.find(key)?;
    let digits: String = rest[kat + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_uses_nearest_rank() {
        let d = Dist::of(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(d.p50, 50);
        assert_eq!(d.p99, 100);
        assert_eq!(d.min, 10);
        assert_eq!(d.max, 100);
        assert!((d.mean - 55.0).abs() < 1e-9);
        assert_eq!(Dist::of(&[]).n, 0);
        assert_eq!(Dist::of(&[7]).p50, 7);
    }

    #[test]
    fn baseline_scan_finds_scenario_p50() {
        let json = "{\n  \"scenarios\": [\n    {\n      \"name\": \"a\",\n      \
                    \"cycles_p50\": 1234,\n    },\n    {\n      \"name\": \"b\",\n      \
                    \"cycles_p50\": 777\n    }\n  ]\n}";
        assert_eq!(scan_scenario_p50(json, "a"), Some(1234));
        assert_eq!(scan_scenario_p50(json, "b"), Some(777));
        assert_eq!(scan_scenario_p50(json, "c"), None);
    }

    #[test]
    fn baseline_gates_both_directions() {
        let text = "[campaign]\nname = \"x\"\nseeds = \"0..2\"\n\
                    [[scenario]]\nname = \"a\"\nrunner = \"cohort\"\n\
                    [[scenario]]\nname = \"b\"\nrunner = \"cohort\"\n";
        let full = FleetSpec::parse(text).expect("spec parses");
        let baseline = summarize(&full, &[]).json();
        assert_eq!(
            compare_baseline(&summarize(&full, &[]), &baseline, 0.05),
            Ok(())
        );

        let mut narrowed = FleetSpec::parse(text).expect("spec parses");
        assert!(narrowed.retain_scenario("a"));
        assert_eq!(
            compare_baseline(&summarize(&narrowed, &[]), &baseline, 0.05),
            Err(vec![
                "baseline scenario \"b\" missing from the run".to_string()
            ])
        );
    }
}
