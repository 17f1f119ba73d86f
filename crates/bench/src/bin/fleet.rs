//! `cohort-fleet` — declarative scenario fleet runner.
//!
//! ```text
//! cohort-fleet --spec FILE [--out-dir DIR] [--threads N] [--strict]
//!              [--baseline FILE] [--scenario NAME] [--seed N]
//!              [--max-seeds N] [--verbose]
//! ```
//!
//! Runs a campaign spec and writes `results/fleet_<name>.{json,md}`
//! (summary + report) and `results/fleet_<name>_runs.json` (per-run
//! records). Exit code 1 when any run fails to survive under `--strict`,
//! or when `--baseline` detects a >5% p50-cycle drift or a scenario
//! missing on either side. `--scenario`/`--seed`/`--max-seeds` narrow the
//! spec for reproducing a reported failure (with `--seed` the full
//! per-run record is printed to stdout), so they are refused next to
//! `--baseline`. A committed baseline is re-blessed by running its spec.

#![forbid(unsafe_code)]

use cohort_bench::fleet::{run_fleet, summarize, FleetSpec, Outcome, RunRecord};
use std::path::PathBuf;
use std::process::ExitCode;

/// Per-scenario baseline drift the `--baseline` gate tolerates.
const BASELINE_TOLERANCE: f64 = 0.05;

fn usage() -> ! {
    eprintln!(
        "usage: cohort-fleet --spec FILE [--out-dir DIR] [--threads N] [--strict]\n\
         \x20                   [--baseline FILE] [--scenario NAME] [--seed N]\n\
         \x20                   [--max-seeds N] [--verbose]\n\
         \n\
         Runs a declarative scenario campaign (see examples/fleet/) and writes\n\
         results/fleet_<name>.{{json,md}} plus per-run records."
    );
    std::process::exit(2)
}

struct Args {
    spec: Option<PathBuf>,
    out_dir: PathBuf,
    threads: usize,
    strict: bool,
    baseline: Option<PathBuf>,
    scenario: Option<String>,
    seed: Option<u64>,
    max_seeds: Option<usize>,
    verbose: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: None,
        out_dir: PathBuf::from("results"),
        threads: 0,
        strict: false,
        baseline: None,
        scenario: None,
        seed: None,
        max_seeds: None,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("cohort-fleet: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--spec" => args.spec = Some(PathBuf::from(value("--spec"))),
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")),
            "--threads" => args.threads = value("--threads").parse().unwrap_or_else(|_| usage()),
            "--strict" => args.strict = true,
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline"))),
            "--scenario" => args.scenario = Some(value("--scenario")),
            "--seed" => {
                let v = value("--seed");
                let parsed = v
                    .strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16))
                    .unwrap_or_else(|| v.parse());
                args.seed = Some(parsed.unwrap_or_else(|_| usage()));
            }
            "--max-seeds" => {
                args.max_seeds = Some(value("--max-seeds").parse().unwrap_or_else(|_| usage()))
            }
            "--verbose" => args.verbose = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("cohort-fleet: unknown argument {other:?}");
                usage()
            }
        }
    }
    args
}

fn write_file(path: &std::path::Path, contents: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cohort-fleet: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        });
    }
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cohort-fleet: cannot write {}: {e}", path.display());
        std::process::exit(2);
    });
    eprintln!("wrote {}", path.display());
}

fn records_json(records: &[RunRecord]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str("  ");
        s.push_str(&r.json());
        s.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    s.push_str("]\n");
    s
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(spec_path) = args.spec.clone() else {
        usage()
    };
    if args.baseline.is_some()
        && (args.scenario.is_some() || args.seed.is_some() || args.max_seeds.is_some())
    {
        eprintln!(
            "cohort-fleet: --baseline gates the whole spec; \
             --scenario, --seed and --max-seeds narrow it"
        );
        std::process::exit(2);
    }
    let mut spec = FleetSpec::load(&spec_path).unwrap_or_else(|e| {
        eprintln!("cohort-fleet: {e}");
        std::process::exit(2);
    });
    if let Some(name) = &args.scenario {
        if !spec.retain_scenario(name) {
            eprintln!(
                "cohort-fleet: spec {} has no scenario {name:?}",
                spec_path.display()
            );
            std::process::exit(2);
        }
    }
    if let Some(seed) = args.seed {
        for sc in &mut spec.scenarios {
            sc.seeds.retain(|&s| s == seed);
            sc.overrides.retain(|(s, _)| *s == seed);
        }
        spec.scenarios.retain(|sc| !sc.seeds.is_empty());
        if spec.scenarios.is_empty() {
            eprintln!("cohort-fleet: seed {seed} is not in the selected scenario's seed set");
            std::process::exit(2);
        }
    }
    if let Some(n) = args.max_seeds {
        spec.truncate_seeds(n);
    }
    eprintln!(
        "campaign {:?}: {} scenario(s), {} run(s)",
        spec.name,
        spec.scenarios.len(),
        spec.total_runs()
    );
    let records = run_fleet(&spec, args.threads, args.verbose);
    let summary = summarize(&spec, &records);

    // Single-run reproduction mode prints the full record to stdout.
    if args.seed.is_some() {
        for r in &records {
            println!("{}", r.json());
        }
    }

    let spec_display = spec_path.display().to_string();
    write_file(
        &args.out_dir.join(format!("fleet_{}.json", spec.name)),
        &summary.json(),
    );
    write_file(
        &args.out_dir.join(format!("fleet_{}.md", spec.name)),
        &summary.markdown(&spec_display),
    );
    write_file(
        &args.out_dir.join(format!("fleet_{}_runs.json", spec.name)),
        &records_json(&records),
    );

    let failed: Vec<&RunRecord> = records.iter().filter(|r| !r.outcome.survived()).collect();
    for r in &failed {
        eprintln!(
            "FAILED {} seed={}: {} — reproduce: cohort-fleet --spec {} --scenario {} --seed {}",
            r.scenario, r.seed, r.outcome, spec_display, r.scenario, r.seed
        );
    }
    let mut ok = true;
    if args.strict {
        // Strict mode (the CI smoke gate): every run must be a clean pass
        // or a hardware-path recovery — fallback, mismatch and hangs fail.
        let non_pass = records
            .iter()
            .filter(|r| !matches!(r.outcome, Outcome::Pass | Outcome::Recovered))
            .count();
        if non_pass > 0 {
            eprintln!("cohort-fleet: --strict and {non_pass} run(s) were not pass/recovered");
            ok = false;
        }
    }
    if let Some(baseline_path) = &args.baseline {
        let baseline = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!(
                "cohort-fleet: cannot read baseline {}: {e}",
                baseline_path.display()
            );
            std::process::exit(2);
        });
        match cohort_bench::fleet::compare_baseline(&summary, &baseline, BASELINE_TOLERANCE) {
            Ok(()) => eprintln!(
                "baseline {}: all scenarios within ±{:.0}%",
                baseline_path.display(),
                BASELINE_TOLERANCE * 100.0
            ),
            Err(problems) => {
                for p in &problems {
                    eprintln!("cohort-fleet baseline: {p}");
                }
                ok = false;
            }
        }
    }
    eprintln!(
        "campaign {:?}: {}/{} survived",
        spec.name, summary.survived, summary.total_runs
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
