//! The repo's benchmark: five simulator workloads, end-to-end metrics with
//! tracing off, per-layer metrics and spans from a traced run. See
//! `README.md` beside this package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! cohort-benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--quick]
//! cohort-benchmark [--seed N] [--seconds N] [--quick]       every workload, both kinds of run
//! cohort-benchmark --compare A.json B.json                  two reports of the line above
//! cohort-benchmark --describe                               the content of BENCHMARK.json
//! ```

mod clock;
mod compare;
mod json;
mod layers;
mod measure;
mod metrics;
mod spans;
mod stats;
mod workloads;

use json::Json;
use measure::{Config, Gate};
use metrics::END_TO_END;
use spans::Recorder;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Sizing, WORKLOADS};

const USAGE: &str = "usage: cohort-benchmark [--workload NAME] [--seed N] [--seconds N] \
                     [--trace 0|1] [--quick]\n       cohort-benchmark --compare A.json B.json\n       \
                     cohort-benchmark --describe\n\
                     workloads: cohort_single baseline_mmio_dma mesh16_sharded dram_contended \
                     chain_failover (default: each in its own child process, untraced then traced)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    compare: Option<(String, String)>,
    describe: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 24301,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        quick: false,
        compare: None,
        describe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
                out.seconds = s;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => out.quick = true,
            "--describe" => out.describe = true,
            "--compare" => out.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// This package's directory: `cargo run` exports it; a bare binary falls
/// back to where it was built.
fn manifest_dir() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into())
        .into()
}

/// One workload in this process. Prints an information line (digest,
/// pass count, spreads) and then, last, the result line.
fn run_workload(cfg: &Config) -> bool {
    let mut rec = Recorder::new(cfg.trace);
    let mut gate = Gate::default();
    let (setup, passes) = measure::rounds(&mut rec, &mut gate, cfg);
    let (e2e, spread) = measure::end_to_end(cfg, &setup, &passes);

    let metrics = if cfg.trace {
        let values = layers::per_layer(&mut rec, &mut gate, cfg, &setup, &passes);
        let table = metrics::per_layer();
        let doc = values.to_json(table.iter().map(|(n, u, _)| (n.as_str(), *u)));
        let out = manifest_dir().join("out");
        let path = out.join(format!("spans.{}.json", cfg.workload.name));
        let written = std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, rec.to_chrome_json().render()));
        match written {
            Ok(()) => eprintln!(
                "benchmark: {} spans in {}",
                rec.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
        }
        doc
    } else {
        e2e.to_json(END_TO_END.iter().map(|m| (m.name, m.unit)))
    };

    let spread = spread.into_iter().map(|(n, s)| (n, Json::Num(s))).collect();
    let info = Json::Obj(vec![
        ("workload".into(), Json::Str(cfg.workload.name.into())),
        ("sim_digest".into(), Json::Str(setup.digest.hex())),
        ("passes".into(), Json::Num(passes.len() as f64)),
        ("spread".into(), Json::Obj(spread)),
    ]);
    println!("{}", info.render());
    let correct = gate.failed == 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(gate.attempted as f64)),
        ("failed".into(), Json::Num(gate.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", result.render());
    correct
}

/// Stdout of `program args`, trimmed; `unknown` when it cannot be had.
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Runs one workload in a child of this executable — so its peak RSS is
/// its own and no allocator state leaks between workloads — and returns
/// the two JSON lines it printed.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child; its stderr passes through.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or(format!("{workload}: child printed nothing"))?;
    let info = lines
        .next()
        .ok_or(format!("{workload}: child printed one line"))?;
    Ok((Json::parse(info)?, Json::parse(result)?))
}

/// Every workload, untraced then traced, each in its own child; prints
/// the merged report. True when every run of every child was correct.
fn run_all(args: &Args) -> Result<bool, String> {
    let repo = manifest_dir();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = Json::Obj(vec![
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("quick".into(), Json::Bool(args.quick)),
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "git_rev".into(),
            Json::Str(tool_output(
                "git",
                &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"],
            )),
        ),
        (
            "rustc".into(),
            Json::Str(tool_output("rustc", &["--version"])),
        ),
    ]);

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        eprintln!("benchmark: {} ...", w.name);
        let (info, plain) = run_child(args, w.name, false)?;
        let (traced_info, traced) = run_child(args, w.name, true)?;
        let digest = info.get("sim_digest").cloned().unwrap_or(Json::Null);
        let mut correct = [&plain, &traced]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        if traced_info.get("sim_digest") != Some(&digest) {
            eprintln!(
                "benchmark: FAILED: {}: traced and untraced digests differ",
                w.name
            );
            correct = false;
        }
        all_correct &= correct;
        let total = |key: &str| {
            let of = |r: &Json| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            Json::Num(of(&plain) + of(&traced))
        };
        // End-to-end entries carry the run's own spread beside the value.
        let e2e = plain.get("metrics").map_or(&[][..], Json::members);
        let e2e = e2e
            .iter()
            .map(|(name, entry)| {
                let mut entry = entry.members().to_vec();
                if let Some(s) = info.get("spread").and_then(|s| s.get(name)) {
                    entry.push(("spread".into(), s.clone()));
                }
                (name.clone(), Json::Obj(entry))
            })
            .collect();
        workloads.push((
            w.name.to_string(),
            Json::Obj(vec![
                ("why".into(), Json::Str(w.why.into())),
                ("correct".into(), Json::Bool(correct)),
                ("attempted".into(), total("attempted")),
                ("failed".into(), total("failed")),
                ("sim_digest".into(), digest),
                (
                    "passes".into(),
                    info.get("passes").cloned().unwrap_or(Json::Null),
                ),
                ("end_to_end".into(), Json::Obj(e2e)),
                (
                    "per_layer".into(),
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let report = Json::Obj(vec![
        ("meta".into(), meta),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    print!("{}", report.render_pretty());
    Ok(all_correct)
}

fn read_report(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> Result<bool, String> {
    if args.describe {
        print!("{}", metrics::describe().render_pretty());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let (table, ok) = compare::compare(&read_report(a)?, &read_report(b)?);
        print!("{table}");
        return Ok(ok);
    }
    let Some(name) = &args.workload else {
        return run_all(args);
    };
    let workload = workloads::find(name).ok_or(format!("unknown workload {name}\n{USAGE}"))?;
    let (sizing, seconds) = if args.quick {
        (Sizing::QUICK, 0.0)
    } else {
        (Sizing::FULL, args.seconds)
    };
    Ok(run_workload(&Config {
        workload,
        seed: args.seed,
        seconds,
        trace: args.trace,
        sizing,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args)
        .map_err(|e| format!("{e}\n{USAGE}"))
        .and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let line = [
            "--workload",
            "dram_contended",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let args = parse(&line).expect("valid");
        assert_eq!(args.workload.as_deref(), Some("dram_contended"));
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.quick),
            (7, 10.0, true, false)
        );
        let args = parse(&["--compare", "a.json", "b.json"]).expect("valid");
        assert_eq!(args.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            &["--seed"][..],
            &["--seed", "-1"],
            &["--seconds", "nan"],
            &["--seconds", "1e9"],
            &["--trace", "2"],
            &["--compare", "only-one.json"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
