//! `socrun`'s exit-code contract — 0 = ran and verified, 2 = refused, with
//! a line naming what cannot run — and the refusal table that holds the
//! three ways into a run to one answer.

use cohort::scenarios::{run_scenario, Runner};
use cohort_bench::fleet::{FleetSpec, SpecError};
use cohort_bench::run_params::{RunParams, KEYS};
use std::process::Command;
use std::time::{Duration, Instant};

fn socrun(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_socrun"))
        .args(args)
        .output()
        .expect("socrun runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn lazy_policy_is_a_usage_error_only_for_the_dma_runners() {
    for mode in ["dma", "dma-chaos"] {
        let (code, stderr) = socrun(&["--mode", mode, "--policy", "lazy", "--queue", "64"]);
        assert_eq!(code, Some(2), "{mode}: {stderr}");
        assert!(
            stderr.contains(&format!("mode {mode} ")) && stderr.contains("Lazy"),
            "{mode}: the message must name the runner and the policy: {stderr}"
        );
    }
    // The same runners are fine eagerly mapped, and a Cohort-engine runner
    // that used to lose its paging hook is fine lazily mapped.
    for args in [
        ["--mode", "dma", "--policy", "eager"],
        ["--mode", "chain", "--policy", "lazy"],
    ] {
        let (code, stderr) = socrun(&[&args[..], &["--queue", "64"]].concat());
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
}

/// One inadmissible input: the runner, its parameters as `(key, value)`
/// pairs of the key table, and words of the rule that must refuse it.
type Params = Vec<(&'static str, &'static str)>;
type Row = (&'static str, Params, &'static str);

/// Every input the front doors used to disagree on (some were refused by
/// the fleet loader only; some by nobody, and burnt 20 M cycles).
fn refusal_table() -> Vec<Row> {
    let sized = |wl, queue, batch| vec![("workload", wl), ("queue", queue), ("batch", batch)];
    // A size every runner takes, plus what the row is about.
    let with = |extra: &[(&'static str, &'static str)]| [&sized("aes", "64", "8"), extra].concat();
    let mut rows: Vec<Row> = Vec::new();
    let mut row = |mode, params, rule| rows.push((mode, params, rule));
    for mode in ["cohort", "mmio", "dma", "interfered", "chaos", "dma-chaos"] {
        let (sha, aes) = (sized("sha", "60", "8"), sized("aes", "63", "2"));
        row(mode, sha, "queue 60 is not a multiple of 8");
        row(mode, aes, "queue 63 is not a multiple of 2");
    }
    let chained = sized("aes", "60", "2");
    row("chain", chained, "queue 60 is not a multiple of 8");
    for mode in ["cohort", "interfered", "chaos"] {
        let (sha, aes) = (sized("sha", "64", "4"), sized("aes", "64", "3"));
        row(mode, sha, "batch 4 is not a multiple of 8");
        row(mode, aes, "batch 3 is not a multiple of 2");
    }
    for mode in ["cohort", "chain", "mmio", "failover"] {
        let kill = with(&[("faults", "kill@2000:0")]);
        row(mode, kill, "kill fault is not supported");
    }
    for mode in ["cohort", "mmio", "dma", "chaos", "shard"] {
        let kill = with(&[("faults", "maple-kill@100")]);
        row(mode, kill, "maple-kill fault is not supported");
        let stall = with(&[("faults", "maple-stall@100:50")]);
        row(mode, stall, "maple-stall fault is not supported");
    }
    let off_pool = with(&[("shards", "2"), ("faults", "kill@2000:5")]);
    row(
        "shard",
        off_pool,
        "kill targets engine 5 but the run binds 2",
    );
    let off_mesh = with(&[("faults", "kill@2000:4")]);
    row(
        "mesh16",
        off_mesh,
        "kill targets engine 4 but the run binds 4",
    );
    let no_spare = with(&[("shards", "2"), ("engines", "2"), ("faults", "kill@2000:1")]);
    row("shard", no_spare, "2 shard(s) + 1 spare(s) exceed the 2");
    for mode in ["dma", "dma-chaos"] {
        row(mode, with(&[("policy", "lazy")]), "Lazy mapping");
    }
    rows
}

/// The refusal table through all three doors: `run_scenario` returns the
/// rule, the fleet loader wraps that same rule with the line that bound
/// the runner, and the binary exits 2 naming it — none of them simulates
/// a cycle first.
#[test]
fn every_door_refuses_the_same_inputs_for_the_same_rule() {
    for (mode, params, rule) in refusal_table() {
        let runner = Runner::parse(mode).expect("runner name");
        let key = |name: &str| KEYS.iter().find(|k| k.name == name).expect("table key");

        let mut run = RunParams::default();
        for (name, value) in &params {
            run.set_text(key(name), value).expect("value in range");
        }
        let (scenario, shard) = run.to_scenario(runner, 0);
        let refusal =
            run_scenario(runner, &scenario, shard.as_ref()).expect_err("run_scenario must refuse");
        assert!(
            refusal.to_string().contains(rule),
            "{mode} {params:?}: {refusal}"
        );

        let mut spec =
            format!("[campaign]\nname = \"x\"\n[[scenario]]\nname = \"s\"\nrunner = \"{mode}\"\n");
        for (name, value) in &params {
            let quote = if value.parse::<u64>().is_ok() {
                ""
            } else {
                "\""
            };
            spec.push_str(&format!("{name} = {quote}{value}{quote}\n"));
        }
        assert_eq!(
            FleetSpec::parse(&spec).expect_err("the loader must refuse"),
            SpecError::Refused {
                line: 5,
                scenario: "s".into(),
                runner,
                err: refusal,
            },
            "{mode} {params:?}"
        );

        let mut args = vec!["--mode".to_string(), mode.to_string()];
        for (name, value) in &params {
            args.push(format!("--{}", key(name).flag.expect("a socrun flag")));
            args.push(value.to_string());
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let start = Instant::now();
        let (code, stderr) = socrun(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(rule), "{args:?}: {stderr}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "{args:?} was refused only after {:?}",
            start.elapsed()
        );
    }
}

/// `socrun`'s own conveniences sit in front of the table, not beside it:
/// its routing picks a runner, and the runner's rules then apply.
#[test]
fn routed_runs_are_admitted_or_refused_like_explicit_ones() {
    // --shards implies mode shard, whose pool does not bind engine 5.
    let (code, stderr) = socrun(&["--shards", "2", "--faults", "kill@2000:5"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("mode shard refused: kill targets engine 5"),
        "{stderr}"
    );
    // A kill plan implies mode failover, which arms engine 1 only.
    let (code, stderr) = socrun(&["--faults", "kill@2000:0", "--queue", "64"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("mode failover refused: kill fault"),
        "{stderr}"
    );
    // Values are range-checked by the table before any rule is asked.
    for (flag, value, says) in [
        ("--queue", "0", "queue must be in 1..="),
        ("--shards", "65", "shards must be in 1..=64"),
        ("--policy", "sideways", "unknown policy"),
        ("--faults", "stall@100", "stall@100"),
    ] {
        let (code, stderr) = socrun(&[flag, value]);
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag) && stderr.contains(says), "{stderr}");
    }
    // The keys that vary a plan over a seed set are not flags, and the
    // step kernel has no thread count to set.
    for flag in ["--fault_jitter", "--threads"] {
        let (code, stderr) = socrun(&[flag, "2"]);
        assert_eq!(code, Some(2), "{flag}");
        assert!(stderr.starts_with("usage: socrun"), "{flag}: {stderr}");
        assert!(
            !stderr.contains(flag),
            "{flag} is not in the usage: {stderr}"
        );
    }
}
