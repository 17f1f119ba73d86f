//! Fleet-runner integration suite: host-thread determinism, compound
//! chaos campaigns, structured spec and CLI errors, the committed example
//! specs and the two baseline-gated campaigns, plus a splitmix64 fuzz of
//! the spec loader.
//!
//! The determinism tests are the fleet-level extension of the simulator's
//! determinism contract (`crates/bench/tests/determinism.rs`): not only
//! is each `(scenario, seed)` run a pure function of its inputs, the
//! whole campaign's per-run records and summary must be bit-identical at
//! any *host* fan-out width — thread scheduling may reorder execution but
//! never leak into what gets reported.

use cohort::scenarios::{Refusal, Runner};
use cohort_bench::fleet::{run_fleet, summarize, FleetSpec, Outcome, SpecError};
use std::path::PathBuf;

/// A small mixed campaign used by the determinism tests: a clean cohort
/// run, a sharded run with a mid-stream kill (exercises failover), and a
/// chaos run with a seeded random schedule.
const MIXED_SPEC: &str = r#"
[campaign]
name = "mixed"
seeds = "0..4"

[defaults]
workload = "aes"
queue = 128
batch = 16

[[scenario]]
name = "plain"
runner = "cohort"

[[scenario]]
name = "shard-kill"
runner = "shard"
shards = 2
queue = 1024
batch = 64
faults = "kill@20000:1"
fault_jitter = 15000

[[scenario]]
name = "soup"
runner = "chaos"
policy = "lazy"
faults = "random:seed=7001,count=6,from=5000,to=20000"
"#;

fn records_json(spec: &FleetSpec, threads: usize) -> (Vec<String>, String, String) {
    let records = run_fleet(spec, threads, false);
    let summary = summarize(spec, &records);
    (
        records.iter().map(|r| r.json()).collect(),
        summary.json(),
        summary.markdown("spec.toml"),
    )
}

/// The whole campaign — every per-run record, the summary JSON and the
/// markdown report — is bit-identical at host thread counts 1, 2 and 8.
#[test]
fn fleet_is_host_thread_invariant() {
    let spec = FleetSpec::parse(MIXED_SPEC).expect("spec parses");
    let (base_records, base_summary, base_md) = records_json(&spec, 1);
    assert_eq!(base_records.len(), 12);
    for threads in [2, 8] {
        let (records, summary, md) = records_json(&spec, threads);
        assert_eq!(
            base_records, records,
            "per-run records diverged at host_threads={threads}"
        );
        assert_eq!(
            base_summary, summary,
            "summary diverged at host_threads={threads}"
        );
        assert_eq!(base_md, md, "markdown diverged at host_threads={threads}");
    }
}

/// A failure report's `(spec, scenario, seed)` pair reproduces the run
/// bit-identically: narrowing the spec to one scenario and one seed (what
/// `cohort-fleet --scenario X --seed N` does) yields the exact record the
/// full campaign produced.
#[test]
fn repro_pair_matches_campaign_record() {
    let spec = FleetSpec::parse(MIXED_SPEC).expect("spec parses");
    let records = run_fleet(&spec, 4, false);
    let from_campaign = records
        .iter()
        .find(|r| r.scenario == "shard-kill" && r.seed == 3)
        .expect("record present");

    let mut narrowed = FleetSpec::parse(MIXED_SPEC).expect("spec parses");
    assert!(narrowed.retain_scenario("shard-kill"));
    for sc in &mut narrowed.scenarios {
        sc.seeds.retain(|&s| s == 3);
    }
    let solo = run_fleet(&narrowed, 1, false);
    assert_eq!(solo.len(), 1);
    assert_eq!(solo[0].json(), from_campaign.json());
}

/// Compound-fault chaos campaign: a page-fault storm landing while a
/// shard dies, across 8 jittered seeds. Every run must survive through
/// the hardware failover path (not software fallback), with exactly one
/// kill and exactly one rebind per killed shard.
#[test]
fn storm_plus_kill_campaign_fully_survives() {
    let spec = FleetSpec::parse(
        r#"
[campaign]
name = "compound"
seeds = "0..8"

[defaults]
workload = "aes"
queue = 256
batch = 16
watchdog = 20000

[[scenario]]
name = "storm-plus-kill"
runner = "shard"
shards = 2
queue = 1024
batch = 64
policy = "lazy"
faults = "storm@15000:4; kill@20000:1"
fault_jitter = 10000
"#,
    )
    .expect("spec parses");
    let records = run_fleet(&spec, 0, false);
    assert_eq!(records.len(), 8);
    for r in &records {
        assert_eq!(
            r.outcome,
            Outcome::Recovered,
            "seed {}: expected recovered, got {} ({})",
            r.seed,
            r.outcome,
            r.note
        );
        assert!(r.faults_injected > 0, "seed {}: no faults fired", r.seed);
        assert_eq!(r.kills, 1, "seed {}: exactly one shard killed", r.seed);
        assert_eq!(
            r.rebinds, 1,
            "seed {}: exactly one rebind per killed shard",
            r.seed
        );
        assert!(
            r.recovery_resume > 0,
            "seed {}: failover outage latency not recorded",
            r.seed
        );
    }
    let summary = summarize(&spec, &records);
    let sc = &summary.scenarios[0];
    assert_eq!(sc.fault_runs, 8);
    assert_eq!(sc.survival_rate, 1.0);
    assert_eq!(sc.rebinds, 8);
    assert!(sc.recovery_resume.p50 > 0);
    assert!(sc.failures.is_empty());
}

/// Spec validation rejects bad inputs with structured errors naming the
/// offending entry — not panics, not stringly-typed failures.
#[test]
fn spec_errors_are_structured() {
    type ErrPredicate = fn(&SpecError) -> bool;
    let cases: &[(&str, ErrPredicate)] = &[
        // A key outside the grammar, with its line and section.
        (
            "[campaign]\nname = \"x\"\nseeds = \"0..2\"\n[[scenario]]\nname = \"a\"\nrunner = \"cohort\"\nbogus = 3\n",
            |e| matches!(e, SpecError::UnknownKey { line: 7, section, key }
                if section == "scenario" && key == "bogus"),
        ),
        // A run has no thread count to set (host fan-out is the
        // `--threads` flag): a key asking for one is unknown like any other.
        (
            "[campaign]\nname = \"x\"\nseeds = \"0..2\"\n[[scenario]]\nname = \"a\"\nrunner = \"cohort\"\nsim_threads = 2\n",
            |e| matches!(e, SpecError::UnknownKey { line: 7, section, .. }
                if section == "scenario")
                && e.to_string().starts_with("spec line 7: unknown key"),
        ),
        // Host fan-out and wall-clock budgets are not campaign keys: the
        // flag sets the one, the cycle budget replaces the other.
        (
            "[campaign]\nname = \"x\"\nseeds = \"0..2\"\nhost_threads = 2\n",
            |e| matches!(e, SpecError::UnknownKey { line: 4, section, key }
                if section == "campaign" && key == "host_threads"),
        ),
        (
            "[campaign]\nname = \"x\"\nhang_wall_ms = 100\n",
            |e| matches!(e, SpecError::UnknownKey { line: 3, section, key }
                if section == "campaign" && key == "hang_wall_ms"),
        ),
        // An empty seed range.
        (
            "[campaign]\nname = \"x\"\nseeds = \"5..5\"\n[[scenario]]\nname = \"a\"\nrunner = \"cohort\"\n",
            |e| matches!(e, SpecError::BadSeedRange { line: 3, .. }),
        ),
        // No scenarios at all.
        ("[campaign]\nname = \"x\"\nseeds = \"0..2\"\n", |e| {
            matches!(e, SpecError::NoScenarios)
        }),
        // Duplicate scenario names would make repro pairs ambiguous.
        (
            "[campaign]\nname = \"x\"\nseeds = \"0..2\"\n[[scenario]]\nname = \"a\"\nrunner = \"cohort\"\n[[scenario]]\nname = \"a\"\nrunner = \"cohort\"\n",
            |e| matches!(e, SpecError::DuplicateScenario { name } if name == "a"),
        ),
        // A fault-grammar error carries the structured sim-side error and
        // the scenario it came from.
        (
            "[campaign]\nname = \"x\"\nseeds = \"0..2\"\n[[scenario]]\nname = \"a\"\nrunner = \"chaos\"\nfaults = \"stall@banana:4\"\n",
            |e| matches!(e, SpecError::Fault { scenario, .. } if scenario == "a"),
        ),
        // Kill faults are rejected on runners with no failover stack.
        (
            "[campaign]\nname = \"x\"\nseeds = \"0..2\"\n[[scenario]]\nname = \"a\"\nrunner = \"cohort\"\nfaults = \"kill@100:0\"\n",
            |e| matches!(e, SpecError::Refused { line: 6, scenario, runner: Runner::Cohort,
                err: Refusal::Fault { fault: "kill", .. } } if scenario == "a"),
        ),
        // A kill targeting a shard the scenario does not bind.
        (
            "[campaign]\nname = \"x\"\nseeds = \"0..2\"\n[[scenario]]\nname = \"a\"\nrunner = \"shard\"\nshards = 2\nfaults = \"kill@100:5\"\n",
            |e| matches!(e, SpecError::Refused { line: 6, runner: Runner::Sharded,
                err: Refusal::KillTarget { engine: 5, engines: 2 }, .. }),
        ),
        // Queue size must honour the runner's block granularity.
        (
            "[campaign]\nname = \"x\"\nseeds = \"0..2\"\n[[scenario]]\nname = \"a\"\nrunner = \"shard\"\nworkload = \"sha\"\nqueue = 100\n",
            |e| matches!(e, SpecError::Refused { line: 6,
                err: Refusal::Granularity { what: "queue", value: 100, multiple: 8 }, .. }),
        ),
        // Overrides must name an existing scenario...
        (
            "[campaign]\nname = \"x\"\nseeds = \"0..2\"\n[[scenario]]\nname = \"a\"\nrunner = \"cohort\"\n[[override]]\nscenario = \"ghost\"\nseed = 0\nqueue = 256\n",
            |e| matches!(e, SpecError::OverrideTarget { scenario } if scenario == "ghost"),
        ),
        // ...and a seed inside its seed set.
        (
            "[campaign]\nname = \"x\"\nseeds = \"0..2\"\n[[scenario]]\nname = \"a\"\nrunner = \"cohort\"\n[[override]]\nscenario = \"a\"\nseed = 9\nqueue = 256\n",
            |e| matches!(e, SpecError::OverrideSeed { seed: 9, .. }),
        ),
    ];
    for (i, (text, want)) in cases.iter().enumerate() {
        match FleetSpec::parse(text) {
            Ok(_) => panic!("case {i}: bad spec accepted"),
            Err(e) => {
                assert!(want(&e), "case {i}: wrong error: {e} ({e:?})");
                // Every error renders a non-empty human message.
                assert!(!e.to_string().is_empty());
            }
        }
    }
}

fn repo_path(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

fn example_path(name: &str) -> PathBuf {
    repo_path("examples/fleet").join(name)
}

/// Every committed example spec parses, and a 2-seed truncation of each
/// runs to 100% survival. This keeps `examples/fleet/` honest without
/// paying for the full campaigns on every test run.
#[test]
fn example_specs_parse_and_smoke() {
    let examples = [
        "ci_smoke.toml",
        "placement_sweep.toml",
        "chaos_campaign.toml",
    ];
    for name in examples {
        let mut spec =
            FleetSpec::load(&example_path(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(spec.total_runs() >= 24, "{name}: campaign too small");
        spec.truncate_seeds(2);
        let records = run_fleet(&spec, 0, false);
        assert_eq!(records.len(), spec.total_runs());
        for r in &records {
            assert!(
                r.outcome.survived(),
                "{name} scenario {} seed {}: {} ({})",
                r.scenario,
                r.seed,
                r.outcome,
                r.note
            );
        }
    }
}

/// The two campaigns CI gates with `--baseline` reproduce their committed
/// summaries byte for byte (the simulator is cycle-deterministic, so the
/// match holds on any host, not merely within the drift tolerance).
#[test]
fn gate_campaigns_match_their_committed_summaries() {
    for name in ["baseline_check", "ci_smoke"] {
        let spec = FleetSpec::load(&example_path(&format!("{name}.toml")))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let summary = summarize(&spec, &run_fleet(&spec, 0, false));
        let committed = repo_path(&format!("results/fleet_{name}.json"));
        assert_eq!(
            summary.json(),
            std::fs::read_to_string(&committed)
                .unwrap_or_else(|e| panic!("{}: {e}", committed.display())),
            "{name}: re-bless by running examples/fleet/{name}.toml"
        );
    }
}

/// `--baseline` gates a whole spec, so a narrowed run is refused (exit 2)
/// before anything is simulated or written.
#[test]
fn narrowed_runs_cannot_be_gated_on_a_baseline() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("narrowed_baseline");
    for narrow in [
        ["--scenario", "shard1"],
        ["--seed", "0"],
        ["--max-seeds", "1"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cohort-fleet"))
            .arg("--spec")
            .arg(example_path("baseline_check.toml"))
            .arg("--baseline")
            .arg(repo_path("results/fleet_baseline_check.json"))
            .arg("--out-dir")
            .arg(&out_dir)
            .args(narrow)
            .output()
            .expect("cohort-fleet runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{narrow:?}: {stderr}");
        assert!(
            stderr.contains("--baseline gates the whole spec"),
            "{stderr}"
        );
        assert!(!out_dir.exists(), "{narrow:?} wrote {}", out_dir.display());
    }
}

/// Deterministic splitmix64 generator (same shape as tests/proptests.rs).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.range(0, pool.len() as u64) as usize]
    }
}

/// The spec loader is total: arbitrary token soup — section headers,
/// half-valid keys, junk values, hostile fault strings — either parses or
/// returns a structured `SpecError`; it never panics and never loops.
#[test]
fn fuzzed_specs_never_panic() {
    let fragments: &[&str] = &[
        "[campaign]",
        "[defaults]",
        "[[scenario]]",
        "[[override]]",
        "[mystery]",
        "name = \"fuzz\"",
        "name = 7",
        "seeds = \"0..4\"",
        "seeds = \"4..0\"",
        "seeds = [1, 2, 3]",
        "seeds = \"0..=18446744073709551615\"",
        "runner = \"shard\"",
        "runner = \"cohort\"",
        "runner = \"warp\"",
        "workload = \"aes\"",
        "workload = \"sha\"",
        "queue = 256",
        "queue = 0",
        "queue = 0x7fff_ffff_ffff",
        "batch = 16",
        "shards = 2",
        "shards = 99",
        "engines = 0",
        "policy = \"lazy\"",
        "policy = \"sideways\"",
        "placement = \"occupancy\"",
        "skew = true",
        "skew = \"yes\"",
        "watchdog = 20000",
        "fault_jitter = 1000",
        "vary_fault_seed = false",
        "scenario = \"fuzz\"",
        "seed = 1",
        "faults = \"kill@100:1\"",
        "faults = \"stall@100:50|forever\"",
        "faults = \"storm@:\"",
        "faults = \"random:seed=1,count=2,from=5,to=4\"",
        "faults = \"spike@1:2:3; corrupt@4; nonsense@5\"",
        "faults = \"kill@18446744073709551615:64\"",
        "= = =",
        "key with spaces = 1",
        "queue = ",
        "# comment",
        "\"unterminated",
    ];
    let mut rng = Rng(0xf1ee7);
    for case in 0..512 {
        let lines = rng.range(0, 24);
        let mut text = String::new();
        for _ in 0..lines {
            text.push_str(rng.pick(fragments));
            text.push('\n');
        }
        match FleetSpec::parse(&text) {
            Ok(spec) => {
                // Anything accepted must be internally coherent enough to
                // summarise an empty record set without panicking.
                assert!(!spec.name.is_empty(), "case {case}: empty campaign name");
                let _ = summarize(&spec, &[]);
            }
            Err(e) => {
                assert!(!e.to_string().is_empty(), "case {case}: silent error");
            }
        }
    }
}
