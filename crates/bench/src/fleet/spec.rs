//! Declarative fleet-campaign specs: a TOML-subset loader with
//! load-time validation.
//!
//! A spec names a campaign and a list of scenarios; each scenario is a
//! [`Runner`] plus the full parameter set a run needs ([`RunParams`]).
//! This module owns what is about the file: sections, line numbers, seed
//! sets and overrides. What a key means belongs to the key table
//! ([`crate::run_params::KEYS`]) and whether a resolved scenario may run
//! to the simulator's own admission check ([`admit`]); both are asked
//! *at load time*, so a queue that is not whole blocks, a fault plan the
//! runner cannot survive or an out-of-range kill target is a structured
//! [`SpecError`] naming the offending line, instead of a budget overrun
//! ten minutes into a campaign.
//!
//! The grammar is a deliberately small TOML subset (no external parser
//! crates): `[campaign]` / `[defaults]` tables, `[[scenario]]` /
//! `[[override]]` array tables, and `key = value` pairs where a value is
//! an integer (decimal or `0x` hex, `_` separators allowed), a bool, a
//! `"string"`, or a flat `[a, b, c]` list. `#` starts a comment.

use crate::run_params::{parse_int, ParamError, RunParams, Value, KEYS};
use cohort::scenarios::{admit, Refusal, Runner};
use cohort_sim::faultinject::FaultSpecError;

/// Upper bound on total runs in one campaign — a typo guard, not a
/// scaling limit (500-seed chaos campaigns sit far below it).
pub const MAX_TOTAL_RUNS: usize = 100_000;

/// Upper bound on seeds per scenario.
pub const MAX_SEEDS_PER_SCENARIO: usize = 10_000;

/// A structured spec-validation error. Every variant carries enough to
/// point at the exact offending entry.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec file could not be read.
    Io {
        /// Path as given.
        path: String,
        /// OS error text.
        msg: String,
    },
    /// A line that is neither a section header, a `key = value` pair,
    /// a comment nor blank.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A section header outside the grammar.
    UnknownSection {
        /// 1-based line number.
        line: usize,
        /// The header as written.
        section: String,
    },
    /// A key not recognised in its section.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// Section the key appeared in.
        section: String,
        /// The key.
        key: String,
    },
    /// A required key is absent.
    MissingKey {
        /// Section the key belongs to.
        section: String,
        /// The key.
        key: String,
    },
    /// A key's value has the wrong type, an unknown enum name, or an
    /// out-of-range magnitude.
    BadValue {
        /// 1-based line number (0 when synthesised during resolution).
        line: usize,
        /// The key.
        key: String,
        /// What was expected / what went wrong.
        msg: String,
    },
    /// A seed range that does not parse or is empty/oversized.
    BadSeedRange {
        /// 1-based line number.
        line: usize,
        /// The range text as written.
        text: String,
        /// What went wrong.
        msg: String,
    },
    /// Two scenarios share a name (reproduction pairs would be ambiguous).
    DuplicateScenario {
        /// The repeated name.
        name: String,
    },
    /// The spec defines no scenarios.
    NoScenarios,
    /// The campaign's total run count exceeds [`MAX_TOTAL_RUNS`].
    TooManyRuns {
        /// Requested total.
        runs: usize,
    },
    /// A scenario's fault grammar failed to parse.
    Fault {
        /// Scenario name.
        scenario: String,
        /// The structured fault-grammar error.
        err: FaultSpecError,
    },
    /// A resolved scenario the simulator's admission check refuses: queue
    /// or batch granularity, mapping policy, a fault the runner cannot
    /// survive, a kill target out of range, shard/engine arithmetic.
    Refused {
        /// 1-based line that bound the parameters to their runner (the
        /// scenario's `runner =`, an override's `scenario =`).
        line: usize,
        /// Scenario name.
        scenario: String,
        /// The runner asked.
        runner: Runner,
        /// The broken rule.
        err: Refusal,
    },
    /// An `[[override]]` naming a scenario that does not exist.
    OverrideTarget {
        /// The name as written.
        scenario: String,
    },
    /// An `[[override]]` naming a seed outside its scenario's seed set.
    OverrideSeed {
        /// Scenario name.
        scenario: String,
        /// The seed as written.
        seed: u64,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Io { path, msg } => write!(f, "spec {path}: {msg}"),
            SpecError::Syntax { line, msg } => write!(f, "spec line {line}: {msg}"),
            SpecError::UnknownSection { line, section } => {
                write!(f, "spec line {line}: unknown section [{section}]")
            }
            SpecError::UnknownKey { line, section, key } => {
                write!(f, "spec line {line}: unknown key {key:?} in [{section}]")
            }
            SpecError::MissingKey { section, key } => {
                write!(f, "spec: [{section}] is missing required key {key:?}")
            }
            SpecError::BadValue { line, key, msg } => {
                write!(f, "spec line {line}: bad value for {key:?}: {msg}")
            }
            SpecError::BadSeedRange { line, text, msg } => {
                write!(f, "spec line {line}: bad seed range {text:?}: {msg}")
            }
            SpecError::DuplicateScenario { name } => {
                write!(f, "spec: duplicate scenario name {name:?}")
            }
            SpecError::NoScenarios => f.write_str("spec: no [[scenario]] sections"),
            SpecError::TooManyRuns { runs } => {
                write!(
                    f,
                    "spec: {runs} total runs exceeds the {MAX_TOTAL_RUNS} cap"
                )
            }
            SpecError::Fault { scenario, err } => {
                write!(f, "spec: scenario {scenario:?}: {err}")
            }
            SpecError::Refused {
                line,
                scenario,
                runner,
                err,
            } => write!(
                f,
                "spec line {line}: scenario {scenario:?} (runner {runner}): {err}"
            ),
            SpecError::OverrideTarget { scenario } => {
                write!(f, "spec: [[override]] names unknown scenario {scenario:?}")
            }
            SpecError::OverrideSeed { scenario, seed } => write!(
                f,
                "spec: [[override]] for scenario {scenario:?} names seed \
                 {seed} outside the scenario's seed set"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// One scenario of a campaign: a runner, a seed set, base parameters and
/// fully-resolved per-seed overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique scenario name (reports key `(spec, scenario, seed)` on it).
    pub name: String,
    /// Which runner executes it.
    pub runner: Runner,
    /// The seeds to run, in report order.
    pub seeds: Vec<u64>,
    /// Parameters shared by every seed.
    pub base: RunParams,
    /// Per-seed parameter overrides, fully resolved against `base`.
    pub overrides: Vec<(u64, RunParams)>,
}

impl ScenarioSpec {
    /// The effective parameters for one seed.
    pub fn params_for(&self, seed: u64) -> &RunParams {
        self.overrides
            .iter()
            .find(|(s, _)| *s == seed)
            .map_or(&self.base, |(_, p)| p)
    }
}

/// A parsed, validated campaign spec.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Campaign name (output files are `fleet_<name>.*`).
    pub name: String,
    /// The scenarios, in spec order.
    pub scenarios: Vec<ScenarioSpec>,
}

impl FleetSpec {
    /// Loads and validates a spec file.
    ///
    /// # Errors
    /// [`SpecError::Io`] when the file cannot be read, else whatever
    /// [`FleetSpec::parse`] rejects.
    pub fn load(path: &std::path::Path) -> Result<FleetSpec, SpecError> {
        let text = std::fs::read_to_string(path).map_err(|e| SpecError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        Self::parse(&text)
    }

    /// Total runs across all scenarios.
    pub fn total_runs(&self) -> usize {
        self.scenarios.iter().map(|s| s.seeds.len()).sum()
    }

    /// Keeps only the named scenario; returns false when absent.
    pub fn retain_scenario(&mut self, name: &str) -> bool {
        self.scenarios.retain(|s| s.name == name);
        !self.scenarios.is_empty()
    }

    /// Caps every scenario at its first `n` seeds (smoke tests shrink
    /// committed campaign specs without forking them).
    pub fn truncate_seeds(&mut self, n: usize) {
        for s in &mut self.scenarios {
            s.seeds.truncate(n.max(1));
            let seeds = &s.seeds;
            s.overrides.retain(|(seed, _)| seeds.contains(seed));
        }
    }

    /// Parses and validates spec text.
    ///
    /// # Errors
    /// A structured [`SpecError`] naming the offending line/entry.
    pub fn parse(text: &str) -> Result<FleetSpec, SpecError> {
        let raw = RawSpec::parse(text)?;

        // [campaign]
        let mut name = None;
        let mut default_seeds: Option<(Vec<u64>, usize)> = None;
        for (key, value, line) in &raw.campaign {
            match key.as_str() {
                "name" => name = Some(expect_str(key, value, *line)?),
                "seeds" => default_seeds = Some((parse_seeds(value, *line)?, *line)),
                _ => {
                    return Err(SpecError::UnknownKey {
                        line: *line,
                        section: "campaign".into(),
                        key: key.clone(),
                    })
                }
            }
        }
        let name = name.ok_or_else(|| SpecError::MissingKey {
            section: "campaign".into(),
            key: "name".into(),
        })?;

        // [defaults]
        let mut defaults = RunParams::default();
        for entry in &raw.defaults {
            apply_param(&mut defaults, entry, "defaults", "defaults")?;
        }

        // [[scenario]]
        let mut scenarios: Vec<ScenarioSpec> = Vec::new();
        for table in &raw.scenarios {
            // Resolve the name first so every later error can cite it.
            let ctx = table
                .iter()
                .find(|(k, _, _)| k == "name")
                .and_then(|(_, v, _)| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| "scenario".into());
            let mut sc_name = None;
            let mut runner = None;
            let mut seeds = None;
            let mut base = defaults.clone();
            for entry @ (key, value, line) in table {
                match key.as_str() {
                    "name" => sc_name = Some(expect_str(key, value, *line)?),
                    "runner" => {
                        let text = expect_str(key, value, *line)?;
                        let parsed = Runner::parse(&text).ok_or_else(|| SpecError::BadValue {
                            line: *line,
                            key: key.clone(),
                            msg: format!(
                                "unknown runner {text:?} (one of: {})",
                                Runner::ALL.map(|r| r.name()).join(", ")
                            ),
                        })?;
                        runner = Some((parsed, *line));
                    }
                    "seeds" => seeds = Some(parse_seeds(value, *line)?),
                    _ => apply_param(&mut base, entry, "scenario", &ctx)?,
                }
            }
            let sc_name = sc_name.ok_or_else(|| SpecError::MissingKey {
                section: "scenario".into(),
                key: "name".into(),
            })?;
            if scenarios.iter().any(|s| s.name == sc_name) {
                return Err(SpecError::DuplicateScenario { name: sc_name });
            }
            let (runner, runner_line) = runner.ok_or_else(|| SpecError::MissingKey {
                section: "scenario".into(),
                key: "runner".into(),
            })?;
            let seeds = match (seeds, &default_seeds) {
                (Some(s), _) => s,
                (None, Some((s, _))) => s.clone(),
                (None, None) => (0..8).collect(),
            };
            admit_params(&sc_name, runner, &base, runner_line)?;
            scenarios.push(ScenarioSpec {
                name: sc_name,
                runner,
                seeds,
                base,
                overrides: Vec::new(),
            });
        }
        if scenarios.is_empty() {
            return Err(SpecError::NoScenarios);
        }

        // [[override]]
        for table in &raw.overrides {
            let mut target = None;
            let mut seed = None;
            let mut patch: Vec<(String, Value, usize)> = Vec::new();
            for (key, value, line) in table {
                match key.as_str() {
                    "scenario" => target = Some((expect_str(key, value, *line)?, *line)),
                    "seed" => seed = Some(expect_int(key, value, *line)?),
                    _ => patch.push((key.clone(), value.clone(), *line)),
                }
            }
            let (target, target_line) = target.ok_or_else(|| SpecError::MissingKey {
                section: "override".into(),
                key: "scenario".into(),
            })?;
            let seed = seed.ok_or_else(|| SpecError::MissingKey {
                section: "override".into(),
                key: "seed".into(),
            })?;
            let sc = scenarios
                .iter_mut()
                .find(|s| s.name == target)
                .ok_or(SpecError::OverrideTarget { scenario: target })?;
            if !sc.seeds.contains(&seed) {
                return Err(SpecError::OverrideSeed {
                    scenario: sc.name.clone(),
                    seed,
                });
            }
            let mut params = sc.base.clone();
            for entry in &patch {
                apply_param(&mut params, entry, "override", &sc.name)?;
            }
            admit_params(&sc.name, sc.runner, &params, target_line)?;
            sc.overrides.retain(|(s, _)| *s != seed);
            sc.overrides.push((seed, params));
        }

        let spec = FleetSpec { name, scenarios };
        if spec.total_runs() > MAX_TOTAL_RUNS {
            return Err(SpecError::TooManyRuns {
                runs: spec.total_runs(),
            });
        }
        Ok(spec)
    }
}

/// Applies one `key = value` pair of `section` through the key table.
/// `scenario` names the owner so fault-grammar errors stay attributable.
fn apply_param(
    p: &mut RunParams,
    (key, value, line): &(String, Value, usize),
    section: &str,
    scenario: &str,
) -> Result<(), SpecError> {
    let (line, key) = (*line, key.clone());
    let Some(k) = KEYS.iter().find(|k| k.name == key) else {
        let section = section.to_string();
        return Err(SpecError::UnknownKey { line, section, key });
    };
    p.set(k, value).map_err(|e| match e {
        ParamError::BadValue(msg) => SpecError::BadValue { line, key, msg },
        ParamError::Fault(err) => SpecError::Fault {
            scenario: scenario.to_string(),
            err,
        },
    })
}

/// Asks the simulator whether one resolved parameter set may run. `line`
/// is where the set was bound to its runner, for rules no single key owns.
fn admit_params(
    scenario: &str,
    runner: Runner,
    p: &RunParams,
    line: usize,
) -> Result<(), SpecError> {
    // Admission reads fault kinds and targets, never cycles, so any seed's
    // plan stands for the whole seed set.
    let (s, shard) = p.to_scenario(runner, 0);
    admit(runner, &s, shard.as_ref()).map_err(|err| SpecError::Refused {
        line,
        scenario: scenario.to_string(),
        runner,
        err,
    })
}

fn expect_str(key: &str, value: &Value, line: usize) -> Result<String, SpecError> {
    match value {
        Value::Str(s) => Ok(s.clone()),
        other => Err(SpecError::BadValue {
            line,
            key: key.to_string(),
            msg: format!("expected a \"string\", got {other:?}"),
        }),
    }
}

fn expect_int(key: &str, value: &Value, line: usize) -> Result<u64, SpecError> {
    match value {
        Value::Int(n) => Ok(*n),
        other => Err(SpecError::BadValue {
            line,
            key: key.to_string(),
            msg: format!("expected an integer, got {other:?}"),
        }),
    }
}

/// Parses a seed set: `"A..B"` (exclusive), `"A..=B"` (inclusive) or a
/// list of integers.
fn parse_seeds(value: &Value, line: usize) -> Result<Vec<u64>, SpecError> {
    let bad = |text: &str, msg: &str| SpecError::BadSeedRange {
        line,
        text: text.to_string(),
        msg: msg.to_string(),
    };
    let seeds = match value {
        Value::List(items) => {
            let mut out = Vec::with_capacity(items.len());
            for it in items {
                match it {
                    Value::Int(n) => out.push(*n),
                    other => {
                        return Err(bad(&format!("{other:?}"), "seed lists hold integers only"))
                    }
                }
            }
            out
        }
        Value::Str(text) => {
            let (lo, hi, inclusive) = match (text.split_once("..="), text.split_once("..")) {
                (Some((a, b)), _) => (a, b, true),
                (None, Some((a, b))) => (a, b, false),
                (None, None) => return Err(bad(text, "expected \"A..B\" or \"A..=B\"")),
            };
            let lo = parse_int(lo).ok_or_else(|| bad(text, "range start is not a number"))?;
            let hi = parse_int(hi).ok_or_else(|| bad(text, "range end is not a number"))?;
            let hi = if inclusive { hi.saturating_add(1) } else { hi };
            if hi <= lo {
                return Err(bad(text, "empty range"));
            }
            if hi - lo > MAX_SEEDS_PER_SCENARIO as u64 {
                return Err(bad(text, "range exceeds the per-scenario seed cap"));
            }
            (lo..hi).collect()
        }
        other => {
            return Err(bad(
                &format!("{other:?}"),
                "expected a \"A..B\" string or a seed list",
            ))
        }
    };
    if seeds.is_empty() {
        return Err(bad("", "no seeds"));
    }
    if seeds.len() > MAX_SEEDS_PER_SCENARIO {
        return Err(bad("", "exceeds the per-scenario seed cap"));
    }
    Ok(seeds)
}

/// The raw line-level parse: section tables with `(key, value, line)`
/// triples, before any interpretation.
#[derive(Default)]
struct RawSpec {
    campaign: Vec<(String, Value, usize)>,
    defaults: Vec<(String, Value, usize)>,
    scenarios: Vec<Vec<(String, Value, usize)>>,
    overrides: Vec<Vec<(String, Value, usize)>>,
}

enum Section {
    None,
    Campaign,
    Defaults,
    Scenario,
    Override,
}

impl RawSpec {
    fn parse(text: &str) -> Result<RawSpec, SpecError> {
        let mut raw = RawSpec::default();
        let mut section = Section::None;
        for (idx, full_line) in text.lines().enumerate() {
            let line = idx + 1;
            let stripped = strip_comment(full_line);
            let t = stripped.trim();
            if t.is_empty() {
                continue;
            }
            if let Some(header) = t.strip_prefix("[[").and_then(|h| h.strip_suffix("]]")) {
                match header.trim() {
                    "scenario" => {
                        raw.scenarios.push(Vec::new());
                        section = Section::Scenario;
                    }
                    "override" => {
                        raw.overrides.push(Vec::new());
                        section = Section::Override;
                    }
                    other => {
                        return Err(SpecError::UnknownSection {
                            line,
                            section: format!("[{other}]"),
                        })
                    }
                }
                continue;
            }
            if let Some(header) = t.strip_prefix('[').and_then(|h| h.strip_suffix(']')) {
                section = match header.trim() {
                    "campaign" => Section::Campaign,
                    "defaults" => Section::Defaults,
                    other => {
                        return Err(SpecError::UnknownSection {
                            line,
                            section: other.to_string(),
                        })
                    }
                };
                continue;
            }
            let Some((key, value_text)) = t.split_once('=') else {
                return Err(SpecError::Syntax {
                    line,
                    msg: format!("expected `key = value` or a section header, got {t:?}"),
                });
            };
            let key = key.trim().to_string();
            if key.is_empty() {
                return Err(SpecError::Syntax {
                    line,
                    msg: "empty key".into(),
                });
            }
            let value = parse_value(value_text.trim(), line)?;
            let slot = match section {
                Section::Campaign => &mut raw.campaign,
                Section::Defaults => &mut raw.defaults,
                Section::Scenario => raw.scenarios.last_mut().expect("open scenario"),
                Section::Override => raw.overrides.last_mut().expect("open override"),
                Section::None => {
                    return Err(SpecError::Syntax {
                        line,
                        msg: format!("key {key:?} before any section header"),
                    })
                }
            };
            slot.push((key, value, line));
        }
        Ok(raw)
    }
}

/// Drops a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str, line: usize) -> Result<Value, SpecError> {
    let syntax = |msg: String| SpecError::Syntax { line, msg };
    if text.is_empty() {
        return Err(syntax("missing value".into()));
    }
    if let Some(body) = text.strip_prefix('"') {
        let Some(end) = body.find('"') else {
            return Err(syntax(format!("unterminated string {text:?}")));
        };
        if !body[end + 1..].trim().is_empty() {
            return Err(syntax(format!("trailing junk after string {text:?}")));
        }
        return Ok(Value::Str(body[..end].to_string()));
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = text.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(syntax(format!("unterminated list {text:?}")));
        };
        let mut items = Vec::new();
        for part in body.split(',').map(str::trim) {
            if part.is_empty() {
                continue;
            }
            match parse_value(part, line)? {
                Value::List(_) => return Err(syntax("nested lists are not supported".into())),
                v => items.push(v),
            }
        }
        return Ok(Value::List(items));
    }
    parse_int(text)
        .map(Value::Int)
        .ok_or_else(|| syntax(format!("cannot parse value {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_os::addrspace::MapPolicy;
    use cohort_os::driver::ShardError;

    const MINIMAL: &str = r#"
        [campaign]
        name = "mini"
        seeds = "0..4"

        [[scenario]]
        name = "base"
        runner = "cohort"
        queue = 64
    "#;

    #[test]
    fn minimal_spec_parses() {
        let spec = FleetSpec::parse(MINIMAL).expect("parses");
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.total_runs(), 4);
        assert_eq!(spec.scenarios[0].runner, Runner::Cohort);
        assert_eq!(spec.scenarios[0].seeds, vec![0, 1, 2, 3]);
    }

    #[test]
    fn defaults_flow_into_scenarios_and_overrides_win() {
        let spec = FleetSpec::parse(
            r#"
            [campaign]
            name = "ov"
            seeds = [1, 2, 3]

            [defaults]
            queue = 128
            batch = 8

            [[scenario]]
            name = "s"
            runner = "cohort"

            [[override]]
            scenario = "s"
            seed = 2
            queue = 256
            "#,
        )
        .expect("parses");
        let sc = &spec.scenarios[0];
        assert_eq!(sc.base.queue, 128);
        assert_eq!(sc.params_for(1).queue, 128);
        assert_eq!(sc.params_for(2).queue, 256);
        assert_eq!(sc.params_for(2).batch, 8, "override inherits the base");
    }

    fn size(what: &'static str, value: u64, multiple: u64) -> Refusal {
        Refusal::Granularity {
            what,
            value,
            multiple,
        }
    }

    #[test]
    fn structured_errors_name_the_problem() {
        let no_name = FleetSpec::parse("[campaign]\nseeds = \"0..2\"").unwrap_err();
        assert_eq!(
            no_name,
            SpecError::MissingKey {
                section: "campaign".into(),
                key: "name".into()
            }
        );

        let bad_runner = FleetSpec::parse(
            "[campaign]\nname = \"x\"\n[[scenario]]\nname = \"s\"\nrunner = \"warp\"",
        )
        .unwrap_err();
        assert!(matches!(bad_runner, SpecError::BadValue { line: 5, .. }));

        // Whole blocks, for every runner: the chains' SHA blocks, and the
        // single-engine runners that used to load and then hang.
        for (params, runner, err) in [
            (
                "runner = \"chain\"\nqueue = 65",
                Runner::Chain,
                size("queue", 65, 8),
            ),
            (
                "runner = \"cohort\"\nworkload = \"sha\"\nqueue = 60",
                Runner::Cohort,
                size("queue", 60, 8),
            ),
            (
                "runner = \"cohort\"\nworkload = \"sha\"\nbatch = 4",
                Runner::Cohort,
                size("batch", 4, 8),
            ),
        ] {
            let refused = FleetSpec::parse(&format!(
                "[campaign]\nname = \"x\"\n[[scenario]]\nname = \"s\"\n{params}"
            ))
            .unwrap_err();
            assert_eq!(
                refused,
                SpecError::Refused {
                    line: 5,
                    scenario: "s".into(),
                    runner,
                    err,
                }
            );
        }

        let dup = FleetSpec::parse(
            "[campaign]\nname = \"x\"\n[[scenario]]\nname = \"s\"\nrunner = \"cohort\"\n\
             [[scenario]]\nname = \"s\"\nrunner = \"mmio\"",
        )
        .unwrap_err();
        assert_eq!(dup, SpecError::DuplicateScenario { name: "s".into() });

        // MAPLE's DMA cannot demand-page: lazy mapping is rejected at the
        // line that binds the runner, wherever the policy came from — the
        // scenario itself, [defaults], or a per-seed override.
        for (spec, line) in [
            (
                "[[scenario]]\nname = \"s\"\nrunner = \"dma\"\npolicy = \"lazy\"",
                5,
            ),
            (
                "[defaults]\npolicy = \"lazy\"\n[[scenario]]\nname = \"s\"\nrunner = \"dma-chaos\"",
                7,
            ),
            (
                "[[scenario]]\nname = \"s\"\nrunner = \"dma\"\nseeds = \"0..2\"\n\
              [[override]]\nscenario = \"s\"\nseed = 1\npolicy = \"lazy\"",
                8,
            ),
        ] {
            let err = FleetSpec::parse(&format!("[campaign]\nname = \"x\"\n{spec}")).unwrap_err();
            assert!(
                matches!(&err, SpecError::Refused { line: l, err: Refusal::Policy(MapPolicy::Lazy), .. } if *l == line),
                "{spec:?}: {err}"
            );
        }
        FleetSpec::parse(
            "[campaign]\nname = \"x\"\n[[scenario]]\nname = \"s\"\nrunner = \"failover\"\n\
             workload = \"sha\"\npolicy = \"lazy\"",
        )
        .expect("every Cohort-engine runner demand-pages");
    }

    #[test]
    fn fault_runner_compatibility_is_validated() {
        // kill on a runner with no failover stack.
        let err = FleetSpec::parse(
            "[campaign]\nname = \"x\"\n[[scenario]]\nname = \"s\"\nrunner = \"cohort\"\n\
             faults = \"kill@10000\"",
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SpecError::Refused {
                line: 5,
                runner: Runner::Cohort,
                err: Refusal::Fault { fault: "kill", .. },
                ..
            }
        ));

        // kill past the shard pool.
        let err = FleetSpec::parse(
            "[campaign]\nname = \"x\"\n[[scenario]]\nname = \"s\"\nrunner = \"shard\"\n\
             shards = 2\nfaults = \"kill@10000:2\"",
        )
        .unwrap_err();
        assert_eq!(
            err,
            SpecError::Refused {
                line: 5,
                scenario: "s".into(),
                runner: Runner::Sharded,
                err: Refusal::KillTarget {
                    engine: 2,
                    engines: 2,
                },
            }
        );

        // malformed grammar surfaces the structured fault error.
        let err = FleetSpec::parse(
            "[campaign]\nname = \"x\"\n[[scenario]]\nname = \"s\"\nrunner = \"chaos\"\n\
             faults = \"stall@100\"",
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SpecError::Fault {
                err: FaultSpecError::BadArity { .. },
                ..
            }
        ));
    }

    #[test]
    fn sharded_kill_gets_a_spare_engine_automatically() {
        let spec = FleetSpec::parse(
            "[campaign]\nname = \"x\"\n[[scenario]]\nname = \"s\"\nrunner = \"shard\"\n\
             shards = 2\nfaults = \"kill@10000:1\"\nqueue = 64",
        )
        .expect("parses");
        assert_eq!(spec.scenarios[0].base.resolved_engines(), 3);
        // An explicit engine count below shards+spare is rejected.
        let err = FleetSpec::parse(
            "[campaign]\nname = \"x\"\n[[scenario]]\nname = \"s\"\nrunner = \"shard\"\n\
             shards = 2\nfaults = \"kill@10000:1\"\nqueue = 64\nengines = 2",
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SpecError::Refused {
                line: 5,
                err: Refusal::Pool(ShardError::NotEnoughEngines {
                    requested: 2,
                    engines: 2,
                    spares: 1
                }),
                ..
            }
        ));
    }

    #[test]
    fn override_validation_rejects_unknown_targets_and_seeds() {
        let base = "[campaign]\nname = \"x\"\nseeds = \"0..2\"\n\
                    [[scenario]]\nname = \"s\"\nrunner = \"cohort\"\n";
        let err = FleetSpec::parse(&format!(
            "{base}[[override]]\nscenario = \"t\"\nseed = 0\nqueue = 64"
        ))
        .unwrap_err();
        assert_eq!(
            err,
            SpecError::OverrideTarget {
                scenario: "t".into()
            }
        );

        let err = FleetSpec::parse(&format!(
            "{base}[[override]]\nscenario = \"s\"\nseed = 9\nqueue = 64"
        ))
        .unwrap_err();
        assert_eq!(
            err,
            SpecError::OverrideSeed {
                scenario: "s".into(),
                seed: 9
            }
        );
    }

    #[test]
    fn dram_key_parses_and_flows_into_the_scenario() {
        let spec = FleetSpec::parse(
            "[campaign]\nname = \"x\"\n[[scenario]]\nname = \"s\"\nrunner = \"cohort\"\n\
             queue = 64\ndram = \"channels=1,queue=2,miss=100\"",
        )
        .expect("parses");
        let dram = spec.scenarios[0].base.dram.as_ref().expect("dram set");
        assert_eq!(dram.channels, 1);
        assert_eq!(dram.queue_depth, 2);
        assert_eq!(dram.t_row_miss, 100);
        let (scenario, _) = spec.scenarios[0].base.to_scenario(Runner::Cohort, 0);
        assert_eq!(scenario.soc.dram.as_ref(), Some(dram));

        let spec = FleetSpec::parse(MINIMAL).expect("parses");
        assert!(spec.scenarios[0].base.dram.is_none(), "default stays flat");
    }

    #[test]
    fn bad_dram_spec_is_rejected_at_load_time() {
        let err = FleetSpec::parse(
            "[campaign]\nname = \"x\"\n[[scenario]]\nname = \"s\"\nrunner = \"cohort\"\n\
             queue = 64\ndram = \"warp=9\"",
        )
        .unwrap_err();
        assert!(
            matches!(err, SpecError::BadValue { line: 7, ref key, .. } if key == "dram"),
            "got {err:?}"
        );
    }

    #[test]
    fn comments_hex_and_inclusive_ranges_parse() {
        let spec = FleetSpec::parse(
            "# top comment\n[campaign]\nname = \"c\" # trailing\nseeds = \"0x10..=0x12\"\n\
             [[scenario]]\nname = \"s\"\nrunner = \"cohort\"\nqueue = 1_024",
        )
        .expect("parses");
        assert_eq!(spec.scenarios[0].seeds, vec![16, 17, 18]);
        assert_eq!(spec.scenarios[0].base.queue, 1024);
    }
}
