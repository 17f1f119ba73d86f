//! The parameters of one run, and the one table of keys that sets them.
//!
//! Every way into a run fills a [`RunParams`]: a fleet spec's
//! `key = value` lines, `socrun`'s `--flag value` pairs, the figure
//! sweep's struct literals. [`RunParams::to_scenario`] turns it into what
//! `cohort::scenarios::run_scenario` takes, and that function's admission
//! check (`cohort::scenarios::admit`) alone decides whether the
//! combination may run. [`KEYS`] is the only place where a key's
//! spelling, value words and range are written down.

use cohort::scenarios::{
    sharded_engines_for, Runner, Scenario, ShardSpec, Workload, DEFAULT_BACKOFF,
};
use cohort_os::addrspace::MapPolicy;
use cohort_os::driver::Placement;
use cohort_sim::dram::DramConfig;
use cohort_sim::faultinject::{splitmix64, FaultPlan, FaultSpecError, MAX_FAULT_CYCLE};

/// Largest queue a run may ask for (memory guard).
pub const MAX_QUEUE: u64 = 1 << 20;

/// The seed of a run that belongs to no seed set (`socrun`, the figure
/// sweep): the one [`Scenario::new`] picks.
pub const SOLO_SEED: u64 = 0x5eed;

/// The full parameter set of one run, before the seed is applied.
/// Defaults reproduce `Scenario::new(Aes, 256, 16)` with platform
/// settings, single shard, round-robin placement, no faults.
#[derive(Debug, Clone, PartialEq)]
pub struct RunParams {
    /// Accelerator workload.
    pub workload: Workload,
    /// Total input elements == input queue length.
    pub queue: u64,
    /// Pointer-update batching factor.
    pub batch: u64,
    /// RCM backoff window in cycles.
    pub backoff: u64,
    /// Page-mapping policy.
    pub policy: MapPolicy,
    /// Engine forward-progress watchdog budget (0 = runner default).
    pub watchdog: u64,
    /// Shard count for the sharded runner.
    pub shards: usize,
    /// Shard placement policy.
    pub placement: Placement,
    /// Skewed element-run sizes for the sharded runner.
    pub skew: bool,
    /// Explicit engine count; `None` derives shards + spare-for-kill.
    pub engines: Option<usize>,
    /// Parsed base fault plan (before per-seed variation).
    pub faults: FaultPlan,
    /// Max cycles of per-seed jitter added to each explicit fault's
    /// firing cycle (deterministic in the seed; 0 = none).
    pub fault_jitter: u64,
    /// When true (default), the run seed is mixed into the random fault
    /// schedule's seed, so every seed explores a different schedule.
    pub vary_fault_seed: bool,
    /// Opt-in DRAM contention model; `None` keeps the flat-latency memory
    /// system.
    pub dram: Option<DramConfig>,
}

impl Default for RunParams {
    fn default() -> Self {
        Self {
            workload: Workload::Aes,
            queue: 256,
            batch: 16,
            backoff: DEFAULT_BACKOFF,
            policy: MapPolicy::Eager,
            watchdog: 0,
            shards: 1,
            placement: Placement::RoundRobin,
            skew: false,
            engines: None,
            faults: FaultPlan::default(),
            fault_jitter: 0,
            vary_fault_seed: true,
            dram: None,
        }
    }
}

impl RunParams {
    /// Engines the SoC will instantiate for a sharded run: explicit when
    /// `engines` was set, else shards plus a spare when the fault plan
    /// kills a shard.
    pub fn resolved_engines(&self) -> usize {
        self.engines
            .unwrap_or_else(|| sharded_engines_for(&self.faults, self.shards))
    }

    /// The fault plan for one run seed: explicit event cycles jittered by
    /// `fault_jitter` and the random schedule reseeded with the run seed
    /// mixed in. Both are pure functions of `(params, seed)`, so a
    /// reported failing seed replays the exact same schedule.
    pub fn plan_for_seed(&self, seed: u64) -> FaultPlan {
        let mut plan = self.faults.clone();
        if self.fault_jitter > 0 {
            for (i, ev) in plan.events.iter_mut().enumerate() {
                let mut st = seed ^ 0xf1ee_7c0d_0000_0000u64.wrapping_add((i as u64) << 8);
                let delta = splitmix64(&mut st) % (self.fault_jitter + 1);
                ev.at_cycle = (ev.at_cycle + delta).min(MAX_FAULT_CYCLE);
            }
        }
        if self.vary_fault_seed {
            if let Some(r) = plan.random.as_mut() {
                let mut st = r.seed ^ seed.rotate_left(17);
                r.seed = splitmix64(&mut st);
            }
        }
        plan
    }

    /// Materialises the scenario (and shard spec, for the sharded runner)
    /// for one seed.
    pub fn to_scenario(&self, runner: Runner, seed: u64) -> (Scenario, Option<ShardSpec>) {
        let mut s = Scenario::new(self.workload, self.queue, self.batch);
        s.policy = self.policy;
        s.backoff = self.backoff;
        s.watchdog = self.watchdog;
        s.seed = seed;
        s.soc.faults = self.plan_for_seed(seed);
        s.soc.dram = self.dram.clone();
        let shard = if runner == Runner::Sharded {
            s.soc.engines = self.resolved_engines();
            Some(
                ShardSpec::new(self.shards)
                    .with_placement(self.placement)
                    .with_skew(self.skew),
            )
        } else {
            None
        };
        (s, shard)
    }

    /// Sets `key` from a typed value (a fleet spec's `key = value`).
    ///
    /// # Errors
    /// A value of the wrong type, an unknown word, a number out of the
    /// key's range, or a fault or DRAM spec that does not parse.
    pub fn set(&mut self, key: &Key, value: &Value) -> Result<(), ParamError> {
        let wrong_type = |expected: &str| -> Result<(), ParamError> {
            Err(format!("expected {expected}, got {value:?}").into())
        };
        match (&key.set, value) {
            (Set::Int(min, max, put), Value::Int(n)) => {
                if !(*min..=*max).contains(n) {
                    return Err(format!("{} must be in {min}..={max}", key.name).into());
                }
                put(self, *n);
                Ok(())
            }
            (Set::Str(put), Value::Str(s)) => put(self, s),
            (Set::Bool(put), Value::Bool(b)) => {
                put(self, *b);
                Ok(())
            }
            (Set::Int(..), _) => wrong_type("an integer"),
            (Set::Str(_), _) => wrong_type("a \"string\""),
            (Set::Bool(_), _) => wrong_type("true/false"),
        }
    }

    /// Sets `key` from command-line text, read as the type the key takes.
    ///
    /// # Errors
    /// Text that is not of the key's type, else as [`RunParams::set`].
    pub fn set_text(&mut self, key: &Key, text: &str) -> Result<(), ParamError> {
        // Text of the wrong type goes in as the string it is, and `set`
        // says what was expected instead.
        let typed = match key.set {
            Set::Int(..) => parse_int(text).map(Value::Int),
            Set::Bool(_) => text.parse().ok().map(Value::Bool),
            Set::Str(_) => None,
        };
        self.set(key, &typed.unwrap_or_else(|| Value::Str(text.to_string())))
    }
}

/// A value as a spec file writes it: a scalar or a flat list.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Decimal or `0x` hex, `_` separators allowed.
    Int(u64),
    /// `true` / `false`.
    Bool(bool),
    /// `"text"`.
    Str(String),
    /// `[a, b, c]`.
    List(Vec<Value>),
}

/// Decimal or `0x` hex, with `_` separators.
pub(crate) fn parse_int(text: &str) -> Option<u64> {
    let t = text.trim().replace('_', "");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// Why a key refused its value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// Wrong type, unknown word, or out-of-range number.
    BadValue(String),
    /// The fault grammar failed to parse.
    Fault(FaultSpecError),
}

impl From<String> for ParamError {
    fn from(msg: String) -> Self {
        ParamError::BadValue(msg)
    }
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::BadValue(msg) => f.write_str(msg),
            ParamError::Fault(err) => err.fmt(f),
        }
    }
}

/// What a key takes, and where the checked value goes.
enum Set {
    /// An integer in `min..=max`.
    Int(u64, u64, fn(&mut RunParams, u64)),
    /// A word or a spec string the setter parses.
    Str(fn(&mut RunParams, &str) -> Result<(), ParamError>),
    /// A switch.
    Bool(fn(&mut RunParams, bool)),
}

/// One run parameter as outside input spells it.
pub struct Key {
    /// The fleet-spec key.
    pub name: &'static str,
    /// `socrun`'s flag for it, without the dashes. `None` for the keys that
    /// vary a fault plan across a seed set, which one run does not have.
    pub flag: Option<&'static str>,
    /// What a value looks like (usage text); empty for a switch.
    pub hint: &'static str,
    set: Set,
}

impl Key {
    /// True for a key the command line gives as a bare flag.
    pub fn is_switch(&self) -> bool {
        matches!(self.set, Set::Bool(_))
    }
}

const fn key(name: &'static str, flag: Option<&'static str>, hint: &'static str, set: Set) -> Key {
    Key {
        name,
        flag,
        hint,
        set,
    }
}

/// The upper bound of a key that has none.
const ANY: u64 = u64::MAX;

/// Every run parameter: the keys of a fleet spec's `[defaults]`,
/// `[[scenario]]` and `[[override]]` tables and, under [`Key::flag`],
/// `socrun`'s run-parameter flags.
#[rustfmt::skip] // a table: one key per row
pub const KEYS: [Key; 14] = [
    key("workload", Some("workload"), "sha|aes", Set::Str(set_workload)),
    key("queue", Some("queue"), "N", Set::Int(1, MAX_QUEUE, |p, n| p.queue = n)),
    key("batch", Some("batch"), "N", Set::Int(0, ANY, |p, n| p.batch = n.max(1))),
    key("backoff", Some("backoff"), "N", Set::Int(0, ANY, |p, n| p.backoff = n)),
    key("policy", Some("policy"), "eager|lazy|huge", Set::Str(set_policy)),
    key("watchdog", Some("watchdog"), "N", Set::Int(0, ANY, |p, n| p.watchdog = n)),
    key("shards", Some("shards"), "N", Set::Int(1, 64, |p, n| p.shards = n as usize)),
    key("placement", Some("placement"), "rr|occupancy", Set::Str(set_placement)),
    key("skew", Some("skew"), "", Set::Bool(|p, b| p.skew = b)),
    key("engines", Some("engines"), "N", Set::Int(1, 64, |p, n| p.engines = Some(n as usize))),
    key("faults", Some("faults"), "SPEC", Set::Str(set_faults)),
    key("fault_jitter", None, "N", Set::Int(0, ANY, |p, n| p.fault_jitter = n)),
    key("vary_fault_seed", None, "", Set::Bool(|p, b| p.vary_fault_seed = b)),
    key("dram", Some("dram"), "SPEC", Set::Str(set_dram)),
];

fn set_workload(p: &mut RunParams, word: &str) -> Result<(), ParamError> {
    p.workload = match word {
        "sha" => Workload::Sha,
        "aes" => Workload::Aes,
        other => return Err(format!("unknown workload {other:?} (sha|aes)").into()),
    };
    Ok(())
}

fn set_policy(p: &mut RunParams, word: &str) -> Result<(), ParamError> {
    p.policy = match word {
        "eager" => MapPolicy::Eager,
        "lazy" => MapPolicy::Lazy,
        "huge" => MapPolicy::HugePages,
        other => return Err(format!("unknown policy {other:?} (eager|lazy|huge)").into()),
    };
    Ok(())
}

fn set_placement(p: &mut RunParams, word: &str) -> Result<(), ParamError> {
    p.placement = word.parse::<Placement>()?;
    Ok(())
}

fn set_faults(p: &mut RunParams, spec: &str) -> Result<(), ParamError> {
    p.faults = FaultPlan::parse(spec).map_err(ParamError::Fault)?;
    Ok(())
}

fn set_dram(p: &mut RunParams, spec: &str) -> Result<(), ParamError> {
    p.dram = Some(DramConfig::from_spec(spec).map_err(|e| e.to_string())?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(name: &str) -> &'static Key {
        KEYS.iter().find(|k| k.name == name).expect("key exists")
    }

    #[test]
    fn solo_seed_is_the_scenario_default() {
        assert_eq!(Scenario::new(Workload::Aes, 64, 2).seed, SOLO_SEED);
    }

    #[test]
    fn text_and_typed_values_land_in_the_same_place() {
        let (mut typed, mut text) = (RunParams::default(), RunParams::default());
        for (name, value, written) in [
            ("queue", Value::Int(1024), "1_024"),
            ("workload", Value::Str("sha".into()), "sha"),
            ("skew", Value::Bool(true), "true"),
            ("engines", Value::Int(16), "0x10"),
            ("faults", Value::Str("kill@10000:1".into()), "kill@10000:1"),
        ] {
            typed.set(named(name), &value).expect("typed value");
            text.set_text(named(name), written).expect("text value");
        }
        assert_eq!(typed, text);
        assert_eq!(
            (typed.queue, typed.engines, typed.skew),
            (1024, Some(16), true)
        );
    }

    #[test]
    fn ranges_types_and_words_are_checked_once_for_every_door() {
        let mut p = RunParams::default();
        for (name, text, says) in [
            ("queue", "0", "queue must be in 1..=1048576"),
            ("shards", "65", "shards must be in 1..=64"),
            ("engines", "0", "engines must be in 1..=64"),
            ("queue", "many", "expected an integer"),
            ("policy", "sideways", "unknown policy"),
            ("policy", "hugepage", "unknown policy"),
            ("workload", "md5", "unknown workload"),
            ("placement", "left", "unknown placement"),
            ("dram", "warp=9", "warp"),
        ] {
            let err = p.set_text(named(name), text).unwrap_err();
            assert!(err.to_string().contains(says), "{name}={text}: {err}");
        }
        assert!(matches!(
            p.set_text(named("faults"), "stall@100").unwrap_err(),
            ParamError::Fault(FaultSpecError::BadArity { .. })
        ));
        assert!(p.set(named("skew"), &Value::Str("yes".into())).is_err());
        assert_eq!(p, RunParams::default(), "a refused value changes nothing");
    }

    #[test]
    fn per_seed_fault_variation_is_deterministic_and_bounded() {
        let mut p = RunParams {
            faults: FaultPlan::parse("kill@10000:1").expect("parses"),
            fault_jitter: 5000,
            ..RunParams::default()
        };
        p.shards = 2;
        let a = p.plan_for_seed(7);
        let b = p.plan_for_seed(7);
        assert_eq!(a, b, "same seed, same plan");
        let c = p.plan_for_seed(8);
        let cycle = a.events[0].at_cycle;
        assert!(
            (10_000..=15_000).contains(&cycle),
            "jitter bounded: {cycle}"
        );
        // Different seeds usually move the cycle (not guaranteed for any
        // single pair, but this pair is fixed and known to differ).
        assert_ne!(a.events[0].at_cycle, c.events[0].at_cycle);
    }
}
