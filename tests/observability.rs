//! End-to-end checks of the observability layer: a traced crypto run must
//! yield a stats-registry snapshot with per-level cache counters, NoC
//! counters, and engine backoff/TLB counters, plus a Chrome `trace_event`
//! JSON document (the format Perfetto and `chrome://tracing` load).

use cohort::scenarios::{run_scenario, RunResult, Runner, Scenario, Workload};

/// An admitted run through the one way in.
fn run(runner: Runner, scenario: &Scenario) -> RunResult {
    run_scenario(runner, scenario, None).expect("admitted")
}

/// Pulls `"key":value` (or `"key":{...}` presence) out of the hand-rolled
/// JSON without a parser dependency.
fn has_key(json: &str, key: &str) -> bool {
    json.contains(&format!("\"{key}\""))
}

fn counter_value(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[test]
fn traced_crypto_run_produces_stats_and_trace_json() {
    let mut scenario = Scenario::new(Workload::Aes, 128, 8);
    scenario.trace = true;
    let r = run(Runner::Cohort, &scenario);
    assert!(r.verified);

    // Stats registry: cache hit/miss per level, NoC, engine backoff + TLB.
    let stats = &r.stats_json;
    for key in [
        "core#1.l1.hits",
        "core#1.l1.misses",
        "directory#0.l2_hits",
        "directory#0.fills",
        "noc.delivered",
        "noc.flits",
        "engine#0.backoffs",
        "engine#0.tlb_hits",
        "engine#0.tlb_misses",
    ] {
        assert!(has_key(stats, key), "stats missing {key}: {stats}");
    }
    assert!(has_key(stats, "noc.hop_latency"), "hop-latency histogram");
    assert!(
        has_key(stats, "engine#0.in_queue_occupancy"),
        "queue-occupancy histogram"
    );
    let consumed = counter_value(stats, "engine#0.consumed");
    assert_eq!(consumed, Some(128), "engine consumed all inputs: {stats}");
    assert!(counter_value(stats, "noc.delivered").unwrap() > 0);
    assert!(counter_value(stats, "core#1.l1.hits").unwrap() > 0);

    // Trace: Chrome trace_event JSON with NoC flights, coherence instants
    // and engine state-machine spans.
    let trace = r.trace_json.as_deref().expect("trace enabled").trim();
    assert!(trace.starts_with('{') && trace.ends_with('}'));
    assert!(has_key(trace, "traceEvents"));
    for needle in [
        "\"ph\": \"X\"", // complete events
        "\"ph\": \"i\"", // coherence instants
        "\"ph\": \"M\"", // thread-name metadata
        "\"cat\": \"noc\"",
        "\"cat\": \"coherence\"",
        "\"cat\": \"engine\"",
        "\"name\": \"cons:", // consumer state spans
        "\"name\": \"prod:", // producer state spans
    ] {
        assert!(trace.contains(needle), "trace missing {needle}");
    }
}

/// Regression test for the multi-engine stats-scope collision: with two
/// engines in one SoC, each must publish under its own `engine#<id>` scope
/// — distinct keys, both present, neither adopted into the other.
#[test]
fn two_engine_soc_has_distinct_stats_scopes() {
    use cohort::scenarios::ShardSpec;
    use cohort_sim::config::SocConfig;

    let mut scenario = Scenario::new(Workload::Aes, 128, 8);
    scenario.soc = SocConfig::default().with_engines(2);
    let r = run_scenario(Runner::Sharded, &scenario, Some(&ShardSpec::new(2))).expect("pool binds");
    assert!(r.verified);
    for scope in ["engine#0", "engine#1"] {
        for key in ["consumed", "backoffs", "tlb_hits"] {
            assert!(
                has_key(&r.stats_json, &format!("{scope}.{key}")),
                "stats missing {scope}.{key}"
            );
        }
    }
    // Both engines consumed a share of the stream, and the scoped keys are
    // truly per-engine: the two consumed counts sum to the whole stream.
    let c0 = counter_value(&r.stats_json, "engine#0.consumed").unwrap();
    let c1 = counter_value(&r.stats_json, "engine#1.consumed").unwrap();
    assert!(c0 > 0 && c1 > 0, "both engines should have consumed");
    assert_eq!(c0 + c1, 128, "scoped counters must not alias");
}

#[test]
fn untraced_run_has_stats_but_no_trace() {
    let r = run(Runner::Cohort, &Scenario::new(Workload::Sha, 64, 8));
    assert!(r.verified);
    assert!(r.trace_json.is_none());
    // Stats are always collected — tracing off does not disable counters.
    assert!(counter_value(&r.stats_json, "engine#0.consumed").unwrap() > 0);
}

/// A killed engine's registry TLB counters are its MMU's own cells, so
/// the lookups its watchdog drain makes after the kill are counted too.
#[test]
fn killed_engine_registry_tlb_counters_match_its_mmu() {
    let r = run(Runner::Failover, &Scenario::new(Workload::Sha, 256, 8));
    assert!(r.verified);
    let engines: Vec<_> = r
        .counters
        .iter()
        .filter(|(c, _)| c.starts_with("engine#"))
        .collect();
    assert_eq!(engines.len(), 3, "two chained engines and the spare");
    for (scope, list) in engines {
        for name in ["tlb_hits", "tlb_misses"] {
            let mmu = list.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let registry = counter_value(&r.stats_json, &format!("{scope}.{name}"));
            assert_eq!(registry, mmu, "{scope}.{name}: registry vs MMU");
        }
    }
}
