//! The names, units, directions and regression bounds of every metric —
//! the table `BENCHMARK.json` is written from (a unit test keeps the two
//! in step).

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether a metric is read off the host's clock and memory, or is a
/// property of the simulated machine and so repeats exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    Host,
    Sim,
}

/// Seconds one run measures for, here and in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub domain: Domain,
}

/// What a user of the simulator sees, per workload. Host metrics are the
/// simulator developer's (wall time, memory); sim metrics are the paper
/// reproducer's (cycles, IPC, error against Table 3).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        domain: Domain::Host,
    },
    EndToEnd {
        name: "sim_mcycles_per_s",
        unit: "Mcycles/s",
        better: Better::Higher,
        bound: 0.25,
        domain: Domain::Host,
    },
    EndToEnd {
        name: "host_us_per_element",
        unit: "us/elem",
        better: Better::Lower,
        bound: 0.25,
        domain: Domain::Host,
    },
    EndToEnd {
        name: "cycles_per_element",
        unit: "cycles/elem",
        better: Better::Lower,
        bound: 0.01,
        domain: Domain::Sim,
    },
    EndToEnd {
        name: "ipc",
        unit: "instr/cycle",
        better: Better::Higher,
        bound: 0.01,
        domain: Domain::Sim,
    },
    EndToEnd {
        name: "table3_err",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
        domain: Domain::Sim,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        domain: Domain::Host,
    },
];

/// `<runner>_<accel>` of every run any workload makes; each gets a
/// `core.run_ms.*` and a `core.cycles.*` metric.
pub const RUN_LABELS: [&str; 9] = [
    "cohort_sha",
    "cohort_aes",
    "mmio_sha",
    "mmio_aes",
    "dma_sha",
    "dma_aes",
    "mesh16_aes",
    "sharded_aes",
    "failover_sha",
];

use Better::{Higher, Lower};

/// Per-layer metrics other than the per-run `core.*` pairs, as
/// `(name, unit, better)`. A layer a workload does not instantiate
/// reports 0.
const PER_LAYER_FIXED: [(&str, &str, Better); 68] = [
    ("core.speedup_x.sha_vs_mmio", "x", Higher),
    ("core.speedup_x.sha_vs_dma", "x", Higher),
    ("core.speedup_x.aes_vs_mmio", "x", Higher),
    ("core.speedup_x.aes_vs_dma", "x", Higher),
    ("sim.kernel.barrier_activations", "count", Lower),
    ("sim.kernel.ff_cycles", "cycles", Higher),
    ("sim.kernel.ff_share", "frac", Higher),
    ("sim.kernel.ns_per_stepped_cycle", "ns", Lower),
    ("sim.kernel.lookahead_wall_x", "x", Higher),
    ("sim.kernel.par2_wall_x", "x", Lower),
    ("sim.core.instret", "count", Lower),
    ("sim.core.mem_stall_frac", "frac", Lower),
    ("sim.core.mmio_stall_frac", "frac", Lower),
    ("sim.core.spin_iters_per_element", "1/elem", Lower),
    ("sim.core.sb_full_stalls", "cycles", Lower),
    ("sim.core.l1_miss_frac", "frac", Lower),
    ("sim.core.mmio_ops", "count", Lower),
    ("sim.directory.txns_per_element", "1/elem", Lower),
    ("sim.directory.inv_per_element", "1/elem", Lower),
    ("sim.directory.l2_hit_frac", "frac", Higher),
    ("sim.directory.mshr_stalls", "count", Lower),
    ("sim.directory.recalls", "count", Lower),
    ("sim.dram.reqs", "count", Lower),
    ("sim.dram.row_hit_frac", "frac", Higher),
    ("sim.dram.rejects", "count", Lower),
    ("sim.dram.bank_conflicts", "count", Lower),
    ("sim.dram.queue_depth_p90", "count", Lower),
    ("sim.dram.service_p50", "cycles", Lower),
    ("sim.dram.contended_over_flat_x", "x", Lower),
    ("sim.dram.enqueue_ns", "ns", Lower),
    ("sim.noc.delivered_per_element", "1/elem", Lower),
    ("sim.noc.flits_per_element", "1/elem", Lower),
    ("sim.noc.hop_latency_p50", "cycles", Lower),
    ("sim.noc.ejection_deferred", "count", Lower),
    ("sim.trace.overhead_x", "x", Lower),
    ("sim.trace.bytes_per_kcycle", "bytes/kcycle", Lower),
    ("sim.stats.json_bytes", "bytes", Lower),
    ("sim.faultinject.kills", "count", Lower),
    ("engine.consumed", "count", Lower),
    ("engine.produced", "count", Lower),
    ("engine.mte_misses_per_element", "1/elem", Lower),
    ("engine.rcm_invalidations", "count", Lower),
    ("engine.backoffs", "count", Lower),
    ("engine.backoff_window_p50", "cycles", Lower),
    ("engine.tlb_miss_frac", "frac", Lower),
    ("engine.in_occupancy_p50", "count", Higher),
    ("engine.out_occupancy_p50", "count", Lower),
    ("engine.full_stalls", "count", Lower),
    ("engine.watchdog_trips", "count", Lower),
    ("engine.rebinds", "count", Lower),
    ("maple.dma_transfers", "count", Lower),
    ("maple.dma_bytes", "bytes", Lower),
    ("maple.tlb_miss_frac", "frac", Lower),
    ("os.driver.failover_detect_p50", "cycles", Lower),
    ("os.driver.failover_rebind_p50", "cycles", Lower),
    ("os.driver.failover_resume_p50", "cycles", Lower),
    ("os.driver.error_irq_latency_p50", "cycles", Lower),
    ("os.driver.shard_speedup_x", "x", Higher),
    ("os.sv39.walk_ns", "ns", Lower),
    ("accel.sha256_ns_per_block", "ns", Lower),
    ("accel.aes128_ns_per_block", "ns", Lower),
    ("accel.host_share", "frac", Lower),
    ("queue.spsc_push_pop_ns", "ns", Lower),
    ("queue.seqmerge_ns_per_elem", "ns", Lower),
    ("bench.passes", "count", Higher),
    ("bench.pass_ms_p50", "ms", Lower),
    ("bench.pass_ms_hi", "ms", Lower),
    ("bench.harness_overhead_frac", "frac", Lower),
];

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let per_run = RUN_LABELS.iter().flat_map(|label| {
        [
            (format!("core.run_ms.{label}"), "ms", Lower),
            (format!("core.cycles.{label}"), "cycles", Lower),
        ]
    });
    let fixed = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better));
    per_run.chain(fixed).collect()
}

/// The content of `BENCHMARK.json`: how the driver runs the benchmark and
/// every workload and metric it will see.
pub fn describe() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    let command = "cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --";
    let workloads = crate::workloads::WORKLOADS.iter().map(|w| {
        Json::Obj(vec![
            ("name".into(), text(w.name)),
            ("why".into(), text(w.why)),
        ])
    });
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::Obj(vec![
            ("name".into(), text(m.name)),
            ("unit".into(), text(m.unit)),
            ("better".into(), text(m.better.as_str())),
            ("bound".into(), Json::Num(m.bound)),
        ])
    });
    let per_layer = per_layer().into_iter().map(|(name, unit, better)| {
        Json::Obj(vec![
            ("name".into(), Json::Str(name)),
            ("unit".into(), text(unit)),
            ("better".into(), text(better.as_str())),
        ])
    });
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(command.split(' ').map(text).collect()),
        ),
        ("paths".into(), Json::Arr(vec![text("benchmark")])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS)),
        ("workloads".into(), Json::Arr(workloads.collect())),
        ("end_to_end".into(), Json::Arr(end_to_end.collect())),
        ("per_layer".into(), Json::Arr(per_layer.collect())),
    ])
}

/// Measured values by metric name, filled in by the layers and emitted
/// against one of the tables above.
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of a result line: every name of `table` in
    /// table order with its unit; a name never set reports 0 (a layer the
    /// workload does not instantiate).
    ///
    /// # Panics
    /// Panics if a value was set under a name the table does not have —
    /// a typo would otherwise silently drop a measurement.
    pub fn to_json<'a>(&self, table: impl IntoIterator<Item = (&'a str, &'a str)>) -> Json {
        let table: Vec<_> = table.into_iter().collect();
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the metric table"
            );
        }
        let members = table
            .into_iter()
            .map(|(name, unit)| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(self.get(name).unwrap_or(0.0))),
                    ("unit".into(), Json::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Json::Obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads and these tables are
    /// what the harness prints; the file must be `--describe`'s output.
    #[test]
    fn benchmark_json_is_what_describe_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(Json::parse(&text).expect("parses"), describe());
    }

    #[test]
    fn names_and_units_fit_the_benchmark_schema() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut names: Vec<&str> = layers.iter().map(|(n, _, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        for (name, unit) in layers
            .iter()
            .map(|(n, u, _)| (n.as_str(), *u))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn unset_metrics_report_zero_and_unknown_names_panic() {
        let mut v = Values::default();
        v.set("a", 1.5);
        v.set("a", 2.5);
        let doc = v.to_json([("a", "ms"), ("b", "count")]);
        assert_eq!(doc.get("a").unwrap().get("value"), Some(&Json::Num(2.5)));
        assert_eq!(doc.get("b").unwrap().get("value"), Some(&Json::Num(0.0)));
        let typo = std::panic::catch_unwind(|| v.to_json([("b", "count")]));
        assert!(typo.is_err());
    }
}
