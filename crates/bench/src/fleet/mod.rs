//! The declarative scenario fleet runner (docs/architecture.md §12).
//!
//! A campaign is a TOML-subset spec ([`spec::FleetSpec`]) naming
//! scenarios — runner, workload, queue/shard/placement parameters, fault
//! grammar, seed set, per-seed overrides — validated at load time with
//! structured [`spec::SpecError`]s. [`runner::run_fleet`] fans the
//! `(scenario, seed)` jobs out across host threads, classifies each run
//! ([`runner::Outcome`]) and digests it into a deterministic
//! [`runner::RunRecord`]; [`summary::summarize`] reduces the records to
//! cross-seed statistics (fault-survival rate, p50/p99 occupancy and
//! recovery latency, throughput variance) rendered as JSON and markdown;
//! [`summary::compare_baseline`] gates a summary against a committed one.
//!
//! Every layer is bit-deterministic: a failing run reported by a
//! 500-seed campaign replays identically from its `(spec, scenario,
//! seed)` triple, and the whole report is invariant under the host
//! thread count.

pub mod runner;
pub mod spec;
pub mod summary;

pub use crate::run_params::RunParams;
pub use runner::{run_fleet, run_one, Outcome, RunRecord};
pub use spec::{FleetSpec, ScenarioSpec, SpecError};
pub use summary::{compare_baseline, summarize, Dist, FleetSummary, ScenarioSummary};
