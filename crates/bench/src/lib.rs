//! # cohort-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5, §6).
//! One binary, `all`, walks one table ([`report::ARTEFACTS`]) and writes
//! `results/`:
//!
//! | File | Paper artefact |
//! |---|---|
//! | `table2.md` | Table 2 — benchmark tuning parameters |
//! | `fig8.md`   | Fig. 8 — SHA latency vs queue size |
//! | `fig9.md`   | Fig. 9 — AES latency vs queue size |
//! | `table3.md` | Table 3 — peak speedups |
//! | `fig10.md`  | Fig. 10 — SHA IPC speedups |
//! | `fig11.md`  | Fig. 11 — AES IPC speedups |
//! | `table4.md` | Table 4 — FPGA resource utilisation (analytic model) |
//! | `scaling.md`, `scaling_dram.md` | shard scaling, flat and under DRAM contention |
//! | `kernel.md` | step-kernel record: `Auto` vs `Force1` barriers, sleeps, silent steps |
//! | `ablation.md` | design-choice sweeps: RCM backoff, engine TLB size, mapping policy, null-accelerator floor |
//!
//! Runs are memoized in a [`sweep::Sweep`] so figures sharing data points
//! (e.g. Fig. 8 and Fig. 10) simulate each configuration once. Every way
//! into a run — `socrun`, the fleet loader, the sweep — fills a
//! [`run_params::RunParams`] from one key table.

#![forbid(unsafe_code)]

pub mod area;
pub mod fleet;
pub mod params;
pub mod report;
pub mod run_params;
pub mod sweep;
