//! Calibration grid search: finds timing constants whose simulated ratios
//! best match the paper's Table 3 / Figs. 10-11 targets.

#![forbid(unsafe_code)]

use cohort::scenarios::{run_cohort, run_dma, run_mmio, Scenario, Workload};

fn ratios(
    per_hop: u64,
    device: u64,
    backoff: u64,
    wcm: u64,
    dma_api: u32,
    shared: bool,
) -> Vec<(f64, f64, f64, &'static str)> {
    // returns (measured, target, weight, label)
    let qs = 1024;
    let mk = |wl, batch| {
        let mut s = Scenario::new(wl, qs, batch);
        s.soc.timing.noc_per_hop = per_hop;
        s.soc.timing.mmio_device = device;
        s.soc.timing.wcm_turnaround = wcm;
        s.soc.timing.mte_shared = shared;
        s.backoff = backoff;
        s.costs.dma_api_alu = dma_api;
        s
    };
    let sha64 = run_cohort(&mk(Workload::Sha, 64));
    let sha8 = run_cohort(&mk(Workload::Sha, 8));
    let sham = run_mmio(&mk(Workload::Sha, 64));
    let shad = run_dma(&mk(Workload::Sha, 64));
    let aes64 = run_cohort(&mk(Workload::Aes, 64));
    let aes2 = run_cohort(&mk(Workload::Aes, 2));
    let aesm = run_mmio(&mk(Workload::Aes, 64));
    let aesd = run_dma(&mk(Workload::Aes, 64));
    vec![
        (
            sham.cycles as f64 / sha64.cycles as f64,
            7.0,
            3.0,
            "sha_vs_mmio",
        ),
        (
            shad.cycles as f64 / sha64.cycles as f64,
            9.5,
            2.0,
            "sha_vs_dma",
        ),
        (
            sha8.cycles as f64 / sha64.cycles as f64,
            2.85,
            2.0,
            "sha_batching",
        ),
        (
            aesm.cycles as f64 / aes64.cycles as f64,
            1.95,
            3.0,
            "aes_vs_mmio",
        ),
        (
            aesd.cycles as f64 / aes64.cycles as f64,
            1.85,
            2.0,
            "aes_vs_dma",
        ),
        (
            aes2.cycles as f64 / aes64.cycles as f64,
            6.7,
            2.0,
            "aes_batching",
        ),
        (sha64.ipc() / sham.ipc(), 4.0, 1.0, "sha_ipc_mmio"),
        (aes64.ipc() / aesm.ipc(), 2.6, 1.0, "aes_ipc_mmio"),
        (sha64.ipc() / shad.ipc(), 2.0, 1.0, "sha_ipc_dma"),
        (aes64.ipc() / aesd.ipc(), 1.7, 1.0, "aes_ipc_dma"),
    ]
}

fn main() {
    let mut best = (f64::MAX, (0, 0, 0, 0, 0u32, false));
    for shared in [true, false] {
        for per_hop in [3u64, 5] {
            for device in [130u64, 170, 210] {
                for backoff in [700u64, 1000] {
                    for wcm in [40u64, 100, 160] {
                        for dma_api in [9000u32, 13000] {
                            let rs = ratios(per_hop, device, backoff, wcm, dma_api, shared);
                            let err: f64 =
                                rs.iter().map(|(m, t, w, _)| w * (m / t).ln().powi(2)).sum();
                            if err < best.0 {
                                best = (err, (per_hop, device, backoff, wcm, dma_api, shared));
                                println!("err={err:.3} per_hop={per_hop} device={device} backoff={backoff} wcm={wcm} dma_api={dma_api} shared={shared}");
                                for (m, t, _, l) in &rs {
                                    println!("    {l}: {m:.2} (target {t})");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    println!("BEST: {best:?}");
}
