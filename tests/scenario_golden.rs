//! Cross-commit identity of every scenario runner.
//!
//! Allocation order and the emitted `Op` sequence fix physical addresses,
//! cache-set conflicts and therefore cycles, so a refactor of
//! `scenarios.rs` that reorders either shows up here as a changed row.
//! The fleet baseline pins only the sharded runner and the determinism
//! matrix compares a commit with itself; this table is what compares a
//! commit with its parent. Each row is `(cycles, instret, checksum,
//! FNV-1a of stats_json)` for one runner × workload at a small queue.
//!
//! A row may change only when the timing model changes on purpose. The
//! failure message prints every mismatching row in table form, ready to
//! paste back.

use cohort::scenarios::{
    run_scenario, sharded_engines_for, CustomRun, RunResult, Runner, Scenario, ShardSpec, Workload,
    AES_KEY,
};
use cohort_accel::aes128::Aes128Accel;
use cohort_accel::nullfifo::NullFifo;
use cohort_os::addrspace::MapPolicy;
use cohort_sim::config::Lookahead;
use cohort_sim::faultinject::FaultPlan;

use MapPolicy::{Eager, Lazy};
use Workload::{Aes, Sha};

/// One `run_scenario` configuration and the numbers it must reproduce.
struct Row {
    runner: Runner,
    workload: Workload,
    queue: u64,
    batch: u64,
    policy: MapPolicy,
    /// Fault-plan spec (`""` = none).
    faults: &'static str,
    /// Shard count for [`Runner::Sharded`] (ignored elsewhere).
    shards: usize,
    /// `[cycles, instret, checksum, fnv1a(stats_json)]`.
    want: [u64; 4],
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row { runner: Runner::Cohort, workload: Sha, queue: 64, batch: 8, policy: Eager, faults: "", shards: 0, want: [13251, 5038, 0xbda4fc11b316b027, 0xc63dabfdb729eaec] },
    Row { runner: Runner::Mmio, workload: Sha, queue: 64, batch: 8, policy: Eager, faults: "", shards: 0, want: [15360, 1056, 0xe02887a77410c909, 0x7be946a34e787956] },
    Row { runner: Runner::Dma, workload: Sha, queue: 64, batch: 8, policy: Eager, faults: "", shards: 0, want: [21265, 3900, 0x1ccad6edc69ff335, 0x2e2f6c7f4533f047] },
    Row { runner: Runner::Chain, workload: Sha, queue: 64, batch: 8, policy: Eager, faults: "", shards: 0, want: [14958, 4758, 0xb2a22c2b648a9860, 0xd32e43a92a1c3b44] },
    Row { runner: Runner::Interfered, workload: Sha, queue: 64, batch: 8, policy: Eager, faults: "", shards: 0, want: [13251, 5038, 0xbda4fc11b316b027, 0x5ceedf2eb414baf0] },
    Row { runner: Runner::Chaos, workload: Sha, queue: 128, batch: 8, policy: Eager, faults: "", shards: 0, want: [24309, 10149, 0xc5c671e544fa5fed, 0x5ab8b051856acc5e] },
    Row { runner: Runner::Chaos, workload: Sha, queue: 128, batch: 8, policy: Eager, faults: "stall@3000:1500;storm@5000:2", shards: 0, want: [24605, 10347, 0x8b37f46497c14fe5, 0xceeed771d8fa1554] },
    Row { runner: Runner::Chaos, workload: Sha, queue: 128, batch: 8, policy: Eager, faults: "stall@3000:1500;storm@5000:2;corrupt@7000", shards: 0, want: [9893, 4008, 0x3fd86eea54f7c425, 0xb15a22efdc2c7d1b] },
    Row { runner: Runner::Failover, workload: Sha, queue: 128, batch: 8, policy: Eager, faults: "", shards: 0, want: [21828, 7585, 0x4fe592d4da85bc74, 0xb65ce5b0d363a205] },
    Row { runner: Runner::Failover, workload: Sha, queue: 64, batch: 8, policy: Eager, faults: "kill@3000:1", shards: 0, want: [19731, 5416, 0xb66ccf75ee7d11c8, 0x28c134741bf9d432] },
    Row { runner: Runner::DmaChaos, workload: Sha, queue: 64, batch: 8, policy: Eager, faults: "maple-stall@10000:4000", shards: 0, want: [24758, 3804, 0xfc007c485c8aff8f, 0x1473a1974d667c9f] },
    Row { runner: Runner::Sharded, workload: Sha, queue: 64, batch: 8, policy: Eager, faults: "", shards: 1, want: [5911, 1478, 0x8248af4e715b058f, 0x6c6b21cb65913b10] },
    Row { runner: Runner::Sharded, workload: Sha, queue: 192, batch: 8, policy: Eager, faults: "", shards: 3, want: [13689, 2938, 0x27edfdec043ea09d, 0x1dd78bb7918e7281] },
    Row { runner: Runner::Sharded, workload: Sha, queue: 192, batch: 8, policy: Eager, faults: "kill@4000:1", shards: 3, want: [18048, 3362, 0xd61c559dd1bf6503, 0x22925e921c0f7340] },
    Row { runner: Runner::Mesh16, workload: Sha, queue: 64, batch: 8, policy: Eager, faults: "", shards: 0, want: [16136, 2879, 0x88e1391a76252b47, 0x51fd023d1fe7dde7] },
    Row { runner: Runner::Cohort, workload: Aes, queue: 64, batch: 8, policy: Eager, faults: "", shards: 0, want: [17575, 6196, 0x834f632a6a3d33bd, 0x2984b2fcf42fa5ec] },
    Row { runner: Runner::Mmio, workload: Aes, queue: 64, batch: 8, policy: Eager, faults: "", shards: 0, want: [20930, 1411, 0x8c4a00e25471be65, 0x417caed9f781dab8] },
    Row { runner: Runner::Dma, workload: Aes, queue: 64, batch: 8, policy: Eager, faults: "", shards: 0, want: [22623, 3999, 0x434f2ec52f5271c0, 0xed05b842cf2db11f] },
    Row { runner: Runner::Chain, workload: Aes, queue: 64, batch: 8, policy: Eager, faults: "", shards: 0, want: [14958, 4758, 0xb2a22c2b648a9860, 0xd32e43a92a1c3b44] },
    Row { runner: Runner::Interfered, workload: Aes, queue: 64, batch: 8, policy: Eager, faults: "", shards: 0, want: [17575, 6196, 0x834f632a6a3d33bd, 0x7a2ad9aaa3ad2cf2] },
    Row { runner: Runner::Chaos, workload: Aes, queue: 128, batch: 8, policy: Eager, faults: "", shards: 0, want: [32837, 12405, 0xee2ae91ecdca592a, 0x49570332a3cc53cd] },
    Row { runner: Runner::Chaos, workload: Aes, queue: 128, batch: 8, policy: Eager, faults: "stall@3000:1500;storm@5000:2", shards: 0, want: [32639, 12390, 0x9a4cdb36769b1886, 0x852fb1a3199a5767] },
    Row { runner: Runner::Chaos, workload: Aes, queue: 128, batch: 8, policy: Eager, faults: "stall@3000:1500;storm@5000:2;corrupt@7000", shards: 0, want: [10679, 4086, 0x0ffa0107c5a5064e, 0x341d6d798db790e6] },
    Row { runner: Runner::Failover, workload: Aes, queue: 128, batch: 8, policy: Eager, faults: "", shards: 0, want: [21828, 7585, 0x4fe592d4da85bc74, 0xb65ce5b0d363a205] },
    Row { runner: Runner::Failover, workload: Aes, queue: 64, batch: 8, policy: Eager, faults: "kill@3000:1", shards: 0, want: [19731, 5416, 0xb66ccf75ee7d11c8, 0x28c134741bf9d432] },
    Row { runner: Runner::DmaChaos, workload: Aes, queue: 64, batch: 8, policy: Eager, faults: "maple-stall@10000:4000", shards: 0, want: [25410, 3807, 0x002abe762f66e964, 0x82937710615e146f] },
    Row { runner: Runner::Sharded, workload: Aes, queue: 64, batch: 8, policy: Eager, faults: "", shards: 1, want: [10487, 3143, 0xdfbd29e5022d50e8, 0xb86c3eb2e50b072b] },
    Row { runner: Runner::Sharded, workload: Aes, queue: 192, batch: 8, policy: Eager, faults: "", shards: 3, want: [19231, 4777, 0xfe76b87dd0eb39fa, 0x4ada4fdb055a1902] },
    Row { runner: Runner::Sharded, workload: Aes, queue: 192, batch: 8, policy: Eager, faults: "kill@4000:1", shards: 3, want: [23610, 5123, 0x3ce73061d1eb1dd2, 0x261fd13c85968ea4] },
    Row { runner: Runner::Mesh16, workload: Aes, queue: 64, batch: 8, policy: Eager, faults: "", shards: 0, want: [18439, 3635, 0x55e450cd5703623d, 0xac6846fc4da4c484] },
    Row { runner: Runner::Cohort, workload: Sha, queue: 64, batch: 8, policy: Lazy, faults: "", shards: 0, want: [14111, 5698, 0x9526cff63cb170e0, 0xf9f8969bd69c3637] },
    Row { runner: Runner::Cohort, workload: Aes, queue: 1024, batch: 8, policy: Lazy, faults: "", shards: 0, want: [235399, 95143, 0x7d9d7081595dd96e, 0x7452041bbafdf983] },
    Row { runner: Runner::Chaos, workload: Aes, queue: 1024, batch: 8, policy: Lazy, faults: "stall@3000:1500;storm@5000:2", shards: 0, want: [236461, 95825, 0xf9c1c83b746df50c, 0xae722fea563fcf23] },
    Row { runner: Runner::Sharded, workload: Aes, queue: 1536, batch: 8, policy: Lazy, faults: "storm@3000:2;kill@9000:1", shards: 3, want: [95282, 31628, 0x2664f210a3c69985, 0x94fff41da59b1f25] },
    Row { runner: Runner::Mesh16, workload: Aes, queue: 64, batch: 8, policy: Lazy, faults: "", shards: 0, want: [18357, 3614, 0x04047f6fd90d5694, 0x04b9307cd60c0671] },
    // Recorded at PR 19's parent. In each the victim's watchdog checkpoint
    // republishes the write index the benchmark core is spinning on, with
    // a plain store: the core must see it as forced stepping does.
    Row { runner: Runner::Sharded, workload: Aes, queue: 1536, batch: 8, policy: Eager, faults: "kill@9000:1", shards: 3, want: [94280, 30356, 0x255927012efd522b, 0xb8bca9bbedb18780] },
    Row { runner: Runner::Sharded, workload: Aes, queue: 1536, batch: 8, policy: Eager, faults: "storm@3000:2;kill@9000:1", shards: 3, want: [94280, 30356, 0x255927012efd522b, 0xff13aa7662979635] },
    Row { runner: Runner::Failover, workload: Sha, queue: 512, batch: 16, policy: Eager, faults: "kill@8500:1", shards: 0, want: [56255, 20794, 0xc6d74d533cdd6ce3, 0xcc7b292652f68cf3] },
    // A latency spike closes while messages about the polled index line
    // are in flight: the later ones would overtake the earlier ones, and
    // the NoC holds each back to the cycle of the last one about its line
    // between the same pair. These rows pin that clamp and the parked
    // benchmark core it keeps correct.
    Row { runner: Runner::Cohort, workload: Aes, queue: 256, batch: 8, policy: Eager, faults: "spike@15000:2000:4", shards: 0, want: [61633, 23992, 0x6d416e4124d5f64b, 0x29333b6c0f671431] },
    Row { runner: Runner::Sharded, workload: Aes, queue: 384, batch: 8, policy: Eager, faults: "spike@10500:2000:4", shards: 3, want: [27887, 7168, 0xccaf284f0daadf9c, 0x2c6449ee8d75bb18] },
    // A spike window that outlives the workload (see
    // `a_window_that_outlives_the_work_does_not_hold_the_run`).
    Row { runner: Runner::Chaos, workload: Sha, queue: 64, batch: 8, policy: Eager, faults: "spike@10000:100000:2", shards: 0, want: [15213, 5663, 0x84c18ce88c09db9f, 0x3885842e5d074994] },
    // Lazy mapping under the interference core and under failover, where
    // the kill at cycle 3,000 lands before the queue-64 chain finishes.
    Row { runner: Runner::Interfered, workload: Sha, queue: 64, batch: 8, policy: Lazy, faults: "", shards: 0, want: [14201, 5578, 0x64ed006778990027, 0x3c1454a6c943b511] },
    Row { runner: Runner::Interfered, workload: Aes, queue: 64, batch: 8, policy: Lazy, faults: "", shards: 0, want: [17575, 6196, 0x834f632a6a3d33bd, 0xc10d47513e833605] },
    Row { runner: Runner::Failover, workload: Sha, queue: 64, batch: 8, policy: Lazy, faults: "kill@3000:1", shards: 0, want: [19731, 5416, 0xb66ccf75ee7d11c8, 0x28c134741bf9d432] },
    Row { runner: Runner::Failover, workload: Aes, queue: 64, batch: 8, policy: Lazy, faults: "kill@3000:1", shards: 0, want: [19731, 5416, 0xb66ccf75ee7d11c8, 0x28c134741bf9d432] },
    // Lazy AES at queue 1024, batch 64 (CI's lazy sweep legs): the queues
    // reach past the CSR's page, so the engine itself takes page faults.
    // At queue 64 it takes none, and the lazy failover rows above carry
    // their eager twins' numbers.
    Row { runner: Runner::Cohort, workload: Aes, queue: 1024, batch: 64, policy: Lazy, faults: "", shards: 0, want: [131811, 43517, 0x4dc890de801d35ba, 0x2dedd9909e637ce0] },
    Row { runner: Runner::Failover, workload: Aes, queue: 1024, batch: 64, policy: Lazy, faults: "kill@3000:1", shards: 0, want: [108827, 45010, 0x7d47e62c34ac988f, 0xeb157b7fa2c4d3a3] },
    // The MAPLE baselines under lazy mapping and under storms: MMIO arms
    // demand paging and touches no memory, and a storm finds a kernel
    // with nothing to evict.
    Row { runner: Runner::Mmio, workload: Sha, queue: 64, batch: 8, policy: Lazy, faults: "", shards: 0, want: [15360, 1056, 0xe02887a77410c909, 0x7be946a34e787956] },
    Row { runner: Runner::Mmio, workload: Aes, queue: 64, batch: 8, policy: Eager, faults: "storm@3000:2", shards: 0, want: [20930, 1411, 0x8c4a00e25471be65, 0x2fa7718ee270b376] },
    Row { runner: Runner::DmaChaos, workload: Aes, queue: 64, batch: 8, policy: Eager, faults: "storm@5000:2;maple-stall@10000:4000", shards: 0, want: [25410, 3807, 0x002abe762f66e964, 0x695477b77dca0adc] },
    Row { runner: Runner::Dma, workload: Sha, queue: 128, batch: 8, policy: Eager, faults: "storm@3000:2", shards: 0, want: [42037, 7798, 0x1658cf0d190782b9, 0x2e378ca33cbf530a] },
];

/// `[cycles, instret, checksum, fnv1a(stats_json)]` of the two
/// [`CustomRun`]s below (null FIFO; AES with its key through the CSR).
const CUSTOM_NULL: [u64; 4] = [6999, 1806, 0x1c1a5de1c69e2707, 0xd44d7165a049bf5e];
const CUSTOM_AES_CSR: [u64; 4] = [10461, 3111, 0x58dc2dc4e9226146, 0x7d63e2975a5e3982];

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn observed(r: &RunResult) -> [u64; 4] {
    [r.cycles, r.instret, r.checksum, fnv1a(&r.stats_json)]
}

fn run_row(row: &Row, lookahead: Lookahead) -> RunResult {
    let mut s = Scenario::new(row.workload, row.queue, row.batch);
    s.policy = row.policy;
    s.watchdog = 20_000;
    s.soc.lookahead = lookahead;
    s.soc.faults = FaultPlan::parse(row.faults).expect("fault spec parses");
    let spec = (row.runner == Runner::Sharded).then(|| {
        s.soc.engines = sharded_engines_for(&s.soc.faults, row.shards);
        ShardSpec::new(row.shards)
    });
    run_scenario(row.runner, &s, spec.as_ref()).expect("pool binds")
}

#[test]
fn every_runner_reproduces_its_recorded_numbers() {
    let mut wrong = Vec::new();
    for row in ROWS {
        let r = run_row(row, Lookahead::Auto);
        let Row {
            runner,
            workload,
            queue,
            batch,
            policy,
            faults,
            shards,
            want,
        } = row;
        assert!(
            r.verified,
            "{runner} {workload:?} {policy:?} {faults:?} did not verify"
        );
        let got = observed(&r);
        if got != *want {
            wrong.push(format!(
                "    Row {{ runner: Runner::{runner:?}, workload: {workload:?}, queue: {queue}, \
                 batch: {batch}, policy: {policy:?}, faults: {faults:?}, shards: {shards}, \
                 want: [{}, {}, {:#018x}, {:#018x}] }},",
                got[0], got[1], got[2], got[3]
            ));
        }
    }
    assert!(wrong.is_empty(), "rows that changed:\n{}", wrong.join("\n"));
}

#[test]
fn every_runner_has_a_row_per_workload() {
    for runner in Runner::ALL {
        for workload in [Sha, Aes] {
            assert!(
                ROWS.iter()
                    .any(|r| r.runner == runner && r.workload == workload),
                "no golden row for {runner} {workload:?}"
            );
        }
    }
}

/// The spike row's window closes at cycle 110,000, long after the work is
/// done. A pending close is not work: the SoC must stop where it would
/// without the window. The row alone cannot see the difference, because
/// nothing keeps per-cycle books once the work is done; where the SoC
/// stopped can, as every cycle it simulated was either stepped or jumped.
#[test]
fn a_window_that_outlives_the_work_does_not_hold_the_run() {
    let row = ROWS
        .iter()
        .find(|r| r.faults == "spike@10000:100000:2")
        .expect("the outliving-window row");
    for lookahead in [Lookahead::Force1, Lookahead::Auto] {
        let r = run_row(row, lookahead);
        let stopped_at = r.barrier_activations + r.ff_cycles;
        assert_eq!(stopped_at, r.cycles + 1, "{lookahead:?}");
    }
}

/// The null-FIFO and AES-via-CSR [`CustomRun`]s, in that order.
fn custom_runs(lookahead: Lookahead) -> [RunResult; 2] {
    let input: Vec<u64> = (0..96u64).map(|i| i * 3 + 1).collect();
    let mut null = CustomRun::new(
        Box::new(NullFifo::with_geometry(64, 1)),
        input.clone(),
        input,
    );
    null.batch = 8;
    null.soc.lookahead = lookahead;

    let input: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    let expected = Aes.reference_outputs(&input);
    let mut aes = CustomRun::new(Box::new(Aes128Accel::new()), input, expected);
    aes.csr = Some(AES_KEY.to_vec());
    aes.batch = 16;
    aes.soc.lookahead = lookahead;
    [null.run(), aes.run()]
}

#[test]
fn custom_runs_reproduce_their_recorded_numbers() {
    let [null, aes] = custom_runs(Lookahead::Auto);
    assert!(null.verified && aes.verified);
    let (null, aes) = (observed(&null), observed(&aes));
    assert_eq!(null, CUSTOM_NULL, "null FIFO: {null:#x?}");
    assert_eq!(aes, CUSTOM_AES_CSR, "AES via CSR: {aes:#x?}");
}

/// The table above pins `Auto` against values of an earlier commit; this
/// pins it against forced stepping at this one, so a row that a new hint
/// breaks is caught even if it was recorded after the hint went in.
#[test]
fn every_row_matches_force1() {
    for row in ROWS {
        assert_eq!(
            observed(&run_row(row, Lookahead::Force1)),
            row.want,
            "{} {:?} {:?} {:?} under Force1",
            row.runner,
            row.workload,
            row.policy,
            row.faults
        );
    }
    let [null, aes] = custom_runs(Lookahead::Force1);
    assert_eq!(observed(&null), CUSTOM_NULL, "null FIFO under Force1");
    assert_eq!(observed(&aes), CUSTOM_AES_CSR, "AES via CSR under Force1");
}
