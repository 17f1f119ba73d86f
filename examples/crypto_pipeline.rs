//! Transparent accelerator chaining (paper Fig. 5): encrypt-then-hash.
//!
//! Two chains of the same computation:
//!
//! 1. **Native runtime** — AES and SHA accelerator threads connected by
//!    plain SPSC queues on the host machine;
//! 2. **Simulated SoC** — two Cohort engines on the cycle-level SoC, the
//!    middle queue consumed engine-to-engine with *no software at all* in
//!    between (the AES engine's producer endpoint publishes the write
//!    index; the SHA engine's reader coherency manager sees the
//!    invalidation and fetches).
//!
//! Run with: `cargo run --release --example crypto_pipeline`

use cohort::native::{cohort_register, pop_blocking, push_blocking};
use cohort::scenarios::{run_scenario, Runner, Scenario, Workload, AES_KEY};
use cohort_accel::aes128::{Aes128, Aes128Accel};
use cohort_accel::sha256::{sha256_raw_block, Sha256Accel};
use cohort_queue::spsc_channel;

fn reference_digests(plaintext: &[u8]) -> Vec<u8> {
    let aes = Aes128::new(&AES_KEY);
    let mut ct = Vec::new();
    for block in plaintext.chunks_exact(16) {
        ct.extend_from_slice(&aes.encrypt_block(block.try_into().unwrap()));
    }
    let mut digests = Vec::new();
    for block in ct.chunks_exact(64) {
        digests.extend_from_slice(&sha256_raw_block(block.try_into().unwrap()));
    }
    digests
}

fn native_chain() {
    println!("== native runtime chain: push -> [AES] -> [SHA] -> pop ==");
    // Fig. 5 verbatim: three fifos, two registrations.
    let (mut tx, encrypt_fifo) = spsc_channel::<u64>(512);
    let (aes_out, hash_fifo) = spsc_channel::<u64>(512);
    let (sha_out, mut result_fifo) = spsc_channel::<u64>(512);
    let enc = cohort_register(
        Box::new(Aes128Accel::new()),
        encrypt_fifo,
        aes_out,
        Some(AES_KEY.to_vec()),
    );
    let hash = cohort_register(Box::new(Sha256Accel::new()), hash_fifo, sha_out, None);

    let plaintext: Vec<u8> = (0..512u32).map(|i| (i * 7 % 251) as u8).collect();
    for chunk in plaintext.chunks_exact(8) {
        push_blocking(&mut tx, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    let mut digests = Vec::new();
    for _ in 0..plaintext.len() / 64 * 4 {
        digests.extend_from_slice(&pop_blocking(&mut result_fifo).to_le_bytes());
    }
    assert_eq!(digests, reference_digests(&plaintext));
    println!(
        "   {} plaintext bytes -> {} digest bytes, verified",
        plaintext.len(),
        digests.len()
    );
    enc.unregister();
    hash.unregister();
}

fn simulated_chain() {
    println!("== simulated SoC chain: core -> AES engine -> SHA engine -> core ==");
    let scenario = Scenario::new(Workload::Sha, 256, 32);
    let result = run_scenario(Runner::Chain, &scenario, None).expect("admitted");
    assert!(result.verified, "simulated chain output mismatch");
    println!(
        "   {} elements through two Cohort engines in {} cycles (IPC {:.2}), verified",
        scenario.queue_size,
        result.cycles,
        result.ipc()
    );
    for (comp, counters) in &result.counters {
        if comp.starts_with("engine#") {
            let get = |n: &str| {
                counters
                    .iter()
                    .find(|(k, _)| k == n)
                    .map(|(_, v)| *v)
                    .unwrap_or(0)
            };
            println!(
                "   {comp}: consumed={} produced={} rcm_invalidations={} tlb_hits={} tlb_misses={}",
                get("consumed"),
                get("produced"),
                get("rcm_invalidations"),
                get("tlb_hits"),
                get("tlb_misses"),
            );
        }
    }
}

fn main() {
    native_chain();
    simulated_chain();
    println!("both chains agree with the host-side AES+SHA reference.");
}
