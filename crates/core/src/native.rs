//! The native runtime: Software-Oriented Acceleration on real threads.
//!
//! `cohort_register` replaces a software consumer/producer thread with an
//! accelerator, keeping the queues unchanged (paper §3.3): the accelerator
//! thread pops 64-bit words from its input queue, ratchets them into native
//! blocks, computes, and pushes result words into its output queue. Chains
//! (Fig. 5) fall out of composition, and runtime reconfiguration is just
//! unregistering one accelerator and registering another on the same
//! queues.

use cohort_accel::ratchet::Ratchet;
use cohort_accel::Accelerator;
use cohort_queue::{Consumer, Producer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Pushes, spinning while the queue is full (the classic C `push`).
pub fn push_blocking<T>(producer: &mut Producer<T>, mut value: T) {
    let mut spins = 0u32;
    loop {
        match producer.push(value) {
            Ok(()) => return,
            Err(e) => {
                value = e.0;
                spins += 1;
                if spins.is_multiple_of(64) {
                    // Be a good citizen on oversubscribed machines.
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// Pops, spinning while the queue is empty (the classic C `pop`).
pub fn pop_blocking<T>(consumer: &mut Consumer<T>) -> T {
    let mut spins = 0u32;
    loop {
        if let Some(v) = consumer.pop() {
            return v;
        }
        spins += 1;
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A registered accelerator thread; unregister to stop it.
#[derive(Debug)]
pub struct CohortHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<AccelStats>>,
}

/// Statistics returned when an accelerator thread is unregistered.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AccelStats {
    /// Input words consumed.
    pub words_in: u64,
    /// Output words produced.
    pub words_out: u64,
}

impl CohortHandle {
    /// Stops the accelerator thread after it drains pending input, and
    /// returns its statistics — the `cohort_unregister` of Table 1.
    pub fn unregister(mut self) -> AccelStats {
        self.stop.store(true, Ordering::Release);
        self.join
            .take()
            .expect("join handle present")
            .join()
            .expect("accelerator thread panicked")
    }
}

impl Drop for CohortHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Connects `accel` between two SPSC queues and runs it on its own thread —
/// the `cohort_register` of Table 1, native edition. `csr` is the optional
/// configuration struct delivered before any data (paper §4.3).
///
/// The thread consumes input words as they are published (honouring the
/// producer's batching), processes whole input blocks, and publishes output
/// words. On unregister it finishes in-flight blocks, zero-pads any
/// sub-word residue, and exits.
///
/// # Panics
/// Panics (in the spawned thread) if the accelerator rejects the CSR
/// configuration.
pub fn cohort_register(
    mut accel: Box<dyn Accelerator>,
    mut input: Consumer<u64>,
    mut output: Producer<u64>,
    csr: Option<Vec<u8>>,
) -> CohortHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_thread = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name(format!("cohort-{}", accel.descriptor().name))
        .spawn(move || {
            if let Some(csr) = csr {
                accel
                    .configure(&csr)
                    .expect("accelerator rejected CSR configuration");
            }
            let block = accel.descriptor().input_block_bytes;
            let mut in_ratchet = Ratchet::new(block);
            let mut out_ratchet = Ratchet::new(8);
            let mut stats = AccelStats::default();
            loop {
                let mut progressed = false;
                if let Some(word) = input.pop() {
                    stats.words_in += 1;
                    in_ratchet.push_word(word);
                    progressed = true;
                }
                while let Some(out) = in_ratchet.pop_block_with(|b| accel.process_block(b)) {
                    out_ratchet.push_bytes(&out);
                    progressed = true;
                }
                while let Some(w) = out_ratchet.pop_word() {
                    stats.words_out += 1;
                    push_blocking(&mut output, w);
                    progressed = true;
                }
                if !progressed {
                    if stop_thread.load(Ordering::Acquire) {
                        // Drain: flush any sub-word residue (zero padded);
                        // every whole word went out above.
                        if let Some(pad) = {
                            let mut tmp = Ratchet::new(8);
                            std::mem::swap(&mut tmp, &mut out_ratchet);
                            tmp.flush_padded()
                        } {
                            let w = u64::from_le_bytes(pad[..8].try_into().expect("8 bytes"));
                            stats.words_out += 1;
                            push_blocking(&mut output, w);
                        }
                        return stats;
                    }
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
            }
        })
        .expect("spawn accelerator thread");
    CohortHandle {
        stop,
        join: Some(join),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_accel::aes128::{Aes128, Aes128Accel};
    use cohort_accel::nullfifo::NullFifo;
    use cohort_accel::sha256::{sha256_raw_block, Sha256Accel};
    use cohort_queue::spsc_channel;

    #[test]
    fn sha_thread_end_to_end() {
        let (mut tx, acc_in) = spsc_channel::<u64>(256);
        let (acc_out, mut rx) = spsc_channel::<u64>(256);
        let h = cohort_register(Box::new(Sha256Accel::new()), acc_in, acc_out, None);
        let mut expected = Vec::new();
        for b in 0..10u64 {
            let mut block = [0u8; 64];
            for (i, chunk) in block.chunks_exact_mut(8).enumerate() {
                chunk.copy_from_slice(&(b * 8 + i as u64).to_le_bytes());
            }
            expected.extend_from_slice(&sha256_raw_block(&block));
            for i in 0..8u64 {
                push_blocking(&mut tx, b * 8 + i);
            }
        }
        let mut got = Vec::new();
        for _ in 0..10 * 4 {
            got.extend_from_slice(&pop_blocking(&mut rx).to_le_bytes());
        }
        assert_eq!(got, expected);
        let stats = h.unregister();
        assert_eq!(stats.words_in, 80);
        assert_eq!(stats.words_out, 40);
    }

    #[test]
    fn aes_with_csr_key() {
        let key = *b"A sixteen-byte k";
        let (mut tx, acc_in) = spsc_channel::<u64>(64);
        let (acc_out, mut rx) = spsc_channel::<u64>(64);
        let h = cohort_register(
            Box::new(Aes128Accel::new()),
            acc_in,
            acc_out,
            Some(key.to_vec()),
        );
        let pt = [7u8; 16];
        for chunk in pt.chunks_exact(8) {
            push_blocking(&mut tx, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let mut ct = Vec::new();
        for _ in 0..2 {
            ct.extend_from_slice(&pop_blocking(&mut rx).to_le_bytes());
        }
        assert_eq!(ct, Aes128::new(&key).encrypt_block(&pt).to_vec());
        h.unregister();
    }

    #[test]
    fn chaining_encrypt_then_hash() {
        // Fig. 5: push into encrypt_fifo, pop the hash from result_fifo.
        let key = *b"0123456789abcdef";
        let (mut tx, enc_in) = spsc_channel::<u64>(256);
        let (enc_out, hash_in) = spsc_channel::<u64>(256);
        let (hash_out, mut rx) = spsc_channel::<u64>(256);
        let h1 = cohort_register(
            Box::new(Aes128Accel::new()),
            enc_in,
            enc_out,
            Some(key.to_vec()),
        );
        let h2 = cohort_register(Box::new(Sha256Accel::new()), hash_in, hash_out, None);

        // 4 AES blocks = one SHA block of ciphertext.
        let pt: Vec<u8> = (0..64u8).collect();
        for chunk in pt.chunks_exact(8) {
            push_blocking(&mut tx, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let mut digest = Vec::new();
        for _ in 0..4 {
            digest.extend_from_slice(&pop_blocking(&mut rx).to_le_bytes());
        }
        // Host-side reference: AES-ECB then raw SHA-256 block.
        let aes = Aes128::new(&key);
        let mut ct = Vec::new();
        for chunk in pt.chunks_exact(16) {
            ct.extend_from_slice(&aes.encrypt_block(chunk.try_into().unwrap()));
        }
        let expect = sha256_raw_block(ct.as_slice().try_into().unwrap());
        assert_eq!(digest, expect.to_vec());
        h1.unregister();
        h2.unregister();
    }

    #[test]
    fn runtime_reconfiguration_same_queues() {
        // Replace the accelerator behind the same queue pair at runtime.
        let (mut tx, acc_in) = spsc_channel::<u64>(64);
        let (acc_out, mut rx) = spsc_channel::<u64>(64);
        let h = cohort_register(Box::new(NullFifo::new()), acc_in, acc_out, None);
        push_blocking(&mut tx, 123);
        assert_eq!(pop_blocking(&mut rx), 123);
        let _ = h.unregister();
        // The handle returned the queues' other halves to... the thread
        // owned them; register a new pair to model reconfiguration of the
        // software graph.
        let (mut tx2, acc_in2) = spsc_channel::<u64>(64);
        let (acc_out2, mut rx2) = spsc_channel::<u64>(64);
        let h2 = cohort_register(
            Box::new(NullFifo::with_geometry(8, 0)),
            acc_in2,
            acc_out2,
            None,
        );
        push_blocking(&mut tx2, 9);
        assert_eq!(pop_blocking(&mut rx2), 9);
        h2.unregister();
    }

    #[test]
    fn unregister_drains_in_flight_data() {
        let (mut tx, acc_in) = spsc_channel::<u64>(64);
        let (acc_out, mut rx) = spsc_channel::<u64>(64);
        let h = cohort_register(Box::new(NullFifo::new()), acc_in, acc_out, None);
        for i in 0..32u64 {
            push_blocking(&mut tx, i);
        }
        let stats = h.unregister();
        assert_eq!(stats.words_in, 32, "all input drained before exit");
        for i in 0..32u64 {
            assert_eq!(rx.pop(), Some(i));
        }
    }
}
