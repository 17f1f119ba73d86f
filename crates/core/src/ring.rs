//! An io_uring-style asynchronous interface over the native runtime.
//!
//! The paper's §7 sketches integrating Cohort with Linux's `io_uring` to
//! get "a rich runtime for managing accelerators". [`CohortRing`] realises
//! that shape natively: a **submission queue** of buffer-sized jobs and a
//! **completion queue** of results, both ordinary SPSC rings, with the
//! accelerator where the kernel worker pool would be. Submissions never
//! block the submitter (they fail fast when the ring is full, like
//! `io_uring_enter` with a full SQ), completions can be polled or awaited,
//! and `user_data` tags flow through untouched.

use crate::native::push_blocking;
use cohort_accel::ratchet::Ratchet;
use cohort_accel::Accelerator;
use cohort_queue::{spsc_channel, Consumer, Producer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A submission queue entry: one buffer-in/buffer-out job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sqe {
    /// Caller tag, returned untouched in the matching [`Cqe`].
    pub user_data: u64,
    /// Input bytes. If the length is not a multiple of the accelerator's
    /// input block, the final block is zero padded.
    pub payload: Vec<u8>,
}

/// A completion queue entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cqe {
    /// The submitter's tag.
    pub user_data: u64,
    /// All output bytes the accelerator produced for this job (including
    /// its end-of-stream `finish()` output).
    pub result: Vec<u8>,
}

/// Error returned when the submission queue is full; gives the entry back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingFull(pub Sqe);

impl std::fmt::Display for RingFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("submission queue is full")
    }
}

impl std::error::Error for RingFull {}

/// The asynchronous accelerator ring. See module docs.
///
/// # Example
/// ```
/// use cohort::ring::{CohortRing, Sqe};
/// use cohort_accel::sha256::{sha256_raw_block, Sha256Accel};
///
/// let mut ring = CohortRing::new(Box::new(Sha256Accel::new()), None, 8);
/// ring.submit(Sqe { user_data: 7, payload: vec![0xab; 64] }).unwrap();
/// let cqe = ring.wait_complete();
/// assert_eq!(cqe.user_data, 7);
/// assert_eq!(cqe.result, sha256_raw_block(&[0xab; 64]).to_vec());
/// ring.shutdown();
/// ```
#[derive(Debug)]
pub struct CohortRing {
    sq: Producer<Sqe>,
    cq: Consumer<Cqe>,
    stop: Arc<AtomicBool>,
    worker: Option<JoinHandle<u64>>,
    submitted: u64,
    completed: u64,
}

impl CohortRing {
    /// Creates a ring of `depth` entries around `accel`, configured with
    /// the optional CSR buffer before any job runs.
    pub fn new(mut accel: Box<dyn Accelerator>, csr: Option<Vec<u8>>, depth: usize) -> Self {
        let (sq, mut sq_rx) = spsc_channel::<Sqe>(depth.max(1));
        let (mut cq_tx, cq) = spsc_channel::<Cqe>(depth.max(1));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_w = Arc::clone(&stop);
        let worker = std::thread::Builder::new()
            .name(format!("cohort-ring-{}", accel.descriptor().name))
            .spawn(move || {
                if let Some(csr) = csr {
                    accel.configure(&csr).expect("CSR rejected");
                }
                let block = accel.descriptor().input_block_bytes;
                let mut jobs = 0u64;
                loop {
                    if let Some(sqe) = sq_rx.pop() {
                        accel.reset();
                        let mut ratchet = Ratchet::new(block);
                        ratchet.push_bytes(&sqe.payload);
                        let mut result = Vec::new();
                        while let Some(out) = ratchet.pop_block_with(|b| accel.process_block(b)) {
                            result.extend(out);
                        }
                        if let Some(tail) = ratchet.flush_padded() {
                            result.extend(accel.process_block(&tail));
                        }
                        result.extend(accel.finish());
                        jobs += 1;
                        push_blocking(
                            &mut cq_tx,
                            Cqe {
                                user_data: sqe.user_data,
                                result,
                            },
                        );
                    } else if stop_w.load(Ordering::Acquire) {
                        return jobs;
                    } else {
                        std::hint::spin_loop();
                        std::thread::yield_now();
                    }
                }
            })
            .expect("spawn ring worker");
        Self {
            sq,
            cq,
            stop,
            worker: Some(worker),
            submitted: 0,
            completed: 0,
        }
    }

    /// Submits a job without blocking.
    ///
    /// # Errors
    /// Returns [`RingFull`] when the submission queue has no room.
    pub fn submit(&mut self, sqe: Sqe) -> Result<(), RingFull> {
        match self.sq.push(sqe) {
            Ok(()) => {
                self.submitted += 1;
                Ok(())
            }
            Err(e) => Err(RingFull(e.0)),
        }
    }

    /// Polls the completion queue.
    pub fn try_complete(&mut self) -> Option<Cqe> {
        let c = self.cq.pop();
        if c.is_some() {
            self.completed += 1;
        }
        c
    }

    /// Blocks (spinning) until a completion arrives.
    ///
    /// # Panics
    /// Panics if there is nothing in flight — that wait could never end.
    pub fn wait_complete(&mut self) -> Cqe {
        assert!(self.in_flight() > 0, "wait_complete with nothing in flight");
        let mut spins = 0u32;
        loop {
            if let Some(c) = self.try_complete() {
                return c;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Jobs submitted but not yet reaped.
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.completed
    }

    /// Drains in-flight jobs and stops the worker; returns the number of
    /// jobs it processed.
    pub fn shutdown(mut self) -> u64 {
        // Reap outstanding completions so the worker can always make
        // progress pushing into the CQ.
        while self.in_flight() > 0 {
            let _ = self.wait_complete();
        }
        self.stop.store(true, Ordering::Release);
        self.worker
            .take()
            .expect("worker present")
            .join()
            .expect("ring worker panicked")
    }
}

impl Drop for CohortRing {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(w) = self.worker.take() {
            // Keep reaping so a worker mid-push into a full CQ can always
            // finish, then join.
            loop {
                while self.cq.pop().is_some() {}
                if w.is_finished() {
                    let _ = w.join();
                    break;
                }
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_accel::aes128::{Aes128, Aes128Accel};
    use cohort_accel::nullfifo::NullFifo;
    use cohort_accel::sha256::{sha256_raw_block, Sha256Accel};

    #[test]
    fn tags_flow_through_in_order() {
        let mut ring = CohortRing::new(Box::new(NullFifo::new()), None, 16);
        for tag in 0..8u64 {
            ring.submit(Sqe {
                user_data: tag,
                payload: vec![tag as u8; 8],
            })
            .unwrap();
        }
        for tag in 0..8u64 {
            let c = ring.wait_complete();
            assert_eq!(c.user_data, tag);
            assert_eq!(c.result, vec![tag as u8; 8]);
        }
        assert_eq!(ring.shutdown(), 8);
    }

    #[test]
    fn multi_block_sha_job() {
        let mut ring = CohortRing::new(Box::new(Sha256Accel::new()), None, 4);
        let payload = vec![0x11u8; 192]; // three blocks
        ring.submit(Sqe {
            user_data: 1,
            payload: payload.clone(),
        })
        .unwrap();
        let c = ring.wait_complete();
        let mut expect = Vec::new();
        for b in payload.chunks_exact(64) {
            expect.extend_from_slice(&sha256_raw_block(b.try_into().unwrap()));
        }
        assert_eq!(c.result, expect);
        ring.shutdown();
    }

    #[test]
    fn partial_final_block_is_zero_padded() {
        let mut ring = CohortRing::new(Box::new(Sha256Accel::new()), None, 4);
        ring.submit(Sqe {
            user_data: 2,
            payload: vec![0x22; 70],
        })
        .unwrap();
        let c = ring.wait_complete();
        let b1 = [0x22u8; 64];
        let mut b2 = [0u8; 64];
        b2[..6].fill(0x22);
        let mut expect = sha256_raw_block(&b1).to_vec();
        expect.extend_from_slice(&sha256_raw_block(&b2));
        assert_eq!(c.result, expect);
        ring.shutdown();
    }

    #[test]
    fn ring_full_fails_fast() {
        let mut ring = CohortRing::new(Box::new(Sha256Accel::new()), None, 1);
        // Saturate: with depth 1, at most a couple of jobs fit in SQ+CQ.
        let mut accepted = 0;
        let mut rejected = 0;
        for tag in 0..50u64 {
            match ring.submit(Sqe {
                user_data: tag,
                payload: vec![0; 64],
            }) {
                Ok(()) => accepted += 1,
                Err(RingFull(_)) => rejected += 1,
            }
        }
        assert!(rejected > 0, "a depth-1 ring must reject a 50-burst");
        assert!(accepted > 0);
        ring.shutdown();
    }

    #[test]
    fn aes_ring_with_csr() {
        let key = *b"ring mode aes k!";
        let mut ring = CohortRing::new(Box::new(Aes128Accel::new()), Some(key.to_vec()), 8);
        ring.submit(Sqe {
            user_data: 9,
            payload: vec![0x33; 32],
        })
        .unwrap();
        let c = ring.wait_complete();
        let aes = Aes128::new(&key);
        let mut expect = Vec::new();
        for b in [[0x33u8; 16]; 2] {
            expect.extend_from_slice(&aes.encrypt_block(&b));
        }
        assert_eq!(c.result, expect);
        ring.shutdown();
    }

    #[test]
    fn drop_without_shutdown_does_not_hang() {
        let mut ring = CohortRing::new(Box::new(NullFifo::new()), None, 2);
        ring.submit(Sqe {
            user_data: 0,
            payload: vec![1; 8],
        })
        .unwrap();
        drop(ring); // must not deadlock
    }
}
