//! Integration tests of the native (thread-based) Cohort runtime: stress,
//! multi-stage chains, every accelerator type behind the queue interface.

use cohort::native::{cohort_register, pop_blocking, push_blocking};
use cohort_accel::aes128::{Aes128, Aes128Accel};
use cohort_accel::nullfifo::NullFifo;
use cohort_accel::sha256::{sha256_raw_block, Sha256Accel};
use cohort_accel::stft::StftAccel;
use cohort_queue::{spsc_channel, BatchConsumer, BatchProducer};
use std::thread;

#[test]
fn null_fifo_stress_many_words() {
    let (tx, acc_in) = spsc_channel::<u64>(32);
    let (acc_out, rx) = spsc_channel::<u64>(32);
    let h = cohort_register(Box::new(NullFifo::new()), acc_in, acc_out, None);
    let n = 50_000u64;
    let producer = thread::spawn(move || {
        let mut tx = tx;
        for i in 0..n {
            push_blocking(&mut tx, i);
        }
    });
    let mut rx = rx;
    for i in 0..n {
        assert_eq!(pop_blocking(&mut rx), i);
    }
    producer.join().unwrap();
    let stats = h.unregister();
    assert_eq!(stats.words_in, n);
    assert_eq!(stats.words_out, n);
}

#[test]
fn batched_producer_through_accelerator() {
    // The software batching optimisation composes with the accelerator
    // thread: publications every 32 elements, one consumer.
    let (tx, acc_in) = spsc_channel::<u64>(256);
    let (acc_out, rx) = spsc_channel::<u64>(256);
    let h = cohort_register(Box::new(NullFifo::new()), acc_in, acc_out, None);
    let mut btx = BatchProducer::new(tx, 32);
    let mut brx = BatchConsumer::new(rx, 32);
    let mut seen = 0u64;
    for i in 0..10_000u64 {
        loop {
            match btx.push(i) {
                Ok(()) => break,
                Err(_) => {
                    // The ring is full: drain completions AND release the
                    // partial batch so the accelerator can make progress
                    // (otherwise the closed loop of full rings livelocks
                    // on the deferred read-index release).
                    while let Some(v) = brx.pop() {
                        assert_eq!(v, seen);
                        seen += 1;
                    }
                    brx.flush();
                    std::thread::yield_now();
                }
            }
        }
        while let Some(v) = brx.pop() {
            assert_eq!(v, seen);
            seen += 1;
        }
    }
    btx.flush();
    while seen < 10_000 {
        if let Some(v) = brx.pop() {
            assert_eq!(v, seen);
            seen += 1;
        } else {
            brx.flush();
            std::thread::yield_now();
        }
    }
    h.unregister();
}

#[test]
fn three_stage_chain_aes_null_sha() {
    // AES -> null FIFO -> SHA: a three-engine cohort.
    let key = *b"three stage key!";
    let (mut tx, q1c) = spsc_channel::<u64>(512);
    let (q2p, q2c) = spsc_channel::<u64>(512);
    let (q3p, q3c) = spsc_channel::<u64>(512);
    let (q4p, mut rx) = spsc_channel::<u64>(512);
    let h1 = cohort_register(Box::new(Aes128Accel::new()), q1c, q2p, Some(key.to_vec()));
    let h2 = cohort_register(Box::new(NullFifo::new()), q2c, q3p, None);
    let h3 = cohort_register(Box::new(Sha256Accel::new()), q3c, q4p, None);

    let pt: Vec<u8> = (0..128u32).map(|i| (i * 13 % 256) as u8).collect();
    for chunk in pt.chunks_exact(8) {
        push_blocking(&mut tx, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    let mut digests = Vec::new();
    for _ in 0..(pt.len() / 64) * 4 {
        digests.extend_from_slice(&pop_blocking(&mut rx).to_le_bytes());
    }

    let aes = Aes128::new(&key);
    let mut ct = Vec::new();
    for b in pt.chunks_exact(16) {
        ct.extend_from_slice(&aes.encrypt_block(b.try_into().unwrap()));
    }
    let mut expect = Vec::new();
    for b in ct.chunks_exact(64) {
        expect.extend_from_slice(&sha256_raw_block(b.try_into().unwrap()));
    }
    assert_eq!(digests, expect);
    h1.unregister();
    h2.unregister();
    h3.unregister();
}

#[test]
fn stft_through_queues() {
    let n = 256usize;
    let (mut tx, acc_in) = spsc_channel::<u64>(512);
    let (acc_out, mut rx) = spsc_channel::<u64>(512);
    let h = cohort_register(Box::new(StftAccel::new(n)), acc_in, acc_out, Some(vec![0]));
    // One frame: a pure tone at bin 8.
    let samples: Vec<i16> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            ((2.0 * std::f64::consts::PI * 8.0 * t).cos() * 12000.0) as i16
        })
        .collect();
    let bytes: Vec<u8> = samples.iter().flat_map(|s| s.to_le_bytes()).collect();
    for chunk in bytes.chunks_exact(8) {
        push_blocking(&mut tx, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    let mut out = Vec::new();
    for _ in 0..(4 * n) / 8 {
        out.extend_from_slice(&pop_blocking(&mut rx).to_le_bytes());
    }
    let mag = |k: usize| {
        let re = i16::from_le_bytes([out[4 * k], out[4 * k + 1]]) as f64;
        let im = i16::from_le_bytes([out[4 * k + 2], out[4 * k + 3]]) as f64;
        (re * re + im * im).sqrt()
    };
    let peak = mag(8);
    assert!(
        peak > 4.0 * mag(3),
        "tone must dominate: peak {peak} vs {}",
        mag(3)
    );
    h.unregister();
}

#[test]
fn reconfiguration_replaces_accelerator_between_runs() {
    // Runtime reconfiguration (§4.5): same logical pipeline position, new
    // accelerator after unregister.
    let (mut tx1, in1) = spsc_channel::<u64>(64);
    let (out1, mut rx1) = spsc_channel::<u64>(64);
    let h = cohort_register(Box::new(NullFifo::new()), in1, out1, None);
    push_blocking(&mut tx1, 7);
    assert_eq!(pop_blocking(&mut rx1), 7);
    h.unregister();

    let (mut tx2, in2) = spsc_channel::<u64>(64);
    let (out2, mut rx2) = spsc_channel::<u64>(64);
    let h2 = cohort_register(Box::new(Sha256Accel::new()), in2, out2, None);
    for w in 0..8u64 {
        push_blocking(&mut tx2, w);
    }
    let mut digest = Vec::new();
    for _ in 0..4 {
        digest.extend_from_slice(&pop_blocking(&mut rx2).to_le_bytes());
    }
    let mut block = [0u8; 64];
    for (i, chunk) in block.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&(i as u64).to_le_bytes());
    }
    assert_eq!(digest, sha256_raw_block(&block).to_vec());
    h2.unregister();
}
