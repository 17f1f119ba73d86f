//! Cross-thread stress tests for the queue crate.
//!
//! These exercise the paths the unit tests only cover single-threaded,
//! with the producer and consumer on separate threads: the close flag seen
//! from either side, and the `&self` observers racing a live producer.

use cohort_queue::spsc_channel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// Producer-drop closes the ring: a consumer blocked waiting for more
/// elements terminates instead of spinning forever. Without the closed
/// flag this test hangs (there is no element count to run out of — the
/// consumer only learns the stream ended through `is_closed`).
#[test]
fn consumer_loop_terminates_when_producer_drops() {
    const N: u64 = 5_000;
    let (mut tx, mut rx) = spsc_channel::<u64>(16);
    let producer = thread::spawn(move || {
        for i in 0..N {
            while tx.push(i).is_err() {
                thread::yield_now();
            }
        }
        // tx dropped here: flushes anything staged and closes the ring.
    });
    let mut seen = 0u64;
    loop {
        if let Some(v) = rx.pop() {
            assert_eq!(v, seen, "FIFO order up to the close");
            seen += 1;
        } else if rx.is_closed() && rx.is_empty() {
            // Re-check emptiness after observing close so a publish racing
            // with the drop is never lost.
            break;
        } else {
            thread::yield_now();
        }
    }
    assert_eq!(seen, N, "close must not drop published elements");
    producer.join().unwrap();
}

/// Symmetric direction: the consumer vanishes while the ring is full, and
/// the producer's retry loop gives up via `is_closed` instead of waiting
/// forever for space.
#[test]
fn producer_loop_terminates_when_consumer_drops() {
    let (mut tx, mut rx) = spsc_channel::<u64>(4);
    let consumer = thread::spawn(move || {
        // Pop a few, then walk away mid-stream.
        let mut got = 0;
        while got < 3 {
            if rx.pop().is_some() {
                got += 1;
            } else {
                thread::yield_now();
            }
        }
    });
    let mut pushed = 0u64;
    let abandoned = loop {
        match tx.push(pushed) {
            Ok(()) => pushed += 1,
            Err(_) if tx.is_closed() => break true,
            Err(_) => thread::yield_now(),
        }
    };
    assert!(abandoned, "loop only exits via the closed path");
    assert!(pushed >= 3, "consumer saw three elements before leaving");
    consumer.join().unwrap();
}

/// The `&self` observers must be callable while the producer thread is
/// live, and must never report more elements than have been published.
#[test]
fn shared_ref_observers_race_with_producer() {
    const N: u64 = 20_000;
    let (mut tx, rx) = spsc_channel::<u64>(32);
    let produced = Arc::new(AtomicU64::new(0));
    let produced2 = Arc::clone(&produced);
    let producer = thread::spawn(move || {
        for i in 0..N {
            // Count first, publish second: observed_len() <= produced is
            // then an invariant the consumer thread can check.
            produced2.fetch_add(1, Ordering::SeqCst);
            while tx.push(i).is_err() {
                thread::yield_now();
            }
        }
    });
    let mut rx = rx;
    let mut seen = 0u64;
    while seen < N {
        // &self observers: no &mut needed, only atomic loads inside.
        let observed = rx.observed_len() as u64;
        assert!(
            seen + observed <= produced.load(Ordering::SeqCst),
            "observer saw unpublished elements"
        );
        // Two loads with the producer live: a push may land between them,
        // so "observed nothing" does not imply "empty now". The other
        // direction holds: this thread is the only one that pops.
        assert!(
            observed == 0 || !rx.is_empty(),
            "{observed} observed elements vanished without a pop"
        );
        if let Some(v) = rx.pop() {
            assert_eq!(v, seen);
            seen += 1;
        } else {
            thread::yield_now();
        }
    }
    producer.join().unwrap();
}
