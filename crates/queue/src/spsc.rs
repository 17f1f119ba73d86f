//! The lock-free SPSC ring.
//!
//! Monotonic 64-bit write/read indices (never wrapped) live on separate
//! cache lines; `slot = index % capacity`. The producer publishes with a
//! release store of the write index after writing the element; the consumer
//! acquires the write index before reading elements — this is precisely the
//! *queue coherence* contract (paper §3.2, §4.2.3) that lets the Cohort
//! engine treat an index-line invalidation as "data available".

use crate::pad::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    capacity: u64,
    /// Consumer-owned read index (elements popped so far).
    read: CachePadded<AtomicU64>,
    /// Producer-owned write index (elements published so far).
    write: CachePadded<AtomicU64>,
    /// Set when either half is dropped or calls `close`: the peer's
    /// blocking loop should stop waiting rather than spin forever.
    closed: AtomicBool,
}

// SAFETY: the producer/consumer split guarantees exclusive slot access:
// slots in [read, write) are owned by the consumer, the rest by the
// producer, and the indices are published with release/acquire ordering.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let read = self.read.load(Ordering::Relaxed);
        let write = self.write.load(Ordering::Relaxed);
        for i in read..write {
            let slot = (i % self.capacity) as usize;
            // SAFETY: elements in [read, write) are initialized and nobody
            // else can touch them during drop (&mut self).
            unsafe { (*self.buf[slot].get()).assume_init_drop() };
        }
    }
}

/// Error returned by [`Producer::push`] on a full queue; gives the element
/// back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushError<T>(pub T);

impl<T> std::fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("queue is full")
    }
}

impl<T: std::fmt::Debug> std::error::Error for PushError<T> {}

/// The producing half of an SPSC queue.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// The write index, which only this half stores.
    write: u64,
    /// Cached snapshot of the consumer's read index.
    read_cache: u64,
}

/// The consuming half of an SPSC queue.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// The read index, which only this half stores.
    read: u64,
    /// Cached snapshot of the producer's write index.
    write_cache: u64,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer")
            .field("write", &self.write)
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("read", &self.read)
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

/// Creates an SPSC queue holding up to `capacity` elements.
///
/// # Panics
/// Panics if `capacity` is zero.
pub fn spsc_channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "capacity must be positive");
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let inner = Arc::new(Inner {
        buf,
        capacity: capacity as u64,
        read: CachePadded::new(AtomicU64::new(0)),
        write: CachePadded::new(AtomicU64::new(0)),
        closed: AtomicBool::new(false),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            write: 0,
            read_cache: 0,
        },
        Consumer {
            inner,
            read: 0,
            write_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Queue capacity in elements.
    pub fn capacity(&self) -> usize {
        self.inner.capacity as usize
    }

    /// Writes `value` into the next slot and publishes it with a release
    /// store of the write index — the queue-coherence publication point.
    ///
    /// # Errors
    /// Returns [`PushError`] if the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), PushError<T>> {
        if self.write - self.read_cache >= self.inner.capacity {
            // Refresh the consumer's index before declaring full.
            self.read_cache = self.inner.read.load(Ordering::Acquire);
            if self.write - self.read_cache >= self.inner.capacity {
                return Err(PushError(value));
            }
        }
        let slot = (self.write % self.inner.capacity) as usize;
        // SAFETY: the slot is outside the consumer's [read, write), so the
        // producer has exclusive access.
        unsafe { (*self.inner.buf[slot].get()).write(value) };
        self.write += 1;
        self.inner.write.store(self.write, Ordering::Release);
        Ok(())
    }

    /// Published-but-unconsumed elements as seen from the producer side.
    ///
    /// Pure observer: only atomic loads, callable through `&self`.
    pub fn observed_len(&self) -> usize {
        let write = self.inner.write.load(Ordering::Acquire);
        let read = self.inner.read.load(Ordering::Acquire);
        (write - read) as usize
    }

    /// Free slots available to the producer right now.
    pub fn free(&mut self) -> usize {
        self.read_cache = self.inner.read.load(Ordering::Acquire);
        (self.inner.capacity - (self.write - self.read_cache)) as usize
    }

    /// Marks the ring closed (also done automatically on drop). Elements
    /// already published remain poppable; the peer uses
    /// [`Consumer::is_closed`] to stop waiting for more.
    pub fn close(&mut self) {
        self.inner.closed.store(true, Ordering::Release);
    }

    /// True once either half has been dropped or closed.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // Tell the consumer no more are coming.
        self.close();
    }
}

impl<T> Consumer<T> {
    /// Queue capacity in elements.
    pub fn capacity(&self) -> usize {
        self.inner.capacity as usize
    }

    /// Takes the next published element and releases its slot to the
    /// producer.
    pub fn pop(&mut self) -> Option<T> {
        if self.read >= self.write_cache {
            self.write_cache = self.inner.write.load(Ordering::Acquire);
            if self.read >= self.write_cache {
                return None;
            }
        }
        let slot = (self.read % self.inner.capacity) as usize;
        // SAFETY: [read, write) slots are initialized and consumer-owned.
        let value = unsafe { (*self.inner.buf[slot].get()).assume_init_read() };
        self.read += 1;
        self.inner.read.store(self.read, Ordering::Release);
        Some(value)
    }

    /// Published-but-unconsumed elements, observable through `&self`.
    ///
    /// Pure observer: a single acquire load of the write index against the
    /// consumer's local position, with no write-cache refresh. Safe to call
    /// from code that only holds a shared reference (stats probes, asserts).
    pub fn observed_len(&self) -> usize {
        let write = self.inner.write.load(Ordering::Acquire);
        (write - self.read) as usize
    }

    /// Elements currently observable by the consumer.
    pub fn len(&self) -> usize {
        self.observed_len()
    }

    /// True if no published elements are pending.
    pub fn is_empty(&self) -> bool {
        self.observed_len() == 0
    }

    /// Marks the ring closed (also done automatically on drop): the
    /// producer's blocking full-queue loop should give up rather than wait
    /// for space that will never be released.
    pub fn close(&mut self) {
        self.inner.closed.store(true, Ordering::Release);
    }

    /// True once either half has been dropped or closed.
    ///
    /// A consumer should keep popping until the queue is *both* closed and
    /// empty — close does not discard already-published elements.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Tell the producer nobody will ever free space again.
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order() {
        let (mut tx, mut rx) = spsc_channel::<u32>(4);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn full_queue_rejects() {
        let (mut tx, mut rx) = spsc_channel::<u32>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.push(3), Err(PushError(3)));
        assert_eq!(rx.pop(), Some(1));
        tx.push(3).unwrap();
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
    }

    #[test]
    fn wraparound_many_times() {
        let (mut tx, mut rx) = spsc_channel::<u64>(3);
        for i in 0..1000u64 {
            tx.push(i).unwrap();
            assert_eq!(rx.pop(), Some(i));
        }
    }

    #[test]
    fn cross_thread_stream() {
        let (mut tx, mut rx) = spsc_channel::<u64>(64);
        let n = 20_000u64;
        let producer = thread::spawn(move || {
            for i in 0..n {
                loop {
                    match tx.push(i) {
                        Ok(()) => break,
                        Err(_) => std::thread::yield_now(),
                    }
                }
            }
        });
        let mut expect = 0u64;
        while expect < n {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expect, "FIFO order across threads");
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn drops_unconsumed_elements() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (mut tx, mut rx) = spsc_channel::<D>(8);
            tx.push(D).unwrap();
            tx.push(D).unwrap();
            tx.push(D).unwrap();
            drop(rx.pop()); // one consumed and dropped
                            // two left inside
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn producer_drop_closes() {
        let (mut tx, mut rx) = spsc_channel::<u32>(8);
        tx.push(1).unwrap();
        assert!(!rx.is_closed());
        drop(tx);
        assert!(rx.is_closed());
        assert_eq!(rx.pop(), Some(1), "published data survives close");
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn consumer_drop_closes_for_producer() {
        let (mut tx, rx) = spsc_channel::<u32>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        drop(rx);
        assert!(tx.is_closed());
        assert_eq!(
            tx.push(3),
            Err(PushError(3)),
            "still full, but detectably dead"
        );
    }

    #[test]
    fn explicit_close_without_drop() {
        let (mut tx, mut rx) = spsc_channel::<u32>(4);
        tx.push(7).unwrap();
        tx.close();
        assert!(tx.is_closed() && rx.is_closed());
        assert_eq!(rx.pop(), Some(7));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = spsc_channel::<u8>(0);
    }
}
