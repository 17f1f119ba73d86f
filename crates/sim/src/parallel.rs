//! Synchronisation primitives for the component-parallel step kernel.
//!
//! The SoC keeps a pool of worker threads parked on a [`GoSignal`]. Each
//! *stepped* cycle the main thread publishes a [`Frame`] describing the
//! work (a raw view of the slot array, the read-only memory image and the
//! cost-aware stripe assignment), releases the workers, steps its own
//! stripe, and waits on a [`DoneLatch`] until every worker has finished
//! before committing the cycle. Workers never touch the NoC, stats
//! registry keys, or `PhysMem` mutably — all cross-component effects are
//! staged per-slot and committed by the main thread at the barrier (see
//! [`crate::stage`]). Cycles the lookahead proves to be no-ops skip the
//! barrier entirely (see `Soc::lookahead_horizon`), so consecutive go
//! signals mark *batches* of simulated time, not single cycles.
//!
//! Both primitives spin briefly before falling back to a condvar: stepped
//! cycles are microseconds apart, so an immediate park/unpark per barrier
//! would dominate runtime, but an unbounded spin would burn a host CPU
//! per worker on oversubscribed machines. Either side skips the condvar
//! round trip entirely when nobody is parked — with batching, barriers
//! cluster into dense step phases where the spin path wins, separated by
//! long fast-forward gaps where workers park and the wake must pay the
//! lock.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Spin iterations before yielding, then parking on the condvar. Raised
/// from the pre-batching 64: within a dense step phase back-to-back
/// barriers are the common case, and a missed spin window now costs a
/// full park/unpark (there is no next-cycle barrier right behind it).
const SPIN: usize = 128;
/// `yield_now` calls after spinning before parking on the condvar.
/// Lowered from the pre-batching 16: with batches, a waiter that has
/// exhausted its spin budget is usually facing a long fast-forward gap,
/// and repeated `yield_now` on an oversubscribed host just thrashes the
/// scheduler before parking anyway.
const YIELDS: usize = 8;

/// A generation-counted start barrier: the main thread bumps the
/// generation to release every waiter once.
#[derive(Debug, Default)]
pub(crate) struct GoSignal {
    generation: AtomicU64,
    /// Workers currently parked (or committing to park) on the condvar.
    /// Lets `go` skip the lock + notify round trip in the common case
    /// where every worker is still spinning.
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl GoSignal {
    /// Releases all workers currently waiting on `seen`.
    pub(crate) fn go(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        // Skip the condvar round trip when no worker is parked. SeqCst on
        // both sides makes this sound: a worker increments `parked`
        // *before* its final generation check (under the lock), so either
        // we observe `parked > 0` here and notify (the lock round trip
        // closes the check-then-park race), or the worker's generation
        // re-check is ordered after our bump and it never sleeps on the
        // old generation.
        if self.parked.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock().unwrap());
            self.cv.notify_all();
        }
    }

    /// Blocks until the generation advances past `seen`; returns the new
    /// generation to pass to the next wait.
    pub(crate) fn wait(&self, seen: u64) -> u64 {
        for _ in 0..SPIN {
            let g = self.generation.load(Ordering::Acquire);
            if g != seen {
                return g;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            let g = self.generation.load(Ordering::Acquire);
            if g != seen {
                return g;
            }
            std::thread::yield_now();
        }
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock().unwrap();
        let g = loop {
            let g = self.generation.load(Ordering::SeqCst);
            if g != seen {
                break g;
            }
            guard = self.cv.wait(guard).unwrap();
        };
        drop(guard);
        self.parked.fetch_sub(1, Ordering::SeqCst);
        g
    }
}

/// A completion latch: `arrive` is called once per worker per stepped
/// cycle and the main thread blocks until the count drains, then re-arms
/// it. `new(0)` is a valid degenerate pool: the latch is born drained and
/// `wait_and_reset` returns immediately, forever.
#[derive(Debug)]
pub(crate) struct DoneLatch {
    remaining: AtomicUsize,
    workers: usize,
    /// True while the main thread is parked (or committing to park) on
    /// the condvar; lets the last arriving worker skip the lock + notify
    /// round trip when the main thread is still spinning.
    waiting: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl DoneLatch {
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(workers),
            workers,
            waiting: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Marks one worker's stripe complete for this cycle.
    pub(crate) fn arrive(&self) {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Mirror image of `GoSignal::go`: the main thread sets
            // `waiting` *before* its final drain check under the lock, so
            // with SeqCst either we see the flag and notify, or its
            // re-check is ordered after our decrement and it never parks.
            if self.waiting.load(Ordering::SeqCst) {
                drop(self.lock.lock().unwrap());
                self.cv.notify_all();
            }
        }
    }

    /// Blocks until every worker has arrived, then re-arms the latch for
    /// the next cycle.
    pub(crate) fn wait_and_reset(&self) {
        for _ in 0..SPIN {
            if self.remaining.load(Ordering::Acquire) == 0 {
                self.remaining.store(self.workers, Ordering::Release);
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            if self.remaining.load(Ordering::Acquire) == 0 {
                self.remaining.store(self.workers, Ordering::Release);
                return;
            }
            std::thread::yield_now();
        }
        self.waiting.store(true, Ordering::SeqCst);
        let mut guard = self.lock.lock().unwrap();
        while self.remaining.load(Ordering::SeqCst) != 0 {
            guard = self.cv.wait(guard).unwrap();
        }
        drop(guard);
        self.waiting.store(false, Ordering::SeqCst);
        self.remaining.store(self.workers, Ordering::Release);
    }
}

/// Worker-shared state: the per-cycle [`Frame`] plus the exit flag.
///
/// The frame cell is only written by the main thread while every worker is
/// parked (between `done.wait_and_reset` and the next `go`), and only read
/// by workers between `go` and `arrive` — the two barriers make the
/// accesses data-race-free, which is what the `Sync` impl asserts.
#[derive(Debug)]
pub(crate) struct Shared {
    frame: std::cell::UnsafeCell<Frame>,
    pub(crate) exit: AtomicBool,
    pub(crate) go: GoSignal,
    pub(crate) done: DoneLatch,
}

unsafe impl Sync for Shared {}

impl Shared {
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            frame: std::cell::UnsafeCell::new(Frame::empty()),
            exit: AtomicBool::new(false),
            go: GoSignal::default(),
            done: DoneLatch::new(workers),
        }
    }

    /// Publishes this cycle's frame. Caller must be the main thread with
    /// all workers parked.
    pub(crate) fn publish(&self, frame: Frame) {
        unsafe { *self.frame.get() = frame };
    }

    /// Reads the current frame. Caller must hold a `go`/`arrive` window.
    pub(crate) fn frame(&self) -> Frame {
        unsafe { *self.frame.get() }
    }
}

/// A raw, cycle-scoped view of the step workload handed to workers.
///
/// Raw pointers rather than references because the borrow starts when the
/// main thread publishes and ends at the done barrier — a lifetime the
/// borrow checker cannot see across threads. The invariants:
///
/// * `slots` points at the SoC's slot array; worker `w` dereferences only
///   the slot indices listed in stripe `w` of `stripes`, and the stripes
///   are disjoint by construction, so no slot is aliased mutably.
/// * `stripes` points at the SoC's stripe assignment, which the main
///   thread mutates only while every worker is parked.
/// * `mem` and `mmio` are read-only for the whole step phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) slots: *mut crate::soc::Slot,
    pub(crate) len: usize,
    pub(crate) mem: *const crate::mem::PhysMem,
    pub(crate) mmio: *const crate::component::MmioMap,
    pub(crate) stripes: *const Vec<Vec<u32>>,
    pub(crate) cycle: u64,
    pub(crate) lookahead: crate::config::Lookahead,
}

impl Frame {
    fn empty() -> Self {
        Self {
            slots: std::ptr::null_mut(),
            len: 0,
            mem: std::ptr::null(),
            mmio: std::ptr::null(),
            stripes: std::ptr::null(),
            cycle: 0,
            lookahead: crate::config::Lookahead::Force1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn go_signal_releases_waiter() {
        let sig = Arc::new(GoSignal::default());
        let s2 = sig.clone();
        let h = std::thread::spawn(move || s2.wait(0));
        sig.go();
        assert_eq!(h.join().unwrap(), 1);
        let s3 = sig.clone();
        let h = std::thread::spawn(move || s3.wait(1));
        sig.go();
        assert_eq!(h.join().unwrap(), 2);
    }

    #[test]
    fn go_signal_wait_after_go_returns_without_parking() {
        // The signal may fire before the waiter even starts spinning; the
        // fast path must observe it without touching the condvar.
        let sig = GoSignal::default();
        sig.go();
        assert_eq!(sig.wait(0), 1);
        assert_eq!(sig.parked.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn done_latch_drains_and_rearms() {
        let latch = Arc::new(DoneLatch::new(2));
        for _ in 0..3 {
            let (a, b) = (latch.clone(), latch.clone());
            let h1 = std::thread::spawn(move || a.arrive());
            let h2 = std::thread::spawn(move || b.arrive());
            latch.wait_and_reset();
            h1.join().unwrap();
            h2.join().unwrap();
        }
    }

    #[test]
    fn done_latch_zero_workers_never_blocks() {
        // The degenerate pool: a latch with no workers is born drained and
        // must re-arm to "drained" every cycle without ever parking.
        let latch = DoneLatch::new(0);
        for _ in 0..100 {
            latch.wait_and_reset();
        }
        assert_eq!(latch.remaining.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn single_worker_pool_round_trips() {
        // One worker, many generations: exercises both the spin path and
        // (by making the worker slow enough to park sometimes) the
        // parked/waiting handshakes of both primitives under contention.
        let shared = Arc::new((
            GoSignal::default(),
            DoneLatch::new(1),
            AtomicBool::new(false),
        ));
        let s = shared.clone();
        let h = std::thread::spawn(move || {
            let (go, done, exit) = (&s.0, &s.1, &s.2);
            let mut seen = 0u64;
            let mut steps = 0u64;
            loop {
                seen = go.wait(seen);
                if exit.load(Ordering::SeqCst) {
                    break;
                }
                steps += 1;
                if steps.is_multiple_of(7) {
                    std::thread::yield_now();
                }
                done.arrive();
            }
            steps
        });
        let (go, done, exit) = (&shared.0, &shared.1, &shared.2);
        for i in 0..500 {
            go.go();
            if i % 13 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            done.wait_and_reset();
        }
        exit.store(true, Ordering::SeqCst);
        go.go();
        assert_eq!(h.join().unwrap(), 500);
    }
}
