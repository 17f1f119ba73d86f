//! Allocation gate: a Cohort run's coherence transactions and MTE
//! operations allocate nothing per element.
//!
//! The file installs a counting global allocator and runs Cohort SHA and
//! AES at batch 64 through `run_scenario` at two queue sizes. The
//! difference between the two runs, divided by the elements added, is the
//! heap allocations one more element costs: per-run setup cancels out.
//! What is left is the accelerator's own output `Vec` per block
//! (`Accelerator::process_block` returns one: 1/8 of an allocation per
//! SHA element, 1/2 per AES element), the sharer sets of lines that stay
//! shared (the directory's state grows with the footprint, about 0.1 per
//! element) and amortised growth. A `Vec` or a fresh queue on the port,
//! directory or MTE path shows up as one allocation per line transaction,
//! which is several per element (before this gate: 4.7 on SHA, 18.2 on
//! AES).
//!
//! The allocator also tracks the most heap bytes live at once. An MMIO
//! SHA run's marginal peak between the same two sizes is what one more
//! element costs in memory: the input, reference and recorded words. Its
//! program is generated as the core runs it, so a runner that collects its
//! op stream back into a `Vec` adds the ops' bytes (72 per element).
//!
//! One `#[test]` in its own file, so no other test's allocations land in
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cohort::scenarios::{run_scenario, Runner, Scenario, Workload};

/// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) since start-up.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Heap bytes live now.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most heap bytes live at once since it was last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// Counts every allocation and the live bytes, then forwards to the
/// system allocator.
struct Counting;

// Test-only, and the one `unsafe` outside `cohort-queue`: implementing
// `GlobalAlloc` is unsafe by definition.
// SAFETY: each method only updates statistics counters (they publish no
// other data, hence `Relaxed`) and forwards its arguments unchanged to
// `System`, so the caller's guarantees are exactly what `System` needs.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BATCH: u64 = 64;
const SMALL: u64 = 1024;
const LARGE: u64 = 4096;
/// Marginal peak heap bytes per element an MMIO SHA run may hold.
const MMIO_PEAK_BOUND: f64 = 60.0;

/// Heap allocations, and the most bytes live at once beyond those live
/// before, of one verified run of `queue` elements.
fn measure(runner: Runner, workload: Workload, queue: u64) -> (u64, u64) {
    let scenario = Scenario::new(workload, queue, BATCH);
    let (allocs, live) = (ALLOCS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    PEAK.store(live, Ordering::Relaxed);
    let r = run_scenario(runner, &scenario, None).expect("admitted");
    assert!(
        r.verified,
        "{runner} {workload:?} queue {queue} did not verify"
    );
    drop(r);
    let peak = PEAK.load(Ordering::Relaxed) - live;
    (ALLOCS.load(Ordering::Relaxed) - allocs, peak)
}

/// Allocations and peak bytes one more element costs, between queue 1024
/// and 4096.
fn marginal_per_element(runner: Runner, workload: Workload) -> (f64, f64) {
    let (allocs_small, peak_small) = measure(runner, workload, SMALL);
    let (allocs_large, peak_large) = measure(runner, workload, LARGE);
    let per = |small: u64, large: u64| (large as f64 - small as f64) / (LARGE - SMALL) as f64;
    (per(allocs_small, allocs_large), per(peak_small, peak_large))
}

#[test]
fn cohort_runs_allocate_almost_nothing_per_element() {
    // (workload, bound); they read 0.215 and 0.632 with rustc 1.95.
    for (workload, bound) in [(Workload::Sha, 0.3), (Workload::Aes, 0.8)] {
        let (per_element, _) = marginal_per_element(Runner::Cohort, workload);
        eprintln!("Cohort {workload:?}: {per_element:.3} heap allocations per element");
        assert!(
            per_element <= bound,
            "Cohort {workload:?} makes {per_element:.3} heap allocations per element \
             (bound {bound}): something on the port, directory or MTE path allocates \
             per transaction again"
        );
    }
    // It reads 23.3, and 104.0 where the runner built its program as a
    // `Vec<Op>`, with rustc 1.95.
    let (_, peak) = marginal_per_element(Runner::Mmio, Workload::Sha);
    eprintln!("MMIO Sha: {peak:.1} peak heap bytes per element");
    assert!(
        peak <= MMIO_PEAK_BOUND,
        "an MMIO SHA run holds {peak:.1} more heap bytes at its peak per element (bound \
         {MMIO_PEAK_BOUND}): a runner collects its op stream into memory again"
    );
}
