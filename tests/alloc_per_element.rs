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
//! One `#[test]` in its own file, so no other test's allocations land in
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cohort::scenarios::{run_scenario, Runner, Scenario, Workload};

/// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) since start-up.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocation, then forwards to the system allocator.
struct Counting;

// Test-only, and the one `unsafe` outside `cohort-queue`: implementing
// `GlobalAlloc` is unsafe by definition.
// SAFETY: each method only bumps a statistics counter (it publishes no
// other data, hence `Relaxed`) and forwards its arguments unchanged to
// `System`, so the caller's guarantees are exactly what `System` needs.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BATCH: u64 = 64;
const SMALL: u64 = 1024;
const LARGE: u64 = 4096;

/// Heap allocations of one verified Cohort run of `queue` elements.
fn allocs_of_run(workload: Workload, queue: u64) -> u64 {
    let scenario = Scenario::new(workload, queue, BATCH);
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = run_scenario(Runner::Cohort, &scenario, None).expect("admitted");
    assert!(r.verified, "{workload:?} queue {queue} did not verify");
    drop(r);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocations one more element costs, between queue 1024 and 4096.
fn marginal_per_element(workload: Workload) -> f64 {
    let small = allocs_of_run(workload, SMALL);
    let large = allocs_of_run(workload, LARGE);
    (large as f64 - small as f64) / (LARGE - SMALL) as f64
}

#[test]
fn cohort_runs_allocate_almost_nothing_per_element() {
    // (workload, bound); they read 0.215 and 0.632 with rustc 1.95.
    for (workload, bound) in [(Workload::Sha, 0.3), (Workload::Aes, 0.8)] {
        let per_element = marginal_per_element(workload);
        eprintln!("Cohort {workload:?}: {per_element:.3} heap allocations per element");
        assert!(
            per_element <= bound,
            "Cohort {workload:?} makes {per_element:.3} heap allocations per element \
             (bound {bound}): something on the port, directory or MTE path allocates \
             per transaction again"
        );
    }
}
