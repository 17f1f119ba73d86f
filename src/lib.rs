//! Workspace root crate: hosts the integration tests in `tests/` and the
//! runnable examples in `examples/`. The library surface simply re-exports
//! the member crates for convenient use from those targets.

#![forbid(unsafe_code)]

pub use cohort;
pub use cohort_accel;
pub use cohort_engine;
pub use cohort_maple;
pub use cohort_os;
pub use cohort_queue;
pub use cohort_sim;
