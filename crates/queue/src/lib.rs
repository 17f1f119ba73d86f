//! # cohort-queue — lock-free SPSC queues with Cohort descriptors
//!
//! Shared-memory single-producer/single-consumer queues are the lingua
//! franca of the Cohort system (paper §3.2): producers publish data by
//! writing elements and then releasing a write index; consumers observe the
//! index and read the data — *queue coherence*. This crate provides:
//!
//! * [`spsc`] — a real, atomics-based lock-free SPSC ring usable from Rust
//!   threads, with exactly the release/acquire publication protocol the
//!   Cohort engine exploits, plus *staged* (delayed-publication) operations
//!   that implement the paper's batching optimisation in software;
//! * [`descriptor`] — the queue descriptor struct a queue library hands to
//!   `cohort_register` (§4.1.1): virtual addresses of the write/read
//!   indices, the data base, element size and length;
//! * [`layout`] — the standard in-memory layout used when a queue lives in
//!   simulated guest memory (cache-line-separated indices, contiguous data
//!   array), shared between the OS model, the engine and the benchmark
//!   program builders;
//! * [`merge`] — the sequence-tagged merge that reassembles one logical
//!   stream from N shard queues (the software half of driver-level queue
//!   sharding).
//!
//! ## Example
//!
//! ```
//! use cohort_queue::spsc_channel;
//! let (mut tx, mut rx) = spsc_channel::<u64>(8);
//! tx.push(42).unwrap();
//! assert_eq!(rx.pop(), Some(42));
//! ```

pub mod descriptor;
pub mod layout;
pub mod merge;
pub mod pad;
pub mod spsc;

pub use descriptor::{DescriptorError, QueueDescriptor, MAX_ELEMENT_BYTES};
pub use layout::QueueLayout;
pub use merge::{MergeError, SeqMerge, Tagged};
pub use spsc::{spsc_channel, Consumer, Producer, PushError};
