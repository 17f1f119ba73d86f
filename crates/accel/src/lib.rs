//! # cohort-accel — stream/buffer-in stream/buffer-out accelerators
//!
//! Functional models of the accelerators integrated in the Cohort paper's
//! FPGA prototype (§5.2), implemented from scratch:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (the OpenCores SHA-256 core's role);
//! * [`aes128`] — FIPS 197 AES-128 encryption/decryption (the OpenCores
//!   AES-128 core's role), key delivered through a CSR struct;
//! * [`stft`] — a fixed-point short-time Fourier transform (mentioned in
//!   §4.3), windowed radix-2 FFT;
//! * [`nullfifo`] — the AXI-Stream FIFO "null accelerator" used to validate
//!   the stream interface.
//!
//! All of them implement the [`Accelerator`] trait: blocks of bytes in,
//! bytes out, with a per-block pipeline latency used by the timing wrappers
//! in `cohort-engine` and `cohort-maple`. The [`ratchet`] module provides
//! the width adapters that resize the Cohort endpoints' 64-bit words to each
//! accelerator's native block size (§4.3).
//!
//! ## Example
//!
//! ```
//! use cohort_accel::{Accelerator, sha256::Sha256Accel};
//!
//! let mut acc = Sha256Accel::new();
//! let block = [0u8; 64]; // one 512-bit input block
//! let digest = acc.process_block(&block);
//! assert_eq!(digest.len(), 32);
//! ```

#![forbid(unsafe_code)]

pub mod accelerator;
pub mod aes128;
pub mod nullfifo;
pub mod ratchet;
pub mod sha256;
pub mod stft;
pub mod timing;

pub use accelerator::{AccelDescriptor, Accelerator, ConfigError};
pub use timing::TimedAccel;
