//! The SBIO accelerator abstraction.
//!
//! Cohort targets accelerators with a *stream/buffer in, stream/buffer out*
//! communication pattern (paper §1): they consume fixed-size input blocks
//! and produce output blocks, behind a latency-insensitive valid/ready
//! interface. The [`Accelerator`] trait captures exactly that functional
//! contract; the *timing* (pipeline latency, ratcheting to 64-bit words,
//! valid/ready back-pressure) is applied by the hosting unit — the Cohort
//! engine or the MAPLE baseline.

/// Static properties of an accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelDescriptor {
    /// Human-readable name.
    pub name: &'static str,
    /// Bytes consumed per invocation (the "data block" of §4.3).
    pub input_block_bytes: usize,
    /// Bytes produced per invocation; `0` means variable-size output.
    pub output_block_bytes: usize,
    /// Compute latency in cycles for one block (paper §6.1: SHA-256 is 66,
    /// AES-128 is 41).
    pub latency_cycles: u64,
}

/// Error returned when a CSR configuration buffer is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid accelerator configuration: {}", self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// Creates an error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
        }
    }
}

/// A stream/buffer-in stream/buffer-out accelerator.
///
/// Implementations are purely functional: `process_block` consumes exactly
/// `descriptor().input_block_bytes` bytes and returns the produced output
/// (possibly empty for accelerators that buffer internally, possibly
/// variable-length). Hosts apply the descriptor's latency.
// `Send`: `cohort::native::cohort_register` moves the box into its thread.
pub trait Accelerator: Send {
    /// Static properties.
    fn descriptor(&self) -> AccelDescriptor;

    /// Applies a CSR configuration struct (paper §4.3: a virtually
    /// contiguous buffer handed over at registration, e.g. the AES key).
    ///
    /// # Errors
    /// Returns [`ConfigError`] if the buffer does not match the
    /// accelerator's expected layout.
    fn configure(&mut self, csr: &[u8]) -> Result<(), ConfigError> {
        let _ = csr;
        Ok(())
    }

    /// Processes one input block.
    ///
    /// # Panics
    /// Implementations may panic if `input.len()` differs from
    /// `descriptor().input_block_bytes`.
    fn process_block(&mut self, input: &[u8]) -> Vec<u8>;
}

impl std::fmt::Debug for dyn Accelerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Accelerator({})", self.descriptor().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_display() {
        let e = ConfigError::new("missing key");
        assert_eq!(
            e.to_string(),
            "invalid accelerator configuration: missing key"
        );
    }

    /// Each CSR parser accepts mode 0 only: AES's direction byte and
    /// SHA-256's mode byte are refused at 1 as at any other value.
    #[test]
    fn csr_parsers_refuse_unknown_modes() {
        use crate::{aes128::Aes128Accel, sha256::Sha256Accel};
        let mut aes_csr = [0u8; 17];
        assert!(Aes128Accel::new().configure(&aes_csr).is_ok());
        assert!(Sha256Accel::new().configure(&[0]).is_ok());
        for mode in [1, 2, 255] {
            aes_csr[16] = mode;
            assert!(
                Aes128Accel::new().configure(&aes_csr).is_err(),
                "AES {mode}"
            );
            assert!(Sha256Accel::new().configure(&[mode]).is_err(), "SHA {mode}");
        }
    }
}
