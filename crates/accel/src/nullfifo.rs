//! The "null accelerator": an AXI-Stream FIFO passthrough.
//!
//! The paper demonstrates AXI-Stream functionality using an AXI-Stream FIFO
//! as a null accelerator (§4.3) — data out equals data in, with a small
//! configurable latency. Useful for validating the stream interface and for
//! measuring pure communication overhead (zero-compute ablation).

use crate::accelerator::{AccelDescriptor, Accelerator, ConfigError};

/// A passthrough FIFO with configurable word size and latency.
#[derive(Debug, Clone)]
pub struct NullFifo {
    block_bytes: usize,
    latency: u64,
}

impl Default for NullFifo {
    fn default() -> Self {
        Self::new()
    }
}

impl NullFifo {
    /// Creates a 64-bit-wide FIFO with a 1-cycle latency.
    pub fn new() -> Self {
        Self {
            block_bytes: 8,
            latency: 1,
        }
    }

    /// Creates a FIFO with a custom width and latency.
    ///
    /// # Panics
    /// Panics if `block_bytes` is zero.
    pub fn with_geometry(block_bytes: usize, latency: u64) -> Self {
        assert!(block_bytes > 0, "block size must be positive");
        Self {
            block_bytes,
            latency,
        }
    }
}

impl Accelerator for NullFifo {
    fn descriptor(&self) -> AccelDescriptor {
        AccelDescriptor {
            name: "nullfifo",
            input_block_bytes: self.block_bytes,
            output_block_bytes: self.block_bytes,
            latency_cycles: self.latency,
        }
    }

    fn configure(&mut self, _csr: &[u8]) -> Result<(), ConfigError> {
        Ok(())
    }

    fn process_block(&mut self, input: &[u8]) -> Vec<u8> {
        assert_eq!(
            input.len(),
            self.block_bytes,
            "nullfifo block size mismatch"
        );
        input.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough() {
        let mut f = NullFifo::new();
        let data = [1, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(f.process_block(&data), data.to_vec());
    }

    #[test]
    fn custom_geometry() {
        let f = NullFifo::with_geometry(16, 3);
        let d = f.descriptor();
        assert_eq!(d.input_block_bytes, 16);
        assert_eq!(d.latency_cycles, 3);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_block_size_panics() {
        let mut f = NullFifo::new();
        let _ = f.process_block(&[0; 4]);
    }
}
