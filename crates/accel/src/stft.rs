//! A fixed-point short-time Fourier transform accelerator.
//!
//! The paper mentions a short-time Fourier transform accelerator connected
//! to the Cohort SoC (§4.3, undescribed); this module implements a faithful
//! equivalent: frames of `N` 16-bit PCM samples are Hann-windowed (Q15) and
//! transformed with an in-place radix-2 decimation-in-time FFT using Q14
//! twiddles and per-stage scaling (so the output is `X[k] / N`). The
//! accelerator emits interleaved 16-bit real/imaginary parts for all `N`
//! bins.

use crate::accelerator::{AccelDescriptor, Accelerator, ConfigError};

/// Q15 one (for window coefficients).
const Q15: i32 = 1 << 15;
/// Q14 one (for twiddles).
const Q14: i32 = 1 << 14;

/// A Hann window of length `n` in Q15.
pub fn hann_q15(n: usize) -> Vec<i32> {
    (0..n)
        .map(|i| {
            let x = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * i as f64 / n as f64).cos();
            (x * f64::from(Q15)).round() as i32
        })
        .collect()
}

/// In-place fixed-point radix-2 DIT FFT with per-stage 1/2 scaling.
///
/// `re`/`im` hold Q0 integer samples; on return they hold `X[k] / n`.
///
/// # Panics
/// Panics if the lengths differ or are not a power of two.
pub fn fft_fixed(re: &mut [i32], im: &mut [i32]) {
    let n = re.len();
    assert_eq!(n, im.len(), "re/im length mismatch");
    assert!(
        n.is_power_of_two() && n >= 2,
        "FFT size must be a power of two >= 2"
    );
    // Bit-reverse permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let angle = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                let (wr, wi) = (
                    (angle.cos() * f64::from(Q14)).round() as i64,
                    (angle.sin() * f64::from(Q14)).round() as i64,
                );
                let i0 = start + k;
                let i1 = start + k + half;
                let tr = (wr * i64::from(re[i1]) - wi * i64::from(im[i1])) >> 14;
                let ti = (wr * i64::from(im[i1]) + wi * i64::from(re[i1])) >> 14;
                let ur = i64::from(re[i0]);
                let ui = i64::from(im[i0]);
                // Per-stage scaling by 1/2 keeps magnitudes in range.
                re[i0] = ((ur + tr) >> 1) as i32;
                im[i0] = ((ui + ti) >> 1) as i32;
                re[i1] = ((ur - tr) >> 1) as i32;
                im[i1] = ((ui - ti) >> 1) as i32;
            }
        }
        len *= 2;
    }
}

/// Reference double-precision DFT (for tests): returns `X[k]`, unscaled.
pub fn dft_reference(samples: &[f64]) -> Vec<(f64, f64)> {
    let n = samples.len();
    (0..n)
        .map(|k| {
            let mut re = 0.0;
            let mut im = 0.0;
            for (t, &x) in samples.iter().enumerate() {
                let a = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                re += x * a.cos();
                im += x * a.sin();
            }
            (re, im)
        })
        .collect()
}

/// The STFT accelerator: one frame of `n` i16 samples in, `n` complex i16
/// bins out. A CSR byte toggles the Hann window (1 = on, default).
#[derive(Debug, Clone)]
pub struct StftAccel {
    n: usize,
    window: Vec<i32>,
    windowed: bool,
}

impl Default for StftAccel {
    fn default() -> Self {
        Self::new(256)
    }
}

impl StftAccel {
    /// Creates an STFT accelerator with frame size `n` (power of two).
    ///
    /// # Panics
    /// Panics if `n` is not a power of two `>= 2`.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "frame size must be a power of two"
        );
        Self {
            n,
            window: hann_q15(n),
            windowed: true,
        }
    }
}

impl Accelerator for StftAccel {
    fn descriptor(&self) -> AccelDescriptor {
        AccelDescriptor {
            name: "stft",
            input_block_bytes: 2 * self.n,
            output_block_bytes: 4 * self.n,
            // A streaming FFT core produces a frame roughly every N cycles.
            latency_cycles: self.n as u64,
        }
    }

    fn configure(&mut self, csr: &[u8]) -> Result<(), ConfigError> {
        match csr.first() {
            None | Some(1) => self.windowed = true,
            Some(0) => self.windowed = false,
            Some(other) => return Err(ConfigError::new(format!("unknown window flag {other}"))),
        }
        Ok(())
    }

    fn process_block(&mut self, input: &[u8]) -> Vec<u8> {
        assert_eq!(input.len(), 2 * self.n, "stft frame size mismatch");
        let mut re: Vec<i32> = input
            .chunks_exact(2)
            .map(|c| i32::from(i16::from_le_bytes(c.try_into().expect("2 bytes"))))
            .collect();
        if self.windowed {
            for (x, w) in re.iter_mut().zip(&self.window) {
                *x = (*x * *w) >> 15;
            }
        }
        let mut im = vec![0i32; self.n];
        fft_fixed(&mut re, &mut im);
        let mut out = Vec::with_capacity(4 * self.n);
        for k in 0..self.n {
            out.extend_from_slice(&(re[k].clamp(-32768, 32767) as i16).to_le_bytes());
            out.extend_from_slice(&(im[k].clamp(-32768, 32767) as i16).to_le_bytes());
        }
        out
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let n = 16;
        let mut re = vec![0i32; n];
        let mut im = vec![0i32; n];
        re[0] = 16_384;
        fft_fixed(&mut re, &mut im);
        // X[k] = 16384 for all k; scaled by 1/n -> 1024.
        for k in 0..n {
            assert!((re[k] - 1024).abs() <= 2, "bin {k}: {}", re[k]);
            assert!(im[k].abs() <= 2);
        }
    }

    #[test]
    fn fft_matches_reference_dft() {
        let n = 64;
        let samples: Vec<i32> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                ((2.0 * std::f64::consts::PI * 5.0 * t).sin() * 8000.0) as i32
            })
            .collect();
        let mut re = samples.clone();
        let mut im = vec![0i32; n];
        fft_fixed(&mut re, &mut im);
        let reference = dft_reference(&samples.iter().map(|&x| x as f64).collect::<Vec<_>>());
        for k in 0..n {
            let (er, ei) = (reference[k].0 / n as f64, reference[k].1 / n as f64);
            assert!(
                (f64::from(re[k]) - er).abs() < 16.0,
                "re bin {k}: fixed {} vs ref {er}",
                re[k]
            );
            assert!(
                (f64::from(im[k]) - ei).abs() < 16.0,
                "im bin {k}: fixed {} vs ref {ei}",
                im[k]
            );
        }
    }

    #[test]
    fn sine_concentrates_energy_in_its_bin() {
        let n = 256;
        let mut acc = StftAccel::new(n);
        acc.configure(&[0]).unwrap(); // window off for exact bins
        let bin = 10usize;
        let input: Vec<u8> = (0..n)
            .flat_map(|i| {
                let t = i as f64 / n as f64;
                let s = (2.0 * std::f64::consts::PI * bin as f64 * t).cos() * 16000.0;
                (s as i16).to_le_bytes()
            })
            .collect();
        let out = acc.process_block(&input);
        let mag = |k: usize| {
            let r = i16::from_le_bytes([out[4 * k], out[4 * k + 1]]) as f64;
            let i = i16::from_le_bytes([out[4 * k + 2], out[4 * k + 3]]) as f64;
            (r * r + i * i).sqrt()
        };
        let peak = mag(bin);
        for k in 0..n / 2 {
            if k != bin {
                assert!(
                    mag(k) < peak / 4.0,
                    "bin {k} too strong: {} vs {peak}",
                    mag(k)
                );
            }
        }
    }

    #[test]
    fn hann_window_is_symmetric_and_bounded() {
        let w = hann_q15(128);
        assert_eq!(w[0], 0);
        for i in 0..128 {
            assert!(w[i] >= 0 && w[i] <= Q15);
            if i > 0 {
                assert_eq!(w[i], w[128 - i], "symmetry at {i}");
            }
        }
    }

    #[test]
    fn descriptor_geometry() {
        let acc = StftAccel::new(256);
        let d = acc.descriptor();
        assert_eq!(d.input_block_bytes, 512);
        assert_eq!(d.output_block_bytes, 1024);
    }
}
