//! A fixed reference computation that measures how fast the host is running right
//! now, so timings can be reported at a nominal host speed.
//!
//! On a shared host the speed of the same code drifts by up to 2x over minutes
//! (another tenant's load, not this process's), which would swamp any change to the
//! program. Each workload runs the reference in its own quiet moments — between
//! training epochs, and between serving segments once every request is answered — and
//! scales the timing next to it by `NOMINAL_MS / reference time`. The reference is
//! plain Rust in this package: no change to the program under test can alter it.

use std::time::Instant;

/// Duration of one reference run on an unloaded host of the kind the benchmark was
/// defined on (2-vCPU Xeon); the scale normalised timings are reported in.
pub const NOMINAL_MS: f64 = 9.0;

const VECTOR_LEN: usize = 16 * 1024;
const VECTOR_PASSES: usize = 200;
const SCALAR_STEPS: usize = 100_000;
const COPY_LEN: usize = 1 << 18;
const COPY_PASSES: usize = 16;
const FMA_LEN: usize = 4096;
const FMA_PASSES: usize = 200;

/// The reference computation and the durations it has measured.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    src: Vec<f32>,
    dst: Vec<f32>,
    samples_ms: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self {
            a: (0..VECTOR_LEN).map(|i| (i % 13) as f32 * 0.01).collect(),
            b: (0..VECTOR_LEN).map(|i| (i % 7) as f32 * 0.02).collect(),
            c: (0..FMA_LEN).map(|i| (i % 13) as f32 * 0.01).collect(),
            src: vec![1.0; COPY_LEN],
            dst: vec![0.0; COPY_LEN],
            samples_ms: Vec::new(),
        }
    }
}

impl Reference {
    /// Runs the reference once — vector arithmetic on cache-resident data, scalar
    /// transcendentals, a cache-sized copy and scalar fused multiply-adds — and returns
    /// the factor that scales a duration measured next to it to the nominal host speed.
    /// The mix was picked on a shared 2-vCPU Xeon host: scaling training epochs by it
    /// cut the spread of their median over eight runs from 12 % to 4 %.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..VECTOR_PASSES {
            for (a, b) in self.a.iter_mut().zip(&self.b) {
                *a = *a * 0.999 + *b;
            }
        }
        std::hint::black_box(&self.a);
        let mut acc = 0.0f32;
        for i in 0..SCALAR_STEPS {
            acc += ((i % 100) as f32 * 0.01).exp().tanh();
        }
        std::hint::black_box(acc);
        for _ in 0..COPY_PASSES {
            self.dst.copy_from_slice(std::hint::black_box(&self.src));
            std::hint::black_box(&self.dst);
        }
        for _ in 0..FMA_PASSES {
            for c in &mut self.c {
                *c = c.mul_add(0.999, 0.001);
            }
        }
        std::hint::black_box(&self.c);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        NOMINAL_MS / ms
    }

    /// Mean reference duration so far (ms).
    pub fn mean_ms(&self) -> f64 {
        crate::stats::mean(&self.samples_ms)
    }

    /// Number of reference runs so far.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_records_each_run() {
        let mut r = Reference::default();
        let scale = r.sample();
        assert!(scale.is_finite() && scale > 0.0);
        r.sample();
        assert_eq!(r.samples(), 2);
        assert!(r.mean_ms() > 0.0);
    }
}
