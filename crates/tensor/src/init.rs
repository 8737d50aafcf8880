//! Deterministic weight initialisation.
//!
//! Training runs in this reproduction must be exactly repeatable, so all
//! randomness flows through the tiny [`SplitMix64`] generator seeded
//! explicitly by the caller. The initialisation schemes follow the usual
//! conventions: Xavier/Glorot for tanh/sigmoid layers, He for ReLU layers.
#![expect(
    clippy::disallowed_methods,
    reason = "randomness owner: the PRNG itself and the weight initialisers"
)]

use crate::tensor::Tensor;

/// A tiny, fast, deterministic PRNG (SplitMix64), adequate for weight
/// initialisation and data synthesis where statistical quality requirements
/// are modest and reproducibility is paramount.
///
/// ```
/// use darnet_tensor::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Standard normal sample via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        // Avoid log(0) by clamping away from zero.
        let u1 = self.next_f32().max(1e-7);
        let u2 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_usize requires n > 0");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_usize(i + 1);
            slice.swap(i, j);
        }
    }

    /// Derives an independent generator from this one (useful for giving
    /// each component its own stream).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

/// Xavier/Glorot uniform initialisation for a tensor with the given fan-in
/// and fan-out: `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`.
pub fn xavier_uniform(
    dims: &[usize],
    fan_in: usize,
    fan_out: usize,
    rng: &mut SplitMix64,
) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = rng.uniform(-bound, bound);
    }
    t
}

/// He (Kaiming) normal initialisation: `N(0, sqrt(2/fan_in))`. Appropriate
/// before ReLU nonlinearities.
pub fn he_normal(dims: &[usize], fan_in: usize, rng: &mut SplitMix64) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = rng.normal() * std;
    }
    t
}

/// Plain uniform initialisation in `[lo, hi)`.
pub fn uniform_init(dims: &[usize], lo: f32, hi: f32, rng: &mut SplitMix64) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = rng.uniform(lo, hi);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let v = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = SplitMix64::new(11);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(5);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn xavier_bound_is_respected() {
        let mut rng = SplitMix64::new(9);
        let t = xavier_uniform(&[64, 64], 64, 64, &mut rng);
        let bound = (6.0 / 128.0f32).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound));
        // Not all zeros.
        assert!(t.norm() > 0.0);
    }

    #[test]
    fn he_normal_scales_with_fan_in() {
        let mut rng = SplitMix64::new(10);
        let wide = he_normal(&[1000], 1000, &mut rng);
        let narrow = he_normal(&[1000], 10, &mut rng);
        // Std of narrow init should be ~10x larger.
        let std_w = (wide.sum_squares() / 1000.0).sqrt();
        let std_n = (narrow.sum_squares() / 1000.0).sqrt();
        assert!(std_n > std_w * 5.0, "{std_n} vs {std_w}");
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = SplitMix64::new(1);
        let mut c = a.fork();
        // Forked stream differs from the parent's continuation.
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
