//! Driver identities.

use darnet_tensor::SplitMix64;

/// A synthetic driver identity.
///
/// Each driver has stable pose offsets, a body scale, a motion-style
/// factor, and a fine identity texture (frequency/phase/amplitude of a
/// subtle clothing pattern). The texture is deliberately *high-frequency*:
/// it survives in full-resolution frames but is destroyed by
/// down-sampling, which is the mechanism behind the paper's observation
/// that the distilled dCNN-L can beat an over-fitted full-resolution CNN
/// (§5.3).
#[derive(Debug, Clone, PartialEq)]
pub struct DriverProfile {
    /// Zero-based driver id.
    pub id: usize,
    /// Horizontal head/seat offset in pixels (-2..2).
    pub head_dx: f32,
    /// Vertical seat offset in pixels (-1.5..1.5).
    pub head_dy: f32,
    /// Body scale multiplier (0.9..1.1).
    pub scale: f32,
    /// Skin/clothing base brightness offset (-0.06..0.06).
    pub brightness: f32,
    /// Identity texture spatial frequency (cycles per pixel).
    pub texture_freq: f32,
    /// Identity texture phase.
    pub texture_phase: f32,
    /// Identity texture amplitude.
    pub texture_amp: f32,
    /// Motion style factor scaling gesture amplitude (0.8..1.2).
    pub motion_style: f32,
    /// Phone mounting jitter for the pocket orientation (radians).
    pub mount_jitter: f32,
}

impl DriverProfile {
    /// Derives a deterministic profile for driver `id` under `seed`.
    pub fn generate(id: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ (0xD21E_55EF ^ (id as u64).wrapping_mul(0x9E37_79B9)));
        DriverProfile {
            id,
            head_dx: rng.uniform(-2.0, 2.0),
            head_dy: rng.uniform(-1.5, 1.5),
            scale: rng.uniform(0.9, 1.1),
            brightness: rng.uniform(-0.06, 0.06),
            // High-frequency: between 0.35 and 0.5 cycles/pixel, i.e. a
            // 2-3 pixel stripe pattern at full resolution (amplitude high
            // enough for a capacious CNN to key on identity).
            texture_freq: rng.uniform(0.35, 0.5),
            texture_phase: rng.uniform(0.0, std::f32::consts::TAU),
            texture_amp: rng.uniform(0.08, 0.14),
            motion_style: rng.uniform(0.8, 1.2),
            mount_jitter: rng.uniform(-0.30, 0.30),
        }
    }

    /// Generates a roster of `n` distinct drivers.
    pub fn roster(n: usize, seed: u64) -> Vec<DriverProfile> {
        (0..n).map(|id| DriverProfile::generate(id, seed)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = DriverProfile::generate(3, 42);
        let b = DriverProfile::generate(3, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_drivers_differ() {
        let a = DriverProfile::generate(0, 42);
        let b = DriverProfile::generate(1, 42);
        assert_ne!(a, b);
        assert_ne!(a.texture_phase, b.texture_phase);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DriverProfile::generate(0, 1);
        let b = DriverProfile::generate(0, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn roster_has_sequential_ids() {
        let roster = DriverProfile::roster(5, 7);
        assert_eq!(roster.len(), 5);
        for (i, d) in roster.iter().enumerate() {
            assert_eq!(d.id, i);
        }
    }

    #[test]
    fn parameters_stay_in_documented_ranges() {
        for id in 0..20 {
            let d = DriverProfile::generate(id, 99);
            assert!((-2.0..=2.0).contains(&d.head_dx));
            assert!((0.9..=1.1).contains(&d.scale));
            assert!((0.35..=0.5).contains(&d.texture_freq));
            assert!((0.08..=0.14).contains(&d.texture_amp));
            assert!((0.8..=1.2).contains(&d.motion_style));
        }
    }
}
