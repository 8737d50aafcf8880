//! The assembled driving world: drivers, vehicle dynamics, renderer, and
//! IMU synthesizer behind one façade.

use crate::behavior::{CanonicalBehavior, ExtendedBehavior};
use crate::driver::DriverProfile;
use crate::frame::Frame;
use crate::imu::{ImuSample, ImuSynthesizer};
use crate::render::FrameRenderer;
use crate::vehicle::VehicleDynamics;

/// Image sensor noise sigma, both cameras.
const IMAGE_NOISE: f32 = 0.07;
/// IMU white-noise sigma.
const IMU_NOISE: f32 = 0.08;

/// World configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldConfig {
    /// Number of driver identities to generate.
    pub drivers: usize,
    /// Square frame edge length in pixels.
    pub frame_size: usize,
    /// Master seed; every sub-generator derives from it.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            drivers: 5,
            frame_size: 48,
            seed: 0xDA12_2017,
        }
    }
}

/// A deterministic virtual world that answers "what does driver `d`'s
/// camera frame / IMU reading look like at time `t` while performing
/// behaviour `b`?" — the ground-truth generator behind every experiment in
/// this reproduction.
#[derive(Debug, Clone)]
pub struct DrivingWorld {
    config: WorldConfig,
    drivers: Vec<DriverProfile>,
    dynamics: Vec<VehicleDynamics>,
    renderer: FrameRenderer,
    side_renderer: FrameRenderer,
    imu: ImuSynthesizer,
}

impl DrivingWorld {
    /// Builds a world from a configuration.
    pub fn new(config: WorldConfig) -> Self {
        let drivers = DriverProfile::roster(config.drivers, config.seed);
        let dynamics = drivers
            .iter()
            .map(|d| VehicleDynamics::new(d.motion_style))
            .collect();
        let renderer = FrameRenderer::new(config.seed ^ 0xF00D)
            .with_size(config.frame_size)
            .with_noise(IMAGE_NOISE);
        // The side camera is a physically separate sensor: its own seed
        // stream, same optics.
        let side_renderer = FrameRenderer::new(config.seed ^ 0x51DE)
            .with_size(config.frame_size)
            .with_noise(IMAGE_NOISE);
        let imu = ImuSynthesizer::new(config.seed ^ 0xBEEF).with_noise(IMU_NOISE);
        DrivingWorld {
            config,
            drivers,
            dynamics,
            renderer,
            side_renderer,
            imu,
        }
    }

    /// The world configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Number of drivers.
    pub fn driver_count(&self) -> usize {
        self.drivers.len()
    }

    /// The profile of driver `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn driver(&self, id: usize) -> &DriverProfile {
        &self.drivers[id]
    }

    /// Renders an 18-class extended-behaviour frame.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn render_extended_frame(&self, id: usize, behavior: ExtendedBehavior, t: f64) -> Frame {
        self.renderer
            .render_extended(&self.drivers[id], behavior, t)
    }

    /// Renders driver `id`'s dash-camera frame at session time `t` while
    /// performing `class`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn render_canonical_frame(&self, id: usize, class: CanonicalBehavior, t: f64) -> Frame {
        self.renderer.render(&self.drivers[id], class, t)
    }

    /// Renders driver `id`'s side-camera (A-pillar) frame at session time
    /// `t` while performing `class` — the third registered stream.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn render_side_frame(&self, id: usize, class: CanonicalBehavior, t: f64) -> Frame {
        self.side_renderer.render_side(&self.drivers[id], class, t)
    }

    /// Synthesizes the IMU reading of driver `id`'s phone at session time
    /// `t` while performing `class`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn imu_sample_canonical(&self, id: usize, class: CanonicalBehavior, t: f64) -> ImuSample {
        let state = self.dynamics[id].state_at(t);
        self.imu.sample(&self.drivers[id], class, &state, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_is_deterministic() {
        let a = DrivingWorld::new(WorldConfig::default());
        let b = DrivingWorld::new(WorldConfig::default());
        for c in CanonicalBehavior::ALL {
            assert_eq!(
                a.render_canonical_frame(2, c, 3.0),
                b.render_canonical_frame(2, c, 3.0)
            );
            assert_eq!(
                a.render_side_frame(1, c, 2.0),
                b.render_side_frame(1, c, 2.0)
            );
            assert_eq!(
                a.imu_sample_canonical(2, c, 3.0),
                b.imu_sample_canonical(2, c, 3.0)
            );
        }
    }

    #[test]
    fn config_controls_frame_size() {
        let world = DrivingWorld::new(WorldConfig {
            frame_size: 32,
            ..WorldConfig::default()
        });
        let f = world.render_canonical_frame(0, CanonicalBehavior::NormalDriving, 0.0);
        assert_eq!(f.width(), 32);
    }

    #[test]
    fn drivers_have_distinct_dynamics() {
        let world = DrivingWorld::new(WorldConfig::default());
        assert_eq!(world.driver_count(), 5);
        // Different drivers produce different IMU readings at the same
        // instant (style + identity differences).
        let a = world.imu_sample_canonical(0, CanonicalBehavior::NormalDriving, 5.0);
        let b = world.imu_sample_canonical(1, CanonicalBehavior::NormalDriving, 5.0);
        assert_ne!(a, b);
    }

    #[test]
    fn extended_frames_render() {
        let world = DrivingWorld::new(WorldConfig {
            drivers: 10,
            ..WorldConfig::default()
        });
        let f = world.render_extended_frame(9, ExtendedBehavior::Smoking, 1.0);
        assert_eq!(f.width(), 48);
    }

    #[test]
    fn side_camera_is_an_independent_sensor() {
        // Its frames differ from the dash camera's for the same instant.
        let world = DrivingWorld::new(WorldConfig::default());
        assert_ne!(
            world.render_side_frame(2, CanonicalBehavior::Talking, 3.0),
            world.render_canonical_frame(2, CanonicalBehavior::Talking, 3.0)
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_driver_panics() {
        let world = DrivingWorld::new(WorldConfig::default());
        let _ = world.render_canonical_frame(99, CanonicalBehavior::Talking, 0.0);
    }
}
