//! IMU synthesis for the driver's mobile device.
//!
//! The paper's collection agent registers listeners for the accelerometer,
//! gyroscope, gravity, and rotation sensors (25 ms updates). This module
//! produces the same four 3-axis channels as a deterministic function of
//! phone orientation (texting / talking / pocket), driver gesture dynamics,
//! and the shared vehicle motion.
//!
//! Signal design notes:
//!
//! * **Texting** — screen-up orientation, high-frequency low-amplitude
//!   typing jitter (~8 Hz) on the accelerometer.
//! * **Talking** — vertical at the ear, slow ~1 Hz sway from head/arm
//!   movement, tilted gravity vector.
//! * **Pocket (normal)** — gravity along the device's y axis, dominated by
//!   road vibration and vehicle dynamics.
//! * **Reaching** — pocket orientation *plus* large low-frequency torso
//!   sway bursts. The paper observes exactly this effect: "the movement
//!   that occurs when reaching for an object adds enough noise to the IMU
//!   data to produce a talking classification" (§5.2).
//! * **Drowsiness** — pocket orientation with a slow slump, near-silent
//!   between sparse, sharp steering-correction jerks.

use darnet_tensor::SplitMix64;

use crate::behavior::{CanonicalBehavior, ImuClass};
use crate::driver::DriverProfile;
use crate::vehicle::VehicleState;

/// Standard gravity in m/s².
pub const G: f32 = 9.81;

/// One multimodal IMU reading (all four Android sensor channels the
/// paper's agent subscribes to).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuSample {
    /// Accelerometer (includes gravity), m/s².
    pub accel: [f32; 3],
    /// Gyroscope, rad/s.
    pub gyro: [f32; 3],
    /// Gravity sensor (low-passed gravity direction), m/s².
    pub gravity: [f32; 3],
    /// Rotation vector (roll, pitch, yaw), radians.
    pub rotation: [f32; 3],
}

impl ImuSample {
    /// Number of scalar features per sample.
    pub const FEATURES: usize = 12;

    /// Flattens the sample to a 12-element feature vector in channel order
    /// accel, gyro, gravity, rotation.
    pub fn to_features(&self) -> [f32; Self::FEATURES] {
        [
            self.accel[0],
            self.accel[1],
            self.accel[2],
            self.gyro[0],
            self.gyro[1],
            self.gyro[2],
            self.gravity[0],
            self.gravity[1],
            self.gravity[2],
            self.rotation[0],
            self.rotation[1],
            self.rotation[2],
        ]
    }

    /// Reconstructs a sample from a 12-element feature vector.
    pub fn from_features(f: &[f32; Self::FEATURES]) -> Self {
        ImuSample {
            accel: [f[0], f[1], f[2]],
            gyro: [f[3], f[4], f[5]],
            gravity: [f[6], f[7], f[8]],
            rotation: [f[9], f[10], f[11]],
        }
    }
}

/// Deterministic IMU signal generator.
#[derive(Debug, Clone)]
pub struct ImuSynthesizer {
    seed: u64,
    noise_sigma: f32,
}

impl ImuSynthesizer {
    /// Creates a synthesizer with the given seed.
    pub fn new(seed: u64) -> Self {
        ImuSynthesizer {
            seed,
            noise_sigma: 0.08,
        }
    }

    /// Overrides the white-noise sigma added to every channel.
    pub fn with_noise(mut self, sigma: f32) -> Self {
        self.noise_sigma = sigma;
        self
    }

    /// Synthesizes the IMU reading at time `t` for a driver performing
    /// `class` while the vehicle is in `vehicle` state.
    ///
    /// The Table-1 classes hold the phone in their [`ImuClass`]
    /// orientation with that class's gesture jitter. The two drowsiness
    /// classes have a *micro-correction* signature instead: the device
    /// sits in the pocket, voluntary gesture energy is low, the steering
    /// wander is slow — and sparse, sharp correction jerks fire when the
    /// drowsy driver snaps the wheel back, stronger and rarer the deeper
    /// the drowsiness.
    pub fn sample(
        &self,
        driver: &DriverProfile,
        class: CanonicalBehavior,
        vehicle: &VehicleState,
        t: f64,
    ) -> ImuSample {
        let mut rng = SplitMix64::new(
            self.seed
                ^ (driver.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ ((t * 10_000.0) as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)
                ^ class.salt(),
        );
        let motion = if class.is_drowsy() {
            drowsy_motion(driver, class, t)
        } else {
            task_motion(driver, class, t)
        };
        self.observe(motion, vehicle, &mut rng)
    }

    /// The sensor side shared by every class: gravity from the phone's
    /// orientation, vehicle acceleration projected into the device frame,
    /// road vibration, then white noise on every channel — the one draw
    /// order every seeded sample depends on.
    fn observe(&self, motion: Motion, vehicle: &VehicleState, rng: &mut SplitMix64) -> ImuSample {
        let Motion {
            roll,
            pitch,
            yaw,
            jitter_acc,
            jitter_gyro,
        } = motion;
        // Gravity vector from orientation (simplified rotation: pitch then
        // roll applied to (0, 0, g)).
        let gravity = [
            G * pitch.sin(),
            -G * roll.sin() * pitch.cos(),
            G * roll.cos() * pitch.cos(),
        ];

        // Vehicle common-mode acceleration projected into the device frame
        // (approximate: longitudinal couples to the pitch axis pair,
        // lateral to the roll pair).
        let veh_acc = [
            vehicle.accel_long * pitch.cos() + vehicle.accel_lat * yaw.sin(),
            vehicle.accel_lat * yaw.cos(),
            -vehicle.accel_long * pitch.sin(),
        ];
        // Road vibration: broadband, scaled by vehicle state.
        let vib = vehicle.vibration;
        let vib_acc = [rng.normal() * vib, rng.normal() * vib, rng.normal() * vib];

        let noise = self.noise_sigma;
        let accel = [
            gravity[0] + veh_acc[0] + jitter_acc[0] + vib_acc[0] + rng.normal() * noise,
            gravity[1] + veh_acc[1] + jitter_acc[1] + vib_acc[1] + rng.normal() * noise,
            gravity[2] + veh_acc[2] + jitter_acc[2] + vib_acc[2] + rng.normal() * noise,
        ];
        let gyro = [
            jitter_gyro[0] + vehicle.yaw_rate * yaw.sin() + rng.normal() * noise * 0.3,
            jitter_gyro[1] + vehicle.yaw_rate * yaw.cos() + rng.normal() * noise * 0.3,
            jitter_gyro[2] + vehicle.yaw_rate * 0.2 + rng.normal() * noise * 0.3,
        ];
        let rotation = [
            roll + rng.normal() * noise * 0.05,
            pitch + rng.normal() * noise * 0.05,
            yaw + vehicle.yaw_rate * 0.1 + rng.normal() * noise * 0.05,
        ];
        ImuSample {
            accel,
            gyro,
            gravity: [
                gravity[0] + rng.normal() * noise * 0.1,
                gravity[1] + rng.normal() * noise * 0.1,
                gravity[2] + rng.normal() * noise * 0.1,
            ],
            rotation,
        }
    }
}

/// What the driver does to the phone at one instant: its orientation
/// (roll, pitch, yaw, radians) and the gesture's acceleration and
/// angular-rate jitter, before the vehicle and the sensor add theirs.
struct Motion {
    roll: f32,
    pitch: f32,
    yaw: f32,
    jitter_acc: [f32; 3],
    jitter_gyro: [f32; 3],
}

/// The phone's motion during a Table-1 class.
fn task_motion(driver: &DriverProfile, class: CanonicalBehavior, t: f64) -> Motion {
    let phone = class.imu_class();
    let tf = t as f32;
    let style = driver.motion_style;
    let mj = driver.mount_jitter;

    // Base orientation (roll, pitch, yaw) and gravity direction per
    // class.
    // Base orientations deliberately overlap across drivers and
    // holding styles (wide mount jitter + slow hand wander): gravity
    // direction alone is not enough to separate the classes, so the
    // temporal signatures below carry much of the class information —
    // the regime where the paper's RNN beats the SVM.
    let wander = 0.25 * ((t * 0.13) as f32 + driver.texture_phase).sin();
    let (mut roll, mut pitch, mut yaw) = match phone {
        // Screen up-ish, pitch varies with how the phone is held.
        ImuClass::Texting => (0.20 + 2.0 * mj + wander, 0.60 + wander, 0.1),
        // Tilted toward the ear.
        ImuClass::Talking => (0.55 + 2.0 * mj + wander, 0.50 - 0.5 * wander, 0.3),
        // Roughly horizontal in the front-right pocket.
        ImuClass::Normal => (0.30 + 2.0 * mj - wander, 0.80 + wander, 0.7),
    };

    // Gesture dynamics per class (plus the reaching special case).
    let mut jitter_acc = [0.0f32; 3];
    let mut jitter_gyro = [0.0f32; 3];
    match phone {
        ImuClass::Texting => {
            // Typing: ~8 Hz micro-taps plus slow hand drift.
            let tap = (tf * std::f32::consts::TAU * 8.3 + driver.texture_phase).sin() * 1.0 * style;
            let drift = (tf * 0.6).sin() * 0.15;
            jitter_acc = [tap * 0.4, tap, 0.3 * tap + drift];
            jitter_gyro = [0.05 * tap, 0.04 * tap, 0.02 * tap];
            roll += 0.03 * (tf * 1.1).sin();
            pitch += 0.04 * (tf * 0.9).sin();
        }
        ImuClass::Talking => {
            // Head/arm sway ~1.2 Hz, moderate amplitude.
            let sway =
                (tf * std::f32::consts::TAU * 1.2 + driver.texture_phase).sin() * 0.8 * style;
            jitter_acc = [sway, 0.3 * sway, 0.2 * sway];
            jitter_gyro = [0.15 * sway, 0.10 * sway, 0.05 * sway];
            roll += 0.08 * (tf * 1.3).sin();
            yaw += 0.05 * (tf * 0.7).sin();
        }
        ImuClass::Normal => {
            if class == CanonicalBehavior::Reaching {
                // Torso sway bursts: large, low-frequency — confusable
                // with the talking sway through a pocketed device.
                let burst_gate = ((tf * 0.9).sin() > 0.2) as u8 as f32;
                let sway = (tf * std::f32::consts::TAU * 1.1).sin() * 1.0 * style * burst_gate;
                jitter_acc = [sway, 0.5 * sway, 0.3 * sway];
                jitter_gyro = [0.12 * sway, 0.08 * sway, 0.06 * sway];
                roll += 0.10 * (tf * 1.0).sin() * burst_gate;
            } else if class == CanonicalBehavior::EatingDrinking
                || class == CanonicalBehavior::HairMakeup
            {
                // Mild body movement, clearly below the talking sway.
                let sway = (tf * std::f32::consts::TAU * 0.8).sin() * 0.25 * style;
                jitter_acc = [sway, 0.2 * sway, 0.1 * sway];
                jitter_gyro = [0.03 * sway, 0.02 * sway, 0.02 * sway];
            }
        }
    }
    Motion {
        roll,
        pitch,
        yaw,
        jitter_acc,
        jitter_gyro,
    }
}

/// The phone's motion during a drowsiness class: micro-corrections.
fn drowsy_motion(driver: &DriverProfile, class: CanonicalBehavior, t: f64) -> Motion {
    let tf = t as f32;
    let style = driver.motion_style;
    let mj = driver.mount_jitter;

    // Pocket orientation, same family as normal driving but with a
    // slower, wider wander — the drowsy body slumps gradually.
    let wander = 0.35 * ((t * 0.05) as f32 + driver.texture_phase).sin();
    let depth = match class {
        CanonicalBehavior::HeadDroop => 1.0f32,
        _ => 0.5,
    };
    let mut roll: f32 = 0.30 + 2.0 * mj - wander;
    let mut pitch: f32 = 0.80 + wander + 0.06 * depth;
    let yaw: f32 = 0.7;

    // Micro-corrections: long quiet stretches, then a sharp wheel jerk.
    // The gate opens rarely (rarer and harder with depth), producing a
    // spiky first-difference profile no Table-1 class has.
    let gate = (((tf * 0.31) + driver.texture_phase).sin() > (0.90 + 0.05 * depth)) as u8 as f32;
    let jerk = (tf * std::f32::consts::TAU * 2.4).sin() * (0.9 + 0.9 * depth) * style * gate;
    // Between corrections only a faint sub-gesture tremor remains —
    // less voluntary motion than any distraction class.
    let tremor = (tf * std::f32::consts::TAU * 0.4).sin() * 0.08 * style;
    let jitter_acc = [jerk + tremor, 0.4 * jerk, 0.2 * jerk + 0.5 * tremor];
    let jitter_gyro = [0.20 * jerk, 0.12 * jerk, 0.30 * jerk + 0.02 * tremor];
    roll += 0.05 * (tf * 0.3).sin() * depth;
    pitch += 0.04 * (tf * 0.2).sin() * depth;
    Motion {
        roll,
        pitch,
        yaw,
        jitter_acc,
        jitter_gyro,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vehicle::VehicleDynamics;

    fn setup() -> (ImuSynthesizer, DriverProfile, VehicleState) {
        let synth = ImuSynthesizer::new(42);
        let driver = DriverProfile::generate(0, 42);
        let vehicle = VehicleDynamics::new(1.0).state_at(10.0);
        (synth, driver, vehicle)
    }

    #[test]
    fn sampling_is_deterministic() {
        let (synth, driver, vehicle) = setup();
        for c in CanonicalBehavior::ALL {
            let a = synth.sample(&driver, c, &vehicle, 1.0);
            let b = synth.sample(&driver, c, &vehicle, 1.0);
            assert_eq!(a, b, "{c}");
        }
    }

    #[test]
    fn gravity_magnitude_is_about_g() {
        let (synth, driver, vehicle) = setup();
        for b in CanonicalBehavior::ALL {
            let s = synth.sample(&driver, b, &vehicle, 2.0);
            let mag = (s.gravity[0].powi(2) + s.gravity[1].powi(2) + s.gravity[2].powi(2)).sqrt();
            assert!((mag - G).abs() < 0.5, "{b}: |gravity| = {mag}");
        }
    }

    #[test]
    fn orientation_class_means_differ_but_overlap() {
        // Orientations are *deliberately* overlapping (wide mount jitter +
        // hand wander) so gravity direction alone cannot separate the
        // classes — but the class mean directions must still differ, or no
        // model could learn the problem at all.
        let synth = ImuSynthesizer::new(42).with_noise(0.0);
        let vehicle = VehicleDynamics::new(1.0).state_at(12.0);
        let mean_gravity = |b: CanonicalBehavior| -> [f32; 3] {
            let mut acc = [0.0f32; 3];
            let mut n = 0.0f32;
            for d in 0..5 {
                let driver = DriverProfile::generate(d, 42);
                for i in 0..40 {
                    let s = synth.sample(&driver, b, &vehicle, i as f64 * 0.25);
                    for (a, g) in acc.iter_mut().zip(&s.gravity) {
                        *a += g;
                    }
                    n += 1.0;
                }
            }
            [acc[0] / n, acc[1] / n, acc[2] / n]
        };
        let cos = |a: &[f32; 3], b: &[f32; 3]| {
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|v| v * v).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|v| v * v).sum::<f32>().sqrt();
            dot / (na * nb)
        };
        let texting = mean_gravity(CanonicalBehavior::Texting);
        let talking = mean_gravity(CanonicalBehavior::Talking);
        let pocket = mean_gravity(CanonicalBehavior::NormalDriving);
        assert!(
            cos(&texting, &pocket) < 0.999,
            "texting vs pocket too close"
        );
        assert!(
            cos(&talking, &pocket) < 0.999,
            "talking vs pocket too close"
        );
        assert!(
            cos(&texting, &talking) < 0.9999,
            "texting vs talking identical"
        );
    }

    #[test]
    fn texting_has_higher_frequency_energy_than_pocket() {
        let (synth, driver, _) = setup();
        let vehicle = VehicleDynamics::new(1.0).state_at(12.0); // cruise, low vibration variance
                                                                // First-difference energy as a crude high-frequency proxy.
        let diff_energy = |b: CanonicalBehavior| -> f32 {
            let mut prev = synth.sample(&driver, b, &vehicle, 0.0).accel[1];
            let mut acc = 0.0;
            for i in 1..200 {
                let t = i as f64 * 0.025;
                let cur = synth.sample(&driver, b, &vehicle, t).accel[1];
                acc += (cur - prev).powi(2);
                prev = cur;
            }
            acc
        };
        let texting = diff_energy(CanonicalBehavior::Texting);
        let normal = diff_energy(CanonicalBehavior::NormalDriving);
        assert!(texting > normal, "texting {texting} vs normal {normal}");
    }

    #[test]
    fn reaching_is_noisier_than_plain_normal() {
        let (synth, driver, vehicle) = setup();
        let var = |b: CanonicalBehavior| -> f32 {
            let samples: Vec<f32> = (0..200)
                .map(|i| synth.sample(&driver, b, &vehicle, i as f64 * 0.025).accel[0])
                .collect();
            let mean = samples.iter().sum::<f32>() / samples.len() as f32;
            samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / samples.len() as f32
        };
        assert!(var(CanonicalBehavior::Reaching) > var(CanonicalBehavior::NormalDriving) * 1.2);
    }

    #[test]
    fn drowsy_imu_is_quieter_between_corrections() {
        let driver = DriverProfile::generate(0, 42);
        // Drowsy micro-corrections are sparse: median first-difference
        // energy sits below texting's continuous typing jitter.
        let synth = ImuSynthesizer::new(42).with_noise(0.0);
        let vehicle = VehicleDynamics::new(1.0).state_at(12.0);
        let diffs = |f: &dyn Fn(f64) -> f32| -> Vec<f32> {
            let mut prev = f(0.0);
            (1..200)
                .map(|i| {
                    let cur = f(i as f64 * 0.025);
                    let d = (cur - prev).abs();
                    prev = cur;
                    d
                })
                .collect()
        };
        let median = |mut v: Vec<f32>| -> f32 {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        let drowsy = median(diffs(&|t| {
            synth
                .sample(&driver, CanonicalBehavior::EyesClosing, &vehicle, t)
                .accel[1]
        }));
        let texting = median(diffs(&|t| {
            synth
                .sample(&driver, CanonicalBehavior::Texting, &vehicle, t)
                .accel[1]
        }));
        assert!(
            drowsy < texting,
            "drowsy median diff {drowsy} not below texting {texting}"
        );
    }

    #[test]
    fn features_roundtrip() {
        let (synth, driver, vehicle) = setup();
        let s = synth.sample(&driver, CanonicalBehavior::Talking, &vehicle, 5.0);
        let f = s.to_features();
        assert_eq!(ImuSample::from_features(&f), s);
    }

    #[test]
    fn vehicle_turn_shows_up_in_gyro() {
        let synth = ImuSynthesizer::new(42).with_noise(0.0);
        let driver = DriverProfile::generate(0, 42);
        let dynamics = VehicleDynamics::new(1.0);
        let straight = dynamics.state_at(12.0);
        let turning = dynamics.state_at(25.5);
        let s_straight = synth.sample(&driver, CanonicalBehavior::NormalDriving, &straight, 12.0);
        let s_turn = synth.sample(&driver, CanonicalBehavior::NormalDriving, &turning, 25.5);
        let mag = |g: &[f32; 3]| g.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(mag(&s_turn.gyro) > mag(&s_straight.gyro));
    }
}
