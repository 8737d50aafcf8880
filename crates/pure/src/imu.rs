//! The IMU sample: one reading of the four Android sensor channels the
//! paper's collection agent subscribes to (the synthesizer that draws
//! them is `darnet-sim`'s).

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
    #[inline]
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
    #[inline]
    pub fn from_features(f: &[f32; Self::FEATURES]) -> Self {
        ImuSample {
            accel: [f[0], f[1], f[2]],
            gyro: [f[3], f[4], f[5]],
            gravity: [f[6], f[7], f[8]],
            rotation: [f[9], f[10], f[11]],
        }
    }
}
