//! One sensor observation: the value an agent polls, stamps and ships.

use crate::{Frame, ImuSample};

/// One sensor observation.
#[derive(Debug, Clone, PartialEq)]
pub enum SensorReading {
    /// A 12-channel IMU sample.
    Imu(ImuSample),
    /// A camera frame.
    Frame(Frame),
}

impl SensorReading {
    /// The IMU sample, if this reading is one.
    pub fn as_imu(&self) -> Option<&ImuSample> {
        match self {
            SensorReading::Imu(s) => Some(s),
            SensorReading::Frame(_) => None,
        }
    }

    /// The frame, if this reading is one.
    pub fn as_frame(&self) -> Option<&Frame> {
        match self {
            SensorReading::Frame(f) => Some(f),
            SensorReading::Imu(_) => None,
        }
    }
}
