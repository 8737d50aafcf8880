//! Sensor abstraction and the scripted DarNet sensor (IMU, front or side
//! camera) backed by the synthetic driving world.

use std::sync::Arc;

use darnet_sim::{CanonicalBehavior, DrivingWorld, Frame, ImuSample, Segment};

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

/// A pollable device sensor.
///
/// The paper's collection agent "periodically polls the device's sensor";
/// the poll period should match the sensor's own operating frequency
/// (25 ms for the Android sensor manager in the paper's setup).
pub trait Sensor: Send {
    /// Stable sensor name, used as the TSDB metric prefix.
    fn name(&self) -> &str;

    /// Native sampling period in seconds.
    fn period(&self) -> f64;

    /// Produces the reading at true time `t`.
    fn sample(&mut self, t: f64) -> SensorReading;
}

/// Looks up the scripted class at session time `t` for a sorted,
/// per-driver segment list. Falls back to `fallback` outside the script.
pub(crate) fn scripted_at(
    segments: &[Segment<CanonicalBehavior>],
    t: f64,
    fallback: CanonicalBehavior,
) -> CanonicalBehavior {
    // Segments are contiguous and sorted by start.
    let idx = segments.partition_point(|s| s.start <= t);
    if idx == 0 {
        return segments.first().map(|s| s.behavior).unwrap_or(fallback);
    }
    let seg = &segments[idx - 1];
    if seg.contains(t) {
        seg.behavior
    } else {
        fallback
    }
}

/// One driver's slice of a script.
pub(crate) fn driver_script(
    segments: &[Segment<CanonicalBehavior>],
    driver: usize,
) -> Vec<Segment<CanonicalBehavior>> {
    segments
        .iter()
        .filter(|s| s.driver == driver)
        .copied()
        .collect()
}

/// Which physical camera a scripted camera sensor models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CameraView {
    /// The dash-mounted front view (the paper's Nexus 7 placement).
    Front,
    /// The passenger-side A-pillar profile view.
    Side,
}

/// A sensor of the synthetic driving world following one driver's
/// script: the phone IMU (the paper's Nexus S agent:
/// accelerometer, gyroscope, gravity, and rotation listeners at 25 ms;
/// drowsy classes emit micro-correction signatures instead of
/// manipulation jitter) or a camera in one of two views of the same
/// session, which disagree in geometry but agree in ground truth.
pub struct ScriptedSensor {
    world: Arc<DrivingWorld>,
    driver: usize,
    segments: Vec<Segment<CanonicalBehavior>>,
    period: f64,
    /// `None` for the IMU.
    view: Option<CameraView>,
    name: String,
}

impl ScriptedSensor {
    fn new(
        world: Arc<DrivingWorld>,
        driver: usize,
        mut segments: Vec<Segment<CanonicalBehavior>>,
        period: f64,
        view: Option<CameraView>,
    ) -> Self {
        segments.sort_by(|a, b| a.start.total_cmp(&b.start));
        let tag = match view {
            None => "imu",
            Some(CameraView::Front) => "camera.front",
            Some(CameraView::Side) => "camera.side",
        };
        ScriptedSensor {
            world,
            driver,
            segments,
            period,
            view,
            name: format!("{tag}.driver{driver}"),
        }
    }

    /// The phone IMU of `driver` following the given (session-local)
    /// segment script.
    pub fn imu(
        world: Arc<DrivingWorld>,
        driver: usize,
        segments: Vec<Segment<CanonicalBehavior>>,
        period: f64,
    ) -> Self {
        ScriptedSensor::new(world, driver, segments, period, None)
    }

    /// A camera on `driver` with the given view.
    pub fn camera(
        world: Arc<DrivingWorld>,
        driver: usize,
        segments: Vec<Segment<CanonicalBehavior>>,
        period: f64,
        view: CameraView,
    ) -> Self {
        ScriptedSensor::new(world, driver, segments, period, Some(view))
    }
}

impl Sensor for ScriptedSensor {
    fn name(&self) -> &str {
        &self.name
    }

    fn period(&self) -> f64 {
        self.period
    }

    fn sample(&mut self, t: f64) -> SensorReading {
        let class = scripted_at(&self.segments, t, CanonicalBehavior::NormalDriving);
        match self.view {
            None => SensorReading::Imu(self.world.imu_sample_canonical(self.driver, class, t)),
            Some(CameraView::Front) => {
                SensorReading::Frame(self.world.render_canonical_frame(self.driver, class, t))
            }
            Some(CameraView::Side) => {
                SensorReading::Frame(self.world.render_side_frame(self.driver, class, t))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darnet_sim::WorldConfig;

    fn script() -> Vec<Segment<CanonicalBehavior>> {
        vec![
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::NormalDriving,
                start: 0.0,
                duration: 15.0,
            },
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::Texting,
                start: 15.0,
                duration: 15.0,
            },
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::Talking,
                start: 30.0,
                duration: 15.0,
            },
        ]
    }

    #[test]
    fn behavior_lookup_follows_script() {
        let s = script();
        let at = |t| scripted_at(&s, t, CanonicalBehavior::NormalDriving);
        assert_eq!(at(0.0), CanonicalBehavior::NormalDriving);
        assert_eq!(at(16.0), CanonicalBehavior::Texting);
        assert_eq!(at(44.9), CanonicalBehavior::Talking);
        // Past the end: the fallback.
        assert_eq!(at(45.1), CanonicalBehavior::NormalDriving);
    }

    #[test]
    fn driver_script_keeps_one_driver() {
        let mut s = script();
        s.push(Segment {
            driver: 1,
            behavior: CanonicalBehavior::Reaching,
            start: 0.0,
            duration: 5.0,
        });
        assert_eq!(driver_script(&s, 0), s[..3]);
    }

    #[test]
    fn camera_sensor_emits_frames() {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let mut cam = ScriptedSensor::camera(
            world,
            0,
            driver_script(&script(), 0),
            0.25,
            CameraView::Front,
        );
        assert_eq!(cam.period(), 0.25);
        assert!(cam.name().contains("camera"));
        let reading = cam.sample(1.0);
        assert!(reading.as_frame().is_some());
        assert!(reading.as_imu().is_none());
    }

    #[test]
    fn imu_sensor_emits_samples() {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let mut imu = ScriptedSensor::imu(world, 1, driver_script(&script(), 0), 0.025);
        let reading = imu.sample(20.0);
        assert!(reading.as_imu().is_some());
    }

    #[test]
    fn sensors_are_boxable_as_trait_objects() {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let script = driver_script(&script(), 0);
        let sensors: Vec<Box<dyn Sensor>> = vec![
            Box::new(ScriptedSensor::camera(
                Arc::clone(&world),
                0,
                script.clone(),
                0.25,
                CameraView::Side,
            )),
            Box::new(ScriptedSensor::imu(world, 0, script, 0.025)),
        ];
        assert_eq!(sensors.len(), 2);
    }

    #[test]
    fn scripted_sensors_follow_the_8_class_script() {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let script = vec![
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::HeadDroop,
                start: 0.0,
                duration: 10.0,
            },
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::Texting,
                start: 10.0,
                duration: 10.0,
            },
        ];
        let mut front = ScriptedSensor::camera(
            Arc::clone(&world),
            0,
            script.clone(),
            0.25,
            CameraView::Front,
        );
        let mut side = ScriptedSensor::camera(
            Arc::clone(&world),
            0,
            script.clone(),
            0.25,
            CameraView::Side,
        );
        let mut imu = ScriptedSensor::imu(Arc::clone(&world), 0, script, 0.025);
        assert!(front.name().contains("camera.front"));
        assert!(side.name().contains("camera.side"));
        let f = front.sample(2.0);
        let s = side.sample(2.0);
        // Same instant, same scripted class, different geometry.
        assert_ne!(f.as_frame().unwrap(), s.as_frame().unwrap());
        assert!(imu.sample(2.0).as_imu().is_some());
        // The sensors read the world at the scripted class.
        let texting = world.render_canonical_frame(0, CanonicalBehavior::Texting, 12.0);
        assert_eq!(front.sample(12.0).as_frame().unwrap(), &texting);
        let texting_imu = world.imu_sample_canonical(0, CanonicalBehavior::Texting, 12.0);
        assert_eq!(imu.sample(12.0).as_imu().unwrap(), &texting_imu);
    }

    #[test]
    fn unsorted_script_is_sorted_on_construction() {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let mut rev = driver_script(&script(), 0);
        rev.reverse();
        let mut cam = ScriptedSensor::camera(Arc::clone(&world), 0, rev, 0.25, CameraView::Front);
        // Still resolves the right behaviour.
        assert_eq!(
            cam.sample(20.0).as_frame().unwrap(),
            &world.render_canonical_frame(0, CanonicalBehavior::Texting, 20.0)
        );
        assert_eq!(
            cam.sample(5.0).as_frame().unwrap(),
            &world.render_canonical_frame(0, CanonicalBehavior::NormalDriving, 5.0)
        );
    }
}
