//! Deterministic vehicle dynamics along a fixed route.
//!
//! The paper's collection protocol has every driver follow the same route;
//! here the route is a repeating cycle of accelerate / cruise / turn /
//! brake segments. The resulting longitudinal/lateral acceleration and yaw
//! rate feed into every IMU channel as common-mode signal, so the IMU
//! models must separate body gestures from vehicle motion.

/// Instantaneous vehicle state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleState {
    /// Speed in m/s.
    pub speed: f32,
    /// Longitudinal acceleration in m/s².
    pub accel_long: f32,
    /// Lateral (centripetal) acceleration in m/s².
    pub accel_lat: f32,
    /// Yaw rate in rad/s.
    pub yaw_rate: f32,
    /// Road-vibration amplitude scale at this instant.
    pub vibration: f32,
}

/// One segment of the scripted route.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RoutePhase {
    Accelerate,
    Cruise,
    TurnLeft,
    TurnRight,
    Brake,
}

/// A deterministic route simulator. The route is a fixed cycle; drivers
/// differ only by a style factor applied to accelerations.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleDynamics {
    /// Driver style factor (1.0 = nominal; >1 more aggressive).
    style: f32,
    /// Total cycle duration in seconds.
    cycle: f64,
}

/// (phase, start, duration) table for one route cycle, in seconds.
const ROUTE: [(RoutePhase, f64, f64); 8] = [
    (RoutePhase::Accelerate, 0.0, 8.0),
    (RoutePhase::Cruise, 8.0, 15.0),
    (RoutePhase::TurnLeft, 23.0, 5.0),
    (RoutePhase::Cruise, 28.0, 12.0),
    (RoutePhase::TurnRight, 40.0, 5.0),
    (RoutePhase::Cruise, 45.0, 10.0),
    (RoutePhase::Brake, 55.0, 6.0),
    (RoutePhase::Cruise, 61.0, 9.0),
];

impl VehicleDynamics {
    /// Creates a route simulator for a driver with the given style factor.
    pub fn new(style: f32) -> Self {
        let cycle = ROUTE.iter().map(|(_, _, d)| d).sum();
        VehicleDynamics { style, cycle }
    }

    /// Route cycle length in seconds.
    pub fn cycle_seconds(&self) -> f64 {
        self.cycle
    }

    /// Vehicle state at absolute time `t` (seconds).
    pub fn state_at(&self, t: f64) -> VehicleState {
        let tc = t.rem_euclid(self.cycle);
        let (phase, start, dur) = ROUTE
            .iter()
            .find(|(_, s, d)| tc >= *s && tc < s + d)
            .copied()
            .unwrap_or(ROUTE[0]);
        let progress = ((tc - start) / dur) as f32; // 0..1 within phase
        let s = self.style;
        // Base cruise speed ~13 m/s (about 30 mph, a surface-street route).
        let cruise = 13.0;
        let (speed, accel_long, accel_lat, yaw_rate) = match phase {
            RoutePhase::Accelerate => {
                let a = 1.8 * s;
                (cruise * progress, a, 0.0, 0.0)
            }
            RoutePhase::Cruise => (cruise, 0.0, 0.0, 0.0),
            RoutePhase::TurnLeft => {
                // Smooth half-sine turn profile.
                let amp = (std::f32::consts::PI * progress).sin();
                (cruise * 0.8, 0.0, 2.5 * s * amp, 0.35 * s * amp)
            }
            RoutePhase::TurnRight => {
                let amp = (std::f32::consts::PI * progress).sin();
                (cruise * 0.8, 0.0, -2.5 * s * amp, -0.35 * s * amp)
            }
            RoutePhase::Brake => {
                let a = -2.2 * s;
                (cruise * (1.0 - 0.8 * progress), a, 0.0, 0.0)
            }
        };
        // Road vibration grows with speed.
        let vibration = 0.05 + 0.015 * speed;
        VehicleState {
            speed,
            accel_long,
            accel_lat,
            yaw_rate,
            vibration,
        }
    }
}

impl Default for VehicleDynamics {
    fn default() -> Self {
        VehicleDynamics::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_repeats_with_cycle_period() {
        let v = VehicleDynamics::new(1.0);
        let a = v.state_at(12.5);
        let b = v.state_at(12.5 + v.cycle_seconds());
        assert_eq!(a, b);
    }

    #[test]
    fn acceleration_phase_accelerates() {
        let v = VehicleDynamics::new(1.0);
        let s = v.state_at(2.0);
        assert!(s.accel_long > 0.0);
        assert!(s.speed < 13.0);
    }

    #[test]
    fn turns_have_opposite_lateral_signs() {
        let v = VehicleDynamics::new(1.0);
        let left = v.state_at(25.5); // mid left turn
        let right = v.state_at(42.5); // mid right turn
        assert!(left.accel_lat > 0.0);
        assert!(right.accel_lat < 0.0);
        assert!(left.yaw_rate > 0.0);
        assert!(right.yaw_rate < 0.0);
    }

    #[test]
    fn braking_decelerates() {
        let v = VehicleDynamics::new(1.0);
        let s = v.state_at(58.0);
        assert!(s.accel_long < 0.0);
    }

    #[test]
    fn style_scales_accelerations() {
        let calm = VehicleDynamics::new(0.8).state_at(2.0);
        let aggressive = VehicleDynamics::new(1.2).state_at(2.0);
        assert!(aggressive.accel_long > calm.accel_long);
    }

    #[test]
    fn vibration_increases_with_speed() {
        let v = VehicleDynamics::new(1.0);
        let slow = v.state_at(0.5); // just started accelerating
        let fast = v.state_at(10.0); // cruising
        assert!(fast.vibration > slow.vibration);
    }

    #[test]
    fn negative_time_is_handled() {
        let v = VehicleDynamics::new(1.0);
        // rem_euclid keeps lookups valid for any time.
        let s = v.state_at(-3.0);
        assert!(s.speed >= 0.0);
    }
}
