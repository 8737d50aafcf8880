//! Drifting device clocks and the master–slave synchronization protocol.
//!
//! The paper (§4.1): *"the controller acting as the master and distributing
//! its UTC timestamp to the agents ... The agent sets its own clock to the
//! master's UTC, plus the empirically measured network delay. Because the
//! system clock is highly susceptible to drift, this synchronization
//! process is repeated every 5 seconds."*
#![expect(
    clippy::disallowed_methods,
    reason = "randomness owner: simulated clock drift"
)]

use darnet_tensor::SplitMix64;
use serde::{Deserialize, Serialize};

/// Parameters of an agent's clock imperfection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockConfig {
    /// Maximum magnitude of the initial offset, seconds.
    pub max_initial_offset: f64,
    /// Maximum magnitude of the drift rate, seconds of error per second
    /// (e.g. `50e-6` = 50 ppm, a sloppy commodity oscillator).
    pub max_drift: f64,
}

impl Default for ClockConfig {
    fn default() -> Self {
        ClockConfig {
            max_initial_offset: 0.25,
            max_drift: 200e-6,
        }
    }
}

/// An agent's local clock: `local(t) = t · (1 + drift) + offset`, where `t`
/// is true (controller/master) time.
///
/// [`DriftClock::apply_sync`] implements the paper's correction: on
/// receiving the master timestamp, the agent re-bases its clock to
/// `master_utc + measured_delay`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftClock {
    drift: f64,
    offset: f64,
}

impl DriftClock {
    /// Creates a clock with explicit drift and offset.
    pub fn new(drift: f64, offset: f64) -> Self {
        DriftClock { drift, offset }
    }

    /// Creates a randomized clock within the config's bounds.
    pub fn random(config: &ClockConfig, rng: &mut SplitMix64) -> Self {
        DriftClock {
            drift: (rng.next_f64() * 2.0 - 1.0) * config.max_drift,
            offset: (rng.next_f64() * 2.0 - 1.0) * config.max_initial_offset,
        }
    }

    /// A perfect clock (the controller's reference).
    pub fn perfect() -> Self {
        DriftClock {
            drift: 0.0,
            offset: 0.0,
        }
    }

    /// The drift rate (s/s).
    pub fn drift(&self) -> f64 {
        self.drift
    }

    /// Local reading at true time `t`.
    pub fn now(&self, t: f64) -> f64 {
        t * (1.0 + self.drift) + self.offset
    }

    /// Current clock error (local − true) at true time `t`.
    pub fn error(&self, t: f64) -> f64 {
        self.now(t) - t
    }

    /// Applies the paper's sync step. At true time `t` the agent receives
    /// the master's timestamp `master_utc` (captured when the sync message
    /// was sent) and re-bases its clock to `master_utc + measured_delay`.
    ///
    /// If the delay estimate equals the actual network delay, the residual
    /// error at `t` is zero and only re-accumulates through drift until the
    /// next sync.
    pub fn apply_sync(&mut self, t: f64, master_utc: f64, measured_delay: f64) {
        let target = master_utc + measured_delay;
        // Choose the new offset so that now(t) == target.
        self.offset = target - t * (1.0 + self.drift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_reads_true_time() {
        let c = DriftClock::perfect();
        assert_eq!(c.now(123.456), 123.456);
        assert_eq!(c.error(50.0), 0.0);
    }

    #[test]
    fn drift_accumulates_linearly() {
        let c = DriftClock::new(100e-6, 0.0);
        assert!((c.error(100.0) - 0.01).abs() < 1e-9);
        assert!((c.error(200.0) - 0.02).abs() < 1e-9);
    }

    #[test]
    fn sync_with_exact_delay_zeroes_error() {
        let mut c = DriftClock::new(150e-6, 0.4);
        let t = 73.0;
        // Master sent its UTC at (t - delay); agent receives at t.
        let delay = 0.02;
        c.apply_sync(t, t - delay, delay);
        assert!(c.error(t).abs() < 1e-12);
    }

    #[test]
    fn sync_error_bounded_by_delay_misestimate() {
        let mut c = DriftClock::new(0.0, 1.0);
        let t = 10.0;
        let actual_delay = 0.05;
        let estimated_delay = 0.02;
        c.apply_sync(t, t - actual_delay, estimated_delay);
        // Residual = estimate − actual.
        assert!((c.error(t) - (estimated_delay - actual_delay)).abs() < 1e-12);
    }

    #[test]
    fn periodic_sync_bounds_error_under_drift() {
        // Paper protocol: re-sync every 5 s. With drift d, the error just
        // before the next sync is at most d × 5 s (plus delay error).
        let mut c = DriftClock::new(200e-6, 0.3);
        let sync_period = 5.0;
        let mut max_err: f64 = 0.0;
        for k in 1..=20 {
            let t = k as f64 * sync_period;
            // Error right before this sync (accumulated since last sync).
            max_err = max_err.max(c.error(t).abs());
            c.apply_sync(t, t - 0.01, 0.01);
        }
        // First interval includes the initial 0.3 offset; later intervals
        // are bounded by drift × period = 1 ms.
        let steady_state_err = c.error(20.0 * sync_period + sync_period).abs();
        assert!(
            steady_state_err <= 200e-6 * sync_period + 1e-9,
            "steady-state error {steady_state_err}"
        );
    }

    #[test]
    fn random_clock_respects_bounds() {
        let config = ClockConfig::default();
        let mut rng = SplitMix64::new(1);
        for _ in 0..100 {
            let c = DriftClock::random(&config, &mut rng);
            assert!(c.drift().abs() <= config.max_drift);
            assert!(c.error(0.0).abs() <= config.max_initial_offset);
        }
    }
}
