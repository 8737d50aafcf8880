//! Real-time distraction alerting on top of per-time-step classifications
//! — the paper's motivating application ("providing real-time alerts to
//! drivers and fleet managers", §1).
//!
//! The policy is debounced both ways: an alert fires after `trigger_steps`
//! consecutive distracted classifications with mean confidence above a
//! threshold, and clears after `clear_steps` consecutive normal ones. This
//! addresses the usability concern the paper raises about false positives
//! ("a high false positive rate for distracted driving would diminish the
//! user experience", §5.2).

use darnet_sim::CanonicalBehavior;

use crate::registry::MultiStepClassification;

/// Alert policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertPolicy {
    /// Consecutive distracted steps required to raise an alert.
    pub trigger_steps: usize,
    /// Consecutive normal steps required to clear an active alert.
    pub clear_steps: usize,
    /// Minimum mean fused confidence over the trigger window.
    pub min_confidence: f32,
}

impl Default for AlertPolicy {
    fn default() -> Self {
        AlertPolicy {
            // 3 steps at the 4 Hz pipeline ≈ 750 ms of sustained
            // distraction before alerting.
            trigger_steps: 3,
            clear_steps: 4,
            min_confidence: 0.5,
        }
    }
}

/// Alert-state transition produced by one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertEvent {
    /// Nothing changed.
    None,
    /// A new alert was raised for the given behaviour.
    Raised(CanonicalBehavior),
    /// The active alert cleared.
    Cleared,
}

/// Stateful alert tracker for one driver.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTracker {
    policy: AlertPolicy,
    distracted_streak: usize,
    normal_streak: usize,
    confidence_acc: f32,
    active: Option<CanonicalBehavior>,
    raised_total: usize,
}

impl AlertTracker {
    /// Creates a tracker with the given policy.
    pub fn new(policy: AlertPolicy) -> Self {
        AlertTracker {
            policy,
            distracted_streak: 0,
            normal_streak: 0,
            confidence_acc: 0.0,
            active: None,
            raised_total: 0,
        }
    }

    /// The currently active alert, if any.
    pub fn active(&self) -> Option<CanonicalBehavior> {
        self.active
    }

    /// Total alerts raised over the tracker's lifetime.
    pub fn raised_total(&self) -> usize {
        self.raised_total
    }

    /// Feeds one classification step; returns the transition it causes.
    /// Every class but normal driving is a distraction, the drowsiness
    /// classes included; a step whose class lies outside the cabin
    /// taxonomy ([`MultiStepClassification::behavior`] is `None`) changes
    /// nothing.
    pub fn observe(&mut self, step: &MultiStepClassification) -> AlertEvent {
        let Some(behavior) = step.behavior() else {
            return AlertEvent::None;
        };
        let confidence = step.scores.iter().cloned().fold(0.0f32, f32::max);
        if behavior == CanonicalBehavior::NormalDriving {
            self.distracted_streak = 0;
            self.confidence_acc = 0.0;
            if self.active.is_some() {
                self.normal_streak += 1;
                if self.normal_streak >= self.policy.clear_steps {
                    self.active = None;
                    self.normal_streak = 0;
                    return AlertEvent::Cleared;
                }
            }
            return AlertEvent::None;
        }
        // Distracted step.
        self.normal_streak = 0;
        self.distracted_streak += 1;
        self.confidence_acc += confidence;
        if self.active.is_none() && self.distracted_streak >= self.policy.trigger_steps {
            let mean_conf = self.confidence_acc / self.distracted_streak as f32;
            if mean_conf >= self.policy.min_confidence {
                self.active = Some(behavior);
                self.raised_total += 1;
                self.distracted_streak = 0;
                self.confidence_acc = 0.0;
                return AlertEvent::Raised(behavior);
            }
        }
        AlertEvent::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darnet_collect::StreamId;

    fn step(behavior: CanonicalBehavior, confidence: f32) -> MultiStepClassification {
        let mut scores = vec![(1.0 - confidence) / 7.0; 8];
        scores[behavior.index()] = confidence;
        MultiStepClassification {
            class: behavior.index(),
            scores,
            used: vec![StreamId::CAMERA_FRONT, StreamId::IMU],
            degraded: false,
        }
    }

    #[test]
    fn alert_fires_after_sustained_distraction() {
        let mut tracker = AlertTracker::new(AlertPolicy::default());
        assert_eq!(
            tracker.observe(&step(CanonicalBehavior::Texting, 0.9)),
            AlertEvent::None
        );
        assert_eq!(
            tracker.observe(&step(CanonicalBehavior::Texting, 0.9)),
            AlertEvent::None
        );
        assert_eq!(
            tracker.observe(&step(CanonicalBehavior::Texting, 0.9)),
            AlertEvent::Raised(CanonicalBehavior::Texting)
        );
        assert_eq!(tracker.active(), Some(CanonicalBehavior::Texting));
        assert_eq!(tracker.raised_total(), 1);
    }

    #[test]
    fn single_blips_do_not_alert() {
        let mut tracker = AlertTracker::new(AlertPolicy::default());
        for _ in 0..10 {
            assert_eq!(
                tracker.observe(&step(CanonicalBehavior::Talking, 0.9)),
                AlertEvent::None
            );
            assert_eq!(
                tracker.observe(&step(CanonicalBehavior::Talking, 0.9)),
                AlertEvent::None
            );
            assert_eq!(
                tracker.observe(&step(CanonicalBehavior::NormalDriving, 0.9)),
                AlertEvent::None
            );
        }
        assert_eq!(tracker.raised_total(), 0);
    }

    #[test]
    fn low_confidence_streaks_do_not_alert() {
        let mut tracker = AlertTracker::new(AlertPolicy::default());
        for _ in 0..6 {
            let event = tracker.observe(&step(CanonicalBehavior::Reaching, 0.3));
            assert_eq!(event, AlertEvent::None);
        }
        assert_eq!(tracker.active(), None);
    }

    #[test]
    fn alert_clears_after_sustained_normal_driving() {
        let mut tracker = AlertTracker::new(AlertPolicy::default());
        for _ in 0..3 {
            tracker.observe(&step(CanonicalBehavior::Texting, 0.9));
        }
        assert!(tracker.active().is_some());
        for _ in 0..3 {
            assert_eq!(
                tracker.observe(&step(CanonicalBehavior::NormalDriving, 0.8)),
                AlertEvent::None
            );
        }
        assert_eq!(
            tracker.observe(&step(CanonicalBehavior::NormalDriving, 0.8)),
            AlertEvent::Cleared
        );
        assert_eq!(tracker.active(), None);
    }

    #[test]
    fn distraction_interrupts_clearing() {
        let mut tracker = AlertTracker::new(AlertPolicy::default());
        for _ in 0..3 {
            tracker.observe(&step(CanonicalBehavior::Talking, 0.9));
        }
        // Two normal steps, then distraction again: the clear streak
        // resets and the alert stays up.
        tracker.observe(&step(CanonicalBehavior::NormalDriving, 0.8));
        tracker.observe(&step(CanonicalBehavior::NormalDriving, 0.8));
        tracker.observe(&step(CanonicalBehavior::Talking, 0.9));
        for _ in 0..3 {
            tracker.observe(&step(CanonicalBehavior::NormalDriving, 0.8));
        }
        assert!(tracker.active().is_some(), "clear streak should have reset");
    }

    #[test]
    fn custom_policy_is_respected() {
        let mut tracker = AlertTracker::new(AlertPolicy {
            trigger_steps: 1,
            clear_steps: 1,
            min_confidence: 0.0,
        });
        assert_eq!(
            tracker.observe(&step(CanonicalBehavior::HairMakeup, 0.4)),
            AlertEvent::Raised(CanonicalBehavior::HairMakeup)
        );
        assert_eq!(
            tracker.observe(&step(CanonicalBehavior::NormalDriving, 0.4)),
            AlertEvent::Cleared
        );
    }

    #[test]
    fn a_drowsy_streak_raises_an_alert() {
        let mut tracker = AlertTracker::new(AlertPolicy::default());
        let drowsy = step(CanonicalBehavior::EyesClosing, 0.9);
        assert_eq!(tracker.observe(&drowsy), AlertEvent::None);
        assert_eq!(tracker.observe(&drowsy), AlertEvent::None);
        assert_eq!(
            tracker.observe(&drowsy),
            AlertEvent::Raised(CanonicalBehavior::EyesClosing)
        );
        // A class outside the taxonomy changes nothing.
        let outside = MultiStepClassification {
            class: 8,
            scores: vec![0.1; 9],
            ..drowsy
        };
        let before = tracker.clone();
        assert_eq!(tracker.observe(&outside), AlertEvent::None);
        assert_eq!(tracker, before);
    }
}
