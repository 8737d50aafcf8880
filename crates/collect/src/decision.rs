//! The controller's processing decision (paper §3.2): choose between the
//! local and remote configuration — and, when remote, the privacy level —
//! from the observed processing capability, bandwidth, and latency.
//!
//! *"In determining where the data should be processed, the controller can
//! choose between a local and remote configuration. A remote server would
//! have a greater amount of processing power ... However, under poor
//! network conditions, the controller has the option of processing all
//! data locally, albeit slower."*

use darnet_sim::schedule::CAMERA_PERIOD;

/// Where the analytics engine runs for this session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessingSite {
    /// On the in-vehicle device (slow inference, no network needed).
    Local,
    /// On the remote server at the given frame distortion divisor
    /// (1 = full resolution, 3/6/12 = the paper's privacy levels, which
    /// double as bandwidth reducers).
    Remote {
        /// Linear down-sampling divisor applied to frames before
        /// transmission.
        distortion_divisor: usize,
    },
}

/// Observed environment the decision is made against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkObservation {
    /// Measured one-way latency, seconds.
    pub latency: f64,
    /// Measured usable bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Observed loss rate in `[0, 1]`.
    pub loss: f64,
}

/// Static capabilities of the two processing sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteCapabilities {
    /// Per-frame inference time on the local device, seconds.
    pub local_inference: f64,
    /// Per-frame inference time on the remote server, seconds.
    pub remote_inference: f64,
    /// Wire bytes of one full-resolution frame (plus IMU share).
    pub frame_bytes: f64,
    /// Frame period, seconds (how often a classification is due).
    pub frame_period: f64,
}

impl Default for SiteCapabilities {
    fn default() -> Self {
        SiteCapabilities {
            // A small CNN on a phone-class CPU vs. a server.
            local_inference: 0.180,
            remote_inference: 0.012,
            frame_bytes: 2_329.0, // 48×48 + batch overhead, from the wire format
            frame_period: CAMERA_PERIOD,
        }
    }
}

/// The user's privacy preference (paper §3.2: "the user has the option of
/// specifying the degree of privacy at which the image data is
/// transmitted").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrivacyPreference {
    /// Full-resolution frames may leave the vehicle.
    None,
    /// At most 1/3-resolution frames leave the vehicle (dCNN-L path).
    Low,
    /// At most 1/6 resolution (dCNN-M path).
    Medium,
    /// At most 1/12 resolution (dCNN-H path).
    High,
}

impl PrivacyPreference {
    /// Minimum distortion divisor this preference demands.
    pub fn min_divisor(self) -> usize {
        match self {
            PrivacyPreference::None => 1,
            PrivacyPreference::Low => 3,
            PrivacyPreference::Medium => 6,
            PrivacyPreference::High => 12,
        }
    }
}

/// Decides where to process, and at which distortion level, so that one
/// classification completes within each frame period.
///
/// Policy (mirroring §3.2's reasoning):
/// 1. Start from the user's privacy floor — frames are never transmitted
///    at a higher resolution than the preference allows.
/// 2. For each candidate divisor (preference floor upward), check that the
///    end-to-end remote path — transmit time at the observed bandwidth,
///    retry-inflated by loss, plus one-way latency, plus server inference —
///    fits in the frame period. Pick the *least* distorted level that fits
///    (maximum classifier accuracy).
/// 3. If no remote level fits, fall back to local processing if the local
///    device keeps up; otherwise pick the most aggressive remote level
///    (least data) as the best effort.
pub fn decide_processing(
    link: &LinkObservation,
    caps: &SiteCapabilities,
    preference: PrivacyPreference,
) -> ProcessingSite {
    let divisors = [1usize, 3, 6, 12];
    let floor = preference.min_divisor();
    let retry_factor = 1.0 / (1.0 - link.loss.clamp(0.0, 0.95));
    for &d in divisors.iter().filter(|&&d| d >= floor) {
        let bytes = caps.frame_bytes / (d * d) as f64;
        let transmit = bytes / link.bandwidth.max(1.0) * retry_factor;
        let total = link.latency + transmit + caps.remote_inference;
        if total <= caps.frame_period {
            return ProcessingSite::Remote {
                distortion_divisor: d,
            };
        }
    }
    if caps.local_inference <= caps.frame_period {
        ProcessingSite::Local
    } else {
        ProcessingSite::Remote {
            distortion_divisor: 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_link() -> LinkObservation {
        LinkObservation {
            latency: 0.02,
            bandwidth: 1_000_000.0,
            loss: 0.0,
        }
    }

    #[test]
    fn good_network_processes_remotely_at_full_resolution() {
        let site = decide_processing(
            &good_link(),
            &SiteCapabilities::default(),
            PrivacyPreference::None,
        );
        assert_eq!(
            site,
            ProcessingSite::Remote {
                distortion_divisor: 1
            }
        );
    }

    #[test]
    fn privacy_preference_is_a_hard_floor() {
        let site = decide_processing(
            &good_link(),
            &SiteCapabilities::default(),
            PrivacyPreference::Medium,
        );
        assert_eq!(
            site,
            ProcessingSite::Remote {
                distortion_divisor: 6
            }
        );
    }

    #[test]
    fn slow_network_forces_more_distortion() {
        let slow = LinkObservation {
            latency: 0.05,
            bandwidth: 9_000.0, // ~9 kB/s: full frames no longer fit the period
            loss: 0.0,
        };
        let site = decide_processing(&slow, &SiteCapabilities::default(), PrivacyPreference::None);
        match site {
            ProcessingSite::Remote { distortion_divisor } => assert!(distortion_divisor > 1),
            ProcessingSite::Local => panic!("local device is slower than the frame period"),
        }
    }

    #[test]
    fn dead_network_falls_back_to_local_when_device_keeps_up() {
        let dead = LinkObservation {
            latency: 5.0,
            bandwidth: 10.0,
            loss: 0.5,
        };
        let caps = SiteCapabilities {
            local_inference: 0.2,
            frame_period: 0.25,
            ..SiteCapabilities::default()
        };
        assert_eq!(
            decide_processing(&dead, &caps, PrivacyPreference::None),
            ProcessingSite::Local
        );
    }

    #[test]
    fn dead_network_and_slow_device_degrade_to_max_distortion() {
        let dead = LinkObservation {
            latency: 5.0,
            bandwidth: 10.0,
            loss: 0.5,
        };
        let caps = SiteCapabilities {
            local_inference: 0.5, // cannot keep up locally either
            frame_period: 0.25,
            ..SiteCapabilities::default()
        };
        assert_eq!(
            decide_processing(&dead, &caps, PrivacyPreference::None),
            ProcessingSite::Remote {
                distortion_divisor: 12
            }
        );
    }

    #[test]
    fn loss_inflates_effective_transmit_time() {
        // At this bandwidth, full resolution fits only without loss.
        let caps = SiteCapabilities::default();
        let borderline = LinkObservation {
            latency: 0.02,
            bandwidth: 11_000.0,
            loss: 0.0,
        };
        assert_eq!(
            decide_processing(&borderline, &caps, PrivacyPreference::None),
            ProcessingSite::Remote {
                distortion_divisor: 1
            }
        );
        let lossy = LinkObservation {
            loss: 0.4,
            ..borderline
        };
        match decide_processing(&lossy, &caps, PrivacyPreference::None) {
            ProcessingSite::Remote { distortion_divisor } => assert!(distortion_divisor > 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
