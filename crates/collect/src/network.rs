//! A point-to-point link model: base latency, jitter, the packet reordering
//! jitter induces, and an adversarial fault layer — i.i.d. loss, scheduled
//! blackouts, and duplication. Everything is driven by one seeded
//! generator, so a session replays bit-for-bit from its seed.
#![expect(
    clippy::disallowed_methods,
    reason = "randomness owner: lossy-link fault injection"
)]

use darnet_tensor::SplitMix64;

/// Fault-injection parameters layered on top of the base link.
///
/// The defaults are zero / `None`: a link with default faults behaves
/// exactly like the pre-fault-injection model (i.i.d. loss only).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Probability a successfully delivered message is also duplicated
    /// (the copy takes an independently jittered path).
    pub duplicate: f64,
    /// Absolute-time interval `[start, end)` during which *nothing* gets
    /// through — an agent walking out of radio range, an interface reset.
    pub blackout: Option<(f64, f64)>,
}

/// Link parameters (per direction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Minimum one-way latency, seconds.
    pub base_latency: f64,
    /// Uniform jitter added on top of the base latency, seconds.
    pub jitter: f64,
    /// Probability a message is dropped entirely.
    pub loss: f64,
    /// Adversarial fault layer (blackouts, duplication).
    pub faults: FaultConfig,
}

impl Default for LinkConfig {
    fn default() -> Self {
        // Bluetooth/802.11 point-to-point ballpark from the paper's setup.
        LinkConfig {
            base_latency: 0.015,
            jitter: 0.010,
            loss: 0.0,
            faults: FaultConfig::default(),
        }
    }
}

/// Cumulative link counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Messages offered for transmission.
    pub sent: u64,
    /// Messages dropped (i.i.d. loss or blackout).
    pub lost: u64,
    /// Extra deliveries created by duplication.
    pub duplicated: u64,
    /// Messages dropped specifically inside a blackout window.
    pub blackout_drops: u64,
}

/// A unidirectional link. Each [`Link::transmit`] call answers "when does
/// this message arrive?" (or `None` if lost). Because jitter is sampled per
/// message, later sends can arrive before earlier ones — the reordering the
/// controller must tolerate. [`Link::transmit_all`] additionally surfaces
/// duplicated deliveries.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    rng: SplitMix64,
    stats: LinkStats,
}

impl Link {
    /// Creates a link with the given parameters and seed.
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        Link {
            config,
            rng: SplitMix64::new(seed),
            stats: LinkStats::default(),
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    fn delay(&mut self) -> f64 {
        self.config.base_latency + self.rng.next_f64() * self.config.jitter
    }

    /// Offers a message for transmission at time `t`; returns every
    /// delivery time it produces: empty if lost, one entry normally, two if
    /// the fault layer duplicated it.
    pub fn transmit_all(&mut self, t: f64) -> Vec<f64> {
        self.stats.sent += 1;
        let faults = self.config.faults;

        // Blackout swallows everything, unconditionally.
        if let Some((start, end)) = faults.blackout {
            if t >= start && t < end {
                self.stats.lost += 1;
                self.stats.blackout_drops += 1;
                return Vec::new();
            }
        }

        if self.config.loss > 0.0 && self.rng.next_f64() < self.config.loss {
            self.stats.lost += 1;
            return Vec::new();
        }

        let mut arrivals = vec![t + self.delay()];
        if faults.duplicate > 0.0 && self.rng.next_f64() < faults.duplicate {
            self.stats.duplicated += 1;
            arrivals.push(t + self.delay());
        }
        arrivals
    }

    /// Offers a message for transmission at time `t`; returns the delivery
    /// time, or `None` if the message was lost. Duplicates created by the
    /// fault layer are counted but not returned — use
    /// [`Link::transmit_all`] when duplication matters.
    pub fn transmit(&mut self, t: f64) -> Option<f64> {
        self.transmit_all(t).first().copied()
    }

    /// Mean one-way delay implied by the configuration — what the paper's
    /// "empirically measured network delay" converges to.
    pub fn mean_delay(&self) -> f64 {
        self.config.base_latency + self.config.jitter / 2.0
    }

    /// `(sent, lost)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.stats.sent, self.stats.lost)
    }

    /// Full cumulative counters, including duplication and blackout drops.
    pub fn link_stats(&self) -> LinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_is_after_send_plus_base_latency() {
        let mut link = Link::new(LinkConfig::default(), 7);
        for i in 0..100 {
            let t = i as f64;
            let arrival = link.transmit(t).unwrap();
            assert!(arrival >= t + link.config().base_latency);
            assert!(arrival <= t + link.config().base_latency + link.config().jitter);
        }
    }

    #[test]
    fn jitter_can_reorder_messages() {
        let mut link = Link::new(
            LinkConfig {
                base_latency: 0.001,
                jitter: 0.1,
                loss: 0.0,
                ..LinkConfig::default()
            },
            11,
        );
        let mut reordered = false;
        let mut prev_arrival = f64::NEG_INFINITY;
        for i in 0..200 {
            let t = i as f64 * 0.01; // send every 10 ms with 100 ms jitter
            let arrival = link.transmit(t).unwrap();
            if arrival < prev_arrival {
                reordered = true;
            }
            prev_arrival = arrival;
        }
        assert!(reordered, "expected at least one reordering");
    }

    #[test]
    fn loss_rate_is_respected() {
        let mut link = Link::new(
            LinkConfig {
                base_latency: 0.01,
                jitter: 0.0,
                loss: 0.3,
                ..LinkConfig::default()
            },
            13,
        );
        let mut lost = 0;
        let n = 5000;
        for i in 0..n {
            if link.transmit(i as f64).is_none() {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "loss rate {rate}");
        assert_eq!(link.stats(), (n, lost));
    }

    #[test]
    fn zero_loss_never_drops() {
        let mut link = Link::new(LinkConfig::default(), 17);
        for i in 0..1000 {
            assert!(link.transmit(i as f64).is_some());
        }
    }

    #[test]
    fn mean_delay_matches_config() {
        let link = Link::new(
            LinkConfig {
                base_latency: 0.02,
                jitter: 0.02,
                loss: 0.0,
                ..LinkConfig::default()
            },
            19,
        );
        assert!((link.mean_delay() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn blackout_drops_everything_inside_the_window() {
        let mut link = Link::new(
            LinkConfig {
                loss: 0.0,
                faults: FaultConfig {
                    blackout: Some((10.0, 12.0)),
                    ..FaultConfig::default()
                },
                ..LinkConfig::default()
            },
            29,
        );
        for i in 0..2000 {
            let t = i as f64 * 0.01; // 0 .. 20 s
            let delivered = link.transmit(t).is_some();
            if (10.0..12.0).contains(&t) {
                assert!(!delivered, "delivered inside blackout at t={t}");
            } else {
                assert!(delivered, "lost outside blackout at t={t}");
            }
        }
        let stats = link.link_stats();
        assert_eq!(stats.blackout_drops, 200);
        assert_eq!(stats.lost, 200);
    }

    #[test]
    fn duplication_produces_second_arrivals() {
        let mut link = Link::new(
            LinkConfig {
                loss: 0.0,
                faults: FaultConfig {
                    duplicate: 0.5,
                    ..FaultConfig::default()
                },
                ..LinkConfig::default()
            },
            31,
        );
        let mut dups = 0u64;
        let n = 4000;
        for i in 0..n {
            let arrivals = link.transmit_all(i as f64);
            assert!(!arrivals.is_empty());
            if arrivals.len() == 2 {
                dups += 1;
            }
        }
        let rate = dups as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "duplicate rate {rate}");
        assert_eq!(link.link_stats().duplicated, dups);
    }

    #[test]
    fn fault_injection_is_deterministic_by_seed() {
        let config = LinkConfig {
            loss: 0.1,
            faults: FaultConfig {
                duplicate: 0.2,
                blackout: Some((3.0, 4.0)),
            },
            ..LinkConfig::default()
        };
        let mut a = Link::new(config, 1234);
        let mut b = Link::new(config, 1234);
        for i in 0..2000 {
            let t = i as f64 * 0.01;
            assert_eq!(a.transmit_all(t), b.transmit_all(t));
        }
        assert_eq!(a.link_stats(), b.link_stats());
    }
}
