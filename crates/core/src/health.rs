//! Stream-health assessment: turning the controller's per-stream delivery
//! accounting ([`StreamHealth`]) into a modality status the analytics
//! engine can act on — keep fusing, flag the fusion as degraded, or drop
//! the modality and fall back to the surviving model's posterior.

use darnet_collect::{StreamHealth, StreamId};

/// How trustworthy one modality's stream currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModalityStatus {
    /// Fresh and essentially gap-free: fuse normally.
    Healthy,
    /// Usable but lossy (accounted gaps above the soft threshold): fuse,
    /// but flag the result.
    Degraded,
    /// Stale or so gap-ridden its posterior would mislead the ensemble:
    /// fall back to the other modality.
    Unavailable,
}

/// Seconds without an accepted batch before a stream is unavailable.
const MAX_STALENESS: f64 = 2.0;
/// Accounted-gap fraction (missing / expected sequence numbers) above
/// which a stream is degraded.
const DEGRADED_GAP_RATIO: f64 = 0.05;
/// Gap fraction above which a stream is unavailable outright.
const MAX_GAP_RATIO: f64 = 0.5;
/// Admission-shed fraction (shed / offered batches) above which a stream
/// is degraded: the controller is deliberately deferring this stream
/// under overload, so its recent windows are thin.
const DEGRADED_SHED_RATIO: f64 = 0.25;
/// Shed fraction above which the stream is unavailable — the ensemble
/// should degrade to the surviving modality (CNN-only / IMU-only) rather
/// than fuse from a starved stream.
const MAX_SHED_RATIO: f64 = 0.75;

/// The policy separating the three [`ModalityStatus`] levels: stale past
/// 2 s, more than half the sequence numbers missing or more than three
/// quarters of the offers shed is unavailable; more than 5 % missing or a
/// quarter shed is degraded.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthPolicy;

/// The healthy-subset resolution for one registry of identified streams:
/// which streams participate in the next fusion and at what status.
/// Produced by [`HealthPolicy::select_subset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsetSelection {
    /// Per-stream status, in the order the streams were given.
    pub statuses: Vec<(StreamId, ModalityStatus)>,
    /// How many streams are usable (healthy or degraded).
    pub usable: usize,
    /// Whether the fused result should carry the degraded flag: any
    /// stream dropped or merely degraded.
    pub degraded: bool,
}

impl SubsetSelection {
    /// The status resolved for `id` (unavailable if the stream was not
    /// assessed at all).
    pub fn status_of(&self, id: StreamId) -> ModalityStatus {
        self.statuses
            .iter()
            .find(|(s, _)| *s == id)
            .map(|(_, st)| *st)
            .unwrap_or(ModalityStatus::Unavailable)
    }
}

impl HealthPolicy {
    /// Assesses one stream at observation time `now`. A stream the
    /// controller has never heard from (`None`) is unavailable, and so is
    /// every stream at a non-finite `now`: its staleness is unknown.
    pub fn assess(&self, health: Option<&StreamHealth>, now: f64) -> ModalityStatus {
        let Some(h) = health else {
            return ModalityStatus::Unavailable;
        };
        if !now.is_finite()
            || h.staleness(now) > MAX_STALENESS
            || h.gap_ratio() > MAX_GAP_RATIO
            || h.shed_ratio() > MAX_SHED_RATIO
        {
            return ModalityStatus::Unavailable;
        }
        if h.gap_ratio() > DEGRADED_GAP_RATIO || h.shed_ratio() > DEGRADED_SHED_RATIO {
            return ModalityStatus::Degraded;
        }
        ModalityStatus::Healthy
    }

    /// Assesses a registry's worth of identified streams at observation
    /// time `now` and resolves the healthy-subset policy the N-stream
    /// engine fuses under: per-stream [`ModalityStatus`]es keyed by
    /// [`StreamId`], the usable count, and whether the fusion as a whole
    /// should be flagged degraded (any stream dropped or degraded).
    ///
    /// The returned statuses feed
    /// [`crate::registry::MultiModalEngine::classify_batch_checked_into`]
    /// directly.
    pub fn select_subset(
        &self,
        streams: &[(StreamId, Option<&StreamHealth>)],
        now: f64,
    ) -> SubsetSelection {
        let mut statuses = Vec::with_capacity(streams.len());
        let mut usable = 0usize;
        let mut degraded = false;
        for (id, health) in streams {
            let status = self.assess(*health, now);
            match status {
                ModalityStatus::Healthy => usable += 1,
                ModalityStatus::Degraded => {
                    usable += 1;
                    degraded = true;
                }
                ModalityStatus::Unavailable => degraded = true,
            }
            statuses.push((*id, status));
        }
        SubsetSelection {
            statuses,
            usable,
            degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(highest: u32, gaps: u64, last_arrival: f64) -> StreamHealth {
        StreamHealth {
            agent_id: 0,
            delivered: (highest as u64 + 1) - gaps,
            duplicates: 0,
            highest_seq: highest,
            gaps,
            last_arrival,
            shed: 0,
        }
    }

    #[test]
    fn subset_selection_resolves_the_healthy_subset() {
        let p = HealthPolicy;
        let fresh = health(19, 0, 10.0);
        let lossy = health(19, 2, 10.0);
        let stale = health(19, 0, 1.0);
        let streams = [
            (StreamId::IMU, Some(&fresh)),
            (StreamId::CAMERA_FRONT, Some(&stale)),
            (StreamId::CAMERA_SIDE, Some(&lossy)),
        ];
        let sel = p.select_subset(&streams, 10.1);
        assert_eq!(sel.usable, 2);
        assert!(sel.degraded);
        assert_eq!(sel.status_of(StreamId::IMU), ModalityStatus::Healthy);
        assert_eq!(
            sel.status_of(StreamId::CAMERA_FRONT),
            ModalityStatus::Unavailable
        );
        assert_eq!(
            sel.status_of(StreamId::CAMERA_SIDE),
            ModalityStatus::Degraded
        );
        // An unassessed stream is unavailable by definition.
        assert_eq!(sel.status_of(StreamId(7)), ModalityStatus::Unavailable);

        // All fresh → nothing degraded.
        let all = [
            (StreamId::IMU, Some(&fresh)),
            (StreamId::CAMERA_FRONT, Some(&fresh)),
        ];
        let sel = p.select_subset(&all, 10.1);
        assert_eq!(sel.usable, 2);
        assert!(!sel.degraded);
        // A never-heard-from stream is dropped and flags the fusion.
        let missing = [(StreamId::IMU, None)];
        let sel = p.select_subset(&missing, 10.1);
        assert_eq!(sel.usable, 0);
        assert!(sel.degraded);
    }

    #[test]
    fn fresh_gapless_stream_is_healthy() {
        let p = HealthPolicy;
        let h = health(19, 0, 10.0);
        assert_eq!(p.assess(Some(&h), 10.5), ModalityStatus::Healthy);
    }

    #[test]
    fn stale_stream_is_unavailable() {
        let p = HealthPolicy;
        let h = health(19, 0, 10.0);
        assert_eq!(p.assess(Some(&h), 13.0), ModalityStatus::Unavailable);
        assert_eq!(p.assess(None, 0.0), ModalityStatus::Unavailable);
    }

    #[test]
    fn non_finite_observation_time_is_unavailable() {
        // `staleness` is `(now - last_arrival).max(0.0)`, which reads a
        // NaN `now` as 0 s and a -inf one as fresh too.
        let p = HealthPolicy;
        let h = health(19, 0, 10.0);
        for now in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                p.assess(Some(&h), now),
                ModalityStatus::Unavailable,
                "{now}"
            );
        }
        let sel = p.select_subset(&[(StreamId::IMU, Some(&h))], f64::NAN);
        assert_eq!((sel.usable, sel.degraded), (0, true));
    }

    #[test]
    fn shed_ratio_degrades_then_drops_the_modality() {
        let p = HealthPolicy;
        // 30% of offers shed: degraded (fuse, but flag it).
        let mut h = health(13, 0, 10.0);
        h.delivered = 14;
        h.shed = 6;
        assert_eq!(p.assess(Some(&h), 10.1), ModalityStatus::Degraded);
        // 80% shed: the stream is starved — fall back to the other
        // modality entirely.
        h.shed = 56;
        assert_eq!(p.assess(Some(&h), 10.1), ModalityStatus::Unavailable);
        // Shedding that stopped (ratio back under threshold as fresh
        // deliveries accumulate) returns the stream to healthy.
        h.shed = 1;
        h.delivered = 99;
        assert_eq!(p.assess(Some(&h), 10.1), ModalityStatus::Healthy);
    }

    #[test]
    fn gap_ratio_separates_degraded_from_unavailable() {
        let p = HealthPolicy;
        // 2/20 missing: degraded.
        assert_eq!(
            p.assess(Some(&health(19, 2, 10.0)), 10.1),
            ModalityStatus::Degraded
        );
        // 12/20 missing: unavailable.
        assert_eq!(
            p.assess(Some(&health(19, 12, 10.0)), 10.1),
            ModalityStatus::Unavailable
        );
    }
}
