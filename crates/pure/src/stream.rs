//! Stream identity: the stable tag that keeps alignment, health, and
//! admission *stream-generic* instead of hard-coding "the camera" and
//! "the IMU".
//!
//! A [`StreamId`] names one logical sensor stream of a collection session
//! (front camera, IMU, side camera, ...). The wire format is untouched —
//! batches still carry `agent_id` — because a session maps agents onto
//! streams by a fixed convention ([`StreamId::from_agent`]): agent `i`
//! carries stream `i`. Everything above the wire (controller health
//! reports, the core modality registry, the analytics engine's
//! healthy-subset policy) speaks [`StreamId`], so registering a fourth
//! stream requires no changes to ingestion, health accounting, or
//! admission control.

/// Identity of one logical sensor stream within a collection session.
///
/// Well-known streams get named constants; any further stream is just the
/// next integer. Ordering follows the numeric id, which also fixes the
/// parent order of the core ensemble's conditional-probability tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

impl StreamId {
    /// The phone IMU stream (agent 0 in every scripted session).
    pub const IMU: StreamId = StreamId(0);
    /// The dash-mounted front camera stream (agent 1).
    pub const CAMERA_FRONT: StreamId = StreamId(1);
    /// The passenger-side A-pillar camera stream (agent 2).
    pub const CAMERA_SIDE: StreamId = StreamId(2);
    /// The paper's deployment (§3.2): the phone IMU and the dash camera.
    pub const DARNET_PAIR: [StreamId; 2] = [StreamId::IMU, StreamId::CAMERA_FRONT];

    /// The session convention: agent `i` carries stream `i`.
    pub fn from_agent(agent_id: u32) -> StreamId {
        StreamId(agent_id)
    }

    /// The agent id carrying this stream under the session convention.
    pub fn agent_id(self) -> u32 {
        self.0
    }

    /// Zero-based index (usable as a registry slot).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Human-readable label.
    pub fn label(self) -> String {
        match self {
            StreamId::IMU => "imu".to_string(),
            StreamId::CAMERA_FRONT => "camera.front".to_string(),
            StreamId::CAMERA_SIDE => "camera.side".to_string(),
            StreamId(n) => format!("stream.{n}"),
        }
    }
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_convention_roundtrips() {
        for agent in [0u32, 1, 2, 7, 70_000] {
            let id = StreamId::from_agent(agent);
            assert_eq!(id.agent_id(), agent);
            assert_eq!(id.index(), agent as usize);
        }
        assert_eq!(StreamId::from_agent(0), StreamId::IMU);
        assert_eq!(StreamId::from_agent(1), StreamId::CAMERA_FRONT);
        assert_eq!(StreamId::from_agent(2), StreamId::CAMERA_SIDE);
    }

    #[test]
    fn labels_are_stable_and_ordered() {
        assert_eq!(StreamId::IMU.label(), "imu");
        assert_eq!(StreamId::CAMERA_FRONT.label(), "camera.front");
        assert_eq!(StreamId::CAMERA_SIDE.label(), "camera.side");
        assert_eq!(StreamId(9).label(), "stream.9");
        assert!(StreamId::IMU < StreamId::CAMERA_FRONT);
        assert!(StreamId::CAMERA_FRONT < StreamId::CAMERA_SIDE);
    }
}
