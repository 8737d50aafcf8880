//! Binary wire format for agent → controller batches.
//!
//! Frames are carried as 8-bit grayscale (like a camera would produce), so
//! encoded batch sizes directly reflect the bandwidth the paper's privacy
//! levels save: a 48×48 frame costs 2 304 payload bytes, its 16×16 (dCNN-L)
//! version 256 bytes — the 9× reduction of Figure 3.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::CollectError;
use crate::sensor::SensorReading;
use crate::{Frame, ImuSample, Result};

/// A sensor reading stamped with the *agent's local clock*.
#[derive(Debug, Clone, PartialEq)]
pub struct StampedReading {
    /// Agent-local timestamp, seconds.
    pub timestamp: f64,
    /// The observation.
    pub reading: SensorReading,
}

/// A transmission unit from one agent.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Agent identifier.
    pub agent_id: u32,
    /// Monotonic batch sequence number (per agent).
    pub seq: u32,
    /// The readings, in poll order.
    pub readings: Vec<StampedReading>,
}

const KIND_IMU: u8 = 0;
const KIND_FRAME: u8 = 1;

/// Bytes every encoded reading occupies at least: an 8-byte stamp and a
/// kind byte.
const READING_HEADER: usize = 9;

/// Bytes of an IMU reading's payload: its features as big-endian `f32`s.
const IMU_BYTES: usize = ImuSample::FEATURES * 4;

/// Pixels the encoder quantises on the stack between two puts.
const PIXEL_CHUNK: usize = 256;

/// Magic byte prefixing controller→agent acknowledgement messages.
const ACK_MAGIC: u8 = 0xA5;

/// A controller→agent acknowledgement for one received batch.
///
/// The reliable-delivery layer is selective-repeat: every accepted (or
/// duplicate — re-acks matter when the first ack was lost) batch is acked
/// individually by `(agent_id, seq)`, and the agent retires the matching
/// entry from its in-flight window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The agent whose batch is acknowledged.
    pub agent_id: u32,
    /// The batch sequence number being acknowledged.
    pub seq: u32,
}

/// Encodes an acknowledgement.
pub fn encode_ack(ack: &Ack) -> Bytes {
    let mut buf = BytesMut::with_capacity(9);
    buf.put_u8(ACK_MAGIC);
    buf.put_u32(ack.agent_id);
    buf.put_u32(ack.seq);
    buf.freeze()
}

/// Decodes an acknowledgement.
///
/// # Errors
///
/// Returns [`CollectError::Decode`] on truncated input, bytes past the
/// ack's nine, or a wrong magic byte. A batch is never nine bytes long
/// (its header alone is twelve), so one cannot pass for an ack whatever
/// its agent id.
pub fn decode_ack(mut data: Bytes) -> Result<Ack> {
    if data.remaining() < 9 {
        return Err(CollectError::Decode("truncated ack".into()));
    }
    if data.remaining() > 9 {
        return Err(CollectError::Decode(format!(
            "{} trailing bytes after ack",
            data.remaining() - 9
        )));
    }
    let magic = data.get_u8();
    if magic != ACK_MAGIC {
        return Err(CollectError::Decode(format!(
            "bad ack magic byte {magic:#04x}"
        )));
    }
    Ok(Ack {
        agent_id: data.get_u32(),
        seq: data.get_u32(),
    })
}

/// Encodes a batch into its wire representation.
pub fn encode_batch(batch: &Batch) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + batch.readings.len() * 64);
    encode_batch_into(&mut buf, batch);
    buf.freeze()
}

/// Encodes a batch into a caller-provided buffer (appended at the tail),
/// so hot append paths — the WAL's record framing in particular — can
/// reuse one scratch allocation across calls. Bytes go out in runs: an
/// IMU reading as one 57-byte record, a frame's header as one, and its
/// pixels quantised into a 256-byte stack chunk, put once a chunk.
pub fn encode_batch_into(buf: &mut BytesMut, batch: &Batch) {
    buf.put_u32(batch.agent_id);
    buf.put_u32(batch.seq);
    buf.put_u32(batch.readings.len() as u32);
    for r in &batch.readings {
        match &r.reading {
            SensorReading::Imu(s) => {
                let mut run = [0u8; READING_HEADER + IMU_BYTES];
                run[..8].copy_from_slice(&r.timestamp.to_be_bytes());
                run[8] = KIND_IMU;
                let features = run[READING_HEADER..].chunks_exact_mut(4);
                for (dst, v) in features.zip(s.to_features()) {
                    dst.copy_from_slice(&v.to_be_bytes());
                }
                buf.put_slice(&run);
            }
            SensorReading::Frame(f) => {
                let mut run = [0u8; READING_HEADER + 4];
                run[..8].copy_from_slice(&r.timestamp.to_be_bytes());
                run[8] = KIND_FRAME;
                run[9..11].copy_from_slice(&(f.width() as u16).to_be_bytes());
                run[11..].copy_from_slice(&(f.height() as u16).to_be_bytes());
                buf.put_slice(&run);
                let mut chunk = [0u8; PIXEL_CHUNK];
                for pixels in f.pixels().chunks(PIXEL_CHUNK) {
                    for (q, &p) in chunk.iter_mut().zip(pixels) {
                        *q = quantize(p);
                    }
                    buf.put_slice(&chunk[..pixels.len()]);
                }
            }
        }
    }
}

/// A pixel in `[0, 1]` as the nearest of 256 levels, ties away from
/// zero: `(p.clamp(0.0, 1.0) * 255.0).round() as u8` without the libm
/// call. `v - i` is exact (Sterbenz), so the comparison is the tie rule
/// `round` applies; a NaN pixel becomes 0 on both spellings.
fn quantize(p: f32) -> u8 {
    let v = p.clamp(0.0, 1.0) * 255.0;
    let i = v as u32;
    (i + u32::from(v - i as f32 >= 0.5)) as u8
}

/// Readings a decoder reserves room for up front: the header's `count`,
/// but never more than the `remaining` bytes could hold — the count is
/// the sender's claim, the datagram's length is a fact.
fn reserved_readings(count: usize, remaining: usize) -> usize {
    count.min(remaining / READING_HEADER)
}

/// Decodes a batch from its wire representation.
///
/// # Errors
///
/// Returns [`CollectError::Decode`] on truncated or malformed input,
/// bytes left over after the header's `count` readings, or a non-finite
/// timestamp or IMU feature: a NaN stamp would sort
/// to the front of its TSDB series and to the back of the alignment grid,
/// and turn every grid point past the last finite observation into NaN;
/// a NaN feature poisons every interpolated and smoothed grid point
/// around it.
pub fn decode_batch(mut data: Bytes) -> Result<Batch> {
    fn need(data: &Bytes, n: usize, what: &str) -> Result<()> {
        if data.remaining() < n {
            Err(CollectError::Decode(format!(
                "truncated batch while reading {what}"
            )))
        } else {
            Ok(())
        }
    }
    need(&data, 12, "header")?;
    let agent_id = data.get_u32();
    let seq = data.get_u32();
    let count = data.get_u32() as usize;
    let mut readings = Vec::with_capacity(reserved_readings(count, data.remaining()));
    for _ in 0..count {
        need(&data, READING_HEADER, "reading header")?;
        let timestamp = data.get_f64();
        if !timestamp.is_finite() {
            return Err(CollectError::Decode(format!(
                "non-finite reading timestamp {timestamp}"
            )));
        }
        let kind = data.get_u8();
        let reading = match kind {
            KIND_IMU => {
                need(&data, IMU_BYTES, "imu payload")?;
                let mut feats = [0.0f32; ImuSample::FEATURES];
                for (f, b) in feats.iter_mut().zip(data[..IMU_BYTES].chunks_exact(4)) {
                    *f = f32::from_be_bytes([b[0], b[1], b[2], b[3]]);
                }
                data.advance(IMU_BYTES);
                if !feats.iter().all(|f| f.is_finite()) {
                    return Err(CollectError::Decode(format!(
                        "non-finite imu features {feats:?}"
                    )));
                }
                SensorReading::Imu(ImuSample::from_features(&feats))
            }
            KIND_FRAME => {
                need(&data, 4, "frame header")?;
                let w = data.get_u16() as usize;
                let h = data.get_u16() as usize;
                need(&data, w * h, "frame pixels")?;
                let pixels = data[..w * h].iter().map(|&b| b as f32 / 255.0).collect();
                data.advance(w * h);
                SensorReading::Frame(Frame::from_pixels(w, h, pixels))
            }
            other => {
                return Err(CollectError::Decode(format!(
                    "unknown reading kind {other}"
                )));
            }
        };
        readings.push(StampedReading { timestamp, reading });
    }
    if data.remaining() > 0 {
        return Err(CollectError::Decode(format!(
            "{} trailing bytes after {count} readings",
            data.remaining()
        )));
    }
    Ok(Batch {
        agent_id,
        seq,
        readings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imu_reading(t: f64) -> StampedReading {
        StampedReading {
            timestamp: t,
            reading: SensorReading::Imu(ImuSample {
                accel: [1.0, -2.0, 9.8],
                gyro: [0.1, 0.0, -0.1],
                gravity: [0.0, 0.0, 9.81],
                rotation: [0.5, 1.0, -0.5],
            }),
        }
    }

    fn frame_reading(t: f64) -> StampedReading {
        let mut frame = Frame::new(4, 4);
        for i in 0..16 {
            frame.put((i % 4) as isize, (i / 4) as isize, i as f32 / 15.0);
        }
        StampedReading {
            timestamp: t,
            reading: SensorReading::Frame(frame),
        }
    }

    #[test]
    fn imu_batch_roundtrips_exactly() {
        let batch = Batch {
            agent_id: 3,
            seq: 42,
            readings: vec![imu_reading(0.025), imu_reading(0.050)],
        };
        let decoded = decode_batch(encode_batch(&batch)).unwrap();
        assert_eq!(decoded, batch);
    }

    #[test]
    fn frame_batch_roundtrips_within_quantization() {
        let batch = Batch {
            agent_id: 1,
            seq: 0,
            readings: vec![frame_reading(1.0)],
        };
        let decoded = decode_batch(encode_batch(&batch)).unwrap();
        let orig = batch.readings[0].reading.as_frame().unwrap();
        let got = decoded.readings[0].reading.as_frame().unwrap();
        assert_eq!(got.width(), 4);
        for (a, b) in orig.pixels().iter().zip(got.pixels()) {
            assert!((a - b).abs() <= 1.0 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn encode_into_appends_at_tail_and_matches_encode() {
        let batch = Batch {
            agent_id: 2,
            seq: 5,
            readings: vec![imu_reading(0.1), frame_reading(0.2)],
        };
        let mut buf = BytesMut::new();
        buf.put_u8(0xEE); // pre-existing framing byte must survive
        encode_batch_into(&mut buf, &batch);
        assert_eq!(buf[0], 0xEE);
        assert_eq!(&buf[1..], &encode_batch(&batch)[..]);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let batch = Batch {
            agent_id: 9,
            seq: 7,
            readings: vec![],
        };
        assert_eq!(decode_batch(encode_batch(&batch)).unwrap(), batch);
    }

    #[test]
    fn reservation_is_bounded_by_the_bytes_that_arrived() {
        // A bare 12-byte header claiming u32::MAX readings reserves
        // nothing; k reading headers' worth of payload, at most k.
        let claimed = u32::MAX as usize;
        assert_eq!(reserved_readings(claimed, 0), 0);
        for k in [1, 7, 1000] {
            assert_eq!(reserved_readings(claimed, READING_HEADER * k), k);
            assert_eq!(reserved_readings(claimed, READING_HEADER * k + 8), k);
        }
        assert_eq!(reserved_readings(3, 1 << 20), 3, "an honest count wins");
        let mut header = BytesMut::new();
        header.put_u32(1);
        header.put_u32(0);
        header.put_u32(u32::MAX);
        assert!(matches!(
            decode_batch(header.freeze()),
            Err(CollectError::Decode(_))
        ));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let batch = Batch {
            agent_id: 1,
            seq: 1,
            readings: vec![imu_reading(0.0)],
        };
        let bytes = encode_batch(&batch);
        let truncated = bytes.slice(0..bytes.len() - 4);
        assert!(matches!(
            decode_batch(truncated),
            Err(CollectError::Decode(_))
        ));
        assert!(matches!(
            decode_batch(Bytes::from_static(b"xx")),
            Err(CollectError::Decode(_))
        ));
    }

    #[test]
    fn ack_roundtrips_and_rejects_garbage() {
        let ack = Ack {
            agent_id: 3,
            seq: 1234,
        };
        assert_eq!(decode_ack(encode_ack(&ack)).unwrap(), ack);
        assert!(matches!(
            decode_ack(Bytes::from_static(b"tooshort")),
            Err(CollectError::Decode(_))
        ));
        // Batch bytes are not acks: first byte of a batch header is the
        // agent-id high byte, which for small ids is 0, not the magic.
        let batch_bytes = encode_batch(&Batch {
            agent_id: 1,
            seq: 0,
            readings: vec![imu_reading(0.0)],
        });
        assert!(decode_ack(batch_bytes).is_err());
    }

    #[test]
    fn a_batch_from_an_a5_agent_is_not_an_ack() {
        // The agent id's high byte is the ack magic: the batch's first
        // byte matches, its length must not.
        for readings in [vec![], vec![imu_reading(0.0)]] {
            let batch = Batch {
                agent_id: 0xA500_0000,
                seq: 3,
                readings,
            };
            let bytes = encode_batch(&batch);
            assert_eq!(bytes[0], ACK_MAGIC);
            assert!(matches!(
                decode_ack(bytes.clone()),
                Err(CollectError::Decode(_))
            ));
            assert_eq!(decode_batch(bytes).unwrap(), batch);
        }
        let mut ack = BytesMut::new();
        ack.put_slice(&encode_ack(&Ack {
            agent_id: 1,
            seq: 2,
        }));
        ack.put_u8(0);
        assert!(matches!(
            decode_ack(ack.freeze()),
            Err(CollectError::Decode(msg)) if msg.contains("trailing")
        ));
    }

    #[test]
    fn bytes_after_the_last_reading_are_refused() {
        let batch = Batch {
            agent_id: 4,
            seq: 9,
            readings: vec![imu_reading(0.5), frame_reading(0.75)],
        };
        let mut buf = BytesMut::new();
        encode_batch_into(&mut buf, &batch);
        buf.put_u8(0);
        assert!(matches!(
            decode_batch(buf.freeze()),
            Err(CollectError::Decode(msg)) if msg.contains("trailing")
        ));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        buf.put_u32(1);
        buf.put_u32(1);
        buf.put_f64(0.0);
        buf.put_u8(99);
        assert!(matches!(
            decode_batch(buf.freeze()),
            Err(CollectError::Decode(msg)) if msg.contains("99")
        ));
    }

    #[test]
    fn downsampled_frames_shrink_wire_size_by_papers_ratios() {
        let full = Frame::new(48, 48);
        let make = |f: Frame| {
            encode_batch(&Batch {
                agent_id: 0,
                seq: 0,
                readings: vec![StampedReading {
                    timestamp: 0.0,
                    reading: SensorReading::Frame(f),
                }],
            })
            .len()
        };
        let overhead = make(Frame::new(1, 1)) - 1;
        let full_payload = make(full.clone()) - overhead;
        let l = make(full.downsample_nearest(16, 16)) - overhead;
        let m = make(full.downsample_nearest(8, 8)) - overhead;
        let h = make(full.downsample_nearest(4, 4)) - overhead;
        assert_eq!(full_payload / l, 9);
        assert_eq!(full_payload / m, 36);
        assert_eq!(full_payload / h, 144);
    }
}
