//! Seeded message schedules. Everything a workload feeds the pipeline is
//! generated here from `--seed`, rendered through `darnet-sim` and
//! pre-encoded with the wire format, off the clock; the pipeline receives
//! only bytes.
//!
//! Fault *counts* are fixed by the work size and only their *placement*
//! comes from the seed, so the exact-count metrics (`wire_bytes_per_label`,
//! `state_mb`) read the same on every seed while the traffic still differs.

use bytes::Bytes;
use darnet_collect::{encode_batch, Batch, SensorReading, StampedReading};
use darnet_sim::{CanonicalBehavior, DrivingWorld, Frame};
use darnet_tensor::{SplitMix64, Tensor};

/// Cabin transmit period, seconds of simulated time: one tick.
pub const CABIN_TICK_S: f64 = 0.5;
/// IMU readings per cabin tick (40 Hz).
pub const IMU_PER_TICK: usize = 20;
/// Frames per camera per cabin tick (4 Hz).
pub const FRAMES_PER_TICK: usize = 2;
/// Fleet transmit period, seconds of simulated time.
pub const FLEET_TICK_S: f64 = 1.0;
/// Condensed IMU readings per vehicle per fleet tick (4 Hz).
pub const FLEET_IMU_PER_TICK: usize = 4;
/// A vehicle sends a frame on every this-many-th tick (every 2 s).
pub const FLEET_FRAME_EVERY: usize = 2;
/// One vehicle in this many is labelled.
pub const FLEET_LABEL_EVERY: usize = 20;

/// IMU grid points per model window (5 s at 4 Hz).
pub const WINDOW_LEN: usize = darnet_core::dataset::WINDOW_LEN;
/// Features per IMU reading.
pub const IMU_FEATURES: usize = darnet_core::dataset::IMU_FEATURES;

/// One encoded batch and the simulated time it reaches the controller.
#[derive(Debug, Clone)]
pub struct Message {
    /// Arrival on the controller's clock, simulated seconds.
    pub arrival: f64,
    /// The wire bytes.
    pub bytes: Bytes,
}

/// FNV-1a over `bytes`, folded into `h`.
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a offset basis.
pub const FNV_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of a schedule's bytes and arrival times, tick by tick.
#[cfg(test)]
pub fn schedule_digest(ticks: &[Vec<Message>]) -> u64 {
    let mut h = FNV_INIT;
    for tick in ticks {
        fnv1a(&mut h, &(tick.len() as u64).to_le_bytes());
        for m in tick {
            fnv1a(&mut h, &m.arrival.to_bits().to_le_bytes());
            fnv1a(&mut h, &m.bytes);
        }
    }
    h
}

/// `k` distinct values from `lo..hi`, placement by `rng` (partial
/// Fisher–Yates, so the count is exact whatever the seed).
fn pick_distinct(rng: &mut SplitMix64, lo: usize, hi: usize, k: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (lo..hi).collect();
    let k = k.min(pool.len());
    for i in 0..k {
        let j = i + (rng.next_u64() % (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// One-way link delay: the repo's default link model (15 ms + up to 10 ms
/// of jitter), which is what reorders messages within a tick.
fn link_delay(rng: &mut SplitMix64) -> f64 {
    0.015 + rng.next_f64() * 0.010
}

/// Delivers `copies` of a batch sent at `sent_s` into `tick`, each over
/// its own link delay.
fn deliver(
    tick: &mut Vec<Message>,
    sent_s: f64,
    bytes: &Bytes,
    copies: usize,
    rng: &mut SplitMix64,
) {
    for _ in 0..copies {
        tick.push(Message {
            arrival: sent_s + link_delay(rng),
            bytes: bytes.clone(),
        });
    }
}

/// Sorts every tick's messages by arrival: the order the loop offers them.
fn in_arrival_order(mut ticks: Vec<Vec<Message>>) -> Vec<Vec<Message>> {
    for tick in &mut ticks {
        tick.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
    }
    ticks
}

/// The messages of one cabin session: `ticks` transmit periods of three
/// agents (IMU = 0, front camera = 1, side camera = 2), starting at global
/// tick `first_tick` (sequence numbers and sensor time continue from
/// there, so a session can extend a recovered history).
///
/// With `faults`, per stream exactly `ticks / 20` batches are delivered
/// twice (5 %) and `ceil(ticks / 100)` are lost and arrive one tick late
/// as a retransmission (1 %); never in the first two or the last tick, so
/// every frame is labelled before the session ends.
pub fn cabin_session(
    world: &DrivingWorld,
    seed: u64,
    first_tick: usize,
    ticks: usize,
    faults: bool,
) -> Vec<Vec<Message>> {
    let mut rng = SplitMix64::new(seed);
    let driver = (rng.next_u64() % world.driver_count() as u64) as usize;
    // Where on the world's timeline this session plays, so sessions of
    // one driver still render differently.
    let phase = rng.next_f64() * 600.0;
    // The scripted behaviour changes every 5 s.
    let script: Vec<CanonicalBehavior> = (0..ticks / 10 + 1)
        .map(|_| CanonicalBehavior::ALL[(rng.next_u64() % 8) as usize])
        .collect();
    let (mut dup, mut late) = (vec![Vec::new(); 3], vec![Vec::new(); 3]);
    if faults {
        for stream in 0..3 {
            dup[stream] = pick_distinct(&mut rng, 0, ticks, ticks / 20);
            late[stream] = pick_distinct(&mut rng, 2, ticks - 1, ticks.div_ceil(100));
        }
    }
    let mut out: Vec<Vec<Message>> = vec![Vec::new(); ticks];
    for k in 0..ticks {
        let g = first_tick + k;
        let class = script[k / 10];
        let imu = (0..IMU_PER_TICK)
            .map(|j| {
                let t = (g * IMU_PER_TICK + j) as f64 * 0.025;
                StampedReading {
                    timestamp: t,
                    reading: SensorReading::Imu(world.imu_sample_canonical(
                        driver,
                        class,
                        t + phase,
                    )),
                }
            })
            .collect();
        let camera = |side: bool| {
            (0..FRAMES_PER_TICK)
                .map(|j| {
                    let t = (g * FRAMES_PER_TICK + j) as f64 * 0.25;
                    let frame = if side {
                        world.render_side_frame(driver, class, t + phase)
                    } else {
                        world.render_canonical_frame(driver, class, t + phase)
                    };
                    StampedReading {
                        timestamp: t,
                        reading: SensorReading::Frame(frame),
                    }
                })
                .collect()
        };
        let batches = [imu, camera(false), camera(true)];
        for (stream, readings) in batches.into_iter().enumerate() {
            let bytes = encode_batch(&Batch {
                agent_id: stream as u32,
                seq: g as u32,
                readings,
            });
            let slot = if late[stream].contains(&k) { k + 1 } else { k };
            let sent_s = (first_tick + slot + 1) as f64 * CABIN_TICK_S;
            let copies = 1 + usize::from(dup[stream].contains(&k));
            deliver(&mut out[slot], sent_s, &bytes, copies, &mut rng);
        }
    }
    in_arrival_order(out)
}

/// The messages of one fleet session: `ticks` transmit periods of
/// `vehicles` single-agent vehicles, each sending four condensed IMU
/// readings per tick and an 8×8 frame every other tick.
///
/// Per tick exactly `vehicles / 200` batches are delivered twice (0.5 %)
/// and, except in the last tick, `vehicles / 100` arrive one tick late
/// (1 %): the rates of `FleetConfig::default()`'s link.
pub fn fleet_session(
    world: &DrivingWorld,
    seed: u64,
    vehicles: usize,
    ticks: usize,
) -> Vec<Vec<Message>> {
    let mut rng = SplitMix64::new(seed);
    let profile: Vec<(f64, CanonicalBehavior)> = (0..vehicles)
        .map(|_| {
            (
                rng.next_f64() * 1_000.0,
                CanonicalBehavior::ALL[(rng.next_u64() % 8) as usize],
            )
        })
        .collect();
    let mut out: Vec<Vec<Message>> = vec![Vec::new(); ticks];
    for k in 0..ticks {
        let dup = pick_distinct(&mut rng, 0, vehicles, vehicles / 200);
        let late = if k + 1 < ticks {
            pick_distinct(&mut rng, 0, vehicles, vehicles / 100)
        } else {
            Vec::new()
        };
        let mut is_dup = vec![false; vehicles];
        let mut is_late = vec![false; vehicles];
        dup.into_iter().for_each(|v| is_dup[v] = true);
        late.into_iter().for_each(|v| is_late[v] = true);
        for (v, &(phase, class)) in profile.iter().enumerate() {
            let driver = v % world.driver_count();
            let mut readings = Vec::with_capacity(FLEET_IMU_PER_TICK + 1);
            for j in 0..FLEET_IMU_PER_TICK {
                let t = (k * FLEET_IMU_PER_TICK + j) as f64 * 0.25;
                readings.push(StampedReading {
                    timestamp: t,
                    reading: SensorReading::Imu(world.imu_sample_canonical(
                        driver,
                        class,
                        t + phase,
                    )),
                });
                if j == 0 && k % FLEET_FRAME_EVERY == 0 {
                    readings.push(StampedReading {
                        timestamp: t,
                        reading: SensorReading::Frame(world.render_canonical_frame(
                            driver,
                            class,
                            t + phase,
                        )),
                    });
                }
            }
            let bytes = encode_batch(&Batch {
                agent_id: v as u32,
                seq: k as u32,
                readings,
            });
            let slot = if is_late[v] { k + 1 } else { k };
            let sent_s = (slot + 1) as f64 * FLEET_TICK_S;
            deliver(
                &mut out[slot],
                sent_s,
                &bytes,
                1 + usize::from(is_dup[v]),
                &mut rng,
            );
        }
    }
    in_arrival_order(out)
}

/// The fixed 64-sample set the IMU standardizer and the Bayesian combiner
/// are fitted on. It does not depend on `--seed`: every run of a workload
/// builds the same engine, so only the traffic differs between seeds.
pub struct FitSet {
    /// Front-camera frames.
    pub front: Vec<Frame>,
    /// Side-camera frames.
    pub side: Vec<Frame>,
    /// `[64, WINDOW_LEN, IMU_FEATURES]` IMU windows.
    pub windows: Tensor,
    /// Canonical class of each sample.
    pub labels: Vec<usize>,
}

/// Samples in the [`FitSet`].
pub const FIT_SAMPLES: usize = 64;

/// Renders the [`FitSet`] from `world`.
pub fn fit_set(world: &DrivingWorld) -> FitSet {
    let mut set = FitSet {
        front: Vec::with_capacity(FIT_SAMPLES),
        side: Vec::with_capacity(FIT_SAMPLES),
        windows: Tensor::zeros(&[FIT_SAMPLES, WINDOW_LEN, IMU_FEATURES]),
        labels: Vec::with_capacity(FIT_SAMPLES),
    };
    let row = WINDOW_LEN * IMU_FEATURES;
    for i in 0..FIT_SAMPLES {
        let driver = i % world.driver_count();
        let class = CanonicalBehavior::ALL[i % 8];
        let t = 3.0 + i as f64 * 0.37;
        set.front
            .push(world.render_canonical_frame(driver, class, t));
        set.side.push(world.render_side_frame(driver, class, t));
        set.labels.push(class.index());
        let window = &mut set.windows.data_mut()[i * row..(i + 1) * row];
        for (j, point) in window.chunks_exact_mut(IMU_FEATURES).enumerate() {
            let at = t - (WINDOW_LEN - 1 - j) as f64 * 0.25;
            point.copy_from_slice(&world.imu_sample_canonical(driver, class, at).to_features());
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use darnet_collect::decode_batch;
    use darnet_sim::WorldConfig;

    fn world(frame_size: usize) -> DrivingWorld {
        DrivingWorld::new(WorldConfig {
            frame_size,
            ..WorldConfig::default()
        })
    }

    fn bytes_offered(ticks: &[Vec<Message>]) -> usize {
        ticks.iter().flatten().map(|m| m.bytes.len()).sum()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_digest() {
        let w = world(48);
        let a = cabin_session(&w, 11, 0, 20, true);
        let b = cabin_session(&w, 11, 0, 20, true);
        let c = cabin_session(&w, 12, 0, 20, true);
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(x.bytes, y.bytes);
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
        }
        assert_ne!(schedule_digest(&a), schedule_digest(&c));
        let w8 = world(8);
        assert_eq!(
            schedule_digest(&fleet_session(&w8, 5, 200, 4)),
            schedule_digest(&fleet_session(&w8, 5, 200, 4))
        );
        assert_ne!(
            schedule_digest(&fleet_session(&w8, 5, 200, 4)),
            schedule_digest(&fleet_session(&w8, 6, 200, 4))
        );
    }

    #[test]
    fn fault_counts_and_bytes_do_not_depend_on_the_seed() {
        let w = world(48);
        let a = cabin_session(&w, 1, 0, 40, true);
        let b = cabin_session(&w, 2, 0, 40, true);
        // 40 ticks × 3 streams + 2 duplicates per stream.
        assert_eq!(a.iter().flatten().count(), 126);
        assert_eq!(b.iter().flatten().count(), 126);
        assert_eq!(bytes_offered(&a), bytes_offered(&b));
        let w8 = world(8);
        let fa = fleet_session(&w8, 1, 400, 4);
        let fb = fleet_session(&w8, 2, 400, 4);
        assert_eq!(fa.iter().flatten().count(), 4 * 402);
        assert_eq!(bytes_offered(&fa), bytes_offered(&fb));
    }

    #[test]
    fn every_batch_arrives_by_the_last_tick_in_its_own_or_the_next_tick() {
        let w = world(48);
        let first_tick = 7;
        let ticks = cabin_session(&w, 3, first_tick, 30, true);
        let mut seen = [[false; 30]; 3];
        for (slot, tick) in ticks.iter().enumerate() {
            assert!(tick.windows(2).all(|p| p[0].arrival <= p[1].arrival));
            for m in tick {
                let batch = decode_batch(m.bytes.clone()).unwrap();
                let k = batch.seq as usize - first_tick;
                assert!(slot == k || slot == k + 1, "seq {k} in slot {slot}");
                seen[batch.agent_id as usize][k] = true;
                let want = if batch.agent_id == 0 {
                    IMU_PER_TICK
                } else {
                    FRAMES_PER_TICK
                };
                assert_eq!(batch.readings.len(), want);
            }
        }
        assert!(seen.iter().flatten().all(|&s| s));
        // The last tick carries nothing late, and nothing of it is late.
        let last_own = ticks[29]
            .iter()
            .filter(|m| decode_batch(m.bytes.clone()).unwrap().seq as usize == first_tick + 29)
            .count();
        assert!(last_own >= 3);
    }

    #[test]
    fn fit_set_is_fixed_and_covers_every_class() {
        let w = world(48);
        let a = fit_set(&w);
        let b = fit_set(&w);
        assert_eq!(a.front, b.front);
        assert_eq!(a.windows.data(), b.windows.data());
        assert_eq!(a.labels.len(), FIT_SAMPLES);
        for c in 0..8 {
            assert_eq!(a.labels.iter().filter(|&&l| l == c).count(), 8);
        }
    }
}
