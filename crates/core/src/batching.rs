//! Micro-batching front for the analytics engine.
//!
//! The collect pipeline emits aligned frame+window tuples one at a time
//! (4 Hz per driver); the engine classifies far more efficiently in
//! batches, which amortize per-call model overhead and feed the forward
//! products taller operands. A [`MicroBatcher`] sits between the
//! two: tuples queue as they arrive and flush as one batch when either the
//! batch-size cap is reached or the oldest queued tuple has waited past
//! the deadline — so latency is bounded by `max_delay` even at low rates,
//! and throughput approaches the batched optimum at high rates.
//!
//! Time is passed in explicitly (`now`, seconds on the caller's clock), so
//! the batcher is deterministic and clock-source agnostic, matching the
//! discrete-event style of [`darnet_collect::runtime`].

use std::cmp::Ordering;

use darnet_collect::runtime::AlignedTuple;
use darnet_collect::StreamId;

use crate::dataset::{IMU_FEATURES, WINDOW_LEN};
use crate::error::CoreError;
use crate::registry::{MultiModalEngine, MultiStepClassification, StreamInput};
use crate::Result;

/// Flush policy for a [`MicroBatcher`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroBatchConfig {
    /// Flush as soon as this many tuples are queued.
    pub max_batch: usize,
    /// Flush when the oldest queued tuple has waited this many seconds,
    /// even if the batch is not full — the latency bound.
    pub max_delay: f64,
}

impl Default for MicroBatchConfig {
    fn default() -> Self {
        MicroBatchConfig {
            max_batch: 32,
            max_delay: 0.25,
        }
    }
}

/// Queues aligned tuples and releases them in size- or deadline-triggered
/// batches (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct MicroBatcher {
    config: MicroBatchConfig,
    queue: Vec<AlignedTuple>,
    /// Arrival time of the oldest queued tuple.
    oldest_arrival: Option<f64>,
}

impl MicroBatcher {
    /// Creates an empty batcher. `max_batch` is clamped to at least 1.
    pub fn new(config: MicroBatchConfig) -> Self {
        MicroBatcher {
            config: MicroBatchConfig {
                max_batch: config.max_batch.max(1),
                ..config
            },
            queue: Vec::new(),
            oldest_arrival: None,
        }
    }

    /// The flush policy.
    pub fn config(&self) -> MicroBatchConfig {
        self.config
    }

    /// Queued tuple count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// When the queued work must flush at the latest (the oldest tuple's
    /// arrival plus `max_delay`), or `None` if the queue is empty. Event
    /// loops can schedule their next wake-up from this.
    pub fn next_deadline(&self) -> Option<f64> {
        self.oldest_arrival.map(|t| t + self.config.max_delay)
    }

    /// Queues one tuple arriving at `now`. Returns the full batch when
    /// this push reaches `max_batch`, `None` otherwise.
    pub fn push(&mut self, tuple: AlignedTuple, now: f64) -> Option<Vec<AlignedTuple>> {
        self.oldest_arrival.get_or_insert(now);
        self.queue.push(tuple);
        if self.queue.len() >= self.config.max_batch {
            Some(self.flush())
        } else {
            None
        }
    }

    /// Whether a batch would flush at `now`: either the queue is full or
    /// `now` is not provably before the oldest tuple's deadline. A NaN
    /// deadline (a NaN `max_delay`, or a NaN first arrival) or a NaN `now`
    /// therefore releases the batch rather than holding it until it
    /// fills; a `max_delay` of `+∞` still means size-only.
    pub fn ready(&self, now: f64) -> bool {
        let due = |deadline: f64| now.partial_cmp(&deadline) != Some(Ordering::Less);
        self.queue.len() >= self.config.max_batch || self.next_deadline().is_some_and(due)
    }

    /// Takes the queued batch if [`MicroBatcher::ready`] at `now`.
    pub fn take_ready(&mut self, now: f64) -> Option<Vec<AlignedTuple>> {
        self.ready(now).then(|| self.flush())
    }

    /// Unconditionally drains the queue (end-of-stream).
    pub fn flush(&mut self) -> Vec<AlignedTuple> {
        self.oldest_arrival = None;
        std::mem::take(&mut self.queue)
    }
}

impl MultiModalEngine {
    /// The collect-to-engine feed path: classifies a flushed micro-batch
    /// of aligned tuples, each tuple's frame feeding the `camera` stream
    /// and its IMU window the `imu` stream. Input assembly runs on the
    /// session's reused buffers — the window tensor is a workspace
    /// checkout and the frames (a clone shares its pixels) refill an
    /// engine-owned scratch list that keeps its capacity — so after one
    /// warm-up call at a given batch shape the drain loop performs zero
    /// heap allocations per flush. Results are in tuple order, written
    /// into `out` as [`MultiModalEngine::classify_batch_into`] would.
    ///
    /// # Errors
    ///
    /// Returns a dataset error when a tuple's window is not
    /// `WINDOW_LEN × IMU_FEATURES` long; otherwise as
    /// [`MultiModalEngine::classify_batch_checked_into`].
    pub fn classify_tuples_into(
        &mut self,
        camera: StreamId,
        imu: StreamId,
        tuples: &[AlignedTuple],
        out: &mut Vec<MultiStepClassification>,
    ) -> Result<()> {
        let n = tuples.len();
        if n == 0 {
            self.truncate_out(out, 0);
            return Ok(());
        }
        let row = WINDOW_LEN * IMU_FEATURES;
        for tup in tuples {
            if tup.window.len() != row {
                return Err(CoreError::Dataset(format!(
                    "tuple at t={} has a {}-element window, expected {row}",
                    tup.t,
                    tup.window.len()
                )));
            }
        }
        let mut windows = self.ws.checkout(&[n, WINDOW_LEN, IMU_FEATURES]);
        let wd = windows.data_mut();
        for (i, tup) in tuples.iter().enumerate() {
            wd[i * row..(i + 1) * row].copy_from_slice(&tup.window);
        }
        let mut frames = std::mem::take(&mut self.tuple_frames);
        frames.clear();
        frames.extend(tuples.iter().map(|tup| tup.frame.clone()));
        let inputs = [
            (camera, StreamInput::Frames(&frames)),
            (imu, StreamInput::Windows(&windows)),
        ];
        let result = self.classify_batch_checked_into(&inputs, &[], out);
        self.tuple_frames = frames;
        self.ws.restore(windows);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darnet_sim::Frame;

    fn tuple(t: f64) -> AlignedTuple {
        AlignedTuple {
            t,
            frame: Frame::new(4, 4),
            window: vec![0.0; WINDOW_LEN * IMU_FEATURES],
        }
    }

    #[test]
    fn size_cap_flushes_exactly_at_max_batch() {
        let mut b = MicroBatcher::new(MicroBatchConfig {
            max_batch: 3,
            max_delay: 10.0,
        });
        assert!(b.push(tuple(0.0), 0.0).is_none());
        assert!(b.push(tuple(0.1), 0.1).is_none());
        let batch = b.push(tuple(0.2), 0.2).expect("third push fills the batch");
        assert_eq!(batch.len(), 3);
        assert!(b.is_empty());
        assert_eq!(b.next_deadline(), None);
    }

    #[test]
    fn deadline_flushes_a_partial_batch() {
        let mut b = MicroBatcher::new(MicroBatchConfig {
            max_batch: 32,
            max_delay: 0.25,
        });
        b.push(tuple(1.0), 1.0);
        b.push(tuple(1.1), 1.1);
        // The deadline tracks the *oldest* tuple.
        assert_eq!(b.next_deadline(), Some(1.25));
        assert!(!b.ready(1.2));
        assert!(b.take_ready(1.2).is_none());
        assert!(b.ready(1.25));
        let batch = b.take_ready(1.3).expect("deadline passed");
        assert_eq!(batch.len(), 2);
        assert!(b.is_empty());
    }

    #[test]
    fn a_nan_deadline_releases_the_batch() {
        let nan_delay = MicroBatchConfig {
            max_batch: 32,
            max_delay: f64::NAN,
        };
        let mut b = MicroBatcher::new(nan_delay);
        b.push(tuple(1.0), 1.0);
        assert_eq!(b.take_ready(1e9).map(|batch| batch.len()), Some(1));
        // A NaN stamp on the first push poisons the deadline the same way.
        let mut b = MicroBatcher::new(MicroBatchConfig::default());
        b.push(tuple(1.0), f64::NAN);
        b.push(tuple(1.1), 1.1);
        assert!(b.ready(1.1));
        assert_eq!(b.take_ready(1e9).map(|batch| batch.len()), Some(2));
        assert!(b.is_empty());
        // An infinite delay still flushes by size only.
        let mut b = MicroBatcher::new(MicroBatchConfig {
            max_batch: 2,
            max_delay: f64::INFINITY,
        });
        b.push(tuple(0.0), 0.0);
        assert!(b.take_ready(1e300).is_none());
        assert!(b.push(tuple(0.1), 0.1).is_some());
    }

    #[test]
    fn deadline_resets_after_flush() {
        let mut b = MicroBatcher::new(MicroBatchConfig {
            max_batch: 8,
            max_delay: 0.25,
        });
        b.push(tuple(0.0), 0.0);
        b.flush();
        b.push(tuple(5.0), 5.0);
        assert_eq!(b.next_deadline(), Some(5.25));
    }

    #[test]
    fn flush_drains_everything() {
        let mut b = MicroBatcher::new(MicroBatchConfig::default());
        for i in 0..5 {
            b.push(tuple(i as f64), i as f64);
        }
        assert_eq!(b.len(), 5);
        assert_eq!(b.flush().len(), 5);
        assert!(b.flush().is_empty());
    }

    #[test]
    fn zero_max_batch_is_clamped() {
        let mut b = MicroBatcher::new(MicroBatchConfig {
            max_batch: 0,
            max_delay: 1.0,
        });
        assert!(b.push(tuple(0.0), 0.0).is_some());
    }
}
