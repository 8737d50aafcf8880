//! How a call runs its streams: the FLOP schedule ([`plan_streams`]) and
//! the engine's resident stream workers, each fed one group per fanned
//! call through a `Mutex` + `Condvar` hand-off that only this file sees.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use darnet_tensor::Tensor;

use super::streams::RegisteredStream;
use super::MAX_STREAMS;
use crate::error::CoreError;

/// The least work, in forward FLOPs over a call's batch, that every group
/// of a fanned-out call must carry
/// ([`MultiModalEngine::classify_batch_checked_into`](super::MultiModalEngine::classify_batch_checked_into)).
/// A fanned call hands its groups to the engine's resident workers, so
/// what it has to pay for is a hand-off round trip and a second core.
/// Timed per call on a 2-vCPU host (twin engines, interleaved, median of
/// 200 paired calls, three runs), fanned ÷ inline read:
/// - at the ledger's cabin scale (48×48 frames, BiLSTM 2×64; IMU, front
///   and side camera; the lightest group, both cameras, carries 2.47
///   MFLOP a step): 0.70–0.84 at 1 step, 0.67–0.69 at 2, 0.58–0.76 at 4,
///   0.68–0.79 at 6 and 0.62–0.71 at 8;
/// - at edge scale (8×8 frames at width 0.25, BiLSTM 1×8; the CNN group
///   carries 5.4 kFLOP a frame): 0.92–1.11 at 1 step, 0.97–1.03 at 8 and
///   0.93–0.99 at 32 (0.17 MFLOP): no steady gain.
///
/// So the floor sits just below one cabin step's lightest group: every
/// cabin batch fans out, and every edge-scale batch up to 32 steps runs
/// inline. Fixed, not a setting.
pub const FAN_OUT_MIN_FLOPS: usize = 2_000_000;

/// A call's stream schedule: the present streams split into `groups`
/// groups, the last run by the caller and each other one by a resident
/// worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Schedule {
    /// Group count, at least two.
    pub(super) groups: usize,
    /// Each registered stream's group (0 for an absent one).
    pub(super) group: [usize; MAX_STREAMS],
}

/// Decides how a call runs its streams, from nothing but the thread
/// count, each registered stream's per-sample FLOPs (`None` when it sits
/// the call out) and the batch length `n`. The present streams go into
/// `min(threads, present)` groups, greedy longest-first: heaviest stream
/// first, ties in registry order, each into the group with the least work
/// so far (the lowest-numbered on a tie). `None` — run inline — when that
/// makes fewer than two groups or any group's `n × flops` falls below
/// [`FAN_OUT_MIN_FLOPS`].
pub(super) fn plan_streams(threads: usize, flops: &[Option<usize>], n: usize) -> Option<Schedule> {
    let mut order = [(0usize, 0usize); MAX_STREAMS];
    let mut present = 0;
    for (k, cost) in flops.iter().enumerate() {
        if let Some(cost) = cost {
            order[present] = (k, *cost);
            present += 1;
        }
    }
    let groups = threads.min(present);
    if groups < 2 {
        return None;
    }
    let order = &mut order[..present];
    order.sort_unstable_by_key(|&(k, cost)| (std::cmp::Reverse(cost), k));
    let mut plan = Schedule {
        groups,
        group: [0; MAX_STREAMS],
    };
    let mut load = [0usize; MAX_STREAMS];
    for &(k, cost) in order.iter() {
        let lightest = (0..groups).min_by_key(|&g| load[g])?;
        plan.group[k] = lightest;
        load[lightest] += cost;
    }
    let heavy = |&load: &usize| n.saturating_mul(load) >= FAN_OUT_MIN_FLOPS;
    load[..groups].iter().all(heavy).then_some(plan)
}

/// The stage a stream group's panic reports as [`CoreError::WorkerPanicked`].
const GROUP_STAGE: &str = "MultiModalEngine stream group";

/// One stream of a worker's group: its registry index, the stream and the
/// batch its model runs over, both moved to the worker for one call.
pub(super) type Job = (usize, RegisteredStream, Tensor);

/// Runs a group's jobs, held in descending registry order, in registry
/// order up to the first error, which it returns with its stream's
/// registry index.
fn run_group(jobs: &mut [Job]) -> Option<(usize, CoreError)> {
    let mut jobs = jobs.iter_mut().rev();
    jobs.find_map(|(k, stream, batch)| stream.run_model(batch).err().map(|e| (*k, e)))
}

/// Whose move it is on a [`Handoff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Turn {
    /// Nothing to run: the worker waits, and a group it ran is the
    /// caller's to take back.
    Idle,
    /// A group is handed over; the worker runs it.
    Run,
    /// The engine let the worker go; it returns.
    Exit,
}

/// What a [`Handoff`]'s mutex guards.
struct Slot {
    turn: Turn,
    /// The group, in descending registry order. It was created with room
    /// for [`MAX_STREAMS`], so handing streams over allocates nothing.
    jobs: Vec<Job>,
    /// The group's first error, with its stream's registry index.
    failed: Option<(usize, CoreError)>,
}

/// The one channel between an engine and a resident worker: a slot and a
/// condition variable signalled on every change of turn, either way.
struct Handoff {
    slot: Mutex<Slot>,
    turned: Condvar,
}

impl Handoff {
    /// Locks the slot. Nothing panics while holding it — a group runs
    /// under `catch_unwind` — so even a poisoned lock guards a whole
    /// slot: it is taken as it is, and [`Worker::finish`] reports the
    /// poison.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The worker's loop: run each group handed over, until told to exit.
    /// A model's panic is caught and becomes that group's
    /// [`CoreError::WorkerPanicked`]; the worker keeps serving.
    fn serve(&self) {
        let mut slot = self.lock();
        loop {
            match slot.turn {
                Turn::Run => {
                    let Slot { jobs, failed, .. } = &mut *slot;
                    let ran = panic::catch_unwind(AssertUnwindSafe(|| run_group(jobs)));
                    *failed = ran.unwrap_or_else(|_| Some(group_panicked(jobs)));
                    slot.turn = Turn::Idle;
                    self.turned.notify_all();
                }
                Turn::Exit => return,
                Turn::Idle => {}
            }
            slot = self
                .turned
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A group's panic, reported at its first stream's registry index.
fn group_panicked(jobs: &[Job]) -> (usize, CoreError) {
    let lead = jobs.last().map_or(0, |(k, ..)| *k);
    (lead, CoreError::WorkerPanicked { stage: GROUP_STAGE })
}

/// A resident stream worker: a thread that runs one group of each fanned
/// call, fed through its [`Handoff`] and joined when dropped. The engine
/// gives it a group's jobs, runs them, waits for them and takes them back.
pub(super) struct Worker {
    handoff: Arc<Handoff>,
    thread: Option<JoinHandle<()>>,
}

impl Worker {
    /// Starts a worker, or `None` if the host will not give a thread.
    #[expect(
        clippy::disallowed_methods,
        reason = "the engine's resident stream workers: each is joined when its engine drops it"
    )]
    pub(super) fn start() -> Option<Worker> {
        let handoff = Arc::new(Handoff {
            slot: Mutex::new(Slot {
                turn: Turn::Idle,
                jobs: Vec::with_capacity(MAX_STREAMS),
                failed: None,
            }),
            turned: Condvar::new(),
        });
        let served = Arc::clone(&handoff);
        let thread = std::thread::Builder::new()
            .name("darnet-stream".into())
            .spawn(move || served.serve())
            .ok()?;
        Some(Worker {
            handoff,
            thread: Some(thread),
        })
    }

    /// Adds a job to the worker's next group. Jobs are given highest
    /// registry index first, so the group is held in descending order.
    pub(super) fn give(&self, job: Job) {
        self.handoff.lock().jobs.push(job);
    }

    /// Hands the staged group to the worker.
    pub(super) fn run(&self) {
        self.handoff.lock().turn = Turn::Run;
        self.handoff.turned.notify_all();
    }

    /// Waits until the worker has run its group, and returns the group's
    /// first error. A lock found poisoned is the group's
    /// [`CoreError::WorkerPanicked`], and is cleared, so the next call
    /// hands over as before.
    pub(super) fn finish(&self) -> Option<(usize, CoreError)> {
        let handoff = &*self.handoff;
        let running = |slot: &mut Slot| slot.turn == Turn::Run;
        let waited = handoff.turned.wait_while(handoff.lock(), running);
        let mut slot = waited.unwrap_or_else(PoisonError::into_inner);
        let failed = slot.failed.take();
        if handoff.slot.is_poisoned() {
            handoff.slot.clear_poison();
            return Some(group_panicked(&slot.jobs));
        }
        failed
    }

    /// Takes back the lowest-index job of the group, after [`Worker::finish`].
    pub(super) fn take(&self) -> Option<Job> {
        self.handoff.lock().jobs.pop()
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.handoff.lock().turn = Turn::Exit;
        self.handoff.turned.notify_all();
        if let Some(thread) = self.thread.take() {
            // `serve` catches every group's panic, so the join has none
            // to report.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{IMU_FEATURES, WINDOW_LEN};
    use crate::models::{CnnConfig, FrameCnn, ImuRnn, RnnConfig};
    use crate::registry::tests::{fanned_batch, test_batch, three_stream_engine};
    use crate::registry::{StreamInput, StreamModelSlot};
    use darnet_collect::StreamId;
    use darnet_tensor::Parallelism;

    /// Per-sample FLOPs of `(camera CNN, IMU BiLSTM)` at one of the
    /// ledger's model scales, over its 8-class taxonomy.
    fn scale_flops(edge: usize, width: f32, hidden: usize, depth: usize) -> (usize, usize) {
        let cnn = CnnConfig {
            input_size: edge,
            classes: 8,
            width,
            ..CnnConfig::default()
        };
        let rnn = RnnConfig {
            hidden,
            depth,
            ..RnnConfig::default()
        };
        (
            StreamModelSlot::Cnn(FrameCnn::new(cnn, 1)).flops_per_sample(),
            StreamModelSlot::Rnn(ImuRnn::new(rnn, 2)).flops_per_sample(),
        )
    }

    #[test]
    fn the_schedule_fans_cabin_scale_out_and_keeps_edge_scale_inline() {
        // The ledger's traced `nn.cnn_flops_per_frame`/`rnn_flops_per_window`.
        let (cnn, rnn) = scale_flops(48, 1.0, 64, 2);
        assert_eq!((cnn, rnn), (1_234_944, 5_489_408));
        // Registry order IMU, front, side: on two threads a worker takes
        // the BiLSTM and the caller both cameras, at every batch length.
        let cabin = [Some(rnn), Some(cnn), Some(cnn)];
        for n in [1, 2, 4, 6, 8, 32] {
            let plan = plan_streams(2, &cabin, n).expect("cabin fans out");
            assert_eq!(
                (plan.groups, &plan.group[..3]),
                (2, &[0, 1, 1][..]),
                "n = {n}"
            );
        }
        // Three threads: a group each, once a lone camera crosses the floor.
        let plan = plan_streams(3, &cabin, 2).expect("cabin fans out");
        assert_eq!((plan.groups, &plan.group[..3]), (3, &[0, 1, 2][..]));
        assert_eq!(plan_streams(3, &cabin, 1), None);
        // One thread, or a single survivor: inline.
        assert_eq!(plan_streams(1, &cabin, 8), None);
        assert_eq!(plan_streams(2, &[Some(rnn), None, None], 8), None);
        assert_eq!(plan_streams(2, &[None, None, Some(cnn)], 8), None);

        // Edge scale: every batch the micro-batcher flushes stays inline.
        let (cnn, rnn) = scale_flops(8, 0.25, 8, 1);
        assert_eq!((cnn, rnn), (5_438, 51_296));
        for n in 1..=32 {
            assert_eq!(plan_streams(2, &[Some(rnn), Some(cnn)], n), None, "n = {n}");
        }
        // The floor is on the lightest group, and crossing it fans out.
        let n = FAN_OUT_MIN_FLOPS.div_ceil(cnn);
        assert_eq!(plan_streams(2, &[Some(rnn), Some(cnn)], n - 1), None);
        assert!(plan_streams(2, &[Some(rnn), Some(cnn)], n).is_some());
    }

    /// A bad IMU batch fails on a worker: the streams come back, the error
    /// is the inline engine's, and the next good call is bitwise inline.
    #[test]
    fn a_failing_worker_group_gives_its_streams_back() {
        let mut serial = three_stream_engine();
        serial.set_parallelism(Parallelism::serial());
        let mut parallel = three_stream_engine();
        parallel.set_parallelism(Parallelism::new(2));
        let n = fanned_batch(&parallel);
        let (frames, windows) = test_batch(n);
        let narrow = Tensor::zeros(&[n, WINDOW_LEN, IMU_FEATURES - 1]);
        let inputs = |imu| {
            [
                (StreamId::IMU, StreamInput::Windows(imu)),
                (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
                (StreamId::CAMERA_SIDE, StreamInput::Frames(&frames)),
            ]
        };
        // The IMU (registry place 0) runs on the worker, not the caller.
        let flops: Vec<_> = parallel.streams.iter().map(|s| Some(s.flops)).collect();
        let plan = plan_streams(2, &flops, n).unwrap();
        assert_ne!(plan.group[0], plan.groups - 1);
        let (mut expected, mut out) = (Vec::new(), Vec::new());
        let want = serial.classify_batch_into(&inputs(&narrow), &mut expected);
        assert!(matches!(want, Err(CoreError::Dataset(_))), "{want:?}");
        assert_eq!(
            parallel.classify_batch_into(&inputs(&narrow), &mut out),
            want
        );
        assert_eq!(parallel.fanned_calls(), 1);
        assert_eq!(parallel.stream_ids(), serial.stream_ids());
        serial
            .classify_batch_into(&inputs(&windows), &mut expected)
            .unwrap();
        parallel
            .classify_batch_into(&inputs(&windows), &mut out)
            .unwrap();
        assert_eq!(parallel.fanned_calls(), 2);
        assert_eq!(out, expected);
        assert_eq!(parallel.counters(), serial.counters());
    }

    /// A panic on a worker is its group's `WorkerPanicked`, not the
    /// caller's: the streams come back and the engine stays usable. (The
    /// side camera's stream is made to panic: no model in the tree does.)
    #[test]
    fn a_panicking_worker_group_is_an_error_and_the_engine_stays_usable() {
        let mut serial = three_stream_engine();
        serial.set_parallelism(Parallelism::serial());
        let mut parallel = three_stream_engine();
        parallel.set_parallelism(Parallelism::new(4));
        let n = fanned_batch(&parallel);
        let (frames, windows) = test_batch(n);
        let flops: Vec<_> = parallel.streams.iter().map(|s| Some(s.flops)).collect();
        let plan = plan_streams(4, &flops, n).unwrap();
        assert_ne!(
            plan.group[2],
            plan.groups - 1,
            "the side camera runs on a worker"
        );
        let all = [
            (StreamId::IMU, StreamInput::Windows(&windows)),
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
            (StreamId::CAMERA_SIDE, StreamInput::Frames(&frames)),
        ];
        let mut out = Vec::new();
        parallel.streams[2].panics = true;
        assert_eq!(
            parallel.classify_batch_into(&all, &mut out),
            Err(CoreError::WorkerPanicked { stage: GROUP_STAGE })
        );
        assert_eq!(parallel.stream_ids(), serial.stream_ids());
        assert!(parallel.streams[2].panics, "the panicking stream came back");
        parallel.streams[2].panics = false;
        let mut expected = Vec::new();
        serial.classify_batch_into(&all, &mut expected).unwrap();
        parallel.classify_batch_into(&all, &mut out).unwrap();
        assert_eq!(out, expected);
        assert_eq!(parallel.fanned_calls(), 2);
    }
}
