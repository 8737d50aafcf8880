//! Scoped-thread execution policy.
//!
//! [`Parallelism`] is a tiny, copyable handle describing how much thread
//! fan-out a caller allows. Its one product reader is the analytics
//! engine, which runs each present stream's model on a scoped worker when
//! the handle allows more than one thread. Below the engine nothing takes
//! one, except two kernels whose parameter the frozen ledger still passes:
//! [`Tensor::matmul_transpose_b_into`](crate::Tensor::matmul_transpose_b_into)
//! and [`im2col_into`](crate::im2col_into) split their *output* into
//! contiguous row chunks and run the exact same per-row kernel on each
//! chunk from a `std::thread::scope` worker. Because every output row is
//! written by exactly one thread, by the same code path the serial call
//! uses, their results are **bitwise identical** to serial results for
//! every shape and thread count.
//!
//! Below a tunable total-work threshold ([`Parallelism::with_min_work`]) the
//! dispatcher falls back to running the kernel inline on the calling thread,
//! so small tensors never pay thread-spawn overhead.

use std::ops::Range;

/// How much work a chunk must amortize before fanning out is worthwhile.
/// Expressed in rough "inner-loop operations" (multiply-adds, copies).
const DEFAULT_MIN_WORK: usize = 1 << 16;

/// A copyable parallel-execution policy.
///
/// The default ([`Parallelism::serial`]) runs everything inline on the
/// calling thread; [`Parallelism::new`] requests a fixed fan-out.
///
/// ```
/// use darnet_tensor::{Parallelism, Tensor};
///
/// let a = Tensor::ones(&[64, 64]);
/// let mut parallel = Tensor::zeros(&[64, 64]);
/// a.matmul_transpose_b_into(&a, &Parallelism::new(4), &mut parallel)?;
/// assert_eq!(a.matmul_transpose_b(&a)?, parallel); // bitwise identical
/// # Ok::<(), darnet_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
    min_work: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

impl Parallelism {
    /// A policy that always runs kernels inline on the calling thread.
    pub fn serial() -> Self {
        Parallelism {
            threads: 1,
            min_work: DEFAULT_MIN_WORK,
        }
    }

    /// A policy allowing up to `threads` worker threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
            min_work: DEFAULT_MIN_WORK,
        }
    }

    /// Returns the same policy with a different serial-fallback threshold:
    /// kernels whose total work is below `min_work` inner-loop operations run
    /// inline. `min_work` is clamped to ≥ 1; a value of 1 forces fan-out for
    /// every non-trivial shape (useful in tests).
    pub fn with_min_work(mut self, min_work: usize) -> Self {
        self.min_work = min_work.max(1);
        self
    }

    /// Whether this policy can never fan out.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Number of threads a kernel with `rows` output rows of `work_per_row`
    /// inner-loop operations each would actually use: 1 when the total work
    /// is under the threshold, otherwise at most one thread per `min_work`
    /// of work, capped by the policy and by `rows`.
    pub fn effective_threads(&self, rows: usize, work_per_row: usize) -> usize {
        if self.threads <= 1 || rows <= 1 {
            return 1;
        }
        let total = rows.saturating_mul(work_per_row.max(1));
        if total < self.min_work {
            return 1;
        }
        (total / self.min_work).clamp(1, self.threads.min(rows))
    }

    /// Splits `0..rows` into the contiguous, in-order chunks the dispatcher
    /// would hand to worker threads. Deterministic: depends only on the
    /// policy and the arguments, never on runtime load. Returns a single
    /// full-range chunk when the kernel would run serially.
    // darlint: cold — the threaded dispatch branch materializes its chunk list by design; the serial fast path the alloc gate runs never calls this
    pub fn partition(&self, rows: usize, work_per_row: usize) -> Vec<Range<usize>> {
        if rows == 0 {
            return Vec::new();
        }
        let t = self.effective_threads(rows, work_per_row);
        let chunk = rows.div_ceil(t);
        (0..rows)
            .step_by(chunk)
            .map(|start| start..(start + chunk).min(rows))
            .collect()
    }

    /// Runs `kernel` over every output row of `out` (rows of `row_len`
    /// elements), fanning out across scoped threads when the policy and the
    /// work size allow it. `kernel(first_row, chunk)` must fill `chunk`,
    /// which covers rows `first_row..first_row + chunk.len() / row_len`.
    pub(crate) fn run_rows<F>(
        &self,
        out: &mut [f32],
        row_len: usize,
        work_per_row: usize,
        kernel: F,
    ) where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        debug_assert!(row_len > 0 && out.len().is_multiple_of(row_len));
        if out.is_empty() {
            return;
        }
        let rows = out.len() / row_len.max(1);
        // Inline execution decided without materializing the partition:
        // the serial fast path must stay allocation-free for the
        // workspace-backed inference path.
        if self.effective_threads(rows, work_per_row) <= 1 {
            kernel(0, out);
            return;
        }
        let ranges = self.partition(rows, work_per_row);
        std::thread::scope(|scope| {
            let mut rest = out;
            for range in ranges {
                let (chunk, tail) = rest.split_at_mut((range.end - range.start) * row_len);
                rest = tail;
                let kernel = &kernel;
                scope.spawn(move || kernel(range.start, chunk));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_policy_never_fans_out() {
        let p = Parallelism::serial();
        assert!(p.is_serial());
        assert_eq!(p.effective_threads(1_000_000, 1_000_000), 1);
        assert_eq!(p.partition(10, usize::MAX / 16).len(), 1);
    }

    #[test]
    fn small_work_falls_back_to_serial() {
        let p = Parallelism::new(8);
        assert_eq!(p.effective_threads(4, 4), 1);
        assert_eq!(p.partition(4, 4), vec![0..4]);
    }

    #[test]
    fn large_work_uses_all_threads() {
        let p = Parallelism::new(4);
        assert_eq!(p.effective_threads(1024, 1024), 4);
        let parts = p.partition(1024, 1024);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], 0..256);
        assert_eq!(parts[3], 768..1024);
    }

    #[test]
    fn partition_covers_rows_exactly_once() {
        let p = Parallelism::new(3).with_min_work(1);
        let parts = p.partition(10, 100);
        let total: usize = parts.iter().map(|r| r.end - r.start).sum();
        assert_eq!(total, 10);
        for pair in parts.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts.last().unwrap().end, 10);
    }

    #[test]
    fn threads_never_exceed_rows() {
        let p = Parallelism::new(16).with_min_work(1);
        assert!(p.effective_threads(3, 1_000_000) <= 3);
    }

    #[test]
    fn run_rows_matches_inline_execution() {
        let p = Parallelism::new(4).with_min_work(1);
        let rows = 37;
        let row_len = 5;
        let fill = |first_row: usize, chunk: &mut [f32]| {
            for (i, row) in chunk.chunks_mut(row_len).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = ((first_row + i) * row_len + j) as f32;
                }
            }
        };
        let mut parallel = vec![0.0; rows * row_len];
        p.run_rows(&mut parallel, row_len, 1000, fill);
        let mut serial = vec![0.0; rows * row_len];
        fill(0, &mut serial);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn zero_rows_is_a_no_op() {
        let p = Parallelism::new(4).with_min_work(1);
        assert!(p.partition(0, 10).is_empty());
        let mut empty: Vec<f32> = Vec::new();
        p.run_rows(&mut empty, 1, 10, |_, _| panic!("kernel must not run"));
    }
}
