//! The engine's thread count.
//!
//! [`Parallelism`] is a tiny, copyable handle saying how many threads a
//! caller allows. Its one reader is the analytics engine, whose default
//! is the host's hardware threads and which splits a call's present
//! streams into at most that many groups, the caller running one and a
//! resident worker each of the others, when every group carries enough
//! work. Installing a handle overrides the host's count. Nothing in this
//! crate spawns a thread: the two kernels
//! that still take one ([`Tensor::matmul_transpose_b_into`](crate::Tensor::matmul_transpose_b_into)
//! and [`im2col_into`](crate::im2col_into)) ignore it.

/// A copyable thread-count policy.
///
/// The default ([`Parallelism::serial`]) allows one thread, the caller's;
/// [`Parallelism::new`] allows a fixed fan-out.
///
/// ```
/// use darnet_tensor::Parallelism;
///
/// assert_eq!(Parallelism::default().threads(), 1);
/// assert_eq!(Parallelism::new(4).threads(), 4);
/// assert_eq!(Parallelism::new(0).threads(), 1); // clamped to 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

impl Parallelism {
    /// A policy that runs everything inline on the calling thread.
    pub fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    /// A policy allowing up to `threads` threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
        }
    }

    /// The number of threads this policy allows, the caller's included.
    pub fn threads(&self) -> usize {
        self.threads
    }
}
