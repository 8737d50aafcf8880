//! The engine's thread count.
//!
//! [`Parallelism`] is a tiny, copyable handle saying how many threads a
//! caller allows. Its one reader is the analytics engine, which runs each
//! present stream's model on a scoped worker when the handle allows more
//! than one thread. Nothing in this crate spawns a thread: the two kernels
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
/// assert!(Parallelism::default().is_serial());
/// assert!(!Parallelism::new(4).is_serial());
/// assert!(Parallelism::new(0).is_serial()); // clamped to 1
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

    /// Whether this policy allows only the calling thread.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }
}
