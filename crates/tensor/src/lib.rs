//! # darnet-tensor
//!
//! A small, dependency-light, row-major `f32` tensor library that serves as
//! the numerical substrate for the DarNet reproduction. It provides exactly
//! what the `darnet-nn` neural-network layers need:
//!
//! * an n-dimensional [`Tensor`] with shape/stride bookkeeping,
//! * elementwise arithmetic with scalar and tensor operands,
//! * reductions (sum, mean, max, argmax) over all elements or one axis,
//! * a cache-friendly [`matmul`](Tensor::matmul) kernel,
//! * [`im2col`]/[`col2im`] lowering used by convolution forward/backward,
//! * max/average pooling kernels,
//! * deterministic weight initialisation helpers,
//! * a [`Parallelism`] thread count — the engine's stream fan-out handle;
//!   nothing in this crate spawns a thread,
//! * a [`Workspace`] buffer pool and `_into` kernel variants that write into
//!   checked-out buffers, making steady-state inference allocation-free
//!   after warm-up (see [`workspace`](crate::Workspace)).
//!
//! The library intentionally trades generality for auditability: everything
//! is plain safe Rust over a `Vec<f32>`, so every numerical routine can be
//! unit-tested against hand-computed values and finite differences.
//!
//! ## Example
//!
//! ```
//! use darnet_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok::<(), darnet_tensor::TensorError>(())
//! ```

mod conv;
mod error;
mod init;
mod matmul;
mod parallel;
mod pool;
mod shape;
mod tensor;
mod workspace;

pub use conv::{col2im, im2col, im2col_into, Conv2dSpec};
pub use error::TensorError;
pub use init::{he_normal, uniform_init, xavier_uniform, SplitMix64};
pub use matmul::matmul_transpose_b_slices_into;
pub use parallel::Parallelism;
pub use pool::{
    avg_pool2d, avg_pool2d_backward, avg_pool2d_into, max_pool2d, max_pool2d_backward,
    max_pool2d_into, PoolSpec,
};
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::{TensorView, Workspace};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
