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
//! * a [`conv2d_into`] forward whose matmul tile reads its lanes in place
//!   from a zero-ringed copy of each image, and the
//!   [`im2col_into`]/[`col2im`] lowering the convolution's Train cache and
//!   backward pass use,
//! * a [`PackedB`] operand packed once for products that reuse it (the
//!   LSTM's recurrent weight over a sequence),
//! * max/average pooling kernels,
//! * deterministic weight initialisation helpers,
//! * a [`Parallelism`] thread count — the engine's stream fan-out handle;
//!   nothing in this crate spawns a thread,
//! * a [`Workspace`] buffer pool and `_into` kernel variants that write into
//!   checked-out buffers, making steady-state inference allocation-free
//!   after warm-up (see [`workspace`](crate::Workspace)).
//!
//! The library intentionally trades generality for auditability: it is
//! safe Rust over a `Vec<f32>`, so every numerical routine can be
//! unit-tested against hand-computed values and finite differences. The
//! one exception is a single call: the forward kernels are built twice,
//! for baseline x86-64 and for AVX2, and `dispatch.rs` picks the AVX2
//! build at run time when the CPU has it. Both builds give the same bits
//! (DESIGN §11.5).
//!
//! ## Example
//!
//! ```
//! use darnet_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok::<(), darnet_tensor::TensorError>(())
//! ```

mod conv;
mod dispatch;
mod error;
mod init;
mod matmul;
mod parallel;
mod pool;
mod shape;
mod tensor;
mod workspace;

pub use conv::{col2im, conv2d_into, im2col_into, Conv2dSpec};
pub use error::TensorError;
pub use init::{he_normal, uniform_init, xavier_uniform, SplitMix64};
pub use matmul::{matmul_transpose_b_packed_into, matmul_transpose_b_slices_into, PackedB};
pub use parallel::Parallelism;
pub use pool::{
    avg_pool2d_backward, avg_pool2d_into, max_pool2d_backward, max_pool2d_into, PoolSpec,
};
pub use shape::Shape;
pub use tensor::{argmax, Tensor};
pub use workspace::{TensorView, Workspace};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
