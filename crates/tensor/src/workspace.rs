//! Reusable buffer arena backing the zero-alloc inference path.
//!
//! Steady-state inference repeats the same sequence of kernel calls with
//! the same shapes on every batch, so the buffers those kernels need can
//! be planned once and reused forever. A [`Workspace`] is a size-keyed
//! pool of `f32` buffers with **checkout/restore** semantics:
//!
//! * [`Workspace::checkout`] hands out a zero-filled [`TensorView`] of the
//!   requested shape, reusing a pooled buffer when one fits (no heap
//!   allocation) and allocating only on a cold miss;
//! * [`Workspace::restore`] hands the view's buffer back to the pool so
//!   the next checkout of a compatible size reuses it.
//!
//! After one warm-up call at a given batch shape the pool holds every
//! buffer the call sequence needs, and subsequent calls allocate nothing.
//! Dropping a view instead of restoring it is safe — it merely forfeits
//! the reuse (the buffer is freed like any other `Vec`).
//!
//! Checked-out buffers are always zero-filled, so a reused buffer is
//! indistinguishable from a freshly allocated `Tensor::zeros` and stale
//! data can never leak between checkouts. Zeroing a warm buffer is a
//! plain `memset`, strictly cheaper than the allocate-and-zero it
//! replaces.

use std::collections::BTreeMap;

use crate::shape::Shape;
use crate::tensor::Tensor;

/// A tensor whose backing storage is on loan from a [`Workspace`].
///
/// Structurally this is a plain [`Tensor`] — every tensor operation works
/// on it unchanged. The alias marks, in signatures, values that should be
/// handed back via [`Workspace::restore`] once the caller is done, so the
/// buffer returns to the pool instead of being freed.
pub type TensorView = Tensor;

/// A size-keyed pool of reusable `f32` buffers, lent out by
/// [`Workspace::checkout`] and taken back by [`Workspace::restore`].
/// Checkouts are zero-filled, and a warm workspace stops allocating
/// ([`Workspace::cold_misses`] goes flat).
#[derive(Debug, Default)]
pub struct Workspace {
    /// Free buffers bucketed by capacity; `BTreeMap` so a checkout can
    /// take the smallest buffer that fits.
    free: BTreeMap<usize, Vec<Vec<f32>>>,
    /// Recycled dimension vectors so [`Workspace::checkout`] never
    /// allocates shape bookkeeping in steady state either.
    dims: Vec<Vec<usize>>,
    hits: u64,
    misses: u64,
}

/// Dimension vectors are pre-sized so checkouts of any realistic rank
/// (this codebase tops out at rank 4) reuse them without regrowth.
const MIN_DIMS_CAPACITY: usize = 8;

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Checks out a zero-filled tensor of shape `dims`.
    ///
    /// Reuses a pooled buffer when one with sufficient capacity exists;
    /// allocates otherwise (a *cold miss*, counted by
    /// [`Workspace::cold_misses`]).
    pub fn checkout(&mut self, dims: &[usize]) -> TensorView {
        let mut d = self
            .dims
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(dims.len().max(MIN_DIMS_CAPACITY)));
        d.clear();
        d.extend_from_slice(dims);
        let shape = Shape::from(d);
        let data = self.take(shape.len());
        Tensor::from_pooled(shape, data)
    }

    /// Returns a view's buffer (and shape bookkeeping) to the pool for
    /// reuse.
    pub fn restore(&mut self, view: TensorView) {
        let (shape, data) = view.into_parts();
        let d = shape.into_dims();
        if d.capacity() > 0 {
            self.dims.push(d);
        }
        self.recycle(data);
    }

    /// Takes a zero-filled buffer of exactly `len` elements, reusing the
    /// smallest pooled buffer whose capacity fits.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let key = self
            .free
            .range(len..)
            .find(|(_, bucket)| !bucket.is_empty())
            .map(|(&cap, _)| cap);
        if let Some(cap) = key {
            if let Some(mut buf) = self.free.get_mut(&cap).and_then(Vec::pop) {
                self.hits += 1;
                buf.clear();
                buf.resize(len, 0.0);
                return buf;
            }
        }
        self.misses += 1;
        vec![0.0f32; len]
    }

    /// Hands a raw buffer back to the pool. Zero-capacity buffers are
    /// dropped (there is nothing to reuse).
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.free.entry(buf.capacity()).or_default().push(buf);
    }

    /// Number of checkouts served from the pool without allocating.
    pub fn pool_hits(&self) -> u64 {
        self.hits
    }

    /// Number of checkouts that had to allocate (cold path). Constant
    /// across calls once the workspace is warm.
    pub fn cold_misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_is_zero_filled_and_shaped() {
        let mut ws = Workspace::new();
        let t = ws.checkout(&[2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.data(), &[0.0; 6]);
        assert_eq!(ws.cold_misses(), 1);
    }

    #[test]
    fn restore_then_checkout_reuses_the_buffer() {
        let mut ws = Workspace::new();
        let mut t = ws.checkout(&[4, 4]);
        t.data_mut().fill(7.0);
        ws.restore(t);
        let t2 = ws.checkout(&[4, 4]);
        // Reused (no new miss) and re-zeroed: stale 7.0s never leak.
        assert_eq!(ws.cold_misses(), 1);
        assert_eq!(ws.pool_hits(), 1);
        assert_eq!(t2.data(), &[0.0; 16]);
        // The pool held one buffer, now on loan: the next checkout misses.
        ws.checkout(&[4, 4]);
        assert_eq!(ws.cold_misses(), 2);
    }

    #[test]
    fn smaller_checkout_reuses_larger_buffer() {
        let mut ws = Workspace::new();
        let t = ws.checkout(&[10]);
        ws.restore(t);
        let small = ws.checkout(&[3]);
        assert_eq!(ws.cold_misses(), 1, "10-elem buffer serves the 3-elem ask");
        assert_eq!(small.len(), 3);
        assert_eq!(small.data(), &[0.0; 3]);
    }

    #[test]
    fn larger_checkout_allocates_fresh() {
        let mut ws = Workspace::new();
        let t = ws.checkout(&[3]);
        ws.restore(t);
        let big = ws.checkout(&[10]);
        assert_eq!(ws.cold_misses(), 2);
        assert_eq!(big.len(), 10);
        // The too-small buffer stays pooled for a future fit.
        ws.checkout(&[3]);
        assert_eq!(ws.pool_hits(), 1);
    }

    #[test]
    fn steady_state_stops_allocating() {
        let mut ws = Workspace::new();
        // Warm-up: the call pattern needs two concurrent buffers.
        let a = ws.checkout(&[8]);
        let b = ws.checkout(&[8]);
        ws.restore(a);
        ws.restore(b);
        let cold = ws.cold_misses();
        for _ in 0..10 {
            let a = ws.checkout(&[8]);
            let b = ws.checkout(&[8]);
            ws.restore(a);
            ws.restore(b);
        }
        assert_eq!(ws.cold_misses(), cold, "warm workspace must not allocate");
    }

    #[test]
    fn empty_shapes_are_fine() {
        let mut ws = Workspace::new();
        let t = ws.checkout(&[0, 4]);
        assert_eq!(t.len(), 0);
        ws.restore(t);
    }
}
