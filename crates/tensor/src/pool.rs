//! Max and average pooling kernels over `[batch, c, h, w]` tensors.

use serde::{Deserialize, Serialize};

use crate::conv::check_out_dims;
use crate::error::TensorError;
use crate::parallel::Parallelism;
use crate::tensor::Tensor;
use crate::Result;

/// Geometry of a 2-D pooling operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PoolSpec {
    /// Pooling window height and width (square window).
    pub window: usize,
    /// Stride in both directions.
    pub stride: usize,
}

impl PoolSpec {
    /// Creates a pool spec; `window` and `stride` must be non-zero.
    pub fn new(window: usize, stride: usize) -> Self {
        PoolSpec { window, stride }
    }

    /// Output spatial size for an `h × w` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the window does not fit
    /// or window/stride is zero.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.window == 0 || self.stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "pool window and stride must be non-zero".into(),
            ));
        }
        if self.window > h || self.window > w {
            return Err(TensorError::InvalidGeometry(format!(
                "pool window {} larger than input {}x{}",
                self.window, h, w
            )));
        }
        Ok((
            (h - self.window) / self.stride + 1,
            (w - self.window) / self.stride + 1,
        ))
    }
}

fn check_rank4(input: &Tensor) -> Result<(usize, usize, usize, usize)> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
        });
    }
    let d = input.dims();
    Ok((d[0], d[1], d[2], d[3]))
}

/// Max pooling. Returns `(output, argmax_indices)` where `argmax_indices`
/// holds, for each output element, the flat index into the input that won —
/// consumed by [`max_pool2d_backward`].
///
/// # Errors
///
/// Returns an error on rank or geometry problems.
pub fn max_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<(Tensor, Vec<usize>)> {
    max_pool2d_with(input, spec, &Parallelism::serial())
}

/// Max-pools the `[h,w]` planes `plane0..` into `out_chunk`/`arg_chunk`
/// (one `oh*ow` stretch per plane).
fn max_pool_planes(
    data: &[f32],
    spec: &PoolSpec,
    geom: (usize, usize, usize, usize), // (h, w, oh, ow)
    plane0: usize,
    out_chunk: &mut [f32],
    arg_chunk: &mut [usize],
) {
    let (h, w, oh, ow) = geom;
    let plane_out = oh * ow;
    for (i, (out_plane, arg_plane)) in out_chunk
        .chunks_mut(plane_out)
        .zip(arg_chunk.chunks_mut(plane_out))
        .enumerate()
    {
        let base = (plane0 + i) * h * w;
        let mut o = 0usize;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for ky in 0..spec.window {
                    for kx in 0..spec.window {
                        let iy = oy * spec.stride + ky;
                        let ix = ox * spec.stride + kx;
                        let idx = base + iy * w + ix;
                        if data[idx] > best {
                            best = data[idx];
                            best_idx = idx;
                        }
                    }
                }
                out_plane[o] = best;
                arg_plane[o] = best_idx;
                o += 1;
            }
        }
    }
}

/// [`max_pool2d`] with a parallel execution policy: the `batch * channels`
/// planes are chunked across scoped threads, with the output and argmax
/// buffers split in lockstep. Bitwise identical to serial. Allocates both
/// outputs and calls [`max_pool2d_into`].
///
/// # Errors
///
/// Returns an error on rank or geometry problems.
pub fn max_pool2d_with(
    input: &Tensor,
    spec: &PoolSpec,
    par: &Parallelism,
) -> Result<(Tensor, Vec<usize>)> {
    let (b, c, h, w) = check_rank4(input)?;
    let (oh, ow) = spec.output_size(h, w)?;
    let mut out = Tensor::zeros(&[b, c, oh, ow]);
    let mut argmax = Vec::new();
    max_pool2d_into(input, spec, par, &mut out, &mut argmax)?;
    Ok((out, argmax))
}

/// Serial/threaded dispatch for max pooling: chunks the `planes` `[h,w]`
/// planes across scoped threads (output and argmax buffers split in
/// lockstep) or runs inline under a serial policy.
// darlint: hot
fn max_pool_dispatch(
    data: &[f32],
    spec: &PoolSpec,
    geom: (usize, usize, usize, usize, usize), // (planes, h, w, oh, ow)
    par: &Parallelism,
    out: &mut [f32],
    arg: &mut [usize],
) {
    let (planes, h, w, oh, ow) = geom;
    let plane_out = oh * ow;
    let work_per_plane = plane_out * spec.window * spec.window;
    // Inline execution decided without materializing the partition, so
    // the serial fast path stays allocation-free (see Parallelism).
    if par.effective_threads(planes, work_per_plane) <= 1 {
        max_pool_planes(data, spec, (h, w, oh, ow), 0, out, arg);
    } else {
        let ranges = par.partition(planes, work_per_plane);
        std::thread::scope(|scope| {
            let mut out_rest = out;
            let mut arg_rest = arg;
            for range in ranges {
                let take = (range.end - range.start) * plane_out;
                let (out_chunk, out_tail) = out_rest.split_at_mut(take);
                let (arg_chunk, arg_tail) = arg_rest.split_at_mut(take);
                out_rest = out_tail;
                arg_rest = arg_tail;
                scope.spawn(move || {
                    max_pool_planes(
                        data,
                        spec,
                        (h, w, oh, ow),
                        range.start,
                        out_chunk,
                        arg_chunk,
                    )
                });
            }
        });
    }
}

/// Max-pools into a caller-provided `[b, c, oh, ow]` buffer (typically a
/// [`crate::Workspace`] checkout) and a reusable argmax vector — the one
/// body of max pooling. `argmax` is resized to the output length (no
/// allocation once its capacity suffices) and every element of both
/// buffers is overwritten.
///
/// # Errors
///
/// Returns an error on rank or geometry problems, or if `out` does not
/// have the pooled output shape.
// darlint: hot
pub fn max_pool2d_into(
    input: &Tensor,
    spec: &PoolSpec,
    par: &Parallelism,
    out: &mut Tensor,
    argmax: &mut Vec<usize>,
) -> Result<()> {
    let (b, c, h, w) = check_rank4(input)?;
    let (oh, ow) = spec.output_size(h, w)?;
    check_out_dims(out, &[b, c, oh, ow])?;
    argmax.resize(b * c * oh * ow, 0);
    max_pool_dispatch(
        input.data(),
        spec,
        (b * c, h, w, oh, ow),
        par,
        out.data_mut(),
        argmax,
    );
    Ok(())
}

/// Backward pass of max pooling: routes each output gradient to the input
/// element that won the corresponding window.
///
/// # Errors
///
/// Returns an error if `grad_out` does not match the recorded argmax length.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
) -> Result<Tensor> {
    if grad_out.len() != argmax.len() {
        return Err(TensorError::InvalidArgument(format!(
            "grad_out has {} elements, argmax has {}",
            grad_out.len(),
            argmax.len()
        )));
    }
    let mut grad_in = Tensor::zeros(input_dims);
    let gi = grad_in.data_mut();
    for (&idx, &g) in argmax.iter().zip(grad_out.data()) {
        if idx >= gi.len() {
            return Err(TensorError::InvalidArgument(format!(
                "argmax index {idx} out of range for input of {} elements",
                gi.len()
            )));
        }
        gi[idx] += g;
    }
    Ok(grad_in)
}

/// Average pooling over square windows.
///
/// # Errors
///
/// Returns an error on rank or geometry problems.
pub fn avg_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<Tensor> {
    avg_pool2d_with(input, spec, &Parallelism::serial())
}

/// Average-pools the `[h,w]` planes `plane0..` into `chunk`.
fn avg_pool_planes(
    data: &[f32],
    spec: &PoolSpec,
    geom: (usize, usize, usize, usize), // (h, w, oh, ow)
    plane0: usize,
    chunk: &mut [f32],
) {
    let (h, w, oh, ow) = geom;
    let denom = (spec.window * spec.window) as f32;
    for (i, out_plane) in chunk.chunks_mut(oh * ow).enumerate() {
        let base = (plane0 + i) * h * w;
        let mut o = 0usize;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ky in 0..spec.window {
                    for kx in 0..spec.window {
                        acc += data[base + (oy * spec.stride + ky) * w + ox * spec.stride + kx];
                    }
                }
                out_plane[o] = acc / denom;
                o += 1;
            }
        }
    }
}

/// [`avg_pool2d`] with a parallel execution policy: `batch * channels`
/// planes chunked across scoped threads, bitwise identical to serial.
/// Allocates the output and calls [`avg_pool2d_into`].
///
/// # Errors
///
/// Returns an error on rank or geometry problems.
pub fn avg_pool2d_with(input: &Tensor, spec: &PoolSpec, par: &Parallelism) -> Result<Tensor> {
    let (b, c, h, w) = check_rank4(input)?;
    let (oh, ow) = spec.output_size(h, w)?;
    let mut out = Tensor::zeros(&[b, c, oh, ow]);
    avg_pool2d_into(input, spec, par, &mut out)?;
    Ok(out)
}

/// Average-pools into a caller-provided `[b, c, oh, ow]` buffer
/// (typically a [`crate::Workspace`] checkout) — the one body of average
/// pooling. Every output element is overwritten.
///
/// # Errors
///
/// Returns an error on rank or geometry problems, or if `out` does not
/// have the pooled output shape.
// darlint: hot
pub fn avg_pool2d_into(
    input: &Tensor,
    spec: &PoolSpec,
    par: &Parallelism,
    out: &mut Tensor,
) -> Result<()> {
    let (b, c, h, w) = check_rank4(input)?;
    let (oh, ow) = spec.output_size(h, w)?;
    check_out_dims(out, &[b, c, oh, ow])?;
    let data = input.data();
    let plane_out = oh * ow;
    par.run_rows(
        out.data_mut(),
        plane_out,
        plane_out * spec.window * spec.window,
        |plane0, chunk| avg_pool_planes(data, spec, (h, w, oh, ow), plane0, chunk),
    );
    Ok(())
}

/// Backward pass of average pooling: spreads each output gradient uniformly
/// over its window.
///
/// # Errors
///
/// Returns an error on rank or geometry problems.
pub fn avg_pool2d_backward(
    grad_out: &Tensor,
    spec: &PoolSpec,
    input_dims: &[usize],
) -> Result<Tensor> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input_dims.len(),
        });
    }
    let (b, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let (oh, ow) = spec.output_size(h, w)?;
    if grad_out.dims() != [b, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: grad_out.dims().to_vec(),
            right: vec![b, c, oh, ow],
        });
    }
    let denom = (spec.window * spec.window) as f32;
    let mut grad_in = Tensor::zeros(input_dims);
    let gi = grad_in.data_mut();
    let go = grad_out.data();
    let mut o = 0usize;
    for n in 0..b {
        for ch in 0..c {
            let base = (n * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[o] / denom;
                    for ky in 0..spec.window {
                        for kx in 0..spec.window {
                            gi[base + (oy * spec.stride + ky) * w + ox * spec.stride + kx] += g;
                        }
                    }
                    o += 1;
                }
            }
        }
    }
    Ok(grad_in)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_picks_window_maxima() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let (out, arg) = max_pool2d(&input, &PoolSpec::new(2, 2)).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[4.0, 8.0, 12.0, 16.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn pool_into_variants_match_allocating() {
        use crate::workspace::Workspace;
        let input = Tensor::from_vec(
            (0..2 * 3 * 6 * 6)
                .map(|v| ((v * 37) % 29) as f32 * 0.5 - 7.0)
                .collect(),
            &[2, 3, 6, 6],
        )
        .unwrap();
        let spec = PoolSpec::new(2, 2);
        let mut ws = Workspace::new();
        let mut argmax = Vec::new();
        for threads in [1, 4] {
            let par = Parallelism::new(threads).with_min_work(1);
            let (expected, expected_arg) = max_pool2d_with(&input, &spec, &par).unwrap();
            let mut out = ws.checkout(expected.dims());
            out.data_mut().fill(-1.0);
            argmax.clear();
            max_pool2d_into(&input, &spec, &par, &mut out, &mut argmax).unwrap();
            assert_eq!(out, expected);
            assert_eq!(argmax, expected_arg);
            ws.restore(out);

            let expected_avg = avg_pool2d_with(&input, &spec, &par).unwrap();
            let mut out = ws.checkout(expected_avg.dims());
            out.data_mut().fill(123.0);
            avg_pool2d_into(&input, &spec, &par, &mut out).unwrap();
            assert_eq!(out, expected_avg);
            ws.restore(out);
        }
    }

    #[test]
    fn pool_into_rejects_bad_output_shape() {
        let input = Tensor::zeros(&[1, 1, 4, 4]);
        let spec = PoolSpec::new(2, 2);
        let mut bad = Tensor::zeros(&[1, 1, 3, 3]);
        let mut arg = Vec::new();
        let par = Parallelism::serial();
        assert!(max_pool2d_into(&input, &spec, &par, &mut bad, &mut arg).is_err());
        assert!(avg_pool2d_into(&input, &spec, &par, &mut bad).is_err());
    }

    #[test]
    fn max_pool_backward_routes_gradient_to_winner() {
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let (out, arg) = max_pool2d(&input, &PoolSpec::new(2, 2)).unwrap();
        assert_eq!(out.data(), &[4.0]);
        let grad = Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]).unwrap();
        let gin = max_pool2d_backward(&grad, &arg, input.dims()).unwrap();
        assert_eq!(gin.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn avg_pool_averages_windows() {
        let input = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let out = avg_pool2d(&input, &PoolSpec::new(2, 2)).unwrap();
        assert_eq!(out.data(), &[4.0]);
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        let spec = PoolSpec::new(2, 2);
        let grad = Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]).unwrap();
        let gin = avg_pool2d_backward(&grad, &spec, &[1, 1, 2, 2]).unwrap();
        assert_eq!(gin.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn pool_rejects_window_larger_than_input() {
        let input = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(max_pool2d(&input, &PoolSpec::new(3, 1)).is_err());
    }

    #[test]
    fn parallel_pooling_is_bitwise_serial() {
        let (b, c, h, w) = (2, 3, 7, 6);
        let input = Tensor::from_vec(
            (0..b * c * h * w)
                .map(|v| ((v * 23) % 31) as f32 * 0.7 - 10.0)
                .collect(),
            &[b, c, h, w],
        )
        .unwrap();
        let spec = PoolSpec::new(2, 2);
        let (out_s, arg_s) = max_pool2d(&input, &spec).unwrap();
        let avg_s = avg_pool2d(&input, &spec).unwrap();
        for threads in [2, 3, 6] {
            let par = Parallelism::new(threads).with_min_work(1);
            let (out_p, arg_p) = max_pool2d_with(&input, &spec, &par).unwrap();
            assert_eq!(out_s, out_p);
            assert_eq!(arg_s, arg_p);
            assert_eq!(avg_s, avg_pool2d_with(&input, &spec, &par).unwrap());
        }
    }

    #[test]
    fn overlapping_windows_accumulate_in_backward() {
        // stride 1, window 2 on a 3x3 input: center pixel belongs to 4
        // windows.
        let spec = PoolSpec::new(2, 1);
        let grad = Tensor::ones(&[1, 1, 2, 2]);
        let gin = avg_pool2d_backward(&grad, &spec, &[1, 1, 3, 3]).unwrap();
        // Center element receives 4 * (1/4) = 1.0.
        assert!((gin.get(&[0, 0, 1, 1]).unwrap() - 1.0).abs() < 1e-6);
        // Corner element receives 1 * (1/4).
        assert!((gin.get(&[0, 0, 0, 0]).unwrap() - 0.25).abs() < 1e-6);
    }
}
