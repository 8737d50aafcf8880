//! Max and average pooling kernels over `[batch, c, h, w]` tensors.

use crate::conv::check_dims;
use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

/// Geometry of a 2-D pooling operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// Max-pools every `[h,w]` plane of `data` into `out` (one `oh*ow` stretch
/// per plane). Each window starts from `−∞` at its own first index, so its
/// argmax never leaves it (an all-`−∞` window keeps that index), and
/// element `v` displaces the running `best` when `wins(v, best)`. `tap(o,
/// idx)` sees output `o`'s winning input index — the Train cache's record;
/// a caller without one passes a no-op, and the index tracking compiles
/// away.
#[inline(always)]
fn max_pool_planes(
    data: &[f32],
    spec: PoolSpec,
    geom: (usize, usize, usize, usize), // (h, w, oh, ow)
    out: &mut [f32],
    mut tap: impl FnMut(usize, usize),
    wins: impl Fn(f32, f32) -> bool,
) {
    let (h, w, oh, ow) = geom;
    let PoolSpec { window, stride } = spec;
    for (i, out_plane) in out.chunks_mut(oh * ow).enumerate() {
        let base = i * h * w;
        let mut o = 0usize;
        for oy in 0..oh {
            for ox in 0..ow {
                let first = base + oy * stride * w + ox * stride;
                let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
                for ky in 0..window {
                    for kx in 0..window {
                        let idx = first + ky * w + kx;
                        let v = data[idx];
                        if wins(v, best) {
                            best = v;
                            best_idx = idx;
                        }
                    }
                }
                out_plane[o] = best;
                tap(i * oh * ow + o, best_idx);
                o += 1;
            }
        }
    }
}

/// [`max_pool_planes`] with the window and stride as constants for the
/// shapes the frame CNN pools with — 2×2 stride 2 and 3×3 stride 1 — so
/// their window loops unroll; any other shape takes the same body with
/// both read at run time.
#[inline(always)]
fn max_pool_shapes(
    data: &[f32],
    spec: &PoolSpec,
    geom: (usize, usize, usize, usize),
    out: &mut [f32],
    tap: impl FnMut(usize, usize),
    wins: impl Fn(f32, f32) -> bool,
) {
    match (spec.window, spec.stride) {
        (2, 2) => max_pool_planes(data, PoolSpec::new(2, 2), geom, out, tap, wins),
        (3, 1) => max_pool_planes(data, PoolSpec::new(3, 1), geom, out, tap, wins),
        _ => max_pool_planes(data, *spec, geom, out, tap, wins),
    }
}

/// Max-pools into a caller-provided `[b, c, oh, ow]` buffer (typically a
/// [`crate::Workspace`] checkout) and, when given one, records each output's winning input index in `argmax`
/// for [`max_pool2d_backward`]. `argmax` is resized to the output length
/// (no allocation once its capacity suffices). Every element of both
/// buffers is overwritten; a call without `argmax` tracks no index at all.
///
/// # Errors
///
/// Returns an error on rank or geometry problems, or if `out` does not
/// have the pooled output shape.
pub fn max_pool2d_into(
    input: &Tensor,
    spec: &PoolSpec,
    out: &mut Tensor,
    argmax: Option<&mut Vec<usize>>,
) -> Result<()> {
    let (b, c, h, w) = check_rank4(input)?;
    let (oh, ow) = spec.output_size(h, w)?;
    check_dims(out, &[b, c, oh, ow])?;
    let (data, geom, out) = (input.data(), (h, w, oh, ow), out.data_mut());
    // The strict `>` keeps a window's first maximum; a NaN wins and sticks,
    // so a window holding one pools to NaN. Testing for NaN in the window
    // loop triples its cost, so only an input that holds one — found by
    // one vectorised pass — pays for it.
    let nan = data.iter().fold(false, |nan, v| nan | v.is_nan());
    let nan_wins = |v: f32, best: f32| v > best || (v.is_nan() && !best.is_nan());
    let above = |v: f32, best: f32| v > best;
    match argmax {
        Some(arg) => {
            arg.resize(out.len(), 0);
            let tap = |o: usize, idx: usize| arg[o] = idx;
            if nan {
                max_pool_shapes(data, spec, geom, out, tap, nan_wins);
            } else {
                max_pool_shapes(data, spec, geom, out, tap, above);
            }
        }
        None if nan => max_pool_shapes(data, spec, geom, out, |_, _| (), nan_wins),
        None => max_pool_shapes(data, spec, geom, out, |_, _| (), above),
    }
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

/// Average-pools every `[h,w]` plane of `data` into `out`.
fn avg_pool_planes(
    data: &[f32],
    spec: &PoolSpec,
    geom: (usize, usize, usize, usize), // (h, w, oh, ow)
    out: &mut [f32],
) {
    let (h, w, oh, ow) = geom;
    let denom = (spec.window * spec.window) as f32;
    for (i, out_plane) in out.chunks_mut(oh * ow).enumerate() {
        let base = i * h * w;
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

/// Average-pools square windows into a caller-provided `[b, c, oh, ow]`
/// buffer (typically a [`crate::Workspace`] checkout). Every output
/// element is overwritten.
///
/// # Errors
///
/// Returns an error on rank or geometry problems, or if `out` does not
/// have the pooled output shape.
pub fn avg_pool2d_into(input: &Tensor, spec: &PoolSpec, out: &mut Tensor) -> Result<()> {
    let (b, c, h, w) = check_rank4(input)?;
    let (oh, ow) = spec.output_size(h, w)?;
    check_dims(out, &[b, c, oh, ow])?;
    avg_pool_planes(input.data(), spec, (h, w, oh, ow), out.data_mut());
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
        let (mut out, mut arg) = (Tensor::zeros(&[1, 1, 2, 2]), Vec::new());
        max_pool2d_into(&input, &PoolSpec::new(2, 2), &mut out, Some(&mut arg)).unwrap();
        assert_eq!(out.data(), &[4.0, 8.0, 12.0, 16.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn pool_into_ignores_stale_contents() {
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
        let (mut expected, mut expected_arg) = (ws.checkout(&[2, 3, 3, 3]), Vec::new());
        max_pool2d_into(&input, &spec, &mut expected, Some(&mut expected_arg)).unwrap();
        let mut out = ws.checkout(expected.dims());
        out.data_mut().fill(-1.0); // stale contents must be overwritten
        let mut argmax = vec![usize::MAX; 3];
        max_pool2d_into(&input, &spec, &mut out, Some(&mut argmax)).unwrap();
        assert_eq!(out, expected);
        assert_eq!(argmax, expected_arg);
        // Without an argmax the values are the same.
        out.data_mut().fill(-1.0);
        max_pool2d_into(&input, &spec, &mut out, None).unwrap();
        assert_eq!(out, expected);
        ws.restore(out);

        let mut expected_avg = ws.checkout(&[2, 3, 3, 3]);
        avg_pool2d_into(&input, &spec, &mut expected_avg).unwrap();
        let mut out = ws.checkout(expected_avg.dims());
        out.data_mut().fill(123.0);
        avg_pool2d_into(&input, &spec, &mut out).unwrap();
        assert_eq!(out, expected_avg);
        ws.restore(out);
    }

    #[test]
    fn pool_into_rejects_bad_output_shape() {
        let input = Tensor::zeros(&[1, 1, 4, 4]);
        let spec = PoolSpec::new(2, 2);
        let mut bad = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(max_pool2d_into(&input, &spec, &mut bad, None).is_err());
        assert!(avg_pool2d_into(&input, &spec, &mut bad).is_err());
    }

    #[test]
    fn max_pool_backward_routes_gradient_to_winner() {
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let (mut out, mut arg) = (Tensor::zeros(&[1, 1, 1, 1]), Vec::new());
        max_pool2d_into(&input, &PoolSpec::new(2, 2), &mut out, Some(&mut arg)).unwrap();
        assert_eq!(out.data(), &[4.0]);
        let grad = Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]).unwrap();
        let gin = max_pool2d_backward(&grad, &arg, input.dims()).unwrap();
        assert_eq!(gin.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn avg_pool_averages_windows() {
        let input = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let mut out = Tensor::zeros(&[1, 1, 1, 1]);
        avg_pool2d_into(&input, &PoolSpec::new(2, 2), &mut out).unwrap();
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
        let mut out = Tensor::zeros(&[1, 1, 1, 1]);
        assert!(max_pool2d_into(&input, &PoolSpec::new(3, 1), &mut out, None).is_err());
    }

    #[test]
    fn an_all_negative_infinity_window_keeps_its_argmax_in_its_plane() {
        // Plane 1 is all −∞: its argmax is its own first element, so
        // backward leaves plane 0 alone.
        let mut data = vec![1.0, 2.0, 3.0, 4.0];
        data.extend([f32::NEG_INFINITY; 4]);
        let input = Tensor::from_vec(data, &[1, 2, 2, 2]).unwrap();
        let (mut out, mut arg) = (Tensor::zeros(&[1, 2, 1, 1]), Vec::new());
        max_pool2d_into(&input, &PoolSpec::new(2, 2), &mut out, Some(&mut arg)).unwrap();
        assert_eq!(out.data(), &[4.0, f32::NEG_INFINITY]);
        assert_eq!(arg, vec![3, 4]);
        let grad = Tensor::from_vec(vec![10.0, 20.0], &[1, 2, 1, 1]).unwrap();
        let gin = max_pool2d_backward(&grad, &arg, input.dims()).unwrap();
        assert_eq!(gin.data(), &[0.0, 0.0, 0.0, 10.0, 20.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn a_nan_wins_its_window() {
        let spec = PoolSpec::new(2, 2);
        let input = Tensor::from_vec(vec![1.0, f32::NAN, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let (mut out, mut arg) = (Tensor::zeros(&[1, 1, 1, 1]), Vec::new());
        max_pool2d_into(&input, &spec, &mut out, Some(&mut arg)).unwrap();
        assert!(out.data()[0].is_nan());
        assert_eq!(arg, vec![1]);
        // And sticks: a later larger value or NaN does not displace it.
        let input = Tensor::from_vec(vec![f32::NAN; 4], &[1, 1, 2, 2]).unwrap();
        max_pool2d_into(&input, &spec, &mut out, Some(&mut arg)).unwrap();
        assert!(out.data()[0].is_nan());
        assert_eq!(arg, vec![0]);
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
