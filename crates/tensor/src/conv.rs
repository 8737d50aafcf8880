//! Convolution lowering: `im2col` / `col2im`.
//!
//! Convolutions in `darnet-nn` are computed as matrix products over patch
//! matrices. [`im2col`] turns a `[batch, channels, height, width]` input into
//! a `[batch * out_h * out_w, channels * kh * kw]` patch matrix; the
//! convolution is then a single matmul with the `[out_channels, channels *
//! kh * kw]` weight matrix. [`col2im`] scatters patch-matrix gradients back
//! into input-shaped gradients for the backward pass.

use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::parallel::Parallelism;
use crate::tensor::Tensor;
use crate::Result;

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Zero padding applied on every side.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Convenience constructor for a square kernel.
    pub fn square(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2dSpec {
            in_channels,
            out_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel does not fit in
    /// the padded input or stride is zero.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "stride must be non-zero".into(),
            ));
        }
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        if self.kernel_h > ph || self.kernel_w > pw {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kernel_h, self.kernel_w, ph, pw
            )));
        }
        Ok((
            (ph - self.kernel_h) / self.stride + 1,
            (pw - self.kernel_w) / self.stride + 1,
        ))
    }

    /// Number of elements in one flattened patch (`in_channels * kh * kw`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }
}

/// Lowers a `[batch, c, h, w]` tensor to a patch matrix of shape
/// `[batch * out_h * out_w, c * kh * kw]`.
///
/// # Errors
///
/// Returns an error if the input is not rank 4, the channel count disagrees
/// with `spec`, or the geometry is impossible.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let ((b, ..), (oh, ow), patch) = check_im2col(input, spec)?;
    let mut out = Tensor::zeros(&[b * oh * ow, patch]);
    im2col_into(input, spec, &Parallelism::serial(), &mut out)?;
    Ok(out)
}

/// Fills patch rows `row0..` into `chunk` (`patch_len > 0`); each patch row
/// is an independent gather, so any contiguous row range can be produced by
/// any thread.
///
/// The chunk is filled one output-row segment at a time (its pixels share
/// their input rows) and, within a segment, one patch column at a time:
/// column `(ch, ky, kx)` of pixel `ox` reads input `(ch, oy·s + ky − pad,
/// ox·s + kx − pad)`. The pixels whose read is in bounds form one range, so
/// a column is one strided copy from an input row with only the padded
/// positions around it zero-filled, and the `/`, `%` and bounds arithmetic
/// runs per segment and column, not per element. (A patch row's `kw`-value
/// runs, copied one by one, cost a `memcpy` call per 1–5 values.)
fn im2col_rows(
    data: &[f32],
    spec: &Conv2dSpec,
    geom: (usize, usize, usize, usize, usize), // (c, h, w, oh, ow)
    row0: usize,
    chunk: &mut [f32],
) {
    let (c, h, w, oh, ow) = geom;
    let (kh, kw, stride, pad) = (spec.kernel_h, spec.kernel_w, spec.stride, spec.padding);
    let patch = spec.patch_len();
    let (mut row, mut rest) = (row0, chunk);
    while !rest.is_empty() {
        // Pixels `ox0..ox0 + len` of output row `oy` of image `n`.
        let (n, oy, ox0) = (row / (oh * ow), row % (oh * ow) / ow, row % ow);
        let len = (ow - ox0).min(rest.len() / patch);
        let (segment, tail) = std::mem::take(&mut rest).split_at_mut(len * patch);
        (row, rest) = (row + len, tail);
        for kx in 0..kw {
            // In bounds: `ox·s + kx − pad ∈ [0, w)`, i.e. `ox ∈ first..end`;
            // as segment offsets, `lo..hi`.
            let first = pad.saturating_sub(kx).div_ceil(stride);
            let end = (w + pad).saturating_sub(kx).div_ceil(stride);
            let (lo, hi) = (
                first.clamp(ox0, ox0 + len) - ox0,
                end.clamp(ox0, ox0 + len) - ox0,
            );
            for ch in 0..c {
                let plane = &data[(n * c + ch) * h * w..(n * c + ch + 1) * h * w];
                for ky in 0..kh {
                    let col = (ch * kh + ky) * kw + kx;
                    let y = oy * stride + ky;
                    let copied = if y >= pad && y < h + pad && lo < hi {
                        let src = &plane[(y - pad) * w..(y - pad + 1) * w];
                        let x0 = (ox0 + lo) * stride + kx - pad;
                        for i in lo..hi {
                            segment[i * patch + col] = src[x0 + (i - lo) * stride];
                        }
                        lo..hi
                    } else {
                        0..0
                    };
                    for i in (0..copied.start).chain(copied.end..len) {
                        segment[i * patch + col] = 0.0;
                    }
                }
            }
        }
    }
}

/// Validates an im2col input against `spec`, returning the input dims, the
/// output spatial size, and the patch length.
#[allow(clippy::type_complexity)]
fn check_im2col(
    input: &Tensor,
    spec: &Conv2dSpec,
) -> Result<((usize, usize, usize, usize), (usize, usize), usize)> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
        });
    }
    let dims = input.dims();
    let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    if c != spec.in_channels {
        return Err(TensorError::InvalidArgument(format!(
            "input has {c} channels, spec expects {}",
            spec.in_channels
        )));
    }
    let (oh, ow) = spec.output_size(h, w)?;
    Ok(((b, c, h, w), (oh, ow), spec.patch_len()))
}

/// Lowers `input` into a caller-provided `[batch * out_h * out_w,
/// c * kh * kw]` buffer (typically a [`crate::Workspace`] checkout) — the
/// one body of the lowering. Every output element is overwritten (padding
/// positions included), so `out`'s prior contents are irrelevant.
///
/// `par` chunks the patch rows across scoped threads; each row is a pure
/// gather, so the bits do not depend on it. No product caller passes
/// anything but [`Parallelism::serial`]: the parameter stays only because
/// the frozen ledger (`benchmark/src/layers.rs`) calls this with it, and it
/// goes once the ledger stops (ROADMAP item 8(g)).
///
/// # Errors
///
/// Same conditions as [`im2col`], plus [`TensorError::ShapeMismatch`] if
/// `out` does not have the patch-matrix shape.
// darlint: hot
pub fn im2col_into(
    input: &Tensor,
    spec: &Conv2dSpec,
    par: &Parallelism,
    out: &mut Tensor,
) -> Result<()> {
    let ((b, c, h, w), (oh, ow), patch) = check_im2col(input, spec)?;
    check_out_dims(out, &[b * oh * ow, patch])?;
    let data = input.data();
    if patch > 0 {
        par.run_rows(out.data_mut(), patch, patch, |row0, chunk| {
            im2col_rows(data, spec, (c, h, w, oh, ow), row0, chunk)
        });
    }
    Ok(())
}

/// Validates that `out` has exactly `dims`.
pub(crate) fn check_out_dims(out: &Tensor, dims: &[usize]) -> Result<()> {
    if out.dims() != dims {
        return Err(TensorError::shape_mismatch(out.dims(), dims));
    }
    Ok(())
}

/// Scatters a patch-matrix gradient (shape `[batch * out_h * out_w,
/// c * kh * kw]`) back to an input-shaped gradient `[batch, c, h, w]`.
/// Overlapping patches accumulate, matching the adjoint of [`im2col`].
///
/// # Errors
///
/// Returns an error if shapes disagree with the spec and geometry.
pub fn col2im(
    cols: &Tensor,
    spec: &Conv2dSpec,
    batch: usize,
    h: usize,
    w: usize,
) -> Result<Tensor> {
    let (oh, ow) = spec.output_size(h, w)?;
    let patch = spec.patch_len();
    if cols.rank() != 2 || cols.dims()[0] != batch * oh * ow || cols.dims()[1] != patch {
        return Err(TensorError::ShapeMismatch {
            left: cols.dims().to_vec(),
            right: vec![batch * oh * ow, patch],
        });
    }
    let c = spec.in_channels;
    let mut out = vec![0.0f32; batch * c * h * w];
    let data = cols.data();
    let pad = spec.padding as isize;

    let mut row = 0usize;
    for n in 0..batch {
        let base_n = n * c * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let src = &data[row * patch..(row + 1) * patch];
                let mut k = 0usize;
                for ch in 0..c {
                    let base_c = base_n + ch * h * w;
                    for ky in 0..spec.kernel_h {
                        let iy = (oy * spec.stride + ky) as isize - pad;
                        for kx in 0..spec.kernel_w {
                            let ix = (ox * spec.stride + kx) as isize - pad;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                out[base_c + iy as usize * w + ix as usize] += src[k];
                            }
                            k += 1;
                        }
                    }
                }
                row += 1;
            }
        }
    }
    Tensor::from_vec(out, &[batch, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_matches_formula() {
        let spec = Conv2dSpec::square(1, 1, 3, 1, 1);
        assert_eq!(spec.output_size(5, 5).unwrap(), (5, 5));
        let spec2 = Conv2dSpec::square(1, 1, 3, 2, 0);
        assert_eq!(spec2.output_size(7, 7).unwrap(), (3, 3));
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let spec = Conv2dSpec::square(1, 1, 5, 1, 0);
        assert!(spec.output_size(3, 3).is_err());
        let zero_stride = Conv2dSpec {
            stride: 0,
            ..Conv2dSpec::square(1, 1, 1, 1, 0)
        };
        assert!(zero_stride.output_size(3, 3).is_err());
    }

    #[test]
    fn im2col_into_matches_allocating_variant() {
        use crate::workspace::Workspace;
        let input = Tensor::from_vec(
            (0..2 * 3 * 6 * 6)
                .map(|v| ((v * 31) % 23) as f32 * 0.25 - 2.0)
                .collect(),
            &[2, 3, 6, 6],
        )
        .unwrap();
        let spec = Conv2dSpec::square(3, 4, 3, 1, 1);
        let mut ws = Workspace::new();
        let expected = im2col(&input, &spec).unwrap();
        for threads in [1, 4] {
            let par = Parallelism::new(threads).with_min_work(1);
            let mut out = ws.checkout(expected.dims());
            out.data_mut().fill(7.0); // stale contents must be overwritten
            im2col_into(&input, &spec, &par, &mut out).unwrap();
            assert_eq!(out, expected);
            ws.restore(out);
        }
    }

    #[test]
    fn im2col_into_rejects_bad_output_shape() {
        let input = Tensor::zeros(&[1, 1, 4, 4]);
        let spec = Conv2dSpec::square(1, 1, 2, 2, 0);
        let mut bad = Tensor::zeros(&[3, 3]);
        assert!(im2col_into(&input, &spec, &Parallelism::serial(), &mut bad).is_err());
    }

    #[test]
    fn im2col_identity_kernel_copies_input() {
        // 1x1 kernel, stride 1, no padding: patch matrix is just the input
        // laid out one pixel per row.
        let input = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let spec = Conv2dSpec::square(2, 1, 1, 1, 0);
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.dims(), &[4, 2]);
        // Row for pixel (0,0) holds channels [0, 4].
        assert_eq!(cols.data()[0], 0.0);
        assert_eq!(cols.data()[1], 4.0);
    }

    #[test]
    fn im2col_3x3_on_known_input() {
        // 3x3 input, 3x3 kernel, no padding: single patch = whole image.
        let input = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let spec = Conv2dSpec::square(1, 1, 3, 1, 0);
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.dims(), &[1, 9]);
        assert_eq!(cols.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_padding_inserts_zeros() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let spec = Conv2dSpec::square(1, 1, 3, 1, 1);
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.dims(), &[4, 9]);
        // Top-left output patch: the first row and column of the kernel see
        // padding.
        let first = &cols.data()[0..9];
        assert_eq!(first, &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for arbitrary x, y — the defining
        // property of an adjoint pair, which is exactly what backprop needs.
        let spec = Conv2dSpec::square(2, 1, 3, 2, 1);
        let (b, h, w) = (2, 5, 4);
        let x = Tensor::from_vec(
            (0..b * 2 * h * w)
                .map(|v| ((v * 13) % 7) as f32 - 3.0)
                .collect(),
            &[b, 2, h, w],
        )
        .unwrap();
        let cols = im2col(&x, &spec).unwrap();
        let y = Tensor::from_vec(
            (0..cols.len())
                .map(|v| ((v * 5) % 11) as f32 - 5.0)
                .collect(),
            cols.dims(),
        )
        .unwrap();
        let lhs: f32 = cols.mul(&y).unwrap().sum();
        let back = col2im(&y, &spec, b, h, w).unwrap();
        let rhs: f32 = x.mul(&back).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_shape_validation() {
        let spec = Conv2dSpec::square(1, 1, 2, 1, 0);
        let bad = Tensor::zeros(&[3, 4]);
        assert!(col2im(&bad, &spec, 1, 3, 3).is_err());
    }
}
