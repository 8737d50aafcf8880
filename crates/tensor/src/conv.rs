//! Convolution: the forward product and the patch-matrix lowering.
//!
//! A convolution is a matrix product of the `[out_channels, channels * kh *
//! kw]` weight with each pixel's patch. [`conv2d_into`] computes it on the
//! register-tiled kernel, whose lanes it reads in place from a zero-ringed
//! copy of each `[channels, height, width]` image, so no patch matrix and
//! no panel is written.
//! [`im2col_into`] writes that patch matrix, `[batch * out_h * out_w,
//! channels * kh * kw]`, for the layers' Train cache: the backward products read it,
//! and [`col2im`] scatters patch-matrix gradients back into input-shaped
//! gradients.

use crate::error::TensorError;
use crate::matmul::{by_width, for_each_block, lanes_at, rows_by_block, Operands, KC, NR, NR_TAIL};
use crate::parallel::Parallelism;
use crate::tensor::Tensor;
use crate::Result;

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    /// the padded input, or the stride or a kernel side is zero.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 || self.kernel_h == 0 || self.kernel_w == 0 {
            return Err(TensorError::InvalidGeometry(
                "conv kernel and stride must be non-zero".into(),
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

    /// Length of the scratch [`conv2d_into`] reads an `h × w` image from:
    /// the zero-ringed image, `in_channels · (h + 2·pad) · (w + 2·pad)`,
    /// plus `(8 − 1) · stride` values of slack that a row's spare lanes
    /// read past its end: a 16-lane tile holds at least 9 pixels, so no
    /// tile has more than 7 spare lanes.
    pub fn scratch_len(&self, h: usize, w: usize) -> usize {
        let (ph, pw) = (h + 2 * self.padding, w + 2 * self.padding);
        self.in_channels * ph * pw + (NR_TAIL - 1) * self.stride
    }
}

/// Fills every patch row into `out` (`patch_len > 0`).
///
/// `out` is filled one output-row segment at a time (its pixels share
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
    out: &mut [f32],
) {
    let (c, h, w, oh, ow) = geom;
    let (kh, kw, stride, pad) = (spec.kernel_h, spec.kernel_w, spec.stride, spec.padding);
    let patch = spec.patch_len();
    let (mut row, mut rest) = (0, out);
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

/// Lowers a `[batch, c, h, w]` `input` into a caller-provided patch matrix
/// `[batch * out_h * out_w, c * kh * kw]` (typically a [`crate::Workspace`]
/// checkout). Every output element is overwritten (padding positions
/// included), so `out`'s prior contents are irrelevant.
///
/// `_par` is not read: the gather runs inline. The parameter stays only
/// because the frozen ledger (`benchmark/src/layers.rs`) calls this with
/// [`Parallelism::serial`], and it goes once the ledger stops (ROADMAP item
/// 13(h)).
///
/// # Errors
///
/// Returns an error if the input is not rank 4, the channel count disagrees
/// with `spec`, or the geometry is impossible, and
/// [`TensorError::ShapeMismatch`] if `out` does not have the patch-matrix
/// shape.
pub fn im2col_into(
    input: &Tensor,
    spec: &Conv2dSpec,
    _par: &Parallelism,
    out: &mut Tensor,
) -> Result<()> {
    let ((b, c, h, w), (oh, ow), patch) = check_im2col(input, spec)?;
    check_dims(out, &[b * oh * ow, patch])?;
    if patch > 0 {
        im2col_rows(input.data(), spec, (c, h, w, oh, ow), out.data_mut());
    }
    Ok(())
}

crate::avx2_dispatch! {
    /// Convolves `input [b, c, h, w]` with `weight [out_c, c·kh·kw]` into `out
    /// [b, out_c, oh, ow]`, adding `bias[o]` to every output of channel `o`.
    /// Every output element is overwritten.
    ///
    /// Per image this is [`crate::matmul_transpose_b_slices_into`] of the
    /// weight by that image's rows of [`im2col_into`], bit for bit: every output is
    /// `0.0 + w[o][0]·x₀ + … + w[o][P−1]·x_{P−1} + bias[o]` over the patch in
    /// `(ch, ky, kx)` order, padding included as explicit `0.0` terms. But no
    /// patch matrix and no panel is written. Each image is copied once into
    /// `scratch` as `[c, h + 2·pad, w + 2·pad]` with a zero ring, and the tile
    /// reads its lanes there in place: a block's 16 (8 for a row's last 8 or
    /// fewer) output pixels of one row at depth `(ch, ky, kx)` are values
    /// `stride` apart, at an offset from the row's first pixel that depends
    /// on the depth alone. A row's last block may hold fewer pixels than
    /// lanes; its spare lanes read on into the next row or the slack
    /// [`Conv2dSpec::scratch_len`] leaves past the image, and their sums are
    /// never stored. `scratch`'s prior contents are irrelevant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`im2col_into`]'s input checks, plus
    /// [`TensorError::ShapeMismatch`] if `weight` is not `[out_c, c·kh·kw]`, `bias` not `[out_c]`, `out` not
    /// `[b, out_c, oh, ow]` or `scratch` shorter than
    /// [`Conv2dSpec::scratch_len`].
    pub fn conv2d_into(
        input: &Tensor,
        spec: &Conv2dSpec,
        weight: &Tensor,
        bias: &Tensor,
        scratch: &mut Tensor,
        out: &mut Tensor,
    ) -> Result<()> {
        let ((b, c, h, w), (oh, ow), patch) = check_im2col(input, spec)?;
        let oc = spec.out_channels;
        check_dims(weight, &[oc, patch])?;
        check_dims(bias, &[oc])?;
        check_dims(out, &[b, oc, oh, ow])?;
        let need = spec.scratch_len(h, w);
        if scratch.len() < need {
            return Err(TensorError::shape_mismatch(&[scratch.len()], &[need]));
        }
        let (kh, kw, stride) = (spec.kernel_h, spec.kernel_w, spec.stride);
        let (ph, pw) = (h + 2 * spec.padding, w + 2 * spec.padding);
        let (img, hw) = (c * h * w, oh * ow);
        let xs = &mut scratch.data_mut()[..need];
        // Depth `p`'s offset from a pixel's `(ch, ky, kx) = 0` read, for the
        // k-block at `at_k0`: once per call when the patch fits one k-block.
        let (mut at, mut at_k0) = ([0usize; KC], None);
        for n in 0..b {
            pad_image(&input.data()[n * img..][..img], (c, h, w), spec.padding, xs);
            let xs = &*xs;
            let mut op = Operands {
                a: weight.data(),
                k: patch,
                out: &mut out.data_mut()[n * oc * hw..][..oc * hw],
                n: hw,
                bias: Some(bias.data()),
            };
            for_each_block(patch, hw, ow, NR, |block| {
                if at_k0 != Some(block.k0) {
                    for (p, at) in at[..block.kc].iter_mut().enumerate() {
                        let (row, kx) = ((block.k0 + p) / kw, (block.k0 + p) % kw);
                        *at = (row / kh * ph + row % kh) * pw + kx;
                    }
                    at_k0 = Some(block.k0);
                }
                let (origin, at) = ((block.j0 / ow * pw + block.j0 % ow) * stride, &at);
                by_width!(block, |W| {
                    // At stride 1 a block's lanes are one slice copy.
                    if stride == 1 {
                        rows_by_block::<MR, W>(&mut op, block, |p| lanes_at(&xs[origin + at[p]..]));
                    } else {
                        rows_by_block::<MR, W>(&mut op, block, |p| {
                            let src = &xs[origin + at[p]..][..(W - 1) * stride + 1];
                            std::array::from_fn(|l| src[l * stride])
                        });
                    }
                });
            });
        }
        Ok(())
    }
}

/// Copies image `x` (`[c, h, w]`) into the front of `xs` as `[c, h + 2·pad,
/// w + 2·pad]`, writing the ring of `pad` zeros around every plane.
fn pad_image(x: &[f32], (c, h, w): (usize, usize, usize), pad: usize, xs: &mut [f32]) {
    let pw = w + 2 * pad;
    let plane_len = (h + 2 * pad) * pw;
    for ch in 0..c {
        let plane = &mut xs[ch * plane_len..][..plane_len];
        let (top, rest) = plane.split_at_mut(pad * pw);
        top.fill(0.0);
        for y in 0..h {
            let row = &mut rest[y * pw..][..pw];
            row[..pad].fill(0.0);
            row[pad..pad + w].copy_from_slice(&x[(ch * h + y) * w..][..w]);
            row[pad + w..].fill(0.0);
        }
        rest[h * pw..].fill(0.0);
    }
}

/// Validates that `t` has exactly `dims`.
pub(crate) fn check_dims(t: &Tensor, dims: &[usize]) -> Result<()> {
    if t.dims() != dims {
        return Err(TensorError::shape_mismatch(t.dims(), dims));
    }
    Ok(())
}

/// Scatters a patch-matrix gradient (shape `[batch * out_h * out_w,
/// c * kh * kw]`) back to an input-shaped gradient `[batch, c, h, w]`.
/// Overlapping patches accumulate, matching the adjoint of [`im2col_into`].
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
    fn a_zero_kernel_side_is_invalid_geometry() {
        let base = Conv2dSpec::square(1, 1, 1, 1, 0);
        for spec in [
            Conv2dSpec {
                kernel_h: 0,
                ..base
            },
            Conv2dSpec {
                kernel_w: 0,
                ..base
            },
        ] {
            assert!(matches!(
                spec.output_size(3, 3),
                Err(TensorError::InvalidGeometry(_))
            ));
            let mut out = Tensor::zeros(&[1, 1, 4, 4]);
            let (w, b) = (Tensor::zeros(&[1, 0]), Tensor::zeros(&[1]));
            let x = Tensor::zeros(&[1, 1, 3, 3]);
            let mut scratch = Tensor::zeros(&[64]);
            assert!(conv2d_into(&x, &spec, &w, &b, &mut scratch, &mut out).is_err());
        }
    }

    #[test]
    fn zero_input_channels_convolve_to_the_bias() {
        // Patch length 0: one empty k-block, so every output is `0.0 + bias`.
        let spec = Conv2dSpec::square(0, 2, 3, 2, 1);
        let x = Tensor::zeros(&[2, 0, 5, 4]);
        let (w, bias) = (
            Tensor::zeros(&[2, 0]),
            Tensor::from_vec(vec![-0.5, 3.0], &[2]).unwrap(),
        );
        let (oh, ow) = spec.output_size(5, 4).unwrap();
        let mut out = Tensor::full(&[2, 2, oh, ow], f32::NAN);
        let mut scratch = Tensor::full(&[spec.scratch_len(5, 4)], f32::NAN);
        conv2d_into(&x, &spec, &w, &bias, &mut scratch, &mut out).unwrap();
        for (i, plane) in out.data().chunks(oh * ow).enumerate() {
            assert!(plane.iter().all(|&v| v == bias.data()[i % 2]), "plane {i}");
        }
    }

    #[test]
    fn conv2d_into_rejects_bad_operand_shapes() {
        let spec = Conv2dSpec::square(1, 2, 3, 1, 1);
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        let (w, b, out) = (
            Tensor::zeros(&[2, 9]),
            Tensor::zeros(&[2]),
            Tensor::zeros(&[1, 2, 4, 4]),
        );
        let need = spec.scratch_len(4, 4);
        let run = |w: &Tensor, b: &Tensor, scratch: usize, out: &Tensor| {
            let mut scratch = Tensor::zeros(&[scratch]);
            conv2d_into(&x, &spec, w, b, &mut scratch, &mut out.clone()).is_err()
        };
        assert!(!run(&w, &b, need, &out));
        assert!(run(&Tensor::zeros(&[2, 8]), &b, need, &out));
        assert!(run(&w, &Tensor::zeros(&[3]), need, &out));
        assert!(run(&w, &b, need, &Tensor::zeros(&[1, 2, 3, 4])));
        assert!(run(&w, &b, need - 1, &out));
        let x2 = Tensor::zeros(&[1, 2, 4, 4]);
        let mut scratch = Tensor::zeros(&[need]);
        assert!(conv2d_into(&x2, &spec, &w, &b, &mut scratch, &mut out.clone()).is_err());
    }

    #[test]
    fn conv2d_into_ignores_what_its_scratch_held() {
        let ramp = |len: usize, salt: usize| -> Vec<f32> {
            (0..len)
                .map(|v| ((v * 37 + salt) % 29) as f32 * 0.125 - 1.75)
                .collect()
        };
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (h, w) = (19, 18);
        let x = Tensor::from_vec(ramp(2 * 3 * h * w, 1), &[2, 3, h, w]).unwrap();
        // Rows of 18 pixels: a 16-column block and an 8-column tail of 2 at
        // stride 1.
        for (kernel, stride, pad) in [(3, 1, 1), (5, 2, 2), (1, 1, 0), (3, 2, 0)] {
            let spec = Conv2dSpec::square(3, 5, kernel, stride, pad);
            let (oh, ow) = spec.output_size(h, w).unwrap();
            let patch = spec.patch_len();
            let weight = Tensor::from_vec(ramp(5 * patch, 2), &[5, patch]).unwrap();
            let bias = Tensor::from_vec(ramp(5, 3), &[5]).unwrap();
            let run = |scratch: &mut Tensor| {
                let mut out = Tensor::full(&[2, 5, oh, ow], f32::NAN);
                conv2d_into(&x, &spec, &weight, &bias, scratch, &mut out).unwrap();
                bits(&out)
            };
            let need = spec.scratch_len(h, w);
            let fresh = run(&mut Tensor::zeros(&[need]));
            assert_eq!(run(&mut Tensor::full(&[need], f32::NAN)), fresh);

            // A call at another geometry leaves its image, ring and all, in
            // a larger scratch.
            let other = Conv2dSpec::square(3, 2, 3, 2, 3);
            let y = Tensor::from_vec(ramp(3 * 23 * 25, 4), &[1, 3, 23, 25]).unwrap();
            let mut dirty = Tensor::full(&[need.max(other.scratch_len(23, 25)) + 5], -0.0);
            let (oh2, ow2) = other.output_size(23, 25).unwrap();
            conv2d_into(
                &y,
                &other,
                &Tensor::from_vec(ramp(2 * other.patch_len(), 5), &[2, other.patch_len()]).unwrap(),
                &Tensor::zeros(&[2]),
                &mut dirty,
                &mut Tensor::zeros(&[1, 2, oh2, ow2]),
            )
            .unwrap();
            assert_eq!(run(&mut dirty), fresh);

            // And both are the slice product over each image's im2col rows.
            let mut cols = Tensor::zeros(&[2 * oh * ow, patch]);
            im2col_into(&x, &spec, &Parallelism::serial(), &mut cols).unwrap();
            let mut want = vec![0.0f32; 2 * 5 * oh * ow];
            for (n, want) in want.chunks_mut(5 * oh * ow).enumerate() {
                let rows = &cols.data()[n * oh * ow * patch..][..oh * ow * patch];
                crate::matmul_transpose_b_slices_into(
                    weight.data(),
                    rows,
                    (5, patch, oh * ow),
                    Some(bias.data()),
                    want,
                )
                .unwrap();
            }
            assert_eq!(fresh, want.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
    }

    /// The convolution as a scalar loop: every output is `0.0 + w[o][0]·x₀ +
    /// … + bias[o]` over the patch in `(ch, ky, kx)` order, a padded
    /// position an explicit `0.0` term.
    fn scalar_conv(x: &Tensor, spec: &Conv2dSpec, weight: &[f32], bias: &[f32]) -> Vec<u32> {
        let [b, c, h, w] = [0, 1, 2, 3].map(|d| x.dims()[d]);
        let (oh, ow) = spec.output_size(h, w).unwrap();
        let (s, pad) = (spec.stride, spec.padding);
        let mut out = Vec::new();
        for n in 0..b {
            for (o, row) in weight.chunks(spec.patch_len()).enumerate() {
                for (oy, ox) in (0..oh).flat_map(|oy| (0..ow).map(move |ox| (oy, ox))) {
                    let mut acc = 0.0f32;
                    let mut taps = row.iter();
                    for ch in 0..c {
                        for ky in 0..spec.kernel_h {
                            for kx in 0..spec.kernel_w {
                                let (y, xx) = (
                                    (oy * s + ky).wrapping_sub(pad),
                                    (ox * s + kx).wrapping_sub(pad),
                                );
                                let v = if y < h && xx < w {
                                    x.data()[((n * c + ch) * h + y) * w + xx]
                                } else {
                                    0.0
                                };
                                acc += taps.next().unwrap() * v;
                            }
                        }
                    }
                    out.push((acc + bias[o]).to_bits());
                }
            }
        }
        out
    }

    /// Both builds of `conv2d_into`, called directly, give the scalar
    /// loop's bits: stride 2 with padding, rows whose width is no multiple
    /// of 8, a patch deeper than one k-block, output channels in a tail
    /// below either build's `MR`, and the CNN's own geometries. Each
    /// scratch is exactly `scratch_len` long and NaN past the image, so a
    /// stored lane read past the last row is a NaN output. Without AVX2
    /// the AVX2 arm says it skipped.
    #[test]
    fn both_builds_of_conv2d_are_the_scalar_loop() {
        let ramp = |len: usize, salt: usize| -> Vec<f32> {
            (0..len)
                .map(|v| ((v * 37 + salt) % 29) as f32 / 7.0 - 2.0)
                .collect()
        };
        let mut avx2_ran = false;
        // The CNN's geometries: the stem's, block A's and block B's inputs,
        // rows 48, 24 and 12 pixels wide (16-column tiles, an 8-column tail
        // at 24), 1×1, 3×3 and 5×5 kernels, 1–10 output channels.
        let cnn = [(1, 48), (8, 24), (16, 12)]
            .into_iter()
            .flat_map(|(c, edge)| {
                [(1, 0), (3, 1), (5, 2)]
                    .into_iter()
                    .flat_map(move |(kernel, pad)| {
                        (1..=10).map(move |oc| (c, oc, kernel, 1, pad, edge, edge))
                    })
            });
        // (channels, out channels, kernel, stride, pad, h, w)
        for (c, oc, kernel, stride, pad, h, w) in [
            (3, 5, 3, 2, 1, 11, 13),
            (2, 1, 5, 2, 2, 9, 7),
            (30, 6, 3, 1, 1, 6, 10),
            (4, 3, 1, 1, 0, 5, 17),
        ]
        .into_iter()
        .chain(cnn)
        {
            let spec = Conv2dSpec::square(c, oc, kernel, stride, pad);
            let (oh, ow) = spec.output_size(h, w).unwrap();
            let patch = spec.patch_len();
            let x = Tensor::from_vec(ramp(2 * c * h * w, 1), &[2, c, h, w]).unwrap();
            let weight = Tensor::from_vec(ramp(oc * patch, 2), &[oc, patch]).unwrap();
            let bias = Tensor::from_vec(ramp(oc, 3), &[oc]).unwrap();
            let want = scalar_conv(&x, &spec, weight.data(), bias.data());
            let mut scratch = Tensor::full(&[spec.scratch_len(h, w)], f32::NAN);
            let mut out = Tensor::full(&[2, oc, oh, ow], f32::NAN);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            conv2d_into::baseline(&x, &spec, &weight, &bias, &mut scratch, &mut out).unwrap();
            assert_eq!(bits(&out), want, "baseline {spec:?}");
            out.data_mut().fill(f32::NAN);
            if let Some(done) = conv2d_into::avx2(&x, &spec, &weight, &bias, &mut scratch, &mut out)
            {
                done.unwrap();
                assert_eq!(bits(&out), want, "avx2 {spec:?}");
                avx2_ran = true;
            }
        }
        if !avx2_ran {
            println!("avx2 arm skipped: this CPU has no AVX2");
        }
    }

    #[test]
    fn im2col_into_ignores_stale_contents() {
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
        let mut expected = ws.checkout(&[2 * 6 * 6, 27]);
        im2col_into(&input, &spec, &Parallelism::serial(), &mut expected).unwrap();
        let mut out = ws.checkout(expected.dims());
        out.data_mut().fill(7.0); // stale contents must be overwritten
        im2col_into(&input, &spec, &Parallelism::serial(), &mut out).unwrap();
        assert_eq!(out, expected);
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
        let mut cols = Tensor::zeros(&[4, 2]);
        im2col_into(&input, &spec, &Parallelism::serial(), &mut cols).unwrap();
        // Row for pixel (0,0) holds channels [0, 4].
        assert_eq!(cols.data()[0], 0.0);
        assert_eq!(cols.data()[1], 4.0);
    }

    #[test]
    fn im2col_3x3_on_known_input() {
        // 3x3 input, 3x3 kernel, no padding: single patch = whole image.
        let input = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let spec = Conv2dSpec::square(1, 1, 3, 1, 0);
        let mut cols = Tensor::zeros(&[1, 9]);
        im2col_into(&input, &spec, &Parallelism::serial(), &mut cols).unwrap();
        assert_eq!(cols.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_padding_inserts_zeros() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let spec = Conv2dSpec::square(1, 1, 3, 1, 1);
        let mut cols = Tensor::zeros(&[4, 9]);
        im2col_into(&input, &spec, &Parallelism::serial(), &mut cols).unwrap();
        // Top-left output patch: the first row and column of the kernel see
        // padding.
        let first = &cols.data()[0..9];
        assert_eq!(first, &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col_into(x), y> == <x, col2im(y)> for arbitrary x, y — the defining
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
        let (oh, ow) = spec.output_size(h, w).unwrap();
        let mut cols = Tensor::zeros(&[b * oh * ow, spec.patch_len()]);
        im2col_into(&x, &spec, &Parallelism::serial(), &mut cols).unwrap();
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
