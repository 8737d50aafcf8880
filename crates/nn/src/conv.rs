//! 2-D convolution layer implemented via im2col lowering.

use darnet_tensor::{
    col2im, he_normal, im2col_into, matmul_transpose_b_slices_into, Conv2dSpec, Parallelism,
    SplitMix64, Tensor, TensorView, Workspace,
};

use crate::error::NnError;
use crate::layer::{rank4_dims, Layer, Mode};
use crate::param::Param;
use crate::Result;

/// A 2-D convolution over `[batch, in_c, h, w]` inputs producing
/// `[batch, out_c, oh, ow]`.
///
/// The forward pass lowers the input to a patch matrix with
/// [`darnet_tensor::im2col`] and multiplies the `[out_c, in_c·kh·kw]`
/// weight by each image's patch rows, straight into that image's channel
/// planes with the bias added as each output is stored; the backward pass
/// uses the transpose products plus [`col2im`]. Weights use He
/// initialisation (the layer is normally followed by ReLU).
#[derive(Debug, Clone)]
pub struct Conv2d {
    spec: Conv2dSpec,
    weight: Param,
    bias: Param,
    /// Train-mode cache: the im2col patch matrix and the input's
    /// `(batch, h, w)`.
    cache: Option<(Tensor, [usize; 3])>,
}

impl Conv2d {
    /// Creates a convolution from a geometry spec.
    pub fn new(spec: Conv2dSpec, rng: &mut SplitMix64) -> Self {
        let patch = spec.patch_len();
        let weight = he_normal(&[spec.out_channels, patch], patch, rng);
        Conv2d {
            spec,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[spec.out_channels])),
            cache: None,
        }
    }

    /// Convenience constructor for a square kernel.
    pub fn square(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SplitMix64,
    ) -> Self {
        Conv2d::new(
            Conv2dSpec::square(in_channels, out_channels, kernel, stride, padding),
            rng,
        )
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.spec.out_channels
    }
}

/// Reorders a `[b, c, oh, ow]` channel-major tensor into a `[b*oh*ow, c]`
/// row-per-pixel matrix (the layout of the backward products).
fn nchw_to_pixels(t: &Tensor) -> Result<Tensor> {
    let d = t.dims();
    let (b, c, oh, ow) = (d[0], d[1], d[2], d[3]);
    let hw = oh * ow;
    let mut out = vec![0.0f32; b * hw * c];
    let data = t.data();
    for n in 0..b {
        for ch in 0..c {
            for p in 0..hw {
                out[(n * hw + p) * c + ch] = data[(n * c + ch) * hw + p];
            }
        }
    }
    Ok(Tensor::from_vec(out, &[b * hw, c])?)
}

impl Layer for Conv2d {
    // darlint: hot
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        let [b, _, h, w] = rank4_dims(input, "conv")?;
        let (oh, ow) = self.spec.output_size(h, w)?;
        let (hw, patch, oc) = (oh * ow, self.spec.patch_len(), self.spec.out_channels);
        let mut cols = ws.checkout(&[b * hw, patch]);
        im2col_into(input, &self.spec, &Parallelism::serial(), &mut cols)?;
        let mut out = ws.checkout(&[b, oc, oh, ow]);
        // Per image, `W [oc, patch] × cols_nᵀ` lands as that image's
        // `[oc, oh·ow]` block of the NCHW output, each output `+ bias[c]`.
        for n in 0..b {
            matmul_transpose_b_slices_into(
                self.weight.value.data(),
                &cols.data()[n * hw * patch..(n + 1) * hw * patch],
                (oc, patch, hw),
                Some(self.bias.value.data()),
                &mut out.data_mut()[n * oc * hw..(n + 1) * oc * hw],
            )?;
        }
        if mode == Mode::Train {
            self.cache = Some((cols, [b, h, w]));
        } else {
            ws.restore(cols);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let &(ref cols, [b, h, w]) = self
            .cache
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "Conv2d" })?;
        // [b, out_c, oh, ow] → [b*oh*ow, out_c]
        let dpixels = nchw_to_pixels(grad_out)?;
        // dW [out_c, patch] = dpixelsᵀ × cols
        let dw = dpixels.matmul_transpose_a(cols)?;
        self.weight.grad.add_assign(&dw)?;
        let db = dpixels.sum_axis0()?;
        self.bias.grad.add_assign(&db)?;
        // dcols [rows, patch] = dpixels × W
        let dcols = dpixels.matmul(&self.weight.value)?;
        Ok(col2im(&dcols, &self.spec, b, h, w)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]
mod tests {
    use super::*;

    #[test]
    fn identity_1x1_kernel_passes_input_through() {
        let mut rng = SplitMix64::new(1);
        let mut conv = Conv2d::square(1, 1, 1, 1, 0, &mut rng);
        conv.weight.value = Tensor::ones(&[1, 1]);
        let x = Tensor::from_vec((0..4).map(|v| v as f32).collect(), &[1, 1, 2, 2]).unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // Sum kernel over a 3x3 image with no padding: output = sum of all
        // pixels.
        let mut rng = SplitMix64::new(1);
        let mut conv = Conv2d::square(1, 1, 3, 1, 0, &mut rng);
        conv.weight.value = Tensor::ones(&[1, 9]);
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[45.0]);
    }

    #[test]
    fn output_shape_follows_spec() {
        let mut rng = SplitMix64::new(2);
        let mut conv = Conv2d::square(3, 8, 3, 1, 1, &mut rng);
        let y = conv
            .forward(&Tensor::zeros(&[2, 3, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn multichannel_output_is_channel_major() {
        let mut rng = SplitMix64::new(3);
        let mut conv = Conv2d::square(1, 2, 1, 1, 0, &mut rng);
        conv.weight.value = Tensor::from_vec(vec![1.0, 10.0], &[2, 1]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2, 2]);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = SplitMix64::new(7);
        let mut conv = Conv2d::square(2, 3, 3, 1, 1, &mut rng);
        let x = {
            let mut t = Tensor::zeros(&[1, 2, 4, 4]);
            let mut r = SplitMix64::new(99);
            for v in t.data_mut() {
                *v = r.uniform(-1.0, 1.0);
            }
            t
        };
        let y = conv.forward(&x, Mode::Train).unwrap();
        let dx = conv.backward(&Tensor::ones(y.dims())).unwrap();

        let eps = 1e-2f32;
        // Input gradient (spot-check a subset for speed).
        for i in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = conv.forward(&xp, Mode::Eval).unwrap().sum();
            let ym = conv.forward(&xm, Mode::Eval).unwrap().sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 2e-2,
                "input grad {i}: fd {fd} vs {}",
                dx.data()[i]
            );
        }
        // Weight gradient (spot-check).
        let wgrad = conv.weight.grad.clone();
        for i in (0..conv.weight.value.len()).step_by(7) {
            let orig = conv.weight.value.data()[i];
            conv.weight.value.data_mut()[i] = orig + eps;
            let yp = conv.forward(&x, Mode::Eval).unwrap().sum();
            conv.weight.value.data_mut()[i] = orig - eps;
            let ym = conv.forward(&x, Mode::Eval).unwrap().sum();
            conv.weight.value.data_mut()[i] = orig;
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - wgrad.data()[i]).abs() < 2e-2,
                "weight grad {i}: fd {fd} vs {}",
                wgrad.data()[i]
            );
        }
        // Bias gradient: dL/db_c = number of output pixels per channel.
        let out_pixels = (y.len() / conv.spec.out_channels) as f32;
        for &g in conv.bias.grad.data() {
            assert!((g - out_pixels).abs() < 1e-3);
        }
    }

    #[test]
    fn nchw_to_pixels_puts_one_pixel_per_row() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let pixels = nchw_to_pixels(&t).unwrap();
        assert_eq!(pixels.dims(), &[8, 3]);
        // Image 1, pixel 2 holds channels [1·12 + 0·4 + 2, … + 1·4, … + 2·4].
        assert_eq!(&pixels.data()[6 * 3..7 * 3], &[14.0, 18.0, 22.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = SplitMix64::new(1);
        let mut conv = Conv2d::square(1, 1, 1, 1, 0, &mut rng);
        assert!(matches!(
            conv.backward(&Tensor::zeros(&[1, 1, 1, 1])),
            Err(NnError::NoForwardCache { .. })
        ));
    }
}
