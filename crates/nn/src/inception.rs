//! Inception block: parallel 1×1 / 3×3 / 5×5 / pool-projection branches
//! concatenated along the channel axis.
//!
//! DarNet's frame classifier is Inception-V3; this reproduction uses the
//! same structural idea (Szegedy et al.'s "network in network" parallel
//! branches, motivated by the Hebbian principle the paper cites) at a CPU-
//! trainable scale.

use darnet_tensor::{SplitMix64, Tensor, TensorView, Workspace};

use crate::conv::Conv2d;
use crate::error::NnError;
use crate::layer::{rank4_dims, Layer, Mode, Relu};
use crate::param::Param;
use crate::pool::MaxPool2d;
use crate::sequential::Sequential;
use crate::Result;

/// Channel allocation for one inception block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InceptionChannels {
    /// Output channels of the 1×1 branch.
    pub c1: usize,
    /// Reduction channels feeding the 3×3 branch.
    pub c3_reduce: usize,
    /// Output channels of the 3×3 branch.
    pub c3: usize,
    /// Reduction channels feeding the 5×5 branch.
    pub c5_reduce: usize,
    /// Output channels of the 5×5 branch.
    pub c5: usize,
    /// Output channels of the pool-projection branch.
    pub pool_proj: usize,
}

impl InceptionChannels {
    /// Total output channels of the block.
    pub fn total(&self) -> usize {
        self.c1 + self.c3 + self.c5 + self.pool_proj
    }
}

/// Pads the spatial dims of a `[b, c, h, w]` tensor with `pad` rings of
/// `value`, into a caller-provided `[b, c, h+2p, w+2p]` buffer.
fn pad_spatial_into(input: &Tensor, pad: usize, value: f32, out: &mut Tensor) -> Result<()> {
    let d = input.dims();
    let (b, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (nh, nw) = (h + 2 * pad, w + 2 * pad);
    if out.dims() != [b, c, nh, nw] {
        return Err(NnError::InvalidConfig(format!(
            "pad_spatial_into: {:?} padded by {pad} into {:?} output",
            input.dims(),
            out.dims()
        )));
    }
    let od = out.data_mut();
    od.fill(value);
    let id = input.data();
    for n in 0..b {
        for ch in 0..c {
            for y in 0..h {
                let src = ((n * c + ch) * h + y) * w;
                let dst = ((n * c + ch) * nh + y + pad) * nw + pad;
                od[dst..dst + w].copy_from_slice(&id[src..src + w]);
            }
        }
    }
    Ok(())
}

/// Crops `pad` rings from the spatial dims (inverse of
/// [`pad_spatial_into`]).
fn crop_spatial(input: &Tensor, pad: usize) -> Result<Tensor> {
    let d = input.dims();
    let (b, c, nh, nw) = (d[0], d[1], d[2], d[3]);
    let (h, w) = (nh - 2 * pad, nw - 2 * pad);
    let mut out = Tensor::zeros(&[b, c, h, w]);
    let od = out.data_mut();
    let id = input.data();
    for n in 0..b {
        for ch in 0..c {
            for y in 0..h {
                let src = ((n * c + ch) * nh + y + pad) * nw + pad;
                let dst = ((n * c + ch) * h + y) * w;
                od[dst..dst + w].copy_from_slice(&id[src..src + w]);
            }
        }
    }
    Ok(out)
}

/// An inception block with four parallel branches whose outputs are
/// concatenated along the channel axis. Spatial size is preserved.
///
/// Each branch is a [`Sequential`]: 1×1; 1×1 reduce then 3×3; 1×1 reduce
/// then 5×5; and a same-size 3×3 max pool then a 1×1 projection, every
/// convolution followed by a ReLU. The pool branch's input is padded with
/// −∞ (so padding never wins a window) before its stack, and its gradient
/// cropped after it.
#[derive(Debug)]
pub struct InceptionBlock {
    channels: InceptionChannels,
    branches: [Sequential; 4],
}

impl InceptionBlock {
    /// Creates an inception block over `in_channels` input channels.
    pub fn new(in_channels: usize, channels: InceptionChannels, rng: &mut SplitMix64) -> Self {
        let mut conv = |cin: usize, cout: usize, k: usize, net: &mut Sequential| {
            net.push(Conv2d::square(cin, cout, k, 1, k / 2, rng));
            net.push(Relu::new());
        };
        let mut branches: [Sequential; 4] = Default::default();
        let [b1, b2, b3, b4] = &mut branches;
        // The convolutions draw their weights in this order, which is also
        // the parameter order a saved model file lists.
        conv(in_channels, channels.c1, 1, b1);
        conv(in_channels, channels.c3_reduce, 1, b2);
        conv(channels.c3_reduce, channels.c3, 3, b2);
        conv(in_channels, channels.c5_reduce, 1, b3);
        conv(channels.c5_reduce, channels.c5, 5, b3);
        b4.push(MaxPool2d::new(3, 1));
        conv(in_channels, channels.pool_proj, 1, b4);
        InceptionBlock { channels, branches }
    }

    /// The block's channel allocation.
    pub fn channels(&self) -> &InceptionChannels {
        &self.channels
    }
}

impl Layer for InceptionBlock {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        let d = rank4_dims(input, "inception block")?;
        let [b1, b2, b3, b4] = &mut self.branches;
        let y1 = b1.forward_into(input, mode, ws)?;
        let y2 = b2.forward_into(input, mode, ws)?;
        let y3 = b3.forward_into(input, mode, ws)?;
        let mut padded = ws.checkout(&[d[0], d[1], d[2] + 2, d[3] + 2]);
        pad_spatial_into(input, 1, f32::NEG_INFINITY, &mut padded)?;
        let y4 = b4.forward_into(&padded, mode, ws)?;
        ws.restore(padded);

        let mut out = ws.checkout(&[d[0], self.channels.total(), d[2], d[3]]);
        Tensor::concat_into(&[&y1, &y2, &y3, &y4], 1, &mut out)?;
        for y in [y1, y2, y3, y4] {
            ws.restore(y);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let c = &self.channels;
        let parts = grad_out.split(1, &[c.c1, c.c3, c.c5, c.pool_proj])?;
        let [b1, b2, b3, b4] = &mut self.branches;
        let mut total = b1.backward(&parts[0])?;
        total.add_assign(&b2.backward(&parts[1])?)?;
        total.add_assign(&b3.backward(&parts[2])?)?;
        total.add_assign(&crop_spatial(&b4.backward(&parts[3])?, 1)?)?;
        Ok(total)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect()
    }

    fn name(&self) -> &'static str {
        "InceptionBlock"
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]
mod tests {
    use super::*;

    fn tiny_channels() -> InceptionChannels {
        InceptionChannels {
            c1: 2,
            c3_reduce: 2,
            c3: 3,
            c5_reduce: 1,
            c5: 2,
            pool_proj: 1,
        }
    }

    #[test]
    fn output_has_concatenated_channels_and_same_spatial_size() {
        let mut rng = SplitMix64::new(1);
        let ch = tiny_channels();
        let mut block = InceptionBlock::new(3, ch, &mut rng);
        let x = Tensor::zeros(&[2, 3, 6, 6]);
        let y = block.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, ch.total(), 6, 6]);
    }

    #[test]
    fn pad_crop_roundtrip() {
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let mut padded = Tensor::full(&[1, 1, 8, 8], 9.0); // stale contents
        pad_spatial_into(&x, 2, 0.0, &mut padded).unwrap();
        assert_eq!(padded.sum(), x.sum());
        let back = crop_spatial(&padded, 2).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn negative_inf_padding_never_wins_pool() {
        let x = Tensor::full(&[1, 1, 2, 2], -5.0);
        let mut padded = Tensor::zeros(&[1, 1, 4, 4]);
        pad_spatial_into(&x, 1, f32::NEG_INFINITY, &mut padded).unwrap();
        let mut pooled = Tensor::zeros(&[1, 1, 2, 2]);
        let spec = darnet_tensor::PoolSpec::new(3, 1);
        darnet_tensor::max_pool2d_into(&padded, &spec, &mut pooled, None).unwrap();
        assert!(pooled.data().iter().all(|&v| v == -5.0));
    }

    #[test]
    fn inception_gradcheck_on_input() {
        let mut rng = SplitMix64::new(5);
        let mut block = InceptionBlock::new(2, tiny_channels(), &mut rng);
        let mut r2 = SplitMix64::new(17);
        let mut x = Tensor::zeros(&[1, 2, 4, 4]);
        for v in x.data_mut() {
            *v = r2.uniform(-1.0, 1.0);
        }
        let y = block.forward(&x, Mode::Train).unwrap();
        let dx = block.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(dx.dims(), x.dims());
        let eps = 1e-2f32;
        for i in (0..x.len()).step_by(3) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            // Forward in Train mode to refresh ReLU masks is fine for eval
            // of the loss; use Eval to avoid disturbing caches? We re-run
            // Train on original x afterwards, so Eval is safe here.
            let yp = block.forward(&xp, Mode::Eval).unwrap().sum();
            let ym = block.forward(&xm, Mode::Eval).unwrap().sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 5e-2,
                "grad {i}: fd {fd} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn params_cover_all_six_convs() {
        let mut rng = SplitMix64::new(2);
        let mut block = InceptionBlock::new(3, tiny_channels(), &mut rng);
        // 6 convs × (weight + bias) = 12 params.
        assert_eq!(block.params_mut().len(), 12);
        assert!(block.param_count() > 0);
    }
}
