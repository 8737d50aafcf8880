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
// darlint: hot
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
#[derive(Debug)]
pub struct InceptionBlock {
    channels: InceptionChannels,
    b1: Conv2d,
    b1_act: Relu,
    b2_reduce: Conv2d,
    b2_reduce_act: Relu,
    b2: Conv2d,
    b2_act: Relu,
    b3_reduce: Conv2d,
    b3_reduce_act: Relu,
    b3: Conv2d,
    b3_act: Relu,
    b4_pool: MaxPool2d,
    b4_proj: Conv2d,
    b4_act: Relu,
}

impl InceptionBlock {
    /// Creates an inception block over `in_channels` input channels.
    pub fn new(in_channels: usize, channels: InceptionChannels, rng: &mut SplitMix64) -> Self {
        InceptionBlock {
            channels,
            b1: Conv2d::square(in_channels, channels.c1, 1, 1, 0, rng),
            b1_act: Relu::new(),
            b2_reduce: Conv2d::square(in_channels, channels.c3_reduce, 1, 1, 0, rng),
            b2_reduce_act: Relu::new(),
            b2: Conv2d::square(channels.c3_reduce, channels.c3, 3, 1, 1, rng),
            b2_act: Relu::new(),
            b3_reduce: Conv2d::square(in_channels, channels.c5_reduce, 1, 1, 0, rng),
            b3_reduce_act: Relu::new(),
            b3: Conv2d::square(channels.c5_reduce, channels.c5, 5, 1, 2, rng),
            b3_act: Relu::new(),
            b4_pool: MaxPool2d::new(3, 1),
            b4_proj: Conv2d::square(in_channels, channels.pool_proj, 1, 1, 0, rng),
            b4_act: Relu::new(),
        }
    }

    /// The block's channel allocation.
    pub fn channels(&self) -> &InceptionChannels {
        &self.channels
    }
}

impl Layer for InceptionBlock {
    // darlint: hot
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        let d = rank4_dims(input, "inception block")?;
        // Branch 1: 1×1.
        let a = self.b1.forward_into(input, mode, ws)?;
        let y1 = self.b1_act.forward_into(&a, mode, ws)?;
        ws.restore(a);
        // Branch 2: 1×1 reduce, then 3×3.
        let a = self.b2_reduce.forward_into(input, mode, ws)?;
        let r = self.b2_reduce_act.forward_into(&a, mode, ws)?;
        ws.restore(a);
        let c = self.b2.forward_into(&r, mode, ws)?;
        ws.restore(r);
        let y2 = self.b2_act.forward_into(&c, mode, ws)?;
        ws.restore(c);
        // Branch 3: 1×1 reduce, then 5×5.
        let a = self.b3_reduce.forward_into(input, mode, ws)?;
        let r = self.b3_reduce_act.forward_into(&a, mode, ws)?;
        ws.restore(a);
        let c = self.b3.forward_into(&r, mode, ws)?;
        ws.restore(r);
        let y3 = self.b3_act.forward_into(&c, mode, ws)?;
        ws.restore(c);
        // Branch 4: same-size 3×3 max pool (padded with -inf so padding
        // never wins), then a 1×1 projection.
        let mut padded = ws.checkout(&[d[0], d[1], d[2] + 2, d[3] + 2]);
        pad_spatial_into(input, 1, f32::NEG_INFINITY, &mut padded)?;
        let pooled = self.b4_pool.forward_into(&padded, mode, ws)?;
        ws.restore(padded);
        let p = self.b4_proj.forward_into(&pooled, mode, ws)?;
        ws.restore(pooled);
        let y4 = self.b4_act.forward_into(&p, mode, ws)?;
        ws.restore(p);

        let mut out = ws.checkout(&[d[0], self.channels.total(), d[2], d[3]]);
        Tensor::concat_into(&[&y1, &y2, &y3, &y4], 1, &mut out)?;
        ws.restore(y1);
        ws.restore(y2);
        ws.restore(y3);
        ws.restore(y4);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let c = &self.channels;
        let parts = grad_out.split(1, &[c.c1, c.c3, c.c5, c.pool_proj])?;
        let g1 = self.b1.backward(&self.b1_act.backward(&parts[0])?)?;
        let g2 = {
            let g = self.b2.backward(&self.b2_act.backward(&parts[1])?)?;
            self.b2_reduce.backward(&self.b2_reduce_act.backward(&g)?)?
        };
        let g3 = {
            let g = self.b3.backward(&self.b3_act.backward(&parts[2])?)?;
            self.b3_reduce.backward(&self.b3_reduce_act.backward(&g)?)?
        };
        let g4 = {
            let g = self.b4_proj.backward(&self.b4_act.backward(&parts[3])?)?;
            let g_padded = self.b4_pool.backward(&g)?;
            crop_spatial(&g_padded, 1)?
        };
        let mut total = g1;
        total.add_assign(&g2)?;
        total.add_assign(&g3)?;
        total.add_assign(&g4)?;
        Ok(total)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        params.extend(self.b1.params_mut());
        params.extend(self.b2_reduce.params_mut());
        params.extend(self.b2.params_mut());
        params.extend(self.b3_reduce.params_mut());
        params.extend(self.b3.params_mut());
        params.extend(self.b4_proj.params_mut());
        params
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
        let (pooled, _) =
            darnet_tensor::max_pool2d(&padded, &darnet_tensor::PoolSpec::new(3, 1)).unwrap();
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
