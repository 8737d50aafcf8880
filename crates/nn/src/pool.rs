//! Pooling layers: max, average, and mean over time.

use darnet_tensor::{
    avg_pool2d_backward, avg_pool2d_into, max_pool2d_backward, max_pool2d_into, PoolSpec, Tensor,
    TensorView, Workspace,
};

use crate::error::NnError;
use crate::layer::{rank4_dims, Layer, Mode};
use crate::param::Param;
use crate::Result;

/// Max pooling over square windows.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    spec: PoolSpec,
    /// Train-mode cache: the winning indices and the input dims.
    cache: Option<(Vec<usize>, [usize; 4])>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window and stride.
    pub fn new(window: usize, stride: usize) -> Self {
        MaxPool2d {
            spec: PoolSpec::new(window, stride),
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        let d = rank4_dims(input, "max pool")?;
        let (oh, ow) = self.spec.output_size(d[2], d[3])?;
        let mut out = ws.checkout(&[d[0], d[1], oh, ow]);
        // Train writes the indices straight into its cache (reusing the
        // last step's buffer); Eval tracks none.
        let arg = match mode {
            Mode::Train => {
                let cache = self.cache.get_or_insert_with(Default::default);
                cache.1 = d;
                Some(&mut cache.0)
            }
            Mode::Eval => None,
        };
        max_pool2d_into(input, &self.spec, &mut out, arg)?;
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (arg, dims) = self
            .cache
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "MaxPool2d" })?;
        Ok(max_pool2d_backward(grad_out, arg, dims)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// Average pooling over square windows.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    spec: PoolSpec,
    input_dims: Option<[usize; 4]>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with the given window and stride.
    pub fn new(window: usize, stride: usize) -> Self {
        AvgPool2d {
            spec: PoolSpec::new(window, stride),
            input_dims: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        let d = rank4_dims(input, "avg pool")?;
        let (oh, ow) = self.spec.output_size(d[2], d[3])?;
        let mut out = ws.checkout(&[d[0], d[1], oh, ow]);
        avg_pool2d_into(input, &self.spec, &mut out)?;
        if mode == Mode::Train {
            self.input_dims = Some(d);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims = self
            .input_dims
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "AvgPool2d" })?;
        Ok(avg_pool2d_backward(grad_out, &self.spec, dims)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "AvgPool2d"
    }
}

/// Mean over the time axis: `[batch, time, feat]` sequences to `[batch,
/// feat]` rows — the BiLSTM classifier's pooling before its head.
#[derive(Debug, Clone, Default)]
pub struct MeanOverTime {
    /// Train-mode cache: the input's `(batch, time)`.
    input_len: Option<(usize, usize)>,
}

impl MeanOverTime {
    /// Creates a mean-over-time pooling layer.
    pub fn new() -> Self {
        MeanOverTime { input_len: None }
    }
}

impl Layer for MeanOverTime {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        let [b, time, feat] = match *input.dims() {
            [b, time, feat] if time > 0 => [b, time, feat],
            _ => {
                return Err(NnError::InvalidConfig(format!(
                    "mean over time expects [batch, time > 0, feat], got {:?}",
                    input.dims()
                )))
            }
        };
        // The checkout is zero-filled, so each sum starts from zero and
        // adds the steps in time order.
        let mut out = ws.checkout(&[b, feat]);
        let od = out.data_mut();
        let id = input.data();
        for n in 0..b {
            for t in 0..time {
                let src = (n * time + t) * feat;
                for k in 0..feat {
                    od[n * feat + k] += id[src + k];
                }
            }
        }
        let inv_t = 1.0 / time as f32;
        for v in od.iter_mut() {
            *v *= inv_t;
        }
        if mode == Mode::Train {
            self.input_len = Some((b, time));
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (b, time) = self.input_len.ok_or(NnError::NoForwardCache {
            layer: "MeanOverTime",
        })?;
        let feat = grad_out.len() / b.max(1);
        if grad_out.dims() != [b, feat] {
            return Err(NnError::Tensor(darnet_tensor::TensorError::ShapeMismatch {
                left: grad_out.dims().to_vec(),
                right: vec![b, feat],
            }));
        }
        let mut grad_in = Tensor::zeros(&[b, time, feat]);
        let gi = grad_in.data_mut();
        let go = grad_out.data();
        let inv_t = 1.0 / time as f32;
        for n in 0..b {
            for t in 0..time {
                let dst = (n * time + t) * feat;
                for k in 0..feat {
                    gi[dst + k] = go[n * feat + k] * inv_t;
                }
            }
        }
        Ok(grad_in)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "MeanOverTime"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_layer_forward_backward() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[4.0]);
        let g = pool.backward(&Tensor::ones(&[1, 1, 1, 1])).unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn an_eval_call_leaves_the_train_cache_untouched() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let train_buf = |p: &MaxPool2d| p.cache.as_ref().map(|(arg, _)| arg.as_ptr());
        pool.forward(&x, Mode::Train).unwrap();
        let (first, winners) = (train_buf(&pool), pool.cache.clone());
        // A different winner in every window, on a larger input.
        let other =
            Tensor::from_vec((0..36).map(|v| -(v as f32)).collect(), &[1, 1, 6, 6]).unwrap();
        pool.forward(&other, Mode::Eval).unwrap();
        assert_eq!(pool.cache, winners);
        assert_eq!(train_buf(&pool), first);
        let g = pool.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert_eq!(g.dims(), x.dims());
        // A second Train call reuses the cache's buffer.
        pool.forward(&x, Mode::Train).unwrap();
        assert_eq!(train_buf(&pool), first);
    }

    #[test]
    fn avg_pool_layer_gradcheck() {
        let mut pool = AvgPool2d::new(2, 1);
        let x = Tensor::from_vec((0..9).map(|v| v as f32 * 0.3).collect(), &[1, 1, 3, 3]).unwrap();
        let y = pool.forward(&x, Mode::Train).unwrap();
        let dx = pool.backward(&Tensor::ones(y.dims())).unwrap();
        let eps = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = pool.forward(&xp, Mode::Eval).unwrap().sum();
            let fm = pool.forward(&xm, Mode::Eval).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_without_forward_fails() {
        let mut pool = MaxPool2d::new(2, 2);
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn mean_over_time_averages_steps_and_spreads_the_gradient() {
        let mut pool = MeanOverTime::new();
        let x = Tensor::from_vec(vec![1.0, 10.0, 3.0, 30.0, 2.0, 20.0], &[1, 3, 2]).unwrap();
        let y = pool.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[2.0, 20.0]);
        let g = pool
            .backward(&Tensor::from_vec(vec![3.0, 6.0], &[1, 2]).unwrap())
            .unwrap();
        assert_eq!(g.dims(), x.dims());
        assert_eq!(g.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        for dims in [&[2, 0, 3][..], &[2, 3]] {
            let got = pool.forward(&Tensor::zeros(dims), Mode::Eval);
            assert!(matches!(got, Err(NnError::InvalidConfig(_))), "{dims:?}");
        }
        assert!(MeanOverTime::new()
            .backward(&Tensor::zeros(&[1, 2]))
            .is_err());
    }
}
