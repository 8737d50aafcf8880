//! Fully connected (dense) layer.

use darnet_tensor::{
    matmul_transpose_b_slices_into, xavier_uniform, SplitMix64, Tensor, TensorView, Workspace,
};

use crate::error::NnError;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::Result;

/// A fully connected layer: `y = x · Wᵀ + b` over `[batch, in]` inputs.
///
/// Weights are `[out, in]` (row per output unit) initialized with Xavier
/// uniform; biases start at zero.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a dense layer mapping `in_features` to `out_features`.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SplitMix64) -> Self {
        let weight = xavier_uniform(&[out_features, in_features], in_features, out_features, rng);
        Dense::with_weight(weight)
    }

    /// A dense layer with the given `[out, in]` weight and a zero bias. A
    /// weight of another rank is read as one input column, `[len, 1]`.
    pub fn with_weight(weight: Tensor) -> Self {
        let (out_features, in_features) = match *weight.dims() {
            [out, inp] => (out, inp),
            _ => (weight.len(), 1),
        };
        Dense {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_features])),
            input: None,
            in_features,
            out_features,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Read access to the weight parameter (for inspection/serialization).
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Layer for Dense {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::InvalidConfig(format!(
                "dense expects [batch, {}], got {:?}",
                self.in_features,
                input.dims()
            )));
        }
        if mode == Mode::Train {
            self.input = Some(input.clone());
        }
        let (batch, k, n) = (input.dims()[0], self.in_features, self.out_features);
        let mut out = ws.checkout(&[batch, n]);
        matmul_transpose_b_slices_into(
            input.data(),
            self.weight.value.data(),
            (batch, k, n),
            None,
            out.data_mut(),
        )?;
        out.add_row_broadcast_assign(&self.bias.value)?;
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let input = self
            .input
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "Dense" })?;
        // dW [out, in] = grad_outᵀ [out, batch] × input [batch, in]
        let dw = grad_out.matmul_transpose_a(input)?;
        self.weight.grad.add_assign(&dw)?;
        // db = column sums of grad_out
        let db = grad_out.sum_axis0()?;
        self.bias.grad.add_assign(&db)?;
        // dx [batch, in] = grad_out [batch, out] × W [out, in]
        Ok(grad_out.matmul(&self.weight.value)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]
mod tests {
    use super::*;

    /// Numerical gradient check on a scalar loss L = sum(y).
    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut rng = SplitMix64::new(42);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7], &[2, 3]).unwrap();

        // Analytic gradients with dL/dy = 1.
        let _ = layer.forward(&x, Mode::Train).unwrap();
        let ones = Tensor::ones(&[2, 2]);
        let dx = layer.backward(&ones).unwrap();

        let eps = 1e-2f32;
        // Check input gradient.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = layer.forward(&xp, Mode::Eval).unwrap().sum();
            let ym = layer.forward(&xm, Mode::Eval).unwrap().sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 1e-2,
                "input grad {i}: fd {fd} vs {}",
                dx.data()[i]
            );
        }
        // Check weight gradient.
        let wgrad = layer.weight.grad.clone();
        for i in 0..layer.weight.value.len() {
            let orig = layer.weight.value.data()[i];
            layer.weight.value.data_mut()[i] = orig + eps;
            let yp = layer.forward(&x, Mode::Eval).unwrap().sum();
            layer.weight.value.data_mut()[i] = orig - eps;
            let ym = layer.forward(&x, Mode::Eval).unwrap().sum();
            layer.weight.value.data_mut()[i] = orig;
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - wgrad.data()[i]).abs() < 1e-2,
                "weight grad {i}: fd {fd} vs {}",
                wgrad.data()[i]
            );
        }
    }

    #[test]
    fn forward_shape_is_batch_by_out() {
        let mut rng = SplitMix64::new(1);
        let mut layer = Dense::new(5, 7, &mut rng);
        let y = layer.forward(&Tensor::zeros(&[3, 5]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[3, 7]);
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut rng = SplitMix64::new(1);
        let mut layer = Dense::new(5, 7, &mut rng);
        assert!(layer.forward(&Tensor::zeros(&[3, 4]), Mode::Eval).is_err());
    }

    #[test]
    fn bias_is_applied() {
        let mut rng = SplitMix64::new(1);
        let mut layer = Dense::new(2, 2, &mut rng);
        layer.bias.value = Tensor::from_slice(&[1.0, -1.0]);
        let y = layer.forward(&Tensor::zeros(&[1, 2]), Mode::Eval).unwrap();
        assert_eq!(y.data(), &[1.0, -1.0]);
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let mut rng = SplitMix64::new(2);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&Tensor::ones(&[1, 2])).unwrap();
        let g1 = layer.weight.grad.clone();
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&Tensor::ones(&[1, 2])).unwrap();
        let g2 = layer.weight.grad.clone();
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((b - 2.0 * a).abs() < 1e-6);
        }
    }

    #[test]
    fn with_weight_keeps_the_weight_and_zeroes_the_bias() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let mut layer = Dense::with_weight(w.clone());
        assert_eq!((layer.in_features(), layer.out_features()), (2, 3));
        assert_eq!(layer.weight().value, w);
        let y = layer.forward(&Tensor::ones(&[1, 2]), Mode::Eval).unwrap();
        assert_eq!(y.data(), &[3.0, 7.0, 11.0]);
    }

    #[test]
    fn param_count_is_weights_plus_biases() {
        let mut rng = SplitMix64::new(4);
        let mut layer = Dense::new(10, 4, &mut rng);
        assert_eq!(layer.param_count(), 10 * 4 + 4);
    }
}
