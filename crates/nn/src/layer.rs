//! The [`Layer`] trait and simple stateless layers (activations, flatten).

use darnet_tensor::{Tensor, TensorView, Workspace};

use crate::error::NnError;
use crate::param::Param;
use crate::Result;

/// Whether a forward pass is part of training (dropout active, caches
/// retained for backward) or inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: stochastic layers are active and activations are cached.
    Train,
    /// Inference: deterministic, no gradient bookkeeping required.
    Eval,
}

/// A differentiable network layer.
///
/// Each layer has one forward body, [`Layer::forward_into`]. In
/// [`Mode::Train`] it also keeps whatever [`Layer::backward`] needs, which
/// receives `dL/d(output)` and must return `dL/d(input)` while
/// *accumulating* parameter gradients into the layer's [`Param`]s.
///
/// Layers are `Send` so a whole model can be borrowed by a scoped worker
/// thread when an engine runs its streams concurrently.
pub trait Layer: Send {
    /// Computes the layer output for `input` as an owned tensor: runs
    /// [`Layer::forward_into`] on a fresh, empty [`Workspace`], so nothing
    /// the call touches was used by an earlier one.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.forward_into(input, mode, &mut Workspace::new())
    }

    /// Computes the layer output into a buffer checked out from `ws`,
    /// avoiding heap allocation in [`Mode::Eval`] once the workspace is
    /// warm.
    ///
    /// Callers should hand the returned [`TensorView`] back via
    /// [`Workspace::restore`] when done so the buffer is reused; keeping it
    /// is fine too (it is an ordinary owned tensor). The caller's `input`
    /// is never consumed. In [`Mode::Train`] the same body runs, and the
    /// buffers `backward` will read (im2col patches, masks, argmax
    /// indices, gate activations) move into the layer's cache instead of
    /// going back to the pool, so a training step allocates what it keeps.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView>;

    /// Backpropagates `grad_out = dL/d(output)`, accumulating parameter
    /// gradients, and returns `dL/d(input)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if called before `forward`, or a
    /// tensor error on shape mismatch.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Mutable references to the layer's trainable parameters (empty for
    /// stateless layers).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Short human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Total number of scalar trainable weights.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
}

// ---------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------

/// Rectified linear unit: `max(0, x)` elementwise.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    // darlint: hot
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        if mode == Mode::Train {
            let mask = self.mask.get_or_insert_with(Vec::new);
            mask.clear();
            mask.extend(input.data().iter().map(|&v| v > 0.0));
        }
        let mut out = ws.checkout(input.dims());
        input.map_into(|v| v.max(0.0), &mut out)?;
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "Relu" })?;
        if mask.len() != grad_out.len() {
            return Err(NnError::Tensor(
                darnet_tensor::TensorError::InvalidArgument("relu backward shape mismatch".into()),
            ));
        }
        let mut g = grad_out.clone();
        for (v, &keep) in g.data_mut().iter_mut().zip(mask) {
            if !keep {
                *v = 0.0;
            }
        }
        Ok(g)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "Relu"
    }
}

// ---------------------------------------------------------------------
// Sigmoid
// ---------------------------------------------------------------------

/// Logistic sigmoid activation.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid { output: None }
    }
}

/// The dims of a `[batch, c, h, w]` input, or `layer`'s typed rank error.
pub(crate) fn rank4_dims(input: &Tensor, layer: &str) -> Result<[usize; 4]> {
    match *input.dims() {
        [b, c, h, w] => Ok([b, c, h, w]),
        _ => Err(NnError::InvalidConfig(format!(
            "{layer} expects [batch, c, h, w], got {:?}",
            input.dims()
        ))),
    }
}

/// Numerically stable scalar sigmoid.
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl Layer for Sigmoid {
    // darlint: hot
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        let mut out = ws.checkout(input.dims());
        input.map_into(sigmoid_scalar, &mut out)?;
        if mode == Mode::Train {
            self.output = Some(out.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let out = self
            .output
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "Sigmoid" })?;
        Ok(grad_out.zip(out, |g, y| g * y * (1.0 - y))?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }
}

// ---------------------------------------------------------------------
// Tanh
// ---------------------------------------------------------------------

/// Hyperbolic tangent activation.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh { output: None }
    }
}

impl Layer for Tanh {
    // darlint: hot
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        let mut out = ws.checkout(input.dims());
        input.map_into(f32::tanh, &mut out)?;
        if mode == Mode::Train {
            self.output = Some(out.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let out = self
            .output
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "Tanh" })?;
        Ok(grad_out.zip(out, |g, y| g * (1.0 - y * y))?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "Tanh"
    }
}

// ---------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------

/// Flattens `[batch, ...]` to `[batch, features]`, remembering the original
/// shape for backward.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { input_dims: None }
    }
}

impl Layer for Flatten {
    // darlint: hot
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        if input.rank() < 1 {
            return Err(NnError::InvalidConfig("flatten needs rank >= 1".into()));
        }
        if mode == Mode::Train {
            let dims = self.input_dims.get_or_insert_with(Vec::new);
            dims.clear();
            dims.extend_from_slice(input.dims());
        }
        let batch = input.dims()[0];
        let feats = input.len() / batch.max(1);
        let mut out = ws.checkout(&[batch, feats]);
        out.data_mut().copy_from_slice(input.data());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims = self
            .input_dims
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "Flatten" })?;
        Ok(grad_out.reshape(dims)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darnet_tensor::Tensor;

    #[test]
    fn relu_zeroes_negatives_and_gates_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 2.0, 0.0, 3.0]);
        let y = relu.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 3.0]);
        let g = relu.backward(&Tensor::ones(&[4])).unwrap();
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_backward_without_forward_errors() {
        let mut relu = Relu::new();
        assert!(matches!(
            relu.backward(&Tensor::ones(&[1])),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn sigmoid_matches_definition_and_derivative() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_slice(&[0.0]);
        let y = s.forward(&x, Mode::Train).unwrap();
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        let g = s.backward(&Tensor::ones(&[1])).unwrap();
        assert!((g.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        let y = sigmoid_scalar(-100.0);
        assert!((0.0..1e-6).contains(&y));
        let y2 = sigmoid_scalar(100.0);
        assert!(y2 <= 1.0 && y2 > 1.0 - 1e-6);
    }

    #[test]
    fn tanh_derivative_at_zero_is_one() {
        let mut t = Tanh::new();
        let x = Tensor::from_slice(&[0.0]);
        t.forward(&x, Mode::Train).unwrap();
        let g = t.backward(&Tensor::ones(&[1])).unwrap();
        assert!((g.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn flatten_roundtrips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = f.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 60]);
        let g = f.backward(&Tensor::zeros(&[2, 60])).unwrap();
        assert_eq!(g.dims(), &[2, 3, 4, 5]);
    }

    #[test]
    fn stateless_layers_report_no_params() {
        assert_eq!(Relu::new().params_mut().len(), 0);
        assert_eq!(Flatten::new().params_mut().len(), 0);
        assert_eq!(Relu::new().param_count(), 0);
    }
}
