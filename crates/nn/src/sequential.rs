//! A sequential container of boxed layers.

use darnet_tensor::{Tensor, TensorView, Workspace};

use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::Result;

/// A feed-forward stack of layers executed in order.
///
/// `Sequential` is itself a [`Layer`], so blocks can nest.
///
/// ```
/// use darnet_nn::{Dense, Layer, Mode, Relu, Sequential};
/// use darnet_tensor::{SplitMix64, Tensor};
///
/// let mut rng = SplitMix64::new(1);
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 4, &mut rng));
/// net.push(Relu::new());
/// let y = net.forward(&Tensor::zeros(&[1, 4]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[1, 4]);
/// # Ok::<(), darnet_nn::NnError>(())
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer to the stack.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Removes and returns the last layer, `None` when the stack is empty.
    pub fn pop(&mut self) -> Option<Box<dyn Layer>> {
        self.layers.pop()
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names in order, for diagnostics.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layer_names())
            .finish()
    }
}

impl Layer for Sequential {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        // The first layer reads the caller's input directly; copying it up
        // front would be wasted work on every forward pass.
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            let mut out = ws.checkout(input.dims());
            input.copy_into(&mut out)?;
            return Ok(out);
        };
        let mut x = first.forward_into(input, mode, ws)?;
        for layer in layers {
            let y = layer.forward_into(&x, mode, ws)?;
            ws.restore(x);
            x = y;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        // The last layer reads the caller's gradient directly, as the
        // first layer reads its input in `forward_into`.
        let mut layers = self.layers.iter_mut().rev();
        let Some(last) = layers.next() else {
            return Ok(grad_out.clone());
        };
        let mut g = last.backward(grad_out)?;
        for layer in layers {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::Relu;
    use crate::loss::softmax_cross_entropy;
    use crate::optim::{Optimizer, Sgd};
    use darnet_tensor::SplitMix64;

    #[test]
    fn forward_composes_layers_in_order() {
        let mut rng = SplitMix64::new(1);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 5, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(5, 2, &mut rng));
        assert_eq!(net.len(), 3);
        let y = net.forward(&Tensor::zeros(&[4, 3]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        assert_eq!(net.layer_names(), vec!["Dense", "Relu", "Dense"]);
    }

    #[test]
    fn mlp_learns_xor() {
        // The classic non-linearly-separable sanity check: a 2-layer MLP
        // must drive XOR loss close to zero.
        let mut rng = SplitMix64::new(1234);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 8, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(8, 2, &mut rng));

        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]).unwrap();
        let labels = [0usize, 1, 1, 0];
        let mut opt = Sgd::with_momentum(0.5, 0.9);
        let mut last_loss = f32::INFINITY;
        for _ in 0..400 {
            let logits = net.forward(&x, Mode::Train).unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
            net.backward(&grad).unwrap();
            opt.step(&mut net.params_mut()).unwrap();
            last_loss = loss;
        }
        assert!(last_loss < 0.05, "XOR loss did not converge: {last_loss}");
        let logits = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(logits.argmax_rows().unwrap(), vec![0, 1, 1, 0]);
    }

    #[test]
    fn params_aggregates_all_layers() {
        let mut rng = SplitMix64::new(2);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        net.push(Dense::new(2, 2, &mut rng));
        assert_eq!(net.params_mut().len(), 4);
    }

    #[test]
    fn pop_removes_the_last_layer() {
        let mut rng = SplitMix64::new(3);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng));
        net.push(Relu::new());
        assert_eq!(net.pop().map(|l| l.name()), Some("Relu"));
        assert_eq!(net.layer_names(), vec!["Dense"]);
        net.pop();
        assert!(net.pop().is_none());
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        assert!(net.is_empty());
        let x = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(net.forward(&x, Mode::Eval).unwrap(), x);
        assert_eq!(net.backward(&x).unwrap(), x);
    }
}
