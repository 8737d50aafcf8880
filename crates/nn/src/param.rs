//! Trainable parameters: a value tensor paired with its gradient and
//! optimizer state slots.

use darnet_tensor::Tensor;

/// A trainable parameter.
///
/// Layers own their `Param`s; the backward pass *accumulates* into
/// [`Param::grad`], and an [`Optimizer`](crate::Optimizer) consumes the
/// gradient and updates the value. Optimizer state (momentum / Adam moments)
/// is stored on the parameter itself so that optimizers stay stateless with
/// respect to parameter identity.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// Optimizer state slots (e.g. momentum buffer, Adam first/second
    /// moments), lazily initialized by the optimizer.
    pub state: Vec<Tensor>,
}

impl Param {
    /// Wraps a value tensor as a parameter with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param {
            value,
            grad,
            state: Vec::new(),
        }
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }

    /// Number of scalar weights in this parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Ensures `n` optimizer state slots of the parameter's shape exist.
    pub fn ensure_state(&mut self, n: usize) {
        while self.state.len() < n {
            self.state.push(Tensor::zeros(self.value.dims()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_of_same_shape() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.dims(), &[2, 3]);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut p = Param::new(Tensor::ones(&[4]));
        p.grad = Tensor::full(&[4], 3.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn ensure_state_is_idempotent() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.ensure_state(2);
        assert_eq!(p.state.len(), 2);
        p.ensure_state(1);
        assert_eq!(p.state.len(), 2);
        assert_eq!(p.state[0].dims(), &[2]);
    }
}
