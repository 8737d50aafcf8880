//! Optimizers: SGD with momentum/weight decay and Adam.

use crate::error::NnError;
use crate::param::Param;
use crate::Result;

/// A gradient-descent optimizer that updates [`Param`]s in place from their
/// accumulated gradients, then clears the gradients.
pub trait Optimizer {
    /// Applies one update step to every parameter and zeroes the gradients.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Diverged`] if a parameter became non-finite.
    fn step(&mut self, params: &mut [&mut Param]) -> Result<()>;

    /// Sets the learning rate of the steps that follow.
    fn set_lr(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional momentum and L2 weight decay —
/// the optimizer the paper uses for both supervised training and dCNN
/// distillation.
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
    /// Gradient-norm clip threshold (0 disables clipping). Applied per
    /// parameter, which is sufficient to keep LSTM training stable.
    pub clip_norm: f32,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            clip_norm: 0.0,
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay: 0.0,
            clip_norm: 0.0,
        }
    }

    /// Sets L2 weight decay, returning the modified optimizer.
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Sets per-parameter gradient-norm clipping, returning the modified
    /// optimizer.
    pub fn clip_norm(mut self, clip: f32) -> Self {
        self.clip_norm = clip;
        self
    }
}

impl Optimizer for Sgd {
    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn step(&mut self, params: &mut [&mut Param]) -> Result<()> {
        for p in params.iter_mut() {
            let mut scale = 1.0f32;
            if self.clip_norm > 0.0 {
                let norm = p.grad.norm();
                if norm > self.clip_norm {
                    scale = self.clip_norm / norm;
                }
            }
            if self.momentum > 0.0 {
                p.ensure_state(1);
                let grad = &p.grad;
                let wd = self.weight_decay;
                let value_snapshot = p.value.clone();
                let vel = &mut p.state[0];
                for ((v, &g), &w) in vel
                    .data_mut()
                    .iter_mut()
                    .zip(grad.data())
                    .zip(value_snapshot.data())
                {
                    *v = self.momentum * *v + scale * g + wd * w;
                }
                let vel_snapshot = p.state[0].clone();
                p.value.axpy(-self.lr, &vel_snapshot)?;
            } else {
                let wd = self.weight_decay;
                let lr = self.lr;
                let grad_snapshot = p.grad.clone();
                for (w, &g) in p.value.data_mut().iter_mut().zip(grad_snapshot.data()) {
                    *w -= lr * (scale * g + wd * *w);
                }
            }
            if !p.value.all_finite() {
                return Err(NnError::Diverged("parameter became non-finite".into()));
            }
            p.zero_grad();
        }
        Ok(())
    }
}

/// Adam optimizer (Kingma & Ba). Used in this reproduction for the LSTM,
/// which SGD trains noticeably slower.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    t: u64,
}

impl Adam {
    /// Adam with standard hyperparameters (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
        }
    }

    /// Sets L2 weight decay, returning the modified optimizer.
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Adam {
    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn step(&mut self, params: &mut [&mut Param]) -> Result<()> {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in params.iter_mut() {
            p.ensure_state(2);
            let grad = p.grad.clone();
            let wd = self.weight_decay;
            let value_snapshot = p.value.clone();
            {
                let m = &mut p.state[0];
                for ((m_i, &g), &w) in m
                    .data_mut()
                    .iter_mut()
                    .zip(grad.data())
                    .zip(value_snapshot.data())
                {
                    *m_i = self.beta1 * *m_i + (1.0 - self.beta1) * (g + wd * w);
                }
            }
            {
                let v = &mut p.state[1];
                for ((v_i, &g), &w) in v
                    .data_mut()
                    .iter_mut()
                    .zip(grad.data())
                    .zip(value_snapshot.data())
                {
                    let ge = g + wd * w;
                    *v_i = self.beta2 * *v_i + (1.0 - self.beta2) * ge * ge;
                }
            }
            let m = p.state[0].clone();
            let v = p.state[1].clone();
            for ((w, &m_i), &v_i) in p.value.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let m_hat = m_i / bc1;
                let v_hat = v_i / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            if !p.value.all_finite() {
                return Err(NnError::Diverged("parameter became non-finite".into()));
            }
            p.zero_grad();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darnet_tensor::Tensor;

    fn quadratic_grad(p: &Param) -> Tensor {
        // d/dw of 0.5 * ||w - 3||^2 = w - 3
        p.value.map(|v| v - 3.0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = Param::new(Tensor::zeros(&[4]));
        let mut opt = Sgd::new(0.2);
        for _ in 0..100 {
            p.grad = quadratic_grad(&p);
            opt.step(&mut [&mut p]).unwrap();
        }
        for &w in p.value.data() {
            assert!((w - 3.0).abs() < 1e-3, "w = {w}");
        }
    }

    #[test]
    fn sgd_with_momentum_converges_faster_than_plain() {
        let run = |mom: f32| -> f32 {
            let mut p = Param::new(Tensor::zeros(&[1]));
            let mut opt = Sgd::with_momentum(0.05, mom);
            for _ in 0..30 {
                p.grad = quadratic_grad(&p);
                opt.step(&mut [&mut p]).unwrap();
            }
            (p.value.data()[0] - 3.0).abs()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Param::new(Tensor::zeros(&[3]));
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            p.grad = quadratic_grad(&p);
            opt.step(&mut [&mut p]).unwrap();
        }
        for &w in p.value.data() {
            assert!((w - 3.0).abs() < 1e-2, "w = {w}");
        }
    }

    #[test]
    fn weight_decay_shrinks_weights_with_zero_gradient() {
        let mut p = Param::new(Tensor::full(&[2], 10.0));
        let mut opt = Sgd::new(0.1).weight_decay(0.5);
        opt.step(&mut [&mut p]).unwrap();
        // w -= lr * wd * w  →  10 - 0.1*0.5*10 = 9.5
        assert!((p.value.data()[0] - 9.5).abs() < 1e-6);
    }

    #[test]
    fn clip_norm_bounds_update_magnitude() {
        let mut p = Param::new(Tensor::zeros(&[1]));
        p.grad = Tensor::full(&[1], 1000.0);
        let mut opt = Sgd::new(1.0).clip_norm(1.0);
        opt.step(&mut [&mut p]).unwrap();
        assert!((p.value.data()[0] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.grad = Tensor::ones(&[2]);
        Sgd::new(0.1).step(&mut [&mut p]).unwrap();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn divergence_is_detected() {
        let mut p = Param::new(Tensor::ones(&[1]));
        p.grad = Tensor::full(&[1], f32::INFINITY);
        assert!(matches!(
            Sgd::new(1.0).step(&mut [&mut p]),
            Err(NnError::Diverged(_))
        ));
    }
}
