//! Inverted dropout.
#![expect(clippy::disallowed_methods, reason = "randomness owner: dropout masks")]

use darnet_tensor::{SplitMix64, Tensor, TensorView, Workspace};

use crate::error::NnError;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::Result;

/// Inverted dropout: during training, zeroes each activation with
/// probability `p` and scales survivors by `1/(1-p)`; at evaluation time it
/// is the identity.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: SplitMix64,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` in `[0, 1)` and a
    /// deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        Dropout {
            p,
            rng: SplitMix64::new(seed),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        let mut out = ws.checkout(input.dims());
        if mode == Mode::Eval {
            input.copy_into(&mut out)?;
            return Ok(out);
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        // Reuse the previous step's mask buffer when the batch shape is
        // unchanged; every element is overwritten below.
        let mut mask = match self.mask.take() {
            Some(m) if m.dims() == input.dims() => m,
            _ => ws.checkout(input.dims()),
        };
        for ((o, m), &x) in out
            .data_mut()
            .iter_mut()
            .zip(mask.data_mut())
            .zip(input.data())
        {
            *m = if self.rng.next_f32() < keep {
                scale
            } else {
                0.0
            };
            *o = x * *m;
        }
        self.mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "Dropout" })?;
        Ok(grad_out.mul(mask)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let y = d.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(&x, Mode::Train).unwrap();
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[100]);
        let y = d.forward(&x, Mode::Train).unwrap();
        let g = d.backward(&Tensor::ones(&[100])).unwrap();
        // Gradient is nonzero exactly where the output was nonzero.
        for (gy, yy) in g.data().iter().zip(y.data()) {
            assert_eq!(*gy == 0.0, *yy == 0.0);
        }
    }

    #[test]
    fn zero_probability_keeps_everything() {
        let mut d = Dropout::new(0.0, 4);
        let x = Tensor::from_slice(&[5.0, -5.0]);
        let y = d.forward(&x, Mode::Train).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    #[should_panic(expected = "dropout p must be in [0, 1)")]
    fn invalid_probability_panics() {
        let _ = Dropout::new(1.0, 5);
    }
}
