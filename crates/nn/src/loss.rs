//! Loss functions: softmax cross-entropy for classification and the L2
//! distillation loss used to train the privacy-preserving dCNN students.

use darnet_tensor::Tensor;

use crate::error::NnError;
use crate::Result;

/// Row-wise numerically stable softmax of a `[batch, classes]` tensor.
///
/// # Errors
///
/// Returns an error if `logits` is not rank 2.
pub fn softmax(logits: &Tensor) -> Result<Tensor> {
    let mut out = logits.clone();
    softmax_inplace(&mut out)?;
    Ok(out)
}

/// Row-wise softmax of a `[batch, classes]` tensor, overwriting the
/// logits in place. Bitwise-identical to [`softmax`] (they share the row
/// kernel); the workspace-backed inference path uses this to normalize a
/// checked-out logits buffer without allocating.
///
/// # Errors
///
/// Returns an error if `logits` is not rank 2.
pub fn softmax_inplace(logits: &mut Tensor) -> Result<()> {
    if logits.rank() != 2 {
        return Err(NnError::Tensor(darnet_tensor::TensorError::RankMismatch {
            expected: 2,
            actual: logits.rank(),
        }));
    }
    let (b, c) = (logits.dims()[0], logits.dims()[1]);
    let data = logits.data_mut();
    for i in 0..b {
        let row = &mut data[i * c..(i + 1) * c];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    Ok(())
}

/// Softmax cross-entropy over a batch. Returns `(mean_loss,
/// grad_wrt_logits)` where the gradient is already divided by the batch
/// size, ready to feed into `backward`.
///
/// # Errors
///
/// Returns [`NnError::LabelBatchMismatch`] or [`NnError::LabelOutOfRange`]
/// on label problems, or a tensor error if `logits` is not rank 2.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    if logits.rank() != 2 {
        return Err(NnError::Tensor(darnet_tensor::TensorError::RankMismatch {
            expected: 2,
            actual: logits.rank(),
        }));
    }
    let (b, c) = (logits.dims()[0], logits.dims()[1]);
    if labels.len() != b {
        return Err(NnError::LabelBatchMismatch {
            batch: b,
            labels: labels.len(),
        });
    }
    for &l in labels {
        if l >= c {
            return Err(NnError::LabelOutOfRange {
                label: l,
                classes: c,
            });
        }
    }
    let probs = softmax(logits)?;
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    let gd = grad.data_mut();
    let inv_b = 1.0 / b as f32;
    for (i, &label) in labels.iter().enumerate() {
        let p = probs.data()[i * c + label].max(1e-12);
        loss -= p.ln();
        gd[i * c + label] -= 1.0;
    }
    for v in gd.iter_mut() {
        *v *= inv_b;
    }
    Ok((loss * inv_b, grad))
}

/// L2 distillation loss between a student's and a teacher's output vectors:
/// `mean over batch of ||student - teacher||²`, with gradient with respect
/// to the student output. This is the loss the paper uses to train the
/// down-sampled dCNN models without labels (§4.3).
///
/// # Errors
///
/// Returns a tensor error if the shapes differ.
pub fn l2_distill_loss(student: &Tensor, teacher: &Tensor) -> Result<(f32, Tensor)> {
    let diff = student.sub(teacher)?;
    let b = if student.rank() >= 1 {
        student.dims()[0].max(1)
    } else {
        1
    };
    let inv_b = 1.0 / b as f32;
    let loss = diff.sum_squares() * inv_b;
    let grad = diff.scale(2.0 * inv_b);
    Ok((loss, grad))
}

/// `1 / T` of a softened softmax, with `T` held at `1e-3` or more.
fn inv_temperature(temperature: f32) -> f32 {
    1.0 / temperature.max(1e-3)
}

/// Soft targets: the row-wise softmax of `logits / temperature`.
///
/// # Errors
///
/// Returns an error if `logits` is not rank 2.
pub fn soft_targets(logits: &Tensor, temperature: f32) -> Result<Tensor> {
    softmax(&logits.scale(inv_temperature(temperature)))
}

/// Distillation on softened outputs (§4.3 with a temperature): the
/// [`l2_distill_loss`] between the student's [`soft_targets`] and the
/// teacher's `targets`, bounded vectors that keep training stable however
/// confident the teacher is. Returns `(loss, grad_wrt_logits)`: back
/// through the softmax, `dL/dz_i = p_i (g_i − Σ_j g_j p_j)` per row, then
/// through `z / T` with the conventional `T²` compensation, so that the
/// gradient's magnitude is temperature-independent to first order.
///
/// # Errors
///
/// Returns an error if `logits` is not rank 2 or `targets` has another
/// shape.
pub fn soft_target_loss(
    logits: &Tensor,
    targets: &Tensor,
    temperature: f32,
) -> Result<(f32, Tensor)> {
    let p = soft_targets(logits, temperature)?;
    let (loss, gprob) = l2_distill_loss(&p, targets)?;
    let c = p.dims()[1];
    let mut grad = p.clone();
    let rows = grad.data_mut().chunks_mut(c).zip(p.data().chunks(c));
    for ((g, prow), grow) in rows.zip(gprob.data().chunks(c)) {
        let dot: f32 = prow.iter().zip(grow).map(|(&pi, &gi)| pi * gi).sum();
        for ((g, &pi), &gi) in g.iter_mut().zip(prow).zip(grow) {
            *g = pi * (gi - dot);
        }
    }
    let inv_t = inv_temperature(temperature);
    Ok((loss, grad.scale(inv_t * temperature * temperature)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let p = softmax(&logits).unwrap();
        for i in 0..2 {
            let s: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(p.data().iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let b = a.map(|v| v + 1000.0);
        let pa = softmax(&a).unwrap();
        let pb = softmax(&b).unwrap();
        for (x, y) in pa.data().iter().zip(pb.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        assert!(pb.all_finite());
    }

    #[test]
    fn cross_entropy_on_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(vec![100.0, 0.0, 0.0], &[1, 3]).unwrap();
        let (loss, _) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss < 1e-5);
    }

    #[test]
    fn cross_entropy_uniform_is_log_c() {
        let logits = Tensor::zeros(&[1, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[2]).unwrap();
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.1, 0.2, 0.9, -0.4], &[2, 3]).unwrap();
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus.data_mut()[i] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[i] -= eps;
            let (lp, _) = softmax_cross_entropy(&plus, &labels).unwrap();
            let (lm, _) = softmax_cross_entropy(&minus, &labels).unwrap();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.data()[i]).abs() < 1e-3,
                "index {i}: fd {fd} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn cross_entropy_validates_labels() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            softmax_cross_entropy(&logits, &[0]),
            Err(NnError::LabelBatchMismatch { .. })
        ));
        assert!(matches!(
            softmax_cross_entropy(&logits, &[0, 3]),
            Err(NnError::LabelOutOfRange { .. })
        ));
    }

    #[test]
    fn distill_loss_zero_when_matching() {
        let t = Tensor::from_vec(vec![0.25; 8], &[2, 4]).unwrap();
        let (loss, grad) = l2_distill_loss(&t, &t).unwrap();
        assert_eq!(loss, 0.0);
        assert_eq!(grad.sum(), 0.0);
    }

    #[test]
    fn distill_gradient_matches_finite_difference() {
        let student = Tensor::from_vec(vec![0.1, 0.4, -0.2, 0.8], &[2, 2]).unwrap();
        let teacher = Tensor::from_vec(vec![0.0, 0.5, 0.5, 0.0], &[2, 2]).unwrap();
        let (_, grad) = l2_distill_loss(&student, &teacher).unwrap();
        let eps = 1e-3;
        for i in 0..student.len() {
            let mut plus = student.clone();
            plus.data_mut()[i] += eps;
            let mut minus = student.clone();
            minus.data_mut()[i] -= eps;
            let (lp, _) = l2_distill_loss(&plus, &teacher).unwrap();
            let (lm, _) = l2_distill_loss(&minus, &teacher).unwrap();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - grad.data()[i]).abs() < 1e-2);
        }
    }

    /// The soft-target gradient is the loss's derivative in the logits,
    /// times the `T²` compensation.
    #[test]
    fn soft_target_gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.1, 0.2, 0.9, -0.4], &[2, 3]).unwrap();
        let teacher = Tensor::from_vec(vec![1.5, 0.1, -0.3, -1.0, 0.4, 2.0], &[2, 3]).unwrap();
        for temperature in [1.0f32, 2.0] {
            let targets = soft_targets(&teacher, temperature).unwrap();
            let loss = |z: &Tensor| soft_target_loss(z, &targets, temperature).unwrap().0;
            let (_, grad) = soft_target_loss(&logits, &targets, temperature).unwrap();
            let eps = 1e-2;
            for i in 0..logits.len() {
                let (mut plus, mut minus) = (logits.clone(), logits.clone());
                plus.data_mut()[i] += eps;
                minus.data_mut()[i] -= eps;
                let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                let want = fd * temperature * temperature;
                assert!(
                    (want - grad.data()[i]).abs() < 2e-3,
                    "T {temperature}, index {i}: {want} vs analytic {}",
                    grad.data()[i]
                );
            }
        }
    }
}
