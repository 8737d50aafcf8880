//! The one training loop: shuffled minibatches over a network's
//! [`Sequential`], on class labels (the frame CNN and the IMU BiLSTM,
//! paper §4.2) or on a teacher's soft targets (each dCNN student, §4.3).

use darnet_nn::{soft_target_loss, softmax_cross_entropy, Layer, Mode, Optimizer, Sequential};
use darnet_tensor::{SplitMix64, Tensor};

use crate::{CoreError, Result};

/// The per-epoch rate decay of the SGD fits, the CNN's and distillation's.
pub(crate) const SGD_DECAY: f32 = 0.3;

/// What each row's logits are scored against: a class label, by softmax
/// cross-entropy, or a teacher's `[n, classes]` probabilities at
/// `temperature` (`darnet_nn::soft_targets`), by `soft_target_loss`.
pub(crate) enum Targets<'a> {
    Labels(&'a [usize]),
    Soft { probs: Tensor, temperature: f32 },
}

impl Targets<'_> {
    fn len(&self) -> usize {
        match self {
            Targets::Labels(labels) => labels.len(),
            Targets::Soft { probs, .. } => probs.dims()[0],
        }
    }

    /// The loss of the rows `chunk` on their `logits`, and its gradient.
    fn loss(&self, logits: &Tensor, chunk: &[usize]) -> Result<(f32, Tensor)> {
        Ok(match self {
            Targets::Labels(labels) => {
                let labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                softmax_cross_entropy(logits, &labels)?
            }
            Targets::Soft { probs, temperature } => {
                soft_target_loss(logits, &gather(probs, chunk)?, *temperature)?
            }
        })
    }
}

/// The rows `chunk` of `rows`, in that order, as one batch.
fn gather(rows: &Tensor, chunk: &[usize]) -> Result<Tensor> {
    let mut dims = rows.dims().to_vec();
    let row: usize = dims[1..].iter().product();
    dims[0] = chunk.len();
    let mut data = Vec::with_capacity(chunk.len() * row);
    for &i in chunk {
        data.extend_from_slice(&rows.data()[i * row..(i + 1) * row]);
    }
    Ok(Tensor::from_vec(data, &dims)?)
}

/// `epochs` shuffled passes in minibatches of `batch_size`, epoch `e` at
/// the rate `lr / (1 + decay·e)`.
pub(crate) struct Schedule {
    pub lr: f32,
    pub decay: f32,
    pub batch_size: usize,
    pub epochs: usize,
}

/// Trains `net` on `[n, …]` `rows` against `targets`: each epoch sets the
/// rate, shuffles the row order with `rng`, and runs forward → loss →
/// backward → step on each minibatch. Returns each epoch's mean loss.
///
/// # Errors
///
/// Returns [`CoreError::Dataset`] unless there is one target per row;
/// propagates model errors.
#[expect(clippy::disallowed_methods, reason = "randomness owner: shuffles")]
pub(crate) fn fit(
    net: &mut Sequential,
    opt: &mut impl Optimizer,
    rows: &Tensor,
    targets: &Targets<'_>,
    rng: &mut SplitMix64,
    schedule: Schedule,
) -> Result<Vec<f32>> {
    let n = rows.dims().first().copied().unwrap_or(0);
    if targets.len() != n {
        let got = targets.len();
        return Err(CoreError::Dataset(format!("{got} targets for {n} rows")));
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::with_capacity(schedule.epochs);
    for epoch in 0..schedule.epochs {
        rng.shuffle(&mut order);
        opt.set_lr(schedule.lr / (1.0 + schedule.decay * epoch as f32));
        let mut total = 0.0f32;
        let chunks = order.chunks(schedule.batch_size.max(1));
        for chunk in chunks.clone() {
            let logits = net.forward(&gather(rows, chunk)?, Mode::Train)?;
            let (loss, grad) = targets.loss(&logits, chunk)?;
            net.backward(&grad)?;
            opt.step(&mut net.params_mut())?;
            total += loss;
        }
        epoch_losses.push(total / chunks.len().max(1) as f32);
    }
    Ok(epoch_losses)
}
