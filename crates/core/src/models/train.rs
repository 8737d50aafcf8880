//! The one training loop and the one Eval body of the networks. The loop
//! runs shuffled minibatches over a network's [`Sequential`], on class
//! labels (the frame CNN and the IMU BiLSTM, paper §4.2) or on a
//! teacher's soft targets (each dCNN student, §4.3); the Eval body turns
//! a batch into class probabilities.

use darnet_nn::{
    soft_target_loss, softmax_cross_entropy, softmax_inplace, Layer, Mode, NnError, Optimizer,
    Sequential,
};
use darnet_tensor::{SplitMix64, Tensor, Workspace};

use crate::{CoreError, Result};

/// The per-epoch rate decay of the SGD fits, the CNN's and distillation's.
pub(crate) const SGD_DECAY: f32 = 0.3;

/// What each row's logits are scored against: a label below `classes`,
/// by softmax cross-entropy, or a teacher's `[n, classes]` probabilities
/// at `temperature` (`darnet_nn::soft_targets`), by `soft_target_loss`.
pub(crate) enum Targets<'a> {
    Labels { labels: &'a [usize], classes: usize },
    Soft { probs: Tensor, temperature: f32 },
}

impl Targets<'_> {
    /// Refuses targets that do not fit `n` rows: a count other than `n`,
    /// or a label out of range.
    fn check(&self, n: usize) -> Result<()> {
        let got = match *self {
            Targets::Labels { labels, classes } => match labels.iter().find(|&&l| l >= classes) {
                Some(&label) => return Err(NnError::LabelOutOfRange { label, classes }.into()),
                None => labels.len(),
            },
            Targets::Soft { ref probs, .. } => probs.dims()[0],
        };
        if got != n {
            return Err(CoreError::Dataset(format!("{got} targets for {n} rows")));
        }
        Ok(())
    }

    /// The loss of the rows `chunk` on their `logits`, and its gradient.
    fn loss(&self, logits: &Tensor, chunk: &[usize]) -> Result<(f32, Tensor)> {
        Ok(match self {
            Targets::Labels { labels, .. } => {
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
/// Returns [`CoreError::Dataset`] unless there is one target per row, and
/// [`NnError::LabelOutOfRange`] for a label out of range, both before the
/// first step touches the weights or `rng`; propagates model errors.
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
    targets.check(n)?;
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

const EVAL_CHUNK: usize = 64; // rows per Eval chunk

/// Class probabilities of `[n, …]` `rows` (rank ≤ 4) through `net` in
/// Eval mode, appended row-major to `out`: one chunk is read in place, a
/// longer batch copied chunk by chunk into checkouts of `ws`. The one
/// Eval body of the networks; a warm `ws` makes it allocation-free.
///
/// # Errors
///
/// Returns [`CoreError::Dataset`] for rows of rank above 4; propagates
/// model errors.
pub(crate) fn predict_proba_into(
    net: &mut Sequential,
    rows: &Tensor,
    ws: &mut Workspace,
    out: &mut Vec<f32>,
) -> Result<()> {
    let mut shape = [0; 4]; // a chunk's dims, kept off the heap
    let Some(chunk_dims) = shape.get_mut(..rows.rank()) else {
        return Err(CoreError::Dataset(format!("rank-{} rows", rows.rank())));
    };
    chunk_dims.copy_from_slice(rows.dims());
    let n = chunk_dims.first().copied().unwrap_or(0);
    for start in (0..n).step_by(EVAL_CHUNK) {
        let end = (start + EVAL_CHUNK).min(n);
        let mut logits = if end - start == n {
            net.forward_into(rows, Mode::Eval, ws)?
        } else {
            let row = rows.len() / n;
            chunk_dims[0] = end - start;
            let mut chunk = ws.checkout(chunk_dims);
            chunk
                .data_mut()
                .copy_from_slice(&rows.data()[start * row..end * row]);
            let logits = net.forward_into(&chunk, Mode::Eval, ws)?;
            ws.restore(chunk);
            logits
        };
        softmax_inplace(&mut logits)?;
        out.extend_from_slice(logits.data());
        ws.restore(logits);
    }
    Ok(())
}
