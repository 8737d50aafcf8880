//! LSTM recurrent layers: a single [`LstmCell`] with full backpropagation
//! through time, a bidirectional wrapper ([`BiLstm`]), and the stacked
//! classifier used for DarNet's IMU stream
//! ([`DeepBiLstmClassifier`] — 2 bidirectional layers × 64 hidden units in
//! the paper's configuration, §4.2).

use darnet_tensor::{
    matmul_transpose_b_slices_into, uniform_init, SplitMix64, Tensor, TensorView, Workspace,
};

use crate::error::NnError;
use crate::layer::{sigmoid_scalar, Mode};
use crate::param::Param;
use crate::Result;

/// Copies timestep `t` of a `[batch, time, feat]` tensor into a
/// caller-provided `[batch, feat]` buffer.
// darlint: hot
fn step_slice_into(x: &Tensor, t: usize, out: &mut Tensor) {
    let d = x.dims();
    let (b, time, f) = (d[0], d[1], d[2]);
    debug_assert!(t < time && out.len() == b * f);
    for n in 0..b {
        let src = (n * time + t) * f;
        out.data_mut()[n * f..(n + 1) * f].copy_from_slice(&x.data()[src..src + f]);
    }
}

/// Writes a `[batch, feat]` matrix into timestep `t` of a `[batch, time,
/// feat]` tensor.
// darlint: hot
fn step_write(dst: &mut Tensor, t: usize, src: &Tensor) {
    let (b, time, f) = {
        let d = dst.dims();
        (d[0], d[1], d[2])
    };
    debug_assert!(t < time);
    for n in 0..b {
        let off = (n * time + t) * f;
        dst.data_mut()[off..off + f].copy_from_slice(&src.data()[n * f..(n + 1) * f]);
    }
}

/// The fused gate update: one pass over the packed pre-activations `z`
/// `[B, 4H]` (gate order `i, f, g, o`) that advances `h` and `c` `[B, H]`
/// in place. `record(at, [i, f, g, o, tanh_c])` sees each element's
/// activations — the Train cache's tap; Eval passes a no-op.
#[inline]
fn gate_update(
    z: &Tensor,
    h_t: &mut Tensor,
    c_t: &mut Tensor,
    mut record: impl FnMut(usize, [f32; 5]),
) {
    let (b, h) = (h_t.dims()[0], h_t.dims()[1]);
    let zd = z.data();
    let hd = h_t.data_mut();
    let cd = c_t.data_mut();
    for n in 0..b {
        let row = &zd[n * 4 * h..(n + 1) * 4 * h];
        for k in 0..h {
            let i_g = sigmoid_scalar(row[k]);
            let f_g = sigmoid_scalar(row[h + k]);
            let g_g = row[2 * h + k].tanh();
            let o_g = sigmoid_scalar(row[3 * h + k]);
            let c_new = f_g * cd[n * h + k] + i_g * g_g;
            let tanh_c = c_new.tanh();
            hd[n * h + k] = o_g * tanh_c;
            cd[n * h + k] = c_new;
            record(n * h + k, [i_g, f_g, g_g, o_g, tanh_c]);
        }
    }
}

/// Per-timestep cache for backpropagation through time.
#[derive(Debug, Clone)]
struct StepCache {
    x: Tensor,      // [B, F] input
    h_prev: Tensor, // [B, H]
    c_prev: Tensor, // [B, H]
    i: Tensor,      // input gate
    f: Tensor,      // forget gate
    g: Tensor,      // candidate
    o: Tensor,      // output gate
    tanh_c: Tensor, // tanh(c_t)
}

impl StepCache {
    /// Starts a step's cache from its inputs — timestep `t` of the
    /// `[batch, time, feat]` sequence `x` and the carried state; the fused
    /// gate loop fills in the activations.
    // darlint: cold — Train-cache helper: backward needs every step's gates, so a training step allocates them
    fn begin(x: &Tensor, t: usize, h_prev: &Tensor, c_prev: &Tensor) -> Self {
        let gate = || Tensor::zeros(h_prev.dims());
        let mut x_t = Tensor::zeros(&[x.dims()[0], x.dims()[2]]);
        step_slice_into(x, t, &mut x_t);
        StepCache {
            x: x_t,
            h_prev: h_prev.clone(),
            c_prev: c_prev.clone(),
            i: gate(),
            f: gate(),
            g: gate(),
            o: gate(),
            tanh_c: gate(),
        }
    }
}

/// A single-direction LSTM over `[batch, time, features]` sequences.
///
/// Gate order in the packed `4H` dimension is `i, f, g, o`. The forget-gate
/// bias is initialized to 1.0 (standard practice for gradient flow over
/// long windows).
#[derive(Debug)]
pub struct LstmCell {
    input_size: usize,
    hidden_size: usize,
    w_x: Param, // [4H, F]
    w_h: Param, // [4H, H]
    b: Param,   // [4H]
    cache: Vec<StepCache>,
}

impl LstmCell {
    /// Creates an LSTM cell mapping `input_size` features to `hidden_size`
    /// hidden units.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut SplitMix64) -> Self {
        let bound = (1.0 / hidden_size.max(1) as f32).sqrt();
        let w_x = uniform_init(&[4 * hidden_size, input_size], -bound, bound, rng);
        let w_h = uniform_init(&[4 * hidden_size, hidden_size], -bound, bound, rng);
        let mut b = Tensor::zeros(&[4 * hidden_size]);
        // Forget-gate bias = 1.0.
        for v in &mut b.data_mut()[hidden_size..2 * hidden_size] {
            *v = 1.0;
        }
        LstmCell {
            input_size,
            hidden_size,
            w_x: Param::new(w_x),
            w_h: Param::new(w_h),
            b: Param::new(b),
            cache: Vec::new(),
        }
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Input feature width.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Runs the cell over a full `[batch, time, features]` sequence,
    /// returning all hidden states `[batch, time, hidden]`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input rank or feature width is wrong.
    pub fn forward_seq(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        self.forward_seq_into(x, mode, &mut Workspace::new())
    }

    /// The cell's one forward body, running entirely in workspace buffers:
    /// in [`Mode::Eval`], after one warm-up call per input shape the steady
    /// state performs no heap allocation. In [`Mode::Train`] the fused gate
    /// loop also records each step's inputs and gate activations for
    /// [`LstmCell::backward_seq`].
    ///
    /// # Errors
    ///
    /// Returns an error if the input rank or feature width is wrong.
    // darlint: hot
    pub fn forward_seq_into(
        &mut self,
        x: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        if x.rank() != 3 || x.dims()[2] != self.input_size {
            return Err(NnError::InvalidConfig(format!(
                "lstm expects [batch, time, {}], got {:?}",
                self.input_size,
                x.dims()
            )));
        }
        let (b, time) = (x.dims()[0], x.dims()[1]);
        let (h, gates) = (self.hidden_size, 4 * self.hidden_size);
        if self.b.value.len() != gates {
            return Err(NnError::InvalidConfig(format!(
                "lstm bias has {} values for {gates} gates",
                self.b.value.len()
            )));
        }
        self.cache.clear();
        // x·W_xᵀ for every timestep in one product: the `[B, T, in]` input
        // is already `[B·T, in]` row-major, so row `n·T + t` of `zx` is
        // batch row `n`'s input projection at step `t`.
        let mut zx = ws.checkout(&[b, time, gates]);
        matmul_transpose_b_slices_into(
            x.data(),
            self.w_x.value.data(),
            (b * time, self.input_size, gates),
            None,
            zx.data_mut(),
        )?;
        // Checked out once; reused across all timesteps.
        let mut z = ws.checkout(&[b, gates]);
        let mut h_t = ws.checkout(&[b, h]);
        let mut c_t = ws.checkout(&[b, h]);
        let mut out = ws.checkout(&[b, time, h]);

        for t in 0..time {
            // z = (x_t·W_xᵀ + h·W_hᵀ) + b  → [B, 4H]
            matmul_transpose_b_slices_into(
                h_t.data(),
                self.w_h.value.data(),
                (b, h, gates),
                None,
                z.data_mut(),
            )?;
            let zd = z.data_mut();
            for n in 0..b {
                let zx_t = &zx.data()[(n * time + t) * gates..][..gates];
                let z_n = &mut zd[n * gates..][..gates];
                for ((z, &zx), &bias) in z_n.iter_mut().zip(zx_t).zip(self.b.value.data()) {
                    *z = zx + *z + bias;
                }
            }

            // Decided once per step, so the Eval loop records nothing.
            if mode == Mode::Train {
                let mut step = StepCache::begin(x, t, &h_t, &c_t);
                let (i, f, g, o, tanh_c) = (
                    step.i.data_mut(),
                    step.f.data_mut(),
                    step.g.data_mut(),
                    step.o.data_mut(),
                    step.tanh_c.data_mut(),
                );
                gate_update(&z, &mut h_t, &mut c_t, |at, gates| {
                    [i[at], f[at], g[at], o[at], tanh_c[at]] = gates;
                });
                self.cache.push(step);
            } else {
                gate_update(&z, &mut h_t, &mut c_t, |_, _| {});
            }
            step_write(&mut out, t, &h_t);
        }
        ws.restore(zx);
        ws.restore(z);
        ws.restore(h_t);
        ws.restore(c_t);
        Ok(out)
    }

    /// Backpropagates through time. `grad_h` is `dL/d(hidden)` for every
    /// timestep, shape `[batch, time, hidden]`. Returns `dL/d(input)` of
    /// shape `[batch, time, features]`, accumulating weight gradients.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if no training forward pass
    /// preceded this call.
    pub fn backward_seq(&mut self, grad_h: &Tensor) -> Result<Tensor> {
        if self.cache.is_empty() {
            return Err(NnError::NoForwardCache { layer: "LstmCell" });
        }
        let time = self.cache.len();
        let (b, h) = (self.cache[0].h_prev.dims()[0], self.hidden_size);
        if grad_h.dims() != [b, time, h] {
            return Err(NnError::Tensor(darnet_tensor::TensorError::ShapeMismatch {
                left: grad_h.dims().to_vec(),
                right: vec![b, time, h],
            }));
        }
        let mut dx_all = Tensor::zeros(&[b, time, self.input_size]);
        let mut dh = Tensor::zeros(&[b, h]);
        let mut dh_next = Tensor::zeros(&[b, h]);
        let mut dc_next = Tensor::zeros(&[b, h]);

        for t in (0..time).rev() {
            let cache = &self.cache[t];
            step_slice_into(grad_h, t, &mut dh);
            dh.add_assign(&dh_next)?;

            // dL/do = dh * tanh(c); dL/dc += dh * o * (1 - tanh²(c))
            let d_o = dh.mul(&cache.tanh_c)?;
            let mut dc = dh.mul(&cache.o)?.mul(&cache.tanh_c.map(|v| 1.0 - v * v))?;
            dc.add_assign(&dc_next)?;

            let d_i = dc.mul(&cache.g)?;
            let d_f = dc.mul(&cache.c_prev)?;
            let d_g = dc.mul(&cache.i)?;

            // Pre-activation gradients.
            let dz_i = d_i.mul(&cache.i.map(|v| v * (1.0 - v)))?;
            let dz_f = d_f.mul(&cache.f.map(|v| v * (1.0 - v)))?;
            let dz_g = d_g.mul(&cache.g.map(|v| 1.0 - v * v))?;
            let dz_o = d_o.mul(&cache.o.map(|v| v * (1.0 - v)))?;

            // Pack [B, 4H] in gate order i, f, g, o.
            let mut dz = Tensor::zeros(&[b, 4 * h]);
            for n in 0..b {
                let row = &mut dz.data_mut()[n * 4 * h..(n + 1) * 4 * h];
                row[..h].copy_from_slice(&dz_i.data()[n * h..(n + 1) * h]);
                row[h..2 * h].copy_from_slice(&dz_f.data()[n * h..(n + 1) * h]);
                row[2 * h..3 * h].copy_from_slice(&dz_g.data()[n * h..(n + 1) * h]);
                row[3 * h..4 * h].copy_from_slice(&dz_o.data()[n * h..(n + 1) * h]);
            }

            // Weight gradients.
            let dwx = dz.matmul_transpose_a(&cache.x)?;
            self.w_x.grad.add_assign(&dwx)?;
            let dwh = dz.matmul_transpose_a(&cache.h_prev)?;
            self.w_h.grad.add_assign(&dwh)?;
            let db = dz.sum_axis0()?;
            self.b.grad.add_assign(&db)?;

            // Input and recurrent gradients.
            let dx_t = dz.matmul(&self.w_x.value)?;
            step_write(&mut dx_all, t, &dx_t);
            dh_next = dz.matmul(&self.w_h.value)?;
            dc_next = dc.mul(&cache.f)?;
        }
        Ok(dx_all)
    }

    /// Mutable access to the cell's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_x, &mut self.w_h, &mut self.b]
    }
}

/// Reverses a `[batch, time, feat]` tensor along the time axis into a
/// caller-provided same-shape buffer.
// darlint: hot
fn reverse_time_into(x: &Tensor, out: &mut Tensor) {
    let d = x.dims();
    let (b, time, f) = (d[0], d[1], d[2]);
    debug_assert_eq!(x.dims(), out.dims());
    let od = out.data_mut();
    let id = x.data();
    for n in 0..b {
        for t in 0..time {
            let src = (n * time + t) * f;
            let dst = (n * time + (time - 1 - t)) * f;
            od[dst..dst + f].copy_from_slice(&id[src..src + f]);
        }
    }
}

/// A bidirectional LSTM layer: a forward cell and a backward cell whose
/// per-timestep outputs are concatenated, producing `[batch, time,
/// 2·hidden]`. This mirrors the paper's description of each LSTM "cell
/// propagating its output forward and backward through time".
#[derive(Debug)]
pub struct BiLstm {
    fwd: LstmCell,
    bwd: LstmCell,
    hidden_size: usize,
}

impl BiLstm {
    /// Creates a bidirectional LSTM layer.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut SplitMix64) -> Self {
        BiLstm {
            fwd: LstmCell::new(input_size, hidden_size, rng),
            bwd: LstmCell::new(input_size, hidden_size, rng),
            hidden_size,
        }
    }

    /// Output feature width (`2 × hidden`).
    pub fn output_size(&self) -> usize {
        2 * self.hidden_size
    }

    /// Forward pass over `[batch, time, features]`, returning `[batch,
    /// time, 2·hidden]`.
    ///
    /// # Errors
    ///
    /// Propagates cell errors (bad input shape).
    pub fn forward_seq(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        self.forward_seq_into(x, mode, &mut Workspace::new())
    }

    /// The layer's one forward body: the forward cell, then the backward
    /// cell over the time-reversed input, both in the caller's `ws`; the
    /// concatenation lands in a buffer checked out from `ws` too.
    ///
    /// # Errors
    ///
    /// Propagates cell errors (bad input shape).
    // darlint: hot
    pub fn forward_seq_into(
        &mut self,
        x: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        let hf = self.fwd.forward_seq_into(x, mode, ws)?;
        let mut x_rev = ws.checkout(x.dims());
        reverse_time_into(x, &mut x_rev);
        let h_rev = self.bwd.forward_seq_into(&x_rev, mode, ws)?;
        ws.restore(x_rev);
        let mut hb = ws.checkout(h_rev.dims());
        reverse_time_into(&h_rev, &mut hb);
        ws.restore(h_rev);
        let d = hf.dims();
        let mut out = ws.checkout(&[d[0], d[1], 2 * self.hidden_size]);
        Tensor::concat_into(&[&hf, &hb], 2, &mut out)?;
        ws.restore(hf);
        ws.restore(hb);
        Ok(out)
    }

    /// Backward pass; `grad` has shape `[batch, time, 2·hidden]`.
    ///
    /// # Errors
    ///
    /// Propagates cell errors.
    pub fn backward_seq(&mut self, grad: &Tensor) -> Result<Tensor> {
        let h = self.hidden_size;
        let mut parts = grad.split(2, &[h, h])?;
        let (grad_fwd, grad_bwd) = match (parts.pop(), parts.pop()) {
            (Some(bwd), Some(fwd)) => (fwd, bwd),
            _ => {
                return Err(NnError::InvalidConfig(
                    "BiLstm::backward_seq: split produced fewer than two parts".into(),
                ))
            }
        };
        let mut dx = self.fwd.backward_seq(&grad_fwd)?;
        let mut g_rev = Tensor::zeros(grad_bwd.dims());
        reverse_time_into(&grad_bwd, &mut g_rev);
        let dx_rev = self.bwd.backward_seq(&g_rev)?;
        let mut dx_b = Tensor::zeros(dx_rev.dims());
        reverse_time_into(&dx_rev, &mut dx_b);
        dx.add_assign(&dx_b)?;
        Ok(dx)
    }

    /// Mutable access to both cells' parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.fwd.params_mut();
        p.extend(self.bwd.params_mut());
        p
    }
}

/// The paper's IMU-sequence architecture: stacked bidirectional LSTM layers
/// followed by mean-over-time pooling and a softmax classification head.
///
/// The DarNet configuration is 2 layers × 64 hidden units over 20-step
/// windows (4 Hz × 5 s).
#[derive(Debug)]
pub struct DeepBiLstmClassifier {
    layers: Vec<BiLstm>,
    head_w: Param,                        // [classes, 2H]
    head_b: Param,                        // [classes]
    pooled_cache: Option<(usize, usize)>, // (batch, time)
    last_hidden: Option<Tensor>,          // [B, T, 2H] from the top BiLSTM
    classes: usize,
}

impl DeepBiLstmClassifier {
    /// Creates a stacked bidirectional LSTM classifier.
    ///
    /// * `input_size` — features per timestep (e.g. IMU channels),
    /// * `hidden_size` — hidden units per direction,
    /// * `depth` — number of stacked BiLSTM layers (paper: 2),
    /// * `classes` — output classes.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(
        input_size: usize,
        hidden_size: usize,
        depth: usize,
        classes: usize,
        rng: &mut SplitMix64,
    ) -> Self {
        assert!(depth > 0, "classifier needs at least one BiLSTM layer");
        let mut layers = Vec::with_capacity(depth);
        let mut in_size = input_size;
        for _ in 0..depth {
            layers.push(BiLstm::new(in_size, hidden_size, rng));
            in_size = 2 * hidden_size;
        }
        let bound = (1.0 / (2 * hidden_size) as f32).sqrt();
        let head_w = uniform_init(&[classes, 2 * hidden_size], -bound, bound, rng);
        DeepBiLstmClassifier {
            layers,
            head_w: Param::new(head_w),
            head_b: Param::new(Tensor::zeros(&[classes])),
            pooled_cache: None,
            last_hidden: None,
            classes,
        }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Forward pass producing logits `[batch, classes]` from `[batch, time,
    /// features]` windows.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        self.forward_into(x, mode, &mut Workspace::new())
    }

    /// The classifier's one forward body, on workspace buffers: zero
    /// steady-state heap allocation in [`Mode::Eval`]; in [`Mode::Train`]
    /// the pooled features move into the cache for
    /// [`DeepBiLstmClassifier::backward`].
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    // darlint: hot
    pub fn forward_into(
        &mut self,
        x: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        let mut layers = self.layers.iter_mut();
        let mut h = match layers.next() {
            Some(first) => first.forward_seq_into(x, mode, ws)?,
            None => {
                // Unreachable by construction (`new` rejects depth 0), but
                // degrade gracefully rather than panic.
                let mut copy = ws.checkout(x.dims());
                x.copy_into(&mut copy)?;
                copy
            }
        };
        for layer in layers {
            let y = layer.forward_seq_into(&h, mode, ws)?;
            ws.restore(h);
            h = y;
        }
        let d = h.dims();
        let (b, time, feat) = (d[0], d[1], d[2]);
        // Mean over time → [B, 2H]; the checkout is zero-filled, so the
        // accumulation starts from zero.
        let mut pooled = ws.checkout(&[b, feat]);
        {
            let pd = pooled.data_mut();
            let hd = h.data();
            for n in 0..b {
                for t in 0..time {
                    let src = (n * time + t) * feat;
                    for k in 0..feat {
                        pd[n * feat + k] += hd[src + k];
                    }
                }
            }
            let inv_t = 1.0 / time as f32;
            for v in pd.iter_mut() {
                *v *= inv_t;
            }
        }
        ws.restore(h);
        let mut logits = ws.checkout(&[b, self.classes]);
        matmul_transpose_b_slices_into(
            pooled.data(),
            self.head_w.value.data(),
            (b, feat, self.classes),
            None,
            logits.data_mut(),
        )?;
        if mode == Mode::Train {
            self.pooled_cache = Some((b, time));
            self.last_hidden = Some(pooled);
        } else {
            ws.restore(pooled);
        }
        logits.add_row_broadcast_assign(&self.head_b.value)?;
        Ok(logits)
    }

    /// Backward pass from `dL/d(logits)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] without a prior training forward.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<()> {
        let (b, time) = self.pooled_cache.ok_or(NnError::NoForwardCache {
            layer: "DeepBiLstmClassifier",
        })?;
        let pooled = self.last_hidden.as_ref().ok_or(NnError::NoForwardCache {
            layer: "DeepBiLstmClassifier",
        })?;
        // Head gradients.
        let dw = grad_logits.matmul_transpose_a(pooled)?;
        self.head_w.grad.add_assign(&dw)?;
        let db = grad_logits.sum_axis0()?;
        self.head_b.grad.add_assign(&db)?;
        let dpooled = grad_logits.matmul(&self.head_w.value)?; // [B, 2H]

        // Spread mean-pool gradient over time.
        let feat = dpooled.dims()[1];
        let mut dh = Tensor::zeros(&[b, time, feat]);
        let inv_t = 1.0 / time as f32;
        for n in 0..b {
            for t in 0..time {
                let dst = (n * time + t) * feat;
                for k in 0..feat {
                    dh.data_mut()[dst + k] = dpooled.data()[n * feat + k] * inv_t;
                }
            }
        }
        let mut g = dh;
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward_seq(&g)?;
        }
        Ok(())
    }

    /// Mutable access to all parameters (LSTM layers + head).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p: Vec<&mut Param> = Vec::new();
        for layer in &mut self.layers {
            p.extend(layer.params_mut());
        }
        p.push(&mut self.head_w);
        p.push(&mut self.head_b);
        p
    }

    /// Total scalar parameter count.
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use crate::optim::{Adam, Optimizer};

    fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = SplitMix64::new(seed);
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = rng.uniform(-1.0, 1.0);
        }
        t
    }

    #[test]
    fn step_slice_and_write_roundtrip() {
        let x = random_tensor(&[2, 3, 4], 1);
        let mut y = Tensor::zeros(&[2, 3, 4]);
        let mut s = Tensor::full(&[2, 4], 9.0); // stale contents
        for t in 0..3 {
            step_slice_into(&x, t, &mut s);
            step_write(&mut y, t, &s);
        }
        assert_eq!(x, y);
    }

    #[test]
    fn reverse_time_is_involution() {
        let x = random_tensor(&[2, 5, 3], 2);
        let mut r = Tensor::full(x.dims(), 9.0); // stale contents
        reverse_time_into(&x, &mut r);
        let mut back = Tensor::zeros(x.dims());
        reverse_time_into(&r, &mut back);
        assert_eq!(back, x);
        // And actually reverses.
        let (mut first, mut last) = (Tensor::zeros(&[2, 3]), Tensor::zeros(&[2, 3]));
        step_slice_into(&r, 0, &mut first);
        step_slice_into(&x, 4, &mut last);
        assert_eq!(first, last);
    }

    #[test]
    fn lstm_forward_shape() {
        let mut rng = SplitMix64::new(3);
        let mut cell = LstmCell::new(4, 6, &mut rng);
        let x = random_tensor(&[2, 5, 4], 4);
        let h = cell.forward_seq(&x, Mode::Eval).unwrap();
        assert_eq!(h.dims(), &[2, 5, 6]);
        assert!(h.all_finite());
        // Hidden values bounded by tanh-ish dynamics.
        assert!(h.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_gradcheck_input() {
        let mut rng = SplitMix64::new(5);
        let mut cell = LstmCell::new(3, 4, &mut rng);
        let x = random_tensor(&[2, 4, 3], 6);
        let h = cell.forward_seq(&x, Mode::Train).unwrap();
        let dx = cell.backward_seq(&Tensor::ones(h.dims())).unwrap();
        let eps = 1e-2f32;
        for i in (0..x.len()).step_by(4) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = cell.forward_seq(&xp, Mode::Eval).unwrap().sum();
            let ym = cell.forward_seq(&xm, Mode::Eval).unwrap().sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 2e-2,
                "input grad {i}: fd {fd} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn lstm_gradcheck_weights() {
        let mut rng = SplitMix64::new(7);
        let mut cell = LstmCell::new(2, 3, &mut rng);
        let x = random_tensor(&[1, 3, 2], 8);
        cell.forward_seq(&x, Mode::Train).unwrap();
        let h_dims = [1, 3, 3];
        cell.backward_seq(&Tensor::ones(&h_dims)).unwrap();
        let wx_grad = cell.w_x.grad.clone();
        let eps = 1e-2f32;
        for i in (0..cell.w_x.value.len()).step_by(3) {
            let orig = cell.w_x.value.data()[i];
            cell.w_x.value.data_mut()[i] = orig + eps;
            let yp = cell.forward_seq(&x, Mode::Eval).unwrap().sum();
            cell.w_x.value.data_mut()[i] = orig - eps;
            let ym = cell.forward_seq(&x, Mode::Eval).unwrap().sum();
            cell.w_x.value.data_mut()[i] = orig;
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - wx_grad.data()[i]).abs() < 2e-2,
                "w_x grad {i}: fd {fd} vs {}",
                wx_grad.data()[i]
            );
        }
    }

    #[test]
    fn bilstm_output_concatenates_directions() {
        let mut rng = SplitMix64::new(9);
        let mut bi = BiLstm::new(3, 5, &mut rng);
        let x = random_tensor(&[2, 4, 3], 10);
        let h = bi.forward_seq(&x, Mode::Eval).unwrap();
        assert_eq!(h.dims(), &[2, 4, 10]);
        assert_eq!(bi.output_size(), 10);
    }

    #[test]
    fn bilstm_gradcheck_input() {
        let mut rng = SplitMix64::new(11);
        let mut bi = BiLstm::new(2, 3, &mut rng);
        let x = random_tensor(&[1, 3, 2], 12);
        let h = bi.forward_seq(&x, Mode::Train).unwrap();
        let dx = bi.backward_seq(&Tensor::ones(h.dims())).unwrap();
        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = bi.forward_seq(&xp, Mode::Eval).unwrap().sum();
            let ym = bi.forward_seq(&xm, Mode::Eval).unwrap().sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 2e-2,
                "grad {i}: fd {fd} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn classifier_learns_direction_of_drift() {
        // Two classes: sequences drifting up vs. drifting down. A BiLSTM
        // must separate them quickly.
        let mut rng = SplitMix64::new(13);
        let mut model = DeepBiLstmClassifier::new(1, 8, 2, 2, &mut rng);
        let mut data_rng = SplitMix64::new(14);
        let make_batch = |rng: &mut SplitMix64| {
            let b = 8;
            let t = 6;
            let mut x = Tensor::zeros(&[b, t, 1]);
            let mut labels = Vec::with_capacity(b);
            for n in 0..b {
                let up = rng.next_f32() < 0.5;
                labels.push(if up { 1usize } else { 0 });
                let slope = if up { 0.3 } else { -0.3 };
                for step in 0..t {
                    let noise = rng.uniform(-0.05, 0.05);
                    x.data_mut()[n * t + step] = slope * step as f32 + noise;
                }
            }
            (x, labels)
        };
        let mut opt = Adam::new(0.02);
        let mut final_loss = f32::INFINITY;
        for _ in 0..60 {
            let (x, labels) = make_batch(&mut data_rng);
            let logits = model.forward(&x, Mode::Train).unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
            model.backward(&grad).unwrap();
            opt.step(&mut model.params_mut()).unwrap();
            final_loss = loss;
        }
        assert!(
            final_loss < 0.2,
            "LSTM classifier failed to learn: {final_loss}"
        );
    }

    #[test]
    fn classifier_param_count_scales_with_depth() {
        let mut rng = SplitMix64::new(15);
        let mut shallow = DeepBiLstmClassifier::new(4, 8, 1, 3, &mut rng);
        let mut deep = DeepBiLstmClassifier::new(4, 8, 2, 3, &mut rng);
        assert!(deep.param_count() > shallow.param_count());
        assert_eq!(deep.classes(), 3);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = SplitMix64::new(16);
        let mut cell = LstmCell::new(2, 2, &mut rng);
        assert!(matches!(
            cell.backward_seq(&Tensor::zeros(&[1, 1, 2])),
            Err(NnError::NoForwardCache { .. })
        ));
        let mut model = DeepBiLstmClassifier::new(2, 2, 1, 2, &mut rng);
        assert!(model.backward(&Tensor::zeros(&[1, 2])).is_err());
    }
}
