//! LSTM recurrent layers: a single [`LstmCell`] with full backpropagation
//! through time, a bidirectional wrapper ([`BiLstm`], a [`Layer`]), and the
//! stacked classifier used for DarNet's IMU stream
//! ([`bilstm_classifier`] — 2 bidirectional layers × 64 hidden units in
//! the paper's configuration, §4.2).

use darnet_tensor::{
    matmul_transpose_b_packed_into, matmul_transpose_b_slices_into, uniform_init, PackedB,
    SplitMix64, Tensor, TensorView, Workspace,
};

use crate::dense::Dense;
use crate::error::NnError;
use crate::layer::{sigmoid_of_exp, tanh, Layer, Mode};
use crate::param::Param;
use crate::pool::MeanOverTime;
use crate::sequential::Sequential;
use crate::Result;

/// Copies timestep `t` of a `[batch, time, feat]` tensor into a
/// caller-provided `[batch, feat]` buffer.
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

/// Hidden units the gate update advances at once: the lanes its
/// vectorised body (both `tanh`, the sigmoids' selects and divides, the
/// cell update) runs over.
const LANES: usize = 8;

darnet_tensor::avx2_dispatch! {
    /// The fused gate update: one pass over the packed pre-activations `z`
    /// `[B, 4H]` (gate order `i, f, g, o`) that advances `h` and `c` `[B, H]`
    /// in place. `record(at, [i, f, g, o, tanh_c])` sees each element's
    /// activations — the Train cache's tap; Eval passes a no-op.
    ///
    /// Each element is `c = f·c + i·g`, then `h = o·tanh(c)`, with the
    /// sigmoid's `exp` the only libm call. A row goes [`LANES`] units at a
    /// time: the `exp`s first, one by one, then the rest over all lanes at
    /// once, branch-free, the tail padded with zeros. Eval runs the
    /// dispatcher; Train calls `gate_update::baseline`, whose build it keeps.
    fn gate_update(
        z: &Tensor,
        h_t: &mut Tensor,
        c_t: &mut Tensor,
        record: impl FnMut(usize, [f32; 5]),
    ) {
        let mut record = record;
        let (b, h) = (h_t.dims()[0], h_t.dims()[1]);
        let zd = z.data();
        let hd = h_t.data_mut();
        let cd = c_t.data_mut();
        for n in 0..b {
            let row = &zd[n * 4 * h..(n + 1) * 4 * h];
            for k0 in (0..h).step_by(LANES) {
                let (at, w) = (n * h + k0, LANES.min(h - k0));
                let mut zs = [[0.0_f32; LANES]; 4];
                for (gate, lanes) in zs.iter_mut().enumerate() {
                    lanes[..w].copy_from_slice(&row[gate * h + k0..][..w]);
                }
                // exp(−|z|) of the three sigmoid gates `i, f, o`.
                let mut es = [[0.0_f32; LANES]; 3];
                for (lanes, gate) in es.iter_mut().zip([0, 1, 3]) {
                    for (e, &v) in lanes[..w].iter_mut().zip(&zs[gate][..w]) {
                        *e = (-v.abs()).exp();
                    }
                }
                let mut c = [0.0_f32; LANES];
                c[..w].copy_from_slice(&cd[at..at + w]);
                let mut hn = [0.0_f32; LANES];
                let mut acts = [[0.0_f32; LANES]; 5];
                for j in 0..LANES {
                    let i_g = sigmoid_of_exp(zs[0][j], es[0][j]);
                    let f_g = sigmoid_of_exp(zs[1][j], es[1][j]);
                    let g_g = tanh(zs[2][j]);
                    let o_g = sigmoid_of_exp(zs[3][j], es[2][j]);
                    let c_new = f_g * c[j] + i_g * g_g;
                    let tanh_c = tanh(c_new);
                    hn[j] = o_g * tanh_c;
                    c[j] = c_new;
                    for (act, v) in acts.iter_mut().zip([i_g, f_g, g_g, o_g, tanh_c]) {
                        act[j] = v;
                    }
                }
                hd[at..at + w].copy_from_slice(&hn[..w]);
                cd[at..at + w].copy_from_slice(&c[..w]);
                for j in 0..w {
                    record(at + j, acts.map(|act| act[j]));
                }
            }
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
    /// `W_h`'s panels, packed at the start of each batched forward call.
    w_h_panels: PackedB,
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
            w_h_panels: PackedB::default(),
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
    /// [`NnError::InvalidConfig`] if the input rank or feature width is
    /// wrong or the window has no timestep, before any checkout.
    pub fn forward_seq_into(
        &mut self,
        x: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        if x.rank() != 3 || x.dims()[1] == 0 || x.dims()[2] != self.input_size {
            return Err(NnError::InvalidConfig(format!(
                "lstm expects [batch, time > 0, {}], got {:?}",
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
        // Every step multiplies by `W_h`, so two rows or more pack its
        // panels once per call, from the weights as they are now. A single
        // row reads `W_h` in place, where packing would not pay.
        let packed = b > 1;
        if packed {
            self.w_h_panels.pack(self.w_h.value.data(), (h, gates))?;
        }

        for t in 0..time {
            // z = (x_t·W_xᵀ + h·W_hᵀ) + b  → [B, 4H]
            if packed {
                matmul_transpose_b_packed_into(
                    h_t.data(),
                    &self.w_h_panels,
                    b,
                    None,
                    z.data_mut(),
                )?;
            } else {
                matmul_transpose_b_slices_into(
                    h_t.data(),
                    self.w_h.value.data(),
                    (b, h, gates),
                    None,
                    z.data_mut(),
                )?;
            }
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
                gate_update::baseline(&z, &mut h_t, &mut c_t, |at, gates| {
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
}

impl Layer for BiLstm {
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<TensorView> {
        self.forward_seq_into(input, mode, ws)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.backward_seq(grad_out)
    }

    /// Both cells' parameters, the forward cell's first.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.fwd.params_mut();
        p.extend(self.bwd.params_mut());
        p
    }

    fn name(&self) -> &'static str {
        "BiLstm"
    }
}

/// The paper's IMU-sequence architecture as one [`Sequential`]: `depth`
/// stacked [`BiLstm`] layers, a [`MeanOverTime`] pooling and a [`Dense`]
/// head mapping `2·hidden` features to `classes` logits, from `[batch, time,
/// input_size]` windows.
///
/// The DarNet configuration is 2 layers × 64 hidden units over 20-step
/// windows (4 Hz × 5 s). The head's weights are drawn from
/// `U(±√(1/2·hidden))` after every LSTM weight; its bias starts at zero.
///
/// # Panics
///
/// Panics if `depth == 0`.
pub fn bilstm_classifier(
    input_size: usize,
    hidden_size: usize,
    depth: usize,
    classes: usize,
    rng: &mut SplitMix64,
) -> Sequential {
    assert!(depth > 0, "classifier needs at least one BiLSTM layer");
    let mut net = Sequential::new();
    let mut in_size = input_size;
    for _ in 0..depth {
        net.push(BiLstm::new(in_size, hidden_size, rng));
        in_size = 2 * hidden_size;
    }
    net.push(MeanOverTime::new());
    let bound = (1.0 / (2 * hidden_size) as f32).sqrt();
    let head = uniform_init(&[classes, 2 * hidden_size], -bound, bound, rng);
    net.push(Dense::with_weight(head));
    net
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
        let mut model = bilstm_classifier(1, 8, 2, 2, &mut rng);
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
        let mut shallow = bilstm_classifier(4, 8, 1, 3, &mut rng);
        let mut deep = bilstm_classifier(4, 8, 2, 3, &mut rng);
        assert!(deep.param_count() > shallow.param_count());
        let logits = deep
            .forward(&Tensor::zeros(&[2, 5, 4]), Mode::Eval)
            .unwrap();
        assert_eq!(logits.dims(), &[2, 3]);
    }

    /// Gate inputs no training run reaches: `tanh`'s cut-offs ±4 ulps,
    /// ±∞, NaN, ±0, subnormals and a ramp.
    fn awkward_gates() -> Vec<f32> {
        let subnormals = [1, 0x0040_0000, 0x007f_ffff].map(f32::from_bits);
        crate::layer::tests::tanh_cut_off_inputs()
            .chain([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, -0.0])
            .chain(subnormals.into_iter().flat_map(|v| [v, -v]))
            .chain((0..40).map(|v| v as f32 * 0.37 - 7.0))
            .collect()
    }

    /// The gate update one element at a time, on the scalar sigmoid and
    /// `tanh`: `[i, f, g, o, tanh_c]`, then `c`, then `h`, each as bits.
    fn scalar_gates(z: &[f32], h: usize, c_prev: &[f32]) -> Vec<[u32; 7]> {
        use crate::layer::tests::sigmoid_scalar;
        let mut out = Vec::new();
        for (n, row) in z.chunks(4 * h).enumerate() {
            for k in 0..h {
                let gate = |q: usize| row[q * h + k];
                let (i, f, g, o) = (
                    sigmoid_scalar(gate(0)),
                    sigmoid_scalar(gate(1)),
                    tanh(gate(2)),
                    sigmoid_scalar(gate(3)),
                );
                let c = f * c_prev[n * h + k] + i * g;
                let tanh_c = tanh(c);
                out.push([i, f, g, o, tanh_c, c, o * tanh_c].map(f32::to_bits));
            }
        }
        out
    }

    /// Both builds of the gate loop, called directly, give the scalar
    /// gates' bits, recorded activations included: a hidden width with a
    /// tail below [`LANES`], every awkward input on every gate and as a
    /// carried cell state, which an open forget gate and a shut input
    /// gate hand to `tanh(c)` unchanged. Without AVX2 the AVX2 arm says it
    /// skipped.
    #[test]
    fn both_builds_of_the_gate_loop_are_the_scalar_gates() {
        let (vals, h) = (awkward_gates(), 13);
        let b = vals.len().div_ceil(h);
        let pick = |at: usize| vals[at % vals.len()];
        let c_prev: Vec<f32> = (0..b * h).map(|e| pick(e * 7 + 3)).collect();
        // Unit `n·h + k` of gate `q` reads value `n·h + k + 37·q`, so every
        // value reaches every gate.
        let gates = |carry: bool| -> Vec<f32> {
            (0..b * 4 * h)
                .map(|e| match (carry, e / h % 4) {
                    (true, 0) => f32::NEG_INFINITY,
                    (true, 1) => f32::INFINITY,
                    (_, q) => pick(e / (4 * h) * h + e % h + 37 * q),
                })
                .collect()
        };
        let mut avx2_ran = false;
        for carry in [false, true] {
            let z = Tensor::from_vec(gates(carry), &[b, 4 * h]).unwrap();
            let want = scalar_gates(z.data(), h, &c_prev);
            type Build = fn(&Tensor, &mut Tensor, &mut Tensor, &mut [[u32; 7]]) -> Option<()>;
            let copies: [(&str, Build); 2] = [
                ("baseline", |z, h_t, c_t, got| {
                    gate_update::baseline(z, h_t, c_t, |at, acts| {
                        got[at][..5].copy_from_slice(&acts.map(f32::to_bits));
                    });
                    Some(())
                }),
                ("avx2", |z, h_t, c_t, got| {
                    gate_update::avx2(z, h_t, c_t, |at, acts| {
                        got[at][..5].copy_from_slice(&acts.map(f32::to_bits));
                    })
                }),
            ];
            for (name, copy) in copies {
                let mut h_t = Tensor::full(&[b, h], f32::NAN);
                let mut c_t = Tensor::from_vec(c_prev.clone(), &[b, h]).unwrap();
                let mut got = vec![[0_u32; 7]; b * h];
                if copy(&z, &mut h_t, &mut c_t, &mut got).is_none() {
                    continue;
                }
                avx2_ran |= name == "avx2";
                for (e, got) in got.iter_mut().enumerate() {
                    got[5..].copy_from_slice(&[c_t.data()[e], h_t.data()[e]].map(f32::to_bits));
                }
                for (e, (got, want)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(got, want, "{name}, carry {carry}, element {e}");
                }
            }
        }
        if !avx2_ran {
            println!("avx2 arm skipped: this CPU has no AVX2");
        }
    }

    #[test]
    fn a_window_of_no_timestep_is_invalid_config() {
        let mut rng = SplitMix64::new(17);
        let mut model = bilstm_classifier(3, 4, 2, 2, &mut rng);
        let x = Tensor::zeros(&[2, 0, 3]);
        for mode in [Mode::Eval, Mode::Train] {
            assert!(matches!(
                model.forward(&x, mode),
                Err(NnError::InvalidConfig(_))
            ));
        }
        // Refused before any checkout: the workspace stays empty.
        let mut ws = Workspace::new();
        assert!(matches!(
            model.forward_into(&x, Mode::Eval, &mut ws),
            Err(NnError::InvalidConfig(_))
        ));
        assert_eq!((ws.cold_misses(), ws.pool_hits()), (0, 0));
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = SplitMix64::new(16);
        let mut cell = LstmCell::new(2, 2, &mut rng);
        assert!(matches!(
            cell.backward_seq(&Tensor::zeros(&[1, 1, 2])),
            Err(NnError::NoForwardCache { .. })
        ));
        let mut model = bilstm_classifier(2, 2, 1, 2, &mut rng);
        assert!(model.backward(&Tensor::zeros(&[1, 2])).is_err());
    }
}
