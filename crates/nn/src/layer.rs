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
/// Layers are `Send` so a whole model can move to an engine's stream
/// worker thread when the engine runs its streams concurrently.
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

/// The hyperbolic tangent, as glibc 2.36's `tanhf` computes it: fdlibm's
/// `s_tanhf.c` over `s_expm1f.c`, with their constants and their
/// operation order and no FMA, so it returns libm's bits for every input
/// (DESIGN §19.6). Every special case is a select, not a branch: each path
/// is computed and the right one kept, so a loop over it vectorises (the
/// LSTM gate loop) and no input range costs a misprediction. Always
/// inlined, so that a loop built for AVX2 vectorises it at that width
/// rather than calling the baseline build lane by lane.
#[inline(always)]
pub(crate) fn tanh(x: f32) -> f32 {
    const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
    const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
    const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
    const Q1: f32 = f32::from_bits(0xbd08_8889);
    const Q2: f32 = f32::from_bits(0x3ad0_0d01);
    const Q3: f32 = f32::from_bits(0xb8a6_70cd);
    const Q4: f32 = f32::from_bits(0x3686_7e54);
    const Q5: f32 = f32::from_bits(0xb457_edbb);
    // 2^-55 and 2^-25.
    const TINY: f32 = f32::from_bits(0x2400_0000);
    const EXPM1_TINY: f32 = f32::from_bits(0x3300_0000);
    let ax = x.abs();
    // Below 2^-55 (±0, subnormals) tanh x = x, from 22 up (±inf too) it
    // rounds to ±1, and NaN stays NaN. Those lanes compute on 0 instead,
    // so no path below ever meets a subnormal (an x86 micro-code assist).
    let a = if (TINY..22.0).contains(&ax) { ax } else { 0.0 };
    // tanh a = 1 − 2/(t + 2) with t = expm1(2a) from a = 1 up, −t/(t + 2)
    // with t = expm1(−2a) below. So expm1's argument `y` lies in [2, 44)
    // or (−2, 0], and its k = 1 path (0.5·ln2 < y < 1.5·ln2) never runs.
    let big = a >= 1.0;
    let ay = 2.0 * a;
    let y = if big { ay } else { -ay };

    // expm1(y): below 2^-25 it is y; otherwise reduce y = k·ln2 + r with
    // r = hi − lo, k = 0 up to |y| = 0.5·ln2, −1 below 1.5·ln2 (y < 0
    // there), else y/ln2 rounded half away from zero.
    let y_red = if ay < EXPM1_TINY { 0.0 } else { y };
    let k_round = (INV_LN2 * y_red + if big { 0.5 } else { -0.5 }) as i32;
    let k = if ay <= f32::from_bits(0x3eb1_7218) {
        0
    } else if ay < f32::from_bits(0x3f85_1592) {
        -1
    } else {
        k_round
    };
    let kf = k as f32;
    let hi = y_red - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let at_k0 = r - (r * e - hxs);
    let e = (r * (e - c) - c) - hxs;
    let at_k_minus1 = 0.5 * (r - e) - 0.5;
    // Otherwise 2^k·(1 − (e − r)) − 1 for k ≤ −2 or k > 56,
    // 2^k·((1 − 2^−k) − (e − r)) for k < 23, else 2^k·((r − (e + 2^−k)) + 1),
    // each 2^k an add to the exponent bits.
    let wide = k <= -2 || k > 56;
    let pow_minus_k = f32::from_bits(0x7f_u32.wrapping_sub(k as u32) << 23);
    let narrow = if wide { 1.0 } else { 1.0 - pow_minus_k } - (e - r);
    let mid = (r - (e + pow_minus_k)) + 1.0;
    let m = if (23..=56).contains(&k) { mid } else { narrow };
    let scaled = f32::from_bits(m.to_bits().wrapping_add((k as u32) << 23));
    let at_k = if wide { scaled - 1.0 } else { scaled };
    let expm1 = match k {
        0 => at_k0,
        -1 => at_k_minus1,
        _ => at_k,
    };
    let t = if ay < EXPM1_TINY { y } else { expm1 };

    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    let z = if ax < TINY { ax } else { z };
    let z = if ax >= 22.0 { 1.0 } else { z };
    if x.is_nan() {
        x + x
    } else {
        z.copysign(x)
    }
}

/// The sigmoid of `x` given `e = exp(−|x|)`: `1/(1 + e)` for `x ≥ 0` and
/// `e/(1 + e)` below, one divide whose numerator is selected on the sign,
/// not branched on. Callers that vectorise the rest compute `e` apart,
/// since `exp` is a libm call.
#[inline]
pub(crate) fn sigmoid_of_exp(x: f32, e: f32) -> f32 {
    (if x >= 0.0 { 1.0 } else { e }) / (1.0 + e)
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
pub(crate) mod tests {
    use super::*;
    use darnet_tensor::Tensor;

    /// Numerically stable scalar sigmoid: see [`sigmoid_of_exp`]. The gate
    /// loop's reference (`lstm.rs`).
    pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
        sigmoid_of_exp(x, (-x.abs()).exp())
    }

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
    fn sigmoid_is_stable_at_extremes() {
        let y = sigmoid_scalar(-100.0);
        assert!((0.0..1e-6).contains(&y));
        let y2 = sigmoid_scalar(100.0);
        assert!(y2 <= 1.0 && y2 > 1.0 - 1e-6);
    }

    /// FNV-1a over the bits of `f(x)` for every `stride`-th bit pattern
    /// `x` from 0, every NaN hashed as one canonical NaN.
    fn sweep_digest(f: impl Fn(f32) -> f32, stride: usize) -> u64 {
        digest(sweep(stride), f)
    }

    /// Every `stride`-th bit pattern from 0 as a float.
    fn sweep(stride: usize) -> impl Iterator<Item = f32> {
        (0..1_u64 << 32)
            .step_by(stride)
            .map(|b| f32::from_bits(b as u32))
    }

    fn digest(xs: impl Iterator<Item = f32>, f: impl Fn(f32) -> f32) -> u64 {
        let mut hash = FNV_OFFSET;
        for_each_block(xs, f, |_, y| hash = fnv(hash, y));
        hash
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Folds `y`'s bits into an FNV-1a `hash`, a NaN as the canonical NaN.
    fn fnv(hash: u64, y: f32) -> u64 {
        let y = if y.is_nan() { f32::NAN } else { y };
        y.to_bits().to_le_bytes().into_iter().fold(hash, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Calls `visit(x, f(x))` for each `x` in order, evaluating `f` over
    /// blocks of inputs in one loop, the way the gate loop runs it.
    fn for_each_block(
        mut xs: impl Iterator<Item = f32>,
        f: impl Fn(f32) -> f32,
        mut visit: impl FnMut(f32, f32),
    ) {
        let (mut block, mut ys) = ([0.0_f32; 1024], [0.0_f32; 1024]);
        loop {
            let n = block.iter_mut().zip(&mut xs).map(|(b, x)| *b = x).count();
            for (y, &x) in ys.iter_mut().zip(&block) {
                *y = f(x);
            }
            for (&x, &y) in block[..n].iter().zip(&ys) {
                visit(x, y);
            }
            if n < block.len() {
                return;
            }
        }
    }

    /// The stride of the sweeps below: ≈ 1.05 M inputs spread over every
    /// sign, exponent and NaN payload range.
    const SWEEP_STRIDE: usize = 4_093;

    /// glibc 2.36's `tanhf` over the sweep, recorded with `f32::tanh`
    /// before the port replaced it.
    const TANH_SWEEP_DIGEST: u64 = 0xEFEC_ABEE_ED5B_9265;

    /// glibc 2.36's `tanhf` over all 2^32 inputs, recorded the same way.
    const TANH_ALL_DIGEST: u64 = 0x328E_88BD_233B_B16D;

    /// `tanh`'s cut-offs as `|x|` bit patterns: 2^-55, where
    /// `expm1f(−2|x|)` crosses 2^-25, 0.5·ln2 (k = 0 / −1) and 1.5·ln2
    /// (k = −1 / general), 1.0 (the switch to `expm1f(2|x|)`), where its
    /// k reaches 23 and 57, and 22.
    const TANH_CUT_OFFS: [u32; 8] = [
        0x2400_0000,
        0x3280_0000,
        0x3e31_7218,
        0x3f05_1592,
        0x3f80_0000,
        0x40f9_8872,
        0x419c_a6b9,
        0x41b0_0000,
    ];

    /// Every cut-off ±4 ulps, both signs.
    pub(crate) fn tanh_cut_off_inputs() -> impl Iterator<Item = f32> {
        TANH_CUT_OFFS.into_iter().flat_map(|bits| {
            (bits - 4..=bits + 4).flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
        })
    }

    /// glibc 2.36's `tanhf` at every cut-off ±4 ulps, recorded the same
    /// way.
    const TANH_CUT_OFF_DIGEST: u64 = 0x9F92_186E_12B9_A709;

    #[test]
    fn tanh_special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0_f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0_f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(-f32::NAN).is_nan());
        assert!(tanh(f32::from_bits(0x7f80_0001)).is_nan());
        // Subnormals and everything below 2^-55 come back unchanged.
        for bits in [1, 2, 0x0040_0000, 0x007f_ffff, 0x0080_0000, 0x23ff_ffff] {
            for x in [f32::from_bits(bits), -f32::from_bits(bits)] {
                assert_eq!(tanh(x).to_bits(), x.to_bits(), "{x:e}");
            }
        }
        assert_eq!(tanh(f32::MAX), 1.0);
        assert_eq!(tanh(-22.0), -1.0);
    }

    #[test]
    fn tanh_cut_offs_are_pinned_odd_and_monotone() {
        assert_eq!(digest(tanh_cut_off_inputs(), tanh), TANH_CUT_OFF_DIGEST);
        for bits in TANH_CUT_OFFS {
            let ys: Vec<f32> = (bits - 4..=bits + 4)
                .map(|b| tanh(f32::from_bits(b)))
                .collect();
            assert!(ys.windows(2).all(|w| w[0] <= w[1]), "{bits:#x}: {ys:?}");
            for b in bits - 4..=bits + 4 {
                let x = f32::from_bits(b);
                assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "{x:e}");
            }
        }
    }

    #[test]
    fn tanh_sweep_reproduces_libm() {
        assert_eq!(sweep_digest(tanh, SWEEP_STRIDE), TANH_SWEEP_DIGEST);
    }

    darnet_tensor::avx2_dispatch! {
        /// `tanh` of `xs` into `ys`, eight lanes at a time as the gate loop
        /// runs it, built twice as the gate loop is.
        fn tanh_lanes(xs: &[f32], ys: &mut [f32]) {
            for (y, x) in ys.chunks_exact_mut(8).zip(xs.chunks_exact(8)) {
                for j in 0..8 {
                    y[j] = tanh(x[j]);
                }
            }
        }
    }

    /// The sweep at stride 1: platform-independent, ≈ 100 s in release
    /// (`cargo test --release -p darnet-nn --lib -- --ignored
    /// tanh_all_inputs_reproduce_libm`; scripts/ci.sh runs it). The same
    /// pass runs every block through the AVX2 copy of [`tanh_lanes`], which
    /// must give the same digest: the gate loop's AVX2 lowering on every
    /// input. Without AVX2 that arm says it skipped.
    #[test]
    #[ignore = "all 2^32 inputs; run in release"]
    fn tanh_all_inputs_reproduce_libm() {
        let (mut xs, mut ys, mut zs) = ([0.0_f32; 1024], [0.0_f32; 1024], [0.0_f32; 1024]);
        let avx2_ok = tanh_lanes::avx2(&xs, &mut zs).is_some();
        let (mut scalar, mut avx2) = (FNV_OFFSET, FNV_OFFSET);
        for start in (0..1_u64 << 32).step_by(xs.len()) {
            for (bits, x) in (start..).zip(&mut xs) {
                *x = f32::from_bits(bits as u32);
            }
            for (y, &x) in ys.iter_mut().zip(&xs) {
                *y = tanh(x);
            }
            if avx2_ok {
                tanh_lanes::avx2(&xs, &mut zs);
            }
            // Two independent hash chains, interleaved.
            for (&y, &z) in ys.iter().zip(&zs) {
                (scalar, avx2) = (fnv(scalar, y), fnv(avx2, z));
            }
        }
        assert_eq!(scalar, TANH_ALL_DIGEST);
        if avx2_ok {
            assert_eq!(avx2, TANH_ALL_DIGEST, "the AVX2 copy");
        } else {
            println!("avx2 arm skipped: this CPU has no AVX2");
        }
    }

    /// The sigmoid before the select form: a branch on the sign.
    fn branch_sigmoid(x: f32) -> f32 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    #[test]
    fn select_sigmoid_is_the_branch_form() {
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for x in sweep(SWEEP_STRIDE).chain(specials) {
            let (got, want) = (sigmoid_scalar(x), branch_sigmoid(x));
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "sigmoid({x:e}) = {got:e}, branch form {want:e}"
            );
        }
    }

    /// The two checks against the platform's libm, granted the banned
    /// `f32::tanh`/`f64::tanh` as oracles.
    #[expect(
        clippy::disallowed_methods,
        reason = "libm's tanh is the oracle the port is held to"
    )]
    mod libm_oracle {
        use super::{for_each_block, sweep, tanh, SWEEP_STRIDE};

        /// Distance in ulps between two finite floats of any sign.
        fn ulps(a: f32, b: f32) -> u32 {
            let key = |v: f32| {
                let bits = v.to_bits() as i32;
                if bits < 0 {
                    i32::MIN - bits
                } else {
                    bits
                }
            };
            key(a).abs_diff(key(b))
        }

        #[test]
        fn tanh_is_within_two_ulp_of_f64() {
            let mut worst = 0;
            for_each_block(sweep(SWEEP_STRIDE), tanh, |x, got| {
                if !x.is_nan() {
                    worst = worst.max(ulps(got, f64::from(x).tanh() as f32));
                }
            });
            assert!(worst <= 2, "max error {worst} ulp");
        }

        /// Host evidence, not a portable check: on glibc 2.36 every
        /// input's bits equal `f32::tanh`'s, NaNs compared as NaN. A host
        /// with another libm fails it while the port is correct.
        #[test]
        #[ignore = "compares with the host's libm; run by hand in release"]
        fn tanh_equals_host_libm_on_all_inputs() {
            let mut differ = 0_u64;
            for_each_block(sweep(1), tanh, |x, got| {
                let want = x.tanh();
                if got.to_bits() != want.to_bits() && !(got.is_nan() && want.is_nan()) {
                    differ += 1;
                }
            });
            assert_eq!(differ, 0);
        }
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
