//! Golden digests of seeded training steps.
//!
//! Every other bitwise test in this crate compares two runs of the same
//! binary (cold vs warm workspace) or a forward pass against its reference
//! loop, so none of them can see a refactor that changes what
//! `Mode::Train` computes. These digests are pinned constants over
//! forward → backward → SGD: the outputs, `dL/dx`, every parameter
//! gradient and every updated value must reproduce bit for bit.

// The helpers below are not #[test] fns themselves, so clippy's
// allow-unwrap-in-tests does not reach them; a failed unwrap here IS the
// test failing.
#![allow(clippy::unwrap_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]

use darnet_nn::{
    bilstm_classifier, softmax_cross_entropy, AvgPool2d, BiLstm, Conv2d, Dense, Dropout, Flatten,
    InceptionBlock, InceptionChannels, Layer, LstmCell, MaxPool2d, Mode, Optimizer, Param, Relu,
    Sequential, Sgd,
};
use darnet_tensor::{SplitMix64, Tensor};

/// FNV-1a accumulator over the little-endian bytes of whatever is fed in.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        for &d in t.dims() {
            self.bytes(&(d as u64).to_le_bytes());
        }
        for v in t.data() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = SplitMix64::new(seed);
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = rng.uniform(-1.5, 1.5);
    }
    t
}

/// The batch sequence every digest trains on: the full batch, the batch
/// with its last sample dropped, the full batch again — so caches sized
/// by one step are re-sized by the next.
fn batches(dims: &[usize], seed: u64) -> Vec<Tensor> {
    let full = random_tensor(dims, seed);
    let mut small_dims = dims.to_vec();
    small_dims[0] -= 1;
    let keep = full.len() / dims[0] * small_dims[0];
    let small = Tensor::from_vec(full.data()[..keep].to_vec(), &small_dims).unwrap();
    vec![full.clone(), small, full]
}

/// One training step per input: forward in `Mode::Train`, backward from a
/// seeded `dL/dy`, one SGD-with-momentum update. Digests the output,
/// `dL/dx`, every parameter gradient (before the step clears it) and every
/// parameter value (after it).
fn train_digest<M: ?Sized>(
    model: &mut M,
    inputs: &[Tensor],
    forward: fn(&mut M, &Tensor) -> Tensor,
    backward: fn(&mut M, &Tensor) -> Tensor,
    params: for<'a> fn(&'a mut M) -> Vec<&'a mut Param>,
) -> u64 {
    let mut h = Fnv::new();
    let mut opt = Sgd::with_momentum(0.05, 0.9).weight_decay(1e-3);
    for (step, x) in inputs.iter().enumerate() {
        let y = forward(model, x);
        h.tensor(&y);
        let dx = backward(model, &random_tensor(y.dims(), 0x6000 + step as u64));
        h.tensor(&dx);
        let mut ps = params(model);
        for p in &ps {
            h.tensor(&p.grad);
        }
        opt.step(&mut ps).unwrap();
        for p in &ps {
            h.tensor(&p.value);
        }
    }
    h.0
}

fn layer_digest(layer: &mut dyn Layer, inputs: &[Tensor]) -> u64 {
    train_digest(
        layer,
        inputs,
        |l, x| l.forward(x, Mode::Train).unwrap(),
        |l, g| l.backward(g).unwrap(),
        |l| l.params_mut(),
    )
}

/// Builds the layer and holds its run to `want`.
fn assert_layer<L: Layer>(name: &str, build: impl Fn() -> L, inputs: &[Tensor], want: u64) {
    let got = layer_digest(&mut build(), inputs);
    assert_eq!(got, want, "{name} digest {got:#018X}");
}

fn tiny_channels() -> InceptionChannels {
    InceptionChannels {
        c1: 2,
        c3_reduce: 2,
        c3: 3,
        c5_reduce: 1,
        c5: 2,
        pool_proj: 1,
    }
}

#[test]
fn stateless_layer_digests_are_pinned() {
    let x = batches(&[3, 4, 2, 2], 1);
    assert_layer("Relu", Relu::new, &x, 0x2801_C2A6_EEF8_C20F);
    assert_layer("Flatten", Flatten::new, &x, 0x117D_0EFD_3F4F_9E93);
}

#[test]
fn dropout_digest_is_pinned_at_a_fixed_seed() {
    let x = batches(&[3, 4, 2, 2], 2);
    assert_layer(
        "Dropout",
        || Dropout::new(0.4, 7),
        &x,
        0xCD1C_D396_6243_FF4E,
    );
}

#[test]
fn pooling_digests_are_pinned() {
    let x = batches(&[2, 3, 6, 6], 3);
    assert_layer(
        "MaxPool2d",
        || MaxPool2d::new(2, 2),
        &x,
        0xC918_746A_FD08_CBDC,
    );
    assert_layer(
        "AvgPool2d",
        || AvgPool2d::new(2, 2),
        &x,
        0xF960_878C_F062_B177,
    );
}

#[test]
fn dense_and_conv_digests_are_pinned() {
    let x = batches(&[5, 6], 4);
    assert_layer(
        "Dense",
        || Dense::new(6, 4, &mut SplitMix64::new(5)),
        &x,
        0x0089_1257_6FBA_6DFA,
    );
    let x = batches(&[2, 3, 6, 6], 6);
    assert_layer(
        "Conv2d",
        || Conv2d::square(3, 4, 3, 1, 1, &mut SplitMix64::new(7)),
        &x,
        0x7E60_3472_2E71_9DD4,
    );
}

#[test]
fn sequential_digest_is_pinned() {
    let x = batches(&[3, 1, 8, 8], 8);
    let build = || {
        let mut rng = SplitMix64::new(9);
        let mut net = Sequential::new();
        net.push(Conv2d::square(1, 4, 3, 1, 1, &mut rng));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2));
        net.push(AvgPool2d::new(2, 2));
        net.push(Flatten::new());
        net.push(Dense::new(4 * 2 * 2, 6, &mut rng));
        net.push(Relu::new());
        net.push(Dropout::new(0.3, 11));
        net.push(Dense::new(6, 3, &mut rng));
        net
    };
    assert_layer("Sequential", build, &x, 0x23AE_3466_37B9_9A8A);
}

#[test]
fn inception_digest_is_pinned() {
    let x = batches(&[3, 3, 5, 5], 12);
    assert_layer(
        "InceptionBlock",
        || InceptionBlock::new(3, tiny_channels(), &mut SplitMix64::new(13)),
        &x,
        0xEF67_21E0_33B6_FA61,
    );
}

#[test]
fn lstm_digests_are_pinned() {
    let x = batches(&[3, 5, 3], 14);
    let mut cell = LstmCell::new(3, 6, &mut SplitMix64::new(15));
    let got = train_digest(
        &mut cell,
        &x,
        |m, x| m.forward_seq(x, Mode::Train).unwrap(),
        |m, g| m.backward_seq(g).unwrap(),
        LstmCell::params_mut,
    );
    assert_eq!(got, 0x2DCB_E906_7360_5D0C, "LstmCell digest {got:#018X}");

    let mut bi = BiLstm::new(3, 5, &mut SplitMix64::new(16));
    let got = train_digest(
        &mut bi,
        &x,
        |m, x| m.forward_seq(x, Mode::Train).unwrap(),
        |m, g| m.backward_seq(g).unwrap(),
        BiLstm::params_mut,
    );
    assert_eq!(got, 0x1BB0_8D8F_66FF_3A09, "BiLstm digest {got:#018X}");
}

#[test]
fn bilstm_classifier_digest_is_pinned() {
    let x = batches(&[3, 6, 3], 17);
    let mut model = bilstm_classifier(3, 4, 2, 3, &mut SplitMix64::new(18));
    let mut opt = Sgd::with_momentum(0.05, 0.9).weight_decay(1e-3);
    let mut h = Fnv::new();
    for x in &x {
        let logits = model.forward(x, Mode::Train).unwrap();
        h.tensor(&logits);
        let labels: Vec<usize> = (0..x.dims()[0]).map(|n| n % 3).collect();
        let (loss, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        h.bytes(&loss.to_bits().to_le_bytes());
        model.backward(&grad).unwrap();
        let mut ps = model.params_mut();
        for p in &ps {
            h.tensor(&p.grad);
        }
        opt.step(&mut ps).unwrap();
        for p in &ps {
            h.tensor(&p.value);
        }
    }
    assert_eq!(
        h.0, 0xE808_4C6E_36B2_1540,
        "bilstm_classifier digest {:#018X}",
        h.0
    );
}
