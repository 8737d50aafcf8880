//! Cold-vs-warm tests for the one forward body, `forward_into`.
//!
//! `forward` is `forward_into` on a fresh workspace, so "the two paths
//! agree" is true by construction. What still needs holding is that a
//! *warm* call — recycled, dirty buffers in the caller's workspace, after
//! the batch shape changed, after a `Mode::Train` call — returns the bytes
//! a cold call on a freshly built layer returns, and that a warm workspace stops allocating (cold-miss
//! counter goes flat).

// The helpers below are not #[test] fns themselves, so clippy's
// allow-unwrap-in-tests does not reach them; a failed unwrap here IS the
// test failing.
#![allow(clippy::unwrap_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]

use darnet_nn::{
    bilstm_classifier, AvgPool2d, BiLstm, Conv2d, Dense, Dropout, Flatten, InceptionBlock,
    InceptionChannels, Layer, LstmCell, MaxPool2d, Mode, NnError, Relu, Sequential,
};
use darnet_tensor::{SplitMix64, Tensor, TensorError, Workspace};

fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = SplitMix64::new(seed);
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = rng.uniform(-1.5, 1.5);
    }
    t
}

/// The first `batch` samples of `x`.
fn head(x: &Tensor, batch: usize) -> Tensor {
    let mut dims = x.dims().to_vec();
    let keep = x.len() / dims[0] * batch;
    dims[0] = batch;
    Tensor::from_vec(x.data()[..keep].to_vec(), &dims).unwrap()
}

type Run<M> = fn(&mut M, &Tensor, Mode, &mut Workspace) -> Tensor;

/// Holds a model to its cold result under the ledger's shape sequence.
///
/// `dims` is the input shape at batch 8. Cold = a freshly built model on a
/// fresh workspace. One model and one workspace then serve laps of batch
/// 8, 8, 6, 8: every output must be bitwise the cold one, and the third
/// lap must not add a cold miss. Finally a `Mode::Train` call must not
/// change what the next `Mode::Eval` call returns.
fn assert_warm_is_cold<M>(build: impl Fn() -> M, run: Run<M>, dims: &[usize], seed: u64) {
    assert_eq!(dims[0], 8);
    let x8 = random_tensor(dims, seed);
    let x6 = head(&x8, 6);
    let cold = |x: &Tensor| run(&mut build(), x, Mode::Eval, &mut Workspace::new());
    let (cold8, cold6) = (cold(&x8), cold(&x6));

    let mut model = build();
    let mut ws = Workspace::new();
    for lap in 0..3 {
        let misses = ws.cold_misses();
        for (x, want) in [(&x8, &cold8), (&x8, &cold8), (&x6, &cold6), (&x8, &cold8)] {
            let got = run(&mut model, x, Mode::Eval, &mut ws);
            assert_eq!(&got, want, "lap {lap}: warm call diverged from cold");
            ws.restore(got);
        }
        if lap == 2 {
            assert_eq!(ws.cold_misses(), misses, "warm workspace allocated again");
        }
    }

    let trained = run(&mut model, &x6, Mode::Train, &mut ws);
    ws.restore(trained);
    let got = run(&mut model, &x8, Mode::Eval, &mut ws);
    assert_eq!(got, cold8, "Eval after Train diverged from cold Eval");
}

fn assert_layer<L: Layer>(build: impl Fn() -> L, dims: &[usize], seed: u64) {
    assert_warm_is_cold(
        build,
        |l, x, mode, ws| l.forward_into(x, mode, ws).unwrap(),
        dims,
        seed,
    );
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
fn activations_flatten_and_dropout() {
    let dims = [8, 4, 2, 2];
    assert_layer(Relu::new, &dims, 1);
    assert_layer(Flatten::new, &dims, 1);
    assert_layer(|| Dropout::new(0.4, 7), &dims, 1);
}

#[test]
fn dense() {
    assert_layer(|| Dense::new(6, 4, &mut SplitMix64::new(3)), &[8, 6], 2);
}

#[test]
fn conv_and_pools() {
    let dims = [8, 3, 6, 6];
    assert_layer(
        || Conv2d::square(3, 4, 3, 1, 1, &mut SplitMix64::new(5)),
        &dims,
        4,
    );
    assert_layer(|| MaxPool2d::new(2, 2), &dims, 4);
    assert_layer(|| AvgPool2d::new(2, 2), &dims, 4);
}

#[test]
fn sequential_stack() {
    let build = || {
        let mut rng = SplitMix64::new(7);
        let mut net = Sequential::new();
        net.push(Conv2d::square(1, 4, 3, 1, 1, &mut rng));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2));
        net.push(Flatten::new());
        net.push(Dense::new(4 * 4 * 4, 5, &mut rng));
        net
    };
    assert_layer(build, &[8, 1, 8, 8], 6);
}

#[test]
fn inception_block() {
    let build = || InceptionBlock::new(3, tiny_channels(), &mut SplitMix64::new(9));
    assert_layer(build, &[8, 3, 5, 5], 8);

    // The provided `forward` hands a warm block a fresh workspace.
    let mut block = build();
    let x = random_tensor(&[8, 3, 5, 5], 8);
    let cold = block.forward(&x, Mode::Eval).unwrap();
    block.forward(&head(&x, 6), Mode::Train).unwrap();
    assert_eq!(block.forward(&x, Mode::Eval).unwrap(), cold);
}

#[test]
fn lstm_cell_bilstm_and_classifier() {
    let dims = [8, 5, 3];
    assert_warm_is_cold(
        || LstmCell::new(3, 6, &mut SplitMix64::new(11)),
        |m, x, mode, ws| m.forward_seq_into(x, mode, ws).unwrap(),
        &dims,
        10,
    );
    assert_warm_is_cold(
        || BiLstm::new(3, 5, &mut SplitMix64::new(13)),
        |m, x, mode, ws| m.forward_seq_into(x, mode, ws).unwrap(),
        &dims,
        12,
    );
    assert_warm_is_cold(
        || bilstm_classifier(3, 4, 2, 3, &mut SplitMix64::new(14)),
        |m, x, mode, ws| m.forward_into(x, mode, ws).unwrap(),
        &dims,
        12,
    );
}

/// With one body a misuse has one error: `forward` and `forward_into`
/// agree on it, in both modes, and it is the documented variant
/// (`InvalidConfig` for a shape the layer cannot take, the tensor
/// kernel's geometry error for a window that does not fit).
#[test]
fn every_layer_reports_one_typed_error_per_misuse() {
    let mut rng = SplitMix64::new(15);
    let config = |e: &NnError| matches!(e, NnError::InvalidConfig(_));
    let geometry = |e: &NnError| matches!(e, NnError::Tensor(TensorError::InvalidGeometry(_)));
    let channels = |e: &NnError| matches!(e, NnError::Tensor(TensorError::InvalidArgument(_)));
    type Case = (Box<dyn Layer>, Vec<usize>, fn(&NnError) -> bool);
    let cases: Vec<Case> = vec![
        // Wrong rank.
        (
            Box::new(Conv2d::square(1, 2, 3, 1, 1, &mut rng)),
            vec![2, 9],
            config,
        ),
        (Box::new(MaxPool2d::new(2, 2)), vec![2, 9], config),
        (Box::new(AvgPool2d::new(2, 2)), vec![2, 9], config),
        (
            Box::new(InceptionBlock::new(1, tiny_channels(), &mut rng)),
            vec![2, 9],
            config,
        ),
        (
            Box::new(Dense::new(4, 2, &mut rng)),
            vec![2, 1, 2, 2],
            config,
        ),
        (Box::new(Flatten::new()), vec![], config),
        // Wrong width.
        (Box::new(Dense::new(4, 2, &mut rng)), vec![2, 5], config),
        (
            Box::new(Conv2d::square(1, 2, 3, 1, 1, &mut rng)),
            vec![2, 3, 4, 4],
            channels,
        ),
        // Window larger than the input.
        (Box::new(MaxPool2d::new(3, 1)), vec![1, 1, 2, 2], geometry),
        (Box::new(AvgPool2d::new(3, 1)), vec![1, 1, 2, 2], geometry),
        (
            Box::new(Conv2d::square(1, 2, 5, 1, 0, &mut rng)),
            vec![1, 1, 3, 3],
            geometry,
        ),
    ];
    for (mut layer, dims, expected) in cases {
        let bad = Tensor::zeros(&dims);
        for mode in [Mode::Eval, Mode::Train] {
            let owned = layer.forward(&bad, mode).unwrap_err();
            let into = layer
                .forward_into(&bad, mode, &mut Workspace::new())
                .unwrap_err();
            assert_eq!(owned, into, "{} {dims:?} {mode:?}", layer.name());
            assert!(expected(&owned), "{} {dims:?}: {owned:?}", layer.name());
        }
    }

    // The recurrent layers are not `Layer`s; same contract.
    let bad = Tensor::zeros(&[2, 3]);
    let mut cell = LstmCell::new(3, 4, &mut rng);
    let owned = cell.forward_seq(&bad, Mode::Eval).unwrap_err();
    let into = cell.forward_seq_into(&bad, Mode::Eval, &mut Workspace::new());
    assert_eq!(owned, into.unwrap_err());
    assert!(config(&owned));
    let mut bi = BiLstm::new(3, 4, &mut rng);
    let wide = Tensor::zeros(&[2, 5, 4]);
    let owned = bi.forward_seq(&wide, Mode::Eval).unwrap_err();
    let into = bi.forward_seq_into(&wide, Mode::Eval, &mut Workspace::new());
    assert_eq!(owned, into.unwrap_err());
    assert!(config(&owned));
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn dense_warm_is_bitwise_cold(
            in_f in 1usize..7,
            out_f in 1usize..7,
            batch in 1usize..5,
            seed in 0u64..500,
        ) {
            let mut rng = SplitMix64::new(seed);
            let mut layer = Dense::new(in_f, out_f, &mut rng);
            let x = random_tensor(&[batch, in_f], seed ^ 0xABCD);
            let cold = layer.forward(&x, Mode::Eval).unwrap();
            let mut ws = Workspace::new();
            for _ in 0..2 {
                let got = layer.forward_into(&x, Mode::Eval, &mut ws).unwrap();
                prop_assert_eq!(&got, &cold);
                ws.restore(got);
            }
        }

        #[test]
        fn lstm_warm_is_bitwise_cold(
            feat in 1usize..5,
            hidden in 1usize..5,
            time in 1usize..5,
            batch in 1usize..4,
            seed in 0u64..200,
        ) {
            let mut cell = LstmCell::new(feat, hidden, &mut SplitMix64::new(seed));
            let x = random_tensor(&[batch, time, feat], seed ^ 0x1234);
            let cold = cell.forward_seq(&x, Mode::Eval).unwrap();
            let mut ws = Workspace::new();
            for _ in 0..2 {
                let got = cell.forward_seq_into(&x, Mode::Eval, &mut ws).unwrap();
                prop_assert_eq!(&got, &cold);
                ws.restore(got);
            }
        }
    }
}
