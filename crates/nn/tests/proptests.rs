//! Property-based tests for network invariants.
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]

use darnet_nn::{l2_distill_loss, log_softmax, softmax, softmax_cross_entropy, Layer, Mode, Relu};
use darnet_tensor::Tensor;
use proptest::prelude::*;

fn logits_strategy() -> impl Strategy<Value = (Vec<f32>, usize)> {
    (1usize..6, 2usize..8).prop_flat_map(|(b, c)| {
        prop::collection::vec(-30.0f32..30.0, b * c).prop_map(move |v| (v, c))
    })
}

proptest! {
    #[test]
    fn softmax_rows_are_distributions((data, c) in logits_strategy()) {
        let b = data.len() / c;
        let logits = Tensor::from_vec(data, &[b, c]).unwrap();
        let p = softmax(&logits).unwrap();
        for r in 0..b {
            let row = &p.data()[r * c..(r + 1) * c];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant((data, c) in logits_strategy(), shift in -50.0f32..50.0) {
        let b = data.len() / c;
        let logits = Tensor::from_vec(data, &[b, c]).unwrap();
        let shifted = logits.add_scalar(shift);
        let p1 = softmax(&logits).unwrap();
        let p2 = softmax(&shifted).unwrap();
        for (a, z) in p1.data().iter().zip(p2.data()) {
            prop_assert!((a - z).abs() < 1e-4);
        }
    }

    #[test]
    fn log_softmax_is_never_positive((data, c) in logits_strategy()) {
        let b = data.len() / c;
        let logits = Tensor::from_vec(data, &[b, c]).unwrap();
        let ls = log_softmax(&logits).unwrap();
        prop_assert!(ls.data().iter().all(|&v| v <= 1e-5));
    }

    #[test]
    fn cross_entropy_is_nonnegative((data, c) in logits_strategy(), label_seed in 0usize..100) {
        let b = data.len() / c;
        let logits = Tensor::from_vec(data, &[b, c]).unwrap();
        let labels: Vec<usize> = (0..b).map(|i| (i + label_seed) % c).collect();
        let (loss, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        prop_assert!(loss >= 0.0);
        // Gradient rows sum to ~0 (probabilities minus one-hot).
        for r in 0..b {
            let s: f32 = grad.data()[r * c..(r + 1) * c].iter().sum();
            prop_assert!(s.abs() < 1e-4);
        }
    }

    #[test]
    fn distill_loss_zero_iff_equal(data in prop::collection::vec(-5.0f32..5.0, 4..32)) {
        let n = data.len();
        let a = Tensor::from_vec(data, &[1, n]).unwrap();
        let (loss, _) = l2_distill_loss(&a, &a).unwrap();
        prop_assert_eq!(loss, 0.0);
        let b = a.add_scalar(1.0);
        let (loss2, _) = l2_distill_loss(&a, &b).unwrap();
        prop_assert!(loss2 > 0.0);
    }

    #[test]
    fn relu_is_idempotent(data in prop::collection::vec(-10.0f32..10.0, 1..64)) {
        let n = data.len();
        let x = Tensor::from_vec(data, &[n]).unwrap();
        let mut relu = Relu::new();
        let once = relu.forward(&x, Mode::Eval).unwrap();
        let twice = relu.forward(&once, Mode::Eval).unwrap();
        prop_assert_eq!(once, twice);
    }
}

mod layer_reference {
    //! The forward layers against their formulation before the conv wrote
    //! NCHW straight from the product and the LSTM batched its input
    //! projection, bit for bit: one `p`-ascending dot product per output.

    use darnet_nn::{BiLstm, Conv2d, Layer, LstmCell, Mode};
    use darnet_tensor::{im2col, SplitMix64, Tensor};
    use proptest::prelude::*;

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for (&x, &y) in a.iter().zip(b) {
            acc += x * y;
        }
        acc
    }

    fn random(dims: &[usize], rng: &mut SplitMix64) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = rng.uniform(-1.5, 1.5);
        }
        t
    }

    fn sigmoid(x: f32) -> f32 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    /// One LSTM direction step by step: `z = (x_t·W_xᵀ + h·W_hᵀ) + b`,
    /// then the gates, batch row by batch row.
    fn lstm_steps(x: &Tensor, cell: &mut LstmCell) -> Vec<f32> {
        let (b, time, feat, hidden) = (x.dims()[0], x.dims()[1], x.dims()[2], cell.hidden_size());
        let params = cell.params_mut();
        let (w_x, w_h, bias) = (
            params[0].value.data(),
            params[1].value.data(),
            params[2].value.data(),
        );
        let (mut h, mut c) = (vec![0.0f32; b * hidden], vec![0.0f32; b * hidden]);
        let mut out = vec![0.0f32; b * time * hidden];
        for t in 0..time {
            for n in 0..b {
                let x_t = &x.data()[(n * time + t) * feat..][..feat];
                let h_n = &h[n * hidden..][..hidden];
                let z: Vec<f32> = (0..4 * hidden)
                    .map(|g| {
                        dot(x_t, &w_x[g * feat..][..feat])
                            + dot(h_n, &w_h[g * hidden..][..hidden])
                            + bias[g]
                    })
                    .collect();
                for k in 0..hidden {
                    let (i, f) = (sigmoid(z[k]), sigmoid(z[hidden + k]));
                    let (g, o) = (z[2 * hidden + k].tanh(), sigmoid(z[3 * hidden + k]));
                    let c_new = f * c[n * hidden + k] + i * g;
                    c[n * hidden + k] = c_new;
                    h[n * hidden + k] = o * c_new.tanh();
                    out[(n * time + t) * hidden + k] = h[n * hidden + k];
                }
            }
        }
        out
    }

    fn reverse_time(x: &[f32], (b, time, f): (usize, usize, usize)) -> Vec<f32> {
        let mut out = Vec::with_capacity(x.len());
        for n in 0..b {
            for t in (0..time).rev() {
                out.extend_from_slice(&x[(n * time + t) * f..][..f]);
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn conv_eval_is_im2col_product_scatter_bias(
            batch in 1usize..3, in_c in 1usize..4, out_c in 1usize..10, size in 5usize..11,
            kernel in 0usize..3, stride in 1usize..=2, padding in 0usize..=2,
            seed in 0u64..500,
        ) {
            let kernel = [1, 3, 5][kernel];
            let mut rng = SplitMix64::new(seed);
            let mut conv = Conv2d::square(in_c, out_c, kernel, stride, padding, &mut rng);
            for v in conv.params_mut()[1].value.data_mut() {
                *v = rng.uniform(-1.0, 1.0);
            }
            let x = random(&[batch, in_c, size, size], &mut rng);
            let got = conv.forward(&x, Mode::Eval).unwrap();

            let spec = *conv.spec();
            let cols = im2col(&x, &spec).unwrap();
            let (oh, ow) = spec.output_size(size, size).unwrap();
            let (hw, patch) = (oh * ow, spec.patch_len());
            let params = conv.params_mut();
            let (w, bias) = (params[0].value.data(), params[1].value.data());
            // Pixel row `n·hw + p` times weight row `c`, then `+ bias[c]`,
            // scattered to NCHW `(n, c, p)`.
            let mut want = vec![0.0f32; batch * out_c * hw];
            for n in 0..batch {
                for p in 0..hw {
                    let pixel = &cols.data()[(n * hw + p) * patch..][..patch];
                    for c in 0..out_c {
                        want[(n * out_c + c) * hw + p] = dot(pixel, &w[c * patch..][..patch]) + bias[c];
                    }
                }
            }
            prop_assert_eq!(got.dims(), &[batch, out_c, oh, ow]);
            prop_assert_eq!(bits(got.data()), bits(&want));
        }

        #[test]
        fn lstm_eval_is_the_per_step_loop(
            batch in 1usize..4, time in 1usize..7, feat in 1usize..14, hidden in 1usize..11,
            seed in 0u64..500,
        ) {
            let mut rng = SplitMix64::new(seed);
            let x = random(&[batch, time, feat], &mut rng);

            let mut cell = LstmCell::new(feat, hidden, &mut rng);
            let got = cell.forward_seq(&x, Mode::Eval).unwrap();
            prop_assert_eq!(bits(got.data()), bits(&lstm_steps(&x, &mut cell)));

            // The bidirectional layer: the backward cell over the
            // time-reversed input, concatenated per step.
            let mut bi = BiLstm::new(feat, hidden, &mut rng);
            let got = bi.forward_seq(&x, Mode::Eval).unwrap();
            let mut fwd = LstmCell::new(feat, hidden, &mut SplitMix64::new(0));
            let mut bwd = LstmCell::new(feat, hidden, &mut SplitMix64::new(0));
            for (dst, src) in fwd.params_mut().into_iter().chain(bwd.params_mut()).zip(bi.params_mut()) {
                dst.value = src.value.clone();
            }
            let hf = lstm_steps(&x, &mut fwd);
            let x_rev = Tensor::from_vec(reverse_time(x.data(), (batch, time, feat)), x.dims()).unwrap();
            let hb = reverse_time(&lstm_steps(&x_rev, &mut bwd), (batch, time, hidden));
            let want: Vec<f32> = hf
                .chunks(hidden)
                .zip(hb.chunks(hidden))
                .flat_map(|(f, b)| f.iter().chain(b).copied())
                .collect();
            prop_assert_eq!(bits(got.data()), bits(&want));
        }
    }
}

mod gradcheck {
    //! Property-based finite-difference gradient checks: random layer
    //! geometries and inputs, not just the fixed cases in unit tests.

    use darnet_nn::{Dense, Layer, Mode};
    use darnet_tensor::{SplitMix64, Tensor};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn dense_input_gradient_matches_fd(
            in_f in 1usize..6,
            out_f in 1usize..6,
            batch in 1usize..4,
            seed in 0u64..500,
        ) {
            let mut rng = SplitMix64::new(seed);
            let mut layer = Dense::new(in_f, out_f, &mut rng);
            let mut x = Tensor::zeros(&[batch, in_f]);
            for v in x.data_mut() { *v = rng.uniform(-1.0, 1.0); }
            layer.forward(&x, Mode::Train).unwrap();
            let dx = layer.backward(&Tensor::ones(&[batch, out_f])).unwrap();
            let eps = 1e-2f32;
            for i in 0..x.len() {
                let mut xp = x.clone();
                xp.data_mut()[i] += eps;
                let mut xm = x.clone();
                xm.data_mut()[i] -= eps;
                let yp = layer.forward(&xp, Mode::Eval).unwrap().sum();
                let ym = layer.forward(&xm, Mode::Eval).unwrap().sum();
                let fd = (yp - ym) / (2.0 * eps);
                prop_assert!(
                    (fd - dx.data()[i]).abs() < 2e-2,
                    "grad {} fd {} analytic {}", i, fd, dx.data()[i]
                );
            }
        }

        #[test]
        fn lstm_input_gradient_matches_fd(
            feat in 1usize..4,
            hidden in 1usize..4,
            time in 1usize..4,
            seed in 0u64..200,
        ) {
            use darnet_nn::LstmCell;
            let mut rng = SplitMix64::new(seed);
            let mut cell = LstmCell::new(feat, hidden, &mut rng);
            let mut x = Tensor::zeros(&[1, time, feat]);
            for v in x.data_mut() { *v = rng.uniform(-1.0, 1.0); }
            let h = cell.forward_seq(&x, Mode::Train).unwrap();
            let dx = cell.backward_seq(&Tensor::ones(h.dims())).unwrap();
            let eps = 1e-2f32;
            for i in 0..x.len() {
                let mut xp = x.clone();
                xp.data_mut()[i] += eps;
                let mut xm = x.clone();
                xm.data_mut()[i] -= eps;
                let yp = cell.forward_seq(&xp, Mode::Eval).unwrap().sum();
                let ym = cell.forward_seq(&xm, Mode::Eval).unwrap().sum();
                let fd = (yp - ym) / (2.0 * eps);
                prop_assert!(
                    (fd - dx.data()[i]).abs() < 2e-2,
                    "grad {} fd {} analytic {}", i, fd, dx.data()[i]
                );
            }
        }
    }
}
