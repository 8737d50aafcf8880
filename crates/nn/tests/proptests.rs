//! Property-based tests for network invariants.
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]

use darnet_nn::{l2_distill_loss, softmax, softmax_cross_entropy, Layer, Mode, Relu};
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
        let shifted = logits.map(|v| v + shift);
        let p1 = softmax(&logits).unwrap();
        let p2 = softmax(&shifted).unwrap();
        for (a, z) in p1.data().iter().zip(p2.data()) {
            prop_assert!((a - z).abs() < 1e-4);
        }
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
        let b = a.map(|v| v + 1.0);
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
    //! NCHW straight from the product, packed its panels from the input and
    //! the LSTM batched its input projection, bit for bit: one
    //! `p`-ascending dot product per output. Eval max pooling against the
    //! kernel that records its argmax.

    use darnet_nn::{BiLstm, Conv2d, Layer, LstmCell, MaxPool2d, Mode};
    use darnet_tensor::{
        im2col_into, max_pool2d_into, Parallelism, PoolSpec, SplitMix64, Tensor, Workspace,
    };
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
    #[expect(
        clippy::disallowed_methods,
        reason = "platform libm's tanh is the reference the LSTM's tanh port is held to"
    )]
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

    /// [`bits`] with every NaN as one value: which NaN payload a product
    /// or sum of two NaNs keeps is not part of the kernel's contract.
    fn nan_as_one(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// Mostly values in `±1.5`, with ±0.0 and subnormals mixed in, ±inf one
    /// draw in `inf_every` and, when given, NaN one draw in `nan_every`.
    fn awkward(
        len: usize,
        inf_every: u64,
        nan_every: Option<u64>,
        rng: &mut SplitMix64,
    ) -> Vec<f32> {
        const SPECIAL: [f32; 4] = [0.0, -0.0, 1e-40, -3.5e-39];
        (0..len)
            .map(|_| match rng.next_u64() {
                r if nan_every.is_some_and(|every| r % every == 3) => f32::NAN,
                r if r % inf_every == 0 => {
                    [f32::INFINITY, f32::NEG_INFINITY][(r >> 32) as usize % 2]
                }
                r if r % 8 == 1 => SPECIAL[(r >> 32) as usize % SPECIAL.len()],
                _ => rng.uniform(-1.5, 1.5),
            })
            .collect()
    }

    /// A cell packs `W_h` per call, so a weight update between two calls on
    /// one warm workspace shows in the second: its output is the per-step
    /// loop's on the new weights, in both modes, at batch 1 (no panels) and
    /// at batch 4.
    #[test]
    fn lstm_panels_follow_a_weight_update() {
        let mut rng = SplitMix64::new(21);
        for (batch, mode) in [(4, Mode::Eval), (4, Mode::Train), (1, Mode::Eval)] {
            let x = random(&[batch, 6, 5], &mut rng);
            let mut cell = LstmCell::new(5, 9, &mut rng);
            let mut ws = Workspace::new();
            let before = cell.forward_seq_into(&x, mode, &mut ws).unwrap();
            let before = bits(before.data());
            let w_h = random(&[36, 9], &mut rng);
            cell.params_mut()[1]
                .value
                .data_mut()
                .copy_from_slice(w_h.data());
            let after = cell.forward_seq_into(&x, mode, &mut ws).unwrap();
            let want = bits(&lstm_steps(&x, &mut cell));
            assert_eq!(bits(after.data()), want, "batch {batch}, {mode:?}");
            assert_ne!(before, want, "batch {batch}: the update changed nothing");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn conv_eval_is_im2col_product_scatter_bias(
            batch in 1usize..3, in_c in 1usize..=12, out_c in 1usize..10, size in 5usize..11,
            kernel in 0usize..3, stride in 1usize..=2, padding in 0usize..=2,
            deep in 0usize..4, wide in 0usize..3, nan_every in 2u64..8, seed in 0u64..500,
        ) {
            // One case in four is a 5×5 kernel over 11–12 channels: a
            // patch of 275–300, past one 256-deep k-block. One in three
            // is 21–26 pixels wide, so that at stride 1 an output row holds
            // a 16-column block and an 8-column tail or a part-filled
            // 16-column block.
            let size = if wide == 0 { size + 16 } else { size };
            let (kernel, in_c) = if deep == 0 { (5, 11 + in_c % 2) } else { ([1, 3, 5][kernel], in_c) };
            let mut rng = SplitMix64::new(seed);
            let mut conv = Conv2d::square(in_c, out_c, kernel, stride, padding, &mut rng);
            let spec = *conv.spec();
            let patch = spec.patch_len();
            // About one non-finite value per four patches; NaN in some cases only.
            let every = 4 * patch as u64;
            let nan_every = (nan_every < 6).then_some(nan_every * every);
            for p in conv.params_mut() {
                let fresh = awkward(p.value.len(), every, nan_every, &mut rng);
                p.value.data_mut().copy_from_slice(&fresh);
            }
            let x = Tensor::from_vec(
                awkward(batch * in_c * size * size, every, nan_every, &mut rng),
                &[batch, in_c, size, size],
            ).unwrap();
            let got = conv.forward(&x, Mode::Eval).unwrap();

            let (oh, ow) = spec.output_size(size, size).unwrap();
            let hw = oh * ow;
            let mut cols = Tensor::zeros(&[batch * hw, patch]);
            im2col_into(&x, &spec, &Parallelism::serial(), &mut cols).unwrap();
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
            prop_assert_eq!(nan_as_one(got.data()), nan_as_one(&want));

            // Train runs the same forward, and caches the patch matrix
            // `cols`: its weight gradient is `dyᵀ × cols` for the
            // pixel-major `dy`.
            let train = conv.forward(&x, Mode::Train).unwrap();
            prop_assert_eq!(bits(train.data()), bits(got.data()));
            let dy = random(&[batch, out_c, oh, ow], &mut rng);
            conv.backward(&dy).unwrap();
            let mut dy_pixels = vec![0.0f32; batch * hw * out_c];
            for n in 0..batch {
                for c in 0..out_c {
                    for p in 0..hw {
                        dy_pixels[(n * hw + p) * out_c + c] = dy.data()[(n * out_c + c) * hw + p];
                    }
                }
            }
            let dy_pixels = Tensor::from_vec(dy_pixels, &[batch * hw, out_c]).unwrap();
            let mut dw = Tensor::zeros(&[out_c, patch]);
            dw.add_assign(&dy_pixels.matmul_transpose_a(&cols).unwrap()).unwrap();
            prop_assert_eq!(nan_as_one(conv.params_mut()[0].grad.data()), nan_as_one(dw.data()));
        }

        #[test]
        fn max_pool_eval_is_the_argmax_kernel(
            batch in 1usize..3, c in 1usize..4, h in 3usize..12, w in 3usize..12,
            window in 2usize..=3, stride in 1usize..=2, nan_every in 2u64..40, seed in 0u64..500,
        ) {
            // −∞, ±0.0 and NaN among ordinary values: a window's first
            // maximum wins, so `[+0.0, −0.0]` pools to `+0.0` and
            // `[−0.0, +0.0]` to `−0.0`, and a NaN wins and sticks.
            let mut rng = SplitMix64::new(seed);
            let data: Vec<f32> = (0..batch * c * h * w)
                .map(|_| match rng.next_u64() % nan_every.max(8) {
                    0 if nan_every < 20 => f32::NAN,
                    1 => f32::NEG_INFINITY,
                    2..=4 => 0.0,
                    5..=7 => -0.0,
                    _ => rng.uniform(-1.0, 1.0),
                })
                .collect();
            let x = Tensor::from_vec(data, &[batch, c, h, w]).unwrap();
            let spec = PoolSpec::new(window, stride);
            let (oh, ow) = spec.output_size(h, w).unwrap();
            let mut want = Tensor::zeros(&[batch, c, oh, ow]);
            max_pool2d_into(&x, &spec, &mut want, Some(&mut Vec::new())).unwrap();
            let mut pool = MaxPool2d::new(window, stride);
            let eval = pool.forward(&x, Mode::Eval).unwrap();
            prop_assert_eq!(bits(eval.data()), bits(want.data()));
            let train = pool.forward(&x, Mode::Train).unwrap();
            prop_assert_eq!(bits(train.data()), bits(want.data()));
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
