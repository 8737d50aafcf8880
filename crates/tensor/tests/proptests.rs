//! Property-based tests for tensor algebra invariants.
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]

use darnet_tensor::{
    col2im, im2col, im2col_into, matmul_transpose_b_slices_into, max_pool2d, max_pool2d_backward,
    Conv2dSpec, Parallelism, PoolSpec, SplitMix64, Tensor, TensorError,
};
use proptest::prelude::*;

/// The forward product before the register-tiled kernel, kept as its
/// reference: one dot product per output, `0.0 + a[i][0]·b[j][0] + …`
/// with `p` ascending.
fn scalar_transpose_b(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for (i, o) in out.iter_mut().enumerate() {
        let (a_row, b_row) = (&a[i / n * k..][..k], &b[i % n * k..][..k]);
        let mut acc = 0.0f32;
        for (&x, &y) in a_row.iter().zip(b_row) {
            acc += x * y;
        }
        *o = acc;
    }
    out
}

/// Mostly values in `±4`, with ±0.0 and subnormals mixed in and ±inf one
/// draw in `inf_every` (a product or sum of those makes NaN too).
fn awkward(len: usize, inf_every: u64, rng: &mut SplitMix64) -> Vec<f32> {
    const SPECIAL: [f32; 4] = [0.0, -0.0, 1e-40, -3.5e-39];
    (0..len)
        .map(|_| match rng.next_u64() {
            r if r % inf_every == 0 => [f32::INFINITY, f32::NEG_INFINITY][(r >> 32) as usize % 2],
            r if r % 8 == 1 => SPECIAL[(r >> 32) as usize % SPECIAL.len()],
            _ => rng.uniform(-4.0, 4.0),
        })
        .collect()
}

/// Bit for bit, except that any NaN matches any NaN: payloads are not part
/// of the kernel's contract.
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: output {i} is {g:e}, the scalar loop gives {w:e}"
        );
    }
}

/// Runs `matmul_transpose_b_into` and the bias path of the slice entry on
/// `(m, k, n)`, against the scalar loop.
fn check_transpose_b(m: usize, k: usize, n: usize, seed: u64) -> Result<(), TensorError> {
    let mut rng = SplitMix64::new(seed);
    let inf_every = 4 * k.max(1) as u64;
    let a = awkward(m * k, inf_every, &mut rng);
    let b = awkward(n * k, inf_every, &mut rng);
    let bias = awkward(m, inf_every, &mut rng);
    let want = scalar_transpose_b(&a, &b, (m, k, n));
    let what = format!("[{m},{k}]·[{n},{k}]ᵀ");

    let (at, bt) = (
        Tensor::from_vec(a.clone(), &[m, k])?,
        Tensor::from_vec(b.clone(), &[n, k])?,
    );
    let mut out = Tensor::full(&[m, n], f32::NAN);
    at.matmul_transpose_b_into(&bt, &Parallelism::serial(), &mut out)?;
    assert_same_bits(out.data(), &want, &what);

    let mut out = vec![f32::NAN; m * n];
    matmul_transpose_b_slices_into(&a, &b, (m, k, n), Some(&bias), &mut out)?;
    let want: Vec<f32> = want
        .iter()
        .enumerate()
        .map(|(i, &v)| v + bias[i / n])
        .collect();
    assert_same_bits(&out, &want, &format!("[{m},{k}]·[{n},{k}]ᵀ + bias"));
    Ok(())
}

#[test]
fn transpose_b_tile_edges_are_the_scalar_loop() {
    // Every row remainder of the 4-row tile and lane remainder of the
    // 8-lane panel, the one-row product included, with k inside one
    // k-block and across two (the panel is 256 deep).
    for m in 1..=9 {
        for n in 1..=17 {
            for k in [1, 5, 257] {
                check_transpose_b(m, k, n, (m * 31 + n * 7 + k) as u64).unwrap();
            }
        }
    }
}

fn tensor_strategy(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..max_len)
}

fn random_tensor(dims: &[usize], rng: &mut SplitMix64) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = rng.uniform(-2.0, 2.0);
    }
    t
}

proptest! {
    #[test]
    fn addition_commutes(data in tensor_strategy(64)) {
        let n = data.len();
        let a = Tensor::from_vec(data.clone(), &[n]).unwrap();
        let b = a.map(|v| v * 0.5 - 1.0);
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }

    #[test]
    fn scale_distributes_over_addition(data in tensor_strategy(64), s in -10.0f32..10.0) {
        let n = data.len();
        let a = Tensor::from_vec(data, &[n]).unwrap();
        let b = a.map(|v| v.sin());
        let lhs = a.add(&b).unwrap().scale(s);
        let rhs = a.scale(s).add(&b.scale(s)).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() <= 1e-3 + 1e-4 * x.abs());
        }
    }

    #[test]
    fn identity_matmul_is_neutral(rows in 1usize..8, cols in 1usize..8, seed in 0u64..1000) {
        let mut rng = SplitMix64::new(seed);
        let mut a = Tensor::zeros(&[rows, cols]);
        for v in a.data_mut() { *v = rng.uniform(-5.0, 5.0); }
        let out = a.matmul(&Tensor::eye(cols)).unwrap();
        prop_assert_eq!(out, a);
    }

    #[test]
    fn transpose_is_involution(rows in 1usize..10, cols in 1usize..10, seed in 0u64..1000) {
        let mut rng = SplitMix64::new(seed);
        let mut a = Tensor::zeros(&[rows, cols]);
        for v in a.data_mut() { *v = rng.uniform(-5.0, 5.0); }
        prop_assert_eq!(a.transpose2d().unwrap().transpose2d().unwrap(), a);
    }

    #[test]
    fn concat_split_roundtrip(outer in 1usize..4, a in 1usize..4, b in 1usize..4, inner in 1usize..4) {
        let ta = Tensor::full(&[outer, a, inner], 1.0);
        let tb = Tensor::full(&[outer, b, inner], 2.0);
        let cat = Tensor::concat(&[&ta, &tb], 1).unwrap();
        let parts = cat.split(1, &[a, b]).unwrap();
        prop_assert_eq!(&parts[0], &ta);
        prop_assert_eq!(&parts[1], &tb);
    }

    #[test]
    fn sum_is_linear(data in tensor_strategy(64), s in -4.0f32..4.0) {
        let n = data.len();
        let a = Tensor::from_vec(data, &[n]).unwrap();
        let scaled_sum = a.scale(s).sum();
        prop_assert!((scaled_sum - s * a.sum()).abs() < 1e-2 * (1.0 + scaled_sum.abs()));
    }

    #[test]
    fn im2col_col2im_adjoint(seed in 0u64..200, h in 3usize..7, w in 3usize..7) {
        let spec = Conv2dSpec::square(2, 1, 3, 1, 1);
        let mut rng = SplitMix64::new(seed);
        let mut x = Tensor::zeros(&[1, 2, h, w]);
        for v in x.data_mut() { *v = rng.uniform(-1.0, 1.0); }
        let cols = im2col(&x, &spec).unwrap();
        let mut y = Tensor::zeros(cols.dims());
        for v in y.data_mut() { *v = rng.uniform(-1.0, 1.0); }
        let lhs: f32 = cols.mul(&y).unwrap().sum();
        let back = col2im(&y, &spec, 1, h, w).unwrap();
        let rhs: f32 = x.mul(&back).unwrap().sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn argmax_points_at_max(data in tensor_strategy(64)) {
        let n = data.len();
        let a = Tensor::from_vec(data, &[n]).unwrap();
        let idx = a.argmax().unwrap();
        prop_assert_eq!(a.data()[idx], a.max());
    }

    #[test]
    fn serde_roundtrip(data in tensor_strategy(32)) {
        let n = data.len();
        let a = Tensor::from_vec(data, &[n]).unwrap();
        // serde_json is unavailable offline; roundtrip through the data
        // accessor instead, which is the serialization contract.
        let b = Tensor::from_vec(a.data().to_vec(), a.dims()).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn transpose_b_into_is_bitwise_allocating(
        m in 1usize..7, k in 1usize..7, n in 1usize..7, seed in 0u64..500,
    ) {
        use darnet_tensor::Workspace;
        let mut rng = SplitMix64::new(seed);
        let a = random_tensor(&[m, k], &mut rng);
        let bt = random_tensor(&[n, k], &mut rng);
        let mut ws = Workspace::new();

        let mut out = ws.checkout(&[m, n]);
        out.data_mut().fill(f32::NAN); // stale garbage must not survive
        a.matmul_transpose_b_into(&bt, &Parallelism::serial(), &mut out).unwrap();
        prop_assert_eq!(&out, &a.matmul_transpose_b(&bt).unwrap());
        ws.restore(out);
    }

    #[test]
    fn transpose_b_into_is_the_scalar_loop(
        m in 0usize..=40, k in 0usize..=40, n in 0usize..=40, long_k in 0usize..4,
        seed in 0u64..1000,
    ) {
        // One case in four runs k past one k-block (256).
        let k = if long_k == 0 { 250 + 7 * k } else { k };
        check_transpose_b(m, k, n, seed).unwrap();
    }

    #[test]
    fn im2col_is_the_gather(
        b in 1usize..3, c in 1usize..4, h in 1usize..9, w in 1usize..9,
        kh in 1usize..6, kw in 1usize..6, stride in 1usize..4, padding in 0usize..3,
        seed in 0u64..500,
    ) {
        let spec = Conv2dSpec { in_channels: c, out_channels: 1, kernel_h: kh, kernel_w: kw, stride, padding };
        let (h, w) = (h.max(kh), w.max(kw));
        let mut rng = SplitMix64::new(seed);
        let x = random_tensor(&[b, c, h, w], &mut rng);
        let (oh, ow) = spec.output_size(h, w).unwrap();
        let mut cols = Tensor::full(&[b * oh * ow, spec.patch_len()], f32::NAN);
        im2col_into(&x, &spec, &Parallelism::serial(), &mut cols).unwrap();
        // Patch row `(n, oy, ox)`, column `(ch, ky, kx)` reads input
        // `(n, ch, oy·s + ky − pad, ox·s + kx − pad)`, or 0.0 off the edge.
        let mut want = Vec::with_capacity(cols.len());
        for n in 0..b { for oy in 0..oh { for ox in 0..ow {
            for ch in 0..c { for ky in 0..kh { for kx in 0..kw {
                let (y, xx) = ((oy * stride + ky) as isize - padding as isize,
                               (ox * stride + kx) as isize - padding as isize);
                let inside = (0..h as isize).contains(&y) && (0..w as isize).contains(&xx);
                want.push(if inside {
                    x.data()[((n * c + ch) * h + y as usize) * w + xx as usize]
                } else {
                    0.0
                });
            }}}
        }}}
        prop_assert_eq!(cols.data(), &want[..]);
    }

    #[test]
    fn max_pool_is_the_first_maximum_of_its_own_window(
        b in 1usize..3, c in 1usize..4, h in 1usize..9, w in 1usize..9,
        window in 1usize..4, stride in 1usize..4,
        inf_every in 2u64..8, nan_every in 3u64..60, dead_plane in 0usize..8,
        seed in 0u64..1000,
    ) {
        let (h, w, planes) = (h.max(window), w.max(window), b * c);
        let spec = PoolSpec::new(window, stride);
        let mut rng = SplitMix64::new(seed);
        let mut data = awkward(planes * h * w, inf_every, &mut rng);
        // From 40 on the input holds no NaN, and the kernel takes its
        // other comparison.
        for v in data.iter_mut().filter(|_| nan_every < 40) {
            if rng.next_u64().is_multiple_of(nan_every) {
                *v = f32::NAN;
            }
        }
        // Now and then a whole plane at −∞, whose windows all tie.
        if dead_plane < planes {
            data[dead_plane * h * w..][..h * w].fill(f32::NEG_INFINITY);
        }
        let x = Tensor::from_vec(data, &[b, c, h, w]).unwrap();
        let (out, arg) = max_pool2d(&x, &spec).unwrap();
        let (oh, ow) = spec.output_size(h, w).unwrap();
        // The scalar reference: a window's first NaN, else its first
        // element no other exceeds.
        let mut want = Vec::with_capacity(out.len());
        for plane in 0..planes { for oy in 0..oh { for ox in 0..ow {
            let o = (plane * oh + oy) * ow + ox;
            let cells: Vec<usize> = (0..window * window)
                .map(|i| (plane * h + oy * stride + i / window) * w + ox * stride + i % window)
                .collect();
            prop_assert!(cells.contains(&arg[o]), "output {} argmax {} left its window", o, arg[o]);
            let v = |i: usize| x.data()[i];
            let first = cells.iter().copied().find(|&i| v(i).is_nan())
                .or_else(|| cells.iter().copied().find(|&i| cells.iter().all(|&j| v(j) <= v(i))));
            prop_assert_eq!(Some(arg[o]), first);
            want.push(v(arg[o]));
        }}}
        assert_same_bits(out.data(), &want, "max pool");
        // Backward routes each plane's gradient into that plane only.
        let gin = max_pool2d_backward(&Tensor::ones(out.dims()), &arg, x.dims()).unwrap();
        for (plane, g) in gin.data().chunks(h * w).enumerate() {
            prop_assert_eq!(g.iter().sum::<f32>(), (oh * ow) as f32, "plane {}", plane);
        }
    }

    #[test]
    fn workspace_reuse_never_leaks_stale_data(
        shapes in prop::collection::vec((1usize..6, 1usize..6), 3..8),
        rounds in 2usize..5,
    ) {
        use darnet_tensor::Workspace;
        let mut ws = Workspace::new();
        // Cycle through several different shapes, dirtying every buffer
        // before restoring it: each checkout must come back zero-filled.
        for _ in 0..rounds {
            for &(r, c) in &shapes {
                let mut t = ws.checkout(&[r, c]);
                prop_assert_eq!(t.dims(), &[r, c]);
                prop_assert!(t.data().iter().all(|&v| v == 0.0),
                    "stale data leaked into a checkout");
                t.data_mut().fill(f32::NAN);
                ws.restore(t);
            }
        }
        // Warm steady state: a second identical pass allocates nothing new.
        let misses = ws.cold_misses();
        for &(r, c) in &shapes {
            let t = ws.checkout(&[r, c]);
            ws.restore(t);
        }
        prop_assert_eq!(ws.cold_misses(), misses);
    }
}
