//! Property-based tests for tensor algebra invariants.

use darnet_tensor::{
    avg_pool2d, avg_pool2d_with, col2im, im2col, im2col_with, max_pool2d, max_pool2d_with,
    Conv2dSpec, Parallelism, PoolSpec, SplitMix64, Tensor,
};
use proptest::prelude::*;

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

/// A handle that always fans out: `min_work(1)` defeats the serial
/// fallback so even tiny proptest shapes exercise the threaded path.
fn forced(threads: usize) -> Parallelism {
    Parallelism::new(threads).with_min_work(1)
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
    fn parallel_matmul_is_bitwise_serial(
        m in 1usize..12, k in 1usize..12, n in 1usize..12,
        threads in 2usize..9, seed in 0u64..500,
    ) {
        let mut rng = SplitMix64::new(seed);
        let a = random_tensor(&[m, k], &mut rng);
        let b = random_tensor(&[k, n], &mut rng);
        let par = forced(threads);
        prop_assert_eq!(
            a.matmul_with(&b, &par).unwrap(),
            a.matmul(&b).unwrap()
        );
        let bt = random_tensor(&[n, k], &mut rng);
        prop_assert_eq!(
            a.matmul_transpose_b_with(&bt, &par).unwrap(),
            a.matmul_transpose_b(&bt).unwrap()
        );
        let at = random_tensor(&[k, m], &mut rng);
        prop_assert_eq!(
            at.matmul_transpose_a_with(&b, &par).unwrap(),
            at.matmul_transpose_a(&b).unwrap()
        );
    }

    #[test]
    fn parallel_im2col_is_bitwise_serial(
        b in 1usize..3, c in 1usize..3, h in 3usize..8, w in 3usize..8,
        kernel in 1usize..4, threads in 2usize..9, seed in 0u64..500,
    ) {
        let spec = Conv2dSpec::square(c, 1, kernel, 1, kernel / 2);
        let mut rng = SplitMix64::new(seed);
        let x = random_tensor(&[b, c, h, w], &mut rng);
        prop_assert_eq!(
            im2col_with(&x, &spec, &forced(threads)).unwrap(),
            im2col(&x, &spec).unwrap()
        );
    }

    #[test]
    fn parallel_pooling_is_bitwise_serial(
        b in 1usize..3, c in 1usize..4, h in 2usize..9, w in 2usize..9,
        window in 2usize..4, stride in 1usize..3,
        threads in 2usize..9, seed in 0u64..500,
    ) {
        let window = window.min(h).min(w);
        let spec = PoolSpec::new(window, stride);
        let mut rng = SplitMix64::new(seed);
        let x = random_tensor(&[b, c, h, w], &mut rng);
        let par = forced(threads);
        let (out_p, arg_p) = max_pool2d_with(&x, &spec, &par).unwrap();
        let (out_s, arg_s) = max_pool2d(&x, &spec).unwrap();
        prop_assert_eq!(out_p, out_s);
        prop_assert_eq!(arg_p, arg_s);
        prop_assert_eq!(
            avg_pool2d_with(&x, &spec, &par).unwrap(),
            avg_pool2d(&x, &spec).unwrap()
        );
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
        m in 1usize..7, k in 1usize..7, n in 1usize..7,
        threads in 1usize..6, seed in 0u64..500,
    ) {
        use darnet_tensor::Workspace;
        let mut rng = SplitMix64::new(seed);
        let a = random_tensor(&[m, k], &mut rng);
        let bt = random_tensor(&[n, k], &mut rng);
        let par = forced(threads);
        let mut ws = Workspace::new();

        let mut out = ws.checkout(&[m, n]);
        out.data_mut().fill(f32::NAN); // stale garbage must not survive
        a.matmul_transpose_b_into(&bt, &par, &mut out).unwrap();
        prop_assert_eq!(&out, &a.matmul_transpose_b_with(&bt, &par).unwrap());
        ws.restore(out);
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
