//! Matrix multiplication kernels.
//!
//! Each product is implemented as a per-output-row kernel shared by the
//! serial entry points and the [`Parallelism`]-aware `_with` variants, so
//! parallel execution is bitwise identical to serial: a thread count only
//! changes *which thread* computes a row, never the arithmetic inside it.

use crate::error::TensorError;
use crate::parallel::Parallelism;
use crate::tensor::Tensor;
use crate::Result;

/// Computes output rows `row0..` of `a [m,k] × b [k,n]` into `chunk`.
/// i-k-j loop order: the innermost loop walks both operands contiguously.
fn matmul_rows(a: &[f32], b: &[f32], k: usize, n: usize, row0: usize, chunk: &mut [f32]) {
    for (i, c_row) in chunk.chunks_mut(n).enumerate() {
        let a_row = &a[(row0 + i) * k..(row0 + i + 1) * k];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c, &b_pj) in c_row.iter_mut().zip(b_row) {
                *c += a_ip * b_pj;
            }
        }
    }
}

/// Computes output rows `row0..` of `a [m,k] × bᵀ` (`b` stored `[n,k]`) into
/// `chunk` as row-by-row dot products.
fn matmul_transpose_b_rows(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    chunk: &mut [f32],
) {
    for (i, c_row) in chunk.chunks_mut(n).enumerate() {
        let a_row = &a[(row0 + i) * k..(row0 + i + 1) * k];
        for (j, c) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *c = acc;
        }
    }
}

/// Computes output rows `row0..` of `aᵀ × b` (`a` stored `[k,m]`, `b`
/// `[k,n]`) into `chunk`. Accumulates over `p` in ascending order per output
/// row, skipping zero `a` entries — the same element-wise accumulation order
/// for every dispatch strategy.
fn matmul_transpose_a_rows(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    row0: usize,
    chunk: &mut [f32],
) {
    for (i, c_row) in chunk.chunks_mut(n).enumerate() {
        let col = row0 + i;
        for p in 0..k {
            let a_pi = a[p * m + col];
            if a_pi == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c, &b_pj) in c_row.iter_mut().zip(b_row) {
                *c += a_pi * b_pj;
            }
        }
    }
}

fn check_rank2(a: &Tensor, b: &Tensor) -> Result<()> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if a.rank() != 2 { a.rank() } else { b.rank() },
        });
    }
    Ok(())
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `self [m,k] × other [k,n] →
    /// [m,n]`.
    ///
    /// Uses an i-k-j loop order so the innermost loop walks both operands
    /// contiguously — substantially faster than the naive i-j-k order on
    /// row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not rank 2
    /// or [`TensorError::MatmulDimMismatch`] if the inner dimensions differ.
    ///
    /// ```
    /// use darnet_tensor::Tensor;
    ///
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&b)?.data(), &[19.0, 22.0, 43.0, 50.0]);
    /// # Ok::<(), darnet_tensor::TensorError>(())
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_with(other, &Parallelism::serial())
    }

    /// [`Tensor::matmul`] with a parallel execution policy. Output rows are
    /// chunked across scoped threads; results are bitwise identical to the
    /// serial product.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_with(&self, other: &Tensor, par: &Parallelism) -> Result<Tensor> {
        check_rank2(self, other)?;
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let a = self.data();
        let b = other.data();
        let mut out = vec![0.0f32; m * n];
        if n > 0 {
            par.run_rows(&mut out, n, k * n, |row0, chunk| {
                matmul_rows(a, b, k, n, row0, chunk)
            });
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `self [m,k] × otherᵀ` where `other` is `[n,k]` — multiplies by the
    /// transpose without materializing it. This is the hot path in dense
    /// layer backward passes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_transpose_b(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_transpose_b_with(other, &Parallelism::serial())
    }

    /// [`Tensor::matmul_transpose_b`] with a parallel execution policy;
    /// bitwise identical to the serial product. Allocates the `[m,n]`
    /// output and calls [`Tensor::matmul_transpose_b_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_transpose_b_with(&self, other: &Tensor, par: &Parallelism) -> Result<Tensor> {
        check_rank2(self, other)?;
        let mut out = Tensor::zeros(&[self.dims()[0], other.dims()[0]]);
        self.matmul_transpose_b_into(other, par, &mut out)?;
        Ok(out)
    }

    /// `selfᵀ × other` where `self` is `[k,m]` and `other` is `[k,n]` —
    /// multiplies by the transpose of `self` without materializing it. This
    /// computes weight gradients (`xᵀ · dy`) in dense layers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_transpose_a(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_transpose_a_with(other, &Parallelism::serial())
    }

    /// [`Tensor::matmul_transpose_a`] with a parallel execution policy;
    /// bitwise identical to the serial product.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_transpose_a_with(&self, other: &Tensor, par: &Parallelism) -> Result<Tensor> {
        check_rank2(self, other)?;
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let a = self.data();
        let b = other.data();
        let mut out = vec![0.0f32; m * n];
        if n > 0 {
            par.run_rows(&mut out, n, k * n, |row0, chunk| {
                matmul_transpose_a_rows(a, b, k, m, n, row0, chunk)
            });
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `self [m,k] × otherᵀ` into a caller-provided `[m,n]` buffer
    /// (typically a [`crate::Workspace`] checkout) — the one body of this
    /// product. Every output element is overwritten, so `out`'s prior
    /// contents are irrelevant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`], plus
    /// [`TensorError::ShapeMismatch`] if `out` is not `[m,n]`.
    // darlint: hot
    pub fn matmul_transpose_b_into(
        &self,
        other: &Tensor,
        par: &Parallelism,
        out: &mut Tensor,
    ) -> Result<()> {
        check_rank2(self, other)?;
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let n = other.dims()[0];
        if k != other.dims()[1] {
            return Err(TensorError::matmul_dim_mismatch(self.dims(), other.dims()));
        }
        if out.dims() != [m, n] {
            return Err(TensorError::shape_mismatch(out.dims(), &[m, n]));
        }
        let a = self.data();
        let b = other.data();
        if n > 0 {
            par.run_rows(out.data_mut(), n, k * n, |row0, chunk| {
                matmul_transpose_b_rows(a, b, k, n, row0, chunk)
            });
        }
        Ok(())
    }

    /// Matrix–vector product: `self [m,k] × v [k] → [m]`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank or dimension mismatch.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        if v.rank() != 1 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: v.rank(),
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        if v.len() != k {
            return Err(TensorError::MatmulDimMismatch {
                left: self.dims().to_vec(),
                right: v.dims().to_vec(),
            });
        }
        let a = self.data();
        let x = v.data();
        let mut out = vec![0.0f32; m];
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            let mut acc = 0.0f32;
            for (&w, &xv) in row.iter().zip(x) {
                acc += w * xv;
            }
            out[i] = acc;
        }
        Tensor::from_vec(out, &[m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_matches_hand_computed() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[3, 3]).unwrap();
        assert_eq!(a.matmul(&Tensor::eye(3)).unwrap(), a);
        assert_eq!(Tensor::eye(3).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32 * 0.5).collect(), &[2, 3]).unwrap();
        let b =
            Tensor::from_vec((0..12).map(|v| v as f32 * 0.25 - 1.0).collect(), &[4, 3]).unwrap();
        // a [2,3] x b^T [3,4] = [2,4]
        let via_t = a.matmul(&b.transpose2d().unwrap()).unwrap();
        let direct = a.matmul_transpose_b(&b).unwrap();
        assert_eq!(via_t, direct);

        let c = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 4]).unwrap();
        // a^T [3,2] x c [2,4] = [3,4]
        let via_t2 = a.transpose2d().unwrap().matmul(&c).unwrap();
        let direct2 = a.matmul_transpose_a(&c).unwrap();
        assert_eq!(via_t2, direct2);
    }

    #[test]
    fn optimized_matmul_matches_naive_on_larger_input() {
        let a = Tensor::from_vec(
            (0..20 * 17).map(|v| ((v * 31) % 13) as f32 - 6.0).collect(),
            &[20, 17],
        )
        .unwrap();
        let b = Tensor::from_vec(
            (0..17 * 9).map(|v| ((v * 7) % 11) as f32 - 5.0).collect(),
            &[17, 9],
        )
        .unwrap();
        let fast = a.matmul(&b).unwrap();
        let slow = naive_matmul(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let v = Tensor::from_slice(&[1.0, 0.5, -1.0]);
        let direct = a.matvec(&v).unwrap();
        assert_eq!(direct.data(), &[0.5 - 2.0, 3.0 + 2.0 - 5.0]);
    }

    #[test]
    fn transpose_b_into_matches_allocating_and_ignores_stale_contents() {
        use crate::workspace::Workspace;
        let a = Tensor::from_vec(
            (0..12 * 7)
                .map(|v| ((v * 13) % 9) as f32 * 0.4 - 1.0)
                .collect(),
            &[12, 7],
        )
        .unwrap();
        let bt = Tensor::from_vec(
            (0..5 * 7)
                .map(|v| ((v * 23) % 13) as f32 * 0.3 - 1.2)
                .collect(),
            &[5, 7],
        )
        .unwrap();
        let mut ws = Workspace::new();
        for threads in [1, 3] {
            let par = Parallelism::new(threads).with_min_work(1);
            // Poison the output buffer to prove prior contents are
            // irrelevant.
            let mut out = ws.checkout(&[12, 5]);
            out.data_mut().fill(-3.5);
            a.matmul_transpose_b_into(&bt, &par, &mut out).unwrap();
            assert_eq!(out, a.matmul_transpose_b_with(&bt, &par).unwrap());
            ws.restore(out);
        }
    }

    #[test]
    fn transpose_b_into_rejects_a_bad_output_shape() {
        let a = Tensor::zeros(&[3, 4]);
        let mut bad = Tensor::zeros(&[3, 3]);
        let bt = Tensor::zeros(&[2, 4]);
        assert!(a
            .matmul_transpose_b_into(&bt, &Parallelism::serial(), &mut bad)
            .is_err());
    }

    #[test]
    fn parallel_products_are_bitwise_serial() {
        let a = Tensor::from_vec(
            (0..48 * 33)
                .map(|v| ((v * 37) % 19) as f32 * 0.31 - 2.0)
                .collect(),
            &[48, 33],
        )
        .unwrap();
        let b = Tensor::from_vec(
            (0..33 * 21)
                .map(|v| ((v * 11) % 23) as f32 * 0.17 - 1.5)
                .collect(),
            &[33, 21],
        )
        .unwrap();
        let bt = Tensor::from_vec(
            (0..21 * 33)
                .map(|v| ((v * 29) % 13) as f32 * 0.09 - 0.5)
                .collect(),
            &[21, 33],
        )
        .unwrap();
        let at = Tensor::from_vec(
            (0..48 * 21)
                .map(|v| ((v * 41) % 17) as f32 * 0.23 - 1.0)
                .collect(),
            &[48, 21],
        )
        .unwrap();
        for threads in [2, 3, 5, 8] {
            let par = Parallelism::new(threads).with_min_work(1);
            assert_eq!(a.matmul(&b).unwrap(), a.matmul_with(&b, &par).unwrap());
            assert_eq!(
                a.matmul_transpose_b(&bt).unwrap(),
                a.matmul_transpose_b_with(&bt, &par).unwrap()
            );
            assert_eq!(
                a.matmul_transpose_a(&at).unwrap(),
                a.matmul_transpose_a_with(&at, &par).unwrap()
            );
        }
    }
}
