//! Matrix multiplication kernels.
//!
//! The forward product every dense, conv and LSTM layer lowers to,
//! `a [m,k] × bᵀ`, runs on a register-tiled kernel
//! ([`matmul_transpose_b_slices_into`]); the products only backward passes
//! use keep their i-k-j loops. Every product runs inline on the calling
//! thread.

use crate::error::TensorError;
use crate::parallel::Parallelism;
use crate::tensor::Tensor;
use crate::Result;

/// Rows of `a` in one register tile.
const MR: usize = 4;
/// Rows of `b` in one register tile: the lanes of a packed panel.
const NR: usize = 8;
/// Depth of one packed panel: `KC × NR` floats, 8 KiB on the stack.
const KC: usize = 256;

/// Computes `a [m,k] × b [k,n]` into `out` (`n > 0`). i-k-j loop order:
/// the innermost loop walks both operands contiguously.
fn matmul_rows(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    for (i, c_row) in out.chunks_mut(n).enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
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

/// Computes `a [m,k] × bᵀ` (`b` stored `[n,k]`) into `out` (`n > 0`),
/// adding `row_bias[i]` to every output of row `i` when given.
///
/// Every output is `0.0 + a[i][0]·b[j][0] + … + a[i][k−1]·b[j][k−1]`, then
/// `+ bias`: one rounding per operation, `p` ascending, no fused
/// multiply-add and no skipped zero. Tiling only decides which outputs share
/// registers, so the bits do not depend on the path. Two rows or more pack
/// `b` — the operand every row reuses — into `NR`-lane k-major panels and
/// accumulate tiles of up to [`MR`] rows; the running sums rest in `out`
/// between k-blocks, which is exact. A single row would spend more packing
/// `b` than it saves, so it reads `b` in place.
fn matmul_transpose_b_rows(
    a: &[f32],
    b: &[f32],
    (k, n): (usize, usize),
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let rows = out.len() / n;
    let mut op = Operands { a, k, out, n, bias };
    let mut panel = [[0.0f32; NR]; KC];
    // `k = 0` is one empty block, so every output is still stored.
    for k0 in (0..k.max(1)).step_by(KC) {
        let kc = KC.min(k - k0);
        for j0 in (0..n).step_by(NR) {
            let nr = NR.min(n - j0);
            let block = Block {
                k0,
                kc,
                j0,
                nr,
                last: k0 + kc == k,
            };
            // Lanes past `nr` repeat the last row; their sums are never stored.
            let b_rows: [&[f32]; NR] =
                std::array::from_fn(|l| &b[(j0 + l.min(nr - 1)) * k + k0..][..kc]);
            let lane = |p: usize| std::array::from_fn(|l| b_rows[l][p]);
            if rows == 1 {
                tile::<1>(&mut op, 0, block, lane, 1);
                continue;
            }
            let panel = &mut panel[..kc];
            for (p, lanes) in panel.iter_mut().enumerate() {
                *lanes = lane(p);
            }
            let panel = |p: usize| panel[p];
            for i0 in (0..rows).step_by(MR) {
                tile::<MR>(&mut op, i0, block, panel, rows - i0);
            }
        }
    }
}

/// A product's operands: rows of `a` (`k` wide), the output rows (`n` wide)
/// and their biases.
struct Operands<'a> {
    a: &'a [f32],
    k: usize,
    out: &'a mut [f32],
    n: usize,
    bias: Option<&'a [f32]>,
}

/// What a tile covers besides its rows: k-block `k0..k0 + kc` (the `last`
/// one adds the bias) of output columns `j0..j0 + nr`.
#[derive(Clone, Copy)]
struct Block {
    k0: usize,
    kc: usize,
    j0: usize,
    nr: usize,
    last: bool,
}

/// One `R × NR` register tile at output rows `i0..i0 + R`: resumes the sums
/// an earlier k-block stored (or starts from `0.0`), adds `a[r][p] ·
/// lanes(p)[l]` for `p` ascending, and stores the `nr` valid columns.
#[inline(always)]
fn tile<const R: usize>(
    op: &mut Operands<'_>,
    i0: usize,
    block: Block,
    lanes: impl Fn(usize) -> [f32; NR],
    mr: usize,
) {
    let Block {
        k0,
        kc,
        j0,
        nr,
        last,
    } = block;
    let mr = mr.min(R);
    let a: [&[f32]; R] = std::array::from_fn(|r| &op.a[(i0 + r.min(mr - 1)) * op.k + k0..][..kc]);
    let at = |r: usize| (i0 + r) * op.n + j0;
    let mut acc = [[0.0f32; NR]; R];
    if k0 > 0 {
        for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
            acc_r[..nr].copy_from_slice(&op.out[at(r)..][..nr]);
        }
    }
    for p in 0..kc {
        let lanes = lanes(p);
        for (acc_r, a_r) in acc.iter_mut().zip(&a) {
            let x = a_r[p];
            for (c, &y) in acc_r.iter_mut().zip(&lanes) {
                *c += x * y;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(mr) {
        let dst = &mut op.out[at(r)..][..nr];
        match op.bias.filter(|_| last) {
            Some(bias) => {
                for (o, &v) in dst.iter_mut().zip(acc_r) {
                    *o = v + bias[i0 + r];
                }
            }
            None => dst.copy_from_slice(&acc_r[..nr]),
        }
    }
}

/// Computes `aᵀ × b` (`a` stored `[k,m]`, `b` `[k,n]`) into `out` (`n >
/// 0`). Accumulates over `p` in ascending order per output row, skipping
/// zero `a` entries.
fn matmul_transpose_a_rows(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
    for (col, c_row) in out.chunks_mut(n).enumerate() {
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
            matmul_rows(a, b, k, n, &mut out);
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `self [m,k] × otherᵀ` where `other` is `[n,k]` — multiplies by the
    /// transpose without materializing it. This is the product every
    /// dense, conv and LSTM forward pass lowers to, on the register-tiled
    /// kernel of [`matmul_transpose_b_slices_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_transpose_b(&self, other: &Tensor) -> Result<Tensor> {
        check_rank2(self, other)?;
        let mut out = Tensor::zeros(&[self.dims()[0], other.dims()[0]]);
        self.matmul_transpose_b_into(other, &Parallelism::serial(), &mut out)?;
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
            matmul_transpose_a_rows(a, b, k, m, n, &mut out);
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `self [m,k] × otherᵀ` into a caller-provided `[m,n]` buffer
    /// (typically a [`crate::Workspace`] checkout). Every output element is
    /// overwritten, so `out`'s prior contents are irrelevant.
    ///
    /// `_par` is not read: the product runs inline, on the kernel of
    /// [`matmul_transpose_b_slices_into`]. The parameter stays only because
    /// the frozen ledger (`benchmark/src/layers.rs`) calls this with
    /// [`Parallelism::serial`], and it goes once the ledger stops (ROADMAP
    /// item 8(g)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`], plus
    /// [`TensorError::ShapeMismatch`] if `out` is not `[m,n]`.
    // darlint: hot
    pub fn matmul_transpose_b_into(
        &self,
        other: &Tensor,
        _par: &Parallelism,
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
        matmul_transpose_b_slices_into(self.data(), other.data(), (m, k, n), None, out.data_mut())
    }
}

/// `a [m,k] × bᵀ` (`b` stored `[n,k]`) on row-major slices into `out
/// [m,n]`, adding `row_bias[i]` to every output of row `i` when given —
/// the product every layer calls ([`Tensor::matmul_transpose_b_into`] is
/// this on whole tensors). Slices let a layer multiply part of a buffer: a conv
/// computes `W [out_c, patch] × cols_nᵀ` straight into image `n`'s block of
/// its NCHW output, the LSTM a `[batch, time, in]` input as `[batch·time,
/// in]`. Every output is `0.0 + a[i][0]·b[j][0] + … ` with `p` ascending,
/// then `+ row_bias[i]`. Every output is overwritten.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] if a slice's length disagrees with `(m,
/// k, n)` (`row_bias` must hold `m` values).
// darlint: hot
pub fn matmul_transpose_b_slices_into(
    a: &[f32],
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    row_bias: Option<&[f32]>,
    out: &mut [f32],
) -> Result<()> {
    let bias_len = row_bias.map_or(m, <[f32]>::len);
    if a.len() != m * k || b.len() != n * k || out.len() != m * n || bias_len != m {
        return Err(TensorError::shape_mismatch(
            &[a.len(), b.len(), out.len(), bias_len],
            &[m * k, n * k, m * n, m],
        ));
    }
    if !out.is_empty() {
        matmul_transpose_b_rows(a, b, (k, n), row_bias, out);
    }
    Ok(())
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
        // Poison the output buffer to prove prior contents are irrelevant.
        let mut out = ws.checkout(&[12, 5]);
        out.data_mut().fill(-3.5);
        a.matmul_transpose_b_into(&bt, &Parallelism::serial(), &mut out)
            .unwrap();
        assert_eq!(out, a.matmul_transpose_b(&bt).unwrap());
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
}
