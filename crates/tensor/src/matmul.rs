//! Matrix multiplication kernels.
//!
//! The forward product every dense, conv and LSTM layer lowers to,
//! `a [m,k] × bᵀ`, runs on a register-tiled kernel
//! ([`matmul_transpose_b_slices_into`]). A conv runs the same tile with its
//! lanes read in place from a zero-ringed image ([`crate::conv2d_into`]),
//! and a `b` that many products reuse can be packed once ([`PackedB`],
//! [`matmul_transpose_b_packed_into`]). The products only backward passes
//! use keep their i-k-j loops. Every product runs inline on the calling
//! thread.

use crate::error::TensorError;
use crate::parallel::Parallelism;
use crate::tensor::Tensor;
use crate::Result;

/// Output columns (lanes of a packed panel) of a register tile while more
/// than [`NR_TAIL`] of a row's remain. Its rows, `MR`, are a `const` each
/// copy of a dispatched entry point sets ([`crate::avx2_dispatch`]).
pub(crate) const NR: usize = 16;
/// Output columns of the tile for a row's last 8 or fewer, and of the
/// one-row product's.
pub(crate) const NR_TAIL: usize = 8;
/// Depth of one packed panel: at most `KC × NR` floats, 16 KiB.
pub(crate) const KC: usize = 256;

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

/// Where a packed product's panels come from: filled from `b [n,k]` block
/// by block, or read from a set [`PackedB::pack`] built once.
#[derive(Clone, Copy)]
enum Panels<'a> {
    Fill(&'a [f32]),
    Prebuilt(&'a [f32]),
}

/// The packed product `a × bᵀ` over `(k, n)`, with bias and output
/// (`out.len() > 0`): the one tile loop, with each block's panel row `p`
/// (operand `b`'s rows `block.j0..` at depth `block.k0 + p`, one lane
/// each) taken from `panels`. A panel is multiplied by every row of `a`;
/// the arithmetic, and so every bit, is the unpacked product's. Text, not
/// a function, so that each build of an entry point compiles its closure
/// with that build's target features and `MR` (DESIGN §11.5).
macro_rules! packed_rows {
    ($a:expr, ($k:expr, $n:expr), $bias:expr, $out:expr, $panels:expr) => {{
        let (k, n, panels) = ($k, $n, $panels);
        let mut op = Operands {
            a: $a,
            k,
            out: $out,
            n,
            bias: $bias,
        };
        let mut fill = [0.0f32; KC * NR];
        let mut at = 0;
        for_each_block(k, n, n, NR, |block| {
            let len = block.kc * block.width;
            let panel: &[f32] = match panels {
                Panels::Fill(b) => {
                    pack_block(b, k, block, &mut fill[..len]);
                    &fill[..len]
                }
                Panels::Prebuilt(set) => {
                    at += len;
                    &set[at - len..at]
                }
            };
            by_width!(block, |W| rows_by_block::<MR, W>(&mut op, block, |p| {
                lanes_at(&panel[p * W..])
            }));
        });
    }};
}

/// Evaluates `$run`, an expression over a `const $w`, with `$w` the width
/// of `block`'s tile: written once for [`NR`], once for [`NR_TAIL`]. Text,
/// so that `$run`'s closures compile in the calling build (DESIGN §11.5).
macro_rules! by_width {
    ($block:expr, |$w:ident| $run:expr) => {
        if $block.width == NR {
            const $w: usize = NR;
            $run
        } else {
            const $w: usize = NR_TAIL;
            $run
        }
    };
}
pub(crate) use by_width;

/// The first `W` values of `src`: one block's lanes, read as one copy.
#[inline(always)]
pub(crate) fn lanes_at<const W: usize>(src: &[f32]) -> [f32; W] {
    let mut lanes = [0.0; W];
    lanes.copy_from_slice(&src[..W]);
    lanes
}

/// Lane `l` of `b`'s rows `block.j0..` at depth `block.k0 + p`, read in
/// place. Lanes past `block.nr` repeat the last row; their sums are never
/// stored.
#[inline(always)]
fn b_lanes<const W: usize>(
    b: &[f32],
    k: usize,
    Block { k0, kc, j0, nr, .. }: Block,
) -> impl Fn(usize) -> [f32; W] + '_ {
    let b_rows: [&[f32]; W] = std::array::from_fn(|l| &b[(j0 + l.min(nr - 1)) * k + k0..][..kc]);
    move |p: usize| std::array::from_fn(|l| b_rows[l][p])
}

/// Writes one block's panel of `b [n,k]`, `kc` rows of the block's width:
/// row `p` is [`b_lanes`]`(p)`.
#[inline(always)]
fn pack_block(b: &[f32], k: usize, block: Block, panel: &mut [f32]) {
    by_width!(block, |W| {
        let lane = b_lanes::<W>(b, k, block);
        for (p, lanes) in panel.chunks_exact_mut(W).enumerate() {
            lanes.copy_from_slice(&lane(p));
        }
    });
}

/// Runs `op`'s rows against one block's `W` lanes in `R`-row tiles. The
/// fewer than `R` rows left over take 2-row tiles and then a 1-row one,
/// so that no tile computes a row twice.
#[inline(always)]
pub(crate) fn rows_by_block<const R: usize, const W: usize>(
    op: &mut Operands<'_>,
    block: Block,
    lanes: impl Fn(usize) -> [f32; W],
) {
    let rows = op.out.len() / op.n;
    let mut i0 = 0;
    while rows - i0 >= R {
        tile::<R, W>(op, i0, block, &lanes);
        i0 += R;
    }
    while rows - i0 >= 2 {
        tile::<2, W>(op, i0, block, &lanes);
        i0 += 2;
    }
    if i0 < rows {
        tile::<1, W>(op, i0, block, &lanes);
    }
}

/// Runs `f` on each block of a `k`-deep product over `n` output columns,
/// k-block by k-block, at most `w` columns a block: a row's last block
/// holds what is left, on a tile [`NR`] wide if that is more than
/// [`NR_TAIL`] columns, else one [`NR_TAIL`] wide, which wastes fewer
/// lanes. A block never spans two rows of `row` columns (`row` divides
/// `n`): a conv's output rows. `k = 0` is one empty block, so every
/// output is still stored.
#[inline(always)]
pub(crate) fn for_each_block(k: usize, n: usize, row: usize, w: usize, mut f: impl FnMut(Block)) {
    for k0 in (0..k.max(1)).step_by(KC) {
        let kc = KC.min(k - k0);
        for r0 in (0..n).step_by(row.max(1)) {
            for j0 in (r0..r0 + row).step_by(w) {
                let nr = w.min(r0 + row - j0);
                let width = if nr > NR_TAIL { NR } else { NR_TAIL };
                let last = k0 + kc == k;
                f(Block {
                    k0,
                    kc,
                    j0,
                    nr,
                    width,
                    last,
                });
            }
        }
    }
}

/// A product's operands: rows of `a` (`k` wide), the output rows (`n` wide)
/// and their biases.
pub(crate) struct Operands<'a> {
    pub(crate) a: &'a [f32],
    pub(crate) k: usize,
    pub(crate) out: &'a mut [f32],
    pub(crate) n: usize,
    pub(crate) bias: Option<&'a [f32]>,
}

/// What a tile covers besides its rows: k-block `k0..k0 + kc` (the `last`
/// one adds the bias) of output columns `j0..j0 + nr`, on a tile `width`
/// columns wide.
#[derive(Clone, Copy)]
pub(crate) struct Block {
    pub(crate) k0: usize,
    pub(crate) kc: usize,
    pub(crate) j0: usize,
    pub(crate) nr: usize,
    pub(crate) width: usize,
    last: bool,
}

/// One `R × W` register tile at output rows `i0..i0 + R`: resumes the sums
/// an earlier k-block stored (or starts from `0.0`), adds `a[r][p] ·
/// lanes(p)[l]` for `p` ascending, and stores the `nr` valid columns.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    op: &mut Operands<'_>,
    i0: usize,
    block: Block,
    lanes: impl Fn(usize) -> [f32; W],
) {
    let Block {
        k0,
        kc,
        j0,
        nr,
        last,
        ..
    } = block;
    let a: [&[f32]; R] = std::array::from_fn(|r| &op.a[(i0 + r) * op.k + k0..][..kc]);
    let at = |r: usize| (i0 + r) * op.n + j0;
    let mut acc = [[0.0f32; W]; R];
    if k0 > 0 {
        for (r, acc_r) in acc.iter_mut().enumerate() {
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
    for (r, acc_r) in acc.iter().enumerate() {
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
    /// item 13(h)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`], plus
    /// [`TensorError::ShapeMismatch`] if `out` is not `[m,n]`.
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

crate::avx2_dispatch! {
    /// `a [m,k] × bᵀ` (`b` stored `[n,k]`) on row-major slices into `out
    /// [m,n]`, adding `row_bias[i]` to every output of row `i` when given —
    /// the product every layer calls ([`Tensor::matmul_transpose_b_into`] is
    /// this on whole tensors). Slices let a layer multiply part of a buffer:
    /// the LSTM multiplies a `[batch, time, in]` input as `[batch·time, in]`.
    /// Every output is overwritten.
    ///
    /// Every output is `0.0 + a[i][0]·b[j][0] + … + a[i][k−1]·b[j][k−1]`,
    /// then `+ row_bias[i]`: one rounding per operation, `p` ascending, no
    /// fused multiply-add and no skipped zero. Tiling only decides which
    /// outputs share registers, so the bits do not depend on the path. Two
    /// rows or more pack `b` — the operand every row reuses — into k-major
    /// panels of `NR` lanes (`NR_TAIL` for a row's last `NR_TAIL` or fewer
    /// columns) and accumulate tiles of `MR` rows, then of 2 and 1 for the
    /// rows left over; the running sums rest in `out` between k-blocks,
    /// which is exact. A single row would spend more packing `b` than it
    /// saves, so it reads `b` in place, `NR_TAIL` columns at a time.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] if a slice's length disagrees with `(m,
    /// k, n)` (`row_bias` must hold `m` values).
    pub fn matmul_transpose_b_slices_into(
        a: &[f32],
        b: &[f32],
        mkn: (usize, usize, usize),
        row_bias: Option<&[f32]>,
        out: &mut [f32],
    ) -> Result<()> {
        let (_, k, n) = mkn;
        check_slices([a.len(), b.len(), out.len()], row_bias, mkn)?;
        if out.len() > n {
            packed_rows!(a, (k, n), row_bias, out, Panels::Fill(b));
        } else if !out.is_empty() {
            let mut op = Operands { a, k, out, n, bias: row_bias };
            for_each_block(k, n, n, NR_TAIL, |block| {
                tile::<1, NR_TAIL>(&mut op, 0, block, b_lanes::<NR_TAIL>(b, k, block))
            });
        }
        Ok(())
    }
}

/// Checks the lengths of a product's `a`, `b` and `out` and its bias
/// against `(m, k, n)`.
fn check_slices(
    [a, b, out]: [usize; 3],
    row_bias: Option<&[f32]>,
    (m, k, n): (usize, usize, usize),
) -> Result<()> {
    let bias = row_bias.map_or(m, <[f32]>::len);
    if [a, b, out, bias] != [m * k, n * k, m * n, m] {
        return Err(TensorError::shape_mismatch(
            &[a, b, out, bias],
            &[m * k, n * k, m * n, m],
        ));
    }
    Ok(())
}

/// Operand `b [n,k]` of `a × bᵀ` packed into the tile's panels once, for a
/// `b` that many products reuse (the LSTM's `W_h` over `T` steps). Each
/// panel is the one the slice product packs for its block. A warm re-pack
/// at the same or a smaller size does not allocate.
#[derive(Debug, Default)]
pub struct PackedB {
    panels: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs `b [n,k]`, replacing what the set held.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] if `b` does not hold `n·k` values.
    pub fn pack(&mut self, b: &[f32], (k, n): (usize, usize)) -> Result<()> {
        if b.len() != n * k {
            return Err(TensorError::shape_mismatch(&[b.len()], &[n * k]));
        }
        (self.k, self.n) = (k, n);
        // A row's blocks hold its columns rounded up to a multiple of
        // `NR_TAIL`. Every panel is overwritten below.
        self.panels.resize(n.div_ceil(NR_TAIL) * NR_TAIL * k, 0.0);
        let mut at = 0;
        for_each_block(k, n, n, NR, |block| {
            let len = block.kc * block.width;
            pack_block(b, k, block, &mut self.panels[at..][..len]);
            at += len;
        });
        Ok(())
    }
}

crate::avx2_dispatch! {
    /// [`matmul_transpose_b_slices_into`] over a prepacked `b`, packed at
    /// `(k, n)`: `a [m,k] × bᵀ` into `out [m,n]`, the same tile over the
    /// prebuilt panels, so the same bits. Every output is overwritten. A
    /// single row gains nothing from packing, so a caller with `m = 1` keeps
    /// the slice product.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] if a slice's length disagrees with `(m,
    /// k, n)` (`row_bias` must hold `m` values).
    pub fn matmul_transpose_b_packed_into(
        a: &[f32],
        b: &PackedB,
        m: usize,
        row_bias: Option<&[f32]>,
        out: &mut [f32],
    ) -> Result<()> {
        let (k, n) = (b.k, b.n);
        check_slices([a.len(), n * k, out.len()], row_bias, (m, k, n))?;
        if !out.is_empty() {
            packed_rows!(a, (k, n), row_bias, out, Panels::Prebuilt(&b.panels));
        }
        Ok(())
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

    /// Values whose products round: a scrambled ramp over several binades,
    /// with a zero every 7th and an infinity every 61st.
    fn ramp(len: usize, salt: u32) -> Vec<f32> {
        (0..len as u32)
            .map(|i| match (i * 31 + salt) % 61 {
                0 => f32::INFINITY,
                v if v % 7 == 0 => 0.0,
                _ => {
                    (i.wrapping_mul(2_654_435_761).wrapping_add(salt) % 2_003) as f32 / 37.0 - 27.0
                }
            })
            .collect()
    }

    /// The scalar loop every product is: `0.0 + a[i][0]·b[j][0] + …`, `p`
    /// ascending, then `+ bias[i]`.
    fn scalar_product(
        a: &[f32],
        b: &[f32],
        (m, k, n): (usize, usize, usize),
        bias: &[f32],
    ) -> Vec<u32> {
        let mut out = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[j * k + p];
                }
                out.push((acc + bias[i]).to_bits());
            }
        }
        out
    }

    /// Both builds of both tile entry points, called directly, give the
    /// scalar loop's bits, and so each other's: one row, row tails below
    /// either build's `MR` (2 and 4), widths on both sides of the 8/16
    /// column boundary (a row of 16-column tiles ending in an 8-column
    /// tail, or in a part-filled 16-column one), depth past one `KC` block
    /// and depth 0. Without AVX2 the AVX2 arm says it skipped.
    #[test]
    fn both_builds_of_the_tile_are_the_scalar_loop() {
        let mut avx2_ran = false;
        let grid = [8, 15, 16, 17, 24, 33, 256].into_iter().flat_map(|n| {
            [1, 2, 3, 4, 5, 7]
                .into_iter()
                .flat_map(move |m| [(m, 3, n), (m, KC + 44, n)])
        });
        for (m, k, n) in [
            (1, 5, 3),
            (1, 300, 13),
            (2, 7, 8),
            (3, 1, 9),
            (5, 257, 17),
            (7, 513, 6),
            (4, 0, 11),
            (1, 0, 2),
            (9, 64, 24),
        ]
        .into_iter()
        .chain(grid)
        {
            let (a, b, bias) = (ramp(m * k, 1), ramp(n * k, 2), ramp(m, 3));
            let want = scalar_product(&a, &b, (m, k, n), &bias);
            let mut packed = PackedB::default();
            packed.pack(&b, (k, n)).unwrap();
            let bits = |out: Vec<f32>| out.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let slices = |run: &dyn Fn(&mut [f32])| {
                let mut out = vec![f32::NAN; m * n];
                run(&mut out);
                bits(out)
            };
            let what = format!("(m, k, n) = {:?}", (m, k, n));
            let base = slices(&|out| {
                matmul_transpose_b_slices_into::baseline(&a, &b, (m, k, n), Some(&bias), out)
                    .unwrap()
            });
            assert_eq!(base, want, "baseline slices {what}");
            let base = slices(&|out| {
                matmul_transpose_b_packed_into::baseline(&a, &packed, m, Some(&bias), out).unwrap()
            });
            assert_eq!(base, want, "baseline packed {what}");
            let mut out = vec![f32::NAN; m * n];
            if let Some(done) =
                matmul_transpose_b_slices_into::avx2(&a, &b, (m, k, n), Some(&bias), &mut out)
            {
                done.unwrap();
                assert_eq!(bits(out.clone()), want, "avx2 slices {what}");
                out.fill(f32::NAN);
                matmul_transpose_b_packed_into::avx2(&a, &packed, m, Some(&bias), &mut out)
                    .unwrap()
                    .unwrap();
                assert_eq!(bits(out), want, "avx2 packed {what}");
                avx2_ran = true;
            }
        }
        if !avx2_ran {
            println!("avx2 arm skipped: this CPU has no AVX2");
        }
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
        let eye =
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]).unwrap();
        assert_eq!(a.matmul(&eye).unwrap(), a);
        assert_eq!(eye.matmul(&a).unwrap(), a);
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
        // `a [2,3]` and `b [4,3]`, with `aᵀ [3,2]` and `bᵀ [3,4]` built
        // from the same formulas.
        let a = Tensor::from_vec((0..6).map(|v| v as f32 * 0.5).collect(), &[2, 3]).unwrap();
        let at_data = (0..6).map(|v| (v % 2 * 3 + v / 2) as f32 * 0.5).collect();
        let at = Tensor::from_vec(at_data, &[3, 2]).unwrap();
        let b =
            Tensor::from_vec((0..12).map(|v| v as f32 * 0.25 - 1.0).collect(), &[4, 3]).unwrap();
        let bt_data = (0..12)
            .map(|v| (v % 4 * 3 + v / 4) as f32 * 0.25 - 1.0)
            .collect();
        let bt = Tensor::from_vec(bt_data, &[3, 4]).unwrap();
        // a [2,3] x b^T [3,4] = [2,4]
        let via_t = a.matmul(&bt).unwrap();
        let mut direct = Tensor::zeros(&[2, 4]);
        a.matmul_transpose_b_into(&b, &Parallelism::serial(), &mut direct)
            .unwrap();
        assert_eq!(via_t, direct);

        let c = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 4]).unwrap();
        // a^T [3,2] x c [2,4] = [3,4]
        let via_t2 = at.matmul(&c).unwrap();
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
    fn transpose_b_into_ignores_stale_contents() {
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
        let mut fresh = ws.checkout(&[12, 5]);
        a.matmul_transpose_b_into(&bt, &Parallelism::serial(), &mut fresh)
            .unwrap();
        // Poison the output buffer to prove prior contents are irrelevant.
        let mut out = ws.checkout(&[12, 5]);
        out.data_mut().fill(-3.5);
        a.matmul_transpose_b_into(&bt, &Parallelism::serial(), &mut out)
            .unwrap();
        assert_eq!(out, fresh);
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
