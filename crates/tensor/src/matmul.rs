//! Matrix multiplication kernels: naive, register-tiled serial, and
//! parallel.
//!
//! The serial GEMM kernel keeps a 4-row × 16-column output tile in
//! registers while it walks the shared dimension in 256-deep panels, so
//! each loaded strip of `b` feeds four output rows and one panel of a `b`
//! strip stays in L1 across a whole band of rows; the parallel kernel
//! splits output rows into one band per rayon thread. Both produce
//! bitwise-identical results to the naive kernel (same accumulation order
//! per element), which the property tests rely on.
//!
//! Every product also has a `_into` variant that writes into a
//! caller-provided output buffer instead of allocating — the steady-state
//! training and inference hot paths use only those. Two transpose-free
//! kernels, [`matmul_at_b_into`] (`Aᵀ·B`) and [`matmul_a_bt_into`]
//! (`A·Bᵀ`), read their operands in stored row-major layout so backprop
//! never materializes a transposed matrix. All kernels accumulate each
//! output element over the shared dimension in ascending order, so every
//! entry point is bitwise-identical to the naive oracle.

use crate::error::{ShapeError, TensorResult};
use crate::matrix::Matrix;
use rayon::prelude::*;

/// Minimum number of output rows before [`matmul`] bothers going parallel.
const PAR_ROW_THRESHOLD: usize = 64;

/// Minimum multiply-add count before the `_into` kernels go parallel.
/// Handing a band to a pool worker costs a wake-up and a join (several
/// microseconds), so parallelism has to amortize that, not just row
/// count — a 64-row layer matmul is far cheaper serial.
const PAR_WORK_THRESHOLD: usize = 1 << 23;

/// Computes `a @ b`, choosing the parallel kernel for large outputs and the
/// register-tiled serial kernel otherwise.
pub fn matmul(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    check(a, b)?;
    Ok(product(a, b, a.rows() >= PAR_ROW_THRESHOLD))
}

/// Reference triple-loop implementation. Slow; kept for testing.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    check(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            let brow = b.row(p);
            let orow = out.row_mut(i);
            for j in 0..n {
                orow[j] += aip * brow[j];
            }
        }
    }
    Ok(out)
}

/// Serial register-tiled implementation (kept under its historical name).
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    check(a, b)?;
    Ok(product(a, b, false))
}

/// Row-parallel implementation on the rayon pool.
pub fn matmul_parallel(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    check(a, b)?;
    Ok(product(a, b, true))
}

/// Computes `a @ x` where `x` is a length-`cols` vector, returning a vector.
pub fn matvec(a: &Matrix, x: &[f64]) -> TensorResult<Vec<f64>> {
    if a.cols() != x.len() {
        return Err(ShapeError::new("matvec", a.shape(), (x.len(), 1)));
    }
    Ok(a.rows_iter()
        .map(|row| row.iter().zip(x).map(|(&p, &q)| p * q).sum())
        .collect())
}

/// Computes `a @ b` into `out` without allocating. `out` must already have
/// shape `(a.rows, b.cols)`; its prior contents are overwritten.
///
/// Bitwise-identical to [`matmul`] / [`matmul_naive`]: every output element
/// accumulates over the shared dimension in ascending order starting from
/// `0.0`. Goes parallel only when the multiply-add count amortizes thread
/// startup, so training-sized products stay serial and allocation-free.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> TensorResult<()> {
    check(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    if out.shape() != (m, n) {
        return Err(ShapeError::new("matmul_into(out)", (m, n), out.shape()));
    }
    if m == 0 || n == 0 || k == 0 {
        out.as_mut_slice().fill(0.0);
        return Ok(());
    }
    let parallel = m >= PAR_ROW_THRESHOLD && m * k * n >= PAR_WORK_THRESHOLD;
    gemm(a, b, out.as_mut_slice(), parallel, |_, _| {});
    Ok(())
}

/// Computes `Aᵀ @ B` into `out` without materializing the transpose: both
/// operands are read in their stored row-major layout. `a` is `(r, m)`,
/// `b` is `(r, n)`, `out` must be `(m, n)`.
///
/// The kernel walks `p` (the shared leading dimension) in the outer loop
/// and accumulates the rank-1 update `a[p]ᵀ · b[p]`, so each output element
/// sums over `p` in ascending order — bitwise-identical to
/// `matmul(&a.transpose(), &b)`.
pub fn matmul_at_b_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> TensorResult<()> {
    if a.rows() != b.rows() {
        return Err(ShapeError::new("matmul_at_b", a.shape(), b.shape()));
    }
    let (r, m) = a.shape();
    let n = b.cols();
    if out.shape() != (m, n) {
        return Err(ShapeError::new("matmul_at_b(out)", (m, n), out.shape()));
    }
    out.as_mut_slice().fill(0.0);
    if m == 0 || n == 0 || r == 0 {
        return Ok(());
    }
    if m >= PAR_ROW_THRESHOLD && m * r * n >= PAR_WORK_THRESHOLD {
        let band = (m / rayon::current_num_threads().max(1)).max(1);
        out.as_mut_slice()
            .par_chunks_mut(band * n)
            .enumerate()
            .for_each(|(chunk_idx, out_chunk)| {
                let i0 = chunk_idx * band;
                let rows_here = out_chunk.len() / n;
                at_b_rows_into(a, b, out_chunk, i0, rows_here, r, n);
            });
    } else {
        at_b_rows_into(a, b, out.as_mut_slice(), 0, m, r, n);
    }
    Ok(())
}

/// Computes `A @ Bᵀ` into `out` without materializing the transpose: both
/// operands are read in their stored row-major layout. `a` is `(m, k)`,
/// `b` is `(n, k)`, `out` must be `(m, n)`.
///
/// Each output element is the dot product of two stored rows, accumulated
/// over `k` in ascending order — bitwise-identical to
/// `matmul(&a, &b.transpose())`.
pub fn matmul_a_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> TensorResult<()> {
    if a.cols() != b.cols() {
        return Err(ShapeError::new("matmul_a_bt", a.shape(), b.shape()));
    }
    let m = a.rows();
    let n = b.rows();
    if out.shape() != (m, n) {
        return Err(ShapeError::new("matmul_a_bt(out)", (m, n), out.shape()));
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    let k = a.cols();
    let ncols = n;
    if m >= PAR_ROW_THRESHOLD && m * k * n >= PAR_WORK_THRESHOLD {
        let band = (m / rayon::current_num_threads().max(1)).max(1);
        out.as_mut_slice()
            .par_chunks_mut(band * ncols)
            .enumerate()
            .for_each(|(chunk_idx, out_chunk)| {
                let i0 = chunk_idx * band;
                let rows_here = out_chunk.len() / ncols;
                a_bt_rows_into(a, b, out_chunk, i0, rows_here, ncols);
            });
    } else {
        a_bt_rows_into(a, b, out.as_mut_slice(), 0, m, ncols);
    }
    Ok(())
}

/// Computes `a @ x` into `out` without allocating; `out.len()` must equal
/// `a.rows()`. Same per-row accumulation order as [`matvec`].
pub fn matvec_into(a: &Matrix, x: &[f64], out: &mut [f64]) -> TensorResult<()> {
    if a.cols() != x.len() {
        return Err(ShapeError::new("matvec", a.shape(), (x.len(), 1)));
    }
    if out.len() != a.rows() {
        return Err(ShapeError::new(
            "matvec(out)",
            (a.rows(), 1),
            (out.len(), 1),
        ));
    }
    for (o, row) in out.iter_mut().zip(a.rows_iter()) {
        *o = row.iter().zip(x).map(|(&p, &q)| p * q).sum();
    }
    Ok(())
}

/// Computes `out = f(a @ b + bias)` in a single pass, broadcasting the
/// length-`n` `bias` row and applying the elementwise map `f` to each
/// register tile as the last k-panel stores it, while it is still in L1 —
/// no separate pass over the output. This is the fused affine+activation
/// kernel behind `Dense::apply_into`.
///
/// Bitwise-identical to `matmul_into` followed by a separate
/// `out[i][j] = f(out[i][j] + bias[j])` pass: the accumulation order per
/// element is unchanged and the bias add still happens after the full
/// sum. Parallelizes over
/// row bands with the same thresholds as [`matmul_into`].
pub fn matmul_bias_map_into<F>(
    a: &Matrix,
    b: &Matrix,
    bias: &[f64],
    out: &mut Matrix,
    f: F,
) -> TensorResult<()>
where
    F: Fn(f64) -> f64 + Copy + Sync,
{
    check(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    if out.shape() != (m, n) {
        return Err(ShapeError::new(
            "matmul_bias_map_into(out)",
            (m, n),
            out.shape(),
        ));
    }
    if bias.len() != n {
        return Err(ShapeError::new(
            "matmul_bias_map_into(bias)",
            (1, n),
            (1, bias.len()),
        ));
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    if k == 0 {
        for r in 0..m {
            for (o, &bv) in out.row_mut(r).iter_mut().zip(bias) {
                *o = f(bv);
            }
        }
        return Ok(());
    }
    let parallel = m >= PAR_ROW_THRESHOLD && m * k * n >= PAR_WORK_THRESHOLD;
    gemm(a, b, out.as_mut_slice(), parallel, |j, sums| {
        for (o, &bv) in sums.iter_mut().zip(&bias[j..]) {
            *o = f(*o + bv);
        }
    });
    Ok(())
}

/// Computes the single-row fused affine `out = f(xᵀ @ a + bias)` without
/// allocating — the batched kernel of [`matmul_bias_map_into`] restricted
/// to one row, used by the single-sample inference path.
///
/// Unlike [`vecmat_into`] (rank-1 updates that read-modify-write `out`
/// per shared-dim step), this strips the output into register
/// accumulators and writes each element once; each element still sums
/// over `a`'s rows in ascending order, so the affine part is
/// bitwise-identical to `vecmat_into` + a separate bias/map pass.
pub fn vecmat_bias_map_into<F>(
    x: &[f64],
    a: &Matrix,
    bias: &[f64],
    out: &mut [f64],
    f: F,
) -> TensorResult<()>
where
    F: Fn(f64) -> f64,
{
    if x.len() != a.rows() {
        return Err(ShapeError::new("vecmat_bias_map", (1, x.len()), a.shape()));
    }
    let n = a.cols();
    if out.len() != n {
        return Err(ShapeError::new(
            "vecmat_bias_map(out)",
            (1, n),
            (1, out.len()),
        ));
    }
    if bias.len() != n {
        return Err(ShapeError::new(
            "vecmat_bias_map(bias)",
            (1, n),
            (1, bias.len()),
        ));
    }
    let mut j = 0;
    while j + STRIP <= n {
        let mut acc = [0.0f64; STRIP];
        for (&xp, row) in x.iter().zip(a.rows_iter()) {
            let arow = &row[j..j + STRIP];
            for (acw, &v) in acc.iter_mut().zip(arow) {
                *acw += xp * v;
            }
        }
        for (i, &s) in acc.iter().enumerate() {
            out[j + i] = f(s + bias[j + i]);
        }
        j += STRIP;
    }
    for (jj, o) in out.iter_mut().enumerate().skip(j) {
        let mut s = 0.0f64;
        for (&xp, row) in x.iter().zip(a.rows_iter()) {
            s += xp * row[jj];
        }
        *o = f(s + bias[jj]);
    }
    Ok(())
}

/// Computes the row vector `xᵀ @ a` into `out` without allocating;
/// `x.len()` must equal `a.rows()` and `out.len()` must equal `a.cols()`.
///
/// Accumulates over `a`'s rows in ascending order starting from `0.0`, so
/// the result is bitwise-identical to `matmul(&Matrix::row_vector(x), &a)`.
pub fn vecmat_into(x: &[f64], a: &Matrix, out: &mut [f64]) -> TensorResult<()> {
    if x.len() != a.rows() {
        return Err(ShapeError::new("vecmat", (1, x.len()), a.shape()));
    }
    if out.len() != a.cols() {
        return Err(ShapeError::new(
            "vecmat(out)",
            (1, a.cols()),
            (1, out.len()),
        ));
    }
    out.fill(0.0);
    for (&xp, row) in x.iter().zip(a.rows_iter()) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += xp * v;
        }
    }
    Ok(())
}

fn check(a: &Matrix, b: &Matrix) -> TensorResult<()> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new("matmul", a.shape(), b.shape()));
    }
    Ok(())
}

/// Allocates and computes `a @ b`; see [`gemm`].
fn product(a: &Matrix, b: &Matrix, parallel: bool) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    if a.rows() > 0 && a.cols() > 0 && b.cols() > 0 {
        gemm(a, b, out.as_mut_slice(), parallel, |_, _| {});
    }
    out
}

/// Runs [`gemm_rows`] over every row of `out` (`a.rows() * b.cols()`
/// elements; requires a non-empty shared dimension), split into one
/// contiguous row band per rayon thread when `parallel`. Bands are whole
/// register tiles; the split never changes any element's accumulation
/// order.
fn gemm<E>(a: &Matrix, b: &Matrix, out: &mut [f64], parallel: bool, finish: E)
where
    E: Fn(usize, &mut [f64]) + Copy + Sync,
{
    if !parallel {
        gemm_rows(a, b, out, 0, finish);
        return;
    }
    let band = a
        .rows()
        .div_ceil(rayon::current_num_threads())
        .next_multiple_of(TILE_ROWS);
    out.par_chunks_mut(band * b.cols())
        .enumerate()
        .for_each(|(chunk_idx, out_chunk)| gemm_rows(a, b, out_chunk, chunk_idx * band, finish));
}

/// Width of the register-accumulated output strip: sixteen doubles span
/// two AVX-512 registers (four AVX2, eight SSE2), wide enough to hide
/// FP-add latency with independent accumulation chains. The single-row
/// [`vecmat_bias_map_into`] and [`matmul_at_b_into`] kernels keep one strip
/// in registers; the GEMM kernel keeps a [`TILE_ROWS`] × `STRIP` tile.
const STRIP: usize = 16;

/// Output rows per register tile of the GEMM kernel. Each loaded strip of
/// `b` feeds four rows, so a tile does four times the arithmetic per `b`
/// load of a single-row strip; 4 × 16 accumulators still fit the register
/// file next to the operands.
const TILE_ROWS: usize = 4;

/// Shared-dimension rows per k-panel of the GEMM kernel. One panel of a
/// `b` strip (256 × 16 doubles, 32 KiB) stays in L1 while every row tile
/// of the band streams past it.
const PANEL: usize = 256;

/// Computes rows `[i0, i0 + out_chunk.len() / n)` of `a @ b` into
/// `out_chunk` (row-major; fully overwritten). Each finished
/// run of sums starting at column `j` is passed to `finish(j, sums)`,
/// which may rewrite it in place (the fused bias + activation). Requires
/// `k > 0`.
///
/// The shared dimension is walked in [`PANEL`]-row panels; within a
/// panel, each `b` strip is swept down every [`TILE_ROWS`]-row tile of
/// the band. The first panel starts each accumulator from `0.0`, later
/// panels reload the partial sums the previous panel stored, and only the
/// last panel calls `finish`. Every element therefore still accumulates
/// `a[i][p] * b[p][j]` over ascending `p` from `0.0`, one rounded multiply
/// and one rounded add per term (Rust never contracts them into an FMA),
/// so results are bit-for-bit equal to the naive kernel. Row and column
/// tails run the same panels one row or one element at a time.
fn gemm_rows<E>(a: &Matrix, b: &Matrix, out_chunk: &mut [f64], i0: usize, finish: E)
where
    E: Fn(usize, &mut [f64]) + Copy,
{
    let k = a.cols();
    let n = b.cols();
    debug_assert!(k > 0);
    let rows_here = out_chunk.len() / n;
    let a = &a.as_slice()[i0 * k..(i0 + rows_here) * k];
    let b = b.as_slice();
    let mut p0 = 0;
    while p0 < k {
        let panel = Panel {
            p0,
            p1: (p0 + PANEL).min(k),
            k,
            n,
        };
        let mut j = 0;
        while j + STRIP <= n {
            let mut i = 0;
            while i + TILE_ROWS <= rows_here {
                panel.tile::<TILE_ROWS, E>(a, b, out_chunk, i, j, finish);
                i += TILE_ROWS;
            }
            while i < rows_here {
                panel.tile::<1, E>(a, b, out_chunk, i, j, finish);
                i += 1;
            }
            j += STRIP;
        }
        for i in 0..rows_here {
            let arow = &a[i * k + panel.p0..i * k + panel.p1];
            for jj in j..n {
                let o = &mut out_chunk[i * n + jj];
                let mut s = if panel.first() { 0.0 } else { *o };
                for (p, &aip) in (panel.p0..panel.p1).zip(arow) {
                    s += aip * b[p * n + jj];
                }
                *o = s;
                if panel.last() {
                    finish(jj, std::slice::from_mut(o));
                }
            }
        }
        p0 = panel.p1;
    }
}

/// One k-panel `[p0, p1)` of a `k`-deep product with `n` output columns.
#[derive(Clone, Copy)]
struct Panel {
    p0: usize,
    p1: usize,
    k: usize,
    n: usize,
}

impl Panel {
    fn first(&self) -> bool {
        self.p0 == 0
    }

    fn last(&self) -> bool {
        self.p1 == self.k
    }

    /// Accumulates this panel's terms into the `R × STRIP` output tile at
    /// local row `i`, column `j`, in registers.
    #[inline(always)]
    fn tile<const R: usize, E>(
        &self,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        i: usize,
        j: usize,
        finish: E,
    ) where
        E: Fn(usize, &mut [f64]),
    {
        let (k, n) = (self.k, self.n);
        let mut acc = [[0.0f64; STRIP]; R];
        if !self.first() {
            for (r, row) in acc.iter_mut().enumerate() {
                row.copy_from_slice(&out[(i + r) * n + j..(i + r) * n + j + STRIP]);
            }
        }
        let arows: [&[f64]; R] =
            std::array::from_fn(|r| &a[(i + r) * k + self.p0..(i + r) * k + self.p1]);
        for (t, p) in (self.p0..self.p1).enumerate() {
            let bv: &[f64; STRIP] = b[p * n + j..p * n + j + STRIP].try_into().unwrap();
            for (row, arow) in acc.iter_mut().zip(&arows) {
                let aip = arow[t];
                for (acw, &bw) in row.iter_mut().zip(bv) {
                    *acw += aip * bw;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            let dst = &mut out[(i + r) * n + j..(i + r) * n + j + STRIP];
            dst.copy_from_slice(row);
            if self.last() {
                finish(j, dst);
            }
        }
    }
}

/// Computes rows `[i0, i0 + rows_here)` of `aᵀ @ b` into `out_chunk`
/// (row-major, `rows_here * n` elements; fully overwritten). `a` is
/// `(r, m)`, `b` is `(r, n)`; output row `i` of the chunk is column
/// `i0 + i` of `a` dotted against `b`, accumulated over `p` in ascending
/// order (one register strip held across the whole shared dimension, same
/// bit-exactness argument as [`gemm_rows`]).
fn at_b_rows_into(
    a: &Matrix,
    b: &Matrix,
    out_chunk: &mut [f64],
    i0: usize,
    rows_here: usize,
    r: usize,
    n: usize,
) {
    for local_i in 0..rows_here {
        let col = i0 + local_i;
        let orow = &mut out_chunk[local_i * n..(local_i + 1) * n];
        let mut j = 0;
        while j + STRIP <= n {
            let mut acc = [0.0f64; STRIP];
            for p in 0..r {
                let api = a.row(p)[col];
                let brow = &b.row(p)[j..j + STRIP];
                for (acw, &bv) in acc.iter_mut().zip(brow) {
                    *acw += api * bv;
                }
            }
            orow[j..j + STRIP].copy_from_slice(&acc);
            j += STRIP;
        }
        for (jj, o) in orow.iter_mut().enumerate().skip(j) {
            let mut s = 0.0f64;
            for p in 0..r {
                s += a.row(p)[col] * b.row(p)[jj];
            }
            *o = s;
        }
    }
}

/// Computes rows `[i0, i0 + rows_here)` of `a @ bᵀ` into `out_chunk`
/// (row-major, `rows_here * n` elements; fully overwritten). `a` is
/// `(m, k)`, `b` is `(n, k)`; each output element is a row-row dot
/// product accumulated over `k` in ascending order.
///
/// A 2×4 block of output elements (two `a` rows × four `b` rows) is
/// computed concurrently: the eight independent accumulation chains hide
/// the FP-add latency of a single serial dot product, and each loaded
/// operand value feeds several chains. Each element's own chain still
/// sums over `k` in ascending order, so the result is bit-for-bit
/// unchanged.
fn a_bt_rows_into(
    a: &Matrix,
    b: &Matrix,
    out_chunk: &mut [f64],
    i0: usize,
    rows_here: usize,
    n: usize,
) {
    let mut local_i = 0;
    while local_i + 2 <= rows_here {
        let arow0 = a.row(i0 + local_i);
        let arow1 = a.row(i0 + local_i + 1);
        let k = arow0.len();
        let (orow0, rest) = out_chunk[local_i * n..(local_i + 2) * n].split_at_mut(n);
        let orow1 = rest;
        let mut j = 0;
        while j + 8 <= n {
            let b0 = &b.row(j)[..k];
            let b1 = &b.row(j + 1)[..k];
            let b2 = &b.row(j + 2)[..k];
            let b3 = &b.row(j + 3)[..k];
            let b4 = &b.row(j + 4)[..k];
            let b5 = &b.row(j + 5)[..k];
            let b6 = &b.row(j + 6)[..k];
            let b7 = &b.row(j + 7)[..k];
            let mut s = [0.0f64; 16];
            for idx in 0..k {
                let a0 = arow0[idx];
                let a1 = arow1[idx];
                s[0] += a0 * b0[idx];
                s[1] += a0 * b1[idx];
                s[2] += a0 * b2[idx];
                s[3] += a0 * b3[idx];
                s[4] += a0 * b4[idx];
                s[5] += a0 * b5[idx];
                s[6] += a0 * b6[idx];
                s[7] += a0 * b7[idx];
                s[8] += a1 * b0[idx];
                s[9] += a1 * b1[idx];
                s[10] += a1 * b2[idx];
                s[11] += a1 * b3[idx];
                s[12] += a1 * b4[idx];
                s[13] += a1 * b5[idx];
                s[14] += a1 * b6[idx];
                s[15] += a1 * b7[idx];
            }
            orow0[j..j + 8].copy_from_slice(&s[..8]);
            orow1[j..j + 8].copy_from_slice(&s[8..]);
            j += 8;
        }
        for jj in j..n {
            let brow = &b.row(jj)[..k];
            let (mut s0, mut s1) = (0.0f64, 0.0f64);
            for idx in 0..k {
                s0 += arow0[idx] * brow[idx];
                s1 += arow1[idx] * brow[idx];
            }
            orow0[jj] = s0;
            orow1[jj] = s1;
        }
        local_i += 2;
    }
    // Odd trailing row: plain 4-column interleave.
    if local_i < rows_here {
        let arow = a.row(i0 + local_i);
        let k = arow.len();
        let orow = &mut out_chunk[local_i * n..(local_i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b.row(j)[..k];
            let b1 = &b.row(j + 1)[..k];
            let b2 = &b.row(j + 2)[..k];
            let b3 = &b.row(j + 3)[..k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for (idx, &av) in arow.iter().enumerate() {
                s0 += av * b0[idx];
                s1 += av * b1[idx];
                s2 += av * b2[idx];
                s3 += av * b3[idx];
            }
            orow[j] = s0;
            orow[j + 1] = s1;
            orow[j + 2] = s2;
            orow[j + 3] = s3;
            j += 4;
        }
        for (jj, o) in orow.iter_mut().enumerate().skip(j) {
            *o = arow.iter().zip(b.row(jj)).map(|(&p, &q)| p * q).sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn small_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = init::uniform(5, 5, -1.0, 1.0, &mut rng);
        let i = Matrix::identity(5);
        assert_close(&matmul(&a, &i).unwrap(), &a, 0.0);
        assert_close(&matmul(&i, &a).unwrap(), &a, 0.0);
    }

    #[test]
    fn kernels_agree_on_odd_sizes() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m_, k_, n_) in &[(1, 1, 1), (3, 5, 7), (65, 70, 33), (130, 64, 65)] {
            let a = init::uniform(m_, k_, -1.0, 1.0, &mut rng);
            let b = init::uniform(k_, n_, -1.0, 1.0, &mut rng);
            let naive = matmul_naive(&a, &b).unwrap();
            let blocked = matmul_blocked(&a, &b).unwrap();
            let parallel = matmul_parallel(&a, &b).unwrap();
            assert_close(&naive, &blocked, 1e-10);
            assert_close(&naive, &parallel, 1e-10);
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = [1.0, 0.5, 2.0];
        let v = matvec(&a, &x).unwrap();
        assert_eq!(v, vec![8.0, 18.5]);
    }

    #[test]
    fn matvec_shape_check() {
        let a = Matrix::zeros(2, 3);
        assert!(matvec(&a, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn empty_product() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 2));
    }

    #[test]
    fn matmul_into_matches_matmul_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m_, k_, n_) in &[(1, 1, 1), (3, 5, 7), (64, 3, 64), (130, 64, 65)] {
            let a = init::uniform(m_, k_, -1.0, 1.0, &mut rng);
            let b = init::uniform(k_, n_, -1.0, 1.0, &mut rng);
            let expect = matmul(&a, &b).unwrap();
            let mut out = Matrix::full(m_, n_, f64::NAN);
            matmul_into(&a, &b, &mut out).unwrap();
            assert_eq!(out.as_slice(), expect.as_slice());
        }
    }

    #[test]
    fn into_kernels_reject_bad_out_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut bad = Matrix::zeros(2, 3);
        assert!(matmul_into(&a, &b, &mut bad).is_err());
        let at = Matrix::zeros(3, 2);
        assert!(matmul_at_b_into(&at, &b, &mut bad).is_err());
        let bt = Matrix::zeros(4, 3);
        assert!(matmul_a_bt_into(&a, &bt, &mut bad).is_err());
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = [1.0, 0.5, 2.0];
        let mut out = [f64::NAN; 2];
        matvec_into(&a, &x, &mut out).unwrap();
        assert_eq!(out.to_vec(), matvec(&a, &x).unwrap());
        assert!(matvec_into(&a, &x, &mut [0.0; 3]).is_err());
        assert!(matvec_into(&a, &[1.0], &mut out).is_err());
    }

    #[test]
    fn vecmat_into_matches_row_vector_matmul() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = init::uniform(5, 4, -1.0, 1.0, &mut rng);
        let x = [0.3, -1.2, 2.5, 0.0, 7.75];
        let mut out = [f64::NAN; 4];
        vecmat_into(&x, &a, &mut out).unwrap();
        let expect = matmul(&Matrix::row_vector(&x), &a).unwrap();
        assert_eq!(&out[..], expect.as_slice());
        assert!(vecmat_into(&x[..3], &a, &mut out).is_err());
        assert!(vecmat_into(&x, &a, &mut [0.0; 3]).is_err());
    }

    #[test]
    fn matmul_bias_map_into_matches_unfused_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(m_, k_, n_) in &[
            (1, 1, 1),
            (3, 5, 7),
            (61, 3, 64),
            (61, 64, 64),
            (130, 64, 65),
        ] {
            let a = init::uniform(m_, k_, -1.0, 1.0, &mut rng);
            let b = init::uniform(k_, n_, -1.0, 1.0, &mut rng);
            let bias: Vec<f64> = (0..n_).map(|j| 0.01 * j as f64 - 0.2).collect();
            let act = |z: f64| if z > 0.0 { z } else { 0.5 * (z.exp() - 1.0) };
            let mut expect = Matrix::full(m_, n_, f64::NAN);
            matmul_into(&a, &b, &mut expect).unwrap();
            for r in 0..m_ {
                for (o, &bv) in expect.row_mut(r).iter_mut().zip(&bias) {
                    *o = act(*o + bv);
                }
            }
            let mut fused = Matrix::full(m_, n_, f64::NAN);
            matmul_bias_map_into(&a, &b, &bias, &mut fused, act).unwrap();
            assert_eq!(fused.as_slice(), expect.as_slice(), "({m_},{k_},{n_})");
        }
    }

    #[test]
    fn matmul_bias_map_into_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut bad = Matrix::zeros(2, 3);
        assert!(matmul_bias_map_into(&a, &b, &[0.0; 4], &mut bad, |z| z).is_err());
        let mut ok = Matrix::zeros(2, 4);
        assert!(matmul_bias_map_into(&a, &b, &[0.0; 3], &mut ok, |z| z).is_err());
        assert!(matmul_bias_map_into(&a, &b, &[0.0; 4], &mut ok, |z| z).is_ok());
    }

    #[test]
    fn vecmat_bias_map_into_matches_unfused_bitwise() {
        let mut rng = StdRng::seed_from_u64(14);
        for &(k_, n_) in &[(1, 1), (5, 4), (3, 64), (64, 64), (64, 1), (7, 19)] {
            let a = init::uniform(k_, n_, -1.0, 1.0, &mut rng);
            let x: Vec<f64> = (0..k_).map(|i| 0.3 * i as f64 - 1.0).collect();
            let bias: Vec<f64> = (0..n_).map(|j| 0.05 * j as f64).collect();
            let act = |z: f64| z.tanh();
            let mut expect = vec![f64::NAN; n_];
            vecmat_into(&x, &a, &mut expect).unwrap();
            for (o, &bv) in expect.iter_mut().zip(&bias) {
                *o = act(*o + bv);
            }
            let mut fused = vec![f64::NAN; n_];
            vecmat_bias_map_into(&x, &a, &bias, &mut fused, act).unwrap();
            assert_eq!(fused, expect, "({k_},{n_})");
        }
        let a = Matrix::zeros(2, 3);
        assert!(vecmat_bias_map_into(&[0.0; 3], &a, &[0.0; 3], &mut [0.0; 3], |z| z).is_err());
        assert!(vecmat_bias_map_into(&[0.0; 2], &a, &[0.0; 2], &mut [0.0; 3], |z| z).is_err());
        assert!(vecmat_bias_map_into(&[0.0; 2], &a, &[0.0; 3], &mut [0.0; 2], |z| z).is_err());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
            proptest::collection::vec(-10.0..10.0f64, rows * cols)
                .prop_map(move |v| Matrix::from_vec(rows, cols, v).unwrap())
        }

        proptest! {
            #[test]
            fn blocked_equals_naive(
                (m_, k_, n_) in (1usize..20, 1usize..20, 1usize..20),
                seed in 0u64..1000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = init::uniform(m_, k_, -5.0, 5.0, &mut rng);
                let b = init::uniform(k_, n_, -5.0, 5.0, &mut rng);
                let x = matmul_naive(&a, &b).unwrap();
                let y = matmul_blocked(&a, &b).unwrap();
                for (p, q) in x.as_slice().iter().zip(y.as_slice()) {
                    prop_assert!((p - q).abs() < 1e-9);
                }
            }

            #[test]
            fn distributes_over_addition(a in arb_matrix(4, 3), b in arb_matrix(4, 3), c in arb_matrix(3, 5)) {
                // (A + B) C == A C + B C
                let sum = crate::ops::add(&a, &b).unwrap();
                let lhs = matmul(&sum, &c).unwrap();
                let rhs = crate::ops::add(
                    &matmul(&a, &c).unwrap(),
                    &matmul(&b, &c).unwrap(),
                ).unwrap();
                for (p, q) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                    prop_assert!((p - q).abs() < 1e-8);
                }
            }

            #[test]
            fn at_b_into_equals_naive_oracle(
                (r_, m_, n_) in (1usize..20, 1usize..20, 1usize..20),
                seed in 0u64..1000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = init::uniform(r_, m_, -5.0, 5.0, &mut rng);
                let b = init::uniform(r_, n_, -5.0, 5.0, &mut rng);
                let oracle = matmul_naive(&a.transpose(), &b).unwrap();
                let mut out = Matrix::full(m_, n_, f64::NAN);
                matmul_at_b_into(&a, &b, &mut out).unwrap();
                // Bitwise: both accumulate over the shared dim in ascending order.
                prop_assert_eq!(out.as_slice(), oracle.as_slice());
            }

            #[test]
            fn a_bt_into_equals_naive_oracle(
                (m_, k_, n_) in (1usize..20, 1usize..20, 1usize..20),
                seed in 0u64..1000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = init::uniform(m_, k_, -5.0, 5.0, &mut rng);
                let b = init::uniform(n_, k_, -5.0, 5.0, &mut rng);
                let oracle = matmul_naive(&a, &b.transpose()).unwrap();
                let mut out = Matrix::full(m_, n_, f64::NAN);
                matmul_a_bt_into(&a, &b, &mut out).unwrap();
                prop_assert_eq!(out.as_slice(), oracle.as_slice());
            }

            #[test]
            fn matmul_into_equals_naive_oracle(
                (m_, k_, n_) in (1usize..20, 1usize..20, 1usize..20),
                seed in 0u64..1000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = init::uniform(m_, k_, -5.0, 5.0, &mut rng);
                let b = init::uniform(k_, n_, -5.0, 5.0, &mut rng);
                let oracle = matmul_naive(&a, &b).unwrap();
                let mut out = Matrix::full(m_, n_, f64::NAN);
                matmul_into(&a, &b, &mut out).unwrap();
                prop_assert_eq!(out.as_slice(), oracle.as_slice());
            }

            /// Every entry point is bitwise the naive oracle on shapes
            /// straddling the register tile (4 rows × 16 columns) and the
            /// 256-deep k-panel; the fused kernel is bitwise the unfused
            /// sequence.
            #[test]
            fn tile_and_panel_edges_are_bitwise_naive(
                (m_, ni, ki) in (1usize..10, 0usize..6, 0usize..6),
                seed in 0u64..1000,
            ) {
                let n_ = [1, 15, 16, 17, 33, 64][ni];
                let k_ = [0, 1, 255, 256, 257, 515][ki];
                assert_entry_points_match_naive(m_, k_, n_, seed);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]
            /// The same on the row-parallel path (m ≥ 64 and m·k·n ≥ 2²³),
            /// with row counts that leave partial tiles in the bands.
            #[test]
            fn row_parallel_bands_are_bitwise_naive(
                (m_, ni, extra) in (64usize..72, 0usize..3, 0usize..3),
                seed in 0u64..1000,
            ) {
                let n_ = [17, 33, 64][ni];
                let k_ = PAR_WORK_THRESHOLD.div_ceil(m_ * n_).max(515) + extra;
                assert!(m_ >= PAR_ROW_THRESHOLD && m_ * k_ * n_ >= PAR_WORK_THRESHOLD);
                assert_entry_points_match_naive(m_, k_, n_, seed);
            }
        }

        fn assert_entry_points_match_naive(m_: usize, k_: usize, n_: usize, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = init::uniform(m_, k_, -5.0, 5.0, &mut rng);
            let b = init::uniform(k_, n_, -5.0, 5.0, &mut rng);
            let bias: Vec<f64> = (0..n_).map(|j| 0.37 * j as f64 - 1.0).collect();
            let act = |z: f64| if z > 0.0 { z } else { 0.5 * (z.exp() - 1.0) };
            let shape = format!("({m_},{k_},{n_})");
            let oracle = matmul_naive(&a, &b).unwrap();
            assert_eq!(
                matmul(&a, &b).unwrap().as_slice(),
                oracle.as_slice(),
                "{shape}"
            );
            let mut out = Matrix::full(m_, n_, f64::NAN);
            matmul_into(&a, &b, &mut out).unwrap();
            assert_eq!(out.as_slice(), oracle.as_slice(), "{shape}");
            for r in 0..m_ {
                for (o, &bv) in out.row_mut(r).iter_mut().zip(&bias) {
                    *o = act(*o + bv);
                }
            }
            let mut fused = Matrix::full(m_, n_, f64::NAN);
            matmul_bias_map_into(&a, &b, &bias, &mut fused, act).unwrap();
            let (f, u) = (fused.as_slice(), out.as_slice());
            assert!(
                f.iter().zip(u).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{shape}"
            );
        }

        proptest! {
            #[test]
            fn transpose_reverses_product(a in arb_matrix(3, 4), b in arb_matrix(4, 2)) {
                // (A B)^T == B^T A^T
                let lhs = matmul(&a, &b).unwrap().transpose();
                let rhs = matmul(&b.transpose(), &a.transpose()).unwrap();
                for (p, q) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                    prop_assert!((p - q).abs() < 1e-9);
                }
            }
        }
    }
}
