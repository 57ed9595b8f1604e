//! A minimal dense-matrix type — just enough linear algebra for small
//! fully-connected networks. Row-major `f64` storage, no BLAS.
//!
//! Every dense product runs one register-tiled kernel:
//! [`Matrix::matmat_t`] over `lanes` = batch size, [`Matrix::matvec`] /
//! [`Matrix::matvec_into`] over one lane (per-flow eval and the
//! per-sample training forward). It serves training as well as eval: a
//! minibatch's forward is one `matmat_t` per layer over one lane per
//! sample, and its backward two per layer, the weight gradient `Δ · Xᵀ`
//! (the shared index running over the samples) and the next delta
//! `Wᵀ · Δ` (see [`crate::Mlp::backward_batch`]). A tile holds its
//! accumulators in registers across the whole shared dimension; each
//! output element starts at `0.0` and adds `w[r][c] * x[c][s]` in
//! ascending `c` with a separate multiply and add, never FMA. That one
//! addend sequence is the bit-identity contract: batched ≡ per-flow by
//! construction, on every instantiation. The body is written once and
//! compiled three times — for AVX-512 (8 × 16 tiles), for AVX (4 × 8)
//! and with no target feature (4 × 4) — and each call runs the widest one
//! the host supports. The eval forward's bias and activation run as the
//! kernel's epilogue, a pass over each finished row block inside the same
//! instantiation, so the activation vectorises across lanes; training
//! takes the bare product and applies libm's activation after it.
//!
//! A batched product of at least 2²¹ multiply-adds (the 2×512 hidden
//! layer from 8 lanes; the input layer only from 171) runs the same
//! kernel once per 64 rows, the chunks spread over the caller and the
//! crate's parked helper threads. That threshold is ≈ 140 µs of AVX-512
//! kernel against a measured ≈ 4 µs hand-off to a parked helper. Each
//! chunk's rows see exactly the addends and epilogue they would in one
//! call, so the result is bit-identical at any thread count and claim
//! order; a one-core host has no helpers and runs every chunk on the
//! caller. No 2×64 product, training's included, reaches the threshold.
//! The per-sample reference backward ([`Matrix::add_outer`],
//! [`Matrix::t_matvec`]) stays naive: clarity wins.

use crate::mlp::Activation;
use crate::par;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::slice::ChunksExact;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for Matrix {
    /// The empty `0 × 0` matrix (a reusable scratch buffer's seed).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat row-major mutable view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `self · x` for a column vector `x` (len == cols). Output len == rows.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.matvec_into(x, &mut out);
        out
    }

    /// Like [`Matrix::matvec`], but writing into a caller-owned buffer so
    /// steady-state callers (the eval hot path) never allocate. `x` is an
    /// `n × 1` feature-major column, so this is the tile kernel with one
    /// lane: bit-identical to [`Matrix::matmat_t`] on any one lane.
    pub fn matvec_into(&self, x: &[f64], out: &mut Vec<f64>) {
        self.matvec_then_into(x, Epilogue::Bare, out);
    }

    /// [`Matrix::matvec_into`], each finished row then taking `ep`.
    pub(crate) fn matvec_then_into(&self, x: &[f64], ep: Epilogue, out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.cols, "matvec shape mismatch");
        out.resize(self.rows, 0.0);
        gemm(WIDEST, &self.data, self.cols, x, 1, ep, out);
    }

    /// Resize in place to `rows × cols`, reusing the allocation when it is
    /// large enough. Contents are unspecified afterwards — this exists for
    /// scratch matrices that are fully overwritten next.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Transposed batched matvec: `a_t` holds one *column* per batch
    /// member (`shared_dim × lanes`), and `out` receives `self · a_t`
    /// (`self.rows × lanes`) in the same feature-major layout — the
    /// layout [`crate::Mlp::forward_batch_into`] keeps activations in.
    ///
    /// Bit-identity contract: element `(r, s)` starts at `0.0` and
    /// accumulates `w[r][c] * a_t[c][s]` in ascending `c` — the exact
    /// addend sequence of [`Matrix::matvec`]'s row-`r` dot product, so
    /// every lane is bit-identical to a per-flow matvec.
    pub fn matmat_t(&self, a_t: &Matrix, out: &mut Matrix) {
        self.matmat_t_then(a_t, Epilogue::Bare, out);
    }

    /// [`Matrix::matmat_t`], each finished row then taking `ep`. A
    /// batched product of at least [`SPLIT_MACS`] multiply-adds runs in
    /// row chunks spread over the helper threads; anything smaller runs
    /// on the caller.
    pub(crate) fn matmat_t_then(&self, a_t: &Matrix, ep: Epilogue, out: &mut Matrix) {
        assert_eq!(a_t.rows, self.cols, "matmat_t shape mismatch");
        out.reshape(self.rows, a_t.cols);
        if a_t.cols > 1 && self.len() * a_t.cols >= SPLIT_MACS {
            return self.matmat_t_chunked(a_t, ep, out);
        }
        gemm(
            WIDEST,
            &self.data,
            self.cols,
            &a_t.data,
            a_t.cols,
            ep,
            &mut out.data,
        );
    }

    /// [`Matrix::matmat_t_then`] as one `gemm` per [`CHUNK_ROWS`] rows,
    /// the chunks claimed by the caller and the helpers alike. Each
    /// chunk's `gemm` computes its rows exactly as the whole product
    /// would, its epilogue's bias starting at the chunk's first row.
    fn matmat_t_chunked(&self, a_t: &Matrix, ep: Epilogue, out: &mut Matrix) {
        let (n, lanes) = (self.cols, a_t.cols);
        // Sliced to the rows here, a short bias panics before any helper
        // sees the job; the other shapes hold by construction.
        let ep = ep.rows(0..self.rows);
        par::for_each_chunk(&mut out.data, CHUNK_ROWS * lanes, &|i, out| {
            let (r0, r1) = (i * CHUNK_ROWS, i * CHUNK_ROWS + out.len() / lanes);
            let w = &self.data[r0 * n..r1 * n];
            gemm(WIDEST, w, n, &a_t.data, lanes, ep.rows(r0..r1), out);
        });
    }

    /// Write `selfᵀ` into `out` (allocation reused). Pure data movement:
    /// bit-identity of the batched forward is a property of accumulation
    /// order, which a layout change does not touch.
    pub fn transpose_into(&self, out: &mut Matrix) {
        self.transpose_resized_into(self.cols, self.rows, out);
    }

    /// `selfᵀ` cropped or zero-padded to `rows × cols`: `out[i][j]` is
    /// `self[j][i]` where that exists and `0.0` elsewhere. The batched
    /// forward pads its lanes with this and reads back only the real ones.
    pub(crate) fn transpose_resized_into(&self, rows: usize, cols: usize, out: &mut Matrix) {
        out.reshape(rows, cols);
        for (i, dst) in out.data.chunks_exact_mut(cols.max(1)).enumerate() {
            for (j, d) in dst.iter_mut().enumerate() {
                *d = if i < self.cols && j < self.rows {
                    self.data[j * self.cols + i]
                } else {
                    0.0
                };
            }
        }
    }

    /// Keep only the columns `keep` (strictly ascending), in place: column
    /// `j` afterwards is column `keep[j]` before. Each element moves to an
    /// index no later than its own, in ascending order, so no element is
    /// overwritten before it is read.
    pub fn keep_cols(&mut self, keep: &[usize]) {
        assert!(
            keep.windows(2).all(|w| w[0] < w[1]) && keep.last().is_none_or(|&c| c < self.cols),
            "keep_cols needs ascending columns in range"
        );
        let (cols, k) = (self.cols, keep.len());
        for r in 0..self.rows {
            for (j, &c) in keep.iter().enumerate() {
                self.data[r * k + j] = self.data[r * cols + c];
            }
        }
        self.reshape(self.rows, k);
    }

    /// `selfᵀ · y` for a column vector `y` (len == rows). Output len == cols.
    pub fn t_matvec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "t_matvec shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            if yr == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, a) in out.iter_mut().zip(row) {
                *o += a * yr;
            }
        }
        out
    }

    /// Rank-1 accumulate: `self += scale · y · xᵀ` (outer product), the
    /// weight-gradient update of a dense layer.
    pub fn add_outer(&mut self, y: &[f64], x: &[f64], scale: f64) {
        assert_eq!(y.len(), self.rows, "outer shape mismatch (rows)");
        assert_eq!(x.len(), self.cols, "outer shape mismatch (cols)");
        for (r, &yr) in y.iter().enumerate() {
            let s = scale * yr;
            if s == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (o, a) in row.iter_mut().zip(x) {
                *o += s * a;
            }
        }
    }

    /// In-place `self += scale · other` (same shape).
    pub fn add_scaled(&mut self, other: &Matrix, scale: f64) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Fill with zeros.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// The widest lane tile: every product may use every instantiation.
const WIDEST: usize = 16;

/// Multiply-adds from which a batched product is split into row chunks:
/// the 2×512 hidden layer from 8 lanes up (≈ 140 µs of AVX-512 kernel
/// against a ≈ 4 µs hand-off to a parked helper), the 24-wide input
/// layer only from 171.
const SPLIT_MACS: usize = 1 << 21;

/// Rows per chunk of a split product: a multiple of every tile height,
/// so chunking changes no tile's rows.
const CHUNK_ROWS: usize = 64;

/// What the kernel does to each output element once its last addend is
/// in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    /// Nothing: the bare product.
    Bare,
    /// A dense eval layer's `+ bias[r]`, then its activation (`None` on
    /// the linear output layer).
    Bias(&'a [f64], Option<Activation>),
}

impl Epilogue<'_> {
    /// This epilogue for the block of rows `rows`.
    fn rows(self, rows: Range<usize>) -> Self {
        match self {
            Epilogue::Bias(bias, act) => Epilogue::Bias(&bias[rows], act),
            bare => bare,
        }
    }

    /// Finish the rows from `r0` that `block` holds, `lanes` per row.
    /// Inlined into the caller's ISA instantiation, the activation
    /// vectorises across the lanes — or, with one lane, down the rows.
    /// The activation is matched outside the loops so that each loop
    /// body is one straight-line function the compiler can vectorise.
    #[inline(always)]
    fn finish(self, r0: usize, lanes: usize, block: &mut [f64]) {
        #[inline(always)]
        fn each(block: &mut [f64], lanes: usize, bias: &[f64], f: impl Fn(f64) -> f64) {
            // One lane as a flat zip down the rows: one-element rows
            // measured slower on inline 2×64 eval, end to end.
            if lanes == 1 {
                for (z, &b) in block.iter_mut().zip(bias) {
                    *z = f(*z + b);
                }
            } else {
                for (row, &b) in block.chunks_exact_mut(lanes).zip(bias) {
                    row.iter_mut().for_each(|z| *z = f(*z + b));
                }
            }
        }
        let Epilogue::Bias(bias, act) = self else {
            return;
        };
        let bias = &bias[r0..r0 + block.len() / lanes];
        match act {
            None => each(block, lanes, bias, |z| z),
            Some(Activation::Tanh) => each(block, lanes, bias, |z| Activation::Tanh.apply_eval(z)),
            Some(Activation::Relu) => each(block, lanes, bias, |z| Activation::Relu.apply_eval(z)),
        }
    }
}

/// `out[r][s] = Σ_c w[r][c] · a_t[c][s]` for row-major `w` (`rows × n`)
/// and feature-major `a_t` (`n × lanes`), every element written and then
/// finished by `ep`, by the widest tile instantiation at most `max_nr`
/// lanes wide that this host runs. Detection is cached by the standard
/// library, so choosing per call costs a load and a branch.
fn gemm(
    max_nr: usize,
    w: &[f64],
    n: usize,
    a_t: &[f64],
    lanes: usize,
    ep: Epilogue,
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if max_nr >= 16 && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `gemm_avx512`'s only requirement is the `avx512f`
            // target feature, detected on this host just above.
            return unsafe { gemm_avx512(w, n, a_t, lanes, ep, out) };
        }
        if max_nr >= 8 && std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: `gemm_avx`'s only requirement is the `avx` target
            // feature, detected on this host just above.
            return unsafe { gemm_avx(w, n, a_t, lanes, ep, out) };
        }
    }
    gemm_tiles::<4, 4>(w, n, a_t, lanes, ep, out);
}

/// The tile kernel compiled for AVX-512: 8 × 16 tiles, sixteen of the 32
/// 512-bit registers as accumulators.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512(w: &[f64], n: usize, a_t: &[f64], lanes: usize, ep: Epilogue, out: &mut [f64]) {
    gemm_tiles::<8, 16>(w, n, a_t, lanes, ep, out);
}

/// The tile kernel compiled for AVX: 4 × 8 tiles, eight of the 16 256-bit
/// registers as accumulators.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn gemm_avx(w: &[f64], n: usize, a_t: &[f64], lanes: usize, ep: Epilogue, out: &mut [f64]) {
    gemm_tiles::<4, 8>(w, n, a_t, lanes, ep, out);
}

/// The one kernel body behind every dense forward product. Rows go in
/// tiles of `MR`, lanes in tiles of `NR`, then narrower: lanes left over
/// take 8- and 4-wide tiles, and only a lane count that is not a
/// multiple of 4 reaches the 1-wide tile.
#[inline(always)]
fn gemm_tiles<const MR: usize, const NR: usize>(
    w: &[f64],
    n: usize,
    a_t: &[f64],
    lanes: usize,
    ep: Epilogue,
    out: &mut [f64],
) {
    // A one-lane product (every `matvec`) gets its own copy of the loops,
    // the lane stride folded to a constant, and eight row chains: with no
    // lanes to share a load, rows are its only parallelism. Its row
    // blocks are too short to vectorise an epilogue over, so it finishes
    // every row in one pass after the sweep, while they are still in L1.
    if lanes == 1 {
        row_sweep::<8, NR>(w, n, a_t, 1, Epilogue::Bare, out);
        ep.finish(0, 1, out);
    } else if lanes > 1 {
        row_sweep::<MR, NR>(w, n, a_t, lanes, ep, out);
    }
}

/// Every row tile, top to bottom, each row block finished by `ep` while
/// it is still in cache.
#[inline(always)]
fn row_sweep<const M: usize, const NR: usize>(
    w: &[f64],
    n: usize,
    a_t: &[f64],
    lanes: usize,
    ep: Epilogue,
    out: &mut [f64],
) {
    let rows = out.len() / lanes;
    assert!(
        w.len() == rows * n && a_t.len() == n * lanes && out.len() == rows * lanes,
        "gemm shape mismatch"
    );
    // One `lanes`-wide row of `a_t` per shared index; every tile walks a
    // copy, so no tile divides by `lanes` again.
    let x_rows = a_t.chunks_exact(lanes);
    let mut r = 0;
    while r < rows {
        let m = if r + M <= rows {
            lane_sweep::<M, NR>(w, n, r, &x_rows, lanes, out);
            M
        } else {
            lane_sweep::<1, NR>(w, n, r, &x_rows, lanes, out);
            1
        };
        ep.finish(r, lanes, &mut out[r * lanes..(r + m) * lanes]);
        r += m;
    }
}

/// Every lane of the `M` output rows starting at `r0`.
#[inline(always)]
fn lane_sweep<const M: usize, const NR: usize>(
    w: &[f64],
    n: usize,
    r0: usize,
    x_rows: &ChunksExact<'_, f64>,
    lanes: usize,
    out: &mut [f64],
) {
    let mut s = 0;
    while s + NR <= lanes {
        tile::<M, NR>(w, n, r0, x_rows, s, lanes, out);
        s += NR;
    }
    if NR > 8 && s + 8 <= lanes {
        tile::<M, 8>(w, n, r0, x_rows, s, lanes, out);
        s += 8;
    }
    if NR > 4 && s + 4 <= lanes {
        tile::<M, 4>(w, n, r0, x_rows, s, lanes, out);
        s += 4;
    }
    while s < lanes {
        tile::<M, 1>(w, n, r0, x_rows, s, lanes, out);
        s += 1;
    }
}

/// One `M × NR` output tile at rows `r0..`, lanes `s0..`. The
/// accumulators live in registers across the whole shared dimension;
/// each starts at `0.0` and takes `acc + w[r][c] * x[c][s]` in ascending
/// `c` — `matvec`'s exact addend sequence, a separate multiply and add
/// (never fused), so every instantiation is bit-identical to every other.
#[inline(always)]
fn tile<const M: usize, const NR: usize>(
    w: &[f64],
    n: usize,
    r0: usize,
    x_rows: &ChunksExact<'_, f64>,
    s0: usize,
    lanes: usize,
    out: &mut [f64],
) {
    let mut w_rows: [&[f64]; M] = [&[]; M];
    let mut rest = &w[r0 * n..];
    for row in &mut w_rows {
        (*row, rest) = rest.split_at(n);
    }
    let mut x_rows = x_rows.clone();
    let mut acc = [[0.0f64; NR]; M];
    for c in 0..n {
        let x_row = x_rows.next().expect("a_t holds n rows");
        let x = &x_row[s0..s0 + NR];
        for (acc_row, w_row) in acc.iter_mut().zip(&w_rows) {
            let wc = w_row[c];
            for (a, &xs) in acc_row.iter_mut().zip(x) {
                *a += wc * xs;
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        out[(r0 + i) * lanes + s0..][..NR].copy_from_slice(acc_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_hand_example() {
        // [1 2; 3 4] · [5, 6] = [17, 39]
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.matvec(&[5.0, 6.0]), vec![17.0, 39.0]);
    }

    #[test]
    fn t_matvec_hand_example() {
        // [1 2; 3 4]ᵀ · [5, 6] = [1·5+3·6, 2·5+4·6] = [23, 34]
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.t_matvec(&[5.0, 6.0]), vec![23.0, 34.0]);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0, 5.0], 1.0);
        assert_eq!(m.as_slice(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
        m.add_outer(&[1.0, 0.0], &[1.0, 1.0, 1.0], -3.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 2), 10.0);
    }

    #[test]
    fn keep_cols_compacts_in_place() {
        let mut m = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f64);
        m.keep_cols(&[0, 2, 3]);
        assert_eq!((m.rows(), m.cols()), (3, 3));
        assert_eq!(
            m.as_slice(),
            &[0.0, 2.0, 3.0, 10.0, 12.0, 13.0, 20.0, 22.0, 23.0]
        );
        m.keep_cols(&[]);
        assert_eq!((m.rows(), m.cols(), m.len()), (3, 0, 0));
    }

    #[test]
    #[should_panic(expected = "keep_cols needs ascending columns in range")]
    fn keep_cols_rejects_unsorted_columns() {
        Matrix::zeros(2, 4).keep_cols(&[2, 1]);
    }

    #[test]
    fn add_scaled_and_clear() {
        let mut a = Matrix::zeros(1, 2);
        let b = Matrix::from_vec(1, 2, vec![2.0, -4.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[1.0, -2.0]);
        a.clear();
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.as_slice()[5], 12.0);
        assert_eq!(m.len(), 6);
    }

    #[test]
    #[should_panic(expected = "matvec shape mismatch")]
    fn matvec_shape_checked() {
        Matrix::zeros(2, 2).matvec(&[1.0]);
    }

    #[test]
    fn matvec_into_matches_matvec_and_reuses_buffer() {
        let m = Matrix::from_fn(3, 4, |r, c| (r as f64 + 1.0) * 0.3 - c as f64 * 0.7);
        let x = [0.5, -1.5, 2.0, 0.25];
        let mut out = vec![9.0; 7]; // stale, wrong-sized buffer
        m.matvec_into(&x, &mut out);
        assert_eq!(out, m.matvec(&x));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn matmat_t_lanes_are_bitwise_matvec() {
        let m = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f64).sin());
        let a_t = Matrix::from_fn(3, 5, |c, s| ((s * 7 + c) as f64 * 0.13).cos());
        let mut out = Matrix::from_vec(1, 1, vec![f64::NAN]); // stale contents
        m.matmat_t(&a_t, &mut out);
        assert_eq!((out.rows(), out.cols()), (4, 5));
        for s in 0..5 {
            let lane: Vec<f64> = (0..3).map(|c| a_t.get(c, s)).collect();
            for (r, v) in m.matvec(&lane).iter().enumerate() {
                assert_eq!(out.get(r, s).to_bits(), v.to_bits(), "({r},{s})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmat_t shape mismatch")]
    fn matmat_t_shape_checked() {
        let mut out = Matrix::zeros(0, 0);
        Matrix::zeros(2, 2).matmat_t(&Matrix::zeros(3, 1), &mut out);
    }

    /// `gemm` at every `max_nr`, as bits.
    fn gemm_bits_per_isa(w: &Matrix, a_t: &Matrix, ep: Epilogue) -> Vec<Vec<u64>> {
        [4, 8, WIDEST]
            .map(|max_nr| {
                let mut out = vec![f64::NAN; w.rows() * a_t.cols()];
                gemm(max_nr, &w.data, w.cols, &a_t.data, a_t.cols, ep, &mut out);
                out.iter().map(|v| v.to_bits()).collect()
            })
            .to_vec()
    }

    /// Every instantiation this host runs — portable always, AVX and
    /// AVX-512 where detected — writes exactly the bits of a naive
    /// ascending-`c` fold, then `+ b[r]`, then `apply_eval`, with no
    /// epilogue and with each one: on shapes that reach full tiles and
    /// both kinds of tail (rows past a multiple of 8 and of 4; lanes past
    /// 16, 8 and 4).
    #[test]
    fn every_instantiation_is_bitwise_the_naive_fold() {
        for (rows, n) in [
            (67, 37),
            (21, 64),
            (9, 64),
            (1, 29),
            (7, 13),
            (4, 1),
            (3, 0),
        ] {
            let w = Matrix::from_fn(rows, n, |r, c| ((r * 31 + c * 7) as f64 * 0.37).sin());
            let bias: Vec<f64> = (0..rows).map(|r| (r as f64 * 0.53).cos() * 2.5).collect();
            for lanes in [1, 3, 4, 5, 8, 15, 16, 17, 33, 41] {
                let a_t = Matrix::from_fn(n, lanes, |c, s| ((c * 13 + s) as f64 * 0.11).cos());
                let fold = |i: usize| {
                    let (r, s) = (i / lanes, i % lanes);
                    (0..n).fold(0.0, |acc, c| acc + w.get(r, c) * a_t.get(c, s))
                };
                let naive: Vec<u64> = (0..rows * lanes).map(|i| fold(i).to_bits()).collect();
                let got = gemm_bits_per_isa(&w, &a_t, Epilogue::Bare);
                assert!(
                    got.iter().all(|g| *g == naive),
                    "{rows}x{n} at {lanes} lanes"
                );
                for act in [None, Some(Activation::Tanh), Some(Activation::Relu)] {
                    let finished: Vec<u64> = (0..rows * lanes)
                        .map(|i| {
                            let z = fold(i) + bias[i / lanes];
                            act.map_or(z, |a| a.apply_eval(z)).to_bits()
                        })
                        .collect();
                    let got = gemm_bits_per_isa(&w, &a_t, Epilogue::Bias(&bias, act));
                    assert!(
                        got.iter().all(|g| *g == finished),
                        "{rows}x{n} at {lanes} lanes, epilogue {act:?}"
                    );
                }
            }
        }
    }

    /// The vectorised tanh epilogue is scalar `tanh_eval` bit for bit on
    /// its special points, in every lane position of full and tail tiles.
    /// (`−0` cannot reach it: a pre-activation is `0.0 + Σ…`, so it
    /// arrives as `+0`; the scalar test pins `tanh_eval(−0)` itself.)
    #[test]
    fn tanh_epilogue_matches_scalar_on_special_points() {
        let special = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            25.0,
            -25.0,
            1e-300,
            -1e-300,
        ];
        let pick = |i: usize| special[i % special.len()];
        // Specials along the lanes (9 rows × 31 lanes), then along the
        // rows of a one-lane product (19 rows).
        let along_lanes = (
            Matrix::from_fn(9, 1, |_, _| 1.0),
            Matrix::from_fn(1, 31, |_, s| pick(s)),
        );
        let along_rows = (
            Matrix::from_fn(19, 1, |r, _| pick(r)),
            Matrix::from_fn(1, 1, |_, _| 1.0),
        );
        for (w, a_t) in [along_lanes, along_rows] {
            let (rows, lanes) = (w.rows(), a_t.cols());
            let bias = vec![0.0; rows];
            let want: Vec<u64> = (0..rows * lanes)
                .map(|i| {
                    let z = 0.0 + w.get(i / lanes, 0) * a_t.get(0, i % lanes) + 0.0;
                    Activation::Tanh.apply_eval(z).to_bits()
                })
                .collect();
            let ep = Epilogue::Bias(&bias, Some(Activation::Tanh));
            for got in gemm_bits_per_isa(&w, &a_t, ep) {
                assert_eq!(got, want, "{rows} rows × {lanes} lanes");
            }
        }
    }

    /// A `rows × 512` weight matrix, a bias with a distinct value per
    /// row (so a bias sliced from the wrong row shows), and a
    /// `512 × lanes` input.
    fn split_case(rows: usize, lanes: usize) -> (Matrix, Vec<f64>, Matrix) {
        let w = Matrix::from_fn(rows, 512, |r, c| {
            ((r * 31 + c * 7) as f64 * 0.37).sin() * 0.1
        });
        let bias = (0..rows).map(|r| (r as f64 * 0.53).cos()).collect();
        let a_t = Matrix::from_fn(512, lanes, |c, s| ((c * 13 + s) as f64 * 0.11).cos());
        (w, bias, a_t)
    }

    /// The split product as a plain sequential loop: one `gemm` per
    /// `CHUNK_ROWS` rows, the bias sliced at each chunk's first row.
    fn chunk_loop(w: &Matrix, a_t: &Matrix, ep: Epilogue) -> Vec<u64> {
        let (n, lanes) = (w.cols(), a_t.cols());
        let mut out = vec![f64::NAN; w.rows() * lanes];
        for r0 in (0..w.rows()).step_by(CHUNK_ROWS) {
            let rows = CHUNK_ROWS.min(w.rows() - r0);
            let ep = match ep {
                Epilogue::Bare => Epilogue::Bare,
                Epilogue::Bias(b, act) => Epilogue::Bias(&b[r0..r0 + rows], act),
            };
            let block = &mut out[r0 * lanes..(r0 + rows) * lanes];
            gemm(
                WIDEST,
                &w.data[r0 * n..(r0 + rows) * n],
                n,
                &a_t.data,
                lanes,
                ep,
                block,
            );
        }
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// Lane by lane through the one-lane product, which never splits.
    fn per_lane_matvec(w: &Matrix, a_t: &Matrix, ep: Epilogue) -> Vec<u64> {
        let lanes = a_t.cols();
        let mut bits = vec![0; w.rows() * lanes];
        let mut col = Vec::new();
        for s in 0..lanes {
            let lane: Vec<f64> = (0..a_t.rows()).map(|c| a_t.get(c, s)).collect();
            w.matvec_then_into(&lane, ep, &mut col);
            for (r, v) in col.iter().enumerate() {
                bits[r * lanes + s] = v.to_bits();
            }
        }
        bits
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The chunked product is bit for bit a sequential loop over the same
    /// chunks and a per-lane matvec: on full chunks (512 rows) and a
    /// partial last one (200 = 3 × 64 + 8), with and without a biased
    /// tanh epilogue. `matmat_t_then` itself is checked wherever it
    /// reaches the split threshold.
    #[test]
    fn chunked_products_are_bitwise_the_chunk_loop_and_per_lane_matvec() {
        for rows in [512, 200] {
            for lanes in [8, 12, 41, 64] {
                let (w, bias, a_t) = split_case(rows, lanes);
                for ep in [
                    Epilogue::Bare,
                    Epilogue::Bias(&bias, Some(Activation::Tanh)),
                ] {
                    let want = chunk_loop(&w, &a_t, ep);
                    assert_eq!(want, per_lane_matvec(&w, &a_t, ep), "{rows}×{lanes} {ep:?}");
                    let mut out = Matrix::from_vec(rows, lanes, vec![f64::NAN; rows * lanes]);
                    w.matmat_t_chunked(&a_t, ep, &mut out);
                    assert_eq!(bits(&out), want, "chunked {rows}×{lanes} {ep:?}");
                    if rows * 512 * lanes >= SPLIT_MACS {
                        let mut out = Matrix::from_vec(1, 1, vec![f64::NAN]);
                        w.matmat_t_then(&a_t, ep, &mut out);
                        assert_eq!(bits(&out), want, "matmat_t_then {rows}×{lanes} {ep:?}");
                    }
                }
            }
        }
    }

    /// Four threads running split products at once — contending for the
    /// one job slot, so some rounds share the helpers and some run alone
    /// — each get exactly the sequential result.
    #[test]
    fn concurrent_split_products_are_bitwise_sequential() {
        let cases: Vec<_> = [8, 41, 64, 12]
            .into_iter()
            .map(|lanes| {
                let (w, bias, a_t) = split_case(512, lanes);
                let want = chunk_loop(&w, &a_t, Epilogue::Bias(&bias, Some(Activation::Tanh)));
                (w, bias, a_t, want)
            })
            .collect();
        let start = std::sync::Barrier::new(cases.len());
        std::thread::scope(|scope| {
            for (w, bias, a_t, want) in &cases {
                let start = &start;
                scope.spawn(move || {
                    let ep = Epilogue::Bias(bias, Some(Activation::Tanh));
                    let mut out = Matrix::zeros(0, 0);
                    start.wait();
                    for round in 0..12 {
                        out.as_mut_slice().fill(f64::NAN);
                        w.matmat_t_then(a_t, ep, &mut out);
                        assert_eq!(&bits(&out), want, "{} lanes, round {round}", a_t.cols());
                    }
                });
            }
        });
    }

    /// A caller that finds the helpers busy computes the whole product
    /// alone, correctly.
    #[test]
    fn a_split_product_with_the_helpers_busy_is_still_exact() {
        let (w, bias, a_t) = split_case(200, 41);
        let ep = Epilogue::Bias(&bias, Some(Activation::Tanh));
        let want = chunk_loop(&w, &a_t, ep);
        let mut out = Matrix::from_vec(1, 1, vec![f64::NAN]);
        par::with_slot_taken(|| w.matmat_t_then(&a_t, ep, &mut out));
        assert_eq!(bits(&out), want);
    }

    #[test]
    fn reshape_reuses_and_resizes() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0; 6]);
        m.reshape(3, 4);
        assert_eq!((m.rows(), m.cols()), (3, 4));
        assert_eq!(m.len(), 12);
        m.reshape(1, 2);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_fn(3, 2, |r, c| r as f64 - c as f64);
        let s = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);
    }
}
