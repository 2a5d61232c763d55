//! Dense row-major `f64` matrices.

use atlas_netlist_shim::DetRng;
use serde::{Deserialize, Serialize};

use crate::simd::{self, KernelLevel};

// The deterministic RNG lives in atlas-netlist; keep this crate free of
// circuit dependencies by vendoring the tiny generator locally.
mod atlas_netlist_shim {
    /// xoshiro256** seeded by SplitMix64 (identical to
    /// `atlas_netlist::detrng::DetRng`, duplicated so `atlas-nn` stays a
    /// pure ML crate with no EDA dependencies).
    #[derive(Debug, Clone)]
    pub struct DetRng {
        s: [u64; 4],
    }

    impl DetRng {
        pub fn new(seed: u64) -> DetRng {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            let mut s = [next(), next(), next(), next()];
            if s.iter().all(|&x| x == 0) {
                s[0] = 1;
            }
            DetRng { s }
        }

        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform in [0, 1).
        pub fn uniform(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Output rows per register tile of the blocked matmul kernel.
const TILE_ROWS: usize = 4;
/// Output columns per register tile of the blocked matmul kernel
/// (`TILE_ROWS × TILE_COLS` f64 accumulators stay within one vector
/// register file on AVX2-class hardware).
const TILE_COLS: usize = 8;
/// Output width that takes the full-row specialization of the kernel
/// (one k-loop for the whole row instead of one per `TILE_COLS` group).
const FULL_ROW_COLS: usize = 24;
/// Row ranges shorter than this take a scalar row-at-a-time path: for a
/// per-cycle attention block on a small sub-module, register-tile setup
/// costs more than it saves.
const SMALL_BLOCK_ROWS: usize = 16;
/// Widest output the scalar small-block path supports with a stack
/// accumulator; wider products always tile.
const SMALL_BLOCK_COLS_MAX: usize = 64;

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use atlas_nn::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.get(1, 0), 3.0);
/// let mt = m.transpose();
/// assert_eq!(mt.get(0, 1), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Matrix {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform random initialization, deterministic in `seed`.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = DetRng::new(seed);
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| (rng.uniform() * 2.0 - 1.0) * bound)
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Read one element.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Write one element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × other`.
    ///
    /// Runs the blocked dense kernel
    /// ([`matmul_rows_into`](Self::matmul_rows_into)). Genuinely sparse
    /// operands belong on
    /// [`SparseAdj::matmul`](crate::SparseAdj::matmul), the CSR entry
    /// point — this kernel does not skip zero elements.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_rows_into(other, 0, self.rows, &mut out);
        out
    }

    /// [`matmul`](Self::matmul) pinned to an explicit kernel level,
    /// bypassing dispatch — the SIMD-vs-scalar parity tests compare both
    /// levels inside one process with this.
    #[cfg(test)]
    pub(crate) fn matmul_level(&self, other: &Matrix, level: KernelLevel) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_tiled_rows(other, 0, self.rows, &mut out, level, |orow, acc, _, _| {
            orow.copy_from_slice(acc);
        });
        out
    }

    /// Blocked matmul kernel: writes `self[row_start .. row_start+row_count]
    /// × other` into the same row range of `out`, overwriting it (rows
    /// outside the range are untouched). Accepting the output buffer lets
    /// hot paths reuse scratch matrices instead of paying an allocation
    /// and a cold-page write per product.
    ///
    /// The kernel is register-tiled: each 4×8 output tile accumulates in
    /// locals across the whole inner dimension, so output elements are
    /// written once instead of once per `k` and the `other` panel is
    /// reused across four rows. Per output element the accumulation order
    /// is `k`-ascending — identical to the naive ikj loop — so tiling
    /// never changes results bitwise, and the row-range form is
    /// bit-identical to a standalone [`matmul`](Self::matmul) of the
    /// extracted rows. That is what lets the inference path stack
    /// per-cycle matrices into one tall operand (one kernel call per
    /// layer per chunk) while staying bit-identical to the per-cycle
    /// forward.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch, if `out` is not as wide as
    /// `other`, or if the row range exceeds `self` or `out`.
    pub fn matmul_rows_into(
        &self,
        other: &Matrix,
        row_start: usize,
        row_count: usize,
        out: &mut Matrix,
    ) {
        // Overwrite, not accumulate: each tile's `acc` already holds the
        // full k-sum (and a sum that starts at +0.0 can never be -0.0, so
        // this is bit-identical to adding into a zeroed buffer).
        let level = simd::active_kernel();
        self.matmul_tiled_rows(
            other,
            row_start,
            row_count,
            out,
            level,
            |orow, acc, _, _| {
                orow.copy_from_slice(acc);
            },
        );
    }

    /// Fused affine + activation: writes `act(self[range]·other + bias)`
    /// into the same row range of `out` — one linear layer of the
    /// inference hot path in a single kernel pass, instead of a matmul
    /// sweep, a bias sweep, and an activation sweep over the output.
    /// Per element it performs exactly `act(ksum + bias_j)` — the same
    /// operation sequence as the separate passes — so fusion never
    /// changes results bitwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, a bias not shaped `1 × other.cols()`, or
    /// an out-of-bounds row range.
    pub fn matmul_bias_act_rows_into(
        &self,
        other: &Matrix,
        bias: &Matrix,
        act: impl Fn(f64) -> f64,
        row_start: usize,
        row_count: usize,
        out: &mut Matrix,
    ) {
        assert_eq!(bias.shape(), (1, other.cols), "bias shape mismatch");
        let level = simd::active_kernel();
        self.matmul_tiled_rows(
            other,
            row_start,
            row_count,
            out,
            level,
            |orow, acc, _, j| {
                let brow = &bias.data[j..j + acc.len()];
                for ((o, &v), &b) in orow.iter_mut().zip(acc).zip(brow) {
                    *o = act(v + b);
                }
            },
        );
    }

    /// [`matmul_tiled_rows`](Self::matmul_tiled_rows) specialized to
    /// 24-column outputs: 4 rows × the full output width accumulate per
    /// k-step, with a single-row tail. Accumulation stays `k`-ascending
    /// per element, so this is bit-identical to the generic tiling.
    fn matmul_tiled_rows_w24(
        &self,
        other: &Matrix,
        row_start: usize,
        row_count: usize,
        out: &mut Matrix,
        level: KernelLevel,
        mut write: impl FnMut(&mut [f64], &[f64], usize, usize),
    ) {
        const NR: usize = FULL_ROW_COLS;
        let kd = self.cols;
        let row_end = row_start + row_count;
        let mut i = row_start;
        while i + TILE_ROWS <= row_end {
            let mut acc = [[0.0f64; NR]; TILE_ROWS];
            let a0 = &self.data[i * kd..(i + 1) * kd];
            let a1 = &self.data[(i + 1) * kd..(i + 2) * kd];
            let a2 = &self.data[(i + 2) * kd..(i + 3) * kd];
            let a3 = &self.data[(i + 3) * kd..(i + 4) * kd];
            simd::tile4x24_f64(level, [a0, a1, a2, a3], &other.data, &mut acc);
            for (r, accr) in acc.iter().enumerate() {
                write(
                    &mut out.data[(i + r) * NR..(i + r + 1) * NR],
                    accr,
                    i + r,
                    0,
                );
            }
            i += TILE_ROWS;
        }
        while i < row_end {
            let mut acc = [0.0f64; NR];
            let arow = &self.data[i * kd..(i + 1) * kd];
            for (&ak, brow) in arow.iter().zip(other.data.chunks_exact(NR)) {
                for (o, &bv) in acc.iter_mut().zip(brow) {
                    *o += ak * bv;
                }
            }
            write(&mut out.data[i * NR..(i + 1) * NR], &acc, i, 0);
            i += 1;
        }
    }

    /// Fused layer-mix epilogue: for the row range,
    /// `out = max(mix·out + (1-mix)·act(self·other + bias), 0)` — the
    /// SGFormer attention/propagation blend in the propagation linear's
    /// write-back, saving a full read-modify-write sweep over both
    /// branches. Per element the operations match the unfused sequence
    /// exactly, so fusion never changes results bitwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, a bias not shaped `1 × other.cols()`, or
    /// an out-of-bounds row range.
    pub fn matmul_bias_act_mix_rows_into(
        &self,
        other: &Matrix,
        bias: &Matrix,
        act: impl Fn(f64) -> f64,
        mix: f64,
        row_start: usize,
        row_count: usize,
        out: &mut Matrix,
    ) {
        assert_eq!(bias.shape(), (1, other.cols), "bias shape mismatch");
        let level = simd::active_kernel();
        self.matmul_tiled_rows(
            other,
            row_start,
            row_count,
            out,
            level,
            |orow, acc, _, j| {
                let brow = &bias.data[j..j + acc.len()];
                for ((o, &v), &b) in orow.iter_mut().zip(acc).zip(brow) {
                    *o = (mix * *o + (1.0 - mix) * act(v + b)).max(0.0);
                }
            },
        );
    }

    /// [`matmul_bias_act_mix_rows_into`](Self::matmul_bias_act_mix_rows_into)
    /// with per-block mean pooling fused into the same write-back: as each
    /// finished tile row of `out` is stored, it is also accumulated into
    /// `pool[row / block_rows]`, and once the whole range is written every
    /// pool row is divided by `block_rows`. For the batched encoder this
    /// folds the last layer's pooling sweep (a full re-read of `out`) into
    /// the layer's own epilogue.
    ///
    /// `pool` is a flat `(rows / block_rows) × other.cols()` row-major
    /// buffer, fully overwritten. The tiled drivers store tile rows in
    /// ascending row order within each block and the division happens
    /// after the sums — the exact operation sequence of
    /// [`mean_rows_block_into`](Self::mean_rows_block_into) per block — so
    /// the pooled rows are bit-identical to running that kernel on the
    /// finished `out`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, a bias not shaped `1 × other.cols()`, a
    /// row range that is not the whole `0 .. rows` of `out`, a
    /// `block_rows` that does not divide `rows`, or a `pool` of the wrong
    /// length.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_bias_act_mix_pool_rows_into(
        &self,
        other: &Matrix,
        bias: &Matrix,
        act: impl Fn(f64) -> f64,
        mix: f64,
        out: &mut Matrix,
        block_rows: usize,
        pool: &mut [f64],
    ) {
        assert_eq!(bias.shape(), (1, other.cols), "bias shape mismatch");
        let rows = out.rows;
        let nd = other.cols;
        assert!(
            block_rows > 0 && rows.is_multiple_of(block_rows),
            "pool block size must divide the row count"
        );
        assert_eq!(pool.len(), (rows / block_rows) * nd, "pool buffer shape");
        pool.fill(0.0);
        let level = simd::active_kernel();
        self.matmul_tiled_rows(other, 0, rows, out, level, |orow, acc, row, j| {
            let brow = &bias.data[j..j + acc.len()];
            for ((o, &v), &b) in orow.iter_mut().zip(acc).zip(brow) {
                *o = (mix * *o + (1.0 - mix) * act(v + b)).max(0.0);
            }
            let prow = &mut pool[(row / block_rows) * nd + j..][..acc.len()];
            for (p, &o) in prow.iter_mut().zip(orow.iter()) {
                *p += o;
            }
        });
        let n = block_rows as f64;
        for v in pool {
            *v /= n;
        }
    }

    /// Fused attention-normalize epilogue: for the row range,
    /// `out[r] = (self[r]·other) / denom[r]` — the linear-attention
    /// numerator divided by its per-row normalizer in the kernel
    /// write-back, saving a read-modify-write sweep over the attention
    /// buffer. Per element this is exactly `ksum / denom_r`, the same
    /// operations as the unfused sequence, so results match bitwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, a `denom` narrower than one column, or
    /// an out-of-bounds row range (on `self`, `out`, or `denom`).
    pub fn matmul_div_rows_into(
        &self,
        other: &Matrix,
        denom: &Matrix,
        row_start: usize,
        row_count: usize,
        out: &mut Matrix,
    ) {
        assert!(denom.cols >= 1, "denominator needs a column");
        assert!(
            row_start + row_count <= denom.rows,
            "denominator row range out of bounds"
        );
        let level = simd::active_kernel();
        self.matmul_tiled_rows(
            other,
            row_start,
            row_count,
            out,
            level,
            |orow, acc, row, _| {
                let dv = denom.data[row * denom.cols];
                for (o, &v) in orow.iter_mut().zip(acc) {
                    *o = v / dv;
                }
            },
        );
    }

    /// Zero-skipping sibling of
    /// [`matmul_bias_act_rows_into`](Self::matmul_bias_act_rows_into)
    /// for sparse left operands. The
    /// encoder's feature matrices are ~85% exact zeros (one-hot type
    /// channels plus a toggle bit), so the embed layer runs row-wise
    /// axpy with an `a == 0.0` skip instead of the dense register tile.
    /// Skipping a zero term never changes bits (the accumulators are
    /// never -0.0), so results equal the dense kernel's exactly.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, a bias not shaped `1 × other.cols()`, or
    /// an out-of-bounds row range.
    pub fn matmul_bias_act_sparse_rows_into(
        &self,
        other: &Matrix,
        bias: &Matrix,
        act: impl Fn(f64) -> f64,
        row_start: usize,
        row_count: usize,
        out: &mut Matrix,
    ) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(out.cols, other.cols, "matmul output width mismatch");
        assert_eq!(bias.shape(), (1, other.cols), "bias shape mismatch");
        assert!(
            row_start + row_count <= self.rows && row_start + row_count <= out.rows,
            "matmul row range out of bounds"
        );
        let kd = self.cols;
        let nd = other.cols;
        let level = simd::active_kernel();
        for i in row_start..row_start + row_count {
            let orow = &mut out.data[i * nd..(i + 1) * nd];
            orow.fill(0.0);
            let arow = &self.data[i * kd..(i + 1) * kd];
            for (k, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * nd..(k + 1) * nd];
                simd::axpy_f64(level, a, brow, orow);
            }
            for (o, &b) in orow.iter_mut().zip(&bias.data) {
                *o = act(*o + b);
            }
        }
    }

    /// The register-tiled kernel core shared by the `matmul*` entry
    /// points. `write(out_tile_row, acc_row, row, j)` stores one finished
    /// tile row of output row `row`, starting at output column `j`.
    /// `level` selects the micro-kernel family (scalar or SIMD) — every
    /// level is bit-identical; public entry points pass
    /// [`simd::active_kernel`].
    fn matmul_tiled_rows(
        &self,
        other: &Matrix,
        row_start: usize,
        row_count: usize,
        out: &mut Matrix,
        level: KernelLevel,
        mut write: impl FnMut(&mut [f64], &[f64], usize, usize),
    ) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(out.cols, other.cols, "matmul output width mismatch");
        assert!(
            row_start + row_count <= self.rows && row_start + row_count <= out.rows,
            "matmul row range out of bounds"
        );
        let kd = self.cols;
        let nd = other.cols;
        if row_count < SMALL_BLOCK_ROWS && nd <= SMALL_BLOCK_COLS_MAX {
            // Scalar row-at-a-time path for short row ranges, with the
            // zero skip the tile cannot afford (skipping an exact-zero
            // term never changes bits: the accumulators are never -0.0).
            let mut acc = [0.0f64; SMALL_BLOCK_COLS_MAX];
            for i in row_start..row_start + row_count {
                let acc = &mut acc[..nd];
                acc.fill(0.0);
                let arow = &self.data[i * kd..(i + 1) * kd];
                for (k, &a) in arow.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let brow = &other.data[k * nd..(k + 1) * nd];
                    simd::axpy_f64(level, a, brow, acc);
                }
                write(&mut out.data[i * nd..(i + 1) * nd], acc, i, 0);
            }
            return;
        }
        if nd == FULL_ROW_COLS {
            // 24-wide outputs (the serving encoder's hidden width and the
            // feature width) take a full-row tile: one k-loop covers all
            // three 8-lane groups, cutting the per-k broadcast loads 3x.
            self.matmul_tiled_rows_w24(other, row_start, row_count, out, level, write);
            return;
        }
        let row_end = row_start + row_count;
        let mut i = row_start;
        while i < row_end {
            let mr = TILE_ROWS.min(row_end - i);
            let mut j = 0;
            while j < nd {
                let nr = TILE_COLS.min(nd - j);
                let mut acc = [[0.0f64; TILE_COLS]; TILE_ROWS];
                if mr == TILE_ROWS && nr == TILE_COLS {
                    // Full tile: the dispatched 4×8 micro-kernel (scalar
                    // zips or AVX2 mul+add — bit-identical either way).
                    let a0 = &self.data[i * kd..(i + 1) * kd];
                    let a1 = &self.data[(i + 1) * kd..(i + 2) * kd];
                    let a2 = &self.data[(i + 2) * kd..(i + 3) * kd];
                    let a3 = &self.data[(i + 3) * kd..(i + 4) * kd];
                    simd::tile4x8_f64(level, [a0, a1, a2, a3], &other.data, nd, j, &mut acc);
                } else {
                    // Edge tile: same k-ascending accumulation, ragged shape.
                    for k in 0..kd {
                        let b = &other.data[k * nd + j..k * nd + j + nr];
                        for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                            let a = self.data[(i + r) * kd + k];
                            for (o, &bv) in accr[..nr].iter_mut().zip(b) {
                                *o += a * bv;
                            }
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate().take(mr) {
                    let orow = &mut out.data[(i + r) * nd + j..(i + r) * nd + j + nr];
                    write(orow, &accr[..nr], i + r, j);
                }
                j += nr;
            }
            i += mr;
        }
    }

    /// `selfᵀ × other` without materializing the transpose.
    ///
    /// Keeps the scalar zero-skipping loop: the training path runs this
    /// kernel over post-relu activations and sparse feature matrices,
    /// where skipping zero rows beats a dense register tile.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let arow = &self.data[k * self.cols..(k + 1) * self.cols];
            let brow = &other.data[k * other.cols..(k + 1) * other.cols];
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Segmented [`matmul_tn`](Self::matmul_tn): `selfᵀ × other` restricted
    /// to the shared row range `row_start .. row_start+row_count` of both
    /// operands — the per-cycle `kv = φ(K)ᵀ·V` reduction of the batched
    /// attention path, which must not mix rows across cycle blocks.
    ///
    /// Register-tiled like [`matmul_rows_into`](Self::matmul_rows_into)
    /// (the attention path feeds it dense `φ(K) ≥ 0.01` operands, so a
    /// zero skip buys nothing there). Per output element the accumulation
    /// is `k`-ascending, and a sum starting at +0.0 can never be -0.0, so
    /// results are bit-identical to `matmul_tn` over the extracted rows
    /// for all finite inputs.
    ///
    /// # Panics
    ///
    /// Panics if the row range exceeds either operand.
    pub fn matmul_tn_block(&self, other: &Matrix, row_start: usize, row_count: usize) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_block_into(other, row_start, row_count, &mut out);
        out
    }

    /// [`matmul_tn_block`](Self::matmul_tn_block) into a caller-provided
    /// `self.cols() × other.cols()` buffer (fully overwritten), so hot
    /// paths can reuse scratch memory.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds row range or an output shape mismatch.
    pub fn matmul_tn_block_into(
        &self,
        other: &Matrix,
        row_start: usize,
        row_count: usize,
        out: &mut Matrix,
    ) {
        self.matmul_tn_block_into_level(other, row_start, row_count, out, simd::active_kernel());
    }

    /// [`matmul_tn_block_into`](Self::matmul_tn_block_into) pinned to an
    /// explicit kernel level (the parity tests compare levels directly).
    fn matmul_tn_block_into_level(
        &self,
        other: &Matrix,
        row_start: usize,
        row_count: usize,
        out: &mut Matrix,
        level: KernelLevel,
    ) {
        assert!(
            row_start + row_count <= self.rows && row_start + row_count <= other.rows,
            "matmul_tn row range out of bounds"
        );
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "matmul_tn output shape mismatch"
        );
        let (ac, bc) = (self.cols, other.cols);
        let arange = &self.data[row_start * ac..(row_start + row_count) * ac];
        let brange = &other.data[row_start * bc..(row_start + row_count) * bc];
        if row_count < SMALL_BLOCK_ROWS {
            // Scalar path for short shared-row ranges (small sub-module
            // attention blocks) — identical to `matmul_tn` over the range.
            out.data.fill(0.0);
            for (arow, brow) in arange.chunks_exact(ac).zip(brange.chunks_exact(bc)) {
                for (i, &a) in arow.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let orow = &mut out.data[i * bc..(i + 1) * bc];
                    simd::axpy_f64(level, a, brow, orow);
                }
            }
            return;
        }
        let mut i = 0;
        while i < ac {
            let mr = TILE_ROWS.min(ac - i);
            let mut j = 0;
            while j < bc {
                let nr = TILE_COLS.min(bc - j);
                let mut acc = [[0.0f64; TILE_COLS]; TILE_ROWS];
                if mr == TILE_ROWS && nr == TILE_COLS {
                    simd::tn_tile4x8_f64(level, arange, brange, ac, bc, i, j, &mut acc);
                } else {
                    for (arow, brow) in arange.chunks_exact(ac).zip(brange.chunks_exact(bc)) {
                        let a = &arow[i..i + mr];
                        let b = &brow[j..j + nr];
                        for (accr, &av) in acc.iter_mut().zip(a) {
                            for (o, &bv) in accr[..nr].iter_mut().zip(b) {
                                *o += av * bv;
                            }
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate().take(mr) {
                    out.data[(i + r) * bc + j..(i + r) * bc + j + nr].copy_from_slice(&accr[..nr]);
                }
                j += nr;
            }
            i += mr;
        }
    }

    /// Column sums over the row range `row_start .. row_start+row_count`,
    /// as a `1 × cols` matrix — the per-cycle `ksum = φ(K)ᵀ·1` reduction
    /// of the batched attention path. Bit-identical to
    /// `matmul_tn_block(ones, ..)` (it mirrors that kernel's zero skip,
    /// and `a × 1.0` is exactly `a`).
    ///
    /// # Panics
    ///
    /// Panics if the row range exceeds `self`.
    pub fn col_sums_block(&self, row_start: usize, row_count: usize) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.col_sums_block_into(row_start, row_count, &mut out.data);
        out
    }

    /// [`col_sums_block`](Self::col_sums_block) into a caller slice of
    /// length `cols` (fully overwritten), for allocation-free hot paths.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != cols` or the row range exceeds `self`.
    pub fn col_sums_block_into(&self, row_start: usize, row_count: usize, dst: &mut [f64]) {
        assert_eq!(dst.len(), self.cols, "col_sums destination width");
        assert!(
            row_start + row_count <= self.rows,
            "col_sums row range out of bounds"
        );
        dst.fill(0.0);
        for r in row_start..row_start + row_count {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &v) in dst.iter_mut().zip(row) {
                if v != 0.0 {
                    *o += v;
                }
            }
        }
    }

    /// `self × otherᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..other.rows {
                let brow = &other.data[j * other.cols..(j + 1) * other.cols];
                let mut acc = 0.0;
                for (&a, &b) in arow.iter().zip(brow) {
                    acc += a * b;
                }
                out.data[i * out.cols + j] = acc;
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place elementwise map — [`map`](Self::map) without the
    /// allocation, for scratch-buffer hot paths.
    pub fn apply(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Set every element to `value` (scratch-buffer reset).
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Elementwise combine with another same-shaped matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place broadcast add of a `1 × cols` bias row to every row — the
    /// affine step of every inference-path linear layer.
    ///
    /// # Panics
    ///
    /// Panics unless `bias` is `1 × self.cols()`.
    pub fn add_row_bias(&mut self, bias: &Matrix) {
        assert_eq!(bias.shape(), (1, self.cols), "bias shape mismatch");
        for row in self.data.chunks_mut(self.cols.max(1)) {
            for (o, &b) in row.iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Column-wise mean, as a `1 × cols` matrix.
    pub fn mean_rows(&self) -> Matrix {
        self.mean_rows_block(0, self.rows)
    }

    /// Column-wise mean over the row range `row_start ..
    /// row_start+row_count` — the per-cycle pooling step of the batched
    /// inference path. Bit-identical to [`mean_rows`](Self::mean_rows) of
    /// the extracted rows (same row-ascending summation, same divisor).
    ///
    /// # Panics
    ///
    /// Panics if the row range exceeds `self`.
    pub fn mean_rows_block(&self, row_start: usize, row_count: usize) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.mean_rows_block_into(row_start, row_count, &mut out.data);
        out
    }

    /// [`mean_rows_block`](Self::mean_rows_block) into a caller slice of
    /// length `cols`, for allocation-free per-cycle pooling.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != cols` or the row range exceeds `self`.
    pub fn mean_rows_block_into(&self, row_start: usize, row_count: usize, dst: &mut [f64]) {
        assert_eq!(dst.len(), self.cols, "mean_rows destination width");
        assert!(
            row_start + row_count <= self.rows,
            "mean_rows row range out of bounds"
        );
        dst.fill(0.0);
        for r in row_start..row_start + row_count {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &v) in dst.iter_mut().zip(row) {
                *o += v;
            }
        }
        let n = row_count.max(1) as f64;
        for v in dst {
            *v /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        let mut m2 = m.clone();
        m2.set(0, 0, 9.0);
        assert_eq!(m2.get(0, 0), 9.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn fused_transpose_products() {
        let a = Matrix::xavier(4, 3, 1);
        let b = Matrix::xavier(4, 5, 2);
        let expect = a.transpose().matmul(&b);
        let got = a.matmul_tn(&b);
        assert!((0..3).all(|r| (0..5).all(|c| (expect.get(r, c) - got.get(r, c)).abs() < 1e-12)));

        let a = Matrix::xavier(4, 3, 3);
        let b = Matrix::xavier(5, 3, 4);
        let expect = a.matmul(&b.transpose());
        let got = a.matmul_nt(&b);
        assert!((0..4).all(|r| (0..5).all(|c| (expect.get(r, c) - got.get(r, c)).abs() < 1e-12)));
    }

    #[test]
    fn mean_rows() {
        let m = Matrix::from_rows(&[&[1.0, 3.0], &[3.0, 5.0]]);
        assert_eq!(m.mean_rows(), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = Matrix::xavier(10, 10, 7);
        let b = Matrix::xavier(10, 10, 7);
        assert_eq!(a, b);
        let bound = (6.0 / 20.0f64).sqrt();
        assert!(a.as_slice().iter().all(|v| v.abs() <= bound));
        assert!(a.norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn bad_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Reference matmul: per-output-element dot product with k ascending —
    /// the accumulation order the blocked kernel must reproduce bitwise.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows());
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Copy a row range into a standalone matrix.
    fn extract_rows(m: &Matrix, start: usize, count: usize) -> Matrix {
        let rows: Vec<&[f64]> = (start..start + count).map(|r| m.row(r)).collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn blocked_kernel_handles_every_tile_edge() {
        // Shapes straddling every kernel path: the 4×8 register tile with
        // full tiles, ragged row tails, ragged column tails, and sub-tile
        // matrices; the scalar small-block path (few rows); and the
        // 24-wide full-row specialization with (20, 17) and without (16)
        // a single-row tail.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 48, 8),
            (5, 24, 9),
            (8, 2, 16),
            (9, 7, 17),
            (13, 48, 48),
            (16, 5, 24),
            (17, 48, 24),
            (20, 24, 24),
            (33, 48, 48),
        ] {
            let a = Matrix::xavier(m, k, (m * 31 + n) as u64);
            let b = Matrix::xavier(k, n, (k * 17 + n) as u64);
            assert_eq!(
                a.matmul(&b),
                matmul_reference(&a, &b),
                "blocked kernel diverged at {m}×{k}×{n}"
            );
        }
    }

    #[test]
    fn blocked_kernel_is_branch_free_on_zeros() {
        // Zeros in either operand must flow through the kernel (no sparse
        // skip) and still match the reference exactly.
        let mut a = Matrix::xavier(6, 10, 3);
        for i in 0..a.as_slice().len() {
            if i % 3 == 0 {
                a.as_mut_slice()[i] = 0.0;
            }
        }
        let b = Matrix::xavier(10, 12, 4);
        assert_eq!(a.matmul(&b), matmul_reference(&a, &b));
    }

    #[test]
    fn matmul_rows_into_matches_standalone_matmul() {
        // Output widths cover the generic tile (9), the 24-wide full-row
        // path, and a two-tile width (48); ranges cover the scalar
        // small-block path (< 16 rows) and the tiled paths (≥ 16).
        for width in [9usize, 24, 48] {
            let a = Matrix::xavier(40, 6, 5);
            let b = Matrix::xavier(6, width, 6 + width as u64);
            for (start, count) in [(0usize, 40usize), (0, 4), (3, 20), (39, 1), (2, 0), (7, 17)] {
                let mut out = Matrix::zeros(40, width);
                a.matmul_rows_into(&b, start, count, &mut out);
                for r in 0..40 {
                    if r < start || r >= start + count {
                        assert!(out.row(r).iter().all(|&v| v == 0.0), "row {r} touched");
                    } else {
                        let single = extract_rows(&a, r, 1).matmul(&b);
                        assert_eq!(out.row(r), single.row(0), "row {r} diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_tn_block_matches_extracted_rows() {
        // Widths cover the generic tile and range lengths both the scalar
        // (<16 shared rows) and tiled (≥16) paths.
        for width in [6usize, 24] {
            let a = Matrix::xavier(40, 5, 7);
            let b = Matrix::xavier(40, width, 8 + width as u64);
            for (start, count) in [(0usize, 40usize), (2, 5), (39, 1), (3, 20)] {
                let got = a.matmul_tn_block(&b, start, count);
                let want =
                    extract_rows(&a, start, count).matmul_tn(&extract_rows(&b, start, count));
                assert_eq!(got, want, "range {start}+{count} width {width} diverged");
            }
        }
    }

    #[test]
    fn col_sums_block_matches_ones_product() {
        let mut a = Matrix::xavier(9, 7, 11);
        a.set(4, 2, 0.0); // exercise the zero skip
        for (start, count) in [(0usize, 9usize), (3, 4), (8, 1), (5, 0)] {
            let got = a.col_sums_block(start, count);
            let want = a
                .matmul_tn_block(&Matrix::full(9, 1, 1.0), start, count)
                .transpose();
            assert_eq!(got, want, "range {start}+{count} diverged");
        }
    }

    #[test]
    fn mean_rows_block_matches_extracted_rows() {
        let m = Matrix::xavier(8, 5, 13);
        for (start, count) in [(0usize, 8usize), (2, 3), (7, 1)] {
            assert_eq!(
                m.mean_rows_block(start, count),
                extract_rows(&m, start, count).mean_rows(),
                "range {start}+{count} diverged"
            );
        }
    }

    #[test]
    fn fused_pool_epilogue_matches_separate_pooling() {
        // The pool-fused mix kernel must equal the plain mix kernel
        // followed by mean_rows_block_into, bitwise, for block sizes that
        // route through the small-block, generic-tile, and w24 paths.
        for &(blocks, n, hidden) in &[(3usize, 5usize, 9usize), (2, 21, 24), (4, 4, 48)] {
            let rows = blocks * n;
            let x = Matrix::xavier(rows, hidden, 91);
            let w = Matrix::xavier(hidden, hidden, 92);
            let b = Matrix::xavier(1, hidden, 93);
            let prior = Matrix::xavier(rows, hidden, 94);
            let act = |v: f64| v.max(0.0);

            let mut expect_out = prior.clone();
            x.matmul_bias_act_mix_rows_into(&w, &b, act, 0.4, 0, rows, &mut expect_out);
            let mut expect_pool = vec![0.0; blocks * hidden];
            for blk in 0..blocks {
                expect_out.mean_rows_block_into(
                    blk * n,
                    n,
                    &mut expect_pool[blk * hidden..(blk + 1) * hidden],
                );
            }

            let mut out = prior.clone();
            let mut pool = vec![f64::NAN; blocks * hidden];
            x.matmul_bias_act_mix_pool_rows_into(&w, &b, act, 0.4, &mut out, n, &mut pool);
            assert_eq!(out, expect_out, "{blocks}x{n}x{hidden} out diverged");
            assert_eq!(pool, expect_pool, "{blocks}x{n}x{hidden} pool diverged");
        }
    }

    #[test]
    fn add_row_bias_broadcasts() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.add_row_bias(&Matrix::from_rows(&[&[10.0, 20.0]]));
        assert_eq!(m, Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]]));
    }

    #[test]
    #[should_panic(expected = "bias shape mismatch")]
    fn add_row_bias_rejects_bad_shape() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_bias(&Matrix::zeros(1, 2));
    }

    proptest! {
        #[test]
        fn blocked_matmul_is_bit_identical_to_reference(
            m in 1usize..40, k in 1usize..14, n in 1usize..27, seed in 0u64..50
        ) {
            // m spans the scalar (<16) and tiled (≥16) row paths; n spans
            // the generic tile and the 24-wide full-row specialization.
            let a = Matrix::xavier(m, k, seed);
            let b = Matrix::xavier(k, n, seed + 1000);
            prop_assert_eq!(a.matmul(&b), matmul_reference(&a, &b));
        }

        /// The satellite parity guarantee: the hand-written SIMD kernels
        /// are bit-identical to the scalar fallback across tile-edge
        /// shapes — row counts straddling the %4 tile height and the <16
        /// small-block cutoff, widths straddling the %8 tile width, the
        /// 24-wide full-row specialization, and ragged edges of both.
        /// (Vacuously scalar-vs-scalar on hosts without AVX2; the CI
        /// forced-scalar lane covers that side explicitly.)
        #[test]
        fn simd_matmul_is_bit_identical_to_scalar(
            m in 1usize..40, k in 1usize..30, n in 1usize..60, seed in 0u64..200
        ) {
            let a = Matrix::xavier(m, k, seed);
            let b = Matrix::xavier(k, n, seed + 5000);
            prop_assert_eq!(
                a.matmul_level(&b, simd::detected_kernel()),
                a.matmul_level(&b, KernelLevel::Scalar)
            );
        }

        /// Same guarantee for the shared-row transpose kernel feeding the
        /// attention reductions, across both its scalar (<16 shared rows)
        /// and tiled paths.
        #[test]
        fn simd_matmul_tn_is_bit_identical_to_scalar(
            rows in 1usize..40, ac in 1usize..14, bc in 1usize..30, seed in 0u64..200
        ) {
            let a = Matrix::xavier(rows, ac, seed);
            let b = Matrix::xavier(rows, bc, seed + 7000);
            let mut scalar = Matrix::zeros(ac, bc);
            let mut vector = Matrix::zeros(ac, bc);
            a.matmul_tn_block_into_level(&b, 0, rows, &mut scalar, KernelLevel::Scalar);
            a.matmul_tn_block_into_level(&b, 0, rows, &mut vector, simd::detected_kernel());
            prop_assert_eq!(scalar, vector);
        }

        #[test]
        fn transpose_involution(rows in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
            let m = Matrix::xavier(rows, cols, seed);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn matmul_identity(n in 1usize..6, seed in 0u64..100) {
            let m = Matrix::xavier(n, n, seed);
            let mut eye = Matrix::zeros(n, n);
            for i in 0..n {
                eye.set(i, i, 1.0);
            }
            let prod = m.matmul(&eye);
            for r in 0..n {
                for c in 0..n {
                    prop_assert!((prod.get(r, c) - m.get(r, c)).abs() < 1e-12);
                }
            }
        }
    }
}
