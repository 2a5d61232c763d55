//! Sparse adjacency matrices for graph propagation.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;
use crate::simd;

/// A symmetric, degree-normalized adjacency matrix in CSR form:
/// `Â = D^(-1/2) (A + Aᵀ + I) D^(-1/2)`.
///
/// Symmetrization keeps the backward pass free (`Âᵀ = Â`) at the cost of
/// edge direction — direction information still reaches the model through
/// the global attention branch and the toggle features.
///
/// # Examples
///
/// ```
/// use atlas_nn::{Matrix, SparseAdj};
///
/// let adj = SparseAdj::normalized_from_edges(3, &[(0, 1), (1, 2)]);
/// let x = Matrix::from_rows(&[&[1.0], &[0.0], &[0.0]]);
/// let y = adj.matmul(&x);
/// // Node 1 receives mass from node 0.
/// assert!(y.get(1, 0) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseAdj {
    n: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl SparseAdj {
    /// Build the normalized adjacency from directed edges (`u → v` local
    /// node indices). Duplicate edges are merged; self-loops are added to
    /// every node.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n` or `n == 0`.
    pub fn normalized_from_edges(n: usize, edges: &[(u32, u32)]) -> SparseAdj {
        assert!(n > 0, "graph must have nodes");
        // Symmetrize + self loops, dedup.
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2 + n);
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            pairs.push((u, v));
            pairs.push((v, u));
        }
        for i in 0..n as u32 {
            pairs.push((i, i));
        }
        pairs.sort_unstable();
        pairs.dedup();

        let mut degree = vec![0usize; n];
        for &(u, _) in &pairs {
            degree[u as usize] += 1;
        }
        let inv_sqrt: Vec<f64> = degree.iter().map(|&d| 1.0 / (d as f64).sqrt()).collect();

        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(pairs.len());
        let mut vals = Vec::with_capacity(pairs.len());
        row_ptr.push(0u32);
        let mut row = 0usize;
        for &(u, v) in &pairs {
            while row < u as usize {
                row += 1;
                row_ptr.push(col_idx.len() as u32);
            }
            col_idx.push(v);
            vals.push(inv_sqrt[u as usize] * inv_sqrt[v as usize]);
        }
        while row < n {
            row += 1;
            row_ptr.push(col_idx.len() as u32);
        }
        SparseAdj {
            n,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// CSR row offsets (`node_count() + 1` entries). Together with
    /// [`col_indices`](Self::col_indices) this is the complete graph
    /// structure — the normalized values are a pure function of it — so
    /// callers can fingerprint a graph without reaching into the values.
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_ptr
    }

    /// CSR column indices, row-major (see
    /// [`row_offsets`](Self::row_offsets)).
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// Sparse-dense product `Â × x` — the sparse-aware entry point (the
    /// dense [`Matrix::matmul`] kernel does not skip zeros; adjacency
    /// products always belong here).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != node_count()`.
    pub fn matmul(&self, x: &Matrix) -> Matrix {
        self.matmul_stacked(x, 1)
    }

    /// Block-wise `Â × x` for cycle-stacked inputs: `x` is `blocks`
    /// vertically stacked `n×d` matrices (one per cycle) and the shared
    /// adjacency is applied to each `n`-row block independently —
    /// propagation, like attention, must not leak across cycles. Each
    /// block of the result is bit-identical to [`matmul`](Self::matmul)
    /// of that block alone.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != node_count() * blocks`.
    pub fn matmul_stacked(&self, x: &Matrix, blocks: usize) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), x.cols());
        self.matmul_stacked_into(x, blocks, &mut out);
        out
    }

    /// [`matmul_stacked`](Self::matmul_stacked) into a caller-provided
    /// buffer (fully overwritten), so hot paths can reuse scratch memory.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != node_count() * blocks` or `out` is not
    /// shaped like `x`.
    pub fn matmul_stacked_into(&self, x: &Matrix, blocks: usize, out: &mut Matrix) {
        assert_eq!(x.rows(), self.n * blocks, "spmm shape mismatch");
        assert_eq!(out.shape(), x.shape(), "spmm output shape mismatch");
        let d = x.cols();
        out.fill(0.0);
        let level = simd::active_kernel();
        for b in 0..blocks {
            let base = b * self.n;
            for r in 0..self.n {
                let start = self.row_ptr[r] as usize;
                let end = self.row_ptr[r + 1] as usize;
                let orow_start = (base + r) * d;
                for e in start..end {
                    let c = self.col_idx[e] as usize;
                    let w = self.vals[e];
                    let xrow = x.row(base + c);
                    let orow = &mut out.as_mut_slice()[orow_start..orow_start + d];
                    simd::axpy_f64(level, w, xrow, orow);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_and_normalized() {
        let adj = SparseAdj::normalized_from_edges(3, &[(0, 1), (1, 2)]);
        // Dense reconstruction.
        let mut dense = Matrix::zeros(3, 3);
        for r in 0..3 {
            let mut x = Matrix::zeros(3, 1);
            x.set(r, 0, 1.0);
            let y = adj.matmul(&x);
            for c in 0..3 {
                dense.set(c, r, y.get(c, 0));
            }
        }
        // Symmetric.
        for r in 0..3 {
            for c in 0..3 {
                assert!((dense.get(r, c) - dense.get(c, r)).abs() < 1e-12);
            }
        }
        // Self loops present.
        for i in 0..3 {
            assert!(dense.get(i, i) > 0.0);
        }
    }

    #[test]
    fn spectral_radius_bounded() {
        // The symmetric normalized adjacency of A+I has eigenvalues in
        // [-1, 1], so it cannot grow the 2-norm of any vector.
        let adj = SparseAdj::normalized_from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]);
        for seed in 0..5 {
            let x = Matrix::xavier(5, 1, seed);
            let y = adj.matmul(&x);
            assert!(
                y.norm() <= x.norm() + 1e-12,
                "‖Âx‖={} > ‖x‖={}",
                y.norm(),
                x.norm()
            );
        }
    }

    #[test]
    fn duplicate_edges_merged() {
        let a = SparseAdj::normalized_from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        let b = SparseAdj::normalized_from_edges(2, &[(0, 1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn isolated_nodes_keep_identity() {
        let adj = SparseAdj::normalized_from_edges(2, &[]);
        let x = Matrix::from_rows(&[&[3.0], &[4.0]]);
        let y = adj.matmul(&x);
        assert!((y.get(0, 0) - 3.0).abs() < 1e-12);
        assert!((y.get(1, 0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn stacked_product_matches_per_block() {
        let adj = SparseAdj::normalized_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let blocks: Vec<Matrix> = (0..3).map(|i| Matrix::xavier(4, 5, 20 + i)).collect();
        let mut stacked = Matrix::zeros(12, 5);
        for (b, x) in blocks.iter().enumerate() {
            stacked.as_mut_slice()[b * 20..(b + 1) * 20].copy_from_slice(x.as_slice());
        }
        let got = adj.matmul_stacked(&stacked, 3);
        for (b, x) in blocks.iter().enumerate() {
            let want = adj.matmul(x);
            for r in 0..4 {
                assert_eq!(
                    got.row(b * 4 + r),
                    want.row(r),
                    "block {b} row {r} diverged"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "spmm shape mismatch")]
    fn stacked_product_rejects_partial_blocks() {
        let adj = SparseAdj::normalized_from_edges(3, &[(0, 1)]);
        let _ = adj.matmul_stacked(&Matrix::zeros(7, 2), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        let _ = SparseAdj::normalized_from_edges(2, &[(0, 5)]);
    }
}
